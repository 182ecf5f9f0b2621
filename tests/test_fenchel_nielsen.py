from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypladder.errors import (
    InconsistentInput,
    MissingCoordinates,
    NonPositiveLength,
    NonPositiveSize,
    NotShiftInvariant,
    NumericalInstability,
    ScaleTooLarge,
)
from hypladder.fenchel_nielsen import (
    CURVE_FAMILIES,
    FNCoordinates,
    PantsCuffs,
    TWIST_CONVENTION,
    build_ladder_fn,
    fn_from_json,
    fn_to_csv,
    fn_to_json,
    holonomy_from_fn,
    normalize_angle,
    pants_holonomy,
    pants_orthogeodesics,
    quotient_by_shift,
)
from hypladder.hyp_core import geodesic_length_from_trace
from hypladder.pants_graph import TrivalentGraph

# orthogeodesic distance between two cuffs of the (1,1,1) pants, from the
# right-angled hexagon identity
D_111 = 2.868695141619822


class TestPantsCuffs:
    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveLength):
            PantsCuffs(1.0, 0.0, 1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_rejects_nonfinite(self, length):
        with pytest.raises(NonPositiveLength):
            PantsCuffs(1.0, length, 1.0)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool(self, flag):
        with pytest.raises(NonPositiveLength, match="cuff length must be a number"):
            PantsCuffs(flag, 1.0, 1.0)


class TestOrthogeodesics:
    def test_symmetric_pants_reference_value(self):
        d12, d13, d23 = pants_orthogeodesics(PantsCuffs(1.0, 1.0, 1.0))
        assert d12 == pytest.approx(D_111, abs=1e-12)
        assert d13 == pytest.approx(D_111, abs=1e-12)
        assert d23 == pytest.approx(D_111, abs=1e-12)

    def test_longer_cuffs_come_closer(self):
        d_small = pants_orthogeodesics(PantsCuffs(1.0, 1.0, 1.0))[0]
        d_large = pants_orthogeodesics(PantsCuffs(3.0, 3.0, 1.0))[0]
        assert d_large < d_small

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_positive_property(self, l1, l2, l3):
        for d in pants_orthogeodesics(PantsCuffs(l1, l2, l3)):
            assert d > 0.0


class TestNormalizeAngle:
    def test_identity_range(self):
        assert normalize_angle(1.0) == (1.0, 0)

    def test_folds_down(self):
        folded, turns = normalize_angle(2.0 * math.pi + 0.5)
        assert folded == pytest.approx(0.5)
        assert turns == 1

    def test_folds_up(self):
        folded, turns = normalize_angle(-0.5)
        assert folded == pytest.approx(2.0 * math.pi - 0.5)
        assert turns == -1

    @pytest.mark.parametrize("theta", ["x", None])
    def test_rejects_a_twist_that_is_no_number(self, theta):
        # refused as a twist, not as a bare TypeError from math.isfinite
        with pytest.raises(InconsistentInput, match="twist angle must be a number") as info:
            normalize_angle(theta)
        assert not isinstance(info.value, TypeError)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @example(-8186.9904552550015)  # the fold rounds to -9.1e-13: one turn less, 2*pi - 9.1e-13
    @example(-5e-324)  # below 0, and 2*pi added to it rounds to 2*pi: (0.0, 0)
    @settings(max_examples=80, deadline=None)
    def test_range_and_congruence(self, theta):
        folded, turns = normalize_angle(theta)
        assert 0.0 <= folded < 2.0 * math.pi
        assert folded + turns * 2.0 * math.pi == pytest.approx(theta, abs=1e-9)

    @pytest.mark.parametrize("theta, want", [(-8186.9904552550015, (6.283185307178677, -1304)),
                                             (-5e-324, (0.0, 0))])
    def test_fold_guards(self, theta, want):
        assert normalize_angle(theta) == want


class TestBuildLadderFN:
    def test_model_surface_sextuplets(self):
        fn = build_ladder_fn(2)
        for k in fn.indices():
            assert fn.coords[k] == (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)

    def test_callable_lengths(self):
        fn = build_ladder_fn(2, lengths=lambda fam, k: 2.0 if fam == "c" else 1.0)
        assert fn.length("c", 1) == 2.0
        assert fn.length("a", 1) == 1.0

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_lengths(self, flag):
        # True would be kept and written as JSON true and CSV True
        with pytest.raises(NonPositiveLength, match="length for a_-1 must be a number"):
            build_ladder_fn(1, lengths=flag)

    @pytest.mark.parametrize("value", ["x", None, 1j])
    def test_rejects_non_number_lengths(self, value):
        with pytest.raises(NonPositiveLength, match="length for a_-1 must be a number"):
            build_ladder_fn(1, lengths=value)
        with pytest.raises(NonPositiveLength, match="cuff length must be a number"):
            PantsCuffs(value, 1.0, 1.0)
        with pytest.raises(NonPositiveLength, match="cuff length must be a number"):
            pants_holonomy(["1", "2", "3"], (1.0, 1.0, value))

    def test_twists_folded(self):
        fn = build_ladder_fn(1, twists=2.0 * math.pi + 0.25)
        assert fn.twist("b", 0) == pytest.approx(0.25)

    def test_rejects_bad_window(self):
        with pytest.raises(NonPositiveSize):
            build_ladder_fn(0)
        with pytest.raises(NonPositiveSize):
            FNCoordinates(window=0, coords={0: (1, 0, 1, 0, 1, 0)})

    # a window or period is an int: a float, a bool, a string or None is a
    # size error, never passed on to range() or to a lookup of coords[1.5]
    NOT_INTS = [1.0, 2.5, math.nan, math.inf, True, False, "2", None]

    @pytest.mark.parametrize("window", NOT_INTS)
    def test_rejects_window_that_is_not_an_int(self, window):
        with pytest.raises(NonPositiveSize, match="window size must be an integer"):
            build_ladder_fn(window)
        with pytest.raises(NonPositiveSize, match="window size must be an integer"):
            FNCoordinates(window, build_ladder_fn(1).coords)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_coordinates(self, value):
        with pytest.raises(NonPositiveLength):
            build_ladder_fn(1, lengths=value)
        with pytest.raises(InconsistentInput):
            build_ladder_fn(1, twists=value)
        with pytest.raises(NonPositiveLength):
            FNCoordinates(window=1, coords={k: (1, 0, value, 0, 1, 0) for k in (-1, 0, 1)})

    def test_rejects_nonpositive_length(self):
        with pytest.raises(NonPositiveLength):
            build_ladder_fn(1, lengths=0.0)

    def test_rejects_twists_that_are_no_number(self):
        with pytest.raises(InconsistentInput, match="twist angle must be a number, got 'x'"):
            build_ladder_fn(1, twists="x")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_coordinates_refuse_a_nonfinite_twist(self, value):
        # a NaN twist would pass every shift test (abs(nan - 0.3) > tol is
        # False), so a ladder that is not periodic would be quotiented
        coords = {k: (1.0, value if k == 0 else 0.3, 1.0, 0.3, 1.0, 0.3) for k in (-1, 0, 1)}
        with pytest.raises(InconsistentInput, match="twist at index 0 must be finite"):
            FNCoordinates(window=1, coords=coords)

    def test_coordinates_refuse_a_twist_that_is_no_number(self):
        coords = {k: (1.0, 0.0, 1.0, None, 1.0, 0.0) for k in (-1, 0, 1)}
        with pytest.raises(InconsistentInput, match="twist at index -1 must be a number"):
            FNCoordinates(window=1, coords=coords)

    @pytest.mark.parametrize("sextuple", [(1.0, 0.0, 1.0, 0.0, 1.0), (1.0, 0.0) * 4, (), 1.0])
    def test_coordinates_refuse_a_sextuple_of_another_length(self, sextuple):
        coords = dict.fromkeys((-1, 0, 1), sextuple)
        with pytest.raises(InconsistentInput, match="coordinates at index -1 must be six"):
            FNCoordinates(window=1, coords=coords)

    def test_missing_index_rejected(self):
        with pytest.raises(ValueError):
            FNCoordinates(window=1, coords={0: (1, 0, 1, 0, 1, 0)})

    def test_missing_index_is_a_domain_error(self):
        coords = {k: (1, 0, 1, 0, 1, 0) for k in (-2, -1, 0, 2)}
        with pytest.raises(MissingCoordinates, match="index 1") as info:
            FNCoordinates(window=2, coords=coords)
        assert info.value.rule == "coordinates-missing"


class TestPantsHolonomy:
    def test_relation_closes(self):
        p = pants_holonomy(["c", "a", "b"], (1.0, 1.0, 1.0))
        assert p.closure_residual() < 1e-9

    def test_traces_give_cuff_lengths(self):
        lengths = (0.7, 1.3, 2.1)
        p = pants_holonomy(["c", "a", "b"], lengths)
        for X, l in zip(p.matrices, lengths):
            assert 2.0 * math.acosh(abs(X.trace()) / 2.0) == pytest.approx(l, abs=1e-9)

    def test_normalizers_align_axes(self, geometry):
        g = geometry
        p = pants_holonomy(["c", "a", "b"], (0.9, 1.4, 2.2))
        for X, N, l in zip(p.matrices, p.normalizers, p.lengths):
            N = g.entries(N)
            model = g.mul(g.mul(N, g.translation(l)), g.inverse(N))
            assert g.dist_to_identity(g.mul(model, g.inverse(g.entries(X)))) < 1e-9

    @given(
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.3, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_closure_property(self, l1, l2, l3):
        p = pants_holonomy(["1", "2", "3"], (l1, l2, l3))
        assert p.closure_residual() < 1e-8


def _random_ladder(N: int):
    """Window [-N, N] with seeded, independent random lengths and twists."""
    rng = random.Random(N)
    draws = {
        (fam, k): (rng.uniform(0.3, 3.0), rng.uniform(-20.0, 20.0))
        for k in range(-N, N + 1)
        for fam in CURVE_FAMILIES
    }
    return build_ladder_fn(
        N,
        lengths=lambda fam, k: draws[fam, k][0],
        twists=lambda fam, k: draws[fam, k][1],
    )


LADDERS = {
    "62-1.0": lambda: build_ladder_fn(62, lengths=1.0),
    "80-0.5": lambda: build_ladder_fn(80, lengths=0.5),
    **{f"random-{N}": (lambda N=N: _random_ladder(N)) for N in (1, 2, 7, 30, 60, 90)},
}


class TestHolonomyFromFN:
    def test_model_surface_recovers_unit_lengths(self):
        fn = build_ladder_fn(4)
        hol = holonomy_from_fn(fn)
        for fam, k in fn.curves():
            assert hol.recovered_length(fam, k) == pytest.approx(1.0, abs=1e-6)

    def test_global_lengths_match_local(self):
        fn = build_ladder_fn(4, twists=0.3)
        hol = holonomy_from_fn(fn)
        for fam, k in fn.curves():
            assert hol.global_length(fam, k) == pytest.approx(1.0, abs=1e-6)

    def test_nonuniform_lengths_recovered(self):
        fn = build_ladder_fn(3, lengths=lambda fam, k: 2.0 if fam == "c" else 0.8)
        hol = holonomy_from_fn(fn)
        assert hol.recovered_length("c", -1) == pytest.approx(2.0, abs=1e-9)
        assert hol.recovered_length("a", 2) == pytest.approx(0.8, abs=1e-9)

    def test_twists_leave_cuff_lengths_alone(self):
        for theta in (0.0, 0.5, 2.0, 5.0):
            hol = holonomy_from_fn(build_ladder_fn(3, twists=theta))
            assert hol.recovered_length("b", 1) == pytest.approx(1.0, abs=1e-9)

    def test_gluing_residual(self, geometry):
        fn = build_ladder_fn(2, twists=0.4)
        hol = holonomy_from_fn(fn)
        p1 = hol.pants[("P1", 0)]
        p2 = hol.pants[("P2", 0)]
        T = hol.transitions[(("P1", 0), ("P2", 0), ("a", 0))]
        Xp = p1.matrices[p1.cuffs.index(("a", 0))]
        Xq = p2.matrices[p2.cuffs.index(("a", 0))]
        # across a gluing the cuff is traversed in opposite directions
        g = geometry
        T, Xq, Xp = g.entries(T), g.entries(Xq), g.entries(Xp)
        resid = g.dist_to_identity(g.mul(g.mul(g.mul(T, Xq), g.inverse(T)), Xp))
        assert resid < 1e-9

    def test_window_stability(self):
        small = holonomy_from_fn(build_ladder_fn(2, twists=0.2))
        large = holonomy_from_fn(build_ladder_fn(4, twists=0.2))
        m_small = small.matrix("a", 0)
        m_large = large.matrix("a", 0)
        assert m_small.a == pytest.approx(m_large.a, abs=1e-12)
        assert m_small.b == pytest.approx(m_large.b, abs=1e-12)

    @pytest.mark.parametrize("N, length", [(62, 1.0), (80, 0.5)])
    def test_long_windows_recover_global_lengths(self, N, length):
        # frames grow past 1e150 here; conjugation by a frame keeps the trace
        fn = build_ladder_fn(N, lengths=length)
        hol = holonomy_from_fn(fn)
        for fam, k in fn.curves():
            assert hol.global_length(fam, k) == pytest.approx(length, abs=1e-9)

    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    def test_global_length_equals_exact_conjugation(self, ladder, conjugate_entries):
        hol = holonomy_from_fn(LADDERS[ladder]())
        for fam, k in hol.fn.curves():
            a, _, _, d = conjugate_entries(hol.frames[("P1", k)], hol.matrix(fam, k))
            assert hol.global_length(fam, k) == geodesic_length_from_trace(abs(float(a + d)))

    def test_nonfinite_frame_raises(self):
        with pytest.raises(NumericalInstability):
            holonomy_from_fn(build_ladder_fn(120, lengths=0.5))

    # valid cuff lengths at which the float arithmetic of a pants breaks
    # down: sqrt of a negative roundoff discriminant, a division by an
    # underflowed product, an overflowing exp/cosh, a trace rounded to 2,
    # a NaN or zero determinant
    @pytest.mark.parametrize("length", [
        10 ** -8.3, 10 ** -4.55, 1e-200, 5e-324, 5e-9, 1e-12,
        80.0, 800.0, 1.6e3, 1e4, 1e300,
    ])
    @pytest.mark.parametrize("twist", [0.0, 0.3])
    def test_breakdown_is_numerical_instability(self, length, twist):
        with pytest.raises(NumericalInstability):
            holonomy_from_fn(build_ladder_fn(1, lengths=length, twists=twist))

    def test_every_valid_length_builds_or_is_numerical_instability(self):
        # cuff lengths 10^e for e from -323.5 to 308 in steps of 1/8; every
        # cuff of a holonomy that builds recovers a length from its trace,
        # so no X1 or X2 with a trace rounded to 2 or below is stored
        for e in range(-2588, 2465):
            try:
                hol = holonomy_from_fn(build_ladder_fn(1, lengths=10.0 ** (e / 8)))
            except NumericalInstability:
                continue
            for fam, k in hol.fn.curves():
                assert hol.recovered_length(fam, k) > 0.0

    @pytest.mark.parametrize("length", [1e-5, 10 ** -3.75])
    def test_cuff_whose_trace_rounds_to_two_is_refused(self, length):
        # X2's trace is 1.99999237 at 1e-5: a hyperbolic cuff that is not one
        with pytest.raises(NumericalInstability, match="trace"):
            pants_holonomy(["1", "2", "3"], (length, length, length))


class TestNumericalBreakdown:
    @pytest.mark.parametrize("lengths", [(2000.0, 1.0, 1.0), (1e-200, 1e-200, 1.0)])
    def test_orthogeodesics(self, lengths):
        with pytest.raises(NumericalInstability):
            pants_orthogeodesics(PantsCuffs(*lengths))

    @pytest.mark.parametrize("lengths", [(1e4, 1.0, 1.0), (1e-200, 1.0, 1.0), (80.0, 80.0, 80.0)])
    def test_pants_holonomy(self, lengths):
        with pytest.raises(NumericalInstability):
            pants_holonomy(["1", "2", "3"], lengths)

    @pytest.mark.parametrize("lengths, cause", [
        ((0.002531905736032896, 499.4533087574522, 40.984018174258146),
         "is lost to rounding: its cosh rounds below 1"),
        ((597.2337404858614, 710.699544806672, 1001.0362764998868), "is not finite"),
    ])
    def test_unused_orthogeodesics_guard_the_holonomy(self, lengths, cause):
        # pants_holonomy uses d12 alone, but d23 is lost here; built from d12
        # alone, X3 would recover 10.7 times, or 0.11 times, l3
        with pytest.raises(NumericalInstability, match=f"orthogeodesic .* {cause}"):
            pants_holonomy(["1", "2", "3"], lengths)

    def test_invalid_cuff_is_still_a_length_error(self):
        with pytest.raises(NonPositiveLength):
            pants_holonomy(["1", "2", "3"], (1.0, math.nan, 1.0))


class TestQuotientByShift:
    def test_genus_three(self):
        q = quotient_by_shift(build_ladder_fn(4))
        assert q.euler_characteristic == -4
        assert q.genus == 3
        assert len(q.pants) == 4
        assert len(q.cuffs) == 6

    def test_period_two_invariant_nonuniform(self):
        fn = build_ladder_fn(3, lengths=lambda fam, k: 1.5 if k % 2 else 1.0)
        q = quotient_by_shift(fn)
        assert q.genus == 3

    def test_rejects_non_invariant(self):
        fn = build_ladder_fn(2, lengths=lambda fam, k: 1.0 + 0.1 * (k == 2))
        with pytest.raises(NotShiftInvariant) as exc:
            quotient_by_shift(fn)
        assert exc.value.offending_index == 0

    @pytest.mark.parametrize("period", [0, -1, -3])
    def test_rejects_nonpositive_period(self, period):
        with pytest.raises(NonPositiveSize):
            quotient_by_shift(build_ladder_fn(4), period=period)

    @pytest.mark.parametrize("period", TestBuildLadderFN.NOT_INTS)
    def test_rejects_period_that_is_not_an_int(self, period):
        with pytest.raises(NonPositiveSize, match="shift period must be an integer"):
            quotient_by_shift(build_ladder_fn(4), period=period)

    @pytest.mark.parametrize("fn", [None, "x", {}, 2, build_ladder_fn(2).coords])
    def test_rejects_coordinates_that_are_no_record(self, fn):
        with pytest.raises(InconsistentInput, match="coordinates must be FNCoordinates") as info:
            quotient_by_shift(fn, 1)
        assert not isinstance(info.value, AttributeError)

    def test_period_up_to_window_plus_one(self):
        assert quotient_by_shift(build_ladder_fn(2), period=3).coords.keys() == {0, 1, 2}
        with pytest.raises(ScaleTooLarge):
            quotient_by_shift(build_ladder_fn(2), period=4)

    @pytest.mark.parametrize("period", [1, 3])
    def test_period_p_has_genus_p_plus_one(self, period):
        q = quotient_by_shift(build_ladder_fn(4), period=period)
        # the dual graph, indices mod p: P1[k] and P2[k] share a_k and b_k,
        # P2[k] and P1[k+1] share c_{k+1}; period 1 is the theta graph
        index = {name: i for i, name in enumerate(q.pants)}
        edges = []
        for k in range(period):
            p1, p2 = index[f"P1[{k}]"], index[f"P2[{k}]"]
            edges += [(p1, p2), (p1, p2), (p2, index[f"P1[{(k + 1) % period}]"])]
        dual = TrivalentGraph(n=len(q.pants), edges=edges, half=[0] * len(q.pants))
        assert len(q.pants) == 2 * period
        assert len(q.cuffs) == len(edges) == 3 * period
        assert q.euler_characteristic == -2 * period
        assert dual.surface() == (q.genus, 0) == (period + 1, 0)

    def test_coords_restricted_to_fundamental_domain(self):
        q = quotient_by_shift(build_ladder_fn(4))
        assert sorted(q.coords) == [0, 1]


class TestSerialization:
    def test_json_round_trip(self):
        fn = build_ladder_fn(2, lengths=1.3, twists=0.7)
        back = fn_from_json(fn_to_json(fn))
        assert back.window == fn.window
        for k in fn.indices():
            assert back.coords[k] == pytest.approx(fn.coords[k])

    def test_json_declares_convention(self):
        data = json.loads(fn_to_json(build_ladder_fn(1)))
        assert data["twist_convention"] == TWIST_CONVENTION

    def test_csv_shape(self):
        text = fn_to_csv(build_ladder_fn(2))
        lines = text.strip().split("\n")
        assert lines[0] == "k,l_a,t_a,l_b,t_b,l_c,t_c"
        assert len(lines) == 6

    def test_families(self):
        assert CURVE_FAMILIES == ("a", "b", "c")
