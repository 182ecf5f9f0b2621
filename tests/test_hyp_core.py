from __future__ import annotations

import copy
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypladder.errors import (
    DegeneratePentagon,
    HypladderError,
    InconsistentInput,
    InvalidDilatation,
    NonPositiveDeterminant,
    NonPositiveLength,
    NotHyperbolic,
    NumericalInstability,
)
from hypladder.hyp_core import (
    _QUARTER_TURN,
    ARCSINH_1,
    MobiusMap,
    _dist_to_identity,
    _inv,
    _mul,
    _perp_translation,
    _translation,
    collar_involution,
    collar_width,
    geodesic_length_from_trace,
    pentagon_closure_residual,
    polygon_closure_residual,
    quasi_geodesic_stability_R,
    solve_pentagon,
)

# frozen reference values, computed independently from the pentagon relations
#   cosh(c) = sinh(b)^2, cosh(b) = sinh(a)*sinh(c) at b = 1
PENTAGON_B1_A = 1.2594707252774575
PENTAGON_B1_C = 0.8474505812958558

ETA_1 = 1.4068291137472952  # arcsinh(1/sinh(1/2))


class TestMobiusMap:
    def test_identity(self):
        i = MobiusMap.identity()
        assert (i.a, i.b, i.c, i.d) == (1.0, 0.0, 0.0, 1.0)

    def test_normalizes_scale(self):
        m = MobiusMap(2.0, 0.0, 0.0, 2.0)
        assert m.a == pytest.approx(1.0)
        assert m.d == pytest.approx(1.0)

    def test_normalizes_sign(self):
        m = MobiusMap(-1.0, 0.0, 0.0, -1.0)
        assert m.trace() == pytest.approx(2.0)

    def test_rejects_negative_determinant(self):
        with pytest.raises(ValueError):
            MobiusMap(1.0, 0.0, 0.0, -1.0)

    @pytest.mark.parametrize("entries", [(1.0, 0.0, 0.0, -1.0), (1.0, 2.0, 1.0, 2.0)])
    def test_nonpositive_determinant_is_a_domain_error(self, entries):
        with pytest.raises(NonPositiveDeterminant) as info:
            MobiusMap(*entries)
        assert info.value.rule == "determinant-nonpositive"

    @pytest.mark.parametrize("entries, error", [
        ((math.nan, 0.0, 0.0, 1.0), NonPositiveDeterminant),
        ((1.0, math.nan, math.nan, 1.0), NonPositiveDeterminant),
        ((-math.inf, 0.0, 0.0, 1.0), NonPositiveDeterminant),
        ((math.inf, 0.0, 0.0, 1.0), NumericalInstability),
        ((1e200, 0.0, 0.0, 1e200), NumericalInstability),
        ((1e200, -1e200, 1e200, 1e200), NumericalInstability),
    ], ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__)
    def test_bad_entries_are_domain_errors(self, entries, error):
        # never a bare ValueError or OverflowError from the determinant
        with pytest.raises(HypladderError) as info:
            MobiusMap(*entries)
        assert type(info.value) is error

    def test_normalized_entry_that_overflows_is_a_domain_error(self):
        # the determinant 1e-20 is finite, but a / sqrt(det) is 1e310
        with pytest.raises(NumericalInstability):
            MobiusMap(1e300, 0.0, 0.0, 1e-320)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 5e-324])
    def test_tiny_multiple_of_identity_is_identity(self, scale):
        # a*d underflows to 0, but the determinant is positive
        m = MobiusMap(scale, 0.0, 0.0, scale)
        assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("entries, expected", [
        ((1e-170, 1e-170, -1e-170, 1e-170), (0.5 ** 0.5, 0.5 ** 0.5, -0.5 ** 0.5, 0.5 ** 0.5)),
        ((1e-300, 0.0, 0.0, 1e300), (1e-300, 0.0, 0.0, 1e300)),
        ((3e-200, 1e-200, 0.0, 1e200), (3e-200 / 3 ** 0.5, 1e-200 / 3 ** 0.5, 0.0,
                                          1e200 / 3 ** 0.5)),
    ])
    def test_entries_of_mixed_size_are_normalized(self, entries, expected):
        m = MobiusMap(*entries)
        assert (m.a, m.b, m.c, m.d) == pytest.approx(expected, rel=1e-15, abs=0.0)

    # the entry helpers behind the holonomy and the pentagon residual,
    # checked against the test geometry (conftest) and plain geometric facts

    def test_translation_moves_i_up(self, geometry):
        z = geometry.apply(_translation(1.0), 1j)
        assert z.real == pytest.approx(0.0)
        assert z.imag == pytest.approx(math.e)

    def test_translation_length_matches_trace(self):
        a, _, _, d = _translation(2.5)
        assert geodesic_length_from_trace(a + d) == pytest.approx(2.5)

    def test_perp_translation_fixes_unit_circle_ends(self):
        rep, att = MobiusMap(*_perp_translation(1.3)).fixed_points()
        assert rep == pytest.approx(-1.0)
        assert att == pytest.approx(1.0)

    def test_rotation_fixes_i(self, geometry):
        # the quarter turn at each corner of the pentagon walk
        assert geometry.apply(_QUARTER_TURN, 1j) == pytest.approx(1j)

    def test_rotation_composes(self, geometry):
        half_turn = _mul(_QUARTER_TURN, _QUARTER_TURN)
        assert half_turn == pytest.approx(geometry.rotation(math.pi), abs=1e-15)

    def test_full_turn_is_identity(self):
        half_turn = _mul(_QUARTER_TURN, _QUARTER_TURN)
        assert _dist_to_identity(_mul(half_turn, half_turn)) < 1e-12

    def test_inverse(self):
        m = _mul(_translation(1.0), _QUARTER_TURN)
        assert _dist_to_identity(_mul(m, _inv(m))) < 1e-12

    def test_matmul_associates_numerically(self, geometry):
        a = MobiusMap(*geometry.translation(0.4))
        b = MobiusMap(*geometry.rotation(1.1))
        c = MobiusMap(*geometry.perp_translation(0.9))
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert lhs.a == pytest.approx(rhs.a, abs=1e-12)
        assert lhs.d == pytest.approx(rhs.d, abs=1e-12)

    def test_fixed_points_of_elliptic_raise(self, geometry):
        with pytest.raises(NotHyperbolic):
            MobiusMap(*geometry.rotation(0.5)).fixed_points()

    def test_fixed_points_of_translation(self, geometry):
        rep, att = MobiusMap(*geometry.translation(1.0)).fixed_points()
        assert rep == pytest.approx(0.0)
        assert att == math.inf

    def test_long_products_stay_constructible(self, geometry):
        # frame-chain regression: entries grow geometrically and the float
        # determinant drifts; composition only fixes the sign, so the product
        # still builds
        assert _drifted(geometry).max_entry() > 1e10


def _scaled(a, b, c, d) -> tuple:
    """What the constructor gave when every input took its power-of-two
    scaled formula: the entries' float.hex, or the error class and message."""
    p = math.frexp(max(abs(a), abs(b)))[1] & -2
    q = math.frexp(max(abs(c), abs(d)))[1] & -2
    sa, sb = math.ldexp(a, -p), math.ldexp(b, -p)
    sc, sd = math.ldexp(c, -q), math.ldexp(d, -q)
    det = sa * sd - sb * sc
    if not det > 0:
        return NonPositiveDeterminant, f"matrix must have positive determinant, got {a * d - b * c}"
    if det == math.inf or math.frexp(det)[1] + p + q > sys.float_info.max_exp:
        return NumericalInstability, "matrix determinant overflows"
    s, r = 1.0 / math.sqrt(det), (p - q) // 2
    try:
        e = (math.ldexp(sa * s, r), math.ldexp(sb * s, r),
             math.ldexp(sc * s, -r), math.ldexp(sd * s, -r))
    except OverflowError:
        return NumericalInstability, "normalized matrix entry overflows"
    if e[0] + e[3] < 0:
        e = tuple(-x for x in e)
    return tuple(x.hex() for x in e)


def _constructed(a, b, c, d) -> tuple:
    try:
        return _bits(MobiusMap(a, b, c, d))
    except HypladderError as exc:
        return type(exc), str(exc)


def _unscaled_range(a, b, c, d) -> bool:
    """Every nonzero entry and the determinant in [2**-250, 2**250]."""
    return all(not x or 2.0**-250 <= abs(x) <= 2.0**250 for x in (a, b, c, d)) \
        and 2.0**-250 <= a * d - b * c <= 2.0**250


def _random_entry(rng, lo: int, hi: int) -> float:
    if rng.random() < 0.1:
        return rng.choice((0.0, -0.0))
    x = math.ldexp(1.0 + rng.getrandbits(52) * 2.0**-52, rng.randint(lo, hi))
    return rng.choice((x, -x))


def _edge_matrices():
    """Entries and determinants at 2**-250 and 2**250 and one ulp either
    side, in every slot and sign."""
    out = []
    for e in (-250, 250):
        edge = 2.0**e
        half = 2.0 ** (e // 2)
        for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)):
            out += [(v, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, v), (1.0, v, 0.0, 1.0),
                    (1.0, 0.0, v, 1.0), (v, 1.0, -1.0, 0.0), (0.0, -v, 1.0, v)]
        for w in (math.nextafter(half, 0.0), half, math.nextafter(half, math.inf)):
            out += [(half, 0.0, 0.0, w), (w, 0.5, -0.5, half), (half, w, -w, half)]
    return [tuple(sign * x for x in m) for m in out for sign in (1.0, -1.0)] + \
        [(m[0], -m[1], -m[2], m[3]) for m in out]


class TestConstructorPaths:
    """The unscaled formula is taken only where it gives the scaled one's
    bits; every other input keeps the scaled path and its refusals."""

    @pytest.mark.parametrize("m", _edge_matrices())
    def test_range_edges(self, m):
        assert _constructed(*m) == _scaled(*m)

    def test_seeded_sweep(self):
        rng = random.Random(24)
        unscaled = scaled = 0
        for i in range(20000):
            # binary exponents over all floats, subnormals included, and near the range
            lo, hi = (-1074, 1023) if i % 2 else (-262, 262)
            m = tuple(_random_entry(rng, lo, hi) for _ in range(4))
            assert _constructed(*m) == _scaled(*m), m
            if _unscaled_range(*m):
                unscaled += 1
            else:
                scaled += 1
        assert unscaled > 2000 and scaled > 2000

    @pytest.mark.parametrize("m", [(math.nan, 0.0, 0.0, 1.0), (math.inf, 0.0, 0.0, 1.0),
                                   (1.0, math.inf, 0.0, 1.0), (1e308, 0.0, 0.0, 1e308),
                                   (1e-308, 0.0, 0.0, 1e-308), (5e-324, 0.0, 0.0, 5e-324)])
    def test_non_finite_and_extreme_keep_the_scaled_path(self, m):
        assert not _unscaled_range(*m)
        assert _constructed(*m) == _scaled(*m)


def _drifted(g) -> MobiusMap:
    """A long product whose float determinant is no longer 1, so going
    through the normalizing constructor would change its bits."""
    m = MobiusMap.identity()
    step = MobiusMap(*g.perp_translation(3.0)) @ MobiusMap(*g.rotation(1.0))
    for _ in range(40):
        m = m @ step
    return m


def _bits(m: MobiusMap) -> tuple:
    return (m.a.hex(), m.b.hex(), m.c.hex(), m.d.hex())


# each made from the test geometry g
VALUES = {
    "identity": lambda g: MobiusMap.identity(),
    "translation": lambda g: MobiusMap(*g.translation(1.3)),
    "product": lambda g: MobiusMap(*g.rotation(0.4)) @ MobiusMap(*g.perp_translation(2.2)),
    "drifted": _drifted,
}


class TestMobiusMapValue:
    """The value semantics of a frozen dataclass: immutable, compared and
    hashed by entries, copied and pickled bit for bit."""

    @pytest.mark.parametrize("name", ["a", "b", "c", "d", "e"])
    def test_assignment_and_deletion_raise(self, name, geometry):
        m = MobiusMap(*geometry.translation(1.0))
        with pytest.raises(AttributeError):
            setattr(m, name, 2.0)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert _bits(m) == _bits(MobiusMap(*geometry.translation(1.0)))

    def test_equal_entries_are_equal_and_hash_equal(self, geometry):
        m, n = (MobiusMap(*geometry.translation(1.3)) for _ in range(2))
        other = MobiusMap(*geometry.translation(1.4))
        assert m is not n and m == n and not m != n
        assert hash(m) == hash(n)
        assert len({m, n, other}) == 2
        assert m != other

    def test_never_equal_to_a_tuple(self):
        m = MobiusMap.identity()
        assert m != (1.0, 0.0, 0.0, 1.0)
        assert (1.0, 0.0, 0.0, 1.0) != m
        assert m.__eq__((1.0, 0.0, 0.0, 1.0)) is NotImplemented

    def test_repr(self, geometry):
        assert repr(MobiusMap.identity()) == "MobiusMap(a=1.0, b=0.0, c=0.0, d=1.0)"
        m = MobiusMap(*geometry.rotation(0.4))
        assert repr(m) == f"MobiusMap(a={m.a!r}, b={m.b!r}, c={m.c!r}, d={m.d!r})"

    def test_drifted_map_is_not_normalized(self, geometry):
        m = _drifted(geometry)
        assert _bits(MobiusMap(m.a, m.b, m.c, m.d)) != _bits(m)

    @pytest.mark.parametrize("name", sorted(VALUES))
    @pytest.mark.parametrize("how", [
        copy.copy,
        copy.deepcopy,
        *(lambda m, p=p: pickle.loads(pickle.dumps(m, protocol=p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_keep_every_bit(self, name, how, geometry):
        m = VALUES[name](geometry)
        c = how(m)
        assert type(c) is MobiusMap
        assert c == m and hash(c) == hash(m)
        assert _bits(c) == _bits(m)
        with pytest.raises(AttributeError):
            c.a = 0.0


class TestFactoriesRefuseNonFinite:
    """The translations' entries, which the holonomy takes, refuse an entry
    that is not finite."""

    @pytest.mark.parametrize("t", [1e4, -1e4, -1430.0, 1e300, math.inf, -math.inf, math.nan])
    def test_translation(self, t):
        with pytest.raises(NumericalInstability):
            _translation(t)

    @pytest.mark.parametrize("d", [1e4, -1e4, 1e300, math.inf, -math.inf, math.nan])
    def test_perp_translation(self, d):
        with pytest.raises(NumericalInstability):
            _perp_translation(d)

    def test_largest_translations_still_build(self):
        # |t| / 2 just below log(max float): both entries are finite
        for t in (1419.0, -1419.0):
            a, _, _, d = _translation(t)
            assert a * d == pytest.approx(1.0)
        assert math.isfinite(_perp_translation(1419.0)[0])


class TestHypDist:
    """The test geometry's distance (conftest), which the quasi-geodesic,
    isometry and diagonal tests measure with."""

    def test_vertical_segment(self, geometry):
        assert geometry.hyp_dist(1j, math.e * 1j) == pytest.approx(1.0)

    def test_symmetry(self, geometry):
        z, w = 0.3 + 1.2j, -0.7 + 0.4j
        assert geometry.hyp_dist(z, w) == pytest.approx(geometry.hyp_dist(w, z))

    def test_isometry_invariance(self, geometry):
        g = geometry
        m = g.mul(g.perp_translation(0.9), g.rotation(0.4))
        z, w = 0.5 + 2.0j, -0.2 + 0.8j
        assert g.hyp_dist(g.apply(m, z), g.apply(m, w)) == pytest.approx(g.hyp_dist(z, w))

    @pytest.mark.parametrize("z", [
        0j, 1.0 + 0j, -1j, complex(0.0, -0.0), complex(math.nan, 1.0),
        complex(1.0, math.nan), complex(math.inf, 1.0), complex(0.0, math.inf),
    ], ids=repr)
    def test_points_off_the_upper_half_plane_rejected(self, z, geometry):
        for pair in ((z, 1j), (1j, z)):
            with pytest.raises(InconsistentInput):
                geometry.hyp_dist(*pair)

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=5),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, geometry, x1, y1, x2, y2):
        d = geometry.hyp_dist(complex(x1, y1), complex(x2, y2))
        assert d >= 0.0
        if (x1, y1) == (x2, y2):
            assert d == 0.0


class TestPentagon:
    def test_reference_solution_at_b1(self):
        p = solve_pentagon(1.0)
        assert p.a == pytest.approx(PENTAGON_B1_A, abs=1e-12)
        assert p.c == pytest.approx(PENTAGON_B1_C, abs=1e-12)

    def test_relations_hold(self):
        p = solve_pentagon(1.7)
        assert math.cosh(p.c) == pytest.approx(math.sinh(p.b) ** 2)
        assert math.cosh(p.b) == pytest.approx(math.sinh(p.a) * math.sinh(p.c))

    def test_degenerate_below_threshold(self):
        with pytest.raises(DegeneratePentagon):
            solve_pentagon(ARCSINH_1)
        with pytest.raises(DegeneratePentagon):
            solve_pentagon(0.5)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool(self, flag):
        # True is 1 > arcsinh(1) to a comparison, and would be kept as b
        with pytest.raises(DegeneratePentagon, match="b must be a number"):
            solve_pentagon(flag)

    @pytest.mark.parametrize("b", [356.0, 1e200, 1e308])
    def test_overflow_raises(self, b):
        with pytest.raises(NumericalInstability):
            solve_pentagon(b)

    def test_closure_residual_small(self):
        for b in (0.9, 1.0, 1.5, 2.5):
            assert pentagon_closure_residual(solve_pentagon(b)) < 1e-9

    def test_closure_residual_detects_wrong_sides(self):
        assert polygon_closure_residual([1.0, 1.0, 1.0, 1.0, 1.0]) > 1e-3

    # the pentagon walk of the test geometry (conftest), the oracle of the
    # tiled diagonals up to b = 10

    def test_vertices_are_in_upper_half_plane(self, geometry):
        pts = geometry.pentagon_vertices(solve_pentagon(1.2))
        assert len(pts) == 5
        assert all(z.imag > 0 for z in pts)

    def test_vertex_side_lengths(self, geometry):
        p = solve_pentagon(1.2)
        pts = geometry.pentagon_vertices(p)
        sides = [p.b, p.b, p.a, p.c, p.a]
        for i, s in enumerate(sides):
            assert geometry.hyp_dist(pts[i], pts[(i + 1) % 5]) == pytest.approx(s, abs=1e-9)

    @pytest.mark.parametrize("b", [36.8, 40.0, 100.0, 300.0, 355.0])
    def test_vertex_lost_to_roundoff_is_numerical_instability(self, b, geometry):
        # b is valid, but roundoff in the walk puts a vertex on the real axis
        # (-x-0j): a breakdown of the computation, not a bad input
        with pytest.raises(NumericalInstability, match="vertex"):
            geometry.pentagon_vertices(solve_pentagon(b))

    def test_vertices_in_upper_half_plane_or_refused(self, geometry):
        for i in range(1417):
            b = 1.0 + 0.25 * i
            try:
                pts = geometry.pentagon_vertices(solve_pentagon(b))
            except NumericalInstability:
                continue
            assert all(0.0 < z.imag < math.inf and math.isfinite(z.real) for z in pts), b

    @given(st.floats(min_value=0.9, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_closure_property(self, b):
        assert pentagon_closure_residual(solve_pentagon(b)) < 1e-9

    @given(st.floats(min_value=0.9, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_b(self, b):
        p1 = solve_pentagon(b)
        p2 = solve_pentagon(b + 0.05)
        assert p2.c > p1.c
        assert p2.a < p1.a


class TestCollar:
    def test_reference_value(self):
        assert collar_width(1.0) == pytest.approx(ETA_1, abs=1e-12)

    def test_fixed_point(self):
        assert abs(collar_width(2.0 * ARCSINH_1) - ARCSINH_1) < 1e-12

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool(self, flag):
        with pytest.raises(NonPositiveLength, match="geodesic length must be a number"):
            collar_width(flag)

    def test_subnormal_lengths(self):
        # 1/sinh(l/2) overflows below l ~ 2.2e-308; the width is log(4/l)
        # there, and keeps growing as l shrinks
        lengths = [3e-308, 2e-308, 1e-308, 1e-310, 1e-320, 5e-324]
        widths = [collar_width(l) for l in lengths]
        for l, w in zip(lengths, widths):
            assert w == pytest.approx(math.log(4.0) - math.log(l), rel=1e-15)
        assert widths == sorted(widths)
        assert collar_width(1e-310) == pytest.approx(715.187673189274, abs=1e-12)

    def test_involution_identity(self):
        for length in (0.1, 0.5, 1.0, 2.0 * ARCSINH_1, 3.0, 10.0):
            assert collar_involution(collar_involution(length)) == pytest.approx(
                length, abs=1e-10
            )

    def test_involution_fixed_point(self):
        fp = 2.0 * ARCSINH_1
        assert collar_involution(fp) == pytest.approx(fp, abs=1e-12)

    def test_monotone_decreasing(self):
        widths = [collar_width(l) for l in (0.2, 0.5, 1.0, 2.0, 5.0)]
        assert widths == sorted(widths, reverse=True)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveLength):
            collar_width(0.0)

    @pytest.mark.parametrize("length", [1421.0, 1e200, 1e308])
    def test_overflow_raises(self, length):
        with pytest.raises(NumericalInstability):
            collar_width(length)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_involution_property(self, length):
        assert collar_involution(collar_involution(length)) == pytest.approx(
            length, rel=1e-9
        )


class TestTraceLength:
    def test_round_trip(self):
        for length in (0.1, 1.0, 3.7):
            t = 2.0 * math.cosh(length / 2.0)
            assert geodesic_length_from_trace(t) == pytest.approx(length)

    def test_negative_trace_same_length(self):
        assert geodesic_length_from_trace(-3.0) == geodesic_length_from_trace(3.0)

    def test_parabolic_rejected(self):
        with pytest.raises(NotHyperbolic):
            geodesic_length_from_trace(2.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace_rejected(self, t):
        with pytest.raises(NotHyperbolic):
            geodesic_length_from_trace(t)

    @given(st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, length):
        t = 2.0 * math.cosh(length / 2.0)
        assert geodesic_length_from_trace(t) == pytest.approx(length, rel=1e-9)


class TestStabilityR:
    def test_isometry_case_is_zero(self):
        assert quasi_geodesic_stability_R(1.0, 5.0) == 0.0

    def test_positive_above_one(self):
        assert quasi_geodesic_stability_R(1.5, 1.0) > 0.0

    def test_monotone_in_K(self):
        vals = [quasi_geodesic_stability_R(k, 1.0) for k in (1.0, 1.2, 1.5, 2.0, 3.0)]
        assert vals == sorted(vals)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidDilatation):
            quasi_geodesic_stability_R(0.9, 1.0)
        with pytest.raises(NonPositiveLength):
            quasi_geodesic_stability_R(1.5, 0.0)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool(self, flag):
        # True is K = 1 to a comparison: R would read 0.0
        with pytest.raises(InvalidDilatation, match="dilatation must be a number"):
            quasi_geodesic_stability_R(flag, 1.0)
        with pytest.raises(NonPositiveLength, match="geodesic length must be a number"):
            quasi_geodesic_stability_R(1.5, flag)

    @pytest.mark.parametrize("value", ["x", None, 1j, [1.0]])
    def test_rejects_non_numbers(self, value):
        # a comparison with a non-number raises TypeError; each guard turns
        # it into its own refusal
        with pytest.raises(InvalidDilatation, match="dilatation must be a number"):
            quasi_geodesic_stability_R(value, 1.0)
        with pytest.raises(NonPositiveLength, match="geodesic length must be a number"):
            quasi_geodesic_stability_R(1.5, value)
        with pytest.raises(NonPositiveLength, match="geodesic length must be a number"):
            collar_width(value)
        with pytest.raises(DegeneratePentagon, match="b must be a number"):
            solve_pentagon(value)

    @pytest.mark.parametrize("K", [math.nan, math.inf])
    def test_rejects_non_finite_dilatation(self, K):
        with pytest.raises(InvalidDilatation):
            quasi_geodesic_stability_R(K, 1.0)

    @pytest.mark.parametrize("K", [1e155, 1e200, 1.7e308])
    def test_overflowing_bound_is_refused(self, K):
        # K^2 * (2*K*log4 + ...) overflows to inf although K is finite
        with pytest.raises(NumericalInstability):
            quasi_geodesic_stability_R(K, 1.0)

    @pytest.mark.parametrize("K", [1.0, 1.5])
    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_rejects_non_finite_length(self, K, length):
        with pytest.raises(NonPositiveLength):
            quasi_geodesic_stability_R(K, length)

    def test_dominates_sampled_quasi_geodesics(self, geometry):
        # piecewise-geodesic (K, K*log4)-quasi-geodesics built by bending the
        # imaginary axis stay within R(K) of their straightening: sample
        # zigzags with segment length 1 and bend angles up to the largest
        # angle keeping the K-quasi-geodesic inequality, and measure how far
        # the bent path strays from the geodesic through its endpoints
        geo = geometry
        hyp_dist = geo.hyp_dist
        K = 2.0
        R = quasi_geodesic_stability_R(K, 1.0)
        for phi in (0.2, 0.5, 0.9):
            g = geo.IDENTITY
            pts = [1j]
            for i in range(12):
                bend = phi if i % 2 == 0 else -phi
                g = geo.mul(geo.mul(g, geo.translation(1.0)), geo.rotation(bend))
                pts.append(geo.apply(g, 1j))
            # keep only zigzags that really are K-quasi-geodesic for arc
            # length vs endpoint distance at every scale
            ok = all(
                hyp_dist(pts[i], pts[j]) >= (j - i) / K - K * math.log(4.0)
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            )
            if not ok:
                continue
            # distance from each sample point to the endpoint geodesic,
            # measured by moving the endpoints to the imaginary axis
            a, b = pts[0], pts[-1]
            stray = 0.0
            for z in pts:
                # distance from z to the geodesic through a and b, bounded by
                # the min distance to a dense sample of the segment
                best = min(
                    hyp_dist(z, a + (b - a) * s) for s in [k / 40 for k in range(41)]
                )
                stray = max(stray, best)
            assert stray <= R
