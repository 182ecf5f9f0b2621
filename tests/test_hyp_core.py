from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypladder.errors import (
    DegeneratePentagon,
    HypladderError,
    InvalidDilatation,
    NonPositiveDeterminant,
    NonPositiveLength,
    NotHyperbolic,
    NumericalInstability,
)
from hypladder.hyp_core import (
    ARCSINH_1,
    MobiusMap,
    collar_involution,
    collar_width,
    geodesic_length_from_trace,
    hyp_dist,
    pentagon_closure_residual,
    pentagon_vertices,
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

    def test_translation_moves_i_up(self):
        z = MobiusMap.translation(1.0).apply(1j)
        assert z.real == pytest.approx(0.0)
        assert z.imag == pytest.approx(math.e)

    def test_translation_length_matches_trace(self):
        t = MobiusMap.translation(2.5).trace()
        assert geodesic_length_from_trace(t) == pytest.approx(2.5)

    def test_perp_translation_fixes_unit_circle_ends(self):
        p = MobiusMap.perp_translation(1.3)
        rep, att = p.fixed_points()
        assert rep == pytest.approx(-1.0)
        assert att == pytest.approx(1.0)

    def test_rotation_fixes_i(self):
        r = MobiusMap.rotation(0.7)
        assert r.apply(1j) == pytest.approx(1j)

    def test_rotation_composes(self):
        r = MobiusMap.rotation(0.3) @ MobiusMap.rotation(0.4)
        assert r.dist_to_identity() == pytest.approx(
            MobiusMap.rotation(0.7).dist_to_identity(), abs=1e-12
        )

    def test_full_turn_is_identity(self):
        r = MobiusMap.rotation(2.0 * math.pi)
        assert r.dist_to_identity() < 1e-12

    def test_inverse(self):
        m = MobiusMap.translation(1.0) @ MobiusMap.rotation(0.5)
        assert (m @ m.inverse()).dist_to_identity() < 1e-12

    def test_matmul_associates_numerically(self):
        a = MobiusMap.translation(0.4)
        b = MobiusMap.rotation(1.1)
        c = MobiusMap.perp_translation(0.9)
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert lhs.a == pytest.approx(rhs.a, abs=1e-12)
        assert lhs.d == pytest.approx(rhs.d, abs=1e-12)

    def test_fixed_points_of_elliptic_raise(self):
        with pytest.raises(NotHyperbolic):
            MobiusMap.rotation(0.5).fixed_points()

    def test_fixed_points_of_translation(self):
        rep, att = MobiusMap.translation(1.0).fixed_points()
        assert rep == pytest.approx(0.0)
        assert att == math.inf

    def test_long_products_stay_constructible(self):
        # frame-chain regression: entries grow geometrically and the float
        # determinant drifts; composition only fixes the sign, so the product
        # still builds
        m = MobiusMap.identity()
        step = MobiusMap.perp_translation(3.0) @ MobiusMap.rotation(1.0)
        for _ in range(40):
            m = m @ step
        assert m.max_entry() > 1e10


class TestHypDist:
    def test_vertical_segment(self):
        assert hyp_dist(1j, math.e * 1j) == pytest.approx(1.0)

    def test_symmetry(self):
        z, w = 0.3 + 1.2j, -0.7 + 0.4j
        assert hyp_dist(z, w) == pytest.approx(hyp_dist(w, z))

    def test_isometry_invariance(self):
        m = MobiusMap.perp_translation(0.9) @ MobiusMap.rotation(0.4)
        z, w = 0.5 + 2.0j, -0.2 + 0.8j
        assert hyp_dist(m.apply(z), m.apply(w)) == pytest.approx(hyp_dist(z, w))

    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=5),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.05, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_zero_iff_equal(self, x1, y1, x2, y2):
        d = hyp_dist(complex(x1, y1), complex(x2, y2))
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

    @pytest.mark.parametrize("b", [356.0, 1e200, 1e308])
    def test_overflow_raises(self, b):
        with pytest.raises(NumericalInstability):
            solve_pentagon(b)

    def test_closure_residual_small(self):
        for b in (0.9, 1.0, 1.5, 2.5):
            assert pentagon_closure_residual(solve_pentagon(b)) < 1e-9

    def test_closure_residual_detects_wrong_sides(self):
        assert polygon_closure_residual([1.0, 1.0, 1.0, 1.0, 1.0]) > 1e-3

    def test_vertices_are_in_upper_half_plane(self):
        pts = pentagon_vertices(solve_pentagon(1.2))
        assert len(pts) == 5
        assert all(z.imag > 0 for z in pts)

    def test_vertex_side_lengths(self):
        p = solve_pentagon(1.2)
        pts = pentagon_vertices(p)
        sides = [p.b, p.b, p.a, p.c, p.a]
        for i, s in enumerate(sides):
            assert hyp_dist(pts[i], pts[(i + 1) % 5]) == pytest.approx(s, abs=1e-9)

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

    def test_dominates_sampled_quasi_geodesics(self):
        # piecewise-geodesic (K, K*log4)-quasi-geodesics built by bending the
        # imaginary axis stay within R(K) of their straightening: sample
        # zigzags with segment length 1 and bend angles up to the largest
        # angle keeping the K-quasi-geodesic inequality, and measure how far
        # the bent path strays from the geodesic through its endpoints
        K = 2.0
        R = quasi_geodesic_stability_R(K, 1.0)
        for phi in (0.2, 0.5, 0.9):
            g = MobiusMap.identity()
            pts = [1j]
            for i in range(12):
                bend = phi if i % 2 == 0 else -phi
                g = g @ MobiusMap.translation(1.0) @ MobiusMap.rotation(bend)
                pts.append(g.apply(1j))
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
