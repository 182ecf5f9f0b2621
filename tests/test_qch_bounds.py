from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypladder.errors import (
    ArccoshDomainError,
    InconsistentInput,
    InvalidDilatation,
    NegativeDiameter,
    NonPositiveLength,
    NonPositiveSize,
    NumericalInstability,
)
from hypladder.hyp_core import ARCSINH_1, R_FORMULA_NAME, collar_width
from hypladder.qch_bounds import (
    QCHParams,
    area_window_m,
    report,
    separation_bounds,
    shortpants_global,
    shortpants_step,
    spacing,
)

LOG4 = math.log(4.0)


def unit_params(**kw):
    defaults = dict(K=1.0, L=1.0, m_inj=0.5, R=0.0)
    defaults.update(kw)
    return QCHParams(**defaults)


class TestParams:
    def test_C(self):
        assert unit_params().C == pytest.approx(LOG4)

    def test_default_R_is_stability_bound(self):
        p = QCHParams(K=1.0, L=1.0, m_inj=0.5)
        assert p.R == 0.0
        assert p.r_formula == R_FORMULA_NAME

    def test_user_R_flagged(self):
        p = unit_params(R=0.25)
        assert p.R == 0.25
        assert p.r_formula == "user-supplied"

    def test_r_formula_is_not_settable(self):
        # the provenance follows from R alone, so a caller cannot relabel it
        with pytest.raises(TypeError):
            QCHParams(K=1.5, L=1.0, m_inj=0.5, r_formula="made-up")

    def test_validation(self):
        with pytest.raises(InvalidDilatation):
            QCHParams(K=0.5, L=1.0, m_inj=0.5)
        with pytest.raises(NonPositiveLength):
            QCHParams(K=1.0, L=0.0, m_inj=0.5)
        with pytest.raises(NonPositiveLength):
            QCHParams(K=1.0, L=1.0, m_inj=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, value):
        with pytest.raises(InvalidDilatation):
            QCHParams(K=value, L=1.0, m_inj=0.5)
        with pytest.raises(NonPositiveLength):
            QCHParams(K=1.0, L=value, m_inj=0.5)
        with pytest.raises(NonPositiveLength):
            QCHParams(K=1.0, L=1.0, m_inj=value)

    @pytest.mark.parametrize("R", [-1.0, math.nan, math.inf])
    def test_rejects_bad_user_R(self, R):
        with pytest.raises(NonPositiveLength):
            unit_params(R=R)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool_inputs(self, flag):
        # a bool would be stored and serialised as JSON true or false
        with pytest.raises(InvalidDilatation, match="dilatation must be a number"):
            QCHParams(K=flag, L=1.0, m_inj=0.5)
        with pytest.raises(NonPositiveLength, match="base curve length must be a number"):
            QCHParams(K=1.5, L=flag, m_inj=0.5)
        with pytest.raises(NonPositiveLength, match="injectivity radius bound must be a number"):
            QCHParams(K=1.5, L=1.0, m_inj=flag)
        with pytest.raises(NonPositiveLength, match="fellow-traveling constant must be a number"):
            QCHParams(K=1.5, L=1.0, m_inj=0.5, R=flag)

    @pytest.mark.parametrize("K", ["x", None])
    def test_rejects_a_dilatation_that_is_no_number(self, K):
        with pytest.raises(InvalidDilatation, match="dilatation must be a number") as info:
            QCHParams(K, 1.0, 1.0)
        assert not isinstance(info.value, TypeError)

    def test_rejects_an_R_that_is_no_number(self):
        with pytest.raises(NonPositiveLength, match="fellow-traveling constant must be a number"):
            QCHParams(1.5, 1.0, 1.0, "x")

    def test_report_inputs_stay_numbers(self):
        d = report(QCHParams(K=1, L=1, m_inj=0.5)).to_dict()
        assert not any(isinstance(v, bool) for v in d["inputs"].values())

    @pytest.mark.parametrize("params", [None, "x", (1.5, 1.0, 0.5), {"K": 1.5, "L": 1.0, "m_inj": 0.5}])
    def test_report_refuses_params_that_are_no_record(self, params):
        with pytest.raises(InconsistentInput, match="parameters must be QCHParams") as info:
            report(params)
        assert not isinstance(info.value, AttributeError)

    def test_area_window_that_is_not_finite_is_refused(self):
        # every constant is finite, but the area-window bound is not
        with pytest.raises(NumericalInstability, match="area-window bound is not finite"):
            report(QCHParams(K=1e300, L=1e10, m_inj=1.0, R=1.0))

    def test_overflowing_default_R_is_refused(self):
        # an explicit R=inf is refused, so a default R that overflows is too
        with pytest.raises(NumericalInstability):
            QCHParams(K=1e155, L=1.0, m_inj=0.5)


class TestSeparationBounds:
    def test_unit_values_exact(self):
        a, rho, hf, b = separation_bounds(unit_params())
        assert a == 2.0
        assert rho == 3.5
        assert hf == pytest.approx(1.0 / (2.0 * collar_width(1.0)) + 1.0, abs=1e-9)
        assert b == pytest.approx(hf * 3.5)

    def test_ordering_on_grid(self):
        for K in [1.0 + 0.25 * i for i in range(10)]:
            for L in [0.5 + 0.35 * j for j in range(10)]:
                p = QCHParams(K=K, L=L, m_inj=0.5)
                a, rho, hf, b = separation_bounds(p)
                assert a <= rho <= b
                assert hf > 1.0

    def test_spacing(self):
        assert spacing(unit_params()) == 3.0
        assert spacing(unit_params(R=1.0)) == 6.0

    @given(
        st.floats(min_value=1.0, max_value=4.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ordering_property(self, K, L):
        a, rho, _, b = separation_bounds(QCHParams(K=K, L=L, m_inj=0.5))
        assert a <= rho <= b


class TestAreaWindow:
    def test_unit_value(self):
        assert area_window_m(unit_params()) == 4

    def test_strictly_greater(self):
        p = unit_params()
        a, _, _, b = separation_bounds(p)
        bound = (p.K / a) * (b + p.C + p.R)
        m = area_window_m(p)
        assert m > bound
        assert m - 1 <= bound

    def test_grows_with_K(self):
        m1 = area_window_m(QCHParams(K=1.0, L=1.0, m_inj=0.5))
        m2 = area_window_m(QCHParams(K=2.0, L=1.0, m_inj=0.5))
        assert m2 > m1

    def test_overflow_raises(self):
        # the default R is K^2*(...), which overflows for this K
        with pytest.raises(NumericalInstability):
            area_window_m(QCHParams(K=1e200, L=1.0, m_inj=0.5))


class TestShortPants:
    def test_collapse_at_unit_sinh(self):
        # sinh(m/2) = 1 makes the step M -> M + arccosh(cosh(M/2)) = 3M/2
        m = 2.0 * ARCSINH_1
        for M in (0.5, 1.0, 2.0, 4.0):
            assert shortpants_step(M, m) == pytest.approx(1.5 * M, abs=1e-12)

    def test_reference_value(self):
        expected = 1.0 + math.acosh(math.cosh(0.5) / math.sinh(0.5))
        assert shortpants_step(1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_M(self):
        vals = [shortpants_step(M, 1.0) for M in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)

    def test_decreasing_in_inj_radius(self):
        assert shortpants_step(1.0, 0.5) > shortpants_step(1.0, 1.5)

    def test_domain_error(self):
        # huge injectivity radius with a tiny bound leaves arccosh undefined
        with pytest.raises(ArccoshDomainError) as exc:
            shortpants_step(0.1, 10.0)
        assert exc.value.ratio < 1.0

    def test_validation(self):
        with pytest.raises(NonPositiveLength):
            shortpants_step(0.0, 1.0)
        with pytest.raises(NonPositiveLength):
            shortpants_step(1.0, 0.0)

    def test_global_iterates(self):
        one = shortpants_step(1.0, 1.0)
        two = shortpants_step(one, 1.0)
        assert shortpants_global(1.0, 1.0, 0) == 1.0
        assert shortpants_global(1.0, 1.0, 1) == pytest.approx(one)
        assert shortpants_global(1.0, 1.0, 2) == pytest.approx(two)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, value):
        for M, m in ((value, 1.0), (1.0, value)):
            with pytest.raises(NonPositiveLength):
                shortpants_step(M, m)
            with pytest.raises(NonPositiveLength):
                shortpants_global(M, m, 0)

    @pytest.mark.parametrize("M, m", [(1e308, 0.5), (1419.0, 0.5), (1.0, 1e200)])
    def test_overflow_raises(self, M, m):
        with pytest.raises(NumericalInstability):
            shortpants_step(M, m)

    @pytest.mark.parametrize("m", [5e-324, 1e-323])
    def test_subnormal_inj_radius_overflows(self, m):
        # sinh(m/2) is 0 at the smallest subnormal and a subnormal just
        # above it; either way the ratio has no finite value
        with pytest.raises(NumericalInstability, match="short-pants step overflows"):
            shortpants_step(1.5, m)
        with pytest.raises(NumericalInstability, match="short-pants step overflows"):
            shortpants_global(1.0, m, 2)

    def test_global_rejects_negative_diameter(self):
        with pytest.raises(ValueError):
            shortpants_global(1.0, 1.0, -1)

    @pytest.mark.parametrize("diameter", [2.5, 1.0, True, False, "2"])
    def test_global_rejects_diameter_that_is_not_an_int(self, diameter):
        # a bool would count as one step, and a float raised TypeError
        with pytest.raises(NonPositiveSize, match="diameter must be an integer"):
            shortpants_global(1.0, 1.0, diameter)

    def test_negative_diameter_is_a_domain_error(self):
        with pytest.raises(NegativeDiameter) as info:
            shortpants_global(1.0, 1.0, -3)
        assert info.value.rule == "diameter-negative"

    @given(
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=0.3, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_increases_property(self, M, m):
        assert shortpants_step(M, m) > M


class TestReport:
    def test_unit_report(self):
        rep = report(unit_params())
        assert rep.C == pytest.approx(LOG4)
        assert rep.D == 3.0
        assert rep.a == 2.0
        assert rep.rho_upper == 3.5
        assert rep.m_window == 4
        assert rep.pants_bound_per_step == pytest.approx(shortpants_step(1.0, 0.5))

    def test_dict_shape(self):
        d = report(unit_params()).to_dict()
        assert set(d) == {"inputs", "constants", "provenance"}
        assert d["constants"]["area_A"] == "surface-dependent, not computed"
        assert d["provenance"]["r_formula"] == "user-supplied"

    def test_default_R_provenance(self):
        d = report(QCHParams(K=1.5, L=1.0, m_inj=0.5)).to_dict()
        assert d["provenance"]["r_formula"] == R_FORMULA_NAME
