"""Explicit constant chain for quasiconformally homogeneous ladder surfaces.

Starting from a dilatation K, a base curve length L, a fellow-traveling
constant R and an injectivity-radius lower bound, this module propagates the
closed-form spacing/separation constants, the area-window index m, and the
short-pants length bound, and assembles them into a BoundReport.

The injectivity-radius bound is a required input: the lower bound depending
only on K comes from an external theorem with no usable formula, so nothing
here guesses it.  Likewise the area constant A is surface-dependent and is
reported as not computed.
"""

from __future__ import annotations

import math

from .errors import (
    ArccoshDomainError,
    InvalidDilatation,
    NegativeDiameter,
    NumericalInstability,
    _Record,
    check_int,
    check_number,
    check_record,
)
from .hyp_core import R_FORMULA_NAME, collar_width, quasi_geodesic_stability_R

LOG4 = math.log(4.0)


class QCHParams(_Record):
    """Inputs of the constant chain.

    R defaults to the stability bound of hyp_core; pass an explicit value to
    override.  r_formula names where R came from and is set from R alone.
    C is always K*log4.  A ``bool`` is refused for every input: it would be
    kept, and serialised as JSON true or false where a number belongs.
    """

    __slots__ = ("K", "L", "m_inj", "R", "r_formula")
    __match_args__ = ("K", "L", "m_inj", "R")

    def __init__(self, K: float, L: float, m_inj: float, R: float | None = None):
        check_number("dilatation", K, 1.0, True, "be >= 1", InvalidDilatation)
        check_number("base curve length", L)
        check_number("injectivity radius bound", m_inj)
        if R is None:
            R = quasi_geodesic_stability_R(K, L)
            r_formula = R_FORMULA_NAME
        else:
            check_number("fellow-traveling constant", R, 0.0, True, "be finite and >= 0")
            r_formula = "user-supplied"
        self._set_fields(K, L, m_inj, R, r_formula)

    @property
    def C(self) -> float:
        return self.K * LOG4


def spacing(params: QCHParams) -> float:
    """Arc-length spacing 3*(R + K*L) between consecutive sample points along
    the distance-minimizing geodesic."""
    return 3.0 * (params.R + params.K * params.L)


def separation_bounds(params: QCHParams) -> tuple[float, float, float, float]:
    """Per-index separation constants (a, rho_upper, hausdorff_factor, b).

    a = R + 2KL and rho_upper = 5R + 7KL/2 bound the orthogeodesic distance
    between the special curves per unit of index difference; the Hausdorff
    distance picks up the collar factor KL/(2*eta(L/K)) + 1, giving
    b = factor * rho_upper.
    """
    K, L, R = params.K, params.L, params.R
    a = R + 2.0 * K * L
    rho_upper = 5.0 * R + 3.5 * K * L
    hausdorff_factor = K * L / (2.0 * collar_width(L / K)) + 1.0
    b = hausdorff_factor * rho_upper
    return a, rho_upper, hausdorff_factor, b


def area_window_m(params: QCHParams) -> int:
    """Smallest integer strictly greater than (K/a)*(b + C + R).  Raises
    NumericalInstability when the constants overflow and the bound is not
    finite."""
    a, _, _, b = separation_bounds(params)
    bound = (params.K / a) * (b + params.C + params.R)
    if not math.isfinite(bound):
        raise NumericalInstability(f"area-window bound is not finite: {bound}")
    return math.floor(bound) + 1


def shortpants_step(M: float, m_inj: float) -> float:
    """One elementary-move step of the cuff-length bound:
    M -> M + arccosh(cosh(M/2)/sinh(m_inj/2)).  Raises NumericalInstability
    when the step overflows, also where sinh(m_inj/2) underflows to 0 (m_inj
    the smallest subnormal)."""
    check_number("length bound", M)
    check_number("injectivity radius bound", m_inj)
    try:
        ratio = math.cosh(M / 2.0) / math.sinh(m_inj / 2.0)
    except (OverflowError, ZeroDivisionError):
        ratio = math.inf  # the step below is then infinite and refused
    if ratio < 1.0:
        raise ArccoshDomainError(
            f"cosh(M/2)/sinh(m_inj/2) = {ratio} < 1: no orthogeodesic bound",
            ratio=ratio,
        )
    step = M + math.acosh(ratio)
    if step == math.inf:
        raise NumericalInstability(f"short-pants step overflows at M={M}, m_inj={m_inj}")
    return step


def shortpants_global(M: float, m_inj: float, diameter: int) -> float:
    """Iterate shortpants_step along a modular-pants-graph path of the given
    length, an ``int`` (not a ``bool``); diameter 0 returns M unchanged."""
    check_int("diameter", diameter, 0, NegativeDiameter)
    check_number("length bound", M)
    check_number("injectivity radius bound", m_inj)
    bound = M
    for _ in range(diameter):
        bound = shortpants_step(bound, m_inj)
    return bound


class BoundReport(_Record):
    """Full constant chain for one parameter set."""

    __slots__ = __match_args__ = ("params", "C", "D", "a", "rho_upper", "hausdorff_factor",
                                  "b", "m_window", "pants_bound_per_step")

    def __init__(self, params: QCHParams, C: float, D: float, a: float, rho_upper: float,
                 hausdorff_factor: float, b: float, m_window: int,
                 pants_bound_per_step: float):
        self._set_fields(params, C, D, a, rho_upper, hausdorff_factor, b, m_window,
                         pants_bound_per_step)

    def to_dict(self) -> dict:
        return {
            "inputs": {
                "K": self.params.K,
                "L": self.params.L,
                "R": self.params.R,
                "m_inj": self.params.m_inj,
            },
            "constants": {
                "C": self.C,
                "D": self.D,
                "a": self.a,
                "rho_upper": self.rho_upper,
                "hausdorff_factor": self.hausdorff_factor,
                "b": self.b,
                "m_window": self.m_window,
                "pants_bound_per_step": self.pants_bound_per_step,
                "area_A": "surface-dependent, not computed",
            },
            "provenance": {"r_formula": self.params.r_formula},
        }


def report(params: QCHParams) -> BoundReport:
    """Assemble every constant a verifier needs for the given parameters.

    pants_bound_per_step is the one-step short-pants increment starting from
    the cuff-length bound K*L of the special curves.
    """
    check_record("parameters", params, QCHParams)
    a, rho_upper, hausdorff_factor, b = separation_bounds(params)
    return BoundReport(
        params=params,
        C=params.C,
        D=spacing(params),
        a=a,
        rho_upper=rho_upper,
        hausdorff_factor=hausdorff_factor,
        b=b,
        m_window=area_window_m(params),
        pants_bound_per_step=shortpants_step(params.K * params.L, params.m_inj),
    )
