"""Hyperbolic trigonometry and isometry-matrix primitives.

Works in the upper half-plane model.  Isometries are 2x2 real unimodular
matrices acting by fractional linear transformations; traces give
translation lengths directly via ``2*arccosh(|tr|/2)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import (
    DegeneratePentagon,
    InvalidDilatation,
    NonPositiveDeterminant,
    NonPositiveLength,
    NotHyperbolic,
    NumericalInstability,
    check_positive_finite,
)

ARCSINH_1 = math.asinh(1.0)

# thinness constant of the hyperbolic plane used by the stability bound
DELTA_H2 = ARCSINH_1


@dataclass(frozen=True)
class MobiusMap:
    """Unimodular 2x2 real matrix, an orientation-preserving isometry of H^2.

    The constructor normalizes raw entries to determinant 1 (rescaling by
    1/sqrt of the float determinant) and trace >= 0 (the sign of the matrix
    is immaterial in the isometry group).  Each row is first scaled by an
    even power of two, which is exact, so entries of very different size
    lose nothing to underflow in the determinant; where nothing under- or
    overflows, the result is bit for bit that of the unscaled formula.  The
    library calls it only on entries whose products a*d and b*c are exact
    (each has a factor 0 or +-1), so the float determinant is the exact one
    rounded once.  A determinant that is not > 0 (NaN included) or that
    overflows is refused, and so is a normalized entry that overflows.
    Products, inverses and the factories start from entries of determinant 1
    up to roundoff, so they only fix the sign.
    """

    a: float
    b: float
    c: float
    d: float

    def __init__(self, a: float, b: float, c: float, d: float):
        # each row times an even power of two, 2**-p and 2**-q: exact, and it
        # brings each row's largest entry into [0.5, 2), so rows of very
        # different size no longer under- or overflow in a*d - b*c
        p = math.frexp(max(abs(a), abs(b)))[1] & -2
        q = math.frexp(max(abs(c), abs(d)))[1] & -2
        sa, sb = math.ldexp(a, -p), math.ldexp(b, -p)
        sc, sd = math.ldexp(c, -q), math.ldexp(d, -q)
        det = sa * sd - sb * sc  # the determinant times 2**-(p + q)
        if not det > 0:
            raise NonPositiveDeterminant(
                f"matrix must have positive determinant, got {a * d - b * c}")
        if det == math.inf or math.frexp(det)[1] + p + q > sys.float_info.max_exp:
            raise NumericalInstability("matrix determinant overflows")
        s = 1.0 / math.sqrt(det)
        # back to the raw scale: the first row by 2**p / 2**((p + q) / 2)
        r = (p - q) // 2
        try:
            self._store(math.ldexp(sa * s, r), math.ldexp(sb * s, r),
                        math.ldexp(sc * s, -r), math.ldexp(sd * s, -r))
        except OverflowError:
            raise NumericalInstability("normalized matrix entry overflows") from None

    def _store(self, a: float, b: float, c: float, d: float) -> None:
        """Set the entries, negated if their trace is < 0."""
        s = -1.0 if a + d < 0 else 1.0
        object.__setattr__(self, "a", a * s)
        object.__setattr__(self, "b", b * s)
        object.__setattr__(self, "c", c * s)
        object.__setattr__(self, "d", d * s)

    @staticmethod
    def _signed(a: float, b: float, c: float, d: float) -> "MobiusMap":
        """Map from entries of determinant 1 up to roundoff: skips the
        constructor's normalization and only fixes the sign."""
        m = object.__new__(MobiusMap)
        m._store(a, b, c, d)
        return m

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap._signed(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def translation(t: float) -> "MobiusMap":
        """Translation by t along the imaginary axis (0 -> infinity)."""
        e = math.exp(t / 2.0)
        return MobiusMap._signed(e, 0.0, 0.0, 1.0 / e)

    @staticmethod
    def perp_translation(d: float) -> "MobiusMap":
        """Translation by d along the unit semicircle (-1 -> 1), through i."""
        ch, sh = math.cosh(d / 2.0), math.sinh(d / 2.0)
        return MobiusMap._signed(ch, sh, sh, ch)

    @staticmethod
    def rotation(phi: float) -> "MobiusMap":
        """Rotation about i; positive phi turns the forward direction left."""
        c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
        return MobiusMap._signed(c, s, -s, c)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap._signed(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        return MobiusMap._signed(self.d, -self.b, -self.c, self.a)

    def trace(self) -> float:
        return self.a + self.d

    def max_entry(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def dist_to_identity(self) -> float:
        """min over signs of the sup-norm distance to +-I."""
        plus = max(abs(self.a - 1), abs(self.b), abs(self.c), abs(self.d - 1))
        minus = max(abs(self.a + 1), abs(self.b), abs(self.c), abs(self.d + 1))
        return min(plus, minus)

    def fixed_points(self) -> tuple[float, float]:
        """Real fixed points (attracting last) of a hyperbolic element."""
        if abs(self.trace()) <= 2.0:
            raise NotHyperbolic("fixed points on the boundary require |trace| > 2")
        disc = math.sqrt((self.a - self.d) ** 2 + 4.0 * self.b * self.c)
        if self.c == 0:
            x1 = -self.b / (self.a - self.d)
            return (x1, math.inf) if abs(self.a) > abs(self.d) else (math.inf, x1)
        x1 = (self.a - self.d - disc) / (2.0 * self.c)
        x2 = (self.a - self.d + disc) / (2.0 * self.c)
        # derivative |a - c x|^{-2} < 1 at the attracting point
        if abs(self.a - self.c * x2) < 1.0:
            return (x1, x2)
        return (x2, x1)


def hyp_dist(z1: complex, z2: complex) -> float:
    """Hyperbolic distance between two points of the upper half-plane."""
    num = abs(z1 - z2) ** 2
    return math.acosh(1.0 + num / (2.0 * z1.imag * z2.imag))


@dataclass(frozen=True)
class PentagonSolution:
    """Side lengths (b, b, a, c, a) of the right-angled pentagon with two
    consecutive sides of equal length b."""

    b: float
    a: float
    c: float


def solve_pentagon(b: float) -> PentagonSolution:
    """Solve the right-angled pentagon with two consecutive sides of length b.

    Uses the relations cosh(c) = sinh(b)^2 and cosh(b) = sinh(a)*sinh(c).
    Degenerates when b <= arcsinh(1), where cosh(c) <= 1 forces c <= 0.
    Raises NumericalInstability when sinh(b)^2 overflows (b above about 355).
    """
    if b <= ARCSINH_1:
        raise DegeneratePentagon(
            f"b must exceed arcsinh(1) ~ {ARCSINH_1:.6f}, got {b}"
        )
    if not math.isfinite(b):
        raise DegeneratePentagon(f"b must be finite, got {b}")
    try:
        c = math.acosh(math.sinh(b) ** 2)
    except OverflowError:
        raise NumericalInstability(f"sinh(b)^2 overflows at b = {b}") from None
    a = math.asinh(math.cosh(b) / math.sinh(c))
    return PentagonSolution(b=b, a=a, c=c)


def polygon_closure_residual(sides: list[float]) -> float:
    """Closure defect of the right-angled polygon with the given side lengths.

    Walks the boundary (forward along each side, quarter left turn at each
    corner) and returns the sup-norm distance of the total holonomy to +-I.
    Zero exactly when the sides close up into a right-angled polygon.
    """
    g = MobiusMap.identity()
    turn = MobiusMap.rotation(math.pi / 2.0)
    for s in sides:
        g = g @ MobiusMap.translation(s) @ turn
    return g.dist_to_identity()


def pentagon_closure_residual(p: PentagonSolution) -> float:
    return polygon_closure_residual([p.b, p.b, p.a, p.c, p.a])


def pentagon_vertices(p: PentagonSolution) -> list[complex]:
    """Embed the pentagon in H^2; vertices in boundary order (b, b, a, c, a).

    Vertex k is the start point of side k; vertex 0 sits at i with the first
    b-side heading up the imaginary axis.
    """
    g = MobiusMap.identity()
    turn = MobiusMap.rotation(math.pi / 2.0)
    pts = []
    for s in [p.b, p.b, p.a, p.c, p.a]:
        pts.append(g.apply(1j))
        g = g @ MobiusMap.translation(s) @ turn
    return pts


def collar_width(length: float) -> float:
    """Half-width of the embedded collar about a simple closed geodesic.
    Raises NumericalInstability when sinh(length/2) overflows (length above
    about 1420)."""
    check_positive_finite("geodesic length", length)
    try:
        s = math.sinh(length / 2.0)
    except OverflowError:
        raise NumericalInstability(f"sinh(length/2) overflows at length = {length}") from None
    width = math.asinh(1.0 / s) if s else math.inf
    if width == math.inf:
        # 1/s overflows for lengths below about 2.2e-308 (and s is 0 at the
        # smallest); there s = length/2 and sqrt(1 + s^2) = 1 to double
        # precision, so asinh(1/s) = log1p(sqrt(1 + s^2)) - log(s) is
        # log(2) - log(length/2)
        width = math.log(4.0) - math.log(length)
    return width


def collar_involution(length: float) -> float:
    """The doubled-collar map l -> 2*eta(l); an involution on (0, inf).

    sinh(eta(l)) * sinh(l/2) = 1 is symmetric in the two half-lengths, so
    applying the map twice returns l.  Fixed point at l = 2*arcsinh(1).
    """
    return 2.0 * collar_width(length)


def geodesic_length_from_trace(t: float) -> float:
    """Translation length of a hyperbolic matrix from its trace."""
    if abs(t) <= 2.0:
        raise NotHyperbolic(f"|trace| must exceed 2 for a hyperbolic element, got {t}")
    return 2.0 * math.acosh(abs(t) / 2.0)


#: name of the stability bound used by :func:`quasi_geodesic_stability_R`,
#: echoed in every BoundReport so downstream numbers carry their provenance.
R_FORMULA_NAME = "morse-stability:K^2*(2*K*log4 + 5*arcsinh1), 0 at K=1"


def quasi_geodesic_stability_R(K: float, length: float) -> float:
    """Fellow-traveling constant for images of closed geodesics.

    A K-quasiconformal self-map of a hyperbolic surface distorts a closed
    geodesic of the given length into a (K, K*log4)-quasi-geodesic; this
    returns an upper bound R on the Hausdorff distance between that image and
    its geodesic straightening.

    The bound used is the Morse-lemma-type constant

        R(K) = K^2 * (2*eps + 5*delta),   eps = K*log(4),  delta = arcsinh(1),

    with R(1) = 0 exactly (1-quasiconformal self-maps are isometries, so
    images of geodesics are geodesics).  delta is a thinness constant of the
    hyperbolic plane.  The bound is deliberately generous; the test suite
    cross-checks it against sampled piecewise-geodesic quasi-geodesics.  It
    does not use the length argument (a bound uniform in the length is in
    particular a valid length-dependent bound).
    """
    if K < 1.0:
        raise InvalidDilatation(f"dilatation must be >= 1, got {K}")
    if length <= 0:
        raise NonPositiveLength(f"geodesic length must be positive, got {length}")
    if K == 1.0:
        return 0.0
    eps = K * math.log(4.0)
    return K * K * (2.0 * eps + 5.0 * DELTA_H2)
