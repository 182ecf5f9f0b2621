"""Hyperbolic trigonometry and isometry-matrix primitives.

Works in the upper half-plane model.  Isometries are 2x2 real unimodular
matrices acting by fractional linear transformations; traces give
translation lengths directly via ``2*arccosh(|tr|/2)``.
"""

from __future__ import annotations

import math
import sys

from .errors import (
    DegeneratePentagon,
    InconsistentInput,
    InvalidDilatation,
    NonPositiveDeterminant,
    NotHyperbolic,
    NumericalInstability,
    _Record,
    check_number,
)

ARCSINH_1 = math.asinh(1.0)
_EXCEED_ARCSINH_1 = f"exceed arcsinh(1) ~ {ARCSINH_1:.6f}"  # a pentagon's b below its bound

# thinness constant of the hyperbolic plane used by the stability bound
DELTA_H2 = ARCSINH_1


class MobiusMap(_Record):
    """Unimodular 2x2 real matrix, an orientation-preserving isometry of H^2.

    The constructor normalizes raw entries to determinant 1 (rescaling by
    1/sqrt of the float determinant) and trace >= 0 (the sign of the matrix
    is immaterial in the isometry group).  Unless every nonzero entry and
    the determinant lie in [2**-250, 2**250], where the unscaled formula is
    taken, each row is first scaled by an even power of two, which is exact,
    so entries of very different size lose nothing to underflow in the
    determinant; where nothing under- or overflows, both agree bit for bit.  The
    library calls it only on entries whose products a*d and b*c are exact
    (each has a factor 0 or +-1), so the float determinant is the exact one
    rounded once.  A determinant that is not > 0 (NaN included) or that
    overflows is refused, and so is a normalized entry that overflows; an
    entry that is no number, such as a string, is refused as inconsistent.
    Products start from entries of determinant 1 up to roundoff, so they
    skip that normalization and only fix the sign.

    The arithmetic works on entry 4-tuples (a, b, c, d): ``_mul`` is the one
    product formula, with the sign rule, ``_inv`` the one inverse,
    ``_translation`` and ``_perp_translation`` the translations' entries,
    each with its finiteness check, and ``_dist_to_identity`` the one
    distance to +-I.  A map is a stored value: the polygon walk behind the
    pentagon residual makes none, and the holonomy makes one only for what
    it stores.  ``@`` makes one map of ``_mul``'s product, for callers
    outside the library.

    A map is an immutable value record (see ``errors._Record``): compared and
    hashed by its entries, printed as ``MobiusMap(a=..., b=..., c=..., d=...)``,
    refusing assignment and deletion, and copied and pickled by the base,
    which stores the entries again without renormalizing, so a copy keeps
    every bit.  The holonomy stores matrices by the hundred thousand, so
    ``_map``, the one place that sets a new map's entries, calls the slot
    setters (``_set_a`` .. ``_set_d``) one by one, without the loop of the
    base's ``_set_fields``: the one record that does.
    """

    __slots__ = __match_args__ = ("a", "b", "c", "d")

    a: float
    b: float
    c: float
    d: float

    def __new__(cls, a: float, b: float, c: float, d: float):
        # __new__, not __init__, so that _map makes every map, this one too
        try:
            det = a * d - b * c
            if (_LO <= det <= _HI and (not a or _LO <= abs(a) <= _HI)
                    and (not b or _LO <= abs(b) <= _HI) and (not c or _LO <= abs(c) <= _HI)
                    and (not d or _LO <= abs(d) <= _HI)):
                # every product, root and quotient is normal: the scaled path's bits
                s = 1.0 / math.sqrt(det)
                return _map(_signed(a * s, b * s, c * s, d * s))
            # each row times an even power of two, 2**-p and 2**-q: exact, and it
            # brings each row's largest entry into [0.5, 2), so rows of very
            # different size no longer under- or overflow in a*d - b*c
            p = math.frexp(max(abs(a), abs(b)))[1] & -2
            q = math.frexp(max(abs(c), abs(d)))[1] & -2
            sa, sb = math.ldexp(a, -p), math.ldexp(b, -p)
            sc, sd = math.ldexp(c, -q), math.ldexp(d, -q)
            sdet = sa * sd - sb * sc  # the determinant times 2**-(p + q)
            if not sdet > 0:
                raise NonPositiveDeterminant(f"matrix must have positive determinant, got {det}")
            if sdet == math.inf or math.frexp(sdet)[1] + p + q > sys.float_info.max_exp:
                raise NumericalInstability("matrix determinant overflows")
            s = 1.0 / math.sqrt(sdet)
            # back to the raw scale: the first row by 2**p / 2**((p + q) / 2)
            r = (p - q) // 2
            try:
                return _map(_signed(math.ldexp(sa * s, r), math.ldexp(sb * s, r),
                                    math.ldexp(sc * s, -r), math.ldexp(sd * s, -r)))
            except OverflowError:
                raise NumericalInstability("normalized matrix entry overflows") from None
        except TypeError:  # an entry that is no number, such as a string
            raise InconsistentInput(f"matrix entries must be numbers, got {(a, b, c, d)!r}") from None

    @staticmethod
    def identity() -> "MobiusMap":
        return _map(_I)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return _map(_mul((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d)))

    def trace(self) -> float:
        return self.a + self.d

    def max_entry(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

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


# the slot setters, bound once: the only writers of a map's entries
_set_a, _set_b, _set_c, _set_d = MobiusMap._setters

_I = (1.0, 0.0, 0.0, 1.0)  # entries of the identity
_LO, _HI = 2.0**-250, 2.0**250  # MobiusMap's unscaled range


def _map(e: tuple) -> MobiusMap:
    """Map with the entries e, whose sign is fixed already; skips the
    constructor's normalization."""
    m = object.__new__(MobiusMap)
    a, b, c, d = e
    _set_a(m, a)
    _set_b(m, b)
    _set_c(m, c)
    _set_d(m, d)
    return m


def _signed(a: float, b: float, c: float, d: float) -> tuple:
    """The entries, negated if their trace is < 0: the sign of every map."""
    if a + d < 0:
        return -a, -b, -c, -d
    return a, b, c, d


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two entry tuples, negated if its trace is < 0: the one
    product formula, with the sign rule of ``_signed`` inline, as the
    holonomy takes thousands of products per build.  Every term is kept,
    ``x * 0.0`` ones included, so no signed zero depends on which entries
    happen to be 0."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    a = xa * ya + xb * yc
    b = xa * yb + xb * yd
    c = xc * ya + xd * yc
    d = xc * yb + xd * yd
    if a + d < 0:
        return -a, -b, -c, -d
    return a, b, c, d


def _inv(e: tuple) -> tuple:
    """Inverse of signed entries of determinant 1: its trace is theirs, so
    it keeps their sign."""
    a, b, c, d = e
    return d, -b, -c, a


def _dist_to_identity(e: tuple) -> float:
    """min over signs of the sup-norm distance of the entries e to +-I."""
    a, b, c, d = e
    plus = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
    minus = max(abs(a + 1), abs(b), abs(c), abs(d + 1))
    return min(plus, minus)


def _translation(t: float) -> tuple:
    """Entries of the translation by t along the imaginary axis (0 ->
    infinity).  Raises NumericalInstability unless both are finite (|t|
    above about 1419, or t not finite)."""
    try:
        e = math.exp(t / 2.0)
        f = 1.0 / e
    except (OverflowError, ZeroDivisionError):
        e = f = math.inf
    if not (e < math.inf and f < math.inf):
        raise NumericalInstability(f"translation by {t} has no finite matrix")
    return e, 0.0, 0.0, f


def _perp_translation(d: float) -> tuple:
    """Entries of the translation by d along the unit semicircle (-1 -> 1),
    through i.  Raises NumericalInstability unless they are finite (|d|
    above about 1421, or d not finite)."""
    try:
        ch, sh = math.cosh(d / 2.0), math.sinh(d / 2.0)
    except OverflowError:
        ch = sh = math.inf
    if not ch < math.inf:
        raise NumericalInstability(f"translation by {d} has no finite matrix")
    return ch, sh, sh, ch


class PentagonSolution(_Record):
    """Side lengths (b, b, a, c, a) of the right-angled pentagon with two
    consecutive sides of equal length b."""

    __slots__ = __match_args__ = ("b", "a", "c")

    def __init__(self, b: float, a: float, c: float):
        self._set_fields(b, a, c)


def solve_pentagon(b: float) -> PentagonSolution:
    """Solve the right-angled pentagon with two consecutive sides of length b.

    Uses the relations cosh(c) = sinh(b)^2 and cosh(b) = sinh(a)*sinh(c).
    Degenerates when b <= arcsinh(1), where cosh(c) <= 1 forces c <= 0.
    Raises NumericalInstability when sinh(b)^2 overflows (b above about 355).
    """
    check_number("b", b, ARCSINH_1, below=_EXCEED_ARCSINH_1, error=DegeneratePentagon)
    try:
        c = math.acosh(math.sinh(b) ** 2)
    except OverflowError:
        raise NumericalInstability(f"sinh(b)^2 overflows at b = {b}") from None
    a = math.asinh(math.cosh(b) / math.sinh(c))
    return PentagonSolution(b=b, a=a, c=c)


# entries of the rotation by pi/2 about i: the quarter left turn at a corner
_QUARTER_TURN = (math.cos(math.pi / 4.0), math.sin(math.pi / 4.0),
                 -math.sin(math.pi / 4.0), math.cos(math.pi / 4.0))


def polygon_closure_residual(sides: list[float]) -> float:
    """Closure defect of the right-angled polygon with the given side lengths.

    Walks the boundary (forward along each side, quarter left turn at each
    corner) on one running entry tuple and returns the sup-norm distance of
    the total holonomy to +-I.  Zero exactly when the sides close up into a
    right-angled polygon.
    """
    frame = _I
    try:
        for s in sides:
            frame = _mul(_mul(frame, _translation(s)), _QUARTER_TURN)
    except TypeError:  # a side that is no number, or sides that are no sequence
        raise InconsistentInput(f"polygon sides must be numbers, got {sides!r}") from None
    return _dist_to_identity(frame)


def pentagon_closure_residual(p: PentagonSolution) -> float:
    return polygon_closure_residual([p.b, p.b, p.a, p.c, p.a])


def collar_width(length: float) -> float:
    """Half-width of the embedded collar about a simple closed geodesic.
    Raises NumericalInstability when sinh(length/2) overflows (length above
    about 1420)."""
    check_number("geodesic length", length)
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
    try:
        if 2.0 < abs(t) < math.inf:
            return 2.0 * math.acosh(abs(t) / 2.0)
    except TypeError:  # a trace that is no number, such as a string
        pass
    raise NotHyperbolic(f"|trace| must exceed 2 and be finite for a hyperbolic element, got {t!r}")


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
    particular a valid length-dependent bound).  Raises NumericalInstability
    when K is so large (above about 4e102) that the bound overflows.
    """
    check_number("dilatation", K, 1.0, True, "be >= 1", InvalidDilatation)
    check_number("geodesic length", length)
    if K == 1.0:
        return 0.0
    eps = K * math.log(4.0)
    R = K * K * (2.0 * eps + 5.0 * DELTA_H2)
    if not math.isfinite(R):
        raise NumericalInstability(f"fellow-traveling constant R overflows at K={K}")
    return R
