"""Fenchel-Nielsen coordinates and holonomy for ladder surfaces.

A ladder surface is cut into pants along curves a_k, b_k (the rungs) and c_k
(the separating curves): per index k the two pants are

    P_k1 with boundary (c_k, a_k, b_k)   and   P_k2 with boundary (a_k, b_k, c_{k+1}).

Coordinates are windowed over k in [-N, N], one sextuplet
(l_a, theta_a, l_b, theta_b, l_c, theta_c) per k.  Twists are angles in
[0, 2*pi); the arc-length of a twist is theta*length/(2*pi), left twist
positive, measured against the seams fixed by the per-pants orthogeodesic
frames (see TWIST_CONVENTION).  Holonomy of a cuff depends only on a fixed
combinatorial neighborhood, so windowed results are window-stable.
"""

from __future__ import annotations

import json
import math
from operator import itemgetter

from .errors import (
    InconsistentInput,
    MissingCoordinates,
    NotHyperbolic,
    NotShiftInvariant,
    NumericalInstability,
    ScaleTooLarge,
    _Record,
    _rebuild,
    check_int,
    check_number,
    check_record,
)
from .hyp_core import (
    MobiusMap,
    _I,
    _dist_to_identity,
    _inv,
    _map,
    _mul,
    _perp_translation,
    _translation,
    geodesic_length_from_trace,
)

TWIST_CONVENTION = (
    "twists are angles in [0,2pi); arc-length twist = theta*length/(2*pi); "
    "left twist positive; seams anchored at the orthogeodesic feet of the "
    "per-pants frames"
)

CURVE_FAMILIES = ("a", "b", "c")

TWO_PI = 2.0 * math.pi

# the open lower bound of a twist: any finite angle is one
_NO_FLOOR = -math.inf


class PantsCuffs(_Record):
    """Boundary geodesic lengths of a pair of pants."""

    __slots__ = __match_args__ = ("l1", "l2", "l3")

    def __init__(self, l1: float, l2: float, l3: float):
        for l in (l1, l2, l3):
            check_number("cuff length", l)
        self._set_fields(l1, l2, l3)


def _orthogeodesics(l1: float, l2: float, l3: float) -> tuple[float, float, float]:
    """(d_12, d_13, d_23) for these cuffs; see ``pants_orthogeodesics``."""
    try:
        c1, c2, c3 = math.cosh(l1 / 2.0), math.cosh(l2 / 2.0), math.cosh(l3 / 2.0)
        s1, s2, s3 = math.sinh(l1 / 2.0), math.sinh(l2 / 2.0), math.sinh(l3 / 2.0)
    except OverflowError:  # each orthogeodesic takes all three cosh
        c1 = c2 = c3 = s1 = s2 = s3 = math.inf
    out = []
    for num, den, li, lj in ((c3 + c1 * c2, s1 * s2, l1, l2), (c2 + c1 * c3, s1 * s3, l1, l3),
                             (c1 + c2 * c3, s2 * s3, l2, l3)):
        try:
            d = math.acosh(num / den)
        except ArithmeticError:  # the sinh product underflows to 0
            d = math.inf
        except ValueError:  # the ratio, above 1 exactly, rounds below 1
            raise NumericalInstability(
                f"orthogeodesic between cuffs of length {li} and {lj} is lost to rounding: "
                "its cosh rounds below 1") from None
        if not d < math.inf:  # a cosh overflowed: the ratio is inf or NaN
            raise NumericalInstability(
                f"orthogeodesic between cuffs of length {li} and {lj} is not finite")
        out.append(d)
    return tuple(out)


def pants_orthogeodesics(cuffs: PantsCuffs) -> tuple[float, float, float]:
    """Orthogeodesic lengths (d_12, d_13, d_23) between the cuff pairs, from
    each half cuff's cosh and sinh taken once, as ``pants_holonomy`` takes
    them.  Raises NumericalInstability at the first of the three that is not
    finite in floating point (a cuff above about 1420, or two cuffs whose
    sinh product underflows) or whose cosh, above 1 exactly, rounds below 1
    (two long cuffs beside a short one)."""
    return _orthogeodesics(cuffs.l1, cuffs.l2, cuffs.l3)


def _no_curve(family, k) -> MissingCoordinates:
    """The error for a lookup of a curve that the window does not hold."""
    return MissingCoordinates(f"no curve {family!r} at index {k!r} in the window")


def normalize_angle(theta: float) -> tuple[float, int]:
    """Fold an angle into [0, 2*pi); returns (angle, removed full turns)."""
    check_number("twist angle", theta, _NO_FLOOR, False, "be finite", InconsistentInput)
    turns = math.floor(theta / TWO_PI)
    folded = theta - turns * TWO_PI
    if folded >= TWO_PI:  # guard the representable edge cases: the division
        folded -= TWO_PI  # can round up across a multiple of 2*pi ...
        turns += 1
    if folded < 0.0:  # ... or underflow to -0.0 for denormal negatives
        folded += TWO_PI
        turns -= 1
        if folded >= TWO_PI:  # adding 2*pi to a tiny negative rounds back up
            folded = 0.0
            turns += 1
    return folded, turns


class FNCoordinates(_Record):
    """Windowed Fenchel-Nielsen data for a ladder pants decomposition.

    ``coords[k]`` is the sextuplet (l_a, t_a, l_b, t_b, l_c, t_c) at index k
    for k in [-window, window]; the window is an ``int`` >= 1.  Each
    sextuplet has six entries, positive finite lengths and finite twists,
    else it is refused.  The dict makes the record unhashable.
    """

    __slots__ = __match_args__ = ("window", "coords")

    def __init__(self, window: int,
                 coords: dict[int, tuple[float, float, float, float, float, float]]):
        check_int("window size", window, 1)
        for k in range(-window, window + 1):
            if k not in coords:
                raise MissingCoordinates(f"missing coordinates at index {k}")
            sextuple = coords[k]
            try:
                la, ta, lb, tb, lc, tc = sextuple
            except (TypeError, ValueError):  # no sequence, or not six entries long
                raise InconsistentInput(
                    f"coordinates at index {k} must be six numbers, got {sextuple!r}") from None
            name = f"length at index {k}"  # formatted once for the three
            for l in (la, lb, lc):
                check_number(name, l)
            name = f"twist at index {k}"
            for theta in (ta, tb, tc):
                check_number(name, theta, _NO_FLOOR, False, "be finite", InconsistentInput)
        self._set_fields(window, coords)

    def length(self, family: str, k: int) -> float:
        try:
            return self.coords[k][2 * CURVE_FAMILIES.index(family)]
        except (KeyError, TypeError, ValueError):  # no such index, an unhashable one, or no such family
            raise _no_curve(family, k) from None

    def twist(self, family: str, k: int) -> float:
        try:
            return self.coords[k][2 * CURVE_FAMILIES.index(family) + 1]
        except (KeyError, TypeError, ValueError):
            raise _no_curve(family, k) from None

    def indices(self):
        return range(-self.window, self.window + 1)

    def curves(self):
        for k in self.indices():
            for family in CURVE_FAMILIES:
                yield family, k


def build_ladder_fn(N: int, lengths=1.0, twists=0.0) -> FNCoordinates:
    """Ladder FN coordinates on the window [-N, N].

    ``lengths`` and ``twists`` are either scalars applied to every curve or
    callables ``f(family, k)``.  Twists are normalized into [0, 2*pi).
    With the defaults this is the model surface whose sextuplets are all
    (1, 0, 1, 0, 1, 0).  Each entry is checked here as ``FNCoordinates``
    checks it, so the record is stored without that second pass.
    """
    check_int("window size", N, 1)
    lfun = lengths if callable(lengths) else (lambda fam, k: lengths)
    tfun = twists if callable(twists) else (lambda fam, k: twists)
    coords = {}
    for k in range(-N, N + 1):
        sextuple = []
        for family in CURVE_FAMILIES:
            length = lfun(family, k)
            check_number(f"length for {family}_{k}", length)
            sextuple.append(length)
            sextuple.append(normalize_angle(tfun(family, k))[0])
        coords[k] = tuple(sextuple)
    return _rebuild(FNCoordinates, (N, coords))


_J = (0.0, -1.0, 1.0, 0.0)  # entries of z -> -1/z: reverses the imaginary axis

# N1 of every pants and the frame of the leftmost pants
_IDENTITY = MobiusMap.identity()


def _axis_normalizer(X: MobiusMap) -> MobiusMap:
    """Isometry taking the imaginary axis (0 -> inf) onto the axis of X,
    repelling to attracting; X == N @ translation(l) @ N^-1."""
    rep, att = X.fixed_points()
    if att == math.inf:
        return MobiusMap(1.0, rep, 0.0, 1.0)
    if rep == math.inf:
        return MobiusMap(att, -1.0, 1.0, 0.0)
    s = att - rep
    if s <= 0:
        # normalize orientation: scale columns to keep determinant positive
        return MobiusMap(att, -rep, 1.0, -1.0)
    return MobiusMap(att, rep, 1.0, 1.0)


class PantsHolonomy(_Record):
    """Local Fuchsian data of one pair of pants: per-cuff matrices with
    product X1 @ X2 @ X3 = I, and per-cuff axis normalizers."""

    __slots__ = __match_args__ = ("cuffs", "lengths", "matrices", "normalizers")

    def __init__(self, cuffs: tuple, lengths: tuple[float, float, float],
                 matrices: tuple[MobiusMap, MobiusMap, MobiusMap],
                 normalizers: tuple[MobiusMap, MobiusMap, MobiusMap]):
        # cuffs: three (family, k) labels
        self._set_fields(cuffs, lengths, matrices, normalizers)

    def closure_residual(self) -> float:
        """Sup-norm distance of X1 @ X2 @ X3 to +-I, multiplied on entry
        tuples; it makes no map."""
        X1, X2, X3 = self.matrices
        x12 = _mul((X1.a, X1.b, X1.c, X1.d), (X2.a, X2.b, X2.c, X2.d))
        return _dist_to_identity(_mul(x12, (X3.a, X3.b, X3.c, X3.d)))


def pants_holonomy(cuff_labels, lengths) -> PantsHolonomy:
    """Fuchsian triple of a pair of pants from its three cuff lengths.

    X1 translates along the imaginary axis; X2 along the geodesic at
    orthogeodesic distance d_12 across the unit semicircle; X3 closes the
    relation X1 @ X2 @ X3 = I and has |trace| = 2*cosh(l3/2) by the
    right-angled hexagon identities.

    The products are taken on entry tuples, with the sign rule of every
    intermediate map; only X1, X2, X3, N2 and N3 become maps, and N1 is the
    shared identity.  The lengths are checked as ``PantsCuffs`` checks them.

    Raises NumericalInstability where valid cuffs are too long or too short
    for that construction in floating point: where an orthogeodesic, d_13 and
    d_23 included, is not finite or its cosh rounds below 1, or the trace of
    X1 or X2 rounds to 2 or below, so every stored cuff is hyperbolic.
    """
    try:
        cuffs = tuple(cuff_labels)
    except TypeError:  # no iterable
        raise InconsistentInput(f"cuff labels must be an iterable, got {cuff_labels!r}") from None
    try:
        l1, l2, l3 = lengths
    except (TypeError, ValueError):  # no sequence, or not three entries long
        raise InconsistentInput(f"cuff lengths must be three numbers, got {lengths!r}") from None
    for l in (l1, l2, l3):
        check_number("cuff length", l)
    d12 = _orthogeodesics(l1, l2, l3)[0]
    try:
        P = _perp_translation(d12)
        x1 = _translation(l1)
        x2 = _mul(_mul(P, _translation(-l2)), _inv(P))
        X3 = _map(_inv(_mul(x1, x2)))
        N2 = _map(_mul(P, _J))  # X2 runs down its axis, so flip the model axis
        N3 = _axis_normalizer(X3)
        for name, (a, _, _, d) in (("X1", x1), ("X2", x2)):
            if not abs(a + d) > 2.0:
                raise NotHyperbolic(f"|trace| of {name} is {abs(a + d)!r}, not above 2")
    except (ArithmeticError, ValueError, NotHyperbolic) as exc:
        # the cuffs are valid, so an axis is lost to roundoff: X1's or X2's
        # trace, or X3's, rounds to 2 or below, X3's discriminant below 0,
        # or its normalizer has a zero, NaN or overflowing determinant
        raise NumericalInstability(
            f"pants holonomy of cuffs {tuple(lengths)} breaks down in floating point: {exc}"
        ) from None
    return PantsHolonomy(
        cuffs=cuffs,
        lengths=(l1, l2, l3),
        matrices=(_map(x1), _map(x2), X3),
        normalizers=(_IDENTITY, N2, N3),
    )


class HolonomyMap(_Record):
    """Holonomy of a windowed ladder surface.

    Cuff matrices are reported in the frame of their canonical pants P_k1 =
    (c_k, a_k, b_k).  ``frames`` maps each pants to its frame relative to the
    leftmost pants, built by chaining the frame transitions across gluings,
    which carry the twist data; a non-finite frame is refused at build time.
    The dicts make the record unhashable.
    """

    __slots__ = __match_args__ = ("fn", "pants", "frames", "transitions")

    def __init__(self, fn: FNCoordinates, pants: dict, frames: dict, transitions: dict):
        # pants: name -> PantsHolonomy, frames: name -> MobiusMap,
        # transitions: (p, q, cuff) -> MobiusMap
        self._set_fields(fn, pants, frames, transitions)

    def matrix(self, family: str, k: int) -> MobiusMap:
        """Holonomy of the cuff in the local frame of pants P_k1."""
        try:
            p = self.pants[("P1", k)]
            return p.matrices[p.cuffs.index((family, k))]
        except (KeyError, TypeError, ValueError):  # no such index, an unhashable one, or no such family
            raise _no_curve(family, k) from None

    def recovered_length(self, family: str, k: int) -> float:
        return geodesic_length_from_trace(self.matrix(family, k).trace())

    def global_length(self, family: str, k: int) -> float:
        """Cuff length recovered from the trace of its matrix in the frame of
        the leftmost pants.

        That matrix is f @ X @ f^-1 for the frame f of P_k1, and over the
        rationals trace(f @ X @ f^-1) = trace(X) exactly; rounding that exact
        sum once is the float sum of X's diagonal.  So the global length is
        the local one, whatever the size of the frame entries.
        """
        return self.recovered_length(family, k)


def _twist_transition(Np: MobiusMap, Nq: MobiusMap, length: float, theta: float) -> tuple:
    """Entries of Np @ T(t) @ J @ Nq^-1, the frame transition across a gluing
    from the glued cuff's normalizers in the two pants: a twist by the
    arc-length t = theta*length/(2*pi), then orientation reversed."""
    t = theta * length / TWO_PI
    x = _mul(_mul((Np.a, Np.b, Np.c, Np.d), _translation(t)), _J)
    return _mul(x, _inv((Nq.a, Nq.b, Nq.c, Nq.d)))


def holonomy_from_fn(fn: FNCoordinates) -> HolonomyMap:
    """Build per-pants Fuchsian triples and chained frames for a ladder FN
    datum.  Every cuff's trace recovers its coordinate length exactly up to
    roundoff; twists enter only the frame transitions.

    The frames are chained left to right on one running entry tuple, each
    times the entries of the next transition; every transition and every
    frame becomes a map only to be stored.  The cuff slots are known: a_k
    is slot 1 of P1[k] and 0 of P2[k], c_{k+1} slot 2 of P2[k] and 0 of
    P1[k+1].  Raises NumericalInstability when a pants triple cannot be
    built in floating point (see pants_holonomy) or a chained frame
    overflows to a non-finite entry."""
    pants, frames, transitions = {}, {}, {}
    N, coords = fn.window, fn.coords
    for k in range(-N, N + 1):
        la, _, lb, _, lc, _ = coords[k]
        pants[("P1", k)] = pants_holonomy([("c", k), ("a", k), ("b", k)], (lc, la, lb))
        if k < N:
            pants[("P2", k)] = pants_holonomy([("a", k), ("b", k), ("c", k + 1)],
                                              (la, lb, coords[k + 1][4]))
    # chain frames left to right: P1[-N] -> P2[-N] -> P1[-N+1] -> ...
    frames[("P1", -N)] = _IDENTITY
    frame = _I
    for k in range(-N, N):
        p1, p2, q1 = ("P1", k), ("P2", k), ("P1", k + 1)
        n1, n2, m1 = pants[p1].normalizers, pants[p2].normalizers, pants[q1].normalizers
        for src, dst, cuff, Np, Nq, length, theta in (
                (p1, p2, ("a", k), n1[1], n2[0], *coords[k][:2]),
                (p2, q1, ("c", k + 1), n2[2], m1[0], *coords[k + 1][4:])):
            t = _twist_transition(Np, Nq, length, theta)
            transitions[(src, dst, cuff)] = _map(t)
            frame = _mul(frame, t)
            if not all(map(math.isfinite, frame)):
                raise NumericalInstability(f"frame of pants {dst[0]}[{dst[1]}] is not finite")
            frames[dst] = _map(frame)
    return HolonomyMap(fn, pants, frames, transitions)


class ShiftQuotient(_Record):
    """Closed surface obtained from a ladder invariant under the index shift
    k -> k+p: 2p pants, 3p cuffs, Euler characteristic -2p, genus p+1.
    Period 1 gives genus 2 (the theta graph), period 2 genus 3.  The coords
    dict makes the record unhashable."""

    __slots__ = __match_args__ = ("pants", "cuffs", "euler_characteristic", "genus", "coords")

    def __init__(self, pants: tuple, cuffs: tuple, euler_characteristic: int, genus: int,
                 coords: dict):
        self._set_fields(pants, cuffs, euler_characteristic, genus, coords)


def quotient_by_shift(fn: FNCoordinates, period: int = 2) -> ShiftQuotient:
    """Quotient a shift-invariant ladder by the horizontal translation of the
    given period p (default 2): a closed surface of genus p+1, so period 1
    is the smallest, with genus 2.  The window must hold the
    representatives 0..period-1."""
    check_record("coordinates", fn, FNCoordinates)
    check_int("shift period", period, 1)
    if period > fn.window + 1:
        raise ScaleTooLarge(
            f"shift period {period} needs a window of at least {period - 1}, got {fn.window}"
        )
    tol = 1e-12
    for k in fn.indices():
        if k + period > fn.window:
            continue
        x, y = fn.coords[k], fn.coords[k + period]
        if any(abs(u - v) > tol for u, v in zip(x, y)):
            raise NotShiftInvariant(
                f"coordinates at k={k} and k={k + period} differ beyond {tol}",
                offending_index=k,
            )
    reps = list(range(period))
    pants = tuple(f"P{half}[{k}]" for k in reps for half in (1, 2))
    cuffs = tuple(f"{fam}[{k}]" for k in reps for fam in CURVE_FAMILIES)
    chi = -len(pants)
    genus = (2 - chi) // 2
    coords = {k: fn.coords[k] for k in reps}
    return ShiftQuotient(
        pants=pants,
        cuffs=cuffs,
        euler_characteristic=chi,
        genus=genus,
        coords=coords,
    )


# the fields of one FN record after its index k, in sextuple order: the
# JSON record keys and the CSV columns
_FN_FIELDS = ("l_a", "t_a", "l_b", "t_b", "l_c", "t_c")


def fn_to_dict(fn: FNCoordinates) -> dict:
    """FN records with the window and twist convention, ready for JSON.
    Each dict is built in sorted key order, as ``fn_to_json`` writes it."""
    rows = zip(fn.indices(), map(fn.coords.__getitem__, fn.indices()))
    records = [{"k": k, "l_a": la, "l_b": lb, "l_c": lc, "t_a": ta, "t_b": tb, "t_c": tc}
               for k, (la, ta, lb, tb, lc, tc) in rows]
    return {"records": records, "twist_convention": TWIST_CONVENTION, "window": fn.window}


def fn_to_json(fn: FNCoordinates) -> str:
    return json.dumps(fn_to_dict(fn), sort_keys=True)


def fn_to_csv(fn: FNCoordinates) -> str:
    lines = [",".join(("k", *_FN_FIELDS))]
    for k in fn.indices():
        lines.append(",".join(map(str, (k, *fn.coords[k]))))
    return "\n".join(lines) + "\n"


def fn_from_json(text: str) -> FNCoordinates:
    """Coordinates from ``fn_to_json``'s text; text that is no JSON, or no
    window with records of every field, raises ``InconsistentInput``."""
    fields = itemgetter(*_FN_FIELDS)
    try:
        data = json.loads(text)
        coords = {r["k"]: fields(r) for r in data["records"]}
        window = data["window"]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: no JSON
        raise InconsistentInput(f"FN JSON must hold a window and records of every field, got {exc!r}") from None
    return FNCoordinates(window=window, coords=coords)
