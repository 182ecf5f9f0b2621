"""Decision tables for regular covers of closed surfaces.

A regular cover of a closed orientable surface is compact or homeomorphic
to one of six non-compact surfaces, determined by the deck group's
finiteness, the number of ends (1, 2, or a Cantor space, by Hopf's theorem
on end spaces of regular covers), and planarity; non-planar covers have all
ends non-planar by cocompactness of the deck action.

Planarity of an infinite cover is an input flag, not computed: deciding it
from a normal subgroup is beyond this artifact's scope.  Only constraints
the classification itself imposes are validated; combinations it is silent
about are returned with ``validated=False``.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import InconsistentInput, _Record, is_int


class Ends(Enum):
    NONE = "0"
    ONE = "1"
    TWO = "2"
    CANTOR = "cantor"


class CoverType(Enum):
    COMPACT = "compact"
    PLANE = "plane"
    PUNCTURED_PLANE = "punctured_plane"
    CANTOR_TREE = "cantor_tree"
    BLOOMING_CANTOR_TREE = "blooming_cantor_tree"
    LOCH_NESS = "loch_ness"
    LADDER = "ladder"


class SurfaceType(_Record):
    """Topological type: genus (an ``int`` >= 0, not a ``bool``, or
    ``math.inf``), end space, and whether the non-planar ends are none or all
    of the ends."""

    __slots__ = __match_args__ = ("genus", "ends", "nonplanar_ends")

    def __init__(self, genus: float, ends: Ends, nonplanar_ends: str):
        if not (is_int(genus) and genus >= 0 or genus == math.inf):
            raise InconsistentInput(f"genus must be an integer >= 0 or inf, got {genus!r}")
        if nonplanar_ends not in ("none", "all"):
            raise InconsistentInput(
                f"nonplanar_ends must be 'none' or 'all', got {nonplanar_ends}"
            )
        compact = ends == Ends.NONE
        if compact and math.isinf(genus):
            raise InconsistentInput("a compact surface has finite genus")
        if nonplanar_ends == "all" and not compact and not math.isinf(genus):
            raise InconsistentInput("non-planar ends require infinite genus")
        self._set_fields(genus, ends, nonplanar_ends)

    @property
    def compact(self) -> bool:
        return self.ends == Ends.NONE


_SURFACE_OF_TYPE = {
    CoverType.PLANE: SurfaceType(0, Ends.ONE, "none"),
    CoverType.PUNCTURED_PLANE: SurfaceType(0, Ends.TWO, "none"),
    CoverType.CANTOR_TREE: SurfaceType(0, Ends.CANTOR, "none"),
    CoverType.BLOOMING_CANTOR_TREE: SurfaceType(math.inf, Ends.CANTOR, "all"),
    CoverType.LOCH_NESS: SurfaceType(math.inf, Ends.ONE, "all"),
    CoverType.LADDER: SurfaceType(math.inf, Ends.TWO, "all"),
}


# the six infinite cover types by (planarity, end count); their rule by planarity
_INFINITE_COVER = {
    (True, "1"): CoverType.PLANE,
    (True, "2"): CoverType.PUNCTURED_PLANE,
    (True, "infinitely_many"): CoverType.CANTOR_TREE,
    (False, "1"): CoverType.LOCH_NESS,
    (False, "2"): CoverType.LADDER,
    (False, "infinitely_many"): CoverType.BLOOMING_CANTOR_TREE,
}
_INFINITE_RULE = {
    True: "planar infinite cover: ends determine plane / punctured plane / Cantor tree",
    False: "non-planar infinite cover: all ends non-planar; ends determine "
           "Loch Ness / ladder / blooming Cantor tree",
}


class DeckDescriptor(_Record):
    """Deck transformation group: finite of a given order, or infinite with
    1, 2, or infinitely many ends of the cover.  A finite order is an
    ``int`` (not a ``bool``), None means infinite; end_count is "1", "2" or
    "infinitely_many"."""

    __slots__ = __match_args__ = ("order", "end_count")

    def __init__(self, order: int | None, end_count: str | None = None):
        if order is not None:
            if not is_int(order):
                raise InconsistentInput(f"finite deck order must be an integer, got {order!r}")
            if order < 1:
                raise InconsistentInput(f"finite deck order must be >= 1, got {order}")
        elif end_count not in ("1", "2", "infinitely_many"):
            raise InconsistentInput(
                "an infinite deck group needs end_count in "
                f"{{'1', '2', 'infinitely_many'}}, got {end_count}"
            )
        self._set_fields(order, end_count)

    @property
    def finite(self) -> bool:
        return self.order is not None


class Classification(_Record):
    __slots__ = __match_args__ = ("cover_type", "surface", "rule", "validated")

    def __init__(self, cover_type: CoverType, surface: SurfaceType, rule: str,
                 validated: bool):
        self._set_fields(cover_type, surface, rule, validated)


def finite_cover_genus(base_genus: int, deck_order: int) -> int:
    """Genus of a degree-n cover of a closed genus-g surface: 1 + n(g-1)."""
    if not (is_int(base_genus) and is_int(deck_order) and base_genus >= 1 and deck_order >= 1):
        raise InconsistentInput("base genus and deck order must be integers >= 1, "
                                f"got {base_genus!r} and {deck_order!r}")
    return 1 + deck_order * (base_genus - 1)


def classify_cover(base_genus: int, deck: DeckDescriptor, cover_planar: bool) -> Classification:
    """Type of a regular cover of a closed genus >= 1 surface.

    Inconsistent inputs (a planar cover with a finite deck group; a planar
    two-ended cover of a genus >= 2 base, forbidden because a hyperbolic
    surface group has no normal cyclic subgroup) raise InconsistentInput, and
    so does a base genus that is not an ``int`` (a ``bool`` is not one).
    """
    if not (is_int(base_genus) and base_genus >= 1):
        raise InconsistentInput(f"base genus must be an integer >= 1, got {base_genus!r}")
    if deck.finite:
        if cover_planar:
            raise InconsistentInput(
                "a finite cover of a closed genus >= 1 surface is closed of "
                "genus >= 1, hence non-planar"
            )
        genus = finite_cover_genus(base_genus, deck.order)
        return Classification(
            cover_type=CoverType.COMPACT,
            surface=SurfaceType(genus, Ends.NONE, "none"),
            rule="finite deck group: compact cover of genus 1 + n(g-1)",
            validated=True,
        )
    planar = bool(cover_planar)
    ctype = _INFINITE_COVER[planar, deck.end_count]
    if ctype is CoverType.PUNCTURED_PLANE and base_genus != 1:
        raise InconsistentInput(
            "the punctured plane regularly covers only the torus: its "
            "deck group is cyclic and a hyperbolic surface group has no "
            "normal cyclic subgroup"
        )
    validated = ctype is CoverType.PUNCTURED_PLANE or base_genus >= 2
    rule = _INFINITE_RULE[planar]
    if not validated:
        rule += " (realizability over this base genus unvalidated)"
    return Classification(
        cover_type=ctype,
        surface=_SURFACE_OF_TYPE[ctype],
        rule=rule,
        validated=validated,
    )


def qch_admissible(s: SurfaceType) -> tuple[bool, str]:
    """Whether a surface of this type can be quasiconformally homogeneous.

    Admissible types are exactly the closed surfaces and the six non-compact
    regular-cover types; in particular a non-compact surface of positive
    finite genus is never admissible.
    """
    if s.compact:
        return True, "closed surfaces are quasiconformally homogeneous"
    for ctype, model in _SURFACE_OF_TYPE.items():
        if s == model:
            return True, f"matches the non-compact regular-cover type '{ctype.value}'"
    if 0 < s.genus < math.inf:
        return (
            False,
            "a non-compact surface of positive finite genus is not "
            "quasiconformally homogeneous",
        )
    return False, "does not match any regular-cover type"


def dist_min_geodesic_status(s: SurfaceType) -> str:
    """'never' for compact surfaces (a distance-minimizing geodesic is a
    proper image of the line), 'always' with at least two ends, otherwise
    'metric_dependent' (one-ended surfaces admit hyperbolic structures with
    and without such geodesics)."""
    if s.compact:
        return "never"
    if s.ends in (Ends.TWO, Ends.CANTOR):
        return "always"
    return "metric_dependent"
