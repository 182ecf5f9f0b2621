from __future__ import annotations

import math

import pytest

from hypladder.errors import InconsistentInput
from hypladder.topo_classify import (
    Classification,
    CoverType,
    DeckDescriptor,
    Ends,
    SurfaceType,
    classify_cover,
    dist_min_geodesic_status,
    finite_cover_genus,
    qch_admissible,
)


def finite(n):
    return DeckDescriptor(order=n)


def infinite(ends):
    return DeckDescriptor(order=None, end_count=ends)


# the full consistent truth table: (base_genus, deck, planar) -> type
TRUTH_TABLE = [
    (1, finite(5), False, CoverType.COMPACT),
    (2, finite(3), False, CoverType.COMPACT),
    (3, finite(2), False, CoverType.COMPACT),
    (1, infinite("2"), True, CoverType.PUNCTURED_PLANE),
    (2, infinite("1"), True, CoverType.PLANE),
    (3, infinite("1"), True, CoverType.PLANE),
    (2, infinite("infinitely_many"), True, CoverType.CANTOR_TREE),
    (3, infinite("infinitely_many"), True, CoverType.CANTOR_TREE),
    (2, infinite("1"), False, CoverType.LOCH_NESS),
    (2, infinite("2"), False, CoverType.LADDER),
    (3, infinite("2"), False, CoverType.LADDER),
    (2, infinite("infinitely_many"), False, CoverType.BLOOMING_CANTOR_TREE),
]


# a genus or deck order is an int, and a bool is not one: no surface has
# genus 2.5, and a flag is not an order
NOT_INTS = [2.0, 2.5, 1.5, math.nan, math.inf, True, False, "2"]


class TestDeckDescriptor:
    def test_finite(self):
        assert finite(3).finite

    def test_infinite_needs_ends(self):
        with pytest.raises(InconsistentInput):
            DeckDescriptor(order=None, end_count="3")

    def test_order_positive(self):
        with pytest.raises(InconsistentInput):
            DeckDescriptor(order=0)

    @pytest.mark.parametrize("order", NOT_INTS)
    def test_order_is_an_int(self, order):
        with pytest.raises(InconsistentInput, match="finite deck order must be an integer"):
            DeckDescriptor(order)


class TestSurfaceType:
    def test_compact_finite_genus(self):
        s = SurfaceType(2, Ends.NONE, "none")
        assert s.compact

    def test_infinite_genus_needs_ends(self):
        with pytest.raises(InconsistentInput):
            SurfaceType(math.inf, Ends.NONE, "none")

    def test_nonplanar_ends_need_infinite_genus(self):
        with pytest.raises(InconsistentInput):
            SurfaceType(3, Ends.ONE, "all")

    @pytest.mark.parametrize("genus", [2.0, 2.5, math.nan, -math.inf, -1, True, False, "2"])
    @pytest.mark.parametrize("ends", [Ends.NONE, Ends.ONE])
    def test_genus_is_an_int_or_inf(self, genus, ends):
        # no surface has genus 2.5, and qch_admissible would call one closed
        with pytest.raises(InconsistentInput, match="genus must be an integer >= 0 or inf"):
            SurfaceType(genus, ends, "none")

    @pytest.mark.parametrize("genus, ends, nonplanar", [
        (0, Ends.NONE, "none"), (7, Ends.NONE, "none"), (0, Ends.CANTOR, "none"),
        (math.inf, Ends.TWO, "all"),
    ])
    def test_valid_genus_builds(self, genus, ends, nonplanar):
        assert SurfaceType(genus, ends, nonplanar).genus == genus


class TestFiniteCoverGenus:
    def test_formula(self):
        assert finite_cover_genus(2, 3) == 4
        assert finite_cover_genus(1, 7) == 1
        assert finite_cover_genus(3, 2) == 5

    def test_validation(self):
        with pytest.raises(InconsistentInput):
            finite_cover_genus(0, 2)

    @pytest.mark.parametrize("value", NOT_INTS)
    def test_genus_and_order_are_ints(self, value):
        for args in ((2, value), (value, 2)):
            with pytest.raises(InconsistentInput, match="must be integers"):
                finite_cover_genus(*args)


class TestClassifyCover:
    @pytest.mark.parametrize("base,deck,planar,expected", TRUTH_TABLE)
    def test_truth_table(self, base, deck, planar, expected):
        cls = classify_cover(base, deck, planar)
        assert cls.cover_type == expected
        assert cls.validated

    def test_finite_cover_genus_in_classification(self):
        cls = classify_cover(2, finite(3), False)
        assert cls.surface.genus == 4
        assert cls.surface.compact

    def test_punctured_plane_only_over_torus(self):
        with pytest.raises(InconsistentInput):
            classify_cover(2, infinite("2"), True)

    def test_finite_planar_inconsistent(self):
        with pytest.raises(InconsistentInput):
            classify_cover(2, finite(2), True)

    def test_unvalidated_combinations_flagged(self):
        cls = classify_cover(1, infinite("1"), False)
        assert not cls.validated
        assert "unvalidated" in cls.rule

    def test_rejects_base_genus_zero(self):
        with pytest.raises(InconsistentInput):
            classify_cover(0, finite(2), False)

    @pytest.mark.parametrize("base", NOT_INTS)
    @pytest.mark.parametrize("deck", [finite(2), infinite("2")], ids=["finite", "infinite"])
    def test_rejects_base_genus_that_is_not_an_int(self, base, deck):
        with pytest.raises(InconsistentInput, match="base genus must be an integer"):
            classify_cover(base, deck, False)

    def test_noncompact_types_have_expected_invariants(self):
        ladder = classify_cover(2, infinite("2"), False).surface
        assert math.isinf(ladder.genus)
        assert ladder.ends == Ends.TWO
        assert ladder.nonplanar_ends == "all"
        tree = classify_cover(2, infinite("infinitely_many"), True).surface
        assert tree.genus == 0
        assert tree.ends == Ends.CANTOR


class TestQchAdmissible:
    def test_closed_admissible(self):
        ok, reason = qch_admissible(SurfaceType(2, Ends.NONE, "none"))
        assert ok
        assert "closed" in reason

    def test_all_cover_types_admissible(self):
        for base, deck, planar, _ in TRUTH_TABLE:
            ok, _ = qch_admissible(classify_cover(base, deck, planar).surface)
            assert ok

    def test_positive_finite_genus_noncompact_rejected(self):
        for genus in (1, 2, 7):
            for ends in (Ends.ONE, Ends.TWO, Ends.CANTOR):
                ok, reason = qch_admissible(SurfaceType(genus, ends, "none"))
                assert not ok
                assert "finite genus" in reason

    def test_unlisted_planar_type_rejected(self):
        # genus 0 with two ends is the punctured plane and is admissible,
        # but we can still probe the fall-through with a decorated mismatch
        ok, _ = qch_admissible(SurfaceType(0, Ends.TWO, "none"))
        assert ok


class TestDistMinGeodesics:
    def test_compact_never(self):
        assert dist_min_geodesic_status(SurfaceType(2, Ends.NONE, "none")) == "never"

    def test_two_ended_always(self):
        s = classify_cover(2, infinite("2"), False).surface
        assert dist_min_geodesic_status(s) == "always"

    def test_cantor_always(self):
        s = classify_cover(2, infinite("infinitely_many"), True).surface
        assert dist_min_geodesic_status(s) == "always"

    def test_one_ended_metric_dependent(self):
        for planar in (True, False):
            s = classify_cover(2, infinite("1"), planar).surface
            assert dist_min_geodesic_status(s) == "metric_dependent"
