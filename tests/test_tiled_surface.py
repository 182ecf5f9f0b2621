from __future__ import annotations

import copy
import dataclasses
import gc
import heapq
import importlib
import json
import math
import pickle
import random
import re
import weakref
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypladder import _tiled_graph, tiled_surface
from hypladder.errors import (
    DegeneratePentagon,
    InconsistentEdgeLength,
    InconsistentInput,
    NonPositiveLength,
    NonPositiveSize,
    NumericalInstability,
    ScaleTooLarge,
    Unreachable,
)
from hypladder.hyp_core import solve_pentagon
from hypladder.tiled_surface import (
    CERT_TOL,
    TiledComplex,
    add_diagonals,
    build_grid,
    build_Tn,
    certify_vertical_minimizing,
    dijkstra,
    discrete_distance,
    glue_to_Rb,
)
from hypladder._tiled_graph import _distances, _hypotenuse, _index_graph, _line_distance, _numbered
from hypladder.tiled_surface import _strip_distance


class TestHoledSquare:
    # one cell of the grid: four pentagons glued around a geodesic hole

    def test_boundary_lengths(self):
        t = build_grid(1.2, 1, 1)
        hole = sum(w for (u, v), w in t.edges.items() if u[0] == v[0] == "H")
        outer = sum(w for (u, v), w in t.edges.items() if "H" not in (u[0], v[0]))
        assert outer == pytest.approx(8.0 * 1.2)
        assert hole == pytest.approx(4.0 * t.pentagon.c)

    def test_pentagon_matches_solver(self):
        assert build_grid(1.0, 1, 1).pentagon == solve_pentagon(1.0)


class TestBuildGrid:
    def test_face_count(self):
        t = build_grid(1.2, 3, 2)
        assert len(t.faces) == 4 * 3 * 2

    def test_shared_edges_consistent(self, oracle_build_grid):
        # the oracle writes every face side and checks that the faces sharing
        # a side agree on its length; the library writes each side once
        for rows, cols in [(1, 1), (1, 5), (5, 1), (3, 3), (12, 12), (45, 45)]:
            t = build_grid(1.0, rows, cols)
            oracle = oracle_build_grid(1.0, rows, cols)
            assert t.edges == oracle.edges
            assert t.faces == oracle.faces
            assert all(w > 0 for w in t.edges.values())

    def test_vertex_tuples_shared(self):
        # one tuple per vertex, referenced by the faces and the edge keys alike
        t = build_grid(1.2, 4, 3)
        in_faces = {id(v) for f in t.faces for v in f}
        in_edges = {id(v) for e in t.edges for v in e}
        assert in_faces == in_edges
        assert len(in_edges) == len(t.vertices())

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            build_grid(1.2, 0, 1)
        with pytest.raises(NonPositiveSize):
            build_grid(1.2, 2, 0)

    def test_add_edge_rejects_inconsistent_length(self):
        t = build_grid(1.2, 2, 2)
        (u, v), w = next(iter(t.edges.items()))
        t.add_edge(v, u, w)
        with pytest.raises(InconsistentEdgeLength) as info:
            t.add_edge(v, u, w + 1e-3)
        assert isinstance(info.value, ValueError)
        assert info.value.rule == "edge-length-inconsistent"

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
    def test_add_edge_refuses_length_not_positive_finite(self, length):
        # a NaN edge is never relaxed and a negative one undercuts every
        # path, so either would leave a certificate that lies
        t = build_grid(1.2, 5, 3)
        edges = dict(t.edges)
        with pytest.raises(NonPositiveLength):
            t.add_edge(("C", 1, 1), ("C", 4, 1), length)
        assert t.edges == edges
        cert = certify_vertical_minimizing(t, 3)
        assert cert.passes and cert.distance == pytest.approx(3 * 2.4)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_is_no_length(self, flag):
        # True passes every comparison as 1, and would be kept as a length
        t = build_grid(1.2, 2, 2)
        with pytest.raises(NonPositiveLength, match="edge length must be a number"):
            t.add_edge(("C", 0, 0), ("C", 2, 2), flag)
        with pytest.raises(DegeneratePentagon, match="b must be a number"):
            build_grid(flag, 4, 2)

    def test_unrefined_degrees(self):
        t = build_grid(1.2, 4, 4)
        # adj[i] is flat: one (neighbour, length) pair per edge
        degrees = {len(nbrs) // 2 for nbrs in t._graph().adj}
        assert degrees <= {2, 3, 4}

    def test_unglued_topology(self):
        t = build_grid(1.2, 1, 1)
        # one holed square: torus-with-boundary complex has chi = 0 - but as
        # a disc with one hole chi = 0; four pentagons, V=12, E=16
        assert t.euler_characteristic() == 0
        assert t.boundary_component_count() == 2
        assert t.genus() == 0


class TestBuildTn:
    def test_levels(self):
        assert len(build_Tn(1.2, 1).faces) == 4
        assert len(build_Tn(1.2, 2).faces) == 4 * 9

    def test_level_out_of_range(self):
        with pytest.raises(ScaleTooLarge):
            build_Tn(1.2, 0)
        with pytest.raises(ScaleTooLarge):
            build_Tn(1.2, 6)

    @pytest.mark.parametrize("level, m", [(4, 27), (5, 81)])
    def test_high_levels_build_and_certify(self, level, m):
        b = 1.2
        t = build_Tn(b, level)
        assert (t.rows, t.cols) == (m, m)
        assert len(t.faces) == 4 * m * m
        cert = certify_vertical_minimizing(t, m - 2)
        assert cert.passes
        assert cert.distance == pytest.approx(2.0 * (m - 2) * b, abs=1e-9)

    @staticmethod
    def _assert_middle_block(n):
        # every edge of the level-n window appears, shifted by the offset
        # 3^(n-1) of its middle block, in the level-(n+1) window with the
        # same length
        t1 = build_Tn(1.2, n)
        t2 = build_Tn(1.2, n + 1)
        off = 3 ** (n - 1)

        def shift(v):
            if v[0] == "H":
                return (v[0], v[1] + off, v[2] + off, v[3])
            return (v[0], v[1] + off, v[2] + off)

        for (u, v), w in t1.edges.items():
            key = tuple(sorted((shift(u), shift(v))))
            assert t2.edges[key] == pytest.approx(w)

    def test_middle_block_offset(self):
        # the 3x3 level-2 window sits at offset 3 in the 9x9 level-3 window,
        # and that at offset 9 in the 27x27 level-4 window
        self._assert_middle_block(2)
        self._assert_middle_block(3)

    def test_nesting(self):
        self._assert_middle_block(1)


class TestDijkstra:
    def test_symmetry(self):
        t = build_grid(1.1, 3, 2)
        x, y = ("C", 0, 0), ("HM", 2, 1)
        assert discrete_distance(t, x, y) == pytest.approx(
            discrete_distance(t, y, x)
        )

    def test_triangle_inequality(self):
        t = build_grid(1.1, 3, 2)
        pts = [("C", 0, 0), ("C", 2, 1), ("HM", 1, 0), ("VM", 0, 2)]
        for x in pts:
            for y in pts:
                for z in pts:
                    assert discrete_distance(t, x, z) <= discrete_distance(
                        t, x, y
                    ) + discrete_distance(t, y, z) + 1e-9

    def test_identity(self):
        t = build_grid(1.1, 2, 2)
        assert discrete_distance(t, ("C", 0, 0), ("C", 0, 0)) == 0.0

    def test_unknown_vertex(self):
        t = build_grid(1.1, 2, 2)
        with pytest.raises(Unreachable):
            discrete_distance(t, ("C", 99, 99), ("C", 0, 0))

    def test_multi_source_min(self):
        t = build_grid(1.1, 3, 2)
        sources = [("C", 0, 0), ("C", 0, 1)]
        target = ("C", 2, 0)
        d = dijkstra(t, sources, targets=[target])[target]
        singles = [discrete_distance(t, s, target) for s in sources]
        assert d == pytest.approx(min(singles))

    @pytest.mark.parametrize("window", ["plain", "refined", "glued", "glued-refined"])
    @pytest.mark.parametrize("m", [4, 9, 16])
    def test_matches_tuple_keyed_oracle(self, window, m):
        t = build_grid(1.3, m, m)
        if "refined" in window:
            t = add_diagonals(t)
        if "glued" in window:
            t = glue_to_Rb(t)
        mid = m // 2
        cases = [
            ([("C", 1, mid)], None),
            ([("H", 0, 0, "N")], None),
            ([("C", 1, mid)], [("C", m - 1, mid)]),
            ([("C", 1, 0)], [("C", m - 1, m), ("HM", m - 2, 1)]),
            ([("C", 1, c) for c in range(m + 1)], None),
            ([("C", 1, c) for c in range(m + 1)] + [("HM", 1, c) for c in range(m)],
             [("C", m - 1, c) for c in range(m + 1)]),
        ]
        for sources, targets in cases:
            # bit-for-bit, including which vertices settle before an early stop
            assert dijkstra(t, sources, targets) == _oracle_dijkstra(t, sources, targets)
        x, y = ("C", 1, mid), ("VM", m - 1, 0)
        assert discrete_distance(t, x, y) == _oracle_dijkstra(t, [x], [y])[y]

    # the library's search takes no caps; the reference search of
    # conftest.capped_dijkstra does, and equals it bit for bit, settled sets
    # at both early stops included, when every cap is above its distance

    @pytest.mark.parametrize("window", ["plain", "glued-refined"])
    def test_caps_above_every_distance_change_no_bit(self, window, capped_dijkstra):
        g = _capped_window(window)._graph()
        sources = [g.vertex(("C", 1, 3)), g.vertex(("HM", 2, 0))]
        full = _distances(g.adj, sources)
        caps = [math.nextafter(d, math.inf) for d in full]
        assert capped_dijkstra(g.adj, sources, caps=caps) == full
        assert caps == full  # used in place: each vertex ends at its distance
        targets = {g.vertex(("C", 5, 3)), g.vertex(("VM", 4, 6))}
        for first in (False, True):
            caps = [math.nextafter(d, math.inf) for d in full]
            assert (capped_dijkstra(g.adj, sources, targets, caps, first)
                    == _distances(g.adj, sources, targets, first))

    @pytest.mark.parametrize("window", ["plain", "glued-refined"])
    def test_vertex_capped_at_or_below_its_distance_never_settles(self, window, capped_dijkstra):
        g = _capped_window(window)._graph()
        i = g.vertex(("C", 1, 3))
        full = _distances(g.adj, [i])
        caps = [math.inf] * len(full)
        capped = range(1, len(full), 5)
        for k in capped:
            caps[k] = full[k] if k % 2 else math.nextafter(full[k], -math.inf)
        dist = capped_dijkstra(g.adj, [i], caps=caps)
        assert [dist[k] for k in capped] == [None] * len(capped)
        assert all(d is None or d >= full[k] for k, d in enumerate(dist))
        assert dist[i] == 0.0

    def test_unknown_target_runs_to_the_end(self):
        t = build_grid(1.1, 3, 2)
        targets = [("C", 3, 1), ("C", 99, 99)]
        full = dijkstra(t, [("C", 0, 0)], targets)
        assert full == _oracle_dijkstra(t, [("C", 0, 0)], targets)
        assert len(full) == len(t.vertices())
        with pytest.raises(Unreachable):
            discrete_distance(t, ("C", 0, 0), ("C", 99, 99))

    def test_empty_target_set_runs_to_the_end(self):
        t = build_grid(1.2, 3, 3)
        sources = [("C", 1, 1), ("C", 0, 0)]
        full = dijkstra(t, sources, [])
        assert full == dijkstra(t, sources)
        assert full[("C", 1, 1)] == 0.0
        assert len(full) == len(t.vertices())

    def test_add_edge_after_query_invalidates_index(self):
        t = build_grid(1.2, 4, 2)
        x, y = t.alpha_corner(1), t.alpha_corner(3)
        assert discrete_distance(t, x, y) == pytest.approx(4 * 1.2)
        assert certify_vertical_minimizing(t, 2).passes
        t.add_edge(x, y, 0.1)
        assert discrete_distance(t, x, y) == 0.1
        assert not certify_vertical_minimizing(t, 2).passes


class TestIntegerSizes:
    # sizes are ints: a float, a bool, a string or None is refused as a size
    # error, never passed on to range() or to a lookup of ("C", nan, 2)
    NOT_INTS = [2.0, 2.5, math.nan, math.inf, True, False, "3", None]

    @pytest.mark.parametrize("size", NOT_INTS)
    def test_build_grid_refuses(self, size):
        with pytest.raises(NonPositiveSize):
            build_grid(1.2, size, 3)
        with pytest.raises(NonPositiveSize):
            build_grid(1.2, 3, size)

    @pytest.mark.parametrize("level", NOT_INTS)
    def test_build_Tn_refuses(self, level):
        with pytest.raises(NonPositiveSize):
            build_Tn(1.2, level)

    @pytest.mark.parametrize("n", NOT_INTS)
    def test_certify_refuses(self, n):
        with pytest.raises(NonPositiveSize):
            certify_vertical_minimizing(build_grid(1.2, 6, 2), n)


def _capped_window(window):
    t = build_grid(1.3, 6, 6)
    return add_diagonals(glue_to_Rb(t)) if window == "glued-refined" else t


def _hex_pairs(flat) -> list:
    """A flat adjacency list as sorted (neighbour, length.hex()) pairs."""
    return sorted(zip(flat[::2], map(float.hex, flat[1::2])))


_CONSTRUCTIONS = {
    "grid": lambda t: t,
    "glued": glue_to_Rb,
    "refined": add_diagonals,
    "glued-refined": lambda t: add_diagonals(glue_to_Rb(t)),
    "refined-glued": lambda t: glue_to_Rb(add_diagonals(t)),
}


class TestCarriedOrder:
    # each constructor hands the index its sorted vertex list, the first
    # entry of its record on the edge map, and the index numbers the
    # adjacency from the rest of the record; any write to the edge map drops
    # the record, and the index then sorts the ids afresh

    @pytest.mark.parametrize("variant", _CONSTRUCTIONS)
    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 5), (5, 9)])
    def test_order_is_sorted_vertices(self, rows, cols, variant):
        t = _CONSTRUCTIONS[variant](build_grid(1.2, rows, cols))
        assert t.edges._made[0] == sorted(t.vertices())

    @pytest.mark.parametrize("variant", _CONSTRUCTIONS)
    @pytest.mark.parametrize("rows, cols", [(1, 1), (3, 5), (5, 9)])
    def test_index_matches_index_from_scratch(self, rows, cols, variant):
        # numbered from the record, with no index of the edge map built, and
        # per vertex the same neighbours as a plain-dict copy's index, with
        # the same lengths to the bit, each once
        t = _CONSTRUCTIONS[variant](build_grid(1.2, rows, cols))
        with mock.patch.object(tiled_surface, "_index_graph", side_effect=AssertionError):
            g = t._graph()
        fresh = _index_graph(dict(t.edges))
        assert g.ids is t.edges._made[0]  # the hint was taken
        assert g.ids == fresh.ids
        assert g.pos == fresh.pos
        assert [_hex_pairs(a) for a in g.adj] == [_hex_pairs(a) for a in fresh.adj]
        assert all(len(set(a[::2])) == len(a) // 2 for a in g.adj)

    def test_add_edge_drops_the_order(self):
        t = build_grid(1.2, 3, 3)
        t.add_edge(("C", 0, 0), ("C", 1, 1), 5.0)
        assert t.edges._made is None
        assert t._graph().ids == sorted(t.vertices())

    def test_replace_copy_starts_without_the_order(self, inject_edge):
        t = build_grid(1.2, 3, 3)
        assert inject_edge(t, ("C", 0, 0), ("C", 1, 1), 5.0).edges._made is None

    def test_edge_to_new_vertex_set_directly(self):
        t = build_grid(1.2, 4, 4)
        new = ("HM", 2, 9)  # on row line 2, outside the window
        t.edges[("C", 2, 4), new] = 0.25
        g = t._graph()
        assert g.ids == sorted(t.vertices())
        # the line search finds row line 2, the new midpoint with it, on the ids
        line = [v for v in g.ids if v[0] in ("C", "HM") and v[1] == 2]
        assert new in line
        below = dijkstra(t, line)
        assert _line_distance(g, 4, 2) == min(below[v] for v in g.ids if v[:2] in (("C", 4), ("HM", 4)))
        for sources, targets in [([new], None), ([("C", 0, 0)], [new]), ([("C", 2, 0)], None)]:
            assert dijkstra(t, sources, targets) == _oracle_dijkstra(t, sources, targets)
        assert discrete_distance(t, ("C", 0, 0), new) == _oracle_dijkstra(
            t, [("C", 0, 0)], [new])[new]
        assert certify_vertical_minimizing(t, 2).passes

    def test_vertex_stripped_of_edges_directly(self):
        t = build_grid(1.2, 4, 4)
        gone = ("H", 1, 1, "N")
        for key in [e for e in t.edges if gone in e]:
            del t.edges[key]
        assert gone not in t._graph().pos
        for query in (lambda: dijkstra(t, [gone]),
                      lambda: discrete_distance(t, gone, gone),
                      lambda: discrete_distance(t, gone, ("C", 0, 0)),
                      lambda: discrete_distance(t, ("C", 0, 0), gone)):
            with pytest.raises(Unreachable):
                query()
        full = dijkstra(t, [("C", 0, 0)])
        assert full == _oracle_dijkstra(t, [("C", 0, 0)])
        assert gone not in full


def _oracle_dijkstra(t, sources, targets=None):
    """Independent reference: Dijkstra on a tuple-keyed adjacency dict."""
    adj = {}
    for (u, v), w in t.edges.items():
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    dist = {}
    heap = []
    for s in sources:
        heapq.heappush(heap, (0.0, s))
    remaining = set(targets) if targets is not None else None
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for w, length in adj[v]:
            if w not in dist:
                heapq.heappush(heap, (d + length, w))
    return dist


class TestVerticalCertificate:
    def test_alpha_distance_equals_2nb(self):
        b = 1.2
        t = build_grid(b, 4, 2)
        cert = certify_vertical_minimizing(t, 2)
        assert cert.passes
        assert cert.distance == pytest.approx(2.0 * 2 * b, abs=1e-9)

    def test_refinement_stability(self):
        b = 1.0
        for n in (1, 2, 3):
            t = build_grid(b, n + 2, 2)
            plain = certify_vertical_minimizing(t, n)
            refined = certify_vertical_minimizing(add_diagonals(t), n)
            assert plain.passes and refined.passes
            assert refined.distance == pytest.approx(plain.distance, abs=1e-9)
            assert refined.refined and not plain.refined

    def test_wider_windows_agree(self):
        b = 1.3
        narrow = certify_vertical_minimizing(build_grid(b, 4, 2), 2)
        wide = certify_vertical_minimizing(build_grid(b, 4, 4), 2)
        assert narrow.passes and wide.passes
        assert narrow.distance == pytest.approx(wide.distance, abs=1e-9)

    def test_injected_shortcut_fails(self, inject_edge):
        t = build_grid(1.2, 4, 2)
        good = certify_vertical_minimizing(t, 2)
        r0 = 1
        bad = inject_edge(t, t.alpha_corner(r0), t.alpha_corner(r0 + 2), 0.1)
        cert = certify_vertical_minimizing(bad, 2)
        assert good.passes and not cert.passes

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(NonPositiveSize):
            certify_vertical_minimizing(build_grid(1.2, 4, 2), n)

    def test_window_too_short(self):
        with pytest.raises(ScaleTooLarge):
            certify_vertical_minimizing(build_grid(1.2, 3, 2), 2)

    def test_json_fields(self):
        cert = certify_vertical_minimizing(build_grid(1.2, 3, 2), 1)
        data = json.loads(json.dumps(cert.to_dict(), sort_keys=True))
        assert data["passes"] is True
        assert data["window"] == [3, 2]
        assert data["n"] == 1

    @given(st.floats(min_value=0.95, max_value=2.5))
    @settings(max_examples=15, deadline=None)
    def test_certificate_property(self, b):
        cert = certify_vertical_minimizing(build_grid(b, 3, 2), 1)
        assert cert.passes
        assert cert.distance == pytest.approx(2.0 * b, abs=1e-9)


def _hex_fields(cert) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in cert.to_dict().items()}


def _seeded_window(seed, variant, b_range):
    rng = random.Random(seed)
    b = rng.uniform(*b_range)
    t = build_grid(b, rng.randint(3, 12), rng.randint(2, 12))
    if "glued" in variant:
        t = glue_to_Rb(t)
    if "refined" in variant:
        t = add_diagonals(t)
    return t, rng


@pytest.fixture
def full_searches(monkeypatch):
    """The corner pairs that certificates hand to the full search."""
    calls = []
    full = tiled_surface.discrete_distance

    def recorded(t, x, y):
        calls.append((x, y))
        return full(t, x, y)

    monkeypatch.setattr(tiled_surface, "discrete_distance", recorded)
    return calls


class TestCertificateMatchesOracle:
    # the certificate against its definition (conftest.oracle_certificate):
    # full searches on the public dijkstra, compared bit for bit
    VARIANTS = ["plain", "refined", "glued", "glued-refined"]
    B_RANGE = (0.9, 40.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_windows(self, seed, variant, oracle_certificate, full_searches):
        t, _ = _seeded_window(seed, variant, self.B_RANGE)
        for n in range(1, t.rows - 1):
            cert = certify_vertical_minimizing(t, n)
            assert cert.passes
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, n))
        assert full_searches == []  # the one-strip path sufficed: no full search

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_injected_shortcuts(self, seed, variant, oracle_certificate, inject_edge):
        t, rng = _seeded_window(seed, variant, self.B_RANGE)
        failing = 0
        for n in range(1, t.rows - 1):
            r0 = max(1, (t.rows - n) // 2)
            u = ("C", r0 + rng.randint(0, n - 1), rng.randint(0, t.cols))
            v = ("C", rng.randint(u[1] + 1, r0 + n), rng.randint(0, t.cols))
            bad = inject_edge(t, u, v, rng.uniform(0.01, t.b))
            cert = certify_vertical_minimizing(bad, n)
            failing += not cert.passes
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(bad, n))
        assert failing

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_lengthened_corner_edges(self, seed, variant, oracle_certificate, full_searches):
        # every edge at a lattice corner 1.25 times as long, set before the
        # first query: each is at least b long, so the corner distance exceeds
        # 2nb + CERT_TOL; the writes drop the constructors' hint, so each
        # certificate's full search reports the distance.  (Lengthening only
        # the vertical sides leaves a path through the diagonals that rounds
        # to 2nb once b is near 40.)
        t, _ = _seeded_window(seed, variant, self.B_RANGE)
        for key, w in t.edges.items():
            if "C" in (key[0][0], key[1][0]):
                t.edges[key] = 1.25 * w
        for n in range(1, t.rows - 1):
            cert = certify_vertical_minimizing(t, n)
            assert cert.distance > cert.expected + CERT_TOL
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, n))
        assert len(full_searches) == t.rows - 2


class TestCertificateMatchesOracleLargeB(TestCertificateMatchesOracle):
    # the same windows with b up to the largest solve_pentagon accepts:
    # strip tests and distances near 2nb ~ 7,000
    B_RANGE = (40.0, 355.58)


def test_strip_gamma_counts_one_strip(oracle_certificate, full_searches):
    # gamma_N over the strip's 9 cols + 3 vertices: over the window's 14,356
    # the strip test would fail here (b > 1.82) and send it to the full path
    t = build_grid(1.86, 45, 45)
    cert = certify_vertical_minimizing(t, 43)
    assert cert.passes and full_searches == []
    assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, 43))


@given(variant=st.sampled_from(sorted(_CONSTRUCTIONS)), rows=st.integers(1, 8),
       cols=st.integers(1, 8), b=st.floats(0.9, 355.0))
@settings(max_examples=150, deadline=None)
def test_strip_window_is_every_row_strip(variant, rows, cols, b):
    # the one-row window that replaying the constructors makes is row strip
    # k with its rows renumbered, edge for edge and length for length; the
    # strip distance, which the library searches on that window numbered
    # from the record, is the replayed window's line-to-line distance and
    # every strip's, to the bit.  Every strip's distance is 2b in each kind
    # of window, so only the edges show a strip window made with a step left
    # out
    t = _CONSTRUCTIONS[variant](build_grid(b, rows, cols))
    s = _strip_distance(t)
    assert t.edges._strip is s and t.edges._index is None
    window = dict(_CONSTRUCTIONS[variant](build_grid(b, 1, cols)).edges)
    assert _line_distance(_index_graph(window), 0, 1).hex() == s.hex()
    g = t._graph()
    for k in range(rows):
        strip = {(_shifted(u, k), _shifted(v, k)): x for (u, v), x in t.edges.items()
                 if _in_strip(u, k) and _in_strip(v, k)}
        assert strip == window, k
        assert _line_distance(g, k, k + 1).hex() == s.hex(), k


def _in_strip(v, k) -> bool:
    """Whether v is a vertex of strip k: the cells of row k with row lines
    k and k + 1."""
    return v[1] in (k, k + 1) if v[0] in ("C", "HM") else v[1] == k


def _shifted(v, k):
    return (v[0], v[1] - k, *v[2:])


def _band(v) -> int:
    """2r for a corner or horizontal midpoint on row line r, 2r + 1 for a
    hole corner or vertical midpoint of cell row r."""
    return 2 * v[1] + (v[0] in ("H", "VM"))


def _adjacency(t) -> dict:
    adj = {}
    for u, v in t.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _reached(adj, sources, avoid=lambda v: False) -> set:
    """Breadth-first: every vertex joined to a source by a path that
    passes no vertex ``avoid`` holds for."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        frontier = {w for u in frontier for w in adj[u] if w not in seen and not avoid(w)}
        seen.update(frontier)
    return seen


class TestRowLineSeparation:
    # every row line of a built window separates the rows above it from the
    # rows below, which the one-strip path rests on; checked here on the
    # graph itself.  A write drops the constructors' hint, so an edited
    # window takes the full path, whose searches have no cut to lose

    @pytest.mark.parametrize("variant", _CONSTRUCTIONS)
    @pytest.mark.parametrize("rows, cols", [(1, 1), (4, 5), (7, 6)])
    def test_deleting_a_row_line_cuts_the_window(self, rows, cols, variant):
        t = _CONSTRUCTIONS[variant](build_grid(1.2, rows, cols))
        adj = _adjacency(t)
        assert _reached(adj, [("C", 0, 0)]) == set(adj)  # connected
        for line in range(rows + 1):
            above = [v for v in adj if _band(v) < 2 * line]
            seen = _reached(adj, above, avoid=lambda v: _band(v) == 2 * line)
            assert all(_band(v) < 2 * line for v in seen), line

    def test_flag_off_after_an_edge_across_a_row_line(self, oracle_certificate):
        t = build_grid(1.2, 6, 4)
        t.add_edge(("C", 1, 1), ("C", 3, 1), 9.0)  # bands 2 and 6
        adj = _adjacency(t)
        seen = _reached(adj, [("C", 1, 1)], avoid=lambda v: _band(v) == 4)
        assert ("C", 3, 1) in seen
        assert t.edges._made is None
        for n in range(1, 5):
            cert = certify_vertical_minimizing(t, n)
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, n))

    @pytest.mark.parametrize("vertex", [("X", 2, 1), ("HM", 2.5, 1), ("H",)])
    def test_flag_off_for_a_vertex_without_a_band(self, vertex, oracle_certificate):
        t = build_grid(1.2, 6, 4)
        t.edges[("C", 2, 2), vertex] = 0.5
        cert = certify_vertical_minimizing(t, 3)
        assert t.edges._made is None
        assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, 3))

    @pytest.mark.parametrize("write", ["inject_edge", "direct"])
    def test_shortcut_from_below_the_source_line_fails(self, write, inject_edge,
                                                        oracle_certificate):
        # the source line is row line 8; the shortcut leaves it downwards, to
        # row line 9, and jumps to the target line 4: a line search that
        # stopped at row line 8 regardless would never see it
        t = build_grid(1.2, 12, 12)
        u, v, length = ("C", 9, 3), ("C", 4, 8), 0.05
        if write == "inject_edge":
            t = inject_edge(t, u, v, length)
        else:
            t.edges[v, u] = length  # before the first query
        cert = certify_vertical_minimizing(t, 4)
        assert cert.dijkstra_equality and not cert.row_crossing_bound
        assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, 4))

    def test_shortcut_through_a_vertex_below_the_source_line(self, oracle_certificate,
                                                              full_searches):
        # the writes drop the constructors' hint, so the full search finds
        # the path through the vertex ("VM", 8, 6) below the source line
        t = build_grid(1.2, 12, 12)
        t.add_edge(("HM", 8, 5), ("VM", 7, 6), 0.1)
        t.add_edge(("HM", 8, 5), ("VM", 8, 6), 0.1)
        t.edges[("C", 8, 6), ("VM", 8, 6)] = 0.1  # before the first query
        cert = certify_vertical_minimizing(t, 4)
        assert cert.distance == pytest.approx(8.7) and not cert.passes
        assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, 4))
        assert full_searches == [(("C", 4, 6), ("C", 8, 6))]


class TestLineSearchCut:
    # the full path's line search runs uncut.  A path that dips below its
    # source line comes back through a source, and rounding is monotone, so
    # a search cut here, with every vertex below the line capped at 0,
    # settles no vertex below and the same vertices on or above the line,
    # each with the uncut search's distance to the bit.  A copy with a plain
    # dict has no hint, so its certificates take the full path

    @pytest.mark.parametrize("variant", TestCertificateMatchesOracle.VARIANTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_settles_nothing_below_and_keeps_bits(self, seed, variant, monkeypatch,
                                                  capped_dijkstra):
        t, _ = _seeded_window(seed, variant, TestCertificateMatchesOracle.B_RANGE)
        t = dataclasses.replace(t, edges=dict(t.edges))
        searches = []
        full = _tiled_graph._distances

        def recorded(adj, sources, targets=(), first=False):
            dist = full(adj, sources, targets, first)
            searches.append((sources, targets, first, list(dist)))
            return dist

        # the line search runs in the integer layer, the corner search in
        # tiled_surface; only the first is recorded
        monkeypatch.setattr(_tiled_graph, "_distances", recorded)
        g = t._graph()
        for n in range(1, t.rows - 1):
            searches.clear()
            certify_vertical_minimizing(t, n)
            (sources, targets, first, uncut), = searches  # the line search
            line = max(1, (t.rows - n) // 2) + n
            assert {g.ids[k] for k in sources} == {
                v for v in g.ids if v[0] in ("C", "HM") and v[1] == line}
            assert first  # it stops at the first vertex of the target line
            below = [_band(v) > 2 * line for v in g.ids]
            cut = capped_dijkstra(g.adj, sources, targets, [0.0 if b else math.inf for b in below],
                                  first)
            assert all(d is None for d, b in zip(cut, below) if b)
            assert any(d is not None for d, b in zip(uncut, below) if b)
            assert _hex_above(cut, below) == _hex_above(uncut, below)


def _hex_above(dist, below) -> list:
    return [None if d is None else d.hex() for d, b in zip(dist, below) if not b]


class TestCutWindows:
    # a window cut in two, or missing a corner, keeps the error of a plain
    # distance query
    def test_rows_cut_apart(self):
        t = build_grid(1.2, 4, 2)
        for key in [e for e in t.edges if any(v[0] in ("VM", "H") and v[1] == 1 for v in e)]:
            del t.edges[key]
        msg = "no edge path connects ('C', 1, 1) and ('C', 3, 1)"
        with pytest.raises(Unreachable, match=re.escape(msg)):
            certify_vertical_minimizing(t, 2)

    @pytest.mark.parametrize("corner, msg", [
        (("C", 3, 1), "no edge path connects ('C', 1, 1) and ('C', 3, 1)"),
        (("C", 1, 1), "vertex ('C', 1, 1) not present in the complex"),
    ])
    def test_corner_without_edges(self, corner, msg):
        t = build_grid(1.2, 4, 2)
        for key in [e for e in t.edges if corner in e]:
            del t.edges[key]
        with pytest.raises(Unreachable, match=re.escape(msg)):
            certify_vertical_minimizing(t, 2)


class TestDiagonals:
    def test_adds_edges(self):
        t = build_grid(1.2, 2, 2)
        refined = add_diagonals(t)
        assert len(refined.edges) > len(t.edges)

    def test_diagonals_shorter_than_two_sides(self):
        t = build_grid(1.2, 1, 1)
        refined = add_diagonals(t)
        new_edges = set(refined.edges) - set(t.edges)
        longest_side = max(t.edges.values())
        for e in new_edges:
            assert refined.edges[e] < 2.0 * longest_side

    @pytest.mark.parametrize("b", [36.8, 40.0, 100.0, 300.0, 355.0])
    def test_refined_window_certifies_for_every_valid_b(self, b):
        # where a pentagon walk would lose a vertex to roundoff, the
        # diagonals still come from the sides
        t = add_diagonals(build_grid(b, 5, 2))
        for n in (1, 2, 3):
            assert certify_vertical_minimizing(t, n).passes

    def test_range_ends_where_solve_pentagon_refuses(self):
        with pytest.raises(NumericalInstability, match="overflows"):
            add_diagonals(build_grid(356.0, 5, 2))

    def test_diagonals_match_closed_form(self):
        # from b just above arcsinh(1) to the largest b solve_pentagon accepts
        for b in [0.8814, 0.9, 1.5, 2.0, 5.0, 10.0, 20.0, 36.7, 36.8, 100.0, 355.0, 355.58]:
            p = solve_pentagon(b)
            sides = (p.b, p.b, p.a, p.c, p.a)
            for i, d in _face_diagonals(b).items():
                want = _hypotenuse_reference(sides[i], sides[(i + 1) % 5])
                assert d == pytest.approx(want, rel=1e-14, abs=0.0), (b, i)

    def test_diagonals_match_pentagon_walk(self, geometry):
        # the walk of the test geometry places the vertices; it is exact
        # enough to be an oracle up to b = 10
        for b in [0.9, 1.2, 1.5, 2.0, 3.0, 5.0, 7.5, 10.0]:
            pts = geometry.pentagon_vertices(solve_pentagon(b))
            for i, d in _face_diagonals(b).items():
                want = geometry.hyp_dist(pts[i], pts[(i + 2) % 5])
                assert d == pytest.approx(want, rel=1e-12, abs=0.0), (b, i)

    @pytest.mark.parametrize("u, v", [(709.0, 5.0), (700.0, 700.0), (1e-300, 710.0)])
    def test_hypotenuse_past_overflow(self, u, v):
        # cosh u * cosh v overflows for the first two: the log form
        assert _hypotenuse(u, v) == pytest.approx(_hypotenuse_reference(u, v), rel=1e-14)

    def test_refuses_a_planted_edge_of_another_length(self):
        # an edge planted between two corners a diagonal joins, set before
        # refining: the diagonal's length must agree with it
        t = build_grid(1.2, 3, 3)
        face = t.faces[4]
        u, v = sorted((face[1], face[3]))
        t.edges[u, v] = 0.5
        with pytest.raises(InconsistentEdgeLength, match="inconsistent lengths"):
            add_diagonals(t)

    @pytest.mark.parametrize("shift", [None, 1e-13])
    @pytest.mark.parametrize("variant", ["grid", "glued"])
    def test_same_edges_as_one_add_edge_per_diagonal(self, variant, shift):
        t = _CONSTRUCTIONS[variant](build_grid(1.3, 4, 5))
        if shift is not None:
            # a planted edge within EDGE_TOL of the diagonal: overwritten
            face = t.faces[4]
            t.edges[tuple(sorted((face[1], face[3])))] = _hypotenuse(t.b, t.pentagon.a) + shift
        assert _hex_edges(add_diagonals(t)) == _hex_edges(_add_diagonals_per_edge(t))


def _face_diagonals(b) -> dict:
    """Diagonal (i, i+2) of the one face of a refined 1x1 window -> length."""
    t = add_diagonals(build_grid(b, 1, 1))
    face = t.faces[0]
    return {i: t.edges[tuple(sorted((face[i], face[(i + 2) % 5])))] for i in range(5)}


def _hypotenuse_reference(u: float, v: float) -> float:
    """acosh(cosh u * cosh v) in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        u, v = Decimal(u), Decimal(v)
        y = (u.exp() + (-u).exp()) * (v.exp() + (-v).exp()) / 4
        return float((y + (y * y - 1).sqrt()).ln())


class TestGluing:
    def test_positive_genus(self):
        g = glue_to_Rb(build_grid(1.2, 3, 2))
        assert g.genus() >= 1

    def test_more_columns_more_genus(self):
        g2 = glue_to_Rb(build_grid(1.2, 3, 2))
        g4 = glue_to_Rb(build_grid(1.2, 3, 4))
        assert g4.genus() > g2.genus()

    def test_records_pairs(self):
        g = glue_to_Rb(build_grid(1.2, 2, 4))
        assert ((0, 0), (0, 1)) in g.glued_pairs
        assert ((1, 2), (1, 3)) in g.glued_pairs

    def test_odd_column_left_unglued(self):
        g = glue_to_Rb(build_grid(1.2, 1, 3))
        glued_cols = {c for pair in g.glued_pairs for _, c in pair}
        assert 2 not in glued_cols

    def test_edge_lengths_preserved(self):
        t = build_grid(1.2, 2, 2)
        g = glue_to_Rb(t)
        assert {round(w, 9) for w in g.edges.values()} == {
            round(w, 9) for w in t.edges.values()
        }

    def test_certificate_still_passes_after_gluing(self):
        t = glue_to_Rb(build_grid(1.0, 4, 2))
        cert = certify_vertical_minimizing(t, 2)
        assert cert.passes

    @pytest.mark.parametrize("rows, cols", [(5, 2), (9, 9)])
    def test_glued_window_certificates(self, rows, cols):
        b = 1.15
        t = glue_to_Rb(build_grid(b, rows, cols))
        for n in range(1, rows - 1):
            cert = certify_vertical_minimizing(t, n)
            assert cert.passes
            assert cert.distance == pytest.approx(2.0 * n * b, abs=1e-9)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (1, 3), (3, 4), (5, 2), (9, 9), (28, 28)])
    def test_glued_genus_is_one_handle_per_pair(self, rows, cols):
        g = glue_to_Rb(build_grid(1.2, rows, cols))
        assert len(g.glued_pairs) == rows * (cols // 2)
        assert g.genus() == rows * (cols // 2)

    def test_refuses_an_a_edge_of_another_length_at_a_glued_midpoint(self):
        # the glued-away hole's W corner merges into the E corner of the hole
        # on its left, so its ``a`` edge to their shared midpoint merges with
        # that hole's ``a`` edge there: set before gluing, they must agree
        t = build_grid(1.2, 2, 4)
        key = (("H", 1, 3, "W"), ("VM", 1, 3))
        assert (("H", 1, 2, "E"), ("VM", 1, 3)) in t.edges
        t.edges[key] += 1e-3
        with pytest.raises(InconsistentEdgeLength, match="inconsistent lengths"):
            glue_to_Rb(t)

    @pytest.mark.parametrize("shift", [0.0, 1e-13])
    @pytest.mark.parametrize("variant", ["grid", "refined"])
    @pytest.mark.parametrize("rows, cols", [(1, 2), (3, 5), (4, 6)])
    def test_same_edges_as_one_add_edge_per_side(self, rows, cols, variant, shift):
        t = _CONSTRUCTIONS[variant](build_grid(1.3, rows, cols))
        # within EDGE_TOL, the glued-away side's length is the one kept
        t.edges[("H", 0, 1, "W"), ("VM", 0, 1)] += shift
        assert _hex_edges(glue_to_Rb(t)) == _hex_edges(_glue_per_edge(t))


def _hex_edges(t) -> dict:
    return {key: w.hex() for key, w in t.edges.items()}


def _glue_per_edge(t):
    """The edges of ``glue_to_Rb(t)`` as written one ``add_edge`` per side."""
    out = TiledComplex(pentagon=t.pentagon, rows=t.rows, cols=t.cols)
    for (u, v), w in t.edges.items():
        out.add_edge(_glued_hole(u), _glued_hole(v), w)
    return out


def _glued_hole(v):
    # a hole corner in an odd column, with a column on its left to glue to
    if v[0] == "H" and v[2] % 2 == 1:
        return ("H", v[1], v[2] - 1, {"E": "W", "W": "E"}.get(v[3], v[3]))
    return v


def _add_diagonals_per_edge(t):
    """The edges of ``add_diagonals(t)`` as written one ``add_edge`` per
    diagonal."""
    p = t.pentagon
    sides = (p.b, p.b, p.a, p.c, p.a)
    out = TiledComplex(pentagon=t.pentagon, rows=t.rows, cols=t.cols, edges=dict(t.edges))
    for face in t.faces:
        for i in range(5):
            j = (i + 2) % 5
            out.add_edge(face[i], face[j], _hypotenuse(sides[i], sides[(i + 1) % 5]))
    return out



WINDOW_KINDS = {
    "plain": lambda t: t,
    "refined": add_diagonals,
    "glued": glue_to_Rb,
    "glued-refined": lambda t: add_diagonals(glue_to_Rb(t)),
    "refined-glued": lambda t: glue_to_Rb(add_diagonals(t)),
}


def _library_topology(t) -> tuple:
    return t.euler_characteristic(), t.boundary_component_count(), t.genus()


class TestTopologyMatchesOracle:
    # the oracle counts on vertex tuples and reads the public fields alone;
    # the library numbers the face vertices by first appearance

    @given(rows=st.integers(1, 8), cols=st.integers(1, 8),
           kind=st.sampled_from(sorted(WINDOW_KINDS)))
    @settings(max_examples=60, deadline=None)
    def test_every_window_kind(self, rows, cols, kind, oracle_topology):
        t = WINDOW_KINDS[kind](build_grid(1.2, rows, cols))
        assert _library_topology(t) == oracle_topology(t)

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_glued_genus_counts_every_handle(self, kind, oracle_topology):
        # each glued pair adds one handle; an unglued window is a sphere with
        # one boundary per hole and one outside
        t = WINDOW_KINDS[kind](build_grid(1.2, 5, 6))
        glued = "glued" in kind
        assert _library_topology(t) == oracle_topology(t)
        assert t.genus() == (15 if glued else 0)
        assert t.boundary_component_count() == 1 + (0 if glued else 30)

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_window_edited_before_the_first_query(self, kind, oracle_topology):
        # one edge to a vertex on no face, and every edge at one hole corner
        # deleted, so that it stays on its faces and in V: V counts face
        # vertices only, so chi does not move, and the index sorts its ids
        # afresh
        t = WINDOW_KINDS[kind](build_grid(1.2, 4, 4))
        t.edges[("C", 0, 0), ("X", 0)] = 1.0
        corner = ("H", 1, 0, "N")
        for key in [key for key in t.edges if corner in key]:
            del t.edges[key]
        assert corner in {v for face in t.faces for v in face}
        chi, boundary, genus = oracle_topology(t)
        assert _library_topology(t) == (chi, boundary, genus)
        assert chi == oracle_topology(WINDOW_KINDS[kind](build_grid(1.2, 4, 4)))[0]

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_dangling_edge_leaves_chi(self, kind):
        # an edge whose far end lies on no face is no side of the surface:
        # neither it nor that end counts, before or after the first query
        want = _library_topology(WINDOW_KINDS[kind](build_grid(1.2, 4, 4)))
        t = WINDOW_KINDS[kind](build_grid(1.2, 4, 4))
        t.edges[("C", 0, 0), ("X", 0)] = 1.0
        assert _library_topology(t) == want
        t.add_edge(("C", 0, 1), ("X", 1), 1.0)
        assert _library_topology(t) == want
        if kind == "plain":
            assert want == (-15, 17, 0)

    def test_face_vertex_no_edge_touches(self, oracle_topology):
        # one pentagon with two or three of its sides as edges: the vertices
        # on the face but on no edge still count in V, so the face is a disc
        p = solve_pentagon(1.2)
        face = tuple(("P", k) for k in range(5))
        for sides in (2, 3):
            t = TiledComplex(pentagon=p, rows=1, cols=1, faces=[face])
            for k in range(sides):
                t.edges[face[k], face[k + 1]] = p.b
            assert t._graph().ids == list(face[:sides + 1])
            assert _library_topology(t) == oracle_topology(t) == (5 - 5 + 1, 1, 0)

    def test_two_faces_apart(self, oracle_topology):
        # two pentagons that share no vertex: two boundary components
        p = solve_pentagon(1.2)
        faces = [tuple(("P", f, k) for k in range(5)) for f in range(2)]
        t = TiledComplex(pentagon=p, rows=1, cols=1, faces=faces)
        for face in faces:
            for k in range(5):
                t.add_edge(face[k], face[(k + 1) % 5], p.b)
        assert _library_topology(t) == oracle_topology(t) == (2, 2, -1)


class TestDirectLengthWrites:
    # a length written straight into ``t.edges`` before the first query is
    # refused by the index, as ``add_edge`` refuses it; a NaN edge was never
    # relaxed (the certificate passed at 9.6) and a negative side undercut
    # every path through it (distance 6.46)

    @pytest.mark.parametrize("key, length", [
        ((("C", 1, 1), ("C", 5, 1)), math.nan),
        ((("C", 1, 1), ("HM", 1, 1)), -5.0),
        ((("C", 1, 1), ("HM", 1, 1)), 0.0),
        ((("C", 1, 1), ("HM", 1, 1)), -0.0),
        ((("C", 1, 1), ("HM", 1, 1)), math.inf),
        ((("C", 1, 1), ("HM", 1, 1)), math.nan),
    ])
    def test_certificate_refuses_a_bad_length(self, key, length):
        t = build_grid(1.2, 6, 3)
        t.edges[key] = length
        with pytest.raises(NonPositiveLength, match=re.escape(f"edge {key} length must be")):
            certify_vertical_minimizing(t, 4)

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_every_query_refuses_a_nan_written_before_it(self, kind):
        t = build_grid(1.2, 6, 4)
        t.edges[("C", 2, 2), ("HM", 2, 2)] = math.nan
        t = WINDOW_KINDS[kind](t)
        for query in (lambda: certify_vertical_minimizing(t, 3), t.genus,
                      lambda: discrete_distance(t, ("C", 1, 1), ("C", 4, 1)),
                      lambda: dijkstra(t, [("C", 1, 1)])):
            with pytest.raises(NonPositiveLength):
                query()

    @pytest.mark.parametrize("value", ["x", None, 1j])
    def test_non_number_is_a_length_error(self, value):
        # through add_edge, and written straight into the edge map, which
        # drops the constructors' record, so the index checks each length
        key = (("C", 1, 1), ("HM", 1, 1))
        with pytest.raises(NonPositiveLength, match="edge length must be a number"):
            build_grid(1.2, 3, 3).add_edge(*key, value)
        t = build_grid(1.2, 6, 3)
        t.edges[key] = value
        with pytest.raises(NonPositiveLength, match=re.escape(f"edge {key} length must be a number")):
            certify_vertical_minimizing(t, 4)

    def test_empty_edge_map_is_valid(self):
        t = TiledComplex(pentagon=solve_pentagon(1.2), rows=1, cols=1)
        assert dijkstra(t, []) == {}
        assert _index_graph({}).ids == []
        assert _library_topology(t) == (0, 0, 1)

    def test_finite_lengths_whose_sum_overflows_pass(self):
        huge, v = 1e308, [("P", k) for k in range(4)]
        g = _index_graph({(v[0], v[1]): huge, (v[1], v[2]): huge})
        assert g.adj == [[1, huge], [0, huge, 2, huge], [1, huge]]
        with pytest.raises(NonPositiveLength):
            _index_graph({(v[0], v[1]): huge, (v[1], v[2]): huge, (v[2], v[3]): math.nan})

    @pytest.mark.parametrize("value", [True, False])
    def test_every_query_refuses_a_bool_written_before_it(self, value):
        # True compares as 1 and False as 0, so a test by comparison alone
        # takes True for a length of 1 (discrete_distance would read 2.4)
        key = next(iter(build_grid(1.2, 4, 2).edges))
        for query in (lambda t: discrete_distance(t, ("C", 0, 0), ("C", 1, 0)),
                      lambda t: dijkstra(t, [("C", 0, 0)]), TiledComplex.genus,
                      lambda t: certify_vertical_minimizing(t, 1)):
            t = build_grid(1.2, 4, 2)
            t.edges[key] = value
            with pytest.raises(NonPositiveLength, match=re.escape(f"edge {key} length must be a number")):
                query(t)


class TestLengthChecksAtIndexing:
    # the constructors' record on the edge map decides whether the index
    # checks lengths: a built window's none, any other map's each one once

    @pytest.fixture
    def checks(self, monkeypatch):
        # length checks by the index in the integer layer, or by tiled_surface
        calls = []
        check = tiled_surface.check_number
        for module in (tiled_surface, _tiled_graph):
            monkeypatch.setattr(module, "check_number", lambda *a, **k: calls.append(a) or check(*a, **k))
        return calls

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_built_window_checks_no_length(self, kind, checks):
        t = WINDOW_KINDS[kind](build_grid(1.2, 5, 4))
        checks.clear()
        t._graph()
        assert t.genus() >= 0 and discrete_distance(t, ("C", 1, 1), ("C", 4, 1)) > 0
        assert checks == []

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_plain_dict_copy_checks_each_length_once(self, kind, checks):
        t = WINDOW_KINDS[kind](build_grid(1.2, 5, 4))
        plain = dataclasses.replace(t, edges=dict(t.edges))
        checks.clear()
        plain._graph()
        assert plain.genus() == t.genus()
        assert [w for _, w in checks] == list(t.edges.values())


class TestIdsWithoutKind:
    # a hand-built complex may name its vertices by any ids that sort; ids
    # that have no kind, such as ints, leave the index without row lines

    def test_int_ids(self):
        t = TiledComplex(pentagon=solve_pentagon(1.2), rows=4, cols=2,
                         edges={(0, 1): 1.0, (1, 2): 2.0})
        assert dijkstra(t, [0]) == {0: 0.0, 1: 1.0, 2: 3.0}
        assert discrete_distance(t, 0, 2) == 3.0
        with pytest.raises(Unreachable):
            certify_vertical_minimizing(t, 1)

    def test_mixed_type_ids_refused_at_the_first_query(self):
        # an int id beside tuple ids cannot be sorted into the index
        for query in (lambda t: dijkstra(t, [0]), lambda t: discrete_distance(t, 0, 1),
                      lambda t: t.genus(), lambda t: certify_vertical_minimizing(t, 1)):
            t = TiledComplex(pentagon=solve_pentagon(1.2), rows=4, cols=2,
                             edges={(0, 1): 1.0, (("C", 1, 1), ("C", 1, 2)): 1.0})
            with pytest.raises(InconsistentInput, match="do not compare") as info:
                query(t)
            assert not isinstance(info.value, TypeError)

    def test_add_edge_refuses_an_id_that_does_not_compare(self):
        t = build_grid(1.2, 4, 4)
        edges = dict(t.edges)
        with pytest.raises(InconsistentInput, match="do not compare"):
            t.add_edge(0, ("C", 1, 1), 1.0)
        assert t.edges == edges
        assert discrete_distance(t, ("C", 0, 0), ("C", 1, 0)) == 2 * t.b

    def test_short_tuples_beside_corners(self):
        # ("P",) has no row; the corners still make their row lines, and the
        # line search passes through it
        v = [("C", 1, 0), ("C", 1, 1), ("P",), ("X", "y"), ("C", 2, 0)]
        t = TiledComplex(pentagon=solve_pentagon(1.2), rows=4, cols=2,
                         edges={(v[0], v[1]): 1.0, (v[0], v[2]): 1.0, (v[1], v[3]): 1.0,
                                (v[4], v[2]): 1.0})
        g = t._graph()
        assert _line_distance(g, 1, 2) == 2.0
        assert discrete_distance(t, ("P",), ("X", "y")) == 3.0

    def test_an_id_with_a_kind_and_no_row(self):
        # ("C",) sorts before every corner; the line search passes over it
        v = [("C",), ("C", 1, 1), ("C", 2, 1), ("C", 3, 1)]
        t = TiledComplex(pentagon=solve_pentagon(1.2), rows=4, cols=2,
                         edges={(v[1], v[2]): 2.4, (v[2], v[3]): 2.4, (v[0], v[1]): 1.0})
        cert = certify_vertical_minimizing(t, 1)
        assert (cert.distance, cert.passes) == (2.4, True)
        assert _line_distance(t._graph(), 1, 2) == 2.4


# every mutator of the edge map, each applied to a built window after a query
EDGE_MAP_WRITES = {
    "__setitem__": lambda e: e.__setitem__((("C", 1, 1), ("C", 3, 1)), 0.5),
    "__delitem__": lambda e: e.__delitem__(next(iter(e))),
    "__ior__": lambda e: e.__ior__({(("C", 1, 1), ("C", 3, 1)): 0.5}),
    "update": lambda e: e.update({(("C", 1, 1), ("C", 3, 1)): 0.5}),
    "setdefault": lambda e: e.setdefault((("C", 1, 1), ("C", 3, 1)), 0.5),
    "pop": lambda e: e.pop(next(iter(e))),
    "popitem": lambda e: e.popitem(),
    "clear": lambda e: e.clear(),
}


def _hints(t) -> tuple:
    return t.edges._index, t.edges._made, t.edges._strip


class TestEdgeMap:
    # the edge map drops the index, the constructors' record and the strip
    # distance on any write, so a write before or after a query is seen by
    # the next one

    @pytest.mark.parametrize("variant", _CONSTRUCTIONS)
    def test_constructors_leave_both_hints(self, variant):
        t = _CONSTRUCTIONS[variant](build_grid(1.2, 5, 5))
        assert t.edges._made[0] == sorted(t.vertices())
        assert t.edges._index is None and t.edges._strip is None
        assert t._graph() is t.edges._index

    @pytest.mark.parametrize("write", EDGE_MAP_WRITES)
    def test_every_mutator_drops_the_index_and_both_hints(self, write):
        t = build_grid(1.2, 6, 3)
        t._graph()
        certify_vertical_minimizing(t, 2)
        assert None not in _hints(t)
        edges = t.edges
        EDGE_MAP_WRITES[write](edges)
        assert t.edges is edges
        assert _hints(t) == (None, None, None)
        g, fresh = t._graph(), _index_graph(dict(t.edges))
        assert (g.ids, g.pos) == (fresh.ids, fresh.pos)
        assert [_hex_pairs(a) for a in g.adj] == [_hex_pairs(a) for a in fresh.adj]

    def test_in_place_or_through_the_attribute(self):
        t = build_grid(1.2, 6, 3)
        t._graph()
        edges = t.edges
        t.edges |= {(("C", 1, 1), ("C", 5, 1)): 0.5}
        assert t.edges is edges and _hints(t) == (None, None, None)

    def test_add_edge_drops_both_hints(self):
        t = build_grid(1.2, 6, 3)
        t._graph()
        t.add_edge(("C", 1, 1), ("HM", 1, 1), 1.2)
        assert _hints(t) == (None, None, None)

    def test_pr18_edit_after_the_first_certificate(self, oracle_certificate):
        # the edit that a cached index used to ignore: the next certificate is
        # a fresh window's with the same edit
        key = (("C", 1, 1), ("C", 5, 1))
        t = build_grid(1.2, 6, 3)
        assert certify_vertical_minimizing(t, 4).passes
        t.edges[key] = 0.5
        fresh = build_grid(1.2, 6, 3)
        fresh.edges[key] = 0.5
        cert = certify_vertical_minimizing(t, 4)
        assert not cert.passes and cert.distance == 0.5
        assert cert == certify_vertical_minimizing(fresh, 4)
        assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, 4))

    @pytest.mark.parametrize("variant", ["plain", "refined", "glued", "glued-refined"])
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_shortcut_in_one_row_keeps_separation(self, variant, when, oracle_certificate):
        # a shortcut across row 2 alone, its edges joining neighbouring bands:
        # the row lines still separate the window, but the rows are no longer
        # alike, so the one-row window may not stand for row 2; the writes
        # drop the record, so no strip is searched
        t = WINDOW_KINDS[variant](build_grid(1.3, 12, 6))
        if when == "after":
            for n in range(1, 11):
                assert certify_vertical_minimizing(t, n).passes
        t.edges[("HM", 2, 2), ("VM", 2, 3)] = 0.05
        t.edges[("HM", 3, 2), ("VM", 2, 3)] = 0.05
        assert t.edges._made is None
        failing = 0
        for n in range(1, 11):
            cert = certify_vertical_minimizing(t, n)
            failing += not cert.row_crossing_bound
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, n))
        assert failing

    def test_replace_copies_a_plain_dict_once_and_keeps_a_map(self):
        t = build_grid(1.2, 4, 4)
        t._graph()
        assert dataclasses.replace(t, faces=[]).edges is t.edges
        copy = dataclasses.replace(t, edges=dict(t.edges))
        assert isinstance(copy.edges, type(t.edges)) and copy.edges == t.edges
        assert _hints(copy) == (None, None, None)
        hand = TiledComplex(pentagon=t.pentagon, rows=4, cols=4, edges={(0, 1): 1.0})
        assert isinstance(hand.edges, type(t.edges)) and _hints(hand) == (None, None, None)

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, *(
        lambda t, p=p: pickle.loads(pickle.dumps(t, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1))],
        ids=["deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_certify_as_the_original(self, copy_of):
        # a deep copy has its own map; a write to it leaves the original's
        t = add_diagonals(glue_to_Rb(build_grid(1.2, 6, 5)))
        certs = [certify_vertical_minimizing(t, n) for n in range(1, 5)]
        twin = copy_of(t)
        assert twin.edges == t.edges and isinstance(twin.edges, type(t.edges))
        assert [certify_vertical_minimizing(twin, n) for n in range(1, 5)] == certs
        twin.edges[("C", 1, 2), ("C", 5, 2)] = 0.5
        assert not certify_vertical_minimizing(twin, 4).passes
        assert certify_vertical_minimizing(t, 4).passes

    def test_a_complex_is_freed_without_the_cycle_collector(self):
        # the map holds no reference back to its complex
        gc.collect()
        gc.disable()
        try:
            for make in (lambda: build_grid(1.2, 4, 4), lambda: add_diagonals(build_grid(1.2, 4, 4)),
                         lambda: glue_to_Rb(build_grid(1.2, 4, 4))):
                t = make()
                certify_vertical_minimizing(t, 2)
                ref = weakref.ref(t)
                del t
                assert ref() is None
        finally:
            gc.enable()


class TestMadeRecord:
    # the constructors record on the edge map how a window was made: its
    # pentagon, rows, cols and steps.  A copy whose fields no longer match
    # the record takes the full path: a strip built from the copy's own
    # fields could be narrower than the window, or miss its diagonals, and
    # overstate the strip distance

    def test_constructors_record_the_window(self):
        t = build_grid(1.3, 4, 5)
        assert t.edges._made[1:] == (tuple(t.faces), t.pentagon, 4, 5)
        u = glue_to_Rb(add_diagonals(t))
        assert u.edges._made[1:] == (tuple(u.faces), t.pentagon, 4, 5, "add_diagonals", "glue_to_Rb")
        t.edges[("C", 0, 0), ("C", 1, 1)] = 5.0
        assert t.edges._made is None

    @pytest.mark.parametrize("field, value", [("rows", 20), ("cols", 30)])
    def test_resized_copy_is_refused_as_a_plain_dict_copy(self, field, value):
        # the copy keeps the edge map of a 9 x 7 window: no corner of its
        # alpha column n rows apart lies on both of its row lines
        t = build_grid(1.3, 9, 7)
        kept = dataclasses.replace(t, **{field: value})
        plain = dataclasses.replace(kept, edges=dict(t.edges))
        with pytest.raises(Unreachable) as info:
            certify_vertical_minimizing(plain, 5)
        with pytest.raises(Unreachable, match=re.escape(str(info.value))):
            certify_vertical_minimizing(kept, 5)

    @pytest.mark.parametrize("variant", _CONSTRUCTIONS)
    @pytest.mark.parametrize("fields", [{"rows": 7}, {"cols": 3}, {"rows": 5, "cols": 4},
                                        {"pentagon": solve_pentagon(1.1)}],
                             ids=["rows", "cols", "rows-cols", "pentagon"])
    def test_copy_with_other_fields_takes_the_full_path(self, variant, fields,
                                                        oracle_certificate, full_searches):
        t = _CONSTRUCTIONS[variant](build_grid(1.3, 9, 7))
        copy = dataclasses.replace(t, **fields)
        for n in range(1, copy.rows - 1):
            cert = certify_vertical_minimizing(copy, n)
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(copy, n))
        assert len(full_searches) == copy.rows - 2

    @pytest.mark.parametrize("steps", ["refined", "glued", "glued-refined", "refined-glued"])
    @pytest.mark.parametrize("fields", [{"rows": 7}, {"cols": 3}, {"rows": 5, "cols": 4},
                                        {"pentagon": solve_pentagon(1.1)}],
                             ids=["rows", "cols", "rows-cols", "pentagon"])
    def test_steps_on_a_copy_with_other_fields_leave_no_record(self, steps, fields, oracle_certificate):
        # a step writes from the copy's own pentagon, rows and cols (the
        # diagonals of another pentagon, or fewer holes glued), so the edges
        # it leaves are no longer the record's window: the index and every
        # answer are a plain-dict copy's
        u = _CONSTRUCTIONS[steps](dataclasses.replace(build_grid(1.3, 9, 7), **fields))
        assert u.edges._made is None
        plain = dataclasses.replace(u, edges=dict(u.edges))
        g, fresh = u._graph(), _index_graph(dict(u.edges))
        assert g.ids == fresh.ids
        assert [_hex_pairs(a) for a in g.adj] == [_hex_pairs(a) for a in fresh.adj]
        for n in range(1, u.rows - 1):
            cert = certify_vertical_minimizing(u, n)
            assert _hex_fields(cert) == _hex_fields(certify_vertical_minimizing(plain, n))
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(u, n))
        corners = [("C", r, c) for r in range(u.rows + 1) for c in range(u.cols + 1)]
        for x, y in zip(corners, corners[u.cols + 2:]):
            assert discrete_distance(u, x, y).hex() == discrete_distance(plain, x, y).hex()
        assert dijkstra(u, [("C", 1, 1)]) == dijkstra(plain, [("C", 1, 1)])
        assert u.genus() == plain.genus()


@given(variant=st.sampled_from(sorted(_CONSTRUCTIONS)), rows=st.integers(1, 9),
       cols=st.integers(1, 9), b=st.floats(math.asinh(1.0), 3.0, exclude_min=True))
@example(variant="glued-refined", rows=2, cols=4, b=355.0)
@example(variant="refined-glued", rows=3, cols=5, b=354.9)
@settings(max_examples=150, deadline=None)
def test_numbered_window_is_the_plain_dict_index(variant, rows, cols, b):
    # the adjacency numbered from the record, per vertex, is the index of a
    # plain-dict copy: the same neighbours with the same lengths to the bit,
    # and no entry twice (the strip distance against the replayed one-row
    # window: test_strip_window_is_every_row_strip)
    t = _CONSTRUCTIONS[variant](build_grid(b, rows, cols))
    made = t.edges._made
    nums, adj = _numbered(t.pentagon, rows, cols, made[5:])
    fresh = _index_graph(dict(t.edges))
    assert fresh.ids == made[0]
    assert [_hex_pairs(a) for a in adj] == [_hex_pairs(a) for a in fresh.adj]
    assert all(len(set(a[::2])) == len(a) // 2 for a in adj)
    # one int object per vertex, shared by every entry and the index's pos
    assert nums == list(range(len(adj)))
    assert all(j is nums[j] for a in adj for j in a[::2])
    g = t._graph()
    assert all(j is g.pos[g.ids[j]] for a in g.adj for j in a[::2])


# a face whose diagonal C(1,1)-C(3,1) crosses row line 2
_CROSSING_FACE = (("C", 1, 1), ("HM", 1, 1), ("C", 3, 1), ("HM", 3, 1), ("C", 2, 2))
# faces tuple -> the edited faces tuple
FACE_EDITS = {
    "appended": lambda faces: (*faces, _CROSSING_FACE),
    "replaced": lambda faces: (*faces[:13], _CROSSING_FACE, *faces[14:]),
    "removed": lambda faces: faces[:13] + faces[14:],
    "new-vertices": lambda faces: (*faces, (("C", 1, 1), ("X", 0), ("C", 3, 1), ("X", 1), ("X", 2))),
}


def _edited(t, edit):
    """A ``dataclasses.replace`` copy of ``t`` with its faces edited: a
    window's faces are a tuple, so this is how they are edited."""
    return dataclasses.replace(t, faces=FACE_EDITS[edit](t.faces))


AFTER_EDIT = {
    "refined": add_diagonals,
    "glued": glue_to_Rb,
    "glued-refined": lambda t: add_diagonals(glue_to_Rb(t)),
    "refined-glued": lambda t: glue_to_Rb(add_diagonals(t)),
}


class TestFacesUnderTheRecord:
    # the record holds the constructors' faces tuple, and add_diagonals and
    # glue_to_Rb extend it only while a window's faces are that tuple: a
    # copy with edited faces costs the next window its record, so it takes
    # the full path on its own edge map and answers as its plain-dict copy
    # does

    def test_constructors_return_their_faces_as_the_record_holds_them(self):
        for make in _CONSTRUCTIONS.values():
            t = make(build_grid(1.2, 5, 3))
            assert type(t.faces) is tuple and t.edges._made[1] is t.faces

    @pytest.mark.parametrize("steps", AFTER_EDIT)
    @pytest.mark.parametrize("edit", FACE_EDITS)
    def test_edited_faces_answer_as_the_plain_dict_copy(self, edit, steps, oracle_certificate):
        t = _edited(build_grid(1.2, 5, 3), edit)
        u = AFTER_EDIT[steps](t)
        assert u.edges._made is None
        plain = dataclasses.replace(u, edges=dict(u.edges))
        for n in range(1, 4):
            cert = certify_vertical_minimizing(u, n)
            assert _hex_fields(cert) == _hex_fields(certify_vertical_minimizing(plain, n))
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(u, n))
        corners = [("C", r, c) for r in range(6) for c in range(4)]
        for x, y in zip(corners, corners[7:]):
            assert discrete_distance(u, x, y).hex() == discrete_distance(plain, x, y).hex()
        assert dijkstra(u, [("C", 1, 1)]) == dijkstra(plain, [("C", 1, 1)])
        assert u.genus() == plain.genus()

    def test_appended_face_across_a_row_line(self):
        # an appended face's diagonal joins C(1,1) and C(3,1) across row
        # line 2: 1.856 apart, so no span over line 2 is minimizing
        u = add_diagonals(_edited(build_grid(1.2, 5, 3), "appended"))
        d = discrete_distance(u, ("C", 1, 1), ("C", 3, 1))
        assert d == pytest.approx(1.856, abs=1e-3) and d < 4.8
        assert not certify_vertical_minimizing(u, 2).passes

    @pytest.mark.parametrize("steps", AFTER_EDIT)
    def test_unedited_faces_keep_the_record(self, steps):
        # the record holds the faces tuple itself: a copy that keeps it (a
        # tuple of a tuple is that tuple) keeps the record; an equal list is
        # another object, so the next window has no record and the same
        # topology
        t = build_grid(1.2, 5, 3)
        assert AFTER_EDIT[steps](dataclasses.replace(t, faces=tuple(t.faces))).edges._made is not None
        u = AFTER_EDIT[steps](dataclasses.replace(t, faces=list(t.faces)))
        assert u.edges._made is None
        assert _library_topology(u) == _library_topology(AFTER_EDIT[steps](t))

    def test_edit_after_a_step_drops_the_next(self):
        u = glue_to_Rb(build_grid(1.2, 5, 4))
        v = dataclasses.replace(u, faces=u.faces[:-1])
        assert v.edges._made is not None  # the shared map's edges are still the constructors'
        assert tiled_surface._record(v) is None and tiled_surface._record(u) is not None
        assert add_diagonals(v).edges._made is None


def _general_topology(t, monkeypatch) -> tuple:
    """``_library_topology(t)``, asserting that it counts on ``t``'s own
    faces: every ``_odd_sides`` call reads all of them, and no constructor
    is called."""
    faces_read = []
    odd_sides = tiled_surface._odd_sides
    with monkeypatch.context() as mp:
        mp.setattr(tiled_surface, "_odd_sides", lambda faces: faces_read.append(len(faces))
                   or odd_sides(faces))
        mp.setattr(tiled_surface, "build_grid", mock.Mock(side_effect=AssertionError("a window was built")))
        got = _library_topology(t)
    assert faces_read and set(faces_read) == {len(t.faces)}
    return got


class TestTopologyFromTheStrip:
    # a built window's chi and boundary count come from row 0's faces, those
    # of its one-row window: rows * chi_1 - (rows - 1) and
    # rows * beta_1 - (rows - 1); any other window is counted on all its faces

    @pytest.mark.parametrize("rows", range(1, 10))
    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_every_built_window(self, kind, rows, oracle_topology, monkeypatch):
        for cols in range(1, 10):
            t = WINDOW_KINDS[kind](build_grid(1.2, rows, cols))
            assert t.edges._made is not None
            want = _general_topology(dataclasses.replace(t, edges=dict(t.edges)), monkeypatch)
            assert _library_topology(t) == want == oracle_topology(t)
            assert t.edges._index is None  # the window was not indexed

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    @pytest.mark.parametrize("edit", FACE_EDITS)
    def test_edited_faces_take_the_general_path(self, edit, kind, oracle_topology, monkeypatch):
        # an edit of faces before the steps leaves no record; after them, the
        # copy shares the edge map and its record, which no longer describes it
        for edited_first in (True, False):
            t = build_grid(1.2, 5, 3)
            if edited_first:
                t = _edited(t, edit)
            u = WINDOW_KINDS[kind](t)
            if not edited_first:
                u = _edited(u, edit)
            plain = dataclasses.replace(u, edges=dict(u.edges))
            assert _general_topology(u, monkeypatch) == _general_topology(plain, monkeypatch)
            assert _library_topology(u) == oracle_topology(u)

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    @pytest.mark.parametrize("fields", [{"rows": 7}, {"rows": 20}, {"cols": 3}, {"cols": 30},
                                        {"rows": 5, "cols": 4}, {"pentagon": solve_pentagon(1.1)}],
                             ids=["rows", "more-rows", "cols", "more-cols", "rows-cols", "pentagon"])
    def test_copy_with_other_fields_takes_the_general_path(self, kind, fields, oracle_topology,
                                                            monkeypatch):
        # the copy keeps the 9 x 7 window's edge map, record and faces: its
        # topology is theirs, not that of a window of its own size
        t = WINDOW_KINDS[kind](build_grid(1.3, 9, 7))
        kept = dataclasses.replace(t, **fields)
        assert kept.edges._made is not None
        plain = dataclasses.replace(kept, edges=dict(kept.edges))
        assert _general_topology(kept, monkeypatch) == _general_topology(plain, monkeypatch)
        assert _library_topology(kept) == oracle_topology(kept) == _library_topology(t)


class TestMalformedInput:
    # a face that is no 5-tuple, or an edge key that is no vertex pair, is
    # refused as a library error, not a bare Python one

    @pytest.mark.parametrize("face", [
        (("C", 0, 0), ("C", 0, 1), ("C", 1, 1), ("C", 1, 0)),
        (("C", 0, 0), ("C", 0, 1), ("C", 1, 1), ("C", 1, 0), ("C", 0, 0), ("C", 0, 1)),
        5,
    ])
    def test_face_that_is_no_pentagon(self, face):
        t = build_grid(1.2, 2, 2)
        t = dataclasses.replace(t, faces=(*t.faces, face))
        for query in (t.genus, t.euler_characteristic, t.boundary_component_count):
            with pytest.raises(InconsistentInput, match="faces must be 5-tuples") as info:
                query()
            assert not isinstance(info.value, (TypeError, KeyError))

    def test_all_faces_of_four_vertices(self):
        faces = [(("C", 0, 0), ("C", 0, 1), ("C", 1, 1), ("C", 1, 0))]
        t = TiledComplex(pentagon=solve_pentagon(1.2), rows=1, cols=1, faces=faces)
        for u, v in zip(faces[0], faces[0][1:] + faces[0][:1]):
            t.add_edge(u, v, 1.0)
        with pytest.raises(InconsistentInput, match="faces must be 5-tuples"):
            t.genus()

    @pytest.mark.parametrize("key", [5, (("C", 1, 1),), (("C", 1, 1), ("C", 1, 2), ("C", 1, 3)), None])
    def test_edge_key_that_is_no_pair(self, key):
        for query in (lambda t: t.genus(), lambda t: dijkstra(t, [("C", 1, 1)]),
                      lambda t: discrete_distance(t, ("C", 1, 1), ("C", 1, 2)),
                      lambda t: certify_vertical_minimizing(t, 1)):
            t = TiledComplex(pentagon=solve_pentagon(1.2), rows=4, cols=2,
                             edges={key: 1.0, (("C", 1, 1), ("C", 1, 2)): 1.0})
            with pytest.raises(InconsistentInput, match="no vertex pairs") as info:
                query(t)
            assert not isinstance(info.value, (TypeError, ValueError))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workload_jobs():
    """The ``tiling`` workload's job lists, from its own generator, for seeds
    44-53."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # the workload imports harness by name
        tiling = importlib.import_module("workloads.tiling")
        return {seed: tiling.generate(random.Random(seed)) for seed in range(44, 54)}


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(44, 54))
def test_workload_certificates_match_the_oracle(seed, workload_jobs, oracle_certificate,
                                                oracle_window):
    # every certificate of every window of the seed's job list at every n:
    # plain, refined and glued, each field as float.hex against the full
    # searches on a plain-dict copy, whose copy and row lines are made once
    # per window; 6,250 certificates over the ten seeds
    for k, job in enumerate(workload_jobs[seed]):
        m = job["m"]
        t = WINDOW_KINDS[job["kind"]](build_grid(job["b"], m, m))
        window = oracle_window(t)
        for n in range(1, m - 1):
            cert = certify_vertical_minimizing(t, n)
            assert cert.passes, (k, n)
            assert _hex_fields(cert) == _hex_fields(oracle_certificate(t, n, window)), (k, n)


@pytest.fixture
def searches(monkeypatch):
    """Whether it was bounded, per search that the library runs through
    ``tiled_surface``: ``discrete_distance`` and ``dijkstra``."""
    calls, search = [], tiled_surface._distances

    def recorded(adj, sources, targets=(), first=False, bound=None):
        calls.append(bound is not None)
        return search(adj, sources, targets, first, bound)

    monkeypatch.setattr(tiled_surface, "_distances", recorded)
    return calls


class TestBoundedCornerSearch:
    # discrete_distance between two corners of a window that the record
    # describes skips every push that no shortest path needs (the row-strip
    # bound proved in its docstring); every distance stays that of the
    # unbounded search on a plain-dict copy, to the bit

    @given(kind=st.sampled_from(sorted(WINDOW_KINDS)), rows=st.integers(1, 8), cols=st.integers(1, 8),
           b=st.floats(0.9, 355.0))
    @example(kind="glued-refined", rows=8, cols=8, b=355.0)
    @example(kind="refined-glued", rows=8, cols=7, b=0.9)
    @settings(max_examples=15, deadline=None)
    def test_every_corner_pair(self, kind, rows, cols, b, oracle_window):
        t = WINDOW_KINDS[kind](build_grid(b, rows, cols))
        copy, _ = oracle_window(t)
        corners = [("C", r, c) for r in range(rows + 1) for c in range(cols + 1)]
        for x in corners:
            want = dijkstra(copy, [x])
            assert [discrete_distance(t, x, y).hex() for y in corners] == [want[y].hex() for y in corners]

    @pytest.mark.parametrize("kind", sorted(WINDOW_KINDS))
    def test_only_corners_of_a_record_window_are_bounded(self, kind, searches):
        # a non-corner endpoint, a copy with other faces or rows (sharing
        # the map and its index) and a plain-dict copy search unbounded, as
        # does dijkstra
        t = WINDOW_KINDS[kind](build_grid(1.3, 6, 5))
        plain = dataclasses.replace(t, edges=dict(t.edges))
        copies = [plain, dataclasses.replace(t, faces=t.faces[:-1]), dataclasses.replace(t, rows=5)]
        corners = [(("C", 1, 2), ("C", 5, 2)), (("C", 0, 0), ("C", 6, 5)), (("C", 4, 5), ("C", 4, 1))]
        others = [(("C", 2, 1), ("HM", 4, 3)), (("VM", 1, 0), ("C", 3, 3)),
                  (("H", 2, 2, "N"), ("H", 4, 0, "S"))]
        for x, y in corners + others:
            want = discrete_distance(plain, x, y).hex()
            searches.clear()
            assert discrete_distance(t, x, y).hex() == want
            assert searches == [(x, y) in corners]
            searches.clear()
            for u in copies:
                assert discrete_distance(u, x, y).hex() == want
            assert dijkstra(t, [x], [y])[y].hex() == want
            assert searches == [False] * 4

    def test_index_built_from_the_edge_map_is_searched_unbounded(self, searches):
        # a copy with other faces indexes the shared map from its keys, with
        # no bands; the window, whose record still holds, then searches that
        # index unbounded, with the same bits
        t, fresh = build_grid(1.3, 6, 5), build_grid(1.3, 6, 5)
        x, y = ("C", 1, 2), ("C", 5, 4)
        discrete_distance(dataclasses.replace(t, faces=t.faces[:-1]), x, y)
        assert t._graph().bands is None and tiled_surface._record(t)
        assert discrete_distance(t, x, y).hex() == discrete_distance(fresh, x, y).hex()
        assert searches == [False, False, True]

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(44, 54))
    def test_workload_pairs_match_the_oracle(self, seed, workload_jobs, oracle_window, searches):
        # the corner pairs of the seed's tiling job list, each bounded,
        # against the full search on a plain-dict copy
        pairs = 0
        for k, job in enumerate(workload_jobs[seed]):
            if job["pairs"]:
                m = job["m"]
                t = WINDOW_KINDS[job["kind"]](build_grid(job["b"], m, m))
                copy, _ = oracle_window(t)
                for (r1, c1), (r2, c2) in job["pairs"]:
                    x, y = ("C", r1, c1), ("C", r2, c2)
                    searches.clear()
                    d = discrete_distance(t, x, y)
                    assert searches == [True], (k, x, y)
                    assert d.hex() == dijkstra(copy, [x], [y])[y].hex(), (k, x, y)
                    pairs += 1
        assert pairs == 4 * (3 * 15 + 3 * 2 + 1)  # four per multi job: small, medium, large
