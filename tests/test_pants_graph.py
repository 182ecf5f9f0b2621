from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from hypladder import pants_graph
from hypladder.errors import (
    ComplexityTooLarge,
    NegativeSurface,
    NonPositiveSize,
    NotTrivalent,
    UnknownVertex,
)
from hypladder.pants_graph import (
    COMPLEXITY_CAP,
    TrivalentGraph,
    canonical_key,
    elementary_moves,
    enumerate_decompositions,
    from_key,
    modular_pants_graph,
    propagate_bounds,
    xi,
)
from hypladder.qch_bounds import shortpants_global


# -- independent oracle ------------------------------------------------------
# brute force over edge multisets (not stub matchings), deduplicated by
# pairwise isomorphism tests rather than canonical forms


def _iso(g1, g2):
    n, e1, h1 = g1
    m, e2, h2 = g2
    if n != m or sorted(h1) != sorted(h2) or len(e1) != len(e2):
        return False
    for perm in itertools.permutations(range(n)):
        mapped = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in e1)
        if mapped == sorted(e2) and all(
            h1[v] == h2[perm[v]] for v in range(n)
        ):
            return True
    return False


def oracle_count(g, b, connected):
    n = 2 * g - 2 + b
    possible = list(itertools.combinations_with_replacement(
        [(i, j) for i in range(n) for j in range(i, n)],
        (3 * n - b) // 2,
    ))
    classes = []
    for half in itertools.product(range(4), repeat=n):
        if sum(half) != b:
            continue
        for edges in possible:
            deg = list(half)
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            if any(d != 3 for d in deg):
                continue
            if not connected(n, edges):
                continue
            if len(edges) - n + 1 != g:
                continue
            cand = (n, list(edges), list(half))
            if not any(_iso(cand, c) for c in classes):
                classes.append(cand)
    return len(classes)


def _surfaces(top):
    """Every surface with 1 <= xi <= top and at least one pants."""
    return [(g, b) for g in range(top // 3 + 2) for b in range(top + 4)
            if 1 <= xi(g, b) <= top and 2 * g - 2 + b >= 1]


SURFACES = _surfaces(COMPLEXITY_CAP)
ORDERS = ("min", "max")


def _random_graph(rng, n):
    """Random trivalent graph on n vertices, loops, multi-edges and
    disconnected pieces allowed."""
    while True:
        half = [rng.randrange(4) for _ in range(n)]
        stubs = [v for v in range(n) for _ in range(3 - half[v])]
        if len(stubs) % 2 == 0:
            break
    rng.shuffle(stubs)
    edges = [(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
    return TrivalentGraph(n=n, edges=edges, half=half)


def _relabel(g, perm):
    edges = [(perm[i], perm[j]) for i, j in g.edges]
    half = [g.half[perm.index(v)] for v in range(g.n)]
    return TrivalentGraph(n=g.n, edges=edges, half=half)


def _otter_trivalent_trees(b):
    """Trees with b >= 3 leaves whose inner vertices have degree 3, up to
    isomorphism, by Otter's dissimilarity theorem: every tree has one more
    orbit of vertices than of edges that no automorphism flips.  Leaves and
    leaf edges cancel, so this counts inner-vertex-rooted trees (3 rooted
    binary trees at the root), minus inner-edge-rooted ones (2, each of at
    least 2 leaves), plus the trees with a flippable inner edge."""
    w = [0, 1]  # Wedderburn-Etherington: rooted binary trees by leaf count
    for k in range(2, b + 1):
        w.append(_pairs(w, k))
    inner = [0, 0] + w[2:]
    triples = sum(w[i] * w[j] * w[b - i - j] for i in range(1, b) for j in range(1, b - i))
    triples += 3 * sum(w[i] * w[b - 2 * i] for i in range(1, (b + 1) // 2))
    triples += 2 * w[b // 3] if b % 3 == 0 else 0
    flippable = inner[b // 2] if b % 2 == 0 else 0
    return triples // 6 - _pairs(inner, b) + flippable


def _pairs(w, t):
    """Unordered pairs of rooted trees, w[k] of them with k leaves, whose
    leaves number t in all."""
    ordered = sum(w[i] * w[t - i] for i in range(1, t))
    return (ordered + (w[t // 2] if t % 2 == 0 else 0)) // 2


# -- tests -------------------------------------------------------------------


class TestXi:
    def test_values(self):
        assert xi(2, 0) == 3
        assert xi(1, 1) == 1
        assert xi(0, 4) == 1


class TestTrivalentGraph:
    def test_theta_graph(self):
        theta = TrivalentGraph(n=2, edges=((0, 1), (0, 1), (0, 1)), half=(0, 0))
        assert theta.cycle_rank() == 2
        assert theta.bridges() == ()
        assert theta.surface() == (2, 0)

    def test_dumbbell_graph(self):
        dumbbell = TrivalentGraph(n=2, edges=((0, 0), (0, 1), (1, 1)), half=(0, 0))
        assert dumbbell.cycle_rank() == 2
        assert dumbbell.bridges() == ((0, 1),)

    def test_loops_count_twice(self):
        # one loop and one leg make a trivalent vertex: the one-holed torus
        g = TrivalentGraph(n=1, edges=((0, 0),), half=(1,))
        assert g.surface() == (1, 1)
        with pytest.raises(NotTrivalent, match="vertex 0 has degree 2"):
            TrivalentGraph(n=1, edges=((0, 0),), half=(0,))

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            TrivalentGraph(n=2, edges=((0, 1),), half=(0, 0))

    def test_wrong_degree_is_a_domain_error(self):
        with pytest.raises(NotTrivalent) as info:
            TrivalentGraph(n=1, edges=((0, 0),), half=(2,))
        assert info.value.rule == "graph-not-trivalent"

    @pytest.mark.parametrize("n, edges, half", [
        (1, [(0, 5)], [2]),  # an endpoint past the last vertex
        (2, [(0, 1), (0, 1), (0, 1), (-1, 7)], [0, 0]),  # endpoints below 0 and past n
        (2, [(0, 1), (0, 1), (0, -1)], [0, 0]),  # -1 would count as vertex 1
        (2, [(0, 1)] * 3, [0]),  # fewer half-edge counts than vertices
        (1, [(0, 0)], [1, 0]),  # more half-edge counts than vertices
        (1, [(0, 0)], [1.0]),  # a half-edge count that is not an int
        (1, [(0, 0)], [True]),
        (2, [(0, 1), (0, 1), (0, 0)], [-1, 1]),  # a count below 0
        (1, [], [4]),
        (1, [(0.0, 0)], [1]),  # an endpoint that is not an int
        (2, [(0, 1), (0, 1), (True, 0)], [0, 0]),
        (1, [(0, 0, 0)], [1]),  # an edge with three ends
        (1, [(0,), (0,)], [1]),
        (-1, [], []),  # n below 0, or not an int
        (1.0, [(0, 0)], [1]),
        (True, [(0, 0)], [1]),
        (None, [], []),
        (1, [5], [1]),  # an edge, the edges or the counts that cannot be iterated
        (1, None, [1]),
        (1, [(0, 0)], 1),
    ])
    def test_input_boundary(self, n, edges, half):
        with pytest.raises(NotTrivalent):
            TrivalentGraph(n=n, edges=edges, half=half)

    def test_empty_graph(self):
        g = TrivalentGraph(n=0, edges=(), half=())
        assert g.bridges() == ()
        assert canonical_key(g) == (0, (), (), ())


class TestBridges:
    def test_matches_oracle_on_doubled_edges(self, oracle_bridges):
        rng = random.Random(1981)
        checked = 0
        while checked < 300:
            graph = _random_graph(rng, rng.randint(2, 8))
            if len(set(graph.edges)) == len(graph.edges):
                continue  # no doubled edge
            assert graph.bridges() == oracle_bridges(graph), graph
            checked += 1

    def test_matches_oracle_on_simple_and_disconnected_graphs(self, oracle_bridges,
                                                              oracle_connected):
        rng = random.Random(1998)
        simple = disconnected = 0
        for _ in range(400):
            graph = _random_graph(rng, rng.randint(1, 8))
            connected = oracle_connected(graph.n, graph.edges)
            assert graph.bridges() == oracle_bridges(graph), graph
            simple += len(set(graph.edges)) == len(graph.edges) and all(
                i != j for i, j in graph.edges)
            disconnected += not connected
        assert simple >= 50 and disconnected >= 50


class TestCanonicalKey:
    def test_isomorphic_relabelings_agree(self):
        rng = random.Random(7)
        base = TrivalentGraph(
            n=4,
            edges=((0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)),
            half=(0, 0, 0, 0),
        )
        key = canonical_key(base)
        for _ in range(1000):
            perm = list(range(4))
            rng.shuffle(perm)
            edges = tuple(tuple(sorted((perm[i], perm[j]))) for i, j in base.edges)
            relabeled = TrivalentGraph(n=4, edges=edges, half=(0, 0, 0, 0))
            assert canonical_key(relabeled) == key

    def test_distinguishes_theta_and_dumbbell(self):
        theta = TrivalentGraph(n=2, edges=((0, 1), (0, 1), (0, 1)), half=(0, 0))
        dumbbell = TrivalentGraph(n=2, edges=((0, 0), (0, 1), (1, 1)), half=(0, 0))
        assert canonical_key(theta) != canonical_key(dumbbell)

    def test_from_key_round_trip(self):
        g = TrivalentGraph(n=2, edges=((0, 0), (0, 1), (1, 1)), half=(0, 0))
        key = canonical_key(g)
        assert canonical_key(from_key(key)) == key

    def test_orders_agree_on_class_identity(self, brute_force_key, labelling):
        graphs = enumerate_decompositions(2, 0)
        keys_min = {canonical_key(g) for g in graphs}
        with labelling("max"):
            keys_max = {pants_graph.canonical_key(g) for g in enumerate_decompositions(2, 0)}
        assert keys_max == {brute_force_key(g, "max") for g in graphs}
        assert len(keys_min) == len(keys_max) == len(graphs)


class TestCanonicalKeyMatchesBruteForce:
    """The key is exactly the brute-force min relabelling, not just some
    invariant: the golden pants-graph output depends on the representative.
    The ``max`` cases run the library keyed by the brute-force max
    relabelling: it must return that scheme's representatives and the same
    classes and moves, and the library key must hold on its graphs too."""

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("surface", SURFACES, ids=str)
    def test_every_class(self, surface, order, brute_force_key, labelling):
        rng = random.Random(str(surface))
        with labelling(order):
            graphs = enumerate_decompositions(*surface)
        for graph in graphs:
            assert graph == from_key(brute_force_key(graph, order))
            perm = list(range(graph.n))
            rng.shuffle(perm)
            relabeled = _relabel(graph, perm)
            key = brute_force_key(relabeled, "min")
            assert canonical_key(graph) == canonical_key(relabeled) == key
        assert sorted(map(canonical_key, graphs)) == [
            canonical_key(g) for g in enumerate_decompositions(*surface)
        ]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("surface", SURFACES, ids=str)
    def test_every_move_outcome(self, surface, order, brute_force_key, labelling):
        reached = {
            canonical_key(g): sorted(map(canonical_key, elementary_moves(g)[0]))
            for g in enumerate_decompositions(*surface)
        }
        seen = []
        with labelling(order), pytest.MonkeyPatch.context() as m:
            key = pants_graph.canonical_key

            def spy(graph):
                seen.append(graph)
                return key(graph)

            m.setattr(pants_graph, "canonical_key", spy)
            for graph in enumerate_decompositions(*surface):
                seen.clear()
                nbrs, _ = elementary_moves(graph)
                assert seen
                for moved in seen:
                    assert canonical_key(moved) == brute_force_key(moved, "min")
                for nb in nbrs:
                    assert nb == from_key(brute_force_key(nb, order))
                assert sorted(map(canonical_key, nbrs)) == reached[canonical_key(graph)]

    @pytest.mark.parametrize("order", ORDERS)
    def test_random_labelled_graphs(self, order, brute_force_key):
        rng = random.Random(2014)
        classes = {}
        for _ in range(500):
            graph = _random_graph(rng, rng.randint(1, 5))
            perm = list(range(graph.n))
            rng.shuffle(perm)
            key = canonical_key(graph)
            assert canonical_key(_relabel(graph, perm)) == key
            classes.setdefault(brute_force_key(graph, order), set()).add(key)
        # the library key and the brute-force relabelling split the graphs
        # into the same classes, and under "min" they are the same key
        assert all(len(keys) == 1 for keys in classes.values())
        assert len(set().union(*classes.values())) == len(classes)
        if order == "min":
            assert all(keys == {oracle} for oracle, keys in classes.items())


def _first_block(graph, v):
    """(-loop, -m1, -m2, -m3) of vertex v: its loop count, then its distinct
    partners' edge multiplicities, largest first, padded with 0."""
    loops = sum(1 for e in graph.edges if e == (v, v))
    mult = sorted((-sum(1 for e in graph.edges if e == tuple(sorted((v, u))))
                   for u in range(graph.n) if u != v and tuple(sorted((v, u))) in graph.edges))
    return (-loops, *mult, 0, 0, 0)[:4]


def _minimizing_relabellings(graph):
    """Every permutation perm (vertex v renamed perm[v]) whose relabelled,
    sorted edge list is least, by brute force."""
    best, out = None, []
    for perm in itertools.permutations(range(graph.n)):
        edges = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in graph.edges)
        if best is None or edges < best:
            best, out = edges, [perm]
        elif edges == best:
            out.append(perm)
    return out


class TestFirstBlockLemma:
    """The search behind ``canonical_key`` keeps only relabellings that put
    label 0 on a vertex of least first block and labels 1..d on its d
    distinct partners, more parallel edges first.  Checked here on its own,
    against every brute-force minimizing relabelling."""

    def test_minimizers_start_with_a_least_first_block(self):
        rng = random.Random(1981)
        for _ in range(150):
            graph = _random_graph(rng, rng.randint(1, 6))
            blocks = [_first_block(graph, v) for v in range(graph.n)]
            for perm in _minimizing_relabellings(graph):
                first = perm.index(0)
                assert blocks[first] == min(blocks), graph
                mult = {}
                for e in graph.edges:
                    if first in e and e[0] != e[1]:
                        other = e[0] + e[1] - first
                        mult[other] = mult.get(other, 0) + 1
                ranked = sorted(mult, key=lambda u: perm[u])
                assert [perm[u] for u in ranked] == list(range(1, len(mult) + 1)), graph
                assert [mult[u] for u in ranked] == sorted(mult.values(), reverse=True), graph


class TestCanonicalKeyPastTheCap:
    """Graphs with more pants than any surface under the complexity cap,
    built directly: the key is still the brute-force least relabelling."""

    @pytest.mark.parametrize("n, count", [(6, 30), (7, 8)])
    def test_matches_brute_force(self, n, count, brute_force_key):
        rng = random.Random(n)
        for _ in range(count):
            graph = _random_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            key = canonical_key(graph)
            assert key == brute_force_key(graph, "min"), graph
            assert canonical_key(_relabel(graph, perm)) == key

    def test_classes_moves_and_bridges_past_the_cap(self, monkeypatch):
        # sha256 of every class key, move, annotation and bridge of the 21
        # surfaces of complexity 1 to 7, recorded from the implementation
        # that enumerated every connected edge multiset (it took about 4 s
        # on (0,10), which is why the digest, not the enumeration, pins it)
        monkeypatch.setattr(pants_graph, "COMPLEXITY_CAP", 7)
        surfaces = _surfaces(7)
        assert len(surfaces) == 21
        digest = hashlib.sha256()
        for g, b in surfaces:
            for key in sorted(pants_graph._classes(g, b)):
                rep = from_key(key)
                nbrs, notes = elementary_moves(rep)
                moves = [(v.n, v.edges, v.half, v.bridges()) for v in nbrs]
                digest.update(repr((key, moves, notes, rep.bridges())).encode())
        assert digest.hexdigest() == (
            "8039572be439f3f34c9302a344d29e45e9510a3a11b47830451a2403599adf1a")


def _is_normal_form(graph) -> bool:
    """Whether the record holds what the constructor stores for its fields:
    an int n, a sorted tuple of (min, max) int tuples and a tuple of ints."""
    rebuilt = TrivalentGraph(graph.n, graph.edges, graph.half)
    return (graph == rebuilt and hash(graph) == hash(rebuilt) and repr(graph) == repr(rebuilt)
            and type(graph.edges) is tuple and type(graph.half) is tuple
            and all(type(e) is tuple for e in graph.edges))


class TestKeysAndRecordsAsBuilt:
    """The key search finds the decoration on its own partner table, and the
    graphs the library makes from keys and dart moves are stored without the
    constructor's checks: each must be the record the constructor makes."""

    def test_key_matches_brute_force_under_relabellings(self, brute_force_key, monkeypatch):
        monkeypatch.setattr(pants_graph, "COMPLEXITY_CAP", 6)
        surfaces = _surfaces(6)
        assert len(surfaces) == 17
        for surface in surfaces:
            rng = random.Random(f"relabel {surface}")
            for graph in enumerate_decompositions(*surface):
                key = canonical_key(graph)
                assert key == brute_force_key(graph, "min"), graph
                for _ in range(2):
                    perm = list(range(graph.n))
                    rng.shuffle(perm)
                    relabeled = _relabel(graph, perm)
                    assert canonical_key(relabeled) == brute_force_key(relabeled, "min") == key

    def test_records_equal_the_constructors(self, monkeypatch):
        # every move outcome keyed, every graph the walk's table moves from,
        # and every class the public functions return, up to complexity 7
        monkeypatch.setattr(pants_graph, "COMPLEXITY_CAP", 7)
        outcomes, movers = [], []
        key, moves = pants_graph.canonical_key, pants_graph._moves

        def key_spy(graph):
            outcomes.append(graph)
            return key(graph)

        def moves_spy(graph, self_key):
            movers.append(graph)
            return moves(graph, self_key)

        monkeypatch.setattr(pants_graph, "canonical_key", key_spy)
        monkeypatch.setattr(pants_graph, "_moves", moves_spy)
        records = 0
        for g, b in _surfaces(7):
            graphs = enumerate_decompositions(g, b)
            vertices = modular_pants_graph(g, b).vertices
            assert list(vertices) == graphs
            graphs += [nb for graph in graphs for nb in elementary_moves(graph)[0]]
            for graph in graphs + outcomes + movers:
                assert _is_normal_form(graph), graph
            records += len(graphs) + len(outcomes) + len(movers)
            outcomes.clear()
            movers.clear()
        assert records > 5000

    @pytest.mark.parametrize("key", [
        (2, ((0, 1),), (1, 1), ()),  # degree 2 at both ends
        (2, ((0, 1), (0, 1), (0, 1)), (0,), ()),  # one count for two vertices
        (1, ((0, 1),), (2,), ()),  # endpoint out of range
        (1, ((0, 0),), (True,), ()),  # a bool is not a count
        (1, ((0, 0),), (4,), ()),
        (2, (("0", 1), (0, 1), (0, 1)), (0, 0), ()),
        (2, ((0, 1, 1), (0, 1), (0, 1)), (0, 0), ()),
        (-1, (), (), ()),
        (True, ((0, 0),), (1,), ()),
        (2, 5, (0, 0), ()),
        (2, ((0, 1),) * 3, None, ()),
    ], ids=str)
    def test_from_key_refuses_malformed_keys(self, key):
        with pytest.raises(NotTrivalent):
            from_key(key)
        with pytest.raises(NotTrivalent):
            TrivalentGraph(*key[:3])

    def test_one_partner_table_per_key(self, monkeypatch):
        calls = []
        partners = pants_graph._partners

        def spy(n, edges):
            calls.append(n)
            return partners(n, edges)

        monkeypatch.setattr(pants_graph, "_partners", spy)
        rng = random.Random(1981)
        graphs = [g for s in SURFACES for g in enumerate_decompositions(*s)]
        graphs += [_random_graph(rng, rng.randint(0, 6)) for _ in range(100)]
        for graph in graphs:
            calls.clear()
            canonical_key(graph)
            assert calls == [graph.n], graph


class TestEdgeMultisets:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_feasible_multiset_once(self, n, edge_multisets):
        # the enumeration oracle's generator, against a brute-force degree
        # filter over every edge multiset, whose sorted tuples are distinct:
        # it yields each degree-feasible multiset once, as a sorted tuple
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for half in itertools.combinations_with_replacement(range(3, -1, -1), n):
            free = [3 - h for h in half]
            want = []
            if sum(free) % 2 == 0:
                for edges in itertools.combinations_with_replacement(slots, sum(free) // 2):
                    deg = [0] * n
                    for i, j in edges:
                        deg[i] += 1
                        deg[j] += 1
                    if deg == free:
                        want.append(edges)
            got = list(edge_multisets(free))
            assert sorted(got) == want, half


class TestEnumeration:
    def test_counts_match_oracle(self, oracle_connected):
        for g, b in [(1, 1), (0, 4), (2, 0)]:
            assert len(enumerate_decompositions(g, b)) == oracle_count(g, b, oracle_connected)

    def test_more_counts_match_oracle(self, oracle_connected):
        for g, b in [(1, 2), (0, 5), (2, 1)]:
            assert len(enumerate_decompositions(g, b)) == oracle_count(g, b, oracle_connected)

    def test_genus_two_classes(self):
        keys = {canonical_key(g) for g in enumerate_decompositions(2, 0)}
        theta = TrivalentGraph(n=2, edges=((0, 1), (0, 1), (0, 1)), half=(0, 0))
        dumbbell = TrivalentGraph(n=2, edges=((0, 0), (0, 1), (1, 1)), half=(0, 0))
        assert keys == {canonical_key(theta), canonical_key(dumbbell)}

    def test_every_class_realizes_surface(self, oracle_connected):
        for g, b in [(1, 1), (0, 4), (2, 0), (1, 2)]:
            for graph in enumerate_decompositions(g, b):
                assert graph.surface() == (g, b)
                assert oracle_connected(graph.n, graph.edges)

    def test_seed_realizes_surface(self, oracle_connected):
        # the walk's start, on every surface up to complexity 12, among them
        # the paths of no pants, (1,1) and (2,0), and of one, (1,2), (2,1)
        # and (3,0)
        surfaces = _surfaces(12)
        assert {(1, 1), (2, 0), (1, 2), (2, 1), (3, 0)} <= set(surfaces)
        for g, b in surfaces:
            seed = pants_graph._seed(g, b)
            assert seed.surface() == (g, b)
            assert oracle_connected(seed.n, seed.edges), (g, b)

    # Otter, "The number of trees", Ann. of Math. 49 (1948): classes of
    # S_{0,b} are the trees whose b leaves are the boundaries and whose
    # inner vertices have degree 3, counted by _otter_trivalent_trees from
    # the Wedderburn-Etherington numbers.  The walk finds the 18 of b = 11 in
    # about 1.5 s.
    @pytest.mark.parametrize("b, count", zip(range(4, 12), (1, 1, 2, 2, 4, 6, 11, 18)))
    def test_sphere_counts_match_otter(self, b, count, monkeypatch):
        monkeypatch.setattr(pants_graph, "COMPLEXITY_CAP", 8)
        assert _otter_trivalent_trees(b) == count
        assert len(enumerate_decompositions(0, b)) == count

    # OEIS A005967: connected 3-regular multigraphs on 2g - 2 vertices, loops
    # allowed, the decompositions of the closed S_g.  g = 5 has 71, which
    # takes the walk several seconds, so it is left out
    @pytest.mark.parametrize("g, count", [(2, 2), (3, 5), (4, 17)])
    def test_closed_counts_match_a005967(self, g, count, monkeypatch):
        monkeypatch.setattr(pants_graph, "COMPLEXITY_CAP", 9)
        assert len(enumerate_decompositions(g, 0)) == count

    def test_complexity_cap(self):
        with pytest.raises(ComplexityTooLarge):
            enumerate_decompositions(3, 0)
        with pytest.raises(ComplexityTooLarge):
            enumerate_decompositions(0, 2)

    @pytest.mark.parametrize("g, b", [(2, -1), (-1, 5), (-1, 8), (0, -1)])
    def test_negative_surface_rejected(self, g, b):
        with pytest.raises(NegativeSurface):
            enumerate_decompositions(g, b)
        with pytest.raises(NegativeSurface):
            modular_pants_graph(g, b)

    @pytest.mark.parametrize("g, b", [(2.0, 0), (True, 2), (1, 1.0), (1, True), (2, None),
                                      ("2", 0), (float("nan"), 1)])
    def test_genus_and_boundary_that_are_not_ints_rejected(self, g, b):
        with pytest.raises(NonPositiveSize, match="must be an integer"):
            enumerate_decompositions(g, b)
        with pytest.raises(NonPositiveSize, match="must be an integer"):
            modular_pants_graph(g, b)

    def test_order_invariant_counts(self, labelling):
        for g, b in [(1, 1), (2, 0), (1, 2)]:
            with labelling("max"):
                count_max = len(enumerate_decompositions(g, b))
            assert len(enumerate_decompositions(g, b)) == count_max


class TestElementaryMoves:
    def test_theta_reaches_dumbbell(self):
        theta = TrivalentGraph(n=2, edges=((0, 1), (0, 1), (0, 1)), half=(0, 0))
        dumbbell = TrivalentGraph(n=2, edges=((0, 0), (0, 1), (1, 1)), half=(0, 0))
        nbrs, _ = elementary_moves(theta)
        assert canonical_key(dumbbell) in {canonical_key(x) for x in nbrs}

    def test_dumbbell_reaches_theta(self):
        theta = TrivalentGraph(n=2, edges=((0, 1), (0, 1), (0, 1)), half=(0, 0))
        dumbbell = TrivalentGraph(n=2, edges=((0, 0), (0, 1), (1, 1)), half=(0, 0))
        nbrs, notes = elementary_moves(dumbbell)
        assert canonical_key(theta) in {canonical_key(x) for x in nbrs}
        assert ("torus_move", (0, 0)) in notes
        assert ("torus_move", (1, 1)) in notes

    def test_one_holed_torus_has_only_torus_moves(self):
        g = TrivalentGraph(n=1, edges=((0, 0),), half=(1,))
        nbrs, notes = elementary_moves(g)
        assert nbrs == []
        assert notes == [("torus_move", (0, 0))]

    def test_moves_preserve_surface(self):
        for graph in enumerate_decompositions(2, 1):
            nbrs, _ = elementary_moves(graph)
            for nb in nbrs:
                assert nb.surface() == graph.surface()

    def test_symmetry(self, enumerated_classes):
        # if the move takes class u to class v, some move takes v back to u:
        # the modular graph's edges are undirected, and the walk that finds
        # every class relies on it, so it is checked on every class the
        # enumeration finds up to complexity 6
        for g, b in _surfaces(6):
            keys = enumerated_classes(g, b)
            for u_key, u in keys.items():
                for v in elementary_moves(u)[0]:
                    back, _ = elementary_moves(keys[canonical_key(v)])
                    assert u_key in {canonical_key(w) for w in back}, (g, b)


class TestModularPantsGraph:
    def test_genus_two(self):
        mg = modular_pants_graph(2, 0)
        assert mg.vertex_count() == 2
        assert mg.connected
        assert mg.diameter == 1

    def test_diameter_stable_across_orders(self, labelling):
        for g, b in [(2, 0), (1, 2), (2, 1)]:
            with labelling("max"):
                diameter_max = modular_pants_graph(g, b).diameter
            assert modular_pants_graph(g, b).diameter == diameter_max

    def test_connected_for_all_small_surfaces(self, enumerated_classes, monkeypatch):
        # connected is true by construction, so what is checked is that the
        # walk is complete: it finds every class the enumeration finds, up
        # to complexity 6, each with the moves and annotations of
        # elementary_moves
        monkeypatch.setattr(pants_graph, "COMPLEXITY_CAP", 6)
        for g, b in _surfaces(6):
            mg = modular_pants_graph(g, b)
            classes = enumerated_classes(g, b)
            assert mg.connected
            assert list(mg.vertices) == list(classes.values()), (g, b)
            index = {key: i for i, key in enumerate(classes)}
            for i, rep in enumerate(mg.vertices):
                nbrs, notes = elementary_moves(rep)
                assert mg.adjacency[i] == tuple(index[canonical_key(v)] for v in nbrs)
                assert mg.annotations[i] == tuple(notes)

    def test_adjacency_text(self):
        text = modular_pants_graph(2, 0).to_adjacency_text()
        assert text.startswith("# modular pants graph")
        assert "0: 1" in text

    def test_json_contains_decorations(self):
        import json

        data = json.loads(json.dumps(modular_pants_graph(2, 0).to_dict(), sort_keys=True))
        assert data["connected"] is True
        assert data["diameter"] == 1
        seps = [v["separating_edges"] for v in data["vertices"]]
        assert [[0, 1]] in seps  # the dumbbell's middle cuff separates


class TestPropagateBounds:
    def test_matches_shortpants_chain(self):
        mg = modular_pants_graph(2, 0)
        bounds = propagate_bounds(mg, 0, 1.0, 1.0)
        assert bounds[0] == 1.0
        assert bounds[1] == pytest.approx(shortpants_global(1.0, 1.0, 1))

    def test_bad_start(self):
        mg = modular_pants_graph(2, 0)
        with pytest.raises(ValueError):
            propagate_bounds(mg, 9, 1.0, 1.0)

    @pytest.mark.parametrize("start", [-1, 2, 0.5, 1.0, True, False, "0", None])
    def test_bad_start_is_a_domain_error(self, start):
        mg = modular_pants_graph(2, 0)
        assert mg.vertex_count() == 2
        with pytest.raises(UnknownVertex) as info:
            propagate_bounds(mg, start, 1.0, 1.0)
        assert info.value.rule == "vertex-unknown"
