"""Pants decompositions of low-complexity surfaces and their modular graph.

A pants decomposition of the compact surface S_{g,b} is encoded by its dual
graph: one vertex per pair of pants (degree exactly 3, loops counting
twice), one internal edge per cuff, one half-edge per boundary component.
Decompositions are identified up to homeomorphism of the surface, which at
the graph level is isomorphism of the decorated dual graph; the decoration
records which internal edges are separating curves (the bridges of the
graph).  The canonical key carries the edges, the half-edges and the
decoration, but the relabelled edges alone fix it: every vertex has degree
3, so its half-edge count is 3 minus its edge degree, and bridges map to
bridges under relabelling.

The classes of a surface are found by walking its pants graph.  That graph
is connected (Hatcher and Thurston, Topology 19, 1980), so its quotient, the
modular pants graph, is connected too, and one breadth-first walk over
elementary moves from a single constructed decomposition reaches every
class.  Bridges, that walk and the modular graph's distances share one
search, ``_bfs_dists``, on a dual graph's partner table (a bridge test cuts
one single edge from it), on the walk's table of moves, or on the modular
graph's adjacency.  A key's decoration is read on the partner table its
search built, and the graphs the library makes from keys and dart moves are
stored in the constructor's normal form without its checks (``_stored``).

Complexity is capped at xi = 3g-3+b <= 4.  With the cap raised, the tests
check the walk against an enumeration of every edge multiset up to xi = 7
and against counts from the literature past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import (
    ComplexityTooLarge,
    InconsistentInput,
    NegativeSurface,
    NotTrivalent,
    UnknownVertex,
    _Record,
    _rebuild,
    check_int,
    is_int,
)
from .qch_bounds import shortpants_global

COMPLEXITY_CAP = 4


def xi(g: int, b: int) -> int:
    """Complexity 3g - 3 + b of S_{g,b}: its number of pants curves.  The
    genus and boundary count must be ints >= 0 (``NegativeSurface``)."""
    check_int("genus", g, 0, NegativeSurface)
    check_int("boundary count", b, 0, NegativeSurface)
    return 3 * g - 3 + b


class TrivalentGraph(_Record):
    """Dual graph of a pants decomposition.

    ``edges`` is a sorted multiset of internal edges (i, j) with i <= j
    (i == j for loops); ``half`` counts boundary half-edges per vertex.
    ``NotTrivalent`` refuses ``edges`` or ``half`` that cannot be iterated,
    an ``n`` that is not an int >= 0, a ``half`` that is not n ints in 0..3,
    an edge that is not two int endpoints in ``range(n)`` (a bool is not an
    int), and a vertex of degree other than 3.
    """

    __slots__ = __match_args__ = ("n", "edges", "half")

    def __init__(self, n: int, edges, half):
        try:
            half, edges = tuple(half), [tuple(e) for e in edges]
        except TypeError:
            raise NotTrivalent(f"edges {edges!r} and half {half!r} must be iterables") from None
        if not (is_int(n) and n >= 0 and len(half) == n):
            raise NotTrivalent(
                f"a graph on n >= 0 vertices needs an int n and n half-edge counts, "
                f"got n={n!r} and {len(half)} counts"
            )
        for h in half:
            if not (type(h) is int and 0 <= h <= 3):  # a bool is not a count
                raise NotTrivalent(f"half-edge counts must be ints in 0..3, got {half}")
        degree = list(half)
        pairs = []
        for e in edges:
            if not (len(e) == 2 and type(e[0]) is int and type(e[1]) is int
                    and 0 <= e[0] < n and 0 <= e[1] < n):
                raise NotTrivalent(f"edge {e} needs two int endpoints in range({n})")
            i, j = e
            degree[i] += 1
            degree[j] += 1
            pairs.append(e if i <= j else (j, i))
        for v, d in enumerate(degree):
            if d != 3:
                raise NotTrivalent(f"vertex {v} has degree {d}, every pants has 3 cuffs")
        pairs.sort()
        self._set_fields(n, tuple(pairs), half)

    def boundary_count(self) -> int:
        return sum(self.half)

    def cycle_rank(self) -> int:
        """First Betti number; equals the genus of the decomposed surface."""
        return len(self.edges) - self.n + 1

    def bridges(self) -> tuple:
        """Internal edges whose dual curves separate the surface, in edge
        order: the bridges of the graph."""
        return tuple(_cut_edges(_partners(self.n, self.edges), self.edges))

    def surface(self) -> tuple[int, int]:
        """(genus, boundary components) of the decomposed surface."""
        return self.cycle_rank(), self.boundary_count()


def _partners(n: int, edges) -> list:
    """partners[v]: each neighbour u != v of v -> its number of parallel edges."""
    partners = [{} for _ in range(n)]
    for i, j in edges:
        if i != j:
            partners[i][j] = partners[i].get(j, 0) + 1
            partners[j][i] = partners[j].get(i, 0) + 1
    return partners


def _cut_edges(partners: list, edges):
    """Yields the edges (i, j) of the sorted multiset, in its order, whose
    one copy cut from the partner table leaves j out of the search from i;
    the table is whole again before each yield.  Neither a loop nor a
    parallel copy separates, so only single edges between two vertices are
    cut: the bridges of the graph."""
    for i, j in edges:
        if i != j and partners[i][j] == 1:
            del partners[i][j], partners[j][i]
            reached = _bfs_dists(partners, i)
            partners[i][j] = partners[j][i] = 1
            if j not in reached:
                yield i, j


def canonical_key(g: TrivalentGraph) -> tuple:
    """Canonical form of the decorated graph: the least relabeling over all
    vertex permutations.

    The key is ``(n, edges, half, deco)``, compared in that order, and the
    relabelled edges determine ``half`` (3 minus the edge degree) and
    ``deco`` (the bridges of the relabelled graph).  So the search compares
    edge lists alone, each edge (i, j) coded as i*n + j, which keeps the
    order of the pairs, and it scores only the relabellings that can be least:

    * The sorted coded list is label 0's block (0 for its loop, then its
      partners' labels, once per parallel edge), all below n, followed by
      codes of at least n + 1, and every relabelling has E codes.  So a
      longer block wins a tie on its prefix, and the least list has the
      least block 0.
    * With v at label 0, block 0 is least exactly when v's d distinct
      partners take labels 1..d, more parallel edges first; it then reads
      v's first block (-loop, -m1, -m2, -m3), padded with 0.  So every
      minimizing relabelling puts a vertex of least first block at 0 and its
      partners at 1..d by multiplicity, on disconnected graphs too.  The
      search tries those, tied partners and the other vertices in every order.
    * Tied relabellings give the same relabelled edges, of which ``half``
      and ``deco`` are functions, so the key does not depend on which one
      the search returns.  Both are built once, for it: ``half`` read in its
      label order, and ``deco`` from the input's own bridges.  Whether an
      edge separates does not depend on the names of the vertices, so a
      relabelling maps the bridges of the input onto the bridges of the
      relabelled edges: the input's bridges, found on the partner table the
      search already built and relabelled by its winner, each as (min, max)
      and sorted, are the bridges of the key's edges in their order.
    """
    n = g.n
    edges = g.edges
    loops = {i for i, j in edges if i == j}
    partners = _partners(n, edges)
    # the first block compared as (loop, m1, m2, m3), largest wins: the same
    # order as (-loop, -m1, -m2, -m3) padded with 0, least wins
    blocks = [(v in loops, sorted(mult.values(), reverse=True)) for v, mult in enumerate(partners)]
    first = max(blocks, default=None)
    best = order = win = ()
    for v, mult in enumerate(partners):
        if blocks[v] != first:
            continue
        rest = [u for u in range(n) if u != v and u not in mult]
        for head in permutations(mult):
            if [mult[u] for u in head] != first[1]:
                continue
            head = (v, *head)
            for tail in permutations(rest):
                candidate = head + tail  # vertices in label order
                label = sorted(range(n), key=candidate.__getitem__)  # label[v]: v's place
                codes = sorted([label[i] * n + label[j] if label[i] <= label[j]
                                else label[j] * n + label[i] for i, j in edges])
                if not order or codes < best:
                    best, order, win = codes, candidate, label
    # the input's bridges, on the search's own table, relabelled by the winner
    deco = sorted([(win[i], win[j]) if win[i] < win[j] else (win[j], win[i])
                   for i, j in _cut_edges(partners, edges)])
    return (n, tuple([divmod(code, n) for code in best]), tuple(map(g.half.__getitem__, order)),
            tuple(deco))


def from_key(key: tuple) -> TrivalentGraph:
    """The graph of a canonical key (n, edges, half, decoration), checked as
    ``TrivalentGraph`` checks it; a key that is no 4-tuple raises
    ``InconsistentInput``."""
    if not (isinstance(key, tuple) and len(key) == 4):
        raise InconsistentInput(f"a pants key must be a 4-tuple (n, edges, half, decoration), got {key!r}")
    return TrivalentGraph(*key[:3])


def _stored(key: tuple) -> TrivalentGraph:
    """``from_key`` for a key the library made: the fields are already the
    constructor's normal form, so they are stored without its checks."""
    return _rebuild(TrivalentGraph, key[:3])


def _seed(g: int, b: int) -> TrivalentGraph:
    """One decomposition of S_{g,b}: a path of s = g+b-2 pants whose s+2 free
    cuff ends take g handles (a pants with a loop) and b legs.  With s = 0
    the path is the first handle, whose free end takes the other pendant."""
    s = g + b - 2
    n = s + g
    ends = [0, *range(s), s - 1] if s else [0]  # free cuff ends, by owner
    hung = range(max(s, 1), n)  # handles hung on the first ends
    half = [0] * n
    for v in ends[len(hung):]:
        half[v] += 1
    edges = [(i, i + 1) for i in range(s - 1)] + [(h, h) for h in range(s, n)]
    return TrivalentGraph(n, edges + list(zip(ends, hung)), half)


class _MoveTable(dict):
    """Canonical key -> neighbour keys, each entry made by ``_moves`` when
    first looked up; ``notes[key]`` keeps that class's annotations."""

    def __init__(self):
        self.notes = {}

    def __missing__(self, key):
        self[key], self.notes[key] = _moves(_stored(key), key)
        return self[key]


def _classes(g: int, b: int) -> _MoveTable:
    """Every decomposition class of S_{g,b} with its moves: the table of a
    breadth-first walk over elementary moves from ``_seed(g, b)``.  The
    pants graph is connected, so the walk reaches every class.  The surface
    must be one of complexity 1 to ``COMPLEXITY_CAP``."""
    x = xi(g, b)
    if x < 1:
        raise ComplexityTooLarge(f"surface ({g},{b}) has complexity {x} < 1: no cuffs to decompose")
    if x > COMPLEXITY_CAP:
        raise ComplexityTooLarge(f"complexity {x} exceeds the key-search cap {COMPLEXITY_CAP}")
    table = _MoveTable()
    _bfs_dists(table, canonical_key(_seed(g, b)))
    return table


def enumerate_decompositions(g: int, b: int) -> list[TrivalentGraph]:
    """All pants decompositions of S_{g,b} up to homeomorphism, one
    canonical representative per class, in key order, found by walking the
    pants graph from one decomposition."""
    return [_stored(k) for k in sorted(_classes(g, b))]


def _moved_graph(n: int, pairing: dict, moved: dict) -> TrivalentGraph:
    """Graph of the paired darts, dart d owned by moved.get(d, d // 3),
    written in the constructor's normal form and stored without its checks:
    every pants keeps its three darts."""
    edges = []
    half = [0] * n
    for d in range(3 * n):
        v = moved.get(d, d // 3)
        e = pairing.get(d)
        if e is None:
            half[v] += 1
        elif d < e:
            w = moved.get(e, e // 3)
            edges.append((v, w) if v <= w else (w, v))
    return _stored((n, tuple(sorted(edges)), tuple(half)))


def elementary_moves(g: TrivalentGraph):
    """Neighbors of a decomposition class under elementary moves.

    Returns (neighbors, annotations), neighbours as ``from_key`` builds them,
    in key order.  Each internal edge is replaced inside the complement of
    the remaining cuffs:

    * a loop edge sits in a 1-holed torus; its replacement returns the same
      class, recorded as a ``torus_move`` annotation (never a modular edge);
    * a non-loop edge sits in a 4-holed sphere whose four legs can be
      re-paired across the new curve in the two possible ways (variant A
      keeps each pants' first remaining leg together with the first leg of
      the opposite pants, variant B crosses them); outcomes equal to the
      input class are recorded as ``sphere_move_fixed`` annotations.
    """
    keys, annotations = _moves(g, canonical_key(g))
    return [_stored(k) for k in sorted(keys)], annotations


def _moves(g: TrivalentGraph, self_key: tuple):
    """``elementary_moves`` for a graph whose key is known: (neighbour keys,
    annotations).  The move across darts dp < dq of pants p and q hands p's
    higher other dart to q and each other dart of q, ascending, to p.  Each
    distinct labelled outcome is keyed once.

    The darts pair up as the edges do: vertex v owns darts 3v, 3v+1 and
    3v+2, each edge takes the highest free dart at each end, and the darts
    left free are the boundary legs."""
    free = [3] * g.n
    pairing = {}
    for i, j in g.edges:
        free[i] -= 1
        d1 = 3 * i + free[i]
        free[j] -= 1  # after i's: a loop takes two darts
        d2 = 3 * j + free[j]
        pairing[d1], pairing[d2] = d2, d1
    outcome_keys = {}
    neighbors = set()
    annotations = []
    done_edges = set()
    for dp, dq in sorted(pairing.items()):
        if dp > dq:
            continue
        p, q = dp // 3, dq // 3
        if p == q:
            annotations.append(("torus_move", (p, q)))
            continue
        edge_sig = (p, q)
        if edge_sig in done_edges:
            continue  # parallel copies give isomorphic outcomes
        done_edges.add(edge_sig)
        u2 = max(d for d in range(3 * p, 3 * p + 3) if d != dp)
        for wa in (d for d in range(3 * q, 3 * q + 3) if d != dq):
            moved = _moved_graph(g.n, pairing, {wa: p, u2: q})
            key = outcome_keys.get(moved.edges)
            if key is None:
                key = outcome_keys[moved.edges] = canonical_key(moved)
            if key == self_key:
                annotations.append(("sphere_move_fixed", edge_sig))
            else:
                neighbors.add(key)
    return neighbors, annotations


@dataclass(frozen=True)
class ModularPantsGraph:
    """Decomposition classes of S_{genus,boundary} joined by elementary
    moves.  ``connected`` is true by construction: the vertices are the
    classes one walk over moves reaches."""

    genus: int
    boundary: int
    vertices: tuple
    adjacency: tuple  # adjacency[i] = sorted tuple of neighbor indices
    annotations: tuple  # per-vertex move annotations (loops, not edges)
    connected: bool
    diameter: int

    def vertex_count(self) -> int:
        return len(self.vertices)

    def to_adjacency_text(self) -> str:
        lines = [f"# modular pants graph of surface genus={self.genus} boundary={self.boundary}"]
        lines += (f"{i}: " + " ".join(map(str, nbrs)) for i, nbrs in enumerate(self.adjacency))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        # the fields in order, each record and tuple as JSON would hold it
        verts = [{"pants": v.n, "edges": [list(e) for e in v.edges], "half_edges": list(v.half),
                  "separating_edges": [list(e) for e in v.bridges()]} for v in self.vertices]
        return dict(vars(self), vertices=verts, adjacency=[list(a) for a in self.adjacency],
                    annotations=[list(map(str, a)) for a in self.annotations])


def _bfs_dists(adjacency, start):
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def modular_pants_graph(g: int, b: int) -> ModularPantsGraph:
    """The modular pants graph of S_{g,b} with exact diameter (move
    annotations are excluded from the metric).  Vertices, edges and
    annotations come from the one walk of ``_classes``, so each class's
    moves are found once."""
    table = _classes(g, b)
    keys = sorted(table)
    index = {key: i for i, key in enumerate(keys)}
    adjacency = tuple(tuple(sorted(index[k] for k in table[key])) for key in keys)
    return ModularPantsGraph(
        genus=g,
        boundary=b,
        vertices=tuple(map(_stored, keys)),
        adjacency=adjacency,
        annotations=tuple(tuple(table.notes[key]) for key in keys),
        connected=True,
        diameter=max(max(_bfs_dists(adjacency, i).values()) for i in range(len(keys))),
    )


def propagate_bounds(graph: ModularPantsGraph, start: int, M: float, m_inj: float) -> dict:
    """Cuff-length bound per vertex: iterate the short-pants step along BFS
    distance from the start vertex, an ``int`` (not a ``bool``); the start
    keeps exactly M."""
    if not (is_int(start) and 0 <= start < graph.vertex_count()):
        raise UnknownVertex(f"start vertex {start} not in graph")
    dists = _bfs_dists(graph.adjacency, start)
    return {v: shortpants_global(M, m_inj, d) for v, d in sorted(dists.items())}
