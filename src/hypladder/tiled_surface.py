"""Pentagon-tiled surfaces and discrete geodesic certification.

Four copies of the right-angled pentagon with sides (b, b, a, c, a) glue
into a 1-holed square: outer boundary 8b, inner boundary a smooth closed
geodesic of length 4c.  Holed squares tile into rectangular windows; the
grid at level n is 3^(n-1) x 3^(n-1) with 9^(n-1) holes, and level n sits
as the middle block of level n+1.  Gluing the holes pairwise in each row
(each hole to the hole on its right, orientation reversed) closes the
window up into a positive-genus surface.

The discrete model has the pentagon corners as vertices and the pentagon
sides as weighted edges; an optional refinement adds the pentagon diagonals
at their hyperbolic lengths, each from the two sides it spans by hyperbolic
Pythagoras, so it is valid for every b that ``solve_pentagon`` accepts.
Certificates are valid for paths inside the window minus a one-cell safety
margin and state their window size.

Every row strip of a window that ``build_grid``, ``add_diagonals`` or
``glue_to_Rb`` made is the one-row window that the same constructors make,
with its rows renumbered and the same lengths, so that window's search
certifies every span without indexing the window; the search stops at the
first vertex of the far line that settles, whose distance, as vertices
settle in order of distance, is the line's least, with the same bits (see
``certify_vertical_minimizing``).  The
edge map drops the index, the constructors' record and the strip distance
on any write, so distances, certificates and the topology see every edit,
and bad lengths are refused at the first query (see ``TiledComplex``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import partialmethod
from itertools import chain, count

from .errors import (InconsistentEdgeLength, InconsistentInput, NonPositiveSize, ScaleTooLarge,
                     Unreachable, check_int, check_positive_finite)
from .hyp_core import PentagonSolution, solve_pentagon

EDGE_TOL = 1e-12
CERT_TOL = 1e-9

_HOLE_MIRROR = {"N": "N", "S": "S", "E": "W", "W": "E"}


@dataclass
class _GraphIndex:
    """Integer form of a complex's corner graph.

    Vertex i is ids[i]; ids are sorted, so the order of the ints is the order
    of the ids and heap ties break as they would on the ids themselves.
    adj[i] is flat, [j0, length0, j1, length1, ...] over the edges at i, so
    no tuple is made per edge.  Only distance queries and the topology build
    an index of a window: a built window's certificates search the index of
    a one-row window instead, which is each row strip with its rows
    renumbered and has the same lengths (see
    ``certify_vertical_minimizing``), and the line search finds its row
    lines on the ids when it runs, stopping at the first line vertex that
    settles (see ``_line_distance``).
    """

    ids: list
    pos: dict
    adj: list

    def vertex(self, v) -> int:
        i = self.pos.get(v)
        if i is None:
            raise Unreachable(f"vertex {v} not present in the complex")
        return i


def _index_graph(edges: dict, order: list | None = None) -> _GraphIndex:
    """Index of the graph with these edges.  ``order`` is a hint: the sorted
    vertex list a constructor made, the head of its record on the edge map,
    which the map drops on a write.

    Refuses lengths as ``add_edge`` does; each is checked only if ``min`` and
    ``sum``, which pass over them in C (a NaN makes the sum NaN), fail or
    raise TypeError (a length that is no number).  A key that is no pair of
    ids, or ids that do not compare with each other, such as an int beside
    tuples, cannot be indexed and are refused with ``InconsistentInput``."""
    try:
        valid = not edges or min(edges.values()) > 0 and sum(edges.values()) < math.inf
    except TypeError:
        valid = False
    if not valid:
        for key, w in edges.items():
            check_positive_finite(f"edge {key} length", w)
    try:
        ids = order or sorted({v for e in edges for v in e})
        pos = dict(zip(ids, range(len(ids))))
        adj = [[] for _ in ids]
        for (u, v), w in edges.items():
            i = pos[u]
            j = pos[v]
            adj[i] += j, w
            adj[j] += i, w
    except (TypeError, ValueError) as exc:  # such as the key 5, or ids 0 and ("C", 1, 1)
        raise InconsistentInput(f"edge keys that are no vertex pairs, or ids that do not compare: {exc}") from None
    return _GraphIndex(ids, pos, adj)


def _written(edges, method, *args, **kwargs):
    """Drop the cached work of ``edges``, then call ``method``."""
    edges._index = edges._made = edges._strip = None
    return method(edges, *args, **kwargs)


class _EdgeMap(dict):
    """A complex's edge map: a ``dict`` whose every mutator first drops its
    cached work: the graph index ``_index``, the strip distance ``_strip``
    (see ``certify_vertical_minimizing``) and the constructors' record
    ``_made`` of how they made the window: (sorted vertex list, pentagon,
    rows, cols, *steps), the steps being ``add_diagonals`` and
    ``glue_to_Rb`` in the order they ran.  The constructors write through
    ``dict``'s own methods and set the record after, so it marks a window
    that they made, unwritten since, each of whose row strips is, rows
    renumbered, the one-row window that replaying the record makes, with
    the same lengths.  It keeps no reference to its complex, so a complex
    is freed without waiting for the cycle collector.  All three are
    instance attributes, not ``__slots__``, so the map pickles with every
    protocol."""


for _name in "__init__ __setitem__ __delitem__ __ior__ update setdefault pop popitem clear".split():
    setattr(_EdgeMap, _name, partialmethod(_written, getattr(dict, _name)))


@dataclass
class TiledComplex:
    """Edge-weighted corner graph of a window of holed squares.

    Vertex ids: ('C', r, c) lattice corners, ('HM', r, c) horizontal-side
    midpoints on row line r, ('VM', r, c) vertical-side midpoints on column
    line c, ('H', r, c, pos) hole corners of cell (r, c), pos in NESW.
    ``build_grid`` makes one tuple per vertex, which the faces and the edge
    keys share, and writes each pentagon side once.

    Distance queries and the topology (``genus()`` too) share one integer
    index of the graph, built on the first query and kept on ``edges``,
    which drops it on any write: through ``add_edge`` or straight into the
    map, before or after a query.  The index refuses, when built, lengths
    that are not positive and finite, which Dijkstra and the pruning need,
    and ids that do not compare with each other, which it sorts.
    ``build_grid``, ``add_diagonals`` and ``glue_to_Rb`` leave on the map,
    also dropped on a write, a record of how they made the window: the
    sorted vertex list, which the index takes as its order, then the
    pentagon, rows, cols and steps, which the certificates check against
    the complex's fields.  A plain ``dict`` given as ``edges``, as a
    ``dataclasses.replace`` copy or a hand-built complex gives, is copied
    once into such a map, without the record.
    """

    pentagon: PentagonSolution
    rows: int
    cols: int
    edges: dict = field(default_factory=_EdgeMap)  # sorted vertex pair -> length
    faces: list = field(default_factory=list)  # 5-tuples in (b,b,a,c,a) order
    glued_pairs: tuple = ()
    refined: bool = False

    def __post_init__(self):
        if not isinstance(self.edges, _EdgeMap):
            self.edges = _EdgeMap(self.edges)

    @property
    def b(self) -> float:
        return self.pentagon.b

    def vertices(self) -> set:
        return {v for edge in self.edges for v in edge}

    def add_edge(self, u, v, length: float) -> None:
        check_positive_finite("edge length", length)
        try:
            key = (u, v) if u <= v else (v, u)
        except TypeError:
            raise InconsistentInput(f"vertex ids {u!r} and {v!r} do not compare") from None
        _written(self.edges, _merge, key, length)  # checked as the constructors check

    def _graph(self) -> _GraphIndex:
        edges = self.edges
        if edges._index is None:
            edges._index = _index_graph(edges, edges._made and edges._made[0])
        return edges._index

    def alpha_column(self) -> int:
        return self.cols // 2

    def alpha_corner(self, row_line: int):
        return ("C", row_line, self.alpha_column())

    # -- topology: on the index's vertex numbers (see ``_topology``) ---------

    def euler_characteristic(self) -> int:
        return _topology(self)[0]

    def boundary_component_count(self) -> int:
        return _topology(self)[1]

    def genus(self) -> int:
        return (2 - sum(_topology(self))) // 2  # 2 - 2g = chi + boundary components


def _odd_sides(faces: list, num: dict) -> tuple:
    """(sides on an odd number of the 5-gon ``faces``, number of face
    vertices).  The faces are read as five columns of vertex numbers ``num``
    (faces of another length are refused with ``InconsistentInput``); side
    {i, j} is the int i * n + j, i < j, toggled in a parity set."""
    n, odd = len(num), set()
    try:
        cols = [list(map(num.__getitem__, col)) for col in zip(*faces, strict=True)]
        for a, b, c, d, e in zip(*cols):
            for i, j in ((a, b), (b, c), (c, d), (d, e), (e, a)):
                k = i * n + j if i < j else j * n + i
                odd.remove(k) if k in odd else odd.add(k)
    except (TypeError, ValueError) as exc:  # a face that is no 5-tuple of ids
        raise InconsistentInput(f"faces must be 5-tuples of vertex ids: {exc}") from None
    return odd, len(set(chain(*cols)))


def _topology(t: TiledComplex) -> tuple:
    """(Euler characteristic, boundary components) of ``t``'s faces.  V
    counts the face vertices and E the face sides: an edge that is no side
    (a diagonal, or one to a vertex on no face) is no part of the surface.
    Sides are numbered on the index's ids, then each face vertex that no
    edge touches.  A side on k faces is (k + k % 2) / 2 edges, k % 2 of them
    on the boundary (a glued pair's two ``a`` edges at their shared midpoint
    are one side on four faces).  The boundary components are the odd
    sides' ends less the merges of a union-find over them."""
    g, faces = t._graph(), t.faces
    num = g.pos
    try:
        odd, v = _odd_sides(faces, num)
    except KeyError:
        num = dict(zip(dict.fromkeys(chain(g.ids, *faces)), count()))
        odd, v = _odd_sides(faces, num)
    n = len(num)
    parent, merges = list(range(n)), 0
    ends = {x for k in odd for x in divmod(k, n)}
    for k in odd:
        i, j = divmod(k, n)
        while parent[i] != i:  # path halving: i's parent, then i, become its grandparent
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            parent[i] = j
            merges += 1
    # V - E + F, with E = (5 F + odd sides) / 2 edges (see above)
    return v - (5 * len(faces) + len(odd)) // 2 + len(faces), len(ends) - merges


def build_grid(b: float, rows: int, cols: int) -> TiledComplex:
    """Window of rows x cols holed squares tiled edge to edge.

    Each cell is four pentagon faces in (b,b,a,c,a) order around its hole.
    Every side is written once, straight under its sorted key: a cell writes
    its four ``a`` and four ``c`` sides and the ``b`` halves of its top and
    left sides, and the last row and column also write their bottom and
    right halves.  Each row's sides go into a plain dict, merged into the
    edge map by ``dict.update``.  Each vertex is one tuple, shared by faces
    and edges, and the tuples are listed in sorted order as the index's
    hint: corners row by row, hole corners cell by cell (E < N < S < W),
    then the horizontal and the vertical midpoints.  The list heads the
    record left on the edge map, with the pentagon, rows and cols.
    """
    check_int("rows", rows)
    check_int("cols", cols)
    if rows < 1 or cols < 1:
        raise NonPositiveSize(f"window must be at least 1x1, got {rows}x{cols}")
    p = solve_pentagon(b)
    pb, pa, pc = p.b, p.a, p.c
    t = TiledComplex(pentagon=p, rows=rows, cols=cols)
    faces = t.faces
    corner = [[("C", r, c) for c in range(cols + 1)] for r in range(rows + 1)]
    hmid = [[("HM", r, c) for c in range(cols)] for r in range(rows + 1)]
    vmid = [[("VM", r, c) for c in range(cols + 1)] for r in range(rows)]
    holes = []
    for r in range(rows):
        top, bottom, vm = corner[r], corner[r + 1], vmid[r]
        htop, hbottom = hmid[r], hmid[r + 1]
        last_row, edges = r == rows - 1, {}
        for c in range(cols):
            c00, c01, c10, c11 = top[c], top[c + 1], bottom[c], bottom[c + 1]
            h0, h1, v0, v1 = htop[c], hbottom[c], vm[c], vm[c + 1]
            n, e, s, w = ("H", r, c, "N"), ("H", r, c, "E"), ("H", r, c, "S"), ("H", r, c, "W")
            holes += e, n, s, w
            faces += (
                (h0, c01, v1, e, n),
                (v1, c11, h1, s, e),
                (h1, c10, v0, w, s),
                (v0, c00, h0, n, w),
            )
            # keys in sorted order: kinds sort C < H < HM < VM, holes E < N < S < W
            edges[c00, h0] = edges[c01, h0] = edges[c00, v0] = edges[c10, v0] = pb
            edges[n, h0] = edges[e, v1] = edges[s, h1] = edges[w, v0] = pa
            edges[e, n] = edges[e, s] = edges[s, w] = edges[n, w] = pc
            if last_row:
                edges[c10, h1] = edges[c11, h1] = pb
        edges[top[cols], vm[cols]] = edges[bottom[cols], vm[cols]] = pb
        dict.update(t.edges, edges)
    t.edges._made = ([v for row in corner for v in row] + holes + [v for row in hmid + vmid for v in row],
                     p, rows, cols)
    return t


def build_Tn(b: float, n: int) -> TiledComplex:
    """Level-n window: a 3^(n-1) x 3^(n-1) grid with 9^(n-1) holes."""
    check_int("tiling level", n)
    if not 1 <= n <= 5:
        raise ScaleTooLarge(f"tiling level must be in [1, 5], got {n}")
    m = 3 ** (n - 1)
    return build_grid(b, m, m)


def glue_to_Rb(t: TiledComplex) -> TiledComplex:
    """Identify each hole with the hole to its right, orientation reversed.

    Holes are paired per row in columns (0,1), (2,3), ...; with an odd
    column count the last column's holes stay unglued (they sit in the
    safety margin of any certificate).  The identification matches N to N
    and S to S and swaps E and W, preserving pentagon-edge labels.

    Only the edges at a glued-away hole corner are rewritten in the copied
    edge map, each checked as ``add_edge`` checks it.  Gluing pairs holes
    within a row, so the rows stay alike if they were, and the step is
    added to the edge map's record.
    """
    rep, pairs = {}, []
    for r in range(t.rows):
        for c in range(0, t.cols - 1, 2):
            pairs.append(((r, c), (r, c + 1)))
            for pos, mirrored in _HOLE_MIRROR.items():
                rep[("H", r, c + 1, mirrored)] = ("H", r, c, pos)
    # a representative sits in an even column, so it is never a key of rep
    canon = rep.get
    edges = _EdgeMap(t.edges)
    for key, w in t.edges.items():
        u, v = key
        if u in rep or v in rep:
            dict.pop(edges, key)
            u, v = canon(u, u), canon(v, v)
            _merge(edges, (u, v) if u <= v else (v, u), w)
    faces = [(canon(a, a), canon(b, b), canon(c, c), canon(d, d), canon(e, e))
             for a, b, c, d, e in t.faces]
    made = t.edges._made
    edges._made = made and ([v for v in made[0] if v not in rep], *made[1:], glue_to_Rb)
    return replace(t, edges=edges, faces=faces, glued_pairs=tuple(pairs))


def _merge(edges: _EdgeMap, key, length: float) -> None:
    """Write ``length`` under ``key`` through ``dict``'s own methods,
    checked against a length already there as ``add_edge`` checks it."""
    old = dict.setdefault(edges, key, length)
    if old is not length:  # the key was there: check it, then overwrite
        if abs(old - length) > EDGE_TOL:
            raise InconsistentEdgeLength(f"edge {key} assigned inconsistent lengths {old} and {length}")
        dict.__setitem__(edges, key, length)


def _distances(g: _GraphIndex, sources, targets=(), first=False) -> list:
    """Dijkstra on the integer index: dist[i] for every settled vertex i,
    None elsewhere.  With a non-empty target set, stops once all targets are
    settled, or with ``first`` once one is; an empty one stops nothing.

    ``best`` holds each vertex's best tentative distance, and a neighbour is
    pushed only when it improves on it (with lengths >= 0 a settled vertex
    never does); an entry it improved on stays in the heap and is skipped
    when popped.  Vertices settle in (d, i) order, so the settled set at an
    early stop is the same as with a push per edge."""
    adj = g.adj
    dist = [None] * len(adj)
    best = [math.inf] * len(adj)
    for s in sources:
        best[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    remaining = set(targets)
    while heap:
        d, v = heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        if v in remaining:
            remaining.discard(v)
            if first or not remaining:
                break
        it = iter(adj[v])
        for w, length in zip(it, it):
            nd = d + length
            if nd < best[w]:
                best[w] = nd
                heappush(heap, (nd, w))
    return dist


def dijkstra(t: TiledComplex, sources, targets=None) -> dict:
    """Exact shortest-path distances from the source set; stops early when
    all targets are settled if a non-empty target set is given."""
    g = t._graph()
    # a target missing from the complex is never settled (-1 is no vertex),
    # so the search then runs to the end
    dist = _distances(g, [g.vertex(s) for s in sources], {g.pos.get(v, -1) for v in targets or ()})
    return {g.ids[i]: d for i, d in enumerate(dist) if d is not None}


def discrete_distance(t: TiledComplex, x, y) -> float:
    """Shortest edge-path length between two corners of the complex."""
    g = t._graph()
    i, j = g.vertex(x), g.pos.get(y)
    d = None if j is None else _distances(g, [i], [j])[j]
    if d is None:
        raise Unreachable(f"no edge path connects {x} and {y}")
    return d


@dataclass(frozen=True)
class VerticalCertificate:
    b: float
    n: int
    window: tuple[int, int]
    refined: bool
    distance: float
    expected: float
    dijkstra_equality: bool
    row_crossing_bound: bool

    @property
    def passes(self) -> bool:
        return self.dijkstra_equality and self.row_crossing_bound

    def to_dict(self) -> dict:
        # the fields in order, the window as a list, then passes
        return dict(vars(self), window=list(self.window), passes=self.passes)


def _check_row_separation(n) -> None:
    """Raise NonPositiveSize unless n is an int >= 1."""
    check_int("row separation", n)
    if n < 1:
        raise NonPositiveSize(f"row separation must be >= 1, got {n}")


def certify_vertical_minimizing(t: TiledComplex, n: int) -> VerticalCertificate:
    """Certify that the vertical line through the window's middle column
    minimizes distance over n rows.

    Two checks: (1) the distance between vertical-line corners x, y n rows
    apart equals 2nb; (2) every edge path from row line r0 + n to row line
    r0 has length >= 2nb.  Both hold to within CERT_TOL.  Corners stay one
    row inside the window boundary (safety margin).

    Strips: in a window that ``build_grid``, ``add_diagonals`` or
    ``glue_to_Rb`` made, unwritten since, whose pentagon, rows and cols are
    still those the constructors recorded on ``edges`` (``_made``, which any
    write drops), every edge lies in one closed cell and gluing pairs holes
    within a row, so each row line separates the rows above it from those
    below.  Cut a path from line r0 + n to line r0 at its first visit to
    each line between.  The piece from line k + 1 to line k stays, after its
    last visit to line k + 1, in strip k (the cells of row k with their two
    lines), so the path is at least the sum of the strips' line-to-line
    distances s_k.  Shift: strip k is the one-row window that the same
    constructors, replayed in the same order on the same pentagon and column
    count, make, with row r renumbered r - k: the same edges with the same
    lengths, since every cell gets the same sides and diagonals and gluing
    pairs the same columns in every row.  A search from line k + 1 settles,
    before its first vertex of line k, only vertices of strip k and below
    line k + 1, and those below reach strip k only through the sources, so
    it computes the one-row window's floats; and it stops at that first
    vertex, which settles at the least distance on the line (vertices settle
    in order of distance), with the same bits.  So that window's
    line-to-line distance (see ``_strip_distance``), cached on ``edges``, is
    every s_k = s, to the bit, and its search never indexes ``t``.  By the
    same cut, the exact shortest line-to-line path lies in one strip, so it
    has fewer than N = 9 cols + 3 edges, the strip's vertex count (the
    diagonals add no vertex, gluing removes some); its float sum, at least
    the search's float s, is within gamma_N = Nu / (1 - Nu) of its length
    (Higham 4.2, u = 2^-53).  So fl(n s)(1 - 4 gamma_N) >= 2nb - CERT_TOL
    proves (2), with room for the test's own roundings, and implies the line
    search's test below; (1) follows by the witness, the alpha column of
    length 2nb, whose sequential edge sum, read from ``edges``, is the
    reported distance.

    Otherwise, or when that test fails, the distance is the full search's
    and (2) the line search's over the span, from line r0 + n.
    """
    _check_row_separation(n)
    if n > t.rows - 2:
        raise ScaleTooLarge(f"window with {t.rows} rows is too short for n={n} plus margin")
    r0 = max(1, (t.rows - n) // 2)
    expected = 2.0 * n * t.b
    nu = (9 * t.cols + 3) * 2.0**-53
    crosses = n * _strip_distance(t) * (1.0 - 4.0 * nu / (1.0 - nu)) >= expected - CERT_TOL
    if crosses:
        d, col, edges = 0.0, t.alpha_column(), t.edges
        for r in range(r0, r0 + n):
            d += edges[("C", r, col), ("VM", r, col)]
            d += edges[("C", r + 1, col), ("VM", r, col)]
    else:
        d = discrete_distance(t, t.alpha_corner(r0), t.alpha_corner(r0 + n))
        crosses = _line_distance(t._graph(), r0, r0 + n) >= expected - CERT_TOL
    # the fields in order: b, n, window, refined, distance, expected, the two checks
    return VerticalCertificate(t.b, n, (t.rows, t.cols), t.refined, d, expected,
                               abs(d - expected) < CERT_TOL, crosses)


def _strip_distance(t) -> float:
    """A lower bound on every row strip's line-to-line distance of ``t``:
    if its pentagon, rows and cols are those recorded on ``t.edges``, the
    distance of the one-row window made as ``t`` was, cached there; for
    any other window -inf, which no strip test passes."""
    edges, made = t.edges, t.edges._made
    if not made or made[1:4] != (t.pentagon, t.rows, t.cols):
        return -math.inf
    if edges._strip is None:
        w = build_grid(t.b, 1, t.cols)
        for step in made[4:]:
            w = step(w)
        edges._strip = _line_distance(w._graph(), 0, 1)
    return edges._strip


def _line_distance(g: _GraphIndex, line: int, source: int) -> float:
    """Least distance from row line ``source`` to row line ``line``, each its
    lattice corners and horizontal-side midpoints, found on the ids when the
    search runs: one search over the whole graph, which stops at the first
    vertex of ``line`` that settles.  Vertices settle in order of distance,
    so that vertex's distance is the least on the line, with the same bits."""
    top, bottom = ([i for i, v in enumerate(g.ids) if v[0] in ("C", "HM") and v[1] == r] for r in (line, source))
    dist = _distances(g, bottom, top, True)
    return min(dist[k] for k in top if dist[k] is not None)


def _hypotenuse(u: float, v: float) -> float:
    """Hypotenuse of the right-angled triangle with legs u and v, by
    hyperbolic Pythagoras: cosh d = cosh u * cosh v.  Where that product
    overflows, d = u + v - ln 2 + log1p(e^-2u) + log1p(e^-2v), which drops
    only a term of order e^-2d."""
    ch = math.cosh(u) * math.cosh(v)
    if ch < math.inf:
        return math.acosh(ch)
    return u + v - math.log(2.0) + math.log1p(math.exp(-2.0 * u)) + math.log1p(math.exp(-2.0 * v))


def add_diagonals(t: TiledComplex) -> TiledComplex:
    """Refinement adding the five pentagon diagonals to every face.

    Diagonal (i, i+2) cuts off the right-angled triangle whose legs are the
    sides i and i+1 of the (b, b, a, c, a) pentagon, so its length is their
    hypotenuse (see ``_hypotenuse``): no walk places the vertices, and the
    lengths hold for every b that ``solve_pentagon`` accepts.

    The diagonals go straight into a copy of ``t.edges``, checked as
    ``add_edge`` checks, each length once; every face gets the same five
    lengths, so the rows stay alike if they were, and the step is added to
    the edge map's record."""
    p = t.pentagon
    sides = (p.b, p.b, p.a, p.c, p.a)
    diag = [(i, (i + 2) % 5, _hypotenuse(sides[i], sides[(i + 1) % 5])) for i in range(5)]
    for _, _, length in diag:
        check_positive_finite("edge length", length)
    edges, put = _EdgeMap(t.edges), dict.setdefault
    for face in t.faces:
        for i, j, length in diag:
            u, v = face[i], face[j]
            key = (u, v) if u <= v else (v, u)
            if put(edges, key, length) is not length:  # the key was there
                _merge(edges, key, length)
    # diagonals join corners of one face, so the vertices stay the same
    edges._made = t.edges._made and (*t.edges._made, add_diagonals)
    return replace(t, edges=edges, faces=list(t.faces), refined=True)

