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

Every edge lies in one closed cell, so each row line separates the rows
above it from those below; the graph index checks this, and while it holds
a certificate's line search stops at its source line.  The topology is
counted on the index's vertex numbers, so it keeps the index's edit rule,
and bad lengths are refused at the first query (see ``TiledComplex``).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import chain, count

from .errors import (
    InconsistentEdgeLength,
    InconsistentInput,
    NonPositiveSize,
    ScaleTooLarge,
    Unreachable,
    check_int,
    check_positive_finite,
)
from .hyp_core import PentagonSolution, solve_pentagon

EDGE_TOL = 1e-12
CERT_TOL = 1e-9

_HOLE_MIRROR = {"N": "N", "S": "S", "E": "W", "W": "E"}

# a vertex's band is twice its row plus this parity: a corner or horizontal
# midpoint on row line r is in band 2r, a hole corner or vertical midpoint of
# cell row r in band 2r + 1
_BAND_PARITY = {"C": 0, "HM": 0, "H": 1, "VM": 1}


@dataclass(frozen=True)
class _GraphIndex:
    """Integer form of a complex's corner graph.

    Vertex i is ids[i]; ids are sorted, so the order of the ints is the order
    of the ids and heap ties break as they would on the ids themselves.
    adj[i] is flat, [j0, length0, j1, length1, ...] over the edges at i, so
    no tuple is made per edge.  row_lines maps a row line to its lattice
    corners and horizontal-side midpoints; ids that have no kind (ints, or
    a kind without a row) leave it empty.

    ``separated``: every vertex has a band (``_BAND_PARITY``: one of the four
    kinds and an ``int`` row) and every edge joins bands at most one apart,
    so a path between bands 2r - 1 and 2r + 1 passes row line r.  It holds
    for every window built here; an edge across a row line, a vertex of
    another kind or a row that is no ``int`` turns it off.
    """

    ids: list
    pos: dict
    adj: list
    row_lines: dict
    separated: bool

    def vertex(self, v) -> int:
        i = self.pos.get(v)
        if i is None:
            raise Unreachable(f"vertex {v} not present in the complex")
        return i


def _index_graph(edges: dict, order: list | None = None) -> _GraphIndex:
    """Index of the graph with these edges.  ``order`` is a hint: the sorted
    vertex list a constructor made.  It is used only if it lists every edge
    endpoint and every vertex it lists has an edge; otherwise the ids are
    sorted afresh.

    Refuses lengths as ``add_edge`` does; each is checked only if ``min`` and
    ``sum``, which pass over them in C (a NaN makes the sum NaN), fail or
    raise TypeError (a length that is no number).  Ids that do not compare
    with each other, such as an int beside tuples, cannot be sorted and are
    refused with ``InconsistentInput``, as ``add_edge`` refuses them."""
    try:
        valid = not edges or min(edges.values()) > 0 and sum(edges.values()) < math.inf
    except TypeError:
        valid = False
    if not valid:
        for key, w in edges.items():
            check_positive_finite(f"edge {key} length", w)
    if order is not None:
        try:
            g = _index_in_order(edges, order)
            if all(g.adj):
                return g
        except KeyError:  # an endpoint the hint does not list
            pass
    ids = {v for e in edges for v in e}
    try:
        ids = sorted(ids)
    except TypeError as exc:  # ids of types that do not compare, such as 0 and ("C", 1, 1)
        raise InconsistentInput(f"vertex ids that do not compare: {exc}") from None
    return _index_in_order(edges, ids)


def _index_in_order(edges: dict, ids: list) -> _GraphIndex:
    pos = dict(zip(ids, range(len(ids))))
    bands = _bands(ids)
    separated = bands is not None
    if bands is None:
        bands = [0] * len(ids)
    adj = [[] for _ in ids]
    for (u, v), w in edges.items():
        i = pos[u]
        j = pos[v]
        adj[i] += j, w
        adj[j] += i, w
        if not -2 < bands[i] - bands[j] < 2:
            separated = False
    row_lines = {}
    try:
        for i, v in enumerate(ids):
            if v[0] in ("C", "HM"):
                row_lines.setdefault(v[1], []).append(i)
    except (TypeError, IndexError):  # ids that have no kind, such as ints
        row_lines = {}
    return _GraphIndex(ids, pos, adj, row_lines, separated)


def _bands(ids: list) -> list | None:
    """Each vertex's band, or None if some vertex has none: a kind other
    than the four, or a row that is no ``int``."""
    try:
        bands = [2 * v[1] + _BAND_PARITY[v[0]] for v in ids]
    except (KeyError, IndexError, TypeError):
        return None
    # a row that is no int makes its band, and so the sum, no int
    return bands if type(sum(bands)) is int else None


def _far_side(g: _GraphIndex, line: int) -> list:
    """(start, stop) slices of the sorted ``g.ids`` holding the vertices
    below row line ``line`` (band > 2 line), one per kind, since
    ``g.separated`` makes every row an ``int``."""
    ids = g.ids
    return [
        (bisect_left(ids, (kind, line + 1 - parity)), bisect_left(ids, (kind, math.inf)))
        for kind, parity in _BAND_PARITY.items()
    ]


def _line_caps(g: _GraphIndex, far) -> list:
    """A line search's ``best``: 0 on ``far``, inf elsewhere.  No name
    keeps it, or its tentative distances, past the search."""
    caps = [math.inf] * len(g.ids)
    for start, stop in far:
        caps[start:stop] = [0.0] * (stop - start)
    return caps


@dataclass
class TiledComplex:
    """Edge-weighted corner graph of a window of holed squares.

    Vertex ids: ('C', r, c) lattice corners, ('HM', r, c) horizontal-side
    midpoints on row line r, ('VM', r, c) vertical-side midpoints on column
    line c, ('H', r, c, pos) hole corners of cell (r, c), pos in NESW.
    ``build_grid`` makes one tuple per vertex, which the faces and the edge
    keys share, and writes each pentagon side once.

    Distance queries and the topology (``genus()`` too) share one integer
    index of the graph, built on the first query and dropped by ``add_edge``.
    Change ``edges`` only through ``add_edge``, or before the first query:
    both ignore a later direct write.  The index refuses, when built, lengths
    that are not positive and finite, which Dijkstra and the pruning need,
    and ids that do not compare with each other, which it sorts.
    ``build_grid``, ``add_diagonals`` and ``glue_to_Rb`` hand the index the
    sorted vertex list they already have, as a hint: ``add_edge`` drops it,
    and the index checks it against ``edges`` and sorts the ids afresh when
    they differ.  A copy made with ``dataclasses.replace`` starts with
    neither the index nor the hint.
    """

    pentagon: PentagonSolution
    rows: int
    cols: int
    edges: dict = field(default_factory=dict)  # sorted vertex pair -> length
    faces: list = field(default_factory=list)  # 5-tuples in (b,b,a,c,a) order
    glued_pairs: tuple = ()
    refined: bool = False
    _index = _order = None  # the index and the hint: class defaults, not fields

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
        old = self.edges.get(key)
        if old is not None and abs(old - length) > EDGE_TOL:
            raise _inconsistent(key, old, length)
        self.edges[key] = length
        self._index = self._order = None

    def _graph(self) -> _GraphIndex:
        if self._index is None:
            self._index = _index_graph(self.edges, self._order)
        return self._index

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
        chi, boundary = _topology(self)
        return (2 - chi - boundary) // 2


def _inconsistent(key, old: float, length: float) -> InconsistentEdgeLength:
    return InconsistentEdgeLength(f"edge {key} assigned inconsistent lengths {old} and {length}")


def _odd_sides(faces: list, num: dict) -> tuple:
    """(sides on an odd number of the 5-gon ``faces``, number of face
    vertices).  The faces are read as five columns of vertex numbers ``num``
    (faces of another length are refused); side {i, j} is the int
    i * n + j, i < j, toggled in a parity set."""
    n, odd = len(num), set()
    cols = [list(map(num.__getitem__, col)) for col in zip(*faces, strict=True)]
    for a, b, c, d, e in zip(*cols):
        for i, j in ((a, b), (b, c), (c, d), (d, e), (e, a)):
            k = i * n + j if i < j else j * n + i
            odd.remove(k) if k in odd else odd.add(k)
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
    edge_count = (5 * len(faces) + len(odd)) // 2
    return v - edge_count + len(faces), len(ends) - merges


def build_grid(b: float, rows: int, cols: int) -> TiledComplex:
    """Window of rows x cols holed squares tiled edge to edge.

    Each cell is four pentagon faces in (b,b,a,c,a) order around its hole.
    Every side is written once, straight under its sorted key: a cell writes
    its four ``a`` and four ``c`` sides and the ``b`` halves of its top and
    left sides, and the last row and column also write their bottom and
    right halves.  Each vertex is one tuple, shared by faces and edges, and
    the tuples are listed in sorted order as the index's hint: corners row
    by row, hole corners cell by cell (E < N < S < W), then the horizontal
    and the vertical midpoints.
    """
    check_int("rows", rows)
    check_int("cols", cols)
    if rows < 1 or cols < 1:
        raise NonPositiveSize(f"window must be at least 1x1, got {rows}x{cols}")
    p = solve_pentagon(b)
    pb, pa, pc = p.b, p.a, p.c
    t = TiledComplex(pentagon=p, rows=rows, cols=cols)
    edges, faces = t.edges, t.faces
    corner = [[("C", r, c) for c in range(cols + 1)] for r in range(rows + 1)]
    hmid = [[("HM", r, c) for c in range(cols)] for r in range(rows + 1)]
    vmid = [[("VM", r, c) for c in range(cols + 1)] for r in range(rows)]
    holes = []
    for r in range(rows):
        top, bottom, vm = corner[r], corner[r + 1], vmid[r]
        htop, hbottom = hmid[r], hmid[r + 1]
        last_row = r == rows - 1
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
    t._order = [v for row in corner for v in row] + holes + [v for row in hmid + vmid for v in row]
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
    edge map, each checked as ``add_edge`` checks it.
    """
    rep = {}
    pairs = []
    for r in range(t.rows):
        for c in range(0, t.cols - 1, 2):
            pairs.append(((r, c), (r, c + 1)))
            for pos, mirrored in _HOLE_MIRROR.items():
                rep[("H", r, c + 1, mirrored)] = ("H", r, c, pos)
    # a representative sits in an even column, so it is never a key of rep
    canon = rep.get
    edges = dict(t.edges)
    for key, w in t.edges.items():
        u, v = key
        if u in rep or v in rep:
            del edges[key]
            u, v = canon(u, u), canon(v, v)
            key = (u, v) if u <= v else (v, u)
            old = edges.setdefault(key, w)
            if old is not w:  # the key was there: check it, then overwrite
                if abs(old - w) > EDGE_TOL:
                    raise _inconsistent(key, old, w)
                edges[key] = w
    faces = [(canon(a, a), canon(b, b), canon(c, c), canon(d, d), canon(e, e))
             for a, b, c, d, e in t.faces]
    out = replace(t, edges=edges, faces=faces, glued_pairs=tuple(pairs))
    if t._order is not None:
        out._order = [v for v in t._order if v not in rep]
    return out


def _distances(g: _GraphIndex, sources, targets=None, best=None) -> list:
    """Dijkstra on the integer index: dist[i] for every settled vertex i,
    None elsewhere.  With a non-empty target set, stops once all targets are
    settled; an empty one stops nothing.

    ``best`` holds each vertex's best tentative distance, and a neighbour is
    pushed only when it improves on it (with lengths >= 0 a settled vertex
    never does); an entry it improved on stays in the heap and is skipped
    when popped.  Vertices settle in (d, i) order, so the settled set at an
    early stop is the same as with a push per edge.  A caller's ``best`` is
    used in place as a cap per vertex: no vertex is reached at or above its
    cap, and caps above every distance change nothing."""
    adj = g.adj
    dist = [None] * len(adj)
    if best is None:
        best = [math.inf] * len(adj)
    for s in sources:
        best[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    remaining = set(targets) if targets else None
    while heap:
        d, v = heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
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
    src = [g.vertex(s) for s in sources]
    # a target missing from the complex is never settled (-1 is no vertex),
    # so the search then runs to the end
    tgt = None if targets is None else {g.pos.get(v, -1) for v in targets}
    dist = _distances(g, src, tgt)
    return {g.ids[i]: d for i, d in enumerate(dist) if d is not None}


def discrete_distance(t: TiledComplex, x, y) -> float:
    """Shortest edge-path length between two corners of the complex."""
    g = t._graph()
    i = g.vertex(x)
    if x == y:
        return 0.0
    j = g.pos.get(y)
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

    Two checks: (1) the Dijkstra distance between vertical-line corners n
    rows apart equals 2nb; (2) the multi-source line-to-line distance shows
    every edge path crossing the n horizontal lines has length >= 2nb.
    Both hold to within CERT_TOL.  Corners stay one row inside the window
    boundary (safety margin).

    The line search runs up from the bottom line, so its distance L(w), or
    ``min_cross`` where it stopped short of w, bounds dist(w, y) from below.
    The corner search is the same Dijkstra started from the caps
    U (1 + 4 gamma_N) - L(w), U = 2nb + CERT_TOL, which its relaxation never
    reaches.  A float sum of k <= N lengths is within gamma_N = Nu / (1 - Nu)
    of exact (Higham 4.2; N vertices, u = 2^-53) and a cap's one subtraction
    within an ulp, far inside the slack, so no vertex of a path below U is
    cut and a result below U is the full search's to the bit, whatever order
    ties pop in.  Others fall back to the full search.

    When the index is ``separated``, the vertices below the source line
    r0 + n are capped at 0 and never settle: a path that dips below the line
    comes back through a source, so the vertices on or above it settle in
    the same order, up to the same stop and with the same bits, ``min_cross``
    included.  The corner search takes L = 0 below the line, a valid lower
    bound since no distance is negative.  Otherwise nothing is cut.
    """
    _check_row_separation(n)
    if n > t.rows - 2:
        raise ScaleTooLarge(
            f"window with {t.rows} rows is too short for n={n} plus margin"
        )
    r0 = max(1, (t.rows - n) // 2)
    x, y = t.alpha_corner(r0), t.alpha_corner(r0 + n)
    expected = 2.0 * n * t.b
    g = t._graph()
    i, j, top = g.vertex(x), g.pos.get(y), g.row_lines[r0]
    far = _far_side(g, r0 + n) if g.separated else ()
    lower = None if j is None else _distances(g, g.row_lines[r0 + n], top, _line_caps(g, far))
    if lower is None or lower[i] is None:
        raise Unreachable(f"no edge path connects {x} and {y}")
    min_cross = min(lower[k] for k in top if lower[k] is not None)
    bound, nu = expected + CERT_TOL, len(lower) * 2.0**-53
    limit = bound * (1.0 + 4.0 * nu / (1.0 - nu))
    for k, v in enumerate(lower):
        lower[k] = limit - (min_cross if v is None else v)
    for start, stop in far:
        lower[start:stop] = [limit] * (stop - start)
    d = _distances(g, [i], [j], best=lower)[j]
    if d is None or not d < bound:
        d = discrete_distance(t, x, y)
    return VerticalCertificate(
        b=t.b,
        n=n,
        window=(t.rows, t.cols),
        refined=t.refined,
        distance=d,
        expected=expected,
        dijkstra_equality=abs(d - expected) < CERT_TOL,
        row_crossing_bound=min_cross >= expected - CERT_TOL,
    )


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
    ``add_edge`` checks, each length once."""
    p = t.pentagon
    sides = (p.b, p.b, p.a, p.c, p.a)
    diag = [(i, (i + 2) % 5, _hypotenuse(sides[i], sides[(i + 1) % 5])) for i in range(5)]
    for _, _, length in diag:
        check_positive_finite("edge length", length)
    edges = dict(t.edges)
    for face in t.faces:
        for i, j, length in diag:
            u, v = face[i], face[j]
            key = (u, v) if u <= v else (v, u)
            old = edges.setdefault(key, length)
            if old is not length:  # the key was there: check it, then overwrite
                if abs(old - length) > EDGE_TOL:
                    raise _inconsistent(key, old, length)
                edges[key] = length
    out = replace(t, edges=edges, faces=list(t.faces), refined=True)
    # diagonals join corners of one face, so the vertices stay the same
    out._order = t._order
    return out

