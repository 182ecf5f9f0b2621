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
certifies every span without indexing the window (see
``certify_vertical_minimizing``), and that window's faces give the
topology: the Euler characteristic and the boundary count add over the
strips, which meet in row lines, so ``genus()`` neither indexes the window
nor scans its faces (see ``_topology``).  The constructors check each length
as they write it and leave a record on the edge map: the pentagon, rows,
cols and steps describe their window fully, so the integer layer
(``_tiled_graph``) numbers its graph, and the one-row window's, by
arithmetic, building no vertex tuple and looking none up.  The map drops the
record, with the index and the strip distance, on any write, and the steps
keep it only while the faces, pentagon, rows and cols are the record's; so
distances, certificates and the topology see every edit, and the index
checks each length of any other window once (see ``TiledComplex``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partialmethod
from itertools import chain, count

from ._tiled_graph import (_diagonals, _distances, _GraphIndex, _index_graph, _line_distance, _numbered,
                           _strip_line_distance)
from .errors import InconsistentEdgeLength, InconsistentInput, ScaleTooLarge, Unreachable, check_int, check_number
from .hyp_core import PentagonSolution, solve_pentagon

EDGE_TOL = 1e-12
CERT_TOL = 1e-9

_HOLE_MIRROR = {"N": "N", "S": "S", "E": "W", "W": "E"}


def _written(edges, method, *args, **kwargs):
    """Drop the cached work of ``edges``, then call ``method``."""
    edges._index = edges._made = edges._strip = None
    return method(edges, *args, **kwargs)


class _EdgeMap(dict):
    """A complex's edge map: a ``dict`` whose every mutator first drops its
    cached work: the graph index ``_index``, the strip distance ``_strip``
    (see ``certify_vertical_minimizing``) and the constructors' record
    ``_made`` of how they made the window: (sorted vertex list, faces as a
    tuple, pentagon, rows, cols, *steps), the steps being the names of
    ``add_diagonals`` and ``glue_to_Rb`` in the order they ran.  The
    constructors write through ``dict``'s own methods and set the record
    after, and a step extends it only while the complex's faces, pentagon,
    rows and cols are still the recorded ones (see ``_record``), so it
    marks a window that they made, unwritten since, whose edges are those
    that ``_tiled_graph._numbered`` numbers from the record and each of
    whose row strips is, rows renumbered, the one-row window that it
    numbers, with the same lengths.  It keeps no reference
    to its complex, so a complex is freed without waiting for the cycle
    collector.  All three are instance attributes, not ``__slots__``, so
    the map pickles with every protocol."""


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

    Distance queries share one integer index of the graph, built on the
    first query and kept on ``edges``, which drops it on any write: through
    ``add_edge`` or straight into the map, before or after a query.  The
    topology (``genus()`` too) is counted on that index, but for a window
    that the constructors' record still describes, whose counts come from
    the faces of its one-row window (see ``_topology``).  ``build_grid``,
    ``add_diagonals`` and ``glue_to_Rb`` check each length as they write
    it, and leave on the map, also dropped on a write, a record of how they
    made the window: the sorted vertex list and the faces, then the
    pentagon, rows, cols and steps, which the certificates and the topology
    check against the complex's fields.  A
    step run on a complex whose faces were edited since, or whose pentagon,
    rows or cols differ from the record's, leaves no record.
    With the record the index takes the list as its ids and its adjacency
    from ``_numbered``, reading no edge and checking no length; without it,
    it refuses each length that is no positive finite number (a bool is
    none), as Dijkstra needs, and sorts the ids, refusing ids that do not
    compare.  A plain ``dict`` given as ``edges``, as a
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
        check_number("edge length", length)
        try:
            key = (u, v) if u <= v else (v, u)
        except TypeError:
            raise InconsistentInput(f"vertex ids {u!r} and {v!r} do not compare") from None
        _written(self.edges, _merge, key, length)  # checked as the constructors check

    def _graph(self) -> _GraphIndex:
        edges = self.edges
        if edges._index is None:
            made = edges._made
            if made:
                nums, adj = _numbered(*made[2:5], made[5:])
                edges._index = _GraphIndex(made[0], dict(zip(made[0], nums)), adj)
            else:
                edges._index = _index_graph(edges)
        return edges._index

    def alpha_column(self) -> int:
        return self.cols // 2

    def alpha_corner(self, row_line: int):
        return ("C", row_line, self.alpha_column())

    # -- topology: from the one-row window, or on the index (see ``_topology``)

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
    """(Euler characteristic, boundary components) of ``t``'s faces.

    While the constructors' record still describes ``t`` (see ``_record``)
    and ``t`` has more than one row, its counts come from its one-row
    window: chi_1 and beta_1, counted as below on the faces of
    ``build_grid(t.b, 1, t.cols)``, glued if the record has that step
    (diagonals change no face, so that step is not replayed), give
    rows * chi_1 - (rows - 1) and rows * beta_1 - (rows - 1).  Proof: row
    strip k of ``t`` is that window with its rows renumbered (see
    ``certify_vertical_minimizing``), and strips k and k + 1 meet in row
    line k + 1 alone: an arc, chi = 1, on the outer boundary circle of
    each.  Join the strips in order.  By chi(A u B) = chi(A) + chi(B) -
    chi(A n B) (Hatcher, Algebraic Topology, 2.2) each join subtracts 1
    from chi.  Each also merges two boundary circles into one: the arc's
    sides, on one face in each strip, lie on two faces and on no boundary
    after it, the rest of the two circles joins at the arc's ends, and the
    next row line lies on the merged circle.  So the window's index is not
    built and its faces are not scanned.

    Any other complex is counted on its own faces.  V counts the face
    vertices and E the face sides: an edge that is no side (a diagonal, or
    one to a vertex on no face) is no part of the surface.  Sides are
    numbered on the index's ids, then each face vertex that no edge
    touches.  A side on k faces is (k + k % 2) / 2 edges, k % 2 of them on
    the boundary (a glued pair's two ``a`` edges at their shared midpoint
    are one side on four faces).  The boundary components are the odd
    sides' ends less the merges of a union-find over them."""
    made, rows = _record(t), t.rows
    if made and rows > 1:
        strip = build_grid(t.b, 1, t.cols)
        chi, boundary = _topology(glue_to_Rb(strip) if "glue_to_Rb" in made[5:] else strip)
        return rows * chi - (rows - 1), rows * boundary - (rows - 1)
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
    and edges, listed in sorted order as the index's ids: corners row by
    row, hole corners cell by cell (E < N < S < W), then the horizontal and
    the vertical midpoints.  The list heads the record left on the edge
    map, with the faces as a tuple, the pentagon, rows and cols; the lengths
    are the pentagon's, which ``solve_pentagon`` makes positive and finite,
    so none is checked.
    """
    check_int("rows", rows, 1)
    check_int("cols", cols, 1)
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
                     tuple(faces), p, rows, cols)
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
    within a row, the same columns in every row, so each row strip is the
    one-row window glued the same way.  While the edge map's record still
    describes ``t`` (see ``_record``), the copy's record is that record with
    the glued-away hole corners left out, the glued faces and the step (see
    ``certify_vertical_minimizing``); any other complex gives a copy
    without one.
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
    made = _record(t)
    if made:
        edges._made = ([v for v in made[0] if v not in rep], tuple(faces), *made[2:], "glue_to_Rb")
    return replace(t, edges=edges, faces=faces, glued_pairs=tuple(pairs))


def _record(t: TiledComplex):
    """The record on ``t.edges`` while it still describes ``t``, its faces,
    pentagon, rows and cols being the complex's, else None.  The steps
    write from these fields (the diagonals from the pentagon, the glued
    pairs from rows and cols, both over the faces), so only then is the
    window they make the record's with their step added."""
    made = t.edges._made
    return made if made and made[1:5] == (tuple(t.faces), t.pentagon, t.rows, t.cols) else None


def _merge(edges: _EdgeMap, key, length: float) -> None:
    """Write ``length`` under ``key`` through ``dict``'s own methods,
    checked against a length already there as ``add_edge`` checks it."""
    old = dict.setdefault(edges, key, length)
    if old is not length:  # the key was there: check it, then overwrite
        if abs(old - length) > EDGE_TOL:
            raise InconsistentEdgeLength(f"edge {key} assigned inconsistent lengths {old} and {length}")
        dict.__setitem__(edges, key, length)


def dijkstra(t: TiledComplex, sources, targets=None) -> dict:
    """Exact shortest-path distances from the source set; stops early when
    all targets are settled if a non-empty target set is given.  Sources or
    targets that are no iterable of vertex ids raise ``InconsistentInput``."""
    g = t._graph()
    # a target missing from the complex is never settled (-1 is no vertex),
    # so the search then runs to the end
    try:
        starts, ends = [g.vertex(s) for s in sources], {g.pos.get(v, -1) for v in targets or ()}
    except TypeError:  # no iterable, or an id that is no dict key
        raise InconsistentInput(
            f"sources and targets must be iterables of vertex ids, got {sources!r} and {targets!r}") from None
    dist = _distances(g.adj, starts, ends)
    return {g.ids[i]: d for i, d in enumerate(dist) if d is not None}


def discrete_distance(t: TiledComplex, x, y) -> float:
    """Shortest edge-path length between two corners of the complex."""
    g = t._graph()
    i, j = g.vertex(x), g.pos.get(y)
    d = None if j is None else _distances(g.adj, [i], [j])[j]
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
    pairs the same columns in every row.  That window is searched as the
    record's arithmetic numbers it (``_tiled_graph._numbered`` on the
    recorded pentagon, cols and steps), which is the constructors' window:
    the same edges and lengths, to the bit, in the same vertex order, as the
    tests check on every kind of window.  A search from line k + 1 settles,
    before its first vertex of line k, only vertices of strip k and below
    line k + 1, and those below reach strip k only through the sources, so
    it computes the one-row window's floats; and it stops at that first
    vertex, which settles at the least distance on the line (vertices settle
    in order of distance), with the same bits.  So that window's
    line-to-line distance (see ``_strip_distance``), cached on ``edges``, is
    every s_k = s, to the bit; its search builds no window and never
    indexes ``t``.  By the
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
    check_int("row separation", n, 1)
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
    distance of the one-row window made as ``t`` was, numbered from the
    record's cols and steps, cached there; for any other window -inf, which
    no strip test passes."""
    edges, made = t.edges, t.edges._made
    if not made or made[2:5] != (t.pentagon, t.rows, t.cols):
        return -math.inf
    if edges._strip is None:
        edges._strip = _strip_line_distance(t.pentagon, t.cols, made[5:])
    return edges._strip


def add_diagonals(t: TiledComplex) -> TiledComplex:
    """Refinement adding the five pentagon diagonals to every face.

    Diagonal (i, i+2) cuts off the right-angled triangle whose legs are the
    sides i and i+1 of the (b, b, a, c, a) pentagon, so its length is their
    hypotenuse (see ``_hypotenuse``): no walk places the vertices, and the
    lengths hold for every b that ``solve_pentagon`` accepts.

    The diagonals go straight into a copy of ``t.edges``, checked as
    ``add_edge`` checks, each length once; every face gets the same five
    lengths, so each row strip is the one-row window refined the same way.
    While the edge map's record still describes ``t`` (see ``_record``), the
    step is added to the copy's record (see ``certify_vertical_minimizing``);
    any other complex gives a copy without one."""
    diag = [(i, (i + 2) % 5, length) for i, length in enumerate(_diagonals(t.pentagon))]
    for _, _, length in diag:
        check_number("edge length", length)
    edges, put = _EdgeMap(t.edges), dict.setdefault
    for face in t.faces:
        for i, j, length in diag:
            u, v = face[i], face[j]
            key = (u, v) if u <= v else (v, u)
            if put(edges, key, length) is not length:  # the key was there
                _merge(edges, key, length)
    # diagonals join corners of one face, so the vertices and faces stay the same
    made = _record(t)
    if made:
        edges._made = (*made, "add_diagonals")
    return replace(t, edges=edges, faces=list(t.faces), refined=True)

