"""The integer layer of ``tiled_surface``: graph indexes, the Dijkstra loop,
and the adjacency of a window that the constructors made, by arithmetic.

A window that ``build_grid``, ``add_diagonals`` or ``glue_to_Rb`` made is
fully described by their record: the pentagon, rows, cols and steps.
``_numbered`` writes its adjacency from those alone, in the vertex order of
the record's sorted vertex list, with no vertex tuple made or looked up;
``_index_graph`` indexes any other edge map from its keys.
"""

from __future__ import annotations

import heapq
import math

from .errors import InconsistentInput, NonPositiveLength, Unreachable, _Record, check_number


class _GraphIndex(_Record):
    """Integer form of a complex's corner graph.

    Vertex i is ids[i]; ids are sorted, so the order of the ints is the order
    of the ids and heap ties break as they would on the ids themselves.
    adj[i] is flat, [j0, length0, j1, length1, ...] over the edges at i, so
    no tuple is made per edge.  Only distance queries and the topology build
    an index of a window: from its edge map (see ``_index_graph``), or, for
    a window the constructors made, from their record (see ``_numbered``).
    A record on ``errors._Record``, so making the class at import costs no
    generated code.
    """

    __slots__ = ("ids", "pos", "adj")

    def __init__(self, ids: list, pos: dict, adj: list):
        self._set_fields(ids, pos, adj)

    def vertex(self, v) -> int:
        i = self.pos.get(v)
        if i is None:
            raise Unreachable(f"vertex {v} not present in the complex")
        return i


def _index_graph(edges: dict) -> _GraphIndex:
    """Index of the graph with these edges, on its sorted ids.  Each length
    is refused as ``add_edge`` refuses it, naming the key of a refused edge
    only.  Keys that are no pairs of ids, and ids that do not compare, such
    as an int beside tuples, raise ``InconsistentInput``."""
    try:
        for key, w in edges.items():
            check_number("length", w)
    except NonPositiveLength as exc:
        raise NonPositiveLength(f"edge {key} {exc}") from None
    try:
        ids = sorted({v for e in edges for v in e})
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


def _hypotenuse(u: float, v: float) -> float:
    """Hypotenuse of the right-angled triangle with legs u and v, by
    hyperbolic Pythagoras: cosh d = cosh u * cosh v.  Where that product
    overflows, d = u + v - ln 2 + log1p(e^-2u) + log1p(e^-2v), which drops
    only a term of order e^-2d.  Symmetric in u and v to the bit: the
    product commutes, and where it overflows the longer leg exceeds 355, so
    its log1p term lies below half an ulp of the sum and adds nothing."""
    ch = math.cosh(u) * math.cosh(v)
    if ch < math.inf:
        return math.acosh(ch)
    return u + v - math.log(2.0) + math.log1p(math.exp(-2.0 * u)) + math.log1p(math.exp(-2.0 * v))


def _diagonals(p) -> list:
    """Length of diagonal (i, i + 2) of the (b, b, a, c, a) pentagon, for
    i = 0..4: the hypotenuse of sides i and i + 1."""
    sides = (p.b, p.b, p.a, p.c, p.a)
    return [_hypotenuse(sides[i], sides[(i + 1) % 5]) for i in range(5)]


def _numbered(p, rows: int, cols: int, steps) -> tuple:
    """(vertex numbers, flat adjacency (see ``_GraphIndex``)) of the window
    that ``build_grid(p.b, rows, cols)`` and then ``steps``, the names of
    ``add_diagonals`` and ``glue_to_Rb``, make.  The numbers are one list,
    ``range`` of the vertex count, from which every entry takes its int, so
    each vertex's number is one object, which an index's ``pos`` shares.
    The vertices are numbered as the record's
    sorted vertex list: corners row by row; hole corners cell by cell,
    E < N < S < W, and in a glued window only the representatives, those
    of the even columns, which a cell in an odd column takes with E and W
    swapped; then the horizontal and the vertical midpoints.

    Each cell adds its vertices' neighbours in batches, with no entry
    twice: its top and left sides and hole (bottom and right sides in the
    last row and column), and with ``add_diagonals`` the five diagonals of
    each face, their lengths from ``_diagonals`` as the step takes them.  A
    glued-away cell shares its left column, its four ``c`` sides and six
    diagonals with its representative, so it adds only what the
    representative lacks; the shared diagonals' two lengths agree to the
    bit, ``_hypotenuse`` being symmetric.  Gluing twice or refining twice
    changes no edge, and the two steps commute, so only their presence
    counts."""
    glued, refined = "glue_to_Rb" in steps, "add_diagonals" in steps
    pb, pa, pc = p.b, p.a, p.c
    if refined:
        d0, d1, d2, d3, d4 = _diagonals(p)
    w = cols + 1
    cells = (cols + 1) // 2 if glued else cols  # hole cells per row
    hole = w * (rows + 1)
    hm = hole + 4 * rows * cells
    vm = hm + (rows + 1) * cols
    nums = list(range(vm + rows * w))
    adj = [[] for _ in nums]
    for r in range(rows):  # each row's numbers as slices of nums, then each cell's from them
        i, j, k = r * w, hm + r * cols, hole + 4 * r * cells
        top, bottom, vms = nums[i:i + w], nums[i + w:i + 2 * w], nums[vm + i:vm + i + w]
        htop, hbottom, quads = nums[j:j + cols], nums[j + cols:j + 2 * cols], nums[k:k + 4 * cells]
        for c, c00, c01, c10, c11, h0, h1, v0, v1 in zip(range(cols), top, top[1:], bottom, bottom[1:],
                                                         htop, hbottom, vms, vms[1:]):
            odd = glued and c % 2
            k = 4 * (c >> 1 if glued else c)
            if odd:  # x: the W corner
                x, n, s, e = quads[k:k + 4]
            else:
                e, n, s, x = quads[k:k + 4]
            adj[h0] += c00, pb, c01, pb, n, pa
            adj[h1] += s, pa
            adj[v1] += e, pa
            adj[c00] += h0, pb, v0, pb
            adj[c01] += h0, pb
            adj[c10] += v0, pb
            if odd:  # its W corner, the representative's E, has these sides already
                adj[v0] += c00, pb, c10, pb
                adj[e] += v1, pa
                adj[n] += h0, pa
                adj[s] += h1, pa
            else:
                adj[v0] += c00, pb, c10, pb, x, pa
                adj[e] += v1, pa, n, pc, s, pc
                adj[n] += h0, pa, e, pc, x, pc
                adj[s] += h1, pa, e, pc, x, pc
                adj[x] += v0, pa, s, pc, n, pc
            if r == rows - 1:
                adj[h1] += c10, pb, c11, pb
                adj[c10] += h1, pb
                adj[c11] += h1, pb
            if refined:  # faces (h0, c01, v1, e, n), (v1, c11, h1, s, e), (h1, c10, v0, W, s), (v0, c00, h0, n, W)
                adj[h0] += v1, d0, e, d3, v0, d0, x, d2
                adj[v1] += h0, d0, n, d2, h1, d0, s, d3
                adj[h1] += v1, d0, e, d2, v0, d0, x, d3
                adj[c01] += e, d1, n, d4
                adj[c11] += s, d1, e, d4
                adj[e] += c01, d1, h0, d3, h1, d2, c11, d4
                if odd:  # the diagonals from its left column to n, s and W are the representative's
                    adj[v0] += h1, d0, h0, d0
                    adj[n] += v1, d2, c01, d4
                    adj[s] += c11, d1, v1, d3
                    adj[x] += h1, d3, h0, d2
                else:
                    adj[v0] += h1, d0, s, d2, h0, d0, n, d3
                    adj[c00] += n, d1, x, d4
                    adj[c10] += x, d1, s, d4
                    adj[n] += v1, d2, c01, d4, c00, d1, v0, d3
                    adj[s] += c11, d1, v1, d3, v0, d2, c10, d4
                    adj[x] += c10, d1, h1, d3, h0, d2, c00, d4
        c01, c11, v1 = top[cols], bottom[cols], vms[cols]  # the right side of the last column
        adj[v1] += c01, pb, c11, pb
        adj[c01] += v1, pb
        adj[c11] += v1, pb
    return nums, adj


def _distances(adj: list, sources, targets=(), first=False) -> list:
    """Dijkstra on a flat adjacency (see ``_GraphIndex``): dist[i] for every
    settled vertex i, None elsewhere.  With a non-empty target set, stops
    once all targets are settled, or with ``first`` once one is; an empty
    one stops nothing.

    ``best`` holds each vertex's best tentative distance, and a neighbour is
    pushed only when it improves on it (with lengths >= 0 a settled vertex
    never does); an entry it improved on stays in the heap and is skipped
    when popped.  Vertices settle in (d, i) order, so the settled set at an
    early stop is the same as with a push per edge, and the distances do
    not depend on the order of the entries of adj[i]."""
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


def _nearest(adj: list, sources: list, targets: list) -> float:
    """Least distance from ``sources`` to ``targets``: one search, which
    stops at the first target that settles.  Vertices settle in order of
    distance, so that target's distance is the least, with the same bits."""
    dist = _distances(adj, sources, targets, True)
    return min(dist[k] for k in targets if dist[k] is not None)


def _line_distance(g: _GraphIndex, line: int, source: int) -> float:
    """Least distance from row line ``source`` to row line ``line``, each its
    lattice corners and horizontal-side midpoints, found on the ids when the
    search runs."""
    top, bottom = ([i for i, v in enumerate(g.ids) if v[:2] in (("C", r), ("HM", r))] for r in (line, source))
    return _nearest(g.adj, bottom, top)


def _strip_line_distance(p, cols: int, steps) -> float:
    """Least distance from row line 1 to row line 0 of the one-row window
    that ``_numbered(p, 1, cols, steps)`` numbers, its lines found by
    arithmetic: corners 0..cols lie on line 0 and the next cols + 1 on line
    1; the horizontal midpoints, cols per line, come just before the
    cols + 1 vertical midpoints that end the numbering."""
    adj = _numbered(p, 1, cols, steps)[1]
    w = cols + 1
    hm = len(adj) - 2 * cols - w
    return _nearest(adj, [*range(w, 2 * w), *range(hm + cols, hm + 2 * cols)],
                    [*range(w), *range(hm, hm + cols)])
