"""Shared test fixtures and the reference implementations tests compare
against."""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
import itertools
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hypladder import pants_graph
from hypladder.errors import (
    InconsistentInput,
    NonPositiveSize,
    NotHyperbolic,
    NumericalInstability,
)
from hypladder.fenchel_nielsen import TWO_PI, PantsCuffs
from hypladder.hyp_core import MobiusMap, solve_pentagon
from hypladder.pants_graph import TrivalentGraph
from hypladder.tiled_surface import (
    CERT_TOL,
    EDGE_TOL,
    TiledComplex,
    VerticalCertificate,
    dijkstra,
)


def _inject_edge(t, u, v, length):
    """Copy of ``t`` with one extra, possibly spurious, edge.

    Bypasses ``add_edge``'s length-consistency check, so falsifiability tests
    can plant a shortcut; the copy starts without a graph index.
    """
    key = tuple(sorted((u, v)))
    return dataclasses.replace(t, edges={**t.edges, key: length})


# per-face tiling: build_grid and _cell_faces kept verbatim from the
# implementation that passed every face side through TiledComplex.add_edge
# (its body is _oracle_add_edge), so that each shared side is written twice
# and its two lengths checked against each other


def _oracle_add_edge(t, u, v, length: float) -> None:
    key = tuple(sorted((u, v)))
    old = t.edges.get(key)
    if old is not None and abs(old - length) > EDGE_TOL:
        raise ValueError(
            f"edge {key} assigned inconsistent lengths {old} and {length}"
        )
    t.edges[key] = length


def _cell_faces(r: int, c: int):
    """The four pentagon faces of cell (r, c), each in (b,b,a,c,a) order."""
    C, HM, VM, H = "C", "HM", "VM", "H"
    return [
        ((HM, r, c), (C, r, c + 1), (VM, r, c + 1), (H, r, c, "E"), (H, r, c, "N")),
        ((VM, r, c + 1), (C, r + 1, c + 1), (HM, r + 1, c), (H, r, c, "S"), (H, r, c, "E")),
        ((HM, r + 1, c), (C, r + 1, c), (VM, r, c), (H, r, c, "W"), (H, r, c, "S")),
        ((VM, r, c), (C, r, c), (HM, r, c), (H, r, c, "N"), (H, r, c, "W")),
    ]


def oracle_build_grid(b: float, rows: int, cols: int) -> TiledComplex:
    """Window of rows x cols holed squares tiled edge to edge."""
    if rows < 1 or cols < 1:
        raise NonPositiveSize(f"window must be at least 1x1, got {rows}x{cols}")
    p = solve_pentagon(b)
    side_lengths = (p.b, p.b, p.a, p.c, p.a)
    t, faces = TiledComplex(pentagon=p, rows=rows, cols=cols), []
    for r in range(rows):
        for c in range(cols):
            for face in _cell_faces(r, c):
                faces.append(face)
                for i in range(5):
                    _oracle_add_edge(t, face[i], face[(i + 1) % 5], side_lengths[i])
    t.faces = tuple(faces)
    return t


def oracle_window(t: TiledComplex) -> tuple:
    """A copy of ``t`` with a plain-dict edge map, which no constructor
    made, so its searches run on the index of its edge map; and its row
    lines, r -> the corners and horizontal midpoints on row line r, each
    listed once per window."""
    copy = dataclasses.replace(t, edges=dict(t.edges))
    lines = {}
    for v in copy.vertices():
        if v[0] in ("C", "HM"):
            lines.setdefault(v[1], []).append(v)
    return copy, lines


def oracle_certificate(t: TiledComplex, n: int, window: tuple | None = None) -> VerticalCertificate:
    """``certify_vertical_minimizing`` as it was defined before its corner
    search was bounded, on the public ``dijkstra`` alone, run on
    ``oracle_window(t)`` (or ``window``, made by it once for many n): the
    full search from the top corner x to the bottom corner y, and the
    line-to-line distance from the top row line.  Assumes a window tall
    enough for n."""
    copy, lines = window or oracle_window(t)
    r0 = max(1, (t.rows - n) // 2)
    col = t.cols // 2
    x, y = ("C", r0, col), ("C", r0 + n, col)
    expected = 2.0 * n * t.b
    d = dijkstra(copy, [x], [y])[y]
    top, bottom = lines.get(r0, []), lines.get(r0 + n, [])
    line = dijkstra(copy, top, bottom)
    min_cross = min(line[v] for v in bottom if v in line)
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


def capped_dijkstra(adj: list, sources, targets=(), caps=None, first=False) -> list:
    """Dijkstra with a cap per vertex, on a graph index's flat adjacency
    ``adj`` (adj[i] = [j0, length0, j1, length1, ...]): the library's
    search as it was when it took caps, with its stop rules.  dist[i] for
    every settled vertex i, None elsewhere; stops once all of a non-empty
    target set is settled, or with ``first`` once one target is.

    ``caps`` holds each vertex's best tentative distance and is used in
    place: a neighbour is pushed only when it improves on it, so no vertex
    is reached at or above its cap, and caps above every distance change
    nothing."""
    dist = [None] * len(adj)
    best = [math.inf] * len(adj) if caps is None else caps
    for s in sources:
        best[s] = 0.0
    heap = [(0.0, s) for s in sources]
    heapq.heapify(heap)
    remaining = set(targets)
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None:
            continue
        dist[v] = d
        if v in remaining:
            remaining.discard(v)
            if first or not remaining:
                break
        for w, length in zip(adj[v][::2], adj[v][1::2]):
            nd = d + length
            if nd < best[w]:
                best[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


# topology kept verbatim from the implementation that counted it on vertex
# tuples: a dict of face sides keyed by sorted vertex pairs, V from the edge
# endpoints, and a union-find over the odd sides


def _face_edge_incidence(t: TiledComplex) -> dict:
    """Vertex pair -> number of faces it bounds.  A pair on k faces is
    ceil(k/2) edges: gluing can merge two edges with the same endpoints
    (the ``a`` edges at a glued pair's shared midpoint) into a pair on
    four faces, and k % 2 of them lie on the boundary."""
    inc = {}
    for face in t.faces:
        for i in range(5):
            u, v = face[i], face[(i + 1) % 5]
            key = (u, v) if u <= v else (v, u)
            inc[key] = inc.get(key, 0) + 1
    return inc


def _boundary_component_count(inc: dict) -> int:
    boundary = [e for e, k in inc.items() if k % 2]
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in boundary:
        for x in (u, v):
            parent.setdefault(x, x)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(u) for e in boundary for u in e})


def oracle_topology(t: TiledComplex) -> tuple:
    """(Euler characteristic, boundary components, genus) of ``t``, read
    from its public ``faces`` alone.  V counts face vertices only: an edge
    that is no face side, and its ends off the faces, are no part of the
    surface."""
    inc = _face_edge_incidence(t)
    edge_count = sum((k + 1) // 2 for k in inc.values())
    chi = len(set().union(*t.faces)) - edge_count + len(t.faces)
    boundary = _boundary_component_count(inc)
    return chi, boundary, (2 - chi - boundary) // 2


# brute-force canonical key: the n! search over full (n, edges, half, deco)
# keys, kept verbatim from the implementation it pins down, but for the
# bridges, which it finds by its own search rather than by the library's


def oracle_bridges(g: TrivalentGraph) -> tuple:
    """Edges (i, j), i != j, whose removal (one copy of it) disconnects j
    from i, by a breadth-first search on what is left."""
    out = set()
    for idx, (i, j) in enumerate(g.edges):
        rest = g.edges[:idx] + g.edges[idx + 1:]
        seen, frontier = {i}, [i]
        while frontier:
            nxt = []
            for v in frontier:
                for a, b in rest:
                    for u, w in ((a, b), (b, a)):
                        if u == v and w not in seen:
                            seen.add(w)
                            nxt.append(w)
            frontier = nxt
        if j not in seen:
            out.add((i, j))
    return tuple(sorted(out))


def brute_force_key(g: TrivalentGraph, order: str = "min") -> tuple:
    pick = min if order == "min" else max
    bridges = oracle_bridges(g)
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in g.edges))
        half = tuple(g.half[perm.index(v)] for v in range(g.n))
        deco = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in bridges))
        key = (g.n, edges, half, deco)
        best = key if best is None else pick(best, key)
    return best


# the enumeration the library used before it walked the pants graph, kept
# verbatim but for its connectivity test, which is a search of its own: each
# edge multiset of each leg distribution, keyed if the graph is connected


def oracle_connected(n: int, edges) -> bool:
    """Whether the graph on n vertices with these edges is connected; the
    empty graph is not."""
    if n == 0:
        return False
    seen = {0}
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            if i in seen and j not in seen:
                seen.add(j)
                changed = True
            if j in seen and i not in seen:
                seen.add(i)
                changed = True
    return len(seen) == n


def edge_multisets(free):
    """Each multiset of internal edges (i, j), i <= j, that fills exactly
    free[v] cuff ends at every vertex v, once, as a sorted tuple: the lowest
    vertex with free ends takes partners at or above itself in
    non-decreasing order, a loop taking two of its ends."""
    free = list(free)
    n = len(free)

    def extend(v, low):
        while v < n and not free[v]:
            v = low = v + 1
        if v == n:
            yield ()
            return
        for j in range(low, n):
            if free[j] >= (2 if j == v else 1):
                free[v] -= 1
                free[j] -= 1
                for tail in extend(v, j):
                    yield ((v, j),) + tail
                free[v] += 1
                free[j] += 1

    return extend(0, 0)


def enumerated_classes(g: int, b: int) -> dict:
    """Canonical key -> class representative for every decomposition of
    S_{g,b}, in key order, with no complexity cap.

    Distributes boundary legs over the 2g-2+b pants as a non-increasing
    vector (every class has such a labelling), generates each edge multiset
    that fills the remaining cuff ends once, and keeps the connected graphs.
    Each has genus g: n = 2g-2+b pants with 3n-b cuff ends make E = 3g-3+b
    edges, so the cycle rank E-n+1 is g.  Keys are ``pants_graph``'s, so
    they follow ``labelling``.
    """
    n = 2 * g - 2 + b
    classes = {}
    for half in itertools.combinations_with_replacement(range(3, -1, -1), n):
        if sum(half) != b:
            continue
        for edges in edge_multisets([3 - h for h in half]):
            if oracle_connected(n, edges):
                key = pants_graph.canonical_key(TrivalentGraph(n=n, edges=edges, half=half))
                if key not in classes:
                    classes[key] = pants_graph.from_key(key)
    return {k: classes[k] for k in sorted(classes)}


@contextlib.contextmanager
def labelling(order: str):
    """Run ``pants_graph`` with the brute-force ``order`` relabelling as its
    canonical key ("min" keeps the library's own key).  The max relabelling
    is a second, independent labelling scheme: the library must find the
    same classes, moves and diameters under it."""
    with pytest.MonkeyPatch.context() as m:
        if order == "max":
            m.setattr(pants_graph, "canonical_key", lambda g: brute_force_key(g, "max"))
        yield


# exact conjugation, kept verbatim from the implementation of
# HolonomyMap.global_length that conjugated each cuff into the global frame


def _conjugate_entries(f: MobiusMap, x: MobiusMap) -> tuple[Fraction, ...]:
    """Entries of f @ x @ f^{-1} as exact rationals.

    Floats are exact rationals, so f @ x @ adj(f) / det(f) can be computed
    without rounding; this preserves the trace of x exactly even when f has
    very large entries, where naive float conjugation cancels catastrophically.
    """
    fa, fb, fc, fd = (Fraction(v) for v in (f.a, f.b, f.c, f.d))
    xa, xb, xc, xd = (Fraction(v) for v in (x.a, x.b, x.c, x.d))
    det = fa * fd - fb * fc
    # rows of f @ x
    ra, rb = fa * xa + fb * xc, fa * xb + fb * xd
    rc, rd = fc * xa + fd * xc, fc * xb + fd * xd
    # multiply by adj(f) = [[fd, -fb], [-fc, fa]] and divide by det
    return (
        (ra * fd - rb * fc) / det,
        (-ra * fb + rb * fa) / det,
        (rc * fd - rd * fc) / det,
        (-rc * fb + rd * fa) / det,
    )


# the test geometry: 2x2 unimodular matrices as entry 4-tuples (a, b, c, d)
# acting on the upper half-plane, written apart from hyp_core, so that the
# oracles below check the library against arithmetic that is not its own.
# Every tuple keeps trace >= 0, the sign rule of MobiusMap.

IDENTITY = (1.0, 0.0, 0.0, 1.0)


def mul(x: tuple, y: tuple) -> tuple:
    """Product x @ y, negated if its trace is < 0."""
    a = x[0] * y[0] + x[1] * y[2]
    b = x[0] * y[1] + x[1] * y[3]
    c = x[2] * y[0] + x[3] * y[2]
    d = x[2] * y[1] + x[3] * y[3]
    return (-a, -b, -c, -d) if a + d < 0 else (a, b, c, d)


def inverse(e: tuple) -> tuple:
    """Inverse of entries of determinant 1 (their adjugate)."""
    return e[3], -e[1], -e[2], e[0]


def translation(t: float) -> tuple:
    """Translation by t along the imaginary axis (0 -> infinity); refused,
    in the library's words, where an entry is not finite."""
    try:
        e = math.exp(t / 2.0)
        out = (e, 0.0, 0.0, 1.0 / e)
    except (OverflowError, ZeroDivisionError):
        out = (math.inf,) * 4
    if not (out[0] < math.inf and out[3] < math.inf):
        raise NumericalInstability(f"translation by {t} has no finite matrix")
    return out


def perp_translation(d: float) -> tuple:
    """Translation by d along the unit semicircle (-1 -> 1), through i;
    refused as ``translation`` is."""
    try:
        ch, sh = math.cosh(d / 2.0), math.sinh(d / 2.0)
    except OverflowError:
        ch = sh = math.inf
    if not ch < math.inf:
        raise NumericalInstability(f"translation by {d} has no finite matrix")
    return ch, sh, sh, ch


def rotation(phi: float) -> tuple:
    """Rotation about i; positive phi turns the forward direction left."""
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return (-c, -s, s, -c) if c < 0 else (c, s, -s, c)


def apply(e: tuple, z: complex) -> complex:
    a, b, c, d = e
    return (a * z + b) / (c * z + d)


def dist_to_identity(e: tuple) -> float:
    """min over signs of the sup-norm distance to +-I."""
    a, b, c, d = e
    return min(max(abs(a - 1), abs(b), abs(c), abs(d - 1)),
               max(abs(a + 1), abs(b), abs(c), abs(d + 1)))


def fixed_points(e: tuple) -> tuple[float, float]:
    """Real fixed points (attracting last) of a hyperbolic element."""
    a, b, c, d = e
    if abs(a + d) <= 2.0:
        raise NotHyperbolic("fixed points on the boundary require |trace| > 2")
    disc = math.sqrt((a - d) ** 2 + 4.0 * b * c)
    if c == 0:
        x = -b / (a - d)
        return (x, math.inf) if abs(a) > abs(d) else (math.inf, x)
    x1 = (a - d - disc) / (2.0 * c)
    x2 = (a - d + disc) / (2.0 * c)
    # derivative |a - c x|^{-2} < 1 at the attracting point
    return (x1, x2) if abs(a - c * x2) < 1.0 else (x2, x1)


def entries(m) -> tuple:
    """The entries of a MobiusMap, or of a tuple that already is them."""
    return m if isinstance(m, tuple) else (m.a, m.b, m.c, m.d)


def hyp_dist(z1: complex, z2: complex) -> float:
    """Hyperbolic distance between two points of the upper half-plane;
    InconsistentInput for a point that is not in it (or not finite)."""
    for z in (z1, z2):
        if not (0.0 < z.imag < math.inf and math.isfinite(z.real)):
            raise InconsistentInput(f"point must lie in the upper half-plane, got {z}")
    return math.acosh(1.0 + abs(z1 - z2) ** 2 / (2.0 * z1.imag * z2.imag))


def pentagon_vertices(p) -> list[complex]:
    """Vertices of the pentagon with sides (b, b, a, c, a), in boundary
    order, by walking it: vertex k is the start of side k, the image of i
    under the frame there, and each side is walked forward and followed by
    a quarter left turn.  The frames grow with b, so roundoff moves the
    vertices off the true ones (relative error of a diagonal 3.5e-13 at
    b = 10) and from b ~ 36.8 off H^2, where this raises
    NumericalInstability."""
    frame, pts = IDENTITY, []
    for side in (p.b, p.b, p.a, p.c, p.a):
        z = apply(frame, 1j)
        if not (0.0 < z.imag < math.inf and math.isfinite(z.real)):
            raise NumericalInstability(
                f"pentagon vertex {len(pts)} at {z} is not in the upper half-plane (b = {p.b})")
        pts.append(z)
        frame = mul(mul(frame, translation(side)), rotation(math.pi / 2.0))
    return pts


# the holonomy as it was built through MobiusMap products: pants_holonomy,
# _twist_transition, PantsHolonomy.closure_residual and holonomy_from_fn
# with the _J and _axis_normalizer they called, on the test geometry, so
# that the library can be compared with it bit for bit.  Pants and
# holonomies are namespaces with the library's field names, holding entry
# tuples; a normalizer is made by the public MobiusMap constructor.


_J = (0.0, -1.0, 1.0, 0.0)  # z -> -1/z: reverses the imaginary axis


def _axis_normalizer(X: tuple) -> tuple:
    """Isometry taking the imaginary axis (0 -> inf) onto the axis of X,
    repelling to attracting; X == N @ translation(l) @ N^-1."""
    rep, att = fixed_points(X)
    if att == math.inf:
        N = MobiusMap(1.0, rep, 0.0, 1.0)
    elif rep == math.inf:
        N = MobiusMap(att, -1.0, 1.0, 0.0)
    elif att - rep <= 0:
        # normalize orientation: scale columns to keep determinant positive
        N = MobiusMap(att, -rep, 1.0, -1.0)
    else:
        N = MobiusMap(att, rep, 1.0, 1.0)
    return entries(N)


def oracle_closure_residual(self) -> float:
    X1, X2, X3 = self.matrices
    return dist_to_identity(mul(mul(X1, X2), X3))


def _oracle_orthogeodesic(li: float, lj: float, lk: float) -> float:
    """Length of the orthogeodesic between cuffs i and j (lk opposite),
    every cosh and sinh taken afresh."""
    try:
        num = math.cosh(lk / 2.0) + math.cosh(li / 2.0) * math.cosh(lj / 2.0)
        den = math.sinh(li / 2.0) * math.sinh(lj / 2.0)
        ratio = num / den
    except ArithmeticError:  # a cosh overflows, or the sinh product underflows to 0
        ratio = math.inf
    if ratio < 1.0:  # the exact ratio is above 1: rounding took it below
        raise NumericalInstability(
            f"orthogeodesic between cuffs of length {li} and {lj} is lost to rounding: "
            "its cosh rounds below 1")
    d = math.acosh(ratio)
    if not d < math.inf:  # inf, or NaN where both products overflow
        raise NumericalInstability(
            f"orthogeodesic between cuffs of length {li} and {lj} is not finite")
    return d


def oracle_orthogeodesics(l1: float, l2: float, l3: float) -> tuple:
    """(d_12, d_13, d_23), one pair at a time, refused in that order."""
    return (_oracle_orthogeodesic(l1, l2, l3), _oracle_orthogeodesic(l1, l3, l2),
            _oracle_orthogeodesic(l2, l3, l1))


def oracle_pants_holonomy(cuff_labels, lengths) -> SimpleNamespace:
    """Fuchsian triple of a pair of pants from its three cuff lengths.

    X1 translates along the imaginary axis; X2 along the geodesic at
    orthogeodesic distance d_12 across the unit semicircle; X3 closes the
    relation X1 @ X2 @ X3 = I and has |trace| = 2*cosh(l3/2) by the
    right-angled hexagon identities.

    Raises NumericalInstability where valid cuffs are too long or too short
    for that construction in floating point.
    """
    l1, l2, l3 = lengths
    PantsCuffs(l1, l2, l3)  # the cuff checks
    d12, _, _ = oracle_orthogeodesics(l1, l2, l3)
    try:
        P = perp_translation(d12)
        X1 = translation(l1)
        X2 = mul(mul(P, translation(-l2)), inverse(P))
        X3 = inverse(mul(X1, X2))
        N2 = mul(P, _J)  # X2 runs down its axis, so flip the model axis
        N3 = _axis_normalizer(X3)
    except (ArithmeticError, ValueError, NotHyperbolic) as exc:
        # the cuffs are valid, so X3's axis is lost to roundoff: its trace
        # rounds to 2 or below, its discriminant below 0, or its normalizer
        # has a zero, NaN or overflowing determinant
        raise NumericalInstability(
            f"pants holonomy of cuffs {tuple(lengths)} breaks down in floating point: {exc}"
        ) from None
    return SimpleNamespace(
        cuffs=tuple(cuff_labels),
        lengths=(l1, l2, l3),
        matrices=(X1, X2, X3),
        normalizers=(IDENTITY, N2, N3),
    )


def oracle_twist_transition(pants_from, pants_to, cuff, length, theta) -> tuple:
    """Frame transition across a gluing: align the two cuff axes with the
    model axis, twist by the arc-length theta*length/(2*pi), and reverse
    orientation so the boundary circles match up.  Takes the library's
    pants or the oracle's."""
    Np = entries(pants_from.normalizers[pants_from.cuffs.index(cuff)])
    Nq = entries(pants_to.normalizers[pants_to.cuffs.index(cuff)])
    t = theta * length / TWO_PI
    return mul(mul(mul(Np, translation(t)), _J), inverse(Nq))


def oracle_holonomy_from_fn(fn) -> SimpleNamespace:
    """Build per-pants Fuchsian triples and chained frames for a ladder FN
    datum.  Every cuff's trace recovers its coordinate length exactly up to
    roundoff; twists enter only the frame transitions.  Raises
    NumericalInstability when a pants triple cannot be built in floating
    point (see pants_holonomy) or a chained frame overflows to a non-finite
    entry."""
    hol = SimpleNamespace(fn=fn, pants={}, frames={}, transitions={})
    N = fn.window
    for k in fn.indices():
        la, _, lb, _, lc, _ = fn.coords[k]
        hol.pants[("P1", k)] = oracle_pants_holonomy(
            [("c", k), ("a", k), ("b", k)], (lc, la, lb)
        )
        if k + 1 <= N:
            lc_next = fn.length("c", k + 1)
            hol.pants[("P2", k)] = oracle_pants_holonomy(
                [("a", k), ("b", k), ("c", k + 1)], (la, lb, lc_next)
            )
    # chain frames left to right: P1[-N] -> P2[-N] -> P1[-N+1] -> ...
    hol.frames[("P1", -N)] = IDENTITY
    for k in range(-N, N):
        for src, dst, cuff in ((("P1", k), ("P2", k), ("a", k)),
                               (("P2", k), ("P1", k + 1), ("c", k + 1))):
            T = oracle_twist_transition(hol.pants[src], hol.pants[dst], cuff,
                                        fn.length(*cuff), fn.twist(*cuff))
            hol.transitions[(src, dst, cuff)] = T
            frame = mul(hol.frames[src], T)
            if not all(map(math.isfinite, frame)):
                raise NumericalInstability(f"frame of pants {dst[0]}[{dst[1]}] is not finite")
            hol.frames[dst] = frame
    return hol


def golden_main(path, fresh, cases=lambda data: data, sort_keys=True):
    """Command line of a golden test module, run as a script.

    ``fresh`` is the golden data as the code computes it now, and ``cases``
    maps golden data to {case name: value}.  With ``--record`` the script
    writes ``fresh`` to ``path``.  Without it, it prints each case that
    differs from ``path`` and exits 1 if any does.
    """
    if "--record" in sys.argv[1:]:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(fresh, indent=1, sort_keys=sort_keys) + "\n")
        print(f"recorded {path}")
        return
    recorded, now = cases(json.loads(path.read_text())), cases(fresh)
    differ = sorted(k for k in recorded.keys() | now.keys() if recorded.get(k) != now.get(k))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(now)} cases differ from {path.name}"
          + ("; rerun with --record to re-record" if differ else ""))
    if differ:
        sys.exit(1)


@pytest.fixture
def inject_edge():
    return _inject_edge


@pytest.fixture(name="oracle_build_grid", scope="session")
def _oracle_build_grid_fixture():
    return oracle_build_grid


@pytest.fixture(name="oracle_certificate", scope="session")
def _oracle_certificate_fixture():
    return oracle_certificate


@pytest.fixture(name="oracle_window", scope="session")
def _oracle_window_fixture():
    return oracle_window


@pytest.fixture(name="capped_dijkstra", scope="session")
def _capped_dijkstra_fixture():
    return capped_dijkstra


@pytest.fixture(name="oracle_topology", scope="session")
def _oracle_topology_fixture():
    return oracle_topology


@pytest.fixture(name="brute_force_key", scope="session")
def _brute_force_key_fixture():
    return brute_force_key


@pytest.fixture(name="oracle_bridges", scope="session")
def _oracle_bridges_fixture():
    return oracle_bridges


@pytest.fixture(name="oracle_connected", scope="session")
def _oracle_connected_fixture():
    return oracle_connected


@pytest.fixture(name="edge_multisets", scope="session")
def _edge_multisets_fixture():
    return edge_multisets


@pytest.fixture(name="enumerated_classes", scope="session")
def _enumerated_classes_fixture():
    return enumerated_classes


@pytest.fixture(name="labelling", scope="session")
def _labelling_fixture():
    return labelling


@pytest.fixture(scope="session")
def conjugate_entries():
    return _conjugate_entries


@pytest.fixture(scope="session")
def geometry():
    """The test geometry, by name: entry-tuple products, inverse,
    translations, rotation, action, distances and the pentagon walk."""
    return SimpleNamespace(
        IDENTITY=IDENTITY, mul=mul, inverse=inverse, translation=translation,
        perp_translation=perp_translation, rotation=rotation, apply=apply,
        dist_to_identity=dist_to_identity, fixed_points=fixed_points, entries=entries,
        hyp_dist=hyp_dist, pentagon_vertices=pentagon_vertices,
    )


@pytest.fixture(scope="session")
def oracle_holonomy():
    """The map-product holonomy: the orthogeodesics, pants_holonomy,
    _twist_transition, closure_residual and holonomy_from_fn, by name."""
    return {
        "orthogeodesics": oracle_orthogeodesics,
        "pants_holonomy": oracle_pants_holonomy,
        "twist_transition": oracle_twist_transition,
        "closure_residual": oracle_closure_residual,
        "holonomy_from_fn": oracle_holonomy_from_fn,
    }
