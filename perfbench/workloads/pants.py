"""Workload ``pants``: modular pants graphs and queries against them.

A pass first builds ``modular_pants_graph(g, b)`` for every surface with
1 <= xi <= 4 and checks its vertex count, edge count, diameter and
connectivity against TABLE.  Then each locate job takes a seeded, randomly
labelled pants decomposition of one of those surfaces, checks that
``canonical_key`` is invariant under a second relabelling and finds the
decomposition among the built graph's vertices, checks that
``elementary_moves`` reaches exactly that vertex's neighbours, and runs
``propagate_bounds`` from it.

Decompositions are drawn on the benchmark side (random leg placement and
stub matching), so set-up calls nothing of pants_graph.  Locate jobs are
spread over a fixed quota per surface and, within a surface, evenly over
the label-free shapes (leg profile, loops, multi-edges), so the work per
pass hardly depends on the seed.
"""

from __future__ import annotations

import random

from harness import CheckFailed, Tracer

KNOWN_DEFECTS: dict = {}

# (g, b) -> (vertices, edges, diameter) of the modular pants graph; every
# graph is connected.  The vertex counts are the dual-graph shapes, e.g. the
# 7-holed sphere has the path and the spider tree on five vertices.
TABLE = {
    (0, 4): (1, 0, 0), (1, 1): (1, 0, 0),
    (0, 5): (1, 0, 0), (1, 2): (2, 1, 1),
    (0, 6): (2, 1, 1), (1, 3): (3, 2, 2), (2, 0): (2, 1, 1),
    (0, 7): (2, 1, 1), (1, 4): (6, 6, 3), (2, 1): (3, 2, 2),
}

# locate jobs per surface: most go to the largest surfaces, where the
# canonical-form search costs most
LOCATES = {
    (0, 4): 4, (1, 1): 4, (0, 5): 6, (1, 2): 8, (2, 0): 8,
    (0, 6): 14, (1, 3): 14, (2, 1): 16, (1, 4): 36, (0, 7): 40,
}

# fixed, so the shapes found (and the stratification) do not depend on the seed
SHAPE_SEARCH_SEED = 20090
SHAPE_SEARCH_DRAWS = 400


def _random_decomposition(rng, g, b):
    """Edge list and leg counts of a random connected trivalent graph with
    2g-2+b vertices and b legs; loops and multi-edges allowed."""
    n = 2 * g - 2 + b
    while True:
        half = [0] * n
        for _ in range(b):
            half[rng.choice([v for v in range(n) if half[v] < 3])] += 1
        stubs = [v for v in range(n) for _ in range(3 - half[v])]
        rng.shuffle(stubs)
        edges = [tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)]
        seen, frontier = {0}, [0]
        while frontier:
            v = frontier.pop()
            for i, j in edges:
                for u, w in ((i, j), (j, i)):
                    if u == v and w not in seen:
                        seen.add(w)
                        frontier.append(w)
        if len(seen) == n:
            return edges, half


def _shape(edges, half):
    loops = sum(i == j for i, j in edges)
    multiplicity = sorted({e: edges.count(e) for e in edges if e[0] != e[1]}.values())
    return (tuple(sorted(half)), loops, tuple(multiplicity))


def _relabel(edges, half, perm):
    return [(perm[i], perm[j]) for i, j in edges], [half[perm.index(v)] for v in range(len(half))]


def generate(rng, tiny: bool = False) -> list:
    surfaces = list(TABLE)
    builds = [{"kind": "build", "surface": s} for s in surfaces]
    rng.shuffle(builds)
    search = random.Random(SHAPE_SEARCH_SEED)
    locates = []
    for surface, quota in LOCATES.items():
        shapes = sorted({_shape(*_random_decomposition(search, *surface))
                         for _ in range(SHAPE_SEARCH_DRAWS)})
        for i in range(1 if tiny else quota):
            while True:
                edges, half = _random_decomposition(rng, *surface)
                if _shape(edges, half) == shapes[i % len(shapes)]:
                    break
            perm = list(range(len(half)))
            rng.shuffle(perm)
            locates.append({
                "kind": "locate",
                "surface": surface,
                "graph": (len(half), tuple(edges), tuple(half)),
                "relabelled": (len(half), *map(tuple, _relabel(edges, half, perm))),
                "M": rng.uniform(0.5, 3.0),
                "m_inj": rng.uniform(0.1, 0.5),
            })
    rng.shuffle(locates)
    return builds + locates


def warm_up(lib, jobs) -> None:
    state = {}
    for job in jobs:
        if job["surface"] == (1, 2):
            run_job(job, lib, Tracer(False), state)


def run_job(job, lib, tr, state) -> None:
    pg = lib.pants_graph
    surface = job["surface"]
    if job["kind"] == "build":
        graph = tr.call("pants_graph.modular_pants_graph", pg.modular_pants_graph, *surface)
        edges = sum(len(a) for a in graph.adjacency) // 2
        tr.count("pants_graph.modular_pants_graph.vertices", graph.vertex_count())
        tr.count("pants_graph.modular_pants_graph.edges", edges)
        got = (graph.vertex_count(), edges, graph.diameter)
        if got != TABLE[surface] or not graph.connected:
            raise CheckFailed("pants_table", f"{surface}: {got}, connected={graph.connected}")
        state[surface] = graph, {(v.n, v.edges, v.half): i for i, v in enumerate(graph.vertices)}
        return

    if surface not in state:
        raise CheckFailed("graph_missing", f"{surface} was not built")
    graph, index = state[surface]
    decomposition = pg.TrivalentGraph(*job["graph"])
    key = tr.call("pants_graph.canonical_key", pg.canonical_key, decomposition)
    again = tr.call("pants_graph.canonical_key", pg.canonical_key,
                    pg.TrivalentGraph(*job["relabelled"]))
    if key != again:
        raise CheckFailed("canonical_key_invariance", f"{key} != {again}")
    vertex = index.get(key[:3])
    if vertex is None:
        raise CheckFailed("not_located", repr(key))

    neighbours, _notes = tr.call("pants_graph.elementary_moves", pg.elementary_moves, decomposition)
    tr.count("pants_graph.elementary_moves.neighbours", len(neighbours))
    reached = sorted(index.get((w.n, w.edges, w.half), -1) for w in neighbours)
    if reached != list(graph.adjacency[vertex]):
        raise CheckFailed("elementary_moves", f"{reached} != {graph.adjacency[vertex]}")

    M = job["M"]
    bounds = tr.call("pants_graph.propagate_bounds", pg.propagate_bounds,
                     graph, vertex, M, job["m_inj"])
    if len(bounds) != graph.vertex_count() or bounds[vertex] != M or min(bounds.values()) < M:
        raise CheckFailed("propagate_bounds", repr(bounds))
