"""Acceptance gate: ten criteria, one test each, reported pass/fail.

Each test prints a single CRITERION line so the gate can be read off the
verbose run.  Tolerances are pinned in the assertions.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import pytest

from hypladder.cli import run as cli_run
from hypladder.errors import InconsistentInput
from hypladder.fenchel_nielsen import build_ladder_fn, holonomy_from_fn, quotient_by_shift
from hypladder.hyp_core import (
    ARCSINH_1,
    collar_involution,
    collar_width,
    pentagon_closure_residual,
    solve_pentagon,
)
from hypladder.pants_graph import (
    canonical_key,
    enumerate_decompositions,
    modular_pants_graph,
    xi,
)
from hypladder.qch_bounds import (
    QCHParams,
    area_window_m,
    separation_bounds,
    shortpants_step,
)
from hypladder.tiled_surface import (
    add_diagonals,
    build_grid,
    certify_vertical_minimizing,
)
from hypladder.topo_classify import (
    CoverType,
    DeckDescriptor,
    Ends,
    SurfaceType,
    classify_cover,
    qch_admissible,
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"CRITERION {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_pentagon_closure():
    start = time.monotonic()
    residuals = [
        pentagon_closure_residual(solve_pentagon(1.0 + 2.0 * i / 49.0))
        for i in range(50)
    ]
    elapsed = time.monotonic() - start
    ok = max(residuals) < 1e-9 and elapsed < 1.0
    _report(1, "pentagon closure", ok)


def test_criterion_02_collar_fixed_point_and_involution():
    fixed = abs(collar_width(2.0 * ARCSINH_1) - ARCSINH_1) < 1e-12
    lengths = [0.1 + (10.0 - 0.1) * i / 99.0 for i in range(100)]
    involution = all(
        abs(collar_involution(collar_involution(l)) - l) < 1e-10 for l in lengths
    )
    _report(2, "collar fixed point", fixed and involution)


def test_criterion_03_fn_round_trip():
    start = time.monotonic()
    fn = build_ladder_fn(4)
    hol = holonomy_from_fn(fn)
    errs = [abs(hol.recovered_length(fam, k) - 1.0) for fam, k in fn.curves()]
    elapsed = time.monotonic() - start
    ok = max(errs) < 1e-6 and elapsed < 1.0
    _report(3, "FN round trip", ok)


def test_criterion_04_genus_three_quotient():
    cases = [
        build_ladder_fn(4),
        build_ladder_fn(3, lengths=lambda fam, k: 1.5 if k % 2 else 0.9),
        build_ladder_fn(2, lengths=2.0, twists=0.7),
    ]
    ok = all(
        (q := quotient_by_shift(fn)).euler_characteristic == -4 and q.genus == 3
        for fn in cases
    )
    _report(4, "genus-3 quotient", ok)


def test_criterion_05_constant_chain():
    p = QCHParams(K=1.0, L=1.0, m_inj=0.37, R=0.0)
    a, rho, hf, b = separation_bounds(p)
    exact = a == 2.0 and rho == 3.5
    hf_ok = abs(hf - (1.0 / (2.0 * collar_width(1.0)) + 1.0)) < 1e-9
    m_ok = area_window_m(p) == 4
    ordering = all(
        (lambda t: t[0] <= t[1] <= t[3])(
            separation_bounds(QCHParams(K=1.0 + 0.3 * i, L=0.4 + 0.45 * j, m_inj=0.5))
        )
        for i in range(10)
        for j in range(10)
    )
    _report(5, "constant chain", exact and hf_ok and m_ok and ordering)


def test_criterion_06_short_pants_collapse():
    m = 2.0 * ARCSINH_1  # sinh(m/2) = 1
    ok = all(
        abs(shortpants_step(M, m) - 1.5 * M) < 1e-12 for M in (0.5, 1.0, 2.0, 4.0)
    )
    _report(6, "short-pants collapse", ok)


def _oracle_count(g: int, b: int) -> int:
    # brute-force multigraph enumeration over every edge multiset, kept by a
    # degree filter and deduplicated by pairwise isomorphism checks;
    # independent of the library's generator and canonical keys
    def iso(c1, c2):
        n, e1, h1 = c1
        _, e2, h2 = c2
        for perm in itertools.permutations(range(n)):
            mapped = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in e1)
            if mapped == sorted(e2) and all(h1[v] == h2[perm[v]] for v in range(n)):
                return True
        return False

    def connected(n, edges):
        seen = {0}
        while True:
            new = {
                w
                for i, j in edges
                for v, w in ((i, j), (j, i))
                if v in seen and w not in seen
            }
            if not new:
                return len(seen) == n
            seen |= new

    n = 2 * g - 2 + b
    n_edges = (3 * n - b) // 2
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    classes = []
    for half in itertools.product(range(4), repeat=n):
        if sum(half) != b:
            continue
        for edges in itertools.combinations_with_replacement(slots, n_edges):
            deg = list(half)
            for i, j in edges:
                deg[i] += 1
                deg[j] += 1
            if any(d != 3 for d in deg):
                continue
            if not connected(n, edges) or len(edges) - n + 1 != g:
                continue
            cand = (n, list(edges), list(half))
            if not any(iso(cand, c) for c in classes):
                classes.append(cand)
    return len(classes)


def test_criterion_07_pants_graph_vs_oracle(labelling):
    surfaces = [
        (g, b)
        for g in range(0, 3)
        for b in range(0, 8)
        if 1 <= xi(g, b) <= 4 and 2 * g - 2 + b >= 1
    ]
    assert len(surfaces) == 10
    counts = all(
        len(enumerate_decompositions(g, b)) == _oracle_count(g, b) for g, b in surfaces
    )
    connected = all(modular_pants_graph(g, b).connected for g, b in surfaces)
    with labelling("max"):
        diameter_max = modular_pants_graph(2, 0).diameter
    diameter = modular_pants_graph(2, 0).diameter == diameter_max
    _report(7, "pants-graph enumeration vs oracle", counts and connected and diameter)


def test_criterion_08_tiled_certificate(inject_edge):
    start = time.monotonic()
    ok = True
    for n in range(1, 6):
        t = build_grid(1.0, n + 2, 2)
        cert = certify_vertical_minimizing(t, n)
        refined = certify_vertical_minimizing(add_diagonals(t), n)
        ok = (
            ok
            and cert.passes
            and refined.passes
            and abs(cert.distance - 2.0 * n) < 1e-9
            and abs(refined.distance - 2.0 * n) < 1e-9
        )
    t = build_grid(1.0, 4, 2)
    shortcut = inject_edge(t, t.alpha_corner(1), t.alpha_corner(3), 0.1)
    ok = ok and not certify_vertical_minimizing(shortcut, 2).passes
    elapsed = time.monotonic() - start
    _report(8, "tiled certificate", ok and elapsed < 10.0)


def test_criterion_09_classification_truth_table():
    finite = lambda n: DeckDescriptor(order=n)
    infinite = lambda e: DeckDescriptor(order=None, end_count=e)
    table = [
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
    assert len(table) == 12
    rows = all(
        classify_cover(base, deck, planar).cover_type == expected
        for base, deck, planar, expected in table
    )
    try:
        classify_cover(2, infinite("2"), True)
        punctured = False
    except InconsistentInput:
        punctured = True
    rejects = all(
        not qch_admissible(SurfaceType(genus, ends, "none"))[0]
        for genus in (1, 2, 5)
        for ends in (Ends.ONE, Ends.TWO, Ends.CANTOR)
    )
    _report(9, "classification truth table", rows and punctured and rejects)


def test_criterion_10_cli_determinism():
    invocations = [
        ["pentagon", "--b", "1.2"],
        ["collar", "--l", "1.0"],
        ["fn", "--window", "2"],
        ["fn", "--window", "2", "--format", "csv"],
        ["quotient", "--window", "2"],
        ["bounds", "--k", "1.3", "--l", "0.8", "--inj-radius", "0.5"],
        ["bounds", "--k", "1", "--l", "1", "--inj-radius", "0.5", "--sweep", "k=1:2:0.5"],
        ["pants-graph", "--genus", "2"],
        ["pants-graph", "--genus", "2", "--format", "text"],
        ["tiled", "certify", "--b", "1.2", "--n", "1"],
        ["tiled", "export", "--b", "1.2", "--n", "1"],
        ["classify", "--base-genus", "2", "--deck", "infinite:2"],
    ]
    ok = all(
        cli_run(argv) == cli_run(argv) == cli_run(argv) for argv in invocations
    )
    _report(10, "CLI determinism", ok)
