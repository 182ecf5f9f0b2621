"""Shared test fixtures and the reference implementations tests compare
against."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import sys
from fractions import Fraction

import pytest

from hypladder import pants_graph
from hypladder.errors import NonPositiveSize, NotHyperbolic, NumericalInstability
from hypladder.fenchel_nielsen import (
    TWO_PI,
    HolonomyMap,
    PantsCuffs,
    PantsHolonomy,
    pants_orthogeodesics,
)
from hypladder.hyp_core import MobiusMap, solve_pentagon
from hypladder.pants_graph import TrivalentGraph
from hypladder.tiled_surface import EDGE_TOL, TiledComplex


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
    t = TiledComplex(pentagon=p, rows=rows, cols=cols)
    for r in range(rows):
        for c in range(cols):
            for face in _cell_faces(r, c):
                t.faces.append(face)
                for i in range(5):
                    _oracle_add_edge(t, face[i], face[(i + 1) % 5], side_lengths[i])
    return t


# brute-force canonical key: the n! search over full (n, edges, half, deco)
# keys, kept verbatim from the implementation it pins down


def brute_force_key(g: TrivalentGraph, order: str = "min") -> tuple:
    pick = min if order == "min" else max
    bridges = g.bridges()
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in g.edges))
        half = tuple(g.half[perm.index(v)] for v in range(g.n))
        deco = tuple(sorted(tuple(sorted((perm[i], perm[j]))) for i, j in bridges))
        key = (g.n, edges, half, deco)
        best = key if best is None else pick(best, key)
    return best


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


# the holonomy built through MobiusMap products: pants_holonomy,
# _twist_transition, PantsHolonomy.closure_residual and holonomy_from_fn
# kept verbatim from the implementation that made a map for every
# intermediate product, with the _J and _axis_normalizer they called, so
# that the entry-tuple holonomy can be compared with it bit for bit


_J = MobiusMap(0.0, -1.0, 1.0, 0.0)  # z -> -1/z: reverses the imaginary axis


def _axis_normalizer(X: MobiusMap) -> MobiusMap:
    """Isometry taking the imaginary axis (0 -> inf) onto the axis of X,
    repelling to attracting; X == N @ translation(l) @ N^-1."""
    rep, att = X.fixed_points()
    if att == math.inf:
        return MobiusMap(1.0, rep, 0.0, 1.0)
    if rep == math.inf:
        return MobiusMap(att, -1.0, 1.0, 0.0)
    s = att - rep
    if s <= 0:
        # normalize orientation: scale columns to keep determinant positive
        return MobiusMap(att, -rep, 1.0, -1.0)
    return MobiusMap(att, rep, 1.0, 1.0)


def oracle_closure_residual(self) -> float:
    X1, X2, X3 = self.matrices
    return (X1 @ X2 @ X3).dist_to_identity()


def oracle_pants_holonomy(cuff_labels, lengths) -> PantsHolonomy:
    """Fuchsian triple of a pair of pants from its three cuff lengths.

    X1 translates along the imaginary axis; X2 along the geodesic at
    orthogeodesic distance d_12 across the unit semicircle; X3 closes the
    relation X1 @ X2 @ X3 = I and has |trace| = 2*cosh(l3/2) by the
    right-angled hexagon identities.

    Raises NumericalInstability where valid cuffs are too long or too short
    for that construction in floating point.
    """
    l1, l2, l3 = lengths
    cuffs = PantsCuffs(l1, l2, l3)
    d12, _, _ = pants_orthogeodesics(cuffs)
    try:
        P = MobiusMap.perp_translation(d12)
        X1 = MobiusMap.translation(l1)
        X2 = P @ MobiusMap.translation(-l2) @ P.inverse()
        X3 = (X1 @ X2).inverse()
        N1 = MobiusMap.identity()
        N2 = P @ _J  # X2 runs down its axis, so flip the model axis
        N3 = _axis_normalizer(X3)
    except (ArithmeticError, ValueError, NotHyperbolic) as exc:
        # the cuffs are valid, so X3's axis is lost to roundoff: its trace
        # rounds to 2 or below, its discriminant below 0, or its normalizer
        # has a zero, NaN or overflowing determinant
        raise NumericalInstability(
            f"pants holonomy of cuffs {tuple(lengths)} breaks down in floating point: {exc}"
        ) from None
    return PantsHolonomy(
        cuffs=tuple(cuff_labels),
        lengths=(l1, l2, l3),
        matrices=(X1, X2, X3),
        normalizers=(N1, N2, N3),
    )


def oracle_twist_transition(pants_from, pants_to, cuff, length, theta):
    """Frame transition across a gluing: align the two cuff axes with the
    model axis, twist by the arc-length theta*length/(2*pi), and reverse
    orientation so the boundary circles match up."""
    Np = pants_from.normalizers[pants_from.cuffs.index(cuff)]
    Nq = pants_to.normalizers[pants_to.cuffs.index(cuff)]
    t = theta * length / TWO_PI
    return Np @ MobiusMap.translation(t) @ _J @ Nq.inverse()


def oracle_holonomy_from_fn(fn) -> HolonomyMap:
    """Build per-pants Fuchsian triples and chained frames for a ladder FN
    datum.  Every cuff's trace recovers its coordinate length exactly up to
    roundoff; twists enter only the frame transitions.  Raises
    NumericalInstability when a pants triple cannot be built in floating
    point (see pants_holonomy) or a chained frame overflows to a non-finite
    entry."""
    hol = HolonomyMap(fn=fn)
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
    hol.frames[("P1", -N)] = MobiusMap.identity()
    for k in range(-N, N):
        for src, dst, cuff in ((("P1", k), ("P2", k), ("a", k)),
                               (("P2", k), ("P1", k + 1), ("c", k + 1))):
            T = oracle_twist_transition(hol.pants[src], hol.pants[dst], cuff,
                                        fn.length(*cuff), fn.twist(*cuff))
            hol.transitions[(src, dst, cuff)] = T
            frame = hol.frames[src] @ T
            if not all(map(math.isfinite, (frame.a, frame.b, frame.c, frame.d))):
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


@pytest.fixture(name="brute_force_key", scope="session")
def _brute_force_key_fixture():
    return brute_force_key


@pytest.fixture(name="labelling", scope="session")
def _labelling_fixture():
    return labelling


@pytest.fixture(scope="session")
def conjugate_entries():
    return _conjugate_entries


@pytest.fixture(scope="session")
def oracle_holonomy():
    """The map-product holonomy: pants_holonomy, _twist_transition,
    closure_residual and holonomy_from_fn, by name."""
    return {
        "pants_holonomy": oracle_pants_holonomy,
        "twist_transition": oracle_twist_transition,
        "closure_residual": oracle_closure_residual,
        "holonomy_from_fn": oracle_holonomy_from_fn,
    }
