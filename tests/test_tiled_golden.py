"""Byte-identity of the tiling layer on plain, refined, glued and glued+refined
windows.

``tests/data/tiled_golden.json`` records, for each window and variant, sha256
digests of
- the complex: its edges (sorted, lengths as ``float.hex``) and its faces;
- each ``certify_vertical_minimizing(t, n).to_dict()`` as sorted-key JSON,
  for every n the window allows (1 .. rows - 2);
- ``dijkstra`` distances as ``float.hex``, run to the end and stopped at a
  target set (every settled vertex, so the early stop is pinned too);
- ``genus()``.

A change to the tiling layer that claims the same complexes and distances
must keep this test green.  To compare by hand, naming each case that
differs, run the module as a script; to re-record after an intended output
change, run

    PYTHONPATH=src python tests/test_tiled_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from hypladder.tiled_surface import (
    add_diagonals,
    build_grid,
    certify_vertical_minimizing,
    dijkstra,
    glue_to_Rb,
)

GOLDEN = Path(__file__).parent / "data" / "tiled_golden.json"

VARIANTS = ("plain", "refined", "glued", "glued-refined")
# the 28 x 28 window (as wide as the benchmark's medium windows) costs as
# much as all the others together, so it is checked at one b only
CASES = [
    (b, rows, cols, v)
    for b, windows in ((0.9, [(4, 4), (5, 9), (12, 12)]),
                       (1.3, [(4, 4), (5, 9), (12, 12), (28, 28)]),
                       (2.0, [(4, 4), (5, 9), (12, 12)]))
    for rows, cols in windows
    for v in VARIANTS
]
PARTS = ("complex", "certificates", "dijkstra", "dijkstra_targets", "genus")


def _window(b, rows, cols, variant):
    t = build_grid(b, rows, cols)
    if "glued" in variant:
        t = glue_to_Rb(t)
    if "refined" in variant:
        t = add_diagonals(t)
    return t


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _hex_distances(dist: dict) -> list:
    return sorted([list(v), d.hex()] for v, d in dist.items())


def _digests(b, rows, cols, variant) -> dict:
    t = _window(b, rows, cols, variant)
    mid = cols // 2
    full = [
        [("C", 1, mid)],
        [("H", 0, 0, "N"), ("VM", rows - 1, cols)],
        [("C", 1, c) for c in range(cols + 1)],
    ]
    stopped = [
        ([("C", 1, mid)], [("C", rows - 1, mid)]),
        ([("C", 1, 0)], [("C", rows - 1, cols), ("HM", rows - 2, 1)]),
        ([("C", 0, c) for c in range(cols + 1)] + [("HM", 0, c) for c in range(cols)],
         [("C", rows, c) for c in range(cols + 1)]),
    ]
    return {
        "complex": _sha([
            sorted([list(u), list(v), w.hex()] for (u, v), w in t.edges.items()),
            [list(map(list, f)) for f in t.faces],
        ]),
        "certificates": _sha(
            [json.dumps(certify_vertical_minimizing(t, n).to_dict(), sort_keys=True)
             for n in range(1, rows - 1)]
        ),
        "dijkstra": _sha([_hex_distances(dijkstra(t, s)) for s in full]),
        "dijkstra_targets": _sha([_hex_distances(dijkstra(t, s, g)) for s, g in stopped]),
        "genus": _sha(t.genus()),
    }


def _name(case) -> str:
    b, rows, cols, variant = case
    return f"{b},{rows}x{cols},{variant}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cases_match_golden_file(golden):
    assert sorted(golden) == sorted(map(_name, CASES))
    assert all(sorted(golden[k]) == sorted(PARTS) for k in golden)


@pytest.mark.parametrize("case", CASES, ids=_name)
def test_tiling_byte_identical(case, golden):
    assert _digests(*case) == golden[_name(case)]


if __name__ == "__main__":
    from conftest import golden_main

    golden_main(GOLDEN, {_name(c): _digests(*c) for c in CASES})
