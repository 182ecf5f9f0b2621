"""Byte-identity of ``modular_pants_graph`` on every surface under the cap.

``tests/data/pants_graph_golden.json`` records the sha256 of
``modular_pants_graph(g, b).to_dict()`` as sorted-key JSON for each of the
ten surfaces with 1 <= xi <= 4, keyed by the library (``min``) and by the
brute-force max relabelling (``max``, see ``conftest.labelling``).  A change
to the enumeration or the canonical-key search that claims the same
representatives must keep this test green.  To compare by hand, naming each
case that differs, run the module as a script; to re-record after an
intended output change, run

    PYTHONPATH=src python tests/test_pants_graph_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from hypladder.pants_graph import COMPLEXITY_CAP, modular_pants_graph, xi

GOLDEN = Path(__file__).parent / "data" / "pants_graph_golden.json"

SURFACES = [
    (g, b)
    for g in range(3)
    for b in range(8)
    if 1 <= xi(g, b) <= COMPLEXITY_CAP and 2 * g - 2 + b >= 1
]
CASES = [(g, b, order) for g, b in SURFACES for order in ("min", "max")]


def _digest(g: int, b: int, order: str, labelling) -> str:
    with labelling(order):
        text = json.dumps(modular_pants_graph(g, b).to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _name(case) -> str:
    g, b, order = case
    return f"{g},{b},{order}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cases_match_golden_file(golden):
    assert len(SURFACES) == 10
    assert sorted(golden) == sorted(map(_name, CASES))


@pytest.mark.parametrize("case", CASES, ids=_name)
def test_to_json_byte_identical(case, golden, labelling):
    assert _digest(*case, labelling) == golden[_name(case)]


if __name__ == "__main__":
    from conftest import golden_main, labelling

    golden_main(GOLDEN, {_name(c): _digest(*c, labelling) for c in CASES})
