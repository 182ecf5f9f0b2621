"""Bit identity of the Fenchel-Nielsen holonomy and of the pentagon walk.

``tests/data/holonomy_golden.json`` records, for each of five ladders over
thirteen windows N = 1 .. 36, sha256 digests of the ``float.hex`` entries of
- every chained frame (``frames``);
- every frame transition (``transitions``);
- every pants triple and its axis normalizers (``pants``);
- the ``float.hex`` of every pants's ``closure_residual`` (``residuals``);

and the ``float.hex`` of ``pentagon_closure_residual`` for a few b.  Every
number here is a product of ``MobiusMap``s, so a change to the matrix class
or its formulas that claims the same arithmetic must keep this test green.
To compare by hand, naming each ladder and b that differs, run the module as
a script; to re-record after an intended output change, run

    PYTHONPATH=src python tests/test_holonomy_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from hypladder.fenchel_nielsen import build_ladder_fn, holonomy_from_fn
from hypladder.hyp_core import pentagon_closure_residual, solve_pentagon

GOLDEN = Path(__file__).parent / "data" / "holonomy_golden.json"

# dense at small windows, then sparser up to 36: each
# window has its own frames (they are relative to its leftmost pants)
WINDOWS = (1, 2, 3, 4, 5, 6, 8, 10, 13, 17, 22, 28, 36)
PARTS = ("frames", "transitions", "pants", "residuals")
PENTAGON_B = (0.9, 1.0, 1.3, 2.0, 5.0, 20.0)


def _random_table(seed: int):
    """Seeded lengths in [0.3, 3] and twists in [-20, 20], one per curve of
    the widest window, so every window reads the same values."""
    rng = random.Random(seed)
    table = {(fam, k): (rng.uniform(0.3, 3.0), rng.uniform(-20.0, 20.0))
             for k in range(-WINDOWS[-1], WINDOWS[-1] + 1) for fam in "abc"}
    return (lambda fam, k: table[fam, k][0]), (lambda fam, k: table[fam, k][1])


LADDERS = {
    "constant": (1.0, 0.0),
    "twisted": (0.5, 0.3),
    "alternating": (lambda fam, k: 0.6 if (k + "abc".index(fam)) % 2 else 1.7,
                    lambda fam, k: 0.25 * k),
    "random-1": _random_table(1),
    "random-2": _random_table(2),
}


def _hex(m) -> list:
    return [m.a.hex(), m.b.hex(), m.c.hex(), m.d.hex()]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _digests(name: str) -> dict:
    lengths, twists = LADDERS[name]
    frames, transitions, pants, residuals = [], [], [], []
    for N in WINDOWS:
        hol = holonomy_from_fn(build_ladder_fn(N, lengths=lengths, twists=twists))
        frames.append([[list(key), _hex(m)] for key, m in hol.frames.items()])
        transitions.append([[repr(key), _hex(m)] for key, m in hol.transitions.items()])
        pants.append([[list(key), [_hex(m) for m in p.matrices + p.normalizers]]
                      for key, p in hol.pants.items()])
        residuals.append([[list(key), p.closure_residual().hex()] for key, p in hol.pants.items()])
    return {"frames": _sha(frames), "transitions": _sha(transitions), "pants": _sha(pants),
            "residuals": _sha(residuals)}


def _pentagon_residuals() -> dict:
    return {str(b): pentagon_closure_residual(solve_pentagon(b)).hex() for b in PENTAGON_B}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_cases_match_golden_file(golden):
    assert sorted(golden["ladders"]) == sorted(LADDERS)
    assert all(sorted(d) == sorted(PARTS) for d in golden["ladders"].values())


@pytest.mark.parametrize("name", LADDERS)
def test_holonomy_bit_identical(name, golden):
    assert _digests(name) == golden["ladders"][name]


def test_pentagon_closure_residual_bit_identical(golden):
    assert _pentagon_residuals() == golden["pentagon_closure_residual"]


if __name__ == "__main__":
    from conftest import golden_main

    golden_main(
        GOLDEN,
        {"ladders": {name: _digests(name) for name in LADDERS},
         "pentagon_closure_residual": _pentagon_residuals()},
        cases=lambda data: {f"{part}/{key}": value
                            for part, values in data.items() for key, value in values.items()},
    )
