"""Byte-identity of the CLI on a fixed argv corpus.

``tests/data/cli_golden.json`` records the exit code and exact stdout of
every argv in CORPUS.  A refactor that claims unchanged outputs must keep
this test green.  To compare by hand, naming each argv that differs, run
the module as a script; to re-record after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from hypladder.cli import run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

CORPUS = [
    # acceptance criterion 10
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
    # one argv per valid template of the cli benchmark workload
    ["pentagon", "--b", "1.7"],
    ["collar", "--l", "2.5"],
    ["fn", "--window", "3", "--length", "1.5", "--twist", "7.25", "--format", "json"],
    ["fn", "--window", "2", "--length", "0.75", "--twist", "3.5", "--format", "csv"],
    ["quotient", "--window", "3", "--length", "1.25", "--odd-length", "2.0", "--twist", "1.5"],
    ["bounds", "--k", "1.5", "--l", "2.0", "--inj-radius", "0.3"],
    ["bounds", "--k", "1", "--l", "1.5", "--inj-radius", "0.25", "--sweep", "k=1:2:0.25"],
    ["pants-graph", "--genus", "1", "--boundary", "2"],
    ["pants-graph", "--genus", "0", "--boundary", "5", "--format", "text"],
    ["tiled", "certify", "--b", "1.5", "--n", "3", "--refine-diagonals"],
    ["tiled", "export", "--b", "1.1", "--n", "2"],
    ["classify", "--base-genus", "2", "--deck", "infinite:many", "--planar"],
    # one argv per invalid template of the cli benchmark workload
    ["pentagon", "--b", "0.5"],
    ["collar", "--l", "-1.5"],
    ["bounds", "--k", "0.5", "--l", "1", "--inj-radius", "0.5"],
    ["pants-graph", "--genus", "3"],
    ["classify", "--base-genus", "2", "--deck", "finite:x"],
    ["nosuch"],
    ["pentagon"],
]


def _record(argv) -> dict:
    code, stdout = run(argv)
    return {"argv": argv, "exit_code": code, "stdout": stdout}


@pytest.fixture(scope="module")
def golden():
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_corpus_matches_golden_file(golden):
    assert sorted(golden) == sorted(map(tuple, CORPUS))


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_output_byte_identical(argv, golden):
    assert _record(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    from conftest import golden_main

    golden_main(GOLDEN, [_record(a) for a in CORPUS],
                cases=lambda records: {" ".join(r["argv"]): r for r in records},
                sort_keys=False)
