"""The library composes matrices and stores record fields one way each.

Every 2x2 product in ``src/hypladder`` goes through ``hyp_core._mul`` on
entry tuples, so no ``@`` operator appears there; ``MobiusMap.__matmul__``
is kept for callers outside the library.  Every record stores its fields
through ``_Record._set_fields``; only ``MobiusMap._map`` calls the slot
setters one by one, so ``_setters`` is read in ``errors.py``, which builds
them, and ``hyp_core.py`` alone.  The test only reads source files.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypladder"
MODULES = sorted(SRC.glob("*.py"))


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matmul_operator(path):
    lines = [node.lineno for node in _nodes(path)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.MatMult)]
    assert lines == [], f"{path.name} multiplies with @ on lines {lines}"


def test_slot_setters_read_only_by_the_base_and_mobius_map():
    readers = {path.name for path in MODULES for node in _nodes(path)
               if isinstance(node, ast.Attribute) and node.attr == "_setters"}
    assert readers <= {"errors.py", "hyp_core.py"}
