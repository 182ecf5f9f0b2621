"""Every public module-level name of hypladder has a caller.

A name counts as called when it is referenced somewhere in ``src/hypladder``
outside its own definition, or in ``perfbench/workloads``.  A name kept for
another reason is listed in KEEP with that reason.  The test only reads
source files.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEEP = {
    "pants_graph.enumerate_decompositions":
        "the decomposition classes of S_{g,b}, checked against the brute-force "
        "oracle in acceptance criterion 7",
    "tiled_surface.build_Tn": "the level-n windows of the tiling; its cap is "
        "to be lifted to level 5 (ROADMAP item 7)",
    "tiled_surface.dijkstra": "multi-source distances with an optional target "
        "set, the general form of discrete_distance",
    "hyp_core.collar_involution": "the doubled-collar involution that acceptance "
        "criterion 2 checks",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(tree: ast.Module):
    """(name, defining statement) for every public module-level name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _references(node: ast.AST, skip: ast.AST | None = None) -> set:
    """Names, attribute names and imported names under node, outside skip."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _callers() -> dict:
    """'module.name' -> whether anything outside its definition uses it."""
    modules = {p.stem: _parse(p) for p in sorted((ROOT / "src" / "hypladder").glob("*.py"))}
    workloads = set().union(*(_references(_parse(p)) for p in
                              sorted((ROOT / "perfbench" / "workloads").glob("*.py"))))
    return {
        f"{module}.{name}": name in workloads or any(
            name in _references(other, skip=node if other is tree else None)
            for other in modules.values()
        )
        for module, tree in modules.items()
        for name, node in _public_definitions(tree)
    }


def test_every_public_name_has_a_caller_or_a_reason():
    called = _callers()
    assert "hyp_core.MobiusMap" in called
    uncalled = sorted(name for name, used in called.items() if not used and name not in KEEP)
    assert uncalled == [], "no caller in src/hypladder or perfbench/workloads: delete " \
                           "these or list them in KEEP with a reason"
    # a KEEP entry whose name is gone or has since found a caller is stale
    assert sorted(name for name in KEEP if called.get(name, True)) == []
