"""Every public module-level name of hypladder, and every public method of
a public class, has a caller.

A name counts as called when it is referenced somewhere in ``src/hypladder``
outside its own definition, or in ``perfbench/workloads``.  A method counts
as called only through an attribute reference (``x.name``) there: a bare
name may be a local variable of the same name.  A name or method kept for
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
    "tiled_surface.build_Tn": "the level-n windows of the tiling, levels 1 to 5; "
        "the tiling tests check their sizes and nesting",
    "tiled_surface.dijkstra": "multi-source distances with an optional target "
        "set, the general form of discrete_distance",
    "hyp_core.collar_involution": "the doubled-collar involution that acceptance "
        "criterion 2 checks",
    "fenchel_nielsen.FNCoordinates.curves": "the (family, k) labels of the window, "
        "over which acceptance criterion 3 recovers every cuff length",
    "tiled_surface.TiledComplex.boundary_component_count": "the boundary count that "
        "genus() subtracts, which the tiling tests check on one holed square and "
        "against the tests' topology oracle",
    "fenchel_nielsen.pants_orthogeodesics": "the three orthogeodesic lengths of a "
        "pair of pants; pants_holonomy takes d_12 from the same private "
        "_orthogeodesics, which the holonomy tests compare bit for bit with "
        "the per-pair oracle through this name",
    "pants_graph.from_key": "the checked way to build a graph from a canonical "
        "key given from outside; the library stores its own keys' graphs "
        "without the checks, and the pants tests compare the two",
    "tiled_surface.TiledComplex.add_edge": "the checked way to add an edge to a "
        "complex: it refuses a length that disagrees with the one already "
        "there, which a write straight into the edge map overwrites; the "
        "constructors write their edge maps in bulk",
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


def _public_methods(tree: ast.Module):
    """(class.method, defining statement) for every public method of a
    public module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _nodes(node: ast.AST, skip: ast.AST | None = None):
    """Every node under node, outside skip."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n is not skip:
            yield n
            stack.extend(ast.iter_child_nodes(n))


def _attributes(node: ast.AST, skip: ast.AST | None = None) -> set:
    """Attribute names under node, outside skip."""
    return {n.attr for n in _nodes(node, skip) if isinstance(n, ast.Attribute)}


def _references(node: ast.AST, skip: ast.AST | None = None) -> set:
    """Names, attribute names and imported names under node, outside skip."""
    out = set()
    for n in _nodes(node, skip):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _callers() -> dict:
    """'module.name' and 'module.Class.method' -> whether anything outside
    its definition uses it."""
    modules = {p.stem: _parse(p) for p in sorted((ROOT / "src" / "hypladder").glob("*.py"))}
    workload_trees = [_parse(p) for p in sorted((ROOT / "perfbench" / "workloads").glob("*.py"))]
    workloads = set().union(*map(_references, workload_trees))
    workload_attributes = set().union(*map(_attributes, workload_trees))
    called = {
        f"{module}.{name}": name in workloads or any(
            name in _references(other, skip=node if other is tree else None)
            for other in modules.values()
        )
        for module, tree in modules.items()
        for name, node in _public_definitions(tree)
    }
    for module, tree in modules.items():
        for qualname, node in _public_methods(tree):
            called[f"{module}.{qualname}"] = node.name in workload_attributes or any(
                node.name in _attributes(other, skip=node if other is tree else None)
                for other in modules.values()
            )
    return called


def test_every_public_name_has_a_caller_or_a_reason():
    called = _callers()
    assert "hyp_core.MobiusMap" in called
    assert "hyp_core.MobiusMap.fixed_points" in called
    uncalled = sorted(name for name, used in called.items() if not used and name not in KEEP)
    assert uncalled == [], "no caller in src/hypladder or perfbench/workloads: delete " \
                           "these or list them in KEEP with a reason"
    # a KEEP entry whose name is gone or has since found a caller is stale
    assert sorted(name for name in KEEP if called.get(name, True)) == []
