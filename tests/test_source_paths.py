"""The library composes matrices, stores record fields and searches graphs
one way each, and the tests' oracle computes apart from it.

Every 2x2 product in ``src/hypladder`` goes through ``hyp_core._mul`` on
entry tuples, so no ``@`` operator appears there; ``MobiusMap.__matmul__``
is kept for callers outside the library.  Nor is the product written out
again: no other function holds two ``p*q + r*s`` sums, the form of each
entry of a product.  Every record stores its fields
through ``_Record._set_fields``; only ``MobiusMap._map`` calls the slot
setters one by one, so ``_setters`` is read in ``errors.py``, which builds
them, and ``hyp_core.py`` alone.  ``errors._rebuild`` is the one function
that makes a record without its ``__init__`` (``_map`` makes each map
without ``MobiusMap.__new__``'s normalization); ``pants_graph`` stores the
graphs of its keys and dart moves through it, and ``canonical_key`` finds
its decoration on the one partner table of its search.  Every
shortest-path search, bounded by the row strips (``discrete_distance``
between two corners of a built window) or not, is the one Dijkstra loop of
``_tiled_graph._distances``, so no other function pops a heap.  Every
graph search of ``pants_graph`` (bridges, the walk over elementary moves,
the modular graph's distances) is the breadth-first search of
``_bfs_dists``, so no other function there loops over a frontier.  ``tiled_surface`` counts its topology on the face
vertices, numbered by first appearance, so no function there or in its
integer layer ``_tiled_graph`` calls ``.vertices()``, and neither defines a
nested function, so its union-find is no closure.  No module
has more than 4,096 parser tokens (``tokenize``'s count without comments,
``NL`` and ``ENCODING``), where the parser's token array doubles and every
CLI child pays for it in memory when it compiles the module.  The rule
that a bool is no number or size lives in ``errors.py`` alone, in
``check_number``, ``check_int`` and ``is_int``: no other module tests
``isinstance(..., bool)`` or compares with True or False by identity.
(``cli`` asks that a JSON ``planar`` be a bool, with ``type(...) is bool``:
a test that a value is one, not that a number is not.)

A tiled certificate searches one of two ways.  A window that
``build_grid``, ``add_diagonals`` or ``glue_to_Rb`` made, unwritten since,
whose pentagon, rows and cols are those the constructors recorded on its
edge map, takes the one-strip path: one search of the one-row window that
the record numbers by arithmetic (``_tiled_graph._numbered``), once per
window, and the alpha column's edge sum; it calls no constructor, never
indexes the window, and that record is all it rests on.  Such a window's
index, built at its first distance query, is numbered from the record too,
reading no edge of the map.  Any other window takes the full path: the
full corner-to-corner search and the line search over the whole span.  The
last tests pin both, by recording the searches certificates make and the
index builds after them.  A built window's topology counts row 0's faces
alone: ``genus()`` calls no constructor, numbers no window and indexes none.
A same-column distance on a built window settles a few vertices per row
crossed, where a plain-dict copy's unbounded search settles its whole ball.

``tests/conftest.py`` holds the test geometry and the holonomy oracle that
the bit-identity tests compare the library with.  It reaches no private
name of a hypladder module and no ``MobiusMap`` member that the library
dropped, so it cannot share the library's arithmetic.  The tests other
than the certificate-path, topology and distance pins only read source
files.
"""

from __future__ import annotations

import ast
import dataclasses
import tokenize
from pathlib import Path

import pytest

from hypladder import tiled_surface
from hypladder.tiled_surface import add_diagonals, build_grid, certify_vertical_minimizing, glue_to_Rb

SRC = Path(__file__).resolve().parent.parent / "src" / "hypladder"
MODULES = sorted(SRC.glob("*.py"))
CONFTEST = Path(__file__).resolve().parent / "conftest.py"

# MobiusMap members with no caller in the library, deleted from it
DELETED_MEMBERS = {"translation", "perp_translation", "rotation", "inverse", "apply",
                   "dist_to_identity"}


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_matmul_operator(path):
    lines = [node.lineno for node in _nodes(path)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.MatMult)]
    assert lines == [], f"{path.name} multiplies with @ on lines {lines}"


# the parser's token array doubles past this many tokens; comments, NL and
# ENCODING never reach the parser (README, "Source lines cost start-up time")
TOKEN_STEP = 4096
UNPARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_step(path):
    with path.open("rb") as f:
        count = sum(tok.type not in UNPARSED for tok in tokenize.tokenize(f.readline))
    assert count <= TOKEN_STEP, f"{path.name} has {count} parser tokens"


def _is_product(node) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)


def test_one_function_writes_the_product_formula():
    # per function, nested ones included in their outer function: the sums
    # whose two terms are both products
    counts = {}
    for path in MODULES:
        for func in _nodes(path):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n = sum(1 for node in ast.walk(func)
                        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                        and _is_product(node.left) and _is_product(node.right))
                if n >= 2:
                    counts[f"{path.stem}.{func.name}"] = n
    assert counts == {"hyp_core._mul": 4}


def _tests_for_a_bool(node) -> bool:
    """``isinstance(x, bool)``, bool also in a tuple of types, or an identity
    test with True or False: the form of the rule that a bool is no number."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
        kinds = node.args[1:2]
        if kinds and isinstance(kinds[0], ast.Tuple):
            kinds = kinds[0].elts
        return any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds)
    return isinstance(node, ast.Compare) and any(
        isinstance(op, (ast.Is, ast.IsNot)) and isinstance(c, ast.Constant) and type(c.value) is bool
        for op, c in zip(node.ops, node.comparators))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_tells_a_bool_from_a_number(path):
    lines = [node.lineno for node in _nodes(path) if _tests_for_a_bool(node)]
    assert lines == [], f"{path.name} tests for a bool on lines {lines}"


def test_slot_setters_read_only_by_the_base_and_mobius_map():
    readers = {path.name for path in MODULES for node in _nodes(path)
               if isinstance(node, ast.Attribute) and node.attr == "_setters"}
    assert readers <= {"errors.py", "hyp_core.py"}


HEAP_POPS = {"heappop", "heappushpop", "heapreplace"}


def _pops_heap(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id in HEAP_POPS)
            or (isinstance(node, ast.Attribute) and node.attr in HEAP_POPS)
            or (isinstance(node, ast.alias) and node.name in HEAP_POPS))


def test_one_function_pops_a_heap():
    # each module-level statement that names a heap pop, by module and name
    users = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if any(_pops_heap(node) for node in ast.walk(top)):
                users.add((path.stem, getattr(top, "name", f"line {top.lineno}")))
    assert users == {("_tiled_graph", "_distances")}


def test_one_function_in_pants_graph_walks_a_frontier():
    # a frontier walk loops ``while <name>:``; the walk over elementary
    # moves is _bfs_dists on a table that computes each class's moves when
    # first looked up
    walkers = {func.name for func in _nodes(SRC / "pants_graph.py")
               if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(node, ast.While) and isinstance(node.test, ast.Name)
                       for node in ast.walk(func))}
    assert walkers == {"_bfs_dists"}


TILED = ["tiled_surface.py", "_tiled_graph.py"]


def test_tiled_surface_reads_no_vertex_set():
    callers = sorted({f"{name}: {func.name}" for name in TILED for func in _nodes(SRC / name)
                      if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "vertices"})
    assert callers == [], f"tiled modules call .vertices() in {callers}"


def test_tiled_surface_defines_no_nested_function():
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    nested = sorted({f"{name}: {func.name}.{getattr(node, 'name', 'lambda')}"
                     for name in TILED for func in _nodes(SRC / name) if isinstance(func, defs[:2])
                     for node in ast.walk(func) if node is not func and isinstance(node, defs)})
    assert nested == [], f"tiled modules define nested functions {nested}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_conftest_reaches_no_private_library_name():
    modules = set()  # local names bound to hypladder modules
    private = []
    nodes = list(_nodes(CONFTEST))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hypladder"):
            private += [a.name for a in node.names if _private(a.name)]
            if node.module == "hypladder":
                modules.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("hypladder"):
                    private += [part for part in a.name.split(".") if _private(part)]
                    modules.add(a.asname or a.name.split(".")[0])
    for node in nodes:
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                private.append(node.attr)
    assert private == [], f"conftest.py reaches private hypladder names {private}"


def test_conftest_uses_no_deleted_mobius_member():
    used = sorted({node.attr for node in _nodes(CONFTEST)
                   if isinstance(node, ast.Attribute) and node.attr in DELETED_MEMBERS})
    assert used == [], f"conftest.py refers to deleted MobiusMap members {used}"


def _function(path: Path, name: str):
    return next(node for node in _nodes(path)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name)


def _called_names(node) -> set:
    return {call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_canonical_key_finds_bridges_on_its_own_table():
    # one partner table per key: the decoration is read off the search's own
    # table, not found again on the relabelled edges
    func = _function(SRC / "pants_graph.py", "canonical_key")
    calls = [call.func.id for call in ast.walk(func)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]
    assert calls.count("_partners") == 1 and "_cut_edges" in calls
    assert not {"_bridges", "bridges"} & _called_names(func)


@pytest.mark.parametrize("name", ["_moved_graph", "_moves", "_MoveTable"])
def test_moves_build_no_graph_through_the_constructor(name):
    assert "TrivalentGraph" not in _called_names(_function(SRC / "pants_graph.py", name))


def test_one_function_skips_a_records_init():
    # object.__new__ makes a record without running its __init__: the base's
    # _rebuild does, and _map, for MobiusMap, whose checks are in __new__
    makers = {(path.stem, func.name) for path in MODULES for func in _nodes(path)
              if isinstance(func, ast.FunctionDef) and "__new__" in _called_names(func)}
    assert makers == {("errors", "_rebuild"), ("hyp_core", "_map")}


@pytest.fixture
def certificate_searches(monkeypatch):
    """("strip", cols, steps) per one-row window search, ("line", line,
    source) per line search over a span, and ("full", x, y) per full corner
    search that certificates make.  The library's constructors are refused
    through the module's names, so a certificate that built a window would
    fail; the names this file imported still build them."""
    calls = []
    strip = tiled_surface._strip_line_distance
    line, full = tiled_surface._line_distance, tiled_surface.discrete_distance

    def strip_search(p, cols, steps):
        calls.append(("strip", cols, steps))
        return strip(p, cols, steps)

    def line_search(g, top, source):
        calls.append(("line", top, source))
        return line(g, top, source)

    def full_search(t, x, y):
        calls.append(("full", x, y))
        return full(t, x, y)

    def refused(*args):
        raise AssertionError("a certificate called a constructor")

    monkeypatch.setattr(tiled_surface, "_strip_line_distance", strip_search)
    monkeypatch.setattr(tiled_surface, "_line_distance", line_search)
    monkeypatch.setattr(tiled_surface, "discrete_distance", full_search)
    for name in ("build_grid", "add_diagonals", "glue_to_Rb"):
        monkeypatch.setattr(tiled_surface, name, refused)
    return calls


BUILT = {
    "plain": lambda t: t,
    "refined": add_diagonals,
    "glued": glue_to_Rb,
    "glued-refined": lambda t: add_diagonals(glue_to_Rb(t)),
}
STEPS = {"plain": (), "refined": ("add_diagonals",), "glued": ("glue_to_Rb",),
         "glued-refined": ("glue_to_Rb", "add_diagonals")}


@pytest.mark.parametrize("variant", BUILT)
def test_built_windows_take_the_one_strip_path(variant, certificate_searches):
    # one strip searched, once, for every span: the one-row window numbered
    # from the record's cols and steps, with no constructor called (the
    # names imported here are the unpatched ones); no line search over a
    # span and no full search
    t = BUILT[variant](build_grid(1.3, 9, 7))
    for n in range(1, 8):
        assert certify_vertical_minimizing(t, n).passes
    assert certificate_searches == [("strip", 7, STEPS[variant])]


class _UnreadMap(tiled_surface._EdgeMap):
    """An edge map that refuses every read of its edges."""

    def _refused(self, *args):
        raise AssertionError("the edge map was read")

    __getitem__ = __iter__ = __len__ = __contains__ = get = items = keys = values = _refused


@pytest.mark.parametrize("variant", BUILT)
def test_built_windows_certify_without_their_index(variant, monkeypatch):
    # the certificates never index the window; a later distance query builds
    # its index once, numbered from the record, reading no edge of the map
    t = BUILT[variant](build_grid(1.3, 9, 7))
    for n in range(1, 8):
        assert certify_vertical_minimizing(t, n).passes
    assert t.edges._index is None
    builds, numbered = [], tiled_surface._numbered
    monkeypatch.setattr(tiled_surface, "_numbered", lambda *a: builds.append(a) or numbered(*a))
    monkeypatch.setattr(tiled_surface, "_index_graph", _UnreadMap._refused)
    edges = t.edges
    edges.__class__ = _UnreadMap
    corners = [("C", 1, 0), ("C", 8, 7), ("C", 2, 3)]
    for x, y in zip(corners, corners[1:]):
        tiled_surface.discrete_distance(t, x, y)
    edges.__class__ = tiled_surface._EdgeMap
    assert builds == [(t.pentagon, 9, 7, STEPS[variant])] and t.edges._index is not None


def test_replace_copy_with_a_row_line_crossing_edge_takes_the_full_path(certificate_searches):
    # a long edge across row line 3; the copy made from a plain dict has no
    # hint, so it takes the full path
    t = build_grid(1.3, 9, 7)
    copy = dataclasses.replace(t, edges={**t.edges, (("C", 2, 1), ("C", 4, 1)): 100.0})
    for n in range(1, 8):
        assert certify_vertical_minimizing(copy, n).passes
        r0 = max(1, (9 - n) // 2)
        assert certificate_searches[-2:] == [("full", ("C", r0, 3), ("C", r0 + n, 3)),
                                             ("line", r0, r0 + n)]
    assert len(certificate_searches) == 14


@pytest.mark.parametrize("variant", [*BUILT, "refined-glued"])
def test_built_windows_count_their_topology_on_one_strip(variant, monkeypatch):
    # genus() of a built window calls no constructor, numbers no window and
    # indexes none: the parity count reads row 0's faces, 4 cols of them
    make = BUILT.get(variant, lambda t: glue_to_Rb(add_diagonals(t)))
    t = make(build_grid(1.3, 9, 7))
    odd_sides, faces_read = tiled_surface._odd_sides, []

    def refused(*args):
        raise AssertionError("the topology built, numbered or indexed a window")

    for name in ("build_grid", "add_diagonals", "glue_to_Rb", "_numbered", "_index_graph"):
        monkeypatch.setattr(tiled_surface, name, refused)
    monkeypatch.setattr(tiled_surface, "_odd_sides",
                        lambda faces: faces_read.append(len(faces)) or odd_sides(faces))
    chi, boundary, genus = t.euler_characteristic(), t.boundary_component_count(), t.genus()
    assert genus == (0 if "glued" not in variant else 9 * 3) and chi + boundary == 2 - 2 * genus
    assert faces_read == [4 * 7] * 3
    assert t.edges._index is None


@pytest.mark.parametrize("variant", BUILT)
def test_same_column_distance_settles_its_column(variant, monkeypatch):
    # n rows apart on one column of a built 45 x 45 window, b = 1.3: the
    # bounded corner search settles at most 8 vertices per row crossed, the
    # column and what the holes and diagonals beside it offer at no extra
    # length; a plain-dict copy, searched unbounded, settles every vertex
    # nearer than the target: its whole ball
    settled, search = [], tiled_surface._distances
    monkeypatch.setattr(tiled_surface, "_distances",
                        lambda *a, **k: settled.append(d := search(*a, **k)) or d)
    t = BUILT[variant](build_grid(1.3, 45, 45))
    plain = dataclasses.replace(t, edges=dict(t.edges))
    x = ("C", 1, 22)
    ball = sorted(tiled_surface.dijkstra(plain, [x]).values())
    for n in (1, 5, 20, 43):
        y = ("C", 1 + n, 22)
        d = tiled_surface.discrete_distance(t, x, y)
        assert tiled_surface.discrete_distance(plain, x, y).hex() == d.hex()
        bounded, full = (sum(v is not None for v in dist) for dist in settled[-2:])
        assert bounded <= 8 * n + 1 < full
        assert full >= sum(v < d for v in ball)
