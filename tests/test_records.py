"""Value semantics of the ``__slots__`` records that replaced frozen dataclasses.

Each record is compared with a twin that the ``dataclasses`` module builds
from the same fields and values: the twin's ``repr``, ``==`` and ``hash``
are what the replaced dataclass gave.  The constructors keep their
signatures, defaults and error messages, but ``HolonomyMap`` has since
dropped its empty-dict defaults, which only tests passed.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
from pathlib import Path

import pytest

from hypladder import fenchel_nielsen as fnm
from hypladder import hyp_core as hc
from hypladder import pants_graph as pg
from hypladder import qch_bounds as qb
from hypladder import tiled_surface as ts
from hypladder import topo_classify as tc
from hypladder.errors import (
    DegeneratePentagon,
    InconsistentInput,
    InvalidDilatation,
    MissingCoordinates,
    NegativeDiameter,
    NegativeSurface,
    NonPositiveLength,
    NonPositiveSize,
    NotHyperbolic,
    NumericalInstability,
)
from hypladder.hyp_core import R_FORMULA_NAME, MobiusMap, PentagonSolution, solve_pentagon

_FN = fnm.build_ladder_fn(2, lengths=1.3, twists=0.4)
_HOL = fnm.holonomy_from_fn(fnm.build_ladder_fn(1))

# a sample of each record, built the way the library builds it
SAMPLES = {
    "PentagonSolution": lambda: solve_pentagon(1.5),
    "PantsCuffs": lambda: fnm.PantsCuffs(1.0, 2.0, 3.0),
    "FNCoordinates": lambda: _FN,
    "PantsHolonomy": lambda: _HOL.pants[("P1", 0)],
    "HolonomyMap": lambda: _HOL,
    "ShiftQuotient": lambda: fnm.quotient_by_shift(_FN, 1),
    "QCHParams": lambda: qb.QCHParams(1.5, 1.0, 0.3),
    "BoundReport": lambda: qb.report(qb.QCHParams(1.5, 1.0, 0.3)),
    "SurfaceType": lambda: tc.SurfaceType(math.inf, tc.Ends.TWO, "all"),
    "DeckDescriptor": lambda: tc.DeckDescriptor(None, "2"),
    "Classification": lambda: tc.classify_cover(2, tc.DeckDescriptor(3), False),
    "TrivalentGraph": lambda: pg.TrivalentGraph(2, [[1, 0], (0, 0), (1, 1)], [0, 0]),
}
UNHASHABLE = {"FNCoordinates", "ShiftQuotient", "HolonomyMap"}
names = pytest.mark.parametrize("name", sorted(SAMPLES))


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


def _rebuilt(record):
    """The record built again by its constructor, from its fields."""
    fields = _fields(record)
    if type(record) is qb.QCHParams:  # the samples derive R and r_formula
        del fields["R"], fields["r_formula"]
    return type(record)(**fields)


def _twin(record):
    """The frozen dataclass with the record's class name, fields and values."""
    cls = type(record)
    twin_cls = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    return twin_cls(**_fields(record))


@names
def test_repr_is_the_dataclass_repr(name):
    record = SAMPLES[name]()
    assert repr(record) == repr(_twin(record))


def test_repr_text():
    p = solve_pentagon(1.5)
    assert repr(p) == f"PentagonSolution(b=1.5, a={p.a!r}, c={p.c!r})"
    assert repr(tc.DeckDescriptor(3)) == "DeckDescriptor(order=3, end_count=None)"
    assert repr(qb.QCHParams(1.5, 1.0, 0.3, R=2.0)) == (
        "QCHParams(K=1.5, L=1.0, m_inj=0.3, R=2.0, r_formula='user-supplied')")
    assert repr(tc.SurfaceType(math.inf, tc.Ends.TWO, "all")) == (
        "SurfaceType(genus=inf, ends=<Ends.TWO: '2'>, nonplanar_ends='all')")


@names
def test_equal_fields_are_equal(name):
    record, again = SAMPLES[name](), SAMPLES[name]()
    rebuilt = _rebuilt(record)
    for other in (again, rebuilt):
        assert record == other and not record != other
    if name not in UNHASHABLE:
        assert hash(record) == hash(rebuilt) == hash(_twin(record))


@names
def test_never_equal_to_another_type(name):
    record = SAMPLES[name]()
    twin = _twin(record)
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record
    assert record.__eq__(tuple(_fields(record).values())) is NotImplemented


def test_one_field_apart_is_unequal():
    assert fnm.PantsCuffs(1.0, 2.0, 3.0) != fnm.PantsCuffs(1.0, 2.0, 3.5)
    assert tc.DeckDescriptor(None, "1") != tc.DeckDescriptor(None, "2")
    # r_formula is compared too: the same R from two sources differs
    default = qb.QCHParams(1.5, 1.0, 0.3)
    assert default != qb.QCHParams(1.5, 1.0, 0.3, R=default.R)
    assert len({fnm.PantsCuffs(1.0, 2.0, 3.0), fnm.PantsCuffs(1.0, 2.0, 3.0),
                fnm.PantsCuffs(3.0, 2.0, 1.0)}) == 2


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_records_holding_a_dict_are_unhashable(name):
    record = SAMPLES[name]()
    with pytest.raises(TypeError):
        hash(record)
    with pytest.raises(TypeError):
        hash(_twin(record))


@names
def test_assignment_and_deletion_raise(name):
    record = SAMPLES[name]()
    before = repr(record)
    for field in (*type(record).__slots__, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


def test_records_keep_the_base_protocols():
    assert "__reduce__" not in MobiusMap.__dict__
    assert not {"__setattr__", "__delattr__", "__hash__"} & fnm.HolonomyMap.__dict__.keys()


def test_fields_are_stored_only_in_errors():
    # every record stores its fields through the slot setters of
    # errors._Record, in _set_fields or, for the hot ones, one by one: no
    # other module bypasses a record's refusal to assign
    src = Path(__file__).resolve().parent.parent / "src" / "hypladder"
    writers = {p.name for p in src.glob("*.py")
               if "object.__setattr__" in p.read_text(encoding="utf-8")}
    assert writers <= {"errors.py"}


@names
@pytest.mark.parametrize("how", [
    copy.copy,
    copy.deepcopy,
    *(lambda r, p=p: pickle.loads(pickle.dumps(r, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copies_are_equal(name, how):
    record = SAMPLES[name]()
    c = how(record)
    assert type(c) is type(record)
    assert c == record and repr(c) == repr(record)


@names
def test_match_args(name):
    cls = type(SAMPLES[name]())
    init_fields = tuple(f for f in cls.__slots__ if f != "r_formula")
    assert cls.__match_args__ == init_fields


def test_match_statement():
    match solve_pentagon(1.5):
        case PentagonSolution(b, a, c):
            assert (b, a, c) == (1.5, solve_pentagon(1.5).a, solve_pentagon(1.5).c)
    match MobiusMap.identity():
        case MobiusMap(a, b, c, d):
            assert (a, b, c, d) == (1.0, 0.0, 0.0, 1.0)


def test_keyword_and_positional_construction_agree():
    m = MobiusMap.identity()
    pairs = [
        (PentagonSolution(1.5, 0.5, 2.2), PentagonSolution(b=1.5, a=0.5, c=2.2)),
        (fnm.PantsCuffs(1.0, 2.0, 3.0), fnm.PantsCuffs(l1=1.0, l2=2.0, l3=3.0)),
        (fnm.FNCoordinates(2, _FN.coords), fnm.FNCoordinates(window=2, coords=_FN.coords)),
        (fnm.PantsHolonomy((1, 2, 3), (1.0, 1.0, 1.0), (m, m, m), (m, m, m)),
         fnm.PantsHolonomy(cuffs=(1, 2, 3), lengths=(1.0, 1.0, 1.0), matrices=(m, m, m),
                           normalizers=(m, m, m))),
        (fnm.HolonomyMap(_FN, {}, {}, {}),
         fnm.HolonomyMap(fn=_FN, pants={}, frames={}, transitions={})),
        (fnm.ShiftQuotient(("P",), ("c",), -2, 2, {}),
         fnm.ShiftQuotient(pants=("P",), cuffs=("c",), euler_characteristic=-2, genus=2,
                           coords={})),
        (qb.QCHParams(1.5, 1.0, 0.3, 2.0), qb.QCHParams(K=1.5, L=1.0, m_inj=0.3, R=2.0)),
        (tc.SurfaceType(0, tc.Ends.ONE, "none"),
         tc.SurfaceType(genus=0, ends=tc.Ends.ONE, nonplanar_ends="none")),
        (tc.DeckDescriptor(3, None), tc.DeckDescriptor(order=3, end_count=None)),
        (tc.Classification(tc.CoverType.PLANE, tc.SurfaceType(0, tc.Ends.ONE, "none"), "r",
                           False),
         tc.Classification(cover_type=tc.CoverType.PLANE,
                           surface=tc.SurfaceType(0, tc.Ends.ONE, "none"), rule="r",
                           validated=False)),
    ]
    report = SAMPLES["BoundReport"]()
    pairs.append((qb.BoundReport(*_fields(report).values()), qb.BoundReport(**_fields(report))))
    for positional, keyword in pairs:
        assert positional == keyword


def test_defaults():
    assert tc.DeckDescriptor(3).end_count is None
    assert tc.DeckDescriptor(order=3) == tc.DeckDescriptor(3, None)
    # no defaults: holonomy_from_fn builds the dicts before the record
    with pytest.raises(TypeError):
        fnm.HolonomyMap(_FN)


def test_qch_params_derive_R_and_its_provenance():
    p = qb.QCHParams(K=1.5, L=1.0, m_inj=0.3)
    assert p.R == 1.5 ** 2 * (2 * 1.5 * math.log(4.0) + 5 * math.asinh(1.0))
    assert p.r_formula == R_FORMULA_NAME
    assert qb.QCHParams(1.0, 1.0, 0.3).R == 0.0
    q = qb.QCHParams(1.5, 1.0, 0.3, 0.0)
    assert (q.R, q.r_formula) == (0.0, "user-supplied")
    with pytest.raises(TypeError):
        qb.QCHParams(1.5, 1.0, 0.3, r_formula="user-supplied")
    with pytest.raises(TypeError):
        qb.QCHParams(1.5, 1.0, 0.3, 2.0, "user-supplied")


# (callable, args, error class, message): first the records' constructors as
# the dataclass raised them, except that a NaN R reads "must be finite" as
# every NaN does; then calls that raised bare Python errors; then the guards;
# last, lookups and arguments of the wrong shape that raised bare errors
INVALID = [
    (qb.QCHParams, (0.5, 1, 1), InvalidDilatation, "dilatation must be >= 1, got 0.5"),
    (qb.QCHParams, (math.nan, 1, 1), InvalidDilatation, "dilatation must be finite, got nan"),
    (qb.QCHParams, (math.inf, 1, 1), InvalidDilatation, "dilatation must be finite, got inf"),
    (qb.QCHParams, (1, 0, 1), NonPositiveLength, "base curve length must be positive, got 0"),
    (qb.QCHParams, (1, math.inf, 1), NonPositiveLength,
     "base curve length must be finite, got inf"),
    (qb.QCHParams, (1, 1, -1), NonPositiveLength,
     "injectivity radius bound must be positive, got -1"),
    (qb.QCHParams, (1, 1, 1, -1), NonPositiveLength,
     "fellow-traveling constant must be finite and >= 0, got -1"),
    (qb.QCHParams, (1, 1, 1, math.nan), NonPositiveLength,
     "fellow-traveling constant must be finite, got nan"),
    (qb.QCHParams, (1e155, 1, 0.5), NumericalInstability,
     "fellow-traveling constant R overflows at K=1e+155"),
    (tc.SurfaceType, (1, tc.Ends.NONE, "x"), InconsistentInput,
     "nonplanar_ends must be 'none' or 'all', got x"),
    (tc.SurfaceType, (math.inf, tc.Ends.NONE, "none"), InconsistentInput,
     "a compact surface has finite genus"),
    (tc.SurfaceType, (2, tc.Ends.ONE, "all"), InconsistentInput,
     "non-planar ends require infinite genus"),
    (tc.DeckDescriptor, (0,), InconsistentInput, "finite deck order must be >= 1, got 0"),
    (tc.DeckDescriptor, (None,), InconsistentInput,
     "an infinite deck group needs end_count in {'1', '2', 'infinitely_many'}, got None"),
    (tc.DeckDescriptor, (None, "3"), InconsistentInput,
     "an infinite deck group needs end_count in {'1', '2', 'infinitely_many'}, got 3"),
    (fnm.FNCoordinates, (0, {}), NonPositiveSize, "window size must be >= 1, got 0"),
    (fnm.FNCoordinates, (1, {0: (1, 0, 1, 0, 1, 0)}), MissingCoordinates,
     "missing coordinates at index -1"),
    (fnm.FNCoordinates, (1, {k: (1, 0, 1 - 2 * (k == 1), 0, 1, 0) for k in (-1, 0, 1)}),
     NonPositiveLength, "length at index 1 must be positive, got -1"),
    (fnm.PantsCuffs, (1, 2, 0), NonPositiveLength, "cuff length must be positive, got 0"),
    (fnm.PantsCuffs, (math.nan, 1, 1), NonPositiveLength, "cuff length must be finite, got nan"),
    # lookups and entries that raised a bare TypeError, ValueError or KeyError
    (hc.geodesic_length_from_trace, ("x",), NotHyperbolic,
     "|trace| must exceed 2 and be finite for a hyperbolic element, got 'x'"),
    (MobiusMap, ("a", 1, 1, 2), InconsistentInput,
     "matrix entries must be numbers, got ('a', 1, 1, 2)"),
    (hc.polygon_closure_residual, (["x", 1, 1, 1, 1],), InconsistentInput,
     "polygon sides must be numbers, got ['x', 1, 1, 1, 1]"),
    (_FN.length, ("d", 0), MissingCoordinates, "no curve 'd' at index 0 in the window"),
    (_FN.twist, ("d", 0), MissingCoordinates, "no curve 'd' at index 0 in the window"),
    (_HOL.recovered_length, ("d", 0), MissingCoordinates, "no curve 'd' at index 0 in the window"),
    (_HOL.matrix, ("a", 99), MissingCoordinates, "no curve 'a' at index 99 in the window"),
]


# The input rules of errors at each site that gives them a bound of its own:
# every number guard refuses a bool (False compares as 0, so a closed bound
# at 0 would take it), a string, None, NaN, +-inf and a value below its
# bound, and every size guard a bool, a string, None, NaN, +-inf and a size
# below its least.
def _refused(call, args, name, rows):
    """INVALID rows of call(*args(value)) for each (value, error, what)."""
    return [(call, args(v), error, f"{name} must {what}, got {v!r}") for v, error, what in rows]


def _numbers(error, phrase, *below):
    return ([(v, error, "be a number") for v in (True, False, "x", None)]
            + [(v, error, "be finite") for v in (math.nan, math.inf)]
            + [(v, error, phrase) for v in below])


def _sizes(least, error=NonPositiveSize):
    return ([(v, NonPositiveSize, "be an integer")
             for v in (True, "x", None, math.nan, math.inf, -math.inf)]
            + [(least - 1, error, f"be >= {least}")])


_GRID = ts.build_grid(1.2, 4, 2)
_DILATATION = _numbers(InvalidDilatation, "be >= 1", -math.inf, 0.5)
_TWIST = _numbers(InconsistentInput, "be finite", -math.inf)
INVALID += [
    *_refused(solve_pentagon, lambda v: (v,), "b",
              _numbers(DegeneratePentagon, "exceed arcsinh(1) ~ 0.881374", -math.inf, 0.5)),
    *_refused(hc.quasi_geodesic_stability_R, lambda v: (v, 1.0), "dilatation", _DILATATION),
    *_refused(qb.QCHParams, lambda v: (v, 1, 1), "dilatation", _DILATATION),
    *_refused(qb.QCHParams, lambda v: (1, 1, 1, v), "fellow-traveling constant",
              [row for row in _numbers(NonPositiveLength, "be finite and >= 0", -math.inf, -1.0)
               if row[0] is not None]),  # R=None asks for the derived R
    *_refused(fnm.normalize_angle, lambda v: (v,), "twist angle", _TWIST),
    *_refused(fnm.FNCoordinates, lambda v: (1, {k: (1, v if k == 0 else 0, 1, 0, 1, 0)
                                                for k in (-1, 0, 1)}),
              "twist at index 0", _TWIST),
    *_refused(fnm.FNCoordinates, lambda v: (v, _FN.coords), "window size", _sizes(1)),
    *_refused(fnm.quotient_by_shift, lambda v: (_FN, v), "shift period", _sizes(1)),
    *_refused(ts.build_grid, lambda v: (1.2, v, 2), "rows", _sizes(1)),
    *_refused(ts.build_grid, lambda v: (1.2, 2, v), "cols", _sizes(1)),
    *_refused(ts.certify_vertical_minimizing, lambda v: (_GRID, v), "row separation", _sizes(1)),
    *_refused(qb.shortpants_global, lambda v: (1.0, 0.5, v), "diameter",
              _sizes(0, NegativeDiameter)),
    *_refused(pg.enumerate_decompositions, lambda v: (v, 2), "genus", _sizes(0, NegativeSurface)),
    *_refused(pg.enumerate_decompositions, lambda v: (1, v), "boundary count",
              _sizes(0, NegativeSurface)),
    # xi read None or "x" as a bare TypeError, True as 1, and -1 as a genus
    *_refused(pg.xi, lambda v: (v, 2), "genus", _sizes(0, NegativeSurface)),
    *_refused(pg.xi, lambda v: (1, v), "boundary count", _sizes(0, NegativeSurface)),
]


# plain values of the wrong kind that raised a bare TypeError or ValueError
_KEY = "a pants key must be a 4-tuple (n, edges, half, decoration), got "
_CUFF_LABELS = "cuff labels must be an iterable, got "
_ENDS = "sources and targets must be iterables of vertex ids, got "
INVALID += [
    *[(pg.from_key, (v,), InconsistentInput, f"{_KEY}{v!r}") for v in (None, -1, True, "x", (1, (), ()))],
    *[(fnm.pants_holonomy, (v, (1.0, 1.0, 1.0)), InconsistentInput, f"{_CUFF_LABELS}{v!r}")
      for v in (None, True, -1)],
    *[(ts.dijkstra, (_GRID, v), InconsistentInput, f"{_ENDS}{v!r} and None") for v in (None, True, -1)],
    (ts.dijkstra, (_GRID, [("C", 1, 1)], -1), InconsistentInput, f"{_ENDS}[('C', 1, 1)] and -1"),
    (ts.dijkstra, (_GRID, [["C", 1, 1]]), InconsistentInput, f"{_ENDS}[['C', 1, 1]] and None"),
]


_NO_L_A = fnm.fn_to_json(_FN).replace('"l_a"', '"l_x"')
_FN_JSON = "FN JSON must hold a window and records of every field, got "
INVALID += [
    # an unhashable index is no index of the window
    (_FN.length, ("a", [1]), MissingCoordinates, "no curve 'a' at index [1] in the window"),
    (_FN.twist, ("a", [1]), MissingCoordinates, "no curve 'a' at index [1] in the window"),
    (_HOL.matrix, ("a", [1]), MissingCoordinates, "no curve 'a' at index [1] in the window"),
    (_HOL.global_length, ("b", {}), MissingCoordinates, "no curve 'b' at index {} in the window"),
    (fnm.fn_from_json, ("not json",), InconsistentInput,
     _FN_JSON + "JSONDecodeError('Expecting value: line 1 column 1 (char 0)')"),
    (fnm.fn_from_json, (_NO_L_A,), InconsistentInput, _FN_JSON + "KeyError('l_a')"),
    (fnm.fn_from_json, ('{"records": []}',), InconsistentInput, _FN_JSON + "KeyError('window')"),
    (fnm.fn_from_json, ("[1]",), InconsistentInput,
     _FN_JSON + "TypeError('list indices must be integers or slices, not str')"),
    # cuff lengths that are not three numbers, refused as FNCoordinates
    # refuses a sextuple that is not six
    (fnm.pants_holonomy, (("1", "2", "3"), (1.0, 1.0)), InconsistentInput,
     "cuff lengths must be three numbers, got (1.0, 1.0)"),
    (fnm.pants_holonomy, (("1", "2", "3"), 5), InconsistentInput,
     "cuff lengths must be three numbers, got 5"),
    (fnm.pants_holonomy, (("1", "2", "3"), (1.0, 1.0, 1.0, 1.0)), InconsistentInput,
     "cuff lengths must be three numbers, got (1.0, 1.0, 1.0, 1.0)"),
]


# cuff labels that are not three, and a complex that is no TiledComplex
_TILED_CALLS = [(ts.certify_vertical_minimizing, (1,)), (ts.dijkstra, ([("C", 1, 1)],)),
                (ts.discrete_distance, (("C", 1, 1), ("C", 2, 1))), (ts.add_diagonals, ()),
                (ts.glue_to_Rb, ())]
INVALID += [
    *[(fnm.pants_holonomy, (v, (1.0, 1.0, 1.0)), InconsistentInput, f"cuff labels must be three, got {v!r}")
      for v in (["a"], "xyzw", ())],
    *[(call, (v, *rest), InconsistentInput, f"complex must be TiledComplex, got {v!r}")
      for call, rest in _TILED_CALLS for v in (None, "x")],
]


# unhashable endpoints, refused as dijkstra refuses them; and a copy whose
# faces hold one that is no 5-tuple, refused by the steps as genus() refuses it
_ENDPOINTS = "endpoints must be vertex ids, got "
_FACES = "faces must be 5-tuples of vertex ids: "
_BAD_FACES = {f: dataclasses.replace(_GRID, faces=(*_GRID.faces, f))
              for f in ((("C", 0, 0), ("C", 0, 1), ("C", 1, 1), ("C", 1, 0)), 5, None)}
INVALID += [
    (ts.discrete_distance, (_GRID, ["C", 0, 0], ("C", 1, 0)), InconsistentInput,
     f"{_ENDPOINTS}['C', 0, 0] and ('C', 1, 0)"),
    (ts.discrete_distance, (_GRID, ("C", 0, 0), {}), InconsistentInput, f"{_ENDPOINTS}('C', 0, 0) and {{}}"),
    *[(ts.add_diagonals, (t,), InconsistentInput, _FACES + message) for t, message in zip(
        _BAD_FACES.values(), ["tuple index out of range", "'int' object is not subscriptable",
                              "'NoneType' object is not subscriptable"])],
    *[(ts.glue_to_Rb, (t,), InconsistentInput, _FACES + message) for t, message in zip(
        _BAD_FACES.values(), ["not enough values to unpack (expected 5, got 4)",
                              "cannot unpack non-iterable int object",
                              "cannot unpack non-iterable NoneType object"])],
]


def test_closed_bounds_take_their_bound():
    # K >= 1 and R >= 0 are closed: the bound itself, as an int or a float,
    # is a dilatation or a fellow-traveling constant
    for K in (1, 1.0):
        assert hc.quasi_geodesic_stability_R(K, 1.0) == 0.0
        assert qb.QCHParams(K, 1.0, 0.3).R == 0.0
    for R in (0, 0.0):
        assert qb.QCHParams(1.5, 1.0, 0.3, R).R == 0.0


@pytest.mark.parametrize("cls, args, error, message", INVALID,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(INVALID)])
def test_validation_errors_are_unchanged(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert type(info.value) is error
    assert str(info.value) == message
