"""Exception hierarchy shared by all hypladder modules, and the base of
their value records.

Every error carries a short machine-readable ``rule`` naming the violated
precondition, so the CLI can emit structured error objects.
"""

import math


class _Record:
    """Base of the library's value records: ``__slots__`` classes that behave
    as frozen dataclasses do, without importing ``dataclasses``.

    A subclass lists its fields, in order, as ``__slots__`` and stores them
    in its ``__init__`` with one ``_set_fields`` call, through the setters
    of its slot descriptors, which ``_setters`` holds in slot order; only
    ``MobiusMap``, stored by the hundred thousand, calls those setters one
    by one, which skips the loop.  Records compare and hash by their fields
    (a field holding a dict makes the record unhashable), print as
    ``Name(field=value, ...)``, refuse assignment and deletion, and copy and
    pickle by their fields, which ``_rebuild`` stores again without calling
    ``__init__``, so a copy keeps every bit.  The base lives here because
    every CLI child loads this module; a module whose records use it does
    not import ``dataclasses`` and, with it, ``inspect``: together the
    largest start-up cost among hypladder's imports.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set_fields(self, *values) -> None:
        for store, value in zip(self._setters, values):
            store(self, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return _rebuild, (self.__class__, self._fields())


def _rebuild(cls, fields):
    """A record of class cls with the given fields, its ``__init__`` skipped."""
    record = object.__new__(cls)
    record._set_fields(*fields)
    return record


class HypladderError(Exception):
    rule = "error"


class DegeneratePentagon(HypladderError):
    rule = "pentagon-degenerate"


class NonPositiveLength(HypladderError):
    rule = "length-nonpositive"


_INF = math.inf


def check_number(name: str, value, lo: float = 0.0, closed: bool = False,
                 below: str = "be positive", error: type = NonPositiveLength) -> None:
    """Raise ``error`` unless value is a finite number above lo, or at
    least lo if the bound is ``closed``: the one number rule of the library.
    A ``bool`` is not a number, though True compares as 1 and False as 0,
    NaN and +-inf are not finite, and a value that does not compare with a
    float (a string, None) is no number.  The message says that the value
    must ``below`` where it lies below the bound, else that it must be
    finite or a number.  The defaults are a length's rule; float bounds keep
    a float's comparisons on their fast path."""
    try:
        if (lo <= value < _INF if closed else lo < value < _INF) and value is not True and value is not False:
            return
        what = ("be a number" if isinstance(value, bool) else
                below if (value < lo if closed else value <= lo) else "be finite")
    except TypeError:  # value does not compare with a float
        what = "be a number"
    raise error(f"{name} must {what}, got {value!r}")


class NonPositiveSize(HypladderError, ValueError):
    """A window size, shift period, row separation, or row or column count
    below 1, or a size that is not an ``int``: a window, period, genus,
    boundary count, diameter or tiled size (a ``bool`` is not one).  Also a
    ``ValueError``, so callers that catch ``ValueError`` for bad sizes keep
    working."""

    rule = "size-nonpositive"


def is_int(value) -> bool:
    """Whether value is an ``int`` and not a ``bool``: a bool is an int to
    ``isinstance``, but never a size, genus or order."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value, least: int | None = None, error: type = NonPositiveSize) -> None:
    """Raise NonPositiveSize unless value is an int (see ``is_int``), and
    ``error`` if it lies below ``least``, where one is given: the one size
    rule of the library."""
    if not is_int(value):
        raise NonPositiveSize(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def check_record(name: str, value, cls: type) -> None:
    """Raise InconsistentInput unless value is a ``cls``: the one rule for
    a record handed to a public function, one ``isinstance`` per call."""
    if not isinstance(value, cls):
        raise InconsistentInput(f"{name} must be {cls.__name__}, got {value!r}")


class NegativeSurface(HypladderError, ValueError):
    """A genus or boundary count below 0."""

    rule = "surface-negative"


class NonPositiveDeterminant(HypladderError, ValueError):
    """A Mobius matrix with determinant <= 0 (not in PSL(2, R))."""

    rule = "determinant-nonpositive"


class MissingCoordinates(HypladderError, ValueError):
    """Fenchel-Nielsen coordinates with an index of the window left out, or
    a curve looked up that the window does not hold."""

    rule = "coordinates-missing"


class NotTrivalent(HypladderError, ValueError):
    """A pants graph with a vertex of degree other than 3."""

    rule = "graph-not-trivalent"


class InconsistentEdgeLength(HypladderError, ValueError):
    """One edge of a tiled complex given two different lengths."""

    rule = "edge-length-inconsistent"


class UnknownVertex(HypladderError, ValueError):
    """A vertex that is not in the graph it is looked up in."""

    rule = "vertex-unknown"


class NegativeDiameter(HypladderError, ValueError):
    """A graph diameter below 0."""

    rule = "diameter-negative"


class NotHyperbolic(HypladderError):
    rule = "trace-not-hyperbolic"


class InvalidDilatation(HypladderError):
    rule = "dilatation-below-one"


class NumericalInstability(HypladderError):
    rule = "matrix-overflow"


class NotShiftInvariant(HypladderError):
    rule = "shift-invariance"

    def __init__(self, message, offending_index=None):
        super().__init__(message)
        self.offending_index = offending_index


class ArccoshDomainError(HypladderError):
    rule = "arccosh-domain"

    def __init__(self, message, ratio=None):
        super().__init__(message)
        self.ratio = ratio


class ComplexityTooLarge(HypladderError):
    rule = "complexity-cap"


class ScaleTooLarge(HypladderError):
    rule = "scale-cap"


class Unreachable(HypladderError):
    rule = "unreachable"


class InconsistentInput(HypladderError):
    rule = "inconsistent-input"
