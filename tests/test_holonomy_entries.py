"""The library's holonomy against an oracle on arithmetic of its own.

``conftest.py`` keeps the holonomy as it was built through a ``MobiusMap``
for every intermediate product (``oracle_holonomy``), on the test geometry:
products, inverse and translations written apart from ``hyp_core``.  The
library must give the same bits, by ``float.hex``, for every pants triple,
normalizer, frame transition, frame and closure residual, and where the
oracle refuses, the same error class with the same message.  The one
intended difference: the library refuses a pants whose X1 or X2 has a trace
rounded to 2 or below, which the oracle stored.  The oracle takes every
cosh and sinh afresh for each orthogeodesic, one pair at a time; the
library takes each half cuff's once.

A second test counts the maps a build makes: each must be one the result
stores, so an intermediate product that comes back fails without timing.
The pentagon residual and a pants closure check store nothing, so they
must make no map at all.
"""

from __future__ import annotations

import math
import random

import pytest

from hypladder import fenchel_nielsen as fnm
from hypladder import hyp_core
from hypladder.errors import NumericalInstability
from hypladder.fenchel_nielsen import (
    PantsCuffs,
    build_ladder_fn,
    holonomy_from_fn,
    pants_holonomy,
    pants_orthogeodesics,
)

RANGES = {"tiny": (1e-3, 1e-2), "short": (0.05, 0.5), "medium": (0.3, 3.0), "long": (3.0, 30.0)}
SEEDS = range(12)


def _hex(m) -> tuple:
    """float.hex of the entries of a library map or an oracle tuple."""
    e = m if isinstance(m, tuple) else (m.a, m.b, m.c, m.d)
    return tuple(x.hex() for x in e)


def _outcome(build, *args):
    """("ok", result) or ("raised", class, message)."""
    try:
        return "ok", build(*args)
    except Exception as exc:  # compared class and message below
        return "raised", type(exc), str(exc)


def _pants_bits(p, closure_residual) -> tuple:
    return (p.cuffs, p.lengths, [_hex(m) for m in p.matrices + p.normalizers],
            closure_residual(p).hex())


def _holonomy_bits(hol, closure_residual) -> tuple:
    return ({key: _pants_bits(p, closure_residual) for key, p in hol.pants.items()},
            {key: _hex(m) for key, m in hol.transitions.items()},
            {key: _hex(m) for key, m in hol.frames.items()})


def _ladder(seed: int, lo: float, hi: float):
    rng = random.Random(seed)
    N = rng.randint(1, 12)
    table = {(fam, k): (rng.uniform(lo, hi), rng.uniform(-50.0, 50.0))
             for k in range(-N, N + 1) for fam in "abc"}
    return build_ladder_fn(N, lengths=lambda fam, k: table[fam, k][0],
                           twists=lambda fam, k: table[fam, k][1])


def _mixed_ladder(seed: int):
    """Each curve from a range of its own, so short and long cuffs share pants."""
    rng = random.Random(seed)
    N = rng.randint(1, 8)
    table = {(fam, k): (rng.uniform(*rng.choice(list(RANGES.values()))),
                        rng.uniform(-50.0, 50.0))
             for k in range(-N, N + 1) for fam in "abc"}
    return build_ladder_fn(N, lengths=lambda fam, k: table[fam, k][0],
                           twists=lambda fam, k: table[fam, k][1])


def _assert_same_holonomy(fn, oracle):
    want = _outcome(oracle["holonomy_from_fn"], fn)
    got = _outcome(holonomy_from_fn, fn)
    assert got[0] == want[0], (got, want)
    if want[0] == "raised":
        assert got[1:] == want[1:]
    else:
        assert (_holonomy_bits(got[1], fnm.PantsHolonomy.closure_residual)
                == _holonomy_bits(want[1], oracle["closure_residual"]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("lengths", sorted(RANGES))
def test_ladder_bit_identical(lengths, seed, oracle_holonomy):
    _assert_same_holonomy(_ladder(seed, *RANGES[lengths]), oracle_holonomy)


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_ladder_bit_identical(seed, oracle_holonomy):
    _assert_same_holonomy(_mixed_ladder(1000 + seed), oracle_holonomy)


def test_pants_bit_identical_or_same_refusal(oracle_holonomy):
    # cuffs log-uniform over 10^-12 .. 10^3: builds, roundoff breakdowns and
    # overflows; only the trace check on X1 and X2 may refuse more
    rng = random.Random(7)
    refused = extra = 0
    for _ in range(3000):
        lengths = tuple(10.0 ** rng.uniform(-12.0, 3.0) for _ in range(3))
        want = _outcome(oracle_holonomy["pants_holonomy"], ("1", "2", "3"), lengths)
        got = _outcome(pants_holonomy, ("1", "2", "3"), lengths)
        if want[0] == "raised":
            refused += 1
            assert got[1:] == want[1:]
        elif got[0] == "raised":
            extra += 1
            X1, X2, _ = want[1].matrices
            assert got[1] is NumericalInstability and "trace" in got[2]
            assert min(abs(X1[0] + X1[3]), abs(X2[0] + X2[3])) <= 2.0
        else:
            assert (_pants_bits(got[1], fnm.PantsHolonomy.closure_residual)
                    == _pants_bits(want[1], oracle_holonomy["closure_residual"]))
    assert refused and extra  # the sample reaches both kinds of refusal


def test_orthogeodesics_bit_identical_or_same_refusal(oracle_holonomy):
    # cuffs log-uniform over 10^-250 .. 10^3.5: finite, overflowing and
    # underflowing orthogeodesics; none of the 4,000 has a ratio that rounds
    # below 1, which ORTHOGEODESIC_REFUSALS pins instead
    rng = random.Random(17)
    kinds = set()
    for _ in range(4000):
        lengths = tuple(10.0 ** rng.uniform(-250.0, 3.5) for _ in range(3))
        want = _outcome(oracle_holonomy["orthogeodesics"], *lengths)
        got = _outcome(lambda: pants_orthogeodesics(PantsCuffs(*lengths)))
        kinds.add(want[0])
        if want[0] == "raised":
            assert got[1:] == want[1:]
        else:
            assert got[0] == "ok" and [d.hex() for d in got[1]] == [d.hex() for d in want[1]]
    assert kinds == {"ok", "raised"}


# each refusal as the per-pair formula gave it: a cosh that overflows takes
# d_12 down first, wherever the long cuff sits; an underflowing sinh product
# refuses the first pair it is in; a cosh ratio that rounds below 1 (the
# last triple, two long cuffs beside a short one) names the rounding
ORTHOGEODESIC_REFUSALS = [
    ((1500.0, 1.0, 1.0), "1500.0 and 1.0"),
    ((1.0, 1500.0, 1.0), "1.0 and 1500.0"),
    ((1.0, 1.0, 1500.0), "1.0 and 1.0"),
    ((1e-200, 2e-200, 1.0), "1e-200 and 2e-200"),
    ((1e-200, 1.0, 2e-200), "1e-200 and 2e-200"),
    ((1.0, 1e-200, 2e-200), "1e-200 and 2e-200"),
    ((3e-200, 2e-200, 1e-200), "3e-200 and 2e-200"),
    ((0.002531905736032896, 499.4533087574522, 40.984018174258146),
     "499.4533087574522 and 40.984018174258146"),
]
ROUNDED_BELOW_ONE = {(0.002531905736032896, 499.4533087574522, 40.984018174258146)}


@pytest.mark.parametrize("lengths, pair", ORTHOGEODESIC_REFUSALS)
def test_orthogeodesic_refusal_messages(lengths, pair, oracle_holonomy):
    cause = ("is lost to rounding: its cosh rounds below 1" if lengths in ROUNDED_BELOW_ONE
             else "is not finite")
    message = f"orthogeodesic between cuffs of length {pair} {cause}"
    for build in (lambda: pants_orthogeodesics(PantsCuffs(*lengths)),
                  lambda: pants_holonomy(("1", "2", "3"), lengths),
                  lambda: oracle_holonomy["orthogeodesics"](*lengths)):
        assert _outcome(build) == ("raised", NumericalInstability, message)


def test_transition_bit_identical_for_raw_twists(oracle_holonomy):
    # build_ladder_fn folds twists into [0, 2*pi); a transition takes any
    # angle, here within +-50, and lengths up to 30
    rng = random.Random(11)
    for _ in range(400):
        lo, hi = rng.choice(list(RANGES.values()))
        la, lb, lc, lc2 = (rng.uniform(lo, hi) for _ in range(4))
        try:
            p = pants_holonomy([("c", 0), ("a", 0), ("b", 0)], (lc, la, lb))
            q = pants_holonomy([("a", 0), ("b", 0), ("c", 1)], (la, lb, lc2))
        except NumericalInstability:  # short cuffs can break down
            continue
        theta = rng.uniform(-50.0, 50.0)
        for src, dst, cuff, length in ((p, q, ("a", 0), la), (q, p, ("b", 0), lb)):
            want = _outcome(oracle_holonomy["twist_transition"], src, dst, cuff, length, theta)
            Np = src.normalizers[src.cuffs.index(cuff)]
            Nq = dst.normalizers[dst.cuffs.index(cuff)]
            got = _outcome(fnm._twist_transition, Np, Nq, length, theta)
            if want[0] == "raised":
                assert got[1:] == want[1:]
            else:  # both return entries
                assert got[0] == "ok" and _hex(got[1]) == _hex(want[1])


def test_transition_refusal_is_unchanged(oracle_holonomy):
    p = pants_holonomy([("c", 0), ("a", 0), ("b", 0)], (1.0, 1.0, 1.0))
    for t in (1e4, -1e4, math.nan, math.inf):
        want = _outcome(oracle_holonomy["twist_transition"], p, p, ("a", 0), 2 * math.pi, t)
        got = _outcome(fnm._twist_transition, p.normalizers[1], p.normalizers[1], 2 * math.pi, t)
        assert want[0] == "raised" and got[1:] == want[1:]


def _stored_maps(hol) -> list:
    maps = list(hol.frames.values()) + list(hol.transitions.values())
    for p in hol.pants.values():
        maps += p.matrices + p.normalizers
    return maps


def _maps_made(monkeypatch, call) -> tuple:
    """(maps made, result) of call(): every map's entries are written
    through hyp_core's slot setters; keeping each new map alive keeps its id
    from being reused."""
    made = []
    set_a = hyp_core._set_a

    def counting_set_a(m, value):
        made.append(m)
        set_a(m, value)

    monkeypatch.setattr(hyp_core, "_set_a", counting_set_a)
    result = call()
    monkeypatch.undo()
    return made, result


@pytest.mark.parametrize("N", [1, 2, 5, 9])
def test_build_makes_only_the_maps_it_stores(N, monkeypatch):
    made, hol = _maps_made(
        monkeypatch, lambda: holonomy_from_fn(build_ladder_fn(N, lengths=0.8, twists=0.3)))
    made_ids = {id(m) for m in made}
    stored_new = {id(m) for m in _stored_maps(hol)} & made_ids
    assert len(made) == len(made_ids) == len(stored_new)
    # five per pants (X1, X2, X3, N2, N3), a transition and a frame per gluing
    assert len(made) == 5 * (4 * N + 1) + 2 * (4 * N)


@pytest.mark.parametrize("walk", ["pentagon_closure_residual"])
@pytest.mark.parametrize("b", [0.9, 1.3, 20.0])
def test_pentagon_walk_makes_no_maps(walk, b, monkeypatch):
    p = hyp_core.solve_pentagon(b)
    made, _ = _maps_made(monkeypatch, lambda: getattr(hyp_core, walk)(p))
    assert made == []


def test_closure_residual_makes_no_maps(monkeypatch):
    p = pants_holonomy(("1", "2", "3"), (0.8, 1.3, 2.1))
    made, residual = _maps_made(monkeypatch, p.closure_residual)
    assert made == [] and residual < 1e-12
