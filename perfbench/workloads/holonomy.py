"""Workload ``holonomy``: Fenchel-Nielsen holonomy of seeded ladder windows.

Each job builds ladder FN data on the window [-N, N], computes its
holonomy, and certifies it: every cuff length is recovered locally from its
trace, every pants triple closes up, sampled cuffs are recovered from the
global frame, the frame chain re-composed with ``@`` equals the stored
frames, the data survives the JSON round trip, and the constant chain of
the job's (K, L) is consistent.  Period-2 jobs also check that the shift
quotient has genus 3.

The window sizes form a fixed multiset, so the work per pass hardly depends
on the seed; the seed draws lengths, twists, sampled cuffs, K, the pentagon
side and the job order.  The ``overflow`` windows lie past the point where
holonomy_from_fn overflows today (frames grow about 10^3 per index at short
lengths); they are known-defect jobs.
"""

from __future__ import annotations

import math

from harness import CheckFailed, Tracer

TOL = 1e-9
FAMILIES = ("a", "b", "c")

# kind -> (window sizes, cuff length range, known defect)
SCHEDULE = {
    "small": ([2, 3, 4, 5, 6, 7, 8] * 8, (0.5, 3.0), None),
    "period2": ([2, 3, 4, 5, 6, 7, 8] * 2, (0.5, 3.0), None),
    "medium": ([12, 14, 16, 18, 20, 22, 24] * 3, (0.5, 3.0), None),
    # at N = 36 and every length 0.5 the largest frame entry is ~1e131,
    # below the 1e150 guard of global_length
    "large": ([28, 30, 32, 34, 36, 28, 32, 36], (0.5, 3.0), None),
    "overflow": ([56, 60, 64, 68, 72, 80], (0.5, 1.0), "holonomy_overflow"),
}

# outcomes of a known defect: the raw OverflowError of MobiusMap, or the
# overflow guard refusing a global length just below that point
KNOWN_DEFECTS = {
    "holonomy_overflow": ("raised:OverflowError", "raised:NumericalInstability"),
}


def generate(rng, tiny: bool = False) -> list:
    jobs = []
    for kind, (windows, (lo, hi), defect) in SCHEDULE.items():
        for N in windows[:1] if tiny else windows:
            if kind == "period2":
                cell = [tuple(rng.uniform(lo, hi) for _ in FAMILIES) for _ in range(2)]
                turn = [tuple(rng.uniform(0.0, 2 * math.pi) for _ in FAMILIES) for _ in range(2)]
                lengths = tuple(cell[k % 2] for k in range(-N, N + 1))
                twists = tuple(turn[k % 2] for k in range(-N, N + 1))
            else:
                lengths = tuple(tuple(rng.uniform(lo, hi) for _ in FAMILIES)
                                for _ in range(-N, N + 1))
                twists = tuple(tuple(rng.uniform(0.0, 2 * math.pi) for _ in FAMILIES)
                               for _ in range(-N, N + 1))
            sample = tuple((rng.choice(FAMILIES), rng.randint(-N, N)) for _ in range(3))
            jobs.append({
                "kind": kind,
                "defect": defect,
                "N": N,
                "lengths": lengths,
                "twists": twists,
                "sample": sample,
                "K": rng.uniform(1.0, 2.0),
                "m_inj": rng.uniform(0.1, 0.5),
                "pentagon_b": rng.uniform(0.9, 3.0),
            })
    rng.shuffle(jobs)
    return jobs


def warm_up(lib, jobs) -> None:
    for job in [j for j in jobs if j["kind"] == "small"][:2]:
        run_job(job, lib, Tracer(False), {})


def _check_close(reason, got, want, scale=1.0):
    if not abs(got - want) <= TOL * max(1.0, scale):
        raise CheckFailed(reason, f"got {got!r}, expected {want!r}")


def run_job(job, lib, tr, state) -> None:
    fnm, hc, qb = lib.fenchel_nielsen, lib.hyp_core, lib.qch_bounds
    N = job["N"]
    lengths, twists = job["lengths"], job["twists"]

    def length(family, k):
        return lengths[k + N][FAMILIES.index(family)]

    def twist(family, k):
        return twists[k + N][FAMILIES.index(family)]

    fn = tr.call("fenchel_nielsen.build_ladder_fn", fnm.build_ladder_fn, N,
                 lengths=length, twists=twist)
    hol = tr.call("fenchel_nielsen.holonomy_from_fn", fnm.holonomy_from_fn, fn)
    tr.count("fenchel_nielsen.holonomy_from_fn.frames", len(hol.frames))

    for k in range(-N, N + 1):
        for family in FAMILIES:
            got = tr.call("fenchel_nielsen.recovered_length", hol.recovered_length, family, k)
            _check_close("local_length", got, length(family, k))
    for pants in hol.pants.values():
        residual = tr.call("fenchel_nielsen.closure_residual", pants.closure_residual)
        if not residual <= TOL:
            raise CheckFailed("closure_residual", f"{pants.cuffs}: {residual!r}")

    for family, k in job["sample"]:
        try:
            got = tr.call("fenchel_nielsen.global_length", hol.global_length, family, k)
        except lib.errors.NumericalInstability:
            tr.count("fenchel_nielsen.global_length.refused")
            raise
        _check_close("global_length", got, length(family, k))

    # walk the gluings left to right and compare with the stored frames
    matmul = hc.MobiusMap.__matmul__
    frame = hc.MobiusMap.identity()
    for k in range(-N, N):
        for src, dst, cuff in ((("P1", k), ("P2", k), ("a", k)),
                               (("P2", k), ("P1", k + 1), ("c", k + 1))):
            frame = tr.call("hyp_core.mobius_matmul", matmul, frame, hol.transitions[(src, dst, cuff)])
            stored = hol.frames[dst]
            scale = stored.max_entry()
            for got, want in zip((frame.a, frame.b, frame.c, frame.d),
                                 (stored.a, stored.b, stored.c, stored.d)):
                _check_close("frame_chain", got, want, scale)

    back = tr.call("fenchel_nielsen.fn_json_roundtrip",
                   lambda: fnm.fn_from_json(fnm.fn_to_json(fn)))
    if back.window != fn.window or back.coords != fn.coords:
        raise CheckFailed("fn_json_roundtrip")

    K, L = job["K"], length("a", 0)
    params = qb.QCHParams(K=K, L=L, m_inj=job["m_inj"])
    rep = tr.call("qch_bounds.report", qb.report, params)
    R = rep.params.R
    _check_close("qch_report", rep.a, R + 2.0 * K * L, R)
    _check_close("qch_report", rep.D, 3.0 * (R + K * L), R)
    window_bound = (K / rep.a) * (rep.b + K * math.log(4.0) + R)
    if not rep.m_window - 1 <= window_bound < rep.m_window:
        raise CheckFailed("qch_report", f"m_window {rep.m_window} for bound {window_bound}")

    pentagon = tr.call("hyp_core.solve_pentagon", hc.solve_pentagon, job["pentagon_b"])
    residual = tr.call("hyp_core.pentagon_closure_residual", hc.pentagon_closure_residual, pentagon)
    if not residual <= TOL:
        raise CheckFailed("pentagon_closure", repr(residual))

    if job["kind"] == "period2":
        quotient = tr.call("fenchel_nielsen.quotient_by_shift", fnm.quotient_by_shift, fn)
        if quotient.genus != 3 or len(quotient.pants) != 4:
            raise CheckFailed("shift_quotient", f"genus {quotient.genus}")
