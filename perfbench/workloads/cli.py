"""Workload ``cli``: the command-line program, one client in a closed loop.

Each job runs ``python -m hypladder.cli <argv>`` as a child process and
waits for it before the next job starts.  The argv mix covers all eight
subcommands at small sizes with a fixed count per template; the seed draws
the arguments and the order.  A fifth of the argv is out of domain.

Every call is checked against the README contract: the exit code is 0, 2 or
64; stderr carries no traceback; stdout is strict JSON, or CSV/text where
asked; an out-of-domain argv gets exit 2 or 64 with an error object; a valid
argv returns the expected invariant, computed in this process from the
library (pentagon sides and residual, collar width, window records, quotient
genus, constant chain, pants-graph class count, certificate, cover type).

The argv of INPUT_BOUNDARY are known defects: today they end in a
traceback, print non-standard JSON, or exit 0 with a wrong answer.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

from harness import CheckFailed

from . import pants

SUBPROCESS = True  # peak_rss_mib is that of the largest child
# a job's time is mostly interpreter start-up and imports, so the speed
# kernel (see harness.speed_kernel) is a child that starts and imports the
# standard-library modules hypladder imports
REFERENCE_KERNEL_S = 0.085
KERNEL_IMPORTS = "import argparse, csv, dataclasses, enum, fractions, heapq, io, itertools, json"
TIMEOUT_S = 60
TOL = 1e-9

SUBCOMMANDS = ("pentagon", "collar", "fn", "quotient", "bounds", "pants-graph",
               "tiled", "classify")

INPUT_BOUNDARY = (
    ["pentagon", "--b", "nan"],
    ["collar", "--l", "inf"],
    ["quotient", "--period", "0"],
    ["pants-graph", "--genus", "2", "--boundary", "-1"],
    ["tiled", "certify", "--b", "1.0", "--n", "0"],
)
KNOWN_DEFECTS = {
    "input_boundary": ("exit_code", "traceback", "strict_json", "expected_error"),
}

PANTS_SURFACES = [(0, 4), (1, 1), (0, 5), (1, 2), (0, 6), (1, 3), (2, 0), (2, 1)]
DECKS = ("finite:2", "finite:3", "infinite:1", "infinite:2", "infinite:many")


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _valid_argv(rng, template: str, i: int) -> list:
    """The i-th argv of a template.  Discrete sizes cycle with i, so every
    seed runs the same sizes; the seed draws the real-valued arguments."""
    u = rng.uniform
    if template == "pentagon":
        return ["pentagon", "--b", _fmt(u(0.9, 3.0))]
    if template == "collar":
        return ["collar", "--l", _fmt(u(0.1, 5.0))]
    if template in ("fn-json", "fn-csv"):
        fmt = template.split("-")[1]
        return ["fn", "--window", str(1 + i % 4), "--length", _fmt(u(0.5, 3.0)),
                "--twist", _fmt(u(0.0, 10.0)), "--format", fmt]
    if template == "quotient":
        return ["quotient", "--window", str(2 + i % 3), "--length", _fmt(u(0.5, 3.0)),
                "--odd-length", _fmt(u(0.5, 3.0)), "--twist", _fmt(u(0.0, 6.0))]
    if template == "bounds":
        return ["bounds", "--k", _fmt(u(1.0, 2.0)), "--l", _fmt(u(0.5, 3.0)),
                "--inj-radius", _fmt(u(0.1, 0.5))]
    if template == "bounds-sweep":
        return ["bounds", "--k", "1", "--l", _fmt(u(0.5, 3.0)), "--inj-radius",
                _fmt(u(0.1, 0.5)), "--sweep", "k=1:2:0.25"]
    if template in ("pants-graph", "pants-graph-text"):
        g, b = PANTS_SURFACES[i % len(PANTS_SURFACES)]
        argv = ["pants-graph", "--genus", str(g), "--boundary", str(b)]
        return argv + (["--format", "text"] if template.endswith("text") else [])
    if template == "tiled-certify":
        argv = ["tiled", "certify", "--b", _fmt(u(0.9, 2.0)), "--n", str(1 + i % 6)]
        return argv + (["--refine-diagonals"] if i % 3 == 2 else [])
    if template == "tiled-export":
        return ["tiled", "export", "--b", _fmt(u(0.9, 2.0)), "--n", str(1 + i % 3)]
    if template == "classify":
        argv = ["classify", "--base-genus", str(1 + i % 3), "--deck", DECKS[i % len(DECKS)]]
        return argv + (["--planar"] if i % 2 else [])
    raise KeyError(template)


def _invalid_argv(rng, template: str) -> list:
    u = rng.uniform
    return {
        "pentagon-degenerate": ["pentagon", "--b", _fmt(u(0.1, 0.85))],
        "collar-negative": ["collar", "--l", _fmt(-u(0.1, 5.0))],
        "bounds-dilatation": ["bounds", "--k", _fmt(u(0.1, 0.9)), "--l", "1",
                              "--inj-radius", "0.5"],
        "pants-graph-cap": ["pants-graph", "--genus", str(rng.randint(3, 4))],
        "classify-deck": ["classify", "--base-genus", "2", "--deck", "finite:x"],
        "unknown-command": ["nosuch"],
        "missing-argument": ["pentagon"],
    }[template]


# template -> jobs per pass
VALID = {
    "pentagon": 10, "collar": 10, "fn-json": 5, "fn-csv": 5, "quotient": 10,
    "bounds": 8, "bounds-sweep": 2, "pants-graph": 8, "pants-graph-text": 2,
    "tiled-certify": 7, "tiled-export": 3, "classify": 10,
}
INVALID = {
    "pentagon-degenerate": 2, "collar-negative": 2, "bounds-dilatation": 2,
    "pants-graph-cap": 2, "classify-deck": 2, "unknown-command": 3, "missing-argument": 2,
}


def generate(rng, tiny: bool = False) -> list:
    jobs = []
    for template, count in VALID.items():
        for i in range(1 if tiny else count):
            jobs.append({"kind": "valid", "defect": None, "argv": _valid_argv(rng, template, i)})
    for template, count in INVALID.items():
        for _ in range(1 if tiny else count):
            jobs.append({"kind": "invalid", "defect": None, "argv": _invalid_argv(rng, template)})
    for argv in INPUT_BOUNDARY:
        jobs.append({"kind": "invalid", "defect": "input_boundary", "argv": list(argv)})
    rng.shuffle(jobs)
    return jobs


def speed_kernel() -> None:
    subprocess.run([sys.executable, "-c", KERNEL_IMPORTS], check=True, timeout=TIMEOUT_S)


def warm_up(lib, jobs) -> None:
    code, _out = lib.cli.run(["pentagon", "--b", "1.2"])
    if code != 0:
        raise CheckFailed("exit_code", f"warm-up call exited {code}")


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    try:
        return json.loads(text, parse_constant=reject)
    except ValueError as exc:
        raise CheckFailed("strict_json", str(exc)) from None


def _close(reason, got, want):
    if not abs(got - want) <= TOL * max(1.0, abs(want)):
        raise CheckFailed(reason, f"got {got!r}, expected {want!r}")


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_valid(argv, out: str, lib, tr, cover) -> None:
    sub = argv[0]
    if sub == "pentagon":
        data = _strict_json(out)
        p = tr.call("hyp_core.solve_pentagon", lib.hyp_core.solve_pentagon, float(argv[2]))
        _close("pentagon", data["a"], p.a)
        _close("pentagon", data["c"], p.c)
        if not data["closure_residual"] < TOL:
            raise CheckFailed("pentagon", f"residual {data['closure_residual']}")
    elif sub == "collar":
        data = _strict_json(out)
        _close("collar", data["collar_width"], lib.hyp_core.collar_width(float(argv[2])))
    elif sub == "fn":
        window = int(_option(argv, "--window"))
        length = float(_option(argv, "--length"))
        twist = math.fmod(float(_option(argv, "--twist")), 2 * math.pi)
        if _option(argv, "--format") == "csv":
            rows = [line.split(",") for line in out.splitlines()]
            if rows[0] != ["k", "l_a", "t_a", "l_b", "t_b", "l_c", "t_c"] or len(rows) != 2 * window + 2:
                raise CheckFailed("fn_records", f"{len(rows)} csv rows")
            records = [dict(zip(rows[0], map(float, row))) for row in rows[1:]]
        else:
            records = _strict_json(out)["records"]
        if len(records) != 2 * window + 1:
            raise CheckFailed("fn_records", f"{len(records)} records")
        for r in records:
            for family in "abc":
                _close("fn_records", r["l_" + family], length)
                _close("fn_records", r["t_" + family], twist)
    elif sub == "quotient":
        data = _strict_json(out)
        if data["genus"] != 3 or len(data["pants"]) != 4:
            raise CheckFailed("quotient", f"genus {data['genus']}")
    elif sub == "bounds":
        K, L, m_inj = (float(_option(argv, o)) for o in ("--k", "--l", "--inj-radius"))
        qb = lib.qch_bounds
        if "--sweep" in argv:
            rows = out.splitlines()
            if not rows[0].startswith("K,L,R,") or len(rows) != 6:
                raise CheckFailed("bounds_sweep", f"{len(rows)} rows")
            return
        data = _strict_json(out)
        rep = tr.call("qch_bounds.report", qb.report, qb.QCHParams(K=K, L=L, m_inj=m_inj))
        want = rep.to_dict()["constants"]
        for name in ("C", "D", "a", "b", "rho_upper", "pants_bound_per_step"):
            _close("bounds", data["constants"][name], want[name])
        if data["constants"]["m_window"] != want["m_window"]:
            raise CheckFailed("bounds", "m_window")
    elif sub == "pants-graph":
        surface = (int(_option(argv, "--genus")), int(_option(argv, "--boundary")))
        vertices, _edges, diameter = pants.TABLE[surface]
        if _option(argv, "--format") == "text":
            tail = out.splitlines()[-3:]
            got = tail == [f"vertices: {vertices}", "connected: True", f"diameter: {diameter}"]
        else:
            data = _strict_json(out)
            got = (len(data["vertices"]), data["connected"], data["diameter"]) == (
                vertices, True, diameter)
        if not got:
            raise CheckFailed("pants_graph_classes", " ".join(argv))
    elif sub == "tiled":
        b, n = float(_option(argv, "--b")), int(_option(argv, "--n"))
        if argv[1] == "export":
            rows = out.splitlines()
            if rows[0] != "u,v,length" or len(rows) < 2 or any(
                    float(r.rsplit(",", 1)[1]) <= 0 for r in rows[1:]):
                raise CheckFailed("tiled_export", f"{len(rows)} rows")
            return
        data = _strict_json(out)
        if not data["passes"]:
            raise CheckFailed("certificate", out)
        _close("certificate", data["distance"], 2.0 * n * b)
    elif sub == "classify":
        got = _strict_json(out).get("type")
        if got != cover:
            raise CheckFailed("classify", f"{got} for {argv}, expected {cover}")


def _expected_cover(argv, lib, tr):
    """Cover type the library gives a classify argv, or None when it
    rejects the combination (the CLI must then exit 2)."""
    tc = lib.topo_classify
    kind, _, arg = _option(argv, "--deck").partition(":")
    deck = (tc.DeckDescriptor(order=int(arg)) if kind == "finite" else
            tc.DeckDescriptor(order=None, end_count={"many": "infinitely_many"}.get(arg, arg)))
    try:
        cls = tr.call("topo_classify.classify_cover", tc.classify_cover,
                      int(_option(argv, "--base-genus")), deck, "--planar" in argv)
    except lib.errors.HypladderError:
        return None
    return cls.cover_type.value


def run_job(job, lib, tr, state) -> None:
    argv = job["argv"]
    try:
        proc = tr.call("cli.process", subprocess.run, lib.cli_command + argv, env=lib.cli_env,
                       capture_output=True, text=True, timeout=TIMEOUT_S)
        if tr.enabled and argv[0] in SUBCOMMANDS:
            span = tr.spans[-1]
            tr.add_time(f"cli.{argv[0]}.busy_s", span[4] - span[3])
        _check_contract(job, proc, lib, tr)
    except CheckFailed:  # a call that raised is counted by its span
        tr.count("cli.process.failed")
        raise


def _check_contract(job, proc, lib, tr) -> None:
    argv = job["argv"]
    if "Traceback" in proc.stderr:
        raise CheckFailed("traceback", proc.stderr.strip().splitlines()[-1])
    if proc.returncode not in (0, 2, 64):
        raise CheckFailed("exit_code", f"{proc.returncode} for {argv}")
    cover = _expected_cover(argv, lib, tr) if job["kind"] == "valid" and argv[0] == "classify" else None
    if job["kind"] == "invalid" or (argv[0] == "classify" and cover is None):
        payload = _strict_json(proc.stdout)
        if proc.returncode == 0 or "error" not in payload:
            raise CheckFailed("expected_error", f"exit {proc.returncode} for {argv}")
        return
    if proc.returncode != 0:
        raise CheckFailed("exit_code", f"{proc.returncode} for {argv}: {proc.stdout.strip()}")
    _check_valid(argv, proc.stdout, lib, tr, cover)


def traced_extra(job, lib, tr) -> None:
    """The same argv through ``cli.run`` in this process, outside the job's
    time: the CLI path without interpreter start-up and import."""
    try:
        tr.call("cli.run", lib.cli.run, job["argv"])
    except Exception:  # the known-defect argv raise here; the span records it
        pass
