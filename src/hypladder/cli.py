"""Command-line entry point.

One subcommand per module, machine-readable output (JSON by default, CSV
for tabular data), deterministic for fixed inputs: floats are rounded to 12
significant digits and JSON keys are sorted.  Exit codes: 0 on success, 2
on domain errors (with a structured error object on stdout), 64 on usage
errors.  ``-h``/``--help`` print the help text as a JSON object too, with
exit code 0.

The library is imported inside the handlers, not here: every call starts a
fresh interpreter, so each subcommand loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import HypladderError, NumericalInstability, check_int, is_int

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64

# most rows one --sweep may emit
MAX_SWEEP_ROWS = 10_000
# largest fn/quotient --window
MAX_WINDOW = 10_000
# most cells in the (n+2) x cols grid behind tiled --n/--cols: a level-5 window
MAX_TILED_CELLS = 81 * 81


class UsageError(Exception):
    pass


class _Help(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def _get_formatter(self):
        # help is output: wrap it at a fixed width, not the terminal's
        return self.formatter_class(prog=self.prog, width=80)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload: dict) -> str:
    """Strict JSON: a NaN or infinity in the payload is a domain error, never
    a non-standard token on stdout."""
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    try:
        return json.dumps(_round_floats(payload), sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalInstability("result is not finite") from None


def _cmd_pentagon(args) -> str:
    from .hyp_core import pentagon_closure_residual, solve_pentagon

    p = solve_pentagon(args.b)
    return _emit_json(
        {
            "b": p.b,
            "a": p.a,
            "c": p.c,
            "closure_residual": pentagon_closure_residual(p),
        }
    )


def _cmd_collar(args) -> str:
    from .hyp_core import collar_width

    return _emit_json({"length": args.l, "collar_width": collar_width(args.l)})


def _build_fn(args):
    from . import fenchel_nielsen as fn_mod

    if args.window > MAX_WINDOW:
        raise UsageError(f"--window must be at most {MAX_WINDOW}, got {args.window}")
    lengths = args.length
    if args.odd_length is not None:
        even, odd = args.length, args.odd_length
        lengths = lambda fam, k: odd if k % 2 else even
    return fn_mod.build_ladder_fn(args.window, lengths=lengths, twists=args.twist)


def _cmd_fn(args) -> str:
    from . import fenchel_nielsen as fn_mod

    fn = _build_fn(args)
    if args.format == "csv":
        return fn_mod.fn_to_csv(fn)
    return _emit_json(fn_mod.fn_to_dict(fn))


def _cmd_quotient(args) -> str:
    from . import fenchel_nielsen as fn_mod

    fn = _build_fn(args)
    q = fn_mod.quotient_by_shift(fn, period=args.period)
    return _emit_json(
        {
            "pants": list(q.pants),
            "cuffs": list(q.cuffs),
            "euler_characteristic": q.euler_characteristic,
            "genus": q.genus,
            "coords": {str(k): list(v) for k, v in q.coords.items()},
        }
    )


def _parse_sweep(text: str):
    malformed = UsageError(
        f"--sweep expects k=START:STOP:STEP or l=START:STOP:STEP, got {text!r}"
    )
    name, _, rng = text.partition("=")
    if name not in ("k", "l"):
        raise malformed
    try:
        start, stop, step = map(float, rng.split(":"))
    except ValueError:
        raise malformed from None
    if not 0 < step < math.inf:
        raise UsageError("--sweep step must be positive and finite")
    span = (stop - start + 1e-12) / step
    if not -math.inf < span < MAX_SWEEP_ROWS:
        raise UsageError(f"--sweep needs finite bounds and at most {MAX_SWEEP_ROWS} rows")
    return name, [round(start + i * step, 12) for i in range(math.floor(span) + 1)]


def _cmd_bounds(args) -> str:
    from . import qch_bounds as qb

    def params(K, L):
        return qb.QCHParams(K=K, L=L, m_inj=args.inj_radius, R=args.r)

    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        constants = qb.BoundReport.__match_args__[1:]  # every field after params
        lines = [",".join(("K", "L", "R", *constants))]
        for v in values:
            rep = qb.report(params(v if name == "k" else args.k, v if name == "l" else args.l))
            row = [rep.params.K, rep.params.L, rep.params.R, *(getattr(rep, c) for c in constants)]
            lines.append(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row))
        return "\n".join(lines) + "\n"
    rep = qb.report(params(args.k, args.l))
    return _emit_json(rep.to_dict())


def _cmd_pants_graph(args) -> str:
    from . import pants_graph as pg

    if args.propagate_m is not None and args.format == "text":
        raise UsageError("--propagate-m needs --format json: text output has no bounds")
    if args.inj_radius is not None and args.propagate_m is None:
        raise UsageError("--inj-radius needs --propagate-m: only the bounds use it")
    if args.propagate_m is not None and args.inj_radius is None:
        raise UsageError("--propagate-m requires --inj-radius")
    graph = pg.modular_pants_graph(args.genus, args.boundary)
    if args.format == "text":
        out = graph.to_adjacency_text()
        out += f"vertices: {graph.vertex_count()}\n"
        out += f"connected: {graph.connected}\ndiameter: {graph.diameter}\n"
        return out
    payload = graph.to_dict()
    if args.propagate_m is not None:
        bounds = pg.propagate_bounds(graph, 0, args.propagate_m, args.inj_radius)
        payload["bounds_from_vertex_0"] = {str(k): v for k, v in bounds.items()}
    return _emit_json(payload)


def _cmd_tiled(args) -> str:
    rows = max(3, args.n + 2)
    cols = 2 if args.cols is None else args.cols
    if rows * cols > MAX_TILED_CELLS:
        raise UsageError(f"tiled grid of {rows}x{cols} exceeds {MAX_TILED_CELLS} cells")
    from . import tiled_surface as ts

    t = ts.build_grid(args.b, rows, cols)
    if args.refine_diagonals:
        t = ts.add_diagonals(t)
    if args.action == "certify":
        return _emit_json(ts.certify_vertical_minimizing(t, args.n).to_dict())
    check_int("row separation", args.n, 1)  # export refuses what certify refuses
    lines = ["u,v,length"]
    for (u, v), w in sorted(t.edges.items()):
        lines.append(f"{'/'.join(map(str, u))},{'/'.join(map(str, v))},{w:.12g}")
    return "\n".join(lines) + "\n"


def _parse_deck(text: str):
    from . import topo_classify as tc

    kind, _, arg = text.partition(":")
    if kind == "finite":
        try:
            return tc.DeckDescriptor(order=int(arg))
        except ValueError:
            raise UsageError(f"finite deck needs an integer order, got {arg!r}")
    if kind == "infinite":
        mapping = {"1": "1", "2": "2", "many": "infinitely_many"}
        if arg not in mapping:
            raise UsageError("infinite deck needs end count 1, 2, or many")
        return tc.DeckDescriptor(order=None, end_count=mapping[arg])
    raise UsageError(f"deck must be finite:N or infinite:1|2|many, got {text!r}")


def _read_descriptor(path: str):
    """Base genus, deck and planarity from a JSON descriptor file
    {"base_genus": int, "deck": {"order": int} or {"end_count": str},
    "planar": bool}.  A file that cannot be read, is not JSON or lacks one
    of these is a usage error; topo_classify checks the values."""
    from . import topo_classify as tc

    try:
        with open(path, encoding="utf-8") as fh:
            desc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read JSON from --input {path!r}: {exc}") from None
    malformed = UsageError(
        '--input needs {"base_genus": int, "deck": {"order": int} or '
        '{"end_count": str}, "planar": bool}'
    )
    deck = desc.get("deck") if isinstance(desc, dict) else None
    if not isinstance(deck, dict):
        raise malformed
    base_genus, order, planar = desc.get("base_genus"), deck.get("order"), desc.get("planar")
    if not (is_int(base_genus) and (order is None or is_int(order))
            and type(planar) is bool):
        raise malformed
    if order is None:
        return base_genus, tc.DeckDescriptor(order=None, end_count=deck.get("end_count")), planar
    return base_genus, tc.DeckDescriptor(order=order), planar


def _cmd_classify(args) -> str:
    from . import topo_classify as tc

    if args.input:
        if args.base_genus is not None or args.deck is not None or args.planar is not None:
            raise UsageError("--input names the base genus, deck and planarity; "
                             "--base-genus, --deck and --[no-]planar go without it")
        base_genus, deck, planar = _read_descriptor(args.input)
    else:
        if args.base_genus is None or args.deck is None:
            raise UsageError("classify needs --input or both --base-genus and --deck")
        base_genus = args.base_genus
        deck = _parse_deck(args.deck)
        planar = bool(args.planar)
    cls = tc.classify_cover(base_genus, deck, planar)
    admissible, reason = tc.qch_admissible(cls.surface)
    return _emit_json(
        {
            "type": cls.cover_type.value,
            "rule": cls.rule,
            "validated": cls.validated,
            "genus": "infinite" if cls.surface.genus == float("inf") else cls.surface.genus,
            "ends": cls.surface.ends.value,
            "qch_admissible": admissible,
            "qch_reason": reason,
            "distance_minimizing_geodesics": tc.dist_min_geodesic_status(cls.surface),
        }
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="hypladder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pentagon", help="solve the right-angled (b,b,a,c,a) pentagon")
    p.add_argument("--b", type=float, required=True)
    p.set_defaults(func=_cmd_pentagon)

    p = sub.add_parser("collar", help="collar half-width of a closed geodesic")
    p.add_argument("--l", type=float, required=True)
    p.set_defaults(func=_cmd_collar)

    for name, func, text in (("fn", _cmd_fn, "Fenchel-Nielsen coordinates of a model ladder window"),
                             ("quotient", _cmd_quotient, "closed quotient of a shift-invariant ladder by a shift")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--window", type=int, default=2)
        p.add_argument("--length", type=float, default=1.0)
        p.add_argument("--odd-length", type=float, default=None)
        p.add_argument("--twist", type=float, default=0.0)
        if name == "fn":
            p.add_argument("--format", choices=("json", "csv"), default="json")
        else:
            p.add_argument("--period", type=int, default=2)
        p.set_defaults(func=func)

    p = sub.add_parser("bounds", help="explicit constant chain report")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--l", type=float, required=True)
    p.add_argument("--r", type=float, default=None,
                   help="fellow-traveling constant; default: built-in stability bound")
    p.add_argument("--inj-radius", type=float, required=True,
                   help="injectivity radius lower bound (never guessed)")
    p.add_argument("--sweep", type=str, default=None,
                   help="k=START:STOP:STEP or l=START:STOP:STEP, emits CSV")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("pants-graph", help="modular pants graph of a surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, default=0)
    p.add_argument("--propagate-m", type=float, default=None)
    p.add_argument("--inj-radius", type=float, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_pants_graph)

    p = sub.add_parser("tiled", help="certify or export a pentagon-tiled window")
    p.add_argument("action", choices=("certify", "export"))
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="row separation to certify")
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--refine-diagonals", action="store_true")
    p.set_defaults(func=_cmd_tiled)

    p = sub.add_parser("classify", help="classify a regular cover of a closed surface")
    p.add_argument("--input", type=str, default=None, help="JSON descriptor file")
    p.add_argument("--base-genus", type=int, default=None)
    p.add_argument("--deck", type=str, default=None, help="finite:N or infinite:1|2|many")
    p.add_argument("--planar", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=_cmd_classify)

    return parser


def run(argv) -> tuple[int, str]:
    """Parse and execute; returns (exit_code, stdout text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return EXIT_OK, args.func(args)
    except _Help as exc:
        return EXIT_OK, _emit_json({"help": str(exc)})
    except UsageError as exc:
        return EXIT_USAGE, _emit_json({"error": "usage", "message": str(exc)})
    except HypladderError as exc:
        return EXIT_DOMAIN, _emit_json(
            {"error": type(exc).__name__, "rule": exc.rule, "message": str(exc)}
        )


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
