from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypladder import cli, fenchel_nielsen, hyp_core, tiled_surface
from hypladder.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main, run
from hypladder.errors import ScaleTooLarge

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

SUBCOMMANDS = {
    "pentagon": ["pentagon", "--b", "1.2"],
    "collar": ["collar", "--l", "1.0"],
    "fn": ["fn", "--window", "2"],
    "fn_csv": ["fn", "--window", "2", "--format", "csv"],
    "quotient": ["quotient", "--window", "2"],
    "bounds": ["bounds", "--k", "1", "--l", "1", "--inj-radius", "0.5"],
    "bounds_sweep": ["bounds", "--k", "1", "--l", "1", "--inj-radius", "0.5",
                     "--sweep", "k=1:2:0.5"],
    "pants_graph": ["pants-graph", "--genus", "2"],
    "pants_graph_text": ["pants-graph", "--genus", "2", "--format", "text"],
    "tiled_certify": ["tiled", "certify", "--b", "1.2", "--n", "1"],
    "tiled_export": ["tiled", "export", "--b", "1.2", "--n", "1"],
    "classify": ["classify", "--base-genus", "2", "--deck", "infinite:2"],
}


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_repeated_invocations_byte_identical(self, name):
        argv = SUBCOMMANDS[name]
        first = run(argv)
        for _ in range(2):
            assert run(argv) == first
        assert first[0] == EXIT_OK


class TestOutputs:
    def test_pentagon_json(self):
        code, text = run(["pentagon", "--b", "1.2"])
        data = json.loads(text)
        assert code == EXIT_OK
        assert data["schema_version"] == "1"
        assert data["b"] == 1.2
        assert data["closure_residual"] < 1e-9

    def test_collar_value(self):
        _, text = run(["collar", "--l", "1.0"])
        assert json.loads(text)["collar_width"] == pytest.approx(1.40682911375)

    def test_fn_csv_header(self):
        _, text = run(["fn", "--window", "1", "--format", "csv"])
        assert text.splitlines()[0] == "k,l_a,t_a,l_b,t_b,l_c,t_c"

    def test_fn_odd_length(self):
        _, text = run(["fn", "--window", "1", "--odd-length", "2.0", "--format", "csv"])
        rows = text.strip().splitlines()[1:]
        by_k = {int(r.split(",")[0]): r.split(",")[1] for r in rows}
        assert by_k[0] == "1.0"
        assert by_k[1] == "2.0"

    def test_quotient_genus(self):
        _, text = run(["quotient", "--window", "2"])
        data = json.loads(text)
        assert data["genus"] == 3
        assert data["euler_characteristic"] == -4

    def test_bounds_constants(self):
        _, text = run(["bounds", "--k", "1", "--l", "1", "--inj-radius", "0.5"])
        consts = json.loads(text)["constants"]
        assert consts["a"] == 2.0
        assert consts["rho_upper"] == 3.5
        assert consts["m_window"] == 4

    def test_bounds_sweep_csv(self):
        _, text = run(["bounds", "--k", "1", "--l", "1", "--inj-radius", "0.5",
                       "--sweep", "l=1:2:0.5"])
        lines = text.strip().splitlines()
        assert lines[0].startswith("K,L,R,")
        assert len(lines) == 4

    def test_pants_graph_json(self):
        _, text = run(["pants-graph", "--genus", "2"])
        data = json.loads(text)
        assert data["connected"] is True
        assert data["diameter"] == 1

    def test_pants_graph_propagation(self):
        _, text = run(["pants-graph", "--genus", "2", "--propagate-m", "1.0",
                       "--inj-radius", "1.0"])
        data = json.loads(text)
        assert data["bounds_from_vertex_0"]["0"] == 1.0

    def test_tiled_certify(self):
        _, text = run(["tiled", "certify", "--b", "1.0", "--n", "2"])
        data = json.loads(text)
        assert data["passes"] is True
        assert data["distance"] == pytest.approx(4.0)

    def test_tiled_export_csv(self):
        _, text = run(["tiled", "export", "--b", "1.2", "--n", "1"])
        assert text.splitlines()[0] == "u,v,length"

    def test_classify_ladder(self):
        _, text = run(["classify", "--base-genus", "2", "--deck", "infinite:2"])
        data = json.loads(text)
        assert data["type"] == "ladder"
        assert data["distance_minimizing_geodesics"] == "always"

    def test_classify_from_file(self, tmp_path):
        desc = tmp_path / "cover.json"
        desc.write_text(json.dumps({
            "base_genus": 2,
            "deck": {"order": None, "end_count": "infinitely_many"},
            "planar": True,
        }))
        _, text = run(["classify", "--input", str(desc)])
        assert json.loads(text)["type"] == "cantor_tree"


class TestExitCodes:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["pentagon", "-h"]])
    def test_help_is_one_json_object(self, argv, capsys):
        code, text = run(argv)
        assert code == EXIT_OK
        data = json.loads(text, parse_constant=pytest.fail)
        assert sorted(data) == ["help", "schema_version"]
        assert data["help"].startswith(f"usage: hypladder {' '.join(argv[:-1])}".rstrip())
        assert "-h, --help" in data["help"]
        assert capsys.readouterr().out == ""

    def test_help_gives_every_subcommand_a_line(self):
        # each of the eight subcommands on a line of its own, with its help
        # text after it
        data = json.loads(run(["--help"])[1])
        lines = {line.split()[0]: line.split(None, 1)[1:] for line in data["help"].splitlines()
                 if re.match(r"    \S", line)}
        commands = ["pentagon", "collar", "fn", "quotient", "bounds", "pants-graph", "tiled", "classify"]
        assert sorted(lines) == sorted(commands)
        assert all(lines[name] for name in commands)

    def test_help_ignores_the_terminal_width(self, monkeypatch):
        texts = set()
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.add(run(["bounds", "-h"])[1])
        assert len(texts) == 1

    def test_help_child_writes_only_json(self):
        out = _fresh_python("-m", "hypladder.cli", "pentagon", "--help")
        assert out.returncode == EXIT_OK
        assert json.loads(out.stdout, parse_constant=pytest.fail)["help"].startswith(
            "usage: hypladder pentagon")

    def test_domain_error(self):
        code, text = run(["pentagon", "--b", "0.5"])
        data = json.loads(text)
        assert code == EXIT_DOMAIN
        assert data["error"] == "DegeneratePentagon"
        assert "rule" in data

    def test_domain_error_classify(self):
        code, text = run(["classify", "--base-genus", "2", "--deck", "infinite:2",
                          "--planar"])
        assert code == EXIT_DOMAIN
        assert json.loads(text)["error"] == "InconsistentInput"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option, error", [
        ("pentagon --b", "DegeneratePentagon"),
        ("collar --l", "NonPositiveLength"),
    ])
    def test_non_finite_input_rejected(self, option, error, value):
        command, flag = option.split()
        code, text = run([command, f"{flag}={value}"])
        assert code == EXIT_DOMAIN
        assert json.loads(text, parse_constant=pytest.fail)["error"] == error

    @pytest.mark.parametrize("extra", [["--n", "0"], ["--n", "-1"],
                                       ["--cols", "0", "--n", "1"]])
    def test_tiled_nonpositive_size_rejected(self, extra):
        code, text = run(["tiled", "certify", "--b", "1.0", *extra])
        assert code == EXIT_DOMAIN
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["error"] == "NonPositiveSize"
        assert data["rule"] == "size-nonpositive"

    @pytest.mark.parametrize("surface", [["--genus", "2", "--boundary", "-1"],
                                         ["--genus", "-1", "--boundary", "5"],
                                         ["--genus", "-1"]])
    def test_pants_graph_negative_surface_rejected(self, surface):
        code, text = run(["pants-graph", *surface])
        assert code == EXIT_DOMAIN
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["error"] == "NegativeSurface"
        assert data["rule"] == "surface-negative"

    @pytest.mark.parametrize("period", ["0", "-1"])
    def test_quotient_nonpositive_period_rejected(self, period):
        code, text = run(["quotient", "--window", "2", "--period", period])
        assert code == EXIT_DOMAIN
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["error"] == "NonPositiveSize"
        assert data["rule"] == "size-nonpositive"

    @pytest.mark.parametrize("argv, error", [
        (["fn", "--window", "0"], "NonPositiveSize"),
        (["quotient", "--window", "0"], "NonPositiveSize"),
        (["fn", "--twist", "nan"], "InconsistentInput"),
        (["fn", "--twist", "inf"], "InconsistentInput"),
        (["fn", "--length", "nan"], "NonPositiveLength"),
        (["fn", "--length", "inf", "--format", "csv"], "NonPositiveLength"),
        (["quotient", "--window", "2", "--period", "4"], "ScaleTooLarge"),
        (["bounds", "--k", "1e200", "--l", "1", "--inj-radius", "0.5"], "NumericalInstability"),
        (["bounds", "--k", "1.5", "--l", "1", "--inj-radius", "0.5", "--r", "nan"],
         "NonPositiveLength"),
        (["bounds", "--k", "1.5", "--l", "1", "--inj-radius", "0.5", "--r", "-1"],
         "NonPositiveLength"),
        (["bounds", "--k", "1", "--l", "1", "--inj-radius", "1e200"], "NumericalInstability"),
        (["pants-graph", "--genus", "2", "--propagate-m", "nan", "--inj-radius", "0.5"],
         "NonPositiveLength"),
        (["pants-graph", "--genus", "2", "--propagate-m", "1", "--inj-radius", "nan"],
         "NonPositiveLength"),
        (["pants-graph", "--genus", "1", "--boundary", "1", "--propagate-m", "nan",
          "--inj-radius", "0.5"], "NonPositiveLength"),
        (["pants-graph", "--genus", "2", "--propagate-m", "1e308", "--inj-radius", "0.5"],
         "NumericalInstability"),
        (["pentagon", "--b", "1e200"], "NumericalInstability"),
        (["collar", "--l", "1e200"], "NumericalInstability"),
        (["tiled", "certify", "--b", "1e308", "--n", "1"], "NumericalInstability"),
        (["bounds", "--k", "1.5", "--l", "1", "--inj-radius", "5e-324"], "NumericalInstability"),
        (["pants-graph", "--genus", "1", "--boundary", "2", "--propagate-m", "1",
          "--inj-radius", "5e-324"], "NumericalInstability"),
        (["tiled", "certify", "--b", "356", "--n", "1", "--refine-diagonals"],
         "NumericalInstability"),
        (["tiled", "export", "--b", "1.2", "--n", "-5"], "NonPositiveSize"),
        (["tiled", "export", "--b", "1.2", "--n", "0", "--refine-diagonals"], "NonPositiveSize"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_input_boundary_rejected(self, argv, error):
        code, text = run(argv)
        assert code == EXIT_DOMAIN
        assert json.loads(text, parse_constant=pytest.fail)["error"] == error

    @pytest.mark.parametrize("b", ["36.8", "40", "100", "300", "355"])
    def test_refined_certificate_for_every_valid_b(self, b):
        # the diagonals come from the pentagon's sides, so refinement holds
        # up to the largest b that solve_pentagon accepts
        code, text = run(["tiled", "certify", "--b", b, "--n", "3", "--refine-diagonals"])
        assert code == EXIT_OK
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["refined"] is True and data["passes"] is True
        assert data["distance"] == pytest.approx(6.0 * float(b), rel=1e-15)

    @pytest.mark.parametrize("extra", [
        ["pants-graph", "--genus", "2", "--format", "text", "--propagate-m", "1",
         "--inj-radius", "0.5"],
        ["pants-graph", "--genus", "2", "--inj-radius", "nan"],
        ["pants-graph", "--genus", "2", "--inj-radius", "0.5"],
        ["classify", "--base-genus", "5"],
        ["classify", "--deck", "infinite:2"],
        ["classify", "--planar"],
        ["classify", "--no-planar"],
    ], ids=" ".join)
    def test_option_that_would_be_dropped_is_usage_error(self, extra, tmp_path):
        # pants-graph text has no place for the bounds, --inj-radius feeds
        # only --propagate-m, and a classify descriptor file already names
        # the base genus, deck and planarity
        argv = extra
        if extra[0] == "classify":
            path = tmp_path / "cover.json"
            path.write_text(json.dumps({"base_genus": 2, "deck": {"order": 3},
                                        "planar": False}))
            argv = ["classify", "--input", str(path), *extra[1:]]
        code, text = run(argv)
        assert code == EXIT_USAGE
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "usage"

    @pytest.mark.parametrize("genus", ["2", "3"])
    def test_propagate_m_without_inj_radius_is_refused_before_the_graph(self, genus, monkeypatch):
        # genus 3 exceeds the complexity cap, so a graph built first would
        # exit with ComplexityTooLarge, not as a usage error
        from hypladder import pants_graph

        def refuse(*args):
            raise AssertionError("graph built for a usage error")

        monkeypatch.setattr(pants_graph, "modular_pants_graph", refuse)
        code, text = run(["pants-graph", "--genus", genus, "--propagate-m", "1"])
        assert code == EXIT_USAGE
        data = json.loads(text, parse_constant=pytest.fail)
        assert (data["error"], data["message"]) == ("usage", "--propagate-m requires --inj-radius")

    def test_pants_graph_text_builds_no_payload(self, monkeypatch):
        from hypladder import pants_graph

        def refuse(graph):
            raise AssertionError("payload built for text output")

        monkeypatch.setattr(pants_graph.ModularPantsGraph, "to_dict", refuse)
        code, text = run(["pants-graph", "--genus", "2", "--format", "text"])
        assert code == EXIT_OK and text.startswith("# modular pants graph")

    @pytest.mark.parametrize("extra", [[], ["--sweep", "l=1:2:0.5"]])
    def test_bounds_overflowing_R_is_named(self, extra):
        # the default fellow-traveling constant overflows before the
        # area-window bound turns NaN, and the error says so
        code, text = run(["bounds", "--k", "1e155", "--l", "1", "--inj-radius", "0.5", *extra])
        assert code == EXIT_DOMAIN
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["error"] == "NumericalInstability"
        assert "fellow-traveling constant" in data["message"]

    def test_bounds_area_window_that_is_not_finite_is_named(self):
        code, text = run(["bounds", "--k", "1e300", "--l", "1e10", "--inj-radius", "1", "--r", "1"])
        assert code == EXIT_DOMAIN
        data = json.loads(text, parse_constant=pytest.fail)
        assert data["error"] == "NumericalInstability"
        assert "area-window bound is not finite" in data["message"]

    @pytest.mark.parametrize("deck, message", [
        ("infinite:3", "infinite deck needs end count 1, 2, or many"),
        ("bogus", "deck must be finite:N or infinite:1|2|many, got 'bogus'"),
    ])
    def test_classify_bad_deck_is_usage_error(self, deck, message):
        code, text = run(["classify", "--base-genus", "2", "--deck", deck])
        assert code == EXIT_USAGE
        assert json.loads(text, parse_constant=pytest.fail)["message"] == message

    @pytest.mark.parametrize("sweep", ["k=1:1e9:1e-9", "k=1:20000:1", "k=1:inf:1",
                                       "l=-inf:1:1", "k=1:2:inf", "k=1:2:nan", "k=1:x:1"])
    def test_sweep_out_of_range_is_usage_error(self, sweep):
        code, text = run(["bounds", "--k", "1.5", "--l", "1", "--inj-radius", "0.5",
                          "--sweep", sweep])
        assert code == EXIT_USAGE
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ["fn", "--window", "10001"],
        ["fn", "--window", "1000000000", "--format", "csv"],
        ["quotient", "--window", "10001"],
        ["tiled", "certify", "--b", "1.2", "--n", "79", "--cols", "82"],
        ["tiled", "export", "--b", "1.2", "--n", "3280"],
        ["tiled", "certify", "--b", "1.2", "--n", "1", "--cols", "2188"],
        ["tiled", "export", "--b", "1.2", "--n", "1000000000000", "--cols", "1000000000000"],
    ], ids=" ".join)
    def test_integer_size_over_cap_is_usage_error(self, argv):
        code, text = run(argv)
        assert code == EXIT_USAGE
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "usage"

    @pytest.mark.parametrize("argv, target", [
        (["fn", "--window", "10000"], "build_ladder_fn"),
        (["quotient", "--window", "10000"], "build_ladder_fn"),
        (["tiled", "certify", "--b", "1.2", "--n", "79", "--cols", "81"], "build_grid"),
        (["tiled", "export", "--b", "1.2", "--n", "1", "--cols", "2187"], "build_grid"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_integer_size_at_cap_is_built(self, monkeypatch, argv, target):
        # a size at the cap reaches the builder, which is stubbed out here so
        # the test stays fast
        module = fenchel_nielsen if target == "build_ladder_fn" else tiled_surface

        def refuse(*args, **kwargs):
            raise ScaleTooLarge("stub")

        monkeypatch.setattr(module, target, refuse)
        code, text = run(argv)
        assert code == EXIT_DOMAIN
        assert json.loads(text, parse_constant=pytest.fail)["message"] == "stub"

    @pytest.mark.parametrize("length, width", [("1e-310", 715.187673189),
                                               ("5e-324", 745.826366283)])
    def test_collar_of_subnormal_length_is_finite(self, length, width):
        code, text = run(["collar", "--l", length])
        assert code == EXIT_OK
        assert json.loads(text, parse_constant=pytest.fail)["collar_width"] == width

    def test_non_finite_output_is_a_domain_error(self, monkeypatch):
        monkeypatch.setattr(hyp_core, "collar_width", lambda length: math.inf)
        code, text = run(["collar", "--l", "1.0"])
        assert code == EXIT_DOMAIN
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "NumericalInstability"

    @pytest.mark.parametrize("content", [
        pytest.param(None, id="missing"),
        pytest.param("", id="empty"),
        pytest.param("{not json", id="not-json"),
        pytest.param("[" * 100_000, id="nested-too-deep"),
        pytest.param("[1, 2]", id="list"),
        pytest.param('"cover"', id="string"),
        pytest.param({"deck": {"order": 2}, "planar": False}, id="no-base-genus"),
        pytest.param({"base_genus": 2, "planar": False}, id="no-deck"),
        pytest.param({"base_genus": 2, "deck": {"order": 2}}, id="no-planar"),
        pytest.param({"base_genus": "2", "deck": {"order": 2}, "planar": False}, id="genus-str"),
        pytest.param({"base_genus": 2.0, "deck": {"order": 2}, "planar": False}, id="genus-float"),
        pytest.param({"base_genus": True, "deck": {"order": 2}, "planar": False}, id="genus-bool"),
        pytest.param({"base_genus": 2, "deck": [2], "planar": False}, id="deck-list"),
        pytest.param({"base_genus": 2, "deck": {"order": "2"}, "planar": False}, id="order-str"),
        pytest.param({"base_genus": 2, "deck": {"order": math.nan}, "planar": False},
                     id="order-nan"),
        pytest.param({"base_genus": 2, "deck": {"order": 2}, "planar": "no"}, id="planar-str"),
    ])
    def test_classify_bad_input_file_is_usage_error(self, tmp_path, content):
        path = tmp_path / "cover.json"
        if content is not None:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        code, text = run(["classify", "--input", str(path)])
        assert code == EXIT_USAGE
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "usage"

    @pytest.mark.parametrize("path", ["", "directory", "binary"])
    def test_classify_unreadable_input_is_usage_error(self, tmp_path, path):
        (tmp_path / "binary").write_bytes(b"\xff\xfe{")
        code, text = run(["classify", "--input", str(tmp_path / path)])
        assert code == EXIT_USAGE
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "usage"

    @pytest.mark.parametrize("deck", ['{"order": 0}', '{"end_count": "3"}', "{}"])
    def test_classify_inconsistent_input_file_is_domain_error(self, tmp_path, deck):
        path = tmp_path / "cover.json"
        path.write_text(f'{{"base_genus": 2, "deck": {deck}, "planar": false}}')
        code, text = run(["classify", "--input", str(path)])
        assert code == EXIT_DOMAIN
        assert json.loads(text, parse_constant=pytest.fail)["error"] == "InconsistentInput"

    def test_usage_error_unknown_command(self):
        code, text = run(["bogus"])
        assert code == EXIT_USAGE
        assert json.loads(text)["error"] == "usage"

    def test_usage_error_bad_sweep(self):
        code, _ = run(["bounds", "--k", "1", "--l", "1", "--inj-radius", "0.5",
                       "--sweep", "x=1:2:1"])
        assert code == EXIT_USAGE

    def test_usage_error_missing_classify_args(self):
        code, _ = run(["classify"])
        assert code == EXIT_USAGE

    def test_main_writes_stdout(self, capsys):
        assert main(["collar", "--l", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["length"] == 1.0


def test_import_loads_no_exact_arithmetic():
    # the CLI starts in a fresh interpreter on every call, so what it imports
    # is start-up time; no module of hypladder needs fractions or decimal
    code = ("import sys, hypladder.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


# what each subcommand runs, with the hypladder modules those import; the
# in-process tests cannot see a module loaded before its handler needs it
SUBCOMMAND_MODULES = {
    "pentagon": {"hyp_core"},
    "collar": {"hyp_core"},
    "fn": {"fenchel_nielsen", "hyp_core"},
    "quotient": {"fenchel_nielsen", "hyp_core"},
    "bounds": {"qch_bounds", "hyp_core"},
    "pants-graph": {"pants_graph", "qch_bounds", "hyp_core"},
    "tiled": {"tiled_surface", "_tiled_graph", "hyp_core"},
    "classify": {"topo_classify"},
    "nosuch": set(),
}
# pants_graph and tiled_surface keep dataclasses, because the tests and the
# benchmark's self-test copy their records with dataclasses.replace; every
# other child skips dataclasses and the inspect it imports
IMPORT_DATACLASSES = {"pants-graph", "tiled"}


def _fresh_python(*args) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src})


def test_import_loads_only_errors():
    code = ("import sys, hypladder.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'hypladder'))")
    out = _fresh_python("-c", code)
    assert out.stdout.decode() == "['hypladder', 'hypladder.cli', 'hypladder.errors']\n"


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_modules(command):
    # the first golden argv of the subcommand, run as `python -m hypladder.cli`;
    # -X importtime lists every module the child imports on its stderr
    golden = json.loads(GOLDEN.read_text())
    case = next(c for c in golden if c["argv"][0] == command)
    out = _fresh_python("-X", "importtime", "-m", "hypladder.cli", *case["argv"])
    assert out.returncode == case["exit_code"]
    assert out.stdout == case["stdout"].encode()
    imported = {line.rpartition("|")[2].strip()
                for line in out.stderr.decode().splitlines() if line.startswith("import time:")}
    assert {m for m in imported if m.partition(".")[0] == "hypladder"} == {
        "hypladder", "hypladder.errors", *(f"hypladder.{m}" for m in SUBCOMMAND_MODULES[command])}
    assert not {"fractions", "decimal"} & imported
    if command not in IMPORT_DATACLASSES:
        assert not {"dataclasses", "inspect"} & imported


# -- argv fuzz -----------------------------------------------------------------
# every subcommand with its numeric flags drawn from ordinary values, 0,
# negatives, +-inf, NaN, huge magnitudes and subnormals; integer flags also
# get sizes above 4, past the window and tiled-grid caps, and the float
# spellings, which argparse must refuse.  classify --input names a file the
# test writes: missing, raw bytes, any JSON value, or a descriptor whose keys
# may be missing or of the wrong type

NUMBER = st.one_of(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-5.0, max_value=-0.1),
    st.sampled_from([0.0, math.inf, -math.inf, math.nan, 1e200, 1e308, -1e308,
                     5e-324, -5e-324, 1e-320]),
).map(str)
INTEGER = st.one_of(
    st.integers(min_value=-2, max_value=4).map(str),
    st.sampled_from(["5", "9", "81", "10001", "1000000000", "1" + "0" * 18]),
    st.sampled_from(["inf", "nan", "1e200", "1e308"]),
)
SWEEP = st.builds("{}={}:{}:{}".format, st.sampled_from("kl"), NUMBER, NUMBER, NUMBER)
DECK = st.one_of(
    INTEGER.map("finite:{}".format),
    st.sampled_from(["infinite:1", "infinite:2", "infinite:many", "infinite:3"]),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6,
)
DESCRIPTOR_FIELD = st.one_of(JSON_VALUE, st.integers(-2, 4),
                             st.sampled_from(["1", "2", "infinitely_many"]))
DESCRIPTOR = st.fixed_dictionaries({}, optional={
    "base_genus": DESCRIPTOR_FIELD,
    "deck": st.one_of(JSON_VALUE, st.fixed_dictionaries(
        {}, optional={"order": DESCRIPTOR_FIELD, "end_count": DESCRIPTOR_FIELD})),
    "planar": DESCRIPTOR_FIELD,
})
# bytes of the file --input names, or None for a file that does not exist
INPUT_FILE = st.one_of(
    st.none(),
    st.binary(max_size=12),
    JSON_VALUE.map(lambda v: json.dumps(v).encode()),
    DESCRIPTOR.map(lambda v: json.dumps(v).encode()),
)
FN_FLAGS = {"--window": INTEGER, "--length": NUMBER, "--odd-length": NUMBER,
            "--twist": NUMBER}

# subcommand -> (words after it, required flags, optional flags); a flag
# mapped to None is a switch
COMMANDS = {
    "pentagon": ([], {"--b": NUMBER}, {}),
    "collar": ([], {"--l": NUMBER}, {}),
    "fn": ([], {}, {**FN_FLAGS, "--format": st.sampled_from(["json", "csv"])}),
    "quotient": ([], {}, {**FN_FLAGS, "--period": INTEGER}),
    "bounds": ([], {"--k": NUMBER, "--l": NUMBER, "--inj-radius": NUMBER},
               {"--r": NUMBER, "--sweep": SWEEP}),
    "pants-graph": ([], {"--genus": INTEGER},
                    {"--boundary": INTEGER, "--propagate-m": NUMBER,
                     "--inj-radius": NUMBER, "--format": st.sampled_from(["json", "text"])}),
    "tiled": ([st.sampled_from(["certify", "export"])], {"--b": NUMBER, "--n": INTEGER},
              {"--cols": INTEGER, "--refine-diagonals": None}),
    "classify": ([], {}, {"--base-genus": INTEGER, "--deck": DECK, "--planar": None,
                          "--no-planar": None, "--input": INPUT_FILE}),
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    words, required, optional = COMMANDS[command]
    argv = [command] + [draw(w) for w in words]
    flags = list(required.items()) + [f for f in optional.items() if draw(st.booleans())]
    for flag, value in flags:
        if flag == "--input":
            argv += [flag, draw(value)]
        else:
            argv += [flag] if value is None else [f"{flag}={draw(value)}"]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("classify-input")


@settings(max_examples=100, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_keep_the_exit_contract(argv, input_dir):
    if "--input" in argv:
        i = argv.index("--input") + 1
        path = input_dir / "cover.json"
        path.unlink(missing_ok=True)
        if argv[i] is not None:
            path.write_bytes(argv[i])
        argv[i] = str(path)
    code, text = run(argv)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE)
    if text.startswith("{"):
        json.loads(text, parse_constant=_reject_constant)
