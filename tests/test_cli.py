from __future__ import annotations

import json

import pytest

from hypladder.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main, run

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
