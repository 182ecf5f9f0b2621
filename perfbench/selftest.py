"""Tests of the benchmark itself: smoke runs, seed determinism, and that
wrong answers injected on the benchmark's side are counted as failures.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The file is not named ``test_*.py``, so the library's test suite does not
collect it; it needs no package beyond the standard library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import types
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import cli, holonomy, pants, tiling  # noqa: E402

WORKLOADS = {"holonomy": holonomy, "pants": pants, "tiling": tiling, "cli": cli}
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]


def override(module, **functions):
    """A stand-in for ``module`` with some functions replaced."""
    proxy = types.SimpleNamespace(**vars(module))
    vars(proxy).update(functions)
    return proxy


def one_job(workload, lib, job):
    """Run a single job as a pass would; returns its failure reason."""
    result = harness.run_pass(workload, [job], lib, harness.Tracer(False)).results[0]
    return result.reason


class Base(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.lib, _ = harness.import_lib()


class SmokeTest(Base):
    def test_tiny_pass_of_every_workload(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                jobs = workload.generate(random.Random(7), tiny=True)
                workload.warm_up(self.lib, jobs)
                for enabled in (False, True):
                    p = harness.run_pass(workload, jobs, self.lib, harness.Tracer(enabled))
                    self.assertEqual(len(p.results), len(jobs))
                    self.assertTrue(all(r.scale > 0 for r in p.results))
                    unexpected = [r for r in p.results if r.reason and not r.known]
                    self.assertEqual(unexpected, [])
                values = harness.layer_values(p, LAYER_NAMES)
                self.assertGreater(sum(v for k, v in values.items() if k.endswith("busy_s")), 0)

    def test_full_job_lists_are_large_enough_for_p90(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertGreaterEqual(len(workload.generate(random.Random(1))), 100)

    def test_known_defect_jobs_are_in_the_lists(self):
        for workload in (holonomy, tiling, cli):
            jobs = workload.generate(random.Random(1))
            self.assertTrue(any(j.get("defect") in workload.KNOWN_DEFECTS for j in jobs))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                first = workload.generate(random.Random(11))
                self.assertEqual(first, workload.generate(random.Random(11)))
                self.assertNotEqual(first, workload.generate(random.Random(12)))


class FalsifiabilityTest(Base):
    def test_shortcut_edge_in_a_grid_copy_fails_the_certificate(self):
        ts = self.lib.tiled_surface

        def build_with_shortcut(b, rows, cols):
            t = ts.build_grid(b, rows, cols)
            copy = dataclasses.replace(t, edges=dict(t.edges))
            copy.edges[(("C", 1, cols // 2), ("C", rows - 1, cols // 2))] = 0.5 * b
            return copy

        lib = dataclasses.replace(self.lib, tiled_surface=override(ts, build_grid=build_with_shortcut))
        job = next(j for j in tiling.generate(random.Random(3), tiny=True) if j["kind"] == "plain")
        job = dict(job, spans=[job["m"] - 2])  # certifies the corners of rows 1 and m - 1
        self.assertIsNone(one_job(tiling, self.lib, job))
        self.assertEqual(one_job(tiling, lib, job), "certificate")

    def test_corrupted_length_fails_recovery(self):
        fnm = self.lib.fenchel_nielsen

        def build_corrupted(N, lengths, twists):
            return fnm.build_ladder_fn(
                N, lengths=lambda f, k: lengths(f, k) * (1 + 1e-6 * (k == 0)), twists=twists)

        lib = dataclasses.replace(self.lib, fenchel_nielsen=override(fnm, build_ladder_fn=build_corrupted))
        job = next(j for j in holonomy.generate(random.Random(3), tiny=True) if j["kind"] == "small")
        self.assertIsNone(one_job(holonomy, self.lib, job))
        self.assertEqual(one_job(holonomy, lib, job), "local_length")

    def test_wrong_diameter_and_missing_move_fail(self):
        pg = self.lib.pants_graph
        jobs = pants.generate(random.Random(3), tiny=True)
        build = next(j for j in jobs if j["surface"] == (1, 4))
        locate = next(j for j in jobs if j["kind"] == "locate" and j["surface"] == (1, 4))

        def wrong_diameter(g, b):
            graph = pg.modular_pants_graph(g, b)
            return dataclasses.replace(graph, diameter=graph.diameter + 1)

        lib = dataclasses.replace(self.lib, pants_graph=override(pg, modular_pants_graph=wrong_diameter))
        self.assertEqual(one_job(pants, lib, build), "pants_table")

        def one_move_short(g):
            neighbours, notes = pg.elementary_moves(g)
            return neighbours[1:], notes

        lib = dataclasses.replace(self.lib, pants_graph=override(pg, elementary_moves=one_move_short))
        p = harness.run_pass(pants, [build, locate], lib, harness.Tracer(False))
        self.assertEqual([r.reason for r in p.results], [None, "elementary_moves"])

    def test_cli_contract_violations_fail(self):
        job = {"kind": "valid", "defect": None, "argv": ["pentagon", "--b", "1.2"]}
        self.assertIsNone(one_job(cli, self.lib, job))
        fakes = {
            "strict_json": "print('{\"a\": NaN}')",
            "pentagon": "print('{\"a\": 0.5, \"b\": 1.2, \"c\": 1.4, \"closure_residual\": 0}')",
            "exit_code": "import sys; sys.exit(1)",
        }
        for reason, code in fakes.items():
            with self.subTest(reason=reason):
                lib = dataclasses.replace(self.lib, cli_command=[sys.executable, "-c", code])
                self.assertEqual(one_job(cli, lib, job), reason)


class HarnessTest(unittest.TestCase):
    def test_failed_job_never_stops_the_pass(self):
        def run_job(job, lib, tr, state):
            if job["kind"] == "bad":
                raise ZeroDivisionError
            if job["kind"] == "wrong":
                raise harness.CheckFailed("wrong")

        fake = types.SimpleNamespace(run_job=run_job, KNOWN_DEFECTS={"d": ("wrong",)})
        jobs = [{"kind": "bad"}, {"kind": "wrong", "defect": "d"}, {"kind": "ok"}]
        p = harness.run_pass(fake, jobs, None, harness.Tracer(True))
        self.assertEqual([(r.reason, r.known) for r in p.results],
                         [("raised:ZeroDivisionError", False), ("wrong", True), (None, False)])

    def test_self_time_excludes_children(self):
        spans = [["job", None, 0, 0.0, 10.0, None], ["a", 0, 0, 1.0, 4.0, None],
                 ["b", 0, 0, 5.0, 6.0, "Err"]]
        self.assertEqual(harness.self_times(spans, [0.5]),
                         {"job": (3.0, 1, 0), "a": (1.5, 1, 0), "b": (0.5, 1, 1)})

    def test_missing_sources_exit_nonzero_without_a_result(self):
        out = io.StringIO()
        with mock.patch.object(harness, "SRC", harness.ROOT / "no-such-src"), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "pants", "--seed", "1", "--seconds", "1"])
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
