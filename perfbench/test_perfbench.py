"""Tests of the benchmark itself (its contract, not the simulator).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The first test builds the benchmark
program, as run.py does; every run is one second long.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 1729


def run_bench(workload, seed=4242, trace=0, root=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900, env=env)


def final_line(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def result_document(done):
    for line in done.stdout.splitlines():
        if line.startswith("result document: "):
            return json.loads(pathlib.Path(line.split(": ", 1)[1]).read_text())
    raise AssertionError("no result document in:\n" + done.stdout)


class ContractTest(unittest.TestCase):
    def check_run(self, workload, seed, trace):
        done = run_bench(workload, seed=seed, trace=trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        line = final_line(done)
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)

        wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
        self.assertEqual(list(line["metrics"]), [m["name"] for m in wanted])
        for spec in wanted:
            self.assertEqual(line["metrics"][spec["name"]]["unit"],
                             spec["unit"], spec["name"])

        # Clocks: every metric has one; a name that says it is simulated
        # time is on the sim clock, and a wall-clock name on the host's.
        doc = result_document(done)
        for metric in doc["metrics"]:
            self.assertIn(metric["clock"], ("sim", "host"), metric["name"])
            if "_sim_" in metric["name"] or metric["name"].startswith("sim_"):
                self.assertEqual(metric["clock"], "sim", metric["name"])
            if metric["name"].startswith("wall_"):
                self.assertEqual(metric["clock"], "host", metric["name"])
        for key in ("nproc", "cpu_affinity", "pinned", "build_type",
                    "compiler", "git_revision", "source_sha256"):
            self.assertIn(key, doc["host"])
        if trace:
            trace_file = json.loads(pathlib.Path(doc["trace_file"]).read_text())
            names = {e["name"] for e in trace_file["traceEvents"]}
            self.assertTrue(any(n.startswith("core.execute_") for n in names))
            for event in trace_file["traceEvents"]:
                self.assertEqual(event["ph"], "X")
                self.assertIn("parent", event["args"])
                self.assertIn("run", event["args"])
        return doc

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         ["closed_traffic", "service_open"])

    def test_every_workload_untraced_on_held_out_seed(self):
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], HELD_OUT_SEED, 0)

    def test_every_workload_traced_on_default_seed(self):
        for workload in BENCH["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_run(workload["name"], 4242, 1)

    def test_sim_metrics_repeat_exactly(self):
        first = self.check_run("service_open", 4242, 0)
        second = self.check_run("service_open", 4242, 0)
        self.assertEqual(first["digest"], second["digest"])
        sim = lambda doc: {m["name"]: m["value"] for m in doc["metrics"]
                           if m["clock"] == "sim"}
        self.assertTrue(sim(first))
        self.assertEqual(sim(first), sim(second))

    def test_wrong_recorded_digest_fails_the_run(self):
        # A copy of the benchmark beside the real sources, with one wrong
        # recorded digest. The copy lives at a fixed path under the build
        # directory so that later runs rebuild incrementally.
        root = ROOT / ".bench_build" / "wrong-digest-checkout"
        root.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
        for path in BENCH["paths"]:
            shutil.copytree(ROOT / path, root / path, dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not (root / "src").exists():
            (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
        digests = json.loads((HERE / "digests.json").read_text())
        digests["service_open"]["4242"] = "0123456789abcdef"
        (root / "perfbench" / "digests.json").write_text(json.dumps(digests))
        env = dict(os.environ, CARGO_TARGET_DIR=str(root / ".bench_build"))

        done = run_bench("service_open", root=root, env=env)
        self.assertEqual(done.returncode, 1, done.stdout + done.stderr)
        self.assertFalse(final_line(done)["correct"])
        self.assertIn("check FAIL final_state_digest_matches_recorded",
                      done.stdout)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, root / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items()
                   if k != "CARGO_TARGET_DIR"}
            done = run_bench("closed_traffic", root=root, env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertIn("no simulator sources", done.stderr)
        for line in done.stdout.splitlines():
            self.assertFalse(line.startswith("{"), line)


if __name__ == "__main__":
    unittest.main()
