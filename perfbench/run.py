#!/usr/bin/env python3
"""Builds and runs the tsu benchmark for one workload; prints the report.

    python3 perfbench/run.py --workload closed_traffic --seed 4242 \
        --seconds 50 --trace 0

Run it from the repository root. The first run configures and builds the
benchmark program (perfbench/CMakeLists.txt, Release) from the sources
under src/ into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later runs rebuild only what changed.

Standard output is a human-readable report followed, on its last line, by
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the traced run also writes a Chrome Trace
Event file (open it in https://ui.perfetto.dev). The full result document,
with the host environment, goes to perfbench-results/ in the build
directory.

Exit codes: 0 when every correctness check passed; 1 when a check failed
(the JSON line is still printed, with "correct": false); 2 when the program
could not be built or run (no JSON line).
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 150


class SetupError(Exception):
    """The benchmark could not be built or run; no result is printed."""


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build_program(out_dir):
    if not (ROOT / "src" / "tsu").is_dir():
        raise SetupError(f"no simulator sources under {ROOT / 'src' / 'tsu'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            raise SetupError("build failed: " + " ".join(cmd))
    return out_dir / "tsu_perfbench"


def git_revision():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256():
    """Digest of the sources the program is built from (the checkout the
    benchmark runs in is not always a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_environment(build):
    nproc = os.cpu_count()
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_affinity": affinity,
        "pinned": len(affinity) < (nproc or 0),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "build_type": build.get("type"),
        "compiler": build.get("compiler"),
        "git_revision": git_revision(),
        "source_sha256": source_sha256(),
    }


def digest_check(doc, digests):
    table = digests.get(doc["workload"], {})
    expected = table.get(str(doc["seed"]), table.get("*"))
    if expected is not None:
        return {"name": "final_state_digest_matches_recorded",
                "ok": doc["digest"] == expected,
                "detail": f"{doc['digest']} vs recorded {expected}"}
    reference = doc.get("reference_digest")
    return {"name": "final_state_digest_matches_reference",
            "ok": reference is not None and doc["digest"] == reference,
            "detail": f"{doc['digest']} vs {reference} (no digest recorded "
                      f"for seed {doc['seed']})"}


def select_metrics(doc, wanted):
    """The final line's metrics: exactly BENCHMARK.json's list, each
    checked against the program's name and unit."""
    by_name = {m["name"]: m for m in doc["metrics"]}
    out = {}
    for spec in wanted:
        metric = by_name.get(spec["name"])
        if metric is None:
            raise SetupError(f"tsu_perfbench did not report {spec['name']}")
        if metric["unit"] != spec["unit"]:
            raise SetupError(f"{spec['name']}: tsu_perfbench unit "
                             f"{metric['unit']}, BENCHMARK.json unit "
                             f"{spec['unit']}")
        value = metric["value"]
        if value is None or not math.isfinite(value):
            raise SetupError(f"{spec['name']} is not a finite number")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def print_report(doc, final_names):
    env = doc["host"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  "
          f"trace {doc['trace']}  seconds {doc['seconds']}")
    print(f"host: nproc {env['nproc']}  affinity {env['cpu_affinity']}  "
          f"pinned {env['pinned']}  {env['cpu_model']}")
    print(f"build: {env['build_type']}  {env['compiler']}  "
          f"git {env['git_revision']}  sources {env['source_sha256'][:16]}")
    call = doc["timing"]["call_ms"]
    print(f"execute calls: {call['n']}  ms per call: min {call['min']:.3f}  "
          f"q1 {call['q1']:.3f}  median {call['median']:.3f}  "
          f"q3 {call['q3']:.3f}")
    ref = doc["timing"]["reference_kernel_ms"]
    print(f"reference kernel ms: min {ref['min']:.3f}  q1 {ref['q1']:.3f}  "
          f"median {ref['median']:.3f}  q3 {ref['q3']:.3f}")
    print(f"{'metric':44s} {'value':>18s} {'unit':8s} clock")
    for m in doc["metrics"]:
        mark = "" if m["name"] in final_names else "  (not gated)"
        print(f"{m['name']:44s} {m['value']:18.6g} {m['unit']:8s} "
              f"{m['clock']}{mark}")
    for c in doc["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}"
              + (f": {c['detail']}" if c["detail"] else ""))
    if doc.get("trace_file"):
        print(f"trace: {doc['trace_file']}")
    print(f"result document: {doc['result_file']}")


def run(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SetupError(f"unknown workload {args.workload}")
    out_dir = build_dir()
    program = build_program(out_dir)
    results = out_dir / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.trace.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"tsu_perfbench exceeded {RUN_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SetupError(f"tsu_perfbench exited with {done.returncode}")
    doc = json.loads(lines[-1])

    digests = json.loads((HERE / "digests.json").read_text())
    doc["checks"].append(digest_check(doc, digests))
    doc["host"] = host_environment(doc["build"])
    doc["result_file"] = str(results / f"{stem}.json")
    correct = all(c["ok"] for c in doc["checks"])
    doc["correct"] = correct

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    pathlib.Path(doc["result_file"]).write_text(json.dumps(doc, indent=1))
    print_report(doc, {m["name"] for m in wanted})

    calls = doc["timing"]["call_ms"]["n"] + doc["timing"]["traced_call_ms"]["n"]
    attempted = doc["updates"]["attempted"] * (calls + 1)  # + warm-up call
    failed = doc["updates"]["failed"] * (calls + 1)
    try:
        metrics = select_metrics(doc, wanted)
    except SetupError:
        if correct:
            raise
        # A failed check is the program's fault, not the harness's: it is
        # reported as a failed run even when the program stopped before its
        # metrics, and before any update, which counts as one failed one.
        metrics = {}
    if not correct and attempted == 0:
        attempted, failed = 1, 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except (SetupError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
