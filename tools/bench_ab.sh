#!/usr/bin/env bash
# Same-host A/B run of the benchmark: a base revision against the working
# tree, interleaved so both sides see the same machine state.
#
#   tools/bench_ab.sh [--base REV] [--pairs N] [--seconds S] [--seed SEED]
#                     [--workloads "closed_traffic service_open"]
#                     [--scratch DIR]
#
# Run it from anywhere inside the repository. It exports REV (default
# HEAD) with `git archive` into DIR/base - a plain copy, so an interrupted
# run leaves nothing registered in .git - and builds the benchmark once per
# side, into DIR/build-base and DIR/build-work. It then runs
# perfbench/run.py --trace 0 for base and working tree in alternation, N
# pairs per workload (odd pairs run the working tree first), and prints,
# per workload and end-to-end metric of BENCHMARK.json, the median and IQR
# of each side, the change of the medians, in how many pairs the working
# tree was better and a verdict, then both sides' final-state digests.
#
# This is the wall-time gate: a metric REGRESSED when its working-tree
# median is worse than the base median by more than the metric's bound in
# BENCHMARK.json and every working-tree run is worse than every base run.
# A median past the bound with overlapping runs is "unresolved": reported,
# not failed, since the noise hides the change.
#
# Exit status: 1 when a run failed its checks or a metric REGRESSED, else 0.
set -euo pipefail

base_rev=HEAD
pairs=5
seconds=10
seed=4242
workloads="closed_traffic service_open"
scratch=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --base) base_rev="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --scratch) scratch="$2"; shift 2 ;;
    -h|--help) sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) echo "bench_ab.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

root="$(git rev-parse --show-toplevel)"
if [[ -z "$scratch" ]]; then
  scratch="$(mktemp -d "${TMPDIR:-/tmp}/tsu-bench-ab.XXXXXX")"
fi
mkdir -p "$scratch/results"
scratch="$(cd "$scratch" && pwd)"

rm -rf "$scratch/base"
mkdir -p "$scratch/base"
git -C "$root" archive "$base_rev" | tar -x -C "$scratch/base"
echo "base $(git -C "$root" rev-parse --short "$base_rev") in $scratch/base;" \
     "working tree $root"

# run_side SIDE WORKLOAD PAIR: one benchmark run; keeps its last JSON line
# and its result document's digest.
status=0
run_side() {
  local side="$1" workload="$2" pair="$3" tree build out doc
  if [[ "$side" == base ]]; then tree="$scratch/base"; else tree="$root"; fi
  build="$scratch/build-$side"
  out="$scratch/results/$workload-$side-$pair"
  if ! (cd "$tree" && CARGO_TARGET_DIR="$build" python3 perfbench/run.py \
          --workload "$workload" --seed "$seed" --seconds "$seconds" \
          --trace 0 > "$out.log" 2>&1); then
    echo "  $side pair $pair: FAILED (see $out.log)"
    status=1
  fi
  tail -n 1 "$out.log" > "$out.json"
  doc="$(sed -n 's/^result document: //p' "$out.log")"
  rm -f "$out.doc"
  if [[ -n "$doc" && -f "$doc" ]]; then cp "$doc" "$out.doc"; fi
}

for workload in $workloads; do
  echo "$workload: $pairs pairs of ${seconds} s runs"
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      run_side base "$workload" "$i"; run_side work "$workload" "$i"
    else
      run_side work "$workload" "$i"; run_side base "$workload" "$i"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$scratch/results" "$pairs" $workloads \
    <<'EOF' || status=1
import json
import pathlib
import sys

bench = json.loads(pathlib.Path(sys.argv[1]).read_text())
results = pathlib.Path(sys.argv[2])
pairs = int(sys.argv[3])


def load(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def quantile(values, p):
    s = sorted(values)
    pos = p * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def verdict(spec, base, work):
    """REGRESSED, unresolved or ok for one metric on one workload."""
    lower = spec["better"] == "lower"
    bm = quantile(base, 0.5)
    loss = (quantile(work, 0.5) - bm) * (1 if lower else -1)
    if loss <= spec["bound"] * abs(bm):
        return "ok"
    separated = min(work) > max(base) if lower else max(work) < min(base)
    return "REGRESSED" if separated else "unresolved"


regressed = []
for workload in sys.argv[4:]:
    runs = {side: [load(results / f"{workload}-{side}-{i}.json")
                   for i in range(pairs)] for side in ("base", "work")}
    docs = {side: [load(results / f"{workload}-{side}-{i}.doc")
                   for i in range(pairs)] for side in ("base", "work")}
    print(f"\n{workload}")
    print(f"  {'metric':22s} {'base median':>13s} {'IQR':>10s} "
          f"{'work median':>13s} {'IQR':>10s} {'change':>8s}  better  verdict")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        vals = {}
        for side in ("base", "work"):
            vals[side] = [r["metrics"][name]["value"] if r and
                          name in r.get("metrics", {}) else None
                          for r in runs[side]]
        both = [(b, w) for b, w in zip(vals["base"], vals["work"])
                if b is not None and w is not None]
        if not both:
            print(f"  {name:22s} no data")
            continue
        b = [p[0] for p in both]
        w = [p[1] for p in both]
        bm, wm = quantile(b, 0.5), quantile(w, 0.5)
        change = f"{(wm / bm - 1) * 100:+7.1f}%" if bm else "     n/a"
        lower = spec["better"] == "lower"
        wins = sum(1 for x, y in both if (y < x if lower else y > x))
        judged = verdict(spec, b, w)
        if judged == "REGRESSED":
            regressed.append(f"{workload} {name}")
        print(f"  {name:22s} {bm:13.6g} {quantile(b, 0.75) - quantile(b, 0.25):10.4g} "
              f"{wm:13.6g} {quantile(w, 0.75) - quantile(w, 0.25):10.4g} "
              f"{change}  {wins:>2d}/{len(both):<3d} {judged}")
    for side in ("base", "work"):
        digests = sorted({d["digest"] for d in docs[side] if d})
        print(f"  {side} digest: {', '.join(digests) or 'none'}")
if regressed:
    print(f"\nregressed beyond the bound: {', '.join(regressed)}")
    sys.exit(1)
EOF
exit "$status"
