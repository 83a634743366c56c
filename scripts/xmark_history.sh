#!/usr/bin/env bash
# Append this checkout's xmark numbers to BENCH_xmark_history.jsonl.
#
#   scripts/xmark_history.sh [workload ...]
#
# Builds xmark, then for every workload in BENCHMARK.json (or only the ones
# named) makes one untraced run — the six end-to-end metrics — and one
# `--trace 1` run — the per-layer metrics — at BENCHMARK.json's run_seconds,
# and appends one JSON row per workload: commit, dirty, date, workload, seed,
# run_seconds, correct, attempted, failed, end_to_end{}, per_layer{}. The file
# is append-only: one row per workload per recorded commit, so a per-layer
# number has a trajectory instead of a table in prose. A single run is
# indicative (run-to-run spread is 3-8 %); an A/B claim still needs the
# ten-pair protocol of benchmark/README.md. The seed is fixed so that
# data_moved_mib is comparable from row to row.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
exec python3 - "$root" "$CARGO_TARGET_DIR/release/xmark" "$@" <<'PY'
import datetime, json, subprocess, sys

root, xmark, only = sys.argv[1], sys.argv[2], sys.argv[3:]
SEED = 1
HISTORY = f"{root}/BENCH_xmark_history.jsonl"
bench = json.load(open(f"{root}/BENCHMARK.json"))
seconds = bench["run_seconds"]
end_to_end = [m["name"] for m in bench["end_to_end"]]
per_layer = [m["name"] for m in bench["per_layer"]]

def git(*args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True).stdout.strip()

commit = git("rev-parse", "--short", "HEAD")
dirty = bool(git("status", "--porcelain", "--", ".", ":!BENCH_xmark_history.jsonl"))
date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")

def run(workload, trace):
    out = subprocess.run(
        [xmark, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, cwd=root)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"xmark_history: {workload} --trace {trace} printed no result line\n{out.stderr}")

for w in (w["name"] for w in bench["workloads"] if not only or w["name"] in only):
    plain, traced = run(w, 0), run(w, 1)
    row = {
        "commit": commit, "dirty": dirty, "date": date, "workload": w, "seed": SEED,
        "run_seconds": seconds,
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"], "failed": plain["failed"],
        "end_to_end": {k: plain["metrics"][k]["value"] for k in end_to_end},
        "per_layer": {k: traced["metrics"][k]["value"] for k in per_layer},
    }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(row) + "\n")
    print(f"{w}: correct={row['correct']} failed={row['failed']}/{row['attempted']} "
          f"time_to_solution_s={row['end_to_end']['time_to_solution_s']:.3f} "
          f"step_ms_p50={row['end_to_end']['step_ms_p50']:.2f}", flush=True)
PY
