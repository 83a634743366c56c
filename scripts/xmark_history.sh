#!/usr/bin/env bash
# Append this checkout's xmark numbers to BENCH_xmark_history.jsonl, or show
# the trajectory recorded there.
#
#   scripts/xmark_history.sh [workload ...]
#   scripts/xmark_history.sh --show [workload ...]
#
# Builds xmark, then for every workload in BENCHMARK.json (or only the ones
# named) makes one untraced run — the six end-to-end metrics — and one
# `--trace 1` run — the per-layer metrics — at BENCHMARK.json's run_seconds,
# and appends one JSON row per workload: commit, dirty, date, workload, seed,
# run_seconds, correct, attempted, failed, end_to_end{}, per_layer{}. The file
# is append-only: one row per workload per recorded commit, so a per-layer
# number has a trajectory instead of a table in prose. A single run is
# indicative (run-to-run spread is 3-8 %); an A/B claim still needs the
# ten-pair protocol of scripts/xmark_ab.sh. The seed is fixed so that
# data_moved_mib is comparable from row to row.
#
# --show reads only BENCH_xmark_history.jsonl and builds and runs nothing:
# for every workload (or only the ones named), its rows in file order, one
# line each — commit (`+` if recorded from a dirty tree), date, correct and
# the six end-to-end metrics.
#
# A workload name that is not in BENCHMARK.json exits 2, listing the valid
# names, before anything is built.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mode=run
if [ "${1:-}" = "--show" ]; then
    mode=show
    shift
fi
python3 - "$root/BENCHMARK.json" "$@" <<'PY'
import json, sys
valid = [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]]
unknown = [w for w in sys.argv[2:] if w not in valid]
if unknown:
    print(f"xmark_history: unknown workload {' '.join(unknown)}; valid: {' '.join(valid)}",
          file=sys.stderr)
    sys.exit(2)
PY
if [ "$mode" = show ]; then
    xmark=""
else
    export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/benchmark/target}"
    cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
    xmark="$CARGO_TARGET_DIR/release/xmark"
fi
exec python3 - "$root" "$mode" "$xmark" "$@" <<'PY'
import datetime, json, subprocess, sys

root, mode, xmark, only = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
SEED = 1
HISTORY = f"{root}/BENCH_xmark_history.jsonl"
bench = json.load(open(f"{root}/BENCHMARK.json"))
seconds = bench["run_seconds"]
end_to_end = [m["name"] for m in bench["end_to_end"]]
per_layer = [m["name"] for m in bench["per_layer"]]
workloads = [w["name"] for w in bench["workloads"] if not only or w["name"] in only]


def show():
    with open(HISTORY) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    head = ["commit", "date", "correct"] + end_to_end
    for w in workloads:
        mine = [r for r in rows if r["workload"] == w]
        print(f"{w}: {len(mine)} rows")
        table = [head] + [
            [r["commit"] + ("+" if r["dirty"] else ""), r["date"], str(r["correct"]).lower()]
            + [f"{r['end_to_end'][k]:.6g}" for k in end_to_end]
            for r in mine
        ]
        widths = [max(len(row[i]) for row in table) for i in range(len(head))]
        for row in table:
            print("  " + "  ".join(c.ljust(n) for c, n in zip(row, widths)).rstrip())


def git(*args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True).stdout.strip()


def run(workload, trace):
    out = subprocess.run(
        [xmark, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, cwd=root)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"xmark_history: {workload} --trace {trace} printed no result line\n{out.stderr}")


def record():
    commit = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", ".", ":!BENCH_xmark_history.jsonl"))
    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    for w in workloads:
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


show() if mode == "show" else record()
PY
