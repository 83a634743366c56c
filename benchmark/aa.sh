#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the same code must agree.
#
#   benchmark/aa.sh [runs-per-set (default 10)] [workload ...]
#
# Builds xmark once, then for every workload makes two sets, A and B, of
# untraced runs, interleaved (A seed 1, B seed 1, A seed 2, ...), each run of
# a set with another seed. Per end-to-end metric it prints both medians, each
# set's quartile distance as a share of its median (the spread), and how much
# worse B's median is than A's (the gap). It fails if a spread (setup_s
# excepted) or a gap exceeds the metric's bound in BENCHMARK.json, or if any
# run is incorrect. Run it from anywhere; it works on the checkout it sits in.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${1:-10}"
shift || true
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec python3 - "$root" "$CARGO_TARGET_DIR/release/xmark" "$runs" "$@" <<'PY'
import json, statistics, subprocess, sys

root, xmark, runs, only = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bench = json.load(open(f"{root}/BENCHMARK.json"))
seconds = str(bench["run_seconds"])
workloads = [w["name"] for w in bench["workloads"] if not only or w["name"] in only]
failures = []
raw = []

def one(workload, seed):
    out = subprocess.run(
        [xmark, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    if not result or not result["correct"] or result["failed"]:
        failures.append(f"{workload} seed {seed}: run failed or incorrect")
        print(out.stdout, out.stderr, file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print(f"{'workload':<26}{'metric':<20}{'median A':>12}{'median B':>12}"
      f"{'spread A':>10}{'spread B':>10}{'gap':>9}{'bound':>7}")
for w in workloads:
    a, b = [], []
    for i in range(runs):
        # Distinct seeds in every run: set A takes the odd ones, B the even.
        for side, seed in ((a, 2 * i + 1), (b, 2 * i + 2)):
            r = one(w, seed)
            if r:
                side.append(r)
    if len(a) < 2 or len(b) < 2:
        continue
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va, vb = [r[name] for r in a], [r[name] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(va), spread(vb)
        verdict = ""
        if worse > bound or (name != "setup_s" and max(sa, sb) > bound):
            verdict = "  FAIL"
            failures.append(f"{w} {name}: spread {max(sa, sb):.4f} gap {worse:+.4f} bound {bound}")
        print(f"{w:<26}{name:<20}{ma:>12.4f}{mb:>12.4f}{sa:>10.4f}{sb:>10.4f}"
              f"{worse:>+9.4f}{bound:>7.2f}{verdict}", flush=True)
        for label, values in (("A", va), ("B", vb)):
            raw.append(f"{w} {name} {label}: " + " ".join(f"{v:.4f}" for v in values))

print("\nEvery run made, in run order (A: odd seeds 1, 3, ...; B: even seeds 2, 4, ...):")
print("\n".join(raw))

if failures:
    print("\nA/A check FAILED:\n  " + "\n  ".join(failures))
    sys.exit(1)
print("\nA/A check passed: every spread and gap is within its bound.")
PY
