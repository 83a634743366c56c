#!/usr/bin/env bash
# A/B: ten alternating same-seed pairs of xmark runs, a parent revision
# against this checkout.
#
#   scripts/xmark_ab.sh [--seed N] <parent-rev> [workload ...]
#   scripts/xmark_ab.sh --self-test
#
# Extracts <parent-rev> with `git archive` into $TMPDIR/xmark-ab-<rev>
# (reused if present), builds that tree's benchmark/ and this checkout's
# (committed or not) once each, then for every workload in BENCHMARK.json
# (or only the ones named) runs 10 pairs of untraced xmark runs at
# BENCHMARK.json's run_seconds, seed N (default 1) on both sides, each
# side from its own root. A claim's confirmation at a seed never used
# while writing the change is the same run with `--seed`. Even pairs run the parent first, odd pairs the change first.
# Every run is appended as one JSON line to BENCH_xmark_ab.jsonl (parent,
# change, workload, pair, side, seed, hypervisor steal over the run from
# /proc/stat, correct/attempted/failed, every metric). At the end it
# prints the CHANGES.md table: per end-to-end metric the parent and change
# medians, the gap, the parent's quartile distance as a share of its
# median, and the pairs the change won; then each workload's failed-op
# share per side, its largest per-run steal, every run's values, and any
# median worse than its BENCHMARK.json bound. Exit 1 if a run was
# incorrect or failed an op. Do not build or test anything else while it
# runs: ten pairs of one workload take ~15 min on two cores.
#
# --self-test checks the median, quartile, pairs-won, steal and table-cell
# arithmetic against scripts/xmark_ab_fixture.json; no build, no run.
#
# A workload name that is not in BENCHMARK.json exits 2, listing the valid
# names, before anything is extracted or built.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage="usage: scripts/xmark_ab.sh [--seed N] <parent-rev> [workload ...] | --self-test"
seed=1
if [ "${1:-}" = "--seed" ]; then
    [[ "${2:-}" =~ ^[0-9]+$ ]] || { echo "$usage" >&2; exit 2; }
    seed=$2
    shift 2
fi
if [ "${1:-}" = "--self-test" ]; then
    mode=(self-test)
else
    [ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
    python3 - "$root/BENCHMARK.json" "${@:2}" <<'PY'
import json, sys
valid = [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]]
unknown = [w for w in sys.argv[2:] if w not in valid]
if unknown:
    print(f"xmark_ab: unknown workload {' '.join(unknown)}; valid: {' '.join(valid)}",
          file=sys.stderr)
    sys.exit(2)
PY
    rev=$(git -C "$root" rev-parse --verify --short "$1^{commit}")
    shift
    parent="${TMPDIR:-/tmp}/xmark-ab-$rev"
    if [ ! -f "$parent/BENCHMARK.json" ]; then
        mkdir -p "$parent"
        git -C "$root" archive "$rev" | tar -x -C "$parent"
    fi
    for side in "$parent" "$root"; do
        CARGO_TARGET_DIR="$side/benchmark/target" \
            cargo build --release --offline --quiet --manifest-path "$side/benchmark/Cargo.toml"
    done
    mode=(run "$rev" "$parent" "$seed" "$@")
fi
exec python3 - "$root" "${mode[@]}" <<'PY'
import datetime, json, statistics, subprocess, sys

PAIRS = 10


def quartile_distance(values):
    """Q3 - Q1 as a share of the median (statistics.quantiles, exclusive)."""
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def pairs_won(parent, change, better):
    """Pairs in which the change is strictly better than its parent run."""
    return sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))


def steal_fraction(before, after):
    """Steal share of all CPU time between two /proc/stat `cpu` lines.

    Fields: user nice system idle iowait irq softirq steal [guest guest_nice];
    guest time is already counted in user and nice, so it is left out.
    """
    d = [int(a) - int(b) for b, a in zip(before.split()[1:9], after.split()[1:9])]
    return d[7] / sum(d) if sum(d) else 0.0


def cell(metric, parent, change):
    """One CHANGES.md table cell: `P→C (gap, IQR, won/pairs)`, or `P = C`
    when every run on both sides reported the same value."""
    mp, mc = statistics.median(parent), statistics.median(change)
    if len(set(parent + change)) == 1:
        return f"{mp:.3f} = {mc:.3f}"
    gap = (mc - mp) / mp
    sign = "−" if gap < 0 else "+"
    won = pairs_won(parent, change, metric["better"])
    return (f"{mp:.4g}→{mc:.4g} ({sign}{abs(gap) * 100:.1f} %, "
            f"IQR {quartile_distance(parent) * 100:.1f} %, {won}/{len(parent)})")


def row(workload, metrics, pairs):
    """The table row of one workload from its (parent, change) metric dicts."""
    cells = [cell(m, [p[m["name"]] for p, _ in pairs], [c[m["name"]] for _, c in pairs])
             for m in metrics]
    return f"| {workload} | " + " | ".join(cells) + " |"


def self_test(root):
    fx = json.load(open(f"{root}/scripts/xmark_ab_fixture.json"))
    metrics, pairs, want = fx["end_to_end"], fx["pairs"], fx["expect"]
    pairs = [(p["parent"], p["change"]) for p in pairs]
    t = [[p["time_to_solution_s"] for p, _ in pairs], [c["time_to_solution_s"] for _, c in pairs]]
    checks = [
        ("median parent", statistics.median(t[0]), want["median_parent"]),
        ("median change", statistics.median(t[1]), want["median_change"]),
        ("quartile distance", quartile_distance(t[0]), want["quartile_distance"]),
        ("pairs won", pairs_won(t[0], t[1], "lower"), want["pairs_won"]),
        ("steal", steal_fraction(*fx["proc_stat"]), want["steal"]),
    ]
    bad = [f"{name}: got {got!r}, want {exp!r}" for name, got, exp in checks
           if abs(got - exp) > 1e-9]
    got_row = row(fx["workload"], metrics, pairs)
    if got_row != want["row"]:
        bad.append(f"row:\n  got  {got_row}\n  want {want['row']}")
    if bad:
        sys.exit("xmark_ab self-test FAILED:\n  " + "\n  ".join(bad))
    print(f"xmark_ab self-test: ok ({len(checks) + 1} checks)")


def cpu_line():
    with open("/proc/stat") as f:
        return f.readline()


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True).stdout.strip()


def run_ab(root, rev, parent_root, seed, only):
    bench = json.load(open(f"{root}/BENCHMARK.json"))
    seconds = str(bench["run_seconds"])
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"] if not only or w["name"] in only]
    change = git(root, "rev-parse", "--short", "HEAD")
    dirty = bool(git(root, "status", "--porcelain", "--", ".", ":!BENCH_xmark_ab.jsonl"))
    date = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d")
    roots = {"parent": parent_root, "change": root}
    rows, notes, problems = [], [], []

    def one(workload, pair, side):
        before = cpu_line()
        out = subprocess.run(
            [f"{roots[side]}/benchmark/target/release/xmark", "--workload", workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=roots[side])
        steal = steal_fraction(before, cpu_line())
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            print(out.stderr, file=sys.stderr)
        record = {
            "parent": rev, "change": change, "dirty": dirty, "date": date,
            "workload": workload, "pair": pair, "side": side, "seed": seed,
            "run_seconds": bench["run_seconds"], "steal": round(steal, 5),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
        with open(f"{root}/BENCH_xmark_ab.jsonl", "a") as f:
            f.write(json.dumps(record) + "\n")
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} pair {pair} {side}: correct={result['correct']} "
                            f"failed={result['failed']}/{result['attempted']}")
        print(f"{workload} pair {pair} {side}: time_to_solution_s="
              f"{record['metrics'].get('time_to_solution_s', float('nan')):.4f} "
              f"steal={steal * 100:.1f} %", file=sys.stderr, flush=True)
        return record

    for w in workloads:
        runs = []
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            got = {side: one(w, pair, side) for side in order}
            runs.append((got["parent"], got["change"]))
        pairs = [(p["metrics"], c["metrics"]) for p, c in runs
                 if p["correct"] and c["correct"]]
        if len(pairs) < 2:
            problems.append(f"{w}: fewer than two complete pairs")
            continue
        share = {side: sum(r[i]["failed"] for r in runs) / max(1, sum(r[i]["attempted"] for r in runs))
                 for i, side in enumerate(("parent", "change"))}
        steal = max(r[i]["steal"] for r in runs for i in (0, 1))
        rows.append(row(w, metrics, pairs) + f" {share['parent']:.3g} / {share['change']:.3g} | "
                    f"{steal * 100:.1f} % |")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vp, vc = [p[name] for p, _ in pairs], [c[name] for _, c in pairs]
            gap = (statistics.median(vc) - statistics.median(vp)) / statistics.median(vp)
            if (gap if m["better"] == "lower" else -gap) > bound:
                notes.append(f"{w} {name}: median {gap * 100:+.1f} % is worse than the bound {bound}")
            for side, values in (("parent", vp), ("change", vc)):
                notes.append(f"  {w} {name} {side}: " + " ".join(f"{v:.4g}" for v in values))

    print(f"\nA/B {rev} (parent) → {change}{' + uncommitted' if dirty else ''} (change), "
          f"xmark --seconds {seconds} --seed {seed}, {PAIRS} alternating pairs, {date}:")
    print("| workload | " + " | ".join(m["name"] for m in metrics) + " | failed share P / C | max steal |")
    print("|---" * (len(metrics) + 3) + "|")
    print("\n".join(rows))
    print("\nEvery run's value, pair order (and any median over its bound):")
    print("\n".join(notes))
    if problems:
        print("\nIncorrect or failing runs:\n  " + "\n  ".join(problems))
        sys.exit(1)


root, mode = sys.argv[1], sys.argv[2]
if mode == "self-test":
    self_test(root)
else:
    run_ab(root, sys.argv[3], sys.argv[4], int(sys.argv[5]), sys.argv[6:])
PY
