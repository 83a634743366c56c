#!/usr/bin/env bash
# Byte-for-byte comparison of every experiment binary's and example's
# stdout, a parent revision against this checkout.
#
#   scripts/experiments_diff.sh <parent-rev>
#
# Extracts <parent-rev> with `git archive` into
# $TMPDIR/experiments-diff-<rev> (reused if present) and builds its
# experiment binaries and examples there once; builds this checkout's
# (committed or not) in its own target/. Then runs, from a fresh scratch
# directory per run, every crates/bench/src/bin experiment (fig*, table2_*,
# ablation_*, ext_*) and every example, once on the parent side and twice
# on this side, and compares stdout.
#
# A binary whose two runs on this side differ prints a timing. The script
# names it, masks its durations (a number followed by s, ms, us, µs or ns)
# on both sides, and names every line the mask touched; any difference
# that is left, between the two runs or between parent and change, is a
# real one. Prints one line per binary: `same`, `same (timings masked:
# lines …)`, or `DIFFERS` with the diff. Exit 0 when every binary matches,
# 1 otherwise, 2 on a usage error.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -eq 1 ] || { echo "usage: scripts/experiments_diff.sh <parent-rev>" >&2; exit 2; }
rev=$(git -C "$root" rev-parse --verify --short "$1^{commit}") || exit 2
parent="${TMPDIR:-/tmp}/experiments-diff-$rev"
if [ ! -f "$parent/Cargo.toml" ]; then
    mkdir -p "$parent"
    git -C "$root" archive "$rev" | tar -x -C "$parent"
fi

build() { # <tree> <target-dir>
    local cargo=(cargo build --release --offline --quiet --manifest-path "$1/Cargo.toml")
    CARGO_TARGET_DIR="$2" "${cargo[@]}" -p xlayer-bench --bins
    CARGO_TARGET_DIR="$2" "${cargo[@]}" --examples
}
echo "building $rev and this checkout" >&2
build "$parent" "$parent/target"
build "$root" "${CARGO_TARGET_DIR:-$root/target}"

names() { # <tree>: bench/<bin> and examples/<example>, one a line
    find "$1/crates/bench/src/bin" -maxdepth 1 -name '*.rs' -printf 'bench/%f\n' |
        grep -E '^bench/(fig|table2_|ablation_|ext_)' || true
    find "$1/examples" -maxdepth 1 -name '*.rs' -printf 'examples/%f\n'
}
binaries=$(cat <(names "$parent") <(names "$root") | sed 's/\.rs$//' | sort -u)

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
run() { # <tree> <target-dir> <name> <out>: stdout of one run, from an empty cwd
    # A binary counts only if its source is in <tree>: a target/ dir keeps
    # the build of a binary the tree has since deleted.
    local src="$1/crates/bench/src/bin/${3#bench/}.rs" exe="$2/release/${3#bench/}" dir
    [ "${3%%/*}" = examples ] && src="$1/$3.rs" exe="$2/release/$3"
    [ -f "$src" ] && [ -x "$exe" ] || { echo "(no such binary on this side)" > "$4"; return; }
    dir=$(mktemp -d "$scratch/cwd.XXXX")
    (cd "$dir" && "$exe" > "$4" 2> /dev/null) || echo "(exit $?)" >> "$4"
}
mask() { sed -E 's/[0-9]+(\.[0-9]+)? ?(ms|us|µs|ns|s)\b/<t>/g' "$1"; }

status=0
for name in $binaries; do
    p="$scratch/p" c1="$scratch/c1" c2="$scratch/c2"
    run "$parent" "$parent/target" "$name" "$p"
    run "$root" "${CARGO_TARGET_DIR:-$root/target}" "$name" "$c1"
    run "$root" "${CARGO_TARGET_DIR:-$root/target}" "$name" "$c2"
    note=""
    if ! cmp -s "$c1" "$c2"; then
        lines=$({ diff "$c1" <(mask "$c1") || true; } |
            sed -nE 's/^([0-9]+),([0-9]+)c.*/\1-\2/p; s/^([0-9]+)c.*/\1/p' | tr '\n' ' ' |
            sed 's/ $//')
        note=" (timings masked: lines ${lines:-none})"
        mask "$c1" > "$c1.m" && mv "$c1.m" "$c1"
        mask "$c2" > "$c2.m" && mv "$c2.m" "$c2"
        mask "$p" > "$p.m" && mv "$p.m" "$p"
        if ! cmp -s "$c1" "$c2"; then
            echo "$name: NONDETERMINISTIC beyond timings"
            diff "$c1" "$c2" | sed 's/^/    /' || true
            status=1
            continue
        fi
    fi
    if cmp -s "$p" "$c1"; then
        echo "$name: same$note"
    else
        echo "$name: DIFFERS$note"
        diff "$p" "$c1" | sed 's/^/    /' || true
        status=1
    fi
done
exit "$status"
