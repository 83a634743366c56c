#!/usr/bin/env bash
# Offline CI gate: everything here must pass before a commit lands.
# Mirrors .github/workflows/ci.yml so the same script runs locally and
# in CI without network access (all dependencies are vendored).
set -euo pipefail
cd "$(dirname "$0")/.."

# The non-test code of each FILE — its lines up to its first #[cfg(test)] —
# as "FILE:LINE: text", one line each: what the grep gates below search.
nontest() {
    local f
    for f in "$@"; do
        awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
    done
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> xlint (workspace invariants: D/P/F/K/L/S/A, see DESIGN.md §6)"
# Prints the waiver and grandfathered counts in its summary line.
# Exit 1 = violations; exit 2 = linter/config error — both fail the gate.
cargo run --locked -q -p xlint

echo "==> xlint --check-wire-pin (wire-format drift vs committed xlint.wire)"
# A layout change in crates/net/src/wire.rs must bump wire::VERSION and
# regenerate the pin (cargo run -p xlint -- --write-wire-pin) to pass.
cargo run --locked -q -p xlint -- --check-wire-pin

echo "==> chunk sums have one owner, the wire one chunk size, integrity one sum (grep gate)"
# What PRs 19 and 21 deleted must not grow back in non-test code (each file
# up to its first #[cfg(test)]) of the crates on the staged-byte path: no
# cache of sums beside the object, no negotiated or configurable wire chunk
# size, no single-frame get, and no byte-serial FNV-1a-32 beside
# `staging::sum` — its names (`FNV_OFFSET`, `checksum_update`) or its
# `for &b in data` XOR-multiply loop. (The placement hash in
# staging/src/shard.rs is FNV-1a-64 over three coordinates, not an
# integrity sum, and matches none of these.) `chunk_size` survives only as
# the disk log's self-describing record field and TierConfig's test-facing
# setter.
gate=0
for f in $(find crates/{staging,net,xbench,workflow}/src -name '*.rs' | sort); do
    code=$(nontest "$f")
    banned='ChunkSumCache|clamp_chunk_size|MIN_CHUNK_SIZE|MAX_CHUNK_SIZE|DEFAULT_CHUNK_SIZE|chunk_threshold|get_whole|FNV_OFFSET|checksum_update|for &b in data'
    case "$f" in
        crates/staging/src/tier.rs | crates/staging/src/disklog.rs) ;;
        *) banned="$banned|chunk_size" ;;
    esac
    if grep -E "$banned" <<<"$code"; then gate=1; fi
done
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md, PRs 19 and 21)"; exit 1; }

echo "==> one parallel runtime: vendor/rayon creates threads at pool start-up only, two unsafe blocks (grep gate)"
# Non-test code of the stand-in (src/tests.rs and anything after a
# #[cfg(test)] excluded): no scoped or per-call threads beside the pool's
# one `.spawn(`, and exactly the two `unsafe` blocks its module doc accounts
# for (the job closure's lifetime, `&mut T` by claimed index).
code=$(nontest $(find vendor/rayon/src -name '*.rs' ! -name tests.rs | sort))
if grep -E 'thread::scope' <<<"$code"; then
    echo "grep gate: vendor/rayon must not use thread::scope (see CHANGES.md, PR 23)"; exit 1
fi
spawns=$(grep -cE 'thread::spawn|\.spawn\(' <<<"$code" || true)
unsafes=$(grep -cE 'unsafe \{' <<<"$code" || true)
if [ "$spawns" -ne 1 ] || [ "$unsafes" -ne 2 ]; then
    echo "grep gate: vendor/rayon has $spawns thread-creation sites (want 1) and $unsafes unsafe blocks (want 2)"; exit 1
fi

echo "==> advection walks rows, the producer's lead over analysis is bounded (grep gate)"
# What PR 24 deleted must not grow back in non-test code (each file up to
# its first #[cfg(test)]): no per-cell `.get(` / `.set(` / `.cells()` in the
# advection kernel — the per-cell forms live in solvers/src/reference.rs —
# and no unbounded analysis job channel in the native workflow without the
# `in_flight.admit(` wait in front of it in step().
code=$(nontest crates/solvers/src/advect.rs)
if grep -E '\.get\(|\.set\(|\.cells\(\)' <<<"$code"; then
    echo "grep gate: per-cell fab access is retired from advect.rs (see CHANGES.md, PR 24)"; exit 1
fi
code=$(nontest crates/workflow/src/native.rs)
if grep -qE 'unbounded::<Job>' <<<"$code" && ! grep -qE 'in_flight\.admit\(' <<<"$code"; then
    echo "grep gate: native.rs queues analysis jobs unbounded with no InFlight::admit wait (see CHANGES.md, PR 24)"; exit 1
fi

echo "==> the Euler kernel walks each grid in place, in safe Rust (grep gate)"
# What the in-place Euler walk retired must not grow back in non-test
# euler.rs (up to its first #[cfg(test)]): no old-state snapshot
# (`take_fab_clone`) — every face reads the grid's primitive cache, so the
# fab is updated row by row — and its four-wide lanes stay plain safe Rust
# the compiler packs into baseline SSE2: no `unsafe`, no `target_feature`.
# The solvers crate keeps `#![forbid(unsafe_code)]`.
code=$(nontest crates/solvers/src/euler.rs)
if grep -E 'take_fab_clone|unsafe|target_feature' <<<"$code"; then
    echo "grep gate: euler.rs must not snapshot the old state or leave safe, baseline Rust (see CHANGES.md: the in-place Euler walk)"; exit 1
fi
if ! grep -qxF '#![forbid(unsafe_code)]' crates/solvers/src/lib.rs; then
    echo "grep gate: crates/solvers/src/lib.rs must keep #![forbid(unsafe_code)] (see CHANGES.md: the in-place Euler walk)"; exit 1
fi

echo "==> marching cubes classifies before it gathers, the worker reads the staged bytes (grep gate)"
# What the classify-first kernel retired must not grow back in non-test code (each file up
# to its first #[cfg(test)]): no per-cube `.any(|` quick reject in the
# marching-cubes kernel — cubes are classified a bit row at a time, and the
# per-cube walk lives in viz/src/reference.rs — and no `to_fab()` or
# `TriMesh::concat` in the native workflow, whose workers extract every
# object's payload into one mesh.
code=$(nontest crates/viz/src/marching_cubes.rs)
if grep -F '.any(|' <<<"$code"; then
    echo "grep gate: the per-cube quick reject is retired from marching_cubes.rs (see CHANGES.md: classify-first marching cubes)"; exit 1
fi
code=$(nontest crates/workflow/src/native.rs)
if grep -E 'to_fab\(\)|TriMesh::concat' <<<"$code"; then
    echo "grep gate: native.rs decodes payloads into fabs or concatenates per-object meshes (see CHANGES.md: classify-first marching cubes)"; exit 1
fi

echo "==> the analysis worker fetches only what the isosurface can cross (grep gate)"
# The worker's get carries the job's isovalue as its `crossing` predicate,
# so every staging layer drops, on descriptors, the objects the surface
# cannot cross. In non-test native.rs (up to its first #[cfg(test)]) the
# filtered fetch must be there, and no unfiltered fetch of the version
# (`None` or `None, None` after the query box) beside it.
code=$(nontest crates/workflow/src/native.rs)
if grep -E 'get\("field", job\.version, None(, None)?\)' <<<"$code" \
    || ! grep -qF 'get("field", job.version, None, Some(job.iso))' <<<"$code"; then
    echo "grep gate: the analysis worker must fetch with Some(job.iso) as its crossing predicate (see CHANGES.md: value-range descriptors)"; exit 1
fi

echo "==> the spill log reclaims by unlinking, and syncs only in a segment rewrite (grep gate)"
# What PR 25 deleted must not grow back in non-test code of disklog.rs: a
# segment with no live extent is reclaimed with `remove_file` (no copy, no
# sync), and `sync_all` appears only inside `rewrite_segment` — on the
# rewritten file before its rename, and on the directory after it — never
# on the append, promote or unlink path.
f=crates/staging/src/disklog.rs
code=$(nontest "$f")
outside=$(awk '/#\[cfg\(test\)\]/{exit} /fn rewrite_segment\(/{inside=1} inside && /^    }$/{inside=0; next} !inside {print FILENAME":"FNR": "$0}' "$f")
syncs=$(grep -cE 'sync_all\(' <<<"$code" || true)
if ! grep -qE 'fs::remove_file\(' <<<"$code" || grep -E 'sync_all\(|sync_data\(' <<<"$outside" || [ "$syncs" -ne 2 ]; then
    echo "grep gate: disklog.rs must reclaim dead segments with remove_file and sync_all only in rewrite_segment, twice (found $syncs; see CHANGES.md, PR 25)"; exit 1
fi

echo "==> one encoding of a staged object: one codec, one descriptor layout (grep gate)"
# The wire and the spill log share staging::codec. In non-test code of
# crates/{staging,net}/src: the little-endian cursors (`struct Rd`,
# `struct Wr`) and the descriptor codec (`fn desc`) live only in
# staging/src/codec.rs; the disk log's own cursor, box packer and fixed
# head (`struct Cur`, `put_ibox`, `FIXED_HEAD`, `MAX_NAME`) stay deleted;
# and disklog.rs packs no integer by hand (`to_le_bytes`, `from_le_bytes`).
gate=0
for f in $(find crates/{staging,net}/src -name '*.rs' | sort); do
    banned='struct Cur\b|put_ibox|FIXED_HEAD|MAX_NAME'
    case "$f" in
        crates/staging/src/codec.rs) ;;
        crates/staging/src/disklog.rs) banned="$banned|struct (Rd|Wr)\b|fn desc\b|to_le_bytes|from_le_bytes" ;;
        *) banned="$banned|struct (Rd|Wr)\b|fn desc\b" ;;
    esac
    if grep -E "$banned" <<<"$(nontest "$f")"; then gate=1; fi
done
[ "$gate" -eq 0 ] || { echo "grep gate: a staged object has one encoding, staging::codec's (see CHANGES.md: one codec for the wire and the spill log)"; exit 1; }

echo "==> a staging server's tiers sit under one lock (grep gate)"
# Each staging server keeps its disk tier inside its store, under the store
# lock that serialises every resident change, so "is this key on disk?" can
# only be asked under it. In non-test code of crates/staging/src (each file
# up to its first #[cfg(test)]): no shared `Arc<DiskTier>`, and tier.rs
# holds no lock or atomic of its own (no `Mutex`, `RwLock`, `Atomic`). The
# lock-free gauge read that let a probe skip the store lock, and the mirror
# that fed it (`spilled_key_count`, `refresh_gauges`), appear nowhere in the
# staging and net crates, the facade, the integration tests or the examples
# (xlint's `guarded_by` config and fixtures keep the names on purpose).
gate=0
if grep -E 'Arc<DiskTier>' <<<"$(nontest $(find crates/staging/src -name '*.rs' | sort))"; then gate=1; fi
if grep -E 'Mutex|RwLock|Atomic' <<<"$(nontest crates/staging/src/tier.rs)"; then gate=1; fi
if grep -rnE 'spilled_key_count|refresh_gauges' crates/staging crates/net src tests examples; then gate=1; fi
[ "$gate" -eq 0 ] || { echo "grep gate: a staging server's disk tier is plain state under its store lock (see CHANGES.md: one lock per staging server)"; exit 1; }

echo "==> one way to hand a staged version to its consumer (grep gate)"
# The retired delivery paths must not grow back in non-test code (each file
# up to its first #[cfg(test)]) of the crates, the facade, the integration
# tests and the examples: delivery is AsyncStager::put_batch plus
# TransportStats::wait_processed — no pub/sub space, no version gate, no
# deferred pack, no single-object put — and there is no compression
# operator.
gate=0
for f in $(find crates/*/src src tests examples -name '*.rs' | sort); do
    code=$(nontest "$f")
    if grep -E 'PubSubSpace|PublishStats|VersionGate|StageTask::Deferred|TransportClosed|compress_fab|CompressedBlock' <<<"$code"; then gate=1; fi
done
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md: pub/sub, version gates and compression deleted)"; exit 1; }

echo "==> one instrument for the staged-byte path: no distributed load generator (grep gate)"
# xbench's agent, controller, control protocol and saturation sweep, the
# latency histogram only they used, and the spec's text format were deleted:
# xmark is the instrument, and xbench is the seeded op streams it replays.
# None of their names may grow back in non-test code (each file up to its
# first #[cfg(test)]) of the crates, the facade, the integration tests and
# the examples.
gate=0
for f in $(find crates/*/src src tests examples -name '*.rs' | sort); do
    code=$(nontest "$f")
    if grep -E 'AgentServer|AgentConn|saturation_sweep|CtlRequest|LatencySnapshot|net::hist|WorkloadSpec::parse' <<<"$code"; then gate=1; fi
done
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md: xbench's load generator deleted)"; exit 1; }

echo "==> one spill-or-refuse rule, no product code only tests run (grep gate)"
# Every staging server, in process or behind a service, has one rule for
# a put over its memory cap: spill while its disk log has room for the
# object, read fresh at the put, and refuse (OutOfMemory) after. Nothing
# overrides it: the engine's forced spill/reject verdict, its staging-side
# enum and the setters that handed it to an in-process space alone are
# deleted, and so is the per-variable persistence class. The event engine
# and resource pool the modeled mode never ran, the server's op counters
# and the Monitor's two predictors are deleted too. None of these names
# may come back anywhere (test code included) in the crates, the facade,
# the integration tests or the examples. The viz operators no workflow
# called are deleted from crates/viz (core::policy::app keeps its own
# `reduced_bytes` and `reduction_memory`, the policy's volumetric model).
gate=0
if grep -rnE 'EventQueue|ResourcePool|Persistence|op_counts|smoothed_sim_time|data_growth_rate' crates src tests examples; then gate=1; fi
if grep -rnE 'SpillAction|set_pressure_action|set_forced' crates src tests examples; then gate=1; fi
if grep -rnE 'Histogram|SubsetCell|level_stats|downsample_level|reduced_bytes|reduction_memory' crates/viz; then gate=1; fi
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md: one author for the pressure verdict; one spill-or-refuse rule)"; exit 1; }

echo "==> one time-stepping algorithm: lock-step, unrefluxed (grep gate)"
# Every level advances with the global, finest-limited dt and is averaged
# down; coarse-fine fluxes are not refluxed. Berger-Oliger subcycling, the
# flux register and the solvers' flux-capturing level steps were deleted,
# and none of their names may come back anywhere (test code included) in
# the crates, the facade, the integration tests or the examples — nor a
# `subcycle:` or `reflux:` field in any struct or struct literal.
gate=0
if grep -rnE 'FluxRegister|flux_register|LevelFluxes|advance_level_capture|advance_level_recursive|compute_dt_subcycled|average_down_level' crates src tests examples; then gate=1; fi
if grep -rnE '\b(subcycle|reflux)[[:space:]]*:([^:]|$)' crates src tests examples; then gate=1; fi
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md: one time-stepping algorithm)"; exit 1; }

echo "==> one placement rule, one home, no pooled fabs (grep gate)"
# A staged object lands on the server its box hashes to (ShardMap) and
# lives there, in memory or on that server's disk, so a re-sent put meets
# its first copy under that server's store lock. The round-robin rule, its
# put counter, the cross-server twin probe and the service's sharding knob
# were deleted, and so were sibling overflow and its per-home counters on
# the sharded client; none may come back in non-test code (each file up
# to its first #[cfg(test)]) of the staging, net and workflow crates
# (amr's rank `Balancer::RoundRobin` is another thing).
# Nor may the pooled-fab pair only the solver reference used, or the
# per-grid result map beside `LevelData::par_for_each_mut`, in amr and
# solvers.
gate=0
for f in $(find crates/{staging,net,workflow}/src -name '*.rs' | sort); do
    if grep -E 'RoundRobin|rr_next|fn holds|sharding:|spill_redirects|rejected_by_home|rejected_by_shard' <<<"$(nontest "$f")"; then gate=1; fi
done
for f in $(find crates/{amr,solvers}/src -name '*.rs' | sort); do
    if grep -E 'take_fab|recycle_fab|with_storage|into_storage|par_map_mut' <<<"$(nontest "$f")"; then gate=1; fi
done
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md: one placement rule and one home for staged objects)"; exit 1; }

echo "==> one read rule for the sharded client (grep gate)"
# Every ShardedClient read asks every shard, in shard order, on the calling
# thread, as DataSpace's reads ask every server. The predicted-shard region
# routing, the oversized-object check that fed it, the per-client flag that
# widened it and the per-call thread fan-out were deleted; none may come
# back in non-test cluster.rs or shard.rs (each up to its first #[cfg(test)]).
if grep -E 'query_shards|broaden|thread::scope|fn fits' <<<"$(nontest crates/net/src/cluster.rs crates/staging/src/shard.rs)"; then
    echo "grep gate: the names above are retired (see CHANGES.md: one read rule for the staging cluster)"; exit 1
fi

echo "==> a staging read is whole or a typed error (grep gate)"
# A server read that cannot read back a spilled extent fails, naming the
# server and the key; the service answers it with one Unreadable frame and
# every Staging backend reports the version lost. The swallowing forms that
# once served the resident part alone may not come back in the non-test
# code (each file up to its first #[cfg(test)]) of the staging server,
# space, tier, backend and cluster modules, the networked cluster or the
# service: no `unwrap_or_default()`, no `.unwrap_or(0)`, and no
# `if let Ok(` whose block is not followed by `else`. An `Option`
# fallback says so, with its reason, in an inline `// Option:` comment.
swallowing() {
    nontest "$@" | awk '
        function close_block(rest) {
            if (rest ~ /^[[:space:]]*else/) { open_at = ""; return }
            if (rest ~ /[^[:space:]]/) { print open_at ": `if let Ok(` without else"; open_at = ""; return }
            pending = 1
        }
        {
            text = $0; sub(/^[^:]*:[0-9]+: /, "", text)
            if (pending) {
                if (text ~ /^[[:space:]]*$/) next
                if (text !~ /^[[:space:]]*else/) print open_at ": `if let Ok(` without else"
                pending = 0; open_at = ""
            }
            if ((text ~ /unwrap_or_default\(\)|\.unwrap_or\(0\)/) && text !~ /\/\/ Option: /) print $0
            if (open_at == "" && (at = index(text, "if let Ok(")) > 0) {
                open_at = $0; depth = 0; seen = 0; text = substr(text, at)
            }
            if (open_at == "") next
            for (i = 1; i <= length(text); i++) {
                c = substr(text, i, 1)
                if (c == "{") { depth++; seen = 1 }
                else if (c == "}" && --depth == 0 && seen) { close_block(substr(text, i + 1)); break }
            }
        }
        END { if (pending) print open_at ": `if let Ok(` without else" }'
}
if swallowing crates/staging/src/{server,space,tier,backend,cluster}.rs crates/net/src/{cluster,service}.rs | grep .; then
    echo "grep gate: a failed read must be an error, not a default (see CHANGES.md: a shard read is whole or a typed error)"; exit 1
fi

echo "==> one cluster over one Shard trait (grep gate)"
# DataSpace and ShardedClient are both xlayer_staging::Cluster, the one
# Staging implementation: exactly one non-test `impl ... Staging for`
# under crates/*/src, and neither the in-process space nor the networked
# cluster keeps a merge order, a scatter helper or a sort of its own.
impls=$(nontest $(find crates/*/src -name '*.rs' | sort) | grep -cE 'impl(<[^>]*>)?[[:space:]]+([A-Za-z_:]+::)?Staging[[:space:]]+for' || true)
if [ "$impls" -ne 1 ]; then
    nontest $(find crates/*/src -name '*.rs' | sort) | grep -E 'impl(<[^>]*>)?[[:space:]]+([A-Za-z_:]+::)?Staging[[:space:]]+for' || true
    echo "grep gate: $impls non-test Staging implementations, want 1 (see CHANGES.md: one cluster over one Shard trait)"; exit 1
fi
if grep -E 'desc_order|fn scatter|sort_by' <<<"$(nontest crates/net/src/cluster.rs crates/staging/src/space.rs)"; then
    echo "grep gate: the cluster's read rules live in xlayer_staging::cluster alone (see CHANGES.md: one cluster over one Shard trait)"; exit 1
fi

echo "==> one downsample mechanism: the producer's pack factor (grep gate)"
# The pressure policy's downsample verdict is carried out by the producer,
# which packs the step at app factor x pressure factor. The put-time
# round trip — the tier's downsample verdict, the refusal that asked for
# a coarsened re-send, its wire error code and the workflow's wrapper
# that re-reduced refused objects — was deleted; none of its names may
# come back in non-test code (each file up to its first #[cfg(test)]) of
# the crates, the facade, the integration tests or the examples.
gate=0
for f in $(find crates/*/src src tests examples -name '*.rs' | sort); do
    if grep -E 'NeedsReduction|CoarsenOnDemand|reduce_object|SpillAction::Downsample' <<<"$(nontest "$f")"; then gate=1; fi
done
[ "$gate" -eq 0 ] || { echo "grep gate: the names above are retired (see CHANGES.md: one downsample mechanism)"; exit 1; }

echo "==> xmark A/B arithmetic self-test (scripts/xmark_ab.sh --self-test)"
./scripts/xmark_ab.sh --self-test

echo "==> xmark scripts: recorded trajectory, and an unknown workload refused before any build"
# --show reads BENCH_xmark_history.jsonl only. A mistyped workload name must
# exit 2 before anything is extracted or built: `cargo` is shadowed by a stub
# that exits 99, so reaching a build shows up as 99, not 2.
./scripts/xmark_history.sh --show > /dev/null
stub=$(mktemp -d)
printf '#!/bin/sh\nexit 99\n' > "$stub/cargo"
chmod +x "$stub/cargo"
for cmd in "xmark_ab.sh HEAD" "xmark_history.sh" "xmark_history.sh --show"; do
    rc=0
    PATH="$stub:$PATH" ./scripts/$cmd advect_shardd 2>/dev/null || rc=$?
    [ "$rc" -eq 2 ] || { echo "scripts/$cmd advect_shardd exited $rc, want 2"; rm -rf "$stub"; exit 1; }
done
rm -rf "$stub"

echo "==> cargo build --release"
cargo build --locked --release

echo "==> cargo test (workspace)"
# Tier tests create their scratch directories under $TMPDIR (unique per
# process + sequence number) and remove them on success; sweep leftovers
# from earlier failed runs first so disk usage cannot accumulate across CI
# attempts.
rm -rf "${TMPDIR:-/tmp}"/xlayer-tierprop-* "${TMPDIR:-/tmp}"/xlayer-native-* \
       "${TMPDIR:-/tmp}"/xlayer-tier-* "${TMPDIR:-/tmp}"/xlayer-disklog-* \
       "${TMPDIR:-/tmp}"/xlayer-tiered-server-*
cargo test --locked -q --workspace

echo "==> coupled_codes example (producer stages, consumer waits per version, ROI mean decays)"
# The examples are compiled by clippy --all-targets; this one also runs,
# because it asserts its own result.
cargo run --locked --release -q --example coupled_codes > /dev/null

echo "==> xmark smoke (benchmark/ builds against the crates' frozen surface; four workloads self-check)"
# benchmark/ is a package of its own with path dependencies on crates/*:
# a change that breaks what it calls fails here, before the benchmark
# pipeline finds out. No --locked: its lock file is its own.
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null
# That build resolves benchmark/'s own lock against the crates' manifests:
# a dependency edit anywhere under crates/ makes cargo rewrite it. The lock
# is frozen with the rest of benchmark/, so a rewrite fails here rather
# than in the benchmark pipeline.
git diff --exit-code -- benchmark/Cargo.lock

echo "==> bench targets compile"
cargo build --locked --release -p xlayer-bench --benches --bins

echo "==> kernel bench summary schema (BENCH_native_hotpath.json: exactly 19 keys + 7 ratios)"
# An equality check: a summary carrying keys outside the schema (the
# staged-byte keys that moved to xmark, say) fails like a missing one.
cargo run --locked --release -q -p xlayer-bench --bin bench_schema_check -- BENCH_native_hotpath.json

echo "All checks passed."
