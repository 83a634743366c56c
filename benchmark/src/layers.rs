//! The per-layer metrics of a traced run, reduced from its spans and from
//! the counters each repetition collected at the layer boundaries.
//!
//! Every traced run prints every metric, in `BENCHMARK.json` order; one a
//! workload does not exercise reads 0.

use crate::measure::{median, quantile};
use crate::run::{Metric, Rep};
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Spans that only group others.
fn is_container(name: &str) -> bool {
    name == "rep" || name == "step"
}

/// Reduce a traced run to the per-layer metrics.
pub fn metrics(tr: &Tracer, traced: &[Rep], untraced: &[Rep]) -> Vec<Metric> {
    // Median duration of one call, and of all calls of a step together.
    let p50_ms = |name: &str| median(&tr.ms(name));
    let p50_us = |name: &str| p50_ms(name) * 1e3;
    let per_step_p50_ms = |names: &[&str]| {
        let mut sums: BTreeMap<(usize, u64), f64> = BTreeMap::new();
        for s in tr.spans.iter().filter(|s| names.contains(&s.name)) {
            *sums.entry((s.rep, s.step)).or_default() += s.ns() as f64 / 1e6;
        }
        median(&sums.into_values().collect::<Vec<_>>())
    };
    // Span counts per second, in millions, and their mean per span.
    let totals = |names: &[&str]| {
        tr.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .fold((0u64, 0u64, 0u64), |(c, t, n), s| {
                (c + s.count, t + s.ns(), n + 1)
            })
    };
    let mega_per_s = |names: &[&str]| {
        let (count, ns, _) = totals(names);
        count as f64 * 1e3 / ns.max(1) as f64
    };
    let mean_count = |names: &[&str]| {
        let (count, _, spans) = totals(names);
        count as f64 / spans.max(1) as f64
    };
    // A counter, as the median over the repetitions that recorded it.
    let counter = |reps: &[Rep], key: &str| {
        median(
            &reps
                .iter()
                .filter_map(|r| r.counters.get(key).copied())
                .collect::<Vec<_>>(),
        )
    };

    let untraced_steps: Vec<f64> = untraced.iter().flat_map(|r| r.step_ms.clone()).collect();
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    const ADVANCE: &[&str] = &["solvers.advance", "solvers.advance_regrid"];
    // The producer's own compute in a step; 0 where no simulation runs.
    let producer_ms = per_step_p50_ms(&[
        "solvers.advance",
        "solvers.advance_regrid",
        "amr.fill_ghosts",
        "core.adapt",
    ]);
    let flow = producer_ms > 0.0;

    // Per traced repetition: the serial sum of the native path's layer
    // spans, the wall time without the reference spans, and the share of
    // the wall time any layer span covers.
    let mut serial = Vec::new();
    let mut on_path_wall = Vec::new();
    let mut coverage = Vec::new();
    for (rep, r) in traced.iter().enumerate() {
        let layer_s = |on_path: bool| {
            tr.spans
                .iter()
                .filter(|s| s.rep == rep && !is_container(s.name) && s.on_path == on_path)
                .map(|s| s.ns() as f64 / 1e9)
                .sum::<f64>()
        };
        let (on, off) = (layer_s(true), layer_s(false));
        serial.push(on);
        on_path_wall.push(r.wall_s - off);
        coverage.push((on + off) / r.wall_s.max(f64::MIN_POSITIVE));
    }
    let per_untraced_wall = |v: &[f64]| median(v) / untraced_wall.max(f64::MIN_POSITIVE);

    // Spill happens inside put and promotion inside get: the tier's own
    // byte counts over the time spent in those calls.
    let tier_mib_per_s = |bytes_key: &str, call: &str| {
        let secs = tr.named(call).map(|s| s.ns() as f64 / 1e9).sum::<f64>();
        let mib = counter(traced, bytes_key) * traced.len() as f64 / (1u64 << 20) as f64;
        mib / secs.max(f64::MIN_POSITIVE)
    };

    vec![
        ("amr.fill_ghosts_ms_p50", p50_ms("amr.fill_ghosts"), "ms"),
        ("amr.cells_per_step", mean_count(ADVANCE), "count"),
        ("solvers.advance_ms_p50", p50_ms("solvers.advance"), "ms"),
        (
            "solvers.advance_regrid_ms_p50",
            p50_ms("solvers.advance_regrid"),
            "ms",
        ),
        (
            "solvers.mcell_updates_per_s",
            mega_per_s(ADVANCE),
            "Mcell/s",
        ),
        ("core.adapt_us_p50", p50_us("core.adapt"), "us"),
        (
            "workflow.new_ms_p50",
            counter(untraced, "workflow.new_ms"),
            "ms",
        ),
        (
            "workflow.pack_ms_p50",
            per_step_p50_ms(&["workflow.pack"]),
            "ms",
        ),
        (
            "workflow.pack_mib_per_s",
            tr.mib_per_s("workflow.pack"),
            "MiB/s",
        ),
        // What a step blocks the producer for beyond its own compute:
        // packing, hand-off, and contention with the overlapped analysis.
        (
            "workflow.producer_stall_ms_p50",
            if flow {
                median(&untraced_steps) - producer_ms
            } else {
                0.0
            },
            "ms",
        ),
        (
            "workflow.finish_ms_p50",
            counter(untraced, "workflow.finish_ms"),
            "ms",
        ),
        (
            "workflow.overlap_ratio",
            if flow {
                per_untraced_wall(&serial)
            } else {
                0.0
            },
            "ratio",
        ),
        ("staging.put_us_p50", p50_us("staging.put"), "us"),
        (
            "staging.put_mib_per_s",
            tr.mib_per_s("staging.put"),
            "MiB/s",
        ),
        ("staging.get_us_p50", p50_us("staging.get"), "us"),
        (
            "staging.get_region_ms_p50",
            p50_ms("staging.get_region"),
            "ms",
        ),
        ("staging.evict_us_p50", p50_us("staging.evict"), "us"),
        (
            "staging.transport_enqueue_us_p50",
            p50_us("staging.transport_enqueue"),
            "us",
        ),
        (
            "staging.transport_drain_ms_p50",
            p50_ms("staging.transport_drain"),
            "ms",
        ),
        (
            "staging.rejected_puts",
            counter(traced, "staging.rejected_puts"),
            "count",
        ),
        (
            "staging.checksum_mib_per_s",
            tr.mib_per_s("staging.checksum"),
            "MiB/s",
        ),
        (
            "staging.pool_hit_rate",
            counter(traced, "staging.pool_hit_rate"),
            "ratio",
        ),
        (
            "staging.tier_spill_mib_per_s",
            tier_mib_per_s("tier.spilled_bytes", "staging.put"),
            "MiB/s",
        ),
        (
            "staging.tier_promote_mib_per_s",
            tier_mib_per_s("tier.promoted_bytes", "staging.get"),
            "MiB/s",
        ),
        (
            "staging.tier_spilled_objs",
            counter(traced, "staging.tier_spilled_objs"),
            "count",
        ),
        (
            "staging.tier_promoted_objs",
            counter(traced, "staging.tier_promoted_objs"),
            "count",
        ),
        (
            "staging.tier_disk_hits",
            counter(traced, "staging.tier_disk_hits"),
            "count",
        ),
        (
            "staging.tier_compactions",
            counter(traced, "staging.tier_compactions"),
            "count",
        ),
        ("net.encode_mib_per_s", tr.mib_per_s("net.encode"), "MiB/s"),
        ("net.decode_mib_per_s", tr.mib_per_s("net.decode"), "MiB/s"),
        ("net.put_small_us_p50", p50_us("net.put_small"), "us"),
        ("net.get_small_us_p50", p50_us("net.get_small"), "us"),
        ("net.get_region_ms_p50", p50_ms("net.get_region"), "ms"),
        (
            "net.put_large_mib_per_s",
            tr.mib_per_s("net.put_large"),
            "MiB/s",
        ),
        (
            "net.get_large_mib_per_s",
            tr.mib_per_s("net.get_large"),
            "MiB/s",
        ),
        ("net.stats_rtt_us_p50", p50_us("net.stats_rtt"), "us"),
        ("net.sharded_put_us_p50", p50_us("net.sharded_put"), "us"),
        ("net.sharded_get_ms_p50", p50_ms("net.sharded_get"), "ms"),
        ("net.retries", counter(traced, "net.retries"), "count"),
        (
            "net.busy_frames",
            counter(traced, "net.busy_frames"),
            "count",
        ),
        (
            "net.wire_errors",
            counter(traced, "net.wire_errors"),
            "count",
        ),
        (
            "net.chunksum_hit_rate",
            counter(traced, "net.chunksum_hit_rate"),
            "ratio",
        ),
        (
            "net.bytes_in_mib",
            counter(traced, "net.bytes_in_mib"),
            "MiB",
        ),
        (
            "net.bytes_out_mib",
            counter(traced, "net.bytes_out_mib"),
            "MiB",
        ),
        ("viz.unpack_ms_p50", per_step_p50_ms(&["viz.unpack"]), "ms"),
        (
            "viz.extract_ms_p50",
            per_step_p50_ms(&["viz.extract"]),
            "ms",
        ),
        (
            "viz.extract_mcells_per_s",
            mega_per_s(&["viz.extract"]),
            "Mcell/s",
        ),
        ("viz.concat_ms_p50", p50_ms("viz.concat"), "ms"),
        (
            "viz.triangles_per_step",
            mean_count(&["viz.concat"]),
            "count",
        ),
        (
            "viz.extract_level_ms_p50",
            p50_ms("viz.extract_level"),
            "ms",
        ),
        // The tail of the producer-blocking time over the untraced baseline
        // repetitions' steps pooled (the end-to-end run reports the median).
        ("step_ms_p90", quantile(&untraced_steps, 0.9), "ms"),
        (
            "trace.overhead_frac",
            per_untraced_wall(&on_path_wall) - 1.0,
            "ratio",
        ),
        ("trace.coverage_frac", median(&coverage), "ratio"),
    ]
}
