//! One benchmark run: set-up passes, measured repetitions, cross-repetition
//! checks, and the metrics of both the untraced and the traced run.

use crate::flow;
use crate::layers;
use crate::measure::{median, mib, peak_rss_mib, reset_peak_rss};
use crate::stage::{self, MixSize, TierSize};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use xlayer_net::ServiceSnapshot;

/// How a repetition is run.
pub enum Mode<'a> {
    /// As measured: the program alone inside the timers.
    Timed,
    /// As in a set-up pass: also compared against the in-situ reference
    /// where the timed run has none.
    Checked,
    /// Re-enacted serially with a span around every call into a layer.
    Traced(&'a mut Tracer),
}

/// What one repetition reports.
#[derive(Default)]
pub struct Rep {
    /// Wall seconds from the first call into the program to the last
    /// reply (`finish()` included).
    pub wall_s: f64,
    /// User + system CPU seconds the process spent meanwhile.
    pub cpu_s: f64,
    /// Producer-blocking time of every step or version cycle.
    pub step_ms: Vec<f64>,
    /// Peak resident set size while the repetition ran, inputs included.
    pub peak_rss_mib: f64,
    /// Bytes handed to staging.
    pub moved_bytes: u64,
    /// Operations attempted: puts, gets, evictions, probes, analysed steps.
    pub attempted: u64,
    /// Operations that were rejected, failed, came back short or wrong.
    pub failed: u64,
    /// What the program produced, per step: must repeat exactly.
    pub outputs: Vec<u64>,
    /// Correctness checks that did not hold.
    pub errors: Vec<String>,
    /// Counts and outside timings the per-layer metrics are built from.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// A repetition that could not run at all.
    pub fn broken(why: String) -> Rep {
        Rep {
            attempted: 1,
            failed: 1,
            errors: vec![why],
            ..Default::default()
        }
    }

    /// Record a counter.
    pub fn count(&mut self, key: &'static str, value: f64) {
        self.counters.insert(key, value);
    }

    /// Record what the staging services counted on their side (for a
    /// cluster, the shards' snapshots summed) and hold it against what the
    /// producer staged.
    pub fn net_counters(&mut self, snap: &ServiceSnapshot) {
        let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        self.count("net.bytes_in_mib", mib(snap.bytes_in));
        self.count("net.bytes_out_mib", mib(snap.bytes_out));
        self.count(
            "staging.pool_hit_rate",
            rate(snap.pool_hits, snap.pool_misses),
        );
        self.count(
            "net.chunksum_hit_rate",
            rate(snap.chunksum_hits, snap.chunksum_misses),
        );
        self.count("net.wire_errors", snap.wire_errors as f64);
        self.count("net.busy_frames", snap.busy_frames as f64);
        if snap.wire_errors + snap.busy_frames + snap.rejected_oom != 0 {
            self.errors.push(format!(
                "{} wire errors, {} busy frames, {} puts rejected",
                snap.wire_errors, snap.busy_frames, snap.rejected_oom
            ));
        }
        // Frames carry headers and descriptors on top of the payload, and
        // requests come in too — but not a second copy of the data.
        let (received, moved) = (snap.bytes_in, self.moved_bytes);
        if received < moved || received > moved + moved / 20 + (1 << 20) {
            self.errors.push(format!(
                "the services received {received} B for {moved} B staged"
            ));
        }
    }

    /// Fold a concurrent client's share into this repetition.
    pub fn absorb(&mut self, part: Rep) {
        self.step_ms.extend(part.step_ms);
        self.moved_bytes += part.moved_bytes;
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.outputs.extend(part.outputs);
        self.errors.extend(part.errors);
    }
}

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Solver-bound coupled workflow, in-process staging.
    GasLocalIntransit,
    /// Movement-bound coupled workflow over a 2-shard loopback cluster.
    AdvectShardedIntransit,
    /// Two clients mixing small and bulk reads and writes on one service.
    StageMixedRw,
    /// One client churning versions through the disk tier.
    TierChurn4x,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GasLocalIntransit,
        Workload::AdvectShardedIntransit,
        Workload::StageMixedRw,
        Workload::TierChurn4x,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GasLocalIntransit => "gas_local_intransit",
            Workload::AdvectShardedIntransit => "advect_sharded_intransit",
            Workload::StageMixedRw => "stage_mixed_rw",
            Workload::TierChurn4x => "tier_churn_4x",
        }
    }

    /// One repetition at `scale`: inputs generated from the seed, services
    /// started, the work done and checked, everything torn down again.
    fn rep(self, opts: &Options, scale: Scale, mode: Mode<'_>) -> Rep {
        use Scale::{Full, Smoke, Warm};
        let seed = opts.seed;
        match self {
            Workload::GasLocalIntransit => {
                let (n, steps) = match scale {
                    Full => (64, 24),
                    Warm => (64, 12),
                    Smoke => (32, 4),
                };
                flow::gas_local(seed, n, steps, mode)
            }
            Workload::AdvectShardedIntransit => {
                let (n, steps) = match scale {
                    Full => (128, 20),
                    Warm => (128, 10),
                    Smoke => (32, 4),
                };
                flow::advect_sharded(seed, n, steps, mode)
            }
            Workload::StageMixedRw => {
                let size = MixSize {
                    cycles: match scale {
                        Full => 26,
                        Warm => 13,
                        Smoke => 4,
                    },
                    smalls: if scale == Smoke { 32 } else { 512 },
                    small_gets: if scale == Smoke { 8 } else { 128 },
                    // ≥ 8 MiB, so the client streams it in chunks.
                    bulk_side: 104,
                };
                stage::stage_mixed(seed, size, mode)
            }
            Workload::TierChurn4x => {
                let size = TierSize {
                    cycles: match scale {
                        Full => 96,
                        Warm => 48,
                        Smoke => 12,
                    },
                    objects: if scale == Smoke { 4 } else { 16 },
                    side: if scale == Smoke { 16 } else { 32 },
                };
                stage::tier_churn(seed, size, &opts.scratch_dir, mode)
            }
        }
    }
}

/// How much work a repetition does.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// A measured repetition.
    Full,
    /// The warm-up inside a set-up pass: the same inputs, half the steps.
    Warm,
    /// `--smoke`: tiny, for CI.
    Smoke,
}

/// Command-line options of one run.
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Seconds to spend on measured repetitions.
    pub seconds: f64,
    /// Make the traced run.
    pub trace: bool,
    /// Tiny sizes, one repetition.
    pub smoke: bool,
    /// Where the disk tier and the span file go.
    pub scratch_dir: PathBuf,
}

/// A named value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run prints.
pub struct Outcome {
    /// Every check held and no operation failed.
    pub correct: bool,
    /// Operations attempted over all measured repetitions.
    pub attempted: u64,
    /// Operations failed over all measured repetitions.
    pub failed: u64,
    /// The end-to-end metrics, or the per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// Failed checks, then sample counts, for the reader.
    pub notes: Vec<String>,
}

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Fewest measured repetitions a run takes its best of.
const MIN_REPS: usize = 3;
/// Untraced repetitions a traced run makes first, as the base of
/// `trace.overhead_frac` and `workflow.producer_stall_ms_p50`.
const BASELINE_REPS: usize = 2;

/// Run `workload` once: set up, measure, check, and reduce to metrics.
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    let (full, warm) = if opts.smoke {
        (Scale::Smoke, Scale::Smoke)
    } else {
        (Scale::Full, Scale::Warm)
    };
    // Checks that did not hold; an empty list is a correct run.
    let mut problems = Vec::new();

    // Set-up: everything a run needs before its first measured repetition
    // — inputs from the seed, services, hierarchy, workflow, and a warm-up
    // of half a repetition that is also checked against the reference —
    // done several times so that its median repeats.
    let mut setup_s = Vec::new();
    let mut warmups: Vec<Rep> = Vec::new();
    for _ in 0..if opts.smoke { 1 } else { SETUP_PASSES } {
        let t = Instant::now();
        warmups.push(workload.rep(opts, warm, Mode::Checked));
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Repetitions of identical work until another one as long as the last
    // would overrun the time given.
    let clock = Instant::now();
    let spent = |last: Instant| {
        opts.smoke || (clock.elapsed() + last.elapsed()).as_secs_f64() > opts.seconds
    };
    let mut untraced: Vec<Rep> = Vec::new();
    loop {
        let t = Instant::now();
        reset_peak_rss();
        let mut rep = workload.rep(opts, full, Mode::Timed);
        rep.peak_rss_mib = peak_rss_mib();
        untraced.push(rep);
        let enough = if opts.trace {
            untraced.len() >= BASELINE_REPS
        } else {
            untraced.len() >= MIN_REPS && spent(t)
        };
        if opts.smoke || enough {
            break;
        }
    }
    let mut tracer = Tracer::new();
    let mut traced: Vec<Rep> = Vec::new();
    if opts.trace {
        loop {
            let t = Instant::now();
            tracer.set_rep(traced.len());
            traced.push(workload.rep(opts, full, Mode::Traced(&mut tracer)));
            if spent(t) {
                break;
            }
        }
    }
    let untraced = &untraced[..];

    // Identical work must give identical results, in every repetition.
    for group in [&warmups[..], untraced, &traced[..]] {
        if let Some(first) = group.first() {
            if group
                .iter()
                .any(|r| r.outputs != first.outputs || r.moved_bytes != first.moved_bytes)
            {
                problems.push("repetitions of the same work disagree".to_string());
            }
        }
    }
    if let (Some(u), Some(t)) = (untraced.first(), traced.first()) {
        // The traced flow re-enactment must compute what the workflow does.
        let flow = matches!(
            workload,
            Workload::GasLocalIntransit | Workload::AdvectShardedIntransit
        );
        if u.moved_bytes != t.moved_bytes || (flow && u.outputs != t.outputs) {
            problems.push("the traced run disagrees with the untraced one".to_string());
        }
    }
    for rep in warmups.iter().chain(untraced).chain(&traced) {
        problems.extend(rep.errors.iter().cloned());
        if rep.failed > 0 {
            problems.push(format!(
                "{} of {} operations failed",
                rep.failed, rep.attempted
            ));
        }
    }
    problems.dedup();
    let mut notes = Vec::new();

    let per_rep = |f: &dyn Fn(&Rep) -> f64| untraced.iter().map(f).collect::<Vec<f64>>();
    let walls = per_rep(&|r| r.wall_s);
    let metrics = if opts.trace {
        let path = opts
            .scratch_dir
            .join(format!("trace-{}-{}.jsonl", workload.name(), opts.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            problems.push(format!("cannot write {path:?}: {e}"));
        } else {
            notes.push(format!(
                "{} spans written to {}",
                tracer.spans.len(),
                path.display()
            ));
        }
        let metrics = layers::metrics(&tracer, &traced, untraced);
        // The spans must account for the time they claim to explain.
        if let Some((_, covered, _)) = metrics.iter().find(|m| m.0 == "trace.coverage_frac") {
            if !opts.smoke && *covered < 0.85 {
                problems.push(format!(
                    "spans cover only {covered:.3} of the traced wall time"
                ));
            }
        }
        metrics
    } else {
        let rss = per_rep(&|r| r.peak_rss_mib);
        notes.push(format!(
            "{} repetitions of {} steps each, {} set-up passes",
            untraced.len(),
            untraced.first().map_or(0, |r| r.step_ms.len()),
            setup_s.len()
        ));
        notes.push(format!("set-up pass s: {setup_s:.3?}"));
        notes.push(format!("repetition wall s: {walls:.3?}"));
        notes.push(format!("repetition peak RSS MiB: {rss:.1?}"));
        // Other tenants of a shared machine only ever add time, so of R
        // repetitions of identical work the fastest is the one that repeats
        // from run to run: every timing is taken per repetition and the
        // best repetition's is reported. Memory is not one-sided; its
        // per-repetition peaks are reduced by their median.
        let best = |f: &dyn Fn(&Rep) -> f64| per_rep(f).into_iter().fold(f64::INFINITY, f64::min);
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("time_to_solution_s", best(&|r| r.wall_s), "s"),
            ("step_ms_p50", best(&|r| median(&r.step_ms)), "ms"),
            ("cpu_core_s", best(&|r| r.cpu_s), "s"),
            (
                "data_moved_mib",
                mib(untraced.first().map_or(0, |r| r.moved_bytes)),
                "MiB",
            ),
            ("peak_rss_mib", median(&rss), "MiB"),
        ]
    };
    let measured = || untraced.iter().chain(&traced);
    Outcome {
        correct: problems.is_empty(),
        attempted: measured().map(|r| r.attempted).sum::<u64>().max(1),
        failed: measured().map(|r| r.failed).sum(),
        metrics,
        notes: problems
            .into_iter()
            .map(|p| format!("FAILED: {p}"))
            .chain(notes)
            .collect(),
    }
}
