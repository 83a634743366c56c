//! `xmark` — the repository's end-to-end benchmark.
//!
//! `xmark --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in one process, checks its outputs, and prints the metrics by
//! name with their units; the last line of standard output is one JSON
//! object. `--trace 1` makes the separate traced run that yields the
//! per-layer metrics and writes its spans as JSON lines. `--smoke` runs
//! every workload at tiny size. See `README.md` beside this package.

mod flow;
mod inputs;
mod layers;
mod measure;
mod run;
mod stage;
mod trace;

use run::{Options, Outcome, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: xmark --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--scratch-dir <dir>]\n       xmark --smoke [--seed <u64>] [--trace <0|1>]\n\
workloads: gas_local_intransit advect_sharded_intransit stage_mixed_rw tier_churn_4x";

fn parse_args() -> Result<(Option<Workload>, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        scratch_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scratch"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(bad)?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scratch-dir" => opts.scratch_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if workload.is_none() && !opts.smoke {
        return Err("--workload or --smoke is required".to_string());
    }
    Ok((workload, opts))
}

/// The metrics by name for the reader, then the result line.
fn print(workload: Workload, out: &Outcome) {
    println!("# {}", workload.name());
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a ratio over nothing reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> std::process::ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("xmark: {e}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch_dir) {
        eprintln!("xmark: cannot create {:?}: {e}", opts.scratch_dir);
        return std::process::ExitCode::from(2);
    }
    let workloads = match workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    for w in workloads {
        let out = run::run(w, &opts);
        print(w, &out);
        all_correct &= out.correct;
    }
    if all_correct {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::from(1)
    }
}
