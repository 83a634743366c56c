//! Validate a `bench_summary` output file against the pinned key schema.
//!
//! CI and `scripts/check.sh` run this over the committed
//! `BENCH_native_hotpath.json` (and over freshly generated summaries) so a
//! renamed, dropped, extra, or non-finite kernel measurement fails loudly.
//! The check itself is [`xlayer_bench::check_summary`].
//!
//! Usage: `cargo run -p xlayer-bench --bin bench_schema_check [summary.json]`

use xlayer_bench::{check_summary, EXPECTED_BENCH_KEYS, EXPECTED_DERIVED_KEYS};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_native_hotpath.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_schema_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };

    let errors = check_summary(&text);
    if errors.is_empty() {
        println!(
            "bench_schema_check: {path} OK ({} benches, {} derived)",
            EXPECTED_BENCH_KEYS.len(),
            EXPECTED_DERIVED_KEYS.len()
        );
    } else {
        for e in &errors {
            eprintln!("bench_schema_check: {path}: {e}");
        }
        std::process::exit(1);
    }
}
