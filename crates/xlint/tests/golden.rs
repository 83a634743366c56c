//! Golden tests over the fixture corpus: every rule class has a failing
//! "bad" fixture and a passing "good" fixture, waivers suppress exactly
//! one finding, reason-less waivers are errors, the CLI's exit codes are
//! stable, and the real workspace stays clean under the checked-in
//! config (the acceptance criterion CI enforces).

use std::path::{Path, PathBuf};
use xlint::crossfile::CrossReport;
use xlint::{scan_source, wire_schema, Baseline, Config, CrossFile, Report, Rule};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let p = fixture_dir().join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Scope exactly one rule class at the fixture corpus so each golden test
/// observes only its own rule's findings.
fn cfg_for(rule: Rule) -> Config {
    let scope = vec![PathBuf::from("fixtures")];
    let mut cfg = Config {
        predictor_fns: vec!["predict".to_string()],
        ..Config::default()
    };
    match rule {
        Rule::Determinism => {
            cfg.determinism_paths = scope.clone();
            cfg.kernel_modules = scope;
        }
        Rule::PanicFreedom => cfg.panic_freedom_paths = scope,
        Rule::FloatDiscipline => cfg.float_discipline_paths = scope,
        Rule::KernelFloors => cfg.kernel_floor_modules = scope,
        Rule::WaiverSyntax => cfg.determinism_paths = scope,
        Rule::LockDiscipline => {
            cfg.lock_paths = scope;
            cfg.guarded_by = vec![
                ("spilled_key_count".to_string(), "inner".to_string()),
                ("has_spilled".to_string(), "inner".to_string()),
            ];
        }
        Rule::Atomics => cfg.atomics_paths = scope,
        // Rule S runs over the wire module directly (see the s_* tests);
        // fixture-tree scans don't need a scope for it.
        Rule::WireSchema => {}
    }
    cfg
}

/// Run the cross-file passes (rules L and A) over a single fixture.
fn cross_scan(name: &str, cfg: &Config) -> CrossReport {
    let mut cf = CrossFile::new();
    cf.add_file(&fixture(name), &Path::new("fixtures").join(name), cfg);
    cf.finish(cfg)
}

fn scan(name: &str, cfg: &Config) -> Report {
    let mut report = Report::default();
    let rel = Path::new("fixtures").join(name);
    scan_source(&fixture(name), &rel, cfg, &mut report);
    report
}

#[test]
fn d_bad_flags_hashed_collections_and_clock() {
    let r = scan("d_bad.rs", &cfg_for(Rule::Determinism));
    assert!(!r.violations.is_empty());
    assert!(r.violations.iter().all(|v| v.rule == Rule::Determinism));
    for needle in ["HashMap", "HashSet", "Instant"] {
        assert!(
            r.violations.iter().any(|v| v.message.contains(needle)),
            "expected a finding mentioning {needle}"
        );
    }
}

#[test]
fn d_good_is_clean() {
    let r = scan("d_good.rs", &cfg_for(Rule::Determinism));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn p_bad_flags_unwrap_expect_panic_and_literal_index() {
    let r = scan("p_bad.rs", &cfg_for(Rule::PanicFreedom));
    assert!(r.violations.iter().all(|v| v.rule == Rule::PanicFreedom));
    for needle in ["unwrap", "expect", "panic!", "index"] {
        assert!(
            r.violations.iter().any(|v| v.message.contains(needle)),
            "expected a finding mentioning {needle}: {:?}",
            r.violations
        );
    }
    assert_eq!(r.violations.len(), 4);
}

#[test]
fn p_good_is_clean() {
    let r = scan("p_good.rs", &cfg_for(Rule::PanicFreedom));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn f_bad_flags_exact_float_comparison() {
    let r = scan("f_bad.rs", &cfg_for(Rule::FloatDiscipline));
    assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
    assert!(r.violations.iter().all(|v| v.rule == Rule::FloatDiscipline));
}

#[test]
fn f_good_bitwise_and_tolerance_are_clean() {
    let r = scan("f_good.rs", &cfg_for(Rule::FloatDiscipline));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn k_bad_predictor_without_marker_fails() {
    let r = scan("k_bad.rs", &cfg_for(Rule::KernelFloors));
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    assert_eq!(r.violations[0].rule, Rule::KernelFloors);
    assert_eq!(r.markers, 0);
}

#[test]
fn k_good_marker_attests_the_predictor() {
    let r = scan("k_good.rs", &cfg_for(Rule::KernelFloors));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.markers, 1);
}

#[test]
fn l_bad_flags_cycle_held_io_and_late_probe() {
    let r = cross_scan("l_bad.rs", &cfg_for(Rule::LockDiscipline));
    assert!(r.violations.iter().all(|v| v.rule == Rule::LockDiscipline));
    assert!(
        r.violations.iter().any(|v| v.message.contains("cycle")),
        "{:?}",
        r.violations
    );
    assert!(r
        .violations
        .iter()
        .any(|v| v.message.contains("blocking I/O")));
    assert!(r
        .violations
        .iter()
        .any(|v| v.message.contains("has_spilled")));
}

#[test]
fn l_good_is_clean() {
    let r = cross_scan("l_good.rs", &cfg_for(Rule::LockDiscipline));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn l_waiver_suppresses_exactly_one_hold() {
    let r = cross_scan("l_waiver.rs", &cfg_for(Rule::LockDiscipline));
    assert_eq!(r.waived.len(), 1, "waived: {:?}", r.waived);
    assert_eq!(r.violations.len(), 1, "violations: {:?}", r.violations);
    assert!(r.violations[0].line > r.waived[0].line);
}

/// Reverting the PR 8 `get()` race fix — probing the tier's spilled state
/// before taking the store lock — must re-trigger rule L.
#[test]
fn l_regression_pre_fix_get_shape_fails() {
    let r = cross_scan("l_regression_get.rs", &cfg_for(Rule::LockDiscipline));
    assert!(
        r.violations
            .iter()
            .any(|v| v.message.contains("re-check-after-release")),
        "{:?}",
        r.violations
    );
}

/// Disk-tier calls under the store guard are findings: `tier.spill`
/// (which appends to the log), `tier.take` and `tier.clear`, one per
/// guard; `Vec::clear`, `Vec::append` and `Option::take` under a guard
/// are not.
#[test]
fn l_tier_calls_under_the_store_guard_are_findings() {
    let r = cross_scan("l_tier_calls.rs", &cfg_for(Rule::LockDiscipline));
    let found: Vec<(u32, &str)> = r
        .violations
        .iter()
        .map(|v| (v.line, v.message.as_str()))
        .collect();
    assert_eq!(found.len(), 3, "{found:?}");
    for (line, callee) in [(57, "`spill`"), (62, "`take`"), (67, "`clear`")] {
        assert!(
            found.iter().any(|(l, m)| *l == line && m.contains(callee)),
            "no finding at line {line} for {callee}: {found:?}"
        );
    }
}

#[test]
fn a_bad_flags_mixed_ordering_and_unfused_rmw() {
    let r = cross_scan("a_bad.rs", &cfg_for(Rule::Atomics));
    assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
    assert!(r.violations.iter().all(|v| v.rule == Rule::Atomics));
    assert!(r.violations.iter().any(|v| v.message.contains("fetch_")));
    assert!(r.violations.iter().any(|v| v.message.contains("SeqCst")));
}

#[test]
fn a_good_is_clean() {
    let r = cross_scan("a_good.rs", &cfg_for(Rule::Atomics));
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

// --- rule S: the real wire module against the committed pin ------------

fn wire_source() -> String {
    std::fs::read_to_string(workspace_root().join("crates/net/src/wire.rs")).unwrap()
}

fn committed_pin() -> Vec<String> {
    wire_schema::parse_pin(&std::fs::read_to_string(workspace_root().join("xlint.wire")).unwrap())
}

#[test]
fn s_wire_fingerprint_matches_committed_pin() {
    let ws = wire_schema::extract(&wire_source());
    assert_eq!(wire_schema::compare(&ws, &committed_pin()), None);
}

/// Mutating a `StatsOk` body field without bumping `VERSION` must fail
/// the scan, and the message must say so — the acceptance criterion.
#[test]
fn s_field_mutation_without_version_bump_fails() {
    let mutated = wire_source().replace("pub tier_disk_hits: u64", "pub tier_hits_disk: u64");
    let ws = wire_schema::extract(&mutated);
    let (rule, _, message) = wire_schema::compare(&ws, &committed_pin()).expect("must drift");
    assert_eq!(rule, Rule::WireSchema);
    assert!(message.contains("without a VERSION bump"), "{message}");
}

#[test]
fn s_error_code_renumber_without_version_bump_fails() {
    let mutated = wire_source().replace(
        "ErrorFrame::ShuttingDown => 4,",
        "ErrorFrame::ShuttingDown => 6,",
    );
    let ws = wire_schema::extract(&mutated);
    let (_, _, message) = wire_schema::compare(&ws, &committed_pin()).expect("must drift");
    assert!(message.contains("without a VERSION bump"), "{message}");
}

/// The same layout change *with* a bump still drifts (the pin is stale),
/// but the message flips to "regenerate the pin".
#[test]
fn s_version_bump_asks_for_pin_regeneration() {
    let mutated = wire_source()
        .replace("pub tier_disk_hits: u64", "pub tier_hits_disk: u64")
        .replace("pub const VERSION: u16 = 3;", "pub const VERSION: u16 = 4;");
    let ws = wire_schema::extract(&mutated);
    let (_, _, message) = wire_schema::compare(&ws, &committed_pin()).expect("must drift");
    assert!(message.contains("--write-wire-pin"), "{message}");
}

#[test]
fn waiver_suppresses_exactly_one_finding() {
    let r = scan("waiver_one.rs", &cfg_for(Rule::Determinism));
    assert_eq!(r.waived.len(), 1, "waived: {:?}", r.waived);
    assert_eq!(r.violations.len(), 1, "violations: {:?}", r.violations);
    assert!(r.violations[0].line > r.waived[0].line);
}

#[test]
fn reasonless_waiver_is_an_error_and_does_not_waive() {
    let r = scan("waiver_noreason.rs", &cfg_for(Rule::Determinism));
    assert!(
        r.violations.iter().any(|v| v.rule == Rule::WaiverSyntax),
        "{:?}",
        r.violations
    );
    // The malformed waiver must not suppress the HashMap finding below it.
    assert!(r.violations.iter().any(|v| v.rule == Rule::Determinism));
    assert!(r.waived.is_empty());
}

// --- acceptance regressions over real workspace sources ---------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn workspace_config() -> Config {
    let text = std::fs::read_to_string(workspace_root().join("xlint.toml")).unwrap();
    Config::parse(&text).unwrap()
}

/// The checked-in config over the real tree: zero unwaived violations.
/// This is the same gate `scripts/check.sh` and CI run.
#[test]
fn workspace_self_scan_is_clean() {
    let root = workspace_root();
    let cfg = workspace_config();
    let baseline = match &cfg.baseline {
        Some(p) => Baseline::parse(&std::fs::read_to_string(root.join(p)).unwrap()).unwrap(),
        None => Baseline::default(),
    };
    let report = xlint::run(&root, &cfg, &baseline).unwrap();
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "unwaived violations:\n{}",
        rendered.join("\n")
    );
    assert!(report.markers >= 2, "euler.rs floor markers missing");
}

/// Deleting a `floors-applied` marker from the Euler predictors must make
/// the scan fail (K), and reintroducing a HashMap into the welded-mesh
/// path must make it fail (D) — the two incidents this linter encodes.
#[test]
fn stripped_marker_and_rehashed_mesh_fail() {
    let root = workspace_root();
    let cfg = workspace_config();

    let euler = std::fs::read_to_string(root.join("crates/solvers/src/euler.rs")).unwrap();
    let stripped: String = euler
        .lines()
        .filter(|l| !l.contains("xlint: floors-applied"))
        .map(|l| format!("{l}\n"))
        .collect();
    let mut r = Report::default();
    scan_source(
        &stripped,
        Path::new("crates/solvers/src/euler.rs"),
        &cfg,
        &mut r,
    );
    assert!(
        r.violations.iter().any(|v| v.rule == Rule::KernelFloors),
        "deleting markers should fail rule K"
    );

    let mesh = std::fs::read_to_string(root.join("crates/viz/src/mesh.rs")).unwrap();
    let rehashed = mesh.replace("BTreeMap", "HashMap");
    let mut r = Report::default();
    scan_source(&rehashed, Path::new("crates/viz/src/mesh.rs"), &cfg, &mut r);
    assert!(
        r.violations.iter().any(|v| v.rule == Rule::Determinism),
        "reverting the BTreeMap weld fix should fail rule D"
    );
}

// --- CLI exit codes ----------------------------------------------------

fn run_cli(tree: &str) -> std::process::ExitStatus {
    std::process::Command::new(env!("CARGO_BIN_EXE_xlint"))
        .arg("--root")
        .arg(fixture_dir().join(tree))
        .status()
        .unwrap()
}

#[test]
fn exit_codes_distinguish_clean_violation_and_internal_error() {
    assert_eq!(run_cli("tree_good").code(), Some(0));
    assert_eq!(run_cli("tree_bad").code(), Some(1));
    assert_eq!(run_cli("tree_badcfg").code(), Some(2));
}

fn run_cli_args(tree: &str, args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_xlint"))
        .arg("--root")
        .arg(fixture_dir().join(tree))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn check_wire_pin_distinguishes_match_and_drift() {
    let ok = run_cli_args("tree_wire", &["--check-wire-pin"]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    let drift = run_cli_args("tree_wire_drift", &["--check-wire-pin"]);
    assert_eq!(drift.status.code(), Some(1));
    let text = String::from_utf8(drift.stdout).unwrap();
    assert!(text.contains("[S]"), "{text}");
    assert!(text.contains("src/wire.rs"), "{text}");
}

/// The `--waivers` audit lists every inline waiver as `file:line: [RULES]
/// reason` — pinned verbatim so the output stays machine-greppable.
#[test]
fn waivers_audit_output_is_pinned() {
    let out = run_cli_args("tree_waivers", &["--waivers"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        text,
        "src/lib.rs:1: [D] counts only, never iterated\n\
         src/lib.rs:5: [D] length query, order-free\n\
         xlint: 2 inline waivers\n"
    );
}

#[test]
fn json_format_emits_machine_readable_violations() {
    let out = run_cli_args("tree_bad", &["--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("{\"violations\":["), "{text}");
    assert!(text.contains("\"rule\":\"D\""), "{text}");
    assert!(text.contains("\"file\":"), "{text}");
    assert!(text.contains("\"line\":"), "{text}");
    // Exactly one line of output: a single JSON object.
    assert_eq!(text.lines().count(), 1, "{text}");

    let waivers = run_cli_args("tree_waivers", &["--waivers", "--format", "json"]);
    let text = String::from_utf8(waivers.stdout).unwrap();
    assert!(text.starts_with("{\"waivers\":["), "{text}");
    assert!(
        text.contains("\"reason\":\"counts only, never iterated\""),
        "{text}"
    );
}
