//! Cross-file analysis: lock discipline (rule L) and atomics discipline
//! (rule A).
//!
//! Unlike the per-file passes in `rules.rs`, these rules need facts from
//! every file before they can judge any one of them: a lock-order cycle
//! is two functions in two files each acquiring the other's lock second,
//! and an atomic field's ordering discipline is defined by all of its
//! use sites together. The [`CrossFile`] accumulator collects per-function
//! facts file by file (`add_file`), then `finish` runs the whole-program
//! passes.
//!
//! The function model is a token-level approximation, not a real CFG:
//!
//! - A *lock acquisition* is `.lock()`, `.read()`, or `.write()` with an
//!   **empty** argument list; the lock's identity is the receiver field
//!   name (`self.inner.read()` acquires `inner`). Non-empty parens
//!   (`file.read(buf)`) are ordinary calls, which disambiguates
//!   `RwLock::read()` from `io::Read::read(buf)`.
//! - A `let`-bound guard lives until its block closes or `drop(var)`;
//!   any other acquisition is a statement-temporary that dies at the
//!   next `;` or block open. (A `match` scrutinee temporary really
//!   lives to the end of the match — a known false-negative.)
//! - Call edges are by *name only*: same-named functions merge. A
//!   stoplist drops ubiquitous std method names (`get`, `take`, ...)
//!   that would otherwise conflate container calls with service
//!   functions; the cost is false negatives through those names. A call
//!   through a [`TYPED_RECEIVERS`] name (`tier.take(k)`,
//!   `self.log.append(o)`) keeps its edge whatever the method's name.
//!
//! DESIGN.md §6 documents these limits.

use crate::config::Config;
use crate::lexer::{lex, TokKind};
use crate::rules::{FileAnalysis, Rule, Waiver};
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Guard-producing methods when called with no arguments.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Identifiers that mean blocking file/socket I/O when they appear in a
/// function body. Bare `read`/`write` are deliberately absent (they are
/// the lock methods); `write_all`/`read_exact`/... carry the signal.
const IO_PRIMITIVES: &[&str] = &[
    "File",
    "OpenOptions",
    "TcpStream",
    "TcpListener",
    "accept",
    "connect",
    "connect_timeout",
    "sync_all",
    "sync_data",
    "write_all",
    "write_vectored",
    "read_exact",
    "read_vectored",
    "read_to_end",
    "read_to_string",
    "flush",
    "set_len",
    "seek",
    "rename",
    "remove_file",
    "create_dir_all",
];

/// Atomic methods. An occurrence only counts as an atomic op when an
/// `Ordering::X` argument is found inside the call parens — that is what
/// separates `AtomicU64::swap` from `slice::swap`.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Keywords and constructors that are never call edges.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "mut",
    "ref", "move", "as", "in", "fn", "pub", "unsafe", "impl", "struct", "enum", "trait", "where",
    "use", "mod", "const", "static", "type", "dyn", "crate", "super", "self", "Self", "Some",
    "None", "Ok", "Err", "Box", "Arc", "Rc", "Vec", "String", "Option", "Result", "drop",
];

/// Ubiquitous std method names excluded from the call graph: with
/// name-only merging, `map.get(k)` would otherwise inherit the lock and
/// I/O facts of every service function named `get`. Excluding them
/// trades false negatives through these names for a signal-heavy graph.
const CALL_STOPLIST: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "push",
    "pop",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "entry",
    "or_insert",
    "or_insert_with",
    "or_default",
    "extend",
    "drain",
    "retain",
    "first",
    "last",
    "append",
    "split_off",
    "clone",
    "to_vec",
    "to_string",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "as_bytes",
    "into",
    "from",
    "new",
    "default",
    "cmp",
    "min",
    "max",
    "take",
    "replace",
    "swap",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "filter",
    "find",
    "any",
    "all",
    "fold",
    "sum",
    "count",
    "collect",
    "into_iter",
    "next",
    "rev",
    "zip",
    "chain",
    "enumerate",
    "copied",
    "cloned",
    "ok",
    "err",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_mul",
    "checked_add",
    "checked_sub",
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "starts_with",
    "ends_with",
    "trim",
    "split",
    "split_once",
    "parse",
    "push_str",
    "join",
    "with_capacity",
    "reserve",
    "truncate",
    "resize",
    "sort",
    "sort_by",
    "sort_by_key",
    "position",
    "windows",
    "chunks",
    "unwrap",
    "expect",
    "into_inner",
];

/// Receiver names that always hold a workspace type — a staging store's
/// disk `tier` and the tier's `log` — so a call through one is a call edge
/// even when its method name is on [`CALL_STOPLIST`]: `tier.take(k)` is
/// the disk tier's, not `Option::take`, and reaches its file I/O.
const TYPED_RECEIVERS: &[&str] = &["tier", "log"];

/// Guard adapters: chained onto an acquisition they still yield the
/// guard (`.lock().unwrap()` on a poisoned-capable `std::sync` mutex),
/// so the binding after them is a real guard binding.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// A lock currently held, with the line its guard was acquired on (the
/// line a waiver must sit on to suppress held-across findings).
#[derive(Clone, Debug)]
struct HeldLock {
    lock: String,
    acq_line: u32,
}

/// A live guard during body simulation.
struct Guard {
    /// `Some(name)` for `let`-bound guards, `None` for temporaries.
    var: Option<String>,
    lock: String,
    acq_line: u32,
    /// Brace depth the guard was created at; it dies when the simulation
    /// leaves that depth.
    depth: usize,
}

/// A lock acquisition site with the locks already held at that point.
#[derive(Clone, Debug)]
struct AcqSite {
    lock: String,
    line: u32,
    held: Vec<HeldLock>,
}

/// A call site with the locks held across it.
#[derive(Clone, Debug)]
struct CallSite {
    callee: String,
    line: u32,
    held: Vec<HeldLock>,
}

/// A blocking-I/O primitive used while at least one lock is held.
#[derive(Clone, Debug)]
struct IoSite {
    what: String,
    line: u32,
    held: Vec<HeldLock>,
}

/// One atomic operation (only recorded when an `Ordering::X` argument
/// identifies it as genuinely atomic).
#[derive(Clone, Debug)]
struct AtomicOp {
    field: String,
    method: String,
    ordering: String,
    line: u32,
    /// Token index within the function, for load-then-store sequencing.
    idx: usize,
    /// True if any lock guard was live at this site (a lock-protected
    /// load-then-store is serialized and not flagged).
    locked: bool,
}

/// Facts extracted from one function body.
struct FnFacts {
    name: String,
    file: PathBuf,
    acquires: Vec<AcqSite>,
    calls: Vec<CallSite>,
    io_sites: Vec<IoSite>,
    atomics: Vec<AtomicOp>,
    direct_io: bool,
    lock_scope: bool,
    atomics_scope: bool,
}

/// Result of the cross-file passes, already partitioned by inline
/// waivers (the caller merges these into its [`crate::Report`]).
#[derive(Debug, Default)]
pub struct CrossReport {
    pub violations: Vec<Violation>,
    pub waived: Vec<Violation>,
}

/// Accumulates per-function facts across files, then runs the L and A
/// passes over the merged call graph.
#[derive(Default)]
pub struct CrossFile {
    fns: Vec<FnFacts>,
    waivers: BTreeMap<PathBuf, Vec<Waiver>>,
}

impl CrossFile {
    pub fn new() -> CrossFile {
        CrossFile::default()
    }

    /// Extract facts from one file if it falls in the L or A scope.
    pub fn add_file(&mut self, src: &str, rel: &Path, cfg: &Config) {
        let lock_scope = Config::in_scope(rel, &cfg.lock_paths);
        let atomics_scope = Config::in_scope(rel, &cfg.atomics_paths);
        if !lock_scope && !atomics_scope {
            return;
        }
        let a = FileAnalysis::new(lex(src));
        self.waivers.insert(rel.to_path_buf(), a.waivers.clone());
        let mut i = 0;
        while i < a.code.len() {
            let t = &a.code[i];
            if t.kind == TokKind::Ident
                && t.text == "fn"
                && !a.test.get(i).copied().unwrap_or(false)
            {
                if let Some(name) = a.code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if let Some((open, close)) = a.body_span(i + 2) {
                        self.fns.push(extract_fn(
                            &a,
                            name.text.clone(),
                            rel,
                            open,
                            close,
                            lock_scope,
                            atomics_scope,
                        ));
                        // Continue *inside* the body so nested fns are
                        // found too (extract_fn skips over them itself).
                        i = open + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }

    /// Run the cross-file passes and partition findings by the inline
    /// waivers collected from each file.
    pub fn finish(&self, cfg: &Config) -> CrossReport {
        let mut findings: Vec<(PathBuf, Rule, u32, String)> = Vec::new();

        // Merge functions by name (the call-edge approximation).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }

        // Fixpoint: does this function (transitively) perform blocking I/O?
        let mut does_io: Vec<bool> = self.fns.iter().map(|f| f.direct_io).collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if does_io[i] {
                    continue;
                }
                let reaches_io = self.fns[i].calls.iter().any(|c| {
                    by_name
                        .get(c.callee.as_str())
                        .is_some_and(|v| v.iter().any(|&k| does_io[k]))
                });
                if reaches_io {
                    does_io[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Fixpoint: which locks can a call into this function acquire?
        let mut locks_reach: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| f.acquires.iter().map(|a| a.lock.clone()).collect())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for c in &self.fns[i].calls {
                    if let Some(v) = by_name.get(c.callee.as_str()) {
                        for &k in v {
                            for l in &locks_reach[k] {
                                if !locks_reach[i].contains(l) {
                                    add.insert(l.clone());
                                }
                            }
                        }
                    }
                }
                if !add.is_empty() {
                    locks_reach[i].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let callee_does_io = |callee: &str| {
            by_name
                .get(callee)
                .is_some_and(|v| v.iter().any(|&k| does_io[k]))
        };

        // --- L(a): acquisition-order cycles --------------------------
        // Edge (a, b): lock b is acquired (directly or through a call)
        // while a is held. First site wins for attribution.
        let mut edges: BTreeMap<(String, String), (PathBuf, u32, String)> = BTreeMap::new();
        for f in self.fns.iter().filter(|f| f.lock_scope) {
            for acq in &f.acquires {
                for h in &acq.held {
                    if h.lock == acq.lock {
                        // Direct re-acquisition of a held lock: an
                        // immediate self-deadlock, reported as its own
                        // finding rather than a cycle edge.
                        findings.push((
                            f.file.clone(),
                            Rule::LockDiscipline,
                            acq.line,
                            format!(
                                "`{}` is re-acquired while already held (guard from line {}); \
                                 parking_lot locks are not reentrant — this deadlocks",
                                acq.lock, h.acq_line
                            ),
                        ));
                    } else {
                        edges.entry((h.lock.clone(), acq.lock.clone())).or_insert((
                            f.file.clone(),
                            acq.line,
                            format!("`{}` acquired directly", acq.lock),
                        ));
                    }
                }
            }
            for c in &f.calls {
                if c.held.is_empty() {
                    continue;
                }
                if let Some(v) = by_name.get(c.callee.as_str()) {
                    let mut reach: BTreeSet<&String> = BTreeSet::new();
                    for &k in v {
                        reach.extend(locks_reach[k].iter());
                    }
                    for l in reach {
                        for h in &c.held {
                            // Same-name self edges through calls are
                            // suppressed: with name-only lock identity
                            // they are usually two different structs'
                            // `inner` fields, not reentrancy.
                            if h.lock != *l {
                                edges.entry((h.lock.clone(), l.clone())).or_insert((
                                    f.file.clone(),
                                    c.line,
                                    format!("`{}` acquired via call to `{}`", l, c.callee),
                                ));
                            }
                        }
                    }
                }
            }
        }
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            adj.entry(a.as_str()).or_default().insert(b.as_str());
        }
        let reaches = |from: &str, to: &str| -> bool {
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if !seen.insert(n) {
                    continue;
                }
                if n == to {
                    return true;
                }
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
            false
        };
        for ((a, b), (file, line, via)) in &edges {
            if reaches(b, a) {
                findings.push((
                    file.clone(),
                    Rule::LockDiscipline,
                    *line,
                    format!(
                        "acquiring `{b}` while holding `{a}` ({via}) completes a lock-order \
                         cycle — `{a}` is also acquired while `{b}` is held elsewhere; \
                         potential deadlock"
                    ),
                ));
            }
        }

        // --- L(b): guard held across blocking I/O --------------------
        // One finding per guard-acquisition line (the waiver site), no
        // matter how many I/O sites the guard covers.
        let mut guard_findings: BTreeMap<(PathBuf, u32), String> = BTreeMap::new();
        for f in self.fns.iter().filter(|f| f.lock_scope) {
            for io in &f.io_sites {
                if let Some(g) = io.held.last() {
                    guard_findings
                        .entry((f.file.clone(), g.acq_line))
                        .or_insert_with(|| {
                            format!(
                                "guard on `{}` (acquired here) is held across blocking I/O \
                                 (`{}` at line {})",
                                g.lock, io.what, io.line
                            )
                        });
                }
            }
            for c in &f.calls {
                if c.held.is_empty() || !callee_does_io(&c.callee) {
                    continue;
                }
                if let Some(g) = c.held.last() {
                    guard_findings
                        .entry((f.file.clone(), g.acq_line))
                        .or_insert_with(|| {
                            format!(
                                "guard on `{}` (acquired here) is held across a call to \
                                 `{}` (line {}), which reaches blocking I/O",
                                g.lock, c.callee, c.line
                            )
                        });
                }
            }
        }
        for ((file, line), msg) in guard_findings {
            findings.push((file, Rule::LockDiscipline, line, msg));
        }

        // --- L(c): re-check-after-release (TOCTOU) -------------------
        // For each configured `probe=lock` pair: in any function that
        // acquires `lock` itself, every call to `probe` must happen
        // under a live guard of `lock`.
        for (probe, lock) in &cfg.guarded_by {
            for f in self.fns.iter().filter(|f| f.lock_scope) {
                if !f.acquires.iter().any(|a| &a.lock == lock) {
                    continue;
                }
                for c in f.calls.iter().filter(|c| &c.callee == probe) {
                    if !c.held.iter().any(|h| &h.lock == lock) {
                        findings.push((
                            f.file.clone(),
                            Rule::LockDiscipline,
                            c.line,
                            format!(
                                "`{probe}()` is guarded by `{lock}` but probed outside the \
                                 guard here; the answer can change before it is acted on \
                                 (re-check-after-release race)"
                            ),
                        ));
                    }
                }
            }
        }

        // --- A: ordering-class consistency ---------------------------
        // Classes: {Relaxed} / {Acquire, Release, AcqRel} / {SeqCst}.
        // Mixing sites *within* a class is fine (Release-store paired
        // with Acquire-load); mixing across classes is not.
        let mut per_field: BTreeMap<&str, Vec<(&FnFacts, &AtomicOp, u8)>> = BTreeMap::new();
        for f in self.fns.iter().filter(|f| f.atomics_scope) {
            for op in &f.atomics {
                if let Some(class) = ordering_class(&op.ordering) {
                    per_field.entry(&op.field).or_default().push((f, op, class));
                }
            }
        }
        for (field, ops) in &per_field {
            let mut counts = [0usize; 3];
            for (_, _, c) in ops {
                counts[*c as usize] += 1;
            }
            if counts.iter().filter(|&&n| n > 0).count() < 2 {
                continue;
            }
            // Majority class wins; ties break toward the weaker class.
            let majority = (0u8..3)
                .max_by_key(|&c| (counts[c as usize], std::cmp::Reverse(c)))
                .unwrap_or(0);
            for (f, op, class) in ops {
                if *class != majority {
                    findings.push((
                        f.file.clone(),
                        Rule::Atomics,
                        op.line,
                        format!(
                            "atomic `{field}` uses Ordering::{} here but {} other site(s) \
                             use the {} class; keep one ordering class per atomic field",
                            op.ordering,
                            counts[majority as usize],
                            class_name(majority)
                        ),
                    ));
                }
            }
        }

        // --- A: load-then-store must be a fetch_* RMW ----------------
        for f in self.fns.iter().filter(|f| f.atomics_scope) {
            let mut flagged: BTreeSet<&str> = BTreeSet::new();
            for st in f
                .atomics
                .iter()
                .filter(|o| o.method == "store" && !o.locked)
            {
                if flagged.contains(st.field.as_str()) {
                    continue;
                }
                let loaded_before = f
                    .atomics
                    .iter()
                    .any(|o| o.method == "load" && o.field == st.field && o.idx < st.idx);
                if loaded_before {
                    flagged.insert(&st.field);
                    findings.push((
                        f.file.clone(),
                        Rule::Atomics,
                        st.line,
                        format!(
                            "load-then-store on atomic `{}`: a concurrent update between \
                             the load and this store is lost; use a fetch_* RMW",
                            st.field
                        ),
                    ));
                }
            }
        }

        // Partition by inline waivers and sort for stable output.
        let mut report = CrossReport::default();
        findings.sort_by(|a, b| (&a.0, a.2, a.1).cmp(&(&b.0, b.2, b.1)));
        findings.dedup();
        for (file, rule, line, message) in findings {
            let waived = self.waivers.get(&file).is_some_and(|ws| {
                ws.iter()
                    .any(|w| w.rules.contains(&rule) && (w.line == line || w.line + 1 == line))
            });
            let v = Violation {
                rule,
                file,
                line,
                message,
            };
            if waived {
                report.waived.push(v);
            } else {
                report.violations.push(v);
            }
        }
        report
    }
}

fn ordering_class(ordering: &str) -> Option<u8> {
    match ordering {
        "Relaxed" => Some(0),
        "Acquire" | "Release" | "AcqRel" => Some(1),
        "SeqCst" => Some(2),
        _ => None,
    }
}

fn class_name(class: u8) -> &'static str {
    match class {
        0 => "Relaxed",
        1 => "Acquire/Release",
        _ => "SeqCst",
    }
}

/// Simulate one function body: track guard liveness and record
/// acquisitions, calls, I/O sites, and atomic ops with the locks held
/// at each point.
fn extract_fn(
    a: &FileAnalysis,
    name: String,
    file: &Path,
    open: usize,
    close: usize,
    lock_scope: bool,
    atomics_scope: bool,
) -> FnFacts {
    let mut f = FnFacts {
        name,
        file: file.to_path_buf(),
        acquires: Vec::new(),
        calls: Vec::new(),
        io_sites: Vec::new(),
        atomics: Vec::new(),
        direct_io: false,
        lock_scope,
        atomics_scope,
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 1usize;
    let mut stmt_let: Option<String> = None;
    let held = |guards: &[Guard]| -> Vec<HeldLock> {
        guards
            .iter()
            .map(|g| HeldLock {
                lock: g.lock.clone(),
                acq_line: g.acq_line,
            })
            .collect()
    };
    let mut j = open + 1;
    while j < close {
        let t = &a.code[j];
        let next = a.code.get(j + 1);
        let prev = j.checked_sub(1).map(|p| &a.code[p]);
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    depth += 1;
                    // Statement temporaries die before a block opens
                    // (condition temporaries are dropped at the brace).
                    guards.retain(|g| g.var.is_some());
                    stmt_let = None;
                }
                "}" => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                ";" => {
                    guards.retain(|g| g.var.is_some());
                    stmt_let = None;
                }
                _ => {}
            },
            TokKind::Ident => {
                let text = t.text.as_str();
                let next_is =
                    |s: &str| next.is_some_and(|n| n.kind == TokKind::Punct && n.text == s);
                let prev_is =
                    |s: &str| prev.is_some_and(|p| p.kind == TokKind::Punct && p.text == s);
                if text == "fn" {
                    // Nested fn item: extract separately (via add_file's
                    // outer loop), keep its tokens out of this body.
                    if let Some((_, nclose)) = a.body_span(j + 2) {
                        j = nclose + 1;
                        continue;
                    }
                } else if text == "let" {
                    let name_at = if a
                        .code
                        .get(j + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && n.text == "mut")
                    {
                        j + 2
                    } else {
                        j + 1
                    };
                    // Only a plain `let NAME = ...` / `let NAME: T = ...`
                    // names a guard. A destructuring pattern — `if let
                    // Some(g) = m.lock()` — would otherwise bind the
                    // scrutinee guard to the *enum constructor* name and
                    // keep it alive to function end; treat those as
                    // temporaries instead (dropped at the brace — an
                    // under-approximation of Rust's end-of-if-let scope,
                    // noted in DESIGN.md §6).
                    stmt_let = a
                        .code
                        .get(name_at)
                        .filter(|n| n.kind == TokKind::Ident)
                        .filter(|_| {
                            a.code.get(name_at + 1).is_some_and(|n| {
                                n.kind == TokKind::Punct && (n.text == "=" || n.text == ":")
                            })
                        })
                        .map(|n| n.text.clone());
                } else if text == "drop" && next_is("(") {
                    if let (Some(v), Some(cl)) = (a.code.get(j + 2), a.code.get(j + 3)) {
                        if v.kind == TokKind::Ident && cl.kind == TokKind::Punct && cl.text == ")" {
                            guards.retain(|g| g.var.as_deref() != Some(v.text.as_str()));
                        }
                    }
                } else if LOCK_METHODS.contains(&text)
                    && prev_is(".")
                    && next_is("(")
                    && a.code
                        .get(j + 2)
                        .is_some_and(|n| n.kind == TokKind::Punct && n.text == ")")
                {
                    // `.lock()` / `.read()` / `.write()` with empty parens:
                    // a guard acquisition on the receiver field.
                    if let Some(recv) = j
                        .checked_sub(2)
                        .and_then(|p| a.code.get(p))
                        .filter(|r| r.kind == TokKind::Ident && r.text != "self")
                    {
                        f.acquires.push(AcqSite {
                            lock: recv.text.clone(),
                            line: t.line,
                            held: held(&guards),
                        });
                        // A guard is `let`-bound only when the acquisition
                        // (possibly through guard adapters and `?`) ends
                        // the initializer. `let out = m.lock().get(k)` binds
                        // `out` to the *result*, not the guard — that guard
                        // is a statement temporary dying at the `;`, and
                        // treating it as bound is exactly how a re-check-
                        // after-release probe hides from the analysis.
                        let var = if acquisition_ends_statement(a, j + 3, close) {
                            stmt_let.take()
                        } else {
                            stmt_let = None;
                            None
                        };
                        guards.push(Guard {
                            var,
                            lock: recv.text.clone(),
                            acq_line: t.line,
                            depth,
                        });
                    }
                    j += 3;
                    continue;
                } else if ATOMIC_METHODS.contains(&text) && prev_is(".") && next_is("(") {
                    if let Some(ordering) = ordering_in_parens(a, j + 1, close) {
                        if let Some(field) = j
                            .checked_sub(2)
                            .and_then(|p| a.code.get(p))
                            .filter(|r| r.kind == TokKind::Ident && r.text != "self")
                        {
                            f.atomics.push(AtomicOp {
                                field: field.text.clone(),
                                method: text.to_string(),
                                ordering,
                                line: t.line,
                                idx: j,
                                locked: !guards.is_empty(),
                            });
                        }
                    }
                } else if IO_PRIMITIVES.contains(&text) {
                    f.direct_io = true;
                    if !guards.is_empty() {
                        f.io_sites.push(IoSite {
                            what: text.to_string(),
                            line: t.line,
                            held: held(&guards),
                        });
                    }
                } else if next_is("(")
                    && !KEYWORDS.contains(&text)
                    && (!CALL_STOPLIST.contains(&text) || on_typed_receiver(a, j))
                {
                    f.calls.push(CallSite {
                        callee: text.to_string(),
                        line: t.line,
                        held: held(&guards),
                    });
                }
            }
            _ => {}
        }
        j += 1;
    }
    f
}

/// True when the call named at `j` is `recv.name(` with `recv` one of
/// [`TYPED_RECEIVERS`].
fn on_typed_receiver(a: &FileAnalysis, j: usize) -> bool {
    let tok = |back: usize| j.checked_sub(back).and_then(|p| a.code.get(p));
    tok(1).is_some_and(|t| t.kind == TokKind::Punct && t.text == ".")
        && tok(2)
            .is_some_and(|r| r.kind == TokKind::Ident && TYPED_RECEIVERS.contains(&r.text.as_str()))
}

/// True when the token stream at `from` (just past an acquisition's
/// closing paren) reaches the statement-ending `;` through nothing but
/// `?` and guard adapters — i.e. the enclosing `let` binds the guard
/// itself rather than some value derived through it.
fn acquisition_ends_statement(a: &FileAnalysis, from: usize, limit: usize) -> bool {
    let mut j = from;
    while j < limit {
        let t = &a.code[j];
        if t.kind == TokKind::Punct && t.text == ";" {
            return true;
        }
        if t.kind == TokKind::Punct && t.text == "?" {
            j += 1;
            continue;
        }
        // `.adapter( … )` — skip the balanced argument group.
        if t.kind == TokKind::Punct && t.text == "." {
            let is_adapter = a.code.get(j + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && GUARD_ADAPTERS.contains(&n.text.as_str())
            });
            let opens = a
                .code
                .get(j + 2)
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(");
            if is_adapter && opens {
                let mut depth = 0usize;
                let mut k = j + 2;
                while k < limit {
                    let p = &a.code[k];
                    if p.kind == TokKind::Punct {
                        match p.text.as_str() {
                            "(" => depth += 1,
                            ")" => {
                                depth = depth.saturating_sub(1);
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
                j = k + 1;
                continue;
            }
        }
        return false;
    }
    false
}

/// Scan the argument list starting at the `(` token `at` for the first
/// `Ordering::Variant` pair; returns the variant name.
fn ordering_in_parens(a: &FileAnalysis, at: usize, limit: usize) -> Option<String> {
    let mut depth = 0usize;
    let mut j = at;
    while j < limit {
        let t = &a.code[j];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return None;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokKind::Ident && t.text == "Ordering" {
            let c1 = a.code.get(j + 1);
            let c2 = a.code.get(j + 2);
            let v = a.code.get(j + 3);
            if c1.is_some_and(|c| c.kind == TokKind::Punct && c.text == ":")
                && c2.is_some_and(|c| c.kind == TokKind::Punct && c.text == ":")
            {
                if let Some(v) = v.filter(|v| v.kind == TokKind::Ident) {
                    return Some(v.text.clone());
                }
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config {
            lock_paths: vec![PathBuf::from("fixtures")],
            atomics_paths: vec![PathBuf::from("fixtures")],
            guarded_by: vec![("spilled_key_count".into(), "inner".into())],
            ..Config::default()
        }
    }

    fn cross(src: &str) -> CrossReport {
        let cfg = cfg();
        let mut cf = CrossFile::new();
        cf.add_file(src, Path::new("fixtures/x.rs"), &cfg);
        cf.finish(&cfg)
    }

    #[test]
    fn guard_dies_at_scope_end_and_drop() {
        let r = cross(
            "impl S {\n\
             fn a(&self) { let v = { let g = self.log.lock(); *g }; \
             self.f.write_all(&[v]); }\n\
             fn b(&self) { let g = self.log.lock(); drop(g); \
             self.f.write_all(&[0]); }\n\
             }",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn io_under_let_guard_and_temp_guard_flagged() {
        let r = cross(
            "impl S {\n\
             fn a(&self) {\n\
             let g = self.log.lock();\n\
             self.f.write_all(&[*g]);\n\
             }\n\
             fn b(&self) { self.buf.lock().write_all(&[0]); }\n\
             }",
        );
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations.iter().all(|v| v.rule == Rule::LockDiscipline));
        // The let-guard finding sits on the acquisition line (3).
        assert!(r.violations.iter().any(|v| v.line == 3));
    }

    #[test]
    fn chained_acquisition_does_not_bind_the_guard() {
        // `let out = self.inner.read().objects.len();` binds `out` to a
        // value *derived through* the guard — the guard itself dies at
        // the `;`. A probe on the next line is therefore unguarded (the
        // PR 8 describe()-style re-check-after-release), and must flag.
        let r = cross(
            "impl S {\n\
             fn describe(&self) -> usize {\n\
             let out = self.inner.read().objects.len();\n\
             if self.spilled_key_count(out) > 0 { out } else { 0 }\n\
             }\n\
             }",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("spilled_key_count"));
        // Binding the guard first keeps the probe guarded: clean.
        let r = cross(
            "impl S {\n\
             fn describe(&self) -> usize {\n\
             let s = self.inner.read();\n\
             let out = s.objects.len();\n\
             if self.spilled_key_count(out) > 0 { out } else { 0 }\n\
             }\n\
             }",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // `.lock().unwrap()` (std::sync poisoning adapter) still binds.
        let r = cross(
            "impl S {\n\
             fn a(&self) {\n\
             let g = self.log.lock().unwrap();\n\
             self.f.write_all(&[*g]);\n\
             }\n\
             }",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 3);
    }

    #[test]
    fn if_let_scrutinee_guard_is_a_temporary() {
        // `if let Some(v) = *self.forced.lock() { return v; }` — the
        // pattern ident (`Some`) must not become a let-bound guard name,
        // or the scrutinee guard would survive to function end and
        // every later acquisition would grow a false `forced → x` edge.
        let r = cross(
            "impl S {\n\
             fn decide(&self) -> u8 {\n\
             if let Some(v) = *self.forced.lock() { return v; }\n\
             if self.log.lock().is_empty() { 1 } else { 0 }\n\
             }\n\
             fn put(&self) { let g = self.log.lock(); *self.forced.lock() = None; }\n\
             }",
        );
        assert!(
            r.violations.iter().all(|v| !v.message.contains("cycle")),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn lock_order_cycle_across_functions() {
        let r = cross(
            "impl S {\n\
             fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }\n\
             }",
        );
        let cyc: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.message.contains("cycle"))
            .collect();
        assert_eq!(cyc.len(), 2, "{:?}", r.violations);
    }

    #[test]
    fn consistent_order_is_clean() {
        let r = cross(
            "impl S {\n\
             fn x(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             fn y(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n\
             }",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn io_reached_through_call_graph() {
        let r = cross(
            "impl S {\n\
             fn spill(&self) { self.file.sync_all(); }\n\
             fn put(&self) {\n\
             let s = self.inner.write();\n\
             self.spill();\n\
             }\n\
             }",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("spill"));
        assert_eq!(r.violations[0].line, 4);
    }

    #[test]
    fn probe_outside_guard_flagged_inside_clean() {
        let bad = cross(
            "impl S {\n\
             fn get(&self) {\n\
             if self.tier.spilled_key_count() > 0 { return; }\n\
             let s = self.inner.read();\n\
             }\n\
             }",
        );
        assert_eq!(bad.violations.len(), 1, "{:?}", bad.violations);
        assert!(bad.violations[0].message.contains("re-check-after-release"));
        let good = cross(
            "impl S {\n\
             fn get(&self) {\n\
             let s = self.inner.read();\n\
             if self.tier.spilled_key_count() > 0 { return; }\n\
             }\n\
             }",
        );
        assert!(good.violations.is_empty(), "{:?}", good.violations);
    }

    #[test]
    fn mixed_ordering_classes_flagged() {
        let r = cross(
            "impl S {\n\
             fn a(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn b(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }\n\
             fn c(&self) -> u64 { self.hits.load(Ordering::SeqCst) }\n\
             }",
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::Atomics);
        assert_eq!(r.violations[0].line, 4);
    }

    #[test]
    fn acquire_release_pairing_is_one_class() {
        let r = cross(
            "impl S {\n\
             fn set(&self) { self.stop.store(true, Ordering::Release); }\n\
             fn chk(&self) -> bool { self.stop.load(Ordering::Acquire) }\n\
             }",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }

    #[test]
    fn load_then_store_flagged_unless_locked_or_rmw() {
        let bad = cross(
            "impl S {\n\
             fn up(&self) {\n\
             let c = self.gauge.load(Ordering::Relaxed);\n\
             self.gauge.store(c + 1, Ordering::Relaxed);\n\
             }\n\
             }",
        );
        assert_eq!(bad.violations.len(), 1, "{:?}", bad.violations);
        assert!(bad.violations[0].message.contains("fetch_"));
        let locked = cross(
            "impl S {\n\
             fn up(&self) {\n\
             let g = self.m.lock();\n\
             let c = self.gauge.load(Ordering::Relaxed);\n\
             self.gauge.store(c + 1, Ordering::Relaxed);\n\
             }\n\
             }",
        );
        assert!(locked.violations.is_empty(), "{:?}", locked.violations);
        let rmw = cross("impl S { fn up(&self) { self.gauge.fetch_add(1, Ordering::Relaxed); } }");
        assert!(rmw.violations.is_empty(), "{:?}", rmw.violations);
    }

    #[test]
    fn waiver_on_guard_line_suppresses() {
        let r = cross(
            "impl S {\n\
             fn a(&self) {\n\
             let g = self.log.lock(); // xlint: allow(L) -- log mutex guards the file itself\n\
             self.f.write_all(&[0]);\n\
             }\n\
             }",
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waived.len(), 1);
    }

    #[test]
    fn vec_swap_is_not_an_atomic_op() {
        let r = cross("impl S { fn a(&self, v: &mut [u8]) { v.swap(0, 1); } }");
        assert!(r.violations.is_empty(), "{:?}", r.violations);
    }
}
