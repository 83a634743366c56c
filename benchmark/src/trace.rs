//! In-memory spans for the traced run.
//!
//! The traced run re-enacts a repetition serially on one thread from the
//! benchmark's own code, so spans nest strictly: `begin` pushes, `end` pops.
//! A span carries the byte and object counts seen at the same boundary, so
//! rates are measured where the work happens. Spans stay in memory until the
//! run ends and are then written as JSON lines.

use std::io::Write;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    /// `<layer>.<call>`, e.g. `solvers.advance`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: usize,
    /// Step or version-cycle the span belongs to (0 outside any).
    pub step: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Payload bytes that crossed the boundary.
    pub bytes: u64,
    /// Objects (or cells, for kernels) that crossed the boundary.
    pub count: u64,
    /// False for a reference measurement the native path does not make
    /// (in-situ extraction, a stand-alone checksum): excluded from the
    /// serial sum behind `workflow.overlap_ratio`.
    pub on_path: bool,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one traced run.
pub struct Tracer {
    t0: Instant,
    /// Every span begun so far, in begin order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, step: u64) -> usize {
        self.begin_as(name, step, true)
    }

    /// Open a reference span (see [`Span::on_path`]).
    pub fn begin_ref(&mut self, name: &'static str, step: u64) -> usize {
        self.begin_as(name, step, false)
    }

    fn begin_as(&mut self, name: &'static str, step: u64, on_path: bool) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            step,
            start_ns: now,
            end_ns: now,
            bytes: 0,
            count: 0,
            on_path,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one), recording
    /// the counts seen at its boundary.
    pub fn end(&mut self, id: usize, bytes: u64, count: u64) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.bytes = bytes;
        s.count = count;
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// MiB per second over all spans named `name` (0 without samples).
    pub fn mib_per_s(&self, name: &str) -> f64 {
        let (bytes, ns) = self
            .named(name)
            .fold((0u64, 0u64), |(b, t), s| (b + s.bytes, t + s.ns()));
        if ns == 0 {
            return 0.0;
        }
        crate::measure::mib(bytes) / (ns as f64 / 1e9)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"rep\":{},\"step\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"bytes\":{},\"count\":{},\"on_path\":{}}}",
                s.name, s.rep, s.step, s.start_ns, s.end_ns, own[id], s.bytes, s.count, s.on_path
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span named `name` when tracing, plainly otherwise. `f`
/// returns its result with the bytes and the count seen at the boundary.
pub fn span<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    step: u64,
    f: impl FnOnce() -> (T, u64, u64),
) -> T {
    match tr {
        Some(tr) => {
            let id = tr.begin(name, step);
            let (value, bytes, count) = f();
            tr.end(id, bytes, count);
            value
        }
        None => f().0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let a = t.begin("a", 1);
        let b = t.begin("b", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b, 10, 1);
        t.end(a, 0, 0);
        let own = t.self_ns();
        assert_eq!(own[a] + t.spans[b].ns(), t.spans[a].ns());
        assert_eq!(t.spans[b].parent, Some(a));
        assert!(t.mib_per_s("b") > 0.0);
    }
}
