//! In-memory spans around the benchmark's calls into the workspace crates.
//!
//! Each client thread owns one [`Tracer`]. A span records its name, start,
//! end, the span open around it (its parent) and the id of the operation it
//! belongs to. Nothing is written while a phase runs; [`Trace`] merges the
//! buffers afterwards, writes them out and derives self times (a span's
//! duration minus the part its children cover).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    start: u64,
    end: u64,
}

/// A per-thread span recorder with a fixed capacity: once full, further
/// spans are counted as dropped instead of growing memory without bound.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    cap: usize,
    dropped: u64,
}

/// Handle of an open span; `None` when the tracer was full.
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer for client thread `thread`, timing relative to `epoch`.
    pub fn new(epoch: Instant, thread: u32, cap: usize) -> Self {
        Tracer {
            epoch,
            thread,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            open: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span { name, op, parent, start, end: start });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            self.spans[idx as usize].end = end;
            debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
            self.open.pop();
        }
    }
}

/// A span after analysis: duration and self time in microseconds.
#[derive(Debug, Clone, Copy)]
struct Timed {
    thread: u32,
    span: Span,
    parent: &'static str,
    self_ns: u64,
}

/// The merged spans of a traced phase.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Timed>,
    /// Spans not recorded because a tracer was full.
    pub dropped: u64,
}

impl Trace {
    /// Adds one thread's spans, computing each span's self time.
    pub fn absorb(&mut self, tracer: Tracer) {
        let mut child_ns = vec![0u64; tracer.spans.len()];
        for s in &tracer.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, child) in tracer.spans.iter().zip(child_ns) {
            let parent = match s.parent {
                NO_PARENT => "-",
                p => tracer.spans[p as usize].name,
            };
            let self_ns = (s.end - s.start).saturating_sub(child);
            self.spans.push(Timed { thread: tracer.thread, span: *s, parent, self_ns });
        }
        self.dropped += tracer.dropped;
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|t| t.span.name == name)
            .map(|t| (t.span.end - t.span.start) as f64 / 1e3)
            .collect()
    }

    /// Per operation, the summed duration (µs) of its spans named `name`.
    pub fn per_op_us(&self, name: &str) -> BTreeMap<(u32, u64), f64> {
        let mut out = BTreeMap::new();
        for t in self.spans.iter().filter(|t| t.span.name == name) {
            *out.entry((t.thread, t.span.op)).or_insert(0.0) +=
                (t.span.end - t.span.start) as f64 / 1e3;
        }
        out
    }

    /// Total self time (ms) per layer, the layer being the span name up to
    /// its first dot (`proto`, `core`, `rsl`, ...; `op` for the roots).
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for t in &self.spans {
            let layer = t.span.name.split('.').next().unwrap_or(t.span.name);
            *out.entry(layer).or_insert(0.0) += t.self_ns as f64 / 1e6;
        }
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a tab-separated line: thread, op, name, parent
    /// name, start and end (ns since the run's epoch) and self time (ns).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\top\tname\tparent\tstart_ns\tend_ns\tself_ns")?;
        for t in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.thread, t.span.op, t.span.name, t.parent, t.span.start, t.span.end, t.self_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(Instant::now(), 0, 16);
        let root = tr.begin("op.poll", 1);
        let child = tr.begin("proto.req_parse", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(child);
        tr.end(root);
        let mut trace = Trace::default();
        trace.absorb(tr);
        let layers = trace.self_ms_by_layer();
        assert!(layers["proto"] >= 2.0);
        assert!(layers["op"] < layers["proto"]);
    }

    #[test]
    fn full_tracer_drops_instead_of_growing() {
        let mut tr = Tracer::new(Instant::now(), 0, 1);
        let a = tr.begin("a", 0);
        let b = tr.begin("b", 0);
        tr.end(b);
        tr.end(a);
        let mut trace = Trace::default();
        trace.absorb(tr);
        assert_eq!((trace.len(), trace.dropped), (1, 1));
    }
}
