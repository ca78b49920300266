//! In-memory spans recorded by the traced run around every call the
//! benchmark makes into a layer's public functions.
//!
//! A span has a name, start and end, the span that caused it, and the id of
//! the operation it belongs to. Spans nest in two ways:
//!
//! * in time: a cycle's span encloses the round trips made inside it;
//! * by attribution: a replay span re-enacts, outside the timed interval,
//!   part of the work of an earlier span (the codec or the handler of a
//!   round trip), and names that span as its parent.
//!
//! A span's self time is its duration minus the durations of its children.
//! Children recorded by one thread never overlap, so for nesting in time this
//! is the duration not covered by children; for attribution it is what the
//! replays do not account for (for a round trip: the transport).

use std::io::Write;
use std::time::Instant;

/// Parent of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer entry point (or benchmark step) the span covers.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u32,
    /// Index of the causing span in the same trace, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store of one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty trace whose times count from `epoch`; tracers that are
    /// merged later must share it.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now and returns its id.
    pub fn begin(&mut self, name: &'static str, op: u32, parent: u32) -> u32 {
        self.push(name, op, parent, Instant::now())
    }

    /// Opens a span that started at `start` and returns its id.
    pub fn push(&mut self, name: &'static str, op: u32, parent: u32, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(Span { name, op, parent, start_ns, end_ns: 0 });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        self.close(id, Instant::now());
    }

    /// Closes span `id` at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a new span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let own = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64 / 1e3)
            .collect()
    }

    /// Writes the spans of ops below `ops` as tab-separated text, one per
    /// line: `id op parent name start_ns end_ns` (parent `-` when none).
    /// A span shares its op with its parent, so every link stays in the file.
    pub fn write_tsv(&self, path: &std::path::Path, ops: u32) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\top\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op < ops) {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(out, "{i}\t{}\t{parent}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's durations,
/// floored at zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            *c += s.duration_ns();
        }
    }
    spans.iter().zip(children).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("cycle", NO_PARENT, 0, 100),
            span("ingest", 0, 10, 30),
            span("refresh", 0, 40, 90),
            span("solve", 2, 45, 85), // grandchild of the cycle
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn attributed_children_may_run_after_their_parent() {
        // A round trip of 50 ns, replayed afterwards as codec + handler.
        let spans =
            [span("rt", NO_PARENT, 0, 50), span("codec", 0, 60, 70), span("dispatch", 0, 70, 95)];
        assert_eq!(self_times_ns(&spans)[0], 15, "transport = rt - codec - handler");
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = [span("rt", NO_PARENT, 0, 10), span("replay", 0, 20, 40)];
        assert_eq!(self_times_ns(&spans), vec![0, 20]);
    }

    #[test]
    fn tracer_records_nesting_and_merges_threads() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let outer = a.begin("outer", 1, NO_PARENT);
        let ((), inner) = a.time("inner", 1, outer, || std::hint::black_box(()));
        a.end(outer);
        assert_eq!(a.spans()[inner as usize].parent, outer);
        assert!(a.spans()[outer as usize].end_ns >= a.spans()[inner as usize].end_ns);

        let mut b = Tracer::new(epoch);
        let root = b.begin("read", 7, NO_PARENT);
        b.end(root);
        let child = b.begin("codec", 7, root);
        b.end(child);
        a.absorb(b);
        let merged = a.spans();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[3].parent, 2, "parent links are re-based on merge");
        assert_eq!(merged[2].parent, NO_PARENT);
        assert_eq!(a.durations_us("read").len(), 1);
        assert_eq!(a.self_times_us("outer").len(), 1);
    }
}
