//! Timing of calls into the library, with optional in-memory span recording.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`], which
//! return the call's wall time in both modes.  When tracing is on, each call
//! also leaves a [`Span`]: its name, start and end, the span it ran inside,
//! and the group (one setup pass, batch or churn cycle) it belongs to.  The
//! spans stay in memory until the run ends; [`Tracer::write_tsv`] writes
//! them out and [`Tracer::self_times`] reduces them to per-name self time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Marks a span with no parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// What kind of group the span ran in (`setup`, `batch`, `cycle`, `probe`).
    pub kind: &'static str,
    /// The group id shared by every span of one setup pass, batch or cycle.
    pub group: u64,
    /// Index of the enclosing span, or `u32::MAX`.
    pub parent: u32,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

/// An open timed call, closed by [`Tracer::end`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    start: Instant,
    slot: u32,
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Their summed duration.
    pub total_ns: u64,
    /// Their summed duration minus the time their child spans cover.
    pub self_ns: u64,
}

/// The call timer and (when on) span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    kind: &'static str,
    group: u64,
    next_group: u64,
}

impl Tracer {
    /// A timer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            kind: "run",
            group: 0,
            next_group: 1,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts a new group of `kind`; later spans carry its id.
    pub fn group(&mut self, kind: &'static str) -> u64 {
        self.kind = kind;
        self.group = self.next_group;
        self.next_group += 1;
        self.group
    }

    /// Re-enters an existing group (a setup pass resumed in a later slice).
    pub fn resume(&mut self, kind: &'static str, group: u64) {
        self.kind = kind;
        self.group = group;
    }

    /// Opens a timed call named `name`.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        let mut slot = NO_PARENT;
        if self.on {
            slot = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                kind: self.kind,
                group: self.group,
                parent: self.stack.last().copied().unwrap_or(NO_PARENT),
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(slot);
        }
        let start = Instant::now();
        if self.on {
            self.spans[slot as usize].start_ns = self.ns_since_origin(start);
        }
        Open { start, slot }
    }

    /// Closes a timed call and returns its wall time.
    #[inline]
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if self.on {
            let end_ns = self.ns_since_origin(now);
            self.spans[open.slot as usize].end_ns = end_ns;
            self.stack.pop();
        }
        now - open.start
    }

    /// Times `f` as one call named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of the spans named `name`, summed per group of
    /// `kind`, in group order.
    pub fn per_group(&self, kind: &str, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.kind == kind && s.name == name)
        {
            *sums.entry(s.group).or_default() += s.end_ns - s.start_ns;
        }
        sums.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(c);
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `index kind group parent name start_ns end_ns` (parent `-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tkind\tgroup\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.kind, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_sum() {
        let mut t = Tracer::new(true);
        t.group("setup");
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(Duration::from_millis(2));
        let di = t.end(inner);
        let dout = t.end(outer);
        assert!(dout >= di);
        let st = t.self_times();
        assert_eq!(st["outer"].count, 1);
        assert_eq!(st["inner"].self_ns, st["inner"].total_ns);
        assert_eq!(
            st["outer"].self_ns,
            st["outer"].total_ns - st["inner"].total_ns
        );
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.per_group("setup", "inner").len(), 1);
        assert!(t.per_group("batch", "inner").is_empty());
    }

    #[test]
    fn untraced_timer_records_nothing() {
        let mut t = Tracer::new(false);
        let (x, d) = t.time("x", || 7);
        assert_eq!(x, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
