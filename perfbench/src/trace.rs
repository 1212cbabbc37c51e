//! In-memory span recorder for the traced runs.
//!
//! Every benchmark call into a layer function is wrapped in a span with a
//! name, start, end, parent span and request id. Spans stay in memory
//! (one recorder per load thread) and are written out when the run ends.
//! Self time is a span's duration minus the time its direct children
//! cover. Counters are recorded at the same call boundaries.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the written trace per recorder; aggregates keep
/// counting past the cap so long runs stay bounded in memory.
const SPAN_CAP: usize = 200_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same recorder, if stored.
    pub parent: Option<u32>,
    pub request: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    stored: Option<u32>,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    aggs: BTreeMap<&'static str, SpanAgg>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let start_ns = self.now_ns();
        let parent = self.stack.last().and_then(|f| f.stored);
        let stored = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Frame { name, start_ns, child_ns: 0, stored });
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let frame = self.stack.pop().expect("exit matches an enter");
        let dur = end_ns.saturating_sub(frame.start_ns);
        if let Some(i) = frame.stored {
            self.spans[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(frame.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(frame.child_ns);
        dur
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, request);
        let r = f();
        self.exit();
        r
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        *self.counters.entry(name.to_owned()).or_default() += value;
    }

    pub fn agg(&self, name: &str) -> SpanAgg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Mean span duration of `name` in microseconds (0 when absent).
    pub fn mean_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64 / 1e3
        }
    }

    /// Folds another recorder (e.g. a second load thread) into this one.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room).map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, a) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        for (name, v) in other.counters {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Names of every span kind recorded, with aggregates.
    pub fn aggregates(&self) -> &BTreeMap<&'static str, SpanAgg> {
        &self.aggs
    }

    /// Writes the stored spans as tab-separated lines
    /// (`index name start_ns end_ns parent request`), then one summary
    /// line per span name with its count, total and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# span\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(w, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.request)?;
        }
        writeln!(w, "# summary\tname\tcount\ttotal_ns\tself_ns")?;
        for (name, a) in &self.aggs {
            writeln!(w, "summary\t{name}\t{}\t{}\t{}", a.count, a.total_ns, a.self_ns)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer", 1);
        t.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit();
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert!(outer.self_ns < outer.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
