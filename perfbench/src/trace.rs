//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `(name, start, end, parent, op id)`.  Spans live in memory
//! while the workload runs and are written out as JSON lines when it
//! ends; the per-layer metrics are computed from them, a layer's self
//! time being its span's duration minus the part its child spans cover.
//! A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; [`SpanId::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let parent = (parent != SpanId::NONE).then_some(parent.0);
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        SpanId(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id.0].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Self time (seconds) of every span called `name`, in record order:
    /// its duration minus the part its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let child_ns = child_ns(&spans);
        spans
            .iter()
            .zip(child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(children) as f64 * 1e-9)
            .collect()
    }

    /// Per-name `(spans, total seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let child_ns = child_ns(&spans);
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 * 1e-9;
            entry.2 += total.saturating_sub(children) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON line, then one summary line per span
    /// name.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        {
            let spans = self.spans.lock().expect("span list poisoned");
            for (i, s) in spans.iter().enumerate() {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                writeln!(
                    out,
                    "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {parent}, \"op\": {}}}",
                    s.name, s.start_ns, s.end_ns, s.op
                )?;
            }
        }
        for (name, (count, total, own)) in self.summary() {
            writeln!(
                out,
                "{{\"summary\": \"{name}\", \"spans\": {count}, \"total_s\": {total}, \
                 \"self_s\": {own}}}"
            )?;
        }
        out.flush()
    }
}

/// Per span, the nanoseconds its direct children cover.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut out = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            out[p] += s.end_ns - s.start_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let parent = t.begin("outer", SpanId::NONE, 1);
        t.span("inner", parent, 1, || std::thread::sleep(std::time::Duration::from_millis(20)));
        t.end(parent);
        let summary = t.summary();
        let (_, outer_total, outer_self) = summary["outer"];
        let (_, inner_total, _) = summary["inner"];
        assert!(inner_total >= 0.02);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-6);
        assert_eq!(t.self_times("outer"), vec![outer_self]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("x", SpanId::NONE, 0, || ());
        assert!(t.summary().is_empty());
    }
}
