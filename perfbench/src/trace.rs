//! Benchmark-side spans for the traced run.
//!
//! A span names the layer whose public call it wraps, its start and end
//! on one monotonic clock, the span that caused it and the run (one
//! workload operation) it belongs to. Spans are kept in memory and
//! written out once, at exit. A layer's self time is the sum, over its
//! spans, of the span's duration minus its children's durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The workspace modules the benchmark attributes time to.
pub const LAYERS: [&str; 11] = [
    "matrix",
    "workloads",
    "core.controller",
    "core.flex_dpe",
    "interconnect",
    "core.engine",
    "core.fault",
    "core.model",
    "baselines",
    "bench.harness",
    "bench.figs",
];

/// Identifies a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    run: u64,
    /// Threads the span's interval stands for: a span around a parallel
    /// region offers `width` times its duration to its children.
    width: u32,
}

/// An in-memory span log on one clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    /// The clock's epoch, for recorders that must share this timeline.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a new run id: later spans belong to the next operation.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, layer: &'static str, name: &str) -> SpanId {
        let parent = self.open.last().copied();
        let id = self.push(layer, name, self.now_ns(), 0, parent, 1);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        (now - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Times `f` as a span under the innermost open span.
    pub fn span<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Records a finished span with an explicit parent: a span imported
    /// from the program's flight recorder, or a replayed call that
    /// stands for part of an earlier span's work.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<SpanId>,
        width: u32,
    ) -> SpanId {
        self.push(layer, name, start_ns, end_ns.max(start_ns), parent, width)
    }

    fn push(
        &mut self,
        layer: &'static str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        width: u32,
    ) -> SpanId {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run: self.run,
            width,
        });
        self.spans.len() - 1
    }

    /// Summed durations of the spans called `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            * 1e-9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Summed durations of each span's direct children, nanoseconds.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        child_ns
    }

    /// Self time per layer, seconds: each span's duration (times its
    /// width) minus the durations of its children. A split whose
    /// children outweigh their parent is refused by [`Self::overfull`],
    /// not clamped here.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for (s, children) in self.spans.iter().zip(self.child_ns()) {
            let own = (s.end_ns - s.start_ns) * u64::from(s.width);
            *by_layer.entry(s.layer).or_insert(0.0) += (own as f64 - children as f64) * 1e-9;
        }
        by_layer
    }

    /// Every span name whose spans, summed over the run, offer their
    /// children less time (duration times width) than the children take:
    /// a split that does not add up. Children recorded after the fact
    /// (a replay, a stand-in call) come from another execution than
    /// their parent, so single spans may differ by host noise; the sum
    /// over all of a name's spans (one case or stage, every pass) may
    /// not.
    pub fn overfull(&self) -> Vec<String> {
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(self.child_ns()) {
            if children > 0 {
                let e = by_name.entry(s.name.as_str()).or_default();
                e.0 += (s.end_ns - s.start_ns) * u64::from(s.width);
                e.1 += children;
            }
        }
        by_name
            .into_iter()
            .filter(|(_, (offered, children))| children > offered)
            .map(|(name, (offered, children))| {
                format!(
                    "{name}: children take {:.3} ms of the {:.3} ms their spans offer",
                    children as f64 * 1e-6,
                    offered as f64 * 1e-6
                )
            })
            .collect()
    }

    /// The span log as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"width\":{}}}",
                s.layer,
                crate::report::json_str(&s.name),
                s.start_ns,
                s.end_ns,
                s.run,
                s.width
            );
        }
        out
    }
}
