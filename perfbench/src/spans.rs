//! In-memory spans for the traced pass.
//!
//! Each span records a name, the layer whose public function it wraps,
//! its start and end, and its parent. Spans nest as the calls do, so a
//! span's self time is its duration minus its children's. Time that a
//! layer measures inside itself (the controller's phase counters inside
//! a `System` run) is attributed to that deeper layer and subtracted
//! from the enclosing span's self time, so the layer self times always
//! add up to the wall time of the root spans.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers of the simulator, by workspace crate, plus the
/// benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code: checks, bookkeeping, loops. Its self
    /// time is reported as unattributed.
    Bench,
    /// `nuat-workloads`: trace generation.
    Workloads,
    /// `nuat-cpu`: the ROB core model.
    Cpu,
    /// `nuat-sim`: the `System` wake calendar, ports and channel loop.
    Sim,
    /// `nuat-core` (with the `nuat-dram` calls it makes): controller
    /// phases, timing wheel, queues.
    Core,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 5] = [
        Layer::Workloads,
        Layer::Cpu,
        Layer::Sim,
        Layer::Core,
        Layer::Bench,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "unattributed",
            Layer::Workloads => "workloads",
            Layer::Cpu => "cpu",
            Layer::Sim => "sim",
            Layer::Core => "core",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Nanoseconds inside this span that a deeper layer measured itself.
    inner: Option<(Layer, u64)>,
}

/// Records spans in memory; nothing is written until [`write_jsonl`].
///
/// [`write_jsonl`]: Tracer::write_jsonl
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            inner: None,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is not inside.
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Duration of closed span `id`, in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Attributes `ns` of span `id`'s self time to `layer` (time the
    /// program measured inside the call). Clamped to the span's own
    /// self time so the table still sums to the wall time.
    pub fn attribute(&mut self, id: usize, layer: Layer, ns: u64) {
        self.spans[id].inner = Some((layer, ns));
    }

    /// Wall nanoseconds covered by root spans.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self nanoseconds per layer, indexed like [`Layer::ALL`]. The
    /// entries sum to [`wall_ns`](Self::wall_ns).
    pub fn self_ns(&self) -> [u64; Layer::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [0u64; Layer::ALL.len()];
        for (s, children) in self.spans.iter().zip(child_ns) {
            let mut own = (s.end_ns - s.start_ns).saturating_sub(children);
            if let Some((layer, ns)) = s.inner {
                let inner = ns.min(own);
                out[layer.index()] += inner;
                own -= inner;
            }
            out[s.layer.index()] += own;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans as JSON lines, one per span, in the order opened.
    pub fn write_jsonl(&self, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let inner = s.inner.map_or("null".to_string(), |(l, ns)| {
                format!("{{\"layer\":\"{}\",\"ns\":{ns}}}", l.name())
            });
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"inner\":{inner}}}",
                s.name,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_wall() {
        let mut t = Tracer::default();
        let root = t.begin("pass", Layer::Bench);
        let gen = t.begin("gen", Layer::Workloads);
        spin(200_000);
        t.end(gen);
        let run = t.begin("run", Layer::Sim);
        spin(300_000);
        t.end(run);
        t.attribute(run, Layer::Core, 100_000);
        spin(50_000);
        t.end(root);
        let own = t.self_ns();
        assert_eq!(own.iter().sum::<u64>(), t.wall_ns());
        assert!(own[Layer::Workloads.index()] >= 200_000);
        assert_eq!(own[Layer::Core.index()], 100_000);
        assert!(own[Layer::Sim.index()] >= 200_000);
        assert!(own[Layer::Bench.index()] >= 50_000);
        let mut text = String::new();
        t.write_jsonl(&mut text);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"parent\":0"));
    }

    #[test]
    fn inner_time_is_clamped_to_the_span() {
        let mut t = Tracer::default();
        let root = t.begin("run", Layer::Sim);
        spin(10_000);
        t.end(root);
        t.attribute(root, Layer::Core, u64::MAX);
        let own = t.self_ns();
        assert_eq!(own[Layer::Sim.index()], 0);
        assert_eq!(own[Layer::Core.index()], t.wall_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_close_in_order() {
        let mut t = Tracer::default();
        let a = t.begin("a", Layer::Bench);
        let _b = t.begin("b", Layer::Sim);
        t.end(a);
    }
}
