//! The traced run: spans around every layer call the benchmark makes, the
//! per-layer metric table, and self-time accounting.
//!
//! Spans go to the pv-obs recorder, kept in memory and written out when
//! the run ends, next to the kernel histograms pv-obs already records
//! through pv-tensor's `KernelHook`. Before the recorder is installed
//! every span is a no-op costing one atomic load, so the untraced run
//! executes the same code. The spans are opened from the benchmark's own
//! files around public calls; the library's own spans (`nn/train`,
//! `core/prune`, `ckpt/cache_store`, …) and kernel spans nest inside them.

use pv_obs::{SpanRecord, TraceSnapshot};
use std::collections::BTreeMap;

/// Kernels whose `KernelHook` histograms are reported as
/// `tensor.<kernel>.calls` and `tensor.<kernel>.ms`.
pub const KERNELS: [&str; 8] = [
    "conv2d_forward",
    "conv2d_backward",
    "im2col",
    "matmul",
    "matmul_at_b",
    "matmul_a_bt",
    "matvec",
    "maxpool2d",
];

/// GEMM routines (the selector's choices, the conv lowering and the CSR
/// kernels) reported as `tensor.routine.<routine>.calls` and `.ms`.
pub const ROUTINES: [&str; 8] = [
    "packed4x64",
    "packed4x16",
    "packed4x1",
    "direct",
    "im2col_gemm",
    "csr_abt",
    "csr_matvec",
    "scalar",
];

/// Layers whose self time is reported as `<layer>.self_ms`.
pub const LAYERS: [&str; 9] = [
    "core", "nn", "tensor", "data", "prune", "ckpt", "metrics", "serve", "gen",
];

/// Every per-layer metric with its unit, in report order. Kernel, routine
/// and self-time rows are generated from the tables above.
const NAMED: [(&str, &str); 42] = [
    ("tensor.wide_fwd_gbps.b1", "GB/s"),
    ("tensor.wide_fwd_gbps.b8", "GB/s"),
    ("tensor.csr_fwd_ms.b8", "ms"),
    ("nn.train_steps", "count"),
    ("nn.train_ms", "ms"),
    ("nn.train_self_ms", "ms"),
    ("nn.eval_us_per_sample", "us"),
    ("nn.eval_gflops", "GF/s"),
    ("nn.fwd_us.b1", "us"),
    ("nn.fwd_us.b8", "us"),
    ("data.generate_ms", "ms"),
    ("data.realize_ms", "ms"),
    ("prune.calls", "count"),
    ("prune.ms", "ms"),
    ("ckpt.store_ms", "ms"),
    ("ckpt.bytes_written", "bytes"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes_read", "bytes"),
    ("ckpt.hit_ratio", "frac"),
    ("metrics.curves_ms", "ms"),
    ("metrics.noise_similarity_ms", "ms"),
    ("core.build_cold_ms", "ms"),
    ("core.build_warm_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.csr_sidecars", "count"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.batch_hist.b1", "count"),
    ("serve.batch_hist.b2", "count"),
    ("serve.batch_hist.b3", "count"),
    ("serve.batch_hist.b4", "count"),
    ("serve.batch_hist.b5", "count"),
    ("serve.batch_hist.b6", "count"),
    ("serve.batch_hist.b7", "count"),
    ("serve.batch_hist.b8", "count"),
    ("serve.overhead_ms.p50", "ms"),
    ("serve.overhead_ms.p99", "ms"),
    ("serve.busy", "count"),
    ("serve.failed", "count"),
    ("serve.mismatch", "count"),
    ("gen.lag_ms.p99", "ms"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for k in KERNELS {
        out.push((format!("tensor.{k}.calls"), "count"));
        out.push((format!("tensor.{k}.ms"), "ms"));
    }
    for r in ROUTINES {
        out.push((format!("tensor.routine.{r}.calls"), "count"));
        out.push((format!("tensor.routine.{r}.ms"), "ms"));
    }
    out.extend(NAMED.iter().map(|&(n, u)| (n.to_string(), u)));
    for l in LAYERS {
        out.push((format!("{l}.self_ms"), "ms"));
    }
    out.push(("obs.uncovered_ms".into(), "ms"));
    out.push(("obs.trace_overhead_frac".into(), "frac"));
    out
}

/// The per-layer values of one traced run. Every metric starts at 0: a
/// layer the workload does not exercise reads 0 calls and 0 ms.
#[derive(Debug)]
pub struct Layers {
    values: BTreeMap<String, (f64, &'static str)>,
    /// The snapshot taken when the workload's measured window closed.
    pub window: Option<TraceSnapshot>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            values: per_layer_metrics()
                .into_iter()
                .map(|(n, u)| (n, (0.0, u)))
                .collect(),
            window: None,
        }
    }
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`per_layer_metrics`] (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        slot.0 = value;
    }

    /// `(name, value, unit)` for every metric.
    pub fn entries(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }

    /// Closes the measured window: snapshots the installed recorder and
    /// derives the kernel, library-span and self-time metrics from it.
    /// Probes that run afterwards do not pollute these numbers. A no-op
    /// when no recorder is installed.
    pub fn close_window(&mut self) {
        let Some(rec) = pv_obs::global() else {
            return;
        };
        let snap = rec.snapshot();
        for k in KERNELS.iter().chain(ROUTINES.iter()) {
            let (calls, ms) = snap
                .histograms
                .get(k)
                .map_or((0.0, 0.0), |h| (h.count as f64, h.sum_ns as f64 / 1e6));
            let prefix = if KERNELS.contains(k) {
                format!("tensor.{k}")
            } else {
                format!("tensor.routine.{k}")
            };
            self.set(&format!("{prefix}.calls"), calls);
            self.set(&format!("{prefix}.ms"), ms);
        }
        let forest = Forest::new(&snap.spans);
        for (layer, ns) in forest.self_ns_by_layer() {
            if layer == "bench" {
                self.set("obs.uncovered_ms", ns as f64 / 1e6);
            } else if LAYERS.contains(&layer) {
                self.set(&format!("{layer}.self_ms"), ns as f64 / 1e6);
            }
        }
        let train_ns = forest.total_ns("nn", "train");
        self.set("nn.train_ms", train_ns as f64 / 1e6);
        self.set(
            "nn.train_self_ms",
            train_ns.saturating_sub(forest.kernel_ns_within("nn", "train")) as f64 / 1e6,
        );
        let prunes = forest.find("core", "prune").count() + forest.find("prune", "prune").count();
        self.set("prune.calls", prunes as f64);
        let prune_ns = forest.total_ns("core", "prune") + forest.total_ns("prune", "prune");
        self.set("prune.ms", prune_ns as f64 / 1e6);
        let store_ns = forest.total_ns("ckpt", "cache_store");
        let load_ns = forest.total_ns("ckpt", "cache_load");
        self.set("ckpt.store_ms", store_ns as f64 / 1e6);
        self.set("ckpt.load_ms", load_ns as f64 / 1e6);
        for (metric, cat, name) in [
            ("data.generate_ms", "data", "generate"),
            ("data.realize_ms", "data", "realize"),
            ("metrics.curves_ms", "metrics", "curves"),
            (
                "metrics.noise_similarity_ms",
                "metrics",
                "noise_similarity_all",
            ),
            ("core.build_cold_ms", "core", "build_cold"),
            ("core.build_warm_ms", "core", "build_warm"),
        ] {
            self.set(metric, forest.total_ns(cat, name) as f64 / 1e6);
        }
        let admits: Vec<u64> = forest
            .find("serve", "admit")
            .map(SpanRecord::duration_ns)
            .collect();
        if !admits.is_empty() {
            let mean = admits.iter().sum::<u64>() as f64 / admits.len() as f64;
            self.set("serve.admit_ms", mean / 1e6);
        }
        // cache hits over lookups during the warm rebuilds only
        let during_warm = |name: &str| -> f64 {
            let Some(series) = snap.counters.get(name) else {
                return 0.0;
            };
            let at = |t: u64| {
                series
                    .iter()
                    .take_while(|p| p.0 <= t)
                    .last()
                    .map_or(0.0, |p| p.1)
            };
            forest
                .find("core", "build_warm")
                .map(|w| at(w.end_ns) - at(w.start_ns))
                .sum()
        };
        let hits = during_warm("ckpt/cache_hit");
        let lookups = hits + during_warm("ckpt/cache_miss");
        if lookups > 0.0 {
            self.set("ckpt.hit_ratio", hits / lookups);
        }
        self.window = Some(snap);
    }

    /// Total of a counter series in the window snapshot (0 when absent).
    pub fn counter(&self, name: &str) -> f64 {
        self.window
            .as_ref()
            .and_then(|s| s.counters.get(name))
            .and_then(|series| series.last())
            .map_or(0.0, |p| p.1)
    }
}

/// Spans arranged by containment within each thread's lane.
struct Forest<'a> {
    spans: Vec<&'a SpanRecord>,
    parent: Vec<Option<usize>>,
}

/// The layer a span is charged to: the library records pruning as
/// `core/prune`, which belongs to the pruning layer.
fn layer_of(s: &SpanRecord) -> &'static str {
    if s.cat == "core" && s.name == "prune" {
        "prune"
    } else {
        s.cat
    }
}

impl<'a> Forest<'a> {
    fn new(all: &'a [SpanRecord]) -> Self {
        let mut spans: Vec<&SpanRecord> = all.iter().collect();
        // containers first: earlier start, then longer span
        spans.sort_by_key(|s| (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns), s.seq));
        let mut parent = vec![None; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..spans.len() {
            let s = spans[i];
            while let Some(&top) = stack.last() {
                let t = spans[top];
                if t.lane == s.lane && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                    break;
                }
                stack.pop();
            }
            parent[i] = stack.last().copied();
            stack.push(i);
        }
        Self { spans, parent }
    }

    fn find(&self, cat: &'a str, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> + '_ {
        self.spans
            .iter()
            .copied()
            .filter(move |s| s.cat == cat && s.name == name)
    }

    fn total_ns(&self, cat: &str, name: &str) -> u64 {
        self.find(cat, name).map(SpanRecord::duration_ns).sum()
    }

    /// Self time (duration minus direct children) summed per layer.
    fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.duration_ns()))
            .collect();
        for (i, p) in self.parent.iter().enumerate() {
            if let Some(p) = *p {
                own[p] -= i128::from(self.spans[i].duration_ns());
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *out.entry(layer_of(s)).or_insert(0) += ns.max(0) as u64;
        }
        out
    }

    /// Time spent in outermost kernel spans nested (at any depth) inside
    /// spans named `cat/name`.
    fn kernel_ns_within(&self, cat: &str, name: &str) -> u64 {
        let mut total = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.cat != "tensor" {
                continue;
            }
            let mut p = self.parent[i];
            let mut outermost = true;
            let mut inside = false;
            while let Some(j) = p {
                let a = self.spans[j];
                if a.cat == "tensor" {
                    outermost = false;
                    break;
                }
                if a.cat == cat && a.name == name {
                    inside = true;
                    break;
                }
                p = self.parent[j];
            }
            if outermost && inside {
                total += s.duration_ns();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn rec(cat: &'static str, name: &'static str, lane: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            cat,
            lane,
            depth: 0,
            start_ns: start,
            end_ns: end,
            seq: start,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_lane() {
        let spans = vec![
            rec("bench", "workload", 0, 0, 100),
            rec("nn", "train", 0, 10, 60),
            rec("tensor", "conv2d_forward", 0, 20, 40),
            rec("tensor", "im2col", 0, 20, 25),
            rec("tensor", "matmul", 1, 30, 50),
        ];
        let f = Forest::new(&spans);
        let by = f.self_ns_by_layer();
        assert_eq!(by["bench"], 50);
        assert_eq!(by["nn"], 30);
        // conv 20 - im2col 5, + im2col 5, + the other lane's matmul 20
        assert_eq!(by["tensor"], 40);
        assert_eq!(f.kernel_ns_within("nn", "train"), 20);
        assert_eq!(f.total_ns("nn", "train"), 50);
    }

    #[test]
    fn metric_table_has_unique_names() {
        let all = per_layer_metrics();
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(all.len() <= 128);
    }
}
