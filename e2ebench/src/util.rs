//! Small shared helpers: order statistics, the failure-rate bound, a
//! stable digest, process memory, provenance, and JSON output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `[0, 100]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v
}

/// The highest of the usual reporting percentiles that still has at least
/// ten samples beyond it in a sample of `n`.
pub fn highest_supported_percentile(n: usize) -> f64 {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Samples per latency window: each window's p99 has ten samples beyond
/// it.
pub const WINDOW: usize = 1000;

/// The p99 of samples taken in time order: the median, over consecutive
/// windows of [`WINDOW`] samples, of each window's p99 (fewer samples make
/// one window). One stall of a shared host moves one window, not the
/// reported tail.
pub fn windowed_p99(in_order: &[f64]) -> f64 {
    let windows = (in_order.len() / WINDOW).max(1);
    let per = in_order.len() / windows;
    let p99s: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * per
            };
            percentile(&sorted(&in_order[w * per..end]), 99.0)
        })
        .collect();
    median(&p99s)
}

/// Upper end of the 95% Wilson score interval of a failure fraction.
///
/// A run with no failures among `n` still reads `≈ 3.84 / n`, not zero:
/// the bound states how small a failure rate the run could rule out.
pub fn failure_upper_bound(failed: u64, n: u64) -> f64 {
    let n = n.max(1) as f64;
    let z2 = 1.96f64 * 1.96;
    let p = failed as f64 / n;
    let centre = p + z2 / (2.0 * n);
    let spread = (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() * 1.96;
    ((centre + spread) / (1.0 + z2 / n)).min(1.0)
}

/// 64-bit FNV-1a: a tiny stable digest for outputs that must repeat bit
/// for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds the exact bit pattern of an `f64`.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sizes in bytes of every regular file under `dir`, summed.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Where a run writes scratch files (caches, checkpoints, traces): a
/// per-process directory under `.e2ebench_out/` in the working directory,
/// which is the checkout the benchmark runs from.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = Path::new(".e2ebench_out").join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

/// Digest of the workspace sources the benchmark was built from: every
/// `.rs` and `Cargo.toml` under `crates/`, plus the root manifest and lock
/// file, in path order. It identifies the measured code where no git
/// metadata exists.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f).unwrap_or_default());
    }
    h.hex()
}

/// The git commit of the working directory, or `"none"` outside a git
/// checkout (the benchmark also runs from exported trees).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".into())
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a metric value as a JSON number with all its digits (JSON has
/// no NaN or infinity; those would be a benchmark defect).
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value {x}");
    format!("{x:?}")
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit label, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, Metric>,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(20_000), 99.9);
    }

    #[test]
    fn windowed_p99_ignores_a_stall_confined_to_one_window() {
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_p99(&v), 98.0);
        for x in &mut v[..100] {
            *x = 1e4;
        }
        assert_eq!(windowed_p99(&v), 98.0);
        assert_eq!(windowed_p99(&v[..500]), 1e4);
    }

    #[test]
    fn failure_bound_is_positive_and_tracks_failures() {
        let none = failure_upper_bound(0, 1000);
        assert!(none > 0.0 && none < 0.005, "{none}");
        assert!(failure_upper_bound(10, 1000) > 0.01);
        assert!(failure_upper_bound(1000, 1000) <= 1.0);
    }

    #[test]
    fn result_line_shape() {
        let mut m = BTreeMap::new();
        m.insert(
            "p50_ms".to_string(),
            Metric {
                value: 1.25,
                unit: "ms",
            },
        );
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
