//! The pruneval repo benchmark: two workloads measured end to end, and
//! layer by layer in a separate traced run.
//!
//! ```text
//! pv-e2ebench --workload study|serve_wide --seed N --seconds S --trace 0|1
//! ```
//!
//! It runs from the root of a workspace checkout and drives the workspace
//! crates through their public functions (not the `pruneval` binary,
//! which always installs the pv-obs recorder). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `README.md` beside this file.

mod gen;
mod serving;
mod study;
mod trace;
mod util;

use std::collections::BTreeMap;
use trace::Layers;
use util::Metric;

/// The command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `study` or `serve_wide`.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget of the run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["study", "serve_wide"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        opts.insert(key, value);
    }
    let get = |k: &str| opts.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_string())?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match opts.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    if let Some(k) = opts
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The end-to-end metrics.
    pub metrics: BTreeMap<String, Metric>,
    /// Wall time of the workload's measured window, s.
    pub wall_s: f64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
}

/// Direct measurements of the served models (oracle answers included),
/// taken in the first run of a process and reused by the traced run.
type DirectCache = Option<serving::Direct>;

fn run_workload(args: &Args, layers: &mut Layers, direct: &mut DirectCache) -> Outcome {
    match args.workload.as_str() {
        "study" => study::run(args, layers),
        _ => serving::run(args, layers, direct),
    }
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"PV_NUM_THREADS\": {}, \"PV_BACKEND\": {}, \"git_commit\": {}, \"source_digest\": {}}}",
        util::json_str(&args.workload),
        args.seed,
        util::json_num(args.seconds),
        args.trace,
        util::json_str(&env_or("PV_NUM_THREADS", "unset")),
        util::json_str(&env_or("PV_BACKEND", "unset")),
        util::json_str(&util::git_commit()),
        util::json_str(&util::source_digest()),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pv-e2ebench: {e}");
            eprintln!(
                "usage: pv-e2ebench --workload study|serve_wide --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let prov = provenance(&args);
    println!("provenance {prov}");

    let mut direct = None;
    let mut layers = Layers::default();
    let (outcome, metrics) = if args.trace {
        // the same workload untraced first, for the tracing overhead; the
        // recorder can only be installed once per process
        let plain = run_workload(&args, &mut Layers::default(), &mut direct);
        // room for every kernel span of a serving run at full rate; spans
        // past the cap are counted as dropped, and the run reports that
        pv_obs::install(pv_obs::Recorder::with_capacity(
            pv_obs::MonotonicClock::new(),
            1 << 21,
        ));
        let mut traced = run_workload(&args, &mut layers, &mut direct);
        layers.set(
            "obs.trace_overhead_frac",
            traced.wall_s / plain.wall_s - 1.0,
        );
        write_trace(&args, &prov, &layers);
        if let Some(snap) = &layers.window {
            println!(
                "trace: {} spans kept, {} dropped",
                snap.spans.len(),
                snap.dropped_spans
            );
        }
        traced.correct &= plain.correct;
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced.problems.extend(plain.problems);
        let metrics = layers
            .entries()
            .map(|(k, value, unit)| (k.to_string(), Metric { value, unit }))
            .collect();
        (traced, metrics)
    } else {
        let o = run_workload(&args, &mut layers, &mut direct);
        let metrics = o.metrics.clone();
        (o, metrics)
    };
    for n in &outcome.notes {
        println!("{n}");
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!(
        "{}",
        util::result_json(
            outcome.correct,
            outcome.attempted.max(1),
            outcome.failed,
            &metrics
        )
    );
}

/// Writes the traced run's pv-obs snapshot (layer spans, counters, kernel
/// histograms) and its per-layer table under `.e2ebench_out/`.
fn write_trace(args: &Args, prov: &str, layers: &Layers) {
    let dir = std::path::Path::new(".e2ebench_out");
    let _ = std::fs::create_dir_all(dir);
    let stem = format!("trace-{}-seed{}", args.workload, args.seed);
    if let Some(snap) = &layers.window {
        // per-call kernel spans are summarised by the kernel histograms
        // and the self times; on disk they would run to hundreds of MB
        let mut snap = snap.clone();
        snap.spans.retain(|s| s.cat != "tensor");
        if let Err(e) = snap.save_json(&dir.join(format!("{stem}.obs.json"))) {
            eprintln!("pv-e2ebench: could not write the trace: {e}");
        }
    }
    let rows: Vec<String> = layers
        .entries()
        .map(|(k, v, u)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                util::json_str(k),
                util::json_num(v),
                util::json_str(u)
            )
        })
        .collect();
    let body = format!(
        "{{\n  \"provenance\": {prov},\n  \"per_layer\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    );
    if let Err(e) = std::fs::write(dir.join(format!("{stem}.layers.json")), body) {
        eprintln!("pv-e2ebench: could not write the layer table: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a =
            parse_args(&argv("--workload study --seed 7 --seconds 20 --trace 1")).expect("valid");
        assert_eq!(a.workload, "study");
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload study --seed x --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload study --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload study --seed 1")).is_err());
    }

    /// Every metric the benchmark reports is declared in `BENCHMARK.json`
    /// with the same unit, and nothing declared is left unreported.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\"").count();
        let workloads = json.matches("\"why\"").count();
        let per_layer = trace::per_layer_metrics();
        let end_to_end = [
            ("study_s", "s"),
            ("train_samples_per_s", "1/s"),
            ("eval_samples_per_s", "1/s"),
            ("p50_ms", "ms"),
            ("p99_ms", "ms"),
            ("max_rps", "1/s"),
            ("failed_frac", "frac"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ];
        for (name, unit) in per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), *u))
            .chain(end_to_end)
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(declared, per_layer.len() + end_to_end.len() + workloads);
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(workloads, WORKLOADS.len());
    }
}
