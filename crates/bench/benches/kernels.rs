//! Kernel micro-benchmarks: matmul GFLOP/s and conv forward/backward
//! throughput at representative layer shapes, measured serial
//! (`PV_NUM_THREADS=1` equivalent) vs parallel, plus an end-to-end
//! forward+backward pass on the synthetic CIFAR stand-in.
//!
//! Every GEMM row is also timed against the scalar oracle backend
//! (`pv_tensor::SCALAR`) — the packed routines must match it
//! **bitwise** (asserted here, at both thread settings) and the JSON
//! records the packed-vs-oracle speedup so the perf trajectory of the
//! BLIS-style kernels is visible per shape.
//!
//! The `matmul_a_bt 8x4096x4096 dNN dense|csr` rows time the serve
//! bench's batch-8 hidden layer at each weight density under `PACKED`,
//! without and with a forced CSR sidecar: the crossover behind
//! `pv_tensor::DEFAULT_MAX_DENSITY`. The 0.05 pair gives the JSON's
//! `sparse_speedup_r95` (dense / CSR time). Their `flops` count the
//! dense product, so CSR GF/s is an effective rate.
//!
//! Emits `BENCH_kernels.json` in the working directory so future PRs can
//! track the perf trajectory, and prints a before/after table against the
//! committed baseline when one is readable.
//!
//! Environment:
//!
//! * `PV_BENCH_SMOKE=1` — regression-gate mode for `scripts/check.sh`:
//!   fewer timing reps, **no** JSON written, and a non-zero exit when any
//!   row's serial GFLOP/s regresses more than 20% against the baseline.
//! * `PV_BENCH_BASELINE=<path>` — baseline JSON to compare/gate against
//!   (default: `BENCH_kernels.json` in the working directory, i.e. the
//!   committed file when invoked via `cargo bench`).

use pv_nn::{cross_entropy, models, Mode};
use pv_tensor::par::{num_threads, set_thread_override};
use pv_tensor::{conv2d_backward, conv2d_forward, matmul, matmul_a_bt, matmul_at_b};
use pv_tensor::{Backend, PACKED, SCALAR};
use pv_tensor::{ConvGeometry, Rng, Tensor};
use std::time::Instant;

/// One serial-vs-parallel measurement, with an optional scalar-oracle
/// reference time for GEMM rows.
struct BenchRow {
    name: String,
    /// Work per run in multiply-accumulate operations (0 = unknown).
    flops: u64,
    serial_secs: f64,
    parallel_secs: f64,
    parallel_threads: usize,
    /// Serial wall time of the scalar oracle on the same operands.
    oracle_secs: Option<f64>,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        self.serial_secs / self.parallel_secs
    }

    fn gflops(&self, secs: f64) -> f64 {
        2.0 * self.flops as f64 / secs / 1e9
    }

    fn serial_gflops(&self) -> f64 {
        self.gflops(self.serial_secs)
    }

    fn parallel_gflops(&self) -> f64 {
        self.gflops(self.parallel_secs)
    }

    /// Packed-vs-scalar-oracle speedup (oracle time / packed serial time).
    fn oracle_speedup(&self) -> Option<f64> {
        self.oracle_secs.map(|o| o / self.serial_secs)
    }
}

/// Best-of-runs wall time for one invocation of `f`. The minimum sample
/// is the standard estimator for compute-bound microbenches on a shared
/// host: every source of interference (scheduler preemption, co-tenant
/// load) only ever adds time, so the fastest run is the closest to the
/// kernel's true cost.
fn time_secs<O>(f: &mut dyn FnMut() -> O, runs: usize) -> f64 {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .min_by(|a, b| a.partial_cmp(b).expect("non-NaN timing"))
        .unwrap_or(f64::INFINITY)
}

/// Measures `f` at 1 thread and at the ambient thread count.
fn bench<O>(name: &str, flops: u64, runs: usize, mut f: impl FnMut() -> O) -> BenchRow {
    set_thread_override(Some(1));
    let serial_secs = time_secs(&mut || f(), runs);
    set_thread_override(None);
    let parallel_threads = num_threads();
    let parallel_secs = time_secs(&mut || f(), runs);
    set_thread_override(None);
    BenchRow {
        name: name.to_string(),
        flops,
        serial_secs,
        parallel_secs,
        parallel_threads,
        oracle_secs: None,
    }
}

/// Benches one GEMM flavour against the scalar oracle: asserts the packed
/// routine is bitwise identical to the oracle at 1 thread and at the
/// ambient thread count, then records the oracle's serial wall time.
fn bench_gemm(
    name: &str,
    flops: u64,
    runs: usize,
    mut packed: impl FnMut() -> Tensor,
    mut oracle: impl FnMut() -> Tensor,
) -> BenchRow {
    let want = oracle();
    set_thread_override(Some(1));
    assert_eq!(packed(), want, "{name}: serial packed != scalar oracle");
    set_thread_override(None);
    assert_eq!(packed(), want, "{name}: parallel packed != scalar oracle");

    let mut row = bench(name, flops, runs, packed);
    set_thread_override(Some(1));
    // the oracle is 1-2 orders slower; a few reps bound its min well
    row.oracle_secs = Some(time_secs(&mut || oracle(), 2.max(runs / 8)));
    set_thread_override(None);
    row
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(rows: &[BenchRow], sparse_speedup_r95: f64) {
    let mut out = String::from("{\n  \"benchmark\": \"kernels\",\n  \"unit\": \"seconds\",\n");
    out.push_str(&format!(
        "  \"parallel_threads\": {},\n  \"sparse_speedup_r95\": {sparse_speedup_r95:.3},\n  \"rows\": [\n",
        num_threads()
    ));
    for (i, r) in rows.iter().enumerate() {
        let oracle = match (r.oracle_secs, r.oracle_speedup()) {
            (Some(o), Some(s)) => {
                format!(", \"oracle_secs\": {o:.6e}, \"oracle_speedup\": {s:.3}")
            }
            _ => String::new(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"flops\": {}, \"serial_secs\": {:.6e}, \
             \"parallel_secs\": {:.6e}, \"parallel_threads\": {}, \"speedup\": {:.3}, \
             \"serial_gflops\": {:.2}, \"parallel_gflops\": {:.2}{}}}{}\n",
            json_escape(&r.name),
            r.flops,
            r.serial_secs,
            r.parallel_secs,
            r.parallel_threads,
            r.speedup(),
            r.serial_gflops(),
            r.parallel_gflops(),
            oracle,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write("BENCH_kernels.json", &out).expect("write BENCH_kernels.json");
}

/// One row of a previously committed `BENCH_kernels.json`.
struct BaselineRow {
    name: String,
    flops: u64,
    serial_secs: f64,
}

impl BaselineRow {
    fn serial_gflops(&self) -> f64 {
        2.0 * self.flops as f64 / self.serial_secs / 1e9
    }
}

/// Extracts the number following `"key": ` in `line`, if present.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Minimal line-oriented parse of the bench's own JSON output — each row
/// object sits on one line, so no general JSON parser is needed.
fn read_baseline(path: &str) -> Vec<BaselineRow> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let tag = "\"name\": \"";
            let start = line.find(tag)? + tag.len();
            let name = line[start..].split('"').next()?.to_string();
            Some(BaselineRow {
                name,
                flops: json_num(line, "flops")? as u64,
                serial_secs: json_num(line, "serial_secs")?,
            })
        })
        .filter(|r| r.flops > 0 && r.serial_secs > 0.0)
        .collect()
}

fn main() {
    let smoke = std::env::var("PV_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let baseline_path =
        std::env::var("PV_BENCH_BASELINE").unwrap_or_else(|_| "BENCH_kernels.json".to_string());
    // read before write_json overwrites it
    let baseline = read_baseline(&baseline_path);
    pv_bench::banner(
        "kernels: matmul GFLOP/s + conv throughput, serial vs parallel",
        "packed GEMM routines must stay bitwise identical to the scalar oracle",
    );
    // sub-millisecond GEMM rows need many reps for the min to land in a
    // quiet scheduler window; multi-millisecond conv/e2e rows need fewer.
    // Smoke mode keeps enough reps that the gate compares quiet-window
    // minima, not scheduler noise, against the committed baseline.
    let (gemm_runs, runs) = if smoke { (25, 5) } else { (40, 5) };
    let mut rng = Rng::new(42);
    let mut rows: Vec<BenchRow> = Vec::new();

    // -- matmul flavours at representative shapes ------------------------
    for &(m, k, n) in &[
        (256usize, 256usize, 256usize),
        (1024, 144, 32),
        (512, 512, 64),
    ] {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let flops = (m * k * n) as u64;
        rows.push(bench_gemm(
            &format!("matmul {m}x{k}x{n}"),
            flops,
            gemm_runs,
            || matmul(&a, &b),
            || SCALAR.matmul(&a, &b),
        ));

        let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
        rows.push(bench_gemm(
            &format!("matmul_at_b {k}x{m}x{n}"),
            flops,
            gemm_runs,
            || matmul_at_b(&at, &b),
            || SCALAR.matmul_at_b(&at, &b),
        ));

        let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
        rows.push(bench_gemm(
            &format!("matmul_a_bt {m}x{k}x{n}"),
            flops,
            gemm_runs,
            || matmul_a_bt(&a, &bt),
            || SCALAR.matmul_a_bt(&a, &bt),
        ));
    }

    // -- dense vs CSR at the serving shape, per weight density ------------
    let (m, k, n) = (8usize, 4096usize, 4096usize);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    for density in [0.50, 0.25, 0.15, 0.10, 0.05] {
        let mut w = Tensor::from_fn(&[n, k], |_| {
            if rng.chance(density) {
                rng.uniform_in(-1.0, 1.0)
            } else {
                0.0
            }
        });
        for tag in ["dense", "csr"] {
            if tag == "csr" {
                assert!(w.ensure_csr(1.0), "forced sidecar");
            }
            rows.push(bench_gemm(
                &format!("matmul_a_bt {m}x{k}x{n} d{density:.2} {tag}"),
                (m * k * n) as u64,
                runs,
                || PACKED.matmul_a_bt(&a, &w),
                || SCALAR.matmul_a_bt(&a, &w),
            ));
        }
    }
    let secs = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(f64::NAN, |r| r.serial_secs)
    };
    let sparse_speedup_r95 =
        secs("matmul_a_bt 8x4096x4096 d0.05 dense") / secs("matmul_a_bt 8x4096x4096 d0.05 csr");

    // -- conv layer shapes from the CIFAR stand-in CNN -------------------
    let g = ConvGeometry::new(3, 1, 1);
    for &(nb, c, hw, f) in &[(32usize, 3usize, 16usize, 16usize), (32, 16, 16, 32)] {
        let x = Tensor::rand_uniform(&[nb, c, hw, hw], -1.0, 1.0, &mut rng);
        let wt = Tensor::rand_uniform(&[f, c * 9], -0.5, 0.5, &mut rng);
        let bias = Tensor::zeros(&[f]);
        let (oh, ow) = g.output_size(hw, hw);
        let flops = (nb * oh * ow * f * c * 9) as u64;
        rows.push(bench(
            &format!("conv2d_fwd {nb}x{c}x{hw}x{hw}->{f}"),
            flops,
            runs,
            || conv2d_forward(&x, &wt, &bias, g),
        ));

        let fwd = conv2d_forward(&x, &wt, &bias, g);
        let grad_out = Tensor::rand_uniform(fwd.output.shape(), -1.0, 1.0, &mut rng);
        rows.push(bench(
            &format!("conv2d_bwd {nb}x{c}x{hw}x{hw}->{f}"),
            3 * flops,
            runs,
            || conv2d_backward(&grad_out, &fwd.cols, &wt, c, hw, hw, g),
        ));
    }

    // -- end-to-end forward+backward on the CIFAR stand-in CNN -----------
    let net = models::mini_resnet("bench", (3, 16, 16), 10, 8, 2, 2);
    let x = Tensor::rand_uniform(&[32, 3, 16, 16], 0.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..32).map(|i| i % 10).collect();
    rows.push(bench("mini_resnet fwd+bwd batch32", 0, 3, || {
        let mut n = net.clone();
        n.zero_grads();
        let logits = n.forward(&x, Mode::Train);
        let out = cross_entropy(&logits, &y);
        n.backward(&out.grad_logits)
    }));

    // -- sanity: serial and parallel kernels agree bitwise ---------------
    {
        let a = Tensor::rand_uniform(&[128, 96], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[96, 64], -1.0, 1.0, &mut rng);
        set_thread_override(Some(1));
        let serial = matmul(&a, &b);
        set_thread_override(None);
        let parallel = matmul(&a, &b);
        assert_eq!(serial, parallel, "serial/parallel outputs diverged");
    }

    println!("\nsparse speedup at 95% sparsity (8x4096x4096, dense/CSR): {sparse_speedup_r95:.2}x");
    println!(
        "\n{:<34} {:>12} {:>12} {:>9} {:>10} {:>11}",
        "kernel", "serial", "parallel", "speedup", "GFLOP/s", "vs oracle"
    );
    for r in &rows {
        let gf = if r.flops > 0 {
            format!("{:.2}", r.serial_gflops())
        } else {
            "-".to_string()
        };
        let orc = r
            .oracle_speedup()
            .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
        println!(
            "{:<34} {:>10.3}ms {:>10.3}ms {:>8.2}x {:>10} {:>11}",
            r.name,
            r.serial_secs * 1e3,
            r.parallel_secs * 1e3,
            r.speedup(),
            gf,
            orc
        );
    }

    // -- before/after vs the committed baseline --------------------------
    if baseline.is_empty() {
        println!("\nno readable baseline at {baseline_path}; skipping before/after table");
    } else {
        println!(
            "\n{:<34} {:>13} {:>13} {:>8}   (baseline: {})",
            "kernel", "before GF/s", "after GF/s", "ratio", baseline_path
        );
        for r in rows.iter().filter(|r| r.flops > 0) {
            let before = baseline.iter().find(|b| b.name == r.name);
            let (before_s, ratio_s) = match before {
                Some(b) => {
                    let before_gf = b.serial_gflops();
                    (
                        format!("{before_gf:.2}"),
                        format!("{:.2}x", r.serial_gflops() / before_gf),
                    )
                }
                None => ("-".to_string(), "new".to_string()),
            };
            println!(
                "{:<34} {:>13} {:>13.2} {:>8}",
                r.name,
                before_s,
                r.serial_gflops(),
                ratio_s
            );
        }
    }

    if smoke {
        // regression gate for scripts/check.sh: any row that lost more
        // than 20% of its baseline serial GFLOP/s fails the check
        let mut regressions = Vec::new();
        for b in &baseline {
            let Some(r) = rows.iter().find(|r| r.name == b.name && r.flops > 0) else {
                continue;
            };
            let (before, after) = (b.serial_gflops(), r.serial_gflops());
            if after < 0.8 * before {
                regressions.push(format!(
                    "{}: {before:.2} -> {after:.2} GF/s ({:+.1}%)",
                    b.name,
                    100.0 * (after / before - 1.0)
                ));
            }
        }
        if !regressions.is_empty() {
            eprintln!("\nkernel GFLOP/s regressions > 20% vs {baseline_path}:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        println!(
            "\nsmoke gate passed: no row regressed > 20% vs {} ({} rows checked; JSON not rewritten)",
            baseline_path,
            baseline.len()
        );
    } else {
        write_json(&rows, sparse_speedup_r95);
        println!(
            "\nwrote BENCH_kernels.json ({} threads available)",
            num_threads()
        );
    }
}
