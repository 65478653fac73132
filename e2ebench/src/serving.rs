//! The `serve_wide` workload: an in-process `serve()` with
//! `ServerConfig::default()` holding the serve bench's wide MLP
//! (256→4096→4096→10) as the dense `parent` and its one-shot WT 90% and
//! 95% members pinned to the sparse backend, driven open loop over PVSR
//! by the pipelined generator, every reply checked against the scalar
//! oracle. Its time goes to streaming the dense weights at batch ≤ 8 and
//! to the CSR kernels.
//!
//! A run serves the whole input pool in bursts (`study_s`), measures
//! latency at the fixed nominal rate, then bisects a fixed geometric
//! ladder of rates for `max_rps`.

use crate::gen::{self, Outcome, Planned, Record, Target};
use crate::trace::Layers;
use crate::util::{self, Metric};
use crate::Args;
use pv_nn::{models, Mode, Network, ParamKind, Schedule, TrainConfig};
use pv_obs::span;
use pv_obs::MonotonicClock;
use pv_prune::{PruneContext, PruneMethod, WeightThresholding};
use pv_serve::protocol::{decode_response, encode_request, encode_response};
use pv_serve::{serve, ModelRegistry, Request, Response, ServerConfig, ServerHandle};
use pv_tensor::{with_backend, Backend, Rng, Tensor, SCALAR, SPARSE};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Offered rate of the latency phase, requests/s: the dense forward is
/// ~70 ms per batch on the reference host.
const NOMINAL_RATE: f64 = 100.0;
/// Share of `--seconds` spent in the latency phase; the rest bisects the
/// ladder.
const NOMINAL_SHARE: f64 = 0.6;
/// Lowest rate of the ladder; rung `i` offers `base · 2^(i/8)`.
const LADDER_BASE: f64 = 64.0;
/// p99 latency limit a ladder rung must meet, ms.
const P99_LIMIT_MS: f64 = 1500.0;
/// Steepest growth of latency over a probe a rung may show, in ms of
/// latency per ms of schedule. A queue fed at `R` above the capacity `C`
/// grows latency at `(R − C) / C`, so a passing rung is at most 10% over
/// capacity however long the probe.
const MAX_BACKLOG_SLOPE: f64 = 0.1;
/// Distinct inputs per model (each has an oracle answer).
const POOL: usize = 8;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Bursts whose median wall time is `study_s`, and the passes over the
/// whole pool each sends.
const BURSTS: usize = 11;
const BURST_PASSES: usize = 4;

/// Ladder rungs: 31 rungs an eighth of an octave (9%) apart span 2^3.75
/// (64 to 861 rps), and bisection over them takes exactly five probes.
const RUNGS: usize = 31;
const PROBES: usize = 5;

/// The rate of ladder rung `i`.
pub fn rung_rate(i: usize) -> f64 {
    LADDER_BASE * 2f64.powf(i as f64 / 8.0)
}

/// One set-up's product: the registry to serve and each model's input
/// pool.
struct Prepared {
    registry: ModelRegistry,
    inputs: Vec<Vec<Tensor>>,
}

/// The serve bench's wide parent and its WT 90% / 95% members, the
/// members pinned to the sparse backend (which builds their CSR sidecars
/// at admission).
fn prepare(seed: u64) -> Prepared {
    let parent = {
        let _s = span("nn", "build");
        models::mlp("parent", 256, &[4096, 4096], 10, false, 7)
    };
    let member = |ratio: f64| {
        let mut net = parent.clone();
        let _s = span("prune", "prune");
        WeightThresholding.prune(&mut net, ratio, &PruneContext::data_free());
        net
    };
    let (wt90, wt95) = (member(0.9), member(0.95));
    let mut registry = ModelRegistry::new();
    {
        let _s = span("serve", "admit");
        registry.insert("parent", parent).expect("admit parent");
        registry.insert("wt90", wt90).expect("admit wt90");
        registry.insert("wt95", wt95).expect("admit wt95");
        registry.set_backend("wt90", &SPARSE).expect("pin wt90");
        registry.set_backend("wt95", &SPARSE).expect("pin wt95");
    }
    let mut rng = Rng::new(seed ^ 0x5749_4445);
    let pool: Vec<Tensor> = (0..POOL)
        .map(|_| Tensor::rand_uniform(&[256], -1.0, 1.0, &mut rng))
        .collect();
    Prepared {
        inputs: vec![pool; 3],
        registry,
    }
}

/// A served model as the benchmark sees it: a private clone for direct
/// forwards, and its pinned backend.
struct Model {
    net: Network,
    backend: Option<&'static dyn Backend>,
}

impl Model {
    fn of(registry: &ModelRegistry, id: &str) -> Self {
        Self {
            net: registry.get(id).expect("registered model").clone(),
            backend: registry
                .backend_name(id)
                .and_then(pv_tensor::backend_by_name),
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let net = &mut self.net;
        let mut run = || {
            net.try_forward_batch(x, Mode::Eval)
                .expect("direct forward")
        };
        match self.backend {
            Some(b) => with_backend(b, run),
            None => run(),
        }
    }
}

fn stack(xs: &[Tensor]) -> Tensor {
    let mut shape = vec![xs.len()];
    shape.extend_from_slice(xs[0].shape());
    let data: Vec<f32> = xs.iter().flat_map(|x| x.data().iter().copied()).collect();
    Tensor::from_vec(shape, data)
}

/// The scalar oracle's logits for every pooled input, as raw bits.
fn oracle(m: &mut Model, pool: &[Tensor]) -> Vec<Vec<u32>> {
    let net = &mut m.net;
    let logits = with_backend(&SCALAR, || {
        net.try_forward_batch(&stack(pool), Mode::Eval)
            .expect("oracle forward")
    });
    (0..pool.len())
        .map(|i| {
            let row = logits.slice_first_axis(i, i + 1);
            row.data().iter().map(|x| x.to_bits()).collect()
        })
        .collect()
}

/// Wall times of direct forwards of `x`, ms: at least `min_reps` of them
/// and at least `min_ms` of forwarding, so a fast model is timed over
/// enough calls to ride out scheduler noise.
fn forward_times(m: &mut Model, x: &Tensor, min_reps: usize, min_ms: f64) -> Vec<f64> {
    let mut t = Vec::new();
    let mut total = 0.0;
    while t.len() < min_reps || total < min_ms {
        let start = Instant::now();
        std::hint::black_box(m.forward(x));
        let ms = util::secs(start) * 1e3;
        total += ms;
        t.push(ms);
    }
    t
}

/// Median wall time of direct forwards of `x`, ms (see [`forward_times`]).
fn forward_ms(m: &mut Model, x: &Tensor, min_reps: usize, min_ms: f64) -> f64 {
    util::median(&forward_times(m, x, min_reps, min_ms))
}

/// Median batch-1 and batch-8 Eval forward times of `net` over the first
/// rows of `images`, µs.
pub fn forward_us(net: &mut Network, images: &Tensor) -> (f64, f64) {
    let mut m = Model {
        net: net.clone(),
        backend: None,
    };
    let b1 = forward_ms(&mut m, &images.slice_first_axis(0, 1), 21, 200.0);
    let b8 = forward_ms(&mut m, &images.slice_first_axis(0, 8), 21, 200.0);
    (b1 * 1e3, b8 * 1e3)
}

/// Direct-forward measurements of the served models, taken once per
/// process before the first server starts: in the untraced run they must
/// not hold model copies while serving (that would inflate
/// `peak_rss_mb`), and in the traced run they must not mix their kernel
/// calls into the measured window.
#[derive(Debug, Clone, Default)]
pub struct Direct {
    /// Oracle logits `[model][input]` as raw bits.
    expected: Vec<Vec<Vec<u32>>>,
    /// Samples per second of batch-8 forwards over every model.
    eval_samples_per_s: f64,
    /// Training throughput of the wide parent's architecture.
    train_samples_per_s: f64,
    /// `[model][b-1]`: median forward time at batch `b`, ms.
    batch_ms: Vec<Vec<f64>>,
    /// Wide parent weight GB/s at batch 1 and 8.
    wide_gbps: [f64; 2],
    /// WT 95% member's CSR forward at batch 8, ms.
    csr_b8_ms: f64,
}

/// Measures [`Direct`] on private clones of the registry's models, one
/// model at a time. The per-layer tables are only taken when `traced`.
fn measure_direct(
    registry: &ModelRegistry,
    inputs: &[Vec<Tensor>],
    seed: u64,
    traced: bool,
) -> Direct {
    let mut d = Direct::default();
    let mut b8_ms = 0.0;
    for (i, id) in registry.ids().iter().enumerate() {
        let mut m = Model::of(registry, id);
        let pool = &inputs[i];
        d.expected.push(oracle(&mut m, pool));
        // the fastest of the forwards: host interference only ever adds
        // time, so the minimum is the steadiest figure of the model's speed
        let times = forward_times(&mut m, &stack(&pool[..8]), 9, 600.0);
        b8_ms += times.iter().copied().fold(f64::INFINITY, f64::min);
        if *id == "parent" {
            d.train_samples_per_s = train_probe(&m.net, seed);
        }
        if !traced {
            continue;
        }
        d.batch_ms.push(
            (1..=8)
                .map(|b| forward_ms(&mut m, &stack(&pool[..b]), 3, 150.0))
                .collect(),
        );
        if *id == "parent" {
            // weight bytes streamed per forward, from the tensor sizes
            let mut weights = 0usize;
            m.net.visit_params(&mut |p| {
                if p.kind == ParamKind::Weight {
                    weights += p.value.len();
                }
            });
            let bytes = (weights * 4) as f64;
            for (slot, b) in [(0, 1), (1, 8)] {
                let ms = forward_ms(&mut m, &stack(&pool[..b]), 5, 300.0);
                d.wide_gbps[slot] = bytes / (ms / 1e3) / 1e9;
            }
        } else if *id == "wt95" {
            d.csr_b8_ms = forward_ms(&mut m, &stack(&pool[..8]), 5, 300.0);
        }
    }
    d.eval_samples_per_s = (8 * registry.len()) as f64 / (b8_ms / 1e3);
    d
}

/// Training throughput of the wide parent's architecture: seven single
/// SGD steps at batch 64 on seeded samples, on a clone (the served
/// weights are untouched); the fastest step's samples per second, as for
/// the direct forwards.
fn train_probe(parent: &Network, seed: u64) -> f64 {
    let mut net = parent.clone();
    let mut rng = Rng::new(seed ^ 0x5452_4149);
    let n = 64;
    let x = Tensor::rand_uniform(&[n, 256], -1.0, 1.0, &mut rng);
    let y: Vec<usize> = (0..n).map(|_| rng.below(10)).collect();
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: n,
        schedule: Schedule::constant(0.01),
        momentum: 0.9,
        nesterov: false,
        weight_decay: 0.0,
        seed,
    };
    (0..7)
        .map(|_| {
            let t = Instant::now();
            pv_nn::train(&mut net, &x, &y, &cfg, None);
            n as f64 / util::secs(t)
        })
        .fold(0.0, f64::max)
}

/// Outcome counts of a phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    busy: u64,
    mismatch: u64,
    failed: u64,
}

impl Counts {
    fn of(records: &[Record]) -> Self {
        let mut c = Self::default();
        for r in records {
            match r.outcome {
                Outcome::Ok => {}
                Outcome::Busy => c.busy += 1,
                Outcome::Mismatch => c.mismatch += 1,
                Outcome::Failed => c.failed += 1,
            }
        }
        c
    }

    fn bad(&self) -> u64 {
        self.busy + self.mismatch + self.failed
    }

    fn add(&mut self, o: Self) {
        self.busy += o.busy;
        self.mismatch += o.mismatch;
        self.failed += o.failed;
    }
}

/// Latencies of a phase in due order, ms. A request that did not come
/// back `Ok` and correct counts as missing every limit: it is charged the
/// phase's whole length.
fn latencies(records: &[Record]) -> Vec<f64> {
    let phase_ms = records.iter().map(|r| r.done_ns).max().unwrap_or(0) as f64 / 1e6;
    records
        .iter()
        .map(|r| match r.outcome {
            Outcome::Ok => r.latency_ms(),
            _ => phase_ms.max(r.latency_ms()),
        })
        .collect()
}

/// How late the generator sent, p99 over a phase, ms.
fn lag_p99(records: &[Record]) -> f64 {
    util::percentile(
        &util::sorted(&records.iter().map(Record::lag_ms).collect::<Vec<_>>()),
        99.0,
    )
}

/// Growth of latency over a phase: the least-squares slope of each
/// request's latency against its due time, ms per ms.
fn backlog_slope(records: &[Record]) -> f64 {
    let n = records.len() as f64;
    let xs: Vec<f64> = records.iter().map(|r| r.plan.due_ns as f64 / 1e6).collect();
    let ys: Vec<f64> = records.iter().map(Record::latency_ms).collect();
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if var > 0.0 {
        cov / var
    } else {
        0.0
    }
}

/// What a ladder probe found.
#[derive(Debug, Clone, Copy)]
struct Probe {
    p99_ms: f64,
    slope: f64,
    bad: u64,
}

impl Probe {
    fn of(records: &[Record]) -> Self {
        Self {
            p99_ms: util::percentile(&util::sorted(&latencies(records)), 99.0),
            slope: backlog_slope(records),
            bad: Counts::of(records).bad(),
        }
    }

    /// Every reply correct, p99 within the limit, and no growing backlog.
    fn passes(&self) -> bool {
        self.bad == 0 && self.p99_ms <= P99_LIMIT_MS && self.slope <= MAX_BACKLOG_SLOPE
    }
}

/// Runs the workload end to end. `direct` carries the direct-forward
/// measurements across the untraced and traced runs of one process.
pub fn run(args: &Args, layers: &mut Layers, direct: &mut Option<Direct>) -> crate::Outcome {
    let wall = Instant::now();
    let mut direct_s = 0.0;
    let root = span("bench", "workload");
    // set up `SETUP_REPS` times, each starting a server that the next one
    // replaces; the last is measured
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(ServerHandle, Vec<String>, Vec<Vec<Tensor>>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((mut previous, _, _)) = kept.take() {
            let _s = span("serve", "shutdown");
            previous.shutdown();
        }
        let t = Instant::now();
        let p = prepare(args.seed);
        let mut took = util::secs(t);
        if rep + 1 == SETUP_REPS && direct.is_none() {
            let t = Instant::now();
            *direct = Some(measure_direct(
                &p.registry,
                &p.inputs,
                args.seed,
                args.trace,
            ));
            direct_s = util::secs(t);
        }
        let ids: Vec<String> = p.registry.ids().iter().map(|s| s.to_string()).collect();
        let t = Instant::now();
        let handle = {
            let _s = span("serve", "start");
            serve(
                p.registry,
                ServerConfig::default(),
                Arc::new(MonotonicClock::new()),
            )
            .expect("server starts")
        };
        took += util::secs(t);
        setup_s.push(took);
        kept = Some((handle, ids, p.inputs));
    }
    let (mut handle, ids, inputs) = kept.expect("at least one set-up");
    let direct = direct
        .as_ref()
        .expect("measured before the last server started");

    let frames: Vec<Vec<Vec<u8>>> = ids
        .iter()
        .zip(&inputs)
        .map(|(id, pool)| {
            pool.iter()
                .map(|x| {
                    encode_request(&Request {
                        model: id.clone(),
                        input: x.clone(),
                    })
                    .expect("encode request")
                })
                .collect()
        })
        .collect();
    let target = Target {
        addr: handle.addr(),
        frames: &frames,
        expected: &direct.expected,
        max_inflight: ServerConfig::default().max_inflight_per_conn,
    };

    let measured = Instant::now();
    // every (model, input) pair of the pool, BURST_PASSES times, all due
    // at once: the workload's fixed unit of work, and the server's warm-up
    let n_models = ids.len();
    let burst: Vec<Planned> = (0..BURST_PASSES * n_models)
        .flat_map(|k| {
            (0..POOL).map(move |input| Planned {
                due_ns: 0,
                model: k % n_models,
                input,
            })
        })
        .collect();
    let mut bursts = Vec::with_capacity(BURSTS);
    let mut burst_counts = Counts::default();
    for _ in 0..BURSTS {
        let records = {
            let _s = span("gen", "burst");
            gen::run(&target, &burst)
        };
        burst_counts.add(Counts::of(&records));
        bursts.push(records.iter().map(|r| r.done_ns).max().unwrap_or(0) as f64 / 1e9);
    }

    let nominal_count = (NOMINAL_RATE * args.seconds * NOMINAL_SHARE).round() as usize;
    let mut rng = Rng::new(args.seed ^ 0x4e4f_4d49);
    let plan = gen::poisson_plan(
        NOMINAL_RATE,
        nominal_count.max(1),
        ids.len(),
        POOL,
        &mut rng,
    );
    let nominal = {
        let _s = span("gen", "nominal");
        gen::run(&target, &plan)
    };
    // five bisection probes, each possibly retried, share the rest of the
    // run
    let probe_s = args.seconds * (1.0 - NOMINAL_SHARE) / (2 * PROBES) as f64;
    let (mut lo, mut hi) = (-1i64, RUNGS as i64);
    let mut ladder_counts = Counts::default();
    let mut ladder_sent = 0u64;
    let mut probes = Vec::new();
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = rung_rate(mid as usize);
        let count = ((rate * probe_s).round() as usize).max(20);
        // a rung that fails is tried once more with a fresh schedule, so
        // one scheduler stall cannot send the bisection down
        let mut passed = false;
        for attempt in 0..2u64 {
            let mut rng = Rng::new(args.seed ^ (0x4c41_4444 + 1000 * attempt + mid as u64));
            let plan: Vec<Planned> = gen::poisson_plan(rate, count, ids.len(), POOL, &mut rng);
            let records = {
                let _s = span("gen", "probe");
                gen::run(&target, &plan)
            };
            ladder_counts.add(Counts::of(&records));
            ladder_sent += records.len() as u64;
            let probe = Probe::of(&records);
            probes.push(format!(
                "{rate:.0} rps: p99 {:.0} ms, slope {:.3}{}",
                probe.p99_ms,
                probe.slope,
                if probe.passes() { "" } else { " FAIL" }
            ));
            if probe.passes() {
                passed = true;
                break;
            }
        }
        if passed {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    {
        let _s = span("serve", "shutdown");
        handle.shutdown();
    }
    drop(root);
    // the direct measurements are the benchmark's, not the workload's:
    // kept out of the wall time the traced run is compared against
    let wall_s = util::secs(wall) - direct_s;
    let measured_s = util::secs(measured);
    layers.close_window();

    let nom = Counts::of(&nominal);
    let lat = latencies(&nominal);
    let max_rps = if lo >= 0 {
        rung_rate(lo as usize)
    } else {
        // below the ladder: one rung under its first
        rung_rate(0) / 2f64.powf(1.0 / 8.0)
    };
    let mut all = nom;
    all.add(burst_counts);
    all.add(ladder_counts);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, value: f64, unit: &'static str| {
        m.insert(k.to_string(), Metric { value, unit });
    };
    put("study_s", util::median(&bursts), "s");
    put("train_samples_per_s", direct.train_samples_per_s, "1/s");
    put("eval_samples_per_s", direct.eval_samples_per_s, "1/s");
    put("p50_ms", util::percentile(&util::sorted(&lat), 50.0), "ms");
    put("p99_ms", util::windowed_p99(&lat), "ms");
    put("max_rps", max_rps, "1/s");
    put(
        "failed_frac",
        util::failure_upper_bound(nom.bad(), nominal.len() as u64),
        "frac",
    );
    put("setup_s", util::median(&setup_s), "s");
    put("peak_rss_mb", util::peak_rss_mb(), "MB");

    if pv_obs::global().is_some() {
        record_layers(layers, &ids, &inputs, &nominal, all, direct);
    }
    let mut problems = Vec::new();
    if all.bad() > 0 {
        problems.push(format!(
            "{} busy, {} mismatched, {} failed replies",
            all.busy, all.mismatch, all.failed
        ));
    }
    crate::Outcome {
        correct: all.mismatch == 0 && all.failed == 0 && nom.busy == 0,
        attempted: (BURSTS * burst.len() + nominal.len()) as u64 + ladder_sent,
        failed: all.bad(),
        metrics: m,
        wall_s,
        problems,
        notes: vec![
            format!(
                "serve_wide: nominal {} requests at {NOMINAL_RATE} rps (p{} supported, send lag p99 {:.2} ms), max_rps {max_rps:.1}, measured {measured_s:.1} s",
                nominal.len(),
                util::highest_supported_percentile(nominal.len()),
                lag_p99(&nominal),
            ),
            format!("serve_wide ladder: {}", probes.join("; ")),
        ],
    }
}

/// The workload's per-layer metrics.
fn record_layers(
    layers: &mut Layers,
    ids: &[String],
    inputs: &[Vec<Tensor>],
    nominal: &[Record],
    all: Counts,
    direct: &Direct,
) {
    layers.set(
        "serve.csr_sidecars",
        layers.counter("serve/csr_sidecars") / SETUP_REPS as f64,
    );
    layers.set("nn.train_steps", layers.counter("train/steps"));
    layers.set("serve.busy", all.busy as f64);
    layers.set("serve.failed", all.failed as f64);
    layers.set("serve.mismatch", all.mismatch as f64);
    layers.set("gen.lag_ms.p99", lag_p99(nominal));
    layers.set("tensor.wide_fwd_gbps.b1", direct.wide_gbps[0]);
    layers.set("tensor.wide_fwd_gbps.b8", direct.wide_gbps[1]);
    layers.set("tensor.csr_fwd_ms.b8", direct.csr_b8_ms);
    // the public codec, per frame
    let reps = 20;
    let requests: Vec<Request> = ids
        .iter()
        .zip(inputs)
        .flat_map(|(id, pool)| {
            pool.iter().map(|x| Request {
                model: id.clone(),
                input: x.clone(),
            })
        })
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        for r in &requests {
            std::hint::black_box(encode_request(r).expect("encode"));
        }
    }
    layers.set(
        "serve.encode_us",
        util::secs(t) * 1e6 / (reps * requests.len()) as f64,
    );
    let replies: Vec<Vec<u8>> = direct
        .expected
        .iter()
        .flatten()
        .map(|bits| {
            let logits = Tensor::from_vec(
                vec![bits.len()],
                bits.iter().map(|&b| f32::from_bits(b)).collect(),
            );
            encode_response(&Response::ok(logits, 1)).expect("encode reply")
        })
        .collect();
    let t = Instant::now();
    for _ in 0..reps {
        for r in &replies {
            std::hint::black_box(decode_response(&r[4..]).expect("decode"));
        }
    }
    layers.set(
        "serve.decode_us",
        util::secs(t) * 1e6 / (reps * replies.len()) as f64,
    );

    // batch sizes the server formed, and latency beyond the direct forward
    let served: Vec<&Record> = nominal
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .collect();
    let mut hist = [0u64; 8];
    for r in &served {
        hist[(r.batch.clamp(1, 8) - 1) as usize] += 1;
    }
    for (i, n) in hist.iter().enumerate() {
        layers.set(&format!("serve.batch_hist.b{}", i + 1), *n as f64);
    }
    if !served.is_empty() {
        let mean = served.iter().map(|r| f64::from(r.batch)).sum::<f64>() / served.len() as f64;
        layers.set("serve.batch_mean", mean);
        let over = util::sorted(
            &served
                .iter()
                .map(|r| {
                    r.latency_ms()
                        - direct.batch_ms[r.plan.model][(r.batch.clamp(1, 8) - 1) as usize]
                })
                .collect::<Vec<_>>(),
        );
        layers.set("serve.overhead_ms.p50", util::percentile(&over, 50.0));
        layers.set("serve.overhead_ms.p99", util::percentile(&over, 99.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(due_ms: u64, done_ms: u64, outcome: Outcome) -> Record {
        Record {
            plan: Planned {
                due_ns: due_ms * 1_000_000,
                model: 0,
                input: 0,
            },
            sent_ns: due_ms * 1_000_000,
            done_ns: done_ms * 1_000_000,
            outcome,
            batch: 1,
        }
    }

    #[test]
    fn a_wrong_or_refused_reply_fails_the_probe_and_the_latency() {
        let good: Vec<Record> = (0..100)
            .map(|i| record(i * 10, i * 10 + 2, Outcome::Ok))
            .collect();
        assert!(Probe::of(&good).passes());
        for bad in [Outcome::Mismatch, Outcome::Busy, Outcome::Failed] {
            let mut rs = good.clone();
            rs[50].outcome = bad;
            assert!(!Probe::of(&rs).passes(), "{bad:?}");
            assert_eq!(Counts::of(&rs).bad(), 1);
            // charged the whole phase, so it misses any limit
            assert!(latencies(&rs)[50] >= 992.0);
        }
    }

    #[test]
    fn a_rung_at_twice_capacity_fails_on_its_backlog() {
        // a 1 s probe offered at 2 C: the queue, and with it latency,
        // grows by (R - C) / C = 1 ms per ms of schedule, yet its p99 stays
        // far inside the limit
        let base = 70;
        let rs: Vec<Record> = (0..400)
            .map(|i| {
                let due = i * 5 / 2;
                record(due, due + base + due, Outcome::Ok)
            })
            .collect();
        let probe = Probe::of(&rs);
        assert!(probe.p99_ms <= P99_LIMIT_MS, "{probe:?}");
        assert!((probe.slope - 1.0).abs() < 1e-9, "{probe:?}");
        assert!(!probe.passes());
        // 5% over capacity grows too slowly to fail
        let rs: Vec<Record> = (0..600)
            .map(|i| {
                let due = i * 5 / 2;
                record(due, due + base + due / 20, Outcome::Ok)
            })
            .collect();
        assert!(Probe::of(&rs).passes());
    }

    #[test]
    fn a_steady_noisy_probe_passes() {
        // latency jumps between 70 and 210 ms with no trend
        let rs: Vec<Record> = (0..600)
            .map(|i| {
                let due = i * 5 / 2;
                record(due, due + 70 + 140 * ((i * 7919) % 2), Outcome::Ok)
            })
            .collect();
        let probe = Probe::of(&rs);
        assert!(probe.slope.abs() < 0.02, "{probe:?}");
        assert!(probe.passes());
    }

    #[test]
    fn ladder_is_geometric_and_five_probes_deep() {
        assert!((rung_rate(8) - 2.0 * LADDER_BASE).abs() < 1e-9);
        let (mut lo, hi, mut probes) = (-1i64, RUNGS as i64, 0);
        while hi - lo > 1 {
            lo = (lo + hi) / 2;
            probes += 1;
        }
        assert_eq!(probes, PROBES);
    }
}
