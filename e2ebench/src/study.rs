//! The `study` workload: the researcher's loop of the paper — train a
//! parent and prune–retrain its family (Algorithm 1), rebuild it from the
//! checkpoint cache, then evaluate the family on the shifted test
//! distributions and measure its function distance to the parent.
//!
//! One pass runs, in order: a cold `build_family_with` into an empty
//! `ArtifactCache` (trains, writes checkpoints), a warm rebuild from that
//! cache (reads checkpoints, zero train steps), and `curves_on` over
//! Nominal, AltTestSet, Noise(0.1), Noise(0.2) and the 16 corruptions at
//! severity 3, followed by `noise_similarity` of the parent against each
//! pruned member.

use crate::trace::Layers;
use crate::util::{self, Fnv, Metric};
use crate::Args;
use pruneval::{
    build_family_with, inputs_for, preset, ArtifactCache, Distribution, ExperimentConfig,
    FamilyBuildOptions, Scale, StudyFamily,
};
use pv_data::generate_split;
use pv_metrics::{noise_similarity, NoiseSimilarity, PruneAccuracyCurve};
use pv_nn::{Mode, Network};
use pv_obs::span;
use pv_prune::WeightThresholding;
use pv_tensor::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Epochs per (re)training: cut from the Quick scale's 20 so a pass fits
/// a few times into one run.
const EPOCHS: usize = 2;
/// Prune–retrain cycles (Quick has 6): two pruned members plus the parent
/// still give every curve two points past the parent.
const CYCLES: usize = 2;
/// Noise level and draws of the Sec. 4 function-distance measurement.
const SIM_EPS: f32 = 0.1;
const SIM_REPEATS: usize = 2;
/// Wall time of one pass with its share of the latency forwards on the
/// reference host (2 cores); the run makes `round(seconds / PASS_S)`
/// passes, at least one, so the amount of work is fixed by `--seconds`
/// and identical on every commit.
const PASS_S: f64 = 9.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Seeds map onto this many input sets, each with a committed digest.
pub const SEED_CLASSES: u64 = 16;
/// Forwards per latency stream behind `p50_ms`/`p99_ms`/`max_rps`, and
/// their batch size: with two cores, twelve windows of 1024 for the
/// windowed p99, so bursts of host stalls move a few windows, not the
/// median. The streams run one per core with pv-par off: a forward that
/// hands kernels to a second thread waits whenever the other vCPU of a
/// shared host is busy, which made the p99 of single forwards swing
/// 1.5-3.7x with the neighbours' load.
const LATENCY_FORWARDS: usize = 6144;
const LATENCY_BATCH: usize = 8;

/// Committed digests: `<seed class> <family digest> <curves digest>`.
const GOLDEN: &str = include_str!("../golden/study.txt");

/// The study configuration for a seed: the CLI's default study (resnet20,
/// WT) at the Quick scale's data sizes, with the seed choosing one of
/// [`SEED_CLASSES`] data/initialisation seeds.
pub fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = preset("resnet20", Scale::Quick)
        .expect("resnet20 is a known preset")
        .with_epochs(EPOCHS);
    cfg.cycles = CYCLES;
    cfg.seed = 2021 + seed % SEED_CLASSES;
    cfg
}

/// The evaluation seed (realized noise and corruptions) for a seed.
pub fn eval_seed(seed: u64) -> u64 {
    1 + seed % SEED_CLASSES
}

/// The 20 evaluation distributions, in report order.
pub fn distributions() -> Vec<Distribution> {
    let mut d = vec![
        Distribution::Nominal,
        Distribution::AltTestSet,
        Distribution::Noise(0.1),
        Distribution::Noise(0.2),
    ];
    d.extend(Distribution::all_corruptions_sev3());
    d
}

/// Digest of one network's complete optimizer-visible state.
pub fn network_digest(net: &mut Network, h: &mut Fnv) {
    let feed = |xs: &[f32], h: &mut Fnv| {
        for x in xs {
            h.bytes(&x.to_bits().to_le_bytes());
        }
    };
    net.visit_params_named(&mut |name, p| {
        h.bytes(name.as_bytes());
        feed(p.value.data(), h);
        for t in [&p.mask, &p.velocity].into_iter().flatten() {
            feed(t.data(), h);
        }
    });
    net.visit_buffers_named(&mut |name, buf| {
        h.bytes(name.as_bytes());
        feed(buf, h);
    });
}

/// Per-network digests of a family: parent, separate, then each cycle.
pub fn family_digests(f: &mut StudyFamily) -> Vec<String> {
    let mut nets: Vec<&mut Network> = vec![&mut f.parent, &mut f.separate];
    nets.extend(f.pruned.iter_mut().map(|p| &mut p.network));
    nets.into_iter()
        .map(|n| {
            let mut h = Fnv::default();
            network_digest(n, &mut h);
            h.hex()
        })
        .collect()
}

/// Digest of the curves and similarity results of one pass.
pub fn results_digest(curves: &[PruneAccuracyCurve], sims: &[NoiseSimilarity]) -> String {
    let mut h = Fnv::default();
    for c in curves {
        h.f64(c.unpruned_error_pct);
        for &(r, e) in &c.points {
            h.f64(r).f64(e);
        }
    }
    for s in sims {
        h.f64(s.matching_predictions).f64(s.softmax_l2);
    }
    h.hex()
}

/// The committed `(family, results)` digests for a seed class.
pub fn golden(class: u64) -> Option<(String, String)> {
    GOLDEN.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        let k: u64 = it.next()?.parse().ok()?;
        let fam = it.next()?;
        let res = it.next()?;
        (k == class).then(|| (fam.to_string(), res.to_string()))
    })
}

/// Digest of all per-network digests, for the golden file.
fn combine(digests: &[String]) -> String {
    let mut h = Fnv::default();
    for d in digests {
        h.bytes(d.as_bytes());
    }
    h.hex()
}

/// What the checks of one pass found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Human-readable reasons, one per failed check.
    pub problems: Vec<String>,
}

/// The inputs of one pass's output checks.
pub struct PassOutputs<'a> {
    /// Train steps the warm rebuild made.
    pub warm_steps: u64,
    /// Per-network digests of the cold build.
    pub cold: &'a [String],
    /// Per-network digests of the warm rebuild.
    pub warm: &'a [String],
    /// Digest of the curves and similarities.
    pub results: &'a str,
    /// Grid cells plus similarity pairs the results digest covers.
    pub result_ops: u64,
    /// The committed `(family, results)` digests, if any.
    pub golden: Option<(String, String)>,
}

/// Checks one pass: the warm rebuild trained nothing and reproduced the
/// cold family bit for bit, and both the family and the results match the
/// committed digests. A failed digest fails every operation it covers.
pub fn check_pass(o: &PassOutputs<'_>) -> Checked {
    let mut c = Checked::default();
    let nets = o.cold.len() as u64;
    c.attempted = 1 + 2 * nets + o.result_ops;
    if o.warm_steps != 0 {
        c.failed += 1;
        c.problems
            .push(format!("warm rebuild made {} train steps", o.warm_steps));
    }
    let differing = o.cold.iter().zip(o.warm).filter(|(a, b)| a != b).count() as u64
        + (o.cold.len() as u64).abs_diff(o.warm.len() as u64);
    if differing > 0 {
        c.failed += differing;
        c.problems.push(format!(
            "{differing} warm networks differ from the cold build"
        ));
    }
    match &o.golden {
        None => {
            c.failed += nets + o.result_ops;
            c.problems
                .push("no committed digest for this seed class".into());
        }
        Some((fam, res)) => {
            if combine(o.cold) != *fam {
                c.failed += nets;
                c.problems.push(format!(
                    "family digest {} != committed {fam}",
                    combine(o.cold)
                ));
            }
            if o.results != res {
                c.failed += o.result_ops;
                c.problems
                    .push(format!("results digest {} != committed {res}", o.results));
            }
        }
    }
    c
}

/// Timings of one pass.
struct Pass {
    cold_s: f64,
    curves_s: f64,
    total_s: f64,
    family: StudyFamily,
    checked: Checked,
    /// `(family digest, results digest)` for blessing.
    digests: (String, String),
    /// Checkpoint bytes the cold build wrote (and the warm one read).
    ckpt_bytes: u64,
}

fn run_pass(cfg: &ExperimentConfig, eval_seed: u64, cache_dir: &Path) -> Pass {
    let _ = std::fs::remove_dir_all(cache_dir);
    let cache = ArtifactCache::new(cache_dir);
    let opts = FamilyBuildOptions {
        rep: 0,
        robust: None,
        cache: Some(&cache),
    };
    let dists = distributions();
    let t0 = Instant::now();
    let mut cold = {
        let _s = span("core", "build_cold");
        build_family_with(cfg, &WeightThresholding, &opts).expect("cold family build")
    };
    let cold_s = util::secs(t0);
    let steps0 = pv_nn::train_step_count();
    let mut warm = {
        let _s = span("core", "build_warm");
        build_family_with(cfg, &WeightThresholding, &opts).expect("warm family rebuild")
    };
    let warm_steps = pv_nn::train_step_count() - steps0;
    let ckpt_bytes = util::dir_bytes(cache_dir);
    let t1 = Instant::now();
    let curves = {
        let _s = span("metrics", "curves");
        warm.curves_on(&dists, eval_seed)
    };
    let curves_s = util::secs(t1);
    let sims: Vec<NoiseSimilarity> = {
        let _s = span("metrics", "noise_similarity_all");
        let images = inputs_for(&warm.parent, &warm.test_set);
        let mut parent = warm.parent.clone();
        warm.pruned
            .iter_mut()
            .map(|pm| {
                let mut rng = Rng::new(eval_seed);
                noise_similarity(
                    &mut parent,
                    &mut pm.network,
                    &images,
                    SIM_EPS,
                    SIM_REPEATS,
                    &mut rng,
                )
            })
            .collect()
    };
    let total_s = util::secs(t0);

    let cold_d = family_digests(&mut cold);
    let warm_d = family_digests(&mut warm);
    let results = results_digest(&curves, &sims);
    let grid = ((1 + warm.pruned.len()) * curves.len()) as u64;
    let checked = check_pass(&PassOutputs {
        warm_steps,
        cold: &cold_d,
        warm: &warm_d,
        results: &results,
        result_ops: grid + sims.len() as u64,
        golden: golden(cfg.seed - 2021),
    });
    Pass {
        cold_s,
        curves_s,
        total_s,
        family: warm,
        checked,
        digests: (combine(&cold_d), results),
        ckpt_bytes,
    }
}

/// Prepares a pass's inputs: the seeded data split, the 20 realized
/// evaluation sets and the untrained parent/separate networks. The pass
/// itself derives the same inputs again inside the library calls; this
/// measures what it costs to make them.
fn setup_once(cfg: &ExperimentConfig, eval_seed: u64) -> f64 {
    let t = Instant::now();
    let seed = cfg.rep_seed(0);
    let (train, test) = {
        let _s = span("data", "generate");
        generate_split(&cfg.task, cfg.n_train, cfg.n_test, seed)
    };
    let realized = {
        let _s = span("data", "realize");
        distributions()
            .iter()
            .map(|d| d.realize(&cfg.task, &test, eval_seed))
            .collect::<Vec<_>>()
    };
    let nets = {
        let _s = span("nn", "build");
        [
            cfg.arch.build(&cfg.name, &cfg.task, seed.wrapping_add(11)),
            cfg.arch.build(&cfg.name, &cfg.task, seed.wrapping_add(271)),
        ]
    };
    std::hint::black_box((&train, &realized, &nets));
    util::secs(t)
}

/// Runs the workload and reports every end-to-end metric. With `layers`
/// recording (traced run), also fills the study's per-layer metrics.
pub fn run(args: &Args, layers: &mut Layers) -> crate::Outcome {
    let cfg = config(args.seed);
    let eval_seed = eval_seed(args.seed);
    let scratch = util::scratch_dir("study");
    let passes = ((args.seconds / PASS_S).round() as usize).max(1);

    let wall = Instant::now();
    let root = span("bench", "workload");
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup_once(&cfg, eval_seed))
        .collect();
    let steps0 = pv_nn::train_step_count();
    let mut runs: Vec<Pass> = Vec::with_capacity(passes);
    // small-batch Eval forwards of each pass's trained parent: the latency
    // a user of the studied model would see, spread over the run so slow
    // drift of the host averages out
    let mut latency = Vec::new();
    let mut latency_s = 0.0;
    for i in 0..passes {
        let pass = run_pass(&cfg, eval_seed, &scratch.join(format!("cache{i}")));
        let share = LATENCY_FORWARDS / passes + usize::from(i < LATENCY_FORWARDS % passes);
        let images = inputs_for(&pass.family.parent, &pass.family.test_set);
        {
            let _s = span("nn", "latency_forwards");
            let t = Instant::now();
            latency.extend(stream_latencies_ms(&pass.family.parent, &images, share));
            latency_s += util::secs(t);
        }
        runs.push(pass);
    }
    let train_steps = pv_nn::train_step_count() - steps0;
    let ckpt_bytes: u64 = runs.iter().map(|r| r.ckpt_bytes).sum();
    drop(root);
    let wall_s = util::secs(wall);
    layers.close_window();

    let train_samples = ((2 + cfg.cycles) * cfg.train.epochs * cfg.n_train) as f64;
    let eval_samples = ((1 + cfg.cycles) * distributions().len() * cfg.n_test) as f64;
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    for r in &runs {
        attempted += r.checked.attempted;
        failed += r.checked.failed;
        problems.extend(r.checked.problems.iter().cloned());
    }
    let sorted_latency = util::sorted(&latency);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, value: f64, unit: &'static str| {
        m.insert(k.to_string(), Metric { value, unit });
    };
    put(
        "study_s",
        util::median(&runs.iter().map(|r| r.total_s).collect::<Vec<_>>()),
        "s",
    );
    put(
        "train_samples_per_s",
        util::median(
            &runs
                .iter()
                .map(|r| train_samples / r.cold_s)
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    put(
        "eval_samples_per_s",
        util::median(
            &runs
                .iter()
                .map(|r| eval_samples / r.curves_s)
                .collect::<Vec<_>>(),
        ),
        "1/s",
    );
    put("p50_ms", util::percentile(&sorted_latency, 50.0), "ms");
    put("p99_ms", util::windowed_p99(&latency), "ms");
    put("max_rps", latency.len() as f64 / latency_s, "1/s");
    put(
        "failed_frac",
        util::failure_upper_bound(failed, attempted),
        "frac",
    );
    put("setup_s", util::median(&setup), "s");
    put("peak_rss_mb", util::peak_rss_mb(), "MB");

    if pv_obs::global().is_some() {
        layers.set("nn.train_steps", train_steps as f64);
        layers.set("ckpt.bytes_written", ckpt_bytes as f64);
        // the warm rebuild reads back every checkpoint the cold build wrote
        layers.set("ckpt.bytes_read", ckpt_bytes as f64);
        let curves_s: f64 = runs.iter().map(|r| r.curves_s).sum();
        let n_passes = runs.len() as f64;
        layers.set(
            "nn.eval_us_per_sample",
            curves_s * 1e6 / (eval_samples * n_passes),
        );
        let fam = &mut runs.last_mut().expect("at least one pass").family;
        let grid_flops: f64 = std::iter::once(fam.parent.current_flops())
            .chain(fam.pruned.iter_mut().map(|p| p.network.current_flops()))
            .map(|f| f as f64)
            .sum::<f64>()
            * (distributions().len() * cfg.n_test) as f64;
        layers.set("nn.eval_gflops", grid_flops * n_passes / curves_s / 1e9);
        let images = inputs_for(&fam.parent, &fam.test_set);
        let (b1, b8) = crate::serving::forward_us(&mut fam.parent, &images);
        layers.set("nn.fwd_us.b1", b1);
        layers.set("nn.fwd_us.b8", b8);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    crate::Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        wall_s,
        problems,
        notes: vec![format!(
            "study seed class {}: family {} results {}",
            args.seed % SEED_CLASSES,
            runs[0].digests.0,
            runs[0].digests.1
        )],
    }
}

/// One closed-loop stream of Eval forwards per core, each on its stream's
/// thread with pv-par off (`n` forwards per stream); ms each.
fn stream_latencies_ms(parent: &Network, images: &pv_tensor::Tensor, n: usize) -> Vec<f64> {
    let streams = std::thread::available_parallelism().map_or(1, |c| c.get());
    pv_tensor::par::set_thread_override(Some(1));
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = (0..streams)
            .map(|_| {
                let mut net = parent.clone();
                s.spawn(move || forward_latencies_ms(&mut net, images, n))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("latency stream"))
            .collect()
    });
    pv_tensor::par::set_thread_override(None);
    out
}

/// Times `n` Eval forwards of [`LATENCY_BATCH`] consecutive rows of
/// `images`, ms each.
fn forward_latencies_ms(net: &mut Network, images: &pv_tensor::Tensor, n: usize) -> Vec<f64> {
    let starts = images.dim(0) / LATENCY_BATCH;
    (0..n)
        .map(|i| {
            let r = (i % starts) * LATENCY_BATCH;
            let x = images.slice_first_axis(r, r + LATENCY_BATCH);
            let t = Instant::now();
            std::hint::black_box(net.try_forward_batch(&x, Mode::Eval).expect("forward"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outputs<'a>(cold: &'a [String], warm: &'a [String], results: &'a str) -> PassOutputs<'a> {
        PassOutputs {
            warm_steps: 0,
            cold,
            warm,
            results,
            result_ops: 62,
            golden: Some((combine(cold), "abc".into())),
        }
    }

    #[test]
    fn a_correct_pass_passes() {
        let cold = vec!["1".to_string(), "2".to_string()];
        let c = check_pass(&outputs(&cold, &cold, "abc"));
        assert_eq!(c.failed, 0, "{:?}", c.problems);
        assert_eq!(c.attempted, 1 + 4 + 62);
    }

    #[test]
    fn each_wrong_answer_is_reported() {
        let cold = vec!["1".to_string(), "2".to_string()];
        let warm = vec!["1".to_string(), "3".to_string()];
        assert_eq!(check_pass(&outputs(&cold, &warm, "abc")).failed, 1);
        assert_eq!(check_pass(&outputs(&cold, &cold, "abd")).failed, 62);
        let mut o = outputs(&cold, &cold, "abc");
        o.warm_steps = 8;
        assert_eq!(check_pass(&o).failed, 1);
        let mut o = outputs(&cold, &cold, "abc");
        o.golden = Some(("0".into(), "abc".into()));
        assert_eq!(check_pass(&o).failed, 2);
        o.golden = None;
        assert_eq!(check_pass(&o).failed, 64);
    }

    #[test]
    fn every_seed_class_has_a_committed_digest() {
        for k in 0..SEED_CLASSES {
            assert!(golden(k).is_some(), "seed class {k}");
        }
    }

    #[test]
    fn seeds_pick_distinct_inputs() {
        assert_ne!(config(1).seed, config(2).seed);
        assert_eq!(config(3).seed, config(3 + SEED_CLASSES).seed);
        assert_eq!(distributions().len(), 20);
    }
}
