//! Subcommand implementations.
//!
//! Every command returns the workspace-wide [`Error`]: unknown names map to
//! [`Error::UnknownPreset`] / [`Error::UnknownMethod`], bad flag values to
//! [`Error::Parse`], filesystem failures to [`Error::Io`], and a damaged
//! checkpoint surfaces as [`Error::CorruptCheckpoint`] or
//! [`Error::ShapeMismatch`] — `main` renders them uniformly.

use crate::args::ParsedArgs;
use pruneval::{
    build_family_with, build_seg_family, load_family, preset, save_family, try_inputs_for,
    ArtifactCache, Distribution, Error, ExperimentConfig, FamilyBuildOptions, Scale,
    SegExperimentConfig, StudyFamily,
};
use pv_data::{generate, write_pgm, Corruption, TaskSpec};
use pv_metrics::TextTable;
use pv_prune::{all_methods, method_by_name, PruneMethod};
use pv_tensor::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const PRESETS: [&str; 9] = [
    "resnet20",
    "resnet56",
    "resnet110",
    "vgg16",
    "densenet22",
    "wrn16-8",
    "resnet18",
    "resnet101",
    "mlp",
];

fn scale_of(args: &ParsedArgs) -> Result<Scale, Error> {
    match args.get_or("scale", "") {
        "" => Ok(Scale::from_env()),
        "smoke" => Ok(Scale::Smoke),
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        other => Err(Error::Parse(format!("--scale: unknown scale '{other}'"))),
    }
}

fn method_of(args: &ParsedArgs) -> Result<Box<dyn PruneMethod>, Error> {
    let name = args.get_or("method", "WT");
    method_by_name(name).ok_or_else(|| Error::UnknownMethod(name.to_string()))
}

fn preset_of(args: &ParsedArgs, scale: Scale) -> Result<(String, ExperimentConfig), Error> {
    let model = args.get_or("model", "resnet20");
    let cfg = preset(model, scale).ok_or_else(|| Error::UnknownPreset(model.to_string()))?;
    Ok((model.to_string(), cfg))
}

/// The artifact cache selected by `--cache-dir <dir>`, if any.
fn cache_of(args: &ParsedArgs) -> Option<ArtifactCache> {
    args.options.get("cache-dir").map(ArtifactCache::new)
}

/// Builds (or resumes from the cache) the family a command operates on.
///
/// Timing comes from the pv-obs clock (a span plus its printed duration),
/// so the console report and `--trace` output measure the same interval.
fn family_of(
    cfg: &ExperimentConfig,
    method: &dyn PruneMethod,
    rep: usize,
    cache: Option<&ArtifactCache>,
) -> Result<StudyFamily, Error> {
    let t0_ns = pv_obs::now_ns();
    let opts = FamilyBuildOptions {
        rep,
        robust: None,
        cache,
    };
    let family = {
        let _span = pv_obs::span("cli", "family_of");
        build_family_with(cfg, method, &opts)?
    };
    let elapsed = Duration::from_nanos(pv_obs::now_ns().saturating_sub(t0_ns));
    match cache {
        Some(c) => println!(
            "family ready in {elapsed:.1?} (cache: {})\n",
            c.root().display()
        ),
        None => println!("family built in {elapsed:.1?}\n"),
    }
    Ok(family)
}

/// `pruneval list`.
pub fn list() -> Result<(), Error> {
    println!("model presets:");
    for p in PRESETS {
        println!("  {p}");
    }
    println!("\npruning methods (paper Table 1):");
    for m in all_methods() {
        println!(
            "  {:<5} {} {}",
            m.name(),
            if m.is_structured() {
                "structured  "
            } else {
                "unstructured"
            },
            if m.is_data_informed() {
                "data-informed"
            } else {
                "data-free"
            },
        );
    }
    println!("\ncorruptions (severity 1..=5):");
    for c in Corruption::ALL {
        println!("  {:<11} ({:?})", c.name(), c.category());
    }
    Ok(())
}

/// `pruneval study`.
pub fn study(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let method = method_of(args)?;
    println!(
        "study: {model} / {} at {scale:?} ({} train samples, {} epochs, {} cycles)",
        method.name(),
        cfg.n_train,
        cfg.train.epochs,
        cfg.cycles
    );
    let mut family = family_of(&cfg, method.as_ref(), 0, cache_of(args).as_ref())?;

    let nominal = family.curve_on(&Distribution::Nominal, 1);
    let mut table = TextTable::new(&["PR %", "FR %", "test error %"]);
    table.try_add_row(vec![
        "0.0".into(),
        "0.0".into(),
        format!("{:.2}", nominal.unpruned_error_pct),
    ])?;
    for (pm, (r, e)) in family.pruned.iter().zip(&nominal.points) {
        table.try_add_row(vec![
            format!("{:.1}", 100.0 * r),
            format!("{:.1}", 100.0 * pm.flop_reduction),
            format!("{e:.2}"),
        ])?;
    }
    println!("{}", table.render());

    let delta = args.get_num("delta", cfg.delta_pct)?;
    println!("prune potential (delta {delta}%):");
    let mut dists = vec![
        Distribution::Nominal,
        Distribution::AltTestSet,
        Distribution::Noise(0.2),
    ];
    dists.extend([
        Distribution::Corruption(Corruption::Gauss, 3),
        Distribution::Corruption(Corruption::Fog, 3),
        Distribution::Corruption(Corruption::Jpeg, 3),
    ]);
    for d in &dists {
        let p = family.potential_on(d, delta, 1);
        println!("  {:<14} {:5.1}%", d.label(), 100.0 * p);
    }

    // per-class impact (Hooker et al.'s "selective brain damage") of the
    // most heavily pruned still-commensurate model (skip with --no-classes)
    let p_nominal = nominal.prune_potential(delta);
    if args.has("no-classes") {
        return write_csv(args, &family, &nominal);
    }
    if let Some(idx) = family
        .pruned
        .iter()
        .rposition(|pm| pm.achieved_ratio <= p_nominal + 1e-9)
    {
        let test = family.test_set.clone();
        let images = try_inputs_for(&family.parent, &test)?;
        let ratio = family.pruned[idx].achieved_ratio;
        let mut pruned_net = family.pruned[idx].network.clone();
        let impact =
            pv_metrics::class_impact(&mut family.parent, &mut pruned_net, &images, test.labels());
        println!(
            "\nper-class error delta at PR {:.1}% (aggregate {:+.2} pts):",
            100.0 * ratio,
            impact.aggregate_delta
        );
        for (class, d) in impact.deltas.iter().enumerate() {
            println!("  class {class}: {d:+.2} pts");
        }
        let hit = impact.disproportionate(2.0);
        if !hit.is_empty() {
            println!("  disproportionately affected classes: {hit:?}");
        }
    }

    write_csv(args, &family, &nominal)
}

/// Writes the nominal curve as CSV when `--csv <path>` was given.
fn write_csv(
    args: &ParsedArgs,
    family: &StudyFamily,
    nominal: &pv_metrics::PruneAccuracyCurve,
) -> Result<(), Error> {
    if let Some(path) = args.options.get("csv") {
        let mut csv = TextTable::new(&["prune_ratio", "flop_reduction", "test_error_pct"]);
        csv.try_add_row(vec![
            "0".into(),
            "0".into(),
            format!("{}", nominal.unpruned_error_pct),
        ])?;
        for (pm, (r, e)) in family.pruned.iter().zip(&nominal.points) {
            csv.try_add_row(vec![
                r.to_string(),
                pm.flop_reduction.to_string(),
                e.to_string(),
            ])?;
        }
        std::fs::write(path, csv.to_csv()).map_err(|e| Error::io(path, e))?;
        println!("\ncurve written to {path}");
    }
    Ok(())
}

/// `pruneval fig2`: the paper's Figure 2 — one family's prune-accuracy
/// curves on the nominal and shifted test distributions, side by side.
///
/// Defaults to the Smoke scale and an artifact cache under
/// `target/pv-cache` (pass `--cache-dir off` to disable), so the command
/// doubles as the observability demo: `pruneval fig2 --trace out.json`
/// emits a chrome trace with nested spans from core/nn/tensor plus loss
/// and cache-hit counter series.
pub fn fig2(args: &ParsedArgs) -> Result<(), Error> {
    let scale = if args.has("scale") {
        scale_of(args)?
    } else {
        Scale::Smoke
    };
    let (model, cfg) = preset_of(args, scale)?;
    let method = method_of(args)?;
    let cache = match args.get_or("cache-dir", "target/pv-cache") {
        "off" => None,
        dir => Some(ArtifactCache::new(dir)),
    };
    println!(
        "fig2: {model} / {} at {scale:?} — prune-accuracy curves across distributions",
        method.name()
    );
    let mut family = family_of(&cfg, method.as_ref(), 0, cache.as_ref())?;

    let dists = [
        Distribution::Nominal,
        Distribution::AltTestSet,
        Distribution::Noise(0.1),
    ];
    let curves: Vec<_> = dists.iter().map(|d| family.curve_on(d, 1)).collect();
    let header: Vec<String> = std::iter::once("PR %".to_string())
        .chain(dists.iter().map(|d| format!("{} err %", d.label())))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TextTable::new(&header_refs);
    let unpruned: Vec<String> = std::iter::once("0.0".to_string())
        .chain(
            curves
                .iter()
                .map(|c| format!("{:.2}", c.unpruned_error_pct)),
        )
        .collect();
    table.try_add_row(unpruned)?;
    for (i, pm) in family.pruned.iter().enumerate() {
        let row: Vec<String> = std::iter::once(format!("{:.1}", 100.0 * pm.achieved_ratio))
            .chain(curves.iter().map(|c| format!("{:.2}", c.points[i].1)))
            .collect();
        table.try_add_row(row)?;
    }
    println!("{}", table.render());

    let delta = args.get_num("delta", cfg.delta_pct)?;
    println!("prune potential (delta {delta}%):");
    for (d, c) in dists.iter().zip(&curves) {
        println!(
            "  {:<14} {:5.1}%",
            d.label(),
            100.0 * c.prune_potential(delta)
        );
    }
    Ok(())
}

/// `pruneval potential`.
pub fn potential(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let method = method_of(args)?;
    let dist: Distribution = args.get_or("dist", "nominal").parse()?;
    let delta = args.get_num("delta", cfg.delta_pct)?;
    let mut family = family_of(&cfg, method.as_ref(), 0, cache_of(args).as_ref())?;
    let curve = family.curve_on(&dist, 1);
    println!("{model} / {} on {}:", method.name(), dist.label());
    println!("  unpruned error: {:.2}%", curve.unpruned_error_pct);
    for (r, e) in &curve.points {
        println!("  PR {:5.1}% -> error {e:6.2}%", 100.0 * r);
    }
    println!(
        "  prune potential (delta {delta}%): {:.1}%",
        100.0 * curve.prune_potential(delta)
    );
    Ok(())
}

/// `pruneval save`: build a family (resuming from `--cache-dir` when set)
/// and write it as one portable `.pvck` checkpoint.
pub fn save(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let method = method_of(args)?;
    let rep = args.get_num("rep", 0usize)?;
    let out = args.get_or("out", "target/family.pvck");
    println!(
        "save: {model} / {} at {scale:?}, repetition {rep}",
        method.name()
    );
    let mut family = family_of(&cfg, method.as_ref(), rep, cache_of(args).as_ref())?;
    save_family(&mut family, out)?;
    println!(
        "family (parent + separate + {} pruned models) written to {out}",
        family.pruned.len()
    );
    Ok(())
}

/// `pruneval load`: restore a family checkpoint written by `save` and print
/// its nominal prune-accuracy curve — no training happens.
pub fn load(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let rep = args.get_num("rep", 0usize)?;
    let path = args.get_or("in", "target/family.pvck");
    let ckpt = pruneval::Checkpoint::load(path)?;
    let mut family = pruneval::family_from_checkpoint(&cfg, rep, &ckpt)?;
    // informational: which kernel backend produced the artifact (absent on
    // checkpoints written before the backend record existed)
    let produced_by = pruneval::stored_backend(&ckpt, "parent/")
        .map_or_else(String::new, |b| format!(", written by the '{b}' backend"));
    println!(
        "loaded {model} family from {path}: method {}, {} pruned models{produced_by}",
        family.method,
        family.pruned.len()
    );
    let nominal = family.curve_on(&Distribution::Nominal, 1);
    let mut table = TextTable::new(&["PR %", "FR %", "test error %"]);
    table.try_add_row(vec![
        "0.0".into(),
        "0.0".into(),
        format!("{:.2}", nominal.unpruned_error_pct),
    ])?;
    for (pm, (r, e)) in family.pruned.iter().zip(&nominal.points) {
        table.try_add_row(vec![
            format!("{:.1}", 100.0 * r),
            format!("{:.1}", 100.0 * pm.flop_reduction),
            format!("{e:.2}"),
        ])?;
    }
    println!("{}", table.render());
    Ok(())
}

/// `pruneval corrupt`.
pub fn corrupt(args: &ParsedArgs) -> Result<(), Error> {
    let name = args.get_or("corruption", "Gauss");
    let c = Corruption::from_name(name)
        .ok_or_else(|| Error::Parse(format!("--corruption: unknown corruption '{name}'")))?;
    let severity: u8 = args.get_num("severity", 3)?;
    if !(1..=5).contains(&severity) {
        return Err(Error::Parse(format!(
            "severity {severity} out of range 1..=5"
        )));
    }
    let out = args.get_or("out", "target/corrupt");
    let dir = Path::new(out);
    std::fs::create_dir_all(dir).map_err(|e| Error::io(out, e))?;
    let ds = generate(&TaskSpec::cifar_like(), 4, 2021);
    let mut rng = Rng::new(7);
    let corrupted = c.apply_batch(ds.images(), severity, &mut rng);
    for i in 0..ds.len() {
        let clean_path = dir.join(format!("sample{i}_clean.pgm"));
        let corrupt_path = dir.join(format!("sample{i}_{}_s{severity}.pgm", c.name()));
        write_pgm(&ds.image(i), &clean_path)?;
        write_pgm(&corrupted.slice_first_axis(i, i + 1), &corrupt_path)?;
    }
    println!("wrote {} clean + corrupted image pairs to {out}", ds.len());
    Ok(())
}

/// `pruneval segstudy`.
pub fn segstudy(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let method = method_of(args)?;
    let cfg = SegExperimentConfig::voc_like(scale);
    println!(
        "segmentation study at {scale:?}: {} object classes, {} train images",
        cfg.task.object_classes, cfg.n_train
    );
    let t0_ns = pv_obs::now_ns();
    let mut study = {
        let _span = pv_obs::span("cli", "segstudy_build");
        build_seg_family(&cfg, method.as_ref())
    };
    let elapsed = Duration::from_nanos(pv_obs::now_ns().saturating_sub(t0_ns));
    println!("family built in {elapsed:.1?}\n");
    let curve = study.iou_curve(None, 1);
    println!(
        "[{}] parent IoU error {:.2}%, pixel error {:.2}%",
        method.name(),
        curve.unpruned_error_pct,
        study.parent_pixel_error()
    );
    for (r, e) in &curve.points {
        println!("  PR {:5.1}% -> IoU error {e:6.2}%", 100.0 * r);
    }
    println!(
        "  commensurate PR (delta {}% IoU): {:.1}%",
        cfg.delta_pct,
        100.0 * curve.prune_potential(cfg.delta_pct)
    );
    Ok(())
}

/// `pruneval shapes`: statically infer per-layer activation shapes for a
/// preset without allocating activations or running a forward pass.
pub fn shapes(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let net = cfg.arch.build(&cfg.name, &cfg.task, 0);
    let report = net.infer_shapes()?;
    println!(
        "{model} at {scale:?}: input {:?}, {} leaf layers",
        net.input_shape(),
        report.records.len()
    );
    print!("{}", report.render());
    if let Some(out) = report.output_shape() {
        println!("output: {out:?} ({} classes)", net.num_classes());
    }
    Ok(())
}

/// Builds the registry `pruneval serve` exposes: a preset (freshly
/// built) when `family_path` is `None`, otherwise a saved family
/// checkpoint with every member registered by its family id (`parent`,
/// `separate`, `cycle00`, …). Shared between server startup and the hot
/// reload handler, so a reload re-runs exactly the admission, compaction,
/// and backend-pinning pipeline the original registry went through.
fn build_serve_registry(
    model: &str,
    cfg: &ExperimentConfig,
    family_path: Option<&str>,
    rep: usize,
    compact: bool,
    backend: Option<&'static dyn pv_tensor::Backend>,
) -> Result<pv_serve::ModelRegistry, Error> {
    let mut registry = pv_serve::ModelRegistry::new();
    match family_path {
        Some(path) => {
            let family = load_family(cfg, rep, path)?;
            registry.insert("parent", family.parent)?;
            registry.insert("separate", family.separate)?;
            for (i, pm) in family.pruned.into_iter().enumerate() {
                let id = format!("cycle{i:02}");
                let net = if compact {
                    match pm.network.compact() {
                        Ok(small) => {
                            let kept: Vec<usize> = small
                                .compaction()
                                .map(<[usize]>::to_vec)
                                .unwrap_or_default();
                            println!("serve: compacted {id} to units {kept:?}");
                            small
                        }
                        Err(e) => {
                            println!("serve: {id} not compactable ({e}); serving masked");
                            pm.network
                        }
                    }
                } else {
                    pm.network
                };
                registry.insert(id, net)?;
            }
            println!(
                "serve: {model} family from {path} ({} models)",
                registry.len()
            );
        }
        None => {
            let net = cfg.arch.build(&cfg.name, &cfg.task, cfg.rep_seed(0));
            registry.insert("parent", net)?;
            println!("serve: freshly built {model} (untrained weights; model id 'parent')");
        }
    }
    if let Some(be) = backend {
        let ids: Vec<String> = registry.ids().iter().map(|s| s.to_string()).collect();
        for id in &ids {
            registry.set_backend(id, be)?;
        }
    }
    Ok(registry)
}

/// `pruneval serve`: stand up the event-driven inference server for a
/// preset (freshly built) or a saved family checkpoint (every member
/// registered by its family id: `parent`, `separate`, `cycle00`, …).
///
/// Blocks until a graceful drain completes — either `pruneval drain
/// --addr <addr>` from another terminal, or a `drain` control frame from
/// any client. `pruneval reload --addr <addr> --family <path>` hot-swaps
/// the model set without dropping in-flight requests.
pub fn serve(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let addr = args.get_or("addr", "127.0.0.1:7411");

    // resolve --backend before building anything so a typo fails fast
    let backend = match args.options.get("backend") {
        Some(name) => Some(pv_tensor::backend_by_name(name).ok_or_else(|| {
            Error::Parse(format!(
                "--backend: unknown backend '{name}' (expected one of: scalar, packed)"
            ))
        })?),
        None => None,
    };
    // --compact: physically shrink structurally pruned (FT/PFP) family
    // members to their surviving units at load time; models whose masks
    // are not row-structured are served as-is
    let compact = args.has("compact");
    let rep = args.get_num("rep", 0usize)?;
    let family_path = args.options.get("family").cloned();

    let registry =
        build_serve_registry(&model, &cfg, family_path.as_deref(), rep, compact, backend)?;
    let ids: Vec<String> = registry.ids().iter().map(|s| s.to_string()).collect();

    // the reload handler re-runs the same pipeline: an empty control
    // argument reloads the startup source, a path loads that checkpoint
    let reload_handler: pv_serve::ReloadFn = {
        let model = model.clone();
        let cfg = cfg.clone();
        Arc::new(move |arg: &str| {
            let path = if arg.is_empty() {
                family_path.as_deref()
            } else {
                Some(arg)
            };
            build_serve_registry(&model, &cfg, path, rep, compact, backend)
                .map_err(|e| Error::Serve(format!("reload: {e}")))
        })
    };

    let server_cfg = pv_serve::ServerConfig {
        addr: addr.to_string(),
        workers: args.get_num("workers", 2usize)?,
        batch: pv_serve::BatchConfig {
            max_batch: args.get_num("max-batch", 8usize)?,
            batch_deadline: Duration::from_micros(args.get_num("batch-deadline-us", 200u64)?),
            queue_capacity: args.get_num("queue-capacity", 256usize)?,
        },
        max_connections: args.get_num("max-connections", 1024usize)?,
        idle_timeout: Duration::from_millis(args.get_num("idle-timeout-ms", 60_000u64)?),
        drain_deadline: Duration::from_millis(args.get_num("drain-deadline-ms", 5_000u64)?),
        allow_control: !args.has("no-control"),
        reload: Some(reload_handler),
        ..pv_serve::ServerConfig::default()
    };

    let backend_note = backend.map_or_else(String::new, |be| format!(" [backend: {}]", be.name()));
    let mut handle = pv_serve::serve(
        registry,
        server_cfg,
        std::sync::Arc::new(pv_obs::MonotonicClock::new()),
    )?;
    println!(
        "listening on {}{backend_note} — models: {}",
        handle.addr(),
        ids.join(", ")
    );
    handle.wait();
    println!("serve: drain complete, exiting");
    Ok(())
}

/// `pruneval reload`: ask a running server to hot-swap its model set.
/// With `--family <path>` the server loads that checkpoint; without it,
/// the server rebuilds from whatever source it was started with.
pub fn reload(args: &ParsedArgs) -> Result<(), Error> {
    let addr = args.get_or("addr", "127.0.0.1:7411");
    let arg = args.get_or("family", "");
    let timeout = Duration::from_secs(args.get_num("timeout-secs", 120u64)?);
    let mut client = pv_serve::Client::connect(addr, timeout)?;
    let msg = client.reload(arg)?;
    println!("{addr}: {msg}");
    Ok(())
}

/// `pruneval drain`: ask a running server to drain gracefully — stop
/// accepting, answer everything admitted, then exit. The serving process
/// unblocks from `pruneval serve` once the drain completes.
pub fn drain(args: &ParsedArgs) -> Result<(), Error> {
    let addr = args.get_or("addr", "127.0.0.1:7411");
    let timeout = Duration::from_secs(args.get_num("timeout-secs", 30u64)?);
    let mut client = pv_serve::Client::connect(addr, timeout)?;
    let msg = client.drain()?;
    println!("{addr}: {msg}");
    Ok(())
}

/// `pruneval loadgen`: drive a running server with concurrent
/// single-sample requests and write the measurements as
/// `BENCH_serve.json`.
pub fn loadgen(args: &ParsedArgs) -> Result<(), Error> {
    let scale = scale_of(args)?;
    let (model, cfg) = preset_of(args, scale)?;
    let addr = args.get_or("addr", "127.0.0.1:7411");
    // --mode open schedules requests at --rate req/s independent of the
    // server and measures latency from each request's *scheduled* send
    // time, avoiding coordinated omission (see OPERATIONS.md)
    let mode = match args.get_or("mode", "closed") {
        "closed" => pv_serve::ArrivalMode::Closed,
        "open" => pv_serve::ArrivalMode::Open {
            rps: args.get_num("rate", 200.0f64)?,
        },
        other => {
            return Err(Error::Parse(format!(
                "--mode: unknown arrival mode '{other}' (expected 'closed' or 'open')"
            )))
        }
    };
    let lg_cfg = pv_serve::LoadgenConfig {
        concurrency: args.get_num("concurrency", 4usize)?,
        requests: args.get_num("requests", 64usize)?,
        model: args.get_or("id", "parent").to_string(),
        mode,
        ..pv_serve::LoadgenConfig::default()
    };

    // sample inputs shaped for the preset (the server validates shape
    // against its registry, so --model must match the serving side)
    let net = cfg.arch.build(&cfg.name, &cfg.task, 0);
    let mut rng = Rng::new(2021);
    let inputs: Vec<pv_tensor::Tensor> = (0..8)
        .map(|_| pv_tensor::Tensor::rand_uniform(net.input_shape(), 0.0, 1.0, &mut rng))
        .collect();

    println!(
        "loadgen: {} requests x {} connections against {addr} (model id '{}', inputs shaped {:?})",
        lg_cfg.requests,
        lg_cfg.concurrency,
        lg_cfg.model,
        net.input_shape()
    );
    let report = pv_serve::loadgen(
        addr,
        &inputs,
        &lg_cfg,
        std::sync::Arc::new(pv_obs::MonotonicClock::new()),
    )?;
    println!(
        "  ok {} / busy {} / failed {} in {:.3}s — {:.1} req/s, p50 {:.3} ms, p99 {:.3} ms, mean batch {:.2}",
        report.ok,
        report.busy,
        report.failed,
        report.elapsed_ns as f64 / 1e9,
        report.throughput_rps(),
        report.p50_ns as f64 / 1e6,
        report.p99_ns as f64 / 1e6,
        report.mean_batch,
    );

    let out = args.get_or("json", "BENCH_serve.json");
    let label = match lg_cfg.mode {
        pv_serve::ArrivalMode::Closed => format!("loadgen_{model}_c{}", lg_cfg.concurrency),
        pv_serve::ArrivalMode::Open { rps } => {
            format!("loadgen_{model}_open_r{}", rps.round() as i64)
        }
    };
    let json = format!("[\n  {}\n]\n", report.to_json(&label));
    std::fs::write(out, json).map_err(|e| Error::io(out, e))?;
    println!("report written to {out}");
    if report.ok == 0 {
        return Err(Error::Serve(format!(
            "loadgen completed no requests against {addr} ({} failed)",
            report.failed
        )));
    }
    Ok(())
}

/// `pruneval analyze`: run the workspace invariant linter.
pub fn analyze(args: &ParsedArgs) -> Result<(), Error> {
    // `--explain <rule>`: print the rule's contract and exit
    if let Some(rule) = args.options.get("explain") {
        let spec = pv_analyze::rule_by_id(rule).ok_or_else(|| {
            Error::Parse(format!(
                "--explain: unknown rule '{rule}' (run `pruneval analyze --list-rules`)"
            ))
        })?;
        println!("{} ({} by default)", spec.id, spec.default_level.name());
        println!("  {}", spec.summary);
        println!();
        for line in spec.explain.lines() {
            println!("  {line}");
        }
        return Ok(());
    }
    if args.has("list-rules") {
        for spec in pv_analyze::RULES {
            println!(
                "{:22} {:5} {}",
                spec.id,
                spec.default_level.name(),
                spec.summary
            );
        }
        return Ok(());
    }
    let root = args.get_or("root", ".");
    let mut cfg = pv_analyze::Config::workspace_default();
    for (flag, level) in [
        ("allow", pv_analyze::Level::Allow),
        ("warn", pv_analyze::Level::Warn),
        ("deny", pv_analyze::Level::Deny),
    ] {
        if let Some(specs) = args.options.get(flag) {
            for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
                let spec = spec.trim();
                let rule = spec.split('@').next().unwrap_or(spec);
                if pv_analyze::rule_by_id(rule).is_none() {
                    return Err(Error::Parse(format!("--{flag}: unknown rule '{rule}'")));
                }
                cfg.set(spec, level);
            }
        }
    }
    let report = pv_analyze::analyze_workspace(Path::new(root), &cfg)?;
    if args.has("json") {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.fails(args.has("deny-warnings")) {
        return Err(Error::Analysis(format!(
            "{} deny, {} warn finding(s)",
            report.deny_count(),
            report.warn_count()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_specs_parse() {
        let dist = |s: &str| s.parse::<Distribution>();
        assert_eq!(dist("nominal").expect("parses"), Distribution::Nominal);
        assert_eq!(dist("alt").expect("parses"), Distribution::AltTestSet);
        assert_eq!(
            dist("noise:0.25").expect("parses"),
            Distribution::Noise(0.25)
        );
        assert_eq!(
            dist("gauss:3").expect("parses"),
            Distribution::Corruption(Corruption::Gauss, 3)
        );
        assert!(matches!(dist("gauss:9"), Err(Error::Parse(_))));
        assert!(matches!(dist("wat"), Err(Error::Parse(_))));
        assert!(matches!(dist("noise:abc"), Err(Error::Parse(_))));
    }

    #[test]
    fn list_runs() {
        list().expect("list succeeds");
    }

    #[test]
    fn presets_cover_zoo() {
        for p in PRESETS {
            assert!(preset(p, Scale::Smoke).is_some(), "{p} missing from zoo");
        }
    }

    #[test]
    fn unknown_names_map_to_typed_variants() {
        let args =
            crate::args::parse(&["study".into(), "--model".into(), "nope".into()]).expect("parses");
        assert!(matches!(
            preset_of(&args, Scale::Smoke),
            Err(Error::UnknownPreset(m)) if m == "nope"
        ));
        let args = crate::args::parse(&["study".into(), "--method".into(), "nope".into()])
            .expect("parses");
        assert!(matches!(
            method_of(&args),
            Err(Error::UnknownMethod(m)) if m == "nope"
        ));
        let args =
            crate::args::parse(&["study".into(), "--scale".into(), "nope".into()]).expect("parses");
        assert!(matches!(scale_of(&args), Err(Error::Parse(_))));
    }

    #[test]
    fn cache_dir_flag_selects_cache() {
        let args = crate::args::parse(&[
            "study".into(),
            "--cache-dir".into(),
            "target/pv-cache".into(),
        ])
        .expect("parses");
        let cache = cache_of(&args).expect("cache configured");
        assert_eq!(cache.root(), Path::new("target/pv-cache"));
        assert!(cache_of(&crate::args::parse(&["study".into()]).expect("parses")).is_none());
    }
}
