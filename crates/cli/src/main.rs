//! `pruneval` — command-line interface to the *Lost in Pruning* (MLSys
//! 2021) reproduction.
//!
//! ```text
//! pruneval list
//! pruneval study   --model resnet20 --method WT [--scale quick] [--csv out.csv]
//! pruneval fig2    --model resnet20 --method WT [--trace out.json]
//! pruneval potential --model resnet20 --method WT --dist Gauss:3 [--delta 0.5]
//! pruneval save    --model resnet20 --method WT --out family.pvck
//! pruneval load    --model resnet20 --in family.pvck
//! pruneval corrupt --corruption Gauss --severity 3 --out target/corrupt
//! pruneval segstudy --method WT [--scale quick]
//! pruneval serve   --model resnet20 --addr 127.0.0.1:7411 [--max-batch 8]
//! pruneval loadgen --addr 127.0.0.1:7411 --concurrency 4 --requests 64
//! pruneval reload  --addr 127.0.0.1:7411 --family family.pvck
//! pruneval drain   --addr 127.0.0.1:7411
//! ```
//!
//! Any command accepts `--trace <path>` (write a chrome-trace JSON of the
//! run) and `--metrics` (print the collected counters/gauges/histograms);
//! both are served by the `pv-obs` recorder installed at startup.

mod args;
mod commands;

use pruneval::Error;
use std::process::ExitCode;

const USAGE: &str = "\
pruneval — reproduce 'Lost in Pruning' (MLSys 2021) experiments

USAGE:
    pruneval <COMMAND> [OPTIONS]

COMMANDS:
    list        list model presets, pruning methods, and corruptions
    study       train + iteratively prune a model; print the prune-accuracy
                curve and prune potentials across distributions
                  --model <preset>    (default resnet20)
                  --method <name>     WT | SiPP | FT | PFP (default WT)
                  --scale <s>         smoke | quick | full (default quick)
                  --csv <path>        also write the curve as CSV
                  --cache-dir <dir>   resume/skip training via the artifact
                                      cache (bitwise identical to a fresh run)
    fig2        the paper's Figure 2: one family's prune-accuracy curves on
                the nominal, alternative, and noise test distributions
                  --model, --method, --delta as for study
                  --scale <s>         (default smoke)
                  --cache-dir <dir>   (default target/pv-cache; 'off' disables)
    potential   prune potential on one distribution
                  --model, --method, --scale, --cache-dir as above
                  --dist <spec>       nominal | alt | noise:<eps> |
                                      <Corruption>:<severity>  (default nominal)
                  --delta <pct>       margin in percent (default 0.5)
    save        build a family (honoring --cache-dir) and write it as one
                portable .pvck checkpoint
                  --model, --method, --scale, --cache-dir as above
                  --rep <n>           repetition index (default 0)
                  --out <path>        (default target/family.pvck)
    load        restore a family checkpoint and print its nominal curve
                without any training
                  --model, --scale, --rep as for save (must match the save)
                  --in <path>         (default target/family.pvck)
    corrupt     write clean + corrupted sample images as PGM files
                  --corruption <name> (default Gauss)
                  --severity <1..5>   (default 3)
                  --out <dir>         (default target/corrupt)
    segstudy    dense-prediction (VOC-analogue) study
                  --method, --scale as above
    analyze     run the workspace invariant linter (pv-analyze) over
                crates/*/src and print findings
                  --root <dir>        workspace root (default .)
                  --json              machine-readable report
                  --deny-warnings     warn-level findings also fail the gate
                  --allow/--warn/--deny <rule[@crate],...>
                                      override rule severities
                  --explain <rule>    print one rule's contract and exit
                  --list-rules        list the rule catalogue and exit
    shapes      statically infer per-layer activation shapes for a preset
                (no allocation, no forward pass)
                  --model <preset>    (default resnet20)
                  --scale <s>         smoke | quick | full (default quick)
    serve       stand up the event-driven PVSR inference server (blocks
                until drained; see OPERATIONS.md for the runbook and
                ARCHITECTURE.md for the request lifecycle)
                  --model <preset>    (default resnet20; built fresh unless
                                      --family is given)
                  --family <path>     serve every member of a saved .pvck
                                      family as parent / separate / cycleNN
                  --rep <n>           repetition the family was saved with
                  --backend <b>       pin every model to a kernel backend
                                      (scalar | packed; default: process
                                      backend, i.e. PV_BACKEND)
                  --compact           physically shrink structurally pruned
                                      (FT/PFP) family members to their
                                      surviving units at load time
                  --addr <host:port>  (default 127.0.0.1:7411)
                  --max-batch <n>     largest forward batch (default 8)
                  --batch-deadline-us <d>
                                      micro-batch coalescing deadline
                                      (default 200)
                  --workers <n>       batch-executing threads (default 2)
                  --queue-capacity <n> admission queue bound (default 256)
                  --max-connections <n>
                                      concurrent connection cap; excess gets
                                      an explicit Busy (default 1024)
                  --idle-timeout-ms <ms>
                                      evict idle / slow-loris connections
                                      (default 60000; 0 disables)
                  --drain-deadline-ms <ms>
                                      force-close stragglers this long after
                                      a drain starts (default 5000)
                  --no-control        ignore reload/drain control frames
    loadgen     drive a running server and write BENCH_serve.json
                  --addr <host:port>  (default 127.0.0.1:7411)
                  --model <preset>    shapes the inputs (must match serve)
                  --id <model-id>     registry id to request (default parent)
                  --concurrency <c>   client connections (default 4)
                  --requests <n>      total requests (default 64)
                  --mode <m>          closed | open arrival process
                                      (default closed; open fixes the
                                      coordinated-omission blind spot)
                  --rate <rps>        open-mode aggregate arrival rate
                                      (default 200)
                  --json <path>       report path (default BENCH_serve.json)
    reload      hot-swap a running server's model set (zero dropped
                in-flight requests; traffic flips at the next batch)
                  --addr <host:port>  (default 127.0.0.1:7411)
                  --family <path>     checkpoint to load (default: rebuild
                                      the source serve started with)
                  --timeout-secs <s>  client I/O timeout (default 120)
    drain       gracefully drain a running server: stop accepting, answer
                everything admitted, then the serve process exits
                  --addr <host:port>  (default 127.0.0.1:7411)
                  --timeout-secs <s>  client I/O timeout (default 30)

GLOBAL OPTIONS (any command):
    --trace <path>   write a chrome://tracing-compatible JSON trace of the run
    --metrics        print collected counters, gauges, and kernel-latency
                     histograms after the command finishes

ENVIRONMENT:
    PV_SCALE    default scale when --scale is not given
";

fn main() -> ExitCode {
    // The binary is the composition edge: install the wall-clock recorder
    // here so every library span/counter below records into it.
    pv_obs::install(pv_obs::Recorder::new(pv_obs::MonotonicClock::new()));
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_str() {
        "list" => commands::list(),
        "study" => commands::study(&parsed),
        "fig2" => commands::fig2(&parsed),
        "potential" => commands::potential(&parsed),
        "save" => commands::save(&parsed),
        "load" => commands::load(&parsed),
        "corrupt" => commands::corrupt(&parsed),
        "segstudy" => commands::segstudy(&parsed),
        "analyze" => commands::analyze(&parsed),
        "shapes" => commands::shapes(&parsed),
        "serve" => commands::serve(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "reload" => commands::reload(&parsed),
        "drain" => commands::drain(&parsed),
        "" | "help" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Error::Parse(format!("unknown command '{other}'"))),
    };
    let result = result.and_then(|()| export_observability(&parsed));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\nrun `pruneval help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Honors the global `--trace <path>` / `--metrics` options after a
/// successful command.
fn export_observability(parsed: &args::ParsedArgs) -> Result<(), Error> {
    let trace = parsed.options.get("trace");
    let metrics = parsed.has("metrics");
    if trace.is_none() && !metrics {
        return Ok(());
    }
    let Some(rec) = pv_obs::global() else {
        return Ok(());
    };
    let snap = rec.snapshot();
    if let Some(path) = trace {
        snap.save_chrome_trace(std::path::Path::new(path))?;
        println!(
            "trace written to {path} ({} spans, {} counter series)",
            snap.spans.len(),
            snap.counters.len() + snap.gauges.len()
        );
    }
    if metrics {
        print!("{}", snap.summary());
    }
    Ok(())
}
