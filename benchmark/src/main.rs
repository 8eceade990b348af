//! The benchmark driver. `benchmark/run.sh` builds it and passes every
//! argument through:
//!
//! ```text
//! dbwipes-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--repeat K]
//! ```
//!
//! One run of one workload prints a short human summary and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`. Without `--workload` every workload runs in turn.
//! `--repeat K` is the noise calibration mode (see README.md).

use dbwipes_benchmark::report::{self, MetricDef, END_TO_END, PER_LAYER};
use dbwipes_benchmark::script::{Script, Workload, DEFAULT_SEED};
use dbwipes_benchmark::summary::{median, quartiles, relative_spread};
use dbwipes_benchmark::{trace, wire};
use dbwipes_server::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Where scratch data directories and span files go (git-ignored).
const OUT_DIR: &str = "benchmark/out";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 20.0, // BENCHMARK.json's run_seconds
        trace: false,
        repeat: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}` (expected one of {})", known.join(", "))
                })?;
                options.workloads = vec![workload];
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if options.seconds.is_nan() || options.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 runs to measure a spread".into());
                }
                options.repeat = Some(k);
            }
            "--help" | "-h" => {
                println!(
                    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat K]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(options)
}

/// The server binary `run.sh` built next to this one.
fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let bin = exe.with_file_name("dbwipes-server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing — run benchmark/run.sh, which builds it", bin.display()))
    }
}

/// What one run of one workload printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricDef, f64)>,
}

/// One run of one workload.
fn run_once(
    bin: &Path,
    workload: Workload,
    options: &Options,
    seed: u64,
) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let script = Script::new(workload, seed);
    // The traced run needs one set-up only: `setup_s` is not one of its metrics.
    let setups = if options.trace { 1 } else { SETUPS };
    let wire = wire::run(bin, &script, options.seconds, setups, out_dir)?;
    println!(
        "{} seed {seed} script {:016x}: {} timed iterations in {:.1}s, {} of {} operations failed",
        workload.name(),
        wire.script_hash,
        wire.loop_ms.len(),
        wire.loop_wall_s,
        wire.failed,
        wire.attempted
    );
    let commands: Vec<String> = wire
        .latencies
        .iter()
        .map(|(kind, ms)| format!("{} {:.2}", kind.name(), median(ms)))
        .collect();
    println!("  p50 ms per command (n={}): {}", wire.loop_ms.len(), commands.join(", "));
    println!(
        "  server CPU per loop {:.2} ms, reply bytes per loop {:.0}",
        wire.loop_cpu_ms / wire.loop_ms.len().max(1) as f64,
        wire.reply_bytes as f64 / wire.loop_ms.len().max(1) as f64
    );
    let (attempted, failed, metrics) = if options.trace {
        let traced = trace::run(&script, &wire.debug_replies, out_dir)?;
        let values = report::per_layer(workload, &wire, &traced);
        let metrics =
            PER_LAYER.iter().map(|def| (*def, values.get(def.name).copied().unwrap_or(0.0)));
        (wire.attempted + traced.attempted, wire.failed + traced.failed, metrics.collect())
    } else {
        let metrics: Vec<_> = END_TO_END.into_iter().zip(report::end_to_end(&wire)).collect();
        (wire.attempted, wire.failed, metrics)
    };
    for (def, value) in &metrics {
        println!("  {:<52} {value:>14.4} {}", def.name, def.unit);
    }
    Ok(Outcome { attempted, failed, metrics })
}

/// The regression bounds `BENCHMARK.json` (in the working directory, the
/// repo root) fixes for the end-to-end metrics.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the working directory: {e}"))?;
    let manifest = Json::parse(&text)?;
    let listed = manifest.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    Ok(listed
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect())
}

/// Noise calibration: `k` full sets of runs, each with another seed, then
/// per metric and workload the median, quartiles and inter-quartile spread
/// as a share of the median — the harness's own acceptance test. Fails when
/// a spread exceeds the metric's bound (`setup_s` is reported, not gated,
/// exactly as the harness treats it).
fn calibrate(bin: &Path, options: &Options, k: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut clean = true;
    for round in 0..k as u64 {
        for &workload in &options.workloads {
            let outcome = run_once(bin, workload, options, options.seed + round)?;
            clean &= outcome.failed == 0;
            for (def, value) in outcome.metrics {
                samples.entry((workload.name(), def.name)).or_default().push(value);
            }
        }
    }
    println!("\n| workload | metric | median | q1 | q3 | spread | bound | |");
    println!("|---|---|---:|---:|---:|---:|---:|---|");
    let mut steady = true;
    for ((workload, metric), values) in &samples {
        let [q1, _, q3] = quartiles(values).expect("--repeat is at least 2");
        let spread = relative_spread(values).unwrap_or(f64::INFINITY);
        let bound = bounds.get(*metric).copied();
        let gated = *metric != "setup_s";
        let verdict = match bound {
            Some(b) if gated && spread > b => {
                steady = false;
                "EXCEEDS"
            }
            Some(b) if spread > b / 3.0 => "above a third of the bound",
            _ => "ok",
        };
        println!(
            "| {workload} | {metric} | {:.4} | {q1:.4} | {q3:.4} | {:.2}% | {} | {verdict} |",
            median(values),
            spread * 100.0,
            bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    Ok(clean && steady)
}

fn main() -> ExitCode {
    // The in-process replay must see the same scrubbed configuration the
    // launched server does. Single-threaded here, so this is sound.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DBWIPES_") {
            std::env::remove_var(name);
        }
    }
    let outcome = parse_args().and_then(|options| {
        let bin = server_binary()?;
        if let Some(k) = options.repeat {
            return calibrate(&bin, &options, k);
        }
        for &workload in &options.workloads {
            let run = run_once(&bin, workload, &options, options.seed)?;
            println!("{}", report::result_line(run.attempted, run.failed, &run.metrics));
        }
        // A run that measured but saw wrong replies still succeeds: its
        // result line says `correct:false` and counts the failures.
        Ok(true)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
