//! One repetition of one workload, in this process.
//!
//! ```text
//! perfbench <interactive|interactive_faults|campaign_cold> --seed N [--seconds S] [--trace]
//! ```
//!
//! Prints one JSON object of raw measurements on stdout. `run.py` runs
//! several repetitions and folds them into the benchmark's metrics.

use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};

/// One repetition's raw measurements, by name.
type Record = Map<String, Value>;

use perfbench::{campaign, interactive};

/// Closed-loop clients (interactive) or campaign workers: one per core
/// of the 2-core machine this benchmark was defined on.
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let workload = argv.next().ok_or("missing workload")?;
    let mut args = Args { workload, seed: 42, seconds: 4.0, trace: false };
    while let Some(flag) = argv.next() {
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn interactive_rep(args: &Args, faults: bool) -> Record {
    let options = interactive::InteractiveOptions {
        seed: args.seed,
        faults,
        clients: THREADS,
        seconds: args.seconds,
        trace: args.trace,
    };
    let start = Instant::now();
    let prepared = interactive::prepare(&options);
    let setup_s = start.elapsed().as_secs_f64();
    let run = interactive::timed_phase(&prepared, &options);
    let mut out = record(json!({
        "setup_s": setup_s,
        "wall_s": run.wall.as_secs_f64(),
        "attempted": run.attempted,
        "failed": run.failed,
        "mismatched": run.mismatched,
        "pool": prepared.pool.len(),
        "setup_failed": prepared.references.iter().filter(|o| o.failed).count(),
        "digest": format!("{:016x}", prepared.digest()),
        "peak_rss_mb": peak_rss_mb(),
    }));
    if args.trace {
        let mut layers = run.layers.per_query();
        let setup = &prepared.setup_layers;
        layers.insert("setup.plan_ms".into(), setup.sums.plan.as_secs_f64() * 1e3);
        layers.insert("setup.tool_ms".into(), setup.tool_time().as_secs_f64() * 1e3);
        let mut totals = prepared.setup_layers.clone();
        totals.merge(&run.layers);
        layers.extend(totals.artifacts());
        layers.insert("forge.register_ms".into(), prepared.register_time.as_secs_f64() * 1e3);
        let world_start = Instant::now();
        std::hint::black_box(world::generate(&world::WorldConfig::default()));
        layers.insert("world.generate_ms".into(), world_start.elapsed().as_secs_f64() * 1e3);
        let generations = prepared.engine.world_cache().generations();
        layers.insert("world.generations".into(), generations as f64);
        layers.insert("trace.queries".into(), run.traced_queries as f64);
        out.insert("layers".into(), json!(layers));
        out.insert("traced_ms".into(), json!(run.traced_time.as_secs_f64() * 1e3));
        out.insert("untraced_ms".into(), json!(run.untraced_time.as_secs_f64() * 1e3));
        out.insert("traced_queries".into(), json!(run.traced_queries));
        out.insert("untraced_queries".into(), json!(run.untraced_queries));
    } else {
        out.insert("latencies_ms".into(), json!(run.latencies_ms));
    }
    out
}

fn campaign_rep(args: &Args) -> Record {
    let draws = campaign::DRAWS;
    let spec = campaign::spec(args.seed, draws);
    let start = Instant::now();
    let prepared = campaign::prepare(&spec);
    let setup_s = start.elapsed().as_secs_f64();
    if args.trace {
        let traced = campaign::run_traced(&prepared, &spec, THREADS);
        let mut layers = traced.layers.per_query();
        layers.extend(traced.layers.artifacts());
        layers.insert("forge.register_ms".into(), prepared.register_time.as_secs_f64() * 1e3);
        layers.insert("campaign.serve_ms".into(), traced.serve_time.as_secs_f64() * 1e3);
        layers.insert("trace.queries".into(), traced.tasks as f64);
        let (generations, generate_time) = campaign::time_world_generation(&spec);
        layers.insert("world.generate_ms".into(), generate_time.as_secs_f64() * 1e3);
        layers.insert("world.generations".into(), generations as f64);
        return record(json!({
            "setup_s": setup_s,
            "wall_s": traced.wall.as_secs_f64(),
            "tasks": traced.tasks,
            "failed": traced.failed,
            "digest": format!("{:016x}", traced.digest),
            "layers": layers,
            "peak_rss_mb": peak_rss_mb(),
        }));
    }
    let run = campaign::run(&prepared, &spec, THREADS);
    let report = &run.report;
    let errors = report.outcomes.iter().filter(|o| o.error.is_some()).count();
    record(json!({
        "setup_s": setup_s,
        "wall_s": run.wall.as_secs_f64(),
        "tasks": report.scorecard.queries,
        "draws": draws,
        "failed": report.scorecard.failed,
        "errors": errors,
        "registered_fresh": report.registration.fresh,
        "mismatched_keys": report.registration.mismatched,
        "world_generations": prepared.engine.world_cache().generations(),
        "task_ms": run.task_ms,
        "digest": format!("{:016x}", campaign::digest(report)),
        "peak_rss_mb": peak_rss_mb(),
    }))
}

/// Threads this process may keep busy.
fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fields of a JSON object literal.
fn record(value: Value) -> Record {
    match value {
        Value::Object(fields) => fields,
        _ => unreachable!("record takes an object literal"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = available_parallelism();
    if THREADS > cores {
        eprintln!("perfbench: refusing {THREADS} work threads on {cores} available cores");
        return ExitCode::from(2);
    }
    let mut out = match args.workload.as_str() {
        "interactive" => interactive_rep(&args, false),
        "interactive_faults" => interactive_rep(&args, true),
        "campaign_cold" => campaign_rep(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    out.insert("nproc".into(), json!(cores));
    out.insert("threads".into(), json!(THREADS));
    out.insert("seed".into(), json!(args.seed));
    println!("{}", Value::Object(out).to_json_string());
    ExitCode::SUCCESS
}
