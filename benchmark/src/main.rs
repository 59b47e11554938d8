//! The repo benchmark: four workloads over the crates' public APIs.
//!
//! ```text
//! bat-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload in this process and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics when untraced, the per-layer
//! metrics when traced. See `benchmark/README.md`.

mod layers;
mod measure;
mod names;
mod rank;
mod serve;
mod sim;
mod trace;

use measure::Rusage;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// The datasets (who is hot, how long each profile and item is) are the
/// same for every `--seed`; the seed draws the trace, the weights and the
/// token contents. Otherwise the profile length of the few hottest users
/// alone would move every metric by several percent from seed to seed.
pub const DATASET_SEED: u64 = 11;

/// What one run was asked to do.
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase, seconds (ignored by `--quick`).
    pub seconds: f64,
    /// Fixed small operation counts instead of a timed phase: smoke runs
    /// and the determinism test, never a baseline.
    pub quick: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
    pub out_dir: PathBuf,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    /// Requests submitted in the measured phase.
    pub attempted: u64,
    /// Errored, refused (shed, rejected) or wrong-output requests.
    pub failed: u64,
    pub setup_s: f64,
    /// Wall seconds of the measured phase, checks excluded, and its blocks.
    pub wall_s: f64,
    pub blocks: Vec<measure::Block>,
    /// One sample per operation: a rank request, a serve pass, a sim sweep.
    pub latencies_ms: Vec<f64>,
    /// Per-layer metrics this workload's layers produced (traced run).
    pub layer: Vec<(&'static str, f64)>,
    /// Exact counts and sizes recorded with the result.
    pub info: Vec<(&'static str, f64)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    validate: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        traced: false,
        quick: false,
        validate: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {}", a.seconds));
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => a.out_dir = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            "--validate" => a.validate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !a.validate && !names::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            names::WORKLOADS,
            a.workload
        ));
    }
    Ok(a)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bat-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.validate {
        return match names::validate("BENCHMARK.json") {
            Ok(()) => {
                println!("BENCHMARK.json matches the harness");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bat-benchmark --validate: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "bat-benchmark: cannot create {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::FAILURE;
    }
    // `bat-serve` binds its Unix sockets under the temp dir; keep them (and
    // everything else) under the output directory. Set before any thread
    // exists. A relative path keeps socket paths short.
    std::env::set_var("TMPDIR", &args.out_dir);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never wider than the machine: thread-scaling rows measured with more
    // threads than cores read as a regression. Overrides `BAT_THREADS`.
    let pool_width = nproc.min(2);
    bat_exec::set_threads(pool_width);

    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        setup_repeats: if args.quick { 1 } else { 3 },
        out_dir: args.out_dir.clone(),
    };
    let mut tracer = Tracer::new(args.traced);
    let pair_ns = if args.traced {
        Tracer::calibrate_pair_ns()
    } else {
        0.0
    };
    let mut out = match args.workload.as_str() {
        "rank_warm" => rank::run(rank::Mode::Warm, &cfg, &mut tracer),
        "rank_churn" => rank::run(rank::Mode::Churn, &cfg, &mut tracer),
        "serve_slots" => serve::run(&cfg, &mut tracer),
        "sim_replay" => sim::run(&cfg, &mut tracer),
        _ => unreachable!("checked by parse_args"),
    };
    let peak = Rusage::now().peak_rss_mib;

    let lat = measure::sorted(std::mem::take(&mut out.latencies_ms));
    let mut metrics: Vec<(String, Value)> = Vec::new();
    if args.traced {
        let overhead = tracer.spans().len() as f64 * pair_ns * 1e-9 / out.wall_s;
        for &(name, unit) in names::PER_LAYER {
            let value = if name == "harness.trace_overhead.share" {
                overhead
            } else {
                // A layer this workload never calls reports 0.
                out.layer
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v)
            };
            metrics.push((name.to_owned(), metric(value, unit)));
        }
        for (name, _) in &out.layer {
            assert!(
                names::PER_LAYER.iter().any(|(n, _)| n == name),
                "workload produced undeclared per-layer metric {name}"
            );
        }
        let path = args.out_dir.join(format!("{}.trace.jsonl", args.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("bat-benchmark: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    } else {
        for &(name, unit) in names::END_TO_END {
            let value = match name {
                "setup_s" => out.setup_s,
                // Correct completions per second: the median block rate,
                // scaled by the share of requests that did not fail.
                "throughput_rps" => {
                    measure::median(
                        out.blocks
                            .iter()
                            .map(|b| b.requests as f64 / b.wall_s)
                            .collect(),
                    ) * (out.attempted - out.failed) as f64
                        / out.attempted as f64
                }
                "latency_p50_ms" => measure::quantile_sorted(&lat, 0.5),
                "latency_p90_ms" => measure::quantile_sorted(&lat, 0.9),
                "cpu_ms_per_req" => measure::median(
                    out.blocks
                        .iter()
                        .map(|b| b.cpu_s * 1e3 / b.requests as f64)
                        .collect(),
                ),
                "peak_rss_mb" => peak,
                _ => unreachable!("every end-to-end metric has a definition"),
            };
            metrics.push((name.to_owned(), metric(value, unit)));
        }
    }

    let context = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.traced,
        "quick": args.quick,
        "nproc": nproc,
        "pool_width": pool_width,
        "simd_tier": bat_tensor::active_simd_tier(),
        "git_commit": git_commit(),
        "latency_samples": lat.len(),
        "wall_s": out.wall_s,
        "counts": Value::Obj(out.info.iter().map(|&(k, v)| (k.to_owned(), json!(v))).collect()),
    });
    let result = json!({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Obj(metrics),
    });
    let mode = if args.traced { "traced" } else { "result" };
    let path = args.out_dir.join(format!("{}.{mode}.json", args.workload));
    let saved = json!({ "context": context, "result": result });
    if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(&saved).expect("json")) {
        eprintln!("bat-benchmark: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        serde_json::to_string(&json!({ "context": context })).expect("json")
    );
    println!("{}", serde_json::to_string(&result).expect("json"));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
