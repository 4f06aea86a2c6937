//! The toolchain's benchmark: compile → boot → simulate, on four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path examples/benchmark/Cargo.toml -- \
//!     [--seed N] [--rounds R | --seconds S] [--workload NAME] \
//!     [--trace 0|1] [--trace-dir DIR]
//! ```
//!
//! Every repetition (rep) runs in a child process of its own. The runner
//! goes round-robin over the selected workloads, one child at a time, so a
//! burst of host noise lands on a few reps of every workload rather than on
//! all reps of one. It stops after `R` rounds (default 10), or, with
//! `--seconds`, at the first round boundary after `S` seconds (at least
//! three rounds). `--trace 1` adds one traced round, prints the per-layer
//! metrics, and writes every span to `DIR/<workload>.spans.jsonl`.
//!
//! Standard output ends with the run's metadata and the full report —
//! median, quartiles and sample count of every metric on every workload —
//! each as one JSON line. With `--workload` a last line follows with
//! exactly the keys `correct`, `attempted`, `failed` and `metrics` (each
//! metric's median). The process exits nonzero if any correctness check
//! fails.

mod host;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use report::{Report, WorkloadRun};
use trace::Tracer;
use workloads::{run_rep, Rep, Workload, WORKLOADS};

/// How many rounds a `--seconds` run makes at least.
const MIN_ROUNDS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    seed: u64,
    rounds: usize,
    seconds: Option<f64>,
    workload: Option<Workload>,
    trace: bool,
    trace_dir: PathBuf,
    /// Internal: run one rep of this workload and print its result.
    child: Option<Workload>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: workloads::ANCHOR_SEED,
        rounds: 10,
        seconds: None,
        workload: None,
        trace: false,
        trace_dir: PathBuf::from(".bench_traces"),
        child: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let workload = |name: String| {
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))
        };
        match flag.as_str() {
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--rounds" => {
                a.rounds = value()?.parse().map_err(|e| format!("--rounds: {e}"))?;
                if a.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--workload" => a.workload = Some(workload(value()?)?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-dir" => a.trace_dir = PathBuf::from(value()?),
            "--child" => a.child = Some(workload(value()?)?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(w) = args.child {
        return child_main(w, &args);
    }
    let report = run(&args);
    println!("{}", report.meta_json());
    println!("{}", report.full_json());
    if args.workload.is_some() {
        println!("{}", report.result_json(args.trace));
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: correctness checks failed");
        ExitCode::FAILURE
    }
}

/// A child runs one rep and prints its result as one JSON line.
fn child_main(w: Workload, args: &Args) -> ExitCode {
    let mut tracer = args.trace.then(Tracer::new);
    let rep = match run_rep(w, args.seed, tracer.as_mut()) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("benchmark: {} rep failed: {e}", w.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tracer {
        let path = args.trace_dir.join(format!("{}.spans.jsonl", w.name()));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("benchmark: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}

/// Spawns one child rep and waits for it. The child gets the engine's
/// defaults (one shard, the timing wheel): the variables that override
/// them are removed from its environment.
fn spawn_rep(w: Workload, args: &Args, traced: bool) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&args.trace_dir)
        .env_remove("BLUEPRINT_THREADS")
        .env_remove("BLUEPRINT_EVQ")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("spawning a {} rep: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} rep exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Json::parse(line)
        .and_then(|v| Rep::from_json(&v))
        .map_err(|e| format!("{} rep printed no result ({e})", w.name()))
}

/// Output of a short command, or `"unknown"`.
fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &Args) -> Report {
    let selected: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|(w, _, _)| *w).collect(),
    };
    let mut report = Report {
        seed: args.seed,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev: command_output("git", &["rev-parse", "HEAD"]),
        rustc: command_output("rustc", &["--version"]),
        traced: args.trace,
        rounds: 0,
        runs: selected.iter().map(|w| WorkloadRun::new(*w)).collect(),
    };
    let start = Instant::now();
    loop {
        let done = match args.seconds {
            Some(s) => report.rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= s,
            None => report.rounds >= args.rounds,
        };
        if done {
            break;
        }
        for run in &mut report.runs {
            let rep = spawn_rep(run.workload, args, false);
            log_rep(run.workload, &format!("round {}", report.rounds + 1), &rep);
            run.add(rep);
        }
        report.rounds += 1;
    }
    if args.trace {
        for run in &mut report.runs {
            let rep = spawn_rep(run.workload, args, true);
            log_rep(run.workload, "traced", &rep);
            run.add_traced(rep);
        }
    }
    report
}

/// One progress line per rep on standard error.
fn log_rep(w: Workload, label: &str, rep: &Result<Rep, String>) {
    match rep {
        Ok(r) => eprintln!(
            "benchmark: {:<16} {label:<9} wall {:.3} s, {} ops, digest {}{}",
            w.name(),
            r.wall_s,
            r.ops,
            r.digest,
            if r.failed_checks.is_empty() {
                String::new()
            } else {
                format!(", FAILED: {}", r.failed_checks.join("; "))
            }
        ),
        Err(e) => eprintln!("benchmark: {:<16} {label:<9} FAILED: {e}", w.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, two levels above this
    /// package.
    fn benchmark_json() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload social-failover --seed 11 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::SocialFailover));
        assert_eq!((a.seed, a.seconds, a.trace), (11, Some(15.0), true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--rounds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate 1")).is_err());
    }

    #[test]
    fn benchmark_json_declares_the_workloads_and_metrics() {
        let bench = benchmark_json();
        let names = |key: &str| -> Vec<String> {
            bench
                .get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let ours: Vec<String> = WORKLOADS.iter().map(|(_, n, _)| n.to_string()).collect();
        assert_eq!(names("workloads"), ours);
        let e2e: Vec<String> = metrics::END_TO_END
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = metrics::PER_LAYER
            .iter()
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(names("per_layer"), layers);
        // Units, directions and bounds agree too.
        for (entry, m) in bench
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(metrics::END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(m.better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), m.bound);
        }
        for (entry, m) in bench
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(metrics::PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(m.better));
        }
    }
}
