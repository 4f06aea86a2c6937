//! Per-phase set-up time of the synthetic Alibaba topology (Tab. 5) at
//! 1,441, 2,882, 5,764 and 11,528 services, and each phase's growth per
//! doubling. A phase that stays linear grows about 2x per doubling.
//!
//! The phases are the benchmark's traced set-up split: spec construction
//! (`alibaba::topology`), then `Compiler::compile`'s phase functions in its
//! order (validate, build IR, passes, lint, artifacts, simulation lowering),
//! then `Sim::new`. Each value is the median of REPS runs (default 3) in one
//! process, in seconds.
//!
//! ```sh
//! cargo run --release --example setup_phases [-- REPS]
//! ```

use std::time::Instant;

use blueprint::apps::alibaba;
use blueprint::compiler::{build, genart, passes, simlower, CompileOptions, Compiler};
use blueprint::plugins::BuildCtx;
use blueprint::simrt::{Sim, SimConfig};

const SCALES: [usize; 4] = [1_441, 2_882, 5_764, 11_528];
const PHASES: [&str; 8] = [
    "spec", "validate", "build_ir", "passes", "lint", "genart", "simlower", "boot",
];

/// One set-up, timed per phase.
fn set_up(services: usize) -> [f64; PHASES.len()] {
    let mut t = [0.0; PHASES.len()];
    let mut clock = Instant::now();
    let mut lap = |i: usize| {
        t[i] = clock.elapsed().as_secs_f64();
        clock = Instant::now();
    };
    let (wf, wiring) = alibaba::topology(services, 42);
    lap(0);
    wf.validate().expect("workflow validates");
    wiring.validate().expect("wiring validates");
    lap(1);
    let compiler = Compiler::extended();
    let reg = compiler.registry();
    let ctx = BuildCtx {
        workflow: &wf,
        wiring: &wiring,
    };
    let mut ir = build::build_ir(reg, &ctx).expect("builds");
    lap(2);
    passes::run_transforms(reg, &mut ir, &ctx).expect("transforms");
    passes::assign_namespaces(&mut ir).expect("namespaces");
    passes::widen_visibility(reg, &mut ir).expect("visibility");
    passes::validate(&ir).expect("valid IR");
    lap(3);
    let lint = CompileOptions::default().lint_config;
    let diagnostics = passes::lint(&ir, &wiring, Some(&wf), &lint);
    lap(4);
    let artifacts = genart::generate(reg, &ir, &ctx).expect("generates");
    lap(5);
    let system = simlower::lower(reg, &ir, &ctx).expect("lowers");
    lap(6);
    let sim = Sim::new(&system, SimConfig::default()).expect("boots");
    lap(7);
    drop((diagnostics, artifacts, sim));
    t
}

fn main() {
    let reps: usize = match std::env::args().nth(1) {
        Some(a) => a.parse().expect("REPS is a positive integer"),
        None => 3,
    };
    assert!(reps > 0, "REPS is a positive integer");
    println!(
        "services {}  total",
        PHASES.map(|p| format!("{p:>9}")).join("")
    );
    let mut rows: Vec<[f64; PHASES.len()]> = Vec::new();
    for services in SCALES {
        let runs: Vec<_> = (0..reps).map(|_| set_up(services)).collect();
        let row: [f64; PHASES.len()] = std::array::from_fn(|i| {
            let mut v: Vec<f64> = runs.iter().map(|r| r[i]).collect();
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        });
        let cells: String = row.iter().map(|s| format!("{s:>9.4}")).collect();
        println!("{services:>8} {cells}  {:.4}", row.iter().sum::<f64>());
        rows.push(row);
    }
    println!("growth per doubling:");
    for w in rows.windows(2) {
        let cells: String = (0..PHASES.len())
            .map(|i| format!("{:>8.2}x", w[1][i] / w[0][i]))
            .collect();
        let total = w[1].iter().sum::<f64>() / w[0].iter().sum::<f64>();
        println!("         {cells}  {total:.2}x");
    }
}
