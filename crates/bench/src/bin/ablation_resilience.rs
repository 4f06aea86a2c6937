//! Ablation: which resilience-policy choices create or prevent the Type-1
//! metastable state? Sweeps retries × backoff × admission limits on the
//! load-spike scenario, holding everything else fixed.
//!
//! This backs the design-choice discussion in `DESIGN.md`: metastability in
//! the simulator is *mechanistic* — it appears exactly when retry
//! amplification pushes sustained effective load past capacity, and
//! disappears when retries are removed, backoff absorbs the amplification,
//! or admission control sheds the excess cheaply.

use blueprint_apps::{hotel_reservation as hr, WiringOpts};
use blueprint_bench::figures::{compile, figure_cfg, window_error_rate};
use blueprint_bench::{report, Run};
use blueprint_simrt::time::secs;
use blueprint_simrt::SimError;
use blueprint_wiring::{mutate, Arg};
use blueprint_workload::generator::Phase;
use blueprint_workload::parallel::{par_run, Threads};
use blueprint_workload::resilience::{run_cell, ResilienceConfig, Scenario};

/// Runs one arm; returns the post-spike error rate and the total retries.
fn run_arm(retries: u32, backoff_ms: i64, run: Run) -> (f64, u64) {
    let opts = WiringOpts {
        cluster: (8, 2.0),
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(500, retries.max(1))
    };
    let mut wiring = hr::wiring(&opts);
    if retries == 0 {
        mutate::remove_modifier_from_all_services(&mut wiring, "retry_all");
        mutate::remove_instance(&mut wiring, "retry_all").expect("retry removal");
    } else {
        mutate::set_kwarg(&mut wiring, "retry_all", "backoff_ms", Arg::Int(backoff_ms))
            .expect("backoff kwarg");
    }
    let app = compile(&hr::workflow(), &wiring);
    let (before, spike, after) = run.pick((2, 2, 3), (30, 20, 60));
    let cfg = ResilienceConfig {
        phases: vec![
            Phase::new(before, 2_500.0),
            Phase::new(spike, 13_000.0),
            Phase::new(after, 2_500.0),
        ],
        ..figure_cfg(71, hr::ENTITIES)
    };
    let report = run_cell(
        app.system(),
        &hr::paper_mix(),
        "",
        &Scenario::baseline(),
        &cfg,
    )
    .unwrap();
    // The judged window is the last `spike` seconds.
    let total = before + spike + after;
    let err = window_error_rate(&report.series, secs(total - spike), secs(total));
    (err.unwrap_or(0.0), report.counters.retries)
}

fn main() {
    let run = Run::from_args();
    // Each ablation arm compiles its own variant and runs its own seeded
    // simulation — independent jobs, run as one parallel batch. The smoke
    // keeps the no-retry arm and the most aggressive retry arm.
    let all = [(0u32, 0i64), (3, 0), (3, 100), (10, 0), (10, 10), (10, 200)];
    let smoke = [all[0], all[3]];
    let arms = run.pick(&smoke[..], &all[..]);
    let rows = par_run(arms.len(), Threads::from_env(), |i| {
        let (retries, backoff_ms) = arms[i];
        let (err, total_retries) = run_arm(retries, backoff_ms, run);
        Ok::<_, SimError>(vec![
            retries.to_string(),
            backoff_ms.to_string(),
            report::f3(err),
            if err > 0.5 {
                "METASTABLE".into()
            } else {
                "recovered".into()
            },
            total_retries.to_string(),
        ])
    })
    .expect("ablation arms run");
    let out = report::table(
        "Ablation — retry policy vs Type-1 metastability (post-spike window)",
        &[
            "retries",
            "backoff ms",
            "final err",
            "outcome",
            "total retries",
        ],
        &rows,
    );
    run.emit(&out, "ablation_resilience.txt", "ci_resilience.txt");
}
