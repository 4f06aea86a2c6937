//! Fault × mitigation resilience matrix (the robustness exhibit).
//!
//! Runs HotelReservation through three fault scenarios — frontend-path
//! process crash, frontend↔profile partition, rate-DB brownout — under four
//! mitigation arms built as wiring mutations (none / retry / retry+breaker /
//! retry+breaker+timeout) and verifies the resilience invariants in every
//! cell:
//!
//! * **conservation** — every submitted request terminates exactly once
//!   (the harness panics on any violation);
//! * **bounded unavailability** — error intervals stay inside the fault
//!   window plus the recovery-time objective;
//! * **retry amplification** — the retry-only arm shows the wire-level
//!   amplification hazard; the breaker arms suppress it.
//!
//! Output goes to stdout and `results/fault_matrix.txt`. `--smoke` limits
//! the matrix to 2 cells and writes `results/ci_fault_matrix.txt` (the CI
//! smoke, which compares `BLUEPRINT_THREADS=1` vs `=4` byte-for-byte).

use blueprint_apps::{hotel_reservation as hr, WiringOpts};
use blueprint_bench::matrix::{
    assert_conserved, compile_arms, fault_cfg, mid_run_fault, retry_storm, search_crash,
    with_breaker, FAULT_RPS,
};
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_simrt::time::secs;
use blueprint_simrt::{Fault, SystemSpec};
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{run_matrix, CellReport, Scenario};

/// The four mitigation arms, each a wiring mutation away from the last.
fn variants(smoke: bool) -> Vec<(String, SystemSpec)> {
    let base = WiringOpts::default().without_tracing();
    let retry = retry_storm(base);
    let breaker = with_breaker(retry.clone());
    let arms = if smoke {
        // The CI smoke: the hazard arm and its suppression, one scenario.
        vec![("retry", retry), ("retry+breaker", breaker)]
    } else {
        let timeout = with_breaker(retry_storm(WiringOpts {
            timeout_ms: Some(500),
            ..base
        }));
        vec![
            ("none", hr::wiring(&base)),
            ("retry", retry),
            ("retry+breaker", breaker),
            ("retry+breaker+timeout", timeout),
        ]
    };
    compile_arms(&hr::workflow(), arms)
}

/// The fault scenarios, placed mid-run so the steady state is visible on
/// both sides of the outage.
fn scenarios(smoke: bool, duration_s: u64) -> Vec<Scenario> {
    let mut scenarios = vec![search_crash(duration_s)];
    if smoke {
        return scenarios;
    }
    let partition = Fault::Partition {
        a: "proc_frontend".into(),
        b: "proc_profile".into(),
        duration_ns: secs(2),
    };
    let brownout = Fault::Brownout {
        backend: "rate_db".into(),
        duration_ns: secs(2),
        slow_factor: 8.0,
        unavailable: false,
    };
    scenarios.push(mid_run_fault(
        "frontend/profile partition 2s",
        duration_s,
        partition,
    ));
    scenarios.push(mid_run_fault(
        "rate_db brownout ×8 2s",
        duration_s,
        brownout,
    ));
    scenarios
}

fn row(c: &CellReport) -> Vec<String> {
    vec![
        c.variant.clone(),
        c.scenario.clone(),
        c.conservation.ok.to_string(),
        c.conservation.errors.to_string(),
        if c.conservation.holds() {
            "yes".into()
        } else {
            "LOST".into()
        },
        format!("{:.0}", c.assessment.unavailable_ns as f64 / 1e6),
        if c.assessment.bounded {
            "yes".into()
        } else {
            "NO".into()
        },
        c.counters.retries.to_string(),
        c.counters.breaker_rejections.to_string(),
        report::f3(c.wire_amplification()),
    ]
}

fn main() {
    let run = Run::from_args();
    let duration_s = run.pick(8, 20);
    let cfg = fault_cfg(duration_s);
    let variants = variants(run == Run::Smoke);
    let scenarios = scenarios(run == Run::Smoke, duration_s);
    let cells = run_matrix(
        &variants,
        &scenarios,
        &hr::paper_mix(),
        &cfg,
        Threads::from_env(),
    )
    .expect("fault matrix runs");

    // Hard invariant: request conservation in every cell, fault or not.
    assert_conserved(&cells);
    // The amplification story: the retry-only arm pushes extra attempts
    // onto the wire during the crash outage; the breaker arm suppresses it.
    let wire = |variant: &str| {
        cells
            .iter()
            .find(|c| c.variant == variant && c.scenario.contains("crash"))
            .map(CellReport::wire_amplification)
    };
    if let (Some(hazard), Some(suppressed)) = (wire("retry"), wire("retry+breaker")) {
        assert!(
            hazard > suppressed,
            "breaker failed to suppress retry amplification: retry-only {hazard:.3} \
             vs breaker {suppressed:.3}"
        );
    }

    let out = report::table(
        &format!(
            "Fault × mitigation matrix — HotelReservation, {} rps, {}s, seed {}",
            FAULT_RPS, duration_s, cfg.seed
        ),
        &[
            "variant",
            "scenario",
            "ok",
            "errors",
            "conserved",
            "unavail ms",
            "bounded",
            "retries",
            "breaker rej",
            "wire amp",
        ],
        &cells.iter().map(row).collect::<Vec<_>>(),
    );
    run.emit(&out, "fault_matrix.txt", "ci_fault_matrix.txt");
}
