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
use blueprint_bench::matrix::{assert_conserved, mid_run_fault};
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_core::Blueprint;
use blueprint_simrt::time::secs;
use blueprint_simrt::{Fault, SystemSpec};
use blueprint_wiring::{mutate, Arg, WiringSpec};
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{run_matrix, CellReport, ResilienceConfig, Scenario};

/// Compiles one mitigation arm of the hotel app.
fn compile(wiring: &WiringSpec) -> SystemSpec {
    Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), wiring)
        .expect("hotel variant compiles")
        .system()
        .clone()
}

/// The four mitigation arms, each a wiring mutation away from the last.
fn variants(smoke: bool) -> Vec<(String, SystemSpec)> {
    let base = WiringOpts::default().without_tracing();

    // Arm 1: no mitigation at all.
    let none = hr::wiring(&base);

    // Arm 2: retries only — the amplification hazard. Exponential backoff
    // with a cap, set through the Retry plugin's kwargs.
    let retry_opts = WiringOpts {
        retries: 10,
        ..base
    };
    let mut retry = hr::wiring(&retry_opts);
    mutate::set_kwarg(&mut retry, "retry_all", "exp_base", Arg::Float(2.0)).expect("exp_base");
    mutate::set_kwarg(&mut retry, "retry_all", "max_backoff_ms", Arg::Int(50))
        .expect("max_backoff_ms");

    // Arm 3: retries + circuit breaker (one declaration, attached to every
    // service — the UC3 2-line mutation).
    let mut breaker = retry.clone();
    mutate::attach_policy_to_all_services(
        &mut breaker,
        "breaker",
        "CircuitBreaker",
        vec![
            ("threshold", Arg::Float(0.5)),
            ("window", Arg::Int(50)),
            ("open_ms", Arg::Int(500)),
            ("probes", Arg::Int(3)),
        ],
    )
    .expect("breaker mutation");

    // Arm 4: retries + breaker + per-RPC timeouts.
    let timeout_opts = WiringOpts {
        retries: 10,
        timeout_ms: Some(500),
        ..base
    };
    let mut full = hr::wiring(&timeout_opts);
    mutate::set_kwarg(&mut full, "retry_all", "exp_base", Arg::Float(2.0)).expect("exp_base");
    mutate::set_kwarg(&mut full, "retry_all", "max_backoff_ms", Arg::Int(50))
        .expect("max_backoff_ms");
    mutate::attach_policy_to_all_services(
        &mut full,
        "breaker",
        "CircuitBreaker",
        vec![
            ("threshold", Arg::Float(0.5)),
            ("window", Arg::Int(50)),
            ("open_ms", Arg::Int(500)),
            ("probes", Arg::Int(3)),
        ],
    )
    .expect("breaker mutation");

    if smoke {
        // The CI smoke: the hazard arm and its suppression, one scenario.
        vec![
            ("retry".to_string(), compile(&retry)),
            ("retry+breaker".to_string(), compile(&breaker)),
        ]
    } else {
        vec![
            ("none".to_string(), compile(&none)),
            ("retry".to_string(), compile(&retry)),
            ("retry+breaker".to_string(), compile(&breaker)),
            ("retry+breaker+timeout".to_string(), compile(&full)),
        ]
    }
}

/// The fault scenarios, placed mid-run so the steady state is visible on
/// both sides of the outage.
fn scenarios(smoke: bool, duration_s: u64) -> Vec<Scenario> {
    let crash = Fault::ProcessCrash {
        process: "proc_search".into(),
        restart_delay_ns: secs(2),
    };
    let mut scenarios = vec![mid_run_fault("search crash 2s", duration_s, crash)];
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
        if c.conserved {
            "yes".into()
        } else {
            "LOST".into()
        },
        format!("{:.0}", c.unavailable_ns as f64 / 1e6),
        if c.bounded { "yes".into() } else { "NO".into() },
        c.retries.to_string(),
        c.breaker_rejections.to_string(),
        report::f3(c.wire_amplification),
    ]
}

fn main() {
    let run = Run::from_args();
    let duration_s = run.pick(8, 20);
    let cfg = ResilienceConfig {
        rps: 1_500.0,
        duration_s,
        entities: hr::ENTITIES,
        seed: 41,
        rto_ns: secs(3),
        ..Default::default()
    };
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
            .map(|c| c.wire_amplification)
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
            cfg.rps, cfg.duration_s, cfg.seed
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
