//! Overload-protection ablation: the four Fig. 6 metastability types ×
//! mitigation arms, verified through the resilience matrix.
//!
//! Each of the paper's metastable failure modes (load-spike retry storm, GC
//! amplification, capacity dip, cache-flush DB overload) runs unmitigated
//! and under the overload-protection scaffolding attached as 1-line wiring
//! mutations:
//!
//! * **deadline** — propagated request deadlines (stale queued work fails
//!   fast instead of occupying servers);
//! * **retry-budget** — a Finagle-style token bucket capping hop-level wire
//!   amplification at `1 + ratio` by construction;
//! * **shed** — an adaptive service-side admission controller that sheds
//!   arrivals while sojourn delay exceeds its target;
//! * **all** — the three combined (`mutate::attach_overload_protection`).
//!
//! Invariants asserted in every cell: request conservation, and on budget
//! arms the amplification bound. Per type: the unmitigated arm must be
//! flagged *metastable* (degraded state sustained after the trigger
//! cleared) and at least one protected arm must recover.
//!
//! Output goes to stdout and `results/overload_matrix.txt`. `--smoke` runs
//! a miniature Type 1 with two arms into `results/ci_overload.txt` (the CI
//! determinism compare).

use blueprint_bench::figures::fig6::{meta_cases, smoke_case, MetaCase};
use blueprint_bench::matrix::assert_conserved;
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_core::Blueprint;
use blueprint_simrt::SystemSpec;
use blueprint_wiring::{mutate, Arg, WiringSpec};
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{run_matrix, CellReport};

/// Budget ratio used on the retry-budget arms (the bound asserted below).
const BUDGET_RATIO: f64 = 0.2;

fn compile(case: &MetaCase, wiring: &WiringSpec) -> SystemSpec {
    Blueprint::new()
        .without_artifacts()
        .compile(&case.workflow, wiring)
        .expect("overload variant compiles")
        .system()
        .clone()
}

/// The mitigation arms, each a wiring mutation away from the unmitigated
/// case.
fn arms(case: &MetaCase, smoke: bool) -> Vec<(String, SystemSpec)> {
    let none = case.wiring.clone();

    let mut budget = none.clone();
    mutate::attach_policy_to_all_services(
        &mut budget,
        "budget_all",
        "RetryBudget",
        vec![("ratio", Arg::Float(BUDGET_RATIO))],
    )
    .expect("budget mutation");

    if smoke {
        return vec![
            ("none".to_string(), compile(case, &none)),
            ("retry-budget".to_string(), compile(case, &budget)),
        ];
    }

    let mut deadline = none.clone();
    mutate::attach_policy_to_all_services(
        &mut deadline,
        "deadline_all",
        "Deadline",
        vec![("ms", Arg::Int(1_000)), ("margin_ms", Arg::Int(2))],
    )
    .expect("deadline mutation");

    let mut shed = none.clone();
    mutate::attach_policy_to_all_services(
        &mut shed,
        "shed_all",
        "LoadShed",
        vec![("target_ms", Arg::Int(50))],
    )
    .expect("shed mutation");

    let mut all = none.clone();
    mutate::attach_overload_protection(&mut all, 1_000.0, BUDGET_RATIO, 50.0)
        .expect("combined mutation");

    vec![
        ("none".to_string(), compile(case, &none)),
        ("deadline".to_string(), compile(case, &deadline)),
        ("retry-budget".to_string(), compile(case, &budget)),
        ("shed".to_string(), compile(case, &shed)),
        ("all".to_string(), compile(case, &all)),
    ]
}

fn row(case: &MetaCase, c: &CellReport) -> Vec<String> {
    vec![
        case.name.to_string(),
        c.variant.clone(),
        c.conservation.ok.to_string(),
        c.conservation.errors.to_string(),
        if c.conserved {
            "yes".into()
        } else {
            "LOST".into()
        },
        if c.metastable {
            "YES".into()
        } else {
            "no".into()
        },
        match c.recovery_ns {
            None => "never".into(),
            Some(ns) => format!("{:.1}", ns as f64 / 1e9),
        },
        report::f3(c.hop_amplification),
        report::f3(c.wire_amplification),
        c.retries.to_string(),
        c.budget_denied.to_string(),
        c.shed_rejections.to_string(),
        c.deadline_exceeded.to_string(),
    ]
}

fn main() {
    let run = Run::from_args();
    let cases = if run == Run::Smoke {
        vec![smoke_case()]
    } else {
        meta_cases()
    };

    let mut rows = Vec::new();
    for case in &cases {
        let variants = arms(case, run == Run::Smoke);
        let scenarios = vec![case.scenario.clone()];
        let cells = run_matrix(
            &variants,
            &scenarios,
            &case.mix,
            &case.cfg,
            Threads::from_env(),
        )
        .expect("overload matrix runs");

        // Hard invariant: request conservation in every cell.
        assert_conserved(&cells);
        for c in &cells {
            // Hard invariant: the token bucket bounds hop-level wire
            // amplification by construction (the cap allows a 10-token
            // initial burst, hence the epsilon).
            if c.variant.contains("budget") || c.variant == "all" {
                assert!(
                    c.hop_amplification <= 1.0 + BUDGET_RATIO + 0.01,
                    "retry budget failed to bound amplification in [{} × {}]: {:.3}",
                    case.name,
                    c.variant,
                    c.hop_amplification
                );
            }
        }

        if run == Run::Full {
            // The headline: unmitigated stays degraded after the trigger
            // clears; at least one protected arm returns to steady state.
            let unmitigated = cells
                .iter()
                .find(|c| c.variant == "none")
                .expect("unmitigated arm present");
            assert!(
                unmitigated.metastable,
                "{}: unmitigated arm recovered — not metastable (recovery {:?})",
                case.name, unmitigated.recovery_ns
            );
            let recovered: Vec<&str> = cells
                .iter()
                .filter(|c| c.variant != "none" && !c.metastable)
                .map(|c| c.variant.as_str())
                .collect();
            assert!(
                !recovered.is_empty(),
                "{}: no mitigation arm restored steady state",
                case.name
            );
        }

        rows.extend(cells.iter().map(|c| row(case, c)));
    }

    let out = report::table(
        &format!(
            "Overload-protection ablation — Fig. 6 metastability types × mitigation arms{}",
            run.pick(" (smoke)", "")
        ),
        &[
            "type",
            "arm",
            "ok",
            "errors",
            "conserved",
            "metastable",
            "recovery s",
            "hop amp",
            "wire amp",
            "retries",
            "budget denied",
            "shed",
            "deadline",
        ],
        &rows,
    );
    run.emit(&out, "overload_matrix.txt", "ci_overload.txt");
}
