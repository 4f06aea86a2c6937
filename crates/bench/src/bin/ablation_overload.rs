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
use blueprint_bench::matrix::{assert_conserved, compile_arms, overload_arms, BUDGET_RATIO};
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{run_matrix, CellReport};

fn row(case: &MetaCase, c: &CellReport) -> Vec<String> {
    vec![
        case.name.to_string(),
        c.variant.clone(),
        c.conservation.ok.to_string(),
        c.conservation.errors.to_string(),
        if c.conservation.holds() {
            "yes".into()
        } else {
            "LOST".into()
        },
        if c.assessment.metastable {
            "YES".into()
        } else {
            "no".into()
        },
        match c.assessment.recovery_ns {
            None => "never".into(),
            Some(ns) => format!("{:.1}", ns as f64 / 1e9),
        },
        report::f3(c.hop_amplification()),
        report::f3(c.wire_amplification()),
        c.counters.retries.to_string(),
        c.counters.budget_denied.to_string(),
        c.counters.shed_rejections.to_string(),
        c.counters.deadline_exceeded.to_string(),
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
        // The smoke keeps the hazard and the arm that bounds it by
        // construction.
        let arms = overload_arms(&case.wiring)
            .into_iter()
            .filter(|(label, _)| run == Run::Full || ["none", "retry-budget"].contains(label))
            .collect();
        let variants = compile_arms(&case.workflow, arms);
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
                    c.hop_amplification() <= 1.0 + BUDGET_RATIO + 0.01,
                    "retry budget failed to bound amplification in [{} × {}]: {:.3}",
                    case.name,
                    c.variant,
                    c.hop_amplification()
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
                unmitigated.assessment.metastable,
                "{}: unmitigated arm recovered — not metastable (recovery {:?})",
                case.name, unmitigated.assessment.recovery_ns
            );
            let recovered: Vec<&str> = cells
                .iter()
                .filter(|c| c.variant != "none" && !c.assessment.metastable)
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
