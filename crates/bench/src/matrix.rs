//! The shared skeleton of the matrix and cross-validation binaries
//! (`ablation_{faults,overload,reconfig,consistency}`, `lint_validation`,
//! `capacity_validation`): the conservation check and cell lookup over a
//! resilience matrix, and the mid-run fault scenario.

use blueprint_simrt::time::secs;
use blueprint_simrt::Fault;
use blueprint_workload::resilience::{CellReport, Scenario};

/// Panics unless every cell terminated each submitted request exactly once.
pub fn assert_conserved(cells: &[CellReport]) {
    for c in cells {
        assert!(
            c.conserved,
            "conservation violated in [{} × {}]: {}",
            c.variant, c.scenario, c.conservation
        );
    }
}

/// The `(variant, scenario)` cell of a matrix.
pub fn cell<'a>(cells: &'a [CellReport], variant: &str, scenario: &str) -> &'a CellReport {
    cells
        .iter()
        .find(|c| c.variant == variant && c.scenario == scenario)
        .unwrap_or_else(|| panic!("cell [{variant} × {scenario}] present"))
}

/// One 2 s fault injected at 40% of a `duration_s` run, so the steady state
/// is visible on both sides of the outage; the judged window is the 2 s.
pub fn mid_run_fault(name: &str, duration_s: u64, fault: Fault) -> Scenario {
    let mid = secs(duration_s * 2 / 5);
    Scenario {
        name: name.to_string(),
        actions: vec![(mid, fault)],
        window: (mid, mid + secs(2)),
        ..Scenario::baseline()
    }
}
