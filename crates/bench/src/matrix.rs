//! The shared skeleton of the matrix and cross-validation binaries
//! (`ablation_{faults,overload,reconfig,consistency}`, `lint_validation`,
//! `capacity_validation`): one command-line parse, the conservation check
//! and cell lookup over a resilience matrix, and one report writer.

use blueprint_simrt::time::secs;
use blueprint_simrt::Fault;
use blueprint_workload::resilience::{CellReport, Scenario, Trigger};

use crate::Mode;

/// The command line of a matrix binary.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// `--quick` shortens the full run.
    pub mode: Mode,
    /// `--smoke` selects the CI-sized run, whose report is the committed
    /// `results/ci_*.txt` that CI compares byte for byte.
    pub smoke: bool,
}

impl Run {
    /// Parses `--quick` and `--smoke` from the process arguments.
    pub fn from_args() -> Run {
        Run {
            mode: Mode::from_args(),
            smoke: std::env::args().any(|a| a == "--smoke"),
        }
    }

    /// Prints the report and writes it to `results/<full>`, or under
    /// `--smoke` to `results/<smoke>`, leaving the full-run report alone.
    pub fn emit(&self, out: &str, full: &str, smoke: &str) {
        print!("{out}");
        std::fs::create_dir_all("results").expect("results dir");
        let path = format!("results/{}", if self.smoke { smoke } else { full });
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

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
        actions: vec![(mid, Trigger::Fault(fault))],
        window: (mid, mid + secs(2)),
        ..Scenario::baseline()
    }
}
