//! The shared skeleton of the matrix and cross-validation binaries
//! (`ablation_{faults,overload,reconfig,consistency}`, `lint_validation`,
//! `capacity_validation`): the conservation check and cell lookup over a
//! resilience matrix, the mid-run fault scenario, and the consistency arms
//! that `ablation_consistency` runs and `lint_validation` lints.

use blueprint_apps::{social_network as sn, WiringOpts};
use blueprint_simrt::time::secs;
use blueprint_simrt::{Fault, FaultPlan};
use blueprint_wiring::WiringSpec;
use blueprint_workload::resilience::{CellReport, Scenario};

/// Replication lag bounds of the consistency arms, ms (quorum writes pay up
/// to the max as ack latency, so this also bounds the quorum arm's write
/// surcharge).
pub const CONSISTENCY_LAG_MS: (i64, i64) = (100, 400);

/// The consistency matrix's arms over the replicated SocialNetwork
/// (direct-timeline variant, 2 `ut_db` replicas), labelled: `read-replica`
/// (the unguarded default), `quorum-w2-r2` and `session`. They share one
/// topology and differ only by the `ut_db` consistency mode, one wiring
/// line. Pair them with [`sn::workflow_direct_timeline`].
pub fn consistency_arms() -> Vec<(&'static str, WiringSpec)> {
    let opts = WiringOpts::default().without_tracing();
    let (lo, hi) = CONSISTENCY_LAG_MS;
    [
        ("read-replica", "read_replica", None),
        ("quorum-w2-r2", "quorum", Some((2, 2))),
        ("session", "session", None),
    ]
    .into_iter()
    .map(|(label, mode, quorum)| {
        let w = sn::wiring_direct_timeline(&opts, lo, hi, mode, quorum);
        (label, w)
    })
    .collect()
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
        faults: FaultPlan::none().at(mid, fault),
        window: (mid, mid + secs(2)),
        ..Scenario::baseline()
    }
}
