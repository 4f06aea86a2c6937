//! The `LintPass` trait, rule metadata, and the built-in pass set.

pub mod backend_guard;
pub mod capacity;
pub mod consistency;
pub mod deadline_propagation;
pub mod idempotency;
pub mod load_balancing;
pub mod reachability;
pub mod restart_hazard;
pub mod retry_amplification;
pub mod retry_budget;
pub mod timeout_inversion;

use crate::context::LintContext;
use crate::diagnostic::{Diagnostic, Severity};

/// Static metadata of one lint rule. A pass owns one or more rules (e.g.
/// the reachability pass owns both `unreachable-component` and
/// `dead-modifier`); the rule carries the stable id and default severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Stable id, e.g. `BP001`. Never renumbered or reused.
    pub id: &'static str,
    /// Slug, e.g. `retry-amplification`.
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line description for `--help`-style listings.
    pub summary: &'static str,
    /// Longer explanation for `--explain`: the hazard, what the
    /// diagnostic's `bound` field means, and the canonical fix.
    pub doc: &'static str,
}

/// A static analysis pass: graph + wiring in, diagnostics out.
///
/// Passes must be pure functions of the context — no interior state, no
/// ordering dependence between passes — and must emit deterministically
/// ordered findings (iterate ids ascending).
pub trait LintPass {
    /// The rules this pass can emit.
    fn rules(&self) -> Vec<&'static Rule>;

    /// Runs the analysis.
    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;
}

/// The built-in pass set, in rule-id order.
pub fn default_passes() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(retry_amplification::RetryAmplification),
        Box::new(timeout_inversion::TimeoutInversion),
        Box::new(load_balancing::LoadBalancing),
        Box::new(idempotency::RetryIdempotency),
        Box::new(reachability::Reachability),
        Box::new(backend_guard::BackendGuard),
        Box::new(deadline_propagation::DeadlinePropagation),
        Box::new(retry_budget::RetryBudgetFanout),
        Box::new(restart_hazard::RestartHazard),
        Box::new(capacity::Capacity),
        Box::new(consistency::StoreConsistency),
    ]
}
