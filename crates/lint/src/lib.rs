//! `blueprint-lint`: static analysis over the Blueprint IR.
//!
//! The compiler's validation stage *rejects* ill-formed graphs (structural
//! invariants, the §4.3.2 visibility check). This crate goes one step
//! further: it inspects graphs that are well-formed yet *pathological* —
//! configurations that compile and deploy but exhibit the metastability
//! failures the fault-injection harness measures dynamically (retry storms,
//! timeout inversions, unbalanced replicas). Every rule is a prediction
//! about runtime behavior, and `crates/bench`'s `lint_validation` binary
//! cross-validates the headline rules against the deterministic fault
//! simulator.
//!
//! # Rule catalog
//!
//! | Rule  | Name                  | Default  | Hazard                                            |
//! |-------|-----------------------|----------|---------------------------------------------------|
//! | BP001 | retry-amplification   | warn     | retry product along a call chain exceeds the threshold with no breaker on the chain |
//! | BP002 | timeout-inversion     | deny     | a service's inbound deadline is smaller than its worst-case downstream budget |
//! | BP003 | replica-no-lb         | deny     | ≥2 instances of one service impl with no load balancer fronting them |
//! | BP004 | lb-single-target      | deny     | a load balancer fronting a single instance        |
//! | BP005 | retry-non-idempotent  | warn     | a retried edge invokes a method not marked idempotent |
//! | BP006 | unreachable-component | deny     | a component no entry point reaches                |
//! | BP007 | dead-modifier         | deny     | a declared modifier applied to no instance        |
//! | BP008 | unbounded-queue       | warn     | a queue backend with no explicit capacity bound   |
//! | BP009 | missing-breaker       | warn     | a retried, brownout-prone backend with no circuit breaker |
//! | BP010 | missing-deadline-propagation | warn | a deadline-guarded entry reaches a service that drops the propagated deadline |
//! | BP011 | unbudgeted-retry-fanout | warn   | a retried service with neither a retry budget nor a circuit breaker |
//! | BP012 | drainless-restart-hazard | warn  | a planned drainless restart of a service whose gap nothing absorbs (no breaker, no retried LB sibling) |
//! | BP013 | capacity-saturation   | deny     | a machine's analytic utilization reaches 1 at the declared target rate (warn above the knee threshold) |
//! | BP014 | infeasible-timeout    | deny     | a timeout/deadline budget below the analytic sojourn even unloaded (warn when only the loaded estimate misses) |
//! | BP015 | autoscaler-ceiling    | warn     | the autoscaler's max replicas still leave a replica group saturated at peak rate |
//! | BP016 | stale-read-hazard     | warn     | a read-after-write path through an async-replicated store with no session or quorum guarantee |
//! | BP017 | failover-lost-write   | warn     | a fault/restart plan kills an async-replicated store whose effective write quorum is below 2 |
//!
//! BP013–BP015 run only when the caller supplies the workflow spec (the
//! `Behavior` programs feed the [`model`] module's visit-ratio
//! traversal) — use [`Linter::run_with_workflow`]; [`Linter::run`] keeps
//! them silent. BP013/BP015 additionally need declared traffic
//! ([`LintConfig::traffic`] / [`LintConfig::scaling_limits`]); BP014's
//! unloaded deny fires from the graph alone.
//!
//! Rule ids are stable: tooling (the CI gate, baseline suppression files)
//! keys on them, so ids are never reused or renumbered.
//!
//! # Running
//!
//! ```
//! use blueprint_ir::{IrGraph, Granularity};
//! use blueprint_wiring::WiringSpec;
//! use blueprint_lint::Linter;
//!
//! let ir = IrGraph::new("demo");
//! let wiring = WiringSpec::new("demo");
//! let diags = Linter::default().run(&ir, &wiring);
//! assert!(diags.is_empty());
//! ```

pub mod context;
pub mod diagnostic;
pub mod model;
pub mod passes;
pub mod render;

pub use context::LintContext;
pub use diagnostic::{Diagnostic, Severity, Subject};
pub use passes::{LintPass, Rule};
pub use render::{dot_findings, render_json, render_text};

/// A planned runtime restart the BP012 pass checks against the graph: the
/// lint-side projection of a `ReconfigPlan` rolling step or a bare
/// `ProcRestart`/`ProcessCrash` fault entry. Callers map their plan to
/// service-instance names (the simulator's own validation handles unknown
/// names, so targets absent from the graph are skipped here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartTarget {
    /// Service-instance name (the IR node name).
    pub service: String,
    /// Whether the restart skips draining: `true` for drainless rolling
    /// steps and for bare process-restart fault entries (which never
    /// drain); `false` for drained rolling steps.
    pub drainless: bool,
}

/// One row of a declared traffic mix: requests entering `service.method`
/// with relative `weight`.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEntry {
    /// Entry-service instance name (the IR node name).
    pub service: String,
    /// Method invoked on the entry.
    pub method: String,
    /// Relative weight (normalized across the mix).
    pub weight: f64,
}

/// Declared offered load the capacity rules (BP013/BP014's loaded tier)
/// evaluate against.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficSpec {
    /// Target aggregate arrival rate, requests/second.
    pub rps: f64,
    /// Mix rows; empty spreads uniformly over every entry × method (the
    /// workload generator's default).
    pub mix: Vec<MixEntry>,
}

/// BP015: a replica group's scaling envelope — the lint-side projection of
/// an `AutoscalerSpec` / `Change::Scale` ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingLimit {
    /// Replica-group base service name.
    pub service: String,
    /// Maximum replicas the autoscaler may reach.
    pub max_replicas: usize,
    /// Peak arrival rate to evaluate at; `None` uses `traffic.rps`.
    pub peak_rps: Option<f64>,
}

/// Linter configuration: the deployment plan and traffic the plan-relative
/// rules check against. Every rule's thresholds are fixed
/// ([`passes::retry_amplification::AMPLIFICATION_THRESHOLD`],
/// [`passes::capacity::UTILIZATION_KNEE`]).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// BP012: planned restarts to check for drainless-restart hazards.
    /// Empty (the default) disables the rule — restart hazards only exist
    /// relative to a concrete deployment plan.
    pub restart_targets: Vec<RestartTarget>,
    /// BP013/BP015 and BP014's loaded tier: the declared offered load.
    /// `None` (the default) disables the rate-dependent checks — capacity
    /// hazards only exist relative to a target rate.
    pub traffic: Option<TrafficSpec>,
    /// BP015: scaling ceilings to check. Empty (the default) disables the
    /// rule, like `restart_targets` for BP012.
    pub scaling_limits: Vec<ScalingLimit>,
}

impl LintConfig {
    /// Adds a planned restart for BP012 to check.
    pub fn with_restart_target(mut self, service: &str, drainless: bool) -> Self {
        self.restart_targets.push(RestartTarget {
            service: service.to_string(),
            drainless,
        });
        self
    }

    /// Declares the target arrival rate (uniform mix over entries).
    pub fn with_target_rps(mut self, rps: f64) -> Self {
        let mix = self.traffic.take().map(|t| t.mix).unwrap_or_default();
        self.traffic = Some(TrafficSpec { rps, mix });
        self
    }

    /// Adds one traffic-mix row (declares a target rate of 0 if none was
    /// set yet — combine with [`LintConfig::with_target_rps`]).
    pub fn with_mix(mut self, service: &str, method: &str, weight: f64) -> Self {
        let mut t = self.traffic.take().unwrap_or(TrafficSpec {
            rps: 0.0,
            mix: Vec::new(),
        });
        t.mix.push(MixEntry {
            service: service.to_string(),
            method: method.to_string(),
            weight,
        });
        self.traffic = Some(t);
        self
    }

    /// Adds a scaling ceiling for BP015 to check.
    pub fn with_scaling_limit(
        mut self,
        service: &str,
        max_replicas: usize,
        peak_rps: Option<f64>,
    ) -> Self {
        self.scaling_limits.push(ScalingLimit {
            service: service.to_string(),
            max_replicas,
            peak_rps,
        });
        self
    }
}

/// The pass registry: owns the pass list and the configuration, runs every
/// pass, and returns a deterministically ordered diagnostic list.
pub struct Linter {
    passes: Vec<Box<dyn LintPass>>,
    config: LintConfig,
}

impl Default for Linter {
    fn default() -> Self {
        Linter::new(LintConfig::default())
    }
}

impl Linter {
    /// A linter with the built-in pass set and the given configuration.
    pub fn new(config: LintConfig) -> Self {
        Linter {
            passes: passes::default_passes(),
            config,
        }
    }

    /// The rules contributed by every registered pass.
    pub fn rules(&self) -> Vec<&'static Rule> {
        self.passes.iter().flat_map(|p| p.rules()).collect()
    }

    /// Runs every pass over the graph + wiring pair. The capacity rules
    /// (BP013–BP015) stay silent — use [`Linter::run_with_workflow`] to
    /// enable them.
    pub fn run(
        &self,
        ir: &blueprint_ir::IrGraph,
        wiring: &blueprint_wiring::WiringSpec,
    ) -> Vec<Diagnostic> {
        self.run_with_workflow(ir, wiring, None)
    }

    /// Runs every pass, supplying the workflow spec's behavior programs so
    /// the analytic capacity model (BP013–BP015) can run.
    ///
    /// Diagnostics come back sorted by rule id, then primary subject, then
    /// message, so output is stable across runs.
    pub fn run_with_workflow(
        &self,
        ir: &blueprint_ir::IrGraph,
        wiring: &blueprint_wiring::WiringSpec,
        workflow: Option<&blueprint_workflow::WorkflowSpec>,
    ) -> Vec<Diagnostic> {
        let ctx = LintContext::new(ir, wiring, &self.config, workflow);
        let mut out: Vec<Diagnostic> = Vec::new();
        for pass in &self.passes {
            out.extend(pass.run(&ctx));
        }
        out.sort_by(|a, b| {
            (&a.rule, a.primary_subject(), &a.message).cmp(&(
                &b.rule,
                b.primary_subject(),
                &b.message,
            ))
        });
        out
    }
}

/// Counts diagnostics at or above `deny` level.
pub fn deny_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{Granularity, IrGraph, Node, NodeRole};
    use blueprint_wiring::WiringSpec;

    fn graph_with_dead_modifier() -> (IrGraph, WiringSpec) {
        let mut ir = IrGraph::new("t");
        ir.add_component("svc", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_node(Node::new(
            "orphan_retry",
            "mod.retry",
            NodeRole::Modifier,
            Granularity::Instance,
        ))
        .unwrap();
        let mut w = WiringSpec::new("t");
        w.define("orphan_retry", "Retry", vec![]).unwrap();
        w.service("svc", "SvcImpl", &[], &[]).unwrap();
        (ir, w)
    }

    #[test]
    fn rule_catalog_is_complete_and_unique() {
        let linter = Linter::default();
        let rules = linter.rules();
        let ids: Vec<&str> = rules.iter().map(|r| r.id).collect();
        for expect in [
            "BP001", "BP002", "BP003", "BP004", "BP005", "BP006", "BP007", "BP008", "BP009",
            "BP010", "BP011", "BP012", "BP013", "BP014", "BP015", "BP016", "BP017",
        ] {
            assert!(ids.contains(&expect), "missing rule {expect}");
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate rule ids");
    }

    #[test]
    fn output_is_deterministic() {
        let (ir, w) = graph_with_dead_modifier();
        let a = Linter::default().run(&ir, &w);
        let b = Linter::default().run(&ir, &w);
        assert_eq!(a, b);
    }
}
