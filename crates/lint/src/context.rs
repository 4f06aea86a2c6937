//! Shared analysis context and graph queries used by multiple passes.

pub use blueprint_ir::kind_matches;
use blueprint_ir::{deploy, EdgeKind, IrGraph, NodeId};
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;

use crate::LintConfig;

/// Kind prefixes the passes key on. Centralised so a plugin rename is a
/// one-line fix here rather than a scavenger hunt through the passes.
pub mod kind {
    /// Workflow service instances.
    pub const SERVICE: &str = blueprint_ir::deploy::SERVICE_KIND;
    /// Load balancer components.
    pub const LOAD_BALANCER: &str = blueprint_ir::deploy::LOAD_BALANCER_KIND;
    /// Retry modifiers.
    pub const RETRY: &str = "mod.retry";
    /// Timeout modifiers.
    pub const TIMEOUT: &str = "mod.timeout";
    /// Circuit breaker modifiers.
    pub const BREAKER: &str = "mod.breaker";
    /// Deadline-propagation modifiers.
    pub const DEADLINE: &str = "mod.deadline";
    /// Retry-budget modifiers.
    pub const RETRY_BUDGET: &str = "mod.retrybudget";
    /// Load-shed (admission control) modifiers.
    pub const SHED: &str = "mod.shed";
    /// RPC server modifiers (transport cost props live here). HTTP servers
    /// are a sibling `mod.http` family with the same props.
    pub const RPC: &str = "mod.rpc";
    /// HTTP server modifiers.
    pub const HTTP: &str = "mod.http";
    /// Tracer modifiers (per-span overhead props live here).
    pub const TRACER: &str = "mod.tracer";
    /// Queue backends.
    pub const QUEUE: &str = "backend.queue";
    /// Cache backends.
    pub const CACHE: &str = "backend.cache";
    /// Brownout-prone backends: storage whose latency collapses under
    /// overload (the PR-3 brownout scenarios target these).
    pub const BROWNOUT_PRONE: [&str; 2] = ["backend.nosql", "backend.reldb"];
}

/// Immutable view a pass runs against: the post-pass IR, the originating
/// wiring spec, and the lint configuration.
pub struct LintContext<'a> {
    /// The compiled (post-transform) IR graph.
    pub ir: &'a IrGraph,
    /// The wiring spec the graph was built from.
    pub wiring: &'a WiringSpec,
    /// Numeric thresholds.
    pub config: &'a LintConfig,
    /// The workflow spec, when the caller has one. The quantitative capacity
    /// rules (BP013–BP015) need the `Behavior` programs; structural rules run
    /// fine without it.
    pub workflow: Option<&'a WorkflowSpec>,
}

impl<'a> LintContext<'a> {
    /// Builds a context. Without a workflow the capacity rules stay silent.
    pub fn new(
        ir: &'a IrGraph,
        wiring: &'a WiringSpec,
        config: &'a LintConfig,
        workflow: Option<&'a WorkflowSpec>,
    ) -> Self {
        LintContext {
            ir,
            wiring,
            config,
            workflow,
        }
    }

    /// All workflow service nodes, id-ascending.
    pub fn services(&self) -> Vec<NodeId> {
        self.ir.nodes_with_kind_prefix(kind::SERVICE)
    }

    /// Entry points: the lowering's workload entries
    /// ([`deploy::entry_services`]).
    pub fn entry_services(&self) -> Vec<NodeId> {
        deploy::entry_services(self.ir)
    }

    /// The positive, finite numeric prop `key` of the modifier of kind
    /// `prefix` on `node`'s chain. The compiler rejects a chain with two
    /// client-side modifiers of one kind, so there is at most one.
    fn modifier_prop(&self, node: NodeId, prefix: &str, key: &str) -> Option<f64> {
        let n = self.ir.node(node).ok()?;
        let m = n
            .modifiers()
            .iter()
            .filter_map(|&m| self.ir.node(m).ok())
            .find(|m| kind_matches(&m.kind, prefix))?;
        let v = m.props.float_or(key, 0.0);
        (v.is_finite() && v > 0.0).then_some(v)
    }

    /// Worst-case attempts per logical call *into* `node`: `1 + max` of the
    /// retry modifier on its chain (callers fold the callee's modifier
    /// chain into their client spec, so a retry modifier on the callee
    /// governs the caller's attempt count). 1.0 when no retry modifier is
    /// attached.
    pub fn attempts_into(&self, node: NodeId) -> f64 {
        1.0 + self
            .modifier_prop(node, kind::RETRY, "max")
            .map_or(0.0, f64::round)
    }

    /// The per-attempt deadline (ms) callers of `node` enforce, if a timeout
    /// modifier sits on its chain.
    pub fn timeout_into_ms(&self, node: NodeId) -> Option<f64> {
        self.modifier_prop(node, kind::TIMEOUT, "ms")
    }

    /// The propagated end-to-end deadline (ms) attached to `node`'s chain,
    /// if a deadline modifier sits on it.
    pub fn deadline_into_ms(&self, node: NodeId) -> Option<f64> {
        self.modifier_prop(node, kind::DEADLINE, "ms")
    }

    /// Whether a circuit breaker guards calls into `node`.
    pub fn breaker_on(&self, node: NodeId) -> bool {
        self.ir.has_modifier(node, kind::BREAKER)
    }

    /// Whether calls into `node` carry a propagated deadline.
    pub fn deadline_on(&self, node: NodeId) -> bool {
        self.ir.has_modifier(node, kind::DEADLINE)
    }

    /// Whether a retry budget caps retries into `node`.
    pub fn retry_budget_on(&self, node: NodeId) -> bool {
        self.ir.has_modifier(node, kind::RETRY_BUDGET)
    }

    /// Whether `node` is a load balancer.
    pub fn is_load_balancer(&self, node: NodeId) -> bool {
        self.ir
            .node(node)
            .map(|n| kind_matches(&n.kind, kind::LOAD_BALANCER))
            .unwrap_or(false)
    }

    /// Replica siblings of `node` behind a shared load balancer: the
    /// number of *other* services a balancer that invokes `node` also
    /// invokes. 0 when no load balancer fronts the node.
    pub fn lb_siblings(&self, node: NodeId) -> usize {
        self.ir
            .in_edges(node)
            .iter()
            .filter_map(|&e| self.ir.edge(e).ok())
            .filter(|e| e.kind == EdgeKind::Invocation && self.is_load_balancer(e.from))
            .map(|e| self.ir.callees(e.from).len().saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Invocation callees of `node`, id-ascending and deduplicated.
    pub fn invocation_callees(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = self.ir.callees(node);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Display name of a node (empty string when dead — passes only hold
    /// live ids, so this is a rendering convenience, not a fallback path).
    pub fn node_name(&self, node: NodeId) -> String {
        self.ir
            .node(node)
            .map(|n| n.name.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{Granularity, Node, NodeRole};

    fn ctx_fixture() -> (IrGraph, WiringSpec) {
        let mut ir = IrGraph::new("t");
        let a = ir
            .add_component("a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = ir
            .add_component("b", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(a, b, vec![]).unwrap();
        let retry = ir
            .add_node(Node::new(
                "b_retry",
                "mod.retry",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.node_mut(retry).unwrap().props.set("max", 4i64);
        ir.attach_modifier(b, retry).unwrap();
        let to = ir
            .add_node(Node::new(
                "b_timeout",
                "mod.timeout",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.node_mut(to).unwrap().props.set("ms", 250i64);
        ir.attach_modifier(b, to).unwrap();
        (ir, WiringSpec::new("t"))
    }

    #[test]
    fn attempts_timeouts_and_entries() {
        let (ir, w) = ctx_fixture();
        let cfg = LintConfig::default();
        let ctx = LintContext::new(&ir, &w, &cfg, None);
        let a = ir.by_name("a").unwrap();
        let b = ir.by_name("b").unwrap();
        assert_eq!(ctx.entry_services(), vec![a]);
        assert_eq!(ctx.attempts_into(b), 5.0);
        assert_eq!(ctx.attempts_into(a), 1.0);
        assert_eq!(ctx.timeout_into_ms(b), Some(250.0));
        assert_eq!(ctx.timeout_into_ms(a), None);
        assert!(!ctx.breaker_on(b));
        assert_eq!(ctx.invocation_callees(a), vec![b]);
    }
}
