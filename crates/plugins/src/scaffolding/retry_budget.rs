//! Retry-budget scaffolding: a Finagle-style token bucket that caps a
//! client's wire amplification at `1 + ratio` regardless of the per-hop
//! `Retry(max=...)` setting.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::{ClientSpec, RetryBudgetSpec};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::rpc::server_modifier;

/// Kind tag of retry-budget modifiers.
pub const KIND: &str = "mod.retrybudget";

/// The `RetryBudget(ratio=0.2, cap=10)` plugin.
///
/// Attached to a callee service, it gives the generated client wrappers a
/// token bucket: every first attempt deposits `ratio` tokens (up to `cap`),
/// and every retry costs one token. A retry with no token available fails
/// immediately — before any backoff sleep and before the next attempt's
/// breaker probe — so system-wide retry load can never exceed `ratio` of
/// real traffic even when every hop is wired with aggressive `Retry`.
///
/// Kwarg validation: non-finite or negative `ratio` falls back to 0 (no
/// retries allowed); a non-finite or non-positive `cap` falls back to the
/// default burst allowance of 10 tokens.
pub struct RetryBudgetPlugin;

impl Plugin for RetryBudgetPlugin {
    fn name(&self) -> &'static str {
        "retry-budget"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["RetryBudget"]
    }

    fn owns_kinds(&self) -> Vec<&'static str> {
        vec![KIND]
    }

    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        _ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId> {
        server_modifier(decl, ir, KIND, &["ratio", "cap"], &[])
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            let ratio = n.props.float_or("ratio", 0.2);
            let ratio = if ratio.is_finite() && ratio > 0.0 {
                ratio
            } else {
                0.0
            };
            let cap = n.props.float_or("cap", 10.0);
            let cap = if cap.is_finite() && cap > 0.0 {
                cap
            } else {
                10.0
            };
            client.retry_budget = Some(RetryBudgetSpec { ratio, cap });
        }
    }

    fn source(&self) -> &'static str {
        include_str!("retry_budget.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    fn apply(kwargs: Vec<(&str, Arg)>) -> ClientSpec {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "rb".into(),
            callee: "RetryBudget".into(),
            args: vec![],
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: vec![],
        };
        let m = RetryBudgetPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut client = ClientSpec::local();
        RetryBudgetPlugin.apply_client(m, &ir, &mut client);
        client
    }

    #[test]
    fn applies_budget_policy() {
        let b = apply(vec![("ratio", Arg::Float(0.1)), ("cap", Arg::Int(5))])
            .retry_budget
            .unwrap();
        assert_eq!(b.ratio, 0.1);
        assert_eq!(b.cap, 5.0);
    }

    #[test]
    fn defaults() {
        let b = apply(vec![]).retry_budget.unwrap();
        assert_eq!(b.ratio, 0.2);
        assert_eq!(b.cap, 10.0);
    }

    #[test]
    fn invalid_kwargs_are_clamped() {
        // A negative or non-finite ratio denies all retries rather than
        // wrapping into a huge allowance; a bad cap keeps the default.
        let b = apply(vec![
            ("ratio", Arg::Float(-0.5)),
            ("cap", Arg::Float(f64::NAN)),
        ])
        .retry_budget
        .unwrap();
        assert_eq!(b.ratio, 0.0);
        assert_eq!(b.cap, 10.0);
    }
}
