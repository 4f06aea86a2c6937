//! Deadline-propagation scaffolding: requests carry an absolute deadline,
//! each hop forwards the remaining budget minus a hop margin, and exhausted
//! work fails fast as `"deadline"` (gRPC-style deadline propagation).

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::time::ms;
use blueprint_simrt::{ClientSpec, DeadlineSpec};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::rpc::server_modifier;

/// Kind tag of deadline modifiers.
pub const KIND: &str = "mod.deadline";

/// The `Deadline(ms=1000, margin_ms=5)` plugin.
///
/// Attached to a callee service, it makes the generated client wrappers of
/// that service stamp (or forward) an absolute deadline: a fresh call gets
/// `ms` of budget, a call already carrying a deadline forwards the remaining
/// budget minus `margin_ms`. Work whose budget is exhausted is cancelled at
/// the next call boundary instead of burning server capacity on a reply
/// nobody is waiting for.
///
/// Kwarg validation: non-finite or non-positive `ms` disables the fresh
/// budget (the hop then only forwards inherited deadlines); a non-finite or
/// negative `margin_ms` falls back to no margin. Sub-millisecond fractions
/// are preserved.
pub struct DeadlinePlugin;

impl Plugin for DeadlinePlugin {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Deadline"]
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
        server_modifier(decl, ir, KIND, &["margin_ms"], &[("ms", 1_000.0)])
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            let budget_ms = n.props.float_or("ms", 0.0);
            let budget_ns = if budget_ms.is_finite() && budget_ms > 0.0 {
                Some((budget_ms * ms(1) as f64).round() as u64)
            } else {
                None
            };
            let margin_ms = n.props.float_or("margin_ms", 5.0);
            let hop_margin_ns = if margin_ms.is_finite() && margin_ms > 0.0 {
                (margin_ms * ms(1) as f64).round() as u64
            } else {
                0
            };
            client.deadline = Some(DeadlineSpec {
                budget_ns,
                hop_margin_ns,
            });
        }
    }

    fn source(&self) -> &'static str {
        include_str!("deadline.rs")
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
            name: "dl".into(),
            callee: "Deadline".into(),
            args: vec![],
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: vec![],
        };
        let m = DeadlinePlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut client = ClientSpec::local();
        DeadlinePlugin.apply_client(m, &ir, &mut client);
        client
    }

    #[test]
    fn applies_deadline_policy() {
        let c = apply(vec![("ms", Arg::Int(250)), ("margin_ms", Arg::Float(2.5))]);
        let d = c.deadline.unwrap();
        assert_eq!(d.budget_ns, Some(ms(250)));
        assert_eq!(d.hop_margin_ns, 2_500_000);
    }

    #[test]
    fn defaults() {
        let d = apply(vec![]).deadline.unwrap();
        assert_eq!(d.budget_ns, Some(ms(1_000)));
        assert_eq!(d.hop_margin_ns, ms(5));
    }

    #[test]
    fn invalid_kwargs_are_clamped() {
        // A non-positive budget disables the fresh stamp (forward-only hop);
        // a negative margin falls back to no margin. Sub-millisecond
        // budgets keep their precision instead of truncating to 0.
        let d = apply(vec![
            ("ms", Arg::Float(-1.0)),
            ("margin_ms", Arg::Float(f64::NAN)),
        ])
        .deadline
        .unwrap();
        assert_eq!(d.budget_ns, None);
        assert_eq!(d.hop_margin_ns, 0);
        let d = apply(vec![("ms", Arg::Float(0.25))]).deadline.unwrap();
        assert_eq!(d.budget_ns, Some(250_000));
    }
}
