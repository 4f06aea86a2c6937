//! Timeout scaffolding: clients of the modified service abandon slow calls.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::time::ms;
use blueprint_simrt::ClientSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::rpc::server_modifier;

/// Kind tag of timeout modifiers.
pub const KIND: &str = "mod.timeout";

/// The `Timeout(ms=500)` plugin.
///
/// Abandoning a call does **not** cancel the server-side work — exactly the
/// wasted-work semantics behind retry storms (paper §B.1 "Retry storm
/// metastable failure").
///
/// Kwarg validation: only finite, positive `ms` deadlines are applied
/// (sub-millisecond fractions preserved); anything else leaves the client
/// without a timeout instead of timing out instantly.
pub struct TimeoutPlugin;

impl Plugin for TimeoutPlugin {
    fn name(&self) -> &'static str {
        "timeout"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Timeout"]
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
        server_modifier(decl, ir, KIND, &[], &[("ms", 500.0)])
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            // `as u64` saturates negative kwargs to 0, turning Timeout(ms=-5)
            // into "every call times out instantly". Only apply finite,
            // positive deadlines (with sub-millisecond fractions preserved);
            // reject anything else and leave the client untouched.
            let deadline_ms = n.props.float_or("ms", 0.0);
            if deadline_ms.is_finite() && deadline_ms > 0.0 {
                client.timeout_ns = Some((deadline_ms * ms(1) as f64).round() as u64);
            }
        }
    }

    fn source(&self) -> &'static str {
        include_str!("timeout.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn applies_timeout() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "to".into(),
            callee: "Timeout".into(),
            args: vec![],
            kwargs: [("ms".to_string(), Arg::Int(750))].into_iter().collect(),
            server_modifiers: vec![],
        };
        let m = TimeoutPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut client = ClientSpec::local();
        TimeoutPlugin.apply_client(m, &ir, &mut client);
        assert_eq!(client.timeout_ns, Some(ms(750)));
    }

    #[test]
    fn invalid_or_fractional_deadlines() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let mut node_seq = 0u32;
        let mut case = |v: Arg| {
            node_seq += 1;
            let decl = InstanceDecl {
                name: format!("to{node_seq}"),
                callee: "Timeout".into(),
                args: vec![],
                kwargs: [("ms".to_string(), v)].into_iter().collect(),
                server_modifiers: vec![],
            };
            let m = TimeoutPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
            let mut client = ClientSpec::local();
            TimeoutPlugin.apply_client(m, &ir, &mut client);
            client.timeout_ns
        };
        // A negative deadline used to saturate to Some(0) — every call timing
        // out at t+0. It must be rejected instead.
        assert_eq!(case(Arg::Int(-5)), None);
        assert_eq!(case(Arg::Int(0)), None);
        assert_eq!(case(Arg::Float(f64::NAN)), None);
        // Sub-millisecond deadlines survive with full precision.
        assert_eq!(case(Arg::Float(0.25)), Some(250_000));
    }
}
