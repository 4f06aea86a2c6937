//! Circuit breaker scaffolding: the prototype solution for Type-1
//! metastability (paper §6.3 "Prototyping New Solutions", Fig. 10).
//!
//! Like X-Trace, this plugin is a deliberate after-the-fact extension: it was
//! written without touching any other plugin or application, and enabling it
//! for HotelReservation is a 2-line wiring change (tested in UC3 tests).

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::time::ms;
use blueprint_simrt::{BreakerSpec, ClientSpec};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::rpc::server_modifier;

/// Kind tag of circuit-breaker modifiers.
pub const KIND: &str = "mod.breaker";

/// The `CircuitBreaker(threshold=0.5, window=50, open_ms=5000, probes=3)`
/// plugin. Clients of the modified service stop sending requests when the
/// moving-average failure rate exceeds `threshold`, fail fast while open,
/// and re-close after `probes` successful half-open probes.
pub struct CircuitBreakerPlugin;

impl Plugin for CircuitBreakerPlugin {
    fn name(&self) -> &'static str {
        "circuit-breaker"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["CircuitBreaker"]
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
        server_modifier(
            decl,
            ir,
            KIND,
            &["threshold", "window", "open_ms", "probes"],
            &[],
        )
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            client.breaker = Some(BreakerSpec {
                window: n.props.float_or("window", 50.0) as u32,
                failure_threshold: n.props.float_or("threshold", 0.5),
                open_ns: ms(n.props.float_or("open_ms", 5000.0) as u64),
                half_open_probes: n.props.float_or("probes", 3.0) as u32,
            });
        }
    }

    fn source(&self) -> &'static str {
        include_str!("circuit_breaker.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn applies_breaker_policy() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "cb".into(),
            callee: "CircuitBreaker".into(),
            args: vec![],
            kwargs: [
                ("threshold".to_string(), Arg::Float(0.3)),
                ("open_ms".to_string(), Arg::Int(2000)),
            ]
            .into_iter()
            .collect(),
            server_modifiers: vec![],
        };
        let m = CircuitBreakerPlugin
            .build_node(&decl, &mut ir, &ctx)
            .unwrap();
        let mut client = ClientSpec::local();
        CircuitBreakerPlugin.apply_client(m, &ir, &mut client);
        let b = client.breaker.unwrap();
        assert_eq!(b.failure_threshold, 0.3);
        assert_eq!(b.open_ns, ms(2000));
        assert_eq!(b.window, 50);
        assert_eq!(b.half_open_probes, 3);
    }
}
