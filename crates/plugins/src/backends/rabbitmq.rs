//! RabbitMQ message queue instantiation.

use blueprint_ir::{IrGraph, NodeId, PropValue, Visibility};
use blueprint_simrt::BackendRtKind;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::ArtifactTree;
use crate::backends::{backend_container_artifacts, backend_node, driver_client_op, prop_us_to_ns};

/// Kind tag of RabbitMQ nodes.
pub const KIND: &str = "backend.queue.rabbitmq";

/// The `RabbitMQ()` instantiation of the Queue backend.
///
/// Wiring kwargs: `capacity` (messages), `op_latency_us`.
pub struct RabbitMqPlugin;

impl Plugin for RabbitMqPlugin {
    fn name(&self) -> &'static str {
        "rabbitmq"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["RabbitMQ"]
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
        backend_node(
            decl,
            ir,
            KIND,
            &[
                ("client_op_us", PropValue::Float(15.0)),
                ("capacity", PropValue::Int(100_000)),
                ("op_latency_us", PropValue::Float(250.0)),
            ],
        )
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        backend_container_artifacts(ir, node, "rabbitmq:3.12", 5672, out)
    }

    fn lower_backend(&self, node: NodeId, ir: &IrGraph) -> Option<BackendRtKind> {
        let n = ir.node(node).ok()?;
        Some(BackendRtKind::Queue {
            capacity: n.props.int_or("capacity", 100_000) as u64,
            op_latency_ns: prop_us_to_ns(ir, node, "op_latency_us", 250_000),
        })
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut blueprint_simrt::ClientSpec) {
        driver_client_op(node, ir, client);
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("rabbitmq.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn capacity_kwarg_respected() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "q".into(),
            callee: "RabbitMQ".into(),
            args: vec![],
            kwargs: [("capacity".to_string(), Arg::Int(5))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        let n = RabbitMqPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let BackendRtKind::Queue { capacity, .. } = RabbitMqPlugin.lower_backend(n, &ir).unwrap()
        else {
            panic!("not a queue");
        };
        assert_eq!(capacity, 5);
    }
}
