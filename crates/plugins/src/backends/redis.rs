//! Redis cache instantiation (supports the extended array operations used by
//! the §6.6 cost-of-abstraction study, Fig. 12).

use blueprint_ir::{IrGraph, NodeId, PropValue, Visibility};
use blueprint_simrt::BackendRtKind;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::ArtifactTree;
use crate::backends::{backend_container_artifacts, backend_node, driver_client_op, prop_us_to_ns};

/// Kind tag of Redis nodes.
pub const KIND: &str = "backend.cache.redis";

/// The `Redis()` instantiation of the Cache backend.
///
/// Wiring kwargs: `capacity` (items), `op_latency_us`, `cpu_per_op_us`,
/// `cpu_per_item_us`. Redis serves multi-element operations (`GetRange`,
/// `PushFront`) natively, so a workflow using the extended cache interface
/// pays one round trip instead of N.
pub struct RedisPlugin;

impl Plugin for RedisPlugin {
    fn name(&self) -> &'static str {
        "redis"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Redis"]
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
                ("client_op_us", PropValue::Float(12.0)),
                ("capacity", PropValue::Int(1_000_000)),
                ("op_latency_us", PropValue::Float(110.0)),
                ("cpu_per_op_us", PropValue::Float(3.0)),
                ("cpu_per_item_us", PropValue::Float(0.8)),
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
        backend_container_artifacts(ir, node, "redis:7.2", 6379, out)
    }

    fn lower_backend(&self, node: NodeId, ir: &IrGraph) -> Option<BackendRtKind> {
        let n = ir.node(node).ok()?;
        Some(BackendRtKind::Cache {
            capacity_items: n.props.int_or("capacity", 1_000_000) as u64,
            op_latency_ns: prop_us_to_ns(ir, node, "op_latency_us", 110_000),
            cpu_per_op_ns: prop_us_to_ns(ir, node, "cpu_per_op_us", 3_000),
            cpu_per_item_ns: prop_us_to_ns(ir, node, "cpu_per_item_us", 800),
        })
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut blueprint_simrt::ClientSpec) {
        driver_client_op(node, ir, client);
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("redis.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn redis_lowers_to_cache_with_cheaper_items() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "tl_cache".into(),
            callee: "Redis".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let n = RedisPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let BackendRtKind::Cache {
            cpu_per_item_ns, ..
        } = RedisPlugin.lower_backend(n, &ir).unwrap()
        else {
            panic!("not a cache");
        };
        assert_eq!(cpu_per_item_ns, 800);
    }
}
