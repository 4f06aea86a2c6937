//! Memcached cache instantiation.

use blueprint_ir::{IrGraph, NodeId, PropValue, Visibility};
use blueprint_simrt::BackendRtKind;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::ArtifactTree;
use crate::backends::{backend_container_artifacts, backend_node, driver_client_op, prop_us_to_ns};

/// Kind tag of memcached nodes.
pub const KIND: &str = "backend.cache.memcached";

/// The `Memcached()` instantiation of the Cache backend.
///
/// Wiring kwargs: `capacity` (items), `op_latency_us`, `cpu_per_op_us`.
pub struct MemcachedPlugin;

impl Plugin for MemcachedPlugin {
    fn name(&self) -> &'static str {
        "memcached"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Memcached"]
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
                ("op_latency_us", PropValue::Float(120.0)),
                ("cpu_per_op_us", PropValue::Float(3.0)),
                ("cpu_per_item_us", PropValue::Float(1.0)),
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
        backend_container_artifacts(ir, node, "memcached:1.6", 11211, out)
    }

    fn lower_backend(&self, node: NodeId, ir: &IrGraph) -> Option<BackendRtKind> {
        let n = ir.node(node).ok()?;
        Some(BackendRtKind::Cache {
            capacity_items: n.props.int_or("capacity", 1_000_000) as u64,
            op_latency_ns: prop_us_to_ns(ir, node, "op_latency_us", 120_000),
            cpu_per_op_ns: prop_us_to_ns(ir, node, "cpu_per_op_us", 3_000),
            cpu_per_item_ns: prop_us_to_ns(ir, node, "cpu_per_item_us", 1_000),
        })
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut blueprint_simrt::ClientSpec) {
        driver_client_op(node, ir, client);
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        // Backends listen on the network out of the box.
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("memcached.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn builds_and_lowers() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "post_cache".into(),
            callee: "Memcached".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let n = MemcachedPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        assert_eq!(ir.node(n).unwrap().kind, KIND);
        match MemcachedPlugin.lower_backend(n, &ir).unwrap() {
            BackendRtKind::Cache {
                capacity_items,
                op_latency_ns,
                ..
            } => {
                assert_eq!(capacity_items, 1_000_000);
                assert_eq!(op_latency_ns, 120_000);
            }
            other => panic!("wrong kind {other:?}"),
        }
        assert_eq!(MemcachedPlugin.widen(n, &ir), Some(Visibility::Global));
        let mut out = ArtifactTree::new();
        MemcachedPlugin.generate(n, &ir, &ctx, &mut out).unwrap();
        assert!(out.contains("docker/post_cache/Dockerfile"));
    }
}
