//! MySQL relational database instantiation.

use blueprint_ir::{IrGraph, NodeId, PropValue, Visibility};
use blueprint_simrt::time::ms;
use blueprint_simrt::BackendRtKind;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::ArtifactTree;
use crate::backends::{backend_container_artifacts, backend_node, driver_client_op, prop_us_to_ns};

/// Kind tag of MySQL nodes.
pub const KIND: &str = "backend.reldb.mysql";

/// The `MySQL()` instantiation of the RelDB backend.
///
/// Wiring kwargs mirror [`crate::backends::MongoDbPlugin`]; relational point
/// operations cost a little more CPU (SQL parsing / transactions).
pub struct MySqlPlugin;

impl Plugin for MySqlPlugin {
    fn name(&self) -> &'static str {
        "mysql"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["MySQL"]
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
                ("client_op_us", PropValue::Float(25.0)),
                ("read_latency_us", PropValue::Float(900.0)),
                ("write_latency_us", PropValue::Float(1600.0)),
                ("cpu_per_op_us", PropValue::Float(25.0)),
                ("cpu_per_item_us", PropValue::Float(2.5)),
                ("replicas", PropValue::Int(0)),
                ("lag_min_ms", PropValue::Int(50)),
                ("lag_max_ms", PropValue::Int(700)),
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
        backend_container_artifacts(ir, node, "mysql:8.0", 3306, out)
    }

    fn lower_backend(&self, node: NodeId, ir: &IrGraph) -> Option<BackendRtKind> {
        let n = ir.node(node).ok()?;
        Some(BackendRtKind::Store {
            read_latency_ns: prop_us_to_ns(ir, node, "read_latency_us", 900_000),
            write_latency_ns: prop_us_to_ns(ir, node, "write_latency_us", 1_600_000),
            cpu_per_op_ns: prop_us_to_ns(ir, node, "cpu_per_op_us", 25_000),
            cpu_per_item_ns: prop_us_to_ns(ir, node, "cpu_per_item_us", 2_500),
            replicas: n.props.int_or("replicas", 0) as u32,
            replication_lag_ns: (
                ms(n.props.int_or("lag_min_ms", 50) as u64),
                ms(n.props.int_or("lag_max_ms", 700) as u64),
            ),
            consistency: crate::backends::store_consistency(ir, node),
            failover: None,
        })
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut blueprint_simrt::ClientSpec) {
        driver_client_op(node, ir, client);
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("mysql.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn mysql_costs_more_cpu_than_mongo() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "orders_db".into(),
            callee: "MySQL".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let n = MySqlPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let BackendRtKind::Store { cpu_per_op_ns, .. } = MySqlPlugin.lower_backend(n, &ir).unwrap()
        else {
            panic!("not a store");
        };
        assert_eq!(cpu_per_op_ns, 25_000);
    }
}
