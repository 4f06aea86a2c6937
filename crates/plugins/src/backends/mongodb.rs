//! MongoDB NoSQL database instantiation.

use blueprint_ir::{IrGraph, NodeId, PropValue, Visibility};
use blueprint_simrt::time::ms;
use blueprint_simrt::BackendRtKind;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::ArtifactTree;
use crate::backends::{backend_container_artifacts, backend_node, driver_client_op, prop_us_to_ns};

/// Kind tag of MongoDB nodes.
pub const KIND: &str = "backend.nosql.mongodb";

/// The `MongoDB()` instantiation of the NoSQLDB backend.
///
/// Wiring kwargs: `read_latency_us`, `write_latency_us`, `cpu_per_op_us`,
/// `cpu_per_item_us`, `replicas` (read replicas), `lag_min_ms`/`lag_max_ms`
/// (asynchronous replication lag — the §6.2.2 cross-system-inconsistency
/// mechanism), and `consistency` (`"primary"`, `"read_replica"`, `"quorum"`
/// with `quorum_w`/`quorum_r`, or `"session"` — the replicated store's
/// read/write discipline).
pub struct MongoDbPlugin;

impl Plugin for MongoDbPlugin {
    fn name(&self) -> &'static str {
        "mongodb"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["MongoDB"]
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
                ("client_op_us", PropValue::Float(20.0)),
                ("read_latency_us", PropValue::Float(700.0)),
                ("write_latency_us", PropValue::Float(1200.0)),
                ("cpu_per_op_us", PropValue::Float(15.0)),
                ("cpu_per_item_us", PropValue::Float(2.0)),
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
        backend_container_artifacts(ir, node, "mongo:6.0", 27017, out)?;
        let n = ir.node(node)?;
        let replicas = n.props.int_or("replicas", 0);
        if replicas > 0 {
            out.put(
                format!("config/{}_replset.conf", n.name),
                crate::artifact::ArtifactKind::Config,
                format!("replSetName={}\nmembers={}\n", n.name, replicas + 1),
            );
        }
        Ok(())
    }

    fn lower_backend(&self, node: NodeId, ir: &IrGraph) -> Option<BackendRtKind> {
        let n = ir.node(node).ok()?;
        Some(BackendRtKind::Store {
            read_latency_ns: prop_us_to_ns(ir, node, "read_latency_us", 700_000),
            write_latency_ns: prop_us_to_ns(ir, node, "write_latency_us", 1_200_000),
            cpu_per_op_ns: prop_us_to_ns(ir, node, "cpu_per_op_us", 15_000),
            cpu_per_item_ns: prop_us_to_ns(ir, node, "cpu_per_item_us", 2_000),
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
        include_str!("mongodb.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn replication_kwargs_lower_to_store_replicas() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "tl_db".into(),
            callee: "MongoDB".into(),
            args: vec![],
            kwargs: [
                ("replicas".to_string(), Arg::Int(2)),
                ("lag_min_ms".to_string(), Arg::Int(100)),
                ("lag_max_ms".to_string(), Arg::Int(400)),
            ]
            .into_iter()
            .collect(),
            server_modifiers: vec![],
        };
        let n = MongoDbPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let BackendRtKind::Store {
            replicas,
            replication_lag_ns,
            ..
        } = MongoDbPlugin.lower_backend(n, &ir).unwrap()
        else {
            panic!("not a store");
        };
        assert_eq!(replicas, 2);
        assert_eq!(replication_lag_ns, (ms(100), ms(400)));
        let mut out = ArtifactTree::new();
        MongoDbPlugin.generate(n, &ir, &ctx, &mut out).unwrap();
        assert!(out
            .get("config/tl_db_replset.conf")
            .unwrap()
            .content
            .contains("members=3"));
    }

    #[test]
    fn consistency_kwargs_lower_to_modes() {
        use blueprint_simrt::ConsistencyMode;
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let lower = |kwargs: Vec<(&str, Arg)>| {
            let mut ir = IrGraph::new("t");
            let decl = InstanceDecl {
                name: "db".into(),
                callee: "MongoDB".into(),
                args: vec![],
                kwargs: kwargs
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                server_modifiers: vec![],
            };
            let n = MongoDbPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
            match MongoDbPlugin.lower_backend(n, &ir).unwrap() {
                BackendRtKind::Store { consistency, .. } => consistency,
                other => panic!("not a store: {other:?}"),
            }
        };
        // Absent kwarg → the historical default.
        assert_eq!(lower(vec![]), ConsistencyMode::ReadReplica);
        assert_eq!(
            lower(vec![("consistency", Arg::Str("primary".into()))]),
            ConsistencyMode::Primary
        );
        assert_eq!(
            lower(vec![("consistency", Arg::Str("session".into()))]),
            ConsistencyMode::Session
        );
        assert_eq!(
            lower(vec![
                ("consistency", Arg::Str("quorum".into())),
                ("quorum_w", Arg::Int(2)),
                ("quorum_r", Arg::Int(3)),
            ]),
            ConsistencyMode::Quorum { w: 2, r: 3 }
        );
        // Quorum parameters default to a 2/2 majority of a 3-member set.
        assert_eq!(
            lower(vec![("consistency", Arg::Str("quorum".into()))]),
            ConsistencyMode::Quorum { w: 2, r: 2 }
        );
    }
}
