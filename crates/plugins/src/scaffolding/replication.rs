//! p-Replication scaffolding: duplicates a service instance and fronts the
//! replicas with a load balancer (paper §4.2 "Generators", §6.2.2).
//!
//! The transform is the canonical example of a plugin pass mutating the IR:
//! "a replication modifier could duplicate the IR nodes representing a
//! component, and insert a load balancer node" (§4.3.1).

use blueprint_ir::{Edge, EdgeKind, IrGraph, Node, NodeId, NodeRole};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginError, PluginResult};
use crate::rpc::server_modifier;
use crate::scaffolding::loadbalancer::LoadBalancerPlugin;

/// Kind tag of replicate modifiers.
pub const KIND: &str = "mod.replicate";

/// The `Replicate(count=N)` plugin.
///
/// Attached to a service instance, the transform pass replaces the single
/// instance with `count` replicas (each keeping a copy of the original's
/// modifier chain and outgoing edges) plus a `component.loadbalancer` that
/// inbound edges are re-routed through.
pub struct ReplicatePlugin;

impl Plugin for ReplicatePlugin {
    fn name(&self) -> &'static str {
        "p-replication"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Replicate"]
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
        let node = server_modifier(decl, ir, KIND, &["count"], &[])?;
        let count = ir.node(node)?.props.float_or("count", 2.0);
        if count < 1.0 {
            return Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: "replica count must be >= 1".into(),
            });
        }
        Ok(node)
    }

    fn transform(&self, ir: &mut IrGraph, _ctx: &BuildCtx<'_>) -> PluginResult<()> {
        // Collect replication targets first (components carrying a
        // mod.replicate modifier).
        let targets: Vec<(NodeId, NodeId, u32)> = ir
            .nodes()
            .filter(|(_, n)| n.role == NodeRole::Component)
            .filter_map(|(id, n)| {
                n.modifiers()
                    .iter()
                    .find(|m| ir.node(**m).map(|mn| mn.kind == KIND).unwrap_or(false))
                    .map(|m| {
                        let count = ir
                            .node(*m)
                            .map(|mn| mn.props.float_or("count", 2.0))
                            .unwrap_or(2.0);
                        (id, *m, count as u32)
                    })
            })
            .collect();

        for (component, replicate_mod, count) in targets {
            replicate_component(ir, component, replicate_mod, count)?;
        }
        Ok(())
    }

    fn source(&self) -> &'static str {
        include_str!("replication.rs")
    }
}

/// Expands one component into `count` replicas behind a load balancer.
fn replicate_component(
    ir: &mut IrGraph,
    component: NodeId,
    replicate_mod: NodeId,
    count: u32,
) -> PluginResult<()> {
    let base = ir.node(component)?.clone();
    // Drop the replicate modifier from the original: it has done its job.
    ir.remove_node(replicate_mod)?;

    // Clone count-1 additional replicas (the original is replica 0).
    let mut replicas = vec![component];
    for i in 1..count {
        let name = ir.fresh_name(&format!("{}_r{i}", base.name));
        let replica = ir.add_node(Node::new(&name, &*base.kind, base.role, base.granularity))?;
        ir.node_mut(replica)?.props = base.props.clone();

        // Clone outgoing edges (dependencies on downstream services/backends).
        for e in ir.out_edges(component) {
            ir.clone_edge_from(e, replica)?;
        }
        // Clone the modifier chain (minus the replicate modifier, already
        // removed from the original).
        for &m in ir.node(component)?.modifiers().to_vec().iter() {
            let mn = ir.node(m)?.clone();
            let clone_name = ir.fresh_name(&format!("{name}_{}", tail(&mn.kind)));
            let mc = ir.add_node(Node::new(&clone_name, &*mn.kind, mn.role, mn.granularity))?;
            ir.node_mut(mc)?.props = mn.props.clone();
            for e in ir.out_edges(m) {
                let edge = ir.edge(e)?.clone();
                if edge.kind == EdgeKind::Dependency {
                    ir.add_edge(Edge::dependency(mc, edge.to))?;
                }
            }
            ir.attach_modifier(replica, mc)?;
        }
        replicas.push(replica);
    }

    // Insert the load balancer and re-route inbound invocations through it.
    let lb_name = ir.fresh_name(&format!("{}_lb", base.name));
    let inbound: Vec<_> = ir.in_edges(component);
    let lb = LoadBalancerPlugin::make_lb(ir, &lb_name, &replicas, "round_robin")?;
    for e in inbound {
        let edge = ir.edge(e)?;
        if edge.kind == EdgeKind::Invocation {
            ir.retarget_edge(e, lb)?;
        }
    }
    Ok(())
}

fn tail(kind: &str) -> &str {
    kind.rsplit('.').next().unwrap_or(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{Granularity, MethodSig, TypeRef};
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    fn setup() -> (IrGraph, NodeId, NodeId, NodeId) {
        let mut ir = IrGraph::new("t");
        let caller = ir
            .add_component("gw", "workflow.service", Granularity::Instance)
            .unwrap();
        let svc = ir
            .add_component("user_tl", "workflow.service", Granularity::Instance)
            .unwrap();
        let db = ir
            .add_component("tl_db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        ir.add_invocation(
            caller,
            svc,
            vec![MethodSig::new("Read", vec![], TypeRef::Unit)],
        )
        .unwrap();
        ir.add_invocation(
            svc,
            db,
            vec![MethodSig::new("FindOne", vec![], TypeRef::Unit)],
        )
        .unwrap();
        (ir, caller, svc, db)
    }

    fn replicate_decl(count: i64) -> InstanceDecl {
        InstanceDecl {
            name: "repl".into(),
            callee: "Replicate".into(),
            args: vec![],
            kwargs: [("count".to_string(), Arg::Int(count))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        }
    }

    #[test]
    fn transform_duplicates_and_inserts_lb() {
        let (mut ir, caller, svc, db) = setup();
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        // Also give the service another modifier to verify chain cloning.
        let rpc = ir
            .add_node(Node::new(
                "rpc",
                "mod.rpc.grpc.server",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(svc, rpc).unwrap();
        let m = ReplicatePlugin
            .build_node(&replicate_decl(3), &mut ir, &ctx)
            .unwrap();
        ir.attach_modifier(svc, m).unwrap();

        ReplicatePlugin.transform(&mut ir, &ctx).unwrap();

        // Caller now targets the LB.
        let e = ir.out_edges(caller)[0];
        let lb = ir.edge(e).unwrap().to;
        assert_eq!(ir.node(lb).unwrap().kind, "component.loadbalancer");
        // LB fronts 3 replicas.
        let fronted = ir.callees(lb);
        assert_eq!(fronted.len(), 3);
        assert!(fronted.contains(&svc));
        // Each replica still calls the db and kept the rpc modifier.
        for r in fronted {
            assert!(ir.callees(r).contains(&db));
            assert!(
                ir.has_modifier(r, "mod.rpc.grpc.server"),
                "replica missing rpc modifier"
            );
            assert!(
                !ir.has_modifier(r, KIND),
                "replicate modifier must be consumed"
            );
        }
    }

    #[test]
    fn count_one_still_inserts_lb_with_single_replica() {
        let (mut ir, caller, _svc, _db) = setup();
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let m = ReplicatePlugin
            .build_node(&replicate_decl(1), &mut ir, &ctx)
            .unwrap();
        let svc = ir.by_name("user_tl").unwrap();
        ir.attach_modifier(svc, m).unwrap();
        ReplicatePlugin.transform(&mut ir, &ctx).unwrap();
        let lb = ir.edge(ir.out_edges(caller)[0]).unwrap().to;
        assert_eq!(ir.callees(lb).len(), 1);
    }

    #[test]
    fn zero_count_rejected() {
        let mut ir = IrGraph::new("t");
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        assert!(ReplicatePlugin
            .build_node(&replicate_decl(0), &mut ir, &ctx)
            .is_err());
    }
}
