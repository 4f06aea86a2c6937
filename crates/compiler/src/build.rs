//! Specs → IR: declaration dispatch and modifier-chain cloning (§4.3.1).

use blueprint_ir::{Edge, EdgeKind, IrGraph, Node, NodeId};
use blueprint_plugins::{BuildCtx, Registry};

use crate::{CompileError, Result};

/// Builds the initial IR graph from the wiring spec: one dispatch per
/// declaration, then per-service cloning of server-modifier templates.
///
/// Modifier declarations in the wiring spec (e.g. `rpc_server = GRPCServer()`)
/// are *templates*: a single declaration applies to many services (Fig. 3's
/// `server_modifiers` list). The compiler clones the template node — props,
/// kind, and deploy-time dependency edges — once per service it is applied
/// to, which is why Fig. 4 shows a ZipkinModifier node per service instance.
pub fn build_ir(registry: &Registry, ctx: &BuildCtx<'_>) -> Result<IrGraph> {
    let mut ir = IrGraph::new(&ctx.wiring.app_name);
    for decl in ctx.wiring.decls() {
        let Some(plugin) = registry.for_callee(&decl.callee, ctx) else {
            return Err(CompileError::UnknownCallee {
                instance: decl.name.clone(),
                callee: decl.callee.clone(),
            });
        };
        let node = plugin.build_node(decl, &mut ir, ctx)?;
        for modifier_name in &decl.server_modifiers {
            let Some(template) = ir.by_name(modifier_name) else {
                return Err(CompileError::UnknownCallee {
                    instance: decl.name.clone(),
                    callee: modifier_name.clone(),
                });
            };
            let clone = clone_modifier(&mut ir, template, &decl.name)?;
            ir.attach_modifier(node, clone)?;
        }
    }
    Ok(ir)
}

/// Clones a modifier template for attachment to one component.
pub fn clone_modifier(ir: &mut IrGraph, template: NodeId, target_name: &str) -> Result<NodeId> {
    let t = ir.node(template)?.clone();
    let name = ir.fresh_name(&format!("{target_name}_{}", t.name));
    let clone = ir.add_node(Node::new(&name, &*t.kind, t.role, t.granularity))?;
    ir.node_mut(clone)?.props = t.props.clone();
    for e in ir.out_edges(template) {
        let edge = ir.edge(e)?;
        if edge.kind == EdgeKind::Dependency {
            let to = edge.to;
            ir.add_edge(Edge::dependency(clone, to))?;
        }
    }
    Ok(clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::types::{MethodSig, TypeRef};
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::{Behavior, ServiceBuilder, ServiceInterface, WorkflowSpec};

    fn fixtures() -> (WorkflowSpec, WiringSpec) {
        let mut wf = WorkflowSpec::new("app");
        wf.add_service(
            ServiceBuilder::new(
                "UserServiceImpl",
                ServiceInterface::new(
                    "UserService",
                    vec![MethodSig::new("Login", vec![], TypeRef::Bool)],
                ),
            )
            .dep_nosql("db")
            .method("Login", Behavior::build().compute(1000, 64).done())
            .done()
            .unwrap(),
        )
        .unwrap();

        let mut w = WiringSpec::new("app");
        w.define("deployer", "Docker", vec![]).unwrap();
        w.define("rpc", "GRPCServer", vec![]).unwrap();
        w.define("tracer", "ZipkinTracer", vec![]).unwrap();
        w.define_kw(
            "tm",
            "TracerModifier",
            vec![],
            vec![("tracer", blueprint_wiring::Arg::r("tracer"))],
        )
        .unwrap();
        w.define("user_db", "MongoDB", vec![]).unwrap();
        w.service(
            "us",
            "UserServiceImpl",
            &["user_db"],
            &["rpc", "deployer", "tm"],
        )
        .unwrap();
        (wf, w)
    }

    #[test]
    fn builds_graph_with_cloned_modifiers() {
        let (wf, w) = fixtures();
        let registry = Registry::core();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &w,
        };
        let ir = build_ir(&registry, &ctx).unwrap();
        let us = ir.by_name("us").unwrap();
        let mods = ir.node(us).unwrap().modifiers().to_vec();
        assert_eq!(mods.len(), 3);
        // Clones are named per-service and the templates remain unattached.
        assert!(ir.by_name("us_rpc").is_some());
        assert!(ir.by_name("us_tm").is_some());
        let template = ir.by_name("tm").unwrap();
        assert!(ir.node(template).unwrap().attached_to().is_none());
        // The tracer clone carries the dependency edge to the tracer server.
        let tm_clone = ir.by_name("us_tm").unwrap();
        let deps: Vec<_> = ir.out_edges(tm_clone);
        assert_eq!(deps.len(), 1);
        assert_eq!(ir.edge(deps[0]).unwrap().to, ir.by_name("tracer").unwrap());
    }

    #[test]
    fn unknown_callee_reported() {
        let (wf, mut w) = fixtures();
        w.define("mystery", "FluxCapacitor", vec![]).unwrap();
        let registry = Registry::core();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &w,
        };
        let err = build_ir(&registry, &ctx).unwrap_err();
        match err {
            CompileError::UnknownCallee { callee, .. } => assert_eq!(callee, "FluxCapacitor"),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn extension_keywords_fail_without_extended_registry() {
        let (wf, mut w) = fixtures();
        w.define("cb", "CircuitBreaker", vec![]).unwrap();
        let core_ctx_err = {
            let registry = Registry::core();
            let ctx = BuildCtx {
                workflow: &wf,
                wiring: &w,
            };
            build_ir(&registry, &ctx).is_err()
        };
        assert!(core_ctx_err);
        let registry = Registry::extended();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &w,
        };
        assert!(build_ir(&registry, &ctx).is_ok());
    }
}
