//! Namespace plugins: `Process` and `Container` groupings, and the
//! hierarchical process-main generation of Appendix A.

use blueprint_ir::types::snake_case;
use blueprint_ir::{Granularity, IrGraph, NodeId};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginError, PluginResult, ProcessLowering};
use crate::artifact::{ArtifactKind, ArtifactTree};

/// Kind tag of process namespaces.
pub const PROCESS_KIND: &str = "namespace.process";
/// Kind tag of container namespaces.
pub const CONTAINER_KIND: &str = "namespace.container";
/// Kind tag of machine namespaces (created by deployer passes).
pub const MACHINE_KIND: &str = blueprint_ir::deploy::MACHINE_KIND;

/// The `Process(...)`/`Container(...)` grouping plugin. Also generates the
/// per-process `main.rs` that constructs clients, wrappers, and servers for
/// the contained instances (paper Fig. 14).
pub struct NamespacePlugin;

impl NamespacePlugin {
    fn group(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        kind: &str,
        granularity: Granularity,
    ) -> PluginResult<NodeId> {
        let ns = ir.add_namespace(&decl.name, kind, granularity)?;
        for arg in &decl.args {
            let Some(member) = arg.as_ref_name() else {
                return Err(PluginError::BadDecl {
                    instance: decl.name.clone(),
                    message: "namespace members must be instance references".into(),
                });
            };
            let Some(m) = ir.by_name(member) else {
                return Err(PluginError::BadDecl {
                    instance: decl.name.clone(),
                    message: format!("unknown member `{member}`"),
                });
            };
            // Members of coarser-or-equal granularity cannot be grouped; the
            // IR typing rules produce the error message.
            ir.set_parent(m, ns)?;
        }
        if let Some(gogc) = decl.kwarg("gogc").and_then(|a| a.as_float()) {
            ir.node_mut(ns)?.props.set("gogc", gogc);
        }
        Ok(ns)
    }
}

impl Plugin for NamespacePlugin {
    fn name(&self) -> &'static str {
        "namespaces"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Process", "Container"]
    }

    fn owns_kinds(&self) -> Vec<&'static str> {
        vec![PROCESS_KIND, CONTAINER_KIND, MACHINE_KIND]
    }

    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        _ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId> {
        match decl.callee.as_str() {
            "Process" => self.group(decl, ir, PROCESS_KIND, Granularity::Process),
            "Container" => self.group(decl, ir, CONTAINER_KIND, Granularity::Container),
            other => Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: format!("namespace plugin cannot build `{other}`"),
            }),
        }
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        let n = ir.node(node)?;
        if n.kind == PROCESS_KIND {
            let path = format!("procs/{}/main.rs", snake_case(&n.name));
            out.put(
                path,
                ArtifactKind::RustSource,
                render_process_main(node, ir)?,
            );
        }
        Ok(())
    }

    fn apply_process(&self, node: NodeId, ir: &IrGraph, proc: &mut ProcessLowering) {
        if let Ok(n) = ir.node(node) {
            if let Some(gogc) = n.props.float("gogc") {
                let mut gc = proc.gc.clone().unwrap_or_default();
                gc.gogc_percent = gogc;
                proc.gc = Some(gc);
            }
        }
    }

    fn source(&self) -> &'static str {
        include_str!("namespaces.rs")
    }
}

/// Renders the process main: dependency clients, service construction in
/// topological order, wrapper stacking, and server startup (Appendix A,
/// Fig. 14).
fn render_process_main(node: NodeId, ir: &IrGraph) -> PluginResult<String> {
    let n = ir.node(node)?;
    let mut out = String::new();
    out.push_str(&format!("//! Generated process main for `{}`.\n\n", n.name));
    out.push_str("fn main() -> Result<(), Error> {\n");

    // Remote dependencies of contained instances become clients.
    let members: Vec<NodeId> = n.children().to_vec();
    for &m in &members {
        let mn = ir.node(m)?;
        for e in ir.out_edges(m) {
            let edge = ir.edge(e)?;
            let target = ir.node(edge.to)?;
            if target.parent() != Some(node) {
                out.push_str(&format!(
                    "    let {}_client = dial_env(\"{}_ADDRESS\", \"{}_PORT\")?;\n",
                    snake_case(&target.name),
                    target.name.to_uppercase(),
                    target.name.to_uppercase(),
                ));
            }
        }
        let _ = mn;
    }

    // Construct instances in dependency order (members whose deps are all
    // constructed or remote first).
    let mut constructed: Vec<NodeId> = Vec::new();
    let mut remaining = members.clone();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&m| {
            let deps_ready = ir.callees(m).iter().all(|d| {
                constructed.contains(d)
                    || ir
                        .node(*d)
                        .map(|t| t.parent() != Some(node))
                        .unwrap_or(true)
            });
            if deps_ready {
                let mn = ir.node(m).expect("member exists");
                let impl_name = mn.props.str("impl").unwrap_or(&mn.kind);
                let args: Vec<String> = ir
                    .callees(m)
                    .iter()
                    .map(|d| {
                        let dn = ir.node(*d).expect("dep exists");
                        if dn.parent() == Some(node) {
                            snake_case(&dn.name)
                        } else {
                            format!("{}_client", snake_case(&dn.name))
                        }
                    })
                    .collect();
                let mut expr = format!("{impl_name}::new({})", args.join(", "));
                // Wrap with the modifier chain, innermost first.
                for &modifier in mn.modifiers() {
                    let md = ir.node(modifier).expect("modifier exists");
                    expr = format!("{}::wrap({expr})", wrapper_type(&md.kind));
                }
                out.push_str(&format!("    let {} = {expr};\n", snake_case(&mn.name)));
                constructed.push(m);
                false
            } else {
                true
            }
        });
        if remaining.len() == before {
            return Err(PluginError::Internal(format!(
                "dependency cycle among instances of process {}",
                n.name
            )));
        }
    }

    // Start servers for instances that carry server modifiers.
    for &m in &members {
        let mn = ir.node(m)?;
        if mn.modifiers().iter().any(|&md| {
            ir.node(md)
                .map(|x| x.kind.starts_with("mod.rpc") || x.kind.starts_with("mod.http"))
                .unwrap_or(false)
        }) {
            out.push_str(&format!(
                "    serve_env(\"{}_ADDRESS\", \"{}_PORT\", {})?;\n",
                mn.name.to_uppercase(),
                mn.name.to_uppercase(),
                snake_case(&mn.name),
            ));
        }
    }
    out.push_str("    wait_for_shutdown()\n}\n");
    Ok(out)
}

/// Maps a modifier kind to the generated wrapper type name.
fn wrapper_type(kind: &str) -> String {
    let tail = kind.rsplit('.').next().unwrap_or(kind);
    let mut name = String::new();
    let mut upper = true;
    for c in tail.chars() {
        if upper {
            name.push(c.to_ascii_uppercase());
            upper = false;
        } else {
            name.push(c);
        }
    }
    // `mod.rpc.grpc.server` → last segment is "server"; use the transport
    // segment instead for readability.
    let segs: Vec<&str> = kind.split('.').collect();
    let label = if segs.last() == Some(&"server") && segs.len() >= 2 {
        segs[segs.len() - 2]
    } else {
        tail
    };
    let mut out = String::new();
    let mut upper = true;
    for c in label.chars() {
        if upper {
            out.push(c.to_ascii_uppercase());
            upper = false;
        } else {
            out.push(c);
        }
    }
    let _ = name;
    format!("{out}Wrapper")
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{MethodSig, Node, NodeRole, TypeRef};
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    fn ctx_fixtures() -> (WorkflowSpec, WiringSpec) {
        (WorkflowSpec::new("w"), WiringSpec::new("w"))
    }

    #[test]
    fn groups_members_into_process() {
        let (wf, wiring) = ctx_fixtures();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let a = ir
            .add_component("a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = ir
            .add_component("b", "workflow.service", Granularity::Instance)
            .unwrap();
        let decl = InstanceDecl {
            name: "p1".into(),
            callee: "Process".into(),
            args: vec![Arg::r("a"), Arg::r("b")],
            kwargs: [("gogc".to_string(), Arg::Int(75))].into_iter().collect(),
            server_modifiers: vec![],
        };
        let ns = NamespacePlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        assert_eq!(ir.node(a).unwrap().parent(), Some(ns));
        assert_eq!(ir.node(b).unwrap().parent(), Some(ns));
        assert_eq!(ir.node(ns).unwrap().props.float("gogc"), Some(75.0));

        let mut pl = ProcessLowering::default();
        NamespacePlugin.apply_process(ns, &ir, &mut pl);
        assert_eq!(pl.gc.unwrap().gogc_percent, 75.0);
    }

    #[test]
    fn unknown_member_rejected() {
        let (wf, wiring) = ctx_fixtures();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "p1".into(),
            callee: "Process".into(),
            args: vec![Arg::r("ghost")],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let err = NamespacePlugin
            .build_node(&decl, &mut ir, &ctx)
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn process_main_constructs_in_dependency_order() {
        let (wf, wiring) = ctx_fixtures();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let a = ir
            .add_component("svc_a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = ir
            .add_component("svc_b", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.node_mut(a).unwrap().props.set("impl", "AImpl");
        ir.node_mut(b).unwrap().props.set("impl", "BImpl");
        // a calls b: b must be constructed first.
        ir.add_invocation(a, b, vec![MethodSig::new("M", vec![], TypeRef::Unit)])
            .unwrap();
        let m = ir
            .add_node(Node::new(
                "svc_a_rpc",
                "mod.rpc.grpc.server",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(a, m).unwrap();
        let ns = ir
            .add_namespace("p1", PROCESS_KIND, Granularity::Process)
            .unwrap();
        ir.set_parent(a, ns).unwrap();
        ir.set_parent(b, ns).unwrap();
        let mut out = ArtifactTree::new();
        NamespacePlugin.generate(ns, &ir, &ctx, &mut out).unwrap();
        let main = out.get("procs/p1/main.rs").unwrap();
        let b_pos = main.content.find("let svc_b = BImpl::new()").unwrap();
        let a_pos = main
            .content
            .find("let svc_a = GrpcWrapper::wrap(AImpl::new(svc_b))")
            .unwrap();
        assert!(b_pos < a_pos, "{}", main.content);
        assert!(main.content.contains("serve_env(\"SVC_A_ADDRESS\""));
    }

    #[test]
    fn remote_deps_become_clients() {
        let (wf, wiring) = ctx_fixtures();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let a = ir
            .add_component("svc_a", "workflow.service", Granularity::Instance)
            .unwrap();
        let remote = ir
            .add_component("svc_r", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.node_mut(a).unwrap().props.set("impl", "AImpl");
        ir.add_invocation(a, remote, vec![]).unwrap();
        let ns = ir
            .add_namespace("p1", PROCESS_KIND, Granularity::Process)
            .unwrap();
        ir.set_parent(a, ns).unwrap();
        let mut out = ArtifactTree::new();
        NamespacePlugin.generate(ns, &ir, &ctx, &mut out).unwrap();
        let main = out.get("procs/p1/main.rs").unwrap();
        assert!(main
            .content
            .contains("let svc_r_client = dial_env(\"SVC_R_ADDRESS\""));
        assert!(main.content.contains("AImpl::new(svc_r_client)"));
    }

    #[test]
    fn cycle_in_process_reported() {
        let (wf, wiring) = ctx_fixtures();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let a = ir
            .add_component("a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = ir
            .add_component("b", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(a, b, vec![]).unwrap();
        ir.add_invocation(b, a, vec![]).unwrap();
        let ns = ir
            .add_namespace("p1", PROCESS_KIND, Granularity::Process)
            .unwrap();
        ir.set_parent(a, ns).unwrap();
        ir.set_parent(b, ns).unwrap();
        let mut out = ArtifactTree::new();
        let err = NamespacePlugin
            .generate(ns, &ir, &ctx, &mut out)
            .unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }
}
