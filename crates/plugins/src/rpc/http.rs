//! HTTP server modifier (the Go `net/http` plugin of Tab. 3): JSON-over-HTTP
//! framing, used for frontend/gateway services.

use blueprint_ir::types::snake_case;
use blueprint_ir::{IrGraph, NodeId, Visibility};
use blueprint_simrt::TransportSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};
use crate::rpc::{exposed_methods, render_wrappers, server_modifier, target_name, transport_ns};

/// Kind tag of HTTP server modifiers.
pub const KIND: &str = "mod.http.server";

/// Per-call costs recorded on every node unless a kwarg overrides them.
const DEFAULTS: &[(&str, f64)] = &[("serialize_us", 25.0), ("net_us", 60.0)];

/// The `HTTPServer()` plugin.
///
/// Wiring kwargs: `serialize_us` (JSON marshalling CPU, default 25),
/// `net_us` (default 60).
pub struct HttpPlugin;

impl Plugin for HttpPlugin {
    fn name(&self) -> &'static str {
        "http"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["HTTPServer"]
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
        server_modifier(decl, ir, KIND, &[], DEFAULTS)
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        let service = target_name(node, ir);
        if service.is_empty() {
            return Ok(());
        }
        let methods = exposed_methods(node, ir);
        // Route table artifact.
        let mut routes = String::new();
        for m in &methods {
            routes.push_str(&format!(
                "POST /api/{}/{}\n",
                snake_case(&service),
                snake_case(&m.name)
            ));
        }
        out.put(
            format!("http/{}_routes.txt", snake_case(&service)),
            ArtifactKind::Config,
            routes,
        );
        out.put(
            format!("wrappers/{}_http.rs", snake_case(&service)),
            ArtifactKind::RustSource,
            render_wrappers("Http", &service, &methods),
        );
        Ok(())
    }

    fn transport(&self, node: NodeId, ir: &IrGraph) -> Option<TransportSpec> {
        let (serialize_ns, net_ns) = transport_ns(ir.node(node).ok()?);
        Some(TransportSpec::Http {
            serialize_ns,
            net_ns,
        })
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("http.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{Granularity, MethodSig, TypeRef};
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn routes_and_transport() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let svc = ir
            .add_component("gateway", "workflow.service", Granularity::Instance)
            .unwrap();
        let c = ir
            .add_component("wl", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(
            c,
            svc,
            vec![MethodSig::new("ReadHomeTimeline", vec![], TypeRef::Unit)],
        )
        .unwrap();
        let decl = InstanceDecl {
            name: "web".into(),
            callee: "HTTPServer".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let m = HttpPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        ir.attach_modifier(svc, m).unwrap();
        let mut out = ArtifactTree::new();
        HttpPlugin.generate(m, &ir, &ctx, &mut out).unwrap();
        assert!(out
            .get("http/gateway_routes.txt")
            .unwrap()
            .content
            .contains("POST /api/gateway/read_home_timeline"));
        assert!(matches!(
            HttpPlugin.transport(m, &ir),
            Some(TransportSpec::Http { .. })
        ));
        assert_eq!(HttpPlugin.widen(m, &ir), Some(Visibility::Global));
    }
}
