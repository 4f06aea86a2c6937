//! Tracing plugins: tracer backends (Zipkin, Jaeger, X-Trace) and the tracer
//! modifier that wraps service methods with span creation (paper Fig. 13a).

pub mod jaeger;
pub mod xtrace;
pub mod zipkin;

pub use jaeger::JaegerTracerPlugin;
pub use xtrace::{XTraceModifierPlugin, XTracerPlugin};
pub use zipkin::ZipkinTracerPlugin;

use blueprint_ir::types::snake_case;
use blueprint_ir::{Edge, Granularity, IrGraph, Node, NodeId, NodeRole};
use blueprint_simrt::ClientSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginError, PluginResult, ServiceLowering};
use crate::artifact::{ArtifactKind, ArtifactTree};

/// Kind tag of the OpenTelemetry-style tracer modifier.
pub const MODIFIER_KIND: &str = "mod.tracer.otel";

/// Builds a tracer-server component node (shared by all tracer backends).
pub fn tracer_component(decl: &InstanceDecl, ir: &mut IrGraph, kind: &str) -> PluginResult<NodeId> {
    let node = ir.add_component(&decl.name, kind, Granularity::Process)?;
    if let Some(rate) = decl.kwarg("sample_rate").and_then(|a| a.as_float()) {
        ir.node_mut(node)?.props.set("sample_rate", rate);
    }
    Ok(node)
}

/// The `TracerModifier(tracer=...)` plugin: wraps every method of the
/// modified service with span start/end against the referenced tracer.
///
/// Wiring kwargs: `tracer` (required reference), `overhead_us` (per-span CPU,
/// default 15 µs).
pub struct TracerModifierPlugin;

impl TracerModifierPlugin {
    /// Shared builder used by the X-Trace extension as well.
    pub fn build_modifier(
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        kind: &str,
        default_overhead_us: f64,
    ) -> PluginResult<NodeId> {
        let Some(tracer_name) = decl.kwarg("tracer").and_then(|a| a.as_ref_name()) else {
            return Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: "tracer modifier requires `tracer=<instance>`".into(),
            });
        };
        let Some(tracer) = ir.by_name(tracer_name) else {
            return Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: format!("unknown tracer `{tracer_name}`"),
            });
        };
        let node = ir.add_node(Node::new(
            &decl.name,
            kind,
            NodeRole::Modifier,
            Granularity::Instance,
        ))?;
        let overhead = decl
            .kwarg("overhead_us")
            .and_then(|a| a.as_float())
            .unwrap_or(default_overhead_us);
        ir.node_mut(node)?.props.set("overhead_us", overhead);
        ir.node_mut(node)?.props.set("tracer", tracer_name);
        ir.add_edge(Edge::dependency(node, tracer))?;
        Ok(node)
    }

    /// Shared artifact generation (Fig. 13a wrapper class).
    pub fn generate_wrapper(
        node: NodeId,
        ir: &IrGraph,
        flavor: &str,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        let n = ir.node(node)?;
        let Some(target) = n.attached_to() else {
            return Ok(()); // Unattached template node: nothing to wrap.
        };
        let t = ir.node(target)?;
        let path = format!("wrappers/{}_{flavor}_tracer.rs", snake_case(&t.name));
        let mut src = format!(
            "//! Generated {flavor} tracing wrapper for `{}` (cf. paper Fig. 13a).\n\n",
            t.name
        );
        src.push_str(&format!(
            "pub struct {}Tracer<S> {{\n    service: S,\n    tracer: TracerClient,\n}}\n\n",
            camel(&t.name)
        ));
        src.push_str(&format!("impl<S> {}Tracer<S> {{\n", camel(&t.name)));
        // One wrapped method per inbound invocation signature.
        let mut methods: Vec<String> = ir
            .in_edges(target)
            .iter()
            .filter_map(|e| ir.edge(*e).ok())
            .flat_map(|e| e.methods.iter().map(|m| m.name.clone()))
            .collect();
        methods.sort();
        methods.dedup();
        if methods.is_empty() {
            methods.push("handle".into());
        }
        for m in &methods {
            src.push_str(&format!(
                "    pub fn {}(&self, ctx: &mut Ctx) -> Result<(), Error> {{\n",
                snake_case(m)
            ));
            src.push_str(&format!(
                "        let span = self.tracer.start_span(\"{m}\", ctx.remote_span());\n"
            ));
            src.push_str(&format!(
                "        let ret = self.service.{}(ctx);\n",
                snake_case(m)
            ));
            src.push_str("        if let Err(e) = &ret { span.record_error(e); }\n");
            src.push_str("        span.end();\n        ret\n    }\n");
        }
        src.push_str("}\n");
        out.put(path, ArtifactKind::RustSource, src);
        Ok(())
    }
}

fn camel(s: &str) -> String {
    blueprint_ir::types::camel_case(s)
}

impl Plugin for TracerModifierPlugin {
    fn name(&self) -> &'static str {
        "tracing"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["TracerModifier"]
    }

    fn owns_kinds(&self) -> Vec<&'static str> {
        vec![MODIFIER_KIND]
    }

    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        _ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId> {
        Self::build_modifier(decl, ir, MODIFIER_KIND, 15.0)
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        Self::generate_wrapper(node, ir, "otel", out)
    }

    fn apply_service(&self, node: NodeId, ir: &IrGraph, svc: &mut ServiceLowering) {
        if let Ok(n) = ir.node(node) {
            let overhead_ns = (n.props.float_or("overhead_us", 0.0) * 1000.0) as u64;
            svc.trace_overhead_ns = Some(overhead_ns);
        }
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            // Context injection/extraction costs roughly half a span.
            client.client_overhead_ns += (n.props.float_or("overhead_us", 0.0) * 500.0) as u64;
        }
    }

    fn source(&self) -> &'static str {
        include_str!("mod.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::MethodSig;
    use blueprint_ir::TypeRef;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    fn decl(kwargs: Vec<(&str, Arg)>) -> InstanceDecl {
        InstanceDecl {
            name: "tracer_mod".into(),
            callee: "TracerModifier".into(),
            args: vec![],
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: vec![],
        }
    }

    #[test]
    fn requires_tracer_reference() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let err = TracerModifierPlugin
            .build_node(&decl(vec![]), &mut ir, &ctx)
            .unwrap_err();
        assert!(err.to_string().contains("tracer="));
    }

    #[test]
    fn builds_with_dependency_edge_and_lowers() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let tracer = ir
            .add_component("zipkin", "backend.tracer.zipkin", Granularity::Process)
            .unwrap();
        let m = TracerModifierPlugin
            .build_node(
                &decl(vec![
                    ("tracer", Arg::r("zipkin")),
                    ("overhead_us", Arg::Int(20)),
                ]),
                &mut ir,
                &ctx,
            )
            .unwrap();
        assert_eq!(ir.node(m).unwrap().role, NodeRole::Modifier);
        assert_eq!(
            ir.callees(m).len(),
            0,
            "dependency edges are not invocations"
        );
        assert_eq!(ir.out_edges(m).len(), 1);
        assert_eq!(ir.edge(ir.out_edges(m)[0]).unwrap().to, tracer);

        let mut svc = ServiceLowering::default();
        TracerModifierPlugin.apply_service(m, &ir, &mut svc);
        assert_eq!(svc.trace_overhead_ns, Some(20_000));
        let mut client = ClientSpec::local();
        TracerModifierPlugin.apply_client(m, &ir, &mut client);
        assert_eq!(client.client_overhead_ns, 10_000);
    }

    #[test]
    fn wrapper_generated_for_attached_service() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        ir.add_component("zipkin", "backend.tracer.zipkin", Granularity::Process)
            .unwrap();
        let svc = ir
            .add_component("compose_post", "workflow.service", Granularity::Instance)
            .unwrap();
        let caller = ir
            .add_component("gw", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(
            caller,
            svc,
            vec![MethodSig::new("ComposePost", vec![], TypeRef::Unit)],
        )
        .unwrap();
        let m = TracerModifierPlugin
            .build_node(&decl(vec![("tracer", Arg::r("zipkin"))]), &mut ir, &ctx)
            .unwrap();
        ir.attach_modifier(svc, m).unwrap();
        let mut out = ArtifactTree::new();
        TracerModifierPlugin
            .generate(m, &ir, &ctx, &mut out)
            .unwrap();
        let w = out.get("wrappers/compose_post_otel_tracer.rs").unwrap();
        assert!(w.content.contains("start_span(\"ComposePost\""));
        assert!(w.content.contains("record_error"));
    }
}
