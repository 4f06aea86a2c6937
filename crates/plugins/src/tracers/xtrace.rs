//! X-Trace support: the paper's UC3 "Reproducible Research" extension
//! (§6.3).
//!
//! X-Trace (Fonseca et al., NSDI '07) predates OpenTelemetry and cannot reuse
//! the existing Jaeger/Zipkin instrumentation, so Sifter's authors spent
//! 1,289 manually changed LoC adding it to DSB SocialNetwork. In Blueprint it
//! is a one-time compiler extension — this file — after which enabling it for
//! an application is a 3-line wiring change (tested in the UC3 integration
//! tests). Nothing else in the toolchain references this module.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::ClientSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult, ServiceLowering};
use crate::artifact::ArtifactTree;
use crate::backends::backend_container_artifacts;
use crate::tracers::{tracer_component, TracerModifierPlugin};

/// Kind tag of X-Trace server nodes.
pub const SERVER_KIND: &str = "backend.tracer.xtrace";
/// Kind tag of the X-Trace modifier.
pub const MODIFIER_KIND: &str = "mod.tracer.xtrace";

/// The `XTracer()` backend: the X-Trace collection server.
pub struct XTracerPlugin;

impl Plugin for XTracerPlugin {
    fn name(&self) -> &'static str {
        "xtrace-server"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["XTracer"]
    }

    fn owns_kinds(&self) -> Vec<&'static str> {
        vec![SERVER_KIND]
    }

    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        _ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId> {
        tracer_component(decl, ir, SERVER_KIND)
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        backend_container_artifacts(ir, node, "xtrace/server:4.0", 5563, out)
    }

    fn source(&self) -> &'static str {
        include_str!("xtrace.rs")
    }
}

/// The `XTraceModifier(tracer=...)` scaffolding: wraps service methods with
/// X-Trace event logging. X-Trace records an event per operation edge rather
/// than a span pair, so its per-call overhead is higher than OpenTelemetry's.
pub struct XTraceModifierPlugin;

impl Plugin for XTraceModifierPlugin {
    fn name(&self) -> &'static str {
        "xtrace"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["XTraceModifier"]
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
        TracerModifierPlugin::build_modifier(decl, ir, MODIFIER_KIND, 25.0)
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        TracerModifierPlugin::generate_wrapper(node, ir, "xtrace", out)
    }

    fn apply_service(&self, node: NodeId, ir: &IrGraph, svc: &mut ServiceLowering) {
        if let Ok(n) = ir.node(node) {
            let overhead_ns = (n.props.float_or("overhead_us", 0.0) * 1000.0) as u64;
            svc.trace_overhead_ns = Some(overhead_ns);
        }
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            client.client_overhead_ns += (n.props.float_or("overhead_us", 0.0) * 600.0) as u64;
        }
    }

    fn source(&self) -> &'static str {
        include_str!("xtrace.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::Granularity;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn xtrace_is_heavier_than_otel() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        ir.add_component("xt", SERVER_KIND, Granularity::Process)
            .unwrap();
        let decl = InstanceDecl {
            name: "xt_mod".into(),
            callee: "XTraceModifier".into(),
            args: vec![],
            kwargs: [("tracer".to_string(), Arg::r("xt"))].into_iter().collect(),
            server_modifiers: vec![],
        };
        let m = XTraceModifierPlugin
            .build_node(&decl, &mut ir, &ctx)
            .unwrap();
        let mut svc = ServiceLowering::default();
        XTraceModifierPlugin.apply_service(m, &ir, &mut svc);
        assert_eq!(svc.trace_overhead_ns, Some(25_000));
        let mut client = ClientSpec::local();
        XTraceModifierPlugin.apply_client(m, &ir, &mut client);
        assert_eq!(client.client_overhead_ns, 15_000);
    }
}
