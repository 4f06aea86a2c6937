//! The plugin API: what a compiler extension implements.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::{BackendRtKind, ClientSpec, GcSpec, ShedSpec, TransportSpec};
use blueprint_wiring::{InstanceDecl, WiringSpec};
use blueprint_workflow::WorkflowSpec;

use crate::artifact::ArtifactTree;

/// Errors raised by plugins during compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginError {
    /// A wiring declaration was malformed for this plugin's keyword.
    BadDecl {
        /// The wiring instance name.
        instance: String,
        /// What went wrong.
        message: String,
    },
    /// Something structural went wrong while transforming or generating.
    Internal(String),
}

impl std::fmt::Display for PluginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PluginError::BadDecl { instance, message } => {
                write!(f, "bad wiring declaration `{instance}`: {message}")
            }
            PluginError::Internal(m) => write!(f, "plugin error: {m}"),
        }
    }
}

impl std::error::Error for PluginError {}

impl From<blueprint_ir::IrError> for PluginError {
    fn from(e: blueprint_ir::IrError) -> Self {
        PluginError::Internal(e.to_string())
    }
}

/// Result alias for plugin operations.
pub type PluginResult<T> = std::result::Result<T, PluginError>;

/// Read-only compilation context handed to plugins.
pub struct BuildCtx<'a> {
    /// The application's workflow spec.
    pub workflow: &'a WorkflowSpec,
    /// The application's wiring spec.
    pub wiring: &'a WiringSpec,
}

/// Service-level simulation attributes a plugin can contribute
/// (see [`Plugin::apply_service`]).
#[derive(Debug, Default, Clone)]
pub struct ServiceLowering {
    /// Per-span tracing CPU overhead; `Some` enables span recording.
    pub trace_overhead_ns: Option<u64>,
    /// Admission limit override.
    pub max_concurrent: Option<u32>,
    /// Adaptive admission controller (load shedding).
    pub shed: Option<ShedSpec>,
}

/// Process-level simulation attributes a plugin can contribute.
#[derive(Debug, Default, Clone)]
pub struct ProcessLowering {
    /// GC model override.
    pub gc: Option<GcSpec>,
}

/// A compiler plugin.
///
/// All hooks have defaults so a plugin only implements the integration points
/// it needs; `build_node` is the only commonly mandatory one for plugins that
/// claim wiring keywords.
pub trait Plugin {
    /// Unique plugin name (used in diagnostics and the Tab. 4 accounting).
    fn name(&self) -> &'static str;

    /// Wiring callees this plugin claims (static keywords).
    fn keywords(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Dynamic keyword matching; defaults to [`Plugin::keywords`] membership.
    /// The workflow plugin overrides this to match service implementation
    /// names declared in the workflow spec.
    fn matches(&self, callee: &str, _ctx: &BuildCtx<'_>) -> bool {
        self.keywords().contains(&callee)
    }

    /// Builds the IR node(s) for a wiring declaration using one of this
    /// plugin's keywords. Returns the primary node.
    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId>;

    /// IR node-kind prefixes this plugin owns for generation/lowering.
    /// [`Registry::register`](crate::Registry::register) calls this once and
    /// indexes the result, so it must not change after registration.
    fn owns_kinds(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Whole-graph transformation pass, run after node construction in
    /// registry order (e.g. replication duplicating components).
    fn transform(&self, _ir: &mut IrGraph, _ctx: &BuildCtx<'_>) -> PluginResult<()> {
        Ok(())
    }

    /// Generates artifacts for an owned node.
    fn generate(
        &self,
        _node: NodeId,
        _ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        _out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        Ok(())
    }

    /// Lowers an owned backend node to its simulation model.
    fn lower_backend(&self, _node: NodeId, _ir: &IrGraph) -> Option<BackendRtKind> {
        None
    }

    /// The transport provided by an owned RPC/HTTP server modifier node.
    fn transport(&self, _node: NodeId, _ir: &IrGraph) -> Option<TransportSpec> {
        None
    }

    /// Visibility this owned node grants to invocation edges arriving at the
    /// component it modifies (or at itself, for backend components that
    /// natively listen on the network). See paper §4.2 "Visibility".
    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<blueprint_ir::Visibility> {
        None
    }

    /// Contributes client-side policy for calls to a component carrying an
    /// owned modifier node (timeouts, retries, breakers, pools, tracing
    /// overhead).
    fn apply_client(&self, _node: NodeId, _ir: &IrGraph, _client: &mut ClientSpec) {}

    /// Contributes service-level simulation attributes for an owned modifier
    /// node attached to a service.
    fn apply_service(&self, _node: NodeId, _ir: &IrGraph, _svc: &mut ServiceLowering) {}

    /// Contributes process-level attributes for an owned namespace node.
    fn apply_process(&self, _node: NodeId, _ir: &IrGraph, _proc: &mut ProcessLowering) {}

    /// This plugin's implementation source (for the Tab. 2–4 LoC accounting).
    fn source(&self) -> &'static str {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Plugin for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn keywords(&self) -> Vec<&'static str> {
            vec!["Nop"]
        }
        fn build_node(
            &self,
            decl: &InstanceDecl,
            ir: &mut IrGraph,
            _ctx: &BuildCtx<'_>,
        ) -> PluginResult<NodeId> {
            Ok(ir.add_component(&decl.name, "nop", blueprint_ir::Granularity::Instance)?)
        }
    }

    #[test]
    fn default_matches_uses_keywords() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let p = Nop;
        assert!(p.matches("Nop", &ctx));
        assert!(!p.matches("Other", &ctx));
        assert_eq!(p.owns_kinds(), Vec::<&str>::new());
        assert_eq!(p.source(), "");
    }

    #[test]
    fn error_display() {
        let e = PluginError::BadDecl {
            instance: "x".into(),
            message: "boom".into(),
        };
        assert!(e.to_string().contains("`x`"));
        let e: PluginError = blueprint_ir::IrError::UnknownNode("n1".into()).into();
        assert!(matches!(e, PluginError::Internal(_)));
    }
}
