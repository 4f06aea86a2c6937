//! The Blueprint compiler (paper §4.3).
//!
//! Compilation happens in two steps, exactly as the paper describes:
//!
//! 1. **Specs → IR** ([`build`]): the wiring spec's declarations are
//!    dispatched to the plugins claiming their keywords, producing component
//!    nodes, backend nodes, and modifier templates; server-modifier chains
//!    are cloned per service; plugin transformation passes run (replication
//!    duplicating nodes, ...); the placement pass assigns auto namespaces
//!    (process per instance, container per process, machines per the
//!    deployer's cluster shape); and the visibility pass widens edges per
//!    the RPC/HTTP modifiers present.
//! 2. **IR → implementation** ([`genart`], [`simlower`]): after the
//!    visibility check gates addressability, artifact generation walks the
//!    node hierarchy invoking each node's owning plugin, and the simulation
//!    lowering produces a [`blueprint_simrt::SystemSpec`] — the deployable
//!    form this reproduction executes (standing in for container images, see
//!    `DESIGN.md` §4).

pub mod build;
pub mod genart;
pub mod passes;
pub mod simlower;

use std::time::{Duration, Instant};

use blueprint_ir::IrGraph;
use blueprint_plugins::{ArtifactTree, BuildCtx, PluginError, Registry};
use blueprint_simrt::SystemSpec;
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;

/// Errors raised by the compiler.
#[derive(Debug)]
pub enum CompileError {
    /// No plugin claims a wiring callee.
    UnknownCallee {
        /// The wiring instance.
        instance: String,
        /// The unclaimed callee keyword.
        callee: String,
    },
    /// A plugin rejected its input.
    Plugin(PluginError),
    /// IR-level structural error.
    Ir(blueprint_ir::IrError),
    /// The workflow spec is inconsistent.
    Workflow(blueprint_workflow::WorkflowError),
    /// The wiring spec is inconsistent.
    Wiring(blueprint_wiring::WiringError),
    /// One or more edges lack the visibility to reach their callee
    /// (paper §4.3.2 "Resolving Dependencies").
    Visibility(Vec<String>),
    /// Lowering produced an invalid system spec.
    Sim(blueprint_simrt::SimError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnknownCallee { instance, callee } => {
                write!(
                    f,
                    "wiring instance `{instance}`: no plugin provides `{callee}`"
                )
            }
            CompileError::Plugin(e) => write!(f, "{e}"),
            CompileError::Ir(e) => write!(f, "{e}"),
            CompileError::Workflow(e) => write!(f, "{e}"),
            CompileError::Wiring(e) => write!(f, "{e}"),
            CompileError::Visibility(v) => {
                writeln!(f, "visibility check failed ({} edges):", v.len())?;
                for msg in v {
                    writeln!(f, "  - {msg}")?;
                }
                Ok(())
            }
            CompileError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<PluginError> for CompileError {
    fn from(e: PluginError) -> Self {
        CompileError::Plugin(e)
    }
}
impl From<blueprint_ir::IrError> for CompileError {
    fn from(e: blueprint_ir::IrError) -> Self {
        CompileError::Ir(e)
    }
}
impl From<blueprint_workflow::WorkflowError> for CompileError {
    fn from(e: blueprint_workflow::WorkflowError) -> Self {
        CompileError::Workflow(e)
    }
}
impl From<blueprint_wiring::WiringError> for CompileError {
    fn from(e: blueprint_wiring::WiringError) -> Self {
        CompileError::Wiring(e)
    }
}
impl From<blueprint_simrt::SimError> for CompileError {
    fn from(e: blueprint_simrt::SimError) -> Self {
        CompileError::Sim(e)
    }
}

/// Result alias for compiler operations.
pub type Result<T> = std::result::Result<T, CompileError>;

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Generate the artifact tree (can be disabled for pure-simulation
    /// compiles, e.g. the Tab. 5 timing harness measures both ways).
    pub generate_artifacts: bool,
    /// Lower to the simulation target.
    pub lower_simulation: bool,
    /// Configuration for the lint stage (severity overrides, thresholds).
    /// The lints always run after validation; their diagnostics land in
    /// [`CompiledApp::diagnostics`] and never fail the compile.
    pub lint_config: blueprint_lint::LintConfig,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            generate_artifacts: true,
            lower_simulation: true,
            lint_config: blueprint_lint::LintConfig::default(),
        }
    }
}

/// A compiled application variant.
#[derive(Debug)]
pub struct CompiledApp {
    /// The (post-pass) IR graph.
    pub ir: IrGraph,
    /// Generated artifacts (empty when disabled).
    pub artifacts: ArtifactTree,
    /// The deployable simulation spec (empty when disabled).
    pub system: SystemSpec,
    /// Static-analysis findings from the lint stage.
    /// Advisory at compile time — a pathological-but-well-formed variant
    /// still compiles so the fault simulator can measure it.
    pub diagnostics: Vec<blueprint_lint::Diagnostic>,
    /// Wall-clock generation time (the Tab. 5 metric).
    pub gen_time: Duration,
}

/// The Blueprint compiler.
pub struct Compiler {
    registry: Registry,
}

impl Compiler {
    /// A compiler with the given plugin set.
    pub fn new(registry: Registry) -> Self {
        Compiler { registry }
    }

    /// A compiler with the out-of-the-box plugin set.
    pub fn core() -> Self {
        Compiler::new(Registry::core())
    }

    /// A compiler with core + extension plugins (X-Trace, CircuitBreaker).
    pub fn extended() -> Self {
        Compiler::new(Registry::extended())
    }

    /// Access to the plugin registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Compiles an application variant.
    pub fn compile(
        &self,
        workflow: &WorkflowSpec,
        wiring: &WiringSpec,
        options: &CompileOptions,
    ) -> Result<CompiledApp> {
        let start = Instant::now();
        workflow.validate()?;
        wiring.validate()?;
        let ctx = BuildCtx { workflow, wiring };

        // Step 1: specs → IR.
        let mut ir = build::build_ir(&self.registry, &ctx)?;
        passes::run_transforms(&self.registry, &mut ir, &ctx)?;
        passes::assign_namespaces(&mut ir)?;
        passes::widen_visibility(&self.registry, &mut ir)?;
        passes::validate(&ir)?;
        let diagnostics = passes::lint(&ir, wiring, Some(workflow), &options.lint_config);

        // Step 2: IR → implementation.
        let artifacts = if options.generate_artifacts {
            genart::generate(&self.registry, &ir, &ctx)?
        } else {
            ArtifactTree::new()
        };
        let system = if options.lower_simulation {
            simlower::lower(&self.registry, &ir, &ctx)?
        } else {
            SystemSpec::default()
        };
        Ok(CompiledApp {
            ir,
            artifacts,
            system,
            diagnostics,
            gen_time: start.elapsed(),
        })
    }
}
