//! Blueprint's public API facade.
//!
//! This crate is the entry point a downstream user works with:
//!
//! ```
//! use blueprint_core::{Blueprint, CompileOptions};
//! use blueprint_workflow::{Behavior, ServiceBuilder, ServiceInterface, WorkflowSpec};
//! use blueprint_wiring::WiringSpec;
//! use blueprint_ir::{MethodSig, TypeRef};
//!
//! // 1. A workflow spec: services, interfaces, behaviors.
//! let mut workflow = WorkflowSpec::new("hello");
//! workflow
//!     .add_service(
//!         ServiceBuilder::new(
//!             "HelloServiceImpl",
//!             ServiceInterface::new(
//!                 "HelloService",
//!                 vec![MethodSig::new("Hello", vec![], TypeRef::Str)],
//!             ),
//!         )
//!         .method("Hello", Behavior::build().compute(50_000, 256).done())
//!         .done()
//!         .unwrap(),
//!     )
//!     .unwrap();
//!
//! // 2. A wiring spec: scaffolding + instantiation choices.
//! let mut wiring = WiringSpec::new("hello");
//! wiring.define("deployer", "Docker", vec![]).unwrap();
//! wiring.define("rpc", "GRPCServer", vec![]).unwrap();
//! wiring.service("hello", "HelloServiceImpl", &[], &["rpc", "deployer"]).unwrap();
//!
//! // 3. Compile: artifacts + a deployable (simulated) system.
//! let app = Blueprint::new().compile(&workflow, &wiring).unwrap();
//! assert!(app.artifacts.contains("docker-compose.yml"));
//! let mut sim = app.simulation(7).unwrap();
//! sim.submit("hello", "Hello", 1).unwrap();
//! sim.run_until(blueprint_simrt::time::secs(1));
//! assert_eq!(sim.drain_completions().len(), 1);
//! ```
//!
//! Changing the design — swapping the RPC framework, adding replication or a
//! circuit breaker, going monolith — is a 1–5 line edit of the wiring spec
//! (see [`blueprint_wiring::mutate`]), after which `compile` regenerates the
//! whole variant. That rapid Configure/Build/Deploy loop is the paper's
//! central claim.

pub use blueprint_compiler::{
    CompileError, CompileOptions, CompiledApp as CompiledAppInner, Compiler,
};
pub use blueprint_plugins::{ArtifactTree, Plugin, Registry};
pub use blueprint_simrt::{Sim, SimConfig, SystemSpec};
pub use blueprint_wiring::WiringSpec;
pub use blueprint_workflow::WorkflowSpec;

/// Result alias for toolchain operations.
pub type Result<T> = std::result::Result<T, CompileError>;

/// A compiled application variant, with convenience constructors for the
/// simulated deployment.
#[derive(Debug)]
pub struct CompiledApp {
    inner: CompiledAppInner,
}

impl CompiledApp {
    /// The generated artifact tree.
    pub fn artifacts(&self) -> &ArtifactTree {
        &self.inner.artifacts
    }

    /// The post-pass IR graph.
    pub fn ir(&self) -> &blueprint_ir::IrGraph {
        &self.inner.ir
    }

    /// The deployable system spec.
    pub fn system(&self) -> &SystemSpec {
        &self.inner.system
    }

    /// Wall-clock compile time (the Tab. 5 metric).
    pub fn gen_time(&self) -> std::time::Duration {
        self.inner.gen_time
    }

    /// Boots the variant on the simulation substrate with the given seed.
    pub fn simulation(&self, seed: u64) -> blueprint_simrt::Result<Sim> {
        Sim::new(
            &self.inner.system,
            SimConfig {
                seed,
                ..Default::default()
            },
        )
    }

    /// Boots the variant with a custom simulation configuration.
    pub fn simulation_with(&self, cfg: SimConfig) -> blueprint_simrt::Result<Sim> {
        Sim::new(&self.inner.system, cfg)
    }
}

impl std::ops::Deref for CompiledApp {
    type Target = CompiledAppInner;

    fn deref(&self) -> &CompiledAppInner {
        &self.inner
    }
}

/// The Blueprint toolchain.
pub struct Blueprint {
    compiler: Compiler,
    options: CompileOptions,
}

impl Default for Blueprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Blueprint {
    /// A toolchain with all plugins (core + X-Trace + CircuitBreaker).
    pub fn new() -> Self {
        Blueprint {
            compiler: Compiler::extended(),
            options: CompileOptions::default(),
        }
    }

    /// A toolchain with only the out-of-the-box plugin set (no extensions) —
    /// used by the UC3 tests to demonstrate that extensions are additive.
    pub fn core_only() -> Self {
        Blueprint {
            compiler: Compiler::core(),
            options: CompileOptions::default(),
        }
    }

    /// A toolchain with a custom plugin registry.
    pub fn with_registry(registry: Registry) -> Self {
        Blueprint {
            compiler: Compiler::new(registry),
            options: CompileOptions::default(),
        }
    }

    /// Skips artifact generation (faster, for simulation-only experiments).
    pub fn without_artifacts(mut self) -> Self {
        self.options.generate_artifacts = false;
        self
    }

    /// Skips simulation lowering (for artifact-only / codegen-timing runs).
    pub fn without_simulation(mut self) -> Self {
        self.options.lower_simulation = false;
        self
    }

    /// Compiles an application variant.
    pub fn compile(&self, workflow: &WorkflowSpec, wiring: &WiringSpec) -> Result<CompiledApp> {
        Ok(CompiledApp {
            inner: self.compiler.compile(workflow, wiring, &self.options)?,
        })
    }

    /// The underlying compiler (plugin registry access).
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{MethodSig, TypeRef};
    use blueprint_workflow::{Behavior, ServiceBuilder, ServiceInterface};

    /// The parallel experiment engine compiles variants on worker threads
    /// and shares compiled apps across workers by reference, so a
    /// `CompiledApp` (and the spec inputs it is built from) must be
    /// `Send + Sync`. Only the booted `Sim` is thread-bound.
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<CompiledApp>();
        assert_send_sync::<CompiledAppInner>();
        assert_send_sync::<SystemSpec>();
        assert_send_sync::<WorkflowSpec>();
        assert_send_sync::<WiringSpec>();
    };

    fn hello() -> (WorkflowSpec, WiringSpec) {
        let mut wf = WorkflowSpec::new("hello");
        wf.add_service(
            ServiceBuilder::new(
                "HelloServiceImpl",
                ServiceInterface::new(
                    "HelloService",
                    vec![MethodSig::new("Hello", vec![], TypeRef::Str)],
                ),
            )
            .method("Hello", Behavior::build().compute(50_000, 256).done())
            .done()
            .unwrap(),
        )
        .unwrap();
        let mut w = WiringSpec::new("hello");
        w.define("deployer", "Docker", vec![]).unwrap();
        w.define("rpc", "GRPCServer", vec![]).unwrap();
        w.service("hello", "HelloServiceImpl", &[], &["rpc", "deployer"])
            .unwrap();
        (wf, w)
    }

    #[test]
    fn end_to_end_compile_and_simulate() {
        let (wf, w) = hello();
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        assert!(app.artifacts().contains("docker-compose.yml"));
        assert!(app.gen_time().as_nanos() > 0);
        let mut sim = app.simulation(3).unwrap();
        sim.submit("hello", "Hello", 1).unwrap();
        sim.run_until(blueprint_simrt::time::secs(1));
        let done = sim.drain_completions();
        assert_eq!(done.len(), 1);
        assert!(done[0].ok);
    }

    #[test]
    fn option_toggles() {
        let (wf, w) = hello();
        let app = Blueprint::new()
            .without_artifacts()
            .compile(&wf, &w)
            .unwrap();
        assert!(app.artifacts().is_empty());
        assert!(!app.system().services.is_empty());
        let app = Blueprint::new()
            .without_simulation()
            .compile(&wf, &w)
            .unwrap();
        assert!(app.system().services.is_empty());
        assert!(!app.artifacts().is_empty());
    }

    #[test]
    fn core_only_rejects_extension_keywords() {
        let (wf, mut w) = hello();
        w.define("cb", "CircuitBreaker", vec![]).unwrap();
        assert!(Blueprint::core_only().compile(&wf, &w).is_err());
        assert!(Blueprint::new().compile(&wf, &w).is_ok());
    }
}
