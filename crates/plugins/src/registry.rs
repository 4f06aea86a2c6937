//! The plugin registry: the set of compiler extensions enabled for a build.

use std::collections::HashMap;

use crate::api::{BuildCtx, Plugin};
use crate::backends::{MemcachedPlugin, MongoDbPlugin, MySqlPlugin, RabbitMqPlugin, RedisPlugin};
use crate::deployers::{AnsiblePlugin, DockerPlugin, KubernetesPlugin};
use crate::namespaces::NamespacePlugin;
use crate::rpc::{GrpcPlugin, HttpPlugin, ThriftPlugin};
use crate::scaffolding::{
    CircuitBreakerPlugin, ClientPoolPlugin, DeadlinePlugin, LoadBalancerPlugin, LoadShedPlugin,
    ReplicatePlugin, RetryBudgetPlugin, RetryPlugin, TimeoutPlugin,
};
use crate::tracers::{
    JaegerTracerPlugin, TracerModifierPlugin, XTraceModifierPlugin, XTracerPlugin,
    ZipkinTracerPlugin,
};
use crate::workflow_svc::WorkflowServicePlugin;

/// An ordered set of plugins. Order matters only for transform passes, which
/// run in registry order.
pub struct Registry {
    plugins: Vec<Box<dyn Plugin>>,
    /// Owned kind → index of the first plugin registered as owning it.
    kinds: HashMap<&'static str, usize>,
}

impl Registry {
    /// An empty registry (for tests composing custom sets).
    pub fn empty() -> Self {
        Registry {
            plugins: Vec::new(),
            kinds: HashMap::new(),
        }
    }

    /// The out-of-the-box plugin set: workflow services, namespaces, all
    /// backends and tracers, RPC frameworks, deployers, and the standard
    /// resilience scaffolding.
    pub fn core() -> Self {
        let mut r = Registry::empty();
        r.register(WorkflowServicePlugin);
        r.register(NamespacePlugin);
        r.register(MemcachedPlugin);
        r.register(RedisPlugin);
        r.register(MongoDbPlugin);
        r.register(MySqlPlugin);
        r.register(RabbitMqPlugin);
        r.register(ZipkinTracerPlugin);
        r.register(JaegerTracerPlugin);
        r.register(TracerModifierPlugin);
        r.register(GrpcPlugin);
        r.register(ThriftPlugin);
        r.register(HttpPlugin);
        r.register(DockerPlugin);
        r.register(KubernetesPlugin);
        r.register(AnsiblePlugin);
        r.register(RetryPlugin);
        r.register(TimeoutPlugin);
        r.register(ClientPoolPlugin);
        r.register(ReplicatePlugin);
        r.register(LoadBalancerPlugin);
        r
    }

    /// Core plus the after-the-fact extensions of the paper's UC3 studies —
    /// X-Trace (the Sifter reproduction) and the CircuitBreaker prototype —
    /// and the overload-protection scaffolding (Deadline, RetryBudget,
    /// LoadShed).
    pub fn extended() -> Self {
        let mut r = Registry::core();
        r.register(XTracerPlugin);
        r.register(XTraceModifierPlugin);
        r.register(CircuitBreakerPlugin);
        r.register(DeadlinePlugin);
        r.register(RetryBudgetPlugin);
        r.register(LoadShedPlugin);
        r
    }

    /// Registers an additional plugin.
    pub fn register(&mut self, plugin: impl Plugin + 'static) {
        for owned in plugin.owns_kinds() {
            self.kinds.entry(owned).or_insert(self.plugins.len());
        }
        self.plugins.push(Box::new(plugin));
    }

    /// Number of registered plugins.
    pub fn len(&self) -> usize {
        self.plugins.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.plugins.is_empty()
    }

    /// Iterates over plugins in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Plugin> {
        self.plugins.iter().map(Box::as_ref)
    }

    /// Finds the plugin claiming a wiring callee.
    pub fn for_callee(&self, callee: &str, ctx: &BuildCtx<'_>) -> Option<&dyn Plugin> {
        self.iter().find(|p| p.matches(callee, ctx))
    }

    /// Finds the plugin owning an IR node kind: the longest owned kind that
    /// is `kind` itself or a prefix of it ending before a `.`; of plugins
    /// owning the same kind, the first registered.
    pub fn for_kind(&self, kind: &str) -> Option<&dyn Plugin> {
        let dots = kind.bytes().enumerate().filter(|&(_, b)| b == b'.');
        std::iter::once(kind)
            .chain(dots.map(|(i, _)| &kind[..i]).rev())
            .find_map(|k| self.kinds.get(k))
            .map(|&i| self.plugins[i].as_ref())
    }

    /// Finds a plugin by name.
    pub fn by_name(&self, name: &str) -> Option<&dyn Plugin> {
        self.iter().find(|p| p.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn core_resolves_standard_keywords() {
        let r = Registry::core();
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        for kw in [
            "Memcached",
            "Redis",
            "MongoDB",
            "MySQL",
            "RabbitMQ",
            "ZipkinTracer",
            "JaegerTracer",
            "TracerModifier",
            "GRPCServer",
            "ThriftServer",
            "HTTPServer",
            "Docker",
            "Kubernetes",
            "Ansible",
            "Retry",
            "Timeout",
            "ClientPool",
            "Replicate",
            "LoadBalancer",
            "Process",
            "Container",
        ] {
            assert!(r.for_callee(kw, &ctx).is_some(), "missing keyword {kw}");
        }
        // Extensions are not in core.
        assert!(r.for_callee("XTraceModifier", &ctx).is_none());
        assert!(r.for_callee("CircuitBreaker", &ctx).is_none());
        assert!(r.for_callee("Deadline", &ctx).is_none());
        assert!(r.for_callee("RetryBudget", &ctx).is_none());
        assert!(r.for_callee("LoadShed", &ctx).is_none());
        assert!(!r.is_empty());
    }

    #[test]
    fn extended_adds_extensions() {
        let r = Registry::extended();
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        assert!(r.for_callee("XTraceModifier", &ctx).is_some());
        assert!(r.for_callee("XTracer", &ctx).is_some());
        assert!(r.for_callee("CircuitBreaker", &ctx).is_some());
        assert!(r.for_callee("Deadline", &ctx).is_some());
        assert!(r.for_callee("RetryBudget", &ctx).is_some());
        assert!(r.for_callee("LoadShed", &ctx).is_some());
        assert_eq!(r.len(), Registry::core().len() + 6);
    }

    #[test]
    fn kind_resolution_prefers_longest_prefix() {
        let r = Registry::extended();
        assert_eq!(
            r.for_kind("backend.cache.memcached").unwrap().name(),
            "memcached"
        );
        assert_eq!(r.for_kind("mod.rpc.grpc.server").unwrap().name(), "grpc");
        assert_eq!(r.for_kind("mod.tracer.otel").unwrap().name(), "tracing");
        assert_eq!(r.for_kind("mod.tracer.xtrace").unwrap().name(), "xtrace");
        assert_eq!(
            r.for_kind("namespace.process").unwrap().name(),
            "namespaces"
        );
        assert!(r.for_kind("unknown.kind").is_none());
    }

    /// A plugin that owns the given kinds and nothing else.
    struct Owner(&'static str, Vec<&'static str>);

    impl Plugin for Owner {
        fn name(&self) -> &'static str {
            self.0
        }
        fn build_node(
            &self,
            decl: &blueprint_wiring::InstanceDecl,
            ir: &mut blueprint_ir::IrGraph,
            _ctx: &BuildCtx<'_>,
        ) -> crate::PluginResult<blueprint_ir::NodeId> {
            Ok(ir.add_component(&decl.name, "x", blueprint_ir::Granularity::Instance)?)
        }
        fn owns_kinds(&self) -> Vec<&'static str> {
            self.1.clone()
        }
    }

    fn owners(plugins: &[(&'static str, &[&'static str])]) -> Registry {
        let mut r = Registry::empty();
        for (name, kinds) in plugins {
            r.register(Owner(name, kinds.to_vec()));
        }
        r
    }

    fn owner_of<'r>(r: &'r Registry, kind: &str) -> Option<&'r str> {
        r.for_kind(kind).map(|p| p.name())
    }

    #[test]
    fn kind_exact_match_beats_shorter_prefixes() {
        let r = owners(&[("short", &["backend"]), ("exact", &["backend.cache"])]);
        assert_eq!(owner_of(&r, "backend.cache"), Some("exact"));
        assert_eq!(owner_of(&r, "backend.cache.memcached"), Some("exact"));
        assert_eq!(owner_of(&r, "backend.nosql"), Some("short"));
        assert_eq!(owner_of(&r, "backend"), Some("short"));
    }

    #[test]
    fn kind_prefix_must_end_at_a_dot() {
        let r = owners(&[("cache", &["backend.cache"])]);
        assert_eq!(owner_of(&r, "backend.cachex"), None);
        assert_eq!(owner_of(&r, "backend.cachex.y"), None);
        assert_eq!(owner_of(&r, "backend"), None);
        assert_eq!(owner_of(&r, "backend.cache.x.y"), Some("cache"));
    }

    #[test]
    fn kind_owned_twice_goes_to_the_first_registered() {
        let r = owners(&[
            ("first", &["mod.rpc"]),
            ("second", &["mod.rpc", "mod.rpc.grpc"]),
        ]);
        assert_eq!(owner_of(&r, "mod.rpc.thrift"), Some("first"));
        assert_eq!(owner_of(&r, "mod.rpc.grpc.server"), Some("second"));
    }

    #[test]
    fn empty_registry_owns_no_kind() {
        let r = Registry::empty();
        for kind in ["", ".", "backend", "backend.cache.memcached"] {
            assert!(r.for_kind(kind).is_none(), "{kind}");
        }
    }

    #[test]
    fn by_name_lookup() {
        let r = Registry::core();
        assert!(r.by_name("p-replication").is_some());
        assert!(r.by_name("nonexistent").is_none());
    }
}
