//! Shared wiring machinery for the ported applications: the design
//! dimensions every app variant can be reconfigured along.

use blueprint_wiring::{Arg, Result as WiringResult, WiringSpec};

/// RPC framework choice (the Fig. 5 dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcChoice {
    /// gRPC: multiplexed connections.
    Grpc,
    /// Thrift with a client pool of the given size.
    Thrift {
        /// Connections per client.
        pool: u32,
    },
    /// Plain HTTP (used for gateways in heterogeneous variants).
    Http,
}

/// Tracer choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerChoice {
    /// Zipkin.
    Zipkin,
    /// Jaeger.
    Jaeger,
    /// X-Trace (requires the extended plugin registry).
    XTrace,
}

/// The reconfigurable design dimensions of an application variant.
///
/// Every field is one of the paper's mutation axes; changing a field and
/// recompiling is the UC1 workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WiringOpts {
    /// RPC framework for inter-service communication.
    pub rpc: RpcChoice,
    /// Distributed tracing (None disables tracing entirely — the popular
    /// "remove tracing" fork mutation of §B.3).
    pub tracing: Option<TracerChoice>,
    /// Deploy each service in its own container on a cluster (None compiles
    /// an all-in-one monolith process on a single machine, §6.1).
    pub containerized: bool,
    /// Cluster shape when containerized: `(machines, cores per machine)`.
    pub cluster: (i64, f64),
    /// Per-RPC timeout in ms applied to every inter-service call
    /// (None = no timeouts; the §6.2 experiments set 500–1000 ms).
    pub timeout_ms: Option<i64>,
    /// Retries per RPC (0 = none; the §6.2 experiments use 10).
    pub retries: u32,
}

impl Default for WiringOpts {
    fn default() -> Self {
        WiringOpts {
            rpc: RpcChoice::Grpc,
            tracing: Some(TracerChoice::Jaeger),
            containerized: true,
            cluster: (8, 8.0),
            timeout_ms: None,
            retries: 0,
        }
    }
}

impl WiringOpts {
    /// The monolith variant of these options.
    pub fn monolith(mut self) -> Self {
        self.containerized = false;
        self
    }

    /// Variant with timeouts + retries (the metastability setup).
    pub fn with_timeout_retries(mut self, timeout_ms: i64, retries: u32) -> Self {
        self.timeout_ms = Some(timeout_ms);
        self.retries = retries;
        self
    }

    /// Variant without tracing.
    pub fn without_tracing(mut self) -> Self {
        self.tracing = None;
        self
    }

    /// Variant with a different RPC framework.
    pub fn with_rpc(mut self, rpc: RpcChoice) -> Self {
        self.rpc = rpc;
        self
    }
}

/// Declares the shared scaffolding instances (deployer, rpc, tracer,
/// timeout/retry) and returns the server-modifier list every service uses —
/// the `SERVER_MODS` macro of Fig. 3.
pub fn standard_scaffolding(w: &mut WiringSpec, opts: &WiringOpts) -> WiringResult<Vec<String>> {
    let mut mods: Vec<String> = Vec::new();
    match opts.rpc {
        RpcChoice::Grpc => {
            w.define("rpc_server", "GRPCServer", vec![])?;
        }
        RpcChoice::Thrift { pool } => {
            w.define_kw(
                "rpc_server",
                "ThriftServer",
                vec![],
                vec![("clientpool", Arg::Int(pool as i64))],
            )?;
        }
        RpcChoice::Http => {
            w.define("rpc_server", "HTTPServer", vec![])?;
        }
    }
    if opts.containerized {
        mods.push("rpc_server".into());
        w.define_kw(
            "deployer",
            "Docker",
            vec![],
            vec![
                ("machines", Arg::Int(opts.cluster.0)),
                ("cores", Arg::Float(opts.cluster.1)),
            ],
        )?;
        mods.push("deployer".into());
    }
    if let Some(tracer) = opts.tracing {
        let (server_kw, mod_kw) = match tracer {
            TracerChoice::Zipkin => ("ZipkinTracer", "TracerModifier"),
            TracerChoice::Jaeger => ("JaegerTracer", "TracerModifier"),
            TracerChoice::XTrace => ("XTracer", "XTraceModifier"),
        };
        w.define("tracer", server_kw, vec![])?;
        w.define_kw(
            mod_kw.to_lowercase().as_str(),
            mod_kw,
            vec![],
            vec![("tracer", Arg::r("tracer"))],
        )?;
        mods.push(mod_kw.to_lowercase());
    }
    if let Some(ms) = opts.timeout_ms {
        w.define_kw("timeout_all", "Timeout", vec![], vec![("ms", Arg::Int(ms))])?;
        mods.push("timeout_all".into());
    }
    if opts.retries > 0 {
        w.define_kw(
            "retry_all",
            "Retry",
            vec![],
            vec![
                ("max", Arg::Int(opts.retries as i64)),
                ("backoff_ms", Arg::Int(1)),
            ],
        )?;
        mods.push("retry_all".into());
    }
    Ok(mods)
}

/// After all services are declared, groups every service instance (and any
/// load balancer in front of them) into one process when the options ask for
/// a monolith (the §6.1 monolith variants).
pub fn finish_monolith(w: &mut WiringSpec, opts: &WiringOpts) -> WiringResult<()> {
    if opts.containerized {
        return Ok(());
    }
    let members = blueprint_wiring::mutate::monolith_members(w);
    let refs: Vec<&str> = members.iter().map(String::as_str).collect();
    w.process("monolith", &refs)?;
    Ok(())
}

/// Standard compute costs (ns) and allocation sizes (bytes) used across the
/// apps, so capacity is comparable between applications.
pub mod cost {
    /// Light request handling (validation, marshalling glue).
    pub const LIGHT_NS: u64 = 80_000;
    /// Medium business logic.
    pub const MEDIUM_NS: u64 = 200_000;
    /// Heavy business logic (search/compose orchestration, scoring).
    pub const HEAVY_NS: u64 = 400_000;
    /// Typical per-request allocation.
    pub const ALLOC: u64 = 24 << 10;
    /// Large allocation (media, compose paths).
    pub const ALLOC_BIG: u64 = 96 << 10;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaffolding_reflects_options() {
        let mut w = WiringSpec::new("t");
        let opts = WiringOpts::default().with_timeout_retries(500, 10);
        let mods = standard_scaffolding(&mut w, &opts).unwrap();
        assert_eq!(
            mods,
            vec![
                "rpc_server",
                "deployer",
                "tracermodifier",
                "timeout_all",
                "retry_all"
            ]
        );
        assert_eq!(w.decl("rpc_server").unwrap().callee, "GRPCServer");
        assert_eq!(
            w.decl("deployer")
                .unwrap()
                .kwarg("machines")
                .unwrap()
                .as_int(),
            Some(8)
        );
        assert_eq!(
            w.decl("timeout_all").unwrap().kwarg("ms").unwrap().as_int(),
            Some(500)
        );
    }

    #[test]
    fn thrift_pool_and_monolith() {
        let mut w = WiringSpec::new("t");
        let opts = WiringOpts::default()
            .with_rpc(RpcChoice::Thrift { pool: 16 })
            .monolith();
        let mods = standard_scaffolding(&mut w, &opts).unwrap();
        // Monolith: no rpc/deployer in the chain, but tracing still applies.
        assert_eq!(mods, vec!["tracermodifier"]);
        assert_eq!(
            w.decl("rpc_server")
                .unwrap()
                .kwarg("clientpool")
                .unwrap()
                .as_int(),
            Some(16)
        );
        assert!(w.decl("deployer").is_none());
    }

    #[test]
    fn xtrace_uses_extension_keywords() {
        let mut w = WiringSpec::new("t");
        let opts = WiringOpts {
            tracing: Some(TracerChoice::XTrace),
            ..WiringOpts::default()
        };
        let mods = standard_scaffolding(&mut w, &opts).unwrap();
        assert!(mods.contains(&"xtracemodifier".to_string()));
        assert_eq!(w.decl("tracer").unwrap().callee, "XTracer");
    }

    #[test]
    fn no_tracing_drops_tracer_decls() {
        let mut w = WiringSpec::new("t");
        let opts = WiringOpts::default().without_tracing();
        standard_scaffolding(&mut w, &opts).unwrap();
        assert!(w.decl("tracer").is_none());
    }
}
