//! IR → simulation lowering: produces the deployable [`SystemSpec`].
//!
//! This is the simulation analog of building container images: machines
//! become hosts, process namespaces become simulated processes (with a Go GC
//! model when they host workflow services), backends lower through their
//! plugins, and every service dependency becomes a client binding whose
//! transport and policy stack is assembled from the callee's modifier chain
//! — which is exactly how the generated client wrappers stack in the real
//! toolchain (Appendix A).

use std::collections::HashMap;

use blueprint_ir::deploy::{self, DepTarget, Placement};
use blueprint_ir::{IrGraph, NodeId};
use blueprint_plugins::api::{ProcessLowering, ServiceLowering};
use blueprint_plugins::{BuildCtx, PluginError, Registry};
use blueprint_simrt::{
    ClientSpec, DepBinding, EntrySpec, GcSpec, HostSpec, ProcessSpec, ServiceSpec, SystemSpec,
};
use blueprint_workflow::DepKind;

use crate::Result;

/// Lowers a validated IR graph to a [`SystemSpec`].
pub fn lower(registry: &Registry, ir: &IrGraph, ctx: &BuildCtx<'_>) -> Result<SystemSpec> {
    let mut spec = SystemSpec {
        name: ir.app_name.clone(),
        ..Default::default()
    };

    // ---- Hosts -----------------------------------------------------------
    let placement = Placement::new(ir);
    spec.hosts = placement
        .hosts
        .iter()
        .map(|h| HostSpec {
            name: h.name.clone(),
            cores: h.cores,
        })
        .collect();

    // ---- Processes -------------------------------------------------------
    let mut procs: Vec<NodeId> = ir.nodes_with_kind_prefix("namespace.process");
    procs.sort();
    let mut proc_ix: HashMap<NodeId, usize> = HashMap::new();
    for p in &procs {
        let n = ir.node(*p)?;
        let hosts_services = n.children().iter().any(|c| {
            ir.node(*c)
                .map(|cn| cn.kind.starts_with("workflow."))
                .unwrap_or(false)
        });
        let mut lowering = ProcessLowering {
            gc: hosts_services.then(GcSpec::default),
        };
        if let Some(plugin) = registry.for_kind(&n.kind) {
            plugin.apply_process(*p, ir, &mut lowering);
        }
        proc_ix.insert(*p, spec.processes.len());
        spec.processes.push(ProcessSpec {
            name: n.name.clone(),
            host: placement.host_of(*p),
            gc: lowering.gc,
        });
    }

    // ---- Backends (each in an implicit process) ---------------------------
    let mut backend_nodes: Vec<NodeId> = ir.nodes_with_kind_prefix("backend");
    backend_nodes.sort();
    let mut backend_ix: HashMap<NodeId, usize> = HashMap::new();
    for b in &backend_nodes {
        let n = ir.node(*b)?;
        if n.kind.starts_with("backend.tracer") {
            // Tracer servers receive spans out-of-band; the simulation
            // records traces centrally, so no runtime backend is needed.
            continue;
        }
        let Some(kind) = registry
            .for_kind(&n.kind)
            .and_then(|p| p.lower_backend(*b, ir))
        else {
            return Err(
                PluginError::Internal(format!("no plugin lowers backend kind {}", n.kind)).into(),
            );
        };
        let process = spec.processes.len();
        spec.processes.push(ProcessSpec {
            name: format!("proc_{}", n.name),
            host: placement.host_of(*b),
            gc: None,
        });
        backend_ix.insert(*b, spec.backends.len());
        spec.backends.push(blueprint_simrt::BackendSpec {
            name: n.name.clone(),
            process,
            kind,
        });
    }

    // ---- Services ---------------------------------------------------------
    let mut svc_nodes: Vec<NodeId> = ir.nodes_with_kind_prefix(deploy::SERVICE_KIND);
    svc_nodes.sort();
    let mut svc_ix: HashMap<NodeId, usize> = HashMap::new();
    for s in &svc_nodes {
        let n = ir.node(*s)?;
        let impl_name = n.props.str("impl").unwrap_or_default();
        let Some(imp) = ctx.workflow.service(impl_name) else {
            return Err(PluginError::Internal(format!(
                "service instance {} references unknown implementation {impl_name}",
                n.name
            ))
            .into());
        };
        let process = n
            .parent()
            .and_then(|p| proc_ix.get(&p).copied())
            .ok_or_else(|| PluginError::Internal(format!("service {} has no process", n.name)))?;
        let mut svc = ServiceSpec::new(&n.name, process);
        svc.methods = imp.behaviors.clone();
        let mut svc_lowering = ServiceLowering::default();
        for m in n.modifiers() {
            let mn = ir.node(*m)?;
            if let Some(plugin) = registry.for_kind(&mn.kind) {
                plugin.apply_service(*m, ir, &mut svc_lowering);
            }
        }
        svc.trace_overhead_ns = svc_lowering.trace_overhead_ns;
        if let Some(mc) = svc_lowering.max_concurrent {
            svc.max_concurrent = mc;
        }
        svc.shed = svc_lowering.shed;
        svc_ix.insert(*s, spec.services.len());
        spec.services.push(svc);
    }

    // ---- Dependency bindings (needs the full service index) ---------------
    for s in &svc_nodes {
        let n = ir.node(*s)?;
        let impl_name = n.props.str("impl").unwrap_or_default().to_string();
        let imp = ctx.workflow.service(&impl_name).expect("validated above");
        let my_ix = svc_ix[s];
        for dep in &imp.deps {
            // Unbound in wiring: the workflow plugin already errored.
            let Some(target) = deploy::dep_target(ir, *s, &dep.name)? else {
                continue;
            };
            let binding = make_binding(
                registry,
                ir,
                *s,
                target,
                dep.kind.clone(),
                &svc_ix,
                &backend_ix,
            )?;
            spec.services[my_ix].deps.insert(dep.name.clone(), binding);
        }
    }

    // ---- Entry points ------------------------------------------------------
    for s in deploy::entry_services(ir) {
        let client = assemble_client(registry, ir, None, s);
        spec.entries.insert(
            ir.node(s)?.name.clone(),
            EntrySpec {
                service: svc_ix[&s],
                client,
            },
        );
    }

    spec.validate()?;
    Ok(spec)
}

/// Builds the [`DepBinding`] for one dependency.
fn make_binding(
    registry: &Registry,
    ir: &IrGraph,
    caller: NodeId,
    target: DepTarget,
    dep_kind: DepKind,
    svc_ix: &HashMap<NodeId, usize>,
    backend_ix: &HashMap<NodeId, usize>,
) -> Result<DepBinding> {
    let (DepTarget::Direct(node) | DepTarget::Balanced { lb: node, .. }) = target;
    let t = ir.node(node)?;
    match (&dep_kind, target) {
        (DepKind::Service(_), DepTarget::Balanced { replicas, .. }) => {
            let targets: Vec<usize> = replicas
                .iter()
                .filter_map(|r| svc_ix.get(r).copied())
                .collect();
            if targets.is_empty() {
                return Err(PluginError::Internal(format!(
                    "load balancer {} fronts no services",
                    t.name
                ))
                .into());
            }
            let policy = t
                .props
                .str("policy")
                .and_then(parse_policy)
                .unwrap_or_default();
            // Policies come from the replicas' shared modifier chain.
            let client = assemble_client(registry, ir, Some(caller), replicas[0]);
            Ok(DepBinding::ReplicatedService {
                targets,
                policy,
                client,
            })
        }
        (DepKind::Service(_), DepTarget::Direct(_)) if t.kind.starts_with("workflow.") => {
            let Some(&ix) = svc_ix.get(&node) else {
                return Err(PluginError::Internal(format!("unlowered service {}", t.name)).into());
            };
            Ok(DepBinding::Service {
                target: ix,
                client: assemble_client(registry, ir, Some(caller), node),
            })
        }
        (DepKind::Backend(_), DepTarget::Direct(_)) if t.kind.starts_with("backend.") => {
            let Some(&ix) = backend_ix.get(&node) else {
                return Err(PluginError::Internal(format!("unlowered backend {}", t.name)).into());
            };
            Ok(DepBinding::Backend {
                target: ix,
                client: assemble_client(registry, ir, Some(caller), node),
            })
        }
        (dk, _) => Err(PluginError::Internal(format!(
            "dependency kind mismatch: workflow declares {dk:?} but `{}` is {}",
            t.name, t.kind
        ))
        .into()),
    }
}

fn parse_policy(p: &str) -> Option<blueprint_simrt::LbPolicy> {
    match p {
        "round_robin" => Some(blueprint_simrt::LbPolicy::RoundRobin),
        "random" => Some(blueprint_simrt::LbPolicy::Random),
        "least_outstanding" => Some(blueprint_simrt::LbPolicy::LeastOutstanding),
        _ => None,
    }
}

/// Assembles the client policy stack for calls to `callee`:
///
/// * transport from the callee's RPC/HTTP server modifier — unless caller and
///   callee share a process, in which case the call compiles to a plain
///   function call (the monolith semantics of §6.1);
/// * timeout/retry/breaker/pool/tracing contributions from every modifier on
///   the callee, applied in chain order.
///
/// `caller = None` means the external workload generator (never co-located).
fn assemble_client(
    registry: &Registry,
    ir: &IrGraph,
    caller: Option<NodeId>,
    callee: NodeId,
) -> ClientSpec {
    let mut client = ClientSpec::local();
    let same_process = caller
        .map(|c| {
            ir.node(c).is_ok()
                && ir.node(callee).is_ok()
                && ir.boundary_between(c, callee).is_none()
        })
        .unwrap_or(false);
    let Ok(n) = ir.node(callee) else {
        return client;
    };
    if !same_process {
        for m in n.modifiers() {
            if let Ok(mn) = ir.node(*m) {
                if let Some(p) = registry.for_kind(&mn.kind) {
                    if let Some(tr) = p.transport(*m, ir) {
                        client.transport = tr;
                        break;
                    }
                }
            }
        }
    }
    for m in n.modifiers() {
        if let Ok(mn) = ir.node(*m) {
            if let Some(p) = registry.for_kind(&mn.kind) {
                p.apply_client(*m, ir, &mut client);
            }
        }
    }
    // The callee's own plugin may contribute client-side cost too (backend
    // driver marshalling: redis/mongo protocol encoding and syscalls).
    if let Some(p) = registry.for_kind(&n.kind) {
        p.apply_client(callee, ir, &mut client);
    }
    client
}

// A modifier-free node still yields a usable (local, policy-free) client.
#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::types::{MethodSig, TypeRef};
    use blueprint_plugins::Registry;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::{Behavior, KeyExpr, ServiceBuilder, ServiceInterface, WorkflowSpec};

    fn workflow() -> WorkflowSpec {
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
            .method(
                "Login",
                Behavior::build().db_read("db", KeyExpr::Entity).done(),
            )
            .done()
            .unwrap(),
        )
        .unwrap();
        wf.add_service(
            ServiceBuilder::new(
                "FrontendImpl",
                ServiceInterface::new(
                    "Frontend",
                    vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
                ),
            )
            .dep_service("users", "UserService")
            .method("Handle", Behavior::build().call("users", "Login").done())
            .done()
            .unwrap(),
        )
        .unwrap();
        wf
    }

    fn wiring(replicate_users: bool) -> WiringSpec {
        let mut w = WiringSpec::new("app");
        w.define("deployer", "Docker", vec![]).unwrap();
        w.define("rpc", "GRPCServer", vec![]).unwrap();
        w.define_kw("to", "Timeout", vec![], vec![("ms", Arg::Int(500))])
            .unwrap();
        w.define_kw("retry", "Retry", vec![], vec![("max", Arg::Int(10))])
            .unwrap();
        w.define("user_db", "MongoDB", vec![]).unwrap();
        let mut mods = vec!["rpc", "deployer", "to", "retry"];
        if replicate_users {
            w.define_kw("repl", "Replicate", vec![], vec![("count", Arg::Int(3))])
                .unwrap();
            mods.push("repl");
        }
        w.service("us", "UserServiceImpl", &["user_db"], &mods)
            .unwrap();
        w.service("fe", "FrontendImpl", &["us"], &["rpc", "deployer"])
            .unwrap();
        w
    }

    fn lower_app(replicate: bool) -> SystemSpec {
        let wf = workflow();
        let w = wiring(replicate);
        let registry = Registry::core();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &w,
        };
        let mut ir = crate::build::build_ir(&registry, &ctx).unwrap();
        crate::passes::run_transforms(&registry, &mut ir, &ctx).unwrap();
        crate::passes::assign_namespaces(&mut ir).unwrap();
        crate::passes::widen_visibility(&registry, &mut ir).unwrap();
        crate::passes::validate(&ir).unwrap();
        lower(&registry, &ir, &ctx).unwrap()
    }

    /// Cross-layer `Send` check: a lowered app's simulation can be moved to
    /// another thread whole and driven there. Guards the Rc→arena refactor —
    /// any reintroduction of shared non-`Send` state in the boot path fails
    /// this test at compile time (`thread::spawn` requires `Send`).
    #[test]
    fn lowered_simulation_runs_on_another_thread() {
        let spec = lower_app(false);
        let mut sim =
            blueprint_simrt::Sim::new(&spec, blueprint_simrt::SimConfig::default()).unwrap();
        let done = std::thread::spawn(move || {
            sim.submit("fe", "Handle", 1).unwrap();
            sim.run_until(blueprint_simrt::secs(10));
            sim.drain_completions()
        })
        .join()
        .unwrap();
        assert_eq!(done.len(), 1, "request completed on the worker thread");
        assert!(done[0].ok);
    }

    #[test]
    fn lowers_services_backends_and_policies() {
        let spec = lower_app(false);
        assert_eq!(spec.hosts.len(), 8, "deployer default machines");
        assert_eq!(spec.services.len(), 2);
        assert_eq!(spec.backends.len(), 1);
        let fe = spec.services.iter().find(|s| s.name == "fe").unwrap();
        let DepBinding::Service { target, client } = &fe.deps["users"] else {
            panic!("expected plain service binding");
        };
        assert_eq!(spec.services[*target].name, "us");
        // Cross-process → gRPC transport; timeout+retry from us's chain.
        assert!(matches!(
            client.transport,
            blueprint_simrt::TransportSpec::Grpc { .. }
        ));
        assert_eq!(client.timeout_ns, Some(500_000_000));
        assert_eq!(client.retries, 10);
        // us's db binding is local-transport (latency folded into backend).
        let us = spec.services.iter().find(|s| s.name == "us").unwrap();
        let DepBinding::Backend { client, .. } = &us.deps["db"] else {
            panic!("expected backend binding");
        };
        assert!(matches!(
            client.transport,
            blueprint_simrt::TransportSpec::Local
        ));
        // fe is the only entry.
        assert_eq!(spec.entries.len(), 1);
        assert!(spec.entries.contains_key("fe"));
        // GC defaults on service processes, none on backend processes.
        let fe_proc = &spec.processes[us.process];
        assert!(fe_proc.gc.is_some());
        let db = spec.backends.first().unwrap();
        assert!(spec.processes[db.process].gc.is_none());
    }

    #[test]
    fn replicated_dependency_lowers_to_lb_binding() {
        let spec = lower_app(true);
        // Two extra replicas.
        assert_eq!(spec.services.len(), 4);
        let fe = spec.services.iter().find(|s| s.name == "fe").unwrap();
        let DepBinding::ReplicatedService {
            targets,
            policy,
            client,
        } = &fe.deps["users"]
        else {
            panic!("expected replicated binding, got {:?}", fe.deps["users"]);
        };
        assert_eq!(targets.len(), 3);
        assert_eq!(*policy, blueprint_simrt::LbPolicy::RoundRobin);
        assert_eq!(client.retries, 10, "policies come from replica chain");
        // Each replica has its own db binding.
        for &t in targets {
            assert!(spec.services[t].deps.contains_key("db"));
        }
    }

    #[test]
    fn monolith_grouping_forces_local_calls() {
        let wf = workflow();
        let mut w = WiringSpec::new("app");
        w.define("user_db", "MongoDB", vec![]).unwrap();
        w.service("us", "UserServiceImpl", &["user_db"], &[])
            .unwrap();
        w.service("fe", "FrontendImpl", &["us"], &[]).unwrap();
        w.process("mono", &["us", "fe"]).unwrap();
        let registry = Registry::core();
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &w,
        };
        let mut ir = crate::build::build_ir(&registry, &ctx).unwrap();
        crate::passes::run_transforms(&registry, &mut ir, &ctx).unwrap();
        crate::passes::assign_namespaces(&mut ir).unwrap();
        crate::passes::widen_visibility(&registry, &mut ir).unwrap();
        crate::passes::validate(&ir).unwrap();
        let spec = lower(&registry, &ir, &ctx).unwrap();
        assert_eq!(spec.hosts.len(), 1, "monolith runs on one machine");
        let fe = spec.services.iter().find(|s| s.name == "fe").unwrap();
        let DepBinding::Service { client, .. } = &fe.deps["users"] else {
            panic!("expected service binding");
        };
        assert!(matches!(
            client.transport,
            blueprint_simrt::TransportSpec::Local
        ));
    }
}
