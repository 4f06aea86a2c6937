//! Compiler passes: plugin transforms, namespace auto-assignment, machine
//! placement, visibility widening, the final validity check, and the static
//! analysis (lint) stage.

use blueprint_ir::{kind_matches, Granularity, IrError, IrGraph, NodeRole, Visibility};
use blueprint_lint::{Diagnostic, LintConfig, Linter};
use blueprint_plugins::{BuildCtx, Registry};
use blueprint_wiring::WiringSpec;

use crate::{CompileError, Result};

/// Kind prefix of deployer modifiers (matches `blueprint_plugins::deployers`).
const DEPLOYER_PREFIX: &str = "mod.deployer";

/// Kind prefixes of the modifiers the lowering folds into a caller's client
/// spec. Each one overwrites what an earlier one of its kind set, so an
/// instance carries at most one of each kind.
const CLIENT_MODIFIER_KINDS: [&str; 7] = [
    "mod.retry",
    "mod.timeout",
    "mod.deadline",
    "mod.breaker",
    "mod.retrybudget",
    "mod.clientpool",
    "mod.tracer",
];

/// Runs every plugin's transform pass in registry order (§4.3.1: "Blueprint
/// performs a pass on the IR graph to allow modifier nodes to add, delete, or
/// change nodes").
pub fn run_transforms(registry: &Registry, ir: &mut IrGraph, ctx: &BuildCtx<'_>) -> Result<()> {
    for plugin in registry.iter() {
        plugin.transform(ir, ctx)?;
    }
    Ok(())
}

/// Assigns namespaces to unplaced nodes:
///
/// * every service instance / load balancer without a process gets its own
///   (`proc_<name>`);
/// * with a deployer present, every process and backend without a container
///   gets its own (`cont_<name>`), and containers are placed round-robin on
///   `machines` machine namespaces — the paper's eight-machine cluster, one
///   container per service (§6 "Experimental setup");
/// * without a deployer (monolith / all-in-one builds), processes and
///   backends are placed directly on a single machine.
pub fn assign_namespaces(ir: &mut IrGraph) -> Result<()> {
    // Processes for instance-granularity components.
    let orphans: Vec<_> = ir
        .nodes()
        .filter(|(_, n)| {
            n.role == NodeRole::Component
                && n.granularity == Granularity::Instance
                && n.parent().is_none()
                && (n.kind.starts_with("workflow.") || n.kind == "component.loadbalancer")
        })
        .map(|(id, _)| id)
        .collect();
    for c in orphans {
        let name = ir.node(c)?.name.clone();
        let p = ir.add_namespace(
            ir.fresh_name(&format!("proc_{name}")),
            "namespace.process",
            Granularity::Process,
        )?;
        ir.set_parent(c, p)?;
    }

    let has_deployer = ir.nodes().any(|(_, n)| n.kind.starts_with(DEPLOYER_PREFIX));
    let (machines, cores) = cluster_shape(ir);

    // Containers.
    if has_deployer {
        let uncontained: Vec<_> = ir
            .nodes()
            .filter(|(_, n)| {
                n.parent().is_none()
                    && ((n.role == NodeRole::Namespace && n.kind == "namespace.process")
                        || (n.role == NodeRole::Component && n.granularity == Granularity::Process))
            })
            .map(|(id, _)| id)
            .collect();
        for p in uncontained {
            let name = ir.node(p)?.name.clone();
            let base = name.strip_prefix("proc_").unwrap_or(&name);
            let c = ir.add_namespace(
                ir.fresh_name(&format!("cont_{base}")),
                "namespace.container",
                Granularity::Container,
            )?;
            ir.set_parent(p, c)?;
        }
    }

    // Machines.
    let machine_count = if has_deployer { machines } else { 1 };
    let mut machine_ids = Vec::new();
    for m in 0..machine_count {
        let id = ir.add_namespace(
            ir.fresh_name(&format!("machine_{m}")),
            "namespace.machine",
            Granularity::Machine,
        )?;
        ir.node_mut(id)?.props.set("cores", cores);
        machine_ids.push(id);
    }
    let unplaced: Vec<_> = ir
        .nodes()
        .filter(|(_, n)| {
            n.parent().is_none()
                && n.granularity < Granularity::Machine
                && !n.kind.starts_with("namespace.machine")
                && (matches!(n.role, NodeRole::Namespace | NodeRole::Generator)
                    && (n.kind == "namespace.container" || n.kind == "namespace.process")
                    || (n.role == NodeRole::Component && n.granularity == Granularity::Process))
        })
        .map(|(id, _)| id)
        .collect();
    for (i, node) in unplaced.into_iter().enumerate() {
        ir.set_parent(node, machine_ids[i % machine_ids.len()])?;
    }
    Ok(())
}

/// Reads the cluster shape from deployer nodes (default 8 machines × 8
/// cores, the simulation-scaled testbed of the paper's §6 setup).
fn cluster_shape(ir: &IrGraph) -> (usize, f64) {
    for (_, n) in ir.nodes() {
        if n.kind.starts_with(DEPLOYER_PREFIX) {
            return (
                (n.props.float_or("machines", 8.0) as usize).max(1),
                n.props.float_or("cores", 8.0).max(0.5),
            );
        }
    }
    (8, 8.0)
}

/// Widens inbound edge visibility per component: the maximum granted by the
/// component's own plugin (network-listening backends) and its modifiers
/// (RPC/HTTP servers, load balancers).
pub fn widen_visibility(registry: &Registry, ir: &mut IrGraph) -> Result<()> {
    let components: Vec<_> = ir
        .nodes()
        .filter(|(_, n)| n.role == NodeRole::Component)
        .map(|(id, _)| id)
        .collect();
    for c in components {
        let mut widened: Option<Visibility> = None;
        let own_kind = ir.node(c)?.kind.clone();
        if let Some(p) = registry.for_kind(&own_kind) {
            if let Some(w) = p.widen(c, ir) {
                widened = Some(widened.map(|x| x.widen(w)).unwrap_or(w));
            }
        }
        for m in ir.node(c)?.modifiers().to_vec() {
            let kind = ir.node(m)?.kind.clone();
            if let Some(p) = registry.for_kind(&kind) {
                if let Some(w) = p.widen(m, ir) {
                    widened = Some(widened.map(|x| x.widen(w)).unwrap_or(w));
                }
            }
        }
        if let Some(w) = widened {
            for e in ir.in_edges(c) {
                let edge = ir.edge_mut(e)?;
                edge.visibility = edge.visibility.widen(w);
            }
        }
    }
    Ok(())
}

/// Structural + visibility validation; visibility failures carry the paper's
/// "edge lacks the necessary visibility" diagnostics. An instance whose
/// modifier chain stacks two client modifiers of one kind is rejected too,
/// naming the instance and both modifiers, since the lowering would keep
/// only the last of them.
pub fn validate(ir: &IrGraph) -> Result<()> {
    blueprint_ir::validate::validate_structure(ir)?;
    for (_, n) in ir.nodes() {
        // Per kind, the first modifier of that kind on the chain.
        let mut seen: [Option<&str>; CLIENT_MODIFIER_KINDS.len()] = Default::default();
        for m in n.modifiers().iter().filter_map(|&m| ir.node(m).ok()) {
            let Some(k) = CLIENT_MODIFIER_KINDS
                .iter()
                .position(|kind| kind_matches(&m.kind, kind))
            else {
                continue;
            };
            if let Some(first) = seen[k] {
                return Err(CompileError::Ir(IrError::BadModifier {
                    modifier: m.name.clone(),
                    detail: format!(
                        "instance `{}` already has `{}` modifier `{first}`",
                        n.name, CLIENT_MODIFIER_KINDS[k]
                    ),
                }));
            }
            seen[k] = Some(&m.name);
        }
    }
    blueprint_ir::validate::check_visibility(ir).map_err(|report| {
        CompileError::Visibility(report.violations.iter().map(|e| e.to_string()).collect())
    })
}

/// Runs the resilience-hazard lints over the post-pass IR (the tentpole of
/// the `blueprint-lint` crate). Diagnostics never fail compilation — hazard
/// variants must still compile so the fault simulator can reproduce the
/// pathology a lint predicts; enforcement (e.g. deny-gating CI) is the
/// caller's policy decision. The workflow spec feeds the analytic capacity
/// model (BP013–BP015); those rules stay silent when it is absent.
pub fn lint(
    ir: &IrGraph,
    wiring: &WiringSpec,
    workflow: Option<&blueprint_workflow::WorkflowSpec>,
    config: &LintConfig,
) -> Vec<Diagnostic> {
    Linter::new(config.clone()).run_with_workflow(ir, wiring, workflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::{Node, NodeId};

    fn service(ir: &mut IrGraph, name: &str) -> NodeId {
        ir.add_component(name, "workflow.service", Granularity::Instance)
            .unwrap()
    }

    #[test]
    fn services_get_own_processes_and_single_machine_without_deployer() {
        let mut ir = IrGraph::new("t");
        let a = service(&mut ir, "a");
        let b = service(&mut ir, "b");
        assign_namespaces(&mut ir).unwrap();
        let pa = ir.node(a).unwrap().parent().unwrap();
        let pb = ir.node(b).unwrap().parent().unwrap();
        assert_ne!(pa, pb);
        assert_eq!(ir.node(pa).unwrap().kind, "namespace.process");
        // One machine, containing both processes directly.
        let machines = ir.nodes_with_kind_prefix("namespace.machine");
        assert_eq!(machines.len(), 1);
        assert_eq!(ir.node(pa).unwrap().parent(), Some(machines[0]));
        // No containers in monolith mode.
        assert!(ir.nodes_with_kind_prefix("namespace.container").is_empty());
    }

    #[test]
    fn deployer_containerizes_and_spreads_over_machines() {
        let mut ir = IrGraph::new("t");
        for i in 0..6 {
            let s = service(&mut ir, &format!("s{i}"));
            let d = ir
                .add_node(Node::new(
                    format!("s{i}_dep"),
                    "mod.deployer.docker",
                    NodeRole::Modifier,
                    Granularity::Instance,
                ))
                .unwrap();
            ir.node_mut(d)
                .unwrap()
                .props
                .set("machines", 3.0)
                .set("cores", 4.0);
            ir.attach_modifier(s, d).unwrap();
        }
        // A backend too.
        ir.add_component("db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        assign_namespaces(&mut ir).unwrap();
        let containers = ir.nodes_with_kind_prefix("namespace.container");
        assert_eq!(containers.len(), 7, "six services + one backend");
        let machines = ir.nodes_with_kind_prefix("namespace.machine");
        assert_eq!(machines.len(), 3);
        for m in &machines {
            assert_eq!(ir.node(*m).unwrap().props.float("cores"), Some(4.0));
            assert!(!ir.node(*m).unwrap().children().is_empty());
        }
    }

    #[test]
    fn pre_grouped_processes_are_respected() {
        let mut ir = IrGraph::new("t");
        let a = service(&mut ir, "a");
        let b = service(&mut ir, "b");
        let p = ir
            .add_namespace("mono", "namespace.process", Granularity::Process)
            .unwrap();
        ir.set_parent(a, p).unwrap();
        ir.set_parent(b, p).unwrap();
        assign_namespaces(&mut ir).unwrap();
        assert_eq!(ir.node(a).unwrap().parent(), Some(p));
        assert_eq!(ir.nodes_with_kind_prefix("namespace.process").len(), 1);
    }

    #[test]
    fn widen_applies_max_of_component_and_modifiers() {
        let registry = Registry::core();
        let mut ir = IrGraph::new("t");
        let a = service(&mut ir, "a");
        let b = service(&mut ir, "b");
        let db = ir
            .add_component("db", "backend.cache.memcached", Granularity::Process)
            .unwrap();
        let e_svc = ir.add_invocation(a, b, vec![]).unwrap();
        let e_db = ir.add_invocation(a, db, vec![]).unwrap();
        // b gets an rpc server modifier.
        let m = ir
            .add_node(Node::new(
                "b_rpc",
                "mod.rpc.grpc.server",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(b, m).unwrap();
        widen_visibility(&registry, &mut ir).unwrap();
        assert_eq!(ir.edge(e_svc).unwrap().visibility, Visibility::Global);
        assert_eq!(
            ir.edge(e_db).unwrap().visibility,
            Visibility::Global,
            "backend widens itself"
        );
    }

    #[test]
    fn validate_reports_unreachable_cross_process_edges() {
        let registry = Registry::core();
        let mut ir = IrGraph::new("t");
        let a = service(&mut ir, "a");
        let b = service(&mut ir, "b");
        ir.add_invocation(a, b, vec![]).unwrap();
        assign_namespaces(&mut ir).unwrap();
        widen_visibility(&registry, &mut ir).unwrap();
        let err = validate(&ir).unwrap_err();
        match err {
            CompileError::Visibility(v) => {
                assert_eq!(v.len(), 1);
                assert!(v[0].contains("lacks the necessary visibility"), "{}", v[0]);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn validate_passes_same_process_calls() {
        let registry = Registry::core();
        let mut ir = IrGraph::new("t");
        let a = service(&mut ir, "a");
        let b = service(&mut ir, "b");
        ir.add_invocation(a, b, vec![]).unwrap();
        let p = ir
            .add_namespace("mono", "namespace.process", Granularity::Process)
            .unwrap();
        ir.set_parent(a, p).unwrap();
        ir.set_parent(b, p).unwrap();
        assign_namespaces(&mut ir).unwrap();
        widen_visibility(&registry, &mut ir).unwrap();
        validate(&ir).unwrap();
    }

    #[test]
    fn validate_rejects_two_client_modifiers_of_one_kind() {
        let registry = Registry::core();
        let attach = |ir: &mut IrGraph, svc: NodeId, name: &str, kind: &str| {
            let m = ir
                .add_node(Node::new(
                    name,
                    kind,
                    NodeRole::Modifier,
                    Granularity::Instance,
                ))
                .unwrap();
            ir.attach_modifier(svc, m).unwrap();
        };
        for kind in CLIENT_MODIFIER_KINDS {
            // One modifier of every kind is valid.
            let mut ir = IrGraph::new("t");
            let a = service(&mut ir, "a");
            for k in CLIENT_MODIFIER_KINDS {
                attach(&mut ir, a, &format!("one_{k}"), k);
            }
            assign_namespaces(&mut ir).unwrap();
            widen_visibility(&registry, &mut ir).unwrap();
            validate(&ir).unwrap();
            // A second one of `kind` (here a sub-kind) is not.
            attach(&mut ir, a, "second", &format!("{kind}.sub"));
            assert_eq!(
                validate(&ir).unwrap_err().to_string(),
                format!(
                    "bad modifier second: instance `a` already has `{kind}` modifier `one_{kind}`"
                )
            );
        }
    }
}
