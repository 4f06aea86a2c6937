//! Deployment rules: how a compiled IR maps onto hosts, entry points and
//! call targets.
//!
//! Everything that reads the IR as a running system applies these rules —
//! the simulation lowering, the lint capacity model and passes, and
//! [`crate::stats`] — so each rule has exactly one definition. Consumers keep
//! only their own error policy: the lowering rejects what the lint skips.

use std::collections::HashMap;

use crate::edge::EdgeKind;
use crate::graph::IrGraph;
use crate::node::{kind_matches, NodeId};
use crate::{IrError, Result};

/// Kind of machine namespaces; their `cores` prop sizes the host.
pub const MACHINE_KIND: &str = "namespace.machine";
/// Kind of the load balancers that front replica sets.
pub const LOAD_BALANCER_KIND: &str = "component.loadbalancer";
/// Kind prefix of workflow service instances.
pub const SERVICE_KIND: &str = "workflow";
/// Cores of a machine without a `cores` prop, and of the fallback host.
const DEFAULT_CORES: f64 = 8.0;

/// One host a deployment runs on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// The machine namespace, `None` for the fallback host.
    pub node: Option<NodeId>,
    /// The machine namespace's name (`machine_0` for the fallback host).
    pub name: String,
    /// Core count (the `cores` prop, default 8).
    pub cores: f64,
}

/// The hosts of a deployment and the rule placing nodes onto them.
pub struct Placement<'g> {
    g: &'g IrGraph,
    /// Machine namespaces, node-id ascending; one 8-core `machine_0` when
    /// the IR has none.
    pub hosts: Vec<Host>,
    host_ix: HashMap<NodeId, usize>,
}

impl<'g> Placement<'g> {
    /// Collects the hosts of `g`.
    pub fn new(g: &'g IrGraph) -> Self {
        let mut hosts = Vec::new();
        let mut host_ix = HashMap::new();
        for m in g.nodes_with_kind_prefix(MACHINE_KIND) {
            let Ok(n) = g.node(m) else { continue };
            host_ix.insert(m, hosts.len());
            hosts.push(Host {
                node: Some(m),
                name: n.name.clone(),
                cores: n.props.float_or("cores", DEFAULT_CORES),
            });
        }
        if hosts.is_empty() {
            hosts.push(Host {
                node: None,
                name: "machine_0".into(),
                cores: DEFAULT_CORES,
            });
        }
        Placement { g, hosts, host_ix }
    }

    /// The host `node` runs on: its nearest machine ancestor, host 0 when it
    /// has none.
    pub fn host_of(&self, node: NodeId) -> usize {
        self.g
            .ancestors(node)
            .into_iter()
            .find_map(|a| self.host_ix.get(&a).copied())
            .unwrap_or(0)
    }
}

/// Workflow services that no live invocation edge targets, id-ascending:
/// the application's entry points, which the workload drives.
pub fn entry_services(g: &IrGraph) -> Vec<NodeId> {
    g.nodes_with_kind_prefix(SERVICE_KIND)
        .into_iter()
        .filter(|&s| {
            !g.in_edges(s)
                .iter()
                .any(|&e| g.edge(e).is_ok_and(|e| e.kind == EdgeKind::Invocation))
        })
        .collect()
}

/// Where a service's calls through one dependency land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepTarget {
    /// The bound instance itself: a service or a backend.
    Direct(NodeId),
    /// A load balancer and the replicas behind it, id-ascending.
    Balanced {
        /// The balancer.
        lb: NodeId,
        /// Its invocation callees.
        replicas: Vec<NodeId>,
    },
}

/// Resolves dependency `dep` of service `caller`: the instance its
/// `dep.<dep>` prop names or, when the caller reaches that instance only
/// through a load balancer (a replication transform re-routed the edge),
/// the balancer. `Ok(None)` when the dependency is unbound; an error when
/// the bound instance is not in the graph.
pub fn dep_target(g: &IrGraph, caller: NodeId, dep: &str) -> Result<Option<DepTarget>> {
    let n = g.node(caller)?;
    let Some(name) = n.props.str(&format!("dep.{dep}")) else {
        return Ok(None);
    };
    let declared = g.by_name(name).ok_or_else(|| {
        IrError::Invalid(format!(
            "dep {dep} of {} points at vanished instance {name}",
            n.name
        ))
    })?;
    let is_lb = |t: NodeId| {
        g.node(t)
            .is_ok_and(|t| kind_matches(&t.kind, LOAD_BALANCER_KIND))
    };
    let mut via_lb = None;
    for e in g.out_edges(caller) {
        let Ok(e) = g.edge(e) else { continue };
        if e.kind != EdgeKind::Invocation {
            continue;
        }
        if e.to == declared {
            via_lb = None;
            break;
        }
        if via_lb.is_none() && is_lb(e.to) && g.callees(e.to).contains(&declared) {
            via_lb = Some(e.to);
        }
    }
    let actual = via_lb.unwrap_or(declared);
    Ok(Some(if is_lb(actual) {
        let mut replicas = g.callees(actual);
        replicas.sort_unstable();
        DepTarget::Balanced {
            lb: actual,
            replicas,
        }
    } else {
        DepTarget::Direct(actual)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Edge;
    use crate::node::Granularity;

    fn svc(g: &mut IrGraph, name: &str) -> NodeId {
        g.add_component(name, "workflow.service", Granularity::Instance)
            .unwrap()
    }

    #[test]
    fn entry_services_ignore_non_invocation_in_edges() {
        let mut g = IrGraph::new("t");
        let a = svc(&mut g, "a");
        let b = svc(&mut g, "b");
        let c = svc(&mut g, "c");
        g.add_invocation(a, b, vec![]).unwrap();
        g.add_edge(Edge::dependency(a, c)).unwrap();
        assert_eq!(entry_services(&g), vec![a, c]);
    }

    #[test]
    fn dep_target_reroutes_through_a_balancer_unless_called_directly() {
        let mut g = IrGraph::new("t");
        let fe = svc(&mut g, "fe");
        let r2 = svc(&mut g, "us_r2");
        let us = svc(&mut g, "us");
        let r1 = svc(&mut g, "us_r1");
        let lb = g
            .add_component("us_lb", LOAD_BALANCER_KIND, Granularity::Instance)
            .unwrap();
        // Edges in descending id order, so the balancer's callees are too.
        for r in [r1, us, r2] {
            g.add_invocation(lb, r, vec![]).unwrap();
        }
        g.add_invocation(fe, lb, vec![]).unwrap();
        g.node_mut(fe)
            .unwrap()
            .props
            .set("dep.users", "us")
            .set("dep.gone", "nowhere");
        assert_eq!(
            dep_target(&g, fe, "users").unwrap(),
            Some(DepTarget::Balanced {
                lb,
                replicas: vec![r2, us, r1]
            })
        );
        assert_eq!(dep_target(&g, fe, "unbound").unwrap(), None);
        assert!(dep_target(&g, fe, "gone").is_err());
        // A caller that also invokes the instance directly reaches it
        // directly, whichever edge came first.
        g.add_invocation(fe, us, vec![]).unwrap();
        assert_eq!(
            dep_target(&g, fe, "users").unwrap(),
            Some(DepTarget::Direct(us))
        );
    }

    #[test]
    fn no_machine_places_everything_on_one_eight_core_host() {
        let mut g = IrGraph::new("t");
        let a = svc(&mut g, "a");
        let p = Placement::new(&g);
        assert_eq!(
            p.hosts,
            vec![Host {
                node: None,
                name: "machine_0".into(),
                cores: 8.0
            }]
        );
        assert_eq!(p.host_of(a), 0);
    }

    #[test]
    fn nodes_run_on_their_nearest_machine() {
        let mut g = IrGraph::new("t");
        let m0 = g
            .add_namespace("m0", MACHINE_KIND, Granularity::Machine)
            .unwrap();
        let m1 = g
            .add_namespace("m1", MACHINE_KIND, Granularity::Machine)
            .unwrap();
        g.node_mut(m1).unwrap().props.set("cores", 2.0);
        let proc = g
            .add_namespace("p", "namespace.process", Granularity::Process)
            .unwrap();
        let a = svc(&mut g, "a");
        let b = svc(&mut g, "b");
        g.set_parent(a, proc).unwrap();
        g.set_parent(proc, m1).unwrap();
        let p = Placement::new(&g);
        assert_eq!(
            p.hosts.iter().map(|h| h.cores).collect::<Vec<_>>(),
            vec![8.0, 2.0]
        );
        assert_eq!(p.host_of(a), 1);
        assert_eq!(p.host_of(b), 0);
        assert_eq!(p.host_of(m0), 0);
    }
}
