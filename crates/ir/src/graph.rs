//! The IR graph: node/edge storage, containment hierarchy, and queries.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::edge::{Edge, EdgeId, EdgeKind};
use crate::node::{Granularity, Node, NodeId, NodeRole};
use crate::types::MethodSig;
use crate::visibility::Visibility;
use crate::{IrError, Result};

/// The IR graph of one application variant.
///
/// Node and edge storage is append-only with tombstones so ids handed to
/// plugins stay valid across passes that add or remove nodes (e.g. the
/// replication pass duplicating components and inserting a load balancer).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IrGraph {
    /// Application name (from the wiring spec).
    pub app_name: String,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// Outgoing adjacency (parallel to `nodes`).
    out_adj: Vec<Vec<EdgeId>>,
    /// Incoming adjacency (parallel to `nodes`).
    in_adj: Vec<Vec<EdgeId>>,
    /// Name → node index for fast lookup; names are unique among live nodes.
    by_name: BTreeMap<String, NodeId>,
}

impl IrGraph {
    /// Creates an empty graph for the named application.
    pub fn new(app_name: impl Into<String>) -> Self {
        IrGraph {
            app_name: app_name.into(),
            ..Default::default()
        }
    }

    // ------------------------------------------------------------------
    // Node management.
    // ------------------------------------------------------------------

    /// Adds a node, enforcing name uniqueness among live nodes.
    pub fn add_node(&mut self, node: Node) -> Result<NodeId> {
        if self.by_name.contains_key(&node.name) {
            return Err(IrError::Invalid(format!(
                "duplicate node name: {}",
                node.name
            )));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(node.name.clone(), id);
        self.nodes.push(node);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        Ok(id)
    }

    /// Shorthand: add a component node.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        kind: impl Into<String>,
        granularity: Granularity,
    ) -> Result<NodeId> {
        self.add_node(Node::new(name, kind, NodeRole::Component, granularity))
    }

    /// Shorthand: add a namespace node.
    pub fn add_namespace(
        &mut self,
        name: impl Into<String>,
        kind: impl Into<String>,
        granularity: Granularity,
    ) -> Result<NodeId> {
        self.add_node(Node::new(name, kind, NodeRole::Namespace, granularity))
    }

    /// Looks a node up by id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        match self.nodes.get(id.index()) {
            Some(n) if !n.dead => Ok(n),
            _ => Err(IrError::UnknownNode(id.to_string())),
        }
    }

    /// Looks a node up mutably by id.
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node> {
        match self.nodes.get_mut(id.index()) {
            Some(n) if !n.dead => Ok(n),
            _ => Err(IrError::UnknownNode(id.to_string())),
        }
    }

    /// Looks a live node up by name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Deletes a node (tombstone), detaching it from parents, modifier chains,
    /// and killing its incident edges.
    pub fn remove_node(&mut self, id: NodeId) -> Result<()> {
        let (name, parent, attached) = {
            let n = self.node(id)?;
            (n.name.clone(), n.parent, n.attached_to)
        };
        if let Some(p) = parent {
            if let Ok(pn) = self.node_mut(p) {
                pn.children.retain(|c| *c != id);
            }
        }
        if let Some(t) = attached {
            if let Ok(tn) = self.node_mut(t) {
                tn.modifiers.retain(|m| *m != id);
            }
        }
        let incident: Vec<EdgeId> = self
            .live_edge_ids()
            .filter(|&e| self.edges[e.index()].from == id || self.edges[e.index()].to == id)
            .collect();
        for e in incident {
            self.remove_edge(e)?;
        }
        self.by_name.remove(&name);
        self.nodes[id.index()].dead = true;
        Ok(())
    }

    /// Iterates over live node ids.
    pub fn live_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Iterates over `(id, node)` pairs of live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Live nodes whose kind starts with `prefix` (kinds are dotted paths,
    /// e.g. `backend.cache.memcached` matches prefix `backend.cache`).
    pub fn nodes_with_kind_prefix(&self, prefix: &str) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| {
                n.kind == prefix
                    || n.kind.starts_with(prefix) && n.kind[prefix.len()..].starts_with('.')
            })
            .map(|(i, _)| i)
            .collect()
    }

    // ------------------------------------------------------------------
    // Containment hierarchy.
    // ------------------------------------------------------------------

    /// Places `child` inside namespace/generator `parent`.
    ///
    /// Enforces the typing rule of §4.2: "namespace nodes can only contain
    /// children of a compatible granularity" — the child must be strictly
    /// finer than the parent, and the parent must be a namespace or generator.
    pub fn set_parent(&mut self, child: NodeId, parent: NodeId) -> Result<()> {
        let (pname, prole, pgran) = {
            let p = self.node(parent)?;
            (p.name.clone(), p.role, p.granularity)
        };
        let (cname, cgran, old_parent) = {
            let c = self.node(child)?;
            (c.name.clone(), c.granularity, c.parent)
        };
        if !matches!(prole, NodeRole::Namespace | NodeRole::Generator) {
            return Err(IrError::GranularityMismatch {
                parent: pname,
                child: cname,
                detail: "parent is not a namespace or generator".into(),
            });
        }
        if cgran >= pgran {
            return Err(IrError::GranularityMismatch {
                parent: pname,
                child: cname,
                detail: format!(
                    "child granularity {:?} must be finer than parent {:?}",
                    cgran, pgran
                ),
            });
        }
        // Reject cycles: parent must not be a descendant of child.
        let mut cursor = Some(parent);
        while let Some(cur) = cursor {
            if cur == child {
                return Err(IrError::ContainmentCycle(cname));
            }
            cursor = self.node(cur)?.parent;
        }
        if let Some(op) = old_parent {
            self.node_mut(op)?.children.retain(|c| *c != child);
        }
        self.node_mut(parent)?.children.push(child);
        self.node_mut(child)?.parent = Some(parent);
        Ok(())
    }

    /// The chain of ancestors of `id`, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cursor = self.node(id).ok().and_then(|n| n.parent);
        while let Some(cur) = cursor {
            out.push(cur);
            cursor = self.node(cur).ok().and_then(|n| n.parent);
        }
        out
    }

    /// The live ancestors of `id`, nearest first. Like [`Self::ancestors`]
    /// the walk stops at the first dead ancestor, which it leaves out.
    fn live_ancestors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        let mut cursor = self.node(id).ok().and_then(|n| n.parent);
        std::iter::from_fn(move || {
            let cur = cursor?;
            let n = self.node(cur).ok()?;
            cursor = n.parent;
            Some((cur, n))
        })
    }

    /// The enclosing namespace of exactly granularity `g`, if any.
    pub fn enclosing(&self, id: NodeId, g: Granularity) -> Option<NodeId> {
        self.live_ancestors(id)
            .find(|(_, n)| n.granularity == g)
            .map(|(a, _)| a)
    }

    /// The nearest live ancestor of each granularity, indexed by
    /// `Granularity as usize`: one walk instead of one per granularity.
    fn enclosing_all(&self, id: NodeId) -> [Option<NodeId>; Granularity::ALL.len()] {
        let mut out = [None; Granularity::ALL.len()];
        for (a, n) in self.live_ancestors(id) {
            out[n.granularity as usize].get_or_insert(a);
        }
        out
    }

    /// The nearest enclosing generator node, if any.
    pub fn enclosing_generator(&self, id: NodeId) -> Option<NodeId> {
        self.live_ancestors(id)
            .find(|(_, n)| n.role == NodeRole::Generator)
            .map(|(a, _)| a)
    }

    /// The coarsest namespace boundary separating `a` and `b`.
    ///
    /// Returns `None` when no boundary separates them (same process, or
    /// identical nodes); otherwise the granularity of the boundary crossed.
    pub fn boundary_between(&self, a: NodeId, b: NodeId) -> Option<Granularity> {
        if a == b {
            return None;
        }
        let (ea, eb) = (self.enclosing_all(a), self.enclosing_all(b));
        [
            Granularity::Region,
            Granularity::Machine,
            Granularity::Container,
            Granularity::Process,
        ]
        .into_iter()
        .find(|&g| ea[g as usize] != eb[g as usize])
    }

    /// The visibility an edge from `a` to `b` must have to be addressable.
    pub fn required_visibility(&self, a: NodeId, b: NodeId) -> Visibility {
        match self.boundary_between(a, b) {
            None => Visibility::Local,
            Some(g) => Visibility::required_for_boundary(g),
        }
    }

    // ------------------------------------------------------------------
    // Modifier chains.
    // ------------------------------------------------------------------

    /// Attaches `modifier` to `component`, appending to its chain (the first
    /// attached modifier is innermost, matching the hierarchical generation
    /// order of Appendix A).
    pub fn attach_modifier(&mut self, component: NodeId, modifier: NodeId) -> Result<()> {
        let mrole = self.node(modifier)?.role;
        let mname = self.node(modifier)?.name.clone();
        if mrole != NodeRole::Modifier {
            return Err(IrError::BadModifier {
                modifier: mname,
                detail: "node is not a modifier".into(),
            });
        }
        if let Some(prev) = self.node(modifier)?.attached_to {
            return Err(IrError::BadModifier {
                modifier: mname,
                detail: format!(
                    "already attached to {}",
                    self.node(prev).map(|n| n.name.clone()).unwrap_or_default()
                ),
            });
        }
        let crole = self.node(component)?.role;
        if matches!(crole, NodeRole::Modifier) {
            return Err(IrError::BadModifier {
                modifier: mname,
                detail: "cannot attach a modifier to another modifier".into(),
            });
        }
        self.node_mut(component)?.modifiers.push(modifier);
        self.node_mut(modifier)?.attached_to = Some(component);
        Ok(())
    }

    /// Whether `component` carries a modifier of the given kind (dotted-path
    /// prefix match, like [`IrGraph::nodes_with_kind_prefix`]).
    pub fn has_modifier(&self, component: NodeId, kind_prefix: &str) -> bool {
        self.node(component)
            .map(|n| {
                n.modifiers.iter().any(|m| {
                    self.node(*m)
                        .map(|mn| {
                            mn.kind == kind_prefix
                                || (mn.kind.starts_with(kind_prefix)
                                    && mn.kind[kind_prefix.len()..].starts_with('.'))
                        })
                        .unwrap_or(false)
                })
            })
            .unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Edge management.
    // ------------------------------------------------------------------

    /// Adds an edge.
    pub fn add_edge(&mut self, edge: Edge) -> Result<EdgeId> {
        self.node(edge.from)?;
        self.node(edge.to)?;
        let id = EdgeId(self.edges.len() as u32);
        self.out_adj[edge.from.index()].push(id);
        self.in_adj[edge.to.index()].push(id);
        self.edges.push(edge);
        Ok(id)
    }

    /// Shorthand: add an invocation edge.
    pub fn add_invocation(
        &mut self,
        from: NodeId,
        to: NodeId,
        methods: Vec<MethodSig>,
    ) -> Result<EdgeId> {
        self.add_edge(Edge::invocation(from, to, methods))
    }

    /// Looks an edge up by id.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge> {
        match self.edges.get(id.index()) {
            Some(e) if !e.dead => Ok(e),
            _ => Err(IrError::UnknownEdge(id.to_string())),
        }
    }

    /// Looks an edge up mutably by id.
    pub fn edge_mut(&mut self, id: EdgeId) -> Result<&mut Edge> {
        match self.edges.get_mut(id.index()) {
            Some(e) if !e.dead => Ok(e),
            _ => Err(IrError::UnknownEdge(id.to_string())),
        }
    }

    /// Deletes an edge (tombstone).
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<()> {
        let (from, to) = {
            let e = self.edge(id)?;
            (e.from, e.to)
        };
        self.out_adj[from.index()].retain(|e| *e != id);
        self.in_adj[to.index()].retain(|e| *e != id);
        self.edges[id.index()].dead = true;
        Ok(())
    }

    /// Clones an edge with a new source node (used by passes that duplicate
    /// components, e.g. replication).
    pub fn clone_edge_from(&mut self, id: EdgeId, new_from: NodeId) -> Result<EdgeId> {
        let e = self.edge(id)?.clone();
        self.add_edge(Edge {
            from: new_from,
            to: e.to,
            kind: e.kind,
            methods: e.methods,
            visibility: e.visibility,
            props: e.props,
            dead: false,
        })
    }

    /// Re-points an edge at a new callee (used by the replication pass to
    /// route external callers through the inserted load balancer).
    pub fn retarget_edge(&mut self, id: EdgeId, new_to: NodeId) -> Result<()> {
        self.node(new_to)?;
        let old_to = self.edge(id)?.to;
        self.in_adj[old_to.index()].retain(|e| *e != id);
        self.in_adj[new_to.index()].push(id);
        self.edges[id.index()].to = new_to;
        Ok(())
    }

    /// Iterates over `(id, edge)` pairs of live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.dead)
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Iterates over live edge ids.
    pub fn live_edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.dead)
            .map(|(i, _)| EdgeId(i as u32))
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.dead).count()
    }

    /// Outgoing live edges of a node.
    pub fn out_edges(&self, id: NodeId) -> Vec<EdgeId> {
        self.out_adj
            .get(id.index())
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|e| !self.edges[e.index()].dead)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Incoming live edges of a node.
    pub fn in_edges(&self, id: NodeId) -> Vec<EdgeId> {
        self.in_adj
            .get(id.index())
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|e| !self.edges[e.index()].dead)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Callees invoked by `id` over live invocation edges.
    pub fn callees(&self, id: NodeId) -> Vec<NodeId> {
        self.out_edges(id)
            .into_iter()
            .filter_map(|e| {
                let e = &self.edges[e.index()];
                (e.kind == EdgeKind::Invocation).then_some(e.to)
            })
            .collect()
    }

    /// Generates a fresh node name by suffixing `base` with a counter.
    pub fn fresh_name(&self, base: &str) -> String {
        if !self.by_name.contains_key(base) {
            return base.to_string();
        }
        for i in 1.. {
            let cand = format!("{base}_{i}");
            if !self.by_name.contains_key(&cand) {
                return cand;
            }
        }
        unreachable!("counter space exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeRef;

    fn sig(name: &str) -> MethodSig {
        MethodSig::new(name, vec![], TypeRef::Unit)
    }

    fn two_services_in_processes() -> (IrGraph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = IrGraph::new("test");
        let a = g
            .add_component("svc_a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = g
            .add_component("svc_b", "workflow.service", Granularity::Instance)
            .unwrap();
        let pa = g
            .add_namespace("proc_a", "namespace.process", Granularity::Process)
            .unwrap();
        let pb = g
            .add_namespace("proc_b", "namespace.process", Granularity::Process)
            .unwrap();
        g.set_parent(a, pa).unwrap();
        g.set_parent(b, pb).unwrap();
        (g, a, b, pa, pb)
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = IrGraph::new("t");
        g.add_component("x", "k", Granularity::Instance).unwrap();
        let err = g
            .add_component("x", "k", Granularity::Instance)
            .unwrap_err();
        assert!(matches!(err, IrError::Invalid(_)));
    }

    #[test]
    fn containment_typing_enforced() {
        let mut g = IrGraph::new("t");
        let inst = g.add_component("i", "k", Granularity::Instance).unwrap();
        let proc_ = g
            .add_namespace("p", "namespace.process", Granularity::Process)
            .unwrap();
        let cont = g
            .add_namespace("c", "namespace.container", Granularity::Container)
            .unwrap();
        // Instance into process: ok; process into container: ok.
        g.set_parent(inst, proc_).unwrap();
        g.set_parent(proc_, cont).unwrap();
        // Container into process: granularity violation.
        let err = g.set_parent(cont, proc_).unwrap_err();
        assert!(matches!(err, IrError::GranularityMismatch { .. }));
        // Component cannot be a parent.
        let other = g
            .add_namespace("p2", "namespace.process", Granularity::Process)
            .unwrap();
        let err = g.set_parent(other, inst).unwrap_err();
        assert!(matches!(err, IrError::GranularityMismatch { .. }));
    }

    #[test]
    fn containment_cycle_rejected() {
        let mut g = IrGraph::new("t");
        let c1 = g.add_namespace("c1", "ns", Granularity::Container).unwrap();
        let m1 = g.add_namespace("m1", "ns", Granularity::Machine).unwrap();
        let r1 = g.add_namespace("r1", "ns", Granularity::Region).unwrap();
        g.set_parent(c1, m1).unwrap();
        g.set_parent(m1, r1).unwrap();
        // r1 into c1 is a granularity violation before it is a cycle; check a
        // same-shape cycle using fresh nodes of descending granularity.
        let g2 = {
            let mut g2 = IrGraph::new("t2");
            let a = g2.add_namespace("a", "ns", Granularity::Machine).unwrap();
            let b = g2.add_namespace("b", "ns", Granularity::Region).unwrap();
            g2.set_parent(a, b).unwrap();
            (g2, a, b)
        };
        let (mut g2, _a, b) = g2;
        // Now try to reparent b under something below itself — granularity
        // rules already forbid it, so force the cycle check with equal chain:
        let c = g2
            .add_namespace("c", "ns", Granularity::Deployment)
            .unwrap();
        g2.set_parent(b, c).unwrap();
        // c under a would be granularity violation; cycle check still guards
        // deeper structures (tested indirectly through validate module).
        assert_eq!(g2.ancestors(_a), vec![b, c]);
    }

    #[test]
    fn boundary_and_required_visibility() {
        let (mut g, a, b, pa, _pb) = two_services_in_processes();
        assert_eq!(g.boundary_between(a, b), Some(Granularity::Process));
        assert_eq!(g.required_visibility(a, b), Visibility::Container);

        // Same process: no boundary.
        let a2 = g
            .add_component("svc_a2", "workflow.service", Granularity::Instance)
            .unwrap();
        g.set_parent(a2, pa).unwrap();
        assert_eq!(g.boundary_between(a, a2), None);
        assert_eq!(g.required_visibility(a, a2), Visibility::Local);

        // Separate containers widen the requirement.
        let ca = g
            .add_namespace("cont_a", "ns.container", Granularity::Container)
            .unwrap();
        let cb = g
            .add_namespace("cont_b", "ns.container", Granularity::Container)
            .unwrap();
        g.set_parent(pa, ca).unwrap();
        g.set_parent(g.by_name("proc_b").unwrap(), cb).unwrap();
        assert_eq!(g.boundary_between(a, b), Some(Granularity::Container));
        assert_eq!(g.required_visibility(a, b), Visibility::Machine);

        // Separate machines.
        let ma = g
            .add_namespace("mach_a", "ns.machine", Granularity::Machine)
            .unwrap();
        let mb = g
            .add_namespace("mach_b", "ns.machine", Granularity::Machine)
            .unwrap();
        g.set_parent(ca, ma).unwrap();
        g.set_parent(cb, mb).unwrap();
        assert_eq!(g.required_visibility(a, b), Visibility::Region);
    }

    #[test]
    fn boundary_with_self_is_none() {
        let (g, a, _, _, _) = two_services_in_processes();
        assert_eq!(g.boundary_between(a, a), None);
    }

    #[test]
    fn modifiers_attach_in_order() {
        let mut g = IrGraph::new("t");
        let s = g
            .add_component("svc", "workflow.service", Granularity::Instance)
            .unwrap();
        let t = g.add_node(Node::new(
            "tracer",
            "mod.trace",
            NodeRole::Modifier,
            Granularity::Instance,
        ));
        let t = t.unwrap();
        let r = g
            .add_node(Node::new(
                "rpc",
                "rpc.grpc.server",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        g.attach_modifier(s, t).unwrap();
        g.attach_modifier(s, r).unwrap();
        assert_eq!(g.node(s).unwrap().modifiers(), &[t, r]);
        assert!(g.has_modifier(s, "rpc.grpc"));
        assert!(g.has_modifier(s, "rpc"));
        assert!(!g.has_modifier(s, "rp"));
        // A modifier cannot be attached twice.
        let err = g.attach_modifier(s, t).unwrap_err();
        assert!(matches!(err, IrError::BadModifier { .. }));
    }

    #[test]
    fn modifier_on_modifier_rejected() {
        let mut g = IrGraph::new("t");
        let m1 = g
            .add_node(Node::new(
                "m1",
                "mod.a",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        let m2 = g
            .add_node(Node::new(
                "m2",
                "mod.b",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        let err = g.attach_modifier(m1, m2).unwrap_err();
        assert!(matches!(err, IrError::BadModifier { .. }));
    }

    #[test]
    fn edges_and_adjacency() {
        let (mut g, a, b, _, _) = two_services_in_processes();
        let e = g.add_invocation(a, b, vec![sig("Get")]).unwrap();
        assert_eq!(g.out_edges(a), vec![e]);
        assert_eq!(g.in_edges(b), vec![e]);
        assert_eq!(g.callees(a), vec![b]);
        g.remove_edge(e).unwrap();
        assert!(g.out_edges(a).is_empty());
        assert!(g.in_edges(b).is_empty());
        assert!(g.edge(e).is_err());
    }

    #[test]
    fn retarget_edge_moves_adjacency() {
        let (mut g, a, b, _, _) = two_services_in_processes();
        let c = g
            .add_component("svc_c", "workflow.service", Granularity::Instance)
            .unwrap();
        let e = g.add_invocation(a, b, vec![sig("Get")]).unwrap();
        g.retarget_edge(e, c).unwrap();
        assert_eq!(g.edge(e).unwrap().to, c);
        assert!(g.in_edges(b).is_empty());
        assert_eq!(g.in_edges(c), vec![e]);
    }

    #[test]
    fn remove_node_kills_incident_edges_and_frees_name() {
        let (mut g, a, b, _, _) = two_services_in_processes();
        let e = g.add_invocation(a, b, vec![sig("Get")]).unwrap();
        g.remove_node(b).unwrap();
        assert!(g.node(b).is_err());
        assert!(g.edge(e).is_err());
        assert!(g.by_name("svc_b").is_none());
        // Name can be reused after deletion.
        g.add_component("svc_b", "workflow.service", Granularity::Instance)
            .unwrap();
    }

    #[test]
    fn fresh_name_suffixes() {
        let (g, _, _, _, _) = two_services_in_processes();
        assert_eq!(g.fresh_name("new_thing"), "new_thing");
        assert_eq!(g.fresh_name("svc_a"), "svc_a_1");
    }

    #[test]
    fn kind_prefix_matching() {
        let mut g = IrGraph::new("t");
        g.add_component("c1", "backend.cache.memcached", Granularity::Process)
            .unwrap();
        g.add_component("c2", "backend.cache.redis", Granularity::Process)
            .unwrap();
        g.add_component("d1", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        assert_eq!(g.nodes_with_kind_prefix("backend.cache").len(), 2);
        assert_eq!(g.nodes_with_kind_prefix("backend").len(), 3);
        assert_eq!(g.nodes_with_kind_prefix("backend.cache.redis").len(), 1);
        assert_eq!(g.nodes_with_kind_prefix("backend.ca").len(), 0);
    }

    #[test]
    fn enclosing_generator_found() {
        let mut g = IrGraph::new("t");
        let s = g
            .add_component("s", "workflow.service", Granularity::Instance)
            .unwrap();
        let gen = g
            .add_node(Node::new(
                "repl",
                "gen.replicas",
                NodeRole::Generator,
                Granularity::Process,
            ))
            .unwrap();
        g.set_parent(s, gen).unwrap();
        assert_eq!(g.enclosing_generator(s), Some(gen));
        assert_eq!(g.enclosing_generator(gen), None);
    }
}
