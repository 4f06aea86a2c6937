//! IR node definitions: ids, roles, granularities, and node data.

use serde::{Deserialize, Serialize};

use crate::props::Props;

/// Opaque handle identifying a node inside one [`crate::IrGraph`].
///
/// Node ids are dense indices; deleted nodes leave tombstones so ids stay
/// stable across plugin passes that add or remove nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the raw index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a raw index.
    ///
    /// Intended for deserialization and test helpers; constructing an id that
    /// does not belong to the target graph yields `UnknownNode` errors later.
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The structural role a node plays in the IR (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// An entity instantiated in the generated system: a service instance, a
    /// backend instance, or a pre-built binary/container image.
    Component,
    /// Groups same-granularity children into a coarser-granularity component
    /// (e.g. a Go process, a Docker container, a deployment).
    Namespace,
    /// Scaffolding attached to a component that interposes on its edges
    /// (tracer wrapper, RPC server, retry, circuit breaker, client pool...).
    Modifier,
    /// Contains nodes that are dynamically multiplied at runtime (replica sets,
    /// autoscaling groups). Restricts the visibility of contained nodes.
    Generator,
}

/// The granularity of a component or namespace.
///
/// Granularities are strictly ordered: a namespace of granularity `g` may only
/// contain children of granularity strictly finer than `g`. The ordering also
/// defines [`crate::Visibility`] levels: an edge that crosses a process
/// boundary needs at least `Process` visibility, and so on.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Granularity {
    /// An application-level object living inside a process (service instance,
    /// backend client, wrapper).
    #[default]
    Instance,
    /// An OS process (e.g. a generated Go/Rust binary, a `mongod`).
    Process,
    /// A container image holding one or more processes.
    Container,
    /// A physical or virtual machine holding containers.
    Machine,
    /// A geographic region / datacenter holding machines.
    Region,
    /// The whole deployment.
    Deployment,
}

impl Granularity {
    /// All granularities, finest first.
    pub const ALL: [Granularity; 6] = [
        Granularity::Instance,
        Granularity::Process,
        Granularity::Container,
        Granularity::Machine,
        Granularity::Region,
        Granularity::Deployment,
    ];

    /// Returns the next-coarser granularity, if any.
    pub fn coarser(self) -> Option<Granularity> {
        let all = Self::ALL;
        let idx = all
            .iter()
            .position(|g| *g == self)
            .expect("granularity in ALL");
        all.get(idx + 1).copied()
    }

    /// Returns the next-finer granularity, if any.
    pub fn finer(self) -> Option<Granularity> {
        let all = Self::ALL;
        let idx = all
            .iter()
            .position(|g| *g == self)
            .expect("granularity in ALL");
        idx.checked_sub(1).map(|i| all[i])
    }
}

/// Dotted-path kind prefix match: `mod.retry` matches `mod.retry` and
/// `mod.retry.exponential`, not `mod.retryish`.
pub fn kind_matches(kind: &str, prefix: &str) -> bool {
    kind == prefix || (kind.starts_with(prefix) && kind[prefix.len()..].starts_with('.'))
}

/// A node of the IR graph.
///
/// Nodes carry a plugin-defined `kind` tag (e.g. `"workflow.service"`,
/// `"backend.cache.memcached"`, `"rpc.grpc.server"`, `"namespace.process"`)
/// plus a typed property bag. This keeps the IR open for extension: plugins
/// introduce new kinds without modifying this crate (paper §4.1 "Compiler
/// Plugins").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Unique (within the graph) human-readable instance name, e.g.
    /// `"post_storage_service"`. Namespaces and modifiers are named too.
    pub name: String,
    /// Plugin-defined type tag.
    pub kind: String,
    /// Structural role.
    pub role: NodeRole,
    /// Granularity of the entity this node represents.
    pub granularity: Granularity,
    /// Typed property bag (timeouts, replica counts, image names, ...).
    pub props: Props,
    /// Containing namespace/generator, if any.
    pub(crate) parent: Option<NodeId>,
    /// Children, only meaningful for namespaces and generators.
    pub(crate) children: Vec<NodeId>,
    /// For modifiers: the component this modifier is attached to.
    pub(crate) attached_to: Option<NodeId>,
    /// For components: ordered modifier chain, innermost (closest to the
    /// component) first.
    pub(crate) modifiers: Vec<NodeId>,
    /// Tombstone flag; dead nodes are skipped by iteration.
    pub(crate) dead: bool,
}

impl Node {
    /// Creates a fresh unattached node.
    pub fn new(
        name: impl Into<String>,
        kind: impl Into<String>,
        role: NodeRole,
        granularity: Granularity,
    ) -> Self {
        Node {
            name: name.into(),
            kind: kind.into(),
            role,
            granularity,
            props: Props::new(),
            parent: None,
            children: Vec::new(),
            attached_to: None,
            modifiers: Vec::new(),
            dead: false,
        }
    }

    /// The containing namespace, if assigned.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Children of a namespace/generator node (empty otherwise).
    pub fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// The component this modifier is attached to (modifiers only).
    pub fn attached_to(&self) -> Option<NodeId> {
        self.attached_to
    }

    /// Ordered modifier chain on this component, innermost first.
    pub fn modifiers(&self) -> &[NodeId] {
        &self.modifiers
    }

    /// Whether this node has been deleted by a pass.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_prefix_semantics() {
        assert!(kind_matches("mod.retry", "mod.retry"));
        assert!(kind_matches("mod.retry.exp", "mod.retry"));
        assert!(!kind_matches("mod.retryish", "mod.retry"));
    }

    #[test]
    fn granularity_order_is_total_and_strict() {
        use Granularity::*;
        assert!(Instance < Process);
        assert!(Process < Container);
        assert!(Container < Machine);
        assert!(Machine < Region);
        assert!(Region < Deployment);
    }

    #[test]
    fn coarser_and_finer_roundtrip() {
        for g in Granularity::ALL {
            if let Some(c) = g.coarser() {
                assert_eq!(c.finer(), Some(g));
            }
            if let Some(f) = g.finer() {
                assert_eq!(f.coarser(), Some(g));
            }
        }
        assert_eq!(Granularity::Deployment.coarser(), None);
        assert_eq!(Granularity::Instance.finer(), None);
    }

    #[test]
    fn node_display_id() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId::from_index(7), NodeId(7));
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn new_node_is_detached() {
        let n = Node::new(
            "svc",
            "workflow.service",
            NodeRole::Component,
            Granularity::Instance,
        );
        assert!(n.parent().is_none());
        assert!(n.children().is_empty());
        assert!(n.modifiers().is_empty());
        assert!(n.attached_to().is_none());
        assert!(!n.is_dead());
    }
}
