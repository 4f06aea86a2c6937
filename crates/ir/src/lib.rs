//! Intermediate representation (IR) for the Blueprint toolchain.
//!
//! The IR is the canonical representation of a Blueprint application (paper §4.2).
//! It is a verbose, well-structured graph describing the concrete layout and
//! hierarchy of every component that will exist in the generated system:
//!
//! * **Component nodes** — entities instantiated in the generated system
//!   (service instances, backend instances, pre-built images such as a tracer
//!   server). See [`node::NodeRole::Component`].
//! * **Namespace nodes** — group same-granularity components into a component of
//!   coarser granularity (instances into a process, processes into a container,
//!   containers into a machine/deployment). See [`node::NodeRole::Namespace`].
//! * **Modifier nodes** — scaffolding that interposes on a component's edges
//!   (tracing wrappers, RPC servers, retry/timeout, circuit breakers). Modifiers
//!   attach to a component and form an ordered chain, innermost first.
//! * **Generator nodes** — nodes whose contents are dynamically multiplied at
//!   runtime (replication sets, autoscalers); they restrict visibility of their
//!   children and are typically paired with a load balancer.
//!
//! Edges between components are directional caller→callee dependencies carrying
//! the invoked [`types::MethodSig`]s and a [`Visibility`] annotation: the widest
//! namespace boundary the edge is currently able to cross. Modifiers such as an
//! RPC server *widen* visibility; the compiler rejects edges that must cross a
//! wider boundary than their visibility allows (paper §4.3.2 "Resolving
//! Dependencies").
//!
//! The IR is deliberately independent of any concrete plugin: plugins introduce
//! new node *kinds* (string-tagged, with typed property bags) without this crate
//! changing. That mirrors the extensibility story of the paper.

pub mod deploy;
pub mod dot;
pub mod edge;
pub mod graph;
pub mod node;
pub mod path;
pub mod props;
pub mod stats;
pub mod types;
pub mod validate;
pub mod visibility;

pub use dot::{to_dot, to_dot_with_findings, DotFinding};
pub use edge::{Edge, EdgeId, EdgeKind};
pub use graph::IrGraph;
pub use node::{kind_matches, Granularity, Node, NodeId, NodeRole};
pub use props::{PropValue, Props};
pub use types::{MethodSig, Param, TypeRef};
pub use visibility::Visibility;

/// Errors produced while constructing or analyzing the IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A node id did not resolve to a live node.
    UnknownNode(String),
    /// An edge id did not resolve to a live edge.
    UnknownEdge(String),
    /// A namespace child had an incompatible granularity with its parent.
    GranularityMismatch {
        /// The namespace node name.
        parent: String,
        /// The offending child node name.
        child: String,
        /// Human-readable explanation.
        detail: String,
    },
    /// Namespace containment formed a cycle.
    ContainmentCycle(String),
    /// A modifier was attached to an incompatible target.
    BadModifier {
        /// The modifier node name.
        modifier: String,
        /// Explanation of the incompatibility.
        detail: String,
    },
    /// An edge crosses a namespace boundary wider than its visibility allows.
    ///
    /// This is the compiler error described in §4.3.2: "the edge between the two
    /// services lacks the necessary visibility".
    VisibilityViolation {
        /// Caller node name.
        from: String,
        /// Callee node name.
        to: String,
        /// The boundary the edge must cross.
        required: Visibility,
        /// The visibility the edge actually has.
        actual: Visibility,
    },
    /// A structural invariant was violated (duplicate names, dangling refs...).
    Invalid(String),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::UnknownNode(n) => write!(f, "unknown IR node: {n}"),
            IrError::UnknownEdge(e) => write!(f, "unknown IR edge: {e}"),
            IrError::GranularityMismatch {
                parent,
                child,
                detail,
            } => {
                write!(f, "granularity mismatch: {child} in {parent}: {detail}")
            }
            IrError::ContainmentCycle(n) => write!(f, "namespace containment cycle via {n}"),
            IrError::BadModifier { modifier, detail } => {
                write!(f, "bad modifier {modifier}: {detail}")
            }
            IrError::VisibilityViolation {
                from,
                to,
                required,
                actual,
            } => write!(
                f,
                "edge {from} -> {to} lacks the necessary visibility: \
                 must cross a {required:?} boundary but is only {actual:?}-visible \
                 (wrap the callee with an RPC/HTTP server modifier)"
            ),
            IrError::Invalid(msg) => write!(f, "invalid IR: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}

/// Convenient result alias for IR operations.
pub type Result<T> = std::result::Result<T, IrError>;
