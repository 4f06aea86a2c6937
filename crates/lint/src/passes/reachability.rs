//! BP006/BP007: components nothing can reach, modifiers nothing applies.
//!
//! * **BP006 unreachable-component** — a component (backend, load
//!   balancer, tracer server...) that no entry point reaches by following
//!   invocation/dependency edges and modifier chains. It will be deployed,
//!   billed, and never used. Services themselves cannot be unreachable: a
//!   service with no inbound invocation *is* an entry point (the same rule
//!   the simulation lowering applies).
//! * **BP007 dead-modifier** — a wiring-declared modifier applied to no
//!   instance: it exists as an unattached template in the IR and appears in
//!   no declaration's `.with_server([...])` list. Usually a leftover from
//!   a reconfiguration (e.g. an `rpc_server` declared for a variant that
//!   went monolith).

use std::collections::BTreeSet;

use blueprint_ir::{NodeId, NodeRole};

use crate::context::{kind, LintContext};
use crate::diagnostic::{Diagnostic, Severity};
use crate::passes::{LintPass, Rule};

/// BP006 metadata.
pub static RULE_UNREACHABLE: Rule = Rule {
    id: "BP006",
    name: "unreachable-component",
    severity: Severity::Deny,
    summary: "a component no entry point reaches",
    doc: "A component no entry point reaches is dead weight: it deploys, \
          consumes a machine slot, and can hide stale wiring (a dependency \
          someone forgot to delete or meant to bind). Fix: remove the \
          instance from the wiring or bind a caller to it.",
};

/// BP007 metadata.
pub static RULE_DEAD_MOD: Rule = Rule {
    id: "BP007",
    name: "dead-modifier",
    severity: Severity::Deny,
    summary: "a declared modifier applied to no instance",
    doc: "A declared modifier applied to no instance does nothing — the \
          policy its author intended (retries, timeouts, tracing) is \
          silently absent. Fix: attach the modifier to the intended \
          instance or delete the declaration.",
};

/// The pass.
pub struct Reachability;

impl LintPass for Reachability {
    fn rules(&self) -> Vec<&'static Rule> {
        vec![&RULE_UNREACHABLE, &RULE_DEAD_MOD]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        // BP006: flood from the entry points.
        let reached = reachable_from_entries(ctx);
        for id in ctx.ir.live_node_ids() {
            let Ok(n) = ctx.ir.node(id) else { continue };
            if n.role != NodeRole::Component
                || reached.contains(&id)
                || crate::context::kind_matches(&n.kind, kind::SERVICE)
            {
                continue;
            }
            out.push(
                Diagnostic::new(
                    &RULE_UNREACHABLE,
                    format!(
                        "component `{}` ({}) is reachable from no entry point",
                        n.name, n.kind
                    ),
                )
                .node(id.to_string(), n.name.clone())
                .fix(format!(
                    "wire a service dependency to `{}` or remove its declaration",
                    n.name
                )),
            );
        }

        // BP007: declared-but-unapplied modifier templates.
        let applied: BTreeSet<&str> = ctx
            .wiring
            .decls()
            .iter()
            .flat_map(|d| d.server_modifiers.iter().map(String::as_str))
            .collect();
        for id in ctx.ir.live_node_ids() {
            let Ok(n) = ctx.ir.node(id) else { continue };
            if n.role != NodeRole::Modifier
                || n.attached_to().is_some()
                || applied.contains(n.name.as_str())
            {
                continue;
            }
            out.push(
                Diagnostic::new(
                    &RULE_DEAD_MOD,
                    format!(
                        "modifier `{}` ({}) is applied to no instance",
                        n.name, n.kind
                    ),
                )
                .node(id.to_string(), n.name.clone())
                .fix(format!(
                    "add `{}` to a declaration's .with_server([...]) list or delete it",
                    n.name
                )),
            );
        }
        out
    }
}

/// Every node reachable from the entry services by following outgoing
/// edges of any kind, plus the modifier chains of reached components (a
/// reached service drags its tracer wrapper along, and the wrapper's
/// dependency edge reaches the tracer server).
fn reachable_from_entries(ctx: &LintContext<'_>) -> BTreeSet<NodeId> {
    let mut reached: BTreeSet<NodeId> = BTreeSet::new();
    let mut queue: Vec<NodeId> = ctx.entry_services();
    while let Some(id) = queue.pop() {
        if !reached.insert(id) {
            continue;
        }
        for e in ctx.ir.out_edges(id) {
            if let Ok(edge) = ctx.ir.edge(e) {
                queue.push(edge.to);
            }
        }
        if let Ok(n) = ctx.ir.node(id) {
            queue.extend(n.modifiers().iter().copied());
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linter;
    use blueprint_ir::{Granularity, IrGraph, Node};
    use blueprint_wiring::WiringSpec;

    /// svc -> db, plus a second backend nothing references.
    fn orphan_backend() -> (IrGraph, WiringSpec) {
        let mut ir = IrGraph::new("t");
        let svc = ir
            .add_component("svc", "workflow.service", Granularity::Instance)
            .unwrap();
        let db = ir
            .add_component("db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        ir.add_component("stale_cache", "backend.cache.redis", Granularity::Process)
            .unwrap();
        ir.add_invocation(svc, db, vec![]).unwrap();
        (ir, WiringSpec::new("t"))
    }

    #[test]
    fn orphan_backend_fires_once() {
        let (ir, w) = orphan_backend();
        let diags: Vec<_> = Linter::default()
            .run(&ir, &w)
            .into_iter()
            .filter(|d| d.rule == "BP006")
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].nodes[0].name, "stale_cache");
    }

    #[test]
    fn wired_backend_is_clean() {
        let (mut ir, w) = orphan_backend();
        let svc = ir.by_name("svc").unwrap();
        let cache = ir.by_name("stale_cache").unwrap();
        ir.add_invocation(svc, cache, vec![]).unwrap();
        let diags = Linter::default().run(&ir, &w);
        assert!(diags.iter().all(|d| d.rule != "BP006"), "{diags:?}");
    }

    #[test]
    fn dependency_edges_and_modifier_chains_count_as_reachable() {
        let (mut ir, w) = orphan_backend();
        // Attach a tracer wrapper to svc whose dependency edge reaches the
        // cache (stand-in for the tracer-server pattern).
        let svc = ir.by_name("svc").unwrap();
        let cache = ir.by_name("stale_cache").unwrap();
        let wrap = ir
            .add_node(Node::new(
                "svc_tracer",
                "mod.trace.jaeger",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(svc, wrap).unwrap();
        ir.add_edge(blueprint_ir::Edge::dependency(wrap, cache))
            .unwrap();
        let diags = Linter::default().run(&ir, &w);
        assert!(diags.iter().all(|d| d.rule != "BP006"), "{diags:?}");
    }

    #[test]
    fn dead_modifier_fires_and_applied_is_clean() {
        let mut ir = IrGraph::new("t");
        ir.add_component("svc", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_node(Node::new(
            "rpc_server",
            "mod.rpc.grpc.server",
            NodeRole::Modifier,
            Granularity::Instance,
        ))
        .unwrap();
        let mut w = WiringSpec::new("t");
        w.define("rpc_server", "GRPCServer", vec![]).unwrap();
        w.service("svc", "SvcImpl", &[], &[]).unwrap();
        let diags: Vec<_> = Linter::default()
            .run(&ir, &w)
            .into_iter()
            .filter(|d| d.rule == "BP007")
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].nodes[0].name, "rpc_server");

        // Referencing the template from a .with_server list silences it
        // (the template itself stays unattached; clones attach per service).
        let mut w2 = WiringSpec::new("t");
        w2.define("rpc_server", "GRPCServer", vec![]).unwrap();
        w2.service("svc", "SvcImpl", &[], &["rpc_server"]).unwrap();
        let diags = Linter::default().run(&ir, &w2);
        assert!(diags.iter().all(|d| d.rule != "BP007"), "{diags:?}");
    }
}
