//! BP001: retry amplification along unprotected call chains.
//!
//! Callers fold the callee's modifier chain into their client spec, so a
//! retry modifier on a callee multiplies the attempts of every inbound
//! call. Along a root→leaf chain the multipliers compound: with `max = 10`
//! retries at each of three hops, one user request can put `11^3` attempts
//! on the wire — the §6.2 metastability ingredient PR 3 measured
//! dynamically. A circuit breaker anywhere on the chain caps the storm, so
//! chains carrying one are not flagged.

use blueprint_ir::{EdgeId, EdgeKind, NodeId};

use crate::context::LintContext;
use crate::diagnostic::{Diagnostic, Severity};
use crate::passes::{LintPass, Rule};

/// Rule metadata.
pub static RULE: Rule = Rule {
    id: "BP001",
    name: "retry-amplification",
    severity: Severity::Warn,
    summary: "call chain whose worst-case retry product exceeds the threshold with no breaker",
    doc: "A retry modifier on a callee multiplies the attempts of every \
          inbound call, and multipliers compound along a call chain: three \
          hops of max=10 retries turn one user request into 11^3 wire \
          attempts during an outage — the §6.2 metastability ingredient. \
          The bound is the worst-case wire-attempt product of the flagged \
          chain. Fix: attach a CircuitBreaker to a service on the chain, or \
          cut the retry budgets (Retry max=...).",
};

/// BP001 flags a chain whose worst-case wire amplification (the product of
/// its per-hop attempt counts) exceeds this, absent a circuit breaker.
pub const AMPLIFICATION_THRESHOLD: f64 = 10.0;

/// The pass. Emits at most one finding per entry point: the worst
/// unprotected chain rooted there (every further chain shares the fix).
pub struct RetryAmplification;

/// The worst unprotected chain found under one entry.
struct Chain {
    product: f64,
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl LintPass for RetryAmplification {
    fn rules(&self) -> Vec<&'static Rule> {
        vec![&RULE]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for entry in ctx.entry_services() {
            let mut best: Option<Chain> = None;
            let mut path_nodes = vec![entry];
            let mut path_edges = Vec::new();
            dfs(
                ctx,
                entry,
                ctx.attempts_into(entry),
                ctx.breaker_on(entry),
                &mut path_nodes,
                &mut path_edges,
                &mut best,
            );
            if let Some(chain) = best {
                let names: Vec<String> = chain.nodes.iter().map(|&n| ctx.node_name(n)).collect();
                let mut d = Diagnostic::new(
                    &RULE,
                    format!(
                        "chain {} amplifies to x{:.0} worst-case wire attempts with no \
                         circuit breaker on the chain",
                        names.join(" -> "),
                        chain.product
                    ),
                )
                .fix(
                    "attach a CircuitBreaker to a service on the chain or cut the retry \
                     budgets (Retry max=...)",
                )
                .bound(chain.product);
                for (&n, name) in chain.nodes.iter().zip(&names) {
                    d = d.node(n.to_string(), name.clone());
                }
                for &e in &chain.edges {
                    if let Ok(edge) = ctx.ir.edge(e) {
                        d = d.edge(
                            e.to_string(),
                            format!("{}->{}", ctx.node_name(edge.from), ctx.node_name(edge.to)),
                        );
                    }
                }
                out.push(d);
            }
        }
        out
    }
}

/// Walks invocation edges depth-first, compounding per-hop attempt counts.
/// At each chain end the product is compared against
/// [`AMPLIFICATION_THRESHOLD`]; the worst offending chain per entry is kept.
/// Load balancers participate as ordinary hops (their invocation edges lead
/// to the replicas).
fn dfs(
    ctx: &LintContext<'_>,
    node: NodeId,
    product: f64,
    protected: bool,
    path_nodes: &mut Vec<NodeId>,
    path_edges: &mut Vec<EdgeId>,
    best: &mut Option<Chain>,
) {
    let mut hops: Vec<(EdgeId, NodeId)> = ctx
        .ir
        .out_edges(node)
        .into_iter()
        .filter_map(|e| {
            let edge = ctx.ir.edge(e).ok()?;
            (edge.kind == EdgeKind::Invocation).then_some((e, edge.to))
        })
        .collect();
    hops.sort_unstable();

    let mut advanced = false;
    for (e, to) in hops {
        if path_nodes.contains(&to) {
            continue; // cycle guard: never re-enter a node on the path
        }
        advanced = true;
        path_nodes.push(to);
        path_edges.push(e);
        dfs(
            ctx,
            to,
            product * ctx.attempts_into(to),
            protected || ctx.breaker_on(to),
            path_nodes,
            path_edges,
            best,
        );
        path_edges.pop();
        path_nodes.pop();
    }

    if !advanced && !protected && product > AMPLIFICATION_THRESHOLD {
        let better = best.as_ref().is_none_or(|b| product > b.product);
        if better {
            *best = Some(Chain {
                product,
                nodes: path_nodes.clone(),
                edges: path_edges.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Linter;
    use blueprint_ir::{Granularity, IrGraph, Node, NodeRole};
    use blueprint_wiring::WiringSpec;

    fn retry_mod(ir: &mut IrGraph, name: &str, target: NodeId, max: i64) {
        let m = ir
            .add_node(Node::new(
                name,
                "mod.retry",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.node_mut(m).unwrap().props.set("max", max);
        ir.attach_modifier(target, m).unwrap();
    }

    /// frontend -> mid -> leaf with `max` retries into mid and leaf.
    fn chain_graph(max: i64) -> (IrGraph, WiringSpec) {
        let mut ir = IrGraph::new("t");
        let fe = ir
            .add_component("frontend", "workflow.service", Granularity::Instance)
            .unwrap();
        let mid = ir
            .add_component("mid", "workflow.service", Granularity::Instance)
            .unwrap();
        let leaf = ir
            .add_component("leaf", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(fe, mid, vec![]).unwrap();
        ir.add_invocation(mid, leaf, vec![]).unwrap();
        retry_mod(&mut ir, "mid_retry", mid, max);
        retry_mod(&mut ir, "leaf_retry", leaf, max);
        (ir, WiringSpec::new("t"))
    }

    #[test]
    fn unprotected_chain_fires_once_with_bound() {
        let (ir, w) = chain_graph(10);
        let diags: Vec<_> = Linter::default()
            .run(&ir, &w)
            .into_iter()
            .filter(|d| d.rule == "BP001")
            .collect();
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.bound, Some(121.0));
        assert!(d.message.contains("frontend -> mid -> leaf"));
        assert_eq!(d.nodes.len(), 3);
        assert_eq!(d.edges.len(), 2);
    }

    #[test]
    fn breaker_on_chain_silences() {
        let (mut ir, w) = chain_graph(10);
        let mid = ir.by_name("mid").unwrap();
        let br = ir
            .add_node(Node::new(
                "mid_breaker",
                "mod.breaker",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(mid, br).unwrap();
        let diags = Linter::default().run(&ir, &w);
        assert!(diags.iter().all(|d| d.rule != "BP001"), "{diags:?}");
    }

    #[test]
    fn below_threshold_is_clean() {
        // Same chain with max=2 retries per hop: the 3x3 = 9 product stays
        // under the threshold of 10.
        let (ir, w) = chain_graph(2);
        let diags = Linter::default().run(&ir, &w);
        assert!(diags.iter().all(|d| d.rule != "BP001"), "{diags:?}");
    }
}
