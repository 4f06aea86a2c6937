//! Call-path extraction over the IR.
//!
//! Several consumers need the transitive call structure of an application:
//! the compiler gathers client-code dependencies along invocation paths
//! (§4.3.2 "Resolving Dependencies") and the statistics module reports
//! topology depth. Entry points are a deployment rule, in [`crate::deploy`].

use std::collections::{BTreeSet, VecDeque};

use crate::graph::IrGraph;
use crate::node::NodeId;

/// All components transitively reachable from `start` over invocation edges,
/// including `start` itself, in BFS order.
pub fn reachable(g: &IrGraph, start: NodeId) -> Vec<NodeId> {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(start);
    seen.insert(start);
    while let Some(cur) = queue.pop_front() {
        order.push(cur);
        for callee in g.callees(cur) {
            if seen.insert(callee) {
                queue.push_back(callee);
            }
        }
    }
    order
}

/// Length (in edges) of the longest acyclic invocation chain starting at
/// `start`. Cycles are cut at the revisit.
pub fn max_call_depth(g: &IrGraph, start: NodeId) -> usize {
    fn go(g: &IrGraph, cur: NodeId, on_stack: &mut BTreeSet<NodeId>) -> usize {
        let mut best = 0;
        for callee in g.callees(cur) {
            if on_stack.insert(callee) {
                best = best.max(1 + go(g, callee, on_stack));
                on_stack.remove(&callee);
            }
        }
        best
    }
    let mut on_stack = BTreeSet::from([start]);
    go(g, start, &mut on_stack)
}

/// Returns invocation-edge cycles detected in the graph, each reported as the
/// list of node ids along the cycle. Microservice call graphs are usually
/// acyclic; cycles are worth surfacing as an antipattern diagnostic.
pub fn invocation_cycles(g: &IrGraph) -> Vec<Vec<NodeId>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let ids: Vec<NodeId> = g.live_node_ids().collect();
    let max_idx = ids
        .iter()
        .map(|i| i.index())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    let mut marks = vec![Mark::White; max_idx];
    let mut cycles = Vec::new();

    fn dfs(
        g: &IrGraph,
        cur: NodeId,
        marks: &mut Vec<Mark>,
        stack: &mut Vec<NodeId>,
        cycles: &mut Vec<Vec<NodeId>>,
    ) {
        marks[cur.index()] = Mark::Grey;
        stack.push(cur);
        for callee in g.callees(cur) {
            match marks[callee.index()] {
                Mark::White => dfs(g, callee, marks, stack, cycles),
                Mark::Grey => {
                    let pos = stack.iter().position(|n| *n == callee).unwrap_or(0);
                    cycles.push(stack[pos..].to_vec());
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        marks[cur.index()] = Mark::Black;
    }

    let mut stack = Vec::new();
    for id in ids {
        if marks[id.index()] == Mark::White {
            dfs(g, id, &mut marks, &mut stack, &mut cycles);
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Granularity;
    use crate::types::{MethodSig, TypeRef};

    fn sig() -> Vec<MethodSig> {
        vec![MethodSig::new("M", vec![], TypeRef::Unit)]
    }

    fn chain(n: usize) -> (IrGraph, Vec<NodeId>) {
        let mut g = IrGraph::new("t");
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                g.add_component(format!("s{i}"), "workflow.service", Granularity::Instance)
                    .unwrap()
            })
            .collect();
        for w in ids.windows(2) {
            g.add_invocation(w[0], w[1], sig()).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn entry_points_are_roots() {
        let (g, ids) = chain(4);
        assert_eq!(crate::deploy::entry_services(&g), vec![ids[0]]);
    }

    #[test]
    fn reachable_covers_chain() {
        let (g, ids) = chain(4);
        assert_eq!(reachable(&g, ids[0]), ids);
        assert_eq!(reachable(&g, ids[2]), ids[2..].to_vec());
    }

    #[test]
    fn call_depth_of_chain() {
        let (g, ids) = chain(5);
        assert_eq!(max_call_depth(&g, ids[0]), 4);
        assert_eq!(max_call_depth(&g, ids[4]), 0);
    }

    #[test]
    fn depth_handles_diamond() {
        let mut g = IrGraph::new("t");
        let a = g
            .add_component("a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = g
            .add_component("b", "workflow.service", Granularity::Instance)
            .unwrap();
        let c = g
            .add_component("c", "workflow.service", Granularity::Instance)
            .unwrap();
        let d = g
            .add_component("d", "workflow.service", Granularity::Instance)
            .unwrap();
        g.add_invocation(a, b, sig()).unwrap();
        g.add_invocation(a, c, sig()).unwrap();
        g.add_invocation(b, d, sig()).unwrap();
        g.add_invocation(c, d, sig()).unwrap();
        assert_eq!(max_call_depth(&g, a), 2);
        assert_eq!(crate::deploy::entry_services(&g), vec![a]);
        assert_eq!(reachable(&g, a).len(), 4);
        assert!(invocation_cycles(&g).is_empty());
    }

    #[test]
    fn cycles_detected() {
        let (mut g, ids) = chain(3);
        g.add_invocation(ids[2], ids[0], sig()).unwrap();
        let cycles = invocation_cycles(&g);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
        // Depth still terminates.
        assert_eq!(max_call_depth(&g, ids[0]), 2);
    }
}
