//! Property tests of IR graph invariants over seeded random construction
//! scripts.

use blueprint_ir::{
    path, stats,
    validate::{check_visibility, validate_structure},
    Granularity, IrGraph, MethodSig, Node, NodeId, NodeRole, TypeRef, Visibility,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random scripts per property; case `i` draws from `SmallRng::seed_from_u64(seed ^ i)`.
const CASES: u64 = 128;

/// A random-but-valid construction script for an IR graph.
#[derive(Debug, Clone)]
enum Op {
    AddService(u8),
    AddProcess(u8),
    Place { svc: u8, proc_: u8 },
    Invoke { from: u8, to: u8, widen: bool },
    Modify { svc: u8 },
    RemoveService(u8),
}

/// One random operation.
fn op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..6) {
        0 => Op::AddService(rng.gen_range(0..16)),
        1 => Op::AddProcess(rng.gen_range(0..8)),
        2 => Op::Place {
            svc: rng.gen_range(0..16),
            proc_: rng.gen_range(0..8),
        },
        3 => Op::Invoke {
            from: rng.gen_range(0..16),
            to: rng.gen_range(0..16),
            widen: rng.gen(),
        },
        4 => Op::Modify {
            svc: rng.gen_range(0..16),
        },
        _ => Op::RemoveService(rng.gen_range(0..16)),
    }
}

/// The graph built from `case`'s script of 0-59 random operations under
/// `seed`.
fn graph(seed: u64, case: u64) -> IrGraph {
    let mut rng = SmallRng::seed_from_u64(seed ^ case);
    let ops: Vec<Op> = (0..rng.gen_range(0..60)).map(|_| op(&mut rng)).collect();
    build(&ops)
}

/// Applies a script, ignoring operations that reference unknown nodes.
fn build(ops: &[Op]) -> IrGraph {
    let mut g = IrGraph::new("prop");
    let mut services: Vec<NodeId> = Vec::new();
    let mut procs: Vec<NodeId> = Vec::new();
    let mut modc = 0usize;
    for op in ops {
        match op {
            Op::AddService(i) => {
                let name = format!("svc_{i}_{}", services.len());
                if let Ok(id) = g.add_component(name, "workflow.service", Granularity::Instance) {
                    services.push(id);
                }
            }
            Op::AddProcess(i) => {
                let name = format!("proc_{i}_{}", procs.len());
                if let Ok(id) = g.add_namespace(name, "namespace.process", Granularity::Process) {
                    procs.push(id);
                }
            }
            Op::Place { svc, proc_ } => {
                if let (Some(&s), Some(&p)) = (
                    services.get(*svc as usize % services.len().max(1)),
                    procs.get(*proc_ as usize % procs.len().max(1)),
                ) {
                    if g.node(s).is_ok() && g.node(p).is_ok() {
                        let _ = g.set_parent(s, p);
                    }
                }
            }
            Op::Invoke { from, to, widen } => {
                if services.len() >= 2 {
                    let f = services[*from as usize % services.len()];
                    let t = services[*to as usize % services.len()];
                    if f != t && g.node(f).is_ok() && g.node(t).is_ok() {
                        if let Ok(e) =
                            g.add_invocation(f, t, vec![MethodSig::new("M", vec![], TypeRef::Unit)])
                        {
                            if *widen {
                                g.edge_mut(e).unwrap().visibility = Visibility::Global;
                            }
                        }
                    }
                }
            }
            Op::Modify { svc } => {
                if !services.is_empty() {
                    let s = services[*svc as usize % services.len()];
                    if g.node(s).is_ok() {
                        modc += 1;
                        let m = g
                            .add_node(Node::new(
                                format!("mod_{modc}"),
                                "mod.trace",
                                NodeRole::Modifier,
                                Granularity::Instance,
                            ))
                            .unwrap();
                        g.attach_modifier(s, m).unwrap();
                    }
                }
            }
            Op::RemoveService(i) => {
                if !services.is_empty() {
                    let s = services[*i as usize % services.len()];
                    if g.node(s).is_ok() {
                        let _ = g.remove_node(s);
                    }
                }
            }
        }
    }
    g
}

/// Any graph produced through the public API passes structural validation.
#[test]
fn structure_always_valid() {
    for case in 0..CASES {
        let g = graph(0x1e01, case);
        validate_structure(&g).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Visibility check only flags edges whose endpoints are in different
/// processes without widening — and never flags widened edges.
#[test]
fn visibility_violations_are_exactly_the_unwidened_cross_process_edges() {
    for case in 0..CASES {
        let g = graph(0x1e02, case);
        let expected = g
            .edges()
            .filter(|(_, e)| !e.visibility.satisfies(g.required_visibility(e.from, e.to)))
            .count();
        let flagged = check_visibility(&g).map_or_else(|r| r.violations.len(), |()| 0);
        assert_eq!(flagged, expected, "case {case}");
    }
}

/// Stats counters are consistent with direct recounts.
#[test]
fn stats_consistent() {
    for case in 0..CASES {
        let g = graph(0x1e03, case);
        let st = stats::stats(&g);
        assert_eq!(st.nodes, g.node_count(), "case {case}");
        assert_eq!(st.edges, g.edge_count(), "case {case}");
        assert!(st.services + st.backends <= st.components, "case {case}");
        assert_eq!(
            st.invocation_edges,
            g.edges()
                .filter(|(_, e)| e.kind == blueprint_ir::EdgeKind::Invocation)
                .count(),
            "case {case}"
        );
    }
}

/// Reachability never escapes the live node set and always includes the start.
#[test]
fn reachable_is_live_and_rooted() {
    for case in 0..CASES {
        let g = graph(0x1e04, case);
        for start in g.live_node_ids() {
            let r = path::reachable(&g, start);
            assert_eq!(r[0], start, "case {case}");
            assert!(r.iter().all(|&n| g.node(n).is_ok()), "case {case}");
        }
    }
}

/// Removing every service leaves no dangling edges.
#[test]
fn mass_removal_leaves_no_edges() {
    for case in 0..CASES {
        let mut g = graph(0x1e05, case);
        for s in g.nodes_with_kind_prefix("workflow.service") {
            g.remove_node(s).unwrap();
        }
        let dangling = g
            .edges()
            .filter(|(_, e)| g.node(e.from).is_err() || g.node(e.to).is_err())
            .count();
        assert_eq!(dangling, 0, "case {case}");
        validate_structure(&g).unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
