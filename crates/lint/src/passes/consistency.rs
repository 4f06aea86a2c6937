//! BP016/BP017: replicated-store consistency hazards.
//!
//! * **BP016 stale-read-hazard** — a store with read replicas and a nonzero
//!   asynchronous replication lag serving reads in the unguarded
//!   `read_replica` discipline (the historical default) while the workflow
//!   holds a read-after-write path through it. A read landing on a lagging
//!   replica inside the lag window observes the pre-write version — the
//!   §6.2.2 cross-system inconsistency `ablation_consistency` measures as
//!   stale reads. The fix is one wiring line: `attach_session_consistency`
//!   (read-your-writes floor) or `set_store_consistency(..., "quorum", ..)`
//!   (overlapping read/write quorums).
//! * **BP017 failover-lost-write** — like BP012 this rule judges a wiring
//!   *and a plan* together ([`crate::LintConfig::restart_targets`] carries
//!   the fault/restart steps): an asynchronously replicated store whose
//!   process the plan kills, with an effective write quorum below 2. Every
//!   write acked inside the replication-lag window right before the kill
//!   exists only on the dying primary; the election promotes a replica that
//!   never saw it, so the ack was a lie. `ablation_consistency`'s
//!   primary-crash column measures exactly this loss. The fix is
//!   `set_store_consistency(..., "quorum", (2, r))`: a w=2 write is on a
//!   surviving member before it is acked.

use blueprint_ir::deploy::{self, DepTarget};
use blueprint_ir::NodeId;
use blueprint_workflow::{Behavior, DbOp, Step};

use crate::context::{kind, LintContext};
use crate::diagnostic::{Diagnostic, Severity};
use crate::passes::{LintPass, Rule};

/// BP016 metadata.
pub static RULE_STALE: Rule = Rule {
    id: "BP016",
    name: "stale-read-hazard",
    severity: Severity::Warn,
    summary: "a read-after-write path through an async-replicated store with \
              no session or quorum guarantee",
    doc: "A store with read replicas and asynchronous replication lag serves \
          replica reads with no session or quorum guarantee: a read issued \
          within the lag window after an acked write observes the pre-write \
          version (a stale read). Fix: attach_session_consistency for a \
          read-your-writes floor, or set_store_consistency(.., \"quorum\", \
          (w, r)) so read and write quorums overlap.",
};

/// BP017 metadata.
pub static RULE_LOST: Rule = Rule {
    id: "BP017",
    name: "failover-lost-write",
    severity: Severity::Warn,
    summary: "a fault/restart plan kills an async-replicated store whose \
              effective write quorum is below 2",
    doc: "A fault or restart plan kills the serving process of an \
          asynchronously replicated store whose writes are acked by the \
          primary alone (effective w < 2). Writes still inside the \
          replication-lag window die with the primary; the failover promotes \
          a replica that never saw them, so acknowledged writes are lost. \
          Fix: set_store_consistency(.., \"quorum\", (2, r)) so every acked \
          write is on a surviving member before the ack.",
};

/// One replicated store's consistency-relevant wiring facts.
struct StoreFacts {
    node: NodeId,
    name: String,
    replicas: i64,
    lag_min_ms: i64,
    lag_max_ms: i64,
    mode: String,
    quorum_w: i64,
}

/// Replicated stores (replicas >= 1) with their lowered consistency props,
/// id-ascending. Mirrors `store_consistency` in the backend plugins: a
/// missing `consistency` prop means the historical `read_replica`.
fn replicated_stores(ctx: &LintContext<'_>) -> Vec<StoreFacts> {
    let mut out = Vec::new();
    for prefix in kind::BROWNOUT_PRONE {
        for b in ctx.ir.nodes_with_kind_prefix(prefix) {
            let Ok(n) = ctx.ir.node(b) else { continue };
            let replicas = n.props.int_or("replicas", 0);
            if replicas < 1 {
                continue;
            }
            out.push(StoreFacts {
                node: b,
                name: n.name.clone(),
                replicas,
                lag_min_ms: n.props.int_or("lag_min_ms", 0),
                lag_max_ms: n.props.int_or("lag_max_ms", 0),
                mode: n
                    .props
                    .str("consistency")
                    .unwrap_or("read_replica")
                    .to_string(),
                quorum_w: n.props.int_or("quorum_w", 2),
            });
        }
    }
    out.sort_by_key(|s| s.node);
    out
}

/// The effective number of members that must hold a write before it is
/// acked: the write quorum in quorum mode, the primary alone otherwise
/// (primary/read_replica/session all ack on the primary's commit and
/// replicate asynchronously).
fn effective_w(s: &StoreFacts) -> i64 {
    if s.mode == "quorum" {
        s.quorum_w.max(1)
    } else {
        1
    }
}

/// Collects `(dep, is_write)` for every `Db` step in a behavior, including
/// steps nested under branches, repeats, parallel blocks, and cache-miss
/// paths.
fn db_ops(behavior: &Behavior, out: &mut Vec<(String, bool)>) {
    for step in &behavior.steps {
        match step {
            Step::Db { dep, op, .. } => {
                out.push((dep.clone(), matches!(op, DbOp::Write)));
            }
            Step::Parallel(branches) => {
                for b in branches {
                    db_ops(b, out);
                }
            }
            Step::Branch {
                then, otherwise, ..
            } => {
                db_ops(then, out);
                db_ops(otherwise, out);
            }
            Step::Repeat { body, .. } => db_ops(body, out),
            Step::CacheGetOrFetch { on_miss, .. } => db_ops(on_miss, out),
            _ => {}
        }
    }
}

/// Whether the workflow holds both a write path and a read path into the
/// store (the precondition for a read-after-write anomaly). `None` when the
/// context has no workflow — the caller then falls back to the conservative
/// structural answer.
fn read_after_write_path(ctx: &LintContext<'_>, store: NodeId) -> Option<bool> {
    let wf = ctx.workflow?;
    let (mut reads, mut writes) = (false, false);
    for s in ctx.services() {
        let Ok(n) = ctx.ir.node(s) else { continue };
        let Some(imp) = n.props.str("impl").and_then(|i| wf.service(i)) else {
            continue;
        };
        for behavior in imp.behaviors.values() {
            let mut ops = Vec::new();
            db_ops(behavior, &mut ops);
            for (dep, is_write) in ops {
                if deploy::dep_target(ctx.ir, s, &dep) == Ok(Some(DepTarget::Direct(store))) {
                    if is_write {
                        writes = true;
                    } else {
                        reads = true;
                    }
                }
            }
        }
    }
    Some(reads && writes)
}

/// The pass.
pub struct StoreConsistency;

impl LintPass for StoreConsistency {
    fn rules(&self) -> Vec<&'static Rule> {
        vec![&RULE_STALE, &RULE_LOST]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let stores = replicated_stores(ctx);

        // BP016: unguarded replica reads under asynchronous lag, with a
        // read-after-write path through the store. Without behavior
        // programs the path check degrades to "is the store invoked at
        // all" — conservative, like every structural rule here.
        for s in &stores {
            if s.mode != "read_replica" || s.lag_max_ms <= 0 {
                continue;
            }
            let raw = read_after_write_path(ctx, s.node)
                .unwrap_or_else(|| !ctx.ir.in_edges(s.node).is_empty());
            if !raw {
                continue;
            }
            out.push(
                Diagnostic::new(
                    &RULE_STALE,
                    format!(
                        "store `{}` serves replica reads ({} replicas, {}-{} ms \
                         async lag) on a read-after-write path with no session \
                         or quorum guarantee: reads inside the lag window \
                         observe stale data",
                        s.name, s.replicas, s.lag_min_ms, s.lag_max_ms
                    ),
                )
                .node(s.node.to_string(), s.name.clone())
                .bound(s.lag_max_ms as f64)
                .fix(format!(
                    "attach_session_consistency(\"{}\") for read-your-writes, \
                     or set_store_consistency(\"{}\", \"quorum\", (2, 2)) for \
                     overlapping quorums",
                    s.name, s.name
                )),
            );
        }

        // BP017: the plan kills a store whose acks cover the primary alone.
        // A restart loses the window whether or not it drains — draining
        // stops request traffic, not in-flight replication.
        for t in &ctx.config.restart_targets {
            let Some(s) = stores.iter().find(|s| s.name == t.service) else {
                continue;
            };
            if s.lag_max_ms <= 0 {
                continue;
            }
            let w = effective_w(s);
            if w >= 2 {
                continue;
            }
            out.push(
                Diagnostic::new(
                    &RULE_LOST,
                    format!(
                        "the plan kills store `{}` ({} async replicas, {}-{} ms \
                         lag) whose writes are acked at w={w}: writes inside \
                         the lag window die with the primary and the failover \
                         promotes a replica that never saw them",
                        s.name, s.replicas, s.lag_min_ms, s.lag_max_ms
                    ),
                )
                .node(s.node.to_string(), s.name.clone())
                .bound(s.lag_max_ms as f64)
                .fix(format!(
                    "set_store_consistency(\"{}\", \"quorum\", (2, 2)) so every \
                     acked write is on a surviving member",
                    s.name
                )),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{LintConfig, Linter};
    use blueprint_ir::types::{MethodSig, TypeRef};
    use blueprint_ir::{Granularity, IrGraph};
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::{Behavior, KeyExpr, ServiceBuilder, ServiceInterface, WorkflowSpec};

    /// svc -> db, `db` replicated with async lag; consistency mode settable
    /// via props (mirroring the backend plugins' kwarg lowering).
    fn app(mode: Option<&str>, quorum_w: i64) -> (IrGraph, WiringSpec) {
        let mut ir = IrGraph::new("t");
        let svc = ir
            .add_component("svc", "workflow.service", Granularity::Instance)
            .unwrap();
        let db = ir
            .add_component("db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        ir.add_invocation(svc, db, vec![]).unwrap();
        {
            let props = &mut ir.node_mut(db).unwrap().props;
            props.set("replicas", 2i64);
            props.set("lag_min_ms", 50i64);
            props.set("lag_max_ms", 700i64);
            if let Some(m) = mode {
                props.set("consistency", m);
                if m == "quorum" {
                    props.set("quorum_w", quorum_w);
                    props.set("quorum_r", 2i64);
                }
            }
        }
        ir.node_mut(svc)
            .unwrap()
            .props
            .set("impl", "Svc")
            .set("dep.db", "db");
        (ir, WiringSpec::new("t"))
    }

    /// A workflow whose single service reads and writes `db`.
    fn wf(reads: bool, writes: bool) -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("t");
        let mut b = Behavior::build();
        if writes {
            b = b.db_write("db", KeyExpr::Entity);
        }
        if reads {
            b = b.db_read("db", KeyExpr::Entity);
        }
        wf.add_service(
            ServiceBuilder::new(
                "Svc",
                ServiceInterface::new("SvcIf", vec![MethodSig::new("M", vec![], TypeRef::Unit)]),
            )
            .dep_nosql("db")
            .method("M", b.done())
            .done()
            .unwrap(),
        )
        .unwrap();
        wf
    }

    fn findings(
        cfg: LintConfig,
        ir: &IrGraph,
        w: &WiringSpec,
        wf: Option<&WorkflowSpec>,
        rule: &str,
    ) -> Vec<crate::Diagnostic> {
        Linter::new(cfg)
            .run_with_workflow(ir, w, wf)
            .into_iter()
            .filter(|d| d.rule == rule)
            .collect()
    }

    #[test]
    fn unguarded_replicated_store_fires_bp016() {
        let (ir, w) = app(None, 0);
        let wf = wf(true, true);
        let diags = findings(LintConfig::default(), &ir, &w, Some(&wf), "BP016");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].nodes[0].name, "db");
        assert_eq!(diags[0].bound, Some(700.0));
        assert!(diags[0].fix.contains("attach_session_consistency"));

        // The explicit read_replica label is the same hazard, named.
        let (ir, w) = app(Some("read_replica"), 0);
        assert_eq!(
            findings(LintConfig::default(), &ir, &w, Some(&wf), "BP016").len(),
            1
        );
    }

    #[test]
    fn guarded_modes_and_unreplicated_stores_are_bp016_clean() {
        let wf = wf(true, true);
        for mode in ["session", "quorum", "primary"] {
            let (ir, w) = app(Some(mode), 2);
            let diags = findings(LintConfig::default(), &ir, &w, Some(&wf), "BP016");
            assert!(diags.is_empty(), "{mode}: {diags:?}");
        }
        // No replicas, no replica reads, no staleness.
        let (mut ir, w) = app(None, 0);
        let db = ir.by_name("db").unwrap();
        ir.node_mut(db).unwrap().props.set("replicas", 0i64);
        assert!(findings(LintConfig::default(), &ir, &w, Some(&wf), "BP016").is_empty());
        // Synchronous replication (zero lag) cannot serve stale reads.
        let (mut ir, w) = app(None, 0);
        let db = ir.by_name("db").unwrap();
        ir.node_mut(db).unwrap().props.set("lag_max_ms", 0i64);
        assert!(findings(LintConfig::default(), &ir, &w, Some(&wf), "BP016").is_empty());
    }

    #[test]
    fn bp016_needs_a_read_after_write_path_when_behaviors_are_known() {
        // Write-only and read-only workloads cannot observe their own
        // staleness; the rule stays silent when the programs prove it.
        let (ir, w) = app(None, 0);
        for (reads, writes) in [(true, false), (false, true)] {
            let wf = wf(reads, writes);
            let diags = findings(LintConfig::default(), &ir, &w, Some(&wf), "BP016");
            assert!(diags.is_empty(), "reads={reads} writes={writes}: {diags:?}");
        }
        // Without behavior programs the check degrades conservatively:
        // an invoked unguarded store fires.
        assert_eq!(
            findings(LintConfig::default(), &ir, &w, None, "BP016").len(),
            1
        );
    }

    #[test]
    fn planned_kill_of_async_store_fires_bp017() {
        let (ir, w) = app(None, 0);
        let cfg = LintConfig::default().with_restart_target("db", false);
        let diags = findings(cfg, &ir, &w, None, "BP017");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("w=1"), "{diags:?}");
        assert!(diags[0].fix.contains("quorum"), "{diags:?}");

        // Session mode still acks on the primary alone — the plan hazard
        // stands even though BP016 is silenced.
        let (ir, w) = app(Some("session"), 0);
        let cfg = LintConfig::default().with_restart_target("db", true);
        assert_eq!(findings(cfg, &ir, &w, None, "BP017").len(), 1);
    }

    #[test]
    fn quorum_writes_and_planless_runs_are_bp017_clean() {
        // w=2: the write is on a surviving member before the ack.
        let (ir, w) = app(Some("quorum"), 2);
        let cfg = LintConfig::default().with_restart_target("db", false);
        assert!(findings(cfg, &ir, &w, None, "BP017").is_empty());

        // w=1 quorum is still primary-only acking.
        let (ir, w) = app(Some("quorum"), 1);
        let cfg = LintConfig::default().with_restart_target("db", false);
        assert_eq!(findings(cfg, &ir, &w, None, "BP017").len(), 1);

        // No plan, no findings — the rule is plan-relative.
        let (ir, w) = app(None, 0);
        assert!(findings(LintConfig::default(), &ir, &w, None, "BP017").is_empty());

        // A plan killing a service (not a store) is BP012's business.
        let (ir, w) = app(None, 0);
        let cfg = LintConfig::default().with_restart_target("svc", true);
        assert!(findings(cfg, &ir, &w, None, "BP017").is_empty());
    }
}
