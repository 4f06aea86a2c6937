//! BP012: a planned drainless restart whose gap nothing absorbs.
//!
//! The other rules judge the wiring alone; this one judges a wiring *and a
//! deployment plan* together ([`crate::LintConfig::restart_targets`] carries
//! the plan's restart steps). A drained rolling step is safe by
//! construction: the balancer rotates the replica out before it stops, so
//! in-flight work completes and new work never reaches it. A *drainless*
//! step (or a bare process-restart fault entry, which never drains) kills
//! in-flight work and — because nothing marks the replica unhealthy — keeps
//! receiving its share of traffic while the process is down. That gap is
//! absorbed only if a circuit breaker trips on the dead replica, or the
//! service has load-balanced siblings *and* callers retry (failing over to
//! a live replica). Absent both, the restart is a scheduled outage:
//! `ablation_reconfig`'s drainless arm measures exactly this spike.

use crate::context::LintContext;
use crate::diagnostic::{Diagnostic, Severity};
use crate::passes::{LintPass, Rule};

/// Rule metadata.
pub static RULE: Rule = Rule {
    id: "BP012",
    name: "drainless-restart-hazard",
    severity: Severity::Warn,
    summary: "a planned drainless restart of a service whose gap nothing absorbs \
              (no breaker, no retried LB sibling)",
    doc: "A drainless restart kills in-flight requests and leaves a \
          capacity gap nothing absorbs when the service has no circuit \
          breaker and no retried load-balanced sibling — callers see hard \
          errors for the whole restart window. Fix: drain before \
          restarting, or add a breaker / retried LB sibling to absorb the \
          gap.",
};

/// The pass. One finding per hazardous restart target, in plan order.
pub struct RestartHazard;

impl LintPass for RestartHazard {
    fn rules(&self) -> Vec<&'static Rule> {
        vec![&RULE]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for t in &ctx.config.restart_targets {
            if !t.drainless {
                continue; // Drained steps rotate the replica out first.
            }
            // Unknown names are the simulator's job: its one change
            // resolver rejects them, with suggestions, when a plan boots.
            let Some(node) = ctx.ir.by_name(&t.service) else {
                continue;
            };
            if ctx.breaker_on(node) {
                continue;
            }
            let siblings = ctx.lb_siblings(node);
            let retried = ctx.attempts_into(node) > 1.0;
            if siblings > 0 && retried {
                continue; // Retries fail the gap over to a live sibling.
            }
            let gap = if siblings == 0 {
                "it has no load-balanced sibling to absorb the gap".to_string()
            } else {
                format!(
                    "its {siblings} sibling(s) cannot absorb the gap because \
                     callers never retry"
                )
            };
            out.push(
                Diagnostic::new(
                    &RULE,
                    format!(
                        "drainless restart of service {}: in-flight work dies and \
                         the replica keeps receiving traffic while down — {gap}",
                        t.service
                    ),
                )
                .fix(
                    "drain before restarting (drainless: false), or attach a \
                     circuit breaker / replicate the service behind a balancer \
                     with retrying callers",
                )
                .node(node.to_string(), t.service.clone()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{LintConfig, Linter};
    use blueprint_ir::{Granularity, IrGraph, Node, NodeRole};
    use blueprint_wiring::WiringSpec;

    fn modifier(ir: &mut IrGraph, name: &str, kind: &str, target: blueprint_ir::NodeId) {
        let m = ir
            .add_node(Node::new(
                name,
                kind,
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(target, m).unwrap();
    }

    /// `front -> b`, optionally via an LB with a sibling, optionally with
    /// retries on `b`.
    fn app(replicated: bool, retries: i64) -> (IrGraph, WiringSpec) {
        let mut ir = IrGraph::new("t");
        let front = ir
            .add_component("front", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = ir
            .add_component("b", "workflow.service", Granularity::Instance)
            .unwrap();
        if replicated {
            let b1 = ir
                .add_component("b_r1", "workflow.service", Granularity::Instance)
                .unwrap();
            let lb = ir
                .add_component("b_lb", "component.loadbalancer", Granularity::Instance)
                .unwrap();
            ir.add_invocation(front, lb, vec![]).unwrap();
            ir.add_invocation(lb, b, vec![]).unwrap();
            ir.add_invocation(lb, b1, vec![]).unwrap();
        } else {
            ir.add_invocation(front, b, vec![]).unwrap();
        }
        if retries > 0 {
            let m = ir
                .add_node(Node::new(
                    "b_retry",
                    "mod.retry",
                    NodeRole::Modifier,
                    Granularity::Instance,
                ))
                .unwrap();
            ir.node_mut(m).unwrap().props.set("max", retries);
            ir.attach_modifier(b, m).unwrap();
        }
        (ir, WiringSpec::new("t"))
    }

    fn bp012(cfg: LintConfig, ir: &IrGraph, w: &WiringSpec) -> Vec<crate::Diagnostic> {
        Linter::new(cfg)
            .run(ir, w)
            .into_iter()
            .filter(|d| d.rule == "BP012")
            .collect()
    }

    #[test]
    fn drainless_restart_with_nothing_to_absorb_is_flagged() {
        let (ir, w) = app(false, 0);
        let diags = bp012(
            LintConfig::default().with_restart_target("b", true),
            &ir,
            &w,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("no load-balanced sibling"));
    }

    #[test]
    fn unretried_siblings_do_not_absorb_the_gap() {
        // The dead replica stays in rotation; without retries its share of
        // the traffic dies even though siblings exist.
        let (ir, w) = app(true, 0);
        let diags = bp012(
            LintConfig::default().with_restart_target("b", true),
            &ir,
            &w,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("callers never retry"));
    }

    #[test]
    fn drained_steps_breakers_and_retried_siblings_are_silent() {
        // Drained step: safe by construction.
        let (ir, w) = app(false, 0);
        let cfg = LintConfig::default().with_restart_target("b", false);
        assert!(bp012(cfg, &ir, &w).is_empty());

        // Breaker on the target absorbs the gap.
        let (mut ir, w) = app(false, 0);
        let b = ir.by_name("b").unwrap();
        modifier(&mut ir, "b_breaker", "mod.breaker", b);
        let cfg = LintConfig::default().with_restart_target("b", true);
        assert!(bp012(cfg, &ir, &w).is_empty());

        // LB sibling + retrying callers fail over.
        let (ir, w) = app(true, 2);
        let cfg = LintConfig::default().with_restart_target("b", true);
        assert!(bp012(cfg, &ir, &w).is_empty());

        // No plan, no findings — the rule is plan-relative.
        let (ir, w) = app(false, 0);
        assert!(bp012(LintConfig::default(), &ir, &w).is_empty());

        // Unknown target names are the simulator's validation to reject.
        let (ir, w) = app(false, 0);
        let cfg = LintConfig::default().with_restart_target("nope", true);
        assert!(bp012(cfg, &ir, &w).is_empty());
    }
}
