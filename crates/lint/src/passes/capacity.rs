//! BP013–BP015: analytic capacity and latency-feasibility rules.
//!
//! All three consume the [`crate::model`] capacity model, so they need the
//! workflow spec (`Linter::run_with_workflow`); without it the pass is
//! silent. The model computes every quantity twice — an optimistic
//! (base-demand) and a pessimistic (full-demand) variant — so the
//! simulator's measured saturation knee is bracketed:
//!
//! * **BP013 capacity-saturation** denies when a machine's *optimistic*
//!   utilization reaches 1 at the declared target rate (even the
//!   best-case model saturates), and warns when the *pessimistic*
//!   utilization crosses the latency curve's knee ([`UTILIZATION_KNEE`]).
//! * **BP014 infeasible-timeout** denies when a service's timeout/deadline
//!   budget is below the *optimistic unloaded* sojourn of a method (the
//!   timeout cannot be met even on an idle cluster), and warns when only
//!   the load-inflated estimate misses the budget.
//! * **BP015 autoscaler-ceiling** warns when a declared scaling ceiling
//!   (`LintConfig::scaling_limits`) still leaves the replica group's
//!   optimistic utilization at or above 1 at the peak rate.

use crate::context::LintContext;
use crate::diagnostic::{Diagnostic, Severity};
use crate::model::{Mode, Model};
use crate::passes::{LintPass, Rule};

/// BP013 metadata.
pub static RULE_SATURATION: Rule = Rule {
    id: "BP013",
    name: "capacity-saturation",
    severity: Severity::Deny,
    summary: "a machine saturates (analytic utilization >= 1) at the declared target rate",
    doc: "The analytic capacity model aggregates per-request CPU demand \
          (compute steps, backend op service times, serialization, tracing, \
          GC, retry amplification) onto machines via the deployment \
          placement, weighted by call-graph visit ratios. Deny: even the \
          optimistic (base-demand) model puts a machine at utilization >= 1 \
          at the declared target rate. Warn: the pessimistic (full-demand) \
          model crosses the 0.8 utilization knee. The bound is the \
          predicted saturating rate in rps — optimistic for denies (the \
          rate capacity certainly runs out by), pessimistic for warns (the \
          rate saturation may start at). Fix: add replicas of the busiest \
          service on the machine (Replicate), spread placement over more \
          machines, or shed load (LoadShed).",
};

/// BP014 metadata.
pub static RULE_TIMEOUT: Rule = Rule {
    id: "BP014",
    name: "infeasible-timeout",
    severity: Severity::Deny,
    summary: "a timeout/deadline budget below the analytic sojourn even unloaded",
    doc: "Compares each guarded service's timeout/deadline budget (smallest \
          of the Timeout and Deadline modifiers on its chain) against the \
          model's expected method latency: compute CPU, backend op \
          latencies, network round trips, and downstream calls, expected \
          over Branch probabilities and critical-path over Parallel \
          blocks. Deny: the optimistic unloaded estimate already exceeds \
          the budget — the timeout fires on every request even on an idle \
          cluster. Warn: the estimate fits unloaded but misses once CPU \
          queueing at the declared target rate inflates it. The bound is \
          the estimated sojourn in ms. Fix: raise the timeout above the \
          bound, or cut the method's critical path (cache the slow \
          backend, parallelize sequential calls).",
};

/// BP015 metadata.
pub static RULE_CEILING: Rule = Rule {
    id: "BP015",
    name: "autoscaler-ceiling",
    severity: Severity::Warn,
    summary: "max replicas still leave a replica group saturated at peak rate",
    doc: "For each declared scaling ceiling, computes the replica group's \
          utilization at the peak rate with max_replicas instances: \
          rho = rate x group_demand / (max_replicas x cores). Fires when \
          even the optimistic model keeps rho >= 1 — the autoscaler will \
          pin at its ceiling and the group saturates anyway. The bound is \
          the highest rate (rps) the ceiling can sustain. Fix: raise \
          max_replicas above rate x demand / cores, or cut per-request \
          demand on the group.",
};

/// The pass.
pub struct Capacity;

impl LintPass for Capacity {
    fn rules(&self) -> Vec<&'static Rule> {
        vec![&RULE_SATURATION, &RULE_TIMEOUT, &RULE_CEILING]
    }

    fn run(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(model) = Model::build(ctx) else {
            return Vec::new();
        };
        let mix = model.mix();
        if mix.is_empty() {
            return Vec::new();
        }
        let base = model.mix_demand(&mix, Mode::Optimistic);
        let full = model.mix_demand(&mix, Mode::Pessimistic);

        let mut out = Vec::new();
        let rps = ctx
            .config
            .traffic
            .as_ref()
            .map(|t| t.rps)
            .filter(|r| *r > 0.0);
        if let Some(rps) = rps {
            saturation(ctx, &model, &base, &full, rps, &mut out);
        }
        infeasible_timeout(ctx, &model, &base, rps, &mut out);
        ceiling(ctx, &model, &base, rps.unwrap_or(0.0), &mut out);
        out
    }
}

/// BP013 warns when a machine's pessimistic utilization at the target rate
/// reaches this fraction (the knee of the latency curve).
pub const UTILIZATION_KNEE: f64 = 0.8;

/// BP013: per-machine utilization at the target rate.
fn saturation(
    ctx: &LintContext<'_>,
    model: &Model<'_>,
    base: &crate::model::Demand,
    full: &crate::model::Demand,
    rps: f64,
    out: &mut Vec<Diagnostic>,
) {
    let u_base = model.host_utilization(base, rps);
    let u_full = model.host_utilization(full, rps);
    for (h, machine) in model.machines.iter().enumerate() {
        let deny = u_base[h] >= 1.0;
        let warm = u_full[h] >= UTILIZATION_KNEE;
        if !deny && !warm {
            continue;
        }
        // Busiest contributors on this machine, by pessimistic demand.
        let mut members: Vec<(String, f64, Option<blueprint_ir::NodeId>)> = full
            .by_service
            .iter()
            .chain(&full.by_backend)
            .filter(|(&n, _)| model.host_of(n) == h)
            .map(|(&n, &d)| (ctx.node_name(n), d, Some(n)))
            .collect();
        members.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        members.truncate(3);
        let top = members
            .iter()
            .map(|(name, d, _)| format!("{name} ({:.0}us/req)", d / 1000.0))
            .collect::<Vec<_>>()
            .join(", ");
        let (bound, verdict) = if deny {
            (model.host_knee_rps(base, h).unwrap_or(0.0), "saturates by")
        } else {
            (
                model.host_knee_rps(full, h).unwrap_or(0.0),
                "may saturate as early as",
            )
        };
        let mut d = Diagnostic::new(
            &RULE_SATURATION,
            format!(
                "machine {} runs at projected utilization {:.2} (optimistic {:.2}) \
                 at the declared {rps:.0} rps; {verdict} {bound:.0} rps; busiest: {top}",
                machine.name, u_full[h], u_base[h],
            ),
        )
        .fix(
            "add replicas of the busiest service (Replicate) so placement spreads \
             the demand, or shed load (LoadShed) to protect latency",
        )
        .bound(bound);
        if !deny {
            d.severity = Severity::Warn;
        }
        if let Some(m) = machine.node {
            d = d.node(m.to_string(), machine.name.clone());
        }
        for (name, _, node) in &members {
            if let Some(n) = node {
                d = d.node(n.to_string(), name.clone());
            }
        }
        out.push(d);
    }
}

/// BP014: budget vs analytic sojourn for every guarded service method.
fn infeasible_timeout(
    ctx: &LintContext<'_>,
    model: &Model<'_>,
    base: &crate::model::Demand,
    rps: Option<f64>,
    out: &mut Vec<Diagnostic>,
) {
    let unloaded = vec![1.0; model.machines.len()];
    let loaded = rps.map(|r| model.inflation_at(base, r));
    for s in ctx.services() {
        let budget_ms = match (ctx.timeout_into_ms(s), ctx.deadline_into_ms(s)) {
            (Some(t), Some(d)) => t.min(d),
            (Some(t), None) => t,
            (None, Some(d)) => d,
            (None, None) => continue,
        };
        let Ok(node) = ctx.ir.node(s) else { continue };
        let Some(imp) = node
            .props
            .str("impl")
            .and_then(|i| ctx.workflow.and_then(|wf| wf.service(i)))
        else {
            continue;
        };
        for method in imp.behaviors.keys() {
            let sojourn_ms = model.sojourn_ns(s, method, Mode::Optimistic, &unloaded) / 1e6;
            let loaded_ms = loaded
                .as_ref()
                .map(|infl| model.sojourn_ns(s, method, Mode::Optimistic, infl) / 1e6);
            let (deny, bound_ms) = if sojourn_ms > budget_ms {
                (true, sojourn_ms)
            } else if let Some(l) = loaded_ms.filter(|l| *l > budget_ms) {
                (false, l)
            } else {
                continue;
            };
            let tier = if deny {
                "even unloaded".to_string()
            } else {
                format!("once loaded at {:.0} rps", rps.unwrap_or(0.0))
            };
            let mut d = Diagnostic::new(
                &RULE_TIMEOUT,
                format!(
                    "{}.{method} has a {budget_ms:.0}ms timeout/deadline budget but an \
                     analytic sojourn of {bound_ms:.2}ms {tier}",
                    node.name,
                ),
            )
            .node(s.to_string(), node.name.clone())
            .fix(
                "raise the timeout above the predicted sojourn, or shorten the \
                 method's critical path (cache the slow backend, parallelize calls)",
            )
            .bound(bound_ms);
            if !deny {
                d.severity = Severity::Warn;
            }
            out.push(d);
        }
    }
}

/// BP015: declared scaling ceilings vs group demand at peak.
fn ceiling(
    ctx: &LintContext<'_>,
    model: &Model<'_>,
    base: &crate::model::Demand,
    peak_default: f64,
    out: &mut Vec<Diagnostic>,
) {
    for limit in &ctx.config.scaling_limits {
        let peak = limit.peak_rps.unwrap_or(peak_default);
        if peak <= 0.0 || limit.max_replicas == 0 {
            continue;
        }
        let members = model.group_members(&limit.service);
        let Some(&first) = members.first() else {
            continue; // unknown group: the simulator's own validation reports it
        };
        // Demand the group's current replica set executes per request; a
        // replica bump dilutes exactly this.
        let group_ns = model.group_demand_ns(base, &limit.service);
        if group_ns <= 0.0 {
            continue;
        }
        let cores = model.machines[model.host_of(first)].cores;
        let capacity_rps = limit.max_replicas as f64 * cores * 1e9 / group_ns;
        let rho = peak / capacity_rps;
        if rho < 1.0 {
            continue;
        }
        let mut d = Diagnostic::new(
            &RULE_CEILING,
            format!(
                "group {} at its scaling ceiling ({} replicas) still runs at \
                 utilization {rho:.2} at the {peak:.0} rps peak; ceiling sustains \
                 at most {capacity_rps:.0} rps",
                limit.service, limit.max_replicas,
            ),
        )
        .fix(
            "raise max_replicas above peak x demand / cores, or cut the group's per-request demand",
        )
        .bound(capacity_rps);
        for &m in &members {
            d = d.node(m.to_string(), ctx.node_name(m));
        }
        out.push(d);
    }
}

#[cfg(test)]
mod tests {
    use crate::{LintConfig, Linter, Severity};
    use blueprint_ir::types::{MethodSig, TypeRef};
    use blueprint_ir::{Granularity, IrGraph, Node, NodeRole};
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::{Behavior, KeyExpr, ServiceBuilder, ServiceInterface, WorkflowSpec};

    /// One 1-core machine hosting a frontend that burns `cpu_us` per
    /// request and reads a 400µs-latency db.
    fn fixture(cpu_us: u64) -> (IrGraph, WiringSpec, WorkflowSpec) {
        let mut wf = WorkflowSpec::new("t");
        wf.add_service(
            ServiceBuilder::new(
                "Frontend",
                ServiceInterface::new(
                    "FrontendIf",
                    vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
                ),
            )
            .dep_nosql("db")
            .method(
                "Handle",
                Behavior::build()
                    .compute(cpu_us * 1000, 0)
                    .db_read("db", KeyExpr::Entity)
                    .done(),
            )
            .done()
            .unwrap(),
        )
        .unwrap();

        let mut ir = IrGraph::new("t");
        let m0 = ir
            .add_namespace("machine_0", "namespace.machine", Granularity::Machine)
            .unwrap();
        ir.node_mut(m0).unwrap().props.set("cores", 1.0);
        let fe = ir
            .add_component("frontend", "workflow.service", Granularity::Instance)
            .unwrap();
        let db = ir
            .add_component("db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        ir.node_mut(db)
            .unwrap()
            .props
            .set("cpu_per_op_us", 15.0)
            .set("read_latency_us", 400.0)
            .set("client_op_us", 20.0);
        ir.node_mut(fe)
            .unwrap()
            .props
            .set("impl", "Frontend")
            .set("dep.db", "db");
        ir.add_invocation(fe, db, vec![]).unwrap();
        let pf = ir
            .add_namespace("proc_fe", "namespace.process", Granularity::Process)
            .unwrap();
        ir.set_parent(fe, pf).unwrap();
        ir.set_parent(pf, m0).unwrap();
        ir.set_parent(db, m0).unwrap();
        (ir, WiringSpec::new("t"), wf)
    }

    fn run(
        cfg: LintConfig,
        ir: &IrGraph,
        w: &WiringSpec,
        wf: &WorkflowSpec,
    ) -> Vec<crate::Diagnostic> {
        Linter::new(cfg).run_with_workflow(ir, w, Some(wf))
    }

    #[test]
    fn bp013_denies_past_saturation_and_stays_silent_with_headroom() {
        let (ir, w, wf) = fixture(1000); // 1ms/req on 1 core → ~1000 rps capacity
                                         // 2000 rps: optimistic utilization 2.0 → deny with the optimistic
                                         // saturating rate as the bound.
        let diags = run(LintConfig::default().with_target_rps(2000.0), &ir, &w, &wf);
        let d = diags.iter().find(|d| d.rule == "BP013").expect("fires");
        assert_eq!(d.severity, Severity::Deny);
        let bound = d.bound.unwrap();
        assert!((900.0..1000.0).contains(&bound), "{bound}"); // 1ms + 15µs db op
                                                              // 100 rps: well under the knee either way.
        let diags = run(LintConfig::default().with_target_rps(100.0), &ir, &w, &wf);
        assert!(diags.iter().all(|d| d.rule != "BP013"), "{diags:?}");
        // No declared traffic: rule disabled.
        let diags = run(LintConfig::default(), &ir, &w, &wf);
        assert!(diags.iter().all(|d| d.rule != "BP013"));
    }

    #[test]
    fn bp013_warns_between_knee_and_saturation() {
        let (ir, w, wf) = fixture(1000);
        // 850 rps: optimistic u = 0.86, pessimistic adds the 20µs driver
        // op → u ≈ 0.88 ≥ 0.8 knee, < 1 → warn.
        let diags = run(LintConfig::default().with_target_rps(850.0), &ir, &w, &wf);
        let d = diags.iter().find(|d| d.rule == "BP013").expect("fires");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("machine_0"));
        assert!(d.bound.unwrap() < 1000.0);
    }

    #[test]
    fn bp014_denies_unmeetable_timeout_and_accepts_feasible_one() {
        let (mut ir, w, wf) = fixture(100);
        let fe = ir.by_name("frontend").unwrap();
        let to = ir
            .add_node(Node::new(
                "fe_timeout",
                "mod.timeout",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        // Sojourn ≈ 0.1ms compute + 0.4ms db latency + 15µs db cpu. A
        // 0.3ms budget is unmeetable even unloaded.
        ir.node_mut(to).unwrap().props.set("ms", 0.3);
        ir.attach_modifier(fe, to).unwrap();
        let diags = run(LintConfig::default(), &ir, &w, &wf);
        let d = diags.iter().find(|d| d.rule == "BP014").expect("fires");
        assert_eq!(d.severity, Severity::Deny);
        assert!((0.5..0.6).contains(&d.bound.unwrap()), "{:?}", d.bound);
        assert!(d.message.contains("frontend.Handle"));

        // A 5ms budget fits.
        ir.node_mut(to).unwrap().props.set("ms", 5.0);
        let diags = run(LintConfig::default(), &ir, &w, &wf);
        assert!(diags.iter().all(|d| d.rule != "BP014"), "{diags:?}");
    }

    #[test]
    fn bp015_fires_when_ceiling_cannot_cover_peak() {
        let (ir, w, wf) = fixture(1000);
        // 1ms/req on 1 core: 3 replicas sustain ~3000 rps; a 5000 rps
        // peak exceeds the ceiling.
        let cfg = LintConfig::default()
            .with_target_rps(100.0)
            .with_scaling_limit("frontend", 3, Some(5000.0));
        let diags = run(cfg, &ir, &w, &wf);
        let d = diags.iter().find(|d| d.rule == "BP015").expect("fires");
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.bound, Some(3000.0)); // 3 replicas × 1 core / 1ms
                                           // A tall enough ceiling is silent.
        let cfg = LintConfig::default()
            .with_target_rps(100.0)
            .with_scaling_limit("frontend", 8, Some(5000.0));
        let diags = run(cfg, &ir, &w, &wf);
        assert!(diags.iter().all(|d| d.rule != "BP015"), "{diags:?}");
    }

    /// Byte-exact JSON snapshot of a quantitative-bound diagnostic: a
    /// compute-only service whose demand divides the core budget evenly,
    /// so every number in the output is exact.
    #[test]
    fn bp013_json_snapshot_with_bound() {
        let mut wf = WorkflowSpec::new("t");
        wf.add_service(
            ServiceBuilder::new(
                "Frontend",
                ServiceInterface::new(
                    "FrontendIf",
                    vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
                ),
            )
            .method("Handle", Behavior::build().compute(1_000_000, 0).done())
            .done()
            .unwrap(),
        )
        .unwrap();
        let mut ir = IrGraph::new("t");
        let m0 = ir
            .add_namespace("machine_0", "namespace.machine", Granularity::Machine)
            .unwrap();
        ir.node_mut(m0).unwrap().props.set("cores", 1.0);
        let fe = ir
            .add_component("frontend", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.node_mut(fe).unwrap().props.set("impl", "Frontend");
        let pf = ir
            .add_namespace("proc_fe", "namespace.process", Granularity::Process)
            .unwrap();
        ir.set_parent(fe, pf).unwrap();
        ir.set_parent(pf, m0).unwrap();
        let w = WiringSpec::new("t");
        let diags = run(LintConfig::default().with_target_rps(2000.0), &ir, &w, &wf);
        let bp013: Vec<_> = diags.into_iter().filter(|d| d.rule == "BP013").collect();
        let expected = format!(
            r#"[
  {{
    "rule": "BP013",
    "name": "capacity-saturation",
    "severity": "deny",
    "message": "machine machine_0 runs at projected utilization 2.00 (optimistic 2.00) at the declared 2000 rps; saturates by 1000 rps; busiest: frontend (1000us/req)",
    "fix": "add replicas of the busiest service (Replicate) so placement spreads the demand, or shed load (LoadShed) to protect latency",
    "bound": 1000,
    "nodes": [{{"id": "{m0}", "name": "machine_0"}}, {{"id": "{fe}", "name": "frontend"}}],
    "edges": []
  }}
]
"#
        );
        assert_eq!(crate::render_json(&bp013), expected);
    }

    #[test]
    fn capacity_rules_silent_without_workflow() {
        let (ir, w, _wf) = fixture(1000);
        let cfg = LintConfig::default()
            .with_target_rps(5000.0)
            .with_scaling_limit("frontend", 1, Some(5000.0));
        let diags = Linter::new(cfg).run(&ir, &w);
        assert!(diags
            .iter()
            .all(|d| !matches!(d.rule.as_str(), "BP013" | "BP014" | "BP015")));
    }
}
