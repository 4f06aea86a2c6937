//! What the matrix and cross-validation binaries
//! (`ablation_{faults,overload,reconfig,consistency}`, `lint_validation`,
//! `capacity_validation`) share, each piece defined once:
//!
//! * the mitigation arms as wiring mutations: the retry storm
//!   ([`retry_storm`]) and its circuit breaker ([`with_breaker`]), which
//!   `ablation_faults` runs and `lint_validation` lints and runs; the
//!   overload-protection arms ([`overload_arms`]), which `ablation_overload`
//!   runs over every Fig. 6 type and `lint_validation` lints over Type 1;
//!   and the consistency arms ([`consistency_arms`]), which
//!   `ablation_consistency` runs and `lint_validation` lints;
//! * the fault matrix's workload ([`fault_cfg`]) and its `search crash 2s`
//!   scenario ([`search_crash`]), built on [`mid_run_fault`];
//! * [`compile_arms`], the compile step from labelled wirings to systems;
//! * the conservation check and cell lookup over a finished matrix.
//!
//! The Fig. 6 metastability types the overload matrix crosses with its arms
//! are defined once in [`crate::figures::fig6`], one constructor per type.

use blueprint_apps::{hotel_reservation as hr, social_network as sn, WiringOpts};
use blueprint_simrt::time::secs;
use blueprint_simrt::{Fault, FaultPlan, SystemSpec};
use blueprint_wiring::{mutate, Arg, WiringSpec};
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::generator::Phase;
use blueprint_workload::resilience::{CellReport, ResilienceConfig, Scenario};

/// Compiles labelled wirings of one workflow for simulation, in order.
pub fn compile_arms(
    workflow: &WorkflowSpec,
    arms: Vec<(&str, WiringSpec)>,
) -> Vec<(String, SystemSpec)> {
    arms.into_iter()
        .map(|(label, wiring)| {
            let app = crate::figures::compile(workflow, &wiring);
            (label.to_string(), app.system().clone())
        })
        .collect()
}

/// The retry-storm arm: HotelReservation under `opts` with 10 retries at
/// every hop and exponential backoff (base 2, capped at 50 ms) set through
/// the Retry plugin's kwargs, and nothing capping them.
pub fn retry_storm(opts: WiringOpts) -> WiringSpec {
    let mut w = hr::wiring(&WiringOpts {
        retries: 10,
        ..opts
    });
    mutate::set_kwarg(&mut w, "retry_all", "exp_base", Arg::Float(2.0)).expect("exp_base");
    mutate::set_kwarg(&mut w, "retry_all", "max_backoff_ms", Arg::Int(50)).expect("max_backoff_ms");
    w
}

/// Adds a circuit breaker to every service (one declaration, attached to
/// all — the UC3 2-line mutation): it opens at a 0.5 failure rate over a
/// 50-call window, stays open 500 ms and closes after 3 good probes.
pub fn with_breaker(mut w: WiringSpec) -> WiringSpec {
    mutate::attach_policy_to_all_services(
        &mut w,
        "breaker",
        "CircuitBreaker",
        vec![
            ("threshold", Arg::Float(0.5)),
            ("window", Arg::Int(50)),
            ("open_ms", Arg::Int(500)),
            ("probes", Arg::Int(3)),
        ],
    )
    .expect("breaker mutation");
    w
}

/// Budget ratio of the retry-budget arms: a budgeted arm's hop-level wire
/// amplification stays at most `1 + BUDGET_RATIO`.
pub const BUDGET_RATIO: f64 = 0.2;

/// The overload-protection arms over an unmitigated wiring, each one
/// mutation away from it, labelled: `none` (unchanged), `deadline`
/// (propagated 1 s deadlines, 2 ms hop margin), `retry-budget` (a token
/// bucket at [`BUDGET_RATIO`]), `shed` (adaptive admission at a 50 ms
/// sojourn target) and `all` (the three combined through
/// `mutate::attach_overload_protection`).
pub fn overload_arms(unmitigated: &WiringSpec) -> Vec<(&'static str, WiringSpec)> {
    let policy = |name: &str, callee: &str, kwargs: Vec<(&str, Arg)>| {
        let mut w = unmitigated.clone();
        mutate::attach_policy_to_all_services(&mut w, name, callee, kwargs)
            .unwrap_or_else(|e| panic!("{callee} mutation: {e}"));
        w
    };
    let mut all = unmitigated.clone();
    mutate::attach_overload_protection(&mut all, 1_000.0, BUDGET_RATIO, 50.0)
        .expect("combined mutation");
    vec![
        ("none", unmitigated.clone()),
        (
            "deadline",
            policy(
                "deadline_all",
                "Deadline",
                vec![("ms", Arg::Int(1_000)), ("margin_ms", Arg::Int(2))],
            ),
        ),
        (
            "retry-budget",
            policy(
                "budget_all",
                "RetryBudget",
                vec![("ratio", Arg::Float(BUDGET_RATIO))],
            ),
        ),
        (
            "shed",
            policy("shed_all", "LoadShed", vec![("target_ms", Arg::Int(50))]),
        ),
        ("all", all),
    ]
}

/// Replication lag bounds of the consistency arms, ms (quorum writes pay up
/// to the max as ack latency, so this also bounds the quorum arm's write
/// surcharge).
pub const CONSISTENCY_LAG_MS: (i64, i64) = (100, 400);

/// The consistency matrix's arms over the replicated SocialNetwork
/// (direct-timeline variant, 2 `ut_db` replicas), labelled: `read-replica`
/// (the unguarded default), `quorum-w2-r2` and `session`. They share one
/// topology and differ only by the `ut_db` consistency mode, one wiring
/// line. Pair them with [`sn::workflow_direct_timeline`].
pub fn consistency_arms() -> Vec<(&'static str, WiringSpec)> {
    let opts = WiringOpts::default().without_tracing();
    let (lo, hi) = CONSISTENCY_LAG_MS;
    [
        ("read-replica", "read_replica", None),
        ("quorum-w2-r2", "quorum", Some((2, 2))),
        ("session", "session", None),
    ]
    .into_iter()
    .map(|(label, mode, quorum)| {
        let w = sn::wiring_direct_timeline(&opts, lo, hi, mode, quorum);
        (label, w)
    })
    .collect()
}

/// Offered load of the fault matrix, requests/second.
pub const FAULT_RPS: f64 = 1_500.0;

/// The fault matrix's workload: HotelReservation at [`FAULT_RPS`] for
/// `duration_s`, seed 41, a 3 s RTO.
pub fn fault_cfg(duration_s: u64) -> ResilienceConfig {
    ResilienceConfig {
        phases: vec![Phase::new(duration_s, FAULT_RPS)],
        entities: hr::ENTITIES,
        seed: 41,
        rto_ns: secs(3),
        ..Default::default()
    }
}

/// The fault matrix's crash: the search process dies mid-run and restarts
/// 2 s later.
pub fn search_crash(duration_s: u64) -> Scenario {
    let crash = Fault::ProcessCrash {
        process: "proc_search".into(),
        restart_delay_ns: secs(2),
    };
    mid_run_fault("search crash 2s", duration_s, crash)
}

/// One 2 s fault injected at 40% of a `duration_s` run, so the steady state
/// is visible on both sides of the outage; the judged window is the 2 s.
pub fn mid_run_fault(name: &str, duration_s: u64, fault: Fault) -> Scenario {
    let mid = secs(duration_s * 2 / 5);
    Scenario {
        name: name.to_string(),
        faults: FaultPlan::none().at(mid, fault),
        window: (mid, mid + secs(2)),
        ..Scenario::baseline()
    }
}

/// Panics unless every cell terminated each submitted request exactly once.
pub fn assert_conserved(cells: &[CellReport]) {
    for c in cells {
        assert!(
            c.conservation.holds(),
            "conservation violated in [{} × {}]: {}",
            c.variant,
            c.scenario,
            c.conservation
        );
    }
}

/// The `(variant, scenario)` cell of a matrix.
pub fn cell<'a>(cells: &'a [CellReport], variant: &str, scenario: &str) -> &'a CellReport {
    cells
        .iter()
        .find(|c| c.variant == variant && c.scenario == scenario)
        .unwrap_or_else(|| panic!("cell [{variant} × {scenario}] present"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_simrt::time::ms;
    use blueprint_simrt::{BreakerSpec, ClientSpec, DepBinding};
    use std::collections::BTreeSet;

    /// Compiles a HotelReservation arm and returns the lowered client of
    /// every call into a service (each service-to-service dependency and
    /// each entry), after checking that every service has at least one.
    fn inbound_clients(wiring: WiringSpec) -> Vec<ClientSpec> {
        let (_, system) = compile_arms(&hr::workflow(), vec![("arm", wiring)]).remove(0);
        let mut callees = BTreeSet::new();
        let mut clients = Vec::new();
        for dep in system.services.iter().flat_map(|s| s.deps.values()) {
            let targets = match dep {
                DepBinding::Service { target, .. } => vec![*target],
                DepBinding::ReplicatedService { targets, .. } => targets.clone(),
                DepBinding::Backend { .. } => continue,
            };
            callees.extend(targets);
            clients.push(dep.client().clone());
        }
        for entry in system.entries.values() {
            callees.insert(entry.service);
            clients.push(entry.client.clone());
        }
        assert_eq!(
            callees.len(),
            system.services.len(),
            "every service is called"
        );
        clients
    }

    fn assert_retry_storm(c: &ClientSpec) {
        assert_eq!(c.retries, 10, "{c:?}");
        let exp = c.backoff_exp.as_ref().expect("exponential backoff");
        assert_eq!((exp.base, exp.max_ns), (2.0, ms(50)), "{c:?}");
    }

    /// The shared arms lower to the client policies their docs state, on
    /// every HotelReservation service: a change to an arm shows here, not
    /// only as a moved exhibit.
    #[test]
    fn shared_arms_lower_to_their_stated_policies() {
        let base = WiringOpts::default().without_tracing();
        for c in inbound_clients(retry_storm(base)) {
            assert_retry_storm(&c);
            assert_eq!(c.breaker, None);
        }
        let breaker = BreakerSpec {
            window: 50,
            failure_threshold: 0.5,
            open_ns: ms(500),
            half_open_probes: 3,
        };
        for c in inbound_clients(with_breaker(retry_storm(base))) {
            assert_retry_storm(&c);
            assert_eq!(c.breaker.as_ref(), Some(&breaker));
        }

        let type1 = crate::figures::fig6::meta_cases().swap_remove(0).wiring;
        for (label, wiring) in overload_arms(&type1) {
            let budgeted = matches!(label, "retry-budget" | "all");
            for c in inbound_clients(wiring) {
                assert_eq!(c.retries, 10, "[{label}] {c:?}");
                let ratio = c.retry_budget.as_ref().map(|b| b.ratio);
                assert_eq!(ratio, budgeted.then_some(BUDGET_RATIO), "[{label}] {c:?}");
                let deadline = c.deadline.as_ref().and_then(|d| d.budget_ns);
                let deadlined = matches!(label, "deadline" | "all");
                assert_eq!(deadline, deadlined.then_some(ms(1_000)), "[{label}] {c:?}");
            }
        }
    }
}
