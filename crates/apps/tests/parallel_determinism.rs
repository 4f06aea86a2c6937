//! Full-vector parallel determinism under the combined disturbance plan.
//!
//! The consistency matrix checks per-cell *reports* are byte-identical
//! across `BLUEPRINT_THREADS`; this test goes one level deeper on the
//! hardest single plan the replicated store faces — a replica partition,
//! a primary crash mid-partition, and a drained rolling restart of both
//! user-timeline replicas, all in one run — and asserts the **complete
//! completion vector** (every `Completion` field of every request, in
//! order) plus the failover outcome are identical when the runs execute
//! inline versus on parallel-engine worker threads, for two seeds.

use blueprint_apps::{social_network as sn, WiringOpts};
use blueprint_core::Blueprint;
use blueprint_simrt::time::{ms, secs, SimTime};
use blueprint_simrt::{
    Change, Completion, Fault, FaultPlan, ReconfigPlan, Sim, SimConfig, SystemSpec,
};
use blueprint_workload::resilience::{run_matrix, ConsistencyProbe, ResilienceConfig, Scenario};
use blueprint_workload::{
    par_run, ApiMix, ExperimentSpec, OpenLoopGen, OracleSpec, Phase, Threads,
};

const ENTITIES: u64 = 100;
const DURATION_S: u64 = 4;
const SEEDS: [u64; 2] = [17, 43];

/// The armed direct-timeline SocialNetwork in one consistency mode.
fn armed(mode: &str, quorum: Option<(i64, i64)>) -> SystemSpec {
    let wf = sn::workflow_direct_timeline();
    let opts = WiringOpts::default().without_tracing();
    let w = sn::wiring_direct_timeline(&opts, 100, 400, mode, quorum);
    let app = Blueprint::new().compile(&wf, &w).expect("arm compiles");
    let mut system = app.system().clone();
    sn::arm_ut_db_failover(&mut system, 50_000_000, 50_000_000).expect("failover arms");
    system
}

/// The name of the process serving `ut_db` at boot.
fn primary_process(system: &SystemSpec) -> String {
    let b = system
        .backends
        .iter()
        .find(|b| b.name == "ut_db")
        .expect("ut_db present");
    system.processes[b.process].name.clone()
}

/// Replica partition at 1s (healed at 2s), primary crash at 2s — mid
/// rolling restart — and both user-timeline replicas drained and restarted.
fn combined(system: &SystemSpec) -> Scenario {
    let primary = primary_process(system);
    let faults = FaultPlan::none()
        .at(
            secs(1),
            Fault::Partition {
                a: primary.clone(),
                b: "ut_db_replica_0".to_string(),
                duration_ns: secs(1),
            },
        )
        .at(
            secs(2),
            Fault::ProcessCrash {
                process: primary,
                restart_delay_ns: secs(10),
            },
        );
    let reconfig = ReconfigPlan::none()
        .at(
            ms(1500),
            Change::RollingRestart {
                service: "user_timeline_a".into(),
                drain_ns: ms(200),
                restart_ns: ms(100),
                drainless: false,
            },
        )
        .at(
            ms(2500),
            Change::RollingRestart {
                service: "user_timeline_b".into(),
                drain_ns: ms(200),
                restart_ns: ms(100),
                drainless: false,
            },
        );
    Scenario {
        name: "partition+crash+rolling".to_string(),
        faults,
        reconfig,
        ..Scenario::baseline()
    }
}

fn mix() -> ApiMix {
    ApiMix::new()
        .add("gateway", "ComposePost", 0.2)
        .add("gateway", "ReadUserTimeline", 0.8)
}

/// Runs the combined plan once and returns the full completion vector plus
/// the store's failover outcome (generation counter and final serving
/// process).
fn run_full(
    system: &SystemSpec,
    scenario: &Scenario,
    seed: u64,
) -> Result<(Vec<Completion>, u64, String), blueprint_simrt::SimError> {
    let mut sim = Sim::new(
        system,
        SimConfig {
            seed,
            faults: scenario.faults.clone(),
            reconfig: scenario.reconfig.clone(),
            ..Default::default()
        },
    )?;
    sim.store_fill("ut_db", ENTITIES, 1)?;
    let gen = OpenLoopGen::new(vec![Phase::new(DURATION_S, 250.0)], mix(), ENTITIES, seed);
    let exp = ExperimentSpec::new(gen).drain(secs(2));
    let (_, mut completions) = blueprint_workload::run_experiment_collecting(&mut sim, exp)?;
    // Settle so in-flight replication and the election have finished.
    let settle: SimTime = sim.now() + secs(2);
    sim.run_until(settle);
    completions.extend(sim.drain_completions());
    Ok((
        completions,
        sim.store_generation("ut_db")?,
        sim.store_serving_process("ut_db")?,
    ))
}

/// The full completion vector of the combined plan is identical when the
/// runs execute inline (`Threads::sequential`) and on parallel-engine
/// worker threads (`Threads::new(4)`), for both seeds, in every
/// consistency mode — and the plan really does everything it says: the
/// crash elects a replica primary.
#[test]
fn combined_plan_full_vector_identical_across_thread_counts() {
    for (mode, quorum) in [("read_replica", None), ("quorum", Some((2, 2)))] {
        let system = armed(mode, quorum);
        let scenario = combined(&system);
        let seq = par_run(SEEDS.len(), Threads::sequential(), |i| {
            run_full(&system, &scenario, SEEDS[i])
        })
        .expect("sequential runs");
        let par = par_run(SEEDS.len(), Threads::new(4), |i| {
            run_full(&system, &scenario, SEEDS[i])
        })
        .expect("parallel runs");
        assert_eq!(
            seq, par,
            "[{mode}] full vectors diverge across thread counts"
        );
        for (i, (completions, generation, serving)) in seq.iter().enumerate() {
            assert!(
                completions.len() as f64 > DURATION_S as f64 * 250.0 * 0.9,
                "[{mode} seed {}] most requests must complete, got {}",
                SEEDS[i],
                completions.len()
            );
            assert!(
                *generation >= 1,
                "[{mode} seed {}] the crash must elect a new primary",
                SEEDS[i]
            );
            assert!(
                serving.starts_with("ut_db_replica_"),
                "[{mode} seed {}] a replica must be serving, got `{serving}`",
                SEEDS[i]
            );
        }
    }
}

/// The consistency-matrix layer over the same combined plan: cell reports
/// (conservation, anomaly classes, failovers, audits) are equal between
/// sequential and 4-thread execution for both seeds.
#[test]
fn combined_plan_cell_reports_identical_across_thread_counts() {
    let variants = vec![
        ("read-replica".to_string(), armed("read_replica", None)),
        ("quorum-w2-r2".to_string(), armed("quorum", Some((2, 2)))),
    ];
    let scenarios = vec![combined(&variants[0].1)];
    for seed in SEEDS {
        let cfg = ResilienceConfig {
            rps: 250.0,
            duration_s: DURATION_S,
            entities: ENTITIES,
            seed,
            prefill_stores: vec![("ut_db".to_string(), ENTITIES)],
            probe: Some(ConsistencyProbe {
                oracle: OracleSpec::new(["ComposePost"], ["ReadUserTimeline"]),
                audit_entry: "gateway".to_string(),
                audit_method: "ReadUserTimeline".to_string(),
                settle_ns: secs(2),
            }),
            ..Default::default()
        };
        let seq = run_matrix(&variants, &scenarios, &mix(), &cfg, Threads::sequential())
            .expect("sequential matrix");
        let par = run_matrix(&variants, &scenarios, &mix(), &cfg, Threads::new(4))
            .expect("parallel matrix");
        assert_eq!(seq, par, "[seed {seed}] cell reports diverge");
        for c in &seq {
            assert!(
                c.conserved,
                "[{} seed {seed}] conservation: {}",
                c.variant, c.conservation
            );
            let audited = c.consistency.as_ref().map(|a| a.audited);
            assert_eq!(audited, Some(ENTITIES), "[{} seed {seed}] audit", c.variant);
            assert!(
                c.failovers >= 1,
                "[{} seed {seed}] the crash must fail over",
                c.variant
            );
        }
    }
}
