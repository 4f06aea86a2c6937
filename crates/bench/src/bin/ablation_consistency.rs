//! Consistency-mode ablation: the replicated-store fault-tolerance matrix
//! (`results/consistency_matrix.txt`).
//!
//! The replicated SocialNetwork (direct-timeline variant: reads and writes
//! go straight to the 2-replica `ut_db`, 40–250 ms asynchronous replication
//! lag, primary failover armed) is compiled three times — one wiring line
//! apart — and crossed with four disturbances:
//!
//! * **arms** — `read-replica` (the unguarded historical default),
//!   `quorum-w2-r2` (write waits for one sync replica, reads consult the
//!   primary plus one member), `session` (read-your-writes floor with
//!   primary redirects);
//! * **scenarios** — `none`, `primary crash` (the store's serving process
//!   dies mid-traffic; un-replicated writes die with it), `replica
//!   partition` (one replica's link fully cut, then healed), and `rolling
//!   restart` (both user-timeline replicas drained and restarted in turn
//!   via a `ReconfigPlan`).
//!
//! After the traffic and a settle period, every entity is audit-read and
//! the deterministic consistency oracle classifies the whole log: stale
//! reads, lost writes, read-your-writes violations, non-monotonic reads.
//! The matrix must show the unguarded arm's anomalies *and* the guarded
//! arms' guarantees: `quorum-w2-r2` anomaly-free in every class, `session`
//! clean in its guaranteed classes (read-your-writes + monotonic reads),
//! every cell request-conserved, and the whole report byte-identical across
//! `BLUEPRINT_THREADS` settings (ci.sh compares `=1` vs `=4` in `--smoke`
//! mode, which writes `results/ci_consistency.txt`).

use blueprint_apps::{social_network as sn, WiringOpts};
use blueprint_bench::matrix::{assert_conserved, cell};
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_core::Blueprint;
use blueprint_simrt::time::{ms, secs, SimTime};
use blueprint_simrt::{Change, Fault, FaultPlan, ReconfigPlan, SystemSpec};
use blueprint_workload::generator::ApiMix;
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{
    run_matrix, CellReport, ConsistencyAudit, ConsistencyProbe, ResilienceConfig, Scenario,
};
use blueprint_workload::OracleSpec;

/// Replication lag bounds, ms (quorum writes pay up to the max as ack
/// latency, so this also bounds the quorum arm's write surcharge).
const LAG_MS: (i64, i64) = (100, 400);
/// Entity-id space; every entity is audit-read after the settle period.
const ENTITIES: u64 = 200;
/// Failover detection + election delays. Deliberately shorter than the
/// minimum replication lag: a write still in flight to the replicas when
/// the primary dies must *not* get a grace period to land — the election
/// completes first and the stale-generation guard drops the apply, which is
/// exactly how an async-replicated store loses acknowledged writes.
const DETECT_NS: SimTime = 50_000_000;
const ELECT_NS: SimTime = 50_000_000;

/// The three consistency arms, all sharing one topology and differing by
/// the `ut_db` consistency mode (a one-line wiring mutation), failover
/// armed on each compiled system.
fn arms() -> Vec<(String, SystemSpec)> {
    let wf = sn::workflow_direct_timeline();
    let opts = WiringOpts::default().without_tracing();
    let mk = |label: &str, mode: &str, quorum: Option<(i64, i64)>| {
        let w = sn::wiring_direct_timeline(&opts, LAG_MS.0, LAG_MS.1, mode, quorum);
        let app = Blueprint::new().compile(&wf, &w).expect("arm compiles");
        let mut system = app.system().clone();
        sn::arm_ut_db_failover(&mut system, DETECT_NS, ELECT_NS).expect("failover arms");
        (label.to_string(), system)
    };
    vec![
        mk("read-replica", "read_replica", None),
        mk("quorum-w2-r2", "quorum", Some((2, 2))),
        mk("session", "session", None),
    ]
}

/// The name of the process serving `ut_db` at boot (the failover victim).
fn primary_process(system: &SystemSpec) -> String {
    let b = system
        .backends
        .iter()
        .find(|b| b.name == "ut_db")
        .expect("ut_db present");
    system.processes[b.process].name.clone()
}

fn scenarios(system: &SystemSpec, duration_s: u64) -> Vec<Scenario> {
    let primary = primary_process(system);
    vec![
        Scenario::baseline(),
        // Crash the primary late in the traffic window: writes acked inside
        // the replication-lag window right before the crash have nowhere to
        // go on the unguarded arm — they are lost, and the audit proves it.
        Scenario {
            name: "primary crash".to_string(),
            faults: FaultPlan::none().at(
                secs(duration_s) - ms(200),
                Fault::ProcessCrash {
                    process: primary.clone(),
                    restart_delay_ns: secs(10),
                },
            ),
            ..Scenario::baseline()
        },
        // Fully cut one replica's replication link mid-traffic; the store
        // must route reads around it and catch it up at heal time.
        Scenario {
            name: "replica partition".to_string(),
            faults: FaultPlan::none().at(
                secs(1),
                Fault::Partition {
                    a: primary,
                    b: "ut_db_replica_0".to_string(),
                    duration_ns: secs(2),
                },
            ),
            ..Scenario::baseline()
        },
        // The runtime-change machinery as a consistency disturbance:
        // drain-and-restart each user-timeline replica in turn.
        Scenario {
            name: "rolling restart".to_string(),
            reconfig: ReconfigPlan::none()
                .at(
                    secs(1),
                    Change::RollingRestart {
                        service: "user_timeline_a".into(),
                        drain_ns: ms(200),
                        restart_ns: ms(100),
                        drainless: false,
                    },
                )
                .at(
                    secs(2),
                    Change::RollingRestart {
                        service: "user_timeline_b".into(),
                        drain_ns: ms(200),
                        restart_ns: ms(100),
                        drainless: false,
                    },
                ),
            ..Scenario::baseline()
        },
    ]
}

/// The consistency audit every cell carries (the config sets a probe).
fn audit(c: &CellReport) -> &ConsistencyAudit {
    c.consistency
        .as_ref()
        .expect("probed cell carries an audit")
}

fn row(c: &CellReport) -> Vec<String> {
    let a = audit(c);
    vec![
        c.variant.clone(),
        c.scenario.clone(),
        c.conservation.ok.to_string(),
        c.conservation.errors.to_string(),
        if c.conserved {
            "yes".into()
        } else {
            "LOST".into()
        },
        a.audited.to_string(),
        c.failovers.to_string(),
        a.anomalies.stale_reads.to_string(),
        a.anomalies.lost_writes.to_string(),
        a.anomalies.ryw_violations.to_string(),
        a.anomalies.non_monotonic_reads.to_string(),
        c.quorum_rejections.to_string(),
        c.session_redirects.to_string(),
        c.runtime_lost_writes.to_string(),
    ]
}

fn main() {
    let run = Run::from_args();
    let duration_s = run.pick(4, 8);
    let cfg = ResilienceConfig {
        rps: 300.0,
        duration_s,
        entities: ENTITIES,
        seed: 17,
        prefill_stores: vec![("ut_db".to_string(), ENTITIES)],
        probe: Some(ConsistencyProbe {
            oracle: OracleSpec::new(["ComposePost"], ["ReadUserTimeline"]),
            audit_entry: "gateway".to_string(),
            audit_method: "ReadUserTimeline".to_string(),
            settle_ns: secs(2),
        }),
        ..Default::default()
    };
    let mix =
        ApiMix::new()
            .add("gateway", "ComposePost", 0.2)
            .add("gateway", "ReadUserTimeline", 0.8);
    let variants = arms();
    let scenarios = scenarios(&variants[0].1, duration_s);
    let cells = run_matrix(&variants, &scenarios, &mix, &cfg, Threads::from_env())
        .expect("consistency matrix runs");
    let cell = |variant: &str, scenario: &str| cell(&cells, variant, scenario);

    let unguarded = cell("read-replica", "none");
    let crashed = cell("read-replica", "primary crash");
    let redirects: u64 = [
        "none",
        "primary crash",
        "replica partition",
        "rolling restart",
    ]
    .iter()
    .map(|s| cell("session", s).session_redirects)
    .sum();

    let mut out = String::new();
    out.push_str(&format!(
        "Consistency matrix — replicated SocialNetwork (direct timeline), \
         ut_db replicas 2, lag {}–{} ms, failover {}+{} ms, seed {}\n\
         {} entities, {} rps for {} s (20% ComposePost / 80% \
         ReadUserTimeline), settle 2 s, audit = one read per entity\n\n",
        LAG_MS.0,
        LAG_MS.1,
        DETECT_NS / 1_000_000,
        ELECT_NS / 1_000_000,
        cfg.seed,
        ENTITIES,
        cfg.rps,
        duration_s,
    ));
    out.push_str(&report::table(
        "consistency arms × disturbance scenarios",
        &[
            "variant",
            "scenario",
            "ok",
            "errors",
            "conserved",
            "audited",
            "failovers",
            "stale",
            "lost",
            "ryw",
            "nonmono",
            "q-rej",
            "s-redir",
            "rt-lost",
        ],
        &cells.iter().map(row).collect::<Vec<_>>(),
    ));
    out.push_str(&format!(
        "\nInvariants held:\n\
         - every cell request-conserved; every audit reached all {ENTITIES} \
           entities\n\
         - read-replica: {} stale reads under plain lag; primary crash loses \
           {} acked writes (runtime discarded {} at elections)\n\
         - quorum-w2-r2: zero anomalies in every class, every scenario\n\
         - session: read-your-writes + monotonic reads clean in every \
           scenario ({} primary redirects)\n",
        audit(unguarded).anomalies.stale_reads,
        audit(crashed).anomalies.lost_writes,
        crashed.runtime_lost_writes,
        redirects,
    ));
    run.emit(&out, "consistency_matrix.txt", "ci_consistency.txt");

    // Every cell conserves requests and audits every entity, through every
    // crash, partition, election, and rolling restart.
    assert_conserved(&cells);
    for c in &cells {
        assert_eq!(
            audit(c).audited,
            ENTITIES,
            "[{} × {}] settle-time audit must reach every entity",
            c.variant,
            c.scenario
        );
    }

    // The unguarded arm shows its anomalies: stale reads under plain
    // replication lag, and acked-but-lost writes once the primary dies.
    assert!(
        audit(unguarded).anomalies.stale_reads > 0,
        "read-replica × none must show stale reads under lag"
    );
    assert_eq!(
        audit(unguarded).anomalies.lost_writes,
        0,
        "no write is lost without a failover"
    );
    assert_eq!(unguarded.failovers, 0);
    assert!(crashed.failovers >= 1, "the crash must elect a new primary");
    assert!(
        audit(crashed).anomalies.lost_writes >= 1,
        "the unguarded arm must lose at least one acked write, got {}",
        audit(crashed).anomalies.lost_writes
    );
    assert!(
        crashed.runtime_lost_writes >= 1,
        "the simulator must discard at least one acked write at the election"
    );

    // Quorum w=2 r=2: the sync replica survives every election and reads
    // overlap every acked write — zero anomalies in *all* classes, in
    // every scenario.
    for s in [
        "none",
        "primary crash",
        "replica partition",
        "rolling restart",
    ] {
        let q = cell("quorum-w2-r2", s);
        assert!(
            audit(q).anomalies.clean(),
            "[quorum-w2-r2 × {s}] must be anomaly-free, got {}",
            audit(q).anomalies
        );
        assert_eq!(
            q.runtime_lost_writes, 0,
            "[quorum-w2-r2 × {s}] a w=2 write survives any single failover"
        );
    }

    // Session mode guarantees read-your-writes and monotonic reads (its
    // classes), in every scenario; staleness against *other* writers and
    // crash-durability are explicitly not promised.
    for s in [
        "none",
        "primary crash",
        "replica partition",
        "rolling restart",
    ] {
        let a = audit(cell("session", s));
        assert_eq!(
            a.anomalies.ryw_violations, 0,
            "[session × {s}] read-your-writes must hold"
        );
        assert_eq!(
            a.anomalies.non_monotonic_reads, 0,
            "[session × {s}] monotonic reads must hold"
        );
    }
    assert!(
        redirects > 0,
        "the session floor must actually redirect some reads"
    );
}
