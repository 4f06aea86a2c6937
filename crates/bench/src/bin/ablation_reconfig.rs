//! Runtime-reconfiguration ablation: the `ReconfigPlan` matrix
//! (`results/reconfig_matrix.txt`).
//!
//! A frontend fans out over a three-replica `api` tier (one process per
//! replica, one 2-core host each) and the matrix crosses two client arms —
//! `none` (timeout only) and `overload-protection` (retries + retry
//! budget) — with five runtime-change scenarios:
//!
//! * **baseline** — empty plan; must be error-free (the empty-plan
//!   determinism pin itself is held by `examples/stream_checksum`'s
//!   checksum gate in ci.sh).
//! * **rolling drained** — one-replica-at-a-time deploy with a drain
//!   budget; the balancer takes the draining replica out of rotation, so
//!   the deploy must be *invisible*: zero unavailability window.
//! * **rolling drainless** — the hazardous variant (lint rule BP012): each
//!   replica is stopped with work in flight and stays in rotation while
//!   down. On the unprotected arm this must surface a measurable error
//!   spike; on the protected arm retries fail over to live siblings and
//!   the spike shows up as retry traffic instead.
//! * **fixed 1 replica** — the group is scaled to a single replica which
//!   then faces a 5× flash crowd; admission limits shed the excess, so the
//!   arm goes unavailable for most of the ramp.
//! * **autoscaled** — same single-replica start plus a deterministic
//!   autoscaler (utilization EWMA, hysteresis, cooldown); it must scale
//!   out through the ramp, survive the flash crowd the fixed arm does
//!   not, and scale back down afterwards.
//!
//! Every cell is asserted request-conserved, and the report is
//! byte-identical across `BLUEPRINT_THREADS` settings (ci.sh compares
//! `=1` vs `=4` in `--smoke` mode, which writes `results/ci_reconfig.txt`).

use blueprint_bench::matrix::{assert_conserved, cell};
use blueprint_bench::report;
use blueprint_bench::Run;
use blueprint_simrt::time::{ms, secs, SimTime};
use blueprint_simrt::{
    AutoscalerSpec, Change, ClientSpec, DepBinding, EntrySpec, HostSpec, LbPolicy, ProcessSpec,
    ReconfigPlan, RetryBudgetSpec, ServiceSpec, SystemSpec,
};
use blueprint_workflow::Behavior;
use blueprint_workload::generator::{ApiMix, Phase};
use blueprint_workload::parallel::Threads;
use blueprint_workload::resilience::{run_matrix, CellReport, ResilienceConfig, Scenario};

/// Per-replica work, ns (1 ms on a 2-core host ⇒ ~2 000 rps per replica).
const API_WORK_NS: u64 = 1_000_000;
/// Per-replica admission limit; also the autoscaler's utilization
/// denominator (`active / max_concurrent`).
const API_MAX_CONCURRENT: u32 = 8;

/// The replicated app: `front → LB{api, api_r1, api_r2}`, every replica in
/// its own process on its own 2-core host so scaling and rolling restarts
/// move real capacity.
fn reconfig_app(client: ClientSpec) -> SystemSpec {
    let mut spec = SystemSpec {
        name: "reconfig".into(),
        hosts: vec![HostSpec {
            name: "h_front".into(),
            cores: 8.0,
        }],
        processes: vec![ProcessSpec {
            name: "p_front".into(),
            host: 0,
            gc: None,
        }],
        ..Default::default()
    };
    for (i, name) in ["api", "api_r1", "api_r2"].iter().enumerate() {
        spec.hosts.push(HostSpec {
            name: format!("h_{name}"),
            cores: 2.0,
        });
        spec.processes.push(ProcessSpec {
            name: format!("p_{name}"),
            host: i + 1,
            gc: None,
        });
        let mut r = ServiceSpec::new(*name, i + 1);
        r.max_concurrent = API_MAX_CONCURRENT;
        r.methods.insert(
            "Work".into(),
            Behavior::build().compute(API_WORK_NS, 0).done(),
        );
        spec.services.push(r); // 0, 1, 2
    }
    let mut front = ServiceSpec::new("front", 0);
    front
        .methods
        .insert("M".into(), Behavior::build().call("api", "Work").done());
    front.deps.insert(
        "api".into(),
        DepBinding::ReplicatedService {
            targets: vec![0, 1, 2],
            policy: LbPolicy::RoundRobin,
            client,
        },
    );
    spec.services.push(front); // 3
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 3,
            client: ClientSpec::local(),
        },
    );
    spec
}

/// The two client arms: bare timeout vs retries bounded by a retry budget.
fn arms() -> Vec<(String, SystemSpec)> {
    let mut none = ClientSpec::local();
    none.timeout_ns = Some(ms(100));
    let mut protected = none.clone();
    protected.retries = 2;
    // Ratio 0.5 still caps wire amplification at 1.5× but leaves headroom
    // to fail over the one-in-three share a down replica keeps attracting.
    protected.retry_budget = Some(RetryBudgetSpec {
        ratio: 0.5,
        cap: 20.0,
    });
    vec![
        ("none".to_string(), reconfig_app(none)),
        ("overload-protection".to_string(), reconfig_app(protected)),
    ]
}

/// Timeline of one run: steady load, a 5× flash crowd, steady again.
struct Timeline {
    steady_s: u64,
    flash_s: u64,
    roll_at: SimTime,
    flash_start: SimTime,
    flash_end: SimTime,
    end: SimTime,
}

impl Timeline {
    fn new(run: Run) -> Timeline {
        let (steady_s, flash_s) = run.pick((3, 2), (6, 3));
        Timeline {
            steady_s,
            flash_s,
            roll_at: secs(1),
            flash_start: secs(steady_s),
            flash_end: secs(steady_s + flash_s),
            end: secs(2 * steady_s + flash_s),
        }
    }

    fn phases(&self) -> Vec<Phase> {
        vec![
            Phase::new(self.steady_s, 800.0),
            Phase::new(self.flash_s, 4_000.0),
            Phase::new(self.steady_s, 800.0),
        ]
    }
}

fn rolling(t: &Timeline, drainless: bool) -> Scenario {
    let name = if drainless {
        "rolling drainless"
    } else {
        "rolling drained"
    };
    Scenario {
        name: name.to_string(),
        reconfig: ReconfigPlan::none().at(
            t.roll_at,
            Change::RollingRestart {
                service: "api".into(),
                drain_ns: ms(200),
                restart_ns: ms(100),
                drainless,
            },
        ),
        window: (t.roll_at, t.roll_at + secs(2)),
        ..Scenario::baseline()
    }
}

fn scale_to_one() -> Change {
    Change::Scale {
        service: "api".into(),
        replicas: 1,
        drain_ns: 0,
    }
}

fn fixed_replica(t: &Timeline) -> Scenario {
    // The scale-in itself is invisible (steady load fits one replica); the
    // judged window is the flash crowd the lone replica then faces.
    Scenario {
        name: "fixed 1 replica".to_string(),
        reconfig: ReconfigPlan::none().at(ms(100), scale_to_one()),
        window: (t.flash_start, t.flash_end),
        ..Scenario::baseline()
    }
}

fn autoscaled(t: &Timeline) -> Scenario {
    Scenario {
        name: "autoscaled".to_string(),
        reconfig: ReconfigPlan::none()
            .at(ms(100), scale_to_one())
            .with_autoscaler(AutoscalerSpec {
                service: "api".into(),
                min_replicas: 1,
                max_replicas: 3,
                high_util: 0.2,
                low_util: 0.07,
                ewma_alpha: 0.5,
                interval_ns: ms(200),
                cooldown_ns: ms(400),
                start_ns: ms(500),
                end_ns: t.end,
                drain_ns: ms(200),
            }),
        window: (t.flash_start, t.flash_end),
        ..Scenario::baseline()
    }
}

fn row(c: &CellReport) -> Vec<String> {
    let (a, n) = (&c.assessment, &c.counters);
    vec![
        c.variant.clone(),
        c.scenario.clone(),
        c.conservation.ok.to_string(),
        c.conservation.errors.to_string(),
        if c.conservation.holds() {
            "yes".into()
        } else {
            "LOST".into()
        },
        if a.bounded { "yes".into() } else { "NO".into() },
        if a.metastable {
            "YES".into()
        } else {
            "no".into()
        },
        report::f3(a.unavailable_ns as f64 / 1e9),
        n.retries.to_string(),
        n.drain_rejections.to_string(),
        format!("{}/{}", n.autoscale_ups, n.autoscale_downs),
    ]
}

fn main() {
    let run = Run::from_args();
    let t = Timeline::new(run);
    let cfg = ResilienceConfig {
        entities: 10_000,
        seed: 73,
        rto_ns: secs(2),
        // A drainless restart takes 1/3 of the traffic down; 0.25 puts that
        // squarely above the unavailability threshold while leaving healthy
        // intervals untouched.
        error_threshold: 0.25,
        phases: t.phases(),
        ..Default::default()
    };
    let variants = arms();
    let scenarios = vec![
        Scenario::baseline(),
        rolling(&t, false),
        rolling(&t, true),
        fixed_replica(&t),
        autoscaled(&t),
    ];
    let cells = run_matrix(
        &variants,
        &scenarios,
        &ApiMix::single("front", "M"),
        &cfg,
        Threads::from_env(),
    )
    .expect("reconfig matrix runs");

    let cell = |variant: &str, scenario: &str| cell(&cells, variant, scenario);

    // Every cell conserves requests through every drain, restart, and
    // rotation change.
    assert_conserved(&cells);

    // Baseline: three replicas absorb the flash crowd outright.
    for v in ["none", "overload-protection"] {
        let b = cell(v, "none");
        assert_eq!(b.conservation.errors, 0, "[{v} × none] must be clean");
        assert_eq!(
            b.assessment.unavailable_ns, 0,
            "[{v} × none] must never degrade"
        );
    }

    // Drained rolling deploys are invisible: the balancer rotates each
    // replica out before it stops, so there is no unavailability window at
    // all and (with or without retries) no user-visible errors.
    for v in ["none", "overload-protection"] {
        let d = cell(v, "rolling drained");
        assert_eq!(
            d.assessment.unavailable_ns, 0,
            "[{v} × rolling drained] unavailability outside drain bounds"
        );
        assert!(
            d.assessment.bounded && !d.assessment.metastable,
            "[{v} × rolling drained]"
        );
        assert_eq!(
            d.conservation.errors, 0,
            "[{v} × rolling drained] drained deploys must be invisible"
        );
    }

    // Drainless restarts on the unprotected arm: the stopped replica stays
    // in rotation while down, so a third of the traffic dies — a visible
    // error spike *and* unavailable intervals the drained arm provably
    // lacks.
    let spike = cell("none", "rolling drainless");
    assert!(
        spike.conservation.errors >= 50,
        "drainless restart must surface an error spike, got {}",
        spike.conservation.errors
    );
    assert!(
        spike.assessment.unavailable_ns > 0,
        "the drainless spike must cross the unavailability threshold"
    );
    assert!(
        spike.assessment.bounded,
        "the drainless spike still sits inside the deploy window"
    );
    // On the protected arm retries fail over to live siblings: the spike is
    // masked end-to-end and converted into retry traffic instead.
    let masked = cell("overload-protection", "rolling drainless");
    assert_eq!(
        masked.conservation.errors, 0,
        "retries must mask the drainless spike end-to-end"
    );
    assert!(
        masked.counters.retries
            > cell("overload-protection", "rolling drained")
                .counters
                .retries,
        "the masked spike must show up as retry traffic"
    );

    // Flash crowd: the fixed single replica sheds most of the ramp; the
    // autoscaler scales out through it (and back down afterwards), keeping
    // the outage to the reaction time of its first observations.
    for v in ["none", "overload-protection"] {
        let fixed = cell(v, "fixed 1 replica");
        let auto = cell(v, "autoscaled");
        assert!(
            fixed.assessment.unavailable_ns >= secs(t.flash_s) / 2,
            "[{v}] one replica must drown in the flash crowd, got {} ns",
            fixed.assessment.unavailable_ns
        );
        assert!(
            auto.assessment.unavailable_ns * 3 <= fixed.assessment.unavailable_ns,
            "[{v}] the autoscaler must cut the outage to its reaction time: \
             {} vs {} ns",
            auto.assessment.unavailable_ns,
            fixed.assessment.unavailable_ns
        );
        assert!(
            auto.assessment.bounded && !auto.assessment.metastable,
            "[{v} × autoscaled] must recover within the flash window + RTO"
        );
        assert!(
            auto.counters.autoscale_ups >= 2 && auto.counters.autoscale_downs >= 1,
            "[{v} × autoscaled] must scale out through the ramp and back \
             down after it: {}/{}",
            auto.counters.autoscale_ups,
            auto.counters.autoscale_downs
        );
        assert_eq!(
            fixed.counters.autoscale_ups + fixed.counters.autoscale_downs,
            0,
            "[{v} × fixed 1 replica] has no autoscaler"
        );
    }

    let mut out = String::new();
    out.push_str(&format!(
        "Reconfig matrix — front → api×3 (1 ms work, 2-core hosts, \
         max_concurrent {API_MAX_CONCURRENT}), seed {}\n\
         phases: {}s @ 800 rps, {}s @ 4000 rps (flash crowd), {}s @ 800 rps; \
         error threshold {}\n\n",
        cfg.seed, t.steady_s, t.flash_s, t.steady_s, cfg.error_threshold
    ));
    out.push_str(&report::table(
        "variants × runtime-change scenarios",
        &[
            "variant",
            "scenario",
            "ok",
            "errors",
            "conserved",
            "bounded",
            "metastable",
            "unavail s",
            "retries",
            "drain rej",
            "ups/downs",
        ],
        &cells.iter().map(row).collect::<Vec<_>>(),
    ));
    out.push_str(&format!(
        "\nInvariants held:\n\
         - every cell request-conserved\n\
         - drained rolling deploy invisible on both arms (0 errors, 0 s \
           unavailable)\n\
         - drainless restart surfaces {} errors ({} s unavailable) on the \
           unprotected arm; retries mask it ({} -> {} retries)\n\
         - autoscaler cuts the flash-crowd outage {} s -> {} s (unprotected \
           arm) with {} scale-outs / {} scale-ins\n",
        spike.conservation.errors,
        report::f3(spike.assessment.unavailable_ns as f64 / 1e9),
        cell("overload-protection", "rolling drained")
            .counters
            .retries,
        masked.counters.retries,
        report::f3(cell("none", "fixed 1 replica").assessment.unavailable_ns as f64 / 1e9),
        report::f3(cell("none", "autoscaled").assessment.unavailable_ns as f64 / 1e9),
        cell("none", "autoscaled").counters.autoscale_ups,
        cell("none", "autoscaled").counters.autoscale_downs,
    ));
    run.emit(&out, "reconfig_matrix.txt", "ci_reconfig.txt");
}
