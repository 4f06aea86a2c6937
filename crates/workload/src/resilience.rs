//! Resilience verification: variants × disturbance matrices with invariant
//! checks (the robustness half of the fault-injection engine).
//!
//! A [`Scenario`] is one disturbance schedule, in the two plans a
//! [`SimConfig`] carries: a [`FaultPlan`] (crashes, partitions, brownouts,
//! CPU contention, cache flushes), a [`ReconfigPlan`] (rolling restarts,
//! scaling, canaries, an autoscaler), and the window in which they act.
//! [`run_cell`] boots one system variant with the scenario's plans, drives
//! the workload, and verifies three invariants on the recorded series:
//!
//! * **request conservation** — every submitted request terminates exactly
//!   once (the simulator fails affected work *fast* with a classified
//!   error, so nothing can hang or be double-counted);
//! * **bounded unavailability** — intervals whose error rate exceeds the
//!   configured threshold must all fall inside the scenario window extended
//!   by the RTO;
//! * **retry amplification** — retries per submitted request, the hazard
//!   metric a circuit breaker is supposed to suppress.
//!
//! With a [`ConsistencyProbe`] in the [`ResilienceConfig`], the cell also
//! settles, audit-reads every entity, and classifies the whole log with the
//! consistency oracle. [`run_matrix`] fans a variants × scenarios grid over
//! the deterministic parallel engine: each cell is an independent seeded
//! run, so the matrix is byte-identical at any `BLUEPRINT_THREADS`.

use blueprint_simrt::metrics::SimCounters;
use blueprint_simrt::time::SimTime;
use blueprint_simrt::{FaultPlan, ReconfigPlan, Sim, SimConfig, SimError, SystemSpec};

use crate::driver::{run_experiment, run_experiment_collecting, ExperimentSpec};
use crate::generator::{ApiMix, OpenLoopGen, Phase};
use crate::oracle::{classify_with_audit, converged_versions, AnomalyCounts, OracleSpec};
use crate::parallel::{par_run, Threads};
use crate::recorder::{ConservationReport, IntervalStats};

/// A named disturbance scenario. Build one from [`Scenario::baseline`] with
/// struct-update syntax, setting whichever of `faults`, `reconfig` and
/// `window` the scenario needs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (appears in matrix rows).
    pub name: String,
    /// Faults, copied into [`SimConfig::faults`]: each fires as a control
    /// event at its virtual time, same-time faults in list order.
    pub faults: FaultPlan,
    /// Runtime changes, copied into [`SimConfig::reconfig`]: rolling steps
    /// and autoscaler ticks run as control events too.
    pub reconfig: ReconfigPlan,
    /// `(start, end)`: when the disturbance starts acting and when its
    /// effect ends (restart completed, partition healed, deploy settled).
    /// Unavailability outside `[start, end + rto]` fails the `bounded`
    /// invariant.
    pub window: (SimTime, SimTime),
}

impl Scenario {
    /// The disturbance-free baseline: any unavailability at all is
    /// unbounded.
    pub fn baseline() -> Self {
        Scenario {
            name: "none".to_string(),
            faults: FaultPlan::none(),
            reconfig: ReconfigPlan::none(),
            window: (0, 0),
        }
    }
}

/// How a cell probes consistency: which methods the oracle treats as
/// writes/reads, the entry used for settle-time audit reads, and how long
/// to let replication settle before auditing.
#[derive(Debug, Clone)]
pub struct ConsistencyProbe {
    /// Write/read method classification for the oracle.
    pub oracle: OracleSpec,
    /// Entry the audit reads are submitted to.
    pub audit_entry: String,
    /// Audit read method (must be in `oracle.read_methods` so audit
    /// observations both feed the converged-version map and participate in
    /// classification).
    pub audit_method: String,
    /// Post-traffic quiet period before the audit; must exceed the store's
    /// maximum replication lag so surviving writes have converged.
    pub settle_ns: SimTime,
}

/// Workload + invariant configuration shared by every cell of a matrix.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// The offered load, phase by phase (one phase for a steady load).
    /// Empty by default, so every caller states its own load; a cell run
    /// with no phase panics.
    pub phases: Vec<Phase>,
    /// Entity-id space size.
    pub entities: u64,
    /// Seed for both the simulator and the arrival process.
    pub seed: u64,
    /// Recorder interval width (the unavailability-detection resolution).
    pub interval_ns: SimTime,
    /// Drain after the last arrival so in-flight requests terminate.
    pub drain_ns: SimTime,
    /// Recovery-time objective: unavailability may extend at most this far
    /// past the end of the scenario window.
    pub rto_ns: SimTime,
    /// Interval error rate above which the interval counts as unavailable.
    pub error_threshold: f64,
    /// Stores pre-filled before arrivals: `(backend, n_keys)` at version 1.
    pub prefill_stores: Vec<(String, u64)>,
    /// Caches pre-filled before arrivals: `(backend, n_keys)` at version 1.
    pub prefill_caches: Vec<(String, u64)>,
    /// When set, every cell settles, audits and classifies consistency
    /// (see [`CellReport::consistency`]).
    pub probe: Option<ConsistencyProbe>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            phases: Vec::new(),
            entities: 10_000,
            seed: 7,
            interval_ns: 250_000_000,
            drain_ns: 5_000_000_000,
            rto_ns: 2_000_000_000,
            error_threshold: 0.5,
            prefill_stores: Vec::new(),
            prefill_caches: Vec::new(),
            probe: None,
        }
    }
}

/// The availability verdict of one recorded series against one disturbance
/// window — the invariant half of a [`CellReport`], extracted so the
/// metastability check is unit-testable on synthetic series.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Total width of unavailable intervals (error rate above threshold).
    pub unavailable_ns: SimTime,
    /// End of the last unavailable interval, if any.
    pub recovered_ns: Option<SimTime>,
    /// Whether all unavailability fell inside the window + RTO.
    pub bounded: bool,
    /// Whether the degraded state *sustained* after the trigger cleared:
    /// at least [`SUSTAIN_FRACTION`] of the busy intervals past
    /// `window end + rto` stayed unavailable. This is the metastability
    /// signature — the trigger is gone but the system does not return to
    /// its steady state.
    pub metastable: bool,
    /// Time from the window end to the end of the last unavailable
    /// interval: `Some(0)` if the run never degraded, `None` if it never
    /// recovered (metastable).
    pub recovery_ns: Option<SimTime>,
}

/// Fraction of busy post-RTO intervals that must be unavailable for a run
/// to count as *metastable* (degraded state sustained after the trigger
/// cleared) rather than merely slow to recover.
pub const SUSTAIN_FRACTION: f64 = 0.5;

/// Scans a recorded series against the `(start, end)` disturbance window
/// and classifies the run's availability: bounded/unbounded, metastable or
/// not, and the measured recovery time.
pub fn assess(
    series: &[IntervalStats],
    (start_ns, end_ns): (SimTime, SimTime),
    cfg: &ResilienceConfig,
) -> Assessment {
    let mut unavailable_ns = 0;
    let mut first_bad_ns: Option<SimTime> = None;
    let mut last_bad_end_ns: Option<SimTime> = None;
    let post_window_start = end_ns + cfg.rto_ns;
    let (mut post_busy, mut post_bad) = (0u64, 0u64);
    for s in series {
        let busy = s.count > 0;
        let bad = busy && s.error_rate() > cfg.error_threshold;
        if bad {
            unavailable_ns += cfg.interval_ns;
            first_bad_ns.get_or_insert(s.start_ns);
            last_bad_end_ns = Some(s.start_ns + cfg.interval_ns);
        }
        if busy && s.start_ns >= post_window_start {
            post_busy += 1;
            if bad {
                post_bad += 1;
            }
        }
    }
    // Bounded: no unavailability at all, or every unavailable interval sits
    // inside the active window extended by the RTO. An interval that
    // *contains* the window start may dip below the threshold before the
    // disturbance fires, so the start check is interval-granular.
    let bounded = match (first_bad_ns, last_bad_end_ns) {
        (None, None) => true,
        (Some(first), Some(end)) => {
            end_ns > start_ns && first + cfg.interval_ns > start_ns && end <= post_window_start
        }
        _ => unreachable!("first and last unavailable interval set together"),
    };
    let metastable = post_bad > 0 && (post_bad as f64) >= SUSTAIN_FRACTION * (post_busy as f64);
    let recovery_ns = if metastable {
        None
    } else {
        Some(
            last_bad_end_ns
                .map(|end| end.saturating_sub(end_ns))
                .unwrap_or(0),
        )
    };
    Assessment {
        unavailable_ns,
        recovered_ns: last_bad_end_ns,
        bounded,
        metastable,
        recovery_ns,
    }
}

/// The consistency half of a probed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsistencyAudit {
    /// Oracle classification of the full log (traffic + audit reads).
    pub anomalies: AnomalyCounts,
    /// Entities whose settle-time audit read succeeded.
    pub audited: u64,
}

/// The verified outcome of one (variant, scenario) cell: the run's own
/// records (conservation, series, counters) and the verdicts drawn from
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// System-variant label (the mitigation arm).
    pub variant: String,
    /// Scenario label.
    pub scenario: String,
    /// Full conservation accounting (submitted vs terminated);
    /// `conservation.holds()` is the conservation invariant.
    pub conservation: ConservationReport,
    /// The availability verdict of `series` against the scenario window.
    pub assessment: Assessment,
    /// The recorded per-interval series (including any settle stragglers).
    pub series: Vec<IntervalStats>,
    /// The simulator's counters at the end of the run (audit reads
    /// included when the cell is probed).
    pub counters: SimCounters,
    /// Acked writes the simulator discarded at elections, over all stores.
    pub runtime_lost_writes: u64,
    /// Session-mode reads redirected to the primary, over all stores.
    pub session_redirects: u64,
    /// The consistency audit, present when the config carries a probe.
    pub consistency: Option<ConsistencyAudit>,
}

impl CellReport {
    /// Retries per submitted request — the amplification hazard metric.
    pub fn retry_amplification(&self) -> f64 {
        self.per_submitted(self.counters.retries)
    }

    /// Attempts that actually reached the transport, per submitted request:
    /// `(submitted + retries − breaker_rejections) / submitted`. Healthy
    /// baseline ≈ 1; a retry storm pushes it far above 1; a breaker
    /// suppresses it by failing attempts locally instead of sending them.
    pub fn wire_amplification(&self) -> f64 {
        let c = &self.counters;
        self.per_submitted(
            (self.conservation.submitted + c.retries).saturating_sub(c.breaker_rejections),
        )
    }

    /// Wire attempts per *hop-level* call:
    /// `(client_calls + retries − breaker_rejections) / client_calls`.
    /// Unlike [`CellReport::wire_amplification`] (whose denominator is
    /// end-to-end submissions), this is the quantity a retry budget bounds
    /// by construction: ≤ `1 + ratio` on every budgeted arm.
    pub fn hop_amplification(&self) -> f64 {
        let c = &self.counters;
        if c.client_calls == 0 {
            0.0
        } else {
            (c.client_calls + c.retries).saturating_sub(c.breaker_rejections) as f64
                / c.client_calls as f64
        }
    }

    fn per_submitted(&self, n: u64) -> f64 {
        match self.conservation.submitted {
            0 => 0.0,
            submitted => n as f64 / submitted as f64,
        }
    }
}

/// Runs one variant through one scenario and verifies the invariants.
///
/// The scenario's plans ride in [`SimConfig`], so the run is an ordinary
/// deterministic experiment: same seed + same scenario ⇒ identical report.
/// With `cfg.probe` set, the traffic is followed by a settle period (whose
/// stragglers still count toward conservation), one audit read per entity,
/// and oracle classification of the whole log against the converged
/// versions the audit observed.
pub fn run_cell(
    system: &SystemSpec,
    mix: &ApiMix,
    variant: &str,
    scenario: &Scenario,
    cfg: &ResilienceConfig,
) -> Result<CellReport, SimError> {
    let mut sim = Sim::new(
        system,
        SimConfig {
            seed: cfg.seed,
            faults: scenario.faults.clone(),
            reconfig: scenario.reconfig.clone(),
            ..Default::default()
        },
    )?;
    for (backend, n) in &cfg.prefill_stores {
        sim.store_fill(backend, *n, 1)?;
    }
    for (backend, n) in &cfg.prefill_caches {
        sim.cache_fill(backend, *n, 1)?;
    }
    let gen = OpenLoopGen::new(cfg.phases.clone(), mix.clone(), cfg.entities, cfg.seed);
    // The generator is a pure function of its seed, so an identical clone
    // yields the exact submission count the driver will make.
    let submitted = gen.clone().count() as u64;
    let exp = ExperimentSpec::new(gen)
        .interval(cfg.interval_ns)
        .drain(cfg.drain_ns);
    // Only the consistency audit reads the raw completion stream; without a
    // probe each completion is recorded and dropped as it is drained.
    let (rec, consistency) = match &cfg.probe {
        None => (run_experiment(&mut sim, exp)?, None),
        Some(probe) => {
            let (mut rec, mut completions) = run_experiment_collecting(&mut sim, exp)?;
            // Quiet period: let every surviving replica apply its in-flight
            // replication before the audit (stragglers past the driver's
            // drain are still recorded so conservation stays honest).
            let settled = sim.now() + probe.settle_ns;
            sim.run_until(settled);
            for c in sim.drain_completions() {
                rec.record(&c);
                completions.push(c);
            }
            // One audit read per entity (not recorded: they are not part of
            // the traffic); their observations define the converged
            // versions that split lost writes from merely-stale reads.
            let handle = sim.entry_handle(&probe.audit_entry, &probe.audit_method)?;
            for entity in 0..cfg.entities {
                sim.submit_handle(handle, entity)?;
            }
            sim.run_until(sim.now() + cfg.drain_ns);
            let audit = sim.drain_completions();
            let audited = audit.iter().filter(|c| c.ok).count() as u64;
            let converged = converged_versions(&audit, &probe.oracle);
            completions.extend(audit);
            let anomalies = classify_with_audit(&completions, &probe.oracle, &converged);
            (rec, Some(ConsistencyAudit { anomalies, audited }))
        }
    };
    let series = rec.series();
    let m = &sim.metrics;
    Ok(CellReport {
        variant: variant.to_string(),
        scenario: scenario.name.clone(),
        conservation: rec.conservation(submitted),
        assessment: assess(&series, scenario.window, cfg),
        series,
        counters: m.counters.clone(),
        runtime_lost_writes: m.backends.values().map(|b| b.lost_writes).sum(),
        session_redirects: m.backends.values().map(|b| b.session_redirects).sum(),
        consistency,
    })
}

/// Runs the full variants × scenarios matrix on the parallel engine.
///
/// Cell `(v, s)` has job index `v * scenarios.len() + s`; each job builds
/// its own simulator from the shared spec, so the report vector is
/// byte-identical to the sequential double loop at any thread count.
pub fn run_matrix(
    variants: &[(String, SystemSpec)],
    scenarios: &[Scenario],
    mix: &ApiMix,
    cfg: &ResilienceConfig,
    threads: Threads,
) -> Result<Vec<CellReport>, SimError> {
    let n = variants.len() * scenarios.len();
    par_run(n, threads, |i| {
        let (vi, si) = (i / scenarios.len(), i % scenarios.len());
        let (name, system) = &variants[vi];
        run_cell(system, mix, name, &scenarios[si], cfg)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_simrt::time::{ms, secs};
    use blueprint_simrt::{
        Change, ClientSpec, DepBinding, EntrySpec, Fault, HostSpec, LbPolicy, ProcessSpec,
        ServiceSpec,
    };
    use blueprint_workflow::Behavior;

    /// Cell reports cross worker threads inside `run_matrix`.
    const fn assert_send<T: Send>() {}
    const _: () = {
        assert_send::<CellReport>();
        assert_send::<Scenario>();
    };

    fn two_tier(client: ClientSpec) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "rt".into(),
            hosts: vec![
                HostSpec {
                    name: "h0".into(),
                    cores: 4.0,
                },
                HostSpec {
                    name: "h1".into(),
                    cores: 4.0,
                },
            ],
            processes: vec![
                ProcessSpec {
                    name: "p_front".into(),
                    host: 0,
                    gc: None,
                },
                ProcessSpec {
                    name: "p_back".into(),
                    host: 1,
                    gc: None,
                },
            ],
            ..Default::default()
        };
        let mut back = ServiceSpec::new("back", 1);
        back.methods
            .insert("Work".into(), Behavior::build().compute(50_000, 0).done());
        let mut front = ServiceSpec::new("front", 0);
        front
            .methods
            .insert("M".into(), Behavior::build().call("backend", "Work").done());
        front
            .deps
            .insert("backend".into(), DepBinding::Service { target: 1, client });
        spec.services.push(front);
        spec.services.push(back);
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 0,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    fn crash_scenario() -> Scenario {
        Scenario {
            name: "backend crash".into(),
            faults: FaultPlan::none().at(
                secs(4),
                Fault::ProcessCrash {
                    process: "p_back".into(),
                    restart_delay_ns: secs(2),
                },
            ),
            window: (secs(4), secs(6)),
            ..Scenario::baseline()
        }
    }

    fn cfg() -> ResilienceConfig {
        ResilienceConfig {
            phases: vec![Phase::new(10, 400.0)],
            entities: 100,
            seed: 13,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_cell_is_clean_and_conserved() {
        let spec = two_tier(ClientSpec::local());
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "none",
            &Scenario::baseline(),
            &cfg(),
        )
        .unwrap();
        assert!(r.conservation.holds(), "{}", r.conservation);
        assert!(r.assessment.bounded);
        assert_eq!(r.assessment.unavailable_ns, 0);
        assert_eq!(r.assessment.recovered_ns, None);
        assert_eq!(r.conservation.errors, 0);
    }

    #[test]
    fn crash_cell_conserves_and_recovers_within_rto() {
        let spec = two_tier(ClientSpec::local());
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "none",
            &crash_scenario(),
            &cfg(),
        )
        .unwrap();
        // Every request terminated exactly once even though the backend
        // crashed mid-run: in-flight work failed fast as "crash".
        assert!(r.conservation.holds(), "{}", r.conservation);
        assert!(
            r.conservation.by_cause.contains_key("crash"),
            "{}",
            r.conservation
        );
        // The outage tracks the fault window (crash at 4 s, restart at 6 s)
        // and heals within the RTO.
        assert!(r.assessment.unavailable_ns >= secs(1), "outage seen: {r:?}");
        assert!(
            r.assessment.bounded,
            "unavailability outside fault window: {r:?}"
        );
    }

    #[test]
    fn retry_arm_amplifies_load_during_fault() {
        let mut retry = ClientSpec::local();
        retry.retries = 8;
        retry.backoff_ns = ms(1);
        let plain = run_cell(
            &two_tier(ClientSpec::local()),
            &ApiMix::single("front", "M"),
            "none",
            &crash_scenario(),
            &cfg(),
        )
        .unwrap();
        let retrying = run_cell(
            &two_tier(retry),
            &ApiMix::single("front", "M"),
            "retry",
            &crash_scenario(),
            &cfg(),
        )
        .unwrap();
        assert_eq!(plain.counters.retries, 0);
        assert!(retrying.counters.retries > 0);
        assert!(retrying.retry_amplification() > plain.retry_amplification());
        assert!(retrying.conservation.holds(), "{}", retrying.conservation);
    }

    fn interval(start_ns: SimTime, ok: usize, errors: usize) -> IntervalStats {
        IntervalStats {
            start_ns,
            count: ok + errors,
            ok,
            errors,
            mean_ns: 0.0,
            p50_ns: 0,
            p99_ns: 0,
            timeouts: 0,
        }
    }

    /// Synthetic series: degraded from the fault through the end of the
    /// run, long past fault_end + rto. That is the metastability
    /// signature, so recovery_ns must be `None`.
    #[test]
    fn assess_flags_sustained_degradation_as_metastable() {
        let c = ResilienceConfig {
            interval_ns: secs(1),
            rto_ns: secs(2),
            ..ResilienceConfig::default()
        };
        let series: Vec<IntervalStats> = (0..30)
            .map(|t| {
                if t >= 4 {
                    interval(secs(t), 5, 95)
                } else {
                    interval(secs(t), 100, 0)
                }
            })
            .collect();
        let a = assess(&series, (secs(4), secs(6)), &c);
        assert!(a.metastable, "{a:?}");
        assert!(!a.bounded);
        assert_eq!(a.recovery_ns, None);
        assert_eq!(a.unavailable_ns, secs(26));
    }

    /// Degradation that clears shortly after the fault window is *not*
    /// metastable even if it overruns the RTO; recovery time is measured
    /// from fault_end.
    #[test]
    fn assess_measures_recovery_time_for_transient_degradation() {
        let c = ResilienceConfig {
            interval_ns: secs(1),
            rto_ns: secs(2),
            ..ResilienceConfig::default()
        };
        let series: Vec<IntervalStats> = (0..30)
            .map(|t| {
                if (4..10).contains(&t) {
                    interval(secs(t), 5, 95)
                } else {
                    interval(secs(t), 100, 0)
                }
            })
            .collect();
        let a = assess(&series, (secs(4), secs(6)), &c);
        assert!(!a.metastable, "{a:?}");
        assert!(!a.bounded, "last bad interval ends at 10 s > 6 s + 2 s rto");
        assert_eq!(a.recovery_ns, Some(secs(4)));

        // A clean series never degrades: bounded, recovery 0.
        let clean: Vec<IntervalStats> = (0..30).map(|t| interval(secs(t), 100, 0)).collect();
        let a = assess(&clean, (secs(4), secs(6)), &c);
        assert!(a.bounded);
        assert!(!a.metastable);
        assert_eq!(a.recovery_ns, Some(0));
        assert_eq!(a.unavailable_ns, 0);
    }

    /// A CPU-hog fault scheduled through a scenario must degrade the run
    /// exactly like the hand-built fig6 harness would.
    #[test]
    fn trigger_scenario_runs_through_cell() {
        let spec = two_tier(ClientSpec::local());
        let scenario = Scenario {
            name: "cpu hog".into(),
            faults: FaultPlan::none().at(
                secs(4),
                Fault::CpuHog {
                    host: "h1".into(),
                    cores: 3.9,
                    duration_ns: secs(2),
                },
            ),
            window: (secs(4), secs(6)),
            ..Scenario::baseline()
        };
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "none",
            &scenario,
            &cfg(),
        )
        .unwrap();
        assert!(r.conservation.holds(), "{}", r.conservation);
    }

    /// Light load rides out a short CPU hog: after the hog the run is
    /// healthy again, and the last five seconds of arrivals plus the drain
    /// (the window Fig. 7 classifies) hold completions and no errors.
    #[test]
    fn light_load_recovers_from_cpu_hog() {
        let scenario = Scenario {
            name: "cpu hog".into(),
            faults: FaultPlan::none().at(
                secs(5),
                Fault::CpuHog {
                    host: "h1".into(),
                    cores: 3.9,
                    duration_ns: secs(2),
                },
            ),
            window: (secs(5), secs(7)),
            ..Scenario::baseline()
        };
        let cfg = ResilienceConfig {
            phases: vec![Phase::new(20, 100.0)],
            seed: 1,
            interval_ns: secs(1),
            ..ResilienceConfig::default()
        };
        let r = run_cell(
            &two_tier(ClientSpec::local()),
            &ApiMix::single("front", "M"),
            "none",
            &scenario,
            &cfg,
        )
        .unwrap();
        assert!(r.conservation.holds(), "{}", r.conservation);
        assert!(r.assessment.bounded && !r.assessment.metastable, "{r:?}");
        let tail = r.series.iter().filter(|s| s.start_ns >= secs(15));
        let (errors, count) = tail.fold((0, 0), |(e, n), s| (e + s.errors, n + s.count));
        assert!(count > 0);
        assert_eq!(errors, 0);
    }

    /// front --LB--> {back, back_r1}, each replica in its own process, so a
    /// rolling deploy has a sibling to absorb the drained replica's share.
    fn replicated_two_tier(client: ClientSpec) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "rrt".into(),
            hosts: vec![HostSpec {
                name: "h0".into(),
                cores: 8.0,
            }],
            processes: vec![
                ProcessSpec {
                    name: "p_front".into(),
                    host: 0,
                    gc: None,
                },
                ProcessSpec {
                    name: "p_back".into(),
                    host: 0,
                    gc: None,
                },
                ProcessSpec {
                    name: "p_back_r1".into(),
                    host: 0,
                    gc: None,
                },
            ],
            ..Default::default()
        };
        for (i, name) in ["back", "back_r1"].iter().enumerate() {
            let mut r = ServiceSpec::new(*name, i + 1);
            r.methods
                .insert("Work".into(), Behavior::build().compute(50_000, 0).done());
            spec.services.push(r); // 0, 1
        }
        let mut front = ServiceSpec::new("front", 0);
        front
            .methods
            .insert("M".into(), Behavior::build().call("backend", "Work").done());
        front.deps.insert(
            "backend".into(),
            DepBinding::ReplicatedService {
                targets: vec![0, 1],
                policy: LbPolicy::RoundRobin,
                client,
            },
        );
        spec.services.push(front); // 2
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 2,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    /// Two replicas × (drain 200ms + restart 100ms) ≈ 600ms of deploy.
    fn rolling(name: &str, drainless: bool) -> Scenario {
        Scenario {
            name: name.into(),
            reconfig: ReconfigPlan::none().at(
                secs(2),
                Change::RollingRestart {
                    service: "back".into(),
                    drain_ns: ms(200),
                    restart_ns: ms(100),
                    drainless,
                },
            ),
            window: (secs(2), secs(3)),
            ..Scenario::baseline()
        }
    }

    #[test]
    fn drained_rolling_deploy_cell_is_invisible() {
        let mut client = ClientSpec::local();
        client.retries = 2;
        let spec = replicated_two_tier(client);
        let r = run_cell(
            &spec,
            &ApiMix::single("front", "M"),
            "drained",
            &rolling("rolling", false),
            &cfg(),
        )
        .unwrap();
        assert!(r.conservation.holds(), "{}", r.conservation);
        assert!(
            r.assessment.bounded,
            "deploy unavailability exceeded the window"
        );
        assert!(
            !r.assessment.metastable,
            "a drained deploy must not trigger metastability"
        );
        assert_eq!(
            r.conservation.errors, 0,
            "failover + retries absorb the drained deploy entirely"
        );
    }

    use blueprint_simrt::time::us;
    use blueprint_simrt::{BackendRtKind, BackendSpec, ConsistencyMode, FailoverSpec};
    use blueprint_workflow::KeyExpr;

    /// front → one replicated store (primary `p_db`, replicas `p_r1`/`p_r2`
    /// on the same host) with 60–180 ms asynchronous replication lag and
    /// deterministic failover.
    fn failover_store(consistency: ConsistencyMode) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "cons".into(),
            hosts: vec![
                HostSpec {
                    name: "h0".into(),
                    cores: 4.0,
                },
                HostSpec {
                    name: "h1".into(),
                    cores: 4.0,
                },
            ],
            processes: ["p_front", "p_db", "p_r1", "p_r2"]
                .iter()
                .enumerate()
                .map(|(i, name)| ProcessSpec {
                    name: (*name).into(),
                    host: if i == 0 { 0 } else { 1 },
                    gc: None,
                })
                .collect(),
            ..Default::default()
        };
        spec.backends.push(BackendSpec {
            name: "db".into(),
            process: 1,
            kind: BackendRtKind::Store {
                read_latency_ns: us(100),
                write_latency_ns: us(100),
                cpu_per_op_ns: us(1),
                cpu_per_item_ns: us(1),
                replicas: 2,
                replication_lag_ns: (ms(60), ms(180)),
                consistency,
                failover: Some(FailoverSpec {
                    replica_processes: vec![2, 3],
                    detection_ns: ms(5),
                    election_ns: ms(5),
                }),
            },
        });
        let mut svc = ServiceSpec::new("svc", 0);
        svc.methods.insert(
            "Write".into(),
            Behavior::build().db_write("d", KeyExpr::Entity).done(),
        );
        svc.methods.insert(
            "Read".into(),
            Behavior::build().db_read("d", KeyExpr::Entity).done(),
        );
        svc.deps.insert(
            "d".into(),
            DepBinding::Backend {
                target: 0,
                client: ClientSpec::local(),
            },
        );
        spec.services.push(svc);
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 0,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    fn cons_cfg() -> ResilienceConfig {
        ResilienceConfig {
            phases: vec![Phase::new(8, 300.0)],
            entities: 50,
            seed: 11,
            prefill_stores: vec![("db".into(), 50)],
            probe: Some(ConsistencyProbe {
                oracle: OracleSpec::new(["Write"], ["Read"]),
                audit_entry: "front".into(),
                audit_method: "Read".into(),
                settle_ns: secs(1),
            }),
            ..Default::default()
        }
    }

    fn cons_mix() -> ApiMix {
        ApiMix::new()
            .add("front", "Read", 0.8)
            .add("front", "Write", 0.2)
    }

    /// Crash the primary shortly before traffic ends, so writes acked in
    /// the last replication-lag window are lost and not rewritten.
    fn late_crash() -> Scenario {
        Scenario {
            name: "primary crash".into(),
            faults: FaultPlan::none().at(
                secs(7) + ms(800),
                Fault::ProcessCrash {
                    process: "p_db".into(),
                    restart_delay_ns: secs(3),
                },
            ),
            ..Scenario::baseline()
        }
    }

    /// Runs one consistency arm under the late primary crash and returns
    /// the report plus its audit.
    fn cons_cell(mode: ConsistencyMode, variant: &str) -> (CellReport, ConsistencyAudit) {
        let r = run_cell(
            &failover_store(mode),
            &cons_mix(),
            variant,
            &late_crash(),
            &cons_cfg(),
        )
        .unwrap();
        assert!(r.conservation.holds(), "{}", r.conservation);
        let audit = r.consistency.clone().expect("probed cell carries an audit");
        (r, audit)
    }

    #[test]
    fn unguarded_arm_shows_stale_and_lost_under_primary_crash() {
        let (r, a) = cons_cell(ConsistencyMode::ReadReplica, "read_replica");
        assert_eq!(a.audited, 50, "every entity audited after settle");
        assert!(
            r.counters.store_failovers >= 1,
            "crash must elect a replica: {r:?}"
        );
        assert!(
            a.anomalies.stale_reads > 0,
            "asynchronous lag must surface stale reads: {}",
            a.anomalies
        );
        assert!(
            a.anomalies.lost_writes >= 1 && r.runtime_lost_writes >= 1,
            "acked writes in the lag window must be lost at failover: {} (runtime {})",
            a.anomalies,
            r.runtime_lost_writes
        );
    }

    #[test]
    fn quorum_arm_is_anomaly_free_under_primary_crash() {
        let (r, a) = cons_cell(ConsistencyMode::Quorum { w: 2, r: 2 }, "quorum");
        assert!(
            a.anomalies.clean(),
            "w=2/r=2 guarantees freshness and durability: {}",
            a.anomalies
        );
        assert_eq!(
            r.runtime_lost_writes, 0,
            "synchronous ack covers the quorum"
        );
    }

    #[test]
    fn session_arm_keeps_its_guaranteed_classes_clean() {
        let (r, a) = cons_cell(ConsistencyMode::Session, "session");
        assert!(r.session_redirects > 0, "the floor must redirect: {r:?}");
        assert_eq!(
            (a.anomalies.ryw_violations, a.anomalies.non_monotonic_reads),
            (0, 0),
            "session mode guarantees read-your-writes and monotonic reads: {}",
            a.anomalies
        );
    }

    /// The matrix is byte-identical sequentially and on four workers for
    /// every kind of disturbance: faults, reconfiguration plans, and probed
    /// consistency cells.
    #[test]
    fn matrices_are_deterministic_across_thread_counts() {
        let matrix = |variants: Vec<(String, SystemSpec)>,
                      scenarios: Vec<Scenario>,
                      mix: ApiMix,
                      cfg: ResilienceConfig| {
            let seq = run_matrix(&variants, &scenarios, &mix, &cfg, Threads::sequential()).unwrap();
            let par = run_matrix(&variants, &scenarios, &mix, &cfg, Threads::new(4)).unwrap();
            assert_eq!(seq.len(), variants.len() * scenarios.len());
            assert_eq!(seq, par);
            assert!(
                seq.iter().all(|c| c.conservation.holds()),
                "every cell conserved"
            );
            seq
        };
        let retry = |retries| ClientSpec {
            retries,
            ..ClientSpec::local()
        };
        let front = || ApiMix::single("front", "M");

        matrix(
            vec![
                ("none".into(), two_tier(ClientSpec::local())),
                ("retry".into(), two_tier(retry(3))),
            ],
            vec![Scenario::baseline(), crash_scenario()],
            front(),
            cfg(),
        );

        let scenarios = vec![
            Scenario::baseline(),
            rolling("rolling", false),
            rolling("drainless", true),
        ];
        let n = scenarios.len();
        let seq = matrix(
            vec![
                ("none".into(), replicated_two_tier(ClientSpec::local())),
                ("retry".into(), replicated_two_tier(retry(2))),
            ],
            scenarios,
            front(),
            cfg(),
        );
        // Unprotected variant: the drainless arm kills in-flight work and
        // fast-fails arrivals on the dead replica; draining eliminates both.
        assert_eq!(seq[1].conservation.errors, 0, "drained deploy invisible");
        assert!(
            seq[2].conservation.errors > 0,
            "drainless must show the error spike draining eliminates"
        );
        // Retry variant: failover to the live replica masks even the
        // drainless spike end-to-end — visible instead as retry traffic.
        assert_eq!(seq[n + 2].conservation.errors, 0);
        assert!(
            seq[n + 2].counters.retries > seq[n + 1].counters.retries,
            "masking the drainless spike costs retries"
        );

        let seq = matrix(
            vec![
                (
                    "read_replica".into(),
                    failover_store(ConsistencyMode::ReadReplica),
                ),
                ("session".into(), failover_store(ConsistencyMode::Session)),
            ],
            vec![Scenario::baseline(), late_crash()],
            cons_mix(),
            ResilienceConfig {
                phases: vec![Phase::new(4, 300.0)],
                ..cons_cfg()
            },
        );
        assert!(seq.iter().all(|c| c.consistency.is_some()));
    }

    /// One scenario carries a crash, a CPU hog and a rolling-restart plan
    /// at once, and a probed cell reports availability and consistency
    /// from the same run.
    #[test]
    fn one_scenario_combines_fault_trigger_plan_and_probe() {
        let scenario = Scenario {
            name: "hog+crash+rolling".into(),
            faults: FaultPlan::none()
                .at(
                    secs(2),
                    Fault::CpuHog {
                        host: "h1".into(),
                        cores: 3.9,
                        duration_ns: secs(1),
                    },
                )
                .at(
                    secs(4),
                    Fault::ProcessCrash {
                        process: "p_db".into(),
                        restart_delay_ns: secs(3),
                    },
                ),
            reconfig: ReconfigPlan::none().at(
                secs(5),
                Change::RollingRestart {
                    service: "svc".into(),
                    drain_ns: ms(200),
                    restart_ns: ms(100),
                    drainless: false,
                },
            ),
            window: (secs(2), secs(6)),
        };
        let r = run_cell(
            &failover_store(ConsistencyMode::ReadReplica),
            &cons_mix(),
            "read_replica",
            &scenario,
            &cons_cfg(),
        )
        .unwrap();
        // Availability: the crash and the drain both fail work fast, and the
        // outage stays inside the window.
        assert!(r.conservation.holds(), "{}", r.conservation);
        for cause in ["crash", "drain"] {
            assert!(r.conservation.by_cause.contains_key(cause), "{r:?}");
        }
        assert!(
            r.assessment.unavailable_ns > 0 && r.assessment.bounded && !r.assessment.metastable,
            "{r:?}"
        );
        assert!(
            r.counters.store_failovers >= 1 && r.counters.drain_rejections > 0,
            "{r:?}"
        );
        // Consistency: the same run was settled, audited and classified.
        let a = r.consistency.expect("probed cell carries an audit");
        assert_eq!(a.audited, 50);
        assert!(a.anomalies.stale_reads > 0, "{}", a.anomalies);
    }
}
