//! Fig. 6 — the four metastability failure types (paper §6.2.1).
//!
//! All four run on a CPU-reduced cluster (8 machines × 2 cores) with request
//! rates scaled ~1/4 from the paper, preserving the overload ratios:
//!
//! * **Type 1** (load spike → workload amplification): HotelReservation with
//!   500 ms timeouts and 10 retries; base→spike→base load. The spike pushes
//!   requests past their timeout, retries amplify load, and the system never
//!   returns to health after the spike ends.
//! * **Type 2** (load spike trigger → capacity degradation): GOGC=75 on the
//!   ReservationService process + 30 s of CPU contention; contention
//!   lengthens stop-the-world pauses, timeouts fire, retries add allocation
//!   pressure, more GC.
//! * **Type 3** (capacity-decrease trigger): 1 s timeouts + retries; 30 s of
//!   CPU contention at the 60 s mark.
//! * **Type 4** (capacity degradation → capacity degradation, SocialNetwork):
//!   pre-filled user-timeline cache flushed mid-run; misses overload the
//!   capacity-constrained timeline DB; DB calls time out before the cache
//!   can repopulate.

use std::sync::{Arc, Mutex};

use blueprint_apps::{hotel_reservation as hr, social_network as sn, WiringOpts};
use blueprint_simrt::metrics::SimCounters;
use blueprint_simrt::time::secs;
use blueprint_simrt::{Fault, FaultPlan, SimConfig, SimError};
use blueprint_wiring::WiringSpec;
use blueprint_workflow::WorkflowSpec;
use blueprint_workload::generator::{ApiMix, OpenLoopGen, Phase};
use blueprint_workload::parallel::{par_run, Threads};
use blueprint_workload::recorder::IntervalStats;
use blueprint_workload::resilience::{run_cell, ResilienceConfig, Scenario};
use blueprint_workload::{run_experiment, ExperimentSpec};

use crate::{report, Run};

/// The cluster used by the metastability studies.
const META_CLUSTER: (i64, f64) = (8, 2.0);

/// Result of one metastability run.
#[derive(Debug)]
pub struct MetaResult {
    /// Scenario label.
    pub label: String,
    /// Per-second series.
    pub series: Vec<IntervalStats>,
    /// Optional per-second cache miss rate (Type 4).
    pub miss_rate: Vec<(f64, f64)>,
    /// The simulator's counters at the end of the run.
    pub counters: SimCounters,
    /// Length of the final window the summary judges (s).
    pub tail_s: u64,
}

impl MetaResult {
    /// Packages a finished run: its series and counters. The summary judges
    /// the final 30 s of a full run, 2 s of a smoke run.
    pub fn new(
        label: &str,
        series: Vec<IntervalStats>,
        counters: SimCounters,
        size: Run,
    ) -> MetaResult {
        MetaResult {
            label: label.to_string(),
            series,
            miss_rate: Vec::new(),
            counters,
            tail_s: size.pick(2, 30),
        }
    }

    /// Error rate over the final `window_s` seconds of the run.
    pub fn final_error_rate(&self, window_s: u64) -> f64 {
        let n = self.series.len();
        let from = n.saturating_sub(window_s as usize);
        let (errs, total) = self.series[from..]
            .iter()
            .fold((0usize, 0usize), |(e, t), s| (e + s.errors, t + s.count));
        if total == 0 {
            1.0
        } else {
            errs as f64 / total as f64
        }
    }
}

fn opts_with(timeout_ms: i64, retries: u32) -> WiringOpts {
    WiringOpts {
        cluster: META_CLUSTER,
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(timeout_ms, retries)
    }
}

/// When a metastability run's trigger acts and how long the run lasts. The
/// figure runs the types at their paper timing; the overload matrix runs
/// them shorter, with a longer drain and RTO so recovery time is
/// measurable.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// When the trigger starts, s.
    at_s: u64,
    /// How long the trigger acts, s: the load spike (Type 1), the CPU
    /// contention (Types 2 and 3), or the judged window after the
    /// instantaneous cache flush (Type 4).
    trigger_s: u64,
    /// Arrival window, s.
    total_s: u64,
    /// Drain after the last arrival, s.
    drain_s: u64,
    /// Recovery-time objective past the trigger, s.
    rto_s: u64,
}

impl Timing {
    /// The figure's timing: the trigger at 60 s for 30 s in a `total_s` run
    /// (2 s and 2 s in a `smoke_s` run under `--smoke`), the driver's 5 s
    /// drain.
    fn figure(size: Run, smoke_s: u64, total_s: u64) -> Timing {
        let (at_s, trigger_s, total_s) = size.pick((2, 2, smoke_s), (60, 30, total_s));
        Timing {
            at_s,
            trigger_s,
            total_s,
            drain_s: 5,
            rto_s: 2,
        }
    }

    /// The overload matrix's timing: the trigger at 20 s for `trigger_s` in
    /// a `total_s` run, with a 5 s RTO.
    fn matrix(trigger_s: u64, total_s: u64, drain_s: u64) -> Timing {
        Timing {
            at_s: 20,
            trigger_s,
            total_s,
            drain_s,
            rto_s: 5,
        }
    }

    /// The trigger's `(start, end)` window.
    fn window(self) -> (u64, u64) {
        (secs(self.at_s), secs(self.at_s + self.trigger_s))
    }

    /// The workload configuration of a case: one-second bins, this timing's
    /// drain and RTO, and the given load.
    fn cfg(self, seed: u64, entities: u64, phases: Vec<Phase>) -> ResilienceConfig {
        ResilienceConfig {
            phases,
            entities,
            seed,
            interval_ns: secs(1),
            drain_ns: secs(self.drain_s),
            rto_ns: secs(self.rto_s),
            ..ResilienceConfig::default()
        }
    }
}

/// One metastability type: the unmitigated wiring, workload and trigger the
/// figure runs and from which the `ablation_overload` harness derives its
/// mitigation arms.
pub struct MetaCase {
    /// Case label.
    pub name: &'static str,
    /// The app workflow.
    pub workflow: WorkflowSpec,
    /// Unmitigated wiring: timeouts + aggressive retries, no overload
    /// protection.
    pub wiring: WiringSpec,
    /// API mix driven at the entries.
    pub mix: ApiMix,
    /// Per-case workload + invariant configuration (phases, prefill, RTO).
    pub cfg: ResilienceConfig,
    /// The trigger schedule and its active window.
    pub scenario: Scenario,
}

/// Type 1: load spike trigger, workload amplification. HotelReservation
/// with 500 ms timeouts and 10 retries; `base_rps` → 13 krps for the
/// trigger → `base_rps`. The spike is the trigger, so nothing is injected;
/// the scenario window marks the spike phase.
fn type1(t: Timing, base_rps: f64) -> MetaCase {
    MetaCase {
        name: "type1 load spike",
        workflow: hr::workflow(),
        wiring: hr::wiring(&opts_with(500, 10)),
        mix: hr::paper_mix(),
        cfg: t.cfg(
            61,
            hr::ENTITIES,
            vec![
                Phase::new(t.at_s, base_rps),
                Phase::new(t.trigger_s, 13_000.0),
                Phase::new(t.total_s - t.at_s - t.trigger_s, base_rps),
            ],
        ),
        scenario: Scenario {
            name: format!("spike 13k rps {}s", t.trigger_s),
            window: t.window(),
            ..Scenario::baseline()
        },
    }
}

/// A Type 2 or Type 3 case: 1.7 cores of CPU contention on the machine of
/// `service` over the trigger window, under a steady `rps`.
fn cpu_hog_case(
    name: &'static str,
    wiring: WiringSpec,
    service: &str,
    t: Timing,
    seed: u64,
    rps: f64,
) -> MetaCase {
    let host = super::host_of_service(&super::compile(&hr::workflow(), &wiring), service);
    let scenario = super::cpu_hog(
        &format!("cpu hog {service} {}s", t.trigger_s),
        host,
        1.7,
        t.at_s,
        t.trigger_s,
    );
    MetaCase {
        name,
        workflow: hr::workflow(),
        wiring,
        mix: hr::paper_mix(),
        cfg: t.cfg(seed, hr::ENTITIES, vec![Phase::new(t.total_s, rps)]),
        scenario,
    }
}

/// Type 2: load spike trigger, capacity degradation amplification (GOGC=75
/// on the ReservationService process + CPU contention on its machine at
/// 4 krps).
fn type2(t: Timing) -> MetaCase {
    let wiring = hr::wiring_type2(&opts_with(500, 10));
    cpu_hog_case("type2 gc contention", wiring, "reservation", t, 62, 4_000.0)
}

/// Type 3: capacity-decreasing trigger, workload amplification (1 s
/// timeouts; CPU contention on the frontend's machine at 5.5 krps).
fn type3(t: Timing) -> MetaCase {
    let wiring = hr::wiring(&opts_with(1_000, 10));
    cpu_hog_case("type3 capacity dip", wiring, "frontend", t, 63, 5_500.0)
}

/// Type 4: the user-timeline cache of SocialNetwork, pre-filled with all
/// `timelines` of the timeline DB, flushed at the trigger; at 1.8 krps the
/// misses overload the capacity-constrained DB, whose calls time out
/// before the cache can repopulate.
fn type4(t: Timing, timelines: u64) -> MetaCase {
    MetaCase {
        name: "type4 cache flush",
        workflow: sn::workflow(),
        wiring: sn::wiring_type4(&opts_with(1_000, 10), 1_500),
        mix: ApiMix::single("gateway", "ReadUserTimeline"),
        cfg: ResilienceConfig {
            prefill_stores: vec![("ut_db".to_string(), timelines)],
            prefill_caches: vec![("ut_cache".to_string(), timelines)],
            ..t.cfg(64, timelines, vec![Phase::new(t.total_s, 1_800.0)])
        },
        scenario: Scenario {
            name: "flush ut_cache".into(),
            faults: FaultPlan::none().at(
                secs(t.at_s),
                Fault::CacheFlush {
                    backend: "ut_cache".into(),
                },
            ),
            window: t.window(),
            ..Scenario::baseline()
        },
    }
}

/// The four types by name, in figure order.
pub const TYPES: [&str; 4] = ["type1", "type2", "type3", "type4"];

/// The figure's title of each type, in figure order.
const LABELS: [&str; 4] = [
    "Type 1 (load spike → retry storm)",
    "Type 2 (GC amplification under contention)",
    "Type 3 (capacity trigger → retry storm)",
    "Type 4 (cache flush → DB overload)",
];

/// Timeline key-space of the Type 4 figure: much larger than the request
/// rate, so after a flush the cache cannot repopulate faster than the
/// database melts down.
const FIGURE_TIMELINES: u64 = 200_000;

/// Timeline key-space used by the Type 4 matrix case — smaller than the
/// figure's 200 k so a protected arm can refill the cache within the run.
const MATRIX_TIMELINES: u64 = 40_000;

/// Runs the named types (all four when `names` is empty) as one parallel
/// batch and returns each result with its name, in figure order.
pub fn run(size: Run, names: &[String]) -> Vec<(&'static str, MetaResult)> {
    let chosen: Vec<usize> = (0..TYPES.len())
        .filter(|&i| names.is_empty() || names.iter().any(|n| n == TYPES[i]))
        .collect();
    let timing = |smoke_s, total_s| Timing::figure(size, smoke_s, total_s);
    par_run(chosen.len(), Threads::from_env(), |j| {
        let (i, label) = (chosen[j], LABELS[chosen[j]]);
        let result = match i {
            0 => run_hotel(label, type1(timing(6, 180), 2_500.0), size),
            1 => run_hotel(label, type2(timing(5, 150)), size),
            2 => run_hotel(label, type3(timing(5, 120)), size),
            _ => run_type4(label, type4(timing(5, 120), FIGURE_TIMELINES), size),
        };
        Ok::<_, SimError>((TYPES[i], result))
    })
    .expect("metastability runs")
}

/// Runs one HotelReservation type through [`run_cell`].
fn run_hotel(label: &str, case: MetaCase, size: Run) -> MetaResult {
    let app = super::compile(&case.workflow, &case.wiring);
    let report = run_cell(app.system(), &case.mix, label, &case.scenario, &case.cfg)
        .expect("experiment runs");
    MetaResult::new(label, report.series, report.counters, size)
}

/// Runs the Type 4 figure.
///
/// The flush is a boot-plan fault like every other trigger, but this type
/// stays on the bare experiment driver: its per-second cache sampler is a
/// driver observer, which a [`Scenario`] (plans only) cannot carry.
/// Deterministic per-interval telemetry in the simulator would let it run
/// through [`run_cell`] too.
fn run_type4(label: &str, case: MetaCase, size: Run) -> MetaResult {
    let cfg = &case.cfg;
    let mut sim = super::compile(&case.workflow, &case.wiring)
        .simulation_with(SimConfig {
            seed: cfg.seed,
            faults: case.scenario.faults.clone(),
            ..Default::default()
        })
        .expect("simulation boots");
    // Phase 1 of the paper: fill the cache with all content of the
    // userTimelineDatabase.
    for (backend, n) in &cfg.prefill_stores {
        sim.store_fill(backend, *n, 1).expect("db fill");
    }
    for (backend, n) in &cfg.prefill_caches {
        sim.cache_fill(backend, *n, 1).expect("cache fill");
    }
    let gen = OpenLoopGen::new(cfg.phases.clone(), case.mix.clone(), cfg.entities, cfg.seed);
    // Sample cumulative hit/miss counters each second of the arrival window
    // for the miss-rate series. (`Arc<Mutex<..>>` rather than
    // `Rc<RefCell<..>>` so the observers satisfy `Action`'s `Send` bound;
    // the experiment itself still runs on one thread.)
    let total_s = cfg.phases.iter().map(|p| p.duration_ns).sum::<u64>() / secs(1);
    let samples: Arc<Mutex<Vec<(f64, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut exp = ExperimentSpec::new(gen)
        .interval(cfg.interval_ns)
        .drain(cfg.drain_ns);
    for t in 1..=total_s {
        let s = samples.clone();
        exp = exp.at(secs(t), move |sim| {
            let (h, m) = sim
                .metrics
                .backend("ut_cache")
                .map(|b| (b.hits, b.misses))
                .unwrap_or((0, 0));
            s.lock().expect("sampler lock").push((t as f64, h, m));
        });
    }
    let rec = run_experiment(&mut sim, exp).expect("experiment runs");

    // Convert cumulative samples into per-interval miss rates.
    let mut miss_rate = Vec::new();
    let mut prev = (0u64, 0u64);
    for (t, h, m) in samples.lock().expect("sampler lock").iter() {
        let dh = h - prev.0;
        let dm = m - prev.1;
        prev = (*h, *m);
        let rate = if dh + dm == 0 {
            0.0
        } else {
            dm as f64 / (dh + dm) as f64
        };
        miss_rate.push((*t, rate));
    }
    let counters = sim.metrics.counters.clone();
    MetaResult {
        miss_rate,
        ..MetaResult::new(label, rec.series(), counters, size)
    }
}

/// The four types as overload-matrix cases, at the matrix's timing.
pub fn meta_cases() -> Vec<MetaCase> {
    vec![
        type1(Timing::matrix(10, 60, 10), 2_500.0),
        type2(Timing::matrix(10, 60, 10)),
        type3(Timing::matrix(10, 60, 12)),
        type4(Timing::matrix(2, 80, 12), MATRIX_TIMELINES),
    ]
}

/// A miniature Type 1 for the CI smoke: small enough to run twice (thread
/// determinism compare) in seconds, same spike shape from a 1.5 krps base.
/// The drain covers a worst-case retry chain (11 × 500 ms + backoffs).
pub fn smoke_case() -> MetaCase {
    let t = Timing {
        at_s: 5,
        trigger_s: 3,
        total_s: 16,
        drain_s: 8,
        rto_s: 3,
    };
    MetaCase {
        name: "type1 smoke",
        ..type1(t, 1_500.0)
    }
}

/// Renders one result (series + summary line).
pub fn print(r: &MetaResult) -> String {
    let mut out = report::series(
        &format!("Fig. 6 — {}", r.label),
        &["mean ms", "p99 ms", "err rate", "goodput"],
        &super::latency_rows(&r.series),
    );
    if !r.miss_rate.is_empty() {
        let rows: Vec<(f64, Vec<f64>)> = r.miss_rate.iter().map(|(t, m)| (*t, vec![*m])).collect();
        out.push_str(&report::series("cache miss rate", &["miss rate"], &rows));
    }
    out.push_str(&format!(
        "summary: retries={} timeouts={} gc_pauses={} final-{}s error rate={:.3}\n",
        r.counters.retries,
        r.counters.timeouts,
        r.counters.gc_pauses,
        r.tail_s,
        r.final_error_rate(r.tail_s),
    ));
    out
}
