//! Parameter sweeps: latency–throughput profiles (Figs. 5, 11, 12) and the
//! metastability vulnerability grid (Fig. 7).
//!
//! Every sweep point and grid cell is an independent seeded simulation run,
//! so sweeps execute on the [`crate::parallel`] engine: each worker builds
//! its own [`Sim`] from the shared `&SystemSpec` and results are collected
//! in index order, making parallel output byte-identical to the sequential
//! loop (`BLUEPRINT_THREADS=1` forces the legacy path).

use blueprint_simrt::time::{secs, SimTime};
use blueprint_simrt::{Fault, Sim, SimConfig, SimError, SystemSpec};

use crate::driver::{run_experiment, Action, ExperimentSpec};
use crate::generator::{ApiMix, OpenLoopGen, Phase};
use crate::parallel::{par_run, Threads};

/// One point of a latency–throughput sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered load, requests/second.
    pub offered_rps: f64,
    /// Achieved goodput, requests/second.
    pub goodput_rps: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Error fraction.
    pub error_rate: f64,
}

/// One latency–throughput sweep: a system, a mix, and the load schedule.
/// Borrowed so many variants can share one compiled system (Figs. 5/11/12
/// flatten several of these into a single parallel batch).
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec<'a> {
    /// The system under test.
    pub system: &'a SystemSpec,
    /// API mix driven at the entries.
    pub mix: &'a ApiMix,
    /// Offered rates, requests/second — one independent run per rate.
    pub rates_rps: &'a [f64],
    /// Run duration per rate, seconds.
    pub duration_s: u64,
    /// Entity-id space size.
    pub entities: u64,
    /// Base seed; rate `i` runs with `seed + i` (the historical sequential
    /// seeding, preserved so results stay byte-identical).
    pub seed: u64,
}

/// Runs one rate of a latency–throughput sweep in a fresh simulation.
fn sweep_point(spec: &SweepSpec<'_>, rate_idx: usize) -> Result<SweepPoint, SimError> {
    let rps = spec.rates_rps[rate_idx];
    let seed = spec.seed + rate_idx as u64;
    let mut sim = Sim::new(
        spec.system,
        SimConfig {
            seed,
            ..Default::default()
        },
    )?;
    let gen = OpenLoopGen::new(
        vec![Phase::new(spec.duration_s, rps)],
        spec.mix.clone(),
        spec.entities,
        seed,
    );
    let rec = run_experiment(&mut sim, ExperimentSpec::new(gen))?;
    // Skip the first quarter as warmup (rounded up to a whole recorder
    // bin so bin-boundary truncation does not bias goodput).
    let warmup_s = spec.duration_s.div_ceil(4);
    // Measure only completions inside the arrival window: including the
    // drain tail would credit backlog completions to a shorter
    // denominator and overstate goodput under saturation.
    let w = rec.window(secs(warmup_s), secs(spec.duration_s));
    // Goodput normalizes by the arrival window the measurements cover;
    // the drain tail only adds completions of requests submitted within
    // that window.
    let window_s = (spec.duration_s - warmup_s) as f64;
    Ok(SweepPoint {
        offered_rps: rps,
        goodput_rps: w.ok as f64 / window_s,
        mean_ms: w.mean_ns / 1e6,
        p50_ms: w.p50_ns as f64 / 1e6,
        p99_ms: w.p99_ns as f64 / 1e6,
        error_rate: w.error_rate(),
    })
}

/// Runs a latency–throughput sweep: for each rate, a fresh simulation of
/// `system` runs `duration_s` of the given mix; stats come from the steady
/// half of the run (paper: 1-minute runs per rate). Rates run in parallel
/// per the [`Threads::from_env`] configuration.
pub fn latency_throughput(
    system: &SystemSpec,
    mix: &ApiMix,
    rates_rps: &[f64],
    duration_s: u64,
    entities: u64,
    seed: u64,
) -> Result<Vec<SweepPoint>, SimError> {
    latency_throughput_with(
        system,
        mix,
        rates_rps,
        duration_s,
        entities,
        seed,
        Threads::from_env(),
    )
}

/// [`latency_throughput`] with an explicit thread count.
#[allow(clippy::too_many_arguments)]
pub fn latency_throughput_with(
    system: &SystemSpec,
    mix: &ApiMix,
    rates_rps: &[f64],
    duration_s: u64,
    entities: u64,
    seed: u64,
    threads: Threads,
) -> Result<Vec<SweepPoint>, SimError> {
    let spec = SweepSpec {
        system,
        mix,
        rates_rps,
        duration_s,
        entities,
        seed,
    };
    par_run(rates_rps.len(), threads, |i| sweep_point(&spec, i))
}

/// Runs several sweeps as one flat parallel batch: all `(sweep, rate)` cells
/// are scheduled together, so a slow variant does not serialize behind a
/// fast one. Returns one point vector per input spec, each identical to what
/// [`latency_throughput`] would produce for that spec alone.
pub fn latency_throughput_many(
    specs: &[SweepSpec<'_>],
    threads: Threads,
) -> Result<Vec<Vec<SweepPoint>>, SimError> {
    // Flatten to (spec index, rate index) jobs.
    let jobs: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.rates_rps.len()).map(move |ri| (si, ri)))
        .collect();
    let flat = par_run(jobs.len(), threads, |j| {
        let (si, ri) = jobs[j];
        sweep_point(&specs[si], ri)
    })?;
    // Regroup in spec order (jobs were emitted spec-major).
    let mut out: Vec<Vec<SweepPoint>> = specs.iter().map(|_| Vec::new()).collect();
    for ((si, _), p) in jobs.into_iter().zip(flat) {
        out[si].push(p);
    }
    Ok(out)
}

/// Outcome of one vulnerability-grid cell (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// System returned to a healthy state after the trigger.
    Recovered,
    /// System remained in a metastable failure state.
    Metastable,
}

/// Result of [`trigger_recovery`]: the post-trigger observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TriggerResult {
    /// Error rate in the final observation window.
    pub final_error_rate: f64,
    /// Mean latency in the final observation window, ms.
    pub final_mean_ms: f64,
    /// Classification.
    pub outcome: CellOutcome,
}

/// Seconds of drain the post-run observation window extends past the last
/// arrival. Matches the [`ExperimentSpec`] default drain period: requests
/// still in flight when arrivals stop get up to this long to complete (or
/// time out) and be recorded, so saturation-backlog completions count toward
/// the cell's classification instead of silently disappearing.
pub const DRAIN_TAIL_S: u64 = 5;

/// One load + trigger scenario (a Fig. 7 grid cell): steady load for
/// `total_s` seconds, a CPU-contention trigger on `trigger_host` during
/// `[trigger_at_s, trigger_at_s + trigger_dur_s)`, classification over the
/// last `observe_s` seconds plus the [`DRAIN_TAIL_S`] drain.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerSpec {
    /// Offered load, requests/second.
    pub rps: f64,
    /// Arrival-window length, seconds.
    pub total_s: u64,
    /// Entity-id space size (uniform with [`SweepSpec::entities`]; grid
    /// cells historically hardcoded 10,000).
    pub entities: u64,
    /// Host receiving the CPU-contention trigger.
    pub trigger_host: String,
    /// Cores consumed by the contender.
    pub trigger_cores: f64,
    /// Trigger start, seconds.
    pub trigger_at_s: u64,
    /// Trigger duration, seconds.
    pub trigger_dur_s: u64,
    /// Observation window: the last `observe_s` seconds of the arrival
    /// window (plus drain) are classified.
    pub observe_s: u64,
    /// Recovered ⇔ observed error rate is at or below this.
    pub recover_error_threshold: f64,
    /// Simulation + workload seed.
    pub seed: u64,
}

/// Runs a load + trigger scenario and classifies recovery (recovered ⇔
/// error rate over the observation window at most
/// [`TriggerSpec::recover_error_threshold`], with at least one completion
/// observed).
pub fn trigger_recovery(
    system: &SystemSpec,
    mix: &ApiMix,
    spec: &TriggerSpec,
) -> Result<TriggerResult, SimError> {
    let mut sim = Sim::new(
        system,
        SimConfig {
            seed: spec.seed,
            ..Default::default()
        },
    )?;
    let gen = OpenLoopGen::new(
        vec![Phase::new(spec.total_s, spec.rps)],
        mix.clone(),
        spec.entities,
        spec.seed,
    );
    let exp = ExperimentSpec::new(gen).at(
        secs(spec.trigger_at_s),
        Action::Fault(Fault::CpuHog {
            host: spec.trigger_host.clone(),
            cores: spec.trigger_cores,
            duration_ns: secs(spec.trigger_dur_s),
        }),
    );
    let rec = run_experiment(&mut sim, exp)?;
    let from: SimTime = secs(spec.total_s - spec.observe_s);
    let w = rec.window(from, secs(spec.total_s) + secs(DRAIN_TAIL_S));
    let err = w.error_rate();
    Ok(TriggerResult {
        final_error_rate: err,
        final_mean_ms: w.mean_ns / 1e6,
        outcome: if err <= spec.recover_error_threshold && w.count > 0 {
            CellOutcome::Recovered
        } else {
            CellOutcome::Metastable
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_simrt::{ClientSpec, EntrySpec, HostSpec, ProcessSpec, ServiceSpec};
    use blueprint_workflow::Behavior;

    /// Everything a sweep shares across worker threads, and everything a
    /// worker sends back, must be `Send + Sync` (the `Sim` itself is
    /// intentionally `!Send` and stays worker-local).
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<SystemSpec>();
        assert_send_sync::<ApiMix>();
        assert_send_sync::<SweepSpec<'static>>();
        assert_send_sync::<SweepPoint>();
        assert_send_sync::<TriggerSpec>();
        assert_send_sync::<TriggerResult>();
        assert_send_sync::<CellOutcome>();
    };

    fn system(compute_ns: u64) -> SystemSpec {
        let mut spec = SystemSpec {
            name: "t".into(),
            hosts: vec![HostSpec {
                name: "h0".into(),
                cores: 1.0,
            }],
            processes: vec![ProcessSpec {
                name: "p0".into(),
                host: 0,
                gc: None,
            }],
            ..Default::default()
        };
        let mut s = ServiceSpec::new("front", 0);
        s.methods
            .insert("M".into(), Behavior::build().compute(compute_ns, 0).done());
        spec.services.push(s);
        spec.entries.insert(
            "front".into(),
            EntrySpec {
                service: 0,
                client: ClientSpec::local(),
            },
        );
        spec
    }

    #[test]
    fn latency_rises_near_saturation() {
        // Capacity = 1 core / 1 ms per request = 1000 rps.
        let sys = system(1_000_000);
        let pts = latency_throughput(
            &sys,
            &ApiMix::single("front", "M"),
            &[200.0, 900.0],
            10,
            100,
            1,
        )
        .unwrap();
        assert_eq!(pts.len(), 2);
        assert!(pts[0].mean_ms < pts[1].mean_ms, "{pts:?}");
        assert!(pts[0].goodput_rps > 150.0);
        assert!(pts[1].p99_ms >= pts[1].p50_ms);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let sys = system(500_000);
        let mix = ApiMix::single("front", "M");
        let rates = [200.0, 600.0, 1_100.0, 1_600.0];
        let seq =
            latency_throughput_with(&sys, &mix, &rates, 4, 50, 9, Threads::sequential()).unwrap();
        let par = latency_throughput_with(&sys, &mix, &rates, 4, 50, 9, Threads::new(4)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn many_matches_single_sweeps() {
        let fast = system(200_000);
        let slow = system(900_000);
        let mix = ApiMix::single("front", "M");
        let rates = [300.0, 800.0];
        let specs = [
            SweepSpec {
                system: &fast,
                mix: &mix,
                rates_rps: &rates,
                duration_s: 4,
                entities: 50,
                seed: 5,
            },
            SweepSpec {
                system: &slow,
                mix: &mix,
                rates_rps: &rates,
                duration_s: 4,
                entities: 50,
                seed: 6,
            },
        ];
        let grouped = latency_throughput_many(&specs, Threads::new(3)).unwrap();
        assert_eq!(grouped.len(), 2);
        for (spec, pts) in specs.iter().zip(&grouped) {
            let single = latency_throughput_with(
                spec.system,
                spec.mix,
                spec.rates_rps,
                spec.duration_s,
                spec.entities,
                spec.seed,
                Threads::sequential(),
            )
            .unwrap();
            assert_eq!(*pts, single);
        }
    }

    #[test]
    fn trigger_recovery_classifies_light_load_as_recovered() {
        let sys = system(100_000);
        let r = trigger_recovery(
            &sys,
            &ApiMix::single("front", "M"),
            &TriggerSpec {
                rps: 100.0,
                total_s: 20,
                entities: 10_000,
                trigger_host: "h0".into(),
                trigger_cores: 0.9,
                trigger_at_s: 5,
                trigger_dur_s: 2,
                observe_s: 5,
                recover_error_threshold: 0.05,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(r.outcome, CellOutcome::Recovered, "{r:?}");
    }
}
