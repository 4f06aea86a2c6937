//! Latency–throughput sweeps (Figs. 5, 11, 12): one fresh seeded run per
//! offered rate.
//!
//! Every sweep point is an independent seeded simulation run, so sweeps
//! execute on the [`crate::parallel`] engine: each worker builds its own
//! [`Sim`] from the shared `&SystemSpec` and results are collected in index
//! order, making parallel output byte-identical to the sequential loop
//! (`BLUEPRINT_THREADS=1` forces the legacy path). Disturbance experiments
//! (load + trigger, Fig. 7) run through [`crate::resilience::run_cell`].

use blueprint_simrt::time::secs;
use blueprint_simrt::{Sim, SimConfig, SimError, SystemSpec};

use crate::driver::{run_experiment, ExperimentSpec};
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

/// Runs latency–throughput sweeps: for each rate of each spec, a fresh
/// simulation of the spec's system runs `duration_s` of its mix; stats come
/// from the steady three quarters of the run (paper: 1-minute runs per
/// rate). All `(sweep, rate)` cells are scheduled as one flat parallel
/// batch, so a slow variant does not serialize behind a fast one. Returns
/// one point vector per spec, in spec order.
pub fn latency_throughput(
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

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_simrt::{ClientSpec, EntrySpec, HostSpec, ProcessSpec, ServiceSpec};
    use blueprint_workflow::Behavior;

    /// Everything a sweep shares across worker threads, and everything a
    /// worker sends back, must be `Send + Sync`. (Each `Sim` is built inside
    /// its worker and stays there, although it is `Send`: `blueprint-simrt`
    /// pins that with a compile-time assert.)
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<SystemSpec>();
        assert_send_sync::<ApiMix>();
        assert_send_sync::<SweepSpec<'static>>();
        assert_send_sync::<SweepPoint>();
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

    fn one(system: &SystemSpec, rates: &[f64], seed: u64, threads: Threads) -> Vec<SweepPoint> {
        let mix = ApiMix::single("front", "M");
        let spec = SweepSpec {
            system,
            mix: &mix,
            rates_rps: rates,
            duration_s: 4,
            entities: 50,
            seed,
        };
        latency_throughput(&[spec], threads).unwrap().remove(0)
    }

    #[test]
    fn latency_rises_near_saturation() {
        // Capacity = 1 core / 1 ms per request = 1000 rps.
        let sys = system(1_000_000);
        let spec = SweepSpec {
            system: &sys,
            mix: &ApiMix::single("front", "M"),
            rates_rps: &[200.0, 900.0],
            duration_s: 10,
            entities: 100,
            seed: 1,
        };
        let pts = latency_throughput(&[spec], Threads::from_env())
            .unwrap()
            .remove(0);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].mean_ms < pts[1].mean_ms, "{pts:?}");
        assert!(pts[0].goodput_rps > 150.0);
        assert!(pts[1].p99_ms >= pts[1].p50_ms);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let sys = system(500_000);
        let rates = [200.0, 600.0, 1_100.0, 1_600.0];
        let seq = one(&sys, &rates, 9, Threads::sequential());
        let par = one(&sys, &rates, 9, Threads::new(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_matches_single_sweeps() {
        let fast = system(200_000);
        let slow = system(900_000);
        let mix = ApiMix::single("front", "M");
        let rates = [300.0, 800.0];
        let spec = |system, seed| SweepSpec {
            system,
            mix: &mix,
            rates_rps: &rates,
            duration_s: 4,
            entities: 50,
            seed,
        };
        let specs = [spec(&fast, 5), spec(&slow, 6)];
        let grouped = latency_throughput(&specs, Threads::new(3)).unwrap();
        assert_eq!(grouped.len(), 2);
        for (spec, pts) in specs.iter().zip(&grouped) {
            assert_eq!(
                *pts,
                one(
                    spec.system,
                    spec.rates_rps,
                    spec.seed,
                    Threads::sequential()
                )
            );
        }
    }
}
