//! Experiment driver: runs a workload against a simulation (the
//! configure–build–deploy → run → measure loop of the paper's evaluation).
//!
//! Every timed disturbance is data in the run's [`blueprint_simrt::SimConfig`]
//! (its `faults` and `reconfig` plans); the driver only submits arrivals and
//! calls read-only observers.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use blueprint_simrt::time::SimTime;
use blueprint_simrt::{Completion, EntryHandle, Sim, SimError};

use crate::generator::OpenLoopGen;
use crate::recorder::Recorder;

/// A read-only observer, called once at its scheduled virtual time (after
/// every event at or before that time, before an arrival at the same time).
/// It sees the simulator through `&Sim`, so it can sample state but never
/// disturb the run. `Send` so a whole [`ExperimentSpec`] can be built on
/// (or moved to) a parallel-engine worker thread.
pub type Action = Box<dyn FnMut(&Sim) + Send>;

/// A full experiment: workload + scheduled observers + measurement config.
pub struct ExperimentSpec {
    /// The arrival process.
    pub generator: OpenLoopGen,
    /// `(virtual time, observer)` pairs; called in time order, same-time
    /// observers in list order.
    pub actions: Vec<(SimTime, Action)>,
    /// Recorder interval width.
    pub interval_ns: SimTime,
    /// Extra virtual time to run after the last arrival (drain).
    pub drain_ns: SimTime,
}

impl ExperimentSpec {
    /// A plain experiment with 1-second intervals and a 5-second drain.
    pub fn new(generator: OpenLoopGen) -> Self {
        ExperimentSpec {
            generator,
            actions: Vec::new(),
            interval_ns: 1_000_000_000,
            drain_ns: 5_000_000_000,
        }
    }

    /// Schedules an observer at virtual time `t_ns`.
    pub fn at(mut self, t_ns: SimTime, observer: impl FnMut(&Sim) + Send + 'static) -> Self {
        self.actions.push((t_ns, Box::new(observer)));
        self
    }

    /// Sets the recorder interval.
    pub fn interval(mut self, interval_ns: SimTime) -> Self {
        self.interval_ns = interval_ns;
        self
    }

    /// Sets the drain period.
    pub fn drain(mut self, drain_ns: SimTime) -> Self {
        self.drain_ns = drain_ns;
        self
    }
}

/// Runs an experiment to completion, returning the recorder.
///
/// Arrivals and scheduled observers are merged in time order; after the last
/// arrival the simulation drains for `drain_ns` so in-flight requests finish
/// (or time out) and are recorded. Each completion is folded into the
/// recorder as it is drained and then dropped, so memory stays flat however
/// long the run.
pub fn run_experiment(sim: &mut Sim, spec: ExperimentSpec) -> Result<Recorder, SimError> {
    drive(sim, spec, None)
}

/// Like [`run_experiment`], but also returns every raw
/// [`Completion`] in completion order — the input the consistency oracle
/// classifies.
pub fn run_experiment_collecting(
    sim: &mut Sim,
    spec: ExperimentSpec,
) -> Result<(Recorder, Vec<Completion>), SimError> {
    // The completion buffer is reserved once, for the expected arrivals plus
    // a sixteenth (six standard deviations of a 10k-arrival Poisson run).
    // Grown by doubling instead, it is copied several times, and where each
    // copy lands in the heap changes the process's peak memory from one
    // seed to the next.
    let expected = spec.generator.expected_arrivals();
    let mut completions = Vec::with_capacity((expected * 17.0 / 16.0) as usize);
    let recorder = drive(sim, spec, Some(&mut completions))?;
    Ok((recorder, completions))
}

/// The driver loop behind both entry points: records every drained
/// completion and, when `sink` is set, appends it there too.
fn drive(
    sim: &mut Sim,
    spec: ExperimentSpec,
    mut sink: Option<&mut Vec<Completion>>,
) -> Result<Recorder, SimError> {
    let mut recorder = Recorder::new(spec.interval_ns);
    let mut actions = spec.actions;
    actions.sort_by_key(|(t, _)| *t);
    let mut actions = actions.into_iter().peekable();
    let end = spec.generator.duration_ns();

    // Resolve each (entry, method) pair once and submit through handles, so
    // the per-arrival path does no name lookups in the simulator. A topology
    // can expose over a thousand entries, so the handles are kept sorted.
    let mut handles: BTreeMap<(String, String), EntryHandle> = BTreeMap::new();

    for arrival in spec.generator {
        // Call the observers due at or before this arrival.
        while let Some((t, mut observe)) = actions.next_if(|(t, _)| *t <= arrival.at_ns) {
            sim.run_until(t);
            observe(sim);
        }
        sim.run_until(arrival.at_ns);
        // The arrival's own strings become the key, so a lookup allocates
        // nothing.
        let handle = match handles.entry((arrival.entry, arrival.method)) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(slot) => {
                let (entry, method) = slot.key();
                let h = sim.entry_handle(entry, method)?;
                *slot.insert(h)
            }
        };
        sim.submit_handle(handle, arrival.entity)?;
        drain(sim, &mut recorder, sink.as_deref_mut());
    }
    // Remaining observers, then drain.
    for (t, mut observe) in actions {
        sim.run_until(t);
        observe(sim);
    }
    sim.run_until(end + spec.drain_ns);
    drain(sim, &mut recorder, sink);
    Ok(recorder)
}

/// Records the completions `sim` holds, moving them into `sink` if set.
fn drain(sim: &mut Sim, recorder: &mut Recorder, mut sink: Option<&mut Vec<Completion>>) {
    for c in sim.drain_completions() {
        recorder.record(&c);
        if let Some(sink) = sink.as_deref_mut() {
            sink.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ApiMix, OpenLoopGen, Phase};

    /// Workers of the parallel experiment engine build or receive whole
    /// experiment specs; everything in one must cross the thread boundary.
    /// (`Sync` is not required — a spec belongs to exactly one worker.)
    const fn assert_send<T: Send>() {}
    const _: () = {
        assert_send::<Action>();
        assert_send::<ExperimentSpec>();
        assert_send::<OpenLoopGen>();
    };
    use std::sync::{Arc, Mutex};

    use blueprint_simrt::{
        ClientSpec, EntrySpec, Fault, FaultPlan, HostSpec, ProcessSpec, ServiceSpec, SimConfig,
        SystemSpec,
    };
    use blueprint_workflow::Behavior;

    fn spec() -> SystemSpec {
        let mut spec = SystemSpec {
            name: "t".into(),
            hosts: vec![HostSpec {
                name: "h0".into(),
                cores: 2.0,
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
            .insert("M".into(), Behavior::build().compute(100_000, 0).done());
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
    fn drives_workload_and_records() {
        let mut sim = Sim::new(&spec(), SimConfig::default()).unwrap();
        let gen = OpenLoopGen::new(
            vec![Phase::new(2, 100.0)],
            ApiMix::single("front", "M"),
            10,
            1,
        )
        .deterministic();
        let rec = run_experiment(&mut sim, ExperimentSpec::new(gen)).unwrap();
        let series = rec.series();
        let total: usize = series.iter().map(|s| s.count).sum();
        assert_eq!(total, 200);
        assert!(series.iter().all(|s| s.errors == 0));
        // Lightly loaded: latency equals service time.
        assert_eq!(series[0].p50_ns, 100_000);
    }

    #[test]
    fn completion_buffer_is_reserved_once() {
        let mut sim = Sim::new(&spec(), SimConfig::default()).unwrap();
        let gen = OpenLoopGen::new(
            vec![Phase::new(4, 400.0)],
            ApiMix::single("front", "M"),
            10,
            4,
        );
        let (_, completions) =
            run_experiment_collecting(&mut sim, ExperimentSpec::new(gen)).unwrap();
        // 1600 expected arrivals, 1700 reserved: a buffer grown by doubling
        // would have ended at 2048.
        assert!((1500..=1700).contains(&completions.len()));
        assert_eq!(completions.capacity(), 1700);
    }

    #[test]
    fn recording_alone_matches_collecting() {
        let run = |collect: bool| {
            let mut sim = Sim::new(&spec(), SimConfig::default()).unwrap();
            let gen = OpenLoopGen::new(
                vec![Phase::new(3, 300.0)],
                ApiMix::single("front", "M"),
                10,
                7,
            );
            let exp = ExperimentSpec::new(gen).interval(100_000_000);
            if collect {
                let (rec, completions) = run_experiment_collecting(&mut sim, exp).unwrap();
                assert_eq!(
                    rec.series().iter().map(|s| s.count).sum::<usize>(),
                    completions.len()
                );
                rec.series()
            } else {
                run_experiment(&mut sim, exp).unwrap().series()
            }
        };
        let series = run(false);
        assert!(series.iter().map(|s| s.count).sum::<usize>() > 800);
        assert_eq!(series, run(true));
    }

    #[test]
    fn boot_plan_fault_shows_in_the_series() {
        let cfg = SimConfig {
            faults: FaultPlan::none().at(
                1_000_000_000,
                Fault::CpuHog {
                    host: "h0".into(),
                    cores: 1.9,
                    duration_ns: 1_000_000_000,
                },
            ),
            ..Default::default()
        };
        let mut sim = Sim::new(&spec(), cfg).unwrap();
        let gen = OpenLoopGen::new(
            vec![Phase::new(3, 200.0)],
            ApiMix::single("front", "M"),
            10,
            2,
        )
        .deterministic();
        let rec = run_experiment(&mut sim, ExperimentSpec::new(gen)).unwrap();
        let series = rec.series();
        // Second 0: fast; second 1: hog slows things by ~20x.
        assert!(series[1].mean_ns > series[0].mean_ns * 5.0);
        // Second 2 (after hog): recovered.
        assert!(series[2].mean_ns < series[1].mean_ns);
    }

    /// Observers run in time order at their own virtual time, before an
    /// arrival at the same time, and leave the run exactly as it would
    /// have been without them.
    #[test]
    fn observers_see_their_time_and_leave_the_run_untouched() {
        // Deterministic 100 rps: arrivals at 0, 10 ms, 20 ms, ...
        let gen = || {
            OpenLoopGen::new(
                vec![Phase::new(1, 100.0)],
                ApiMix::single("front", "M"),
                10,
                3,
            )
            .deterministic()
        };
        // (scheduled t, now, submitted, completed, pending events)
        type Seen = Vec<(SimTime, SimTime, u64, u64, usize)>;
        let seen: Arc<Mutex<Seen>> = Arc::default();
        let observer = |t: SimTime| {
            let seen = seen.clone();
            move |sim: &Sim| {
                let c = &sim.metrics.counters;
                seen.lock().unwrap().push((
                    t,
                    sim.now(),
                    c.submitted,
                    c.completed_ok + c.completed_err,
                    sim.pending_events(),
                ))
            }
        };
        let ms = 1_000_000;
        let mut exp = ExperimentSpec::new(gen());
        // Out of order, two at an arrival's time, one between arrivals.
        for t in [500 * ms, 255 * ms, 250 * ms, 250 * ms] {
            exp = exp.at(t, observer(t));
        }
        let mut observed = Sim::new(&spec(), SimConfig::default()).unwrap();
        let observed_series = run_experiment(&mut observed, exp).unwrap().series();

        let seen = seen.lock().unwrap().clone();
        let times: Vec<SimTime> = seen.iter().map(|s| s.0).collect();
        assert_eq!(times, [250 * ms, 250 * ms, 255 * ms, 500 * ms]);
        assert!(seen.iter().all(|s| s.1 == s.0), "{seen:?}");
        // The arrivals at 0..=240 ms are in (and done, 100 us each); the
        // one at 250 ms comes after the observers at 250 ms.
        assert_eq!((seen[0].2, seen[0].3), (25, 25));
        assert_eq!((seen[2].2, seen[2].3), (26, 26));
        assert_eq!((seen[3].2, seen[3].3), (50, 50));
        // The second observer at 250 ms sees what the first saw: the first
        // added no event and no completion.
        assert_eq!(seen[0], seen[1]);

        let mut plain = Sim::new(&spec(), SimConfig::default()).unwrap();
        let plain_series = run_experiment(&mut plain, ExperimentSpec::new(gen()))
            .unwrap()
            .series();
        assert_eq!(observed_series, plain_series);
        assert_eq!(observed.metrics, plain.metrics);
    }
}
