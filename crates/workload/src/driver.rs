//! Experiment driver: runs a workload against a simulation with scheduled
//! actions (the configure–build–deploy → run → measure loop of the paper's
//! evaluation).

use blueprint_simrt::time::SimTime;
use blueprint_simrt::{EntryHandle, Sim, SimError};

use crate::generator::OpenLoopGen;
use crate::recorder::Recorder;

/// A scheduled experiment action (the anomaly-injector substitute).
pub enum Action {
    /// Inject a fault (crash, host down, partition, brownout, CPU hog,
    /// cache flush) immediately.
    Fault(blueprint_simrt::Fault),
    /// Apply a runtime change (rolling restart, scale, canary) immediately.
    Reconfig(blueprint_simrt::Change),
    /// Arbitrary driver action. `Send` so a whole [`ExperimentSpec`] can be
    /// built on (or moved to) a parallel-engine worker thread; the closure
    /// still runs single-threaded against the worker-local `Sim`.
    Custom(Box<dyn FnMut(&mut Sim) + Send>),
}

impl std::fmt::Debug for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Fault(fault) => f.debug_tuple("Fault").field(fault).finish(),
            Action::Reconfig(change) => f.debug_tuple("Reconfig").field(change).finish(),
            Action::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// A full experiment: workload + scheduled actions + measurement config.
pub struct ExperimentSpec {
    /// The arrival process.
    pub generator: OpenLoopGen,
    /// `(virtual time, action)` pairs; executed in time order.
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

    /// Schedules an action.
    pub fn at(mut self, t_ns: SimTime, action: Action) -> Self {
        self.actions.push((t_ns, action));
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
/// Arrivals and scheduled actions are merged in time order; after the last
/// arrival the simulation drains for `drain_ns` so in-flight requests finish
/// (or time out) and are recorded.
pub fn run_experiment(sim: &mut Sim, spec: ExperimentSpec) -> Result<Recorder, SimError> {
    run_experiment_collecting(sim, spec).map(|(rec, _)| rec)
}

/// Like [`run_experiment`], but also returns every raw
/// [`Completion`](blueprint_simrt::Completion) in completion order — the
/// input the consistency oracle classifies.
pub fn run_experiment_collecting(
    sim: &mut Sim,
    spec: ExperimentSpec,
) -> Result<(Recorder, Vec<blueprint_simrt::Completion>), SimError> {
    // The completion buffer is reserved once, for the expected arrivals plus
    // a sixteenth (six standard deviations of a 10k-arrival Poisson run).
    // Grown by doubling instead, it is copied several times, and where each
    // copy lands in the heap changes the process's peak memory from one
    // seed to the next.
    let expected = spec.generator.expected_arrivals();
    let mut completions = Vec::with_capacity((expected * 17.0 / 16.0) as usize);
    let mut recorder = Recorder::new(spec.interval_ns);
    let mut actions = spec.actions;
    actions.sort_by_key(|(t, _)| *t);
    let mut actions = actions.into_iter().peekable();
    let end = spec.generator.duration_ns();

    // Entry points are few; resolve each (entry, method) pair once and
    // submit through handles so the per-arrival path does no name lookups.
    let mut handles: Vec<(String, String, EntryHandle)> = Vec::new();

    for arrival in spec.generator {
        // Execute actions due before this arrival.
        while actions
            .peek()
            .map(|(t, _)| *t <= arrival.at_ns)
            .unwrap_or(false)
        {
            let (t, action) = actions.next().expect("peeked");
            sim.run_until(t);
            apply(sim, action)?;
        }
        sim.run_until(arrival.at_ns);
        let handle = match handles
            .iter()
            .find(|(e, m, _)| *e == arrival.entry && *m == arrival.method)
        {
            Some((_, _, h)) => *h,
            None => {
                let h = sim.entry_handle(&arrival.entry, &arrival.method)?;
                handles.push((arrival.entry.clone(), arrival.method.clone(), h));
                h
            }
        };
        sim.submit_handle(handle, arrival.entity)?;
        for c in sim.drain_completions() {
            recorder.record(&c);
            completions.push(c);
        }
    }
    // Remaining actions, then drain.
    for (t, action) in actions {
        sim.run_until(t);
        apply(sim, action)?;
    }
    sim.run_until(end + spec.drain_ns);
    for c in sim.drain_completions() {
        recorder.record(&c);
        completions.push(c);
    }
    Ok((recorder, completions))
}

fn apply(sim: &mut Sim, action: Action) -> Result<(), SimError> {
    match action {
        Action::Fault(fault) => sim.inject_fault(&fault),
        Action::Reconfig(change) => sim.apply_change(&change),
        Action::Custom(mut f) => {
            f(sim);
            Ok(())
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
    use blueprint_simrt::{
        ClientSpec, EntrySpec, Fault, HostSpec, ProcessSpec, ServiceSpec, SimConfig, SystemSpec,
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
    fn actions_execute_in_time_order() {
        let mut sim = Sim::new(&spec(), SimConfig::default()).unwrap();
        let gen = OpenLoopGen::new(
            vec![Phase::new(3, 200.0)],
            ApiMix::single("front", "M"),
            10,
            2,
        )
        .deterministic();
        let exp = ExperimentSpec::new(gen).at(
            1_000_000_000,
            Action::Fault(Fault::CpuHog {
                host: "h0".into(),
                cores: 1.9,
                duration_ns: 1_000_000_000,
            }),
        );
        let rec = run_experiment(&mut sim, exp).unwrap();
        let series = rec.series();
        // Second 0: fast; second 1: hog slows things by ~20x.
        assert!(series[1].mean_ns > series[0].mean_ns * 5.0);
        // Second 2 (after hog): recovered.
        assert!(series[2].mean_ns < series[1].mean_ns);
    }

    #[test]
    fn custom_actions_run() {
        let mut sim = Sim::new(&spec(), SimConfig::default()).unwrap();
        let gen = OpenLoopGen::new(
            vec![Phase::new(1, 50.0)],
            ApiMix::single("front", "M"),
            10,
            3,
        );
        let exp = ExperimentSpec::new(gen).at(
            500_000_000,
            Action::Custom(Box::new(|sim: &mut Sim| {
                sim.inject_fault(&Fault::CpuHog {
                    host: "h0".into(),
                    cores: 0.5,
                    duration_ns: 1000,
                })
                .unwrap();
            })),
        );
        run_experiment(&mut sim, exp).unwrap();
    }
}
