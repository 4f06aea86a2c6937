//! Cross-run parallelism determinism: the experiment engine's parallel path
//! must be *byte-identical* to the sequential loop — same seeds, same job
//! order, same result vectors — regardless of worker count or scheduling.
//! This is the contract that lets figures and sweeps run on all cores while
//! remaining reproducible (`BLUEPRINT_THREADS=1` vs `=4` is checked in CI).

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::{Blueprint, CompiledApp};
use blueprint::simrt::time::{ms, secs};
use blueprint::simrt::{
    AutoscalerSpec, Change, Fault, FaultPlan, ReconfigPlan, SimConfig, SimError,
};
use blueprint::workload::generator::{OpenLoopGen, Phase};
use blueprint::workload::parallel::Threads;
use blueprint::workload::resilience::{run_cell, ResilienceConfig, Scenario};
use blueprint::workload::sweep::{latency_throughput, SweepSpec};
use blueprint::workload::{run_experiment, ExperimentSpec};

fn hotel() -> CompiledApp {
    Blueprint::new()
        .without_artifacts()
        .compile(
            &hr::workflow(),
            &hr::wiring(&WiringOpts::default().without_tracing()),
        )
        .expect("hotel reservation compiles")
}

/// A small latency–throughput sweep must produce `==`-identical point
/// vectors at 1 and 4 worker threads, for every seed.
#[test]
fn sweep_parallel_equals_sequential_across_seeds() {
    let app = hotel();
    let mix = hr::paper_mix();
    let rates = [500.0, 1_500.0, 3_000.0];
    for seed in [11u64, 12] {
        let spec = SweepSpec {
            system: app.system(),
            mix: &mix,
            rates_rps: &rates,
            duration_s: 3,
            entities: hr::ENTITIES,
            seed,
        };
        let seq = latency_throughput(&[spec], Threads::sequential()).expect("sequential sweep");
        let par = latency_throughput(&[spec], Threads::new(4)).expect("parallel sweep");
        assert_eq!(seq[0].len(), rates.len());
        assert_eq!(seq, par, "sweep diverged at seed {seed}");
    }
}

/// A small CPU-contention trigger grid (2 rates × 2 durations) run through
/// `run_cell` must produce identical reports — the whole `CellReport`,
/// series and counters included, not just a verdict — at 1 and 4 worker
/// threads, for every seed.
#[test]
fn trigger_grid_parallel_equals_sequential_across_seeds() {
    let app = hotel();
    let mix = hr::paper_mix();
    let host = app
        .system()
        .services
        .iter()
        .find(|s| s.name == "frontend")
        .map(|s| {
            let p = &app.system().processes[s.process];
            app.system().hosts[p.host].name.clone()
        })
        .expect("frontend host");
    let grid = |threads: Threads, seed: u64| {
        let jobs: Vec<(f64, u64)> = [1_000.0, 3_500.0]
            .iter()
            .flat_map(|&rps| [2u64, 5].iter().map(move |&dur| (rps, dur)))
            .collect();
        blueprint::workload::par_run(jobs.len(), threads, |i| {
            let (rps, dur) = jobs[i];
            let hog = Scenario {
                name: format!("cpu hog {dur}s"),
                faults: FaultPlan::none().at(
                    secs(4),
                    Fault::CpuHog {
                        host: host.clone(),
                        cores: 1.7,
                        duration_ns: secs(dur),
                    },
                ),
                window: (secs(4), secs(4 + dur)),
                ..Scenario::baseline()
            };
            let cfg = ResilienceConfig {
                rps,
                duration_s: 12,
                seed,
                interval_ns: secs(1),
                ..ResilienceConfig::default()
            };
            run_cell(app.system(), &mix, "hotel", &hog, &cfg)
        })
        .expect("grid runs")
    };
    for seed in [21u64, 22] {
        let seq = grid(Threads::sequential(), seed);
        let par = grid(Threads::new(4), seed);
        assert_eq!(seq, par, "trigger grid diverged at seed {seed}");
        assert!(seq.iter().all(|r| r.conserved && !r.series.is_empty()));
    }
}

/// A fault-plan run — scheduled crash + partition + brownout on the hotel
/// app — must be byte-identical at 1 and 4 worker threads, for every seed:
/// full per-interval series and fault counters, not just aggregates.
#[test]
fn fault_plan_parallel_equals_sequential_across_seeds() {
    let app = hotel();
    let mix = hr::paper_mix();
    let plan = FaultPlan::none()
        .at(
            secs(3),
            Fault::ProcessCrash {
                process: "proc_search".into(),
                restart_delay_ns: secs(1),
            },
        )
        .at(
            secs(5),
            Fault::Partition {
                a: "proc_frontend".into(),
                b: "proc_profile".into(),
                duration_ns: secs(1),
            },
        )
        .at(
            secs(7),
            Fault::Brownout {
                backend: "rate_db".into(),
                duration_ns: secs(1),
                slow_factor: 6.0,
                unavailable: false,
            },
        );
    let run = |threads: Threads, seed: u64| {
        blueprint::workload::par_run(3, threads, |i| {
            let s = seed + i as u64;
            let mut sim = app.simulation_with(SimConfig {
                seed: s,
                faults: plan.clone(),
                ..Default::default()
            })?;
            let gen = OpenLoopGen::new(vec![Phase::new(10, 800.0)], mix.clone(), hr::ENTITIES, s);
            let rec = run_experiment(&mut sim, ExperimentSpec::new(gen))?;
            Ok::<_, SimError>((
                rec.series(),
                sim.metrics.counters.faults_injected,
                sim.metrics.counters.process_crashes,
                sim.metrics.counters.crashed_frames,
            ))
        })
        .expect("fault cells run")
    };
    for seed in [31u64, 32] {
        let seq = run(Threads::sequential(), seed);
        let par = run(Threads::new(4), seed);
        assert_eq!(seq, par, "fault-plan runs diverged at seed {seed}");
        // The faults actually fired in every cell.
        assert!(seq
            .iter()
            .all(|(_, injected, crashes, _)| *injected == 3 && *crashes == 1));
    }
}

/// A combined runtime-change plan — rolling deploy + deterministic
/// autoscaler + canary rollout over a replicated search tier — must be
/// byte-identical at 1 and 4 worker threads, for every seed: the full
/// per-interval series plus every reconfiguration counter, not just
/// aggregates.
#[test]
fn reconfig_plan_parallel_equals_sequential_across_seeds() {
    let mut wiring = hr::wiring(&WiringOpts::default().without_tracing());
    blueprint::wiring::mutate::replicate(&mut wiring, "search", 3).expect("replicate search");
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &wiring)
        .expect("replicated hotel reservation compiles");
    let mix = hr::paper_mix();
    let plan = ReconfigPlan::none()
        .at(
            secs(2),
            Change::RollingRestart {
                service: "search".into(),
                drain_ns: ms(200),
                restart_ns: ms(100),
                drainless: false,
            },
        )
        .at(
            secs(5),
            Change::Canary {
                service: "search".into(),
                fraction: 0.3,
                evaluate_ns: secs(2),
                timeout_ns: Some(ms(250)),
                retries: Some(1),
            },
        )
        .with_autoscaler(AutoscalerSpec {
            service: "search".into(),
            min_replicas: 2,
            max_replicas: 3,
            high_util: 0.6,
            // hr's search tier idles far below its admission limit, so the
            // scaler exercises the scale-in path deterministically.
            low_util: 0.05,
            ewma_alpha: 0.5,
            interval_ns: ms(250),
            cooldown_ns: ms(500),
            start_ns: secs(1),
            end_ns: secs(9),
            drain_ns: ms(200),
        });
    let run = |threads: Threads, seed: u64| {
        blueprint::workload::par_run(3, threads, |i| {
            let s = seed + i as u64;
            let mut sim = app.simulation_with(SimConfig {
                seed: s,
                reconfig: plan.clone(),
                ..Default::default()
            })?;
            let gen = OpenLoopGen::new(vec![Phase::new(10, 800.0)], mix.clone(), hr::ENTITIES, s);
            let rec = run_experiment(&mut sim, ExperimentSpec::new(gen))?;
            let c = &sim.metrics.counters;
            Ok::<_, SimError>((
                rec.series(),
                c.reconfig_changes,
                c.autoscale_ups + c.autoscale_downs,
                c.canary_promotions + c.canary_rollbacks,
                c.drain_rejections,
            ))
        })
        .expect("reconfig cells run")
    };
    for seed in [41u64, 42] {
        let seq = run(Threads::sequential(), seed);
        let par = run(Threads::new(4), seed);
        assert_eq!(seq, par, "reconfig-plan runs diverged at seed {seed}");
        // The plan actually acted in every cell: both scheduled changes
        // started, the autoscaler moved, and the canary reached a verdict.
        assert!(
            seq.iter()
                .all(|(_, changes, scaled, decided, _)| *changes == 2
                    && *scaled >= 1
                    && *decided == 1),
            "plan did not act at seed {seed}: {:?}",
            seq.iter()
                .map(|(_, c, s, d, _)| (*c, *s, *d))
                .collect::<Vec<_>>()
        );
    }
}
