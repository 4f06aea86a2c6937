//! Criterion benchmark of the simulation substrate itself: processor-sharing
//! host operations and end-to-end simulated-seconds throughput of the
//! HotelReservation system (the cost of one virtual second of cluster time).

use criterion::{criterion_group, criterion_main, Criterion};

use blueprint_apps::{hotel_reservation as hr, WiringOpts};
use blueprint_core::Blueprint;
use blueprint_simrt::host::PsHost;
use blueprint_simrt::time::secs;
use blueprint_simrt::SimConfig;
use blueprint_workload::generator::{OpenLoopGen, Phase};
use blueprint_workload::{run_experiment, ExperimentSpec};

fn bench_ps_host(c: &mut Criterion) {
    // Each job carries a payload continuation, as in the simulator; one
    // drain buffer is reused across completions and iterations.
    let mut due: Vec<u64> = Vec::new();
    c.bench_function("ps_host_add_drain_1000_jobs", |b| {
        b.iter(|| {
            let mut h = PsHost::new(8.0);
            for i in 0..1000u64 {
                h.add(i, 10_000.0, (i % 16) as usize, i);
            }
            let mut t = 1_000;
            let mut done = 0;
            while done < 1000 {
                match h.next_completion(t) {
                    Some(next) => {
                        t = next;
                        due.clear();
                        h.collect_due(t, &mut due);
                        done += due.len();
                    }
                    None => break,
                }
            }
            assert_eq!(done, 1000);
        })
    });
}

/// Per-request dispatch microbenchmark: one booted system, one request per
/// iteration, run to completion. This isolates the per-event hot path (entry
/// and method resolution, frame allocation, client routing) from workload
/// generation and boot cost, so interning/pooling changes show up directly.
fn bench_per_request(c: &mut Criterion) {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("compiles");
    let mut sim = app
        .simulation_with(SimConfig {
            seed: 7,
            ..Default::default()
        })
        .expect("boots");
    let mut entity = 0u64;
    let mut t = 0u64;
    c.bench_function("hotel_reservation_per_request", |b| {
        b.iter(|| {
            entity = (entity + 1) % hr::ENTITIES;
            sim.submit("frontend", "SearchHotels", entity)
                .expect("submit");
            // One request finishes well within 100ms of simulated time.
            t += 100_000_000;
            sim.run_until(t);
            let done = sim.drain_completions();
            assert_eq!(done.len(), 1);
        })
    });
}

fn bench_sim_second(c: &mut Criterion) {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("compiles");
    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    group.bench_function("hotel_reservation_5s_at_2krps", |b| {
        b.iter(|| {
            let mut sim = app
                .simulation_with(SimConfig {
                    seed: 5,
                    ..Default::default()
                })
                .expect("boots");
            let gen = OpenLoopGen::new(
                vec![Phase::new(5, 2_000.0)],
                hr::paper_mix(),
                hr::ENTITIES,
                5,
            );
            let rec = run_experiment(&mut sim, ExperimentSpec::new(gen)).expect("runs");
            assert!(rec.window(0, secs(10)).count > 5_000);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ps_host, bench_per_request, bench_sim_second);
criterion_main!(benches);
