//! Determinism: the simulator is a pure function of (system spec, seed,
//! workload). Running the same experiment twice must yield byte-identical
//! completion streams — ordering, timestamps, failure labels, observed
//! versions, everything. This pins the engine's RNG-consumption and
//! event-ordering behavior so performance refactors can be checked against it.

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::metrics::EvKind;
use blueprint::simrt::{Completion, Sim, SimConfig};
use blueprint::workload::generator::{OpenLoopGen, Phase};
use blueprint::workload::{run_experiment_collecting, ExperimentSpec};

/// Runs HotelReservation for `secs` seconds at `rps` with the given seed
/// through the experiment driver (5 s drain past the last arrival) and
/// returns the full completion stream in emission order.
fn completion_stream(seed: u64, secs: u64, rps: f64) -> Vec<Completion> {
    run_hotel(seed, secs, rps).1
}

/// The run behind [`completion_stream`], also returning the drained sim.
fn run_hotel(seed: u64, secs: u64, rps: f64) -> (Sim, Vec<Completion>) {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("hotel reservation compiles");
    let mut sim = app
        .simulation_with(SimConfig {
            seed,
            ..Default::default()
        })
        .expect("sim boots");
    let gen = OpenLoopGen::new(
        vec![Phase::new(secs, rps)],
        hr::paper_mix(),
        hr::ENTITIES,
        seed,
    );
    let (_, completions) =
        run_experiment_collecting(&mut sim, ExperimentSpec::new(gen)).expect("experiment runs");
    (sim, completions)
}

#[test]
fn same_seed_identical_completion_streams() {
    let a = completion_stream(1234, 2, 700.0);
    let b = completion_stream(1234, 2, 700.0);
    assert!(!a.is_empty(), "workload produced no completions");
    assert_eq!(a.len(), b.len(), "completion counts diverge");
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(x, y, "completion #{i} diverges");
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the stream actually depends on the seed (otherwise
    // the identity test above would be vacuous).
    let a = completion_stream(1, 1, 500.0);
    let b = completion_stream(2, 1, 500.0);
    assert_ne!(a, b, "different seeds should produce different streams");
}

#[test]
fn anchor_run_dispatch_counts_by_kind() {
    // The pinned anchor run (seed 5, 5 s at 2 krps; `stream_checksum`). The
    // event loop counts every dispatch by kind, so these move exactly when
    // the event schedule does.
    let (sim, completions) = run_hotel(5, 5, 2_000.0);
    assert_eq!(completions.len(), 10_162);
    let d = &sim.metrics.counters.dispatched;
    let mut expect = [0; EvKind::COUNT];
    expect[EvKind::HostCheckLive as usize] = 365_644;
    expect[EvKind::HostCheckStale as usize] = 1_007;
    expect[EvKind::Resume as usize] = 10_162;
    expect[EvKind::DeliverRequest as usize] = 159_682;
    expect[EvKind::DeliverResponse as usize] = 159_682;
    assert_eq!(*d, expect, "dispatches by kind");
    assert_eq!(d.iter().sum::<u64>(), 696_177);
}

/// The same anchor run's dispatch order, as `Sim::dispatch_order_fold`
/// folds it: every event but stale host checks, by time, kind and home
/// context. The checksum cannot see an order change among equal-time events
/// that commute; this can.
#[cfg(debug_assertions)]
#[test]
fn anchor_run_dispatch_order() {
    let (sim, _) = run_hotel(5, 5, 2_000.0);
    assert_eq!(sim.dispatch_order_fold(), 0xcaad_f67d_1f9a_d23d);
}

#[test]
fn anchor_run_backend_stats() {
    // The same anchor run's per-backend op counts, as
    // `(reads, writes, hits, misses, evictions)`. Every backend is listed:
    // `metrics.backends` holds one entry per backend from boot.
    let (sim, _) = run_hotel(5, 5, 2_000.0);
    let expect: [(&str, [u64; 5]); 9] = [
        ("geo_db", [6_174, 0, 0, 0, 0]),
        ("profile_cache", [49_830, 11_989, 37_841, 11_989, 0]),
        ("profile_db", [11_989, 0, 0, 0, 0]),
        ("rate_cache", [6_174, 3_577, 2_597, 3_577, 0]),
        ("rate_db", [3_577, 0, 0, 0, 0]),
        ("rec_db", [3_792, 0, 0, 0, 0]),
        ("res_cache", [6_174, 3_650, 2_622, 3_552, 0]),
        ("res_db", [3_552, 98, 0, 0, 0]),
        ("user_db", [196, 0, 0, 0, 0]),
    ];
    assert_eq!(sim.metrics.backends.values().count(), expect.len());
    for (name, want) in expect {
        let b = sim.metrics.backend(name).expect("backend present");
        let got = [b.reads, b.writes, b.hits, b.misses, b.evictions];
        assert_eq!(got, want, "{name}");
    }
}
