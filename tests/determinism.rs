//! Determinism: the simulator is a pure function of (system spec, seed,
//! workload). Running the same experiment twice must yield byte-identical
//! completion streams — ordering, timestamps, failure labels, observed
//! versions, everything. This pins the engine's RNG-consumption and
//! event-ordering behavior so performance refactors can be checked against it.

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::{Completion, SimConfig};
use blueprint::workload::generator::{OpenLoopGen, Phase};
use blueprint::workload::{run_experiment_collecting, ExperimentSpec};

/// Runs HotelReservation for `secs` seconds at `rps` with the given seed
/// through the experiment driver (5 s drain past the last arrival) and
/// returns the full completion stream in emission order.
fn completion_stream(seed: u64, secs: u64, rps: f64) -> Vec<Completion> {
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
    run_experiment_collecting(&mut sim, ExperimentSpec::new(gen))
        .expect("experiment runs")
        .1
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
