//! Prints an FNV-1a checksum of the HotelReservation completion stream for a
//! fixed (seed, duration, rate), run through the experiment driver every
//! experiment uses (5 s drain past the last arrival). Used to verify engine
//! and driver refactors preserve byte-identical behavior across builds.

use blueprint::apps::{hotel_reservation as hr, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::SimConfig;
use blueprint::workload::generator::{OpenLoopGen, Phase};
use blueprint::workload::{run_experiment_collecting, ExperimentSpec};

fn main() {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&hr::workflow(), &hr::wiring(&WiringOpts::default()))
        .expect("compiles");
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
    let (_, completions) =
        run_experiment_collecting(&mut sim, ExperimentSpec::new(gen)).expect("experiment runs");
    let mut h: u64 = 0xcbf29ce484222325;
    for c in &completions {
        for b in format!("{c:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    println!("completions={} checksum={h:016x}", completions.len());
}
