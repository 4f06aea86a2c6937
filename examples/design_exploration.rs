//! UC1 — performance-driven design exploration (paper §6.1, Fig. 5):
//! compare HotelReservation under gRPC, Thrift (two pool sizes), and as an
//! all-in-one monolith, each variant produced by a 1-line wiring change.
//!
//! Run with: `cargo run --release --example design_exploration`

use blueprint::apps::{hotel_reservation as hr, RpcChoice, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::workload::parallel::Threads;
use blueprint::workload::sweep::{latency_throughput, SweepSpec};

fn main() {
    let variants = [
        ("grpc", WiringOpts::default().without_tracing()),
        (
            "thrift(pool=16)",
            WiringOpts::default()
                .without_tracing()
                .with_rpc(RpcChoice::Thrift { pool: 16 }),
        ),
        (
            "thrift(pool=64)",
            WiringOpts::default()
                .without_tracing()
                .with_rpc(RpcChoice::Thrift { pool: 64 }),
        ),
        (
            "monolith",
            WiringOpts::default().without_tracing().monolith(),
        ),
    ];
    let workflow = hr::workflow();
    let rates = [2_000.0, 8_000.0];

    println!(
        "{:<16} {:>10} {:>10} {:>9} {:>9}",
        "variant", "offered", "goodput", "p50 ms", "p99 ms"
    );
    for (label, opts) in variants {
        let wiring = hr::wiring(&opts);
        let app = Blueprint::new()
            .without_artifacts()
            .compile(&workflow, &wiring)
            .unwrap();
        let spec = SweepSpec {
            system: app.system(),
            mix: &hr::paper_mix(),
            rates_rps: &rates,
            duration_s: 5,
            entities: hr::ENTITIES,
            seed: 1,
        };
        let pts = latency_throughput(&[spec], Threads::from_env()).unwrap();
        for p in &pts[0] {
            println!(
                "{:<16} {:>10.0} {:>10.0} {:>9.2} {:>9.2}",
                label, p.offered_rps, p.goodput_rps, p.p50_ms, p.p99_ms
            );
        }
    }
    println!("\nEach variant differs from the base wiring spec by a single line.");
}
