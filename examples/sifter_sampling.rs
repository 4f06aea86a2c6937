//! The Sifter trace sampler on live traces (paper §6.3, Fig. 9): run a
//! traced SocialNetwork, occasionally perturb a request so its trace
//! structure changes, and watch Sifter's sampling probability spike on the
//! anomalous traces.
//!
//! Run with: `cargo run --release --example sifter_sampling`

use blueprint::apps::{social_network as sn, TracerChoice, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::simrt::time::{ms, secs};
use blueprint::simrt::{Fault, SimConfig};
use blueprint::trace::{Sifter, SifterConfig};

fn main() {
    let opts = WiringOpts {
        tracing: Some(TracerChoice::XTrace),
        ..WiringOpts::default().with_timeout_retries(12, 2)
    };
    let app = Blueprint::new()
        .without_artifacts()
        .compile(&sn::workflow(), &sn::wiring(&opts))
        .unwrap();
    let mut sim = app
        .simulation_with(SimConfig {
            seed: 9,
            record_traces: true,
            ..Default::default()
        })
        .unwrap();

    // 200 ComposePost requests; 3 of them hit a briefly saturated machine
    // and time out + retry, which changes their trace structure.
    let total = 200usize;
    let anomalies = [60usize, 120, 180];
    let mut order = Vec::new();
    for i in 0..total {
        let anomalous = anomalies.contains(&i);
        if anomalous {
            for host in ["machine_0", "machine_1"] {
                sim.inject_fault(&Fault::CpuHog {
                    host: host.into(),
                    cores: 7.9,
                    duration_ns: ms(400),
                })
                .unwrap();
            }
        }
        let root = sim
            .submit("gateway", "ComposePost", 5_000 + i as u64)
            .unwrap();
        order.push((root, anomalous));
        let t = sim.now() + if anomalous { secs(2) } else { ms(60) };
        sim.run_until(t);
    }
    sim.run_until(sim.now() + secs(5));

    let traces = sim.traces.drain_finished();
    let by_root: std::collections::HashMap<u64, _> = traces.iter().map(|t| (t.id.0, t)).collect();
    let mut sifter = Sifter::new(SifterConfig {
        seed: 9,
        ..Default::default()
    });
    println!("{:>6} {:>10} {:>13}  note", "index", "loss", "P(sample)");
    for (i, (root, anomalous)) in order.iter().enumerate() {
        let Some(trace) = by_root.get(root) else {
            continue;
        };
        let d = sifter.observe_trace(trace);
        if *anomalous || i % 20 == 0 {
            println!(
                "{:>6} {:>10.4} {:>13.5}  {}",
                i,
                d.loss,
                d.probability,
                if *anomalous {
                    "<== anomalous request"
                } else {
                    ""
                }
            );
        }
    }
}
