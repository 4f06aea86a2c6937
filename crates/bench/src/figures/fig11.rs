//! Fig. 11 — are Blueprint-generated systems realistic? Latency–throughput
//! comparison against "original" implementations (paper §6.4).
//!
//! The original systems are modeled as simulation profiles (see `DESIGN.md`
//! §4): the original HotelReservation is also Go, so its profile equals the
//! Blueprint system (expected result: near-identical curves); the original
//! SocialNetwork is C++/nginx with Redis-specialized operations, modeled by
//! removing the GC model, halving serialization costs, zeroing the generic
//! driver overhead, and using the specialized cache path (expected result:
//! the original outperforms the Blueprint/Go variant — the cost Blueprint
//! pays for reconfigurability).

use blueprint_apps::{hotel_reservation as hr, social_network as sn, WiringOpts};
use blueprint_simrt::{SystemSpec, TransportSpec};
use blueprint_workload::parallel::Threads;
use blueprint_workload::sweep::{latency_throughput, SweepPoint, SweepSpec};

use crate::{report, Run};

/// One app's comparison.
#[derive(Debug)]
pub struct Comparison {
    /// Application label.
    pub app: String,
    /// Blueprint-generated system sweep.
    pub blueprint: Vec<SweepPoint>,
    /// Original-profile sweep.
    pub original: Vec<SweepPoint>,
}

/// Applies the "native implementation" profile to a lowered system: no
/// managed-runtime GC, cheaper marshalling, no generic-driver overhead.
pub fn native_profile(sys: &SystemSpec) -> SystemSpec {
    let mut out = sys.clone();
    for p in &mut out.processes {
        p.gc = None;
    }
    for svc in &mut out.services {
        svc.trace_overhead_ns = None;
        for b in svc.deps.values_mut() {
            let client = match b {
                blueprint_simrt::DepBinding::Service { client, .. }
                | blueprint_simrt::DepBinding::ReplicatedService { client, .. }
                | blueprint_simrt::DepBinding::Backend { client, .. } => client,
            };
            client.client_overhead_ns = 0;
            client.transport = match client.transport.clone() {
                TransportSpec::Grpc {
                    serialize_ns,
                    net_ns,
                } => TransportSpec::Grpc {
                    serialize_ns: serialize_ns / 2,
                    net_ns,
                },
                TransportSpec::Thrift {
                    pool,
                    serialize_ns,
                    net_ns,
                    reconnect_ns,
                } => TransportSpec::Thrift {
                    pool,
                    serialize_ns: serialize_ns / 2,
                    net_ns,
                    reconnect_ns,
                },
                TransportSpec::Http {
                    serialize_ns,
                    net_ns,
                } => TransportSpec::Http {
                    serialize_ns: serialize_ns / 2,
                    net_ns,
                },
                other => other,
            };
        }
    }
    for e in out.entries.values_mut() {
        e.client.client_overhead_ns = 0;
    }
    out
}

/// Runs both comparisons.
pub fn run(size: Run) -> Vec<Comparison> {
    let duration = size.pick(2, 15);
    let opts = WiringOpts::default();

    // HotelReservation: original is Go too → same profile both sides, the
    // original merely without Blueprint's tracing wrapper overhead.
    let hr_rates = size.pick(
        vec![2_000.0, 14_000.0],
        vec![
            2_000.0, 6_000.0, 10_000.0, 14_000.0, 18_000.0, 22_000.0, 26_000.0,
        ],
    );
    let hr_bp = super::compile(&hr::workflow(), &hr::wiring(&opts));
    let hr_orig = super::compile(&hr::workflow(), &hr::wiring(&opts.without_tracing()));

    // SocialNetwork: original is C++/nginx with specialized Redis ops.
    let sn_rates = size.pick(
        vec![1_000.0, 4_000.0],
        vec![1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0],
    );
    let sn_bp = super::compile(&sn::workflow(), &sn::wiring(&opts));
    let sn_native = super::compile(
        &sn::workflow_with(true),
        &sn::wiring(&opts.without_tracing()),
    );
    let native_sys = native_profile(sn_native.system());

    // All four profile sweeps run as one flat parallel batch (every
    // (system, rate) cell is an independent seeded run).
    let hr_mix = hr::paper_mix();
    let sn_mix = sn::paper_mix();
    fn spec<'a>(
        system: &'a SystemSpec,
        mix: &'a blueprint_workload::generator::ApiMix,
        rates_rps: &'a [f64],
        entities: u64,
        duration_s: u64,
    ) -> SweepSpec<'a> {
        SweepSpec {
            system,
            mix,
            rates_rps,
            duration_s,
            entities,
            seed: 2,
        }
    }
    let mut grouped = latency_throughput(
        &[
            spec(hr_bp.system(), &hr_mix, &hr_rates, hr::ENTITIES, duration),
            spec(hr_orig.system(), &hr_mix, &hr_rates, hr::ENTITIES, duration),
            spec(sn_bp.system(), &sn_mix, &sn_rates, sn::ENTITIES, duration),
            spec(&native_sys, &sn_mix, &sn_rates, sn::ENTITIES, duration),
        ],
        Threads::from_env(),
    )
    .expect("sweep")
    .into_iter();
    let mut next = || grouped.next().expect("four sweeps");
    vec![
        Comparison {
            app: "HotelReservation".into(),
            blueprint: next(),
            original: next(),
        },
        Comparison {
            app: "SocialNetwork".into(),
            blueprint: next(),
            original: next(),
        },
    ]
}

/// Renders both comparisons, then each app's mean p50 gap.
pub fn print(cmps: &[Comparison]) -> String {
    let mut out = String::new();
    for c in cmps {
        let mut rows = Vec::new();
        for (b, o) in c.blueprint.iter().zip(&c.original) {
            rows.push(vec![
                format!("{:.0}", b.offered_rps),
                report::f2(b.p50_ms),
                report::f2(o.p50_ms),
                report::f2(b.p99_ms),
                report::f2(o.p99_ms),
            ]);
        }
        out.push_str(&report::table(
            &format!("Fig. 11 — {} (Blueprint vs original profile)", c.app),
            &[
                "offered rps",
                "bp p50 ms",
                "orig p50 ms",
                "bp p99 ms",
                "orig p99 ms",
            ],
            &rows,
        ));
        out.push('\n');
    }
    for c in cmps {
        out.push_str(&format!("mean p50 gap {}: {:.2}x\n", c.app, mean_gap(c)));
    }
    out
}

/// Mean relative p50 gap of Blueprint vs original over the sweep.
pub fn mean_gap(c: &Comparison) -> f64 {
    let gaps: Vec<f64> = c
        .blueprint
        .iter()
        .zip(&c.original)
        .filter(|(b, o)| b.p50_ms > 0.0 && o.p50_ms > 0.0)
        .map(|(b, o)| b.p50_ms / o.p50_ms)
        .collect();
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}
