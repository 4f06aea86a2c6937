//! Fig. 5 — performance-driven design exploration: latency–throughput
//! profiles of HotelReservation and SocialNetwork under gRPC, Thrift with
//! client pools of 16/64/256 connections, and the all-in-one monolith.
//!
//! Paper shape to reproduce: gRPC outperforms Thrift for both applications;
//! client pool size makes only a marginal difference; the monolith
//! outperforms the microservice decomposition.

use blueprint_apps::{hotel_reservation as hr, social_network as sn, RpcChoice, WiringOpts};
use blueprint_simrt::SimError;
use blueprint_workload::generator::ApiMix;
use blueprint_workload::parallel::{par_run, Threads};
use blueprint_workload::sweep::{latency_throughput, SweepPoint, SweepSpec};

use crate::{report, Run};

/// One variant's sweep.
#[derive(Debug)]
pub struct VariantSweep {
    /// Variant label (e.g. `"grpc"`, `"thrift(pool=1)"`, `"monolith"`).
    pub variant: String,
    /// Sweep points.
    pub points: Vec<SweepPoint>,
}

/// The variants swept for one application.
fn variants() -> Vec<(String, WiringOpts)> {
    let base = WiringOpts::default().without_tracing();
    vec![
        ("grpc".into(), base),
        (
            "thrift(pool=16)".into(),
            base.with_rpc(RpcChoice::Thrift { pool: 16 }),
        ),
        (
            "thrift(pool=64)".into(),
            base.with_rpc(RpcChoice::Thrift { pool: 64 }),
        ),
        (
            "thrift(pool=256)".into(),
            base.with_rpc(RpcChoice::Thrift { pool: 256 }),
        ),
        ("monolith".into(), base.monolith()),
    ]
}

/// Runs the exploration for one app given its workflow/wiring constructors.
///
/// Variants compile in parallel, then every `(variant, rate)` cell runs as
/// one flat parallel batch — seeding matches the historical per-variant
/// sequential sweeps, so the output is byte-identical.
#[allow(clippy::too_many_arguments)]
fn explore(
    app_name: &str,
    workflow: &blueprint_workflow::WorkflowSpec,
    wiring_of: impl Fn(&WiringOpts) -> blueprint_wiring::WiringSpec + Sync,
    mix: &ApiMix,
    rates: &[f64],
    entities: u64,
    duration_s: u64,
    threads: Threads,
) -> Vec<VariantSweep> {
    let variants = variants();
    let apps = par_run(variants.len(), threads, |i| {
        Ok::<_, SimError>(super::compile(workflow, &wiring_of(&variants[i].1)))
    })
    .expect("variants compile");
    let specs: Vec<SweepSpec<'_>> = apps
        .iter()
        .map(|app| SweepSpec {
            system: app.system(),
            mix,
            rates_rps: rates,
            duration_s,
            entities,
            seed: 1,
        })
        .collect();
    let grouped = latency_throughput(&specs, threads).expect("sweep runs");
    variants
        .into_iter()
        .zip(grouped)
        .map(|((label, _), points)| VariantSweep {
            variant: format!("{app_name}/{label}"),
            points,
        })
        .collect()
}

/// Runs both applications' explorations.
pub fn run(size: Run) -> Vec<VariantSweep> {
    let threads = Threads::from_env();
    let duration_s = size.pick(2, 15);
    let hr_rates = size.pick(
        vec![2_000.0, 6_000.0],
        vec![
            2_000.0, 6_000.0, 10_000.0, 14_000.0, 18_000.0, 22_000.0, 26_000.0,
        ],
    );
    let sn_rates = size.pick(
        vec![1_000.0, 3_000.0],
        vec![1_000.0, 2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0],
    );
    let mut out = explore(
        "HotelReservation",
        &hr::workflow(),
        hr::wiring,
        &hr::paper_mix(),
        &hr_rates,
        hr::ENTITIES,
        duration_s,
        threads,
    );
    out.extend(explore(
        "SocialNetwork",
        &sn::workflow(),
        sn::wiring,
        &sn::paper_mix(),
        &sn_rates,
        sn::ENTITIES,
        duration_s,
        threads,
    ));
    out
}

/// Renders the exploration as tables, one per variant, then the shape check
/// of each app.
pub fn print(sweeps: &[VariantSweep]) -> String {
    let mut out = String::new();
    for s in sweeps {
        let rows: Vec<Vec<String>> = s
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.0}", p.offered_rps),
                    format!("{:.0}", p.goodput_rps),
                    report::f2(p.mean_ms),
                    report::f2(p.p50_ms),
                    report::f2(p.p99_ms),
                    report::f3(p.error_rate),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &format!("Fig. 5 — {}", s.variant),
            &[
                "offered rps",
                "goodput",
                "mean ms",
                "p50 ms",
                "p99 ms",
                "err",
            ],
            &rows,
        ));
        out.push('\n');
    }
    for app in ["HotelReservation", "SocialNetwork"] {
        out.push_str(&format!(
            "shape check ({app}): monolith <= grpc <= thrift at mid load: {}\n",
            shape_holds(sweeps, app)
        ));
    }
    out
}

/// Summary checks of the paper's claims over the sweeps (used by the binary
/// and the integration tests): at the lowest common rate — where every
/// variant is unsaturated — monolith ≤ grpc ≤ thrift median latency.
/// (Latency is the comparison at low load; the monolith's single machine
/// saturates earlier than the 8-machine cluster in this scaled setup, so
/// throughput comparisons against it are not meaningful.)
pub fn shape_holds(sweeps: &[VariantSweep], app_prefix: &str) -> bool {
    let low = |label: &str| -> Option<f64> {
        let s = sweeps
            .iter()
            .find(|s| s.variant == format!("{app_prefix}/{label}"))?;
        Some(s.points.first()?.p50_ms)
    };
    match (low("monolith"), low("grpc"), low("thrift(pool=64)")) {
        (Some(m), Some(g), Some(t)) => m <= g && g <= t * 1.05,
        _ => false,
    }
}
