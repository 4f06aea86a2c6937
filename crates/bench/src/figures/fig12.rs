//! Fig. 12 — the cost of Blueprint's abstractions (paper §6.6): the generic
//! Cache interface (N separate `Get` round trips per timeline read) vs the
//! extended interface exposing Redis' specialized range operations (one
//! round trip). The paper measures a 33% throughput increase with the
//! extended interface on a 100% ReadHomeTimeline workload.

use blueprint_apps::{social_network as sn, WiringOpts};
use blueprint_workload::generator::ApiMix;
use blueprint_workload::parallel::Threads;
use blueprint_workload::sweep::{latency_throughput, SweepPoint, SweepSpec};

use crate::{report, Run};

/// The experiment's data: one sweep per interface.
#[derive(Debug)]
pub struct CacheComparison {
    /// Generic interface (paper default).
    pub generic: Vec<SweepPoint>,
    /// Extended interface (specialized Redis ops).
    pub extended: Vec<SweepPoint>,
}

/// Runs the 100% ReadHomeTimeline sweep for both interface variants.
pub fn run(size: Run) -> CacheComparison {
    let duration = size.pick(2, 15);
    let rates = size.pick(
        vec![5_000.0, 9_000.0],
        vec![
            2_000.0, 4_000.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0,
        ],
    );
    let mix = ApiMix::single("gateway", "ReadHomeTimeline");
    // The cost study runs on the CPU-reduced cluster so the per-operation
    // client driver cost is the binding resource, as in the paper's testbed.
    let opts = WiringOpts {
        cluster: (8, 2.0),
        ..WiringOpts::default().without_tracing()
    };
    let generic_app = super::compile(&sn::workflow_with(false), &sn::wiring(&opts));
    let extended_app = super::compile(&sn::workflow_with(true), &sn::wiring(&opts));
    // Both interface variants sweep as one flat parallel batch.
    let spec = |system| SweepSpec {
        system,
        mix: &mix,
        rates_rps: rates.as_slice(),
        duration_s: duration,
        entities: sn::ENTITIES,
        seed: 3,
    };
    let mut grouped = latency_throughput(
        &[spec(generic_app.system()), spec(extended_app.system())],
        Threads::from_env(),
    )
    .expect("sweep")
    .into_iter();
    CacheComparison {
        generic: grouped.next().expect("generic sweep"),
        extended: grouped.next().expect("extended sweep"),
    }
}

/// The achieved-throughput gain of the extended interface at the highest
/// offered rate where the generic variant is saturated or degraded.
pub fn throughput_gain(c: &CacheComparison) -> f64 {
    // Take the best achieved goodput of each variant over the sweep.
    let best = |pts: &[SweepPoint]| pts.iter().map(|p| p.goodput_rps).fold(0.0f64, f64::max);
    let g = best(&c.generic);
    let e = best(&c.extended);
    if g <= 0.0 {
        0.0
    } else {
        (e - g) / g
    }
}

/// Renders the figure data.
pub fn print(c: &CacheComparison) -> String {
    let mut rows = Vec::new();
    for (g, e) in c.generic.iter().zip(&c.extended) {
        rows.push(vec![
            format!("{:.0}", g.offered_rps),
            format!("{:.0}", g.goodput_rps),
            format!("{:.0}", e.goodput_rps),
            report::f2(g.p50_ms),
            report::f2(e.p50_ms),
            report::f3(g.error_rate),
            report::f3(e.error_rate),
        ]);
    }
    let mut out = report::table(
        "Fig. 12 — DSB-SN cache interface exploration (100% ReadHomeTimeline)",
        &[
            "offered rps",
            "generic goodput",
            "extended goodput",
            "generic p50",
            "extended p50",
            "gen err",
            "ext err",
        ],
        &rows,
    );
    out.push_str(&format!(
        "summary: extended-interface peak-throughput gain = {:.1}% (paper: 33%)\n",
        throughput_gain(c) * 100.0
    ));
    out
}
