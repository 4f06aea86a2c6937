//! Fig. 10 — the circuit-breaker prototype preventing Type-1 metastability
//! (paper §6.3 "Prototyping New Solutions").
//!
//! The CircuitBreaker plugin was implemented as a one-shot compiler
//! extension; enabling it for HotelReservation is a 2-line wiring mutation
//! (declare the breaker, attach it to every service). Under the same
//! load-spike scenario as Fig. 6a, the breaker-enabled variant sheds load
//! while the spike lasts and returns to normal shortly after, instead of
//! staying metastable.

use blueprint_apps::{hotel_reservation as hr, WiringOpts};
use blueprint_simrt::SimError;
use blueprint_wiring::{mutate, Arg};
use blueprint_workload::generator::Phase;
use blueprint_workload::parallel::{par_run, Threads};
use blueprint_workload::recorder::IntervalStats;
use blueprint_workload::resilience::{run_cell, ResilienceConfig, Scenario};

use crate::figures::fig6;
use crate::{report, Run};

/// Comparison of the two variants.
#[derive(Debug)]
pub struct BreakerComparison {
    /// Without the breaker (Fig. 6a replica).
    pub without: fig6::MetaResult,
    /// With the breaker.
    pub with_breaker: fig6::MetaResult,
    /// How many wiring lines the mutation changed.
    pub wiring_lines_changed: usize,
}

/// Runs both variants.
pub fn run(size: Run) -> BreakerComparison {
    let opts = WiringOpts {
        cluster: (8, 2.0),
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(500, 10)
    };
    let base_wiring = hr::wiring(&opts);

    // The UC3 mutation: one declaration + attach-to-all-services.
    let mut cb_wiring = base_wiring.clone();
    cb_wiring
        .define_kw(
            "breaker",
            "CircuitBreaker",
            vec![],
            vec![
                ("threshold", Arg::Float(0.5)),
                ("window", Arg::Int(100)),
                ("open_ms", Arg::Int(2_000)),
                ("probes", Arg::Int(5)),
            ],
        )
        .expect("wiring");
    mutate::add_modifier_to_all_services(&mut cb_wiring, "breaker").expect("mutation");
    let diff = blueprint_wiring::diff::spec_diff(&base_wiring, &cb_wiring);

    let (before, during, after) = size.pick((2, 2, 2), (60, 30, 90));
    let cfg = ResilienceConfig {
        phases: vec![
            Phase::new(before, 2_500.0),
            Phase::new(during, 13_000.0),
            Phase::new(after, 2_500.0),
        ],
        ..super::figure_cfg(101, hr::ENTITIES)
    };
    // Both variants run as one parallel batch.
    let variants = [
        (&base_wiring, "Type 1, no circuit breaker"),
        (&cb_wiring, "Type 1, circuit breaker enabled"),
    ];
    let mut results = par_run(variants.len(), Threads::from_env(), |i| {
        let (wiring, label) = variants[i];
        let app = super::compile(&hr::workflow(), wiring);
        let report = run_cell(
            app.system(),
            &hr::paper_mix(),
            label,
            &Scenario::baseline(),
            &cfg,
        )?;
        Ok::<_, SimError>(fig6::MetaResult::new(
            label,
            report.series,
            report.counters,
            size,
        ))
    })
    .expect("variants run")
    .into_iter();
    BreakerComparison {
        without: results.next().expect("no-breaker run"),
        with_breaker: results.next().expect("breaker run"),
        wiring_lines_changed: diff.changed(),
    }
}

/// Goodput over the final `window_s` seconds of a series.
pub fn final_goodput(series: &[IntervalStats], window_s: u64) -> f64 {
    let from = series.len().saturating_sub(window_s as usize);
    let ok: usize = series[from..].iter().map(|s| s.ok).sum();
    ok as f64 / window_s.max(1) as f64
}

/// Renders both series + the comparison summary.
pub fn print(c: &BreakerComparison) -> String {
    let mut out = String::new();
    out.push_str(&fig6::print(&c.without));
    out.push('\n');
    out.push_str(&fig6::print(&c.with_breaker));
    let (without, with) = (&c.without, &c.with_breaker);
    out.push_str(&report::table(
        "Fig. 10 — summary",
        &["variant", "final err rate", "final goodput rps", "wiring Δ"],
        &[
            vec![
                "no breaker".into(),
                report::f3(without.final_error_rate(without.tail_s)),
                format!("{:.0}", final_goodput(&without.series, without.tail_s)),
                "-".into(),
            ],
            vec![
                "breaker".into(),
                report::f3(with.final_error_rate(with.tail_s)),
                format!("{:.0}", final_goodput(&with.series, with.tail_s)),
                format!("{} lines", c.wiring_lines_changed),
            ],
        ],
    ));
    out
}
