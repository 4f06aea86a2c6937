//! Fig. 7 — metastability vulnerability analysis for HotelReservation:
//! whether the system recovers after a CPU-contention trigger, as a function
//! of request rate, trigger duration, and maximum retries.
//!
//! Paper shape: at higher request rates even short triggers push the system
//! into a metastable state; at lower rates short triggers cause only
//! transient issues; fewer retries only minimally increase the tolerable
//! trigger duration.

use blueprint_apps::{hotel_reservation as hr, WiringOpts};
use blueprint_simrt::time::{secs, SimTime};
use blueprint_simrt::SimError;
use blueprint_workload::generator::Phase;
use blueprint_workload::parallel::{par_run, Threads};
use blueprint_workload::recorder::IntervalStats;
use blueprint_workload::resilience::{run_cell, ResilienceConfig};

use crate::{report, Run};

/// A cell recovered if its judged error rate is at most this.
pub const RECOVER_ERROR_RATE: f64 = 0.2;

/// One grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Offered rate (rps).
    pub rps: f64,
    /// Trigger duration (s).
    pub trigger_s: u64,
    /// Max retries.
    pub retries: u32,
    /// Whether the system stayed in a metastable failure state instead of
    /// recovering after the trigger.
    pub metastable: bool,
    /// Final-window error rate.
    pub final_error_rate: f64,
}

/// Classifies a cell from its recorded series: recovered iff the error rate
/// over the bins starting in `[from_ns, to_ns)` is at most
/// [`RECOVER_ERROR_RATE`] and at least one request completed there.
/// Returns `(metastable, error rate)`; the rate is 0 when nothing completed.
pub fn classify(series: &[IntervalStats], from_ns: SimTime, to_ns: SimTime) -> (bool, f64) {
    match super::window_error_rate(series, from_ns, to_ns) {
        Some(err) => (err > RECOVER_ERROR_RATE, err),
        None => (true, 0.0),
    }
}

/// Runs the vulnerability grid.
///
/// Every cell is an independent seeded run, so the grid is one flat
/// `par_run` batch: each worker builds its own `Sim` from the per-retry
/// compiled system. Cell order (and every byte of every cell) is identical
/// to the historical sequential retries → rates → durations loop.
pub fn run(size: Run) -> Vec<Cell> {
    let threads = Threads::from_env();
    let (rates, durations, retries) = size.pick(
        (vec![1_000.0, 4_000.0], vec![2], vec![2, 10]),
        (
            vec![1_000.0, 2_500.0, 4_000.0, 5_500.0],
            vec![2, 5, 10, 20],
            vec![2, 6, 10],
        ),
    );
    let opts = WiringOpts {
        cluster: (8, 2.0),
        ..WiringOpts::default()
            .without_tracing()
            .with_timeout_retries(1_000, 0)
    };
    let total = size.pick(6, 90);
    // One compiled variant per retry setting, compiled in parallel
    // (`CompiledApp` is `Send`; workers then share them by reference).
    let apps = par_run(retries.len(), threads, |i| {
        let opts = WiringOpts {
            retries: retries[i],
            ..opts
        };
        let app = super::compile(&hr::workflow(), &hr::wiring(&opts));
        let host = super::host_of_service(&app, "frontend");
        Ok::<_, SimError>((retries[i], app, host))
    })
    .expect("variants compile");
    // Flatten the grid retry-major, exactly like the old nested loops.
    let mut jobs: Vec<(usize, f64, u64)> = Vec::new();
    for ai in 0..apps.len() {
        for &rps in &rates {
            for &dur in &durations {
                jobs.push((ai, rps, dur));
            }
        }
    }
    par_run(jobs.len(), threads, |j| {
        let (ai, rps, dur) = jobs[j];
        let (r, app, host) = &apps[ai];
        let cfg = ResilienceConfig {
            phases: vec![Phase::new(total, rps)],
            ..super::figure_cfg(7, 10_000)
        };
        let hog = super::cpu_hog(
            "cpu hog frontend",
            host.clone(),
            1.7,
            total / 3,
            dur.min(total / 3),
        );
        let report = run_cell(
            app.system(),
            &hr::paper_mix(),
            &format!("retries={r}"),
            &hog,
            &cfg,
        )?;
        // Judge the last sixth of the arrival window plus the drain, so
        // backlog completions count instead of silently disappearing.
        let (metastable, final_error_rate) = classify(
            &report.series,
            secs(total - total / 6),
            secs(total) + cfg.drain_ns,
        );
        Ok::<_, SimError>(Cell {
            rps,
            trigger_s: dur,
            retries: *r,
            metastable,
            final_error_rate,
        })
    })
    .expect("cell runs")
}

/// Renders the grid, one block per retry setting, then the monotonicity
/// check.
pub fn print(cells: &[Cell]) -> String {
    let mut out = String::new();
    let mut retries: Vec<u32> = cells.iter().map(|c| c.retries).collect();
    retries.sort_unstable();
    retries.dedup();
    for r in retries {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .filter(|c| c.retries == r)
            .map(|c| {
                vec![
                    format!("{:.0}", c.rps),
                    c.trigger_s.to_string(),
                    if c.metastable {
                        "METASTABLE".into()
                    } else {
                        "recovered".into()
                    },
                    report::f3(c.final_error_rate),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &format!("Fig. 7 — vulnerability (max retries = {r})"),
            &["rps", "trigger s", "outcome", "final err"],
            &rows,
        ));
        out.push('\n');
    }
    out.push_str(&format!(
        "monotone in request rate: {}\n",
        monotone_in_rate(cells)
    ));
    out
}

/// The paper's monotonicity claims over the grid (checked by tests):
/// vulnerability is monotone in request rate and trigger duration.
pub fn monotone_in_rate(cells: &[Cell]) -> bool {
    // If a (duration, retries) cell is metastable at some rate, every higher
    // rate with the same (duration, retries) must be metastable too.
    for a in cells {
        if a.metastable {
            continue;
        }
        for b in cells {
            if b.trigger_s == a.trigger_s && b.retries == a.retries && b.rps < a.rps && b.metastable
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Grid cells are produced on worker threads and collected by index;
    /// they must be plain `Send + Sync` data. (Byte-identity of the grid at
    /// 1 vs 4 threads is checked in release profile by the `ci.sh` smoke
    /// of `fig7_vulnerability` and by `tests/parallel_determinism.rs` — a
    /// dev-profile duplicate here would cost minutes of `cargo test` for no
    /// extra coverage.)
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = assert_send_sync::<Cell>();

    fn bin(t: u64, ok: usize, errors: usize) -> IntervalStats {
        IntervalStats {
            start_ns: secs(t),
            count: ok + errors,
            ok,
            errors,
            mean_ns: 0.0,
            p50_ns: 0,
            p99_ns: 0,
            timeouts: 0,
        }
    }

    /// The judged window is `[from, to)` by bin start, its error rate is
    /// the ratio of the summed counts, and an empty window is metastable.
    #[test]
    fn classify_judges_the_tail_window() {
        // Degraded until 8 s, then healthy; bins 8..10 are judged.
        let series: Vec<IntervalStats> = (0..12)
            .map(|t| if t < 8 { bin(t, 10, 90) } else { bin(t, 9, 1) })
            .collect();
        assert_eq!(classify(&series, secs(8), secs(10)), (false, 0.1));
        // One degraded bin inside the window: 91 errors of 110 completions.
        let (metastable, err) = classify(&series, secs(7), secs(9));
        assert!(metastable);
        assert_eq!(err, 91.0 / 110.0);
        // Exactly at the threshold still recovers.
        let edge = [bin(0, 4, 1)];
        assert_eq!(classify(&edge, 0, secs(1)), (false, RECOVER_ERROR_RATE));
        // Nothing completed in the window: metastable, rate 0.
        assert_eq!(classify(&series, secs(20), secs(25)), (true, 0.0));
    }
}
