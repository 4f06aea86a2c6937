//! Fig. 7 — metastability vulnerability analysis for HotelReservation:
//! whether the system recovers after a CPU-contention trigger, as a function
//! of request rate, trigger duration, and maximum retries.
//!
//! Paper shape: at higher request rates even short triggers push the system
//! into a metastable state; at lower rates short triggers cause only
//! transient issues; fewer retries only minimally increase the tolerable
//! trigger duration.

use blueprint_apps::{hotel_reservation as hr, WiringOpts};
use blueprint_simrt::SimError;
use blueprint_workload::parallel::{par_run, Threads};
use blueprint_workload::sweep::{trigger_recovery, CellOutcome, TriggerSpec};

use crate::{report, Run};

/// One grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Offered rate (rps).
    pub rps: f64,
    /// Trigger duration (s).
    pub trigger_s: u64,
    /// Max retries.
    pub retries: u32,
    /// Classified outcome.
    pub outcome: CellOutcome,
    /// Final-window error rate.
    pub final_error_rate: f64,
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
        let result = trigger_recovery(
            app.system(),
            &hr::paper_mix(),
            &TriggerSpec {
                rps,
                total_s: total,
                entities: 10_000,
                trigger_host: host.clone(),
                trigger_cores: 1.7,
                trigger_at_s: total / 3,
                trigger_dur_s: dur.min(total / 3),
                observe_s: total / 6,
                recover_error_threshold: 0.2,
                seed: 7,
            },
        )?;
        Ok::<_, SimError>(Cell {
            rps,
            trigger_s: dur,
            retries: *r,
            outcome: result.outcome,
            final_error_rate: result.final_error_rate,
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
                    match c.outcome {
                        CellOutcome::Recovered => "recovered".into(),
                        CellOutcome::Metastable => "METASTABLE".into(),
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
        if a.outcome == CellOutcome::Metastable {
            continue;
        }
        for b in cells {
            if b.trigger_s == a.trigger_s
                && b.retries == a.retries
                && b.rps < a.rps
                && b.outcome == CellOutcome::Metastable
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
}
