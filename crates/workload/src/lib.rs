//! Workload generation, measurement, and experiment driving.
//!
//! The paper's experimental setup uses "a simple open-loop workload generator
//! that can be configured to exercise APIs of the generated system with a
//! specified request rate and API distribution" (§6). This crate is that
//! generator, plus the measurement and experiment-orchestration machinery the
//! figures need:
//!
//! * [`generator`] — phased open-loop arrivals (Poisson or uniform) with an
//!   API mix and an entity-id distribution;
//! * [`quantile`] — exact nearest-rank quantiles;
//! * [`recorder`] — per-interval latency/error/goodput time series (the data
//!   behind every latency-over-time figure);
//! * [`driver`] — runs a workload against a [`blueprint_simrt::Sim`]:
//!   submits the arrivals, calls read-only observers at their virtual
//!   times, and records the series (timed disturbances are plans in the
//!   sim's `SimConfig`, the FIRM anomaly injector substitute);
//! * [`parallel`] — the deterministic parallel experiment engine: runs
//!   independent seeded simulations across worker threads with index-ordered
//!   collection, so parallel output is byte-identical to the sequential loop
//!   (`BLUEPRINT_THREADS` configures the worker count);
//! * [`sweep`] — latency–throughput sweeps (Figs. 5, 11, 12), built on
//!   [`parallel`];
//! * [`resilience`] — the one runner for disturbance experiments
//!   ([`run_cell`]: boot, drive, disturb, record, judge) and variants ×
//!   disturbance matrices with invariant checks (request conservation,
//!   bounded unavailability, retry amplification, and an optional
//!   consistency audit): one [`Scenario`] type carries faults and
//!   reconfiguration plans, built on [`driver`] and [`parallel`];
//!   the metastability figures (Figs. 6, 7, 10) run through it;
//! * [`oracle`] — the deterministic consistency-anomaly checker: classifies
//!   stale reads, lost writes, read-your-writes violations, and
//!   non-monotonic reads from a completion log.

pub mod driver;
pub mod generator;
pub mod oracle;
pub mod parallel;
pub mod quantile;
pub mod recorder;
pub mod resilience;
pub mod sweep;

pub use driver::{run_experiment, run_experiment_collecting, Action, ExperimentSpec};
pub use generator::{ApiMix, Arrival, OpenLoopGen, Phase};
pub use oracle::{classify, classify_with_audit, converged_versions, AnomalyCounts, OracleSpec};
pub use parallel::{par_run, Threads};
pub use recorder::{ConservationReport, IntervalStats, Recorder};
pub use resilience::{
    assess, run_cell, run_matrix, Assessment, CellReport, ConsistencyAudit, ConsistencyProbe,
    ResilienceConfig, Scenario,
};
