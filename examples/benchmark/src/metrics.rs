//! The metrics the benchmark reports, as `BENCHMARK.json` declares them.
//!
//! End-to-end metrics are measured untraced, on every rep, on every
//! workload; the report gives their median over reps. Per-layer metrics
//! come from the one traced rep of each workload (see `README.md` for what
//! each should move, and on which workload).

/// One reported metric. `bound` (end-to-end metrics only) is the share of
/// the parent commit's median by which the median may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [Metric; 5] = [
    e2e("sim_req_per_s", "req/s", "higher", 0.1),
    e2e("req_host_us_p50", "us", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.2),
    e2e("compile_s", "s", "lower", 0.1),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
];

pub const PER_LAYER: [Metric; 42] = [
    layer("apps.spec_s", "s", "lower"),
    layer("apps.self_s", "s", "lower"),
    layer("compiler.validate_s", "s", "lower"),
    layer("compiler.build_ir_s", "s", "lower"),
    layer("compiler.passes_s", "s", "lower"),
    layer("compiler.lint_s", "s", "lower"),
    layer("compiler.genart_s", "s", "lower"),
    layer("compiler.simlower_s", "s", "lower"),
    layer("compiler.self_s", "s", "lower"),
    layer("compiler.ir_nodes", "count", "lower"),
    layer("compiler.ir_edges", "count", "lower"),
    layer("compiler.artifact_files", "count", "lower"),
    layer("compiler.artifact_loc", "count", "lower"),
    layer("lint.diagnostics", "count", "lower"),
    layer("simrt.boot_s", "s", "lower"),
    layer("simrt.run_until.calls", "count", "lower"),
    layer("simrt.run_until.ns_per_call", "ns", "lower"),
    layer("simrt.run_until.ns_per_rpc", "ns", "lower"),
    layer("simrt.submit.ns_per_call", "ns", "lower"),
    layer("simrt.drain.ns_per_call", "ns", "lower"),
    layer("simrt.queue_depth.mean", "events", "lower"),
    layer("simrt.queue_depth.max", "events", "lower"),
    layer("simrt.self_s", "s", "lower"),
    layer("simrt.rpc_per_req", "ratio", "lower"),
    layer("simrt.retry_ratio", "ratio", "lower"),
    layer("simrt.timeouts", "count", "lower"),
    layer("simrt.gc_pauses", "count", "lower"),
    layer("simrt.backend_ops", "count", "lower"),
    layer("simrt.cache_hit_ratio", "ratio", "higher"),
    layer("simrt.failovers", "count", "lower"),
    layer("workload.generator.ns_per_arrival", "ns", "lower"),
    layer("workload.recorder.ns_per_completion", "ns", "lower"),
    layer("workload.series_s", "s", "lower"),
    layer("workload.oracle_s", "s", "lower"),
    layer("workload.driver.self_s", "s", "lower"),
    layer("workload.self_s", "s", "lower"),
    layer("bench.self_s", "s", "lower"),
    layer("req_host_us_p99", "us", "lower"),
    layer("trace.wall_s", "s", "lower"),
    layer("trace.coverage_pct", "%", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("host.calib_ms", "ms", "lower"),
];

/// Per-layer metrics the runner adds to a traced rep's own: the tracing
/// overhead against the untraced reps, and the host calibration.
pub const TRACE_OVERHEAD: &str = "trace.overhead_pct";
pub const HOST_CALIB: &str = "host.calib_ms";
