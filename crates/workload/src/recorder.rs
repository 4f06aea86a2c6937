//! Per-interval latency/error time series.

use std::collections::{BTreeMap, HashSet};

use blueprint_simrt::time::SimTime;
use blueprint_simrt::Completion;

use crate::quantile::exact_quantile;

/// Statistics of one recording interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStats {
    /// Interval start.
    pub start_ns: SimTime,
    /// Completions in the interval.
    pub count: usize,
    /// Successful completions (goodput).
    pub ok: usize,
    /// Failed completions.
    pub errors: usize,
    /// Mean latency over all completions, ns.
    pub mean_ns: f64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Timeout-caused failures.
    pub timeouts: usize,
}

impl IntervalStats {
    /// Error fraction in `[0, 1]`.
    pub fn error_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.errors as f64 / self.count as f64
        }
    }
}

/// Bins completions (by completion time) into fixed intervals and computes
/// per-interval statistics.
#[derive(Debug)]
pub struct Recorder {
    interval_ns: SimTime,
    bins: Vec<Bin>,
    // Request-conservation accounting: every submitted request must
    // terminate exactly once (the fault-injection invariant).
    total_ok: u64,
    total_errors: u64,
    by_cause: BTreeMap<String, u64>,
    roots: HashSet<u64>,
    duplicate_roots: u64,
}

/// Request-conservation check over one recorded run: did every submitted
/// request terminate exactly once, and how did the failures classify?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationReport {
    /// Requests the workload submitted.
    pub submitted: u64,
    /// Completions the recorder saw (ok + errors).
    pub recorded: u64,
    /// Successful completions.
    pub ok: u64,
    /// Failed completions.
    pub errors: u64,
    /// Root sequence numbers recorded more than once (must be 0).
    pub duplicate_roots: u64,
    /// Failure cause label → count.
    pub by_cause: BTreeMap<String, u64>,
}

impl ConservationReport {
    /// Whether conservation holds: everything submitted terminated exactly
    /// once, and ok/error counts are consistent.
    pub fn holds(&self) -> bool {
        self.recorded == self.submitted
            && self.duplicate_roots == 0
            && self.ok + self.errors == self.recorded
    }
}

impl std::fmt::Display for ConservationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted={} recorded={} ok={} errors={} dup_roots={}",
            self.submitted, self.recorded, self.ok, self.errors, self.duplicate_roots
        )?;
        for (cause, n) in &self.by_cause {
            write!(f, " {cause}={n}")?;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Bin {
    latencies: Vec<u64>,
    ok: usize,
    errors: usize,
    timeouts: usize,
}

impl Recorder {
    /// Creates a recorder with the given interval width.
    pub fn new(interval_ns: SimTime) -> Self {
        assert!(interval_ns > 0);
        Recorder {
            interval_ns,
            bins: Vec::new(),
            total_ok: 0,
            total_errors: 0,
            by_cause: BTreeMap::new(),
            roots: HashSet::new(),
            duplicate_roots: 0,
        }
    }

    /// Records one completion.
    pub fn record(&mut self, c: &Completion) {
        let idx = (c.finished_ns / self.interval_ns) as usize;
        if idx >= self.bins.len() {
            self.bins.resize_with(idx + 1, Bin::default);
        }
        let bin = &mut self.bins[idx];
        bin.latencies.push(c.latency_ns());
        if c.ok {
            bin.ok += 1;
            self.total_ok += 1;
        } else {
            bin.errors += 1;
            self.total_errors += 1;
            if c.failure == Some("timeout") {
                bin.timeouts += 1;
            }
            let cause = c.failure.unwrap_or("unknown");
            *self.by_cause.entry(cause.to_string()).or_insert(0) += 1;
        }
        if !self.roots.insert(c.root_seq) {
            self.duplicate_roots += 1;
        }
    }

    /// Conservation report against the number of requests submitted.
    pub fn conservation(&self, submitted: u64) -> ConservationReport {
        ConservationReport {
            submitted,
            recorded: self.total_ok + self.total_errors,
            ok: self.total_ok,
            errors: self.total_errors,
            duplicate_roots: self.duplicate_roots,
            by_cause: self.by_cause.clone(),
        }
    }

    /// Produces the interval series.
    pub fn series(&self) -> Vec<IntervalStats> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let start_ns = i as SimTime * self.interval_ns;
                stats(start_ns, &b.latencies, b.ok, b.errors, b.timeouts)
            })
            .collect()
    }

    /// Aggregate stats over a time window `[from, to)` (for sweep points).
    pub fn window(&self, from_ns: SimTime, to_ns: SimTime) -> IntervalStats {
        let mut lat = Vec::new();
        let mut ok = 0;
        let mut errors = 0;
        let mut timeouts = 0;
        for (i, b) in self.bins.iter().enumerate() {
            let start = i as SimTime * self.interval_ns;
            if start >= from_ns && start < to_ns {
                lat.extend_from_slice(&b.latencies);
                ok += b.ok;
                errors += b.errors;
                timeouts += b.timeouts;
            }
        }
        stats(from_ns, &lat, ok, errors, timeouts)
    }
}

/// The statistics of one set of latencies, shared by a single bin and a
/// window of bins so both add in the same order.
fn stats(
    start_ns: SimTime,
    latencies: &[u64],
    ok: usize,
    errors: usize,
    timeouts: usize,
) -> IntervalStats {
    let count = latencies.len();
    let mean_ns = if count == 0 {
        0.0
    } else {
        latencies.iter().map(|l| *l as f64).sum::<f64>() / count as f64
    };
    IntervalStats {
        start_ns,
        count,
        ok,
        errors,
        mean_ns,
        p50_ns: exact_quantile(latencies, 0.5).unwrap_or(0),
        p99_ns: exact_quantile(latencies, 0.99).unwrap_or(0),
        timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorders live inside per-worker jobs and their window summaries are
    /// returned across threads by the parallel engine, so both must be plain
    /// `Send + Sync` data.
    const fn assert_send_sync<T: Send + Sync>() {}
    const _: () = {
        assert_send_sync::<Recorder>();
        assert_send_sync::<IntervalStats>();
    };

    fn c(finish_ms: u64, lat_ms: u64, ok: bool) -> Completion {
        Completion {
            entry: "e".into(),
            method: "m".into(),
            entity: 0,
            root_seq: 0,
            submitted_ns: finish_ms * 1_000_000 - lat_ms * 1_000_000,
            finished_ns: finish_ms * 1_000_000,
            ok,
            observed_version: 0,
            failure: if ok { None } else { Some("timeout") },
        }
    }

    #[test]
    fn bins_by_completion_time() {
        let mut r = Recorder::new(1_000_000_000);
        r.record(&c(500, 10, true));
        r.record(&c(999, 20, true));
        r.record(&c(1500, 30, false));
        let s = r.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].count, 2);
        assert_eq!(s[0].ok, 2);
        assert_eq!(s[1].errors, 1);
        assert_eq!(s[1].timeouts, 1);
        assert!((s[0].mean_ns - 15.0e6).abs() < 1.0);
        assert_eq!(s[1].error_rate(), 1.0);
    }

    #[test]
    fn window_aggregates() {
        let mut r = Recorder::new(1_000_000_000);
        for t in 0..10 {
            r.record(&c(t * 1000 + 500, (t + 1) * 10, true));
        }
        let w = r.window(2_000_000_000, 5_000_000_000);
        assert_eq!(w.count, 3);
        // Latencies 30, 40, 50 ms.
        assert!((w.mean_ns - 40.0e6).abs() < 1.0);
        assert_eq!(w.p50_ns, 40_000_000);
    }

    #[test]
    fn conservation_tracks_totals_causes_and_duplicates() {
        let mut r = Recorder::new(1_000_000_000);
        let mut done = c(100, 10, true);
        done.root_seq = 1;
        r.record(&done);
        let mut failed = c(200, 10, false);
        failed.root_seq = 2;
        r.record(&failed);
        let rep = r.conservation(2);
        assert!(rep.holds(), "{rep}");
        assert_eq!(rep.ok, 1);
        assert_eq!(rep.errors, 1);
        assert_eq!(rep.by_cause.get("timeout"), Some(&1));
        // A lost request breaks conservation.
        assert!(!r.conservation(3).holds());
        // A double termination breaks it too, even with matching counts.
        let mut dup = c(300, 10, true);
        dup.root_seq = 2;
        r.record(&dup);
        let rep = r.conservation(3);
        assert_eq!(rep.duplicate_roots, 1);
        assert!(!rep.holds());
    }

    #[test]
    fn empty_bins_are_zeroed() {
        let mut r = Recorder::new(1_000_000_000);
        r.record(&c(2500, 10, true));
        let s = r.series();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].count, 0);
        assert_eq!(s[0].p99_ns, 0);
        assert_eq!(s[0].error_rate(), 0.0);
    }
}
