//! Simulation-wide counters and per-backend statistics. The simulator
//! writes both tables in place as events dispatch, so they are current
//! whenever the caller holds the `Sim`.

use serde::{Deserialize, Serialize};

/// Global counters accumulated during a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimCounters {
    /// Requests submitted at entry points.
    pub submitted: u64,
    /// Entry requests completed successfully.
    pub completed_ok: u64,
    /// Entry requests completed with an error.
    pub completed_err: u64,
    /// Client-side RPC timeouts fired (all levels).
    pub timeouts: u64,
    /// RPC retries issued (all levels).
    pub retries: u64,
    /// Calls rejected by an open circuit breaker.
    pub breaker_rejections: u64,
    /// Breaker state transitions to open.
    pub breaker_opens: u64,
    /// Requests fast-failed by service admission limits.
    pub admission_rejections: u64,
    /// Stop-the-world GC pauses.
    pub gc_pauses: u64,
    /// Total GC pause virtual time, ns.
    pub gc_pause_ns: u64,
    /// Spans recorded by tracers.
    pub spans: u64,
    /// Messages dropped by full queues.
    pub queue_drops: u64,
    /// Faults injected (scheduled, or injected at `now` through
    /// `Sim::inject_fault`), CPU hogs and cache flushes included.
    pub faults_injected: u64,
    /// Process crashes executed.
    pub process_crashes: u64,
    /// Frames killed by a process crash.
    pub crashed_frames: u64,
    /// Requests lost to a partition.
    pub link_unreachable: u64,
    /// Requests rejected by an unavailable (browned-out) backend.
    pub brownout_rejections: u64,
    /// Calls failed fast because their propagated deadline was exhausted.
    #[serde(default)]
    pub deadline_exceeded: u64,
    /// Arrivals rejected by an adaptive admission controller.
    #[serde(default)]
    pub shed_rejections: u64,
    /// Retries denied by an exhausted retry budget.
    #[serde(default)]
    pub budget_denied: u64,
    /// First attempts issued by RPC clients (the denominator for hop-level
    /// wire amplification: `(client_calls + retries) / client_calls`).
    #[serde(default)]
    pub client_calls: u64,
    /// Arrivals rejected because the target replica was draining or out of
    /// rotation (stable error class `"drain"`).
    #[serde(default)]
    pub drain_rejections: u64,
    /// Runtime changes started (rolling deploys and scale actions).
    #[serde(default)]
    pub reconfig_changes: u64,
    /// Autoscaler scale-out actions.
    #[serde(default)]
    pub autoscale_ups: u64,
    /// Autoscaler scale-in actions.
    #[serde(default)]
    pub autoscale_downs: u64,
    /// Store primary failovers executed (elections that promoted a replica).
    #[serde(default)]
    pub store_failovers: u64,
    /// Quorum reads/writes rejected for lack of reachable members.
    #[serde(default)]
    pub quorum_rejections: u64,
    /// Events dispatched by the event loop, indexed by [`EvKind`]
    /// (`dispatched[EvKind::Resume as usize]`).
    #[serde(default)]
    pub dispatched: [u64; EvKind::COUNT],
}

/// Kind of a dispatched simulator event: the index into
/// [`SimCounters::dispatched`]. One per event variant, except that a CPU
/// host check is split by whether it was still its host's designated check
/// when it fired (a stale one does nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// A host check that collected due CPU jobs.
    HostCheckLive,
    /// A host check displaced by a later scheduler change: a re-arm moved
    /// the host's next completion to another time, or could not keep the
    /// queued check without reordering it against a same-time event, or
    /// ran under another host's or the control context. A re-arm that
    /// finds a queued check at the new time keeps it instead, so the
    /// common case leaves no stale check behind.
    HostCheckStale,
    /// A frame resumes its interpreter.
    Resume,
    /// A client-side call timeout.
    Timeout,
    /// A retry backoff expired.
    RetryFire,
    /// A request reaches its service or backend.
    DeliverRequest,
    /// A response reaches its caller.
    DeliverResponse,
    /// A CPU hog ends.
    HogEnd,
    /// A Thrift connection is released.
    ConnFreed,
    /// An asynchronous replication write reaches a store member.
    ReplicaApply,
    /// A store failover election.
    StoreFailover,
    /// A scheduled fault fires.
    FaultFire,
    /// A crashed process restarts.
    ProcRestart,
    /// A scheduled reconfiguration change starts.
    ReconfigFire,
    /// A drain budget expires.
    DrainDone,
    /// A rolling deploy advances.
    RollAdvance,
    /// An autoscaler observation.
    AutoscaleTick,
}

impl EvKind {
    /// Number of kinds (the length of [`SimCounters::dispatched`]);
    /// `AutoscaleTick` must stay the last variant.
    pub const COUNT: usize = EvKind::AutoscaleTick as usize + 1;
}

/// Per-backend statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Reads (store) / gets (cache).
    pub reads: u64,
    /// Writes.
    pub writes: u64,
    /// Reads served by a stale replica (version behind primary).
    pub stale_reads: u64,
    /// Evictions due to capacity.
    pub evictions: u64,
    /// Acked writes discarded at a primary failover (never replicated).
    #[serde(default)]
    pub lost_writes: u64,
    /// Session-mode reads redirected to the primary by the session floor.
    #[serde(default)]
    pub session_redirects: u64,
    /// Failovers that changed this store's serving member.
    #[serde(default)]
    pub failovers: u64,
}

impl BackendStats {
    /// Cache miss rate in `[0, 1]` (0 when no gets were issued).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Per-backend statistics in dense backend-id order: the one copy, written
/// in place by every backend op and store failover. Every backend of the
/// spec has an entry from boot, all zeros until its first op.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BackendTable {
    names: Vec<String>,
    stats: Vec<BackendStats>,
}

impl BackendTable {
    /// A zeroed table for backends named in id order.
    pub(crate) fn new(names: Vec<String>) -> Self {
        let stats = vec![BackendStats::default(); names.len()];
        BackendTable { names, stats }
    }

    /// The stats of backend `id`, for the simulator to update.
    pub(crate) fn stats_mut(&mut self, id: usize) -> &mut BackendStats {
        &mut self.stats[id]
    }

    /// Every backend's stats, in backend-id order.
    pub fn values(&self) -> impl Iterator<Item = &BackendStats> {
        self.stats.iter()
    }
}

/// All metrics of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Global counters.
    pub counters: SimCounters,
    /// Per-backend stats, one entry per backend from boot.
    pub backends: BackendTable,
}

impl Metrics {
    /// Stats for a backend by name (`None` for a name the spec lacks).
    pub fn backend(&self, name: &str) -> Option<&BackendStats> {
        let b = &self.backends;
        b.names.iter().position(|n| n == name).map(|i| &b.stats[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate() {
        let mut s = BackendStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn backend_looks_up_by_name() {
        let mut m = Metrics {
            backends: BackendTable::new(vec!["a".into(), "c".into()]),
            ..Metrics::default()
        };
        m.backends.stats_mut(1).hits += 1;
        assert_eq!(m.backend("c").unwrap().hits, 1);
        assert_eq!(m.backend("a"), Some(&BackendStats::default()));
        assert!(m.backend("zzz").is_none());
    }
}
