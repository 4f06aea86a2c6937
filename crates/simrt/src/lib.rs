//! Deterministic discrete-event simulation runtime.
//!
//! This crate is the substitute for the paper's experimental testbed (eight
//! 48-core machines running the generated systems in Docker containers; see
//! `DESIGN.md` §4 for the substitution argument). The Blueprint compiler
//! lowers an application's IR into a [`spec::SystemSpec`]; [`sim::Sim`]
//! instantiates that spec as a virtual cluster and executes open-loop request
//! workloads over virtual time with reproducible results.
//!
//! The simulator models, mechanistically rather than statistically, every
//! effect the paper's evaluation depends on:
//!
//! * **CPU.** Each host is a processor-sharing queue ([`host`]): `n` active
//!   jobs on `c` effective cores each progress at rate `min(1, c/n)`.
//!   Overload directly inflates service times, which is what makes timeouts
//!   fire and retry storms amplify (Fig. 6).
//! * **Garbage collection.** Per-process heaps grow with request allocations;
//!   crossing the GOGC threshold triggers a stop-the-world pause whose length
//!   depends on heap size *and* CPU contention (Fig. 6b).
//! * **Transports.** gRPC (multiplexed connection), Thrift (bounded client
//!   pool with connection acquisition), HTTP, and in-process function calls
//!   for monolith builds (Fig. 5).
//! * **Client policies.** Timeouts that abandon the response but *not* the
//!   server-side work (wasted work), bounded retries, circuit breakers with
//!   failure-rate windows (Fig. 10), and round-robin load balancers over
//!   replicas.
//! * **Backends.** Caches with real key sets (flushable — Fig. 6d), key-value
//!   stores with replica lag (cross-system inconsistency, Fig. 8), queues.
//! * **Tracing.** Optional span recording with per-span CPU overhead, feeding
//!   the trace collector and the Sifter reproduction (Fig. 9).
//! * **Faults.** A deterministic injection engine ([`spec::FaultPlan`]):
//!   process crash + restart, host down/up, network partitions and link
//!   degradation, backend brownouts — scheduled or drawn from a seeded chaos
//!   process. In-flight work affected by a fault fails fast with a
//!   classified error, preserving request conservation.
//!
//! Determinism: per-entity RNG streams derived from one seed and a total
//! event order by `(time, sequence)`, dispatched by one sequential loop over
//! a timing wheel ([`evq::Wheel`]), with no wall-clock anywhere. The same
//! spec + seed + driver script produces bit-identical results (tested) — and
//! [`sim::Sim`] is `Send`, so whole runs can be farmed out across threads
//! (`blueprint_workload::parallel::par_run`).

pub mod evq;
pub mod host;
pub mod metrics;
pub mod sim;
pub mod spec;
pub mod time;

pub use sim::{Completion, EntryHandle, Sim, SimConfig};
pub use spec::{
    AutoscalerSpec, BackendRtKind, BackendSpec, BreakerSpec, Change, ChaosSpec, ClientSpec,
    ConsistencyMode, DeadlineSpec, DepBinding, EntrySpec, ExpBackoff, FailoverSpec, Fault,
    FaultPlan, GcSpec, HostSpec, LbPolicy, ProcessSpec, ReconfigPlan, RetryBudgetSpec, ServiceSpec,
    ShedSpec, SystemSpec, TransportSpec,
};
pub use time::{ms, secs, us, SimTime};

/// Errors raised when instantiating or driving a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The system spec, a plan or an injected fault has an out-of-range
    /// index or parameter.
    BadSpec(String),
    /// A plan, a driver call or an accessor named an unknown entity (host,
    /// process, service, backend, entry).
    Unknown(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadSpec(m) => write!(f, "bad system spec: {m}"),
            SimError::Unknown(m) => write!(f, "unknown simulation entity: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for simulation operations.
pub type Result<T> = std::result::Result<T, SimError>;
