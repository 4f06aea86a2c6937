//! The simulation world: event engine, request frames, client policies,
//! transports, backends, and GC.
//!
//! See the crate docs for the modeling overview. The implementation is a
//! discrete-event simulator: one sequential loop pops events in
//! `(time, sequence)` order and dispatches them into the [`Sim`] world
//! state. Requests execute as **frames** — explicit interpreter states over
//! the behavior programs of the workflow spec — so the simulator never
//! recurses through the service call graph on the machine stack.
//!
//! At boot the workflow `Behavior` programs are compiled into `CProg`s:
//! every dependency name is resolved to a dense `u32` client id, every target
//! method to a dense per-service method index, and nested bodies (branches,
//! loops, parallel blocks, cache-miss continuations) become `ProgId`
//! handles into a `ProgArena` (names live in a `StrArena`). The per-event
//! hot path therefore never hashes a string, never clones behavior text, and
//! reuses frame slots and interpreter stacks through free lists. Because all
//! interning is arena-index based (no `Rc`), a booted [`Sim`] is `Send` —
//! asserted at compile time below.
//!
//! Processes, services, clients and backends live in flat tables on [`Sim`],
//! indexed by the same global ids the interpreter uses; only the CPU
//! scheduler, the frame table and the event-key counter are per host
//! (`HostRt`). Every stochastic draw comes from a deterministic per-entity
//! RNG stream (see [`derive_seed`]), so an entity's randomness depends only
//! on its own event order (see `DESIGN.md` §6).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use blueprint_trace::{SpanId, TraceCollector, TraceId};
use blueprint_workflow::{Behavior, CacheOp, DbOp, KeyExpr, Step};

use crate::evq::{self, Wheel};
use crate::host::{JobId, PsHost, NO_PROC};
use crate::metrics::{BackendTable, EvKind, Metrics};
use crate::spec::{
    AutoscalerSpec, BackendRtKind, Change, ClientSpec, ConsistencyMode, DepBinding, Fault,
    FaultPlan, LbPolicy, ReconfigPlan, ShedSpec, SystemSpec, TransportSpec,
};
use crate::time::SimTime;
use crate::{Result, SimError};

// ---------------------------------------------------------------------------
// Public configuration and results.
// ---------------------------------------------------------------------------

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed; everything non-deterministic derives from it.
    pub seed: u64,
    /// Record spans for services that have tracing enabled.
    pub record_traces: bool,
    /// Hard cap on live frames; submissions beyond it fast-fail (memory
    /// guard under extreme overload).
    pub max_frames: usize,
    /// Faults to inject during the run. An empty plan (the default) adds
    /// zero events and RNG draws, so fault-free runs are byte-identical to
    /// a build without the engine.
    pub faults: FaultPlan,
    /// Live runtime changes to apply during the run (rolling deploys,
    /// scale-out/in, canary rollouts, autoscalers). Like `faults`, an empty
    /// plan (the default) adds zero events and RNG draws, so no-reconfig
    /// runs are byte-identical to a build without the engine.
    pub reconfig: ReconfigPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            record_traces: false,
            max_frames: 2_000_000,
            faults: FaultPlan::default(),
            reconfig: ReconfigPlan::default(),
        }
    }
}

/// The completion record of one entry-point request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Entry name the request was submitted to.
    pub entry: String,
    /// Invoked method.
    pub method: String,
    /// Entity id the request concerned.
    pub entity: u64,
    /// Global submission sequence number (doubles as the write version the
    /// request stamped into stores).
    pub root_seq: u64,
    /// Submission time.
    pub submitted_ns: SimTime,
    /// Completion time.
    pub finished_ns: SimTime,
    /// Whether the request succeeded end-to-end.
    pub ok: bool,
    /// Highest data version observed by any read along the request
    /// (0 = nothing read). Used by the consistency experiments.
    pub observed_version: u64,
    /// Failure cause label for failed requests (`"timeout"`,
    /// `"breaker_open"`, `"overload"`, `"downstream"`, ...).
    pub failure: Option<&'static str>,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency_ns(&self) -> SimTime {
        self.finished_ns.saturating_sub(self.submitted_ns)
    }
}

/// A pre-resolved entry point, for hot submission loops.
///
/// Obtained from [`Sim::entry_handle`]; submitting through a handle with
/// [`Sim::submit_handle`] skips the per-request name lookups entirely.
/// Handles are only meaningful for the `Sim` that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHandle {
    entry: u32,
    method: u32,
}

// ---------------------------------------------------------------------------
// Deterministic per-entity RNG streams.
// ---------------------------------------------------------------------------

/// RNG stream domain: per-process draws (service-time branches, fail coins,
/// random keys, shed coins, link-loss coins).
pub const DOMAIN_PROC: u64 = 1;
/// RNG stream domain: per-client draws (random load balancing, retry jitter).
pub const DOMAIN_CLIENT: u64 = 2;
/// RNG stream domain: per-backend draws (evictions, replication lag).
pub const DOMAIN_BACKEND: u64 = 3;
/// RNG stream domain: reconfiguration draws (autoscaler tick jitter keyed
/// by scaler index; canary salts and tolerances on the plan-level stream,
/// entity id 0). Keeping every reconfig draw on this dedicated domain means
/// enabling a plan perturbs no workload stream — and an empty plan creates
/// no stream at all.
pub const DOMAIN_AUTOSCALER: u64 = 4;

/// splitmix64 finalizer (Steele/Lea/Flood mixing constants).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`Hasher`] for maps keyed by a single `u64` (cache keys, store keys,
/// session entities): the [`mix64`] finalizer of the key. Unlike the std
/// default it has no per-process random state and costs two multiplies. It
/// gives up SipHash's collision resistance, which is fine only because every
/// key comes from the simulated workload (entity ids and key expressions),
/// never from untrusted input.
#[derive(Default)]
struct Mix64Hasher(u64);

impl Hasher for Mix64Hasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `u64`-keyed map hashed with [`Mix64Hasher`].
type U64Map<V> = HashMap<u64, V, BuildHasherDefault<Mix64Hasher>>;

/// Derives the seed of one entity's private RNG stream from the run's root
/// seed, a domain tag, and the entity's dense id.
///
/// Two chained splitmix64 finalizer rounds: the first folds in the domain,
/// the second the entity id. For a fixed `(root_seed, domain)` the map
/// `entity_id -> seed` is a bijection (each round is invertible), so streams
/// within a domain can never collide. Because each entity draws only from
/// its own stream, its draw sequence depends solely on its own event order —
/// adding entities or reordering other entities' events never perturbs it.
pub fn derive_seed(root_seed: u64, domain: u64, entity_id: u64) -> u64 {
    let s1 = mix64(root_seed ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix64(s1 ^ entity_id.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

// ---------------------------------------------------------------------------
// Event-sequence key packing.
// ---------------------------------------------------------------------------

/// Event keys are `(time, seq)`; `seq` packs the generating context (a host
/// id, or [`CTRL_CTX`] for the driver/control plane) into the high 16 bits
/// over a per-context 48-bit push counter. Uniqueness is therefore local —
/// each context only needs its own counter — and the resulting total order
/// is deterministic. This packing is part of what pins the completion-stream
/// checksum: changing it reorders same-time events.
const CTX_SHIFT: u32 = 48;
/// Low-bit mask for the per-context push counter.
const SEQ_MASK: u64 = (1 << CTX_SHIFT) - 1;
/// Context id of driver/control pushes; sorts after every host context at
/// equal times, so control events never preempt same-time host events.
const CTRL_CTX: u64 = 0xFFFF;
/// Host ids must stay below [`CTRL_CTX`].
const MAX_HOSTS: usize = 0xFFFE;

// ---------------------------------------------------------------------------
// Internal identifiers and messages.
// ---------------------------------------------------------------------------

/// Generational frame handle. Frame tables are per-host, so the handle
/// carries the owning host: dispatch resolves the frame (and keys the events
/// it pushes) without a global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct FrameId {
    host: u32,
    idx: u32,
    gen: u32,
}

/// What a call targets.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CallTarget {
    /// Another service instance's method (dense index into its method table).
    Service { svc: usize, method: u32 },
    /// A backend operation.
    Backend { backend: usize, op: BackendOp },
}

/// A backend operation descriptor (keys already resolved).
#[derive(Debug, Clone, Copy, PartialEq)]
enum BackendOp {
    /// Cache read; `items` > 0 for a multi-item range read (extended
    /// interface), which only changes its CPU cost.
    CacheGet {
        key: u64,
        items: u32,
    },
    /// Cache write; `items` > 0 for a multi-item push (extended interface),
    /// which only changes its CPU cost.
    CachePut {
        key: u64,
        items: u32,
        version: u64,
    },
    CacheDelete {
        key: u64,
    },
    StoreRead {
        key: u64,
    },
    StoreWrite {
        key: u64,
        version: u64,
    },
    StoreScan {
        items: u32,
    },
    QueuePush,
    QueuePop,
}

/// Why a call attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallErr {
    Timeout,
    BreakerOpen,
    Overload,
    Downstream,
    Fault,
    QueueFull,
    /// The serving process crashed with the request in flight.
    Crash,
    /// The request was lost to a partition or lossy link.
    Unreachable,
    /// The backend rejected the request while browned out.
    Brownout,
    /// The propagated deadline was exhausted before the work could finish.
    Deadline,
    /// An adaptive admission controller rejected the arrival.
    Shed,
    /// The serving replica was draining (rolling deploy or scale-in); the
    /// request failed fast instead of landing on a stopping instance.
    Drain,
    /// A quorum-mode store op could not assemble its read/write quorum
    /// (too few members up and reachable).
    Quorum,
}

/// Result of a call attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CallOutcome {
    ok: bool,
    err: Option<CallErr>,
    /// Highest version observed downstream.
    version: u64,
    /// For cache gets: whether the key was present.
    cache_hit: Option<bool>,
}

impl CallErr {
    /// Stable label surfaced in completion records.
    fn label(self) -> &'static str {
        match self {
            CallErr::Timeout => "timeout",
            CallErr::BreakerOpen => "breaker_open",
            CallErr::Overload => "overload",
            CallErr::Downstream => "downstream",
            CallErr::Fault => "fault",
            CallErr::QueueFull => "queue_full",
            CallErr::Crash => "crash",
            CallErr::Unreachable => "unreachable",
            CallErr::Brownout => "brownout",
            CallErr::Deadline => "deadline",
            CallErr::Shed => "shed",
            CallErr::Drain => "drain",
            CallErr::Quorum => "quorum",
        }
    }
}

impl CallOutcome {
    fn success(version: u64) -> Self {
        CallOutcome {
            ok: true,
            err: None,
            version,
            cache_hit: None,
        }
    }

    fn failure(err: CallErr) -> Self {
        CallOutcome {
            ok: false,
            err: Some(err),
            version: 0,
            cache_hit: None,
        }
    }
}

/// Transport information needed to send a reply.
#[derive(Debug, Clone, Copy)]
struct ReplyRoute {
    /// Serialization CPU on the server side, ns (0 for local calls).
    serialize_ns: u64,
    /// One-way network latency, ns (0 for local calls).
    net_ns: u64,
}

/// A request in flight towards a service or backend.
#[derive(Debug, Clone, Copy)]
struct RequestMsg {
    caller: FrameId,
    seq: u32,
    attempt: u32,
    target: CallTarget,
    entity: u64,
    root_seq: u64,
    reply: ReplyRoute,
    parent_span: Option<(TraceId, SpanId)>,
    /// Absolute deadline carried with the request (deadline propagation);
    /// `None` when no hop on the path declared one.
    deadline_ns: Option<SimTime>,
}

// ---------------------------------------------------------------------------
// Compiled behavior programs.
// ---------------------------------------------------------------------------

/// Sentinel client id for dependencies with no binding.
const UNBOUND_CLIENT: u32 = u32::MAX;
/// Sentinel method index for calls to a method the target does not define.
const MISSING_METHOD: u32 = u32::MAX;

/// Handle of a compiled sub-program in the [`ProgArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgId(u32);

/// Handle of a parallel-branch program list in the [`ProgArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProgListId(u32);

/// Handle of a replica target list in the [`ProgArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TargetsId(u32);

/// Handle of an interned name in the [`StrArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameId(u32);

/// Owns every compiled program, parallel-branch list, and replica target
/// list. Nested bodies reference each other by [`ProgId`] instead of `Rc`,
/// which is what makes [`Sim`] `Send`: handles are plain `u32`s, sharing is
/// expressed as index aliasing, and the arena is dropped in one piece.
#[derive(Debug, Default)]
struct ProgArena {
    progs: Vec<CProg>,
    prog_lists: Vec<Box<[ProgId]>>,
    target_lists: Vec<Box<[(usize, u32)]>>,
}

impl ProgArena {
    fn alloc(&mut self, prog: CProg) -> ProgId {
        let id = ProgId(u32::try_from(self.progs.len()).expect("program arena exceeds u32 ids"));
        self.progs.push(prog);
        id
    }

    fn alloc_list(&mut self, progs: Vec<ProgId>) -> ProgListId {
        let id = ProgListId(
            u32::try_from(self.prog_lists.len()).expect("program-list arena exceeds u32 ids"),
        );
        self.prog_lists.push(progs.into_boxed_slice());
        id
    }

    fn alloc_targets(&mut self, targets: Vec<(usize, u32)>) -> TargetsId {
        let id = TargetsId(
            u32::try_from(self.target_lists.len()).expect("target-list arena exceeds u32 ids"),
        );
        self.target_lists.push(targets.into_boxed_slice());
        id
    }

    fn get(&self, id: ProgId) -> &CProg {
        &self.progs[id.0 as usize]
    }

    fn list(&self, id: ProgListId) -> &[ProgId] {
        &self.prog_lists[id.0 as usize]
    }

    fn targets(&self, id: TargetsId) -> &[(usize, u32)] {
        &self.target_lists[id.0 as usize]
    }
}

/// Interned names (service, method, entry, backend). Names are only looked
/// up on cold paths (completion records, user-facing lookups, traces), but
/// they must not be `Rc<str>` or the simulator stops being `Send`.
///
/// `Sim::new` interns every service, method, entry and backend name, which
/// is thousands of distinct names at Tab. 5 scale, so interning goes through
/// a name → id map beside the id-ordered list. Ids are dense and in
/// first-seen order.
#[derive(Debug, Default)]
pub(crate) struct StrArena {
    names: Vec<Box<str>>,
    ids: BTreeMap<Box<str>, NameId>,
}

impl StrArena {
    pub(crate) fn intern(&mut self, s: &str) -> NameId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = NameId(u32::try_from(self.names.len()).expect("name arena exceeds u32 ids"));
        self.names.push(s.into());
        self.ids.insert(s.into(), id);
        id
    }

    pub(crate) fn get(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }
}

/// Where a compiled call step routes, resolved once at boot.
#[derive(Debug, Clone, Copy)]
enum CallDest {
    /// Dependency name had no binding; faults at call time.
    Unbound,
    /// Single service target.
    Svc { svc: usize, method: u32 },
    /// Replicated service target; one replica is picked per attempt.
    Replicated {
        policy: LbPolicy,
        targets: TargetsId,
    },
    /// Backend target.
    Backend { backend: usize },
    /// Step kind and binding kind disagree; faults at call time.
    Mismatch,
}

/// One compiled behavior step. Mirrors [`Step`] with all names resolved to
/// dense indices and nested bodies referenced by arena id — every step is
/// `Copy`, so the interpreter reads them straight out of the arena.
#[derive(Debug, Clone, Copy)]
enum CStep {
    Compute {
        cpu_ns: u64,
        alloc_bytes: u64,
    },
    Call {
        client: u32,
        dest: CallDest,
    },
    Cache {
        client: u32,
        dest: CallDest,
        op: CacheOp,
        key: KeyExpr,
    },
    CacheGetOrFetch {
        client: u32,
        dest: CallDest,
        key: KeyExpr,
        on_miss: ProgId,
    },
    Db {
        client: u32,
        dest: CallDest,
        op: DbOp,
        key: KeyExpr,
    },
    Queue {
        client: u32,
        dest: CallDest,
        op: BackendOp,
    },
    Parallel(ProgListId),
    Branch {
        prob: f64,
        then: ProgId,
        otherwise: ProgId,
    },
    Repeat {
        times: u32,
        body: ProgId,
    },
    Fail {
        prob: f64,
    },
}

/// A compiled behavior program.
#[derive(Debug)]
struct CProg {
    steps: Vec<CStep>,
}

/// Boot-time compiler from workflow [`Behavior`]s to [`CProg`]s.
///
/// Owns the interning tables — per-service method name → dense method index,
/// `(service, dep name)` → dense client id — and the [`ProgArena`] the
/// compiled programs accumulate into (handed to the [`Sim`] when boot
/// finishes). Every id resolved here is an array index at run time, and
/// arena ids are assigned in deterministic compile order.
struct ProgCompiler<'a> {
    spec: &'a SystemSpec,
    method_ids: Vec<BTreeMap<&'a str, u32>>,
    client_ids: HashMap<(usize, &'a str), u32>,
    arena: ProgArena,
}

impl<'a> ProgCompiler<'a> {
    fn new(spec: &'a SystemSpec) -> Self {
        let method_ids = spec
            .services
            .iter()
            .map(|s| {
                s.methods
                    .keys()
                    .enumerate()
                    .map(|(i, m)| (m.as_str(), i as u32))
                    .collect()
            })
            .collect();
        let mut client_ids = HashMap::new();
        let mut next = 0u32;
        for (si, s) in spec.services.iter().enumerate() {
            for dep in s.deps.keys() {
                client_ids.insert((si, dep.as_str()), next);
                next += 1;
            }
        }
        ProgCompiler {
            spec,
            method_ids,
            client_ids,
            arena: ProgArena::default(),
        }
    }

    fn client(&self, si: usize, dep: &str) -> u32 {
        self.client_ids
            .get(&(si, dep))
            .copied()
            .unwrap_or(UNBOUND_CLIENT)
    }

    fn method_id(&self, svc: usize, method: &str) -> u32 {
        self.method_ids[svc]
            .get(method)
            .copied()
            .unwrap_or(MISSING_METHOD)
    }

    /// Destination of a `Call` step (expects a service-kind binding).
    fn service_dest(&mut self, si: usize, dep: &str, method: &str) -> CallDest {
        match self.spec.services[si].deps.get(dep) {
            None => CallDest::Unbound,
            Some(DepBinding::Service { target, .. }) => CallDest::Svc {
                svc: *target,
                method: self.method_id(*target, method),
            },
            Some(DepBinding::ReplicatedService {
                targets, policy, ..
            }) => {
                let resolved = targets
                    .iter()
                    .map(|t| (*t, self.method_id(*t, method)))
                    .collect();
                CallDest::Replicated {
                    policy: *policy,
                    targets: self.arena.alloc_targets(resolved),
                }
            }
            Some(DepBinding::Backend { .. }) => CallDest::Mismatch,
        }
    }

    /// Destination of a cache/db/queue step (expects a backend binding).
    fn backend_dest(&self, si: usize, dep: &str) -> CallDest {
        match self.spec.services[si].deps.get(dep) {
            None => CallDest::Unbound,
            Some(DepBinding::Backend { target, .. }) => CallDest::Backend { backend: *target },
            Some(_) => CallDest::Mismatch,
        }
    }

    /// Compiles a behavior into the arena, returning its handle.
    fn compile(&mut self, si: usize, b: &Behavior) -> ProgId {
        let mut steps = Vec::with_capacity(b.steps.len());
        for s in &b.steps {
            steps.push(self.compile_step(si, s));
        }
        self.arena.alloc(CProg { steps })
    }

    fn compile_step(&mut self, si: usize, step: &Step) -> CStep {
        match step {
            Step::Compute {
                cpu_ns,
                alloc_bytes,
            } => CStep::Compute {
                cpu_ns: *cpu_ns,
                alloc_bytes: *alloc_bytes,
            },
            Step::Call { dep, method } => CStep::Call {
                client: self.client(si, dep),
                dest: self.service_dest(si, dep, method),
            },
            Step::Cache { dep, op, key } => CStep::Cache {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: *op,
                key: *key,
            },
            Step::CacheGetOrFetch {
                cache,
                key,
                on_miss,
            } => CStep::CacheGetOrFetch {
                client: self.client(si, cache),
                dest: self.backend_dest(si, cache),
                key: *key,
                on_miss: self.compile(si, on_miss),
            },
            Step::Db { dep, op, key } => CStep::Db {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: *op,
                key: *key,
            },
            Step::QueuePush { dep } => CStep::Queue {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: BackendOp::QueuePush,
            },
            Step::QueuePop { dep } => CStep::Queue {
                client: self.client(si, dep),
                dest: self.backend_dest(si, dep),
                op: BackendOp::QueuePop,
            },
            Step::Parallel(branches) => {
                let mut compiled = Vec::with_capacity(branches.len());
                for b in branches {
                    compiled.push(self.compile(si, b));
                }
                CStep::Parallel(self.arena.alloc_list(compiled))
            }
            Step::Branch {
                prob,
                then,
                otherwise,
            } => CStep::Branch {
                prob: *prob,
                then: self.compile(si, then),
                otherwise: self.compile(si, otherwise),
            },
            Step::Repeat { times, body } => CStep::Repeat {
                times: *times,
                body: self.compile(si, body),
            },
            Step::Fail { prob } => CStep::Fail { prob: *prob },
        }
    }
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

/// Interpreter context: a compiled program handle with a program counter.
#[derive(Debug, Clone, Copy)]
struct ExecCtx {
    prog: ProgId,
    pc: usize,
    /// Remaining extra iterations (for `Repeat`).
    repeat_left: u32,
}

/// Where a frame's completion goes.
#[derive(Debug, Clone, Copy)]
enum FrameKind {
    /// Workload-submitted entry request.
    Entry {
        handle: EntryHandle,
        submitted_ns: SimTime,
    },
    /// Serving an RPC; the reply routes back to the caller's call attempt.
    Rpc {
        caller: FrameId,
        seq: u32,
        attempt: u32,
        reply: ReplyRoute,
    },
    /// A parallel branch of another frame on the same service.
    SubTask { parent: FrameId },
}

/// An in-flight call issued by a frame.
#[derive(Debug, Clone)]
struct OutstandingCall {
    seq: u32,
    attempt: u32,
    /// Dense client id of the dependency (UNBOUND_CLIENT if unbound).
    client: u32,
    /// Pre-resolved destination.
    dest: CallDest,
    backend_op: Option<BackendOp>,
    /// Chosen replica index of this attempt (outstanding bookkeeping).
    chosen: Option<usize>,
    /// Whether this attempt holds a Thrift connection.
    holds_conn: bool,
    /// Whether this attempt already concluded (timeout fired or response
    /// processed); stale events check this.
    concluded: bool,
    /// For cache get-or-fetch: what to run on a miss.
    on_miss: Option<ProgId>,
    /// Request waiting for a free Thrift connection.
    queued_msg: Option<Box<RequestMsg>>,
    /// Absolute deadline this attempt propagated downstream (set when the
    /// client has a deadline policy); classifies its timeout as `Deadline`.
    attempt_deadline: Option<SimTime>,
}

/// One executing request (or sub-request) on a service.
#[derive(Debug)]
struct Frame {
    gen: u32,
    service: usize,
    stack: Vec<ExecCtx>,
    entity: u64,
    root_seq: u64,
    kind: FrameKind,
    call: Option<OutstandingCall>,
    next_call_seq: u32,
    pending_children: u32,
    child_failed: bool,
    failed: bool,
    last_err: Option<CallErr>,
    observed_version: u64,
    /// Whether any read (cache/store) has completed in this frame; controls
    /// which version a cache fill stores.
    did_read: bool,
    span: Option<(TraceId, SpanId)>,
    /// Whether this frame owns (must end) its span.
    span_owned: bool,
    /// Whether the service admission counter was incremented for this frame.
    counted_admission: bool,
    /// Absolute deadline inherited from the inbound request, if any hop on
    /// the path declared deadline propagation.
    deadline_ns: Option<SimTime>,
    /// Arrival time at the serving service (sojourn-delay input for the
    /// adaptive admission controller).
    admitted_ns: SimTime,
}

// ---------------------------------------------------------------------------
// Events.
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Ev {
    HostCheck {
        host: usize,
        gen: u64,
    },
    Resume {
        frame: FrameId,
    },
    Timeout {
        frame: FrameId,
        seq: u32,
        attempt: u32,
    },
    RetryFire {
        frame: FrameId,
        seq: u32,
    },
    DeliverRequest {
        req: Box<RequestMsg>,
    },
    DeliverResponse {
        frame: FrameId,
        seq: u32,
        attempt: u32,
        outcome: CallOutcome,
    },
    HogEnd {
        host: usize,
        /// The exact core count the hog added, subtracted when it ends.
        cores: f64,
    },
    ConnFreed {
        client: u32,
    },
    ReplicaApply {
        backend: usize,
        /// Member index (0 = boot primary; replicas are members 1..).
        member: usize,
        key: u64,
        version: u64,
        /// Store generation at scheduling time; a failover in between
        /// drops the apply (in-flight async replication dies with the old
        /// primary).
        gen: u64,
    },
    /// A store failover election fires after detection + election delays
    /// (ignored when `gen` is stale or the primary recovered in time).
    StoreFailover {
        backend: usize,
        gen: u64,
    },
    /// A scheduled fault fires.
    FaultFire {
        fault: Box<RFault>,
    },
    /// A crashed process comes back up (ignored if `gen` is stale).
    ProcRestart {
        proc: usize,
        gen: u64,
    },
    /// The chaos process draws and injects its next fault.
    ChaosFire,
    /// A scheduled reconfiguration change starts (indexes
    /// `ReconfigRt::changes`).
    ReconfigFire {
        idx: usize,
    },
    /// A drain budget expired (indexes `ReconfigRt::drains`): stop or
    /// deactivate the drained replica and run the follow-up.
    DrainDone {
        token: usize,
    },
    /// A rolling deploy's restarted replica should be healthy again; verify
    /// and advance to the next replica (indexes `ReconfigRt::rollings`).
    RollAdvance {
        rolling: usize,
    },
    /// A deterministic autoscaler takes its next utilization observation
    /// (indexes `ReconfigRt::scalers`).
    AutoscaleTick {
        scaler: usize,
    },
    /// A canary's observation window closed: compare error rates and
    /// promote or roll back (indexes `ReconfigRt::canaries`).
    CanaryEval {
        canary: usize,
    },
}

/// A fault with every name resolved to a dense index at boot (or at
/// injection time for driver-injected faults).
#[derive(Debug, Clone)]
enum RFault {
    Crash {
        proc: usize,
        restart_ns: SimTime,
    },
    HostDown {
        host: usize,
        down_ns: SimTime,
    },
    /// Partition and link degradation share one runtime shape: a partition
    /// is a link with `loss == 1.0` and no extra latency.
    Link {
        a: usize,
        b: usize,
        dur: SimTime,
        extra_ns: u64,
        loss: f64,
    },
    Brownout {
        backend: usize,
        dur: SimTime,
        slow: f64,
        unavailable: bool,
    },
    CpuHog {
        host: usize,
        cores: f64,
        dur: SimTime,
    },
    CacheFlush {
        backend: usize,
    },
}

/// Active degradation of one directed process pair. Entries persist after
/// expiry (checked against `until`) but are inert.
#[derive(Debug, Clone, Copy)]
struct LinkFault {
    until: SimTime,
    extra_ns: u64,
    loss: f64,
}

/// Runtime state of the chaos process. Its RNG is separate from the main
/// simulation RNG so chaos never perturbs workload randomness.
struct ChaosRt {
    rng: SmallRng,
    menu: Vec<RFault>,
    mean_gap_ns: SimTime,
    end_ns: SimTime,
}

// ---------------------------------------------------------------------------
// Runtime reconfiguration (rolling deploys, scaling, canaries).
// ---------------------------------------------------------------------------

/// A reconfiguration change with its service group resolved to dense
/// indices at boot.
#[derive(Debug, Clone)]
enum RChange {
    Rolling {
        group: Vec<usize>,
        drain_ns: SimTime,
        restart_ns: SimTime,
        drainless: bool,
    },
    Scale {
        group: Vec<usize>,
        replicas: usize,
        drain_ns: SimTime,
    },
    Canary {
        group: Vec<usize>,
        fraction: f64,
        evaluate_ns: SimTime,
        timeout_ns: Option<SimTime>,
        retries: Option<u32>,
    },
}

/// A rolling deploy in progress: one replica of `group` at a time is
/// drained (unless `drainless`), stopped, restarted, and verified healthy
/// before the next begins.
#[derive(Debug)]
struct RollingRt {
    group: Vec<usize>,
    drain_ns: SimTime,
    restart_ns: SimTime,
    drainless: bool,
    /// Position in `group` currently being processed.
    next: usize,
}

/// What happens when a drain budget expires.
#[derive(Debug, Clone, Copy)]
enum DrainFollow {
    /// Rolling deploy: stop the process, restart it, then advance.
    Rolling(usize),
    /// Scale-in: deactivate the replica (its process stays up; any
    /// stragglers past the budget simply finish off-rotation).
    Deactivate,
}

/// One drain in progress. Tokens (indices into `ReconfigRt::drains`) are
/// stable: entries are push-only and marked `done` instead of removed.
#[derive(Debug)]
struct DrainRt {
    svc: usize,
    follow: DrainFollow,
    done: bool,
}

/// A deterministic autoscaler instance. All draws come from its private
/// [`DOMAIN_AUTOSCALER`] stream (keyed by scaler index + 1), so scaling
/// decisions never perturb workload randomness.
struct ScalerRt {
    spec: AutoscalerSpec,
    group: Vec<usize>,
    /// Utilization EWMA; seeded by the first observation (`primed`).
    ewma: f64,
    primed: bool,
    /// No scaling action before this time (hysteresis cooldown).
    cooldown_until: SimTime,
    rng: SmallRng,
}

/// A canary rollout in progress: the group's highest replica runs with
/// mutated outbound client wiring while a deterministic traffic fraction is
/// routed to it.
struct CanaryRt {
    /// The canary service (highest group index).
    svc: usize,
    /// Baseline group members (everything but the canary).
    baseline: Vec<usize>,
    timeout_ns: Option<SimTime>,
    retries: Option<u32>,
    /// `(client id, original spec)` for rollback.
    saved: Vec<(usize, ClientSpec)>,
    /// Completion counters at canary start (ok, err), canary then baseline.
    can0: (u64, u64),
    base0: (u64, u64),
    done: bool,
}

/// Deterministic canary routing state, read by LB picks.
#[derive(Debug, Clone, Copy)]
struct CanaryRoute {
    /// Seeded salt hashed with the request's root sequence number, so one
    /// request keeps its canary/baseline assignment across retries.
    salt: u64,
    /// Route to the canary when `mix64(salt ^ root_seq) < threshold`.
    threshold: u64,
}

/// All reconfiguration runtime state. Built at boot; its RNG is seeded by
/// [`derive_seed`] rather than drawn from any stream, so building it
/// perturbs nothing, and an empty plan pushes no events and draws nothing.
struct ReconfigRt {
    /// Plan-level RNG stream ([`DOMAIN_AUTOSCALER`], entity 0): canary
    /// salts and promote-tolerance draws.
    rng: SmallRng,
    /// Resolved changes; `Ev::ReconfigFire` indexes this.
    changes: Vec<RChange>,
    rollings: Vec<RollingRt>,
    drains: Vec<DrainRt>,
    scalers: Vec<ScalerRt>,
    canaries: Vec<CanaryRt>,
}

impl ReconfigRt {
    fn new(root_seed: u64) -> Self {
        ReconfigRt {
            rng: SmallRng::seed_from_u64(derive_seed(root_seed, DOMAIN_AUTOSCALER, 0)),
            changes: Vec::new(),
            rollings: Vec::new(),
            drains: Vec::new(),
            scalers: Vec::new(),
            canaries: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime structures.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed,
    Open {
        until: SimTime,
    },
    /// Probing: at most `half_open_probes` calls are admitted; all must
    /// succeed to close, any failure re-opens.
    HalfOpen {
        admitted: u32,
        successes: u32,
    },
}

/// Per-(service, dep) client runtime: breaker, pool, balancer state.
/// Addressed by dense client id assigned at boot.
#[derive(Debug)]
struct ClientRt {
    /// Service that owns this client (its process runs the client-side CPU).
    owner: usize,
    spec: ClientSpec,
    // Circuit breaker sliding window.
    window: VecDeque<bool>,
    window_failures: u32,
    breaker: BreakerState,
    // Thrift connection pool.
    conns_in_use: u32,
    waiters: VecDeque<(FrameId, u32, u32)>,
    // Balancer state.
    rr: usize,
    outstanding: Vec<u32>,
    /// Retry-budget token bucket; only meaningful when
    /// `spec.retry_budget` is set (stays 0.0 otherwise).
    budget_tokens: f64,
    /// Private RNG stream ([`DOMAIN_CLIENT`], keyed by dense client id):
    /// random load balancing, retry jitter.
    rng: SmallRng,
}

/// Per-process runtime (GC state).
#[derive(Debug)]
struct ProcRt {
    host: usize,
    heap: u64,
    in_gc: bool,
    gc_started_ns: SimTime,
    /// The in-progress GC pause job (cancelled if the process crashes).
    gc_job: Option<JobId>,
    /// Private RNG stream ([`DOMAIN_PROC`], keyed by dense process id):
    /// service-time branches, fail coins, random keys, shed coins, and
    /// link-loss coins for requests this process sends.
    rng: SmallRng,
}

/// Adaptive admission-controller state (lowered from [`ShedSpec`]). The
/// controller is a proportional loop: completions update a sojourn-delay
/// EWMA, and the shed probability moves toward the error between the EWMA
/// and the target. Arrivals draw against the probability only while it is
/// positive, so an idle controller costs zero RNG draws.
#[derive(Debug, Clone)]
struct ShedCtl {
    spec: ShedSpec,
    /// EWMA of request sojourn delay, ns. Only meaningful once `primed`.
    ewma_ns: f64,
    /// Current shed probability in `[0, spec.max_shed]`.
    p: f64,
    /// Whether `ewma_ns` holds a real sample yet. The EWMA is seeded with
    /// the first observation instead of decaying up from 0.0 — a zero seed
    /// drags early observations toward an artificial cold value, so the
    /// controller under-sheds exactly when overload begins (at startup and
    /// right after a crash reset).
    primed: bool,
}

impl ShedCtl {
    fn new(spec: ShedSpec) -> Self {
        ShedCtl {
            spec,
            ewma_ns: 0.0,
            p: 0.0,
            primed: false,
        }
    }

    /// Folds one completed request's sojourn delay into the controller.
    fn observe(&mut self, sojourn_ns: SimTime) {
        let sample = sojourn_ns as f64;
        if self.primed {
            let a = self.spec.ewma_alpha.clamp(0.0, 1.0);
            self.ewma_ns = (1.0 - a) * self.ewma_ns + a * sample;
        } else {
            self.ewma_ns = sample;
            self.primed = true;
        }
        let target = self.spec.target_delay_ns.max(1) as f64;
        let err = (self.ewma_ns - target) / target;
        self.p = (self.p + self.spec.gain * err).clamp(0.0, self.spec.max_shed.clamp(0.0, 1.0));
    }

    /// Cold restart (process crash): forget the delay estimate and shed
    /// probability; the next observation re-seeds the EWMA.
    fn reset(&mut self) {
        self.ewma_ns = 0.0;
        self.p = 0.0;
        self.primed = false;
    }
}

/// Per-service runtime. Methods are dense: index `i` of `methods` and
/// `method_names` is the method id used in [`CallTarget::Service`].
struct SvcRt {
    methods: Vec<ProgId>,
    method_names: Vec<NameId>,
    /// Dense ids of the clients this service owns (boot assigns client ids
    /// service by service, so they are contiguous).
    clients: std::ops::Range<usize>,
    active: u32,
    max_concurrent: u32,
    /// Requests served (frames created) by this service.
    served: u64,
    traced: bool,
    overhead_prog: Option<ProgId>,
    /// Adaptive admission controller; `None` keeps the plain
    /// `max_concurrent` fast-fail and costs nothing.
    shed: Option<ShedCtl>,
    /// Completed entry/RPC frames that succeeded (canary comparisons).
    done_ok: u64,
    /// Completed frames that failed.
    done_err: u64,
}

/// Per-entry-point runtime: the shim service plus its method name table.
struct EntryRt {
    name: NameId,
    svc: usize,
    methods: BTreeMap<String, u32>,
}

/// Cache runtime with O(1) random eviction.
#[derive(Debug, Default)]
struct CacheRt {
    map: U64Map<(usize, u64)>,
    keys: Vec<u64>,
}

impl CacheRt {
    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).map(|(_, v)| *v)
    }

    /// Inserts, evicting random keys beyond `capacity`; returns evictions.
    fn put(&mut self, key: u64, version: u64, capacity: u64, rng: &mut SmallRng) -> u64 {
        if let Some(slot) = self.map.get_mut(&key) {
            slot.1 = version;
            return 0;
        }
        let mut evictions = 0;
        while self.keys.len() as u64 >= capacity && !self.keys.is_empty() {
            let victim_idx = rng.gen_range(0..self.keys.len());
            let victim = self.keys.swap_remove(victim_idx);
            self.map.remove(&victim);
            if let Some(&moved) = self.keys.get(victim_idx) {
                self.map.get_mut(&moved).expect("moved key present").0 = victim_idx;
            }
            evictions += 1;
        }
        self.map.insert(key, (self.keys.len(), version));
        self.keys.push(key);
        evictions
    }

    fn delete(&mut self, key: u64) {
        if let Some((idx, _)) = self.map.remove(&key) {
            self.keys.swap_remove(idx);
            if let Some(&moved) = self.keys.get(idx) {
                self.map.get_mut(&moved).expect("moved key present").0 = idx;
            }
        }
    }

    fn flush(&mut self) {
        self.map.clear();
        self.keys.clear();
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// One member of a replicated store: its key→version map plus the applied
/// bookkeeping failover elections rank candidates by.
#[derive(Debug, Default)]
struct StoreMember {
    map: U64Map<u64>,
    /// Owning process (the store's own process unless a failover spec
    /// placed this member elsewhere). Same host as the primary's process by
    /// validation, so every member's events key under one host context.
    proc: u32,
    /// Applied write count (election tie-break).
    applied: u64,
    /// Highest version ever applied (election rank).
    watermark: u64,
}

/// Store runtime. Member 0 is the boot primary; `primary` points at the
/// *current* primary member, which moves only through failover elections.
#[derive(Debug, Default)]
struct StoreRt {
    members: Vec<StoreMember>,
    /// Index of the current primary member.
    primary: usize,
    /// Election generation: bumped per promotion; stale scheduled elections
    /// and in-flight replica applies from an older generation are dropped.
    gen: u64,
    /// Round-robin cursor over non-primary members (replica reads).
    rr: usize,
    /// Failover machinery enabled (spec had a `FailoverSpec`). When false
    /// the store behaves exactly as before this field existed: no extra
    /// events, no extra RNG draws, unavailable while its process is down.
    armed: bool,
    /// Detection + election delays (ns) when armed.
    detection_ns: SimTime,
    election_ns: SimTime,
    /// An election event is already scheduled (dedup guard).
    election_pending: bool,
    /// Session mode: entity → lowest version its reads may observe
    /// (read-your-writes floor, raised by both acked writes and reads).
    session_floor: U64Map<u64>,
}

impl StoreRt {
    /// The current primary's version for a key (0 when absent).
    fn primary_version(&self, key: u64) -> u64 {
        self.members[self.primary]
            .map
            .get(&key)
            .copied()
            .unwrap_or(0)
    }

    /// Non-primary member indices in index order (replica read candidates).
    fn peer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.members.len()).filter(move |&i| i != self.primary)
    }
}

/// Backend runtime. Its stats live in [`Metrics::backends`] under the same
/// dense id.
struct BackendRt {
    name: NameId,
    kind: BackendRtKind,
    cache: CacheRt,
    store: StoreRt,
    queue: VecDeque<u64>,
    /// Brownout window end (0 = no brownout ever injected).
    brownout_until: SimTime,
    /// Service-time multiplier while `now < brownout_until`.
    brownout_slow: f64,
    /// Reject requests outright while `now < brownout_until`.
    brownout_unavailable: bool,
    /// Private RNG stream ([`DOMAIN_BACKEND`], keyed by dense backend id):
    /// cache evictions, replication-lag draws.
    rng: SmallRng,
}

/// Continuation attached to a CPU job.
enum JobCont {
    /// Resume a frame's interpreter.
    FrameStep(FrameId),
    /// Client-side serialization finished; deliver after `net_ns`.
    SendRequest(Box<RequestMsg>, u64),
    /// Server-side serialization finished; deliver response after `net_ns`.
    SendResponse {
        frame: FrameId,
        seq: u32,
        attempt: u32,
        outcome: CallOutcome,
        net_ns: u64,
    },
    /// Backend CPU finished; apply the op and respond after `latency_ns`.
    BackendExec {
        req: Box<RequestMsg>,
        latency_ns: u64,
    },
    /// GC pause finished.
    GcEnd { proc: usize },
}

// ---------------------------------------------------------------------------
// The simulator: topology, per-host runtime, entity tables.
// ---------------------------------------------------------------------------

/// The cluster's topology and cluster-wide state: compiled programs, names,
/// the entity → process → host maps, and the fault and rotation state that
/// control events write and dispatch reads.
struct Shared {
    /// All compiled behavior programs (see [`ProgArena`]).
    progs: ProgArena,
    /// Interned names (see [`StrArena`]).
    names: StrArena,
    /// Pre-interned `"rpc"` span-operation name.
    rpc_name: NameId,
    record_traces: bool,
    gc_specs: Vec<Option<crate::spec::GcSpec>>,
    svc_names: Vec<NameId>,

    /// Service → owning process (global ids).
    svc_proc: Vec<u32>,
    /// Backend → serving process (global ids; moves on store failover).
    backend_proc: Vec<u32>,
    /// Process → host.
    proc_host: Vec<u32>,

    // Fault state: written by control events only.
    /// Whether each process is currently crashed.
    proc_down: Vec<bool>,
    /// Crash generation per process; guards stale `ProcRestart` events.
    proc_gen: Vec<u64>,
    /// Active (or expired-but-inert) link faults, keyed by directed
    /// (src process, dst process). Lookup-only, so map order never matters.
    link_faults: HashMap<(usize, usize), LinkFault>,

    // Reconfiguration state: written by control events only. With no
    // plan every replica is active and none drains or is a canary, so the
    // hot-path checks pass through without touching any RNG.
    /// Service in the load-balancer rotation (scale state). All true at
    /// boot; scaled-in replicas turn false.
    svc_active: Vec<bool>,
    /// Service draining: load balancers route away and new deliveries fail
    /// fast with `"drain"`; in-flight work keeps running.
    svc_draining: Vec<bool>,
    /// Per-service canary routing (set on the canary replica itself).
    canary_route: Vec<Option<CanaryRoute>>,
}

/// One host's frame table: generational slots recycled through a free list.
/// A process stop sweeps it in slot order, and that order decides the `seq`
/// of the failure responses the stop pushes — which is why frames stay in
/// per-host tables rather than one global one.
#[derive(Default)]
struct FrameTable {
    slots: Vec<Option<Frame>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl FrameTable {
    /// Installs a frame into a recycled or fresh slot. `host` is the id of
    /// the host that owns this table.
    fn insert(&mut self, host: u32, frame: Frame) -> FrameId {
        if let Some(idx) = self.free.pop() {
            let gen = self.gens[idx as usize];
            self.slots[idx as usize] = Some(Frame { gen, ..frame });
            FrameId { host, idx, gen }
        } else {
            // Cannot overflow for entry frames (`max_frames` is capped at
            // u32::MAX in `Sim::new`), but internal sub-frames are not
            // admission-counted, so convert checked rather than truncate.
            let idx = u32::try_from(self.slots.len())
                .expect("frame table exceeds u32 index space (see MAX_FRAMES_CAP)");
            self.slots.push(Some(frame));
            self.gens.push(0);
            FrameId { host, idx, gen: 0 }
        }
    }

    fn get_mut(&mut self, id: FrameId) -> Option<&mut Frame> {
        match self.slots.get_mut(id.idx as usize) {
            Some(Some(f)) if f.gen == id.gen => Some(f),
            _ => None,
        }
    }

    /// Removes a frame and frees its slot.
    fn remove(&mut self, id: FrameId) -> Option<Frame> {
        let frame = self
            .slots
            .get_mut(id.idx as usize)?
            .take_if(|f| f.gen == id.gen)?;
        self.gens[id.idx as usize] = id.gen.wrapping_add(1);
        self.free.push(id.idx);
        Some(frame)
    }
}

/// Per-host runtime: the CPU scheduler, the frame table, and the host's
/// share of the event-sequence counter.
struct HostRt {
    ps: PsHost<JobCont>,
    /// Reused buffer for the continuations a `HostCheck` collects.
    due: Vec<JobCont>,
    /// Bumped on every scheduler perturbation; guards stale `HostCheck`s.
    host_gen: u64,
    /// Push counter for events generated while dispatching this host's
    /// events (the low 48 bits of their `(time, seq)` keys).
    ev_seq: u64,
    frames: FrameTable,
}

/// Home host of an event — the host whose context keys the events its
/// dispatch pushes. `None` for control events (faults, restarts, chaos,
/// failover, reconfiguration), which dispatch under [`CTRL_CTX`].
///
/// Frame ids carry their home host, so this never needs to resolve
/// (possibly dead) frames.
fn ev_home_host(sh: &Shared, clients: &[ClientRt], ev: &Ev) -> Option<usize> {
    match ev {
        Ev::HostCheck { host, .. } | Ev::HogEnd { host, .. } => Some(*host),
        Ev::Resume { frame }
        | Ev::Timeout { frame, .. }
        | Ev::RetryFire { frame, .. }
        | Ev::DeliverResponse { frame, .. } => Some(frame.host as usize),
        Ev::DeliverRequest { req } => Some(match req.target {
            CallTarget::Service { svc, .. } => sh.proc_host[sh.svc_proc[svc] as usize] as usize,
            CallTarget::Backend { backend, .. } => {
                sh.proc_host[sh.backend_proc[backend] as usize] as usize
            }
        }),
        Ev::ConnFreed { client } => {
            let owner = clients[*client as usize].owner;
            Some(sh.proc_host[sh.svc_proc[owner] as usize] as usize)
        }
        Ev::ReplicaApply { backend, .. } => {
            Some(sh.proc_host[sh.backend_proc[*backend] as usize] as usize)
        }
        // Control events mutate cluster-wide state (`proc_down`,
        // `link_faults`, multi-host crash sweeps, rotation state, client
        // rewiring, a store's serving process), so no single host owns them.
        Ev::FaultFire { .. }
        | Ev::ProcRestart { .. }
        | Ev::ChaosFire
        | Ev::ReconfigFire { .. }
        | Ev::DrainDone { .. }
        | Ev::RollAdvance { .. }
        | Ev::AutoscaleTick { .. }
        | Ev::CanaryEval { .. }
        | Ev::StoreFailover { .. } => None,
    }
}

/// Kind of an event about to be dispatched (see [`EvKind`]); a host check
/// is stale when its host's generation has moved on since it was pushed.
fn ev_kind(hosts: &[HostRt], ev: &Ev) -> EvKind {
    match ev {
        Ev::HostCheck { host, gen } if hosts[*host].host_gen != *gen => EvKind::HostCheckStale,
        Ev::HostCheck { .. } => EvKind::HostCheckLive,
        Ev::Resume { .. } => EvKind::Resume,
        Ev::Timeout { .. } => EvKind::Timeout,
        Ev::RetryFire { .. } => EvKind::RetryFire,
        Ev::DeliverRequest { .. } => EvKind::DeliverRequest,
        Ev::DeliverResponse { .. } => EvKind::DeliverResponse,
        Ev::HogEnd { .. } => EvKind::HogEnd,
        Ev::ConnFreed { .. } => EvKind::ConnFreed,
        Ev::ReplicaApply { .. } => EvKind::ReplicaApply,
        Ev::StoreFailover { .. } => EvKind::StoreFailover,
        Ev::FaultFire { .. } => EvKind::FaultFire,
        Ev::ProcRestart { .. } => EvKind::ProcRestart,
        Ev::ChaosFire => EvKind::ChaosFire,
        Ev::ReconfigFire { .. } => EvKind::ReconfigFire,
        Ev::DrainDone { .. } => EvKind::DrainDone,
        Ev::RollAdvance { .. } => EvKind::RollAdvance,
        Ev::AutoscaleTick { .. } => EvKind::AutoscaleTick,
        Ev::CanaryEval { .. } => EvKind::CanaryEval,
    }
}

/// A running simulated deployment.
pub struct Sim {
    cfg: SimConfig,
    now: SimTime,
    /// Context of the event being dispatched: its home host, or
    /// [`CTRL_CTX`] for control events and driver calls. Keys every push.
    ctx: u64,
    /// Push counter of the [`CTRL_CTX`] context.
    ctrl_seq: u64,
    /// Every pending event, popped in `(time, seq)` order.
    events: Wheel<Ev>,

    sh: Shared,
    /// Per-host runtime, indexed by host id.
    hosts: Vec<HostRt>,
    // Entity tables, indexed by global id.
    procs: Vec<ProcRt>,
    services: Vec<SvcRt>,
    clients: Vec<ClientRt>,
    backends: Vec<BackendRt>,
    /// Live frames across every host (admission control).
    live: usize,
    /// Recycled interpreter stacks of completed frames.
    stack_pool: Vec<Vec<ExecCtx>>,
    /// Entry-request completions not yet drained.
    completions: Vec<Completion>,

    host_names: Vec<String>,
    proc_names: Vec<String>,
    entries: BTreeMap<String, u32>,
    entry_rts: Vec<EntryRt>,
    next_root: u64,

    /// Chaos process, when configured (its RNG stream is separate from the
    /// per-entity streams, as before).
    chaos: Option<ChaosRt>,
    /// Reconfiguration runtime: resolved changes, rolling deploys, drains,
    /// autoscalers and canaries (all empty without a plan).
    reconfig: ReconfigRt,

    /// Aggregate metrics of the run.
    pub metrics: Metrics,
    /// Trace collector (populated when tracing is enabled).
    pub traces: TraceCollector,

    spec_name: String,
}

/// `Sim` is `Send` by construction: program interning is arena-index based
/// (no `Rc`), so a run can migrate across threads (cross-run `par_run`
/// workers). This assert is the compile-time pin — reintroducing an `Rc` (or
/// any other `!Send` field) fails the build here.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<Sim>();

/// Size pins of the per-event payloads. Every event is copied through a
/// wheel slot, the due heap's sift steps and `dispatch`, and every job
/// continuation and outstanding call rides in a frame or a CPU-job slot, so
/// in-flight requests (and rare fault payloads) travel boxed. A field that
/// re-inlines a large payload fails the build here.
const _: () = {
    assert!(size_of::<Ev>() <= 48);
    assert!(size_of::<evq::Entry<Ev>>() <= 64);
    assert!(size_of::<JobCont>() <= 48);
    assert!(size_of::<OutstandingCall>() <= 104);
};

/// Frame slots are addressed by `u32` indices (`FrameId::idx`), so the frame
/// table is hard-capped; [`Sim::new`] rejects a larger `max_frames` loudly
/// instead of letting index casts truncate.
const MAX_FRAMES_CAP: usize = u32::MAX as usize;

impl Sim {
    /// Instantiates a spec as a virtual cluster.
    pub fn new(spec: &SystemSpec, cfg: SimConfig) -> Result<Self> {
        spec.validate()?;
        if cfg.max_frames > MAX_FRAMES_CAP {
            return Err(SimError::BadSpec(format!(
                "max_frames {} exceeds the frame-table cap of {} (u32 frame ids)",
                cfg.max_frames, MAX_FRAMES_CAP
            )));
        }
        let mut spec = spec.clone();

        // Append the hidden workload host/process/services that drive entry
        // points (the paper's separate workload-generator machine). They go
        // after the user's entities, which stay a prefix of every table;
        // name lookups (`Sim::names`) see only that prefix, so no plan,
        // injected fault or accessor can reach the hidden ones.
        let wl_host = spec.hosts.len();
        spec.hosts.push(crate::spec::HostSpec {
            name: "__workload_host".into(),
            cores: 512.0,
        });
        let wl_proc = spec.processes.len();
        spec.processes.push(crate::spec::ProcessSpec {
            name: "__workload_proc".into(),
            host: wl_host,
            gc: None,
        });
        let mut entry_map = BTreeMap::new();
        for (name, entry) in spec.entries.clone() {
            let target = entry.service;
            let mut svc = crate::spec::ServiceSpec::new(format!("__workload_{name}"), wl_proc);
            svc.max_concurrent = u32::MAX;
            for m in spec.services[target].methods.keys() {
                svc.methods
                    .insert(m.clone(), Behavior::build().call("target", m).done());
            }
            svc.deps.insert(
                "target".into(),
                DepBinding::Service {
                    target,
                    client: entry.client.clone(),
                },
            );
            let idx = spec.services.len();
            spec.services.push(svc);
            entry_map.insert(name, idx);
        }

        if spec.hosts.len() > MAX_HOSTS {
            return Err(SimError::BadSpec(format!(
                "{} hosts exceed the event-key context space ({MAX_HOSTS})",
                spec.hosts.len()
            )));
        }

        let host_names: Vec<String> = spec.hosts.iter().map(|h| h.name.clone()).collect();
        let proc_names: Vec<String> = spec.processes.iter().map(|p| p.name.clone()).collect();
        let hosts: Vec<HostRt> = spec
            .hosts
            .iter()
            .map(|h| HostRt {
                ps: PsHost::new(h.cores),
                due: Vec::new(),
                host_gen: 0,
                ev_seq: 0,
                frames: FrameTable::default(),
            })
            .collect();
        let procs: Vec<ProcRt> = spec
            .processes
            .iter()
            .enumerate()
            .map(|(pi, p)| ProcRt {
                host: p.host,
                heap: p.gc.as_ref().map(|g| g.base_heap_bytes).unwrap_or(0),
                in_gc: false,
                gc_started_ns: 0,
                gc_job: None,
                rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, DOMAIN_PROC, pi as u64)),
            })
            .collect();
        let gc_specs: Vec<_> = spec.processes.iter().map(|p| p.gc.clone()).collect();

        // Intern names and compile behaviors. Client ids are assigned in
        // (service index, dep name) order; method ids per service in method
        // name order; arena ids in compile order — all deterministic.
        let mut compiler = ProgCompiler::new(&spec);
        let mut names = StrArena::default();
        let rpc_name = names.intern("rpc");

        let mut clients = Vec::new();
        let mut client_ranges = Vec::with_capacity(spec.services.len());
        for (si, s) in spec.services.iter().enumerate() {
            let first = clients.len();
            for binding in s.deps.values() {
                let n_targets = match binding {
                    DepBinding::ReplicatedService { targets, .. } => targets.len(),
                    _ => 1,
                };
                let ci = clients.len() as u64;
                clients.push(ClientRt {
                    owner: si,
                    spec: binding.client().clone(),
                    window: VecDeque::new(),
                    window_failures: 0,
                    breaker: BreakerState::Closed,
                    conns_in_use: 0,
                    waiters: VecDeque::new(),
                    rr: 0,
                    outstanding: vec![0; n_targets],
                    budget_tokens: 0.0,
                    rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, DOMAIN_CLIENT, ci)),
                });
            }
            client_ranges.push(first..clients.len());
        }

        let mut services = Vec::new();
        let mut svc_names = Vec::new();
        for ((si, s), clients) in spec.services.iter().enumerate().zip(client_ranges) {
            svc_names.push(names.intern(&s.name));
            let method_names: Vec<NameId> = s.methods.keys().map(|k| names.intern(k)).collect();
            let mut methods = Vec::with_capacity(s.methods.len());
            for b in s.methods.values() {
                methods.push(compiler.compile(si, b));
            }
            let overhead_prog = s.trace_overhead_ns.filter(|ns| *ns > 0).map(|ns| {
                compiler.arena.alloc(CProg {
                    steps: vec![CStep::Compute {
                        cpu_ns: ns,
                        alloc_bytes: 256,
                    }],
                })
            });
            services.push(SvcRt {
                methods,
                method_names,
                clients,
                active: 0,
                max_concurrent: s.max_concurrent,
                served: 0,
                traced: s.trace_overhead_ns.is_some(),
                overhead_prog,
                shed: s.shed.clone().map(ShedCtl::new),
                done_ok: 0,
                done_err: 0,
            });
        }

        let mut entries = BTreeMap::new();
        let mut entry_rts = Vec::new();
        for (name, svc) in entry_map {
            let methods: BTreeMap<String, u32> = spec.services[svc]
                .methods
                .keys()
                .enumerate()
                .map(|(i, m)| (m.clone(), i as u32))
                .collect();
            entries.insert(name.clone(), entry_rts.len() as u32);
            entry_rts.push(EntryRt {
                name: names.intern(&name),
                svc,
                methods,
            });
        }

        let backends: Vec<BackendRt> = spec
            .backends
            .iter()
            .enumerate()
            .map(|(bi, b)| {
                let mut store = StoreRt::default();
                if let BackendRtKind::Store {
                    replicas, failover, ..
                } = &b.kind
                {
                    // Member 0 is the boot primary; replicas follow in spec
                    // order (identical iteration order to the old
                    // `replicas` vec, so default-mode runs are unchanged).
                    store.members.push(StoreMember {
                        proc: b.process as u32,
                        ..StoreMember::default()
                    });
                    for r in 0..*replicas as usize {
                        let proc = failover
                            .as_ref()
                            .map(|fo| fo.replica_processes[r])
                            .unwrap_or(b.process);
                        store.members.push(StoreMember {
                            proc: proc as u32,
                            ..StoreMember::default()
                        });
                    }
                    if let Some(fo) = failover {
                        store.armed = true;
                        store.detection_ns = fo.detection_ns;
                        store.election_ns = fo.election_ns;
                    }
                }
                BackendRt {
                    name: names.intern(&b.name),
                    kind: b.kind.clone(),
                    cache: CacheRt::default(),
                    store,
                    queue: VecDeque::new(),
                    brownout_until: 0,
                    brownout_slow: 1.0,
                    brownout_unavailable: false,
                    rng: SmallRng::seed_from_u64(derive_seed(cfg.seed, DOMAIN_BACKEND, bi as u64)),
                }
            })
            .collect();

        let n_procs = proc_names.len();
        let n_svcs = spec.services.len();
        let sh = Shared {
            progs: compiler.arena,
            names,
            rpc_name,
            record_traces: cfg.record_traces,
            gc_specs,
            svc_names,
            svc_proc: spec.services.iter().map(|s| s.process as u32).collect(),
            backend_proc: spec.backends.iter().map(|b| b.process as u32).collect(),
            proc_host: spec.processes.iter().map(|p| p.host as u32).collect(),
            proc_down: vec![false; n_procs],
            proc_gen: vec![0; n_procs],
            link_faults: HashMap::new(),
            svc_active: vec![true; n_svcs],
            svc_draining: vec![false; n_svcs],
            canary_route: vec![None; n_svcs],
        };
        let reconfig = ReconfigRt::new(cfg.seed);
        let mut sim = Sim {
            cfg,
            now: 0,
            ctx: CTRL_CTX,
            ctrl_seq: 0,
            events: Wheel::new(),
            sh,
            hosts,
            procs,
            services,
            clients,
            backends,
            live: 0,
            stack_pool: Vec::new(),
            completions: Vec::new(),
            host_names,
            proc_names,
            entries,
            entry_rts,
            // Root sequence numbers double as write versions; 0 is reserved
            // for "absent".
            next_root: 1,
            chaos: None,
            reconfig,
            metrics: Metrics {
                counters: Default::default(),
                backends: BackendTable::new(spec.backends.iter().map(|b| b.name.clone()).collect()),
            },
            traces: TraceCollector::new(),
            spec_name: spec.name.clone(),
        };
        sim.schedule_fault_plan()?;
        sim.schedule_reconfig_plan()?;
        Ok(sim)
    }

    /// Resolves and schedules the configured fault plan. A no-op for empty
    /// plans: no events pushed, no RNG state created or drawn from.
    /// Resolving is the plan's validation: a fault the driver path would
    /// reject fails `Sim::new` the same way.
    fn schedule_fault_plan(&mut self) -> Result<()> {
        if self.cfg.faults.is_empty() {
            return Ok(());
        }
        let plan = self.cfg.faults.clone();
        for (t, f) in &plan.scheduled {
            let fault = self.resolve_fault(f)?;
            self.push_ev(
                *t,
                Ev::FaultFire {
                    fault: Box::new(fault),
                },
            );
        }
        if let Some(chaos) = &plan.chaos {
            if chaos.menu.is_empty() {
                return Err(SimError::BadSpec("chaos menu is empty".into()));
            }
            if chaos.mean_gap_ns == 0 {
                return Err(SimError::BadSpec("chaos mean_gap_ns must be > 0".into()));
            }
            let menu: Vec<RFault> = chaos
                .menu
                .iter()
                .map(|f| self.resolve_fault(f))
                .collect::<Result<_>>()?;
            let mut rng = SmallRng::seed_from_u64(chaos.seed);
            let first = chaos.start_ns + exp_gap(&mut rng, chaos.mean_gap_ns);
            self.chaos = Some(ChaosRt {
                rng,
                menu,
                mean_gap_ns: chaos.mean_gap_ns,
                end_ns: chaos.end_ns,
            });
            if first < chaos.end_ns {
                self.push_ev(first, Ev::ChaosFire);
            }
        }
        Ok(())
    }

    /// Resolves and schedules the configured reconfiguration plan. A no-op
    /// for empty plans: no events pushed, no RNG drawn from.
    fn schedule_reconfig_plan(&mut self) -> Result<()> {
        if self.cfg.reconfig.is_empty() {
            return Ok(());
        }
        let plan = self.cfg.reconfig.clone();
        for (_, c) in &plan.scheduled {
            let rc = self.resolve_change(c)?;
            self.reconfig.changes.push(rc);
        }
        for (si, a) in plan.autoscalers.iter().enumerate() {
            let group = self.resolve_group(&a.service)?;
            check_autoscaler(a, group.len())?;
            self.reconfig.scalers.push(ScalerRt {
                spec: a.clone(),
                group,
                ewma: 0.0,
                primed: false,
                cooldown_until: 0,
                rng: SmallRng::seed_from_u64(derive_seed(
                    self.cfg.seed,
                    DOMAIN_AUTOSCALER,
                    1 + si as u64,
                )),
            });
        }
        for (i, (t, _)) in plan.scheduled.iter().enumerate() {
            self.push_ev(*t, Ev::ReconfigFire { idx: i });
        }
        for (si, a) in plan.autoscalers.iter().enumerate() {
            if a.start_ns < a.end_ns {
                self.push_ev(a.start_ns, Ev::AutoscaleTick { scaler: si });
            }
        }
        Ok(())
    }

    // -- Name resolution -----------------------------------------------------
    //
    // The one path from names to dense indices. Boot plans, the chaos menu,
    // `inject_fault` and the by-name accessors all resolve here, so they
    // accept and reject the same names and parameters.

    /// The user's entity names of one kind, in index order. `Sim::new`
    /// appends one workload host, one workload process and one shim
    /// service per entry after them, so slicing those off leaves exactly
    /// the entities a spec declared.
    fn names(&self, kind: NameKind) -> Box<dyn Iterator<Item = &str> + '_> {
        match kind {
            NameKind::Host => {
                let user = &self.host_names[..self.host_names.len() - 1];
                Box::new(user.iter().map(String::as_str))
            }
            NameKind::Process => {
                let user = &self.proc_names[..self.proc_names.len() - 1];
                Box::new(user.iter().map(String::as_str))
            }
            NameKind::Service => {
                let user = &self.sh.svc_names[..self.sh.svc_names.len() - self.entry_rts.len()];
                Box::new(user.iter().map(|&n| self.sh.names.get(n)))
            }
            NameKind::Backend => Box::new(self.backends.iter().map(|b| self.sh.names.get(b.name))),
        }
    }

    /// Index of the user entity of `kind` called `name`.
    fn lookup(&self, kind: NameKind, name: &str) -> Result<usize> {
        self.names(kind)
            .position(|n| n == name)
            .ok_or_else(|| self.unknown(kind, name))
    }

    /// The error for an unknown name: always [`SimError::Unknown`], with a
    /// nearest-match hint when some name of the same kind is close.
    fn unknown(&self, kind: NameKind, name: &str) -> SimError {
        let hint = crate::spec::suggest(name, self.names(kind));
        SimError::Unknown(format!("{} {name}{hint}", kind.label()))
    }

    /// Resolves a service-group base name to the sorted indices of its
    /// members: the instance named `base` plus every `base_rN` clone the
    /// `Replicate` transform stamped out.
    fn resolve_group(&self, base: &str) -> Result<Vec<usize>> {
        let prefix = format!("{base}_r");
        let group: Vec<usize> = self
            .names(NameKind::Service)
            .enumerate()
            .filter(|(_, name)| {
                *name == base
                    || name
                        .strip_prefix(&prefix)
                        .is_some_and(|n| !n.is_empty() && n.chars().all(|c| c.is_ascii_digit()))
            })
            .map(|(i, _)| i)
            .collect();
        if group.is_empty() {
            return Err(self.unknown(NameKind::Service, base));
        }
        Ok(group)
    }

    /// Processes resident on a host, in index order.
    fn residents(&self, host: usize) -> Vec<usize> {
        (0..self.sh.proc_host.len())
            .filter(|&p| self.sh.proc_host[p] as usize == host)
            .collect()
    }

    /// Rejects a step that stops every process in `stopped` while a
    /// replicated store keeps all of its members among them: the store has
    /// replicas, but no peer able to promote survives the step (no failover
    /// spec, replica processes that coincide with the primary's, or a host
    /// going down with all of them). Such a plan advertises replication it
    /// cannot deliver, so it fails instead of silently measuring nothing.
    fn check_store_stranded(&self, stopped: &[usize], what: &str) -> Result<()> {
        for (bi, b) in self.backends.iter().enumerate() {
            let members = &b.store.members;
            if members.len() > 1 && members.iter().all(|m| stopped.contains(&(m.proc as usize))) {
                return Err(SimError::BadSpec(format!(
                    "{what} stops process {}, but store {} keeps its {} \
                     replica(s) in stopped processes too: no reachable peer \
                     to promote. Give the store a failover spec with replica \
                     processes, or drop the replicas",
                    self.proc_names[self.sh.backend_proc[bi] as usize],
                    self.sh.names.get(b.name),
                    members.len() - 1
                )));
            }
        }
        Ok(())
    }

    /// Resolves a named fault to dense indices: the one check every fault
    /// passes, from a boot plan, the chaos menu or [`Sim::inject_fault`].
    /// Rejects unknown names, out-of-range parameters, and a crash or host
    /// outage that would strand a replicated store.
    fn resolve_fault(&self, f: &Fault) -> Result<RFault> {
        let link = |a: &str, b: &str, what: &str| -> Result<(usize, usize)> {
            let pair = (
                self.lookup(NameKind::Process, a)?,
                self.lookup(NameKind::Process, b)?,
            );
            if pair.0 == pair.1 {
                return Err(SimError::BadSpec(format!("{what} of {a} with itself")));
            }
            Ok(pair)
        };
        Ok(match f {
            Fault::ProcessCrash {
                process,
                restart_delay_ns,
            } => {
                let proc = self.lookup(NameKind::Process, process)?;
                self.check_store_stranded(&[proc], "process-crash fault")?;
                RFault::Crash {
                    proc,
                    restart_ns: *restart_delay_ns,
                }
            }
            Fault::HostDown { host, down_ns } => {
                let host = self.lookup(NameKind::Host, host)?;
                self.check_store_stranded(&self.residents(host), "host-down fault")?;
                RFault::HostDown {
                    host,
                    down_ns: *down_ns,
                }
            }
            Fault::Partition { a, b, duration_ns } => {
                let (a, b) = link(a, b, "partition")?;
                RFault::Link {
                    a,
                    b,
                    dur: *duration_ns,
                    extra_ns: 0,
                    loss: 1.0,
                }
            }
            Fault::LinkDegrade {
                a,
                b,
                duration_ns,
                extra_latency_ns,
                loss,
            } => {
                let (a, b) = link(a, b, "link degrade")?;
                if !loss.is_finite() || !(0.0..=1.0).contains(loss) {
                    return Err(SimError::BadSpec(format!("link loss {loss} not in [0, 1]")));
                }
                RFault::Link {
                    a,
                    b,
                    dur: *duration_ns,
                    extra_ns: *extra_latency_ns,
                    loss: *loss,
                }
            }
            Fault::Brownout {
                backend,
                duration_ns,
                slow_factor,
                unavailable,
            } => {
                let backend = self.lookup(NameKind::Backend, backend)?;
                // A factor in (0, 1) would silently *speed up* the backend
                // (and NaN/negative would truncate latencies to 0 ns in
                // `backend_cost`), so anything below the identity factor is
                // rejected rather than ignored.
                if !slow_factor.is_finite() || *slow_factor < 1.0 {
                    return Err(SimError::BadSpec(format!(
                        "brownout slow_factor {slow_factor} must be finite and >= 1 \
                         (1 = no slowdown)"
                    )));
                }
                RFault::Brownout {
                    backend,
                    dur: *duration_ns,
                    slow: *slow_factor,
                    unavailable: *unavailable,
                }
            }
            Fault::CpuHog {
                host,
                cores,
                duration_ns,
            } => {
                let h = self.lookup(NameKind::Host, host)?;
                if !cores.is_finite() || *cores < 0.0 {
                    return Err(SimError::BadSpec(format!(
                        "CPU hog of {cores} cores on host {host}: must be finite and non-negative"
                    )));
                }
                RFault::CpuHog {
                    host: h,
                    cores: *cores,
                    dur: *duration_ns,
                }
            }
            Fault::CacheFlush { backend } => {
                let b = self.lookup(NameKind::Backend, backend)?;
                if !matches!(self.backends[b].kind, BackendRtKind::Cache { .. }) {
                    return Err(SimError::BadSpec(format!(
                        "cache flush of {backend}, which is not a cache"
                    )));
                }
                RFault::CacheFlush { backend: b }
            }
        })
    }

    /// Resolves a named change to dense indices: the one check every
    /// change in a boot plan passes. Rejects
    /// unknown service groups, out-of-range parameters, and a rolling
    /// restart whose steps would strand a replicated store.
    fn resolve_change(&self, c: &Change) -> Result<RChange> {
        let group = self.resolve_group(c.service())?;
        match c {
            Change::RollingRestart {
                drain_ns,
                restart_ns,
                drainless,
                ..
            } => {
                // Each step stops one member's process.
                for &svc in &group {
                    let proc = self.sh.svc_proc[svc] as usize;
                    self.check_store_stranded(&[proc], "rolling restart")?;
                }
                Ok(RChange::Rolling {
                    group,
                    drain_ns: *drain_ns,
                    restart_ns: *restart_ns,
                    drainless: *drainless,
                })
            }
            Change::Scale {
                service,
                replicas,
                drain_ns,
            } => {
                if *replicas == 0 {
                    return Err(SimError::BadSpec(format!(
                        "cannot scale {service} below 1 replica"
                    )));
                }
                if *replicas > group.len() {
                    return Err(SimError::BadSpec(format!(
                        "cannot scale {service} to {replicas} replicas: only {} exist at boot",
                        group.len()
                    )));
                }
                Ok(RChange::Scale {
                    group,
                    replicas: *replicas,
                    drain_ns: *drain_ns,
                })
            }
            Change::Canary {
                service,
                fraction,
                evaluate_ns,
                timeout_ns,
                retries,
            } => {
                if group.len() < 2 {
                    return Err(SimError::BadSpec(format!(
                        "canary for {service} needs >= 2 replicas (one canary, one baseline)"
                    )));
                }
                if !fraction.is_finite() || *fraction <= 0.0 || *fraction >= 1.0 {
                    return Err(SimError::BadSpec(format!(
                        "canary fraction {fraction} not in (0, 1)"
                    )));
                }
                if *evaluate_ns == 0 {
                    return Err(SimError::BadSpec(format!(
                        "canary for {service} evaluate_ns must be > 0"
                    )));
                }
                Ok(RChange::Canary {
                    group,
                    fraction: *fraction,
                    evaluate_ns: *evaluate_ns,
                    timeout_ns: *timeout_ns,
                    retries: *retries,
                })
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Application/variant name.
    pub fn name(&self) -> &str {
        &self.spec_name
    }

    /// Number of live frames (in-flight work across the cluster).
    pub fn inflight(&self) -> usize {
        self.live
    }

    /// Number of event-loop shards. Always 1: a run dispatches on one
    /// sequential loop. Kept for callers that report it alongside results.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Number of requests (frames) a service instance has served so far.
    pub fn service_served(&self, name: &str) -> Option<u64> {
        let idx = self.lookup(NameKind::Service, name).ok()?;
        Some(self.services[idx].served)
    }

    /// Current heap bytes of a process (GC experiments).
    pub fn process_heap(&self, proc_name: &str) -> Option<u64> {
        let idx = self.lookup(NameKind::Process, proc_name).ok()?;
        Some(self.procs[idx].heap)
    }

    /// Pushes an event keyed by the current context (`ctx`): the
    /// high key bits carry the context id, the low bits that context's
    /// private push counter.
    fn push_ev(&mut self, time: SimTime, ev: Ev) {
        let ctx = self.ctx;
        let counter = if ctx == CTRL_CTX {
            &mut self.ctrl_seq
        } else {
            &mut self.hosts[ctx as usize].ev_seq
        };
        debug_assert!(*counter < SEQ_MASK);
        let seq = (ctx << CTX_SHIFT) | *counter;
        *counter += 1;
        self.events.push(evq::Entry {
            time: time.max(self.now),
            seq,
            item: ev,
        });
    }

    // -- Public driver API ---------------------------------------------------

    /// Submits a request to an entry point. Returns its root sequence number
    /// (which is also the version any writes it performs will carry). An
    /// unknown entry or method is rejected before anything is counted.
    pub fn submit(&mut self, entry: &str, method: &str, entity: u64) -> Result<u64> {
        let h = self.entry_handle(entry, method)?;
        self.submit_handle(h, entity)
    }

    /// Resolves an entry point once so hot submission loops can use
    /// [`Sim::submit_handle`] without any name lookups.
    pub fn entry_handle(&self, entry: &str, method: &str) -> Result<EntryHandle> {
        let e = *self
            .entries
            .get(entry)
            .ok_or_else(|| SimError::Unknown(format!("entry {entry}")))?;
        let m = *self.entry_rts[e as usize]
            .methods
            .get(method)
            .ok_or_else(|| SimError::Unknown(format!("method {entry}.{method}")))?;
        Ok(EntryHandle {
            entry: e,
            method: m,
        })
    }

    /// Submits via a pre-resolved handle (see [`Sim::entry_handle`]).
    pub fn submit_handle(&mut self, h: EntryHandle, entity: u64) -> Result<u64> {
        let valid = self
            .entry_rts
            .get(h.entry as usize)
            .map(|er| (h.method as usize) < self.services[er.svc].methods.len())
            .unwrap_or(false);
        if !valid {
            return Err(SimError::Unknown(format!(
                "entry handle {}.{}",
                h.entry, h.method
            )));
        }
        let svc = self.entry_rts[h.entry as usize].svc;
        let root_seq = self.next_root;
        self.next_root += 1;
        self.metrics.counters.submitted += 1;

        if self.live >= self.cfg.max_frames {
            self.metrics.counters.admission_rejections += 1;
            self.finish_entry(h, self.now, entity, root_seq, 0, Some(CallErr::Shed));
            return Ok(root_seq);
        }

        let kind = FrameKind::Entry {
            handle: h,
            submitted_ns: self.now,
        };
        // Entry shims never enable tracing, so the frame gets no span.
        debug_assert!(!self.services[svc].traced);
        let prog = self.services[svc].methods[h.method as usize];
        let fid = self.alloc_frame(svc, entity, root_seq, kind, prog, None);
        self.push_ev(self.now, Ev::Resume { frame: fid });
        Ok(root_seq)
    }

    /// The one exit of an entry request, whether its frame ended or
    /// admission shed it: counts it by outcome and records its completion.
    /// `failure` is `None` for a success.
    fn finish_entry(
        &mut self,
        h: EntryHandle,
        submitted_ns: SimTime,
        entity: u64,
        root_seq: u64,
        observed_version: u64,
        failure: Option<CallErr>,
    ) {
        let ok = failure.is_none();
        if ok {
            self.metrics.counters.completed_ok += 1;
        } else {
            self.metrics.counters.completed_err += 1;
        }
        let er = &self.entry_rts[h.entry as usize];
        let method = self.services[er.svc].method_names[h.method as usize];
        self.completions.push(Completion {
            entry: self.sh.names.get(er.name).to_string(),
            method: self.sh.names.get(method).to_string(),
            entity,
            root_seq,
            submitted_ns,
            finished_ns: self.now,
            ok,
            observed_version,
            failure: failure.map(CallErr::label),
        });
    }

    /// Runs the event loop until virtual time `t` (inclusive): pops every
    /// event due by then in `(time, seq)` order and dispatches it under its
    /// home host's context (or `CTRL_CTX` for control events), counting it
    /// by kind in `metrics.counters.dispatched`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(e) = self.events.pop_until(t) {
            debug_assert!(e.time >= self.now, "virtual time went backwards");
            self.now = e.time;
            self.ctx =
                ev_home_host(&self.sh, &self.clients, &e.item).map_or(CTRL_CTX, |h| h as u64);
            self.metrics.counters.dispatched[ev_kind(&self.hosts, &e.item) as usize] += 1;
            self.dispatch(e.item);
        }
        // Driver calls between slices push under the control context.
        self.ctx = CTRL_CTX;
        self.now = self.now.max(t);
    }

    /// Takes the completions recorded since the last drain, in completion
    /// order.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Injects a fault at the current virtual time, for closed-loop
    /// experiments that decide mid-run what to break. A timed fault belongs
    /// in [`SimConfig::faults`] instead; both share the same resolver and
    /// the same execution.
    pub fn inject_fault(&mut self, fault: &Fault) -> Result<()> {
        let rf = self.resolve_fault(fault)?;
        self.apply_fault(rf);
        Ok(())
    }

    /// Pre-fills a cache with keys `0..n` at the given version.
    pub fn cache_fill(&mut self, backend: &str, n: u64, version: u64) -> Result<()> {
        let b = self.lookup(NameKind::Backend, backend)?;
        let capacity = match self.backends[b].kind {
            BackendRtKind::Cache { capacity_items, .. } => capacity_items,
            _ => return Err(SimError::Unknown(format!("{backend} is not a cache"))),
        };
        let BackendRt { cache, rng, .. } = &mut self.backends[b];
        for k in 0..n.min(capacity) {
            cache.put(k, version, capacity, rng);
        }
        Ok(())
    }

    /// Number of resident keys in a cache.
    pub fn cache_len(&self, backend: &str) -> Result<usize> {
        let b = self.lookup(NameKind::Backend, backend)?;
        Ok(self.backends[b].cache.len())
    }

    /// Pre-fills a store (every member) with keys `0..n`.
    pub fn store_fill(&mut self, backend: &str, n: u64, version: u64) -> Result<()> {
        let b = self.lookup(NameKind::Backend, backend)?;
        for m in &mut self.backends[b].store.members {
            for k in 0..n {
                m.map.insert(k, version);
            }
            m.applied += n;
            m.watermark = m.watermark.max(version);
        }
        Ok(())
    }

    /// The current primary's version for a key (0 if absent).
    pub fn store_primary_version(&self, backend: &str, key: u64) -> Result<u64> {
        let b = self.lookup(NameKind::Backend, backend)?;
        Ok(self.backends[b].store.primary_version(key))
    }

    /// The non-primary members' versions for a key, in member order (empty
    /// when unreplicated).
    pub fn store_replica_versions(&self, backend: &str, key: u64) -> Result<Vec<u64>> {
        let b = self.lookup(NameKind::Backend, backend)?;
        let store = &self.backends[b].store;
        Ok(store
            .peer_indices()
            .map(|i| store.members[i].map.get(&key).copied().unwrap_or(0))
            .collect())
    }

    /// Name of the process currently serving a store (moves on failover).
    pub fn store_serving_process(&self, backend: &str) -> Result<String> {
        let b = self.lookup(NameKind::Backend, backend)?;
        Ok(self.proc_names[self.sh.backend_proc[b] as usize].clone())
    }

    /// A store's election generation (0 until the first failover).
    pub fn store_generation(&self, backend: &str) -> Result<u64> {
        let b = self.lookup(NameKind::Backend, backend)?;
        Ok(self.backends[b].store.gen)
    }
}

/// The kinds of entity a plan, an injected fault or an accessor names.
#[derive(Debug, Clone, Copy)]
enum NameKind {
    Host,
    Process,
    Service,
    Backend,
}

impl NameKind {
    fn label(self) -> &'static str {
        match self {
            NameKind::Host => "host",
            NameKind::Process => "process",
            NameKind::Service => "service",
            NameKind::Backend => "backend",
        }
    }
}

/// Checks an autoscaler's bounds and parameters against its group's boot
/// size.
fn check_autoscaler(a: &AutoscalerSpec, boot: usize) -> Result<()> {
    let problem = if a.min_replicas == 0 {
        "min_replicas must be >= 1 (a service cannot scale below 1 replica)".to_string()
    } else if a.min_replicas > a.max_replicas {
        format!(
            "min_replicas {} > max_replicas {}",
            a.min_replicas, a.max_replicas
        )
    } else if a.max_replicas > boot {
        format!(
            "max_replicas {} exceeds the {boot} boot replicas",
            a.max_replicas
        )
    } else if !a.low_util.is_finite()
        || !a.high_util.is_finite()
        || a.low_util < 0.0
        || a.high_util > 1.0
        || a.low_util >= a.high_util
    {
        format!(
            "watermarks ({}, {}) must satisfy 0 <= low < high <= 1",
            a.low_util, a.high_util
        )
    } else if a.ewma_alpha.is_nan() || a.ewma_alpha <= 0.0 || a.ewma_alpha > 1.0 {
        format!("ewma_alpha {} not in (0, 1]", a.ewma_alpha)
    } else if a.interval_ns == 0 {
        "interval_ns must be > 0".to_string()
    } else {
        return Ok(());
    };
    Err(SimError::BadSpec(format!(
        "autoscaler for {} {problem}",
        a.service
    )))
}

/// Exponentially distributed gap with the given mean, at least 1 ns.
fn exp_gap(rng: &mut SmallRng, mean_ns: SimTime) -> SimTime {
    let u: f64 = rng.gen();
    ((-(1.0 - u).ln()) * mean_ns as f64).max(1.0) as SimTime
}

// The execution half (event dispatch + behavior interpreter) lives in
// `sim_exec.rs` to keep file sizes reviewable.
include!("sim_exec.rs");

#[cfg(test)]
#[path = "sim_tests.rs"]
mod tests;
