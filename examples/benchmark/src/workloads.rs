//! The four workloads, and one repetition ("rep") of a workload as it runs
//! inside a child process.
//!
//! A rep has three phases, each timed from outside by calls into public
//! functions of the `apps`, `compiler`, `simrt` and `workload` crates:
//!
//! 1. **set-up**, cold: build the workflow and wiring specs, compile without
//!    artifacts, boot the `Sim` (`setup_s`);
//! 2. **compile**, warm: the full compile with artifacts, lint and lowering
//!    (the paper's Tab. 5 generation time, `compile_s`);
//! 3. **run**: the workload's driver loop, `Recorder::series`, and the
//!    consistency oracle where one is used (`sim_req_per_s`,
//!    `req_host_us_p50`).
//!
//! Untraced reps call `workload::run_experiment_collecting` and
//! `Compiler::compile`. A traced rep runs the same work through a replica
//! of the driver loop and the compiler's phase functions, so that each call
//! gets a span; it must reproduce the untraced completion digest.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use blueprint::apps::{alibaba, hotel_reservation as hr, social_network as sn, WiringOpts};
use blueprint::compiler::{build, genart, passes, simlower, CompileOptions, CompiledApp, Compiler};
use blueprint::plugins::api::BuildCtx;
use blueprint::plugins::ArtifactTree;
use blueprint::simrt::time::{ms, secs, SimTime};
use blueprint::simrt::{
    Change, Completion, EntryHandle, Fault, FaultPlan, ReconfigPlan, Sim, SimConfig, SystemSpec,
};
use blueprint::wiring::WiringSpec;
use blueprint::workflow::WorkflowSpec;
use blueprint::workload::{
    classify, run_experiment_collecting, ApiMix, ExperimentSpec, OpenLoopGen, OracleSpec, Phase,
    Recorder,
};

use crate::host::{self, Probe};
use crate::json::Json;
use crate::stats::{percentile, summarize};
use crate::trace::{self_times, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotelOpen,
    HotelClosed,
    Alibaba,
    SocialFailover,
}

/// Every workload with its name and the reason it is in the benchmark.
pub const WORKLOADS: [(Workload, &str, &str); 4] = [
    (
        Workload::HotelOpen,
        "hotel-open-2k",
        "Pinned HotelReservation anchor at Poisson 2000 rps: steady-state dispatch at light load, \
         cache and store ops, and the driver's per-arrival run_until slicing",
    ),
    (
        Workload::HotelClosed,
        "hotel-closed-1",
        "One closed-loop client on the same system: isolates the fixed cost of each run_until \
         call and completion drain with a near-empty event queue",
    ),
    (
        Workload::Alibaba,
        "alibaba-2882",
        "Tab. 5 synthetic 2882-instance topology: the only workload where spec building, compile \
         and boot dominate, and 1316 entries stress the driver's entry lookup",
    ),
    (
        Workload::SocialFailover,
        "social-failover",
        "Replicated SocialNetwork under partition, primary crash, failover and rolling restart \
         with retries: writes, replication events, armed timers and control events",
    ),
];

/// The FNV-1a digest of `HotelReservation` at seed 5, 5 s at 2 krps, and its
/// completion count: the repository's pinned anchor run.
pub const ANCHOR_SEED: u64 = 5;
pub const ANCHOR_DIGEST: &str = "1bc85aa9969bffcf";
pub const ANCHOR_COMPLETIONS: u64 = 10_162;

/// Closed loop: requests before timing starts, requests timed, and the
/// simulated time each request is given to complete. The timed requests
/// are timed in short segments, so that a stall of the host moves few of
/// them, with a host probe after every tenth segment.
const CLOSED_WARMUP: usize = 5_000;
const CLOSED_TIMED: usize = 50_000;
const CLOSED_SEGMENT: usize = 500;
const CLOSED_PROBE_EVERY: usize = 5_000;
const CLOSED_SLICE_NS: SimTime = 100_000_000;

/// social-failover: replication lag bounds and failover delays (ms).
const SOCIAL_LAG_MS: (i64, i64) = (100, 400);
const SOCIAL_FAILOVER_MS: (u64, u64) = (50, 50);
const SOCIAL_ENTITIES: u64 = 2_000;

impl Workload {
    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(w, _, _)| *w == self)
            .map(|(_, n, _)| *n)
            .expect("every workload is listed")
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS
            .iter()
            .find(|(_, n, _)| *n == name)
            .map(|(w, _, _)| *w)
    }

    /// Whether the workload injects faults, so that failed completions are
    /// modelled outcomes rather than errors.
    pub fn injects_faults(self) -> bool {
        self == Workload::SocialFailover
    }

    /// Warm compiles with artifacts per rep; `compile_s` is their median.
    fn compiles(self) -> usize {
        match self {
            Workload::Alibaba => 1,
            _ => 9,
        }
    }

    /// Open-loop passes per rep, each on a freshly booted `Sim`.
    fn passes(self) -> usize {
        match self {
            Workload::HotelOpen => 4,
            _ => 1,
        }
    }

    fn specs(self) -> (WorkflowSpec, WiringSpec) {
        match self {
            Workload::HotelOpen | Workload::HotelClosed => {
                (hr::workflow(), hr::wiring(&WiringOpts::default()))
            }
            Workload::Alibaba => alibaba::topology(alibaba::PAPER_SCALE, 42),
            Workload::SocialFailover => {
                let opts = WiringOpts::default()
                    .without_tracing()
                    .with_timeout_retries(500, 2);
                let w = sn::wiring_direct_timeline(
                    &opts,
                    SOCIAL_LAG_MS.0,
                    SOCIAL_LAG_MS.1,
                    "read_replica",
                    None,
                );
                (sn::workflow_direct_timeline(), w)
            }
        }
    }

    fn sim_config(self, seed: u64, system: &SystemSpec) -> SimConfig {
        let mut cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        if self == Workload::SocialFailover {
            let primary = system
                .backends
                .iter()
                .find(|b| b.name == "ut_db")
                .map(|b| system.processes[b.process].name.clone())
                .unwrap_or_default();
            cfg.faults = FaultPlan::none()
                .at(
                    secs(5),
                    Fault::Partition {
                        a: primary.clone(),
                        b: "ut_db_replica_0".to_string(),
                        duration_ns: secs(2),
                    },
                )
                .at(
                    secs(12),
                    Fault::ProcessCrash {
                        process: primary,
                        restart_delay_ns: secs(3),
                    },
                );
            cfg.reconfig = ReconfigPlan::none().at(
                secs(20),
                Change::RollingRestart {
                    service: "user_timeline_a".to_string(),
                    drain_ns: ms(200),
                    restart_ns: ms(100),
                    drainless: false,
                },
            );
        }
        cfg
    }

    /// The open-loop arrival process of one pass.
    fn generator(self, seed: u64, system: &SystemSpec) -> OpenLoopGen {
        match self {
            Workload::HotelOpen => OpenLoopGen::new(
                vec![Phase::new(5, 2_000.0)],
                hr::paper_mix(),
                hr::ENTITIES,
                seed,
            ),
            // Only the request types and entities are used: ~60k requests.
            Workload::HotelClosed => OpenLoopGen::new(
                vec![Phase::new(30, 2_000.0)],
                hr::paper_mix(),
                hr::ENTITIES,
                seed,
            ),
            Workload::Alibaba => {
                let mix = system
                    .entries
                    .keys()
                    .fold(ApiMix::new(), |mix, entry| mix.add(entry, "Call", 1.0));
                OpenLoopGen::new(vec![Phase::new(20, 1_000.0)], mix, 1_000, seed)
            }
            Workload::SocialFailover => OpenLoopGen::new(
                vec![Phase::new(30, 1_500.0)],
                ApiMix::new().add("gateway", "ComposePost", 0.2).add(
                    "gateway",
                    "ReadUserTimeline",
                    0.8,
                ),
                SOCIAL_ENTITIES,
                seed,
            ),
        }
    }

    fn oracle(self) -> Option<OracleSpec> {
        (self == Workload::SocialFailover)
            .then(|| OracleSpec::new(["ComposePost"], ["ReadUserTimeline"]))
    }
}

/// What one rep measured and produced. Times are host seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// End-to-end metric values of this rep, by metric name, with timings
    /// in reference-host units (see `host.rs`).
    pub metrics: BTreeMap<String, f64>,
    /// The same metrics as measured, before normalisation.
    pub raw: BTreeMap<String, f64>,
    /// Host time from the start of set-up to the end of the run phase,
    /// probes excluded.
    pub wall_s: f64,
    /// Median host-probe reading of the rep, ms.
    pub probe_ms: f64,
    /// Simulated requests submitted.
    pub ops: u64,
    /// Completions that were not ok.
    pub errors: u64,
    /// Length of the digested completion stream (per pass).
    pub stream_len: u64,
    /// FNV-1a digest of the completion stream, as 16 hex digits.
    pub digest: String,
    /// Every other deterministic output: compile sizes, run counters, the
    /// recorder's series and the oracle's counts.
    pub fingerprint: String,
    /// Effective event-loop shard count.
    pub shards: u64,
    /// Correctness checks that failed.
    pub failed_checks: Vec<String>,
    /// Per-layer metrics (traced reps only).
    pub layers: BTreeMap<String, f64>,
}

impl Rep {
    pub fn to_json(&self) -> Json {
        let nums = |m: &BTreeMap<String, f64>| {
            Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
        };
        Json::obj()
            .with("metrics", nums(&self.metrics))
            .with("raw", nums(&self.raw))
            .with("wall_s", self.wall_s)
            .with("probe_ms", self.probe_ms)
            .with("ops", self.ops)
            .with("errors", self.errors)
            .with("stream_len", self.stream_len)
            .with("digest", self.digest.as_str())
            .with("fingerprint", self.fingerprint.as_str())
            .with("shards", self.shards)
            .with(
                "failed_checks",
                self.failed_checks
                    .iter()
                    .map(|c| Json::from(c.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("layers", nums(&self.layers))
    }

    pub fn from_json(v: &Json) -> Result<Rep, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("rep result lacks number `{k}`"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("rep result lacks string `{k}`"))
        };
        let nums = |k: &str| -> Result<BTreeMap<String, f64>, String> {
            v.get(k)
                .and_then(Json::as_object)
                .ok_or_else(|| format!("rep result lacks object `{k}`"))?
                .iter()
                .map(|(name, x)| {
                    x.as_f64()
                        .map(|x| (name.clone(), x))
                        .ok_or_else(|| format!("`{k}.{name}` is not a number"))
                })
                .collect()
        };
        Ok(Rep {
            metrics: nums("metrics")?,
            raw: nums("raw")?,
            wall_s: num("wall_s")?,
            probe_ms: num("probe_ms")?,
            ops: num("ops")? as u64,
            errors: num("errors")? as u64,
            stream_len: num("stream_len")? as u64,
            digest: text("digest")?,
            fingerprint: text("fingerprint")?,
            shards: num("shards")? as u64,
            failed_checks: v
                .get("failed_checks")
                .and_then(Json::as_array)
                .ok_or("rep result lacks `failed_checks`")?
                .iter()
                .filter_map(|c| c.as_str().map(str::to_string))
                .collect(),
            layers: nums("layers")?,
        })
    }
}

/// Runs `f` in a span when tracing.
fn sp<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    req: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Compiles with the compiler's default options (lint and lowering on).
/// Traced, it calls the phase functions in `Compiler::compile`'s order.
fn compile(
    wf: &WorkflowSpec,
    wiring: &WiringSpec,
    artifacts: bool,
    tr: &mut Option<&mut Tracer>,
) -> Result<CompiledApp, String> {
    let opts = CompileOptions {
        generate_artifacts: artifacts,
        ..CompileOptions::default()
    };
    let Some(t) = tr else {
        return Compiler::extended().compile(wf, wiring, &opts).map_err(err);
    };
    t.open("compiler.compile", None);
    let start = Instant::now();
    let compiler = Compiler::extended();
    let reg = compiler.registry();
    let out = (|| -> blueprint::compiler::Result<CompiledApp> {
        t.span(
            "compiler.validate",
            None,
            || -> blueprint::compiler::Result<()> {
                wf.validate()?;
                wiring.validate()?;
                Ok(())
            },
        )?;
        let ctx = BuildCtx {
            workflow: wf,
            wiring,
        };
        let mut ir = t.span("compiler.build_ir", None, || build::build_ir(reg, &ctx))?;
        t.span("compiler.passes", None, || {
            passes::run_transforms(reg, &mut ir, &ctx)?;
            passes::assign_namespaces(&mut ir)?;
            passes::widen_visibility(reg, &mut ir)?;
            passes::validate(&ir)
        })?;
        let diagnostics = t.span("compiler.lint", None, || {
            passes::lint(&ir, wiring, Some(wf), &opts.lint_config)
        });
        let artifacts = if artifacts {
            t.span("compiler.genart", None, || genart::generate(reg, &ir, &ctx))?
        } else {
            ArtifactTree::new()
        };
        let system = t.span("compiler.simlower", None, || {
            simlower::lower(reg, &ir, &ctx)
        })?;
        Ok(CompiledApp {
            ir,
            artifacts,
            system,
            diagnostics,
            gen_time: start.elapsed(),
        })
    })();
    t.close();
    out.map_err(err)
}

fn boot(
    w: Workload,
    seed: u64,
    system: &SystemSpec,
    tr: &mut Option<&mut Tracer>,
) -> Result<Sim, String> {
    let cfg = w.sim_config(seed, system);
    sp(tr, "simrt.boot", None, || Sim::new(system, cfg)).map_err(err)
}

/// Run counters summed over a rep's passes.
#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    client_calls: u64,
    retries: u64,
    timeouts: u64,
    gc_pauses: u64,
    failovers: u64,
    backend_ops: u64,
    cache_hits: u64,
    cache_gets: u64,
}

impl Counters {
    fn add(&mut self, sim: &Sim) {
        let c = &sim.metrics.counters;
        self.submitted += c.submitted;
        self.client_calls += c.client_calls;
        self.retries += c.retries;
        self.timeouts += c.timeouts;
        self.gc_pauses += c.gc_pauses;
        self.failovers += c.store_failovers;
        for b in sim.metrics.backends.values() {
            self.backend_ops += b.reads + b.writes;
            self.cache_hits += b.hits;
            self.cache_gets += b.hits + b.misses;
        }
    }
}

/// Event-queue depth observed after each `run_until` of a traced rep.
#[derive(Debug, Default)]
struct Depth {
    sum: u64,
    n: u64,
    max: u64,
}

impl Depth {
    fn observe(&mut self, sim: &Sim) {
        let d = sim.pending_events() as u64;
        self.sum += d;
        self.n += 1;
        self.max = self.max.max(d);
    }
}

/// What a rep's run phase produced.
#[derive(Default)]
struct Run {
    /// Host seconds of each pass (closed loop: of each timed segment).
    pass_s: Vec<f64>,
    /// Completions of each pass (closed loop: of each timed segment).
    pass_completions: Vec<u64>,
    /// Per-request host times (closed loop), or per-arrival driver-loop
    /// iteration times (traced open loop), ns.
    req_ns: Vec<u64>,
    digests: Vec<u64>,
    /// The closed loop's completions, digested after the measured region
    /// (open passes digest their own stream as each pass ends, so that only
    /// one is held at a time).
    closed_stream: Vec<Completion>,
    stream_len: u64,
    /// Completions recorded over all passes (closed loop: with warm-up).
    recorded: u64,
    errors: u64,
    outputs: String,
    counters: Counters,
    depth: Depth,
    failed_checks: Vec<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over each completion's `Debug` form, in completion order — the
/// digest the repository's `stream_checksum` example pins.
fn stream_digest(cs: &[Completion]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut buf = String::new();
    for c in cs {
        buf.clear();
        write!(buf, "{c:?}").expect("writing to a String");
        fnv(&mut h, buf.as_bytes());
    }
    h
}

fn text_digest(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, text.as_bytes());
    h
}

/// One open-loop pass: the driver, the recorder's series and the oracle.
fn open_pass(
    w: Workload,
    seed: u64,
    sim: &mut Sim,
    system: &SystemSpec,
    tr: &mut Option<&mut Tracer>,
    run: &mut Run,
) -> Result<(), String> {
    let gen = w.generator(seed, system);
    let oracle = w.oracle();
    // Input sizing: the generator is a pure function of its seed.
    let submitted = gen.clone().count() as u64;
    let start = Instant::now();
    let (rec, completions) = match tr {
        None => run_experiment_collecting(sim, ExperimentSpec::new(gen)).map_err(err)?,
        Some(t) => replica_driver(sim, ExperimentSpec::new(gen), t, run)?,
    };
    let series = sp(tr, "workload.series", None, || rec.series());
    let anomalies = oracle
        .as_ref()
        .map(|o| sp(tr, "workload.oracle", None, || classify(&completions, o)));
    run.pass_s.push(start.elapsed().as_secs_f64());

    run.pass_completions.push(completions.len() as u64);
    run.stream_len = completions.len() as u64;
    run.recorded += completions.len() as u64;
    run.errors += completions.iter().filter(|c| !c.ok).count() as u64;
    run.digests.push(stream_digest(&completions));
    let conservation = rec.conservation(submitted);
    if !conservation.holds() {
        run.failed_checks
            .push(format!("request conservation: {conservation}"));
    }
    write!(
        run.outputs,
        " series={:016x} oracle={:?}",
        text_digest(&format!("{:?}", black_box(series))),
        anomalies
    )
    .expect("writing to a String");
    run.counters.add(sim);
    Ok(())
}

/// The loop of `workload::run_experiment_collecting` (for a spec without
/// actions), with a span around every call it makes. It must produce the
/// same completions as the real driver.
fn replica_driver(
    sim: &mut Sim,
    spec: ExperimentSpec,
    t: &mut Tracer,
    run: &mut Run,
) -> Result<(Recorder, Vec<Completion>), String> {
    assert!(spec.actions.is_empty(), "the replica models no actions");
    let mut rec = Recorder::new(spec.interval_ns);
    let mut completions = Vec::new();
    let end = spec.generator.duration_ns();
    let mut gen = spec.generator;
    let mut handles: Vec<(String, String, EntryHandle)> = Vec::new();
    t.open("workload.driver", None);
    for i in 0u64.. {
        let Some(a) = t.span("workload.generator", Some(i), || gen.next()) else {
            break;
        };
        let iter_start = t.last().start_ns;
        t.span("simrt.run_until", Some(i), || sim.run_until(a.at_ns));
        run.depth.observe(sim);
        let handle = match handles
            .iter()
            .find(|(e, m, _)| *e == a.entry && *m == a.method)
        {
            Some((_, _, h)) => *h,
            None => {
                let h = t
                    .span("simrt.entry_handle", Some(i), || {
                        sim.entry_handle(&a.entry, &a.method)
                    })
                    .map_err(err)?;
                handles.push((a.entry.clone(), a.method.clone(), h));
                h
            }
        };
        t.span("simrt.submit", Some(i), || {
            sim.submit_handle(handle, a.entity)
        })
        .map_err(err)?;
        let drained = t.span("simrt.drain", Some(i), || sim.drain_completions());
        t.span("workload.recorder", Some(i), || {
            for c in drained {
                rec.record(&c);
                completions.push(c);
            }
        });
        run.req_ns.push(t.last().end_ns - iter_start);
    }
    t.span("simrt.run_until", None, || {
        sim.run_until(end + spec.drain_ns)
    });
    run.depth.observe(sim);
    let drained = t.span("simrt.drain", None, || sim.drain_completions());
    t.span("workload.recorder", None, || {
        for c in drained {
            rec.record(&c);
            completions.push(c);
        }
    });
    t.close();
    Ok((rec, completions))
}

/// One client in a closed loop: submit, run until 100 ms of simulated time
/// have passed, drain. Each request must complete inside its slice.
fn closed_loop(
    seed: u64,
    sim: &mut Sim,
    system: &SystemSpec,
    tr: &mut Option<&mut Tracer>,
    probe: &mut Probe,
    run: &mut Run,
) -> Result<(), String> {
    // The open-loop generator serves as a seeded source of request types
    // and entities; its arrival times are ignored.
    let mut gen = Workload::HotelClosed.generator(seed, system);
    let mut rec = Recorder::new(1_000_000_000);
    let mut completions = Vec::with_capacity(CLOSED_WARMUP + CLOSED_TIMED);
    let mut handles: Vec<(String, String, EntryHandle)> = Vec::new();
    let mut segment: Option<Instant> = None;
    let mut not_isolated = 0u64;
    if let Some(t) = tr {
        t.open("bench.closed_loop", None);
    }
    for i in 0..(CLOSED_WARMUP + CLOSED_TIMED) {
        if i >= CLOSED_WARMUP && (i - CLOSED_WARMUP).is_multiple_of(CLOSED_SEGMENT) {
            if let Some(start) = segment {
                run.pass_s.push(start.elapsed().as_secs_f64());
                run.pass_completions.push(CLOSED_SEGMENT as u64);
            }
            if (i - CLOSED_WARMUP).is_multiple_of(CLOSED_PROBE_EVERY) {
                probe.measure();
            }
            segment = Some(Instant::now());
        }
        let i = i as u64;
        let a = sp(tr, "workload.generator", Some(i), || gen.next())
            .ok_or("the closed-loop request source ran dry")?;
        let handle = match handles
            .iter()
            .find(|(e, m, _)| *e == a.entry && *m == a.method)
        {
            Some((_, _, h)) => *h,
            None => {
                let h = sim.entry_handle(&a.entry, &a.method).map_err(err)?;
                handles.push((a.entry.clone(), a.method.clone(), h));
                h
            }
        };
        let t0 = Instant::now();
        sp(tr, "simrt.submit", Some(i), || {
            sim.submit_handle(handle, a.entity)
        })
        .map_err(err)?;
        let until = sim.now() + CLOSED_SLICE_NS;
        sp(tr, "simrt.run_until", Some(i), || sim.run_until(until));
        let drained = sp(tr, "simrt.drain", Some(i), || sim.drain_completions());
        let dt = t0.elapsed().as_nanos() as u64;
        if tr.is_some() {
            run.depth.observe(sim);
        }
        if i >= CLOSED_WARMUP as u64 {
            run.req_ns.push(dt);
        }
        if drained.len() != 1 {
            not_isolated += 1;
        }
        sp(tr, "workload.recorder", Some(i), || {
            for c in drained {
                rec.record(&c);
                completions.push(c);
            }
        });
    }
    if let Some(start) = segment {
        run.pass_s.push(start.elapsed().as_secs_f64());
        run.pass_completions.push(CLOSED_SEGMENT as u64);
    }
    let series = sp(tr, "workload.series", None, || rec.series());
    if let Some(t) = tr {
        t.close();
    }
    if not_isolated > 0 {
        run.failed_checks.push(format!(
            "{not_isolated} closed-loop requests did not complete alone within their slice"
        ));
    }
    let submitted = (CLOSED_WARMUP + CLOSED_TIMED) as u64;
    let conservation = rec.conservation(submitted);
    if !conservation.holds() {
        run.failed_checks
            .push(format!("request conservation: {conservation}"));
    }
    run.stream_len = completions.len() as u64;
    run.recorded += completions.len() as u64;
    run.errors += completions.iter().filter(|c| !c.ok).count() as u64;
    run.closed_stream = completions;
    write!(
        run.outputs,
        " series={:016x}",
        text_digest(&format!("{:?}", black_box(series)))
    )
    .expect("writing to a String");
    run.counters.add(sim);
    Ok(())
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Factors applied to the timings of each phase of a rep.
struct Scales {
    setup: f64,
    compile: f64,
    run: f64,
}

/// The end-to-end metrics of a rep, each phase's timings multiplied by its
/// factor.
fn end_to_end(
    w: Workload,
    run: &Run,
    setup_s: f64,
    compile_s: f64,
    k: &Scales,
    peak_rss_mb: f64,
) -> BTreeMap<String, f64> {
    let scale = k.run;
    // Rates and per-request costs of each pass (closed loop: segment).
    let rates: Vec<f64> = run
        .pass_s
        .iter()
        .zip(&run.pass_completions)
        .map(|(s, n)| *n as f64 / (s * scale))
        .collect();
    let req_host_us_p50 = if w == Workload::HotelClosed {
        let mut ns = run.req_ns.clone();
        ns.sort_unstable();
        percentile(&ns, 0.5).unwrap_or(0) as f64 / 1e3 * scale
    } else {
        // Open loops cannot time single requests from outside: the median
        // over passes of host time per completed request.
        let per_req: Vec<f64> = rates.iter().map(|r| 1e6 / r).collect();
        summarize(&per_req).map_or(f64::NAN, |s| s.median)
    };
    [
        (
            "sim_req_per_s",
            summarize(&rates).map_or(f64::NAN, |s| s.median),
        ),
        ("req_host_us_p50", req_host_us_p50),
        ("setup_s", setup_s * k.setup),
        ("compile_s", compile_s * k.compile),
        ("peak_rss_mb", peak_rss_mb),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Runs one rep of `w`. With a tracer, every call into a layer is wrapped
/// in a span and the per-layer metrics are filled in.
pub fn run_rep(w: Workload, seed: u64, mut tr: Option<&mut Tracer>) -> Result<Rep, String> {
    let mut probe = Probe::new();
    let before_setup = probe.measure();
    let probed_before = probe.spent();
    let wall = Instant::now();
    if let Some(t) = &mut tr {
        t.open("bench.rep", None);
    }

    // Set-up, cold: nothing else of the program has run in this process.
    let (wf, wiring) = sp(&mut tr, "apps.spec", None, || w.specs());
    let app = compile(&wf, &wiring, false, &mut tr)?;
    let mut system = app.system;
    if w == Workload::SocialFailover {
        let (detect, elect) = SOCIAL_FAILOVER_MS;
        sp(&mut tr, "apps.arm_failover", None, || {
            sn::arm_ut_db_failover(&mut system, ms(detect), ms(elect))
        })
        .map_err(err)?;
    }
    let mut sim = boot(w, seed, &system, &mut tr)?;
    let setup_s = wall.elapsed().as_secs_f64();
    let shards = sim.shard_count() as u64;
    let before_compile = probe.measure();

    // The full compile, warm.
    let mut compile_s = Vec::new();
    let mut sizes = Vec::new();
    for _ in 0..w.compiles() {
        let start = Instant::now();
        let full = compile(&wf, &wiring, true, &mut tr)?;
        compile_s.push(start.elapsed().as_secs_f64());
        sizes = vec![
            ("compiler.ir_nodes", full.ir.node_count()),
            ("compiler.ir_edges", full.ir.edge_count()),
            ("compiler.artifact_files", full.artifacts.len()),
            ("compiler.artifact_loc", full.artifacts.total_loc()),
            ("lint.diagnostics", full.diagnostics.len()),
        ];
    }
    let before_run = probe.measure();

    // The run phase, probed after each pass.
    let mut run = Run::default();
    for pass in 0..w.passes() {
        if w == Workload::HotelClosed {
            closed_loop(seed, &mut sim, &system, &mut tr, &mut probe, &mut run)?;
        } else {
            if pass > 0 {
                sim = boot(w, seed, &system, &mut tr)?;
            }
            open_pass(w, seed, &mut sim, &system, &mut tr, &mut run)?;
        }
        probe.measure();
    }
    // Probe time inside the measured region is left out of it.
    let probed = probe.spent() - probed_before;
    let wall_s = (wall.elapsed() - probed).as_secs_f64();
    if let Some(t) = &mut tr {
        t.close();
    }
    if w == Workload::HotelClosed {
        run.digests.push(stream_digest(&run.closed_stream));
    }

    let mut checks = std::mem::take(&mut run.failed_checks);
    if run.digests.windows(2).any(|d| d[0] != d[1]) {
        checks.push(format!("pass digests differ: {:x?}", run.digests));
    }
    if run.errors > 0 && !w.injects_faults() {
        checks.push(format!(
            "{} requests failed on a fault-free workload",
            run.errors
        ));
    }
    if w.injects_faults() && (run.counters.failovers == 0 || run.counters.retries == 0) {
        checks.push("the injected faults caused no failover or no retry".to_string());
    }

    let compile_s = summarize(&compile_s).map_or(f64::NAN, |s| s.median);
    let rss = peak_rss_mb()?;
    // Each phase is scaled by the probe points around and inside it.
    let scales = Scales {
        setup: host::scale(probe.median(before_setup, before_compile)),
        compile: host::scale(probe.median(before_compile, before_run)),
        run: host::scale(probe.median(before_run, probe.last())),
    };
    let unscaled = Scales {
        setup: 1.0,
        compile: 1.0,
        run: 1.0,
    };
    let metrics = end_to_end(w, &run, setup_s, compile_s, &scales, rss);
    let raw = end_to_end(w, &run, setup_s, compile_s, &unscaled, rss);

    let c = &run.counters;
    let mut fingerprint: String = sizes.iter().map(|(k, v)| format!("{k}={v} ")).collect();
    write!(
        fingerprint,
        "submitted={} client_calls={} retries={} timeouts={} gc_pauses={} failovers={} \
         backend_ops={} cache_hits={}/{}{}",
        c.submitted,
        c.client_calls,
        c.retries,
        c.timeouts,
        c.gc_pauses,
        c.failovers,
        c.backend_ops,
        c.cache_hits,
        c.cache_gets,
        run.outputs
    )
    .expect("writing to a String");
    let layers = match tr {
        Some(t) => {
            let mut layers = layer_metrics(t, &run, probed.as_secs_f64());
            layers.extend(sizes.iter().map(|(k, v)| (k.to_string(), *v as f64)));
            layers
        }
        None => BTreeMap::new(),
    };
    Ok(Rep {
        metrics,
        raw,
        wall_s,
        probe_ms: probe.median(0, probe.last()),
        ops: c.submitted,
        errors: run.errors,
        stream_len: run.stream_len,
        digest: format!("{:016x}", run.digests.first().copied().unwrap_or(0)),
        fingerprint,
        shards,
        failed_checks: checks,
        layers,
    })
}

/// Per-layer metrics of a traced rep, from its spans and run counters.
/// `probe_s` is host time spent probing inside the rep's root span; it is
/// left out of the traced wall time.
fn layer_metrics(t: &Tracer, run: &Run, probe_s: f64) -> BTreeMap<String, f64> {
    let spans = t.spans();
    let selfs = self_times(spans);
    // name -> (calls, total ns, self ns)
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
        *by_layer.entry(s.layer()).or_default() += self_ns;
    }
    let calls = |n: &str| by_name.get(n).map_or(0, |e| e.0) as f64;
    let total_s = |n: &str| by_name.get(n).map_or(0, |e| e.1) as f64 / 1e9;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mean_s = |n: &str| per(total_s(n), calls(n));
    let ns_per_call = |n: &str| per(total_s(n) * 1e9, calls(n));
    let layer_s = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64 / 1e9;
    let wall_s = total_s("bench.rep") - probe_s;
    let covered: f64 = ["apps", "compiler", "simrt", "workload"]
        .iter()
        .map(|l| layer_s(l))
        .sum();
    let c = &run.counters;
    let mut req_ns = run.req_ns.clone();
    req_ns.sort_unstable();
    [
        ("apps.spec_s", total_s("apps.spec")),
        ("apps.self_s", layer_s("apps")),
        ("compiler.validate_s", mean_s("compiler.validate")),
        ("compiler.build_ir_s", mean_s("compiler.build_ir")),
        ("compiler.passes_s", mean_s("compiler.passes")),
        ("compiler.lint_s", mean_s("compiler.lint")),
        ("compiler.genart_s", mean_s("compiler.genart")),
        ("compiler.simlower_s", mean_s("compiler.simlower")),
        ("compiler.self_s", layer_s("compiler")),
        ("simrt.boot_s", mean_s("simrt.boot")),
        ("simrt.run_until.calls", calls("simrt.run_until")),
        (
            "simrt.run_until.ns_per_call",
            ns_per_call("simrt.run_until"),
        ),
        (
            "simrt.run_until.ns_per_rpc",
            per(total_s("simrt.run_until") * 1e9, c.client_calls as f64),
        ),
        ("simrt.submit.ns_per_call", ns_per_call("simrt.submit")),
        ("simrt.drain.ns_per_call", ns_per_call("simrt.drain")),
        (
            "simrt.queue_depth.mean",
            per(run.depth.sum as f64, run.depth.n as f64),
        ),
        ("simrt.queue_depth.max", run.depth.max as f64),
        ("simrt.self_s", layer_s("simrt")),
        (
            "simrt.rpc_per_req",
            per(c.client_calls as f64, c.submitted as f64),
        ),
        (
            "simrt.retry_ratio",
            per(c.retries as f64, c.client_calls as f64),
        ),
        ("simrt.timeouts", c.timeouts as f64),
        ("simrt.gc_pauses", c.gc_pauses as f64),
        ("simrt.backend_ops", c.backend_ops as f64),
        (
            "simrt.cache_hit_ratio",
            per(c.cache_hits as f64, c.cache_gets as f64),
        ),
        ("simrt.failovers", c.failovers as f64),
        (
            "workload.generator.ns_per_arrival",
            ns_per_call("workload.generator"),
        ),
        (
            "workload.recorder.ns_per_completion",
            per(total_s("workload.recorder") * 1e9, run.recorded as f64),
        ),
        ("workload.series_s", total_s("workload.series")),
        ("workload.oracle_s", total_s("workload.oracle")),
        (
            "workload.driver.self_s",
            by_name.get("workload.driver").map_or(0, |e| e.2) as f64 / 1e9,
        ),
        ("workload.self_s", layer_s("workload")),
        ("bench.self_s", layer_s("bench") - probe_s),
        (
            "req_host_us_p99",
            percentile(&req_ns, 0.99).unwrap_or(0) as f64 / 1e3,
        ),
        ("trace.wall_s", wall_s),
        ("trace.coverage_pct", per(100.0 * covered, wall_s)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HOST_CALIB, PER_LAYER, TRACE_OVERHEAD};

    #[test]
    fn a_traced_rep_fills_every_declared_layer_metric() {
        let mut produced: Vec<String> = layer_metrics(&Tracer::new(), &Run::default(), 0.0)
            .into_keys()
            .collect();
        produced.extend(
            [
                "compiler.ir_nodes",
                "compiler.ir_edges",
                "compiler.artifact_files",
                "compiler.artifact_loc",
                "lint.diagnostics",
            ]
            .map(String::from),
        );
        produced.extend([TRACE_OVERHEAD, HOST_CALIB].map(String::from));
        produced.sort();
        let mut declared: Vec<String> = PER_LAYER.iter().map(|m| m.name.to_string()).collect();
        declared.sort();
        assert_eq!(produced, declared);
    }

    #[test]
    fn rep_results_round_trip_through_json() {
        let rep = Rep {
            metrics: [("sim_req_per_s".to_string(), 41234.5)].into(),
            raw: [("sim_req_per_s".to_string(), 40000.25)].into(),
            wall_s: 1.5,
            probe_ms: 1.25,
            ops: 40_648,
            errors: 0,
            stream_len: ANCHOR_COMPLETIONS,
            digest: ANCHOR_DIGEST.to_string(),
            fingerprint: "ir=79/25 series=6293f084892ab152".to_string(),
            shards: 1,
            failed_checks: vec!["request conservation: \"lost\"".to_string()],
            layers: [("simrt.boot_s".to_string(), 0.000141)].into(),
        };
        let text = rep.to_json().to_string();
        assert_eq!(Rep::from_json(&Json::parse(&text).unwrap()), Ok(rep));
        assert!(Rep::from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn workload_names_round_trip() {
        for (w, name, why) in WORKLOADS {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::from_name(name), Some(w));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        assert_eq!(Workload::from_name("hotel"), None);
    }
}
