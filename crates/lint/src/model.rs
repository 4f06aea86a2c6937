//! Analytic capacity / latency model over the post-pass IR (BP013–BP015).
//!
//! The model mirrors the simulator's cost accounting without running it:
//! per-entry visit ratios come from walking the `Behavior` programs
//! (`Branch` probabilities, `Parallel` fan-out, `Repeat` counts,
//! `cache_get_or_fetch` miss paths), per-node demand from `Compute` steps
//! and backend op service times, and placement from the same
//! machine-ancestor rule the simulation lowering uses. Every quantity is
//! computed twice:
//!
//! * **optimistic** — base demand only: compute CPU and backend op CPU on
//!   the cache *hit* path, no serialization, no tracing, no GC, no
//!   retries. The optimistic saturating rate over-predicts capacity, so it
//!   upper-bounds the measured knee.
//! * **pessimistic** — full demand: request/reply serialization, client
//!   overheads (tracer spans, backend driver marshalling), tracer server
//!   spans, amortized GC CPU for heap allocations, the configured
//!   cache-miss rate, and the BP001 retry-amplification bound on wire
//!   attempts. The pessimistic saturating rate under-predicts capacity, so
//!   it lower-bounds the measured knee.
//!
//! The measured saturation knee therefore lands inside
//! `[pessimistic, optimistic]` — the bracket `capacity_validation`
//! cross-checks against `par_run` sweeps.
//!
//! Known model limits (documented in DESIGN.md): `Fail { prob }` steps are
//! treated as no-ops (demand after a probabilistic abort is not
//! discounted), queueing delay uses a processor-sharing `1/(1-ρ)`
//! inflation rather than a full M/M/c solve, and replica groups are
//! assumed to sit on same-sized machines.

use std::collections::BTreeMap;

use blueprint_ir::{EdgeKind, IrGraph, NodeId};
use blueprint_workflow::{Behavior, CacheOp, DbOp, ServiceImpl, Step};

use crate::context::{kind, kind_matches, LintContext};

/// Amortized GC CPU per allocated byte: `GcSpec::default` pauses
/// `pause_cpu_ns_per_mib = 30_000` whenever the heap grows `gogc_percent =
/// 100%`, i.e. each allocated byte is scanned with multiplier
/// `(1 + g) / g = 2` per MiB.
const GC_NS_PER_BYTE: f64 = 2.0 * 30_000.0 / (1024.0 * 1024.0);

/// Heap bytes a tracer allocates per recorded span (simulator constant).
const TRACE_ALLOC_BYTES: f64 = 256.0;

/// Fixed CPU per queue backend op (simulator constant).
const QUEUE_OP_CPU_NS: f64 = 2_000.0;

/// Which side of the capacity bracket a computation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Base demand: lower-bounds cost, over-predicts capacity.
    Optimistic,
    /// Full demand: upper-bounds cost, under-predicts capacity.
    Pessimistic,
}

/// One placement target (a `namespace.machine`, or the synthetic
/// single-machine fallback the lowering uses when none exist).
#[derive(Debug, Clone)]
pub struct Machine {
    /// The IR node, `None` for the synthetic fallback machine.
    pub node: Option<NodeId>,
    /// Display name.
    pub name: String,
    /// Core count (`cores` prop, default 8).
    pub cores: f64,
}

/// Per-request demand, attributed to the IR node whose process burns the
/// CPU (services pay for compute, serialization, client overheads, and GC;
/// backends pay for op CPU).
#[derive(Debug, Clone, Default)]
pub struct Demand {
    /// ns of CPU per request burned by each workflow service node.
    pub by_service: BTreeMap<NodeId, f64>,
    /// ns of CPU per request burned by each backend node.
    pub by_backend: BTreeMap<NodeId, f64>,
}

impl Demand {
    fn add_service(&mut self, node: NodeId, ns: f64) {
        *self.by_service.entry(node).or_insert(0.0) += ns;
    }

    fn add_backend(&mut self, node: NodeId, ns: f64) {
        *self.by_backend.entry(node).or_insert(0.0) += ns;
    }

    /// Scales every attribution (used to weight a traffic mix).
    fn scaled(mut self, w: f64) -> Demand {
        for v in self.by_service.values_mut() {
            *v *= w;
        }
        for v in self.by_backend.values_mut() {
            *v *= w;
        }
        self
    }

    /// Merges another demand into this one.
    fn merge(&mut self, other: &Demand) {
        for (&n, &v) in &other.by_service {
            self.add_service(n, v);
        }
        for (&n, &v) in &other.by_backend {
            self.add_backend(n, v);
        }
    }
}

/// Client-side cost of one call into a node, mirroring the lowering's
/// `assemble_client`: transport serialization/network only when a
/// process boundary separates the pair, tracer span + driver marshalling
/// overheads always.
#[derive(Debug, Clone, Copy, Default)]
struct CallCost {
    serialize_ns: f64,
    net_ns: f64,
    client_overhead_ns: f64,
}

/// One resolved call target, with the pure per-pair lookups the walks read
/// on every visit computed once when the model is built.
#[derive(Debug, Clone, Copy)]
struct Target {
    node: NodeId,
    /// `call_cost(caller, node)` for the service that binds this target.
    cost: CallCost,
    /// `LintContext::attempts_into(node)`.
    attempts: f64,
}

/// Resolved dependency target set.
#[derive(Debug, Clone)]
enum DepTargets {
    /// Service replicas a call fans over (singleton when unreplicated).
    Services(Vec<Target>),
    /// A runtime backend.
    Backend(Target),
}

/// One modelled service node: its behavior programs, its resolved
/// dependency bindings and its tracer span cost, looked up once.
struct Service<'a> {
    node: NodeId,
    imp: &'a ServiceImpl,
    /// dep name → targets.
    deps: BTreeMap<&'a str, DepTargets>,
    /// Tracer server-side CPU per traced method execution.
    trace_ns: f64,
}

/// The capacity model: placement, resolved dependency bindings, and
/// backend service times, extracted once so the rule passes can query
/// demand and sojourn repeatedly.
pub struct Model<'a> {
    ctx: &'a LintContext<'a>,
    /// Machines, node-id ascending (the lowering's host order).
    pub machines: Vec<Machine>,
    host_of: BTreeMap<NodeId, usize>,
    /// Every service node with a known implementation.
    services: BTreeMap<NodeId, Service<'a>>,
    /// service node → replica-group base name.
    group_of: BTreeMap<NodeId, String>,
}

impl<'a> Model<'a> {
    /// Extracts the model. `None` when the context has no workflow spec
    /// (the capacity rules stay silent without behavior programs).
    pub fn build(ctx: &'a LintContext<'a>) -> Option<Model<'a>> {
        let wf = ctx.workflow?;
        let ir = ctx.ir;

        let mut machine_nodes = ir.nodes_with_kind_prefix(kind::MACHINE);
        machine_nodes.sort_unstable();
        let mut machines: Vec<Machine> = machine_nodes
            .iter()
            .filter_map(|&m| {
                let n = ir.node(m).ok()?;
                Some(Machine {
                    node: Some(m),
                    name: n.name.clone(),
                    cores: n.props.float_or("cores", 8.0),
                })
            })
            .collect();
        if machines.is_empty() {
            machines.push(Machine {
                node: None,
                name: "machine_0".into(),
                cores: 8.0,
            });
        }
        let machine_ix: BTreeMap<NodeId, usize> = machine_nodes
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i))
            .collect();

        let mut host_of = BTreeMap::new();
        let mut services = BTreeMap::new();
        let mut names: BTreeMap<String, NodeId> = BTreeMap::new();

        let mut svc_nodes = ir.nodes_with_kind_prefix(kind::SERVICE);
        svc_nodes.sort_unstable();
        for &s in &svc_nodes {
            let Ok(n) = ir.node(s) else { continue };
            let Some(imp) = n.props.str("impl").and_then(|i| wf.service(i)) else {
                continue; // unknown impl: the lowering errors, nothing to model
            };
            names.insert(n.name.clone(), s);
            host_of.insert(s, host_ix(ir, s, &machine_ix));
            let mut bound = BTreeMap::new();
            for dep in &imp.deps {
                let Some(target_name) = n.props.str(&format!("dep.{}", dep.name)) else {
                    continue;
                };
                let Some(declared) = ir.by_name(target_name) else {
                    continue;
                };
                let actual = resolve_actual_target(ir, s, declared);
                let target = |node| Target {
                    node,
                    cost: call_cost(ir, Some(s), node),
                    attempts: ctx.attempts_into(node),
                };
                let targets = match ir.node(actual) {
                    Ok(t) if kind_matches(&t.kind, kind::LOAD_BALANCER) => {
                        let mut replicas = ir.callees(actual);
                        replicas.sort_unstable();
                        DepTargets::Services(replicas.into_iter().map(target).collect())
                    }
                    Ok(t) if t.kind.starts_with("workflow") => {
                        DepTargets::Services(vec![target(actual)])
                    }
                    Ok(t) if t.kind.starts_with("backend") => DepTargets::Backend(target(actual)),
                    _ => continue,
                };
                bound.insert(dep.name.as_str(), targets);
            }
            services.insert(
                s,
                Service {
                    node: s,
                    imp,
                    deps: bound,
                    trace_ns: trace_overhead_ns(ir, s),
                },
            );
        }
        for b in ir.nodes_with_kind_prefix("backend") {
            host_of.insert(b, host_ix(ir, b, &machine_ix));
        }

        // Replica groups: `<base>_r<N>` collapses onto `<base>` when the
        // base instance exists (the replication transform's clone naming).
        let mut group_of = BTreeMap::new();
        for (name, &s) in &names {
            let base = name
                .rfind("_r")
                .filter(|&i| name[i + 2..].chars().all(|c| c.is_ascii_digit()))
                .filter(|&i| i + 2 < name.len())
                .map(|i| &name[..i])
                .filter(|b| names.contains_key(*b))
                .unwrap_or(name.as_str());
            group_of.insert(s, base.to_string());
        }

        Some(Model {
            ctx,
            machines,
            host_of,
            services,
            group_of,
        })
    }

    /// The machine index a node's process runs on.
    pub fn host_of(&self, node: NodeId) -> usize {
        self.host_of.get(&node).copied().unwrap_or(0)
    }

    /// The replica-group base name of a service node.
    pub fn group_of(&self, node: NodeId) -> &str {
        self.group_of.get(&node).map(|s| s.as_str()).unwrap_or("")
    }

    /// Members of a replica group, node-id ascending.
    pub fn group_members(&self, base: &str) -> Vec<NodeId> {
        self.group_of
            .iter()
            .filter(|(_, g)| g.as_str() == base)
            .map(|(&n, _)| n)
            .collect()
    }

    /// The traffic mix as `(entry node, method, weight)` rows, weights
    /// normalized to sum to 1. Explicit `LintConfig::traffic` mix entries
    /// are matched by service name; an empty mix spreads uniformly over
    /// every entry service × method (the workload generator's default).
    pub fn mix(&self) -> Vec<(NodeId, String, f64)> {
        let entries = self.ctx.entry_services();
        let configured = self
            .ctx
            .config
            .traffic
            .as_ref()
            .map(|t| t.mix.as_slice())
            .unwrap_or(&[]);
        let mut rows: Vec<(NodeId, String, f64)> = Vec::new();
        if configured.is_empty() {
            for &e in &entries {
                let Some(svc) = self.services.get(&e) else {
                    continue;
                };
                for m in svc.imp.behaviors.keys() {
                    rows.push((e, m.clone(), 1.0));
                }
            }
        } else {
            for me in configured {
                let Some(&e) = entries
                    .iter()
                    .find(|&&e| self.ctx.node_name(e) == me.service)
                else {
                    continue;
                };
                if me.weight > 0.0 && me.weight.is_finite() {
                    rows.push((e, me.method.clone(), me.weight));
                }
            }
        }
        let total: f64 = rows.iter().map(|r| r.2).sum();
        if total > 0.0 {
            for r in &mut rows {
                r.2 /= total;
            }
        }
        rows
    }

    /// Expected per-request demand of one entry method.
    pub fn request_demand(&self, entry: NodeId, method: &str, mode: Mode) -> Demand {
        let mut acc = Demand::default();
        if mode == Mode::Pessimistic {
            // The workload generator calls the entry through a synthetic
            // `__workload_*` shim on its own (effectively unconstrained)
            // host, so request serialization and client overheads land
            // off-cluster; the entry pays exactly one reply serialization.
            let cost = call_cost(self.ctx.ir, None, entry);
            acc.add_service(entry, cost.serialize_ns);
        }
        let mut stack = Vec::new();
        self.walk_method(entry, method, 1.0, mode, &mut acc, &mut stack);
        acc
    }

    /// Mix-weighted per-request demand.
    pub fn mix_demand(&self, mix: &[(NodeId, String, f64)], mode: Mode) -> Demand {
        let mut acc = Demand::default();
        for (entry, method, w) in mix {
            acc.merge(&self.request_demand(*entry, method, mode).scaled(*w));
        }
        acc
    }

    /// Per-machine demand (ns of CPU per request).
    pub fn host_demand_ns(&self, demand: &Demand) -> Vec<f64> {
        let mut out = vec![0.0; self.machines.len()];
        for (&n, &v) in demand.by_service.iter().chain(&demand.by_backend) {
            out[self.host_of(n)] += v;
        }
        out
    }

    /// Per-machine utilization at `rps` requests/second.
    pub fn host_utilization(&self, demand: &Demand, rps: f64) -> Vec<f64> {
        self.host_demand_ns(demand)
            .iter()
            .zip(&self.machines)
            .map(|(d, m)| rps * d / (m.cores * 1e9))
            .collect()
    }

    /// The rate at which machine `h` saturates (utilization hits 1), if it
    /// carries any demand.
    pub fn host_knee_rps(&self, demand: &Demand, h: usize) -> Option<f64> {
        let d = self.host_demand_ns(demand)[h];
        (d > 0.0).then(|| self.machines[h].cores * 1e9 / d)
    }

    /// The system saturating rate: the first machine to hit utilization 1.
    pub fn knee_rps(&self, demand: &Demand) -> Option<f64> {
        (0..self.machines.len())
            .filter_map(|h| self.host_knee_rps(demand, h))
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Demand executed *by a replica group's own processes* per request
    /// (what adding replicas dilutes — backend CPU is excluded).
    pub fn group_demand_ns(&self, demand: &Demand, base: &str) -> f64 {
        self.group_members(base)
            .iter()
            .filter_map(|n| demand.by_service.get(n))
            .sum()
    }

    /// Expected latency of one execution of `method` on `node`, in ns.
    /// `inflation` multiplies CPU components per machine (processor-sharing
    /// queueing inflation; all-ones = unloaded). Fixed latencies (network,
    /// backend op latency) are never inflated.
    pub fn sojourn_ns(&self, node: NodeId, method: &str, mode: Mode, inflation: &[f64]) -> f64 {
        let mut stack = Vec::new();
        self.method_sojourn(node, method, mode, inflation, &mut stack)
    }

    /// Processor-sharing inflation factors at `rps` from optimistic host
    /// utilization, clamped below saturation.
    pub fn inflation_at(&self, demand: &Demand, rps: f64) -> Vec<f64> {
        self.host_utilization(demand, rps)
            .iter()
            .map(|u| 1.0 / (1.0 - u.min(0.99)))
            .collect()
    }

    // ---- internals -------------------------------------------------------

    /// The modelled service `node` and its behavior for `method`.
    fn behavior_of(&self, node: NodeId, method: &str) -> Option<(&Service<'a>, &'a Behavior)> {
        let svc = self.services.get(&node)?;
        let imp: &'a ServiceImpl = svc.imp;
        Some((svc, imp.behaviors.get(method)?))
    }

    /// Backend-side CPU of one op (ns), mirroring the simulator's
    /// `backend_cost`.
    fn backend_cpu_ns(&self, backend: NodeId, items: f64) -> f64 {
        let Ok(n) = self.ctx.ir.node(backend) else {
            return 0.0;
        };
        if kind_matches(&n.kind, kind::QUEUE) {
            QUEUE_OP_CPU_NS
        } else {
            (n.props.float_or("cpu_per_op_us", 0.0)
                + items * n.props.float_or("cpu_per_item_us", 0.0))
                * 1000.0
        }
    }

    /// Fixed backend latency of one op (ns). `write` selects the write
    /// latency on store backends.
    fn backend_latency_ns(&self, backend: NodeId, write: bool) -> f64 {
        let Ok(n) = self.ctx.ir.node(backend) else {
            return 0.0;
        };
        let us = if kind_matches(&n.kind, kind::CACHE) || kind_matches(&n.kind, kind::QUEUE) {
            n.props.float_or("op_latency_us", 0.0)
        } else if write {
            n.props.float_or("write_latency_us", 0.0)
        } else {
            n.props.float_or("read_latency_us", 0.0)
        };
        us * 1000.0
    }

    /// Accumulates the demand of executing `method` on `node` `ratio`
    /// times per request.
    fn walk_method<'s>(
        &self,
        node: NodeId,
        method: &'s str,
        ratio: f64,
        mode: Mode,
        acc: &mut Demand,
        stack: &mut Vec<(NodeId, &'s str)>,
    ) where
        'a: 's,
    {
        let key = (node, method);
        if stack.contains(&key) || ratio <= 0.0 {
            return; // recursion guard: drop cyclic call chains
        }
        let Some((svc, behavior)) = self.behavior_of(node, method) else {
            return;
        };
        if mode == Mode::Pessimistic {
            let trace = svc.trace_ns;
            if trace > 0.0 {
                acc.add_service(node, ratio * (trace + TRACE_ALLOC_BYTES * GC_NS_PER_BYTE));
            }
        }
        stack.push(key);
        self.walk_behavior(svc, behavior, ratio, mode, acc, stack);
        stack.pop();
    }

    fn walk_behavior<'s>(
        &self,
        svc: &Service<'a>,
        behavior: &'s Behavior,
        ratio: f64,
        mode: Mode,
        acc: &mut Demand,
        stack: &mut Vec<(NodeId, &'s str)>,
    ) where
        'a: 's,
    {
        let node = svc.node;
        let pess = mode == Mode::Pessimistic;
        for step in &behavior.steps {
            match step {
                Step::Compute {
                    cpu_ns,
                    alloc_bytes,
                } => {
                    let mut ns = *cpu_ns as f64;
                    if pess {
                        ns += *alloc_bytes as f64 * GC_NS_PER_BYTE;
                    }
                    acc.add_service(node, ratio * ns);
                }
                Step::Call { dep, method } => {
                    let Some(DepTargets::Services(targets)) = svc.deps.get(dep.as_str()) else {
                        continue;
                    };
                    let share = ratio / targets.len() as f64;
                    for t in targets {
                        let wire = if pess { share * t.attempts } else { share };
                        if pess {
                            let cost = t.cost;
                            acc.add_service(
                                node,
                                wire * (cost.serialize_ns + cost.client_overhead_ns),
                            );
                            acc.add_service(t.node, wire * cost.serialize_ns); // reply
                        }
                        self.walk_method(t.node, method, wire, mode, acc, stack);
                    }
                }
                Step::Cache { dep, op, .. } => {
                    let items = match op {
                        CacheOp::GetRange { items } | CacheOp::PushFront { items } => *items as f64,
                        _ => 0.0,
                    };
                    self.backend_demand(svc, dep, ratio, items, pess, acc);
                }
                Step::CacheGetOrFetch { cache, on_miss, .. } => {
                    self.backend_demand(svc, cache, ratio, 0.0, pess, acc);
                    if pess {
                        let miss = self.ctx.config.cache_miss_rate.clamp(0.0, 1.0);
                        self.walk_behavior(svc, on_miss, ratio * miss, mode, acc, stack);
                    }
                }
                Step::Db { dep, op, .. } => {
                    let items = match op {
                        DbOp::Scan { items } => *items as f64,
                        _ => 0.0,
                    };
                    self.backend_demand(svc, dep, ratio, items, pess, acc);
                }
                Step::QueuePush { dep } | Step::QueuePop { dep } => {
                    self.backend_demand(svc, dep, ratio, 0.0, pess, acc);
                }
                Step::Parallel(branches) => {
                    for b in branches {
                        self.walk_behavior(svc, b, ratio, mode, acc, stack);
                    }
                }
                Step::Branch {
                    prob,
                    then,
                    otherwise,
                } => {
                    let p = prob.clamp(0.0, 1.0);
                    self.walk_behavior(svc, then, ratio * p, mode, acc, stack);
                    self.walk_behavior(svc, otherwise, ratio * (1.0 - p), mode, acc, stack);
                }
                Step::Repeat { times, body } => {
                    self.walk_behavior(svc, body, ratio * *times as f64, mode, acc, stack);
                }
                Step::Fail { .. } => {} // model limit: aborts are not discounted
            }
        }
    }

    fn backend_demand(
        &self,
        svc: &Service<'a>,
        dep: &str,
        ratio: f64,
        items: f64,
        pess: bool,
        acc: &mut Demand,
    ) {
        let Some(DepTargets::Backend(b)) = svc.deps.get(dep) else {
            return;
        };
        acc.add_backend(b.node, ratio * self.backend_cpu_ns(b.node, items));
        if pess {
            let cost = b.cost;
            acc.add_service(
                svc.node,
                ratio * (cost.serialize_ns + cost.client_overhead_ns),
            );
        }
    }

    /// Expected latency of one execution of `method` on `node` (ns).
    fn method_sojourn<'s>(
        &self,
        node: NodeId,
        method: &'s str,
        mode: Mode,
        inflation: &[f64],
        stack: &mut Vec<(NodeId, &'s str)>,
    ) -> f64
    where
        'a: 's,
    {
        let key = (node, method);
        if stack.contains(&key) {
            return 0.0;
        }
        let Some((svc, behavior)) = self.behavior_of(node, method) else {
            return 0.0;
        };
        let infl = |h: usize| inflation.get(h).copied().unwrap_or(1.0);
        let mut total = 0.0;
        if mode == Mode::Pessimistic {
            total += svc.trace_ns * infl(self.host_of(node));
        }
        stack.push(key);
        total += self.behavior_sojourn(svc, behavior, mode, inflation, stack);
        stack.pop();
        total
    }

    fn behavior_sojourn<'s>(
        &self,
        svc: &Service<'a>,
        behavior: &'s Behavior,
        mode: Mode,
        inflation: &[f64],
        stack: &mut Vec<(NodeId, &'s str)>,
    ) -> f64
    where
        'a: 's,
    {
        let node = svc.node;
        let pess = mode == Mode::Pessimistic;
        let infl = |h: usize| inflation.get(h).copied().unwrap_or(1.0);
        let here = infl(self.host_of(node));
        let mut total = 0.0;
        for step in &behavior.steps {
            total += match step {
                Step::Compute { cpu_ns, .. } => *cpu_ns as f64 * here,
                Step::Call { dep, method } => {
                    let Some(DepTargets::Services(targets)) = svc.deps.get(dep.as_str()) else {
                        continue;
                    };
                    // Expected RTT over the replica set.
                    let mut sum = 0.0;
                    for t in targets {
                        let cost = t.cost;
                        let mut rtt = 2.0 * cost.net_ns
                            + cost.serialize_ns * here
                            + cost.serialize_ns * infl(self.host_of(t.node));
                        if pess {
                            rtt += cost.client_overhead_ns * here;
                        }
                        sum += rtt + self.method_sojourn(t.node, method, mode, inflation, stack);
                    }
                    sum / targets.len() as f64
                }
                Step::Cache { dep, op, .. } => {
                    let items = match op {
                        CacheOp::GetRange { items } | CacheOp::PushFront { items } => *items as f64,
                        _ => 0.0,
                    };
                    let write = matches!(
                        op,
                        CacheOp::Put | CacheOp::Delete | CacheOp::PushFront { .. }
                    );
                    self.backend_sojourn(svc, dep, items, write, pess, inflation)
                }
                Step::CacheGetOrFetch { cache, on_miss, .. } => {
                    let mut ns = self.backend_sojourn(svc, cache, 0.0, false, pess, inflation);
                    if pess {
                        let miss = self.ctx.config.cache_miss_rate.clamp(0.0, 1.0);
                        ns += miss * self.behavior_sojourn(svc, on_miss, mode, inflation, stack);
                    }
                    ns
                }
                Step::Db { dep, op, .. } => {
                    let items = match op {
                        DbOp::Scan { items } => *items as f64,
                        _ => 0.0,
                    };
                    self.backend_sojourn(
                        svc,
                        dep,
                        items,
                        matches!(op, DbOp::Write),
                        pess,
                        inflation,
                    )
                }
                Step::QueuePush { dep } | Step::QueuePop { dep } => {
                    self.backend_sojourn(svc, dep, 0.0, false, pess, inflation)
                }
                Step::Parallel(branches) => branches
                    .iter()
                    .map(|b| self.behavior_sojourn(svc, b, mode, inflation, stack))
                    .fold(0.0, f64::max),
                Step::Branch {
                    prob,
                    then,
                    otherwise,
                } => {
                    let p = prob.clamp(0.0, 1.0);
                    p * self.behavior_sojourn(svc, then, mode, inflation, stack)
                        + (1.0 - p) * self.behavior_sojourn(svc, otherwise, mode, inflation, stack)
                }
                Step::Repeat { times, body } => {
                    *times as f64 * self.behavior_sojourn(svc, body, mode, inflation, stack)
                }
                Step::Fail { .. } => 0.0,
            };
        }
        total
    }

    fn backend_sojourn(
        &self,
        svc: &Service<'a>,
        dep: &str,
        items: f64,
        write: bool,
        pess: bool,
        inflation: &[f64],
    ) -> f64 {
        let Some(DepTargets::Backend(b)) = svc.deps.get(dep) else {
            return 0.0;
        };
        let infl = |h: usize| inflation.get(h).copied().unwrap_or(1.0);
        let mut ns = self.backend_latency_ns(b.node, write)
            + self.backend_cpu_ns(b.node, items) * infl(self.host_of(b.node));
        if pess {
            ns += b.cost.client_overhead_ns * infl(self.host_of(svc.node));
        }
        ns
    }
}

/// Tracer server-side CPU per traced method execution on `node`.
fn trace_overhead_ns(ir: &IrGraph, node: NodeId) -> f64 {
    let Ok(n) = ir.node(node) else {
        return 0.0;
    };
    let mut total = 0.0;
    for &m in n.modifiers() {
        let Ok(mn) = ir.node(m) else {
            continue;
        };
        if kind_matches(&mn.kind, kind::TRACER) {
            let default = if mn.kind.starts_with("mod.tracer.xtrace") {
                25.0
            } else {
                15.0
            };
            total += mn.props.float_or("overhead_us", default) * 1000.0;
        }
    }
    total
}

/// Client-side cost of a call into `callee`, mirroring
/// `assemble_client`: transport costs apply only across a process
/// boundary (`caller = None` is the external workload, never
/// co-located); tracer span client overheads apply always.
fn call_cost(ir: &IrGraph, caller: Option<NodeId>, callee: NodeId) -> CallCost {
    let Ok(n) = ir.node(callee) else {
        return CallCost::default();
    };
    let mut cost = CallCost::default();
    let same_process = caller
        .map(|c| ir.boundary_between(c, callee).is_none())
        .unwrap_or(false);
    if !same_process {
        for &m in n.modifiers() {
            let Ok(mn) = ir.node(m) else { continue };
            let defaults = if kind_matches(&mn.kind, kind::HTTP) {
                Some((25.0, 60.0))
            } else if mn.kind.starts_with("mod.rpc.thrift") {
                Some((15.0, 50.0))
            } else if kind_matches(&mn.kind, kind::RPC) {
                Some((12.0, 50.0))
            } else {
                None
            };
            if let Some((ser_us, net_us)) = defaults {
                cost.serialize_ns = mn.props.float_or("serialize_us", ser_us) * 1000.0;
                cost.net_ns = mn.props.float_or("net_us", net_us) * 1000.0;
                break;
            }
        }
    }
    for &m in n.modifiers() {
        let Ok(mn) = ir.node(m) else { continue };
        if kind_matches(&mn.kind, kind::TRACER) {
            let (default, per_ns) = if mn.kind.starts_with("mod.tracer.xtrace") {
                (25.0, 600.0)
            } else {
                (15.0, 500.0)
            };
            cost.client_overhead_ns += mn.props.float_or("overhead_us", default) * per_ns;
        }
    }
    // Backend drivers contribute protocol marshalling on the caller.
    // Defaults mirror each plugin's `apply_client`.
    if n.kind.starts_with("backend") {
        let default_us = if n.kind.starts_with("backend.cache") {
            12.0
        } else if n.kind.starts_with("backend.nosql") {
            20.0
        } else if n.kind.starts_with("backend.reldb") {
            25.0
        } else if n.kind.starts_with("backend.queue") {
            15.0
        } else {
            0.0
        };
        cost.client_overhead_ns += n.props.float_or("client_op_us", default_us) * 1000.0;
    }
    cost
}

/// The lowering's dependency re-routing rule: a declared target reached
/// through a load balancer resolves to the balancer.
fn resolve_actual_target(ir: &IrGraph, caller: NodeId, declared: NodeId) -> NodeId {
    for e in ir.out_edges(caller) {
        let Ok(edge) = ir.edge(e) else { continue };
        if edge.kind != EdgeKind::Invocation {
            continue;
        }
        if edge.to == declared {
            return declared;
        }
        if let Ok(t) = ir.node(edge.to) {
            if kind_matches(&t.kind, kind::LOAD_BALANCER) && ir.callees(edge.to).contains(&declared)
            {
                return edge.to;
            }
        }
    }
    declared
}

/// The lowering's placement rule: nearest `namespace.machine` ancestor,
/// host 0 otherwise.
fn host_ix(ir: &IrGraph, node: NodeId, machine_ix: &BTreeMap<NodeId, usize>) -> usize {
    ir.ancestors(node)
        .into_iter()
        .find_map(|a| machine_ix.get(&a).copied())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintConfig;
    use blueprint_ir::types::{MethodSig, TypeRef};
    use blueprint_ir::{Granularity, Node, NodeRole};
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::{KeyExpr, ServiceBuilder, ServiceInterface, WorkflowSpec};

    /// frontend → worker → db; one machine holds the frontend, a second
    /// holds the worker + db.
    fn fixture() -> (IrGraph, WiringSpec, WorkflowSpec) {
        let mut wf = WorkflowSpec::new("t");
        wf.add_service(
            ServiceBuilder::new(
                "Worker",
                ServiceInterface::new(
                    "WorkerIf",
                    vec![MethodSig::new("Do", vec![], TypeRef::Unit)],
                ),
            )
            .dep_nosql("db")
            .method(
                "Do",
                Behavior::build()
                    .compute(100_000, 0)
                    .db_read("db", KeyExpr::Entity)
                    .done(),
            )
            .done()
            .unwrap(),
        )
        .unwrap();
        wf.add_service(
            ServiceBuilder::new(
                "Frontend",
                ServiceInterface::new(
                    "FrontendIf",
                    vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
                ),
            )
            .dep_service("w", "WorkerIf")
            .method(
                "Handle",
                Behavior::build()
                    .compute(50_000, 0)
                    .branch(
                        0.5,
                        Behavior::build().call("w", "Do").done(),
                        Behavior::empty(),
                    )
                    .done(),
            )
            .done()
            .unwrap(),
        )
        .unwrap();

        let mut ir = IrGraph::new("t");
        let m0 = ir
            .add_namespace("machine_0", "namespace.machine", Granularity::Machine)
            .unwrap();
        let m1 = ir
            .add_namespace("machine_1", "namespace.machine", Granularity::Machine)
            .unwrap();
        ir.node_mut(m0).unwrap().props.set("cores", 2.0);
        ir.node_mut(m1).unwrap().props.set("cores", 2.0);
        let fe = ir
            .add_component("frontend", "workflow.service", Granularity::Instance)
            .unwrap();
        let wk = ir
            .add_component("worker", "workflow.service", Granularity::Instance)
            .unwrap();
        let db = ir
            .add_component("db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        ir.node_mut(db)
            .unwrap()
            .props
            .set("cpu_per_op_us", 10.0)
            .set("read_latency_us", 500.0)
            .set("client_op_us", 5.0);
        ir.node_mut(fe)
            .unwrap()
            .props
            .set("impl", "Frontend")
            .set("dep.w", "worker");
        ir.node_mut(wk)
            .unwrap()
            .props
            .set("impl", "Worker")
            .set("dep.db", "db");
        ir.add_invocation(fe, wk, vec![]).unwrap();
        ir.add_invocation(wk, db, vec![]).unwrap();
        let pf = ir
            .add_namespace("proc_fe", "namespace.process", Granularity::Process)
            .unwrap();
        let pw = ir
            .add_namespace("proc_wk", "namespace.process", Granularity::Process)
            .unwrap();
        ir.set_parent(fe, pf).unwrap();
        ir.set_parent(wk, pw).unwrap();
        ir.set_parent(pf, m0).unwrap();
        ir.set_parent(pw, m1).unwrap();
        ir.set_parent(db, m1).unwrap();
        (ir, WiringSpec::new("t"), wf)
    }

    #[test]
    fn optimistic_demand_counts_compute_and_backend_cpu_with_visit_ratios() {
        let (ir, w, wf) = fixture();
        let cfg = LintConfig::default();
        let ctx = LintContext::with_workflow(&ir, &w, &cfg, Some(&wf));
        let model = Model::build(&ctx).unwrap();
        let fe = ir.by_name("frontend").unwrap();
        let d = model.request_demand(fe, "Handle", Mode::Optimistic);
        let wk = ir.by_name("worker").unwrap();
        let db = ir.by_name("db").unwrap();
        // frontend: 50µs compute; worker: 0.5 visit ratio × 100µs; db:
        // 0.5 × 10µs op CPU.
        assert_eq!(d.by_service.get(&fe), Some(&50_000.0));
        assert_eq!(d.by_service.get(&wk), Some(&50_000.0));
        assert_eq!(d.by_backend.get(&db), Some(&5_000.0));
        // machine_0 carries the frontend, machine_1 worker + db.
        let hosts = model.host_demand_ns(&d);
        assert_eq!(hosts, vec![50_000.0, 55_000.0]);
        // Knee: machine_1 is the bottleneck — 2 cores / 55µs ≈ 36k rps.
        let knee = model.knee_rps(&d).unwrap();
        assert!((knee - 2.0 * 1e9 / 55_000.0).abs() < 1e-6);
    }

    #[test]
    fn pessimistic_demand_strictly_exceeds_optimistic() {
        let (ir, w, wf) = fixture();
        let cfg = LintConfig::default();
        let ctx = LintContext::with_workflow(&ir, &w, &cfg, Some(&wf));
        let model = Model::build(&ctx).unwrap();
        let fe = ir.by_name("frontend").unwrap();
        let base = model.request_demand(fe, "Handle", Mode::Optimistic);
        let full = model.request_demand(fe, "Handle", Mode::Pessimistic);
        let knee_hi = model.knee_rps(&base).unwrap();
        let knee_lo = model.knee_rps(&full).unwrap();
        assert!(knee_lo < knee_hi, "{knee_lo} !< {knee_hi}");
        // The pessimistic walk charges the mongo driver's 5µs client op on
        // the worker: 0.5 × (100µs compute + 5µs driver) = 52.5µs.
        let wk = ir.by_name("worker").unwrap();
        assert_eq!(full.by_service.get(&wk), Some(&52_500.0));
        assert!(full.by_service.get(&wk) > base.by_service.get(&wk));
    }

    #[test]
    fn sojourn_includes_backend_latency_and_branch_expectation() {
        let (ir, w, wf) = fixture();
        let cfg = LintConfig::default();
        let ctx = LintContext::with_workflow(&ir, &w, &cfg, Some(&wf));
        let model = Model::build(&ctx).unwrap();
        let fe = ir.by_name("frontend").unwrap();
        let ones = vec![1.0; model.machines.len()];
        let s = model.sojourn_ns(fe, "Handle", Mode::Optimistic, &ones);
        // 50µs compute + 0.5 × (call RTT + worker compute 100µs + db
        // 500µs latency + 10µs cpu). No transport modifiers, so the call
        // has zero serialize/net here.
        assert!(
            (s - (50_000.0 + 0.5 * (100_000.0 + 510_000.0))).abs() < 1e-6,
            "{s}"
        );
        // Inflating the worker's machine doubles CPU terms only.
        let infl = vec![1.0, 2.0];
        let s2 = model.sojourn_ns(fe, "Handle", Mode::Optimistic, &infl);
        assert!(
            (s2 - (50_000.0 + 0.5 * (200_000.0 + 500_000.0 + 20_000.0))).abs() < 1e-6,
            "{s2}"
        );
    }

    #[test]
    fn replica_groups_collapse_suffixed_names() {
        let (mut ir, w, wf) = fixture();
        let wk = ir.by_name("worker").unwrap();
        let r1 = ir
            .add_node(Node::new(
                "worker_r1",
                "workflow.service",
                NodeRole::Component,
                Granularity::Instance,
            ))
            .unwrap();
        ir.node_mut(r1)
            .unwrap()
            .props
            .set("impl", "Worker")
            .set("dep.db", "db");
        let cfg = LintConfig::default();
        let ctx = LintContext::with_workflow(&ir, &w, &cfg, Some(&wf));
        let model = Model::build(&ctx).unwrap();
        assert_eq!(model.group_of(wk), "worker");
        assert_eq!(model.group_of(r1), "worker");
        assert_eq!(model.group_members("worker"), vec![wk, r1]);
    }
}
