//! Property tests of the simulation runtime: determinism, conservation, and
//! latency sanity over randomized scenarios.

use blueprint_simrt::time::{ms, secs, us};
use blueprint_simrt::{
    BackendRtKind, BackendSpec, ClientSpec, DeadlineSpec, DepBinding, EntrySpec, HostSpec,
    ProcessSpec, ServiceSpec, Sim, SimConfig, SystemSpec, TransportSpec,
};
use blueprint_workflow::{Behavior, KeyExpr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random cases per property; case `i` draws from
/// `SmallRng::seed_from_u64(seed ^ i)`.
const CASES: u64 = 24;

/// A randomized 2-tier system: front → back (+ cache + db), with optional
/// policies.
#[derive(Debug, Clone)]
struct Scenario {
    cores: f64,
    back_cpu_us: u64,
    timeout_ms: Option<u64>,
    retries: u32,
    thrift_pool: Option<u32>,
    n_requests: u64,
    gap_us: u64,
    seed: u64,
    /// Optional deadline propagation on the front→back hop:
    /// `(budget_ms, hop_margin_ms)`.
    deadline: Option<(u64, u64)>,
}

/// Case `case` of the scenarios drawn under `seed`.
fn scenario(seed: u64, case: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed ^ case);
    Scenario {
        cores: rng.gen_range(1u32..=8) as f64,
        back_cpu_us: rng.gen_range(50..2_000),
        timeout_ms: rng.gen::<bool>().then(|| rng.gen_range(1..50)),
        retries: rng.gen_range(0..4),
        thrift_pool: rng.gen::<bool>().then(|| rng.gen_range(1..8)),
        n_requests: rng.gen_range(1..150),
        gap_us: rng.gen_range(100..5_000),
        seed: rng.gen(),
        deadline: rng
            .gen::<bool>()
            .then(|| (rng.gen_range(2..100), rng.gen_range(0..5))),
    }
}

fn build(s: &Scenario) -> SystemSpec {
    let mut spec = SystemSpec {
        name: "prop".into(),
        hosts: vec![
            HostSpec {
                name: "h0".into(),
                cores: s.cores,
            },
            HostSpec {
                name: "h1".into(),
                cores: s.cores,
            },
        ],
        processes: vec![
            ProcessSpec {
                name: "p_front".into(),
                host: 0,
                gc: None,
            },
            ProcessSpec {
                name: "p_back".into(),
                host: 1,
                gc: None,
            },
            ProcessSpec {
                name: "p_be".into(),
                host: 1,
                gc: None,
            },
        ],
        ..Default::default()
    };
    spec.backends.push(BackendSpec {
        name: "cache".into(),
        process: 2,
        kind: BackendRtKind::Cache {
            capacity_items: 10_000,
            op_latency_ns: us(100),
            cpu_per_op_ns: us(2),
            cpu_per_item_ns: us(1),
        },
    });
    spec.backends.push(BackendSpec {
        name: "db".into(),
        process: 2,
        kind: BackendRtKind::Store {
            read_latency_ns: us(500),
            write_latency_ns: us(800),
            cpu_per_op_ns: us(5),
            cpu_per_item_ns: us(1),
            replicas: 0,
            replication_lag_ns: (0, 0),
            consistency: Default::default(),
            failover: None,
        },
    });
    let mut back = ServiceSpec::new("back", 1);
    back.methods.insert(
        "Work".into(),
        Behavior::build()
            .compute(s.back_cpu_us * 1_000, 4 << 10)
            .cache_get_or_fetch(
                "c",
                KeyExpr::Entity,
                Behavior::build()
                    .db_read("d", KeyExpr::Entity)
                    .cache_put("c", KeyExpr::Entity)
                    .done(),
            )
            .done(),
    );
    back.deps.insert(
        "c".into(),
        DepBinding::Backend {
            target: 0,
            client: ClientSpec::local(),
        },
    );
    back.deps.insert(
        "d".into(),
        DepBinding::Backend {
            target: 1,
            client: ClientSpec::local(),
        },
    );
    let transport = match s.thrift_pool {
        Some(pool) => TransportSpec::Thrift {
            pool,
            serialize_ns: 15_000,
            net_ns: 50_000,
            reconnect_ns: 200_000,
        },
        None => TransportSpec::Grpc {
            serialize_ns: 12_000,
            net_ns: 50_000,
        },
    };
    let client = ClientSpec {
        transport,
        timeout_ns: s.timeout_ms.map(ms),
        retries: s.retries,
        backoff_ns: ms(1),
        backoff_exp: None,
        breaker: None,
        client_overhead_ns: 0,
        deadline: s.deadline.map(|(budget, margin)| DeadlineSpec {
            budget_ns: Some(ms(budget)),
            hop_margin_ns: ms(margin),
        }),
        retry_budget: None,
    };
    let mut front = ServiceSpec::new("front", 0);
    front.methods.insert(
        "Go".into(),
        Behavior::build()
            .compute(us(20), 1 << 10)
            .call("b", "Work")
            .done(),
    );
    front
        .deps
        .insert("b".into(), DepBinding::Service { target: 0, client });
    spec.services.push(back);
    spec.services.push(front);
    spec.entries.insert(
        "front".into(),
        EntrySpec {
            service: 1,
            client: ClientSpec::local(),
        },
    );
    spec
}

fn run(
    s: &Scenario,
) -> (
    Vec<blueprint_simrt::Completion>,
    blueprint_simrt::metrics::Metrics,
) {
    let spec = build(s);
    let mut sim = Sim::new(
        &spec,
        SimConfig {
            seed: s.seed,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..s.n_requests {
        sim.submit("front", "Go", i % 64).unwrap();
        let t = sim.now() + us(s.gap_us);
        sim.run_until(t);
    }
    sim.run_until(sim.now() + secs(120));
    (sim.drain_completions(), sim.metrics.clone())
}

/// Every submitted request completes exactly once (ok or failed), and
/// the counters agree with the completion records.
#[test]
fn conservation() {
    for case in 0..CASES {
        let s = scenario(0x5101, case);
        let (done, metrics) = run(&s);
        let c = &metrics.counters;
        assert_eq!(done.len() as u64, s.n_requests, "case {case}: {s:?}");
        let ok = done.iter().filter(|c| c.ok).count() as u64;
        let err = done.len() as u64 - ok;
        assert_eq!(c.completed_ok, ok, "case {case}: {s:?}");
        assert_eq!(c.completed_err, err, "case {case}: {s:?}");
        assert_eq!(c.submitted, s.n_requests, "case {case}: {s:?}");
        // Without timeouts there can be no timeout-caused failures, and
        // without a deadline nothing can expire either.
        if s.timeout_ms.is_none() {
            assert_eq!(c.timeouts, 0, "case {case}: {s:?}");
            if s.deadline.is_none() {
                assert_eq!(ok, s.n_requests, "case {case}: {s:?}");
            }
        }
        if s.deadline.is_none() {
            assert_eq!(c.deadline_exceeded, 0, "case {case}: {s:?}");
            assert!(
                done.iter().all(|c| c.failure != Some("deadline")),
                "case {case}: {s:?}"
            );
        }
    }
}

/// Same scenario, same seed → bit-identical results.
#[test]
fn determinism() {
    for case in 0..CASES {
        let s = scenario(0x5102, case);
        let (a, b) = (run(&s), run(&s));
        assert_eq!(a.0, b.0, "case {case}: {s:?}");
        assert_eq!(a.1, b.1, "case {case}: {s:?}");
    }
}

/// Latency lower bound: no successful request can finish faster than the
/// back service's CPU time (its minimum service demand).
#[test]
fn latency_lower_bound() {
    for case in 0..CASES {
        let s = scenario(0x5103, case);
        let (done, _) = run(&s);
        for c in done.iter().filter(|c| c.ok) {
            assert!(
                c.latency_ns() >= s.back_cpu_us * 1_000,
                "case {case}: latency {} < service demand {}",
                c.latency_ns(),
                s.back_cpu_us * 1_000
            );
        }
    }
}

/// Failed requests with timeouts never take longer than
/// attempts × (timeout + backoff) plus scheduling slack. Runs `CASES`
/// scenarios that have a timeout.
#[test]
fn timeout_upper_bound() {
    let cases = (0..)
        .map(|case| (case, scenario(0x5104, case)))
        .filter(|(_, s)| s.timeout_ms.is_some())
        .take(CASES as usize);
    for (case, s) in cases {
        let (done, _) = run(&s);
        let timeout = ms(s.timeout_ms.unwrap());
        let attempts = (s.retries + 1) as u64;
        let bound = attempts * (timeout + ms(1)) + ms(5);
        for c in done
            .iter()
            .filter(|c| !c.ok && c.failure == Some("timeout"))
        {
            assert!(
                c.latency_ns() <= bound,
                "case {case}: failed request took {} > bound {}",
                c.latency_ns(),
                bound
            );
        }
    }
}

/// Deadline arithmetic is monotone: a child's propagated deadline never
/// exceeds the parent's remaining deadline minus the hop margin, never
/// exceeds `now + budget`, and exists iff there is something to
/// propagate.
#[test]
fn child_deadline_never_exceeds_parent_budget() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5105 ^ case);
        let now = rng.gen_range(0..secs(1_000));
        let parent_off = rng.gen::<bool>().then(|| rng.gen_range(0..secs(100)));
        let budget = rng.gen::<bool>().then(|| rng.gen_range(0..secs(100)));
        let margin = rng.gen_range(0..secs(1));
        let ds = DeadlineSpec {
            budget_ns: budget,
            hop_margin_ns: margin,
        };
        let parent = parent_off.map(|o| now + o);
        let child = ds.child_deadline(now, parent);
        if let Some(p) = parent {
            let c = child.expect("inherited deadline always propagates");
            assert!(c <= p.saturating_sub(margin), "case {case}");
        }
        if let Some(b) = budget {
            let c = child.expect("fresh budget always stamps a deadline");
            assert!(c <= now + b, "case {case}");
        }
        if parent.is_none() && budget.is_none() {
            assert!(child.is_none(), "case {case}");
        }
    }
}

/// Cache stats are consistent: gets = hits + misses, and misses trigger
/// exactly that many db reads.
#[test]
fn cache_db_consistency() {
    for case in 0..CASES {
        let s = scenario(0x5106, case);
        let (_, metrics) = run(&s);
        if let Some(cache) = metrics.backend("cache") {
            assert_eq!(cache.reads, cache.hits + cache.misses, "case {case}");
            let db_reads = metrics.backend("db").map_or(0, |d| d.reads);
            assert_eq!(db_reads, cache.misses, "case {case}");
        }
    }
}
