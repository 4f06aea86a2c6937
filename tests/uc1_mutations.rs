//! Integration: UC1 — mutating applications with 1-to-few-line wiring
//! changes (paper §3.1, §6.1).

use blueprint::apps::{hotel_reservation as hr, social_network as sn, RpcChoice, WiringOpts};
use blueprint::core::Blueprint;
use blueprint::wiring::{diff::spec_diff, mutate, Arg};

#[test]
fn rpc_framework_swap_is_one_wiring_line() {
    let base = hr::wiring(&WiringOpts::default());
    let variant = hr::wiring(&WiringOpts::default().with_rpc(RpcChoice::Thrift { pool: 4 }));
    let d = spec_diff(&base, &variant);
    assert_eq!(d.removed, 1);
    assert_eq!(d.added, 1);
}

#[test]
fn disabling_tracing_removes_generated_scaffolding() {
    // The popular "remove tracing" fork mutation: a handful of wiring lines
    // removed; the compiler drops the tracing wrappers and tracer containers
    // from the generated system automatically (paper: "automatically removes
    // ~2 KLoC from the generated system").
    let traced = hr::wiring(&WiringOpts::default());
    let untraced = hr::wiring(&WiringOpts::default().without_tracing());
    let d = spec_diff(&traced, &untraced);
    assert!(
        d.changed() <= 2 + 2 * 8 + 8,
        "wiring delta too large: {d:?}"
    );

    let wf = hr::workflow();
    let with = Blueprint::new().compile(&wf, &traced).unwrap();
    let without = Blueprint::new().compile(&wf, &untraced).unwrap();
    let with_tracing_files = with
        .artifacts()
        .iter()
        .filter(|(p, _)| p.contains("tracer"))
        .count();
    let without_tracing_files = without
        .artifacts()
        .iter()
        .filter(|(p, _)| p.contains("tracer"))
        .count();
    assert!(
        with_tracing_files >= 8,
        "tracing wrappers generated: {with_tracing_files}"
    );
    assert_eq!(without_tracing_files, 0);
    assert!(
        with.artifacts().total_loc() > without.artifacts().total_loc() + 100,
        "tracing scaffolding should account for a visible LoC drop"
    );
    // And the lowered systems differ exactly in tracing overhead.
    assert!(with
        .system()
        .services
        .iter()
        .all(|s| s.trace_overhead_ns.is_some()));
    assert!(without
        .system()
        .services
        .iter()
        .all(|s| s.trace_overhead_ns.is_none()));
}

#[test]
fn switching_tracer_instantiation_is_one_line() {
    let mut a = hr::wiring(&WiringOpts::default());
    let b = a.clone();
    mutate::swap_callee(&mut a, "tracer", "ZipkinTracer").unwrap();
    let d = spec_diff(&b, &a);
    assert_eq!(d.changed(), 2, "1 line replaced");
    Blueprint::new().compile(&hr::workflow(), &a).unwrap();
}

#[test]
fn adding_replication_compiles_and_spreads_load() {
    use blueprint::simrt::time::{ms, secs};
    let mut wiring = hr::wiring(&WiringOpts::default().without_tracing());
    let base = wiring.clone();
    mutate::replicate(&mut wiring, "profile", 3).unwrap();
    let d = spec_diff(&base, &wiring);
    assert!(d.changed() <= 3, "replication wiring delta: {d:?}");

    let app = Blueprint::new().compile(&hr::workflow(), &wiring).unwrap();
    // Three profile replicas exist in the lowered system.
    let replicas = app
        .system()
        .services
        .iter()
        .filter(|s| s.name.starts_with("profile"))
        .count();
    assert_eq!(replicas, 3);
    let mut sim = app.simulation(3).unwrap();
    for i in 0..60 {
        sim.submit("frontend", "SearchHotels", i).unwrap();
        let t = sim.now() + ms(20);
        sim.run_until(t);
    }
    sim.run_until(secs(10));
    let done = sim.drain_completions();
    assert!(done.iter().all(|c| c.ok));
    // Round-robin over the three replicas.
    for r in ["profile", "profile_r1", "profile_r2"] {
        assert_eq!(sim.service_served(r), Some(20), "replica {r}");
    }
}

#[test]
fn swapping_cache_instantiation_is_one_line() {
    let mut wiring = sn::wiring(&WiringOpts::default());
    let base = wiring.clone();
    mutate::swap_callee(&mut wiring, "post_cache", "Memcached").unwrap();
    assert_eq!(spec_diff(&base, &wiring).changed(), 2);
    let app = Blueprint::new().compile(&sn::workflow(), &wiring).unwrap();
    let kind = &app
        .system()
        .backends
        .iter()
        .find(|b| b.name == "post_cache")
        .unwrap()
        .kind;
    assert!(matches!(
        kind,
        blueprint::simrt::BackendRtKind::Cache { .. }
    ));
    assert!(app
        .artifacts()
        .get("docker/post_cache/Dockerfile")
        .unwrap()
        .content
        .contains("memcached"));
}

#[test]
fn database_parameters_are_wiring_kwargs() {
    let mut wiring = sn::wiring(&WiringOpts::default());
    mutate::set_kwarg(&mut wiring, "ut_db", "replicas", Arg::Int(2)).unwrap();
    mutate::set_kwarg(&mut wiring, "ut_db", "lag_max_ms", Arg::Int(300)).unwrap();
    let app = Blueprint::new().compile(&sn::workflow(), &wiring).unwrap();
    let db = app
        .system()
        .backends
        .iter()
        .find(|b| b.name == "ut_db")
        .unwrap();
    match &db.kind {
        blueprint::simrt::BackendRtKind::Store {
            replicas,
            replication_lag_ns,
            ..
        } => {
            assert_eq!(*replicas, 2);
            assert_eq!(replication_lag_ns.1, 300_000_000);
        }
        other => panic!("wrong kind {other:?}"),
    }
}

#[test]
fn monolithify_mutation_compiles_and_runs() {
    use blueprint::simrt::time::secs;
    let mut wiring = hr::wiring(&WiringOpts::default().without_tracing());
    mutate::monolithify(
        &mut wiring,
        &["GRPCServer", "ThriftServer", "HTTPServer", "Docker"],
    )
    .unwrap();
    wiring.validate().unwrap();
    let app = Blueprint::new().compile(&hr::workflow(), &wiring).unwrap();
    assert_eq!(app.system().hosts.len(), 1);
    let mut sim = app.simulation(4).unwrap();
    sim.submit("frontend", "SearchHotels", 1).unwrap();
    sim.run_until(secs(5));
    assert!(sim.drain_completions()[0].ok);
}

/// Every exhibit variant is a small edit of its app's standard wiring
/// (`changed` counts removed plus added rendered lines). Each SocialNetwork
/// variant renames the app, which is 2 of its changed lines. The
/// inconsistency variant changes 11 lines rather than the paper's 4 LoC
/// because, besides the rename, it splits the user-timeline service into
/// explicitly declared replicas with their own caches behind a load
/// balancer, instead of attaching one `Replicate` modifier.
#[test]
fn each_variant_is_a_small_mutation_of_its_base() {
    let opts = WiringOpts::default().with_timeout_retries(1_000, 10);
    let sn_base = sn::wiring(&opts);
    let direct = sn::wiring_direct_timeline(&opts, 100, 400, "quorum", None);
    for (name, base, variant, changed) in [
        ("type4", &sn_base, sn::wiring_type4(&opts, 1_500), 4),
        (
            "inconsistency",
            &sn_base,
            sn::wiring_inconsistency(&opts, 50, 700),
            11,
        ),
        ("direct-timeline", &sn_base, direct, 9),
        (
            "hotel type2",
            &hr::wiring(&opts),
            hr::wiring_type2(&opts),
            1,
        ),
    ] {
        let d = spec_diff(base, &variant);
        assert_eq!(d.changed(), changed, "{name}: {d:?}");
    }
}
