//! DSB SocialNetwork, ported to Blueprint (paper §5, §6).
//!
//! The workflow follows the DeathStarBench social network: a gateway exposes
//! `ComposePost`, `ReadHomeTimeline`, and `ReadUserTimeline`; composing a
//! post fans out to text/url/mention/media/uniqueid/user processing, stores
//! the post, and updates the user and home timelines; reads are cache-aside
//! over Redis with MongoDB behind.
//!
//! Variants used by the evaluation:
//!
//! * [`wiring`] — the standard variant (dimensions from [`WiringOpts`]).
//!   Every other wiring below is a mutation of this one spec, not a copy;
//! * [`wiring_type4`] — the §6.2.1 Type-4 metastability variant: a slow
//!   user-timeline database carrying the timeout/retry policies itself;
//! * [`wiring_inconsistency`] — the §6.2.2 cross-system-inconsistency
//!   variant: replicated user-timeline database + two `UserTimelineService`
//!   instances with per-replica caches behind a load balancer;
//! * [`wiring_direct_timeline`] — the same topology without the caches and
//!   with an explicit consistency mode (`primary` / `read_replica` /
//!   `quorum` / `session`) on the replicated database, for
//!   [`workflow_direct_timeline`]; [`arm_ut_db_failover`] attaches primary
//!   failover to the compiled system;
//! * [`workflow_with`]`(extended_cache = true)` — the §6.6 variant whose
//!   `ReadPosts` uses the specialized Redis range operation instead of N
//!   generic `Get`s (Fig. 12).

use blueprint_ir::types::{MethodSig, Param, TypeRef};
use blueprint_wiring::{mutate, Arg, InstanceDecl, WiringSpec};
use blueprint_workflow::{
    Behavior, CacheOp, KeyExpr, ServiceBuilder, ServiceInterface, WorkflowSpec,
};
use blueprint_workload::generator::ApiMix;

use crate::common::{cost, finish_monolith, standard_scaffolding, WiringOpts};

/// Number of distinct users/entities the workloads draw from.
pub const ENTITIES: u64 = 10_000;
/// Posts fetched when reading a timeline.
pub const TIMELINE_POSTS: u32 = 18;

fn sig(name: &str) -> MethodSig {
    MethodSig::new(name, vec![Param::new("reqID", TypeRef::I64)], TypeRef::Unit)
}

/// The workflow spec (generic cache interface).
pub fn workflow() -> WorkflowSpec {
    workflow_with(false)
}

/// The workflow spec; `extended_cache` switches `PostStorage::ReadPosts`
/// from N generic cache `Get`s to one specialized `GetRange` (Fig. 12).
pub fn workflow_with(extended_cache: bool) -> WorkflowSpec {
    let mut wf = WorkflowSpec::new("dsb_social_network");

    // ---- Leaf services -----------------------------------------------------
    wf.add_service(
        ServiceBuilder::new(
            "UniqueIdServiceImpl",
            ServiceInterface::new("UniqueIdService", vec![sig("UploadUniqueId")]),
        )
        .method(
            "UploadUniqueId",
            Behavior::build().compute(cost::LIGHT_NS, 4 << 10).done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("unique service");

    wf.add_service(
        ServiceBuilder::new(
            "UrlShortenServiceImpl",
            ServiceInterface::new("UrlShortenService", vec![sig("ShortenUrls")]),
        )
        .dep_nosql("url_db")
        .method(
            "ShortenUrls",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .db_write("url_db", KeyExpr::Random(1_000_000))
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("url service");

    wf.add_service(
        ServiceBuilder::new(
            "UserMentionServiceImpl",
            ServiceInterface::new("UserMentionService", vec![sig("UploadUserMentions")]),
        )
        .dep_cache("user_cache")
        .dep_nosql("user_db")
        .method(
            "UploadUserMentions",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "user_cache",
                    KeyExpr::EntityMod(ENTITIES),
                    Behavior::build()
                        .db_read("user_db", KeyExpr::EntityMod(ENTITIES))
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("mention service");

    wf.add_service(
        ServiceBuilder::new(
            "MediaServiceImpl",
            ServiceInterface::new("MediaService", vec![sig("UploadMedia")]),
        )
        .dep_nosql("media_db")
        .method(
            "UploadMedia",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .branch(
                    0.2,
                    Behavior::build()
                        .compute(cost::HEAVY_NS, cost::ALLOC_BIG)
                        .db_write("media_db", KeyExpr::Random(1_000_000))
                        .done(),
                    Behavior::empty(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("media service");

    wf.add_service(
        ServiceBuilder::new(
            "UserServiceImpl",
            ServiceInterface::new("UserService", vec![sig("UploadCreatorWithUserId")]),
        )
        .dep_cache("user_cache")
        .dep_nosql("user_db")
        .method(
            "UploadCreatorWithUserId",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "user_cache",
                    KeyExpr::Entity,
                    Behavior::build()
                        .db_read("user_db", KeyExpr::Entity)
                        .cache_put("user_cache", KeyExpr::Entity)
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("user service");

    wf.add_service(
        ServiceBuilder::new(
            "SocialGraphServiceImpl",
            ServiceInterface::new(
                "SocialGraphService",
                vec![sig("GetFollowers"), sig("GetFollowees")],
            ),
        )
        .dep_cache("sg_cache")
        .dep_nosql("sg_db")
        .method(
            "GetFollowers",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "sg_cache",
                    KeyExpr::Entity,
                    Behavior::build()
                        .db_scan("sg_db", KeyExpr::Entity, 20)
                        .cache_put("sg_cache", KeyExpr::Entity)
                        .done(),
                )
                .done(),
        )
        .method(
            "GetFollowees",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "sg_cache",
                    KeyExpr::Entity,
                    Behavior::build()
                        .db_scan("sg_db", KeyExpr::Entity, 20)
                        .cache_put("sg_cache", KeyExpr::Entity)
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("social graph");

    // ---- Text plane ---------------------------------------------------------
    wf.add_service(
        ServiceBuilder::new(
            "TextServiceImpl",
            ServiceInterface::new("TextService", vec![sig("UploadText")]),
        )
        .dep_service("url_shorten", "UrlShortenService")
        .dep_service("user_mention", "UserMentionService")
        .method(
            "UploadText",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC)
                .parallel(vec![
                    Behavior::build().call("url_shorten", "ShortenUrls").done(),
                    Behavior::build()
                        .call("user_mention", "UploadUserMentions")
                        .done(),
                ])
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("text service");

    // ---- Storage & timelines -------------------------------------------------
    let read_posts = if extended_cache {
        Behavior::build()
            .compute(cost::LIGHT_NS, cost::ALLOC)
            .cache_op(
                "post_cache",
                CacheOp::GetRange {
                    items: TIMELINE_POSTS,
                },
                KeyExpr::Random(ENTITIES),
            )
            .done()
    } else {
        Behavior::build()
            .compute(cost::LIGHT_NS, cost::ALLOC)
            .repeat(
                TIMELINE_POSTS,
                Behavior::build()
                    .cache_get_or_fetch(
                        "post_cache",
                        KeyExpr::Random(ENTITIES),
                        Behavior::build()
                            .db_read("post_db", KeyExpr::Random(ENTITIES))
                            .cache_put("post_cache", KeyExpr::Random(ENTITIES))
                            .done(),
                    )
                    .done(),
            )
            .done()
    };
    wf.add_service(
        ServiceBuilder::new(
            "PostStorageServiceImpl",
            ServiceInterface::new(
                "PostStorageService",
                vec![sig("StorePost"), sig("ReadPost"), sig("ReadPosts")],
            ),
        )
        .dep_cache("post_cache")
        .dep_nosql("post_db")
        .method(
            "StorePost",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC_BIG)
                .db_write("post_db", KeyExpr::Entity)
                .cache_put("post_cache", KeyExpr::Entity)
                .done(),
        )
        .method(
            "ReadPost",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "post_cache",
                    KeyExpr::Entity,
                    Behavior::build()
                        .db_read("post_db", KeyExpr::Entity)
                        .cache_put("post_cache", KeyExpr::Entity)
                        .done(),
                )
                .done(),
        )
        .method("ReadPosts", read_posts)
        .done()
        .expect("valid service"),
    )
    .expect("post storage");

    wf.add_service(
        ServiceBuilder::new(
            "UserTimelineServiceImpl",
            ServiceInterface::new(
                "UserTimelineService",
                vec![sig("ReadUserTimeline"), sig("WriteUserTimeline")],
            ),
        )
        .dep_cache("ut_cache")
        .dep_nosql("ut_db")
        .dep_service("post_storage", "PostStorageService")
        .method(
            "ReadUserTimeline",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "ut_cache",
                    KeyExpr::Entity,
                    Behavior::build()
                        .db_read("ut_db", KeyExpr::Entity)
                        .cache_put("ut_cache", KeyExpr::Entity)
                        .done(),
                )
                .call("post_storage", "ReadPosts")
                .done(),
        )
        .method(
            "WriteUserTimeline",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .db_write("ut_db", KeyExpr::Entity)
                .cache_put("ut_cache", KeyExpr::Entity)
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("user timeline");

    wf.add_service(
        ServiceBuilder::new(
            "HomeTimelineServiceImpl",
            ServiceInterface::new(
                "HomeTimelineService",
                vec![sig("ReadHomeTimeline"), sig("WriteHomeTimeline")],
            ),
        )
        .dep_cache("ht_cache")
        .dep_service("post_storage", "PostStorageService")
        .dep_service("social_graph", "SocialGraphService")
        .method(
            "ReadHomeTimeline",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "ht_cache",
                    KeyExpr::Entity,
                    Behavior::build()
                        .call("social_graph", "GetFollowees")
                        .cache_put("ht_cache", KeyExpr::Entity)
                        .done(),
                )
                .call("post_storage", "ReadPosts")
                .done(),
        )
        .method(
            "WriteHomeTimeline",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("social_graph", "GetFollowers")
                .repeat(
                    3,
                    Behavior::build()
                        .cache_put("ht_cache", KeyExpr::Random(ENTITIES))
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("home timeline");

    // ---- Compose orchestration ----------------------------------------------
    wf.add_service(
        ServiceBuilder::new(
            "ComposePostServiceImpl",
            ServiceInterface::new("ComposePostService", vec![sig("ComposePost")]),
        )
        .dep_service("text", "TextService")
        .dep_service("unique_id", "UniqueIdService")
        .dep_service("media", "MediaService")
        .dep_service("user", "UserService")
        .dep_service("post_storage", "PostStorageService")
        .dep_service("user_timeline", "UserTimelineService")
        .dep_service("home_timeline", "HomeTimelineService")
        .method(
            "ComposePost",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC_BIG)
                .parallel(vec![
                    Behavior::build().call("text", "UploadText").done(),
                    Behavior::build().call("unique_id", "UploadUniqueId").done(),
                    Behavior::build().call("media", "UploadMedia").done(),
                    Behavior::build()
                        .call("user", "UploadCreatorWithUserId")
                        .done(),
                ])
                .call("post_storage", "StorePost")
                .parallel(vec![
                    Behavior::build()
                        .call("user_timeline", "WriteUserTimeline")
                        .done(),
                    Behavior::build()
                        .call("home_timeline", "WriteHomeTimeline")
                        .done(),
                ])
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("compose post");

    // ---- Gateway --------------------------------------------------------------
    wf.add_service(
        ServiceBuilder::new(
            "GatewayServiceImpl",
            ServiceInterface::new(
                "GatewayService",
                vec![
                    sig("ComposePost"),
                    sig("ReadHomeTimeline"),
                    sig("ReadUserTimeline"),
                ],
            ),
        )
        .dep_service("compose", "ComposePostService")
        .dep_service("home_timeline", "HomeTimelineService")
        .dep_service("user_timeline", "UserTimelineService")
        .method(
            "ComposePost",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("compose", "ComposePost")
                .done(),
        )
        .method(
            "ReadHomeTimeline",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("home_timeline", "ReadHomeTimeline")
                .done(),
        )
        .method(
            "ReadUserTimeline",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("user_timeline", "ReadUserTimeline")
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("gateway");

    wf.validate().expect("social network workflow consistent");
    wf
}

/// The standard wiring before monolith grouping; every variant below is an
/// edit of this one spec.
fn base(opts: &WiringOpts) -> WiringSpec {
    let mut w = WiringSpec::new("dsb_social_network");
    let mods = standard_scaffolding(&mut w, opts).expect("scaffolding");
    let mods: Vec<&str> = mods.iter().map(String::as_str).collect();
    for (name, callee, capacity) in [
        ("url_db", "MongoDB", None),
        ("user_db", "MongoDB", None),
        ("media_db", "MongoDB", None),
        ("post_db", "MongoDB", None),
        ("sg_db", "MongoDB", None),
        ("user_cache", "Memcached", Some(200_000)),
        ("post_cache", "Redis", Some(500_000)),
        ("sg_cache", "Redis", Some(200_000)),
        ("ht_cache", "Redis", Some(200_000)),
        ("ut_db", "MongoDB", None),
        ("ut_cache", "Redis", Some(200_000)),
    ] {
        let kwargs = capacity.map(|c| ("capacity", Arg::Int(c)));
        w.define_kw(name, callee, vec![], kwargs.into_iter().collect())
            .expect("wiring");
    }
    let services: [(&str, &str, &[&str]); 12] = [
        ("unique_id", "UniqueIdServiceImpl", &[]),
        ("url_shorten", "UrlShortenServiceImpl", &["url_db"]),
        (
            "user_mention",
            "UserMentionServiceImpl",
            &["user_cache", "user_db"],
        ),
        ("media", "MediaServiceImpl", &["media_db"]),
        ("user", "UserServiceImpl", &["user_cache", "user_db"]),
        (
            "social_graph",
            "SocialGraphServiceImpl",
            &["sg_cache", "sg_db"],
        ),
        ("text", "TextServiceImpl", &["url_shorten", "user_mention"]),
        (
            "post_storage",
            "PostStorageServiceImpl",
            &["post_cache", "post_db"],
        ),
        (
            "user_timeline",
            "UserTimelineServiceImpl",
            &["ut_cache", "ut_db", "post_storage"],
        ),
        (
            "home_timeline",
            "HomeTimelineServiceImpl",
            &["ht_cache", "post_storage", "social_graph"],
        ),
        (
            "compose_post",
            "ComposePostServiceImpl",
            &[
                "text",
                "unique_id",
                "media",
                "user",
                "post_storage",
                "user_timeline",
                "home_timeline",
            ],
        ),
        (
            "gateway",
            "GatewayServiceImpl",
            &["compose_post", "home_timeline", "user_timeline"],
        ),
    ];
    for (name, callee, deps) in services {
        w.service(name, callee, deps, &mods).expect("wiring");
    }
    w
}

/// The standard wiring spec.
pub fn wiring(opts: &WiringOpts) -> WiringSpec {
    let mut w = base(opts);
    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// The §6.2.1 Type-4 metastability variant: [`wiring`] with a
/// capacity-constrained user-timeline database (`db_cpu_us` of CPU per
/// operation) that carries the timeout/retry scaffolding itself — so when a
/// cache flush floods it, DB calls time out, the cache-fill step never runs,
/// and the cache cannot repopulate (the fast-path/slow-path hysteresis of
/// §B.1 "Capacity Degradation Trigger ... Amplification").
///
/// Panics unless `opts.timeout_ms`/`opts.retries` are set: they declare the
/// `timeout_all`/`retry_all` instances this variant attaches to the database.
pub fn wiring_type4(opts: &WiringOpts, db_cpu_us: i64) -> WiringSpec {
    let mut w = base(opts);
    w.app_name = "dsb_social_network_type4".into();
    let cpu = Arg::Float(db_cpu_us as f64);
    mutate::set_kwarg(&mut w, "ut_db", "cpu_per_op_us", cpu).expect("ut_db");
    for policy in ["timeout_all", "retry_all"] {
        mutate::add_server_modifier(&mut w, "ut_db", policy)
            .expect("type4 needs timeouts + retries");
    }
    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// Replicates the user-timeline tier in place: `ut_db` gains two read
/// replicas with `lag` ms of asynchronous replication lag, and
/// `user_timeline` becomes two `UserTimelineService` instances behind a
/// random `LoadBalancer` of the same name. With `cached`, each instance gets
/// its own copy of `ut_cache`; without, both read `ut_db` directly.
fn replicate_user_timeline(w: &mut WiringSpec, lag: (i64, i64), cached: bool) {
    for (key, v) in [
        ("replicas", 2),
        ("lag_min_ms", lag.0),
        ("lag_max_ms", lag.1),
    ] {
        mutate::set_kwarg(w, "ut_db", key, Arg::Int(v)).expect("ut_db");
    }
    let splice = |w: &mut WiringSpec, name: &str, with: Vec<InstanceDecl>| {
        w.replace(name, with).expect(name);
    };
    let cache = w.decl("ut_cache").expect("ut_cache").clone();
    let caches = ["ut_cache_a", "ut_cache_b"].map(|name| InstanceDecl {
        name: name.into(),
        ..cache.clone()
    });
    splice(w, "ut_cache", if cached { caches.into() } else { vec![] });
    let svc = w.decl("user_timeline").expect("user_timeline").clone();
    let replica = |x: &str| InstanceDecl {
        name: format!("user_timeline_{x}"),
        args: if cached {
            vec![
                Arg::r(&format!("ut_cache_{x}")),
                Arg::r("ut_db"),
                Arg::r("post_storage"),
            ]
        } else {
            vec![Arg::r("ut_db")]
        },
        ..svc.clone()
    };
    let lb = InstanceDecl {
        name: "user_timeline".into(),
        callee: "LoadBalancer".into(),
        args: vec![Arg::r("user_timeline_a"), Arg::r("user_timeline_b")],
        kwargs: [("policy".into(), Arg::Str("random".into()))].into(),
        server_modifiers: vec![],
    };
    splice(w, "user_timeline", vec![replica("a"), replica("b"), lb]);
}

/// The §6.2.2 cross-system-inconsistency variant: the user-timeline database
/// gains two read replicas with asynchronous replication lag, and the
/// `UserTimelineService` is replicated with per-replica caches behind a load
/// balancer. Set the store's consistency mode on the result with
/// [`mutate::set_store_consistency`]; `"read_replica"` is the default.
pub fn wiring_inconsistency(opts: &WiringOpts, lag_min_ms: i64, lag_max_ms: i64) -> WiringSpec {
    let mut w = base(opts);
    w.app_name = "dsb_social_network_replicated".into();
    replicate_user_timeline(&mut w, (lag_min_ms, lag_max_ms), true);
    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// The consistency-matrix variant of the workflow: `ReadUserTimeline` and
/// `WriteUserTimeline` go straight to the replicated `ut_db` (no per-replica
/// cache, no random post fan-out on the read path), so a timeline
/// completion's observed version is exactly what the store served — the
/// signal the consistency oracle classifies. Everything else matches
/// [`workflow`]. (The cached path stays in [`wiring_inconsistency`]/fig. 8,
/// whose *point* is the cross-system anomaly; this variant isolates the
/// store layer so the consistency-mode guarantees are crisp.)
pub fn workflow_direct_timeline() -> WorkflowSpec {
    let mut wf = workflow();
    let ut = wf
        .services
        .get_mut("UserTimelineServiceImpl")
        .expect("user timeline service");
    ut.deps.retain(|d| d.name == "ut_db");
    ut.behaviors.insert(
        "ReadUserTimeline".into(),
        Behavior::build()
            .compute(cost::LIGHT_NS, cost::ALLOC)
            .db_read("ut_db", KeyExpr::Entity)
            .done(),
    );
    ut.behaviors.insert(
        "WriteUserTimeline".into(),
        Behavior::build()
            .compute(cost::LIGHT_NS, cost::ALLOC)
            .db_write("ut_db", KeyExpr::Entity)
            .done(),
    );
    wf.validate().expect("direct-timeline workflow consistent");
    wf
}

/// Wiring for [`workflow_direct_timeline`]: the replicated user-timeline
/// tier of [`wiring_inconsistency`] without the per-replica caches, with
/// consistency `mode` on the store (one of `"primary"`, `"read_replica"`,
/// `"quorum"` with optional `(w, r)`, or `"session"`). The
/// consistency-matrix bench compiles its arms from this.
pub fn wiring_direct_timeline(
    opts: &WiringOpts,
    lag_min_ms: i64,
    lag_max_ms: i64,
    mode: &str,
    quorum: Option<(i64, i64)>,
) -> WiringSpec {
    let mut w = base(opts);
    w.app_name = "dsb_social_network_consistency".into();
    replicate_user_timeline(&mut w, (lag_min_ms, lag_max_ms), false);
    finish_monolith(&mut w, opts).expect("monolith grouping");
    mutate::set_store_consistency(&mut w, "ut_db", mode, quorum).expect("ut_db consistency mode");
    w
}

/// Arms primary failover on the compiled system's `ut_db` store: appends one
/// process per replica on the store's own host (the same-host rule the spec
/// validator enforces) and attaches a
/// [`FailoverSpec`](blueprint_simrt::FailoverSpec) naming them, so a crash
/// or partition of the primary's process promotes the most-caught-up
/// replica after `detection_ns + election_ns`.
///
/// This is deliberately a *post-compile* mutation — failover topology is a
/// deployment concern, like the reconfiguration plans, not a wiring concern —
/// so benches clone [`blueprint_core::CompiledApp::system`] and arm it.
pub fn arm_ut_db_failover(
    spec: &mut blueprint_simrt::SystemSpec,
    detection_ns: blueprint_simrt::SimTime,
    election_ns: blueprint_simrt::SimTime,
) -> Result<(), blueprint_simrt::SimError> {
    use blueprint_simrt::{BackendRtKind, FailoverSpec, ProcessSpec, SimError};
    let b = spec
        .backends
        .iter()
        .position(|b| b.name == "ut_db")
        .ok_or_else(|| SimError::BadSpec("no ut_db backend to arm".into()))?;
    let host = spec.processes[spec.backends[b].process].host;
    let n = match &spec.backends[b].kind {
        BackendRtKind::Store { replicas, .. } => *replicas as usize,
        _ => return Err(SimError::BadSpec("ut_db is not a store".into())),
    };
    let base = spec.processes.len();
    for r in 0..n {
        spec.processes.push(ProcessSpec {
            name: format!("ut_db_replica_{r}"),
            host,
            gc: None,
        });
    }
    let BackendRtKind::Store { failover, .. } = &mut spec.backends[b].kind else {
        unreachable!("checked above");
    };
    *failover = Some(FailoverSpec {
        replica_processes: (base..base + n).collect(),
        detection_ns,
        election_ns,
    });
    Ok(())
}

/// The paper's §6.4 SocialNetwork workload mix: 60% ReadHomeTimeline,
/// 30% ReadUserTimeline, 10% ComposePost.
pub fn paper_mix() -> ApiMix {
    ApiMix::new()
        .add("gateway", "ReadHomeTimeline", 0.6)
        .add("gateway", "ReadUserTimeline", 0.3)
        .add("gateway", "ComposePost", 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_core::Blueprint;
    use blueprint_simrt::time::secs;

    #[test]
    fn workflow_validates_and_has_expected_shape() {
        let wf = workflow();
        assert_eq!(wf.services.len(), 12);
        assert!(wf.method_count() >= 15);
        wf.validate().unwrap();
        // Extended-cache variant differs only in ReadPosts.
        let ext = workflow_with(true);
        assert_ne!(
            wf.service("PostStorageServiceImpl").unwrap().behaviors["ReadPosts"],
            ext.service("PostStorageServiceImpl").unwrap().behaviors["ReadPosts"]
        );
    }

    #[test]
    fn compiles_and_serves_all_three_apis() {
        let wf = workflow();
        let w = wiring(&WiringOpts::default());
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        assert!(app.system().services.len() >= 12);
        assert_eq!(app.system().entries.len(), 1, "gateway is the only entry");
        let mut sim = app.simulation(5).unwrap();
        sim.submit("gateway", "ComposePost", 42).unwrap();
        sim.submit("gateway", "ReadHomeTimeline", 42).unwrap();
        sim.submit("gateway", "ReadUserTimeline", 42).unwrap();
        sim.run_until(secs(5));
        let done = sim.drain_completions();
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|c| c.ok), "{done:?}");
    }

    /// The base wiring and both replicated variants (whose `user_timeline`
    /// load balancer must join the monolith's one process) compile to one
    /// host and serve.
    #[test]
    fn monolith_variant_compiles_and_runs() {
        let opts = WiringOpts::default().monolith().without_tracing();
        for (wf, w) in [
            (workflow(), wiring(&opts)),
            (workflow(), wiring_inconsistency(&opts, 50, 700)),
            (
                workflow_direct_timeline(),
                wiring_direct_timeline(&opts, 50, 700, "session", None),
            ),
        ] {
            let app = Blueprint::new().compile(&wf, &w).unwrap();
            assert_eq!(app.system().hosts.len(), 1, "{}", w.app_name);
            let mut sim = app.simulation(5).unwrap();
            for m in ["ReadHomeTimeline", "ReadUserTimeline", "ComposePost"] {
                sim.submit("gateway", m, 1).unwrap();
            }
            sim.run_until(secs(5));
            let done = sim.drain_completions();
            assert_eq!(done.len(), 3, "{}", w.app_name);
            assert!(done.iter().all(|c| c.ok), "{}: {done:?}", w.app_name);
        }
    }

    #[test]
    fn compose_then_read_is_consistent_without_replication() {
        let wf = workflow();
        let w = wiring(&WiringOpts::default());
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        let mut sim = app.simulation(5).unwrap();
        let wv = sim.submit("gateway", "ComposePost", 7).unwrap();
        sim.run_until(secs(2));
        sim.submit("gateway", "ReadUserTimeline", 7).unwrap();
        sim.run_until(secs(4));
        let done = sim.drain_completions();
        assert!(done.iter().all(|c| c.ok));
        let read = &done[1];
        assert!(
            read.observed_version >= wv,
            "read version {} older than write {wv}",
            read.observed_version
        );
    }

    #[test]
    fn replicated_variant_can_read_stale() {
        let wf = workflow();
        let w = wiring_inconsistency(&WiringOpts::default(), 400, 800);
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        let mut sim = app.simulation(5).unwrap();
        // Compose for many distinct entities, read each immediately; with
        // 400–800 ms lag and random LB over two replicas, some reads must be
        // stale.
        let mut stale = 0;
        let mut total = 0;
        for e in 0..40 {
            let wv = sim.submit("gateway", "ComposePost", e).unwrap();
            let t = sim.now() + blueprint_simrt::time::ms(120);
            sim.run_until(t);
            sim.submit("gateway", "ReadUserTimeline", e).unwrap();
            let t = sim.now() + blueprint_simrt::time::ms(80);
            sim.run_until(t);
            for c in sim.drain_completions() {
                if c.method == "ReadUserTimeline" && c.ok {
                    total += 1;
                    if c.observed_version < wv {
                        stale += 1;
                    }
                }
            }
        }
        assert!(total >= 30, "reads completed: {total}");
        assert!(stale > 0, "expected some stale reads out of {total}");
        assert!(stale < total, "expected some fresh reads too");
    }

    #[test]
    fn paper_mix_has_three_apis() {
        assert_eq!(paper_mix().len(), 3);
    }

    /// `read_replica` is the historical default spelled out: setting it on
    /// the inconsistency variant must compile to the exact same system spec.
    #[test]
    fn consistency_wiring_read_replica_matches_inconsistency_variant() {
        let wf = workflow();
        let opts = WiringOpts::default();
        let mut named = wiring_inconsistency(&opts, 50, 700);
        mutate::set_store_consistency(&mut named, "ut_db", "read_replica", None).unwrap();
        let base = Blueprint::new()
            .compile(&wf, &wiring_inconsistency(&opts, 50, 700))
            .unwrap();
        let named = Blueprint::new().compile(&wf, &named).unwrap();
        assert_eq!(base.system(), named.system());
    }

    /// Arming failover appends one same-host process per replica and boots;
    /// crashing the primary's process promotes a replica (generation bump).
    #[test]
    fn armed_ut_db_failover_promotes_on_primary_crash() {
        use blueprint_simrt::time::ms;
        let wf = workflow();
        let mut w = wiring_inconsistency(&WiringOpts::default(), 50, 700);
        mutate::attach_session_consistency(&mut w, "ut_db").unwrap();
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        let mut system = app.system().clone();
        let before = system.processes.len();
        arm_ut_db_failover(&mut system, ms(20), ms(20)).unwrap();
        assert_eq!(system.processes.len(), before + 2);
        let mut sim = blueprint_simrt::Sim::new(
            &system,
            blueprint_simrt::SimConfig {
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let primary = sim.store_serving_process("ut_db").unwrap();
        sim.inject_fault(&blueprint_simrt::Fault::ProcessCrash {
            process: primary.clone(),
            restart_delay_ns: secs(30),
        })
        .unwrap();
        sim.run_until(sim.now() + secs(1));
        assert_eq!(sim.store_generation("ut_db").unwrap(), 1);
        let promoted = sim.store_serving_process("ut_db").unwrap();
        assert_ne!(promoted, primary);
        assert!(promoted.starts_with("ut_db_replica_"));
    }
}
