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
//! * [`wiring`] — the standard variant (dimensions from [`WiringOpts`]);
//! * [`wiring_inconsistency`] — the §6.2.2 cross-system-inconsistency
//!   variant: replicated user-timeline database + two `UserTimelineService`
//!   instances with per-replica caches behind a load balancer (a 5-line
//!   wiring change from the base spec);
//! * [`wiring_consistency`] — the same topology with an explicit consistency
//!   mode (`primary` / `read_replica` / `quorum` / `session`) on the
//!   replicated database, and [`arm_ut_db_failover`] to attach primary
//!   failover to the compiled system;
//! * [`workflow_with`]`(extended_cache = true)` — the §6.6 variant whose
//!   `ReadPosts` uses the specialized Redis range operation instead of N
//!   generic `Get`s (Fig. 12).

use blueprint_ir::types::{MethodSig, Param, TypeRef};
use blueprint_wiring::{Arg, WiringSpec};
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

/// Declares the application's backends on a wiring spec (shared by the base
/// and inconsistency variants).
fn declare_backends(w: &mut WiringSpec) {
    w.define("url_db", "MongoDB", vec![]).expect("wiring");
    w.define("user_db", "MongoDB", vec![]).expect("wiring");
    w.define("media_db", "MongoDB", vec![]).expect("wiring");
    w.define("post_db", "MongoDB", vec![]).expect("wiring");
    w.define("sg_db", "MongoDB", vec![]).expect("wiring");
    w.define_kw(
        "user_cache",
        "Memcached",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");
    w.define_kw(
        "post_cache",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(500_000))],
    )
    .expect("wiring");
    w.define_kw(
        "sg_cache",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");
    w.define_kw(
        "ht_cache",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");
}

/// The standard wiring spec.
pub fn wiring(opts: &WiringOpts) -> WiringSpec {
    let mut w = WiringSpec::new("dsb_social_network");
    let mods = standard_scaffolding(&mut w, opts).expect("scaffolding");
    let mods: Vec<&str> = mods.iter().map(String::as_str).collect();
    declare_backends(&mut w);
    w.define_kw("ut_db", "MongoDB", vec![], vec![])
        .expect("wiring");
    w.define_kw(
        "ut_cache",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");

    w.service("unique_id", "UniqueIdServiceImpl", &[], &mods)
        .expect("wiring");
    w.service("url_shorten", "UrlShortenServiceImpl", &["url_db"], &mods)
        .expect("wiring");
    w.service(
        "user_mention",
        "UserMentionServiceImpl",
        &["user_cache", "user_db"],
        &mods,
    )
    .expect("wiring");
    w.service("media", "MediaServiceImpl", &["media_db"], &mods)
        .expect("wiring");
    w.service("user", "UserServiceImpl", &["user_cache", "user_db"], &mods)
        .expect("wiring");
    w.service(
        "social_graph",
        "SocialGraphServiceImpl",
        &["sg_cache", "sg_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "text",
        "TextServiceImpl",
        &["url_shorten", "user_mention"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "post_storage",
        "PostStorageServiceImpl",
        &["post_cache", "post_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "user_timeline",
        "UserTimelineServiceImpl",
        &["ut_cache", "ut_db", "post_storage"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "home_timeline",
        "HomeTimelineServiceImpl",
        &["ht_cache", "post_storage", "social_graph"],
        &mods,
    )
    .expect("wiring");
    w.service(
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
        &mods,
    )
    .expect("wiring");
    w.service(
        "gateway",
        "GatewayServiceImpl",
        &["compose_post", "home_timeline", "user_timeline"],
        &mods,
    )
    .expect("wiring");
    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// The §6.2.1 Type-4 metastability variant: identical to [`wiring`] except
/// the user-timeline database is capacity-constrained (`db_cpu_us` of CPU
/// per operation) and carries the timeout/retry scaffolding itself — so when
/// a cache flush floods it, DB calls time out, the cache-fill step never
/// runs, and the cache cannot repopulate (the fast-path/slow-path hysteresis
/// of §B.1 "Capacity Degradation Trigger ... Amplification").
///
/// Requires `opts.timeout_ms`/`opts.retries` to be set (they define the
/// `timeout_all`/`retry_all` scaffolding instances this variant attaches to
/// the database).
pub fn wiring_type4(opts: &WiringOpts, db_cpu_us: i64) -> WiringSpec {
    assert!(
        opts.timeout_ms.is_some() && opts.retries > 0,
        "type4 needs timeouts + retries"
    );
    let mut w = WiringSpec::new("dsb_social_network_type4");
    let mods = standard_scaffolding(&mut w, opts).expect("scaffolding");
    let mods: Vec<&str> = mods.iter().map(String::as_str).collect();
    declare_backends(&mut w);
    // The mutation: a slow, policy-carrying timeline database.
    w.define_kw_mods(
        "ut_db",
        "MongoDB",
        vec![],
        vec![("cpu_per_op_us", Arg::Float(db_cpu_us as f64))],
        &["timeout_all", "retry_all"],
    )
    .expect("wiring");
    w.define_kw(
        "ut_cache",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");

    w.service("unique_id", "UniqueIdServiceImpl", &[], &mods)
        .expect("wiring");
    w.service("url_shorten", "UrlShortenServiceImpl", &["url_db"], &mods)
        .expect("wiring");
    w.service(
        "user_mention",
        "UserMentionServiceImpl",
        &["user_cache", "user_db"],
        &mods,
    )
    .expect("wiring");
    w.service("media", "MediaServiceImpl", &["media_db"], &mods)
        .expect("wiring");
    w.service("user", "UserServiceImpl", &["user_cache", "user_db"], &mods)
        .expect("wiring");
    w.service(
        "social_graph",
        "SocialGraphServiceImpl",
        &["sg_cache", "sg_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "text",
        "TextServiceImpl",
        &["url_shorten", "user_mention"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "post_storage",
        "PostStorageServiceImpl",
        &["post_cache", "post_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "user_timeline",
        "UserTimelineServiceImpl",
        &["ut_cache", "ut_db", "post_storage"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "home_timeline",
        "HomeTimelineServiceImpl",
        &["ht_cache", "post_storage", "social_graph"],
        &mods,
    )
    .expect("wiring");
    w.service(
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
        &mods,
    )
    .expect("wiring");
    w.service(
        "gateway",
        "GatewayServiceImpl",
        &["compose_post", "home_timeline", "user_timeline"],
        &mods,
    )
    .expect("wiring");
    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// The §6.2.2 cross-system-inconsistency variant: the user-timeline database
/// gains read replicas with asynchronous replication lag, and the
/// `UserTimelineService` is replicated with per-replica caches behind a load
/// balancer. The diff against [`wiring`] touches a handful of lines, like
/// the paper's 4-LoC mutation.
pub fn wiring_inconsistency(opts: &WiringOpts, lag_min_ms: i64, lag_max_ms: i64) -> WiringSpec {
    let mut w = WiringSpec::new("dsb_social_network_replicated");
    let mods = standard_scaffolding(&mut w, opts).expect("scaffolding");
    let mods: Vec<&str> = mods.iter().map(String::as_str).collect();
    declare_backends(&mut w);
    // Replicated timeline database + per-replica caches (the mutation).
    w.define_kw(
        "ut_db",
        "MongoDB",
        vec![],
        vec![
            ("replicas", Arg::Int(2)),
            ("lag_min_ms", Arg::Int(lag_min_ms)),
            ("lag_max_ms", Arg::Int(lag_max_ms)),
        ],
    )
    .expect("wiring");
    w.define_kw(
        "ut_cache_a",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");
    w.define_kw(
        "ut_cache_b",
        "Redis",
        vec![],
        vec![("capacity", Arg::Int(200_000))],
    )
    .expect("wiring");

    w.service("unique_id", "UniqueIdServiceImpl", &[], &mods)
        .expect("wiring");
    w.service("url_shorten", "UrlShortenServiceImpl", &["url_db"], &mods)
        .expect("wiring");
    w.service(
        "user_mention",
        "UserMentionServiceImpl",
        &["user_cache", "user_db"],
        &mods,
    )
    .expect("wiring");
    w.service("media", "MediaServiceImpl", &["media_db"], &mods)
        .expect("wiring");
    w.service("user", "UserServiceImpl", &["user_cache", "user_db"], &mods)
        .expect("wiring");
    w.service(
        "social_graph",
        "SocialGraphServiceImpl",
        &["sg_cache", "sg_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "text",
        "TextServiceImpl",
        &["url_shorten", "user_mention"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "post_storage",
        "PostStorageServiceImpl",
        &["post_cache", "post_db"],
        &mods,
    )
    .expect("wiring");
    // Two user-timeline replicas with their own caches, behind an LB.
    w.service(
        "user_timeline_a",
        "UserTimelineServiceImpl",
        &["ut_cache_a", "ut_db", "post_storage"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "user_timeline_b",
        "UserTimelineServiceImpl",
        &["ut_cache_b", "ut_db", "post_storage"],
        &mods,
    )
    .expect("wiring");
    w.define_kw(
        "user_timeline",
        "LoadBalancer",
        vec![Arg::r("user_timeline_a"), Arg::r("user_timeline_b")],
        vec![("policy", Arg::Str("random".into()))],
    )
    .expect("wiring");
    w.service(
        "home_timeline",
        "HomeTimelineServiceImpl",
        &["ht_cache", "post_storage", "social_graph"],
        &mods,
    )
    .expect("wiring");
    w.service(
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
        &mods,
    )
    .expect("wiring");
    w.service(
        "gateway",
        "GatewayServiceImpl",
        &["compose_post", "home_timeline", "user_timeline"],
        &mods,
    )
    .expect("wiring");
    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// [`wiring_inconsistency`] with an explicit consistency mode on the
/// replicated user-timeline database — the paper's "change one wiring line,
/// recompile, re-measure" loop applied to data consistency. `mode` is one of
/// `"primary"`, `"read_replica"`, `"quorum"` (with `quorum = Some((w, r))`),
/// or `"session"`; `"read_replica"` reproduces [`wiring_inconsistency`]
/// exactly (it is the historical default, spelled out).
pub fn wiring_consistency(
    opts: &WiringOpts,
    lag_min_ms: i64,
    lag_max_ms: i64,
    mode: &str,
    quorum: Option<(i64, i64)>,
) -> WiringSpec {
    let mut w = wiring_inconsistency(opts, lag_min_ms, lag_max_ms);
    blueprint_wiring::mutate::set_store_consistency(&mut w, "ut_db", mode, quorum)
        .expect("ut_db consistency mode");
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

/// Wiring for [`workflow_direct_timeline`]: the replicated-`ut_db` topology
/// of [`wiring_inconsistency`] (two `UserTimelineService` instances behind a
/// load balancer) minus the per-replica caches, with an explicit consistency
/// mode on the store. The consistency-matrix bench compiles its three arms
/// from this.
pub fn wiring_direct_timeline(
    opts: &WiringOpts,
    lag_min_ms: i64,
    lag_max_ms: i64,
    mode: &str,
    quorum: Option<(i64, i64)>,
) -> WiringSpec {
    let mut w = WiringSpec::new("dsb_social_network_consistency");
    let mods = standard_scaffolding(&mut w, opts).expect("scaffolding");
    let mods: Vec<&str> = mods.iter().map(String::as_str).collect();
    declare_backends(&mut w);
    w.define_kw(
        "ut_db",
        "MongoDB",
        vec![],
        vec![
            ("replicas", Arg::Int(2)),
            ("lag_min_ms", Arg::Int(lag_min_ms)),
            ("lag_max_ms", Arg::Int(lag_max_ms)),
        ],
    )
    .expect("wiring");

    w.service("unique_id", "UniqueIdServiceImpl", &[], &mods)
        .expect("wiring");
    w.service("url_shorten", "UrlShortenServiceImpl", &["url_db"], &mods)
        .expect("wiring");
    w.service(
        "user_mention",
        "UserMentionServiceImpl",
        &["user_cache", "user_db"],
        &mods,
    )
    .expect("wiring");
    w.service("media", "MediaServiceImpl", &["media_db"], &mods)
        .expect("wiring");
    w.service("user", "UserServiceImpl", &["user_cache", "user_db"], &mods)
        .expect("wiring");
    w.service(
        "social_graph",
        "SocialGraphServiceImpl",
        &["sg_cache", "sg_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "text",
        "TextServiceImpl",
        &["url_shorten", "user_mention"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "post_storage",
        "PostStorageServiceImpl",
        &["post_cache", "post_db"],
        &mods,
    )
    .expect("wiring");
    // Two cache-less user-timeline replicas behind an LB: every read is a
    // store read.
    w.service(
        "user_timeline_a",
        "UserTimelineServiceImpl",
        &["ut_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "user_timeline_b",
        "UserTimelineServiceImpl",
        &["ut_db"],
        &mods,
    )
    .expect("wiring");
    w.define_kw(
        "user_timeline",
        "LoadBalancer",
        vec![Arg::r("user_timeline_a"), Arg::r("user_timeline_b")],
        vec![("policy", Arg::Str("random".into()))],
    )
    .expect("wiring");
    w.service(
        "home_timeline",
        "HomeTimelineServiceImpl",
        &["ht_cache", "post_storage", "social_graph"],
        &mods,
    )
    .expect("wiring");
    w.service(
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
        &mods,
    )
    .expect("wiring");
    w.service(
        "gateway",
        "GatewayServiceImpl",
        &["compose_post", "home_timeline", "user_timeline"],
        &mods,
    )
    .expect("wiring");
    finish_monolith(&mut w, opts).expect("monolith grouping");
    blueprint_wiring::mutate::set_store_consistency(&mut w, "ut_db", mode, quorum)
        .expect("ut_db consistency mode");
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

    #[test]
    fn monolith_variant_compiles_and_runs() {
        let wf = workflow();
        let w = wiring(&WiringOpts::default().monolith().without_tracing());
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        assert_eq!(app.system().hosts.len(), 1);
        let mut sim = app.simulation(5).unwrap();
        sim.submit("gateway", "ReadHomeTimeline", 1).unwrap();
        sim.run_until(secs(5));
        assert!(sim.drain_completions()[0].ok);
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

    /// `read_replica` is the historical default spelled out: the consistency
    /// variant must compile to the exact same system spec.
    #[test]
    fn consistency_wiring_read_replica_matches_inconsistency_variant() {
        let wf = workflow();
        let opts = WiringOpts::default();
        let base = Blueprint::new()
            .compile(&wf, &wiring_inconsistency(&opts, 50, 700))
            .unwrap();
        let named = Blueprint::new()
            .compile(
                &wf,
                &wiring_consistency(&opts, 50, 700, "read_replica", None),
            )
            .unwrap();
        assert_eq!(base.system(), named.system());
    }

    /// Arming failover appends one same-host process per replica and boots;
    /// crashing the primary's process promotes a replica (generation bump).
    #[test]
    fn armed_ut_db_failover_promotes_on_primary_crash() {
        use blueprint_simrt::time::ms;
        let wf = workflow();
        let opts = WiringOpts::default();
        let app = Blueprint::new()
            .compile(&wf, &wiring_consistency(&opts, 50, 700, "session", None))
            .unwrap();
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
