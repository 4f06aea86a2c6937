//! DSB HotelReservation, ported to Blueprint (paper §5, §6).
//!
//! Eight services (frontend, search, geo, rate, profile, recommendation,
//! reservation, user) over ten backends — the 18-instance topology of the
//! paper's Tab. 5 row. This is the application behind the Fig. 5 design
//! exploration, the Type 1–3 metastability studies (Figs. 6a–c, 7), and the
//! circuit-breaker prototype (Fig. 10).

use blueprint_ir::types::{MethodSig, Param, TypeRef};
use blueprint_wiring::{Arg, WiringSpec};
use blueprint_workflow::{Behavior, KeyExpr, ServiceBuilder, ServiceInterface, WorkflowSpec};
use blueprint_workload::generator::ApiMix;

use crate::common::{cost, finish_monolith, standard_scaffolding, WiringOpts};

/// Number of distinct hotels/users the workloads draw from.
pub const ENTITIES: u64 = 5_000;

fn sig(name: &str) -> MethodSig {
    MethodSig::new(name, vec![Param::new("reqID", TypeRef::I64)], TypeRef::Unit)
}

/// The workflow spec.
pub fn workflow() -> WorkflowSpec {
    let mut wf = WorkflowSpec::new("dsb_hotel_reservation");

    wf.add_service(
        ServiceBuilder::new(
            "GeoServiceImpl",
            ServiceInterface::new("GeoService", vec![sig("Nearby")]),
        )
        .dep_nosql("geo_db")
        .method(
            "Nearby",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC)
                .db_scan("geo_db", KeyExpr::EntityMod(ENTITIES), 16)
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("geo");

    wf.add_service(
        ServiceBuilder::new(
            "RateServiceImpl",
            ServiceInterface::new("RateService", vec![sig("GetRates")]),
        )
        .dep_cache("rate_cache")
        .dep_nosql("rate_db")
        .method(
            "GetRates",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .cache_get_or_fetch(
                    "rate_cache",
                    KeyExpr::EntityMod(ENTITIES),
                    Behavior::build()
                        .db_read("rate_db", KeyExpr::EntityMod(ENTITIES))
                        .cache_put("rate_cache", KeyExpr::EntityMod(ENTITIES))
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("rate");

    wf.add_service(
        ServiceBuilder::new(
            "ProfileServiceImpl",
            ServiceInterface::new("ProfileService", vec![sig("GetProfiles")]),
        )
        .dep_cache("profile_cache")
        .dep_nosql("profile_db")
        .method(
            "GetProfiles",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .repeat(
                    5,
                    Behavior::build()
                        .cache_get_or_fetch(
                            "profile_cache",
                            KeyExpr::Random(ENTITIES),
                            Behavior::build()
                                .db_read("profile_db", KeyExpr::Random(ENTITIES))
                                .cache_put("profile_cache", KeyExpr::Random(ENTITIES))
                                .done(),
                        )
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("profile");

    wf.add_service(
        ServiceBuilder::new(
            "RecommendationServiceImpl",
            ServiceInterface::new("RecommendationService", vec![sig("GetRecommendations")]),
        )
        .dep_nosql("rec_db")
        .method(
            "GetRecommendations",
            Behavior::build()
                .compute(cost::HEAVY_NS, cost::ALLOC_BIG)
                .db_scan("rec_db", KeyExpr::Random(ENTITIES), 24)
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("recommendation");

    wf.add_service(
        ServiceBuilder::new(
            "ReservationServiceImpl",
            ServiceInterface::new(
                "ReservationService",
                vec![sig("MakeReservation"), sig("CheckAvailability")],
            ),
        )
        .dep_cache("res_cache")
        .dep_nosql("res_db")
        .method(
            "MakeReservation",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC_BIG)
                .db_write("res_db", KeyExpr::Entity)
                .cache_put("res_cache", KeyExpr::Entity)
                .done(),
        )
        .method(
            "CheckAvailability",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC_BIG)
                .cache_get_or_fetch(
                    "res_cache",
                    KeyExpr::EntityMod(ENTITIES),
                    Behavior::build()
                        .db_read("res_db", KeyExpr::EntityMod(ENTITIES))
                        .cache_put("res_cache", KeyExpr::EntityMod(ENTITIES))
                        .done(),
                )
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("reservation");

    wf.add_service(
        ServiceBuilder::new(
            "UserServiceImpl",
            ServiceInterface::new("UserService", vec![sig("CheckUser")]),
        )
        .dep_nosql("user_db")
        .method(
            "CheckUser",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .db_read("user_db", KeyExpr::EntityMod(ENTITIES))
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("user");

    wf.add_service(
        ServiceBuilder::new(
            "SearchServiceImpl",
            ServiceInterface::new("SearchService", vec![sig("Nearby")]),
        )
        .dep_service("geo", "GeoService")
        .dep_service("rate", "RateService")
        .method(
            "Nearby",
            Behavior::build()
                .compute(cost::MEDIUM_NS, cost::ALLOC)
                .call("geo", "Nearby")
                .call("rate", "GetRates")
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("search");

    wf.add_service(
        ServiceBuilder::new(
            "FrontendServiceImpl",
            ServiceInterface::new(
                "FrontendService",
                vec![
                    sig("SearchHotels"),
                    sig("Recommend"),
                    sig("Reserve"),
                    sig("Login"),
                ],
            ),
        )
        .dep_service("search", "SearchService")
        .dep_service("profile", "ProfileService")
        .dep_service("recommendation", "RecommendationService")
        .dep_service("reservation", "ReservationService")
        .dep_service("user", "UserService")
        .method(
            "SearchHotels",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("search", "Nearby")
                .call("reservation", "CheckAvailability")
                .call("profile", "GetProfiles")
                .done(),
        )
        .method(
            "Recommend",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("recommendation", "GetRecommendations")
                .call("profile", "GetProfiles")
                .done(),
        )
        .method(
            "Reserve",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("user", "CheckUser")
                .call("reservation", "MakeReservation")
                .done(),
        )
        .method(
            "Login",
            Behavior::build()
                .compute(cost::LIGHT_NS, cost::ALLOC)
                .call("user", "CheckUser")
                .done(),
        )
        .done()
        .expect("valid service"),
    )
    .expect("frontend");

    wf.validate()
        .expect("hotel reservation workflow consistent");
    wf
}

/// The standard wiring spec.
pub fn wiring(opts: &WiringOpts) -> WiringSpec {
    let mut w = WiringSpec::new("dsb_hotel_reservation");
    let mods = standard_scaffolding(&mut w, opts).expect("scaffolding");
    let mods: Vec<&str> = mods.iter().map(String::as_str).collect();

    for db in [
        "geo_db",
        "rate_db",
        "profile_db",
        "rec_db",
        "res_db",
        "user_db",
    ] {
        w.define(db, "MongoDB", vec![]).expect("wiring");
    }
    for cache in ["rate_cache", "profile_cache", "res_cache"] {
        w.define_kw(
            cache,
            "Memcached",
            vec![],
            vec![("capacity", Arg::Int(200_000))],
        )
        .expect("wiring");
    }

    w.service("geo", "GeoServiceImpl", &["geo_db"], &mods)
        .expect("wiring");
    w.service("rate", "RateServiceImpl", &["rate_cache", "rate_db"], &mods)
        .expect("wiring");
    w.service(
        "profile",
        "ProfileServiceImpl",
        &["profile_cache", "profile_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "recommendation",
        "RecommendationServiceImpl",
        &["rec_db"],
        &mods,
    )
    .expect("wiring");
    w.service(
        "reservation",
        "ReservationServiceImpl",
        &["res_cache", "res_db"],
        &mods,
    )
    .expect("wiring");
    w.service("user", "UserServiceImpl", &["user_db"], &mods)
        .expect("wiring");
    w.service("search", "SearchServiceImpl", &["geo", "rate"], &mods)
        .expect("wiring");
    w.service(
        "frontend",
        "FrontendServiceImpl",
        &["search", "profile", "recommendation", "reservation", "user"],
        &mods,
    )
    .expect("wiring");

    finish_monolith(&mut w, opts).expect("monolith grouping");
    w
}

/// The ReservationService's GOGC in the paper's Type-2 metastability setup
/// ("we set the environment variable GOGC to 75", §6.2.1).
const TYPE2_GOGC: i64 = 75;

/// The §6.2.1 Type-2 metastability variant: [`wiring`] plus one declaration
/// that pins the ReservationService into its own process with GOGC 75.
///
/// Panics on monolith options: their one process already holds every
/// service, so the GOGC setting would have nowhere to go.
pub fn wiring_type2(opts: &WiringOpts) -> WiringSpec {
    assert!(opts.containerized, "type2 needs containerized options");
    let mut w = wiring(opts);
    w.define_kw(
        "reservation_proc",
        "Process",
        vec![Arg::r("reservation")],
        vec![("gogc", Arg::Int(TYPE2_GOGC))],
    )
    .expect("wiring");
    w
}

/// The paper's §6.4 mixed workload: 60% hotels (search), 38%
/// recommendations, 1% user, 1% reserve.
pub fn paper_mix() -> ApiMix {
    ApiMix::new()
        .add("frontend", "SearchHotels", 0.60)
        .add("frontend", "Recommend", 0.38)
        .add("frontend", "Login", 0.01)
        .add("frontend", "Reserve", 0.01)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_core::Blueprint;
    use blueprint_simrt::time::secs;

    #[test]
    fn workflow_shape() {
        let wf = workflow();
        assert_eq!(wf.services.len(), 8);
        wf.validate().unwrap();
    }

    #[test]
    fn compiles_with_expected_instance_count() {
        let wf = workflow();
        let w = wiring(&WiringOpts::default());
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        assert_eq!(app.system().services.len(), 8);
        assert_eq!(app.system().backends.len(), 9);
        assert_eq!(app.system().hosts.len(), 8);
    }

    #[test]
    fn serves_all_apis() {
        let wf = workflow();
        let w = wiring(&WiringOpts::default());
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        let mut sim = app.simulation(2).unwrap();
        for (i, m) in ["SearchHotels", "Recommend", "Reserve", "Login"]
            .iter()
            .enumerate()
        {
            sim.submit("frontend", m, i as u64).unwrap();
        }
        sim.run_until(secs(5));
        let done = sim.drain_completions();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.ok), "{done:?}");
    }

    #[test]
    fn thrift_variant_is_one_line_change() {
        use crate::common::RpcChoice;
        let base = wiring(&WiringOpts::default());
        let thrift = wiring(&WiringOpts::default().with_rpc(RpcChoice::Thrift { pool: 4 }));
        let d = blueprint_wiring::diff::spec_diff(&base, &thrift);
        assert_eq!(d.removed, 1, "one wiring line changes");
        assert_eq!(d.added, 1);
        let app = Blueprint::new().compile(&workflow(), &thrift).unwrap();
        let mut sim = app.simulation(2).unwrap();
        sim.submit("frontend", "SearchHotels", 1).unwrap();
        sim.run_until(secs(5));
        assert!(sim.drain_completions()[0].ok);
    }

    #[test]
    fn gogc_variant_lowers_custom_gc() {
        let wf = workflow();
        let w = wiring_type2(&WiringOpts::default());
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        let res = app
            .system()
            .services
            .iter()
            .find(|s| s.name == "reservation")
            .unwrap();
        let proc_ = &app.system().processes[res.process];
        assert_eq!(proc_.gc.as_ref().unwrap().gogc_percent, 75.0);
        let user = app
            .system()
            .services
            .iter()
            .find(|s| s.name == "user")
            .unwrap();
        assert_eq!(
            app.system().processes[user.process]
                .gc
                .as_ref()
                .unwrap()
                .gogc_percent,
            100.0
        );
    }

    #[test]
    #[should_panic(expected = "type2 needs containerized options")]
    fn gogc_variant_rejects_monolith_options() {
        wiring_type2(&WiringOpts::default().monolith());
    }

    #[test]
    fn timeout_retry_variant_applies_to_all_rpcs() {
        let wf = workflow();
        let w = wiring(&WiringOpts::default().with_timeout_retries(500, 10));
        let app = Blueprint::new().compile(&wf, &w).unwrap();
        let fe = app
            .system()
            .services
            .iter()
            .find(|s| s.name == "frontend")
            .unwrap();
        for b in fe.deps.values() {
            assert_eq!(b.client().timeout_ns, Some(500_000_000));
            assert_eq!(b.client().retries, 10);
        }
    }
}
