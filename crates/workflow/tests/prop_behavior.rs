//! Property tests over behavior programs and workflow-spec validation.

use blueprint_ir::types::{MethodSig, TypeRef};
use blueprint_workflow::{
    BackendKind, Behavior, KeyExpr, ServiceBuilder, ServiceInterface, Step, WorkflowError,
    WorkflowSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random cases per property; case `i` draws from
/// `SmallRng::seed_from_u64(seed ^ i)`.
const CASES: usize = 128;

fn leaf_step(rng: &mut SmallRng) -> Step {
    match rng.gen_range(0..6) {
        0 => Step::Compute {
            cpu_ns: rng.gen_range(1_000..1_000_000),
            alloc_bytes: rng.gen_range(0..65_536),
        },
        1 => Step::Call {
            dep: "svc".into(),
            method: "M".into(),
        },
        2 => Step::Cache {
            dep: "cache".into(),
            op: blueprint_workflow::CacheOp::Get,
            key: KeyExpr::Entity,
        },
        3 => Step::Db {
            dep: "db".into(),
            op: blueprint_workflow::DbOp::Write,
            key: KeyExpr::Const(3),
        },
        4 => Step::QueuePush { dep: "q".into() },
        _ => Step::Fail {
            prob: rng.gen_range(0.0..1.0),
        },
    }
}

/// A random behavior of 0-4 steps over a fixed dep vocabulary, nesting
/// sub-behaviors `depth` levels deep.
fn behavior(rng: &mut SmallRng, depth: u32) -> Behavior {
    let steps = (0..rng.gen_range(0..5))
        .map(|_| match if depth == 0 { 0 } else { rng.gen_range(0..5) } {
            0 => leaf_step(rng),
            1 => Step::Parallel(
                (0..rng.gen_range(1..3))
                    .map(|_| behavior(rng, depth - 1))
                    .collect(),
            ),
            2 => Step::Branch {
                prob: rng.gen_range(0.0..1.0),
                then: behavior(rng, depth - 1),
                otherwise: behavior(rng, depth - 1),
            },
            3 => Step::Repeat {
                times: rng.gen_range(1..4),
                body: behavior(rng, depth - 1),
            },
            _ => Step::CacheGetOrFetch {
                cache: "cache".into(),
                key: KeyExpr::Entity,
                on_miss: behavior(rng, depth - 1),
            },
        })
        .collect();
    Behavior { steps }
}

/// The first `CASES` behaviors drawn under `seed` at nesting `depth` that
/// satisfy `keep`, with their case numbers.
fn behaviors(
    seed: u64,
    depth: u32,
    keep: impl Fn(&Behavior) -> bool,
) -> impl Iterator<Item = (u64, Behavior)> {
    (0..)
        .map(move |case| {
            let b = behavior(&mut SmallRng::seed_from_u64(seed ^ case), depth);
            (case, b)
        })
        .filter(move |(_, b)| keep(b))
        .take(CASES)
}

/// `size` counts at least one per step and dominates `calls`/`dep_uses`.
#[test]
fn size_dominates_collections() {
    for (case, b) in behaviors(0xb401, 2, |_| true) {
        let size = b.size();
        assert!(size >= b.steps.len(), "case {case}");
        assert!(b.calls().len() <= size, "case {case}");
        assert!(b.dep_uses().len() <= size, "case {case}");
    }
}

/// Every dep a behavior uses belongs to the fixed vocabulary, and a
/// service declaring exactly that vocabulary always validates.
#[test]
fn declared_vocabulary_validates() {
    for (case, b) in behaviors(0xb402, 2, |_| true) {
        for (dep, family) in b.dep_uses() {
            let expected = match dep {
                "svc" => "service",
                "cache" => "cache",
                "db" => "db",
                "q" => "queue",
                other => panic!("case {case}: unexpected dep {other}"),
            };
            assert_eq!(family, expected, "case {case}");
        }
        let svc = ServiceBuilder::new(
            "SImpl",
            ServiceInterface::new("S", vec![MethodSig::new("Run", vec![], TypeRef::Unit)]),
        )
        .dep_service("svc", "T")
        .dep_cache("cache")
        .dep_nosql("db")
        .dep_backend("q", BackendKind::Queue)
        .method("Run", b)
        .done();
        assert!(svc.is_ok(), "case {case}: {:?}", svc.err());
    }
}

/// Dropping a dependency declaration used by the behavior always fails
/// validation with the right error. Runs `CASES` behaviors that use the
/// cache.
#[test]
fn missing_dep_always_caught() {
    let uses_cache = |b: &Behavior| b.dep_uses().iter().any(|(d, _)| *d == "cache");
    for (case, b) in behaviors(0xb403, 2, uses_cache) {
        let svc = ServiceBuilder::new(
            "SImpl",
            ServiceInterface::new("S", vec![MethodSig::new("Run", vec![], TypeRef::Unit)]),
        )
        .dep_service("svc", "T")
        .dep_nosql("db")
        .dep_backend("q", BackendKind::Queue)
        .method("Run", b)
        .done();
        assert!(
            matches!(svc, Err(WorkflowError::UnknownDep { .. })),
            "case {case}: {svc:?}"
        );
    }
}

/// Whole-spec validation accepts a two-service spec whose frontend runs
/// a random behavior against a matching leaf.
#[test]
fn spec_level_validation() {
    let calls_leaf = |b: &Behavior| b.calls().iter().all(|(_, m)| *m == "M");
    for (case, b) in behaviors(0xb404, 1, calls_leaf) {
        let mut spec = WorkflowSpec::new("p");
        let leaf = ServiceBuilder::new(
            "TImpl",
            ServiceInterface::new("T", vec![MethodSig::new("M", vec![], TypeRef::Unit)]),
        )
        .method("M", Behavior::build().compute(1_000, 0).done())
        .done()
        .unwrap();
        spec.add_service(leaf).unwrap();
        let front = ServiceBuilder::new(
            "SImpl",
            ServiceInterface::new("S", vec![MethodSig::new("Run", vec![], TypeRef::Unit)]),
        )
        .dep_service("svc", "T")
        .dep_cache("cache")
        .dep_nosql("db")
        .dep_backend("q", BackendKind::Queue)
        .method("Run", b)
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        assert!(
            spec.validate().is_ok(),
            "case {case}: {:?}",
            spec.validate()
        );
    }
}
