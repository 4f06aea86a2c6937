//! Property tests: wiring parse/render round-trips and diff metric laws.

use blueprint_wiring::{
    ast::InstanceDecl, diff, mutate, parse, render, Arg, WiringError, WiringSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random cases per property; case `i` draws from
/// `SmallRng::seed_from_u64(seed ^ i)`.
const CASES: u64 = 256;

/// `len` characters drawn from `set`.
fn chars(rng: &mut SmallRng, set: &str, len: usize) -> String {
    let set = set.as_bytes();
    (0..len)
        .map(|_| set[rng.gen_range(0..set.len())] as char)
        .collect()
}

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const DIGITS: &str = "0123456789";

/// `[a-z][a-z0-9_]{0,8}`, minus the reserved words.
fn ident(rng: &mut SmallRng) -> String {
    loop {
        let n = rng.gen_range(0..=8);
        let s = chars(rng, LOWER, 1) + &chars(rng, &format!("{LOWER}{DIGITS}_"), n);
        if !matches!(s.as_str(), "true" | "false" | "app") {
            return s;
        }
    }
}

/// `[A-Z][A-Za-z0-9]{0,10}`.
fn callee(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..=10);
    chars(rng, UPPER, 1) + &chars(rng, &format!("{UPPER}{LOWER}{DIGITS}"), n)
}

fn literal(rng: &mut SmallRng) -> Arg {
    match rng.gen_range(0..4) {
        0 => Arg::Int(rng.gen_range(-1000..1000)),
        1 => Arg::Float(rng.gen_range(0u32..1000) as f64 / 8.0),
        2 => Arg::Bool(rng.gen()),
        _ => {
            let n = rng.gen_range(0..=12);
            Arg::Str(chars(rng, &format!("{UPPER}{LOWER}{DIGITS} _.:-"), n))
        }
    }
}

/// A spec of 1-11 declarations added in sequence, each of which may
/// reference earlier ones.
fn random_spec(rng: &mut SmallRng) -> WiringSpec {
    let mut spec = WiringSpec::new(ident(rng));
    for i in 0..rng.gen_range(1..12) {
        let name = format!("{}_{i}", ident(rng)); // Ensure uniqueness.
        let callee = callee(rng);
        let mut args: Vec<Arg> = (0..rng.gen_range(0..3)).map(|_| literal(rng)).collect();
        let with_mods: bool = rng.gen();
        let prior: Vec<String> = spec.decls().iter().map(|d| d.name.clone()).collect();
        // Reference up to two earlier declarations.
        for p in prior.iter().take(2) {
            args.push(Arg::Ref(p.clone()));
        }
        let server_modifiers = match prior.last() {
            Some(last) if with_mods => vec![last.clone()],
            _ => Vec::new(),
        };
        let kwargs = if i % 2 == 0 {
            [("opt".to_string(), Arg::Int(i as i64))]
                .into_iter()
                .collect()
        } else {
            Default::default()
        };
        spec.add(InstanceDecl {
            name,
            callee,
            args,
            kwargs,
            server_modifiers,
        })
        .unwrap();
    }
    spec
}

/// Callees the edit sequences draw from: infrastructure the monolith
/// mutation strips, services and balancers it groups, and plain backends.
const CALLEES: [&str; 6] = [
    "Docker",
    "GRPCServer",
    "MongoDB",
    "FooServiceImpl",
    "BarServiceImpl",
    "LoadBalancer",
];

/// The `i`-th name of `spec`, cycling; `None` on an empty spec.
fn pick(spec: &WiringSpec, i: usize) -> Option<String> {
    let decls = spec.decls();
    (!decls.is_empty()).then(|| decls[i % decls.len()].name.clone())
}

/// The `i`-th declaration that references nothing: a modifier attached to
/// any other declaration cannot close a cycle through it.
fn pick_leaf(spec: &WiringSpec, i: usize) -> Option<String> {
    let leaves: Vec<&InstanceDecl> = spec
        .decls()
        .iter()
        .filter(|d| d.referenced().is_empty())
        .collect();
    (!leaves.is_empty()).then(|| leaves[i % leaves.len()].name.clone())
}

/// Applies edit `op` (one of `add` and the `mutate` helpers) with operands
/// `a` and `b`, ignoring the helper's verdict: a rejected edit must leave a
/// consistent spec too. `next` numbers fresh names.
fn apply(spec: &mut WiringSpec, (op, a, b): (u8, usize, usize), next: &mut usize) {
    *next += 1;
    let fresh = format!("n{next}");
    let callee = CALLEES[b % CALLEES.len()];
    let target = pick(spec, a).unwrap_or_else(|| "missing".into());
    let _ = match op {
        0 | 1 => {
            let args = [pick(spec, a), pick(spec, b)]
                .into_iter()
                .flatten()
                .map(Arg::Ref)
                .collect();
            let server_modifiers = pick_leaf(spec, b).into_iter().collect();
            spec.add(InstanceDecl {
                name: fresh,
                callee: callee.into(),
                args,
                kwargs: Default::default(),
                server_modifiers,
            })
        }
        2 => mutate::swap_callee(spec, &target, callee),
        3 => mutate::set_kwarg(spec, &target, "k", Arg::Int(b as i64)),
        4 => mutate::remove_instance(spec, &target),
        5 => mutate::reorder(spec),
        6 => match pick_leaf(spec, b).filter(|m| *m != target) {
            Some(m) => mutate::add_server_modifier(spec, &target, &m),
            None => Ok(()),
        },
        7 => match pick_leaf(spec, b) {
            Some(m) => mutate::add_modifier_to_all_services(spec, &m),
            None => Ok(()),
        },
        8 => mutate::attach_policy_to_all_services(
            spec,
            &format!("policy{}", b % 3),
            "Retry",
            vec![("max", Arg::Int(2))],
        ),
        9 => mutate::attach_overload_protection(spec, 500.0, 0.2, 40.0),
        10 => {
            mutate::remove_modifier_from_all_services(spec, &target);
            Ok(())
        }
        11 => mutate::replicate(spec, &target, 2 + b as i64 % 3).map(drop),
        12 => mutate::set_store_consistency(spec, &target, "quorum", Some((2, 2))),
        13 => mutate::attach_session_consistency(spec, &target),
        _ => mutate::monolithify(spec, &CALLEES[..1 + b % 2]),
    };
}

/// The name index agrees with a scan of `decls()`, rejects every existing
/// name on re-add, and the spec still validates.
fn check_index(spec: &mut WiringSpec, probes: &[String], case: u64) {
    for name in probes {
        let scanned = spec.decls().iter().find(|d| d.name == *name);
        assert_eq!(
            spec.decl(name).map(|d| d as *const InstanceDecl),
            scanned.map(|d| d as *const InstanceDecl),
            "case {case}: decl({name}) disagrees with a scan"
        );
    }
    let names: Vec<String> = spec.decls().iter().map(|d| d.name.clone()).collect();
    for name in names {
        let err = spec.define(&name, "Docker", vec![]).unwrap_err();
        assert_eq!(err, WiringError::DuplicateName(name), "case {case}");
    }
    assert!(
        spec.validate().is_ok(),
        "case {case}: {:?}",
        spec.validate()
    );
}

/// Every edit keeps the name index consistent with the declarations.
#[test]
fn name_index_survives_edit_sequences() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xa301 ^ case);
        let mut spec = WiringSpec::new("edits");
        let mut next = 0;
        let mut probes: Vec<String> = vec!["missing".into(), "monolith".into()];
        for _ in 0..rng.gen_range(1..40) {
            let op = (
                rng.gen_range(0..15),
                rng.gen_range(0..64),
                rng.gen_range(0..64),
            );
            apply(&mut spec, op, &mut next);
            probes.extend(spec.decls().iter().map(|d| d.name.clone()));
            probes.sort();
            probes.dedup();
            check_index(&mut spec, &probes, case);
        }
    }
}

/// render → parse is the identity on spec values.
#[test]
fn parse_render_roundtrip() {
    for case in 0..CASES {
        let spec = random_spec(&mut SmallRng::seed_from_u64(0xa302 ^ case));
        let text = render::render(&spec);
        let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, spec, "case {case}");
    }
}

/// Diff of a spec with itself is empty; diff is symmetric in changed().
#[test]
fn diff_laws() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xa303 ^ case);
        let (a, b) = (random_spec(&mut rng), random_spec(&mut rng));
        assert_eq!(diff::spec_diff(&a, &a).changed(), 0, "case {case}");
        let ab = diff::spec_diff(&a, &b);
        let ba = diff::spec_diff(&b, &a);
        assert_eq!(ab.added, ba.removed, "case {case}");
        assert_eq!(ab.removed, ba.added, "case {case}");
        assert_eq!(ab.unchanged, ba.unchanged, "case {case}");
    }
}

/// LoC equals declaration count and matches rendered non-header lines.
#[test]
fn loc_matches_rendered_lines() {
    for case in 0..CASES {
        let spec = random_spec(&mut SmallRng::seed_from_u64(0xa304 ^ case));
        let text = render::render(&spec);
        let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
        assert_eq!(spec.loc() + 1, lines, "case {case}"); // +1 for the `app` header.
    }
}

/// Validation passes on anything built through the API.
#[test]
fn built_specs_validate() {
    for case in 0..CASES {
        let spec = random_spec(&mut SmallRng::seed_from_u64(0xa305 ^ case));
        spec.validate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
