//! Mutation helpers: the 1-line wiring changes of UC1 (paper §3.1, §6.1).
//!
//! Each helper performs one of the survey's common mutations (switch RPC
//! framework, enable/disable tracing, add replication, monolithify) as an
//! in-place edit of a [`WiringSpec`], so experiments can measure how few
//! lines change between variants via [`crate::diff::spec_diff`].

use std::collections::HashSet;

use crate::ast::{Arg, InstanceDecl, WiringSpec};
use crate::{Result, WiringError};

/// Replaces the callee of an instance (e.g. `GRPCServer` → `ThriftServer`,
/// `Memcached` → `Redis`). This is the paper's canonical 1-LoC instantiation
/// swap.
pub fn swap_callee(spec: &mut WiringSpec, instance: &str, new_callee: &str) -> Result<()> {
    let mut d = spec
        .decl_mut(instance)
        .ok_or_else(|| WiringError::UnknownInstance(instance.to_string()))?;
    d.callee = new_callee.to_string();
    Ok(())
}

/// Sets (or replaces) a keyword argument on an instance (e.g. the Thrift
/// `clientpool` size swept in Fig. 5).
pub fn set_kwarg(spec: &mut WiringSpec, instance: &str, key: &str, value: Arg) -> Result<()> {
    let mut d = spec
        .decl_mut(instance)
        .ok_or_else(|| WiringError::UnknownInstance(instance.to_string()))?;
    d.kwargs.insert(key.to_string(), value);
    Ok(())
}

/// Removes an instance and scrubs every reference to it (from argument lists
/// and server-modifier lists). Used to disable scaffolding, e.g. removing the
/// tracer + tracer modifier (the "disable tracing" mutation, §6.1).
pub fn remove_instance(spec: &mut WiringSpec, instance: &str) -> Result<()> {
    if !spec.remove(instance) {
        return Err(WiringError::UnknownInstance(instance.to_string()));
    }
    spec.edit_all(|d| {
        d.args.retain(|a| a.as_ref_name() != Some(instance));
        for a in &mut d.args {
            scrub_list(a, instance);
        }
        d.kwargs.retain(|_, v| v.as_ref_name() != Some(instance));
        for v in d.kwargs.values_mut() {
            scrub_list(v, instance);
        }
        d.server_modifiers.retain(|m| m != instance);
    });
    Ok(())
}

fn scrub_list(a: &mut Arg, instance: &str) {
    if let Arg::List(items) = a {
        items.retain(|i| i.as_ref_name() != Some(instance));
        for i in items {
            scrub_list(i, instance);
        }
    }
}

/// Stable topological reorder: moves declarations as little as possible so
/// every reference is declared before use. Mutation helpers call this after
/// edits that may have introduced forward references (e.g. attaching a
/// freshly declared modifier to an earlier service).
pub fn reorder(spec: &mut WiringSpec) -> Result<()> {
    let decls = spec.take_decls();
    // Each pass emits, in order, every pending declaration whose references
    // are all emitted, until a pass emits nothing.
    let mut order: Vec<usize> = Vec::with_capacity(decls.len());
    let mut cyclic = None;
    {
        let mut emitted: HashSet<&str> = HashSet::with_capacity(decls.len());
        let mut pending: Vec<usize> = (0..decls.len()).collect();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|&i| {
                let ready = decls[i].referenced().iter().all(|r| emitted.contains(r));
                if ready {
                    emitted.insert(&decls[i].name);
                    order.push(i);
                }
                !ready
            });
            if pending.len() == before {
                cyclic = Some(decls[pending[0]].name.clone());
                order.extend(pending);
                break;
            }
        }
    }
    let mut slots: Vec<Option<InstanceDecl>> = decls.into_iter().map(Some).collect();
    spec.set_decls(
        order
            .into_iter()
            .map(|i| slots[i].take().expect("each position once"))
            .collect(),
    );
    match cyclic {
        Some(cyclic) => Err(WiringError::UndefinedRef {
            instance: cyclic.clone(),
            referenced: format!("<cyclic or missing dependency of {cyclic}>"),
        }),
        None => Ok(()),
    }
}

/// Appends a modifier to the server-modifier chain of `instance`
/// (e.g. enabling a circuit breaker or X-Trace on one service: 1 LoC to
/// declare the modifier + this call per service).
pub fn add_server_modifier(spec: &mut WiringSpec, instance: &str, modifier: &str) -> Result<()> {
    if spec.decl(modifier).is_none() {
        return Err(WiringError::UndefinedRef {
            instance: instance.to_string(),
            referenced: modifier.to_string(),
        });
    }
    let mut d = spec
        .decl_mut(instance)
        .ok_or_else(|| WiringError::UnknownInstance(instance.to_string()))?;
    if !d.server_modifiers.iter().any(|m| m == modifier) {
        d.server_modifiers.push(modifier.to_string());
    }
    drop(d);
    reorder(spec)
}

/// Appends a modifier to every declaration that already carries server
/// modifiers (i.e. every deployed service). This is the "enable tracing for
/// all services" mutation.
pub fn add_modifier_to_all_services(spec: &mut WiringSpec, modifier: &str) -> Result<()> {
    if spec.decl(modifier).is_none() {
        return Err(WiringError::UnknownInstance(modifier.to_string()));
    }
    let targets: Vec<String> = spec
        .decls()
        .iter()
        .filter(|d| !d.server_modifiers.is_empty() && d.name != modifier)
        .map(|d| d.name.clone())
        .collect();
    for t in targets {
        let mut d = spec.decl_mut(&t).expect("target exists");
        if !d.server_modifiers.iter().any(|m| m == modifier) {
            d.server_modifiers.push(modifier.to_string());
        }
    }
    reorder(spec)
}

/// Declares a scaffolding policy instance (`name = Callee(kwargs...)`) and
/// attaches it to every deployed service — the one-call form of the common
/// "add retries / a breaker / a timeout everywhere" resilience mutation.
pub fn attach_policy_to_all_services(
    spec: &mut WiringSpec,
    name: &str,
    callee: &str,
    kwargs: Vec<(&str, Arg)>,
) -> Result<()> {
    spec.define_kw(name, callee, vec![], kwargs)?;
    add_modifier_to_all_services(spec, name)
}

/// Attaches the full overload-protection stack in one call: declares
/// `deadline_all = Deadline(ms=...)`, `budget_all = RetryBudget(ratio=...)`
/// and `shed_all = LoadShed(target_ms=...)` and attaches each to every
/// deployed service. This is the "cure the metastability" mutation: deadlines
/// bound queued work, the retry budget caps wire amplification at
/// `1 + ratio`, and adaptive shedding breaks the queue-growth feedback loop.
pub fn attach_overload_protection(
    spec: &mut WiringSpec,
    deadline_ms: f64,
    budget_ratio: f64,
    shed_target_ms: f64,
) -> Result<()> {
    attach_policy_to_all_services(
        spec,
        "deadline_all",
        "Deadline",
        vec![("ms", Arg::Float(deadline_ms))],
    )?;
    attach_policy_to_all_services(
        spec,
        "budget_all",
        "RetryBudget",
        vec![("ratio", Arg::Float(budget_ratio))],
    )?;
    attach_policy_to_all_services(
        spec,
        "shed_all",
        "LoadShed",
        vec![("target_ms", Arg::Float(shed_target_ms))],
    )
}

/// Removes a modifier from every server-modifier chain (but keeps its
/// declaration; combine with [`remove_instance`] to fully disable it).
pub fn remove_modifier_from_all_services(spec: &mut WiringSpec, modifier: &str) {
    spec.edit_all(|d| d.server_modifiers.retain(|m| m != modifier));
}

/// Adds p-Replication to an instance: declares `"{instance}_replicas" =
/// Replicate(count=n)` right before the instance and attaches it as a server
/// modifier: the compiler expands it into `count` copies of the instance
/// behind a round-robin load balancer. (The §6.2.2 cross-system-inconsistency
/// variant does not use this: it splits the user-timeline service into
/// explicitly declared replicas with their own caches.)
pub fn replicate(spec: &mut WiringSpec, instance: &str, count: i64) -> Result<String> {
    if spec.decl(instance).is_none() {
        return Err(WiringError::UnknownInstance(instance.to_string()));
    }
    let mod_name = format!("{instance}_replicas");
    if spec.decl(&mod_name).is_some() {
        return Err(WiringError::DuplicateName(mod_name));
    }
    let decl = InstanceDecl {
        name: mod_name.clone(),
        callee: "Replicate".into(),
        args: vec![],
        kwargs: [("count".to_string(), Arg::Int(count))]
            .into_iter()
            .collect(),
        server_modifiers: vec![],
    };
    spec.insert_before(instance, decl)?;
    spec.decl_mut(instance)
        .expect("instance present")
        .server_modifiers
        .push(mod_name.clone());
    Ok(mod_name)
}

/// Sets a replicated store's read/write discipline — the 1-line fix the
/// BP016/BP017 consistency lints suggest. `mode` is one of the simulator's
/// mode labels: `"primary"`, `"read_replica"`, `"quorum"`, `"session"`.
/// For `"quorum"`, `quorum` supplies `(w, r)` (defaults to `(2, 2)` when
/// `None`); for every other mode it must be `None`.
pub fn set_store_consistency(
    spec: &mut WiringSpec,
    instance: &str,
    mode: &str,
    quorum: Option<(i64, i64)>,
) -> Result<()> {
    if !matches!(mode, "primary" | "read_replica" | "quorum" | "session") {
        return Err(WiringError::BadArg(format!(
            "unknown consistency mode `{mode}` (expected primary, \
             read_replica, quorum, or session)"
        )));
    }
    if quorum.is_some() && mode != "quorum" {
        return Err(WiringError::BadArg(format!(
            "quorum parameters given for consistency mode `{mode}`"
        )));
    }
    let mut d = spec
        .decl_mut(instance)
        .ok_or_else(|| WiringError::UnknownInstance(instance.to_string()))?;
    d.kwargs
        .insert("consistency".to_string(), Arg::Str(mode.to_string()));
    if mode == "quorum" {
        let (w, r) = quorum.unwrap_or((2, 2));
        d.kwargs.insert("quorum_w".to_string(), Arg::Int(w));
        d.kwargs.insert("quorum_r".to_string(), Arg::Int(r));
    } else {
        d.kwargs.remove("quorum_w");
        d.kwargs.remove("quorum_r");
    }
    Ok(())
}

/// Attaches the session (read-your-writes) guarantee to a replicated store —
/// sugar over [`set_store_consistency`] matching the BP016 lint's suggested
/// fix verbatim.
pub fn attach_session_consistency(spec: &mut WiringSpec, instance: &str) -> Result<()> {
    set_store_consistency(spec, instance, "session", None)
}

/// The instances a monolith groups into its one process: every service (by
/// the repo-wide convention that workflow service callees end in `Impl`, as
/// in the paper's Fig. 3) and every `LoadBalancer` in front of services.
pub fn monolith_members(spec: &WiringSpec) -> Vec<String> {
    spec.decls()
        .iter()
        .filter(|d| d.callee.ends_with("Impl") || d.callee == "LoadBalancer")
        .map(|d| d.name.clone())
        .collect()
}

/// Converts the spec to a monolith variant (paper §6.1 "monolithic
/// versions"): strips RPC server and deployer modifiers from all services and
/// groups every [`monolith_members`] instance into a single `Process`, so
/// calls compile to plain function calls.
///
/// `infra_callees` lists modifier callees to strip (RPC servers, deployers).
pub fn monolithify(spec: &mut WiringSpec, infra_callees: &[&str]) -> Result<()> {
    let infra: Vec<String> = spec
        .decls()
        .iter()
        .filter(|d| infra_callees.contains(&d.callee.as_str()))
        .map(|d| d.name.clone())
        .collect();
    for m in &infra {
        remove_modifier_from_all_services(spec, m);
        remove_instance(spec, m)?;
    }
    let members = monolith_members(spec);
    let refs: Vec<&str> = members.iter().map(String::as_str).collect();
    spec.process("monolith", &refs)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::spec_diff;

    fn base() -> WiringSpec {
        let mut w = WiringSpec::new("app");
        w.define("deployer", "Docker", vec![]).unwrap();
        w.define("rpc", "GRPCServer", vec![]).unwrap();
        w.define("tracer", "ZipkinTracer", vec![]).unwrap();
        w.define_kw(
            "tracer_mod",
            "TracerModifier",
            vec![],
            vec![("tracer", Arg::r("tracer"))],
        )
        .unwrap();
        w.define("db", "MongoDB", vec![]).unwrap();
        w.service(
            "a",
            "AServiceImpl",
            &["db"],
            &["rpc", "deployer", "tracer_mod"],
        )
        .unwrap();
        w.service(
            "b",
            "BServiceImpl",
            &["a"],
            &["rpc", "deployer", "tracer_mod"],
        )
        .unwrap();
        w
    }

    #[test]
    fn rpc_swap_is_one_line() {
        let old = base();
        let mut new = base();
        swap_callee(&mut new, "rpc", "ThriftServer").unwrap();
        set_kwarg(&mut new, "rpc", "clientpool", Arg::Int(4)).unwrap();
        new.validate().unwrap();
        let d = spec_diff(&old, &new);
        assert_eq!(d.removed, 1);
        assert_eq!(d.added, 1);
    }

    #[test]
    fn disable_tracing_scrubs_references() {
        let mut w = base();
        remove_modifier_from_all_services(&mut w, "tracer_mod");
        remove_instance(&mut w, "tracer_mod").unwrap();
        remove_instance(&mut w, "tracer").unwrap();
        w.validate().unwrap();
        assert!(w.decl("tracer").is_none());
        assert!(w
            .decl("a")
            .unwrap()
            .server_modifiers
            .iter()
            .all(|m| m != "tracer_mod"));
        let d = spec_diff(&base(), &w);
        // 2 removed declarations + 2 rewritten service lines.
        assert_eq!(d.removed, 4);
        assert_eq!(d.added, 2);
    }

    #[test]
    fn replicate_inserts_before_instance() {
        let mut w = base();
        let m = replicate(&mut w, "a", 3).unwrap();
        assert_eq!(m, "a_replicas");
        w.validate().unwrap();
        let a = w.decl("a").unwrap();
        assert!(a.server_modifiers.contains(&"a_replicas".to_string()));
        assert_eq!(
            w.decl("a_replicas")
                .unwrap()
                .kwarg("count")
                .unwrap()
                .as_int(),
            Some(3)
        );
        // Only 1 added declaration + 1 rewritten service line.
        let d = spec_diff(&base(), &w);
        assert_eq!(d.added, 2);
        assert_eq!(d.removed, 1);
    }

    #[test]
    fn monolithify_groups_services() {
        let mut w = base();
        monolithify(&mut w, &["GRPCServer", "Docker"]).unwrap();
        w.validate().unwrap();
        assert!(w.decl("rpc").is_none());
        assert!(w.decl("deployer").is_none());
        let mono = w.decl("monolith").unwrap();
        assert_eq!(mono.callee, "Process");
        assert_eq!(mono.args.len(), 2);
        // Tracer remains — monolith keeps tracing.
        assert!(w.decl("tracer_mod").is_some());
    }

    #[test]
    fn add_modifier_to_all_services_is_idempotent() {
        let mut w = base();
        w.define("cb", "CircuitBreaker", vec![]).unwrap();
        add_modifier_to_all_services(&mut w, "cb").unwrap();
        add_modifier_to_all_services(&mut w, "cb").unwrap();
        assert_eq!(
            w.decl("a")
                .unwrap()
                .server_modifiers
                .iter()
                .filter(|m| *m == "cb")
                .count(),
            1
        );
        assert_eq!(w.decl("b").unwrap().server_modifiers.last().unwrap(), "cb");
    }

    #[test]
    fn attach_policy_declares_and_attaches_everywhere() {
        let mut w = base();
        attach_policy_to_all_services(
            &mut w,
            "retry_all",
            "Retry",
            vec![("max", Arg::Int(3)), ("backoff_ms", Arg::Int(2))],
        )
        .unwrap();
        w.validate().unwrap();
        assert_eq!(w.decl("retry_all").unwrap().callee, "Retry");
        for svc in ["a", "b"] {
            assert!(w
                .decl(svc)
                .unwrap()
                .server_modifiers
                .contains(&"retry_all".to_string()));
        }
        // Redeclaring the same policy name is rejected.
        assert!(attach_policy_to_all_services(&mut w, "retry_all", "Retry", vec![]).is_err());
    }

    #[test]
    fn attach_overload_protection_declares_all_three() {
        let mut w = base();
        attach_overload_protection(&mut w, 500.0, 0.2, 40.0).unwrap();
        w.validate().unwrap();
        assert_eq!(w.decl("deadline_all").unwrap().callee, "Deadline");
        assert_eq!(w.decl("budget_all").unwrap().callee, "RetryBudget");
        assert_eq!(w.decl("shed_all").unwrap().callee, "LoadShed");
        for svc in ["a", "b"] {
            let mods = &w.decl(svc).unwrap().server_modifiers;
            for m in ["deadline_all", "budget_all", "shed_all"] {
                assert!(mods.contains(&m.to_string()), "{svc} missing {m}");
            }
        }
    }

    #[test]
    fn unknown_targets_error() {
        let mut w = base();
        assert!(matches!(
            swap_callee(&mut w, "zzz", "X").unwrap_err(),
            WiringError::UnknownInstance(_)
        ));
        assert!(matches!(
            add_server_modifier(&mut w, "a", "zzz").unwrap_err(),
            WiringError::UndefinedRef { .. }
        ));
        assert!(remove_instance(&mut w, "zzz").is_err());
        assert!(replicate(&mut w, "zzz", 2).is_err());
    }

    #[test]
    fn monolith_members_by_convention() {
        let mut w = base();
        w.define("lb", "LoadBalancer", vec![Arg::r("a"), Arg::r("b")])
            .unwrap();
        assert_eq!(monolith_members(&w), ["a", "b", "lb"]);
    }

    #[test]
    fn set_store_consistency_is_a_one_line_diff() {
        let before = base();
        let mut w = base();
        attach_session_consistency(&mut w, "db").unwrap();
        assert_eq!(
            w.decl("db").unwrap().kwargs.get("consistency"),
            Some(&Arg::Str("session".into()))
        );
        // The lint's suggested fix is one changed wiring line (one removed,
        // one added in the rendered spec).
        let d = spec_diff(&before, &w);
        assert_eq!((d.added, d.removed), (1, 1));

        set_store_consistency(&mut w, "db", "quorum", Some((2, 3))).unwrap();
        let d = w.decl("db").unwrap();
        assert_eq!(d.kwargs.get("quorum_w"), Some(&Arg::Int(2)));
        assert_eq!(d.kwargs.get("quorum_r"), Some(&Arg::Int(3)));
        // Leaving quorum mode scrubs the quorum parameters.
        set_store_consistency(&mut w, "db", "primary", None).unwrap();
        let d = w.decl("db").unwrap();
        assert!(!d.kwargs.contains_key("quorum_w"));
        assert!(!d.kwargs.contains_key("quorum_r"));
    }

    #[test]
    fn set_store_consistency_rejects_bad_arguments() {
        let mut w = base();
        assert!(matches!(
            set_store_consistency(&mut w, "db", "eventual", None).unwrap_err(),
            WiringError::BadArg(_)
        ));
        assert!(matches!(
            set_store_consistency(&mut w, "db", "session", Some((2, 2))).unwrap_err(),
            WiringError::BadArg(_)
        ));
        assert!(matches!(
            set_store_consistency(&mut w, "zzz", "session", None).unwrap_err(),
            WiringError::UnknownInstance(_)
        ));
    }
}
