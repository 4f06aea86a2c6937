//! The set-up path's indexed lookups agree with the definitions they
//! replaced, on the post-pass IR of the ported applications.
//!
//! * `Registry::for_kind` resolves through a kind → plugin map built at
//!   registration; the oracle here is the scan it replaced: every owned kind
//!   of every plugin, the longest one equal to the kind or a prefix of it
//!   ending before a `.` winning, the first registered on a tie.
//! * `IrGraph::boundary_between` walks each node's ancestors once; the
//!   oracle is its definition, the coarsest granularity `g` at which
//!   `enclosing(a, g) != enclosing(b, g)`.

use std::collections::BTreeSet;

use blueprint_apps::{
    hotel_reservation as hr, media, social_network as sn, sock_shop, train_ticket, RpcChoice,
    WiringOpts,
};
use blueprint_core::Blueprint;
use blueprint_ir::{Granularity, IrGraph, NodeId};
use blueprint_plugins::{BuildCtx, Plugin, PluginResult, Registry};
use blueprint_wiring::{mutate, InstanceDecl};

/// The kind lookup as a scan over every plugin's owned kinds.
fn scan_for_kind<'r>(registry: &'r Registry, kind: &str) -> Option<&'r dyn Plugin> {
    let mut best: Option<(&dyn Plugin, usize)> = None;
    for p in registry.iter() {
        for owned in p.owns_kinds() {
            let is_match =
                kind == owned || (kind.starts_with(owned) && kind[owned.len()..].starts_with('.'));
            if is_match && best.map(|(_, l)| owned.len() > l).unwrap_or(true) {
                best = Some((p, owned.len()));
            }
        }
    }
    best.map(|(p, _)| p)
}

/// A plugin that owns the given kinds and nothing else.
struct Prefixes(Vec<&'static str>);

impl Plugin for Prefixes {
    fn name(&self) -> &'static str {
        "prefixes"
    }
    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        _ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId> {
        Ok(ir.add_component(&decl.name, "prefix", Granularity::Instance)?)
    }
    fn owns_kinds(&self) -> Vec<&'static str> {
        self.0.clone()
    }
}

/// A plugin's identity: the address of its data.
fn id(p: Option<&dyn Plugin>) -> Option<*const u8> {
    p.map(|p| p as *const dyn Plugin as *const u8)
}

/// `boundary_between` as its definition states it.
fn boundary_by_definition(ir: &IrGraph, a: NodeId, b: NodeId) -> Option<Granularity> {
    if a == b {
        return None;
    }
    let mut crossed = None;
    for g in [
        Granularity::Process,
        Granularity::Container,
        Granularity::Machine,
        Granularity::Region,
    ] {
        if ir.enclosing(a, g) != ir.enclosing(b, g) {
            crossed = Some(g);
        }
    }
    crossed
}

#[test]
fn kind_index_matches_the_longest_dot_prefix_scan() {
    let opts = WiringOpts::default();
    let apps = [
        (hr::workflow(), hr::wiring(&opts)),
        (sn::workflow(), sn::wiring(&opts)),
        (media::workflow(), media::wiring(&opts)),
        (train_ticket::workflow(), train_ticket::wiring(&opts)),
        (sock_shop::workflow(), sock_shop::wiring(&opts)),
        // Scaffolding the default wirings leave out.
        (
            hr::workflow(),
            hr::wiring(
                &opts
                    .with_rpc(RpcChoice::Thrift { pool: 4 })
                    .with_timeout_retries(500, 2),
            ),
        ),
    ];
    let bp = Blueprint::new();
    let mut kinds: BTreeSet<String> = BTreeSet::new();
    for (wf, wiring) in &apps {
        let app = bp.compile(wf, wiring).expect("compiles");
        let ir = app.ir();
        for (_, n) in ir.nodes() {
            kinds.insert(n.kind.clone());
            for &m in n.modifiers() {
                kinds.insert(ir.node(m).expect("live modifier").kind.clone());
            }
        }
    }
    assert!(kinds.len() >= 17, "only {} kinds: {kinds:?}", kinds.len());
    // The built-in plugins own no nested kinds, so a registry with one
    // more plugin owning every dot-prefix of every kind, and as a tie the
    // kinds themselves, checks the longest-prefix and first-registered
    // rules on real kinds and their sub-kinds.
    let mut nested = Registry::extended();
    let prefixes: BTreeSet<&'static str> = kinds
        .iter()
        .flat_map(|k| {
            k.match_indices('.')
                .map(|(i, _)| &k[..i])
                .chain([k.as_str()])
        })
        .map(|p| &*Box::leak(p.to_string().into_boxed_str()))
        .collect();
    nested.register(Prefixes(prefixes.into_iter().collect()));
    let sub: Vec<String> = kinds.iter().map(|k| format!("{k}.sub")).collect();
    kinds.extend(sub);
    // Near misses around the owned kinds.
    for extra in [
        "",
        ".",
        "backend.cachex",
        "backend.",
        "mod.rpc.grpcx.server",
        "x.y",
    ] {
        kinds.insert(extra.to_string());
    }
    let owned = [
        Registry::empty(),
        Registry::core(),
        Registry::extended(),
        nested,
    ];
    let mut resolved = 0;
    for registry in owned.iter().chain([bp.compiler().registry()]) {
        for kind in &kinds {
            let indexed = registry.for_kind(kind);
            assert_eq!(
                id(indexed),
                id(scan_for_kind(registry, kind)),
                "kind `{kind}`"
            );
            resolved += usize::from(indexed.is_some());
        }
    }
    assert!(resolved > kinds.len(), "too few kinds resolved: {resolved}");
}

#[test]
fn boundary_walk_matches_its_definition() {
    let opts = WiringOpts::default();
    let mut hotel = hr::wiring(&opts);
    mutate::replicate(&mut hotel, "geo", 3).expect("geo exists");
    let systems = [
        (hr::workflow(), hotel),
        (
            sn::workflow(),
            sn::wiring_inconsistency(&opts.without_tracing(), 100, 400),
        ),
    ];
    let bp = Blueprint::new();
    let mut seen: BTreeSet<Option<Granularity>> = BTreeSet::new();
    let mut replicas = 0;
    for (wf, wiring) in &systems {
        let app = bp.compile(wf, wiring).expect("compiles");
        let ir = app.ir();
        let ids: Vec<NodeId> = ir.live_node_ids().collect();
        assert!(
            ir.nodes().any(|(_, n)| n.kind == "component.loadbalancer"),
            "no load balancer"
        );
        replicas += ir
            .nodes()
            .filter(|(_, n)| n.name.starts_with("geo_r"))
            .count();
        for &a in &ids {
            for &b in &ids {
                let walked = ir.boundary_between(a, b);
                assert_eq!(walked, boundary_by_definition(ir, a, b), "{a} → {b}");
                seen.insert(walked);
            }
        }
    }
    assert!(replicas >= 2, "geo was not replicated");
    for g in [
        None,
        Some(Granularity::Process),
        Some(Granularity::Container),
        Some(Granularity::Machine),
    ] {
        assert!(seen.contains(&g), "no pair crosses {g:?}");
    }
}
