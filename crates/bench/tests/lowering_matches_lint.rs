//! The simulation lowering and the lint capacity model read one deployment.
//!
//! For each wiring, the lowered `SystemSpec` and the lint's `Model` must
//! agree on hosts, placement, entry services and dependency targets, and
//! every cost parameter the lint reads from a plugin-built node must be the
//! value the lowering put into the client and transport specs.

use blueprint_apps::{
    hotel_reservation as hr, media, social_network as sn, sock_shop, train_ticket, RpcChoice,
    TracerChoice, WiringOpts,
};
use blueprint_core::Blueprint;
use blueprint_ir::{IrGraph, Node, NodeId};
use blueprint_lint::context::{kind, kind_matches, LintContext};
use blueprint_lint::model::Model;
use blueprint_lint::LintConfig;
use blueprint_simrt::{ClientSpec, DepBinding, SystemSpec, TransportSpec};
use blueprint_wiring::{mutate, Arg, WiringSpec};
use blueprint_workflow::WorkflowSpec;

fn cases() -> Vec<(&'static str, WorkflowSpec, WiringSpec)> {
    let opts = WiringOpts::default();
    let mut geo3 = hr::wiring(&opts);
    mutate::replicate(&mut geo3, "geo", 3).unwrap();
    // Thrift, timeouts, retries and a propagated deadline on every hotel
    // service.
    let mut guarded = hr::wiring(
        &opts
            .with_rpc(RpcChoice::Thrift { pool: 4 })
            .with_timeout_retries(300, 2),
    );
    guarded
        .define_kw("dl", "Deadline", vec![], vec![("ms", Arg::Int(800))])
        .unwrap();
    mutate::add_modifier_to_all_services(&mut guarded, "dl").unwrap();
    let mut xtrace = opts.with_rpc(RpcChoice::Http).with_timeout_retries(500, 3);
    xtrace.tracing = Some(TracerChoice::XTrace);
    vec![
        ("hotel", hr::workflow(), hr::wiring(&opts)),
        ("social", sn::workflow(), sn::wiring(&opts)),
        ("media", media::workflow(), media::wiring(&opts)),
        ("sock_shop", sock_shop::workflow(), sock_shop::wiring(&opts)),
        (
            "train_ticket",
            train_ticket::workflow(),
            train_ticket::wiring(&opts),
        ),
        ("hotel_geo_x3", hr::workflow(), geo3),
        ("hotel_thrift_guarded", hr::workflow(), guarded),
        (
            "social_replicated",
            sn::workflow(),
            sn::wiring_inconsistency(&opts, 50, 700),
        ),
        ("social_http_xtrace", sn::workflow(), sn::wiring(&xtrace)),
    ]
}

/// A recorded µs prop as the lowering's ns.
fn us_to_ns(n: &Node, key: &str) -> u64 {
    let us = n
        .props
        .float(key)
        .unwrap_or_else(|| panic!("{} records no `{key}`", n.name));
    (us * 1000.0) as u64
}

fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6).round() as u64
}

/// The modifiers on `node`'s chain whose kind matches `prefix`.
fn modifiers<'g>(ir: &'g IrGraph, node: NodeId, prefix: &str) -> Vec<&'g Node> {
    ir.node(node)
        .unwrap()
        .modifiers()
        .iter()
        .map(|&m| ir.node(m).unwrap())
        .filter(|m| kind_matches(&m.kind, prefix))
        .collect()
}

/// The lowered transport's `(serialize, net)` ns, `None` for a local call.
fn transport_ns(t: &TransportSpec) -> Option<(u64, u64)> {
    match *t {
        TransportSpec::Local => None,
        TransportSpec::Grpc {
            serialize_ns,
            net_ns,
        }
        | TransportSpec::Http {
            serialize_ns,
            net_ns,
        }
        | TransportSpec::Thrift {
            serialize_ns,
            net_ns,
            ..
        } => Some((serialize_ns, net_ns)),
    }
}

/// The callee's recorded props against a lowered client of it.
fn check_client(ctx: &LintContext<'_>, what: &str, callee: NodeId, client: &ClientSpec) {
    let ir = ctx.ir;
    let n = ir.node(callee).unwrap();
    if let Some(lowered) = transport_ns(&client.transport) {
        let server = modifiers(ir, callee, kind::RPC)
            .into_iter()
            .chain(modifiers(ir, callee, kind::HTTP))
            .next()
            .unwrap_or_else(|| panic!("{what}: remote call without a server modifier"));
        let recorded = (us_to_ns(server, "serialize_us"), us_to_ns(server, "net_us"));
        assert_eq!(recorded, lowered, "{what}: transport");
    }
    if n.kind.starts_with("backend") {
        assert_eq!(
            us_to_ns(n, "client_op_us"),
            client.client_overhead_ns,
            "{what}: backend client op"
        );
    }
    for retry in modifiers(ir, callee, kind::RETRY) {
        assert_eq!(
            retry.props.float("max"),
            Some(f64::from(client.retries)),
            "{what}: retries"
        );
    }
    assert_eq!(
        ctx.attempts_into(callee),
        1.0 + f64::from(client.retries),
        "{what}: attempts"
    );
    assert_eq!(
        ctx.timeout_into_ms(callee).map(ms_to_ns),
        client.timeout_ns,
        "{what}: timeout"
    );
    assert_eq!(
        ctx.deadline_into_ms(callee).map(ms_to_ns),
        client.deadline.as_ref().and_then(|d| d.budget_ns),
        "{what}: deadline"
    );
}

fn check(name: &str, wf: &WorkflowSpec, wiring: &WiringSpec) {
    let app = Blueprint::new()
        .without_artifacts()
        .compile(wf, wiring)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let (ir, system): (&IrGraph, &SystemSpec) = (app.ir(), app.system());
    let cfg = LintConfig::default();
    let ctx = LintContext::new(ir, wiring, &cfg, Some(wf));
    let model = Model::build(&ctx).expect("workflow present");
    let node = |n: &str| {
        ir.by_name(n)
            .unwrap_or_else(|| panic!("{name}: no node {n}"))
    };

    let model_hosts: Vec<(&str, f64)> = model
        .machines
        .iter()
        .map(|m| (m.name.as_str(), m.cores))
        .collect();
    let lowered_hosts: Vec<(&str, f64)> = system
        .hosts
        .iter()
        .map(|h| (h.name.as_str(), h.cores))
        .collect();
    assert_eq!(model_hosts, lowered_hosts, "{name}: hosts");
    for s in &system.services {
        assert_eq!(
            model.host_of(node(&s.name)),
            system.processes[s.process].host,
            "{name}: host of {}",
            s.name
        );
    }
    for b in &system.backends {
        assert_eq!(
            model.host_of(node(&b.name)),
            system.processes[b.process].host,
            "{name}: host of {}",
            b.name
        );
    }

    let mut entries: Vec<String> = ctx
        .entry_services()
        .into_iter()
        .map(|e| ctx.node_name(e))
        .collect();
    entries.sort_unstable(); // the lowering keys entries by name
    assert_eq!(
        entries,
        system.entries.keys().cloned().collect::<Vec<_>>(),
        "{name}: entries"
    );
    for (entry, spec) in &system.entries {
        check_client(
            &ctx,
            &format!("{name}: entry {entry}"),
            node(entry),
            &spec.client,
        );
    }

    let mut bindings = 0;
    for s in &system.services {
        let caller = node(&s.name);
        for t in modifiers(ir, caller, kind::TRACER) {
            assert_eq!(
                Some(us_to_ns(t, "overhead_us")),
                s.trace_overhead_ns,
                "{name}: tracer overhead of {}",
                s.name
            );
        }
        for (dep, binding) in &s.deps {
            let what = format!("{name}: {}.{dep}", s.name);
            let (lowered, client): (Vec<&str>, _) = match binding {
                DepBinding::Service { target, client } => {
                    (vec![system.services[*target].name.as_str()], client)
                }
                DepBinding::ReplicatedService {
                    targets, client, ..
                } => (
                    targets
                        .iter()
                        .map(|&t| system.services[t].name.as_str())
                        .collect(),
                    client,
                ),
                DepBinding::Backend { target, client } => {
                    (vec![system.backends[*target].name.as_str()], client)
                }
            };
            let resolved: Vec<String> = model
                .dep_targets(caller, dep)
                .into_iter()
                .map(|t| ctx.node_name(t))
                .collect();
            assert_eq!(resolved, lowered, "{what}: targets");
            for target in &lowered {
                check_client(&ctx, &what, node(target), client);
            }
            bindings += 1;
        }
    }
    assert!(bindings > 0, "{name}: no bindings checked");
}

#[test]
fn lowering_and_lint_read_one_deployment() {
    for (name, wf, wiring) in cases() {
        check(name, &wf, &wiring);
    }
}

/// Two retry policies on one service would lower to the last one's attempts
/// while the lint multiplied both, so the compiler rejects the stack and
/// names the instance and both modifiers.
#[test]
fn stacked_client_modifiers_do_not_compile() {
    let mut wiring = hr::wiring(&WiringOpts::default().with_timeout_retries(300, 2));
    wiring
        .define_kw("retry3", "Retry", vec![], vec![("max", Arg::Int(3))])
        .unwrap();
    mutate::add_modifier_to_all_services(&mut wiring, "retry3").unwrap();
    let err = Blueprint::new()
        .compile(&hr::workflow(), &wiring)
        .unwrap_err()
        .to_string();
    let instance = err
        .split('`')
        .nth(1)
        .unwrap_or_else(|| panic!("no instance named: {err}"));
    assert_eq!(
        err,
        format!(
            "bad modifier {instance}_retry3: instance `{instance}` already has \
             `mod.retry` modifier `{instance}_retry_all`"
        )
    );
}
