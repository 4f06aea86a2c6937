//! RPC/HTTP framework plugins (the instantiation dimension of Fig. 5).
//!
//! Each framework is a server modifier: attaching it to a service wraps the
//! service with generated server/client code, and — crucially — *widens the
//! visibility* of the service's inbound edges so remote callers become
//! addressable (paper §4.2).

pub mod grpc;
pub mod http;
pub mod thrift;

pub use grpc::GrpcPlugin;
pub use http::HttpPlugin;
pub use thrift::ThriftPlugin;

use blueprint_ir::types::snake_case;
use blueprint_ir::{Granularity, IrGraph, MethodSig, Node, NodeId, NodeRole};
use blueprint_wiring::InstanceDecl;

use crate::api::{PluginError, PluginResult};

/// Builds a modifier node. `defaults` are recorded on the node as props, so
/// the lowering hooks and the lint read one value; a numeric kwarg named in
/// `optional` or `defaults` then overrides its prop. Any other kwarg is an
/// error.
pub fn server_modifier(
    decl: &InstanceDecl,
    ir: &mut IrGraph,
    kind: &str,
    optional: &[&str],
    defaults: &[(&str, f64)],
) -> PluginResult<NodeId> {
    let node = ir.add_node(Node::new(
        &decl.name,
        kind,
        NodeRole::Modifier,
        Granularity::Instance,
    ))?;
    let props = &mut ir.node_mut(node)?.props;
    for &(key, v) in defaults {
        props.set(key, v);
    }
    for (k, v) in &decl.kwargs {
        if !optional.contains(&k.as_str()) && !defaults.iter().any(|(d, _)| d == k) {
            return Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: format!("unknown kwarg `{k}` = {v:?}"),
            });
        }
        if let Some(f) = v.as_float() {
            props.set(k.as_str(), f);
        }
    }
    Ok(node)
}

/// The per-call `(serialize, net)` costs, in ns, that a server modifier's
/// build recorded as `serialize_us` / `net_us`.
pub fn transport_ns(n: &Node) -> (u64, u64) {
    let ns = |key| (n.props.float_or(key, 0.0) * 1000.0) as u64;
    (ns("serialize_us"), ns("net_us"))
}

/// The inbound method signatures of the component a modifier is attached to
/// (what the generated server must expose).
pub fn exposed_methods(modifier: NodeId, ir: &IrGraph) -> Vec<MethodSig> {
    let Some(target) = ir.node(modifier).ok().and_then(|n| n.attached_to()) else {
        return Vec::new();
    };
    let mut methods: Vec<MethodSig> = ir
        .in_edges(target)
        .iter()
        .filter_map(|e| ir.edge(*e).ok())
        .flat_map(|e| e.methods.iter().cloned())
        .collect();
    methods.sort_by(|a, b| a.name.cmp(&b.name));
    methods.dedup_by(|a, b| a.name == b.name);
    methods
}

/// Name of the component a modifier wraps (empty when unattached).
pub fn target_name(modifier: NodeId, ir: &IrGraph) -> String {
    ir.node(modifier)
        .ok()
        .and_then(|n| n.attached_to())
        .and_then(|t| ir.node(t).ok())
        .map(|t| t.name.clone())
        .unwrap_or_default()
}

/// Renders the generated client+server wrapper pair for a framework
/// (cf. paper Fig. 13b for gRPC): connection setup from environment
/// variables, request/response marshalling stubs, and server registration.
pub fn render_wrappers(framework: &str, service: &str, methods: &[MethodSig]) -> String {
    let snake = snake_case(service);
    let camel = blueprint_ir::types::camel_case(&snake);
    let mut out = format!("//! Generated {framework} server and client for `{service}`.\n\n");
    out.push_str(&format!(
        "pub struct {camel}{framework}Server<S> {{\n    service: S,\n}}\n\n"
    ));
    out.push_str(&format!("impl<S> {camel}{framework}Server<S> {{\n"));
    out.push_str(&format!(
        "    pub fn serve(service: S) -> Result<(), Error> {{\n        \
         let addr = env(\"{}_ADDRESS\")?;\n        \
         let port = env(\"{}_PORT\")?;\n        \
         let listener = listen(addr, port)?;\n        \
         run_{framework_lc}_server(listener, service)\n    }}\n",
        service.to_uppercase(),
        service.to_uppercase(),
        framework_lc = framework.to_lowercase(),
    ));
    for m in methods {
        out.push_str(&format!(
            "    fn handle_{}(&self, req: {camel}{}Request) -> Result<{camel}{}Response, Error> {{\n",
            snake_case(&m.name),
            m.name,
            m.name
        ));
        out.push_str("        let args = decode(req)?;\n");
        out.push_str(&format!(
            "        let ret = self.service.{}(args)?;\n        encode(ret)\n    }}\n",
            snake_case(&m.name)
        ));
    }
    out.push_str("}\n\n");
    out.push_str(&format!(
        "pub struct {camel}{framework}Client {{\n    conn: Connection,\n}}\n\n"
    ));
    out.push_str(&format!("impl {camel}{framework}Client {{\n"));
    out.push_str(&format!(
        "    pub fn dial() -> Result<Self, Error> {{\n        \
         Ok(Self {{ conn: dial_env(\"{}_ADDRESS\", \"{}_PORT\")? }})\n    }}\n",
        service.to_uppercase(),
        service.to_uppercase()
    ));
    for m in methods {
        out.push_str(&format!(
            "    pub fn {}(&self, ctx: &mut Ctx) -> Result<(), Error> {{\n        \
             self.conn.unary(\"{}\", ctx)\n    }}\n",
            snake_case(&m.name),
            m.name
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::TypeRef;

    #[test]
    fn server_modifier_rejects_unknown_kwargs() {
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "rpc".into(),
            callee: "GRPCServer".into(),
            args: vec![],
            kwargs: [("bogus".to_string(), blueprint_wiring::Arg::Int(1))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        let err =
            server_modifier(&decl, &mut ir, "mod.rpc.grpc.server", &["net_us"], &[]).unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn exposed_methods_come_from_inbound_edges() {
        let mut ir = IrGraph::new("t");
        let svc = ir
            .add_component("s", "workflow.service", Granularity::Instance)
            .unwrap();
        let a = ir
            .add_component("a", "workflow.service", Granularity::Instance)
            .unwrap();
        let b = ir
            .add_component("b", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(a, svc, vec![MethodSig::new("X", vec![], TypeRef::Unit)])
            .unwrap();
        ir.add_invocation(
            b,
            svc,
            vec![
                MethodSig::new("X", vec![], TypeRef::Unit),
                MethodSig::new("Y", vec![], TypeRef::Unit),
            ],
        )
        .unwrap();
        let m = ir
            .add_node(Node::new(
                "rpc",
                "mod.rpc.grpc.server",
                NodeRole::Modifier,
                Granularity::Instance,
            ))
            .unwrap();
        ir.attach_modifier(svc, m).unwrap();
        let methods = exposed_methods(m, &ir);
        assert_eq!(methods.len(), 2);
        assert_eq!(target_name(m, &ir), "s");
    }

    #[test]
    fn wrappers_render_both_sides() {
        let methods = vec![MethodSig::new("ComposePost", vec![], TypeRef::Unit)];
        let src = render_wrappers("Grpc", "compose_post_service", &methods);
        assert!(src.contains("ComposePostServiceGrpcServer"));
        assert!(src.contains("ComposePostServiceGrpcClient"));
        assert!(src.contains("fn handle_compose_post"));
        assert!(src.contains("COMPOSE_POST_SERVICE_ADDRESS"));
    }
}
