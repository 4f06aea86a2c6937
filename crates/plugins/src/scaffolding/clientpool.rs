//! Client-pool scaffolding: bounds the connections clients hold to the
//! modified service (the pool-size dimension swept in Fig. 5).

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::{ClientSpec, TransportSpec};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::rpc::server_modifier;

/// Kind tag of client-pool modifiers.
pub const KIND: &str = "mod.clientpool";

/// The `ClientPool(size=4)` plugin.
///
/// Only meaningful for connection-oriented transports (Thrift); gRPC
/// multiplexes requests on a single connection, so the plugin is a no-op
/// there — exactly the asymmetry Fig. 5 explores.
pub struct ClientPoolPlugin;

impl Plugin for ClientPoolPlugin {
    fn name(&self) -> &'static str {
        "clientpool"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["ClientPool"]
    }

    fn owns_kinds(&self) -> Vec<&'static str> {
        vec![KIND]
    }

    fn build_node(
        &self,
        decl: &InstanceDecl,
        ir: &mut IrGraph,
        _ctx: &BuildCtx<'_>,
    ) -> PluginResult<NodeId> {
        server_modifier(decl, ir, KIND, &["size"], &[])
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            if let TransportSpec::Thrift { pool, .. } = &mut client.transport {
                *pool = n.props.float_or("size", 4.0) as u32;
            }
        }
    }

    fn source(&self) -> &'static str {
        include_str!("clientpool.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    fn build(size: i64) -> (IrGraph, NodeId) {
        let mut ir = IrGraph::new("t");
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let decl = InstanceDecl {
            name: "pool".into(),
            callee: "ClientPool".into(),
            args: vec![],
            kwargs: [("size".to_string(), Arg::Int(size))].into_iter().collect(),
            server_modifiers: vec![],
        };
        let m = ClientPoolPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        (ir, m)
    }

    #[test]
    fn resizes_thrift_pools() {
        let (ir, m) = build(16);
        let mut client = ClientSpec::over(TransportSpec::Thrift {
            pool: 4,
            serialize_ns: 15_000,
            net_ns: 50_000,
            reconnect_ns: 200_000,
        });
        ClientPoolPlugin.apply_client(m, &ir, &mut client);
        match client.transport {
            TransportSpec::Thrift { pool, .. } => assert_eq!(pool, 16),
            other => panic!("wrong transport {other:?}"),
        }
    }

    #[test]
    fn noop_for_grpc() {
        let (ir, m) = build(16);
        let mut client = ClientSpec::over(TransportSpec::Grpc {
            serialize_ns: 12_000,
            net_ns: 50_000,
        });
        let before = client.transport.clone();
        ClientPoolPlugin.apply_client(m, &ir, &mut client);
        assert_eq!(client.transport, before);
    }
}
