//! Thrift server modifier: Thrift IDL generation and the bounded
//! client-pool transport model (the clientpool dimension of Fig. 5).

use blueprint_ir::types::snake_case;
use blueprint_ir::{IrGraph, NodeId, Visibility};
use blueprint_simrt::TransportSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};
use crate::rpc::{exposed_methods, render_wrappers, server_modifier, target_name, transport_ns};

/// Kind tag of Thrift server modifiers.
pub const KIND: &str = "mod.rpc.thrift.server";

/// The `ThriftServer()` plugin.
///
/// Wiring kwargs: `clientpool` (connections per client, default 4),
/// `serialize_us` (default 15), `net_us` (default 50), `reconnect_us`
/// (post-timeout connection re-establishment, default 200).
pub struct ThriftPlugin;

impl Plugin for ThriftPlugin {
    fn name(&self) -> &'static str {
        "thrift"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["ThriftServer"]
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
        server_modifier(
            decl,
            ir,
            KIND,
            &["clientpool", "reconnect_us"],
            &[("serialize_us", 15.0), ("net_us", 50.0)],
        )
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        let service = target_name(node, ir);
        if service.is_empty() {
            return Ok(());
        }
        let methods = exposed_methods(node, ir);
        let mut idl = format!("namespace rs {}\n\n", snake_case(&service));
        idl.push_str(&format!(
            "service {} {{\n",
            blueprint_ir::types::camel_case(&snake_case(&service))
        ));
        for m in &methods {
            let params: Vec<String> = m
                .params
                .iter()
                .enumerate()
                .map(|(i, p)| format!("{}: {} {}", i + 1, p.ty.thrift(), snake_case(&p.name)))
                .collect();
            idl.push_str(&format!(
                "  {} {}({})\n",
                m.ret.thrift(),
                m.name,
                params.join(", ")
            ));
        }
        idl.push_str("}\n");
        out.put(
            format!("idl/{}.thrift", snake_case(&service)),
            ArtifactKind::ThriftIdl,
            idl,
        );
        out.put(
            format!("wrappers/{}_thrift.rs", snake_case(&service)),
            ArtifactKind::RustSource,
            render_wrappers("Thrift", &service, &methods),
        );
        Ok(())
    }

    fn transport(&self, node: NodeId, ir: &IrGraph) -> Option<TransportSpec> {
        let n = ir.node(node).ok()?;
        let (serialize_ns, net_ns) = transport_ns(n);
        Some(TransportSpec::Thrift {
            pool: n.props.float_or("clientpool", 4.0) as u32,
            serialize_ns,
            net_ns,
            reconnect_ns: (n.props.float_or("reconnect_us", 200.0) * 1000.0) as u64,
        })
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("thrift.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::types::{Param, TypeRef};
    use blueprint_ir::{Granularity, MethodSig};
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn idl_and_pool_transport() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let svc = ir
            .add_component("search", "workflow.service", Granularity::Instance)
            .unwrap();
        let caller = ir
            .add_component("gw", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(
            caller,
            svc,
            vec![MethodSig::new(
                "Nearby",
                vec![Param::new("lat", TypeRef::F64)],
                TypeRef::Str,
            )],
        )
        .unwrap();
        let decl = InstanceDecl {
            name: "rpc".into(),
            callee: "ThriftServer".into(),
            args: vec![],
            kwargs: [("clientpool".to_string(), Arg::Int(16))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        let m = ThriftPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        ir.attach_modifier(svc, m).unwrap();
        let mut out = ArtifactTree::new();
        ThriftPlugin.generate(m, &ir, &ctx, &mut out).unwrap();
        let idl = out.get("idl/search.thrift").unwrap();
        assert!(idl.content.contains("string Nearby(1: double lat)"));
        match ThriftPlugin.transport(m, &ir).unwrap() {
            TransportSpec::Thrift { pool, .. } => assert_eq!(pool, 16),
            other => panic!("wrong transport {other:?}"),
        }
    }
}
