//! gRPC server modifier: protobuf IDL generation, wrapper generation, and
//! the multiplexed-connection transport model.

use blueprint_ir::types::snake_case;
use blueprint_ir::{IrGraph, NodeId, Visibility};
use blueprint_simrt::TransportSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};
use crate::rpc::{exposed_methods, render_wrappers, server_modifier, target_name, transport_ns};

/// Kind tag of gRPC server modifiers.
pub const KIND: &str = "mod.rpc.grpc.server";

/// Per-call costs recorded on every node unless a kwarg overrides them.
const DEFAULTS: &[(&str, f64)] = &[("serialize_us", 12.0), ("net_us", 50.0)];

/// The `GRPCServer()` plugin.
///
/// Wiring kwargs: `serialize_us` (per-call marshalling CPU, default 12),
/// `net_us` (one-way network latency, default 50).
pub struct GrpcPlugin;

impl Plugin for GrpcPlugin {
    fn name(&self) -> &'static str {
        "grpc"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["GRPCServer"]
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
        server_modifier(decl, ir, KIND, &[], DEFAULTS)
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
        // Protobuf message + service definitions.
        let mut proto = String::from("syntax = \"proto3\";\n\n");
        proto.push_str(&format!("package {};\n\n", snake_case(&service)));
        for m in &methods {
            proto.push_str(&format!("message {}Request {{\n", m.name));
            for (i, p) in m.params.iter().enumerate() {
                proto.push_str(&format!(
                    "  {} {} = {};\n",
                    p.ty.proto(),
                    snake_case(&p.name),
                    i + 1
                ));
            }
            proto.push_str("}\n");
            proto.push_str(&format!(
                "message {}Response {{\n  {} ret = 1;\n}}\n\n",
                m.name,
                m.ret.proto()
            ));
        }
        proto.push_str(&format!(
            "service {} {{\n",
            blueprint_ir::types::camel_case(&snake_case(&service))
        ));
        for m in &methods {
            proto.push_str(&format!(
                "  rpc {} ({}Request) returns ({}Response);\n",
                m.name, m.name, m.name
            ));
        }
        proto.push_str("}\n");
        out.put(
            format!("proto/{}.proto", snake_case(&service)),
            ArtifactKind::Proto,
            proto,
        );
        out.put(
            format!("wrappers/{}_grpc.rs", snake_case(&service)),
            ArtifactKind::RustSource,
            render_wrappers("Grpc", &service, &methods),
        );
        Ok(())
    }

    fn transport(&self, node: NodeId, ir: &IrGraph) -> Option<TransportSpec> {
        let (serialize_ns, net_ns) = transport_ns(ir.node(node).ok()?);
        Some(TransportSpec::Grpc {
            serialize_ns,
            net_ns,
        })
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("grpc.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::types::{Param, TypeRef};
    use blueprint_ir::{Granularity, MethodSig};
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn generates_proto_and_wrappers() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let svc = ir
            .add_component("user_service", "workflow.service", Granularity::Instance)
            .unwrap();
        let caller = ir
            .add_component("gw", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_invocation(
            caller,
            svc,
            vec![MethodSig::new(
                "Login",
                vec![Param::new("id", TypeRef::I64)],
                TypeRef::Bool,
            )],
        )
        .unwrap();
        let decl = InstanceDecl {
            name: "user_service_rpc".into(),
            callee: "GRPCServer".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let m = GrpcPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        ir.attach_modifier(svc, m).unwrap();
        let mut out = ArtifactTree::new();
        GrpcPlugin.generate(m, &ir, &ctx, &mut out).unwrap();
        let proto = out.get("proto/user_service.proto").unwrap();
        assert!(proto.content.contains("message LoginRequest"));
        assert!(proto.content.contains("int64 id = 1;"));
        assert!(proto
            .content
            .contains("rpc Login (LoginRequest) returns (LoginResponse);"));
        assert!(out.contains("wrappers/user_service_grpc.rs"));
    }

    #[test]
    fn transport_defaults_and_widen() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "rpc".into(),
            callee: "GRPCServer".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let m = GrpcPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        match GrpcPlugin.transport(m, &ir).unwrap() {
            TransportSpec::Grpc {
                serialize_ns,
                net_ns,
            } => {
                assert_eq!(serialize_ns, 12_000);
                assert_eq!(net_ns, 50_000);
            }
            other => panic!("wrong transport {other:?}"),
        }
        assert_eq!(GrpcPlugin.widen(m, &ir), Some(Visibility::Global));
    }
}
