//! Docker deployer: Dockerfiles per container plus a docker-compose manifest.

use blueprint_ir::types::snake_case;
use blueprint_ir::{IrGraph, NodeId};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};
use crate::deployers::containers;
use crate::rpc::server_modifier;

/// Kind tag of Docker deployer modifiers.
pub const KIND: &str = "mod.deployer.docker";

/// The `Docker(machines=8, cores=8)` plugin.
pub struct DockerPlugin;

impl Plugin for DockerPlugin {
    fn name(&self) -> &'static str {
        "docker"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Docker"]
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
        server_modifier(decl, ir, KIND, &["machines", "cores"], &[])
    }

    fn generate(
        &self,
        _node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        if out.contains("docker-compose.yml") {
            return Ok(()); // One manifest per application.
        }
        let mut compose = String::from("version: \"3.8\"\nservices:\n");
        for c in containers(ir) {
            let cn = ir.node(c)?;
            compose.push_str(&format!("  {}:\n", cn.name));
            compose.push_str(&format!("    build: docker/{}\n", cn.name));
            compose.push_str("    env_file: config/addresses.env\n");
            // Generated process containers get a build context + Dockerfile.
            let path = format!("docker/{}/Dockerfile", cn.name);
            if !out.contains(&path) {
                out.put(
                    path,
                    ArtifactKind::Dockerfile,
                    format!(
                        "FROM rust:1.80-slim AS build\nCOPY procs/{} /src\nRUN cargo build --release\n\
                         FROM debian:bookworm-slim\nCOPY --from=build /src/target/release/app /app\n\
                         CMD [\"/app\"]\n",
                        snake_case(&cn.name)
                    ),
                );
            }
        }
        out.put("docker-compose.yml", ArtifactKind::Compose, compose);
        Ok(())
    }

    fn source(&self) -> &'static str {
        include_str!("docker.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::Granularity;
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn compose_lists_containers() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        ir.add_namespace("cont_user", "namespace.container", Granularity::Container)
            .unwrap();
        ir.add_namespace("cont_post", "namespace.container", Granularity::Container)
            .unwrap();
        let decl = InstanceDecl {
            name: "deployer".into(),
            callee: "Docker".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let d = DockerPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut out = ArtifactTree::new();
        DockerPlugin.generate(d, &ir, &ctx, &mut out).unwrap();
        DockerPlugin.generate(d, &ir, &ctx, &mut out).unwrap(); // Idempotent.
        let compose = out.get("docker-compose.yml").unwrap();
        assert!(compose.content.contains("cont_user:"));
        assert!(compose.content.contains("cont_post:"));
        assert!(out.contains("docker/cont_user/Dockerfile"));
    }
}
