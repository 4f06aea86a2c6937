//! Kubernetes deployer: one Deployment+Service manifest per container.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};
use crate::deployers::containers;
use crate::rpc::server_modifier;

/// Kind tag of Kubernetes deployer modifiers.
pub const KIND: &str = "mod.deployer.k8s";

/// The `Kubernetes(machines=8, cores=8)` plugin.
pub struct KubernetesPlugin;

impl Plugin for KubernetesPlugin {
    fn name(&self) -> &'static str {
        "kubernetes"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Kubernetes"]
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
        server_modifier(decl, ir, KIND, &["machines", "cores", "replicas"], &[])
    }

    fn generate(
        &self,
        _node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        for c in containers(ir) {
            let cn = ir.node(c)?;
            let path = format!("k8s/{}.yaml", cn.name);
            if out.contains(&path) {
                continue;
            }
            let name = cn.name.replace('_', "-");
            let mut y = String::new();
            y.push_str("apiVersion: apps/v1\nkind: Deployment\n");
            y.push_str(&format!("metadata:\n  name: {name}\n"));
            y.push_str("spec:\n  replicas: 1\n  selector:\n    matchLabels:\n");
            y.push_str(&format!("      app: {name}\n"));
            y.push_str("  template:\n    metadata:\n      labels:\n");
            y.push_str(&format!("        app: {name}\n"));
            y.push_str("    spec:\n      containers:\n");
            y.push_str(&format!(
                "        - name: {name}\n          image: blueprint/{name}:latest\n"
            ));
            y.push_str("          envFrom:\n            - configMapRef:\n                name: addresses\n");
            y.push_str("---\napiVersion: v1\nkind: Service\n");
            y.push_str(&format!(
                "metadata:\n  name: {name}\nspec:\n  selector:\n    app: {name}\n"
            ));
            y.push_str("  ports:\n    - port: 80\n");
            out.put(path, ArtifactKind::K8s, y);
        }
        Ok(())
    }

    fn source(&self) -> &'static str {
        include_str!("kubernetes.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::Granularity;
    use blueprint_wiring::WiringSpec;
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn manifests_per_container() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        ir.add_namespace("cont_user", "namespace.container", Granularity::Container)
            .unwrap();
        let decl = InstanceDecl {
            name: "deployer".into(),
            callee: "Kubernetes".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let d = KubernetesPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut out = ArtifactTree::new();
        KubernetesPlugin.generate(d, &ir, &ctx, &mut out).unwrap();
        let y = out.get("k8s/cont_user.yaml").unwrap();
        assert!(y.content.contains("kind: Deployment"));
        assert!(y.content.contains("app: cont-user"));
        assert!(y.content.contains("kind: Service"));
    }
}
