//! Ansible deployer: inventory + playbook installing containers on machines.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};
use crate::deployers::{cluster_shape, containers};
use crate::rpc::server_modifier;

/// Kind tag of Ansible deployer modifiers.
pub const KIND: &str = "mod.deployer.ansible";

/// The `Ansible(machines=8, cores=8)` plugin.
pub struct AnsiblePlugin;

impl Plugin for AnsiblePlugin {
    fn name(&self) -> &'static str {
        "ansible"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Ansible"]
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
        if out.contains("ansible/playbook.yml") {
            return Ok(());
        }
        let (machines, _) = cluster_shape(ir);
        let mut inventory = String::from("[cluster]\n");
        for m in 0..machines {
            inventory.push_str(&format!("machine_{m} ansible_host=10.0.0.{}\n", m + 10));
        }
        out.put("ansible/inventory.ini", ArtifactKind::Config, inventory);

        let mut play = String::from("- hosts: cluster\n  become: true\n  tasks:\n");
        play.push_str("    - name: install docker\n      apt:\n        name: docker.io\n        state: present\n");
        for (i, c) in containers(ir).into_iter().enumerate() {
            let cn = ir.node(c)?;
            play.push_str(&format!(
                "    - name: run {name}\n      when: inventory_hostname == \"machine_{m}\"\n      \
                 docker_container:\n        name: {name}\n        image: blueprint/{name}:latest\n        \
                 env_file: /etc/blueprint/addresses.env\n",
                name = cn.name,
                m = i % machines
            ));
        }
        out.put("ansible/playbook.yml", ArtifactKind::Ansible, play);
        Ok(())
    }

    fn source(&self) -> &'static str {
        include_str!("ansible.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_ir::Granularity;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn inventory_and_round_robin_placement() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        for i in 0..3 {
            ir.add_namespace(
                format!("cont_{i}"),
                "namespace.container",
                Granularity::Container,
            )
            .unwrap();
        }
        let decl = InstanceDecl {
            name: "deployer".into(),
            callee: "Ansible".into(),
            args: vec![],
            kwargs: [("machines".to_string(), Arg::Int(2))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        let d = AnsiblePlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut out = ArtifactTree::new();
        AnsiblePlugin.generate(d, &ir, &ctx, &mut out).unwrap();
        let inv = out.get("ansible/inventory.ini").unwrap();
        assert!(inv.content.contains("machine_0"));
        assert!(inv.content.contains("machine_1"));
        assert!(!inv.content.contains("machine_2"));
        let play = out.get("ansible/playbook.yml").unwrap();
        assert!(play.content.contains("run cont_0"));
        assert!(play.content.contains("machine_0"));
    }
}
