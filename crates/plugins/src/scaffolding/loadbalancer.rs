//! Load balancer component: fronts a set of replicas and spreads calls.
//!
//! Used directly from wiring (`LoadBalancer(a, b, c, policy="round_robin")`)
//! and inserted automatically by the p-Replication transform.

use blueprint_ir::{Granularity, IrGraph, NodeId, Visibility};
use blueprint_simrt::LbPolicy;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginError, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};

/// Kind tag of load balancer components.
pub const KIND: &str = blueprint_ir::deploy::LOAD_BALANCER_KIND;

/// The `LoadBalancer(...)` plugin.
pub struct LoadBalancerPlugin;

impl LoadBalancerPlugin {
    /// Creates a load balancer node fronting `targets` (shared with the
    /// replication transform).
    pub fn make_lb(
        ir: &mut IrGraph,
        name: &str,
        targets: &[NodeId],
        policy: &str,
    ) -> PluginResult<NodeId> {
        let lb = ir.add_component(name, KIND, Granularity::Instance)?;
        ir.node_mut(lb)?.props.set("policy", policy);
        for &t in targets {
            // The LB forwards whatever methods its backends expose; method
            // signatures are taken from the replicas' inbound edges later.
            ir.add_invocation(lb, t, Vec::new())?;
        }
        Ok(lb)
    }

    /// Parses a policy name.
    pub fn parse_policy(policy: &str) -> Option<LbPolicy> {
        match policy {
            "round_robin" => Some(LbPolicy::RoundRobin),
            "random" => Some(LbPolicy::Random),
            "least_outstanding" => Some(LbPolicy::LeastOutstanding),
            _ => None,
        }
    }

    /// The policy configured on an LB node.
    pub fn policy(ir: &IrGraph, node: NodeId) -> LbPolicy {
        ir.node(node)
            .ok()
            .and_then(|n| n.props.str("policy").and_then(Self::parse_policy))
            .unwrap_or(LbPolicy::RoundRobin)
    }
}

impl Plugin for LoadBalancerPlugin {
    fn name(&self) -> &'static str {
        "loadbalancer"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["LoadBalancer"]
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
        let policy = decl
            .kwarg("policy")
            .and_then(|a| a.as_str())
            .unwrap_or("round_robin");
        if Self::parse_policy(policy).is_none() {
            return Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: format!("unknown load balancing policy `{policy}`"),
            });
        }
        let mut targets = Vec::new();
        for a in &decl.args {
            let Some(name) = a.as_ref_name() else {
                return Err(PluginError::BadDecl {
                    instance: decl.name.clone(),
                    message: "load balancer targets must be instance references".into(),
                });
            };
            let Some(t) = ir.by_name(name) else {
                return Err(PluginError::BadDecl {
                    instance: decl.name.clone(),
                    message: format!("unknown target `{name}`"),
                });
            };
            targets.push(t);
        }
        if targets.is_empty() {
            return Err(PluginError::BadDecl {
                instance: decl.name.clone(),
                message: "load balancer needs at least one target".into(),
            });
        }
        Self::make_lb(ir, &decl.name, &targets, policy)
    }

    fn generate(
        &self,
        node: NodeId,
        ir: &IrGraph,
        _ctx: &BuildCtx<'_>,
        out: &mut ArtifactTree,
    ) -> PluginResult<()> {
        let n = ir.node(node)?;
        let mut conf = format!(
            "# load balancer `{}` ({})\nupstream {} {{\n",
            n.name,
            n.props.str("policy").unwrap_or("round_robin"),
            n.name
        );
        for callee in ir.callees(node) {
            let c = ir.node(callee)?;
            conf.push_str(&format!("  server {};\n", c.name));
        }
        conf.push_str("}\n");
        out.put(format!("lb/{}.conf", n.name), ArtifactKind::Config, conf);
        Ok(())
    }

    fn widen(&self, _node: NodeId, _ir: &IrGraph) -> Option<Visibility> {
        // A load balancer is a network-addressable VIP.
        Some(Visibility::Global)
    }

    fn source(&self) -> &'static str {
        include_str!("loadbalancer.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn builds_with_targets_and_policy() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        ir.add_component("r0", "workflow.service", Granularity::Instance)
            .unwrap();
        ir.add_component("r1", "workflow.service", Granularity::Instance)
            .unwrap();
        let decl = InstanceDecl {
            name: "lb".into(),
            callee: "LoadBalancer".into(),
            args: vec![Arg::r("r0"), Arg::r("r1")],
            kwargs: [("policy".to_string(), Arg::Str("least_outstanding".into()))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        let lb = LoadBalancerPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        assert_eq!(ir.callees(lb).len(), 2);
        assert_eq!(
            LoadBalancerPlugin::policy(&ir, lb),
            LbPolicy::LeastOutstanding
        );
        let mut out = ArtifactTree::new();
        LoadBalancerPlugin
            .generate(lb, &ir, &ctx, &mut out)
            .unwrap();
        assert!(out
            .get("lb/lb.conf")
            .unwrap()
            .content
            .contains("server r0;"));
    }

    #[test]
    fn rejects_bad_policy_and_empty_targets() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "lb".into(),
            callee: "LoadBalancer".into(),
            args: vec![],
            kwargs: [("policy".to_string(), Arg::Str("zzz".into()))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        assert!(LoadBalancerPlugin.build_node(&decl, &mut ir, &ctx).is_err());
        let decl2 = InstanceDecl {
            name: "lb2".into(),
            callee: "LoadBalancer".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        assert!(LoadBalancerPlugin
            .build_node(&decl2, &mut ir, &ctx)
            .is_err());
    }
}
