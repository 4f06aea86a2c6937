//! Adaptive load-shedding scaffolding: a service-side admission controller
//! (CoDel/SEDA lineage) that sheds a fraction of arrivals when sustained
//! sojourn delay exceeds a target, replacing the blunt `max_concurrent`
//! cliff with graceful degradation.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::time::ms;
use blueprint_simrt::ShedSpec;
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult, ServiceLowering};
use crate::rpc::server_modifier;

/// Kind tag of load-shed modifiers.
pub const KIND: &str = "mod.shed";

/// The `LoadShed(target_ms=50, gain=0.1, max=0.95, alpha=0.2)` plugin.
///
/// Attached to a service, it lowers to an admission controller in the
/// simulated server: completions feed an EWMA of request sojourn delay, and
/// while the EWMA exceeds `target_ms` the controller sheds a growing
/// fraction of arrivals as `"shed"` (proportional control with gain `gain`,
/// capped at `max`). Shedding cheap rejections early is what breaks the
/// queue-growth feedback loop behind Type-3 metastability.
///
/// Kwarg validation: non-finite or non-positive `target_ms`/`gain`/`alpha`
/// fall back to their defaults; `max` is clamped into `[0, 1]`.
pub struct LoadShedPlugin;

impl Plugin for LoadShedPlugin {
    fn name(&self) -> &'static str {
        "load-shed"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["LoadShed"]
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
        server_modifier(decl, ir, KIND, &["target_ms", "gain", "max", "alpha"], &[])
    }

    fn apply_service(&self, node: NodeId, ir: &IrGraph, svc: &mut ServiceLowering) {
        if let Ok(n) = ir.node(node) {
            let target_ms = n.props.float_or("target_ms", 50.0);
            let target_delay_ns = if target_ms.is_finite() && target_ms > 0.0 {
                (target_ms * ms(1) as f64).round() as u64
            } else {
                ms(50)
            };
            let gain = n.props.float_or("gain", 0.1);
            let gain = if gain.is_finite() && gain > 0.0 {
                gain
            } else {
                0.1
            };
            let max_shed = n.props.float_or("max", 0.95);
            let max_shed = if max_shed.is_finite() {
                max_shed.clamp(0.0, 1.0)
            } else {
                0.95
            };
            let alpha = n.props.float_or("alpha", 0.2);
            let ewma_alpha = if alpha.is_finite() && alpha > 0.0 {
                alpha.min(1.0)
            } else {
                0.2
            };
            svc.shed = Some(ShedSpec {
                target_delay_ns,
                gain,
                max_shed,
                ewma_alpha,
            });
        }
    }

    fn source(&self) -> &'static str {
        include_str!("load_shed.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    fn apply(kwargs: Vec<(&str, Arg)>) -> ServiceLowering {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "shed".into(),
            callee: "LoadShed".into(),
            args: vec![],
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: vec![],
        };
        let m = LoadShedPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut svc = ServiceLowering::default();
        LoadShedPlugin.apply_service(m, &ir, &mut svc);
        svc
    }

    #[test]
    fn applies_shed_policy() {
        let s = apply(vec![
            ("target_ms", Arg::Int(20)),
            ("gain", Arg::Float(0.25)),
            ("max", Arg::Float(0.8)),
            ("alpha", Arg::Float(0.5)),
        ])
        .shed
        .unwrap();
        assert_eq!(s.target_delay_ns, ms(20));
        assert_eq!(s.gain, 0.25);
        assert_eq!(s.max_shed, 0.8);
        assert_eq!(s.ewma_alpha, 0.5);
    }

    #[test]
    fn defaults_and_clamping() {
        let s = apply(vec![]).shed.unwrap();
        assert_eq!(s.target_delay_ns, ms(50));
        assert_eq!(s.gain, 0.1);
        assert_eq!(s.max_shed, 0.95);
        assert_eq!(s.ewma_alpha, 0.2);
        // max above 1 clamps; non-finite target falls back to the default.
        let s = apply(vec![
            ("max", Arg::Float(3.0)),
            ("target_ms", Arg::Float(f64::INFINITY)),
            ("alpha", Arg::Float(7.0)),
        ])
        .shed
        .unwrap();
        assert_eq!(s.max_shed, 1.0);
        assert_eq!(s.target_delay_ns, ms(50));
        assert_eq!(s.ewma_alpha, 1.0);
    }
}
