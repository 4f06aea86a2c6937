//! Retry scaffolding: clients of the modified service retry failed calls.

use blueprint_ir::{IrGraph, NodeId};
use blueprint_simrt::time::ms;
use blueprint_simrt::{ClientSpec, ExpBackoff};
use blueprint_wiring::InstanceDecl;

use crate::api::{BuildCtx, Plugin, PluginResult};
use crate::rpc::server_modifier;

/// Kind tag of retry modifiers.
pub const KIND: &str = "mod.retry";

/// The `Retry(max=10, backoff_ms=1)` plugin.
///
/// Attached to a callee service, it makes the generated *client* wrappers of
/// that service retry failed or timed-out calls up to `max` times — the
/// workload-amplification half of the metastability experiments (§6.2.1).
///
/// Optional kwargs turn the fixed backoff into a capped exponential with
/// deterministic seeded jitter: `exp_base` (growth per attempt, must exceed
/// 1.0 to take effect), `max_backoff_ms` (delay cap), and `jitter` (fraction
/// in `[0, 1)` subtracted at random from each delay).
///
/// Kwarg validation: `max` is rounded to the nearest whole attempt count
/// (never truncated); non-finite or non-positive `max`/`backoff_ms` values
/// fall back to no retries / no backoff rather than wrapping; a non-finite
/// or ≤ 1.0 `exp_base` disables exponential growth entirely, and `jitter`
/// is clamped into `[0, 1)` (never negative, never a full-delay erase).
pub struct RetryPlugin;

impl Plugin for RetryPlugin {
    fn name(&self) -> &'static str {
        "retry"
    }

    fn keywords(&self) -> Vec<&'static str> {
        vec!["Retry"]
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
            &["backoff_ms", "exp_base", "max_backoff_ms", "jitter"],
            &[("max", 3.0)],
        )
    }

    fn apply_client(&self, node: NodeId, ir: &IrGraph, client: &mut ClientSpec) {
        if let Ok(n) = ir.node(node) {
            // Kwargs arrive as floats; `as u32`/`as u64` would truncate
            // fractions (max=2.6 → 2) and collapse negatives to 0 silently.
            // Round attempt counts to the nearest integer and reject
            // non-finite or negative values by falling back to the safe
            // floor (no retries / no backoff).
            let max = n.props.float_or("max", 0.0);
            client.retries = if max.is_finite() && max > 0.0 {
                max.round().min(u32::MAX as f64) as u32
            } else {
                0
            };
            let backoff_ms = n.props.float_or("backoff_ms", 0.0);
            client.backoff_ns = if backoff_ms.is_finite() && backoff_ms > 0.0 {
                (backoff_ms * ms(1) as f64).round() as u64
            } else {
                0
            };
            // Exponential backoff is opt-in: a base that is non-finite or
            // does not actually grow (≤ 1.0) leaves the fixed-backoff
            // behavior untouched instead of silently decaying delays.
            let exp_base = n.props.float_or("exp_base", 0.0);
            client.backoff_exp = if exp_base.is_finite() && exp_base > 1.0 {
                let max_backoff_ms = n.props.float_or("max_backoff_ms", 0.0);
                let max_ns = if max_backoff_ms.is_finite() && max_backoff_ms > 0.0 {
                    (max_backoff_ms * ms(1) as f64).round() as u64
                } else {
                    0
                };
                let jitter = n.props.float_or("jitter", 0.0);
                let jitter = if jitter.is_finite() {
                    // f64::EPSILON keeps jitter strictly below 1 so a delay
                    // can shrink but never vanish entirely.
                    jitter.clamp(0.0, 1.0 - f64::EPSILON)
                } else {
                    0.0
                };
                Some(ExpBackoff {
                    base: exp_base,
                    max_ns,
                    jitter,
                })
            } else {
                None
            };
        }
    }

    fn source(&self) -> &'static str {
        include_str!("retry.rs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::{Arg, WiringSpec};
    use blueprint_workflow::WorkflowSpec;

    #[test]
    fn applies_retry_policy() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "retry10".into(),
            callee: "Retry".into(),
            args: vec![],
            kwargs: [
                ("max".to_string(), Arg::Int(10)),
                ("backoff_ms".to_string(), Arg::Int(2)),
            ]
            .into_iter()
            .collect(),
            server_modifiers: vec![],
        };
        let m = RetryPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut client = ClientSpec::local();
        RetryPlugin.apply_client(m, &ir, &mut client);
        assert_eq!(client.retries, 10);
        assert_eq!(client.backoff_ns, ms(2));
    }

    #[test]
    fn invalid_kwargs_are_clamped() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let mut node_seq = 0u32;
        let mut case = |max: Arg, backoff: Arg| {
            node_seq += 1;
            let decl = InstanceDecl {
                name: format!("retry{node_seq}"),
                callee: "Retry".into(),
                args: vec![],
                kwargs: [
                    ("max".to_string(), max),
                    ("backoff_ms".to_string(), backoff),
                ]
                .into_iter()
                .collect(),
                server_modifiers: vec![],
            };
            let m = RetryPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
            let mut client = ClientSpec::local();
            RetryPlugin.apply_client(m, &ir, &mut client);
            client
        };
        // Negative values are rejected, not wrapped/saturated into something
        // surprising.
        let c = case(Arg::Int(-4), Arg::Int(-2));
        assert_eq!(c.retries, 0);
        assert_eq!(c.backoff_ns, 0);
        // Fractional counts round to the nearest attempt, fractional
        // milliseconds keep sub-ms precision instead of truncating to 0.
        let c = case(Arg::Float(2.6), Arg::Float(0.5));
        assert_eq!(c.retries, 3);
        assert_eq!(c.backoff_ns, 500_000);
        // Non-finite input falls back to the safe floor.
        let c = case(Arg::Float(f64::NAN), Arg::Float(f64::INFINITY));
        assert_eq!(c.retries, 0);
        assert_eq!(c.backoff_ns, 0);
    }

    #[test]
    fn exponential_backoff_kwargs_are_parsed_and_validated() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let mut node_seq = 0u32;
        let mut case = |kwargs: Vec<(&str, Arg)>| {
            node_seq += 1;
            let decl = InstanceDecl {
                name: format!("retry{node_seq}"),
                callee: "Retry".into(),
                args: vec![],
                kwargs: kwargs
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                server_modifiers: vec![],
            };
            let m = RetryPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
            let mut client = ClientSpec::local();
            RetryPlugin.apply_client(m, &ir, &mut client);
            client
        };
        // Full exponential policy.
        let c = case(vec![
            ("max", Arg::Int(5)),
            ("backoff_ms", Arg::Int(2)),
            ("exp_base", Arg::Float(2.0)),
            ("max_backoff_ms", Arg::Int(100)),
            ("jitter", Arg::Float(0.25)),
        ]);
        let exp = c.backoff_exp.expect("exponential policy set");
        assert_eq!(exp.base, 2.0);
        assert_eq!(exp.max_ns, ms(100));
        assert_eq!(exp.jitter, 0.25);
        // A base that does not grow (or is not finite) disables the policy.
        let c = case(vec![("exp_base", Arg::Float(1.0))]);
        assert!(c.backoff_exp.is_none());
        let c = case(vec![("exp_base", Arg::Float(f64::NAN))]);
        assert!(c.backoff_exp.is_none());
        // Jitter is clamped into [0, 1): negatives to 0, ≥ 1 just below 1.
        let c = case(vec![
            ("exp_base", Arg::Float(3.0)),
            ("jitter", Arg::Float(-0.5)),
        ]);
        assert_eq!(c.backoff_exp.unwrap().jitter, 0.0);
        let c = case(vec![
            ("exp_base", Arg::Float(3.0)),
            ("jitter", Arg::Float(2.0)),
        ]);
        let j = c.backoff_exp.unwrap().jitter;
        assert!((0.0..1.0).contains(&j) && j > 0.99);
        let c = case(vec![
            ("exp_base", Arg::Float(3.0)),
            ("jitter", Arg::Float(f64::INFINITY)),
        ]);
        assert_eq!(c.backoff_exp.unwrap().jitter, 0.0);
        // A bad cap falls back to "uncapped" (0) without disabling growth.
        let c = case(vec![
            ("exp_base", Arg::Float(2.0)),
            ("max_backoff_ms", Arg::Float(-3.0)),
        ]);
        assert_eq!(c.backoff_exp.unwrap().max_ns, 0);
    }

    #[test]
    fn defaults() {
        let wf = WorkflowSpec::new("w");
        let wiring = WiringSpec::new("w");
        let ctx = BuildCtx {
            workflow: &wf,
            wiring: &wiring,
        };
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "retry".into(),
            callee: "Retry".into(),
            args: vec![],
            kwargs: Default::default(),
            server_modifiers: vec![],
        };
        let m = RetryPlugin.build_node(&decl, &mut ir, &ctx).unwrap();
        let mut client = ClientSpec::local();
        RetryPlugin.apply_client(m, &ir, &mut client);
        assert_eq!(client.retries, 3);
        assert_eq!(client.backoff_ns, 0);
    }
}
