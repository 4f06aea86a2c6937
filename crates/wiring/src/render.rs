//! Rendering wiring specs back to DSL text.
//!
//! Rendered text is parseable by [`crate::parse::parse`]; round-trips are tested
//! property-based in `tests/prop_wiring.rs`. Rendering is also how wiring LoC
//! is counted for Tab. 1 and how spec diffs are computed for the mutation
//! case studies.

use std::fmt::Write as _;

use crate::ast::{Arg, InstanceDecl, WiringSpec};

/// Renders a wiring spec as DSL text (one declaration per line).
pub fn render(spec: &WiringSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "app {}", spec.app_name);
    for d in spec.decls() {
        let _ = writeln!(out, "{}", render_decl(d));
    }
    out
}

/// Renders one declaration.
pub fn render_decl(d: &InstanceDecl) -> String {
    let mut out = format!("{} = {}(", d.name, d.callee);
    let mut first = true;
    for a in &d.args {
        if !first {
            out.push_str(", ");
        }
        first = false;
        out.push_str(&render_arg(a));
    }
    for (k, v) in &d.kwargs {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "{k}={}", render_arg(v));
    }
    out.push(')');
    if !d.server_modifiers.is_empty() {
        let mods = d.server_modifiers.join(", ");
        let _ = write!(out, ".with_server([{mods}])");
    }
    out
}

/// Renders one argument.
pub fn render_arg(a: &Arg) -> String {
    match a {
        Arg::Ref(n) => n.clone(),
        Arg::Str(s) => format!("\"{s}\""),
        Arg::Int(v) => v.to_string(),
        Arg::Float(v) => {
            // Always keep a decimal point so the value re-parses as a float.
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Arg::Bool(v) => v.to_string(),
        Arg::List(items) => {
            let inner: Vec<String> = items.iter().map(render_arg).collect();
            format!("[{}]", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    #[test]
    fn roundtrip_simple() {
        let mut w = WiringSpec::new("demo");
        w.define("d", "Docker", vec![]).unwrap();
        w.define_kw(
            "t",
            "ThriftServer",
            vec![
                Arg::Int(3),
                Arg::Float(2.0),
                Arg::Str("x".into()),
                Arg::Bool(true),
            ],
            vec![("pool", Arg::Int(16)), ("mode", Arg::Str("fast".into()))],
        )
        .unwrap();
        w.service("s", "Impl", &["d"], &["t"]).unwrap();
        let text = render(&w);
        let back = parse(&text).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn float_rendering_reparses_as_float() {
        assert_eq!(render_arg(&Arg::Float(2.0)), "2.0");
        assert_eq!(render_arg(&Arg::Float(0.25)), "0.25");
    }

    #[test]
    fn render_decl_shape_matches_fig3_style() {
        let mut w = WiringSpec::new("x");
        w.define("tracer", "ZipkinTracer", vec![]).unwrap();
        w.define_kw(
            "tm",
            "TracerModifier",
            vec![],
            vec![("tracer", Arg::r("tracer"))],
        )
        .unwrap();
        w.service("us", "UserServiceImpl", &[], &["tm"]).unwrap();
        let text = render(&w);
        assert!(text.contains("tm = TracerModifier(tracer=tracer)"));
        assert!(text.contains("us = UserServiceImpl().with_server([tm])"));
    }
}
