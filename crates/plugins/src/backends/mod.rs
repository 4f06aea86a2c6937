//! Backend instantiation plugins (paper Tab. 3).
//!
//! Each instantiation lives in its own module so the Tab. 3 LoC accounting
//! can attribute implementation effort per instantiation, exactly like the
//! paper does. This module holds the code shared by all backend kinds — the
//! "Compiler" column of Tab. 2.

pub mod memcached;
pub mod mongodb;
pub mod mysql;
pub mod rabbitmq;
pub mod redis;

pub use memcached::MemcachedPlugin;
pub use mongodb::MongoDbPlugin;
pub use mysql::MySqlPlugin;
pub use rabbitmq::RabbitMqPlugin;
pub use redis::RedisPlugin;

use blueprint_ir::{Granularity, IrGraph, NodeId, PropValue};
use blueprint_wiring::InstanceDecl;

use crate::api::{PluginError, PluginResult};
use crate::artifact::{ArtifactKind, ArtifactTree};

/// Builds a backend component node with defaults overridable by wiring
/// keyword arguments (integers and floats only).
pub fn backend_node(
    decl: &InstanceDecl,
    ir: &mut IrGraph,
    kind: &str,
    defaults: &[(&str, PropValue)],
) -> PluginResult<NodeId> {
    let node = ir.add_component(&decl.name, kind, Granularity::Process)?;
    {
        let props = &mut ir.node_mut(node)?.props;
        for (k, v) in defaults {
            props.set(*k, v.clone());
        }
    }
    for (k, v) in &decl.kwargs {
        let value = match v {
            blueprint_wiring::Arg::Int(i) => PropValue::Int(*i),
            blueprint_wiring::Arg::Float(f) => PropValue::Float(*f),
            blueprint_wiring::Arg::Str(s) => PropValue::Str(s.clone()),
            blueprint_wiring::Arg::Bool(b) => PropValue::Bool(*b),
            other => {
                return Err(PluginError::BadDecl {
                    instance: decl.name.clone(),
                    message: format!("unsupported kwarg `{k}` = {other:?}"),
                });
            }
        };
        ir.node_mut(node)?.props.set(k.as_str(), value);
    }
    Ok(node)
}

/// Emits the standard pre-built-image container artifacts for a backend
/// instance: a Dockerfile and an env-config snippet.
pub fn backend_container_artifacts(
    ir: &IrGraph,
    node: NodeId,
    image: &str,
    port: u16,
    out: &mut ArtifactTree,
) -> PluginResult<()> {
    let n = ir.node(node)?;
    let path = format!("docker/{}/Dockerfile", n.name);
    out.put(
        path,
        ArtifactKind::Dockerfile,
        format!("FROM {image}\nEXPOSE {port}\nCMD [\"run\"]\n"),
    );
    out.append(
        "config/addresses.env",
        ArtifactKind::Config,
        &format!(
            "{}_ADDRESS={}\n{}_PORT={}\n",
            n.name.to_uppercase(),
            n.name,
            n.name.to_uppercase(),
            port
        ),
    );
    Ok(())
}

/// Microseconds-property helper: read `key_us` as nanoseconds with a default.
pub fn prop_us_to_ns(ir: &IrGraph, node: NodeId, key: &str, default_ns: u64) -> u64 {
    ir.node(node)
        .ok()
        .and_then(|n| n.props.float(key))
        .map(|us| (us * 1000.0) as u64)
        .unwrap_or(default_ns)
}

/// Charges the caller the client-driver cost per operation (protocol
/// encoding and syscalls) that the backend's build recorded as
/// `client_op_us`.
pub fn driver_client_op(node: NodeId, ir: &IrGraph, client: &mut blueprint_simrt::ClientSpec) {
    client.client_overhead_ns += prop_us_to_ns(ir, node, "client_op_us", 0);
}

/// Lowers the `consistency` / `quorum_w` / `quorum_r` wiring kwargs of a
/// store instance to a
/// [`ConsistencyMode`](blueprint_simrt::ConsistencyMode). Accepted
/// `consistency` values are the mode labels (`"primary"`, `"read_replica"`,
/// `"quorum"`, `"session"`); anything else — including the kwarg's absence
/// — lowers to the historical `ReadReplica` (the lints, not the lowering,
/// flag hazards).
pub fn store_consistency(ir: &IrGraph, node: NodeId) -> blueprint_simrt::ConsistencyMode {
    use blueprint_simrt::ConsistencyMode;
    let Ok(n) = ir.node(node) else {
        return ConsistencyMode::ReadReplica;
    };
    match n.props.str("consistency").unwrap_or("read_replica") {
        "primary" => ConsistencyMode::Primary,
        "quorum" => ConsistencyMode::Quorum {
            w: n.props.int_or("quorum_w", 2).max(1) as u32,
            r: n.props.int_or("quorum_r", 2).max(1) as u32,
        },
        "session" => ConsistencyMode::Session,
        _ => ConsistencyMode::ReadReplica,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_wiring::Arg;

    #[test]
    fn backend_node_applies_defaults_and_overrides() {
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "c1".into(),
            callee: "Memcached".into(),
            args: vec![],
            kwargs: [("capacity".to_string(), Arg::Int(5000))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        let n = backend_node(
            &decl,
            &mut ir,
            "backend.cache.memcached",
            &[
                ("capacity", PropValue::Int(1_000_000)),
                ("op_latency_us", PropValue::Float(100.0)),
            ],
        )
        .unwrap();
        let node = ir.node(n).unwrap();
        assert_eq!(node.props.int("capacity"), Some(5000));
        assert_eq!(node.props.float("op_latency_us"), Some(100.0));
        assert_eq!(node.granularity, Granularity::Process);
    }

    #[test]
    fn list_kwargs_rejected() {
        let mut ir = IrGraph::new("t");
        let decl = InstanceDecl {
            name: "c1".into(),
            callee: "X".into(),
            args: vec![],
            kwargs: [("xs".to_string(), Arg::List(vec![]))]
                .into_iter()
                .collect(),
            server_modifiers: vec![],
        };
        assert!(backend_node(&decl, &mut ir, "backend.x", &[]).is_err());
    }

    #[test]
    fn container_artifacts_emitted() {
        let mut ir = IrGraph::new("t");
        let n = ir
            .add_component("post_db", "backend.nosql.mongodb", Granularity::Process)
            .unwrap();
        let mut out = ArtifactTree::new();
        backend_container_artifacts(&ir, n, "mongo:6.0", 27017, &mut out).unwrap();
        assert!(out
            .get("docker/post_db/Dockerfile")
            .unwrap()
            .content
            .contains("FROM mongo:6.0"));
        assert!(out
            .get("config/addresses.env")
            .unwrap()
            .content
            .contains("POST_DB_PORT=27017"));
    }

    #[test]
    fn prop_us_conversion() {
        let mut ir = IrGraph::new("t");
        let n = ir
            .add_component("c", "backend.cache.redis", Granularity::Process)
            .unwrap();
        ir.node_mut(n).unwrap().props.set("lat_us", 2.5);
        assert_eq!(prop_us_to_ns(&ir, n, "lat_us", 999), 2500);
        assert_eq!(prop_us_to_ns(&ir, n, "missing", 999), 999);
    }
}
