//! The workflow spec: all service implementations of one application.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::service::{DepKind, ServiceImpl};
use crate::{Result, WorkflowError};

/// A complete workflow spec: the application-level half of a Blueprint
/// application (the other half being the wiring spec).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkflowSpec {
    /// Application name.
    pub name: String,
    /// Implementation name → service implementation.
    pub services: BTreeMap<String, ServiceImpl>,
}

impl WorkflowSpec {
    /// Creates an empty spec.
    pub fn new(name: impl Into<String>) -> Self {
        WorkflowSpec {
            name: name.into(),
            services: BTreeMap::new(),
        }
    }

    /// Adds a service implementation.
    pub fn add_service(&mut self, service: ServiceImpl) -> Result<()> {
        if self.services.contains_key(&service.name) {
            return Err(WorkflowError::Invalid(format!(
                "duplicate service implementation {}",
                service.name
            )));
        }
        service.validate()?;
        self.services.insert(service.name.clone(), service);
        Ok(())
    }

    /// Looks an implementation up by name.
    pub fn service(&self, name: &str) -> Option<&ServiceImpl> {
        self.services.get(name)
    }

    /// Finds the implementations of a given interface name.
    pub fn impls_of(&self, interface: &str) -> Vec<&ServiceImpl> {
        self.services
            .values()
            .filter(|s| s.interface.name == interface)
            .collect()
    }

    /// Validates cross-service consistency:
    ///
    /// * every service-dependency interface is implemented by some service in
    ///   the spec;
    /// * every `Call` step targets a method that exists on the dependency's
    ///   interface.
    pub fn validate(&self) -> Result<()> {
        // Each interface's first implementation in name order: what
        // `impls_of(iface).first()` returns, built in one pass so validation
        // stays linear in the service count.
        let mut first_impl: BTreeMap<&str, &ServiceImpl> = BTreeMap::new();
        for svc in self.services.values() {
            first_impl.entry(&svc.interface.name).or_insert(svc);
        }
        for svc in self.services.values() {
            svc.validate()?;
            for dep in &svc.deps {
                if let DepKind::Service(iface) = &dep.kind {
                    if !first_impl.contains_key(iface.as_str()) {
                        return Err(WorkflowError::Invalid(format!(
                            "{}: dependency `{}` needs interface {iface}, \
                             which no service in the spec implements",
                            svc.name, dep.name
                        )));
                    }
                }
            }
            for (method, behavior) in &svc.behaviors {
                for (dep, called) in behavior.calls() {
                    let Some(decl) = svc.dep(dep) else { continue };
                    if let DepKind::Service(iface) = &decl.kind {
                        let Some(target) = first_impl.get(iface.as_str()) else {
                            continue;
                        };
                        if !target.interface.has_method(called) {
                            return Err(WorkflowError::Invalid(format!(
                                "{}.{method}: calls {dep}.{called}, but interface {iface} \
                                 has no method {called}",
                                svc.name
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of interface methods across all services.
    pub fn method_count(&self) -> usize {
        self.services
            .values()
            .map(|s| s.interface.methods.len())
            .sum()
    }

    /// Total behavior size (step count) across all services — a rough
    /// complexity measure reported next to LoC in Tab. 1 tooling.
    pub fn behavior_size(&self) -> usize {
        self.services
            .values()
            .flat_map(|s| s.behaviors.values())
            .map(|b| b.size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::Behavior;
    use crate::interface::ServiceInterface;
    use crate::service::ServiceBuilder;
    use blueprint_ir::types::{MethodSig, TypeRef};

    fn leaf(name: &str, iface: &str, method: &str) -> ServiceImpl {
        ServiceBuilder::new(
            name,
            ServiceInterface::new(iface, vec![MethodSig::new(method, vec![], TypeRef::Unit)]),
        )
        .method(method, Behavior::build().compute(1000, 64).done())
        .done()
        .unwrap()
    }

    #[test]
    fn spec_with_resolved_deps_validates() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("UserServiceImpl", "UserService", "Login"))
            .unwrap();
        let front = ServiceBuilder::new(
            "FrontendImpl",
            ServiceInterface::new(
                "Frontend",
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("users", "UserService")
        .method("Handle", Behavior::build().call("users", "Login").done())
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        spec.validate().unwrap();
        assert_eq!(spec.method_count(), 2);
        assert!(spec.behavior_size() >= 2);
        assert_eq!(spec.impls_of("UserService").len(), 1);
    }

    #[test]
    fn unimplemented_interface_rejected() {
        let mut spec = WorkflowSpec::new("app");
        let front = ServiceBuilder::new(
            "FrontendImpl",
            ServiceInterface::new(
                "Frontend",
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("users", "UserService")
        .method("Handle", Behavior::build().call("users", "Login").done())
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        let err = spec.validate().unwrap_err();
        assert!(
            err.to_string()
                .contains("no service in the spec implements"),
            "{err}"
        );
    }

    #[test]
    fn bad_target_method_rejected() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("UserServiceImpl", "UserService", "Login"))
            .unwrap();
        let front = ServiceBuilder::new(
            "FrontendImpl",
            ServiceInterface::new(
                "Frontend",
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("users", "UserService")
        .method("Handle", Behavior::build().call("users", "Logout").done())
        .done()
        .unwrap();
        spec.add_service(front).unwrap();
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("no method Logout"), "{err}");
    }

    /// A frontend `name` depending on interface `iface` and calling
    /// `method` on it.
    fn caller(name: &str, iface: &str, method: &str) -> ServiceImpl {
        ServiceBuilder::new(
            name,
            ServiceInterface::new(
                format!("{name}Iface"),
                vec![MethodSig::new("Handle", vec![], TypeRef::Unit)],
            ),
        )
        .dep_service("dep", iface)
        .method("Handle", Behavior::build().call("dep", method).done())
        .done()
        .unwrap()
    }

    #[test]
    fn call_checked_against_first_impl_by_name() {
        // Two implementations of `UserService`: the first by name lacks
        // `Logout`, so the call is rejected even though the second has it.
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("BUsers", "UserService", "Logout"))
            .unwrap();
        spec.add_service(leaf("AUsers", "UserService", "Login"))
            .unwrap();
        spec.add_service(caller("Front", "UserService", "Logout"))
            .unwrap();
        assert_eq!(
            spec.validate().unwrap_err(),
            WorkflowError::Invalid(
                "Front.Handle: calls dep.Logout, but interface UserService has no method Logout"
                    .into()
            )
        );
    }

    #[test]
    fn unimplemented_interface_reported_for_first_service_by_name() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(caller("Zeta", "MissingZ", "M")).unwrap();
        spec.add_service(caller("Alpha", "MissingA", "M")).unwrap();
        assert_eq!(
            spec.validate().unwrap_err(),
            WorkflowError::Invalid(
                "Alpha: dependency `dep` needs interface MissingA, \
                 which no service in the spec implements"
                    .into()
            )
        );
    }

    #[test]
    fn duplicate_service_rejected() {
        let mut spec = WorkflowSpec::new("app");
        spec.add_service(leaf("A", "IA", "M")).unwrap();
        let err = spec.add_service(leaf("A", "IA", "M")).unwrap_err();
        assert!(matches!(err, WorkflowError::Invalid(_)));
    }
}
