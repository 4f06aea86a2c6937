//! Wiring spec AST and programmatic builder.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};

use serde::{Deserialize, Serialize};

use crate::{Result, WiringError};

/// An argument in a wiring declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Arg {
    /// Reference to another wiring instance by name.
    Ref(String),
    /// String literal.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// List of arguments.
    List(Vec<Arg>),
}

impl Arg {
    /// Shorthand for a reference.
    pub fn r(name: &str) -> Arg {
        Arg::Ref(name.to_string())
    }

    /// All reference names inside this argument, recursively.
    pub fn refs(&self) -> Vec<&str> {
        match self {
            Arg::Ref(n) => vec![n.as_str()],
            Arg::List(items) => items.iter().flat_map(Arg::refs).collect(),
            _ => Vec::new(),
        }
    }

    /// Integer value, if this is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Arg::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float value (integers coerce).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Arg::Float(v) => Some(*v),
            Arg::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String value, if this is a string literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Arg::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Reference name, if this is a reference.
    pub fn as_ref_name(&self) -> Option<&str> {
        match self {
            Arg::Ref(n) => Some(n),
            _ => None,
        }
    }
}

/// One wiring declaration: `name = Callee(args, kw=..)[.with_server([mods])]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceDecl {
    /// Instance name (left-hand side).
    pub name: String,
    /// Callee identifier resolved against the plugin registry at compile time
    /// (e.g. `Memcached`, `UserServiceImpl`, `GRPCServer`, `Container`).
    pub callee: String,
    /// Positional arguments.
    pub args: Vec<Arg>,
    /// Keyword arguments.
    pub kwargs: BTreeMap<String, Arg>,
    /// Names of modifier instances applied via `.with_server([...])`,
    /// innermost first.
    pub server_modifiers: Vec<String>,
}

impl InstanceDecl {
    /// All instance names this declaration references (args, kwargs, and
    /// server modifiers).
    pub fn referenced(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.args.iter().flat_map(Arg::refs).collect();
        out.extend(self.kwargs.values().flat_map(Arg::refs));
        out.extend(self.server_modifiers.iter().map(String::as_str));
        out
    }

    /// Keyword argument accessor.
    pub fn kwarg(&self, key: &str) -> Option<&Arg> {
        self.kwargs.get(key)
    }
}

/// A complete wiring spec: an ordered list of declarations.
///
/// Order matters: references must be declared before use, mirroring the
/// straight-line style of the paper's wiring files.
///
/// The spec keeps a name → position index beside the declarations, so
/// [`add`](Self::add) and [`decl`](Self::decl) cost one hash lookup per name
/// whatever the spec's size. The declarations are private: every edit goes
/// through a method that keeps the index in sync, and the index always
/// names the first declaration of each name, as a scan in order would find
/// it.
#[derive(Clone, Default, PartialEq)]
pub struct WiringSpec {
    /// Application name.
    pub app_name: String,
    decls: Vec<InstanceDecl>,
    index: HashMap<String, usize>,
}

impl fmt::Debug for WiringSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The index is derived from `decls`; leaving it out keeps the
        // output deterministic.
        f.debug_struct("WiringSpec")
            .field("app_name", &self.app_name)
            .field("decls", &self.decls)
            .finish()
    }
}

/// Mutable access to one declaration, from [`WiringSpec::decl_mut`]. If the
/// edit renames the declaration, the name index is re-keyed when the guard
/// drops.
pub struct DeclMut<'a> {
    spec: &'a mut WiringSpec,
    at: usize,
}

impl Deref for DeclMut<'_> {
    type Target = InstanceDecl;

    fn deref(&self) -> &InstanceDecl {
        &self.spec.decls[self.at]
    }
}

impl DerefMut for DeclMut<'_> {
    fn deref_mut(&mut self) -> &mut InstanceDecl {
        &mut self.spec.decls[self.at]
    }
}

impl Drop for DeclMut<'_> {
    fn drop(&mut self) {
        if !self.spec.indexed_at(self.at) {
            self.spec.reindex();
        }
    }
}

impl WiringSpec {
    /// Creates an empty wiring spec.
    pub fn new(app_name: impl Into<String>) -> Self {
        WiringSpec {
            app_name: app_name.into(),
            ..WiringSpec::default()
        }
    }

    /// Declarations, in order.
    pub fn decls(&self) -> &[InstanceDecl] {
        &self.decls
    }

    /// Adds a declaration, checking name uniqueness and define-before-use
    /// against the name index. A duplicate name is reported ahead of an
    /// undefined reference, and of several undefined references the first in
    /// [`InstanceDecl::referenced`] order.
    pub fn add(&mut self, decl: InstanceDecl) -> Result<()> {
        if self.index.contains_key(&decl.name) {
            return Err(WiringError::DuplicateName(decl.name));
        }
        if let Some(r) = decl
            .referenced()
            .into_iter()
            .find(|r| !self.index.contains_key(*r))
        {
            return Err(WiringError::UndefinedRef {
                instance: decl.name.clone(),
                referenced: r.to_string(),
            });
        }
        self.index.insert(decl.name.clone(), self.decls.len());
        self.decls.push(decl);
        Ok(())
    }

    /// Convenience: declare `name = callee(args...)`.
    pub fn define(&mut self, name: &str, callee: &str, args: Vec<Arg>) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: callee.into(),
            args,
            kwargs: BTreeMap::new(),
            server_modifiers: Vec::new(),
        })
    }

    /// Convenience: declare with keyword arguments.
    pub fn define_kw(
        &mut self,
        name: &str,
        callee: &str,
        args: Vec<Arg>,
        kwargs: Vec<(&str, Arg)>,
    ) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: callee.into(),
            args,
            kwargs: kwargs
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            server_modifiers: Vec::new(),
        })
    }

    /// Convenience: declare a service instance with server modifiers, the
    /// `X = Impl(deps).WithServer(mods)` pattern of Fig. 3.
    pub fn service(
        &mut self,
        name: &str,
        impl_name: &str,
        deps: &[&str],
        server_modifiers: &[&str],
    ) -> Result<()> {
        self.add(InstanceDecl {
            name: name.into(),
            callee: impl_name.into(),
            args: deps.iter().map(|d| Arg::r(d)).collect(),
            kwargs: BTreeMap::new(),
            server_modifiers: server_modifiers.iter().map(|m| m.to_string()).collect(),
        })
    }

    /// Convenience: group instances into a container namespace.
    pub fn container(&mut self, name: &str, members: &[&str]) -> Result<()> {
        self.define(
            name,
            "Container",
            members.iter().map(|m| Arg::r(m)).collect(),
        )
    }

    /// Convenience: group instances into a process namespace.
    pub fn process(&mut self, name: &str, members: &[&str]) -> Result<()> {
        self.define(name, "Process", members.iter().map(|m| Arg::r(m)).collect())
    }

    /// Looks a declaration up by name.
    pub fn decl(&self, name: &str) -> Option<&InstanceDecl> {
        self.index.get(name).map(|&at| &self.decls[at])
    }

    /// Looks a declaration up mutably by name. Edits are not checked; call
    /// [`validate`](Self::validate) after edits that may break
    /// define-before-use.
    pub fn decl_mut(&mut self, name: &str) -> Option<DeclMut<'_>> {
        let at = *self.index.get(name)?;
        Some(DeclMut { spec: self, at })
    }

    /// Applies `edit` to every declaration in order.
    pub fn edit_all(&mut self, mut edit: impl FnMut(&mut InstanceDecl)) {
        self.decls.iter_mut().for_each(&mut edit);
        if !(0..self.decls.len()).all(|at| self.indexed_at(at)) {
            self.reindex();
        }
    }

    /// Removes every declaration named `name`. Returns whether one was
    /// removed; references to it elsewhere are left as they are.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.decls.len();
        self.decls.retain(|d| d.name != name);
        let removed = self.decls.len() != before;
        if removed {
            self.reindex();
        }
        removed
    }

    /// Inserts `decl` right before the declaration named `at`. Uniqueness
    /// and define-before-use are not checked.
    pub fn insert_before(&mut self, at: &str, decl: InstanceDecl) -> Result<()> {
        let pos = self.position(at)?;
        self.decls.insert(pos, decl);
        self.reindex();
        Ok(())
    }

    /// Replaces the declaration named `at` by `with`, in place. Uniqueness
    /// and define-before-use are not checked.
    pub fn replace(&mut self, at: &str, with: Vec<InstanceDecl>) -> Result<()> {
        let pos = self.position(at)?;
        self.decls.splice(pos..=pos, with);
        self.reindex();
        Ok(())
    }

    /// Takes every declaration out, leaving the spec empty; [`Self::set_decls`]
    /// puts a reordered list back.
    pub(crate) fn take_decls(&mut self) -> Vec<InstanceDecl> {
        self.index.clear();
        std::mem::take(&mut self.decls)
    }

    /// Replaces every declaration and rebuilds the index.
    pub(crate) fn set_decls(&mut self, decls: Vec<InstanceDecl>) {
        self.decls = decls;
        self.reindex();
    }

    /// The position of the declaration named `at`.
    fn position(&self, at: &str) -> Result<usize> {
        self.index
            .get(at)
            .copied()
            .ok_or_else(|| WiringError::UnknownInstance(at.to_string()))
    }

    /// Whether the index maps the name of the declaration at `at` to `at`.
    fn indexed_at(&self, at: usize) -> bool {
        self.index.get(self.decls[at].name.as_str()) == Some(&at)
    }

    /// Rebuilds the index from the declarations, first occurrence winning.
    fn reindex(&mut self) {
        self.index.clear();
        for (at, d) in self.decls.iter().enumerate() {
            self.index.entry(d.name.clone()).or_insert(at);
        }
    }

    /// Validates the whole spec (uniqueness + define-before-use), useful after
    /// mutation helpers that edit declarations in place.
    pub fn validate(&self) -> Result<()> {
        let mut known: BTreeSet<&str> = BTreeSet::new();
        for d in &self.decls {
            if !known.insert(d.name.as_str()) {
                return Err(WiringError::DuplicateName(d.name.clone()));
            }
            for r in d.referenced() {
                if !known.contains(r) {
                    return Err(WiringError::UndefinedRef {
                        instance: d.name.clone(),
                        referenced: r.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Lines of wiring spec (the number reported in Tab. 1 — one declaration
    /// is one line in the textual DSL).
    pub fn loc(&self) -> usize {
        self.decls.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_spec() -> WiringSpec {
        let mut w = WiringSpec::new("dsb_sn_excerpt");
        w.define("normal_deployer", "Docker", vec![]).unwrap();
        w.define("rpc_server", "GRPCServer", vec![]).unwrap();
        w.define("tracer", "ZipkinTracer", vec![]).unwrap();
        w.define_kw(
            "tracer_mod",
            "TracerModifier",
            vec![],
            vec![("tracer", Arg::r("tracer"))],
        )
        .unwrap();
        w.define("post_cache", "Memcached", vec![]).unwrap();
        w.define("post_db", "MongoDB", vec![]).unwrap();
        w.define("user_db", "MongoDB", vec![]).unwrap();
        let mods = ["rpc_server", "normal_deployer", "tracer_mod"];
        w.service("us", "UserServiceImpl", &["user_db"], &mods)
            .unwrap();
        w.service(
            "ps",
            "PostStorageServiceImpl",
            &["post_cache", "post_db"],
            &mods,
        )
        .unwrap();
        w.container("c1", &["ps", "post_cache"]).unwrap();
        w.service("cs", "ComposePostServiceImpl", &["ps", "us"], &mods)
            .unwrap();
        w
    }

    #[test]
    fn fig3_builds_and_validates() {
        let w = fig3_spec();
        w.validate().unwrap();
        assert_eq!(w.loc(), 11);
        assert_eq!(
            w.decls().iter().filter(|d| d.callee == "MongoDB").count(),
            2
        );
        let cs = w.decl("cs").unwrap();
        assert_eq!(
            cs.server_modifiers,
            vec!["rpc_server", "normal_deployer", "tracer_mod"]
        );
        assert_eq!(cs.args, vec![Arg::r("ps"), Arg::r("us")]);
    }

    #[test]
    fn duplicate_rejected() {
        let mut w = fig3_spec();
        let err = w.define("us", "Docker", vec![]).unwrap_err();
        assert!(matches!(err, WiringError::DuplicateName(_)));
    }

    #[test]
    fn use_before_define_rejected() {
        let mut w = WiringSpec::new("t");
        let err = w.service("s", "Impl", &["missing_db"], &[]).unwrap_err();
        assert!(matches!(err, WiringError::UndefinedRef { .. }));
    }

    #[test]
    fn duplicate_name_reported_before_undefined_ref() {
        let mut w = fig3_spec();
        let err = w.service("us", "Impl", &["missing_db"], &[]).unwrap_err();
        assert_eq!(err, WiringError::DuplicateName("us".into()));
    }

    #[test]
    fn first_undefined_ref_in_reference_order_reported() {
        let mut w = fig3_spec();
        // `referenced()` lists positional args, then kwargs, then server
        // modifiers; the first missing one of those is the one named.
        let err = w
            .add(InstanceDecl {
                name: "s".into(),
                callee: "Impl".into(),
                args: vec![Arg::r("post_db"), Arg::r("missing_b")],
                kwargs: [("db".to_string(), Arg::r("user_db"))].into(),
                server_modifiers: vec!["missing_a".into()],
            })
            .unwrap_err();
        assert_eq!(
            err,
            WiringError::UndefinedRef {
                instance: "s".into(),
                referenced: "missing_b".into(),
            }
        );
        assert_eq!(w.loc(), 11, "a rejected declaration is not added");
    }

    #[test]
    fn self_reference_is_undefined() {
        let mut w = fig3_spec();
        let err = w.service("s", "Impl", &["user_db", "s"], &[]).unwrap_err();
        assert_eq!(
            err,
            WiringError::UndefinedRef {
                instance: "s".into(),
                referenced: "s".into(),
            }
        );
    }

    #[test]
    fn kwargs_and_refs() {
        let w = fig3_spec();
        let tm = w.decl("tracer_mod").unwrap();
        assert_eq!(tm.kwarg("tracer").unwrap().as_ref_name(), Some("tracer"));
        assert!(tm.referenced().contains(&"tracer"));
    }

    #[test]
    fn arg_accessors() {
        assert_eq!(Arg::Int(3).as_int(), Some(3));
        assert_eq!(Arg::Int(3).as_float(), Some(3.0));
        assert_eq!(Arg::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Arg::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Arg::Bool(true).as_int(), None);
        let l = Arg::List(vec![Arg::r("a"), Arg::List(vec![Arg::r("b")]), Arg::Int(1)]);
        assert_eq!(l.refs(), vec!["a", "b"]);
    }

    #[test]
    fn rename_through_decl_mut_rekeys_the_index() {
        let mut w = fig3_spec();
        w.decl_mut("us").unwrap().name = "users".into();
        assert!(w.decl("us").is_none());
        assert_eq!(w.decl("users").unwrap().callee, "UserServiceImpl");
        w.define("us", "Docker", vec![]).unwrap();
        assert_eq!(w.decl("us").unwrap().callee, "Docker");
        // A rename onto an existing name leaves the earlier declaration
        // first, as a scan in order finds it.
        w.decl_mut("cs").unwrap().name = "post_db".into();
        assert_eq!(w.decl("post_db").unwrap().callee, "MongoDB");
        assert!(w.decl("cs").is_none());
        assert_eq!(
            w.validate().unwrap_err(),
            WiringError::DuplicateName("post_db".into())
        );
    }

    #[test]
    fn debug_output_omits_the_index() {
        let w = fig3_spec();
        let text = format!("{w:?}");
        assert!(text.starts_with("WiringSpec { app_name: \"dsb_sn_excerpt\", decls: ["));
        assert!(!text.contains("index"));
    }

    #[test]
    fn validate_catches_in_place_corruption() {
        let mut w = fig3_spec();
        // Mutate an arg to reference a name declared later than the use site.
        w.decl_mut("us").unwrap().args[0] = Arg::r("cs");
        assert!(matches!(
            w.validate().unwrap_err(),
            WiringError::UndefinedRef { .. }
        ));
    }
}
