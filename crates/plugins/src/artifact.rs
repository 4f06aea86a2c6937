//! Generated-artifact tree: the compiler's output.
//!
//! In the real toolchain these files would be written to disk and built into
//! container images; here the tree is kept in memory (with a `write_to`
//! escape hatch), and its LoC accounting backs the Tab. 1 reproduction.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Artifact flavors (drives LoC accounting buckets and syntax headers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ArtifactKind {
    /// Generated Rust source (wrappers, process mains, service skeletons).
    RustSource,
    /// Protocol buffer IDL.
    Proto,
    /// Thrift IDL.
    ThriftIdl,
    /// Dockerfile.
    Dockerfile,
    /// docker-compose manifest.
    Compose,
    /// Kubernetes manifest.
    K8s,
    /// Ansible playbook.
    Ansible,
    /// Configuration / env files.
    Config,
    /// Shell scripts.
    Script,
    /// Documentation.
    Doc,
}

/// One generated file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifact {
    /// File content.
    pub content: String,
    /// Flavor.
    pub kind: ArtifactKind,
}

impl Artifact {
    /// Non-blank lines of this artifact.
    pub fn loc(&self) -> usize {
        self.content
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count()
    }
}

/// The full tree of generated artifacts, keyed by relative path.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArtifactTree {
    files: BTreeMap<String, Artifact>,
}

impl ArtifactTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        ArtifactTree::default()
    }

    /// Adds (or replaces) a file.
    pub fn put(&mut self, path: impl Into<String>, kind: ArtifactKind, content: impl Into<String>) {
        self.files.insert(
            path.into(),
            Artifact {
                content: content.into(),
                kind,
            },
        );
    }

    /// Appends content to a file, creating it if missing.
    pub fn append(&mut self, path: &str, kind: ArtifactKind, content: &str) {
        match self.files.get_mut(path) {
            Some(a) => a.content.push_str(content),
            None => self.put(path, kind, content),
        }
    }

    /// Fetches a file.
    pub fn get(&self, path: &str) -> Option<&Artifact> {
        self.files.get(path)
    }

    /// Whether a file exists.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Iterates over `(path, artifact)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Artifact)> {
        self.files.iter().map(|(p, a)| (p.as_str(), a))
    }

    /// Paths matching a prefix.
    pub fn paths_under(&self, prefix: &str) -> Vec<&str> {
        self.files
            .keys()
            .filter(|p| p.starts_with(prefix))
            .map(String::as_str)
            .collect()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total non-blank LoC across all files.
    pub fn total_loc(&self) -> usize {
        self.files.values().map(Artifact::loc).sum()
    }

    /// LoC per artifact kind.
    pub fn loc_by_kind(&self) -> BTreeMap<ArtifactKind, usize> {
        let mut out = BTreeMap::new();
        for a in self.files.values() {
            *out.entry(a.kind).or_insert(0) += a.loc();
        }
        out
    }

    /// Writes the tree under a directory on disk.
    pub fn write_to(&self, root: &Path) -> std::io::Result<()> {
        for (path, artifact) in &self.files {
            let full = root.join(path);
            if let Some(dir) = full.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut f = std::fs::File::create(&full)?;
            f.write_all(artifact.content.as_bytes())?;
        }
        Ok(())
    }
}

/// Counts non-blank, non-comment lines of Rust-ish source (used by the
/// Tab. 1–4 LoC accounting over this repo's own sources). Counting stops at
/// the first `#[cfg(test)]` line: a file's test module is not part of the
/// implementation it measures.
pub fn source_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("#!"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_loc() {
        let mut t = ArtifactTree::new();
        t.put(
            "a/b.rs",
            ArtifactKind::RustSource,
            "fn main() {}\n\nstruct X;\n",
        );
        assert!(t.contains("a/b.rs"));
        assert_eq!(t.get("a/b.rs").unwrap().loc(), 2);
        assert_eq!(t.total_loc(), 2);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn append_creates_and_extends() {
        let mut t = ArtifactTree::new();
        t.append("x.proto", ArtifactKind::Proto, "line1\n");
        t.append("x.proto", ArtifactKind::Proto, "line2\n");
        assert_eq!(t.get("x.proto").unwrap().loc(), 2);
    }

    #[test]
    fn loc_by_kind_buckets() {
        let mut t = ArtifactTree::new();
        t.put("a.rs", ArtifactKind::RustSource, "x\ny\n");
        t.put("b.rs", ArtifactKind::RustSource, "z\n");
        t.put("c.proto", ArtifactKind::Proto, "p\n");
        let by = t.loc_by_kind();
        assert_eq!(by[&ArtifactKind::RustSource], 3);
        assert_eq!(by[&ArtifactKind::Proto], 1);
    }

    #[test]
    fn paths_under_prefix() {
        let mut t = ArtifactTree::new();
        t.put("svc/a/main.rs", ArtifactKind::RustSource, "x");
        t.put("svc/b/main.rs", ArtifactKind::RustSource, "x");
        t.put("docker/Dockerfile", ArtifactKind::Dockerfile, "x");
        assert_eq!(t.paths_under("svc/").len(), 2);
        assert_eq!(t.paths_under("docker").len(), 1);
    }

    #[test]
    fn source_loc_skips_comments() {
        let src = "// comment\nfn f() {}\n\n  // another\nlet x = 1;\n";
        assert_eq!(source_loc(src), 2);
        // The test module and everything after it is not counted.
        let with_tests = format!("{src}#[cfg(test)]\nmod tests {{\n    fn t() {{}}\n}}\n");
        assert_eq!(source_loc(&with_tests), 2);
    }

    #[test]
    fn write_to_disk_roundtrip() {
        let mut t = ArtifactTree::new();
        t.put("d/e.txt", ArtifactKind::Config, "hello");
        let dir = std::env::temp_dir().join(format!("bp_artifact_test_{}", std::process::id()));
        t.write_to(&dir).unwrap();
        let read = std::fs::read_to_string(dir.join("d/e.txt")).unwrap();
        assert_eq!(read, "hello");
        std::fs::remove_dir_all(&dir).ok();
    }
}
