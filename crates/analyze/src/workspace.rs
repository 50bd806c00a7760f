//! Workspace discovery: find member crates, parse their manifests
//! (a minimal line-oriented TOML subset — section headers and
//! `key = value` pairs), and load every Rust source file attached to
//! each crate.

use crate::scan::{FileKind, SourceFile};
use std::path::{Path, PathBuf};

/// A declared dependency: name plus the manifest line it appears on
/// (1-based), so dep-hygiene diagnostics point at the exact line.
#[derive(Debug, Clone)]
pub struct Dep {
    pub name: String,
    pub line: usize,
}

/// One workspace member with its parsed manifest and loaded sources.
#[derive(Debug)]
pub struct CrateInfo {
    /// Package name from `[package] name = "…"`.
    pub name: String,
    /// Manifest path relative to the workspace root.
    pub manifest_rel: String,
    pub deps: Vec<Dep>,
    pub dev_deps: Vec<Dep>,
    pub files: Vec<SourceFile>,
}

/// The scanned workspace: every member crate under `<root>/crates/`.
#[derive(Debug)]
pub struct Workspace {
    pub root: PathBuf,
    pub crates: Vec<CrateInfo>,
}

impl Workspace {
    /// Discover and load all member crates under `root/crates/*`.
    ///
    /// Directories named `fixtures` are skipped while walking crate
    /// sources — the analyzer's own test fixtures are intentionally
    /// full of violations and must not count against the real tree.
    pub fn discover(root: &Path) -> std::io::Result<Workspace> {
        let crates_dir = root.join("crates");
        let mut members: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if dir.is_dir() && dir.join("Cargo.toml").is_file() {
                members.push(dir);
            }
        }
        members.sort();
        let mut crates = Vec::new();
        for dir in members {
            crates.push(load_crate(root, &dir)?);
        }

        Ok(Workspace {
            root: root.to_path_buf(),
            crates,
        })
    }
}

fn load_crate(root: &Path, dir: &Path) -> std::io::Result<CrateInfo> {
    let manifest_path = dir.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)?;
    let parsed = parse_manifest(&manifest);

    let mut files = Vec::new();
    collect_rs(&dir.join("src"), FileKind::Lib, &mut files)?;
    for sub in ["tests", "benches", "examples"] {
        collect_rs(&dir.join(sub), FileKind::Test, &mut files)?;
    }
    // Out-of-tree targets referenced by path (e.g. flowtune-core's
    // workspace-level tests/ and examples/).
    for target in &parsed.target_paths {
        let p = normalize(&dir.join(target));
        if p.extension().is_some_and(|e| e == "rs") && p.is_file() {
            files.push((FileKind::Test, p));
        }
    }

    files.sort_by(|a, b| a.1.cmp(&b.1));
    files.dedup_by(|a, b| a.1 == b.1);
    let mut sources = Vec::new();
    for (kind, path) in files {
        let rel = rel_to(root, &path);
        sources.push(SourceFile::load(&path, rel, kind)?);
    }

    Ok(CrateInfo {
        name: parsed.name,
        manifest_rel: rel_to(root, &manifest_path),
        deps: parsed.deps,
        dev_deps: parsed.dev_deps,
        files: sources,
    })
}

/// Recursively collect the `.rs` files under `dir` (if it exists) into
/// `out` as `kind`, skipping `fixtures` directories.
fn collect_rs(
    dir: &Path,
    kind: FileKind,
    out: &mut Vec<(FileKind, PathBuf)>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let p = entry?.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|f| f == "fixtures") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push((kind, p));
            }
        }
    }
    Ok(())
}

struct ParsedManifest {
    name: String,
    deps: Vec<Dep>,
    dev_deps: Vec<Dep>,
    /// `path = "…"` values from `[[test]]` / `[[example]]` / `[[bench]]`.
    target_paths: Vec<String>,
}

/// Line-oriented parse of the few manifest shapes this workspace uses.
fn parse_manifest(text: &str) -> ParsedManifest {
    let mut section = String::new();
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut dev_deps = Vec::new();
    let mut target_paths = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(|c| c == '[' || c == ']').to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "package" if key == "name" => {
                name = value.trim_matches('"').to_owned();
            }
            "dependencies" => deps.push(Dep {
                name: key.to_owned(),
                line: idx + 1,
            }),
            "dev-dependencies" => dev_deps.push(Dep {
                name: key.to_owned(),
                line: idx + 1,
            }),
            "test" | "example" | "bench" if key == "path" => {
                target_paths.push(value.trim_matches('"').to_owned());
            }
            _ => {}
        }
    }
    ParsedManifest {
        name,
        deps,
        dev_deps,
        target_paths,
    }
}

/// `path` relative to `root`, `/`-separated; falls back to the absolute
/// path display when `path` is outside `root`.
pub fn rel_to(root: &Path, path: &Path) -> String {
    let norm = normalize(path);
    let root = normalize(root);
    match norm.strip_prefix(&root) {
        Ok(r) => r
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/"),
        Err(_) => norm.display().to_string(),
    }
}

/// Resolve `..` / `.` components without touching the filesystem.
fn normalize(p: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in p.components() {
        match c {
            std::path::Component::ParentDir => {
                out.pop();
            }
            std::path::Component::CurDir => {}
            other => out.push(other.as_os_str()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_package_deps_and_target_paths() {
        let m = parse_manifest(
            r#"
[package]
name = "flowtune-core"

[dependencies]
flowtune-common = { workspace = true }
rand = "0.8"

[dev-dependencies]
proptest = "1"

[[test]]
name = "end_to_end"
path = "../../tests/end_to_end.rs"
"#,
        );
        assert_eq!(m.name, "flowtune-core");
        assert_eq!(
            m.deps.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
            ["flowtune-common", "rand"]
        );
        assert_eq!(m.dev_deps[0].name, "proptest");
        assert_eq!(m.target_paths, ["../../tests/end_to_end.rs"]);
    }

    #[test]
    fn rel_to_normalizes_parent_components() {
        let root = Path::new("/w");
        let p = Path::new("/w/crates/core/../../tests/x.rs");
        assert_eq!(rel_to(root, p), "tests/x.rs");
    }
}
