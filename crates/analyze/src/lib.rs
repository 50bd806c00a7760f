//! `flowtune-analyze` — the workspace invariant checker.
//!
//! A zero-external-dependency static-analysis pass over the flowtune
//! workspace, enforcing the repo-specific invariants the EDBT'20
//! reproduction depends on and that clippy cannot see. Clippy enforces
//! the token-level bans on wall clocks, env lookups, hash-ordered
//! collections and panics in library code; the root `Cargo.toml` and
//! `clippy.toml` configure them, and `ci/check.sh` runs clippy with
//! `-D warnings`. Rules here work on a token stream lexed from the
//! comment/string-stripped "code view" ([`lexer`]) plus a light item
//! model ([`model`]) that scopes `#[cfg(test)]` structurally:
//!
//! - **newtype-discipline** — no raw `f64` money/time bindings outside
//!   `flowtune-common`; use `Money`/`SimTime`/`Quanta`.
//! - **dep-hygiene** — every declared dependency is actually used.
//! - **cast-discipline** — no lossy `as` casts on money/time values.
//! - **obs-discipline** — obs names are dotted snake_case, unique, and
//!   present in the committed metrics golden.
//! - **waiver-audit** — stale/unknown/reason-less waivers are findings
//!   themselves.
//!
//! False positives are silenced in place with a mandatory-reason waiver
//! (a plain `//` comment — doc comments and strings don't count):
//!
//! ```text
//! // flowtune-allow(cast-discipline): leased-quanta counts stay far below 2^53
//! ```
//!
//! The pass is a library with one gate: the integration test
//! `tests/workspace_clean.rs` runs it over the live tree, so plain
//! `cargo test` fails on any finding, a stale waiver included, with
//! each finding's file:line in the message.

pub mod json;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use rules::{all_rules, Diagnostic, Emitter, Rule, Sink};
pub use scan::{FileKind, SourceFile};
pub use workspace::{CrateInfo, Workspace};

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The rule [`check`] runs after [`all_rules`], over the waivers they
/// used.
pub const WAIVER_AUDIT: &str = "waiver-audit";

/// Run every rule over the workspace rooted at `root`.
///
/// Diagnostics are sorted (file, line, rule) so output is deterministic —
/// the analyzer holds itself to the invariant it enforces.
pub fn check_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let ws = Workspace::discover(root)?;
    Ok(check(&ws))
}

/// Run every rule over an already-discovered workspace, then audit the
/// waivers against what the run actually suppressed.
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut sink = Sink::default();
    for rule in all_rules() {
        let name = rule.name();
        {
            let mut em = Emitter::new(name, &mut sink);
            rule.check_workspace(ws, &mut em);
        }
        for krate in &ws.crates {
            let mut em = Emitter::new(name, &mut sink);
            rule.check_crate(krate, &mut em);
            for file in &krate.files {
                let mut em = Emitter::new(name, &mut sink);
                rule.check_file(krate, file, &mut em);
            }
        }
    }
    audit_waivers(ws, &mut sink);
    let mut diags = sink.diags;
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// The waiver-audit post-pass. A `flowtune-allow(rule)` waiver is a
/// standing exception, and standing exceptions rot, so every declared
/// waiver must name a known rule (a typo means the intended waiver is
/// dead), carry a reason (scan.rs requires one, so a reason-less waiver
/// never suppressed anything), and have suppressed at least one finding
/// this run (a stale waiver hides nothing and would mask a future
/// regression). Runs in two sub-passes so a `waiver-audit` waiver that
/// suppresses an audit finding is itself counted as used before being
/// judged.
fn audit_waivers(ws: &Workspace, sink: &mut Sink) {
    let known: BTreeSet<&str> = all_rules()
        .iter()
        .map(|r| r.name())
        .chain([WAIVER_AUDIT])
        .collect();
    for pass_audit_waivers in [false, true] {
        for krate in &ws.crates {
            for file in &krate.files {
                for decl in &file.waiver_decls {
                    if (decl.rule == WAIVER_AUDIT) != pass_audit_waivers {
                        continue;
                    }
                    let used = sink.used_waivers.contains(&(
                        file.rel.clone(),
                        decl.rule.clone(),
                        decl.line,
                    ));
                    let mut em = Emitter::new(WAIVER_AUDIT, sink);
                    if !known.contains(decl.rule.as_str()) {
                        em.emit(
                            file,
                            decl.line,
                            format!(
                                "waiver names unknown rule `{}`; the intended waiver is dead",
                                decl.rule
                            ),
                        );
                    } else if !decl.has_reason {
                        em.emit(
                            file,
                            decl.line,
                            format!(
                                "waiver for `{}` has no `: reason` and suppresses nothing",
                                decl.rule
                            ),
                        );
                    } else if !used {
                        em.emit(
                            file,
                            decl.line,
                            format!(
                                "stale waiver: `{}` no longer fires on the covered lines; \
                                 delete it",
                                decl.rule
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The workspace root this crate was built from: `CARGO_MANIFEST_DIR`'s
/// grandparent, the live tree the tests analyze.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}
