//! Rule `dep-hygiene`: every dependency a manifest declares must be
//! referenced by the crate's sources. Unused declarations are not just
//! clutter — under the workspace's zero-external-dependency policy
//! (DESIGN §7) a stray registry dependency breaks the offline build for
//! every crate downstream of it. Normal dependencies must appear in
//! library/binary code; dev-dependencies must appear in tests, benches,
//! examples, or `#[cfg(test)]` modules.

use super::{Emitter, Rule};
use crate::scan::FileKind;
use crate::workspace::{CrateInfo, Dep};

#[derive(Debug)]
pub struct DepHygiene;

impl Rule for DepHygiene {
    fn name(&self) -> &'static str {
        "dep-hygiene"
    }

    fn check_crate(&self, krate: &CrateInfo, em: &mut Emitter<'_>) {
        for dep in &krate.deps {
            if !used_anywhere(krate, dep, false) {
                em.emit_raw(
                    krate.manifest_rel.clone(),
                    dep.line,
                    format!(
                        "dependency `{}` is declared but never used by {}",
                        dep.name, krate.name
                    ),
                );
            }
        }
        for dep in &krate.dev_deps {
            if !used_anywhere(krate, dep, true) {
                em.emit_raw(
                    krate.manifest_rel.clone(),
                    dep.line,
                    format!(
                        "dev-dependency `{}` is declared but never used by {}'s tests",
                        dep.name, krate.name
                    ),
                );
            }
        }
    }
}

/// Does any relevant token reference the dependency's crate identifier?
///
/// For normal deps every token counts; for dev-deps only test targets
/// and `#[cfg(test)]` regions count (a dev-dep referenced from shipping
/// code would be an undeclared real dependency, which cargo itself
/// rejects).
fn used_anywhere(krate: &CrateInfo, dep: &Dep, dev: bool) -> bool {
    let ident = dep.name.replace('-', "_");
    krate.files.iter().any(|file| {
        file.tokens.iter().any(|tok| {
            if dev && file.kind != FileKind::Test && !file.is_test_line(tok.line) {
                return false;
            }
            tok.is_ident(&ident)
        })
    })
}
