//! The pluggable rule set.
//!
//! A rule is a stateless checker over the loaded workspace. File-level
//! rules implement [`Rule::check_file`] and are invoked once per source
//! file; crate-level rules (dep-hygiene) implement [`Rule::check_crate`];
//! rules that need cross-crate context (obs-discipline) implement
//! [`Rule::check_workspace`]. Waivers are honoured by the
//! engine: a rule reports a candidate via [`Emitter::emit`], which drops
//! it silently when the line carries a
//! `// flowtune-allow(<rule>): <reason>` waiver — and records the waiver
//! as *used*, which is what the stale-waiver audit keys off.

use std::collections::BTreeSet;

use crate::scan::SourceFile;
use crate::workspace::{CrateInfo, Workspace};

mod cast_discipline;
mod dep_hygiene;
mod newtype;
mod obs_discipline;

pub use cast_discipline::CastDiscipline;
pub use dep_hygiene::DepHygiene;
pub use newtype::NewtypeDiscipline;
pub use obs_discipline::ObsDiscipline;

/// One reported violation, pointing at a workspace-relative file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    /// 1-based.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Accumulated results of an analysis run: the findings plus which
/// waiver declarations actually suppressed something.
#[derive(Debug, Default)]
pub struct Sink {
    pub diags: Vec<Diagnostic>,
    /// `(file rel, rule, 0-based declaration line)` of every waiver that
    /// suppressed at least one finding.
    pub used_waivers: BTreeSet<(String, String, usize)>,
}

/// Waiver-aware diagnostic sink handed to rules.
#[derive(Debug)]
pub struct Emitter<'a> {
    rule: &'static str,
    sink: &'a mut Sink,
}

impl<'a> Emitter<'a> {
    pub fn new(rule: &'static str, sink: &'a mut Sink) -> Emitter<'a> {
        Emitter { rule, sink }
    }

    /// Report a violation at 0-based `line_idx` of `file`, unless waived.
    /// A suppressing waiver is recorded as used.
    pub fn emit(&mut self, file: &SourceFile, line_idx: usize, message: String) {
        let decls = file.waiver_decl_lines(self.rule, line_idx);
        if !decls.is_empty() {
            for &d in decls {
                self.sink
                    .used_waivers
                    .insert((file.rel.clone(), self.rule.to_owned(), d));
            }
            return;
        }
        self.sink.diags.push(Diagnostic {
            file: file.rel.clone(),
            line: line_idx + 1,
            rule: self.rule,
            message,
        });
    }

    /// Report a violation not tied to a source file (e.g. a manifest).
    pub fn emit_raw(&mut self, file: String, line: usize, message: String) {
        self.sink.diags.push(Diagnostic {
            file,
            line,
            rule: self.rule,
            message,
        });
    }
}

/// A single invariant checker.
pub trait Rule {
    fn name(&self) -> &'static str;

    fn check_file(&self, _krate: &CrateInfo, _file: &SourceFile, _em: &mut Emitter<'_>) {}

    fn check_crate(&self, _krate: &CrateInfo, _em: &mut Emitter<'_>) {}

    /// Cross-crate checks (duplicate detection, metrics-golden membership).
    fn check_workspace(&self, _ws: &Workspace, _em: &mut Emitter<'_>) {}
}

/// The rule registry. The fifth rule, [`crate::WAIVER_AUDIT`], is no
/// entry here: it judges the waivers these rules used, so [`crate::check`]
/// runs it after them.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NewtypeDiscipline),
        Box::new(DepHygiene),
        Box::new(CastDiscipline),
        Box::new(ObsDiscipline),
    ]
}
