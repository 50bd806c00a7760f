//! Rule `newtype-discipline`: money and simulated time are newtypes in
//! `flowtune-common` (`Money`, `SimTime`, `Quanta`) precisely so that
//! dollars never add to seconds. A raw `f64` annotated binding or field
//! whose name says it holds money or time re-opens that hole. The rule
//! is an identifier heuristic: it flags the token sequence
//! `name : f64` where `name` contains a money/time word, outside
//! `flowtune-common` itself (which defines the newtypes and their
//! internals).

use super::{Emitter, Rule};
use crate::scan::{FileKind, SourceFile};
use crate::workspace::CrateInfo;

/// Identifier fragments that mark a quantity as money or time.
pub(crate) const QUANTITY_WORDS: &[&str] = &[
    "cost", "price", "money", "dollar", "budget", "quanta", "time",
];

/// Does this identifier look like it names a money/time quantity?
pub(crate) fn is_quantity_ident(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    QUANTITY_WORDS.iter().any(|w| lower.contains(w))
}

/// Crates exempt from the rule: `flowtune-common` defines the newtypes;
/// the analyzer has no money/time quantities.
const EXEMPT_CRATES: &[&str] = &["flowtune-common", "flowtune-analyze"];

#[derive(Debug)]
pub struct NewtypeDiscipline;

impl Rule for NewtypeDiscipline {
    fn name(&self) -> &'static str {
        "newtype-discipline"
    }

    fn check_file(&self, krate: &CrateInfo, file: &SourceFile, em: &mut Emitter<'_>) {
        if EXEMPT_CRATES.contains(&krate.name.as_str()) || file.kind == FileKind::Test {
            return;
        }
        let toks = &file.tokens;
        for at in 0..toks.len().saturating_sub(2) {
            // The annotation form: `ident : f64` (binding, field, or
            // parameter). `as f64` and `Vec<f64>` have no colon.
            if !(toks[at].kind == crate::lexer::TokenKind::Ident
                && toks[at + 1].is_punct(":")
                && toks[at + 2].is_ident("f64"))
            {
                continue;
            }
            let line = toks[at].line;
            if file.is_test_line(line) {
                continue;
            }
            let ident = &toks[at].text;
            if is_quantity_ident(ident) {
                em.emit(
                    file,
                    line,
                    format!(
                        "`{ident}: f64` looks like a money/time quantity; \
                         use Money, SimTime, or Quanta from flowtune-common"
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn annotated_quantity_idents(code: &str) -> Vec<String> {
        let lines: Vec<String> = code.lines().map(str::to_owned).collect();
        let toks = lex(&lines);
        let mut out = Vec::new();
        for at in 0..toks.len().saturating_sub(2) {
            if toks[at].kind == crate::lexer::TokenKind::Ident
                && toks[at + 1].is_punct(":")
                && toks[at + 2].is_ident("f64")
                && is_quantity_ident(&toks[at].text)
            {
                out.push(toks[at].text.clone());
            }
        }
        out
    }

    #[test]
    fn extracts_annotated_idents() {
        assert_eq!(
            annotated_quantity_idents("let build_cost: f64 = 3.0;"),
            ["build_cost"]
        );
        assert_eq!(
            annotated_quantity_idents("fn f(price_per_hour: f64, n: u64)"),
            ["price_per_hour"]
        );
        assert_eq!(
            annotated_quantity_idents("pub total_time: f64,"),
            ["total_time"]
        );
        assert!(annotated_quantity_idents("let cost = time as f64;").is_empty());
        assert!(annotated_quantity_idents("cost_curve: Vec<f64>").is_empty());
    }
}
