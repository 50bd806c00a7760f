//! Rule `cast-discipline`: `as` casts on money/quanta/sim-time values
//! silently truncate, saturate, or lose integer precision (u64 → f64 is
//! exact only below 2^53). The newtypes in `flowtune-common` exist so
//! those conversions go through one audited constructor; a raw
//! `leased_quanta as f64` scattered through the core crates re-opens the
//! hole newtype-discipline closes. The rule flags the token sequence
//! `name as <numeric>` where `name` contains a money/time word, in the
//! core crates (minus `flowtune-common`, which implements the blessed
//! conversions).

use super::{Emitter, Rule};
use crate::lexer::TokenKind;
use crate::rules::newtype::is_quantity_ident;
use crate::scan::{FileKind, SourceFile};
use crate::workspace::CrateInfo;

/// The core library crates the rule guards: the shipping simulation
/// code, as opposed to the bench and analyzer tooling.
const CORE_CRATES: &[&str] = &[
    "flowtune-common",
    "flowtune-storage",
    "flowtune-index",
    "flowtune-query",
    "flowtune-dataflow",
    "flowtune-sched",
    "flowtune-interleave",
    "flowtune-cloud",
    "flowtune-tuner",
    "flowtune-core",
    "flowtune-obs",
];

/// Primitive numeric types an `as` cast can target.
const NUMERIC_TYPES: &[&str] = &[
    "f32", "f64", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128",
    "isize",
];

#[derive(Debug)]
pub struct CastDiscipline;

impl Rule for CastDiscipline {
    fn name(&self) -> &'static str {
        "cast-discipline"
    }

    fn check_file(&self, krate: &CrateInfo, file: &SourceFile, em: &mut Emitter<'_>) {
        if !CORE_CRATES.contains(&krate.name.as_str())
            || krate.name == "flowtune-common"
            || file.kind == FileKind::Test
        {
            return;
        }
        let toks = &file.tokens;
        for at in 0..toks.len().saturating_sub(2) {
            if !(toks[at].kind == TokenKind::Ident
                && is_quantity_ident(&toks[at].text)
                && toks[at + 1].is_ident("as")
                && toks[at + 2].kind == TokenKind::Ident
                && NUMERIC_TYPES.contains(&toks[at + 2].text.as_str()))
            {
                continue;
            }
            let line = toks[at].line;
            if file.is_test_line(line) {
                continue;
            }
            let (ident, ty) = (&toks[at].text, &toks[at + 2].text);
            em.emit(
                file,
                line,
                format!(
                    "`{ident} as {ty}` casts a money/time quantity; convert through \
                     the Money/SimTime/Quanta newtype APIs (or waive with the range invariant)"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cast_sites(code: &str) -> Vec<(String, String)> {
        let lines: Vec<String> = code.lines().map(str::to_owned).collect();
        let toks = lex(&lines);
        let mut out = Vec::new();
        for at in 0..toks.len().saturating_sub(2) {
            if toks[at].kind == TokenKind::Ident
                && is_quantity_ident(&toks[at].text)
                && toks[at + 1].is_ident("as")
                && toks[at + 2].kind == TokenKind::Ident
                && NUMERIC_TYPES.contains(&toks[at + 2].text.as_str())
            {
                out.push((toks[at].text.clone(), toks[at + 2].text.clone()));
            }
        }
        out
    }

    #[test]
    fn flags_quantity_casts_only() {
        assert_eq!(
            cast_sites("let x = exec.leased_quanta as f64;"),
            [("leased_quanta".to_string(), "f64".to_string())]
        );
        assert_eq!(
            cast_sites("(total_cost as u32)"),
            [("total_cost".to_string(), "u32".to_string())]
        );
        // Non-quantity idents, non-numeric targets, and plain `as`-free
        // code never fire.
        assert!(cast_sites("let x = rows as f64;").is_empty());
        assert!(cast_sites("let x = cost as Money;").is_empty());
        assert!(cast_sites("let cost: f64 = 1.0;").is_empty());
    }
}
