//! Untrusted source never panics a parser.
//!
//! Random bytes and random token soup go to the GIL text, While, MiniJS
//! and MiniC parsers; each input must come back `Ok` or as a typed parse
//! error. Inputs stay short, so nesting stays far under the depth limit;
//! deep nesting is `tests/parser_depth.rs`'s job. `PROPTEST_CASES`
//! scales the run (CI's fault battery runs it ten times larger).

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One parser: its name and whether it accepted the source.
type Parser = (&'static str, fn(&str) -> bool);

const PARSERS: [Parser; 5] = [
    ("GIL program", |src| {
        gillian::gil::parser::parse_prog(src).is_ok()
    }),
    ("GIL expression", |src| {
        gillian::gil::parser::parse_expr(src).is_ok()
    }),
    ("While", |src| {
        gillian::while_lang::parse_program(src).is_ok()
    }),
    ("MiniJS", |src| gillian::js::parse_module(src).is_ok()),
    ("MiniC", |src| gillian::c::parse_unit(src).is_ok()),
];

/// Runs every parser on `src`, failing on the first panic.
fn never_panics(src: &str) -> Result<(), TestCaseError> {
    for (name, parse) in PARSERS {
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(src)));
        prop_assert!(outcome.is_ok(), "{} parser panicked on {:?}", name, src);
    }
    Ok(())
}

/// Tokens of all five grammars, boundary literals, and broken lexemes:
/// unterminated strings and comments, stray escapes, lone sigils.
const WORDS: &str = r#"
    proc function int long char void struct var return if else while for
    goto skip assume assert symb symb_number symb_long fresh new delete
    typeof len hd tl nth not and or true false null undefined main x y #x0
    $ς1 _ ( ) { } [ ] {{ }} ; , . : := = == === != !== < <= > >= + - * / %
    & && | || ^ ! ~ << >> ++ -- ? -> 0 1 -1 7.5 1e308 1e309
    0x7fffffffffffffff 9223372036854775807 9223372036854775808
    -9223372036854775808 18446744073709551616 "s" " "\ "\u{ 'c' ' /* */
    // \ @ ` é
"#;

/// The words, plus the separators and control characters they cannot
/// hold.
fn tokens() -> Vec<&'static str> {
    WORDS
        .split_whitespace()
        .chain(["\n", "\t", "\u{0}"])
        .collect()
}

/// Openings that take each grammar past its first token, so the soup
/// reaches statement and expression positions.
const PREFIXES: &[&str] = &[
    "",
    "proc main() { ",
    "proc main() { x := ",
    "function main() { ",
    "function main() { var x = ",
    "int main() { ",
    "long main() { long x = ",
    "proc main(x) { ret := ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn random_bytes_never_panic_a_parser(
        bytes in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        never_panics(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics_a_parser(
        prefix in 0..PREFIXES.len(),
        soup in proptest::collection::vec(proptest::sample::select(tokens()), 0..48),
        spaced in any::<bool>(),
    ) {
        let sep = if spaced { " " } else { "" };
        never_panics(&format!("{}{}", PREFIXES[prefix], soup.join(sep)))?;
    }
}
