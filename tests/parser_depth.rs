//! Deeply nested source gives a typed parse error in every front end.
//!
//! The While, MiniJS and MiniC parsers are recursive descent, so nesting
//! without a limit overflows the stack, and a stack overflow aborts the
//! process where no panic guard can catch it. Each parser refuses to
//! nest past the GIL parser's `MAX_EXPR_DEPTH` and returns its
//! location-carrying `ParseError` instead. The three shapes below are
//! parentheses, a chain of prefix operators and nested blocks; each is
//! tried far past the limit and just under it.

use gillian::gil::parser::MAX_EXPR_DEPTH;

/// Nesting far past the limit: deep enough to abort an unguarded parser.
const DEEP: usize = 200_000;
/// Nesting just under the limit, leaving room for the enclosing
/// function body and statement.
const SHALLOW: usize = MAX_EXPR_DEPTH - 4;

/// A parse error's line, column and message.
type Located = (usize, usize, String);
/// A program nesting one shape `n` levels deep.
type Source = fn(usize) -> String;

/// One front end: its name, a parse function reporting where it failed,
/// and its source for each shape.
struct Lang {
    name: &'static str,
    parse: fn(&str) -> Result<(), Located>,
    parens: Source,
    prefix: Source,
    blocks: Source,
}

fn nest(open: &str, inner: &str, close: &str, n: usize) -> String {
    format!("{}{inner}{}", open.repeat(n), close.repeat(n))
}

const LANGS: [Lang; 3] = [
    Lang {
        name: "While",
        parse: |src| {
            gillian::while_lang::parse_program(src)
                .map(drop)
                .map_err(|e| (e.line, e.col, e.msg))
        },
        parens: |n| {
            format!(
                "proc main() {{ x := {}; return x; }}",
                nest("(", "1", ")", n)
            )
        },
        prefix: |n| format!("proc main() {{ x := {}1; return x; }}", "- ".repeat(n)),
        blocks: |n| {
            let body = nest("if (true) { ", "x := 1;", " }", n);
            format!("proc main() {{ x := 0; {body} return x; }}")
        },
    },
    Lang {
        name: "MiniJS",
        parse: |src| {
            gillian::js::parse_module(src)
                .map(drop)
                .map_err(|e| (e.line, e.col, e.msg))
        },
        parens: |n| {
            let e = nest("(", "1", ")", n);
            format!("function main() {{ var x = {e}; return x; }}")
        },
        prefix: |n| {
            format!(
                "function main() {{ var x = {}1; return x; }}",
                "!".repeat(n)
            )
        },
        blocks: |n| {
            let body = nest("if (true) { ", "x = 1;", " }", n);
            format!("function main() {{ var x = 0; {body} return x; }}")
        },
    },
    Lang {
        name: "MiniC",
        parse: |src| {
            gillian::c::parse_unit(src)
                .map(drop)
                .map_err(|e| (e.line, e.col, e.msg))
        },
        parens: |n| {
            format!(
                "int main() {{ int x = {}; return x; }}",
                nest("(", "1", ")", n)
            )
        },
        prefix: |n| format!("int main() {{ int x = {}1; return x; }}", "!".repeat(n)),
        blocks: |n| {
            let body = nest("if (1) { ", "x = 1;", " }", n);
            format!("int main() {{ int x = 0; {body} return x; }}")
        },
    },
];

fn shapes(lang: &Lang) -> [(&'static str, Source); 3] {
    [
        ("parentheses", lang.parens),
        ("prefix operators", lang.prefix),
        ("nested blocks", lang.blocks),
    ]
}

#[test]
fn deep_nesting_is_a_parse_error_in_every_front_end() {
    for lang in &LANGS {
        for (shape, source) in shapes(lang) {
            let src = source(DEEP);
            let (line, col, msg) = (lang.parse)(&src)
                .err()
                .unwrap_or_else(|| panic!("{}: {DEEP} {shape} parsed", lang.name));
            assert!(
                msg.contains("nesting deeper than"),
                "{}: {shape}: unexpected error {msg:?}",
                lang.name
            );
            // The source is one line; the error points into the nesting,
            // not at its start or past its end.
            assert_eq!(line, 1, "{}: {shape}", lang.name);
            assert!(
                col > MAX_EXPR_DEPTH && col < src.len() / 2,
                "{}: {shape}: error at column {col}",
                lang.name
            );
        }
    }
}

#[test]
fn nesting_just_under_the_limit_still_parses() {
    for lang in &LANGS {
        for (shape, source) in shapes(lang) {
            if let Err(e) = (lang.parse)(&source(SHALLOW)) {
                panic!("{}: {SHALLOW} {shape} rejected: {e:?}", lang.name);
            }
        }
    }
}
