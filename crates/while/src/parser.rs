//! Parser for the While surface syntax.
//!
//! ```text
//! proc main() {
//!     x := symb();
//!     assume (x > 0);
//!     o := { value: x, tag: "point" };
//!     o.value := o.value + 1;     // via lookup/mutate statements
//!     v := o.value;
//!     if (v > 1) { r := ok(v); } else { r := 0; }
//!     while (v < 10) { v := v + 1; }
//!     assert (v = 10);
//!     dispose o;
//!     return v;
//! }
//! ```
//!
//! Expressions use conventional precedence
//! (`or < and < not < comparisons < + - < * / % < unary`), list literals
//! `[e, …]`, and the builtins `len`, `hd`, `tl`, `nth`, `rev`, `typeof`.

use crate::ast::{Function, Module, Stmt};
use gillian_gil::parser::MAX_EXPR_DEPTH;
use gillian_gil::{BinOp, Expr, UnOp};
use std::fmt;

/// A While parse error with line/column information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "while parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}
impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Punct(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

const PUNCTS: &[&str] = &[
    ":=", "!=", "<=", ">=", "==", "{", "}", "(", ")", "[", "]", ";", ",", ":", ".", "+", "-", "*",
    "/", "%", "<", ">", "=",
];

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn line_col(&self, at: usize) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for c in self.src[..at.min(self.src.len())].chars() {
            if c == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }

    fn skip_trivia(&mut self) {
        loop {
            let rest = &self.src[self.pos..];
            let trimmed = rest.trim_start();
            self.pos += rest.len() - trimmed.len();
            if self.src[self.pos..].starts_with("//") {
                match self.src[self.pos..].find('\n') {
                    Some(i) => self.pos += i + 1,
                    None => self.pos = self.src.len(),
                }
            } else if self.src[self.pos..].starts_with("/*") {
                match self.src[self.pos..].find("*/") {
                    Some(i) => self.pos += i + 2,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<(Tok, usize), ParseError> {
        self.skip_trivia();
        let at = self.pos;
        let rest = &self.src[self.pos..];
        let Some(c) = rest.chars().next() else {
            return Ok((Tok::Eof, at));
        };
        if c == '"' {
            let mut out = String::new();
            let mut chars = rest[1..].char_indices();
            loop {
                match chars.next() {
                    None => return Err(self.err_at(at, "unterminated string")),
                    Some((i, '"')) => {
                        self.pos += i + 2;
                        return Ok((Tok::Str(out), at));
                    }
                    Some((_, '\\')) => match chars.next() {
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, e)) => out.push(e),
                        None => return Err(self.err_at(at, "unterminated escape")),
                    },
                    Some((_, c)) => out.push(c),
                }
            }
        }
        if c.is_ascii_digit() {
            let mut len = 0;
            let mut is_float = false;
            for (i, d) in rest.char_indices() {
                if d.is_ascii_digit() {
                    len = i + 1;
                } else if d == '.'
                    && !is_float
                    && rest[i + 1..].starts_with(|x: char| x.is_ascii_digit())
                {
                    is_float = true;
                    len = i + 1;
                } else {
                    break;
                }
            }
            let text = &rest[..len];
            self.pos += len;
            return if is_float {
                text.parse()
                    .map(|x| (Tok::Float(x), at))
                    .map_err(|_| self.err_at(at, "malformed float literal"))
            } else {
                text.parse()
                    .map(|n| (Tok::Int(n), at))
                    .map_err(|_| self.err_at(at, "integer literal out of range"))
            };
        }
        if c.is_alphabetic() || c == '_' {
            let len = rest
                .char_indices()
                .take_while(|(_, d)| d.is_alphanumeric() || *d == '_')
                .map(|(i, d)| i + d.len_utf8())
                .last()
                .unwrap_or(0);
            self.pos += len;
            return Ok((Tok::Ident(rest[..len].to_string()), at));
        }
        for p in PUNCTS {
            if rest.starts_with(p) {
                self.pos += p.len();
                return Ok((Tok::Punct(p), at));
            }
        }
        Err(self.err_at(at, format!("unexpected character {c:?}")))
    }

    fn err_at(&self, at: usize, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.line_col(at);
        ParseError {
            line,
            col,
            msg: msg.into(),
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    tok_at: usize,
    /// Current nesting depth (see [`Parser::nested`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let (tok, tok_at) = lexer.next()?;
        Ok(Parser {
            lexer,
            tok,
            tok_at,
            depth: 0,
        })
    }

    fn bump(&mut self) -> Result<Tok, ParseError> {
        let (next, at) = self.lexer.next()?;
        self.tok_at = at;
        Ok(std::mem::replace(&mut self.tok, next))
    }

    /// Moves back to the token starting at byte `at`.
    fn rewind(&mut self, at: usize) -> Result<(), ParseError> {
        self.lexer.pos = at;
        self.bump()?;
        Ok(())
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(self.lexer.err_at(self.tok_at, msg))
    }

    /// Runs `f` one nesting level deeper (parentheses, a prefix operator,
    /// a statement), refusing to pass [`MAX_EXPR_DEPTH`]: deeper input
    /// would overflow the recursive descent's stack, which aborts the
    /// process instead of returning a [`ParseError`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return self.err(format!("nesting deeper than {MAX_EXPR_DEPTH} levels"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn is_punct(&self, p: &str) -> bool {
        matches!(&self.tok, Tok::Punct(q) if *q == p)
    }

    fn eat_punct(&mut self, p: &str) -> Result<bool, ParseError> {
        if self.is_punct(p) {
            self.bump()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p)? {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found {:?}", self.tok))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> Result<bool, ParseError> {
        if matches!(&self.tok, Tok::Ident(s) if s == kw) {
            self.bump()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or")? {
            e = e.or(self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and")? {
            e = e.and(self.not_expr()?);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not")? {
            Ok(self.nested(Self::not_expr)?.not())
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match &self.tok {
            Tok::Punct(q @ ("=" | "==" | "!=" | "<" | "<=" | ">" | ">=")) => {
                Some(if *q == "==" { "=" } else { *q })
            }
            _ => None,
        };
        let Some(op) = op else { return Ok(lhs) };
        self.bump()?;
        let rhs = self.add_expr()?;
        Ok(match op {
            "=" => lhs.eq(rhs),
            "!=" => lhs.ne(rhs),
            "<" => lhs.lt(rhs),
            "<=" => lhs.le(rhs),
            ">" => lhs.gt(rhs),
            ">=" => lhs.ge(rhs),
            _ => unreachable!(),
        })
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.mul_expr()?;
        loop {
            if self.eat_punct("+")? {
                e = e.add(self.mul_expr()?);
            } else if self.eat_punct("-")? {
                e = e.sub(self.mul_expr()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary_expr()?;
        loop {
            if self.eat_punct("*")? {
                e = e.mul(self.unary_expr()?);
            } else if self.eat_punct("/")? {
                e = e.div(self.unary_expr()?);
            } else if self.eat_punct("%")? {
                e = e.rem(self.unary_expr()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-")? {
            Ok(self.nested(Self::unary_expr)?.un(UnOp::Neg))
        } else {
            self.primary()
        }
    }

    fn call_one(&mut self, op: UnOp) -> Result<Expr, ParseError> {
        self.expect_punct("(")?;
        let e = self.expr()?;
        self.expect_punct(")")?;
        Ok(e.un(op))
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump()? {
            Tok::Int(n) => Ok(Expr::int(n)),
            Tok::Float(x) => Ok(Expr::num(x)),
            Tok::Str(s) => Ok(Expr::str(s)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Punct("[") => {
                let mut items = Vec::new();
                if !self.eat_punct("]")? {
                    loop {
                        items.push(self.expr()?);
                        if self.eat_punct("]")? {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::list(items))
            }
            Tok::Ident(id) => match id.as_str() {
                "true" => Ok(Expr::tt()),
                "false" => Ok(Expr::ff()),
                "len" => self.call_one(UnOp::LstLen),
                "hd" => self.call_one(UnOp::LstHead),
                "tl" => self.call_one(UnOp::LstTail),
                "rev" => self.call_one(UnOp::LstRev),
                "typeof" => self.call_one(UnOp::TypeOf),
                "nth" => {
                    self.expect_punct("(")?;
                    let l = self.expr()?;
                    self.expect_punct(",")?;
                    let i = self.expr()?;
                    self.expect_punct(")")?;
                    Ok(l.bin(BinOp::LstNth, i))
                }
                _ => Ok(Expr::pvar(id)),
            },
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}")? {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_inner)
    }

    /// Dispatches compound statements to a function each, so the frame
    /// each level of statement nesting keeps on the stack stays small.
    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("if")? {
            self.if_stmt()
        } else if self.eat_kw("while")? {
            self.while_stmt()
        } else {
            self.flat_stmt()
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then = self.block()?;
        let otherwise = if self.eat_kw("else")? {
            self.block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then,
            otherwise,
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Stmt::While { cond, body })
    }

    /// A statement that nests no statements.
    fn flat_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("return")? {
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(e));
        }
        if self.eat_kw("assume")? {
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assume(e));
        }
        if self.eat_kw("assert")? {
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assert(e));
        }
        if self.eat_kw("dispose")? {
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Dispose(e));
        }
        // Starts with an identifier: assignment forms or mutation.
        let name = self.ident()?;
        if self.eat_punct(".")? {
            // e.p := e'  (object denoted by a variable)
            let prop = self.ident()?;
            self.expect_punct(":=")?;
            let value = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Mutate {
                object: Expr::pvar(name),
                prop,
                value,
            });
        }
        self.expect_punct(":=")?;
        // Object literal.
        if self.eat_punct("{")? {
            let mut props = Vec::new();
            if !self.eat_punct("}")? {
                loop {
                    let p = self.ident()?;
                    self.expect_punct(":")?;
                    props.push((p, self.expr()?));
                    if self.eat_punct("}")? {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            self.expect_punct(";")?;
            return Ok(Stmt::New { lhs: name, props });
        }
        // `symb()`, a call `f(..)` or a lookup `v.p`; any other right-hand
        // side, builtins and `not` included, is an expression.
        if let Tok::Ident(id) = self.tok.clone() {
            let save_at = self.tok_at;
            self.bump()?;
            let builtin = matches!(
                id.as_str(),
                "len" | "hd" | "tl" | "rev" | "typeof" | "nth" | "not" | "true" | "false"
            );
            if !builtin && self.eat_punct("(")? {
                if id == "symb" {
                    self.expect_punct(")")?;
                    self.expect_punct(";")?;
                    return Ok(Stmt::Symb(name));
                }
                let mut args = Vec::new();
                if !self.eat_punct(")")? {
                    loop {
                        args.push(self.expr()?);
                        if self.eat_punct(")")? {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                self.expect_punct(";")?;
                return Ok(Stmt::Call {
                    lhs: name,
                    func: id,
                    args,
                });
            }
            if !builtin && self.eat_punct(".")? {
                let prop = self.ident()?;
                self.expect_punct(";")?;
                return Ok(Stmt::Lookup {
                    lhs: name,
                    object: Expr::pvar(id),
                    prop,
                });
            }
            self.rewind(save_at)?;
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign(name, e))
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        if !self.eat_kw("proc")? {
            return self.err("expected `proc`");
        }
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")")? {
            loop {
                params.push(self.ident()?);
                if self.eat_punct(")")? {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.block()?;
        Ok(Function { name, params, body })
    }
}

/// Parses a While program (a sequence of `proc` definitions).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_program(source: &str) -> Result<Module, ParseError> {
    let mut p = Parser::new(source)?;
    let mut module = Module::default();
    while p.tok != Tok::Eof {
        module.functions.push(p.function()?);
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_core_statements() {
        let m = parse_program(
            r#"
            proc main() {
                x := symb();
                assume (x > 0);
                o := { a: x, b: "s" };
                v := o.a;
                o.b := v + 1;
                if (v > 1) { y := 1; } else { y := 2; }
                while (y < 5) { y := y + 1; }
                r := helper(y, [1, 2]);
                assert (r >= 0);
                dispose o;
                return r;
            }
            proc helper(a, l) {
                return a + len(l);
            }
        "#,
        )
        .unwrap();
        assert_eq!(m.functions.len(), 2);
        let main = m.function("main").unwrap();
        assert_eq!(main.body.len(), 11);
        assert!(matches!(main.body[0], Stmt::Symb(_)));
        assert!(matches!(main.body[2], Stmt::New { .. }));
        assert!(matches!(main.body[3], Stmt::Lookup { .. }));
        assert!(matches!(main.body[4], Stmt::Mutate { .. }));
    }

    #[test]
    fn extreme_float_literals_lex_without_panicking() {
        // The float arm of the number lexer used to `unwrap()` the parse;
        // it must return a token (or a ParseError), never abort.
        let huge = format!("proc f() {{ x := {}.5; return x; }}", "9".repeat(400));
        assert!(parse_program(&huge).is_ok());
        assert!(parse_program("proc f() { x := 0.0000000001; return x; }").is_ok());
    }

    #[test]
    fn precedence_is_conventional() {
        let m = parse_program("proc f() { x := 1 + 2 * 3; return x; }").unwrap();
        let Stmt::Assign(_, e) = &m.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(e, &Expr::int(1).add(Expr::int(2).mul(Expr::int(3))));
    }

    #[test]
    fn assignment_from_variable_expression() {
        let m = parse_program("proc f(a, b) { x := a + b * 2; y := b; return x + y; }").unwrap();
        let Stmt::Assign(_, e) = &m.functions[0].body[0] else {
            panic!()
        };
        assert_eq!(e, &Expr::pvar("a").add(Expr::pvar("b").mul(Expr::int(2))));
        let Stmt::Assign(_, y) = &m.functions[0].body[1] else {
            panic!()
        };
        assert_eq!(y, &Expr::pvar("b"));
        // A builtin or `not` at the head of the right-hand side starts an
        // expression, not a procedure call.
        let l = || Expr::pvar("l");
        for (src, want) in [
            ("x := len(l);", l().un(UnOp::LstLen)),
            ("x := not y;", Expr::pvar("y").not()),
            ("x := hd(l) + 1;", l().un(UnOp::LstHead).add(Expr::int(1))),
            (
                r#"x := typeof(v) = "Int";"#,
                Expr::pvar("v").un(UnOp::TypeOf).eq(Expr::str("Int")),
            ),
        ] {
            let m = parse_program(&format!("proc f(l, v, y) {{ {src} return x; }}")).unwrap();
            assert_eq!(
                m.functions[0].body[0],
                Stmt::Assign("x".into(), want),
                "{src}"
            );
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_program("proc f( {").is_err());
        assert!(parse_program("proc f() { x := ; }").is_err());
        assert!(parse_program("f() {}").is_err());
    }
}
