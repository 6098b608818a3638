//! Parser for the MiniJS surface syntax.
//!
//! A JavaScript-looking grammar:
//!
//! ```text
//! function stackPush(s, x) {
//!     s.items[s.size] = x;
//!     s.size = s.size + 1;
//!     if (s.size > s.capacity) { throw "overflow"; }
//!     return s;
//! }
//! ```
//!
//! Precedence: `||` < `&&` < equality < relational < `+ -` < `* / %` <
//! unary (`!`, `-`, `typeof`) < postfix (`.p`, `[e]`, call).

use crate::ast::{BinOp, Expr, Function, Module, Stmt, UnOp};
use gillian_gil::parser::MAX_EXPR_DEPTH;
use std::fmt;

/// A MiniJS parse error with position information.
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
            "minijs parse error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}
impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Str(String),
    Punct(&'static str),
    Eof,
}

const PUNCTS: &[&str] = &[
    "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "{", "}", "(", ")", "[", "]", ";", ",", ":",
    ".", "+", "-", "*", "/", "%", "<", ">", "=", "!",
];

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
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

    fn err_at(&self, at: usize, msg: impl Into<String>) -> ParseError {
        let (line, col) = self.line_col(at);
        ParseError {
            line,
            col,
            msg: msg.into(),
        }
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
        if c == '"' || c == '\'' {
            let quote = c;
            let mut out = String::new();
            let mut chars = rest[1..].char_indices();
            loop {
                match chars.next() {
                    None => return Err(self.err_at(at, "unterminated string")),
                    Some((i, q)) if q == quote => {
                        self.pos += i + 2;
                        return Ok((Tok::Str(out), at));
                    }
                    Some((_, '\\')) => match chars.next() {
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, e)) => out.push(e),
                        None => return Err(self.err_at(at, "unterminated escape")),
                    },
                    Some((_, d)) => out.push(d),
                }
            }
        }
        if c.is_ascii_digit() {
            let mut len = 0;
            let mut seen_dot = false;
            for (i, d) in rest.char_indices() {
                if d.is_ascii_digit() {
                    len = i + 1;
                } else if d == '.'
                    && !seen_dot
                    && rest[i + 1..].starts_with(|x: char| x.is_ascii_digit())
                {
                    seen_dot = true;
                    len = i + 1;
                } else {
                    break;
                }
            }
            let n: f64 = rest[..len]
                .parse()
                .map_err(|_| self.err_at(at, "bad number literal"))?;
            self.pos += len;
            return Ok((Tok::Num(n), at));
        }
        if c.is_alphabetic() || c == '_' || c == '$' {
            let len = rest
                .char_indices()
                .take_while(|(_, d)| d.is_alphanumeric() || *d == '_' || *d == '$')
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
        let mut lexer = Lexer { src, pos: 0 };
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

    fn is_kw(&self, kw: &str) -> bool {
        matches!(&self.tok, Tok::Ident(s) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> Result<bool, ParseError> {
        if self.is_kw(kw) {
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

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.binary(0))
    }

    /// The binary operator at the current token and its precedence
    /// (higher binds tighter). Every binary operator is left-associative.
    fn binop(&self) -> Option<(BinOp, u8)> {
        let Tok::Punct(p) = &self.tok else {
            return None;
        };
        Some(match *p {
            "||" => (BinOp::Or, 0),
            "&&" => (BinOp::And, 1),
            "===" | "==" => (BinOp::StrictEq, 2),
            "!==" | "!=" => (BinOp::StrictNeq, 2),
            "<=" => (BinOp::Leq, 3),
            ">=" => (BinOp::Geq, 3),
            "<" => (BinOp::Lt, 3),
            ">" => (BinOp::Gt, 3),
            "+" => (BinOp::Add, 4),
            "-" => (BinOp::Sub, 4),
            "*" => (BinOp::Mul, 5),
            "/" => (BinOp::Div, 5),
            "%" => (BinOp::Mod, 5),
            _ => return None,
        })
    }

    /// Precedence climbing: a chain of binary operators binding at least
    /// as tightly as `min`. It takes one frame per operator instead of one
    /// per precedence level, which keeps the stack each parenthesis
    /// nesting costs small enough for [`MAX_EXPR_DEPTH`] levels.
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut e = self.unary_expr()?;
        while let Some((op, prec)) = self.binop().filter(|&(_, prec)| prec >= min) {
            self.bump()?;
            let rhs = self.binary(prec + 1)?;
            e = Expr::Bin(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    /// The operand of a prefix operator, one nesting level deeper.
    fn operand(&mut self) -> Result<Box<Expr>, ParseError> {
        Ok(Box::new(self.nested(Self::unary_expr)?))
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("!")? {
            return Ok(Expr::Un(UnOp::Not, self.operand()?));
        }
        if self.eat_punct("-")? {
            return Ok(Expr::Un(UnOp::Neg, self.operand()?));
        }
        if self.eat_kw("typeof")? {
            return Ok(Expr::Un(UnOp::TypeOf, self.operand()?));
        }
        self.postfix_expr()
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, ParseError> {
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
        Ok(args)
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct(".")? {
                let prop = self.ident()?;
                // Method call?
                if self.eat_punct("(")? {
                    let args = self.call_args()?;
                    e = Expr::MethodCall {
                        object: Box::new(e),
                        method: Box::new(Expr::Str(prop)),
                        args,
                    };
                } else {
                    e = Expr::Prop(Box::new(e), Box::new(Expr::Str(prop)));
                }
            } else if self.eat_punct("[")? {
                let key = self.expr()?;
                self.expect_punct("]")?;
                if self.eat_punct("(")? {
                    let args = self.call_args()?;
                    e = Expr::MethodCall {
                        object: Box::new(e),
                        method: Box::new(key),
                        args,
                    };
                } else {
                    e = Expr::Prop(Box::new(e), Box::new(key));
                }
            } else if self.eat_punct("(")? {
                let args = self.call_args()?;
                e = match (&e, args) {
                    (Expr::Var(name), args) if name == "symb" && args.is_empty() => Expr::Symb,
                    (Expr::Var(name), args) if name == "symb_number" && args.is_empty() => {
                        Expr::SymbNumber
                    }
                    (Expr::Var(name), args) if name == "symb_string" && args.is_empty() => {
                        Expr::SymbString
                    }
                    (Expr::Var(name), args) if name == "symb_bool" && args.is_empty() => {
                        Expr::SymbBool
                    }
                    (_, args) => Expr::Call(Box::new(e), args),
                };
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump()? {
            Tok::Num(n) => Ok(Expr::Num(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
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
                Ok(Expr::Array(items))
            }
            Tok::Punct("{") => {
                let mut props = Vec::new();
                if !self.eat_punct("}")? {
                    loop {
                        let key = match self.bump()? {
                            Tok::Ident(s) => s,
                            Tok::Str(s) => s,
                            other => {
                                return self.err(format!("expected property name, got {other:?}"))
                            }
                        };
                        self.expect_punct(":")?;
                        props.push((key, self.expr()?));
                        if self.eat_punct("}")? {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                Ok(Expr::Object(props))
            }
            Tok::Ident(id) => match id.as_str() {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                "undefined" => Ok(Expr::Undefined),
                "null" => Ok(Expr::Null),
                _ => Ok(Expr::Var(id)),
            },
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}")? {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn block_or_single(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if self.is_punct("{") {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
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
        } else if self.eat_kw("for")? {
            self.for_stmt()
        } else {
            self.flat_stmt()
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then = self.block_or_single()?;
        let otherwise = if self.eat_kw("else")? {
            if self.is_kw("if") {
                vec![self.stmt()?]
            } else {
                self.block_or_single()?
            }
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
        let body = self.block_or_single()?;
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let init = self.stmt()?; // consumes the `;`
        let cond = self.expr()?;
        self.expect_punct(";")?;
        let step = self.simple_stmt_no_semi()?;
        self.expect_punct(")")?;
        let body = self.block_or_single()?;
        Ok(Stmt::For {
            init: Box::new(init),
            cond,
            step: Box::new(step),
            body,
        })
    }

    /// A statement that nests no statements.
    fn flat_stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_kw("var")? {
            let name = self.ident()?;
            let init = if self.eat_punct("=")? {
                self.expr()?
            } else {
                Expr::Undefined
            };
            self.expect_punct(";")?;
            return Ok(Stmt::VarDecl(name, init));
        }
        if self.eat_kw("break")? {
            self.expect_punct(";")?;
            return Ok(Stmt::Break);
        }
        if self.eat_kw("continue")? {
            self.expect_punct(";")?;
            return Ok(Stmt::Continue);
        }
        if self.eat_kw("return")? {
            if self.eat_punct(";")? {
                return Ok(Stmt::Return(Expr::Undefined));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Return(e));
        }
        if self.eat_kw("throw")? {
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Throw(e));
        }
        if self.eat_kw("delete")? {
            let target = self.postfix_expr()?;
            self.expect_punct(";")?;
            let Expr::Prop(object, key) = target else {
                return self.err("delete target must be a property access");
            };
            return Ok(Stmt::Delete {
                object: *object,
                key: *key,
            });
        }
        if self.eat_kw("assume")? {
            self.expect_punct("(")?;
            let e = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assume(e));
        }
        if self.eat_kw("assert")? {
            self.expect_punct("(")?;
            let e = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::Assert(e));
        }
        let s = self.simple_stmt_no_semi()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    /// Assignment or expression statement, without the trailing `;`
    /// (shared by `for` steps and ordinary statements).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        let target = self.expr()?;
        if self.eat_punct("=")? {
            let value = self.expr()?;
            return match target {
                Expr::Var(name) => Ok(Stmt::Assign(name, value)),
                Expr::Prop(object, key) => Ok(Stmt::PropAssign {
                    object: *object,
                    key: *key,
                    value,
                }),
                other => self.err(format!("invalid assignment target {other:?}")),
            };
        }
        Ok(Stmt::ExprStmt(target))
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        if !self.eat_kw("function")? {
            return self.err("expected `function`");
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

/// Parses a MiniJS module (a sequence of `function` declarations).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_module(source: &str) -> Result<Module, ParseError> {
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
    fn parses_js_shapes() {
        let m = parse_module(
            r#"
            function makeStack(capacity) {
                var s = { items: [], size: 0, capacity: capacity };
                return s;
            }
            function push(s, x) {
                s.items[s.size] = x;
                s.size = s.size + 1;
                if (s.size > s.capacity) { throw "overflow"; }
                return s;
            }
            function test_push() {
                var x = symb_number();
                assume(x > 0);
                var s = makeStack(2);
                push(s, x);
                assert(s.items[0] === x);
                var t = typeof x;
                return t;
            }
        "#,
        )
        .unwrap();
        assert_eq!(m.functions.len(), 3);
        let push = m.function("push").unwrap();
        assert!(matches!(push.body[0], Stmt::PropAssign { .. }));
        let test = m.function("test_push").unwrap();
        assert!(matches!(test.body[0], Stmt::VarDecl(_, Expr::SymbNumber)));
    }

    #[test]
    fn parses_for_and_break() {
        let m = parse_module(
            r#"
            function f(n) {
                var total = 0;
                for (var i = 0; i < n; i = i + 1) {
                    if (i === 3) { break; }
                    total = total + i;
                }
                return total;
            }
        "#,
        )
        .unwrap();
        assert!(matches!(m.functions[0].body[1], Stmt::For { .. }));
    }

    #[test]
    fn method_calls_and_computed_access() {
        let m = parse_module(
            r#"
            function f(o, k) {
                var a = o.get(k);
                var b = o[k];
                o[k] = a;
                delete o[k];
                return o.m(a, b);
            }
        "#,
        )
        .unwrap();
        let body = &m.functions[0].body;
        assert!(matches!(
            &body[0],
            Stmt::VarDecl(_, Expr::MethodCall { .. })
        ));
        assert!(matches!(&body[1], Stmt::VarDecl(_, Expr::Prop(_, _))));
        assert!(matches!(&body[2], Stmt::PropAssign { .. }));
        assert!(matches!(&body[3], Stmt::Delete { .. }));
        assert!(matches!(&body[4], Stmt::Return(Expr::MethodCall { .. })));
    }

    #[test]
    fn operator_precedence() {
        let m = parse_module("function f(a, b) { return a + b * 2 < 10 && !b; }").unwrap();
        let Stmt::Return(e) = &m.functions[0].body[0] else {
            panic!()
        };
        // (((a + (b * 2)) < 10) && (!b))
        let Expr::Bin(BinOp::And, lhs, _) = e else {
            panic!("got {e:?}")
        };
        assert!(matches!(**lhs, Expr::Bin(BinOp::Lt, _, _)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_module("function f( {").is_err());
        assert!(parse_module("function f() { 1 + ; }").is_err());
        assert!(parse_module("function f() { delete x; }").is_err());
    }
}
