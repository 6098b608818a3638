//! Parser for the MiniC surface syntax.
//!
//! ```text
//! struct Array { long size; long capacity; long *buffer; };
//!
//! struct Array *array_new(long capacity) {
//!     struct Array *ar = malloc(sizeof(struct Array));
//!     ar->size = 0;
//!     ar->capacity = capacity;
//!     ar->buffer = malloc(capacity * sizeof(long));
//!     return ar;
//! }
//! ```
//!
//! Precedence (loosest first): `||`, `&&`, `|`, `^`, `&`, `== !=`,
//! `< <= > >=`, `<< >>`, `+ -`, `* / %`, unary, postfix.

use crate::ast::{CBinOp, CExpr, CFunc, CModule, CStmt, CUnOp, LValue};
use crate::types::{CType, StructDef};
use gillian_gil::parser::MAX_EXPR_DEPTH;
use std::fmt;

/// A MiniC parse error with position information.
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
            "minic parse error at {}:{}: {}",
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
    Punct(&'static str),
    Eof,
}

const PUNCTS: &[&str] = &[
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "{", "}", "(", ")", "[", "]", ";", ",",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
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
            let text = &rest[..len];
            self.pos += len;
            return if seen_dot {
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
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok,
    tok_at: usize,
    /// Current nesting depth (see [`Parser::nested`]).
    depth: usize,
}

const TYPE_KEYWORDS: &[&str] = &["void", "char", "short", "int", "long", "double", "struct"];

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

    /// True when the current token starts a type.
    fn at_type(&self) -> bool {
        matches!(&self.tok, Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    /// Parses a type: base keyword plus `*`s.
    fn ctype(&mut self) -> Result<CType, ParseError> {
        let base = match self.bump()? {
            Tok::Ident(s) => match s.as_str() {
                "void" => CType::Void,
                "char" => CType::Char,
                "short" => CType::Short,
                "int" => CType::Int,
                "long" => CType::Long,
                "double" => CType::Double,
                "struct" => CType::Struct(self.ident()?),
                other => return self.err(format!("expected type, found {other}")),
            },
            other => return self.err(format!("expected type, found {other:?}")),
        };
        let mut t = base;
        while self.eat_punct("*")? {
            t = t.ptr_to();
        }
        Ok(t)
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<CExpr, ParseError> {
        self.nested(|p| p.binary(0))
    }

    /// The binary operator at the current token and its precedence
    /// (higher binds tighter). Every binary operator is left-associative.
    fn binop(&self) -> Option<(CBinOp, u8)> {
        let Tok::Punct(p) = &self.tok else {
            return None;
        };
        Some(match *p {
            "||" => (CBinOp::Or, 0),
            "&&" => (CBinOp::And, 1),
            "|" => (CBinOp::BitOr, 2),
            "^" => (CBinOp::BitXor, 3),
            "&" => (CBinOp::BitAnd, 4),
            "==" => (CBinOp::Eq, 5),
            "!=" => (CBinOp::Ne, 5),
            "<=" => (CBinOp::Le, 6),
            ">=" => (CBinOp::Ge, 6),
            "<" => (CBinOp::Lt, 6),
            ">" => (CBinOp::Gt, 6),
            "<<" => (CBinOp::Shl, 7),
            ">>" => (CBinOp::Shr, 7),
            "+" => (CBinOp::Add, 8),
            "-" => (CBinOp::Sub, 8),
            "*" => (CBinOp::Mul, 9),
            "/" => (CBinOp::Div, 9),
            "%" => (CBinOp::Mod, 9),
            _ => return None,
        })
    }

    /// Precedence climbing: a chain of binary operators binding at least
    /// as tightly as `min`. It takes one frame per operator instead of one
    /// per precedence level, which keeps the stack each parenthesis
    /// nesting costs small enough for [`MAX_EXPR_DEPTH`] levels.
    fn binary(&mut self, min: u8) -> Result<CExpr, ParseError> {
        let mut e = self.unary_expr()?;
        while let Some((op, prec)) = self.binop().filter(|&(_, prec)| prec >= min) {
            self.bump()?;
            let rhs = self.binary(prec + 1)?;
            e = CExpr::Bin(op, Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    /// The operand of a prefix operator, one nesting level deeper.
    fn operand(&mut self) -> Result<Box<CExpr>, ParseError> {
        Ok(Box::new(self.nested(Self::unary_expr)?))
    }

    fn unary_expr(&mut self) -> Result<CExpr, ParseError> {
        if self.eat_punct("-")? {
            return Ok(CExpr::Un(CUnOp::Neg, self.operand()?));
        }
        if self.eat_punct("!")? {
            return Ok(CExpr::Un(CUnOp::Not, self.operand()?));
        }
        if self.eat_punct("~")? {
            return Ok(CExpr::Un(CUnOp::BitNot, self.operand()?));
        }
        if self.eat_punct("*")? {
            return Ok(CExpr::Deref(self.operand()?));
        }
        // `(T)e` cast vs parenthesised expression: look for a type keyword.
        if self.is_punct("(") {
            let save = (self.lexer.pos, self.tok.clone(), self.tok_at);
            self.bump()?; // (
            if self.at_type() {
                let t = self.ctype()?;
                self.expect_punct(")")?;
                return Ok(CExpr::Cast(t, self.operand()?));
            }
            // Rewind: plain parenthesised expression handled by postfix.
            self.lexer.pos = save.0;
            self.tok = save.1;
            self.tok_at = save.2;
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<CExpr, ParseError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct("->")? {
                let field = self.ident()?;
                e = CExpr::Arrow(Box::new(e), field);
            } else if self.eat_punct("[")? {
                let i = self.expr()?;
                self.expect_punct("]")?;
                e = CExpr::Index(Box::new(e), Box::new(i));
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<CExpr, ParseError> {
        if self.eat_kw("sizeof")? {
            self.expect_punct("(")?;
            let t = self.ctype()?;
            self.expect_punct(")")?;
            return Ok(CExpr::SizeOf(t));
        }
        match self.bump()? {
            Tok::Int(n) => Ok(CExpr::Int(n)),
            Tok::Float(x) => Ok(CExpr::Float(x)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(id) => match id.as_str() {
                "NULL" => Ok(CExpr::Null),
                _ => {
                    if self.eat_punct("(")? {
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
                        Ok(CExpr::Call(id, args))
                    } else {
                        Ok(CExpr::Var(id))
                    }
                }
            },
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Vec<CStmt>, ParseError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}")? {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn block_or_single(&mut self) -> Result<Vec<CStmt>, ParseError> {
        if self.is_punct("{") {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> Result<CStmt, ParseError> {
        self.nested(Self::stmt_inner)
    }

    /// Dispatches compound statements to a function each, so the frame
    /// each level of statement nesting keeps on the stack stays small.
    fn stmt_inner(&mut self) -> Result<CStmt, ParseError> {
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

    fn if_stmt(&mut self) -> Result<CStmt, ParseError> {
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
        Ok(CStmt::If {
            cond,
            then,
            otherwise,
        })
    }

    fn while_stmt(&mut self) -> Result<CStmt, ParseError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.block_or_single()?;
        Ok(CStmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> Result<CStmt, ParseError> {
        self.expect_punct("(")?;
        let init = self.stmt()?; // consumes `;`
        let cond = self.expr()?;
        self.expect_punct(";")?;
        let step = self.simple_stmt_no_semi()?;
        self.expect_punct(")")?;
        let body = self.block_or_single()?;
        Ok(CStmt::For {
            init: Box::new(init),
            cond,
            step: Box::new(step),
            body,
        })
    }

    /// A statement that nests no statements.
    fn flat_stmt(&mut self) -> Result<CStmt, ParseError> {
        if self.at_type() {
            let t = self.ctype()?;
            let name = self.ident()?;
            let init = if self.eat_punct("=")? {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(CStmt::Decl(t, name, init));
        }
        if self.eat_kw("break")? {
            self.expect_punct(";")?;
            return Ok(CStmt::Break);
        }
        if self.eat_kw("continue")? {
            self.expect_punct(";")?;
            return Ok(CStmt::Continue);
        }
        if self.eat_kw("return")? {
            if self.eat_punct(";")? {
                return Ok(CStmt::Return(None));
            }
            let e = self.expr()?;
            self.expect_punct(";")?;
            return Ok(CStmt::Return(Some(e)));
        }
        if self.eat_kw("assume")? {
            self.expect_punct("(")?;
            let e = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(CStmt::Assume(e));
        }
        if self.eat_kw("assert")? {
            self.expect_punct("(")?;
            let e = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(CStmt::Assert(e));
        }
        let s = self.simple_stmt_no_semi()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    fn simple_stmt_no_semi(&mut self) -> Result<CStmt, ParseError> {
        let target = self.expr()?;
        if self.eat_punct("=")? {
            let value = self.expr()?;
            let lv = match target {
                CExpr::Var(name) => LValue::Var(name),
                CExpr::Deref(e) => LValue::Deref(*e),
                CExpr::Index(e, i) => LValue::Index(*e, *i),
                CExpr::Arrow(e, f) => LValue::Arrow(*e, f),
                other => return self.err(format!("invalid assignment target {other:?}")),
            };
            return Ok(CStmt::Assign(lv, value));
        }
        Ok(CStmt::ExprStmt(target))
    }

    // ---- top level -----------------------------------------------------

    fn top(&mut self, module: &mut CModule) -> Result<(), ParseError> {
        // `struct Name { … };` definition vs a function returning a struct
        // pointer: disambiguate on the token after the name.
        if self.is_kw("struct") {
            let save = (self.lexer.pos, self.tok.clone(), self.tok_at);
            self.bump()?;
            let name = self.ident()?;
            if self.is_punct("{") {
                self.bump()?;
                let mut fields = Vec::new();
                while !self.eat_punct("}")? {
                    let t = self.ctype()?;
                    let fname = self.ident()?;
                    self.expect_punct(";")?;
                    fields.push((fname, t));
                }
                self.expect_punct(";")?;
                module.structs.push(StructDef { name, fields });
                return Ok(());
            }
            self.lexer.pos = save.0;
            self.tok = save.1;
            self.tok_at = save.2;
        }
        let ret = self.ctype()?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")")? {
            if self.is_kw("void") && !self.at_type_ahead_ident() {
                self.bump()?;
                self.expect_punct(")")?;
            } else {
                loop {
                    let t = self.ctype()?;
                    let pname = self.ident()?;
                    params.push((t, pname));
                    if self.eat_punct(")")? {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
        }
        let body = self.block()?;
        module.funcs.push(CFunc {
            ret,
            name,
            params,
            body,
        });
        Ok(())
    }

    /// Distinguishes `f(void)` from `f(void *p)`.
    fn at_type_ahead_ident(&self) -> bool {
        // Peek the raw source after the current token for a `*` or ident.
        let rest = self.lexer.src[self.lexer.pos..].trim_start();
        rest.starts_with('*') || rest.starts_with(|c: char| c.is_alphabetic() || c == '_')
    }
}

/// Parses a MiniC translation unit.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_unit(source: &str) -> Result<CModule, ParseError> {
    let mut p = Parser::new(source)?;
    let mut module = CModule::default();
    while p.tok != Tok::Eof {
        p.top(&mut module)?;
    }
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_structs_and_functions() {
        let m = parse_unit(
            r#"
            struct Array { long size; long capacity; long *buffer; };

            struct Array *array_new(long capacity) {
                struct Array *ar = malloc(sizeof(struct Array));
                ar->size = 0;
                ar->capacity = capacity;
                ar->buffer = malloc(capacity * sizeof(long));
                return ar;
            }

            long array_get(struct Array *ar, long i) {
                return ar->buffer[i];
            }
        "#,
        )
        .unwrap();
        assert_eq!(m.structs.len(), 1);
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.funcs[0].ret, CType::Struct("Array".into()).ptr_to());
        assert!(matches!(
            m.funcs[1].body[0],
            CStmt::Return(Some(CExpr::Index(_, _)))
        ));
    }

    #[test]
    fn extreme_float_literals_lex_without_panicking() {
        // The float arm of the number lexer used to `unwrap()` the parse;
        // it must return a token (or a ParseError), never abort.
        let huge = format!("double f() {{ return {}.5; }}", "9".repeat(400));
        assert!(parse_unit(&huge).is_ok());
    }

    #[test]
    fn parses_control_flow_and_casts() {
        let m = parse_unit(
            r#"
            long f(long n) {
                long total = 0;
                for (long i = 0; i < n; i = i + 1) {
                    if (i % 2 == 0) { continue; }
                    if (i > 10) { break; }
                    total = total + i;
                }
                while (total > 100) total = total - 1;
                char c = (char)total;
                return (long)c;
            }
        "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        assert!(matches!(f.body[1], CStmt::For { .. }));
        assert!(matches!(
            f.body[3],
            CStmt::Decl(CType::Char, _, Some(CExpr::Cast(_, _)))
        ));
    }

    #[test]
    fn parses_pointer_expressions() {
        let m = parse_unit(
            r#"
            long f(long *p, struct Node *n) {
                *p = 1;
                p[2] = 3;
                n->next->value = *p + p[2];
                assume(p != NULL);
                assert(n->value >= 0);
                return 0;
            }
        "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        assert!(matches!(f.body[0], CStmt::Assign(LValue::Deref(_), _)));
        assert!(matches!(f.body[1], CStmt::Assign(LValue::Index(_, _), _)));
        assert!(matches!(f.body[2], CStmt::Assign(LValue::Arrow(_, _), _)));
        assert!(matches!(f.body[3], CStmt::Assume(_)));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_unit("long f( {").is_err());
        assert!(parse_unit("long f() { 1 + ; }").is_err());
        assert!(parse_unit("long f() { 1 = 2; }").is_err());
    }
}
