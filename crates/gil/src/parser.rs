//! Parser for the `.gil` textual format.
//!
//! The grammar is exactly what the crate's pretty-printer emits, so
//! `parse_prog(prog.to_string())` round-trips every program (see the
//! property tests in `tests/roundtrip.rs`). Binary applications are always
//! parenthesised, which keeps the grammar precedence-free.
//!
//! ```
//! use gillian_gil::parser::parse_prog;
//! let p = parse_prog(r#"
//! proc main(x) {
//!   0: y := (x + 1)
//!   1: return y
//! }
//! "#).unwrap();
//! assert_eq!(p.proc("main").unwrap().params.len(), 1);
//! ```

use crate::expr::{Expr, LVar};
use crate::ops::{BinOp, UnOp};
use crate::prog::{Cmd, Proc, Prog};
use crate::value::{Sym, TypeTag, Value};
use std::fmt;

/// A parse error with a byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the error occurred.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.msg)
    }
}
impl std::error::Error for ParseError {}

struct P<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

/// Expression nesting beyond this depth is rejected instead of risking a
/// stack overflow in the recursive-descent parser (which would abort the
/// whole process — unrecoverable, unlike a [`ParseError`]). 128 levels fit
/// comfortably in a 2 MiB thread stack even for unoptimized builds, where
/// each level of the descent costs several KiB of frame. The While, MiniJS
/// and MiniC parsers use the same limit.
pub const MAX_EXPR_DEPTH: usize = 128;

impl<'a> P<'a> {
    fn new(src: &'a str) -> Self {
        P {
            src,
            pos: 0,
            depth: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            offset: self.pos,
            msg: msg.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            if self.rest().starts_with("//") {
                match self.rest().find('\n') {
                    Some(i) => self.pos += i + 1,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> PResult<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            self.err(format!("expected `{tok}`"))
        }
    }

    fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos >= self.src.len()
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn ident(&mut self) -> PResult<String> {
        self.skip_ws();
        let r = self.rest();
        let mut len = 0;
        for c in r.chars() {
            if c.is_alphanumeric() || c == '_' {
                len += c.len_utf8();
            } else {
                break;
            }
        }
        if len == 0 || r.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            return self.err("expected identifier");
        }
        self.pos += len;
        Ok(r[..len].to_string())
    }

    fn number(&mut self) -> PResult<Value> {
        self.skip_ws();
        let r = self.rest();
        let mut len = 0;
        let mut is_float = false;
        for (i, c) in r.char_indices() {
            if c.is_ascii_digit() {
                len = i + 1;
            } else if c == '.' && !is_float && r[i + 1..].starts_with(|d: char| d.is_ascii_digit())
            {
                is_float = true;
                len = i + 1;
            } else if (c == 'e' || c == 'E' || c == '-' || c == '+') && is_float && len == i {
                len = i + 1;
            } else {
                break;
            }
        }
        if len == 0 {
            return self.err("expected number");
        }
        let text = &r[..len];
        self.pos += len;
        if is_float {
            text.parse::<f64>().map(Value::num).map_err(|e| ParseError {
                offset: self.pos,
                msg: e.to_string(),
            })
        } else {
            match text.parse::<i64>() {
                Ok(n) => Ok(Value::Int(n)),
                // `-9223372036854775808` prints with the sign as a separate
                // token, so the magnitude 2⁶³ must be representable here; a
                // subsequent negation wraps it back to `i64::MIN`.
                Err(_) if text.parse::<u128>() == Ok(1u128 << 63) => Ok(Value::Int(i64::MIN)),
                Err(e) => Err(ParseError {
                    offset: self.pos,
                    msg: e.to_string(),
                }),
            }
        }
    }

    fn string_lit(&mut self) -> PResult<String> {
        self.expect("\"")?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        loop {
            match chars.next() {
                None => return self.err("unterminated string"),
                Some((i, '"')) => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                Some((_, '\\')) => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, '0')) => out.push('\0'),
                    Some((_, c)) => out.push(c),
                    None => return self.err("unterminated escape"),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn usize_lit(&mut self) -> PResult<usize> {
        match self.number()? {
            Value::Int(n) if n >= 0 => Ok(n as usize),
            v => self.err(format!("expected non-negative integer, got {v}")),
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Named (function-style) operators, checked by literal prefix because
    /// several contain `-`.
    const NAMED_UN: &'static [(&'static str, UnOp)] = &[
        ("not", UnOp::Not),
        ("typeOf", UnOp::TypeOf),
        ("int_to_num", UnOp::IntToNum),
        ("num_to_int", UnOp::NumToInt),
        ("to_str", UnOp::ToStr),
        ("s-len", UnOp::StrLen),
        ("l-len", UnOp::LstLen),
        ("l-head", UnOp::LstHead),
        ("l-tail", UnOp::LstTail),
        ("l-rev", UnOp::LstRev),
        ("floor", UnOp::Floor),
    ];

    const NAMED_BIN: &'static [(&'static str, BinOp)] = &[
        ("l-nth", BinOp::LstNth),
        ("s-nth", BinOp::StrNth),
        ("l-cons", BinOp::LstCons),
        ("l-sub", BinOp::LstSub),
    ];

    fn infix_op(&mut self) -> PResult<BinOp> {
        // Longest tokens first.
        const OPS: &[(&str, BinOp)] = &[
            (">>>", BinOp::ShrL),
            ("<<", BinOp::Shl),
            (">>", BinOp::ShrA),
            ("<=", BinOp::Leq),
            ("and", BinOp::And),
            ("or", BinOp::Or),
            ("+", BinOp::Add),
            ("-", BinOp::Sub),
            ("*", BinOp::Mul),
            ("/", BinOp::Div),
            ("%", BinOp::Mod),
            ("=", BinOp::Eq),
            ("<", BinOp::Lt),
            ("&", BinOp::BitAnd),
            ("|", BinOp::BitOr),
            ("^", BinOp::BitXor),
        ];
        for (tok, op) in OPS {
            if self.eat(tok) {
                return Ok(*op);
            }
        }
        self.err("expected binary operator")
    }

    fn nary(&mut self, close: &str) -> PResult<Vec<Expr>> {
        let mut out = Vec::new();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(self.expr()?);
            if self.eat(close) {
                return Ok(out);
            }
            self.expect(",")?;
        }
    }

    fn expr(&mut self) -> PResult<Expr> {
        if self.depth >= MAX_EXPR_DEPTH {
            return self.err(format!(
                "expression nesting deeper than {MAX_EXPR_DEPTH} levels"
            ));
        }
        self.depth += 1;
        let result = self.expr_inner();
        self.depth -= 1;
        result
    }

    fn expr_inner(&mut self) -> PResult<Expr> {
        self.skip_ws();
        // Parenthesised: unary neg/bitnot, or binary application.
        if self.eat("(") {
            if self.eat("-") {
                // Either the unary form `(-e)`, or a parenthesised binary
                // application whose left operand is a negative literal,
                // `(-5 << x)`. (Non-literal negations always print with
                // their own parentheses, so the literal case is the only
                // one that can be followed by an operator here.)
                let e = self.expr()?;
                if self.eat(")") {
                    return Ok(e.un(UnOp::Neg));
                }
                let lhs = match e {
                    Expr::Val(Value::Int(n)) => Expr::int(n.wrapping_neg()),
                    Expr::Val(Value::Num(x)) => Expr::num(-x.get()),
                    other => {
                        return self.err(format!(
                            "expected `)` after negation of non-literal {other}"
                        ))
                    }
                };
                let op = self.infix_op()?;
                let rhs = self.expr()?;
                self.expect(")")?;
                return Ok(lhs.bin(op, rhs));
            }
            if self.eat("~") {
                let e = self.expr()?;
                self.expect(")")?;
                return Ok(e.un(UnOp::BitNot));
            }
            let lhs = self.expr()?;
            let op = self.infix_op()?;
            let rhs = self.expr()?;
            self.expect(")")?;
            return Ok(lhs.bin(op, rhs));
        }
        if self.eat("{{") {
            let items = self.nary("}}")?;
            return Ok(Expr::List(items.into()));
        }
        // A literal list value `[v₁, …, vₙ]` (the Display form of
        // `Value::List`, as opposed to the `{{ … }}` list *expression*).
        if self.eat("[") {
            let items = self.nary("]")?;
            let mut values = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Expr::Val(v) => values.push(v),
                    other => {
                        return self
                            .err(format!("literal list may only contain values, got {other}"))
                    }
                }
            }
            return Ok(Expr::Val(Value::List(values)));
        }
        // Named operator applications.
        for (name, op) in Self::NAMED_UN {
            if self.rest().starts_with(name) && self.src[self.pos + name.len()..].starts_with('(') {
                self.pos += name.len();
                self.expect("(")?;
                let e = self.expr()?;
                self.expect(")")?;
                return Ok(e.un(*op));
            }
        }
        for (name, op) in Self::NAMED_BIN {
            if self.rest().starts_with(name) && self.src[self.pos + name.len()..].starts_with('(') {
                self.pos += name.len();
                self.expect("(")?;
                let a = self.expr()?;
                self.expect(",")?;
                let b = self.expr()?;
                self.expect(")")?;
                return Ok(a.bin(*op, b));
            }
        }
        if self.rest().starts_with("s-cat(") {
            self.pos += "s-cat(".len();
            return Ok(Expr::StrCat(self.nary(")")?.into()));
        }
        if self.rest().starts_with("l-cat(") {
            self.pos += "l-cat(".len();
            return Ok(Expr::LstCat(self.nary(")")?.into()));
        }
        if self.rest().starts_with("wrap_") {
            self.pos += "wrap_".len();
            let signed = match self.rest().chars().next() {
                Some('s') => true,
                Some('u') => false,
                _ => return self.err("expected `s` or `u` after `wrap_`"),
            };
            self.pos += 1;
            let w = self.usize_lit()?;
            if !(1..=64).contains(&w) {
                return self.err(format!("wrap width must be between 1 and 64, got {w}"));
            }
            self.expect("(")?;
            let e = self.expr()?;
            self.expect(")")?;
            let op = if signed {
                UnOp::WrapSigned(w as u8)
            } else {
                UnOp::WrapUnsigned(w as u8)
            };
            return Ok(e.un(op));
        }
        match self.peek() {
            Some('"') => Ok(Expr::Val(Value::from(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() => Ok(Expr::Val(self.number()?)),
            Some('-') => {
                self.expect("-")?;
                if self.eat("Infinity") {
                    return Ok(Expr::num(f64::NEG_INFINITY));
                }
                match self.number()? {
                    Value::Int(n) => Ok(Expr::int(n.wrapping_neg())),
                    Value::Num(x) => Ok(Expr::num(-x.get())),
                    _ => unreachable!("number() returns Int or Num"),
                }
            }
            Some('$') => {
                self.expect("$")?;
                self.expect("ς")?;
                let id = self.usize_lit()? as u64;
                Ok(Expr::Val(Value::Sym(Sym(id))))
            }
            Some('#') => {
                self.expect("#")?;
                self.expect("x")?;
                let id = self.usize_lit()? as u64;
                Ok(Expr::LVar(LVar(id)))
            }
            Some('@') => {
                self.expect("@")?;
                let name = self.ident()?;
                Ok(Expr::proc(name))
            }
            _ => {
                let id = self.ident()?;
                match id.as_str() {
                    "true" => Ok(Expr::tt()),
                    "false" => Ok(Expr::ff()),
                    "NaN" => Ok(Expr::num(f64::NAN)),
                    "Infinity" => Ok(Expr::num(f64::INFINITY)),
                    _ => {
                        if let Some(t) = TypeTag::ALL.iter().find(|t| t.name() == id) {
                            Ok(Expr::type_tag(*t))
                        } else {
                            Ok(Expr::pvar(id))
                        }
                    }
                }
            }
        }
    }

    // ---- commands ---------------------------------------------------------

    fn cmd(&mut self) -> PResult<Cmd> {
        // Optional numeric label `N:`.
        self.skip_ws();
        let save = self.pos;
        if self.peek().is_some_and(|c| c.is_ascii_digit()) {
            let _ = self.usize_lit()?;
            if !self.eat(":") {
                self.pos = save;
            }
        }
        self.skip_ws();
        if self.eat("ifgoto") {
            let e = self.expr()?;
            let l = self.usize_lit()?;
            return Ok(Cmd::IfGoto(e, l));
        }
        if self.eat("goto") {
            return Ok(Cmd::Goto(self.usize_lit()?));
        }
        if self.eat("return") {
            return Ok(Cmd::Return(self.expr()?));
        }
        if self.eat("fail") {
            return Ok(Cmd::Fail(self.expr()?));
        }
        if self.eat("vanish") {
            return Ok(Cmd::Vanish);
        }
        if self.eat("skip") {
            return Ok(Cmd::Skip);
        }
        let lhs = self.ident()?;
        self.expect(":=")?;
        self.skip_ws();
        if self.rest().starts_with("uSym_") {
            self.pos += "uSym_".len();
            return Ok(Cmd::usym(lhs, self.usize_lit()? as u32));
        }
        if self.rest().starts_with("iSym_") {
            self.pos += "iSym_".len();
            return Ok(Cmd::isym(lhs, self.usize_lit()? as u32));
        }
        // Action: `x := name!(e)`; call: `x := e(ē)`; else plain assignment.
        let save = self.pos;
        if let Ok(name) = self.ident() {
            if self.rest().starts_with("!(") {
                self.pos += 2;
                let arg = self.expr()?;
                self.expect(")")?;
                return Ok(Cmd::action(lhs, name, arg));
            }
        }
        self.pos = save;
        let e = self.expr()?;
        if self.rest().starts_with('(') {
            self.pos += 1;
            let args = self.nary(")")?;
            return Ok(Cmd::Call {
                lhs: std::sync::Arc::from(lhs.as_str()),
                proc: e,
                args,
            });
        }
        Ok(Cmd::assign(lhs, e))
    }

    fn proc(&mut self) -> PResult<Proc> {
        self.expect("proc")?;
        let name = self.ident()?;
        self.expect("(")?;
        let mut params = Vec::new();
        if !self.eat(")") {
            loop {
                params.push(self.ident()?);
                if self.eat(")") {
                    break;
                }
                self.expect(",")?;
            }
        }
        self.expect("{")?;
        let mut body = Vec::new();
        while !self.eat("}") {
            if self.at_end() {
                return self.err("unterminated procedure body");
            }
            body.push(self.cmd()?);
        }
        Ok(Proc::new(name, params.iter().map(String::as_str), body))
    }
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let mut p = P::new(src);
    let e = p.expr()?;
    if !p.at_end() {
        return p.err("trailing input after expression");
    }
    Ok(e)
}

/// Parses a whole program (a sequence of `proc` definitions).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or duplicate procedures.
pub fn parse_prog(src: &str) -> PResult<Prog> {
    let mut p = P::new(src);
    let mut prog = Prog::new();
    while !p.at_end() {
        let pr = p.proc()?;
        if prog.proc(&pr.name).is_some() {
            return p.err(format!("duplicate procedure {}", pr.name));
        }
        prog.add(pr);
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literals() {
        assert_eq!(parse_expr("42").unwrap(), Expr::int(42));
        assert_eq!(parse_expr("-3").unwrap(), Expr::int(-3));
        assert_eq!(parse_expr("2.5").unwrap(), Expr::num(2.5));
        assert_eq!(parse_expr("\"hi\\n\"").unwrap(), Expr::str("hi\n"));
        assert_eq!(parse_expr("true").unwrap(), Expr::tt());
        assert_eq!(parse_expr("Int").unwrap(), Expr::type_tag(TypeTag::Int));
        assert_eq!(parse_expr("@f").unwrap(), Expr::proc("f"));
        assert_eq!(parse_expr("#x7").unwrap(), Expr::lvar(LVar(7)));
        assert_eq!(parse_expr("$ς3").unwrap(), Expr::Val(Value::Sym(Sym(3))));
    }

    #[test]
    fn parses_operators() {
        assert_eq!(
            parse_expr("((x + 1) < 10)").unwrap(),
            Expr::pvar("x").add(Expr::int(1)).lt(Expr::int(10))
        );
        assert_eq!(
            parse_expr("l-nth(xs, 0)").unwrap(),
            Expr::pvar("xs").lst_nth(Expr::int(0))
        );
        assert_eq!(parse_expr("not(b)").unwrap(), Expr::pvar("b").not());
        assert_eq!(
            parse_expr("wrap_s8(n)").unwrap(),
            Expr::pvar("n").un(UnOp::WrapSigned(8))
        );
        assert_eq!(
            parse_expr("{{ 1, x }}").unwrap(),
            Expr::list([Expr::int(1), Expr::pvar("x")])
        );
    }

    #[test]
    fn truncated_wrap_is_an_error_not_a_slice_panic() {
        // `wrap_` at end of input used to advance past the buffer.
        let e = parse_expr("wrap_").unwrap_err();
        assert!(e.msg.contains("`s` or `u`"), "{e}");
    }

    #[test]
    fn wrap_requires_a_signedness_marker() {
        // Any marker other than `s`/`u` used to be silently read as
        // unsigned (consuming whatever character was there).
        let e = parse_expr("wrap_x8(n)").unwrap_err();
        assert!(e.msg.contains("`s` or `u`"), "{e}");
    }

    #[test]
    fn wrap_width_is_bounded() {
        // Widths used to be truncated `as u8` (999 → 231) instead of
        // rejected.
        let e = parse_expr("wrap_s999(n)").unwrap_err();
        assert!(e.msg.contains("between 1 and 64"), "{e}");
        assert!(parse_expr("wrap_u0(n)").is_err());
        assert!(parse_expr("wrap_u64(n)").is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let src = "(".repeat(100_000);
        let e = parse_expr(&src).unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        // Depth well under the limit still parses.
        let mut ok = "x".to_string();
        for _ in 0..100 {
            ok = format!("not({ok})");
        }
        assert!(parse_expr(&ok).is_ok());
    }

    #[test]
    fn parses_program_and_round_trips() {
        let src = r#"
            proc main(a, b) {
              0: x := (a + b)
              1: ifgoto (x < 10) 4
              2: y := lookup!({{ x, "p" }})
              3: fail y
              4: u := uSym_0
              5: i := iSym_1
              6: r := @helper(x, u)
              7: return r
            }
            proc helper(x, u) {
              0: return {{ x, u }}
            }
        "#;
        let p = parse_prog(src).unwrap();
        assert_eq!(p.len(), 2);
        let printed = p.to_string();
        let p2 = parse_prog(&printed).unwrap();
        assert_eq!(p, p2, "round-trip failed:\n{printed}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_expr("(1 +").is_err());
        assert!(parse_prog("proc f( {").is_err());
        assert!(parse_expr("1 2").is_err());
    }
}
