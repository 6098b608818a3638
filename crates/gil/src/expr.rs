//! GIL expressions.
//!
//! Following the released Gillian implementation, a single expression type
//! serves both as the *program* expressions `e ∈ E` of paper §2.1 (which may
//! mention program variables) and as the *logical* expressions `ê ∈ Ê` of
//! §2.3 (which may mention logical variables). Concrete evaluation rejects
//! logical variables; symbolic stores map program variables to logical
//! expressions, so after store substitution a program expression becomes a
//! logical one.
//!
//! Since the hash-consing refactor, every recursive position holds a
//! [`Term`] — an interned, `Arc`-shared node — so structurally equal
//! subterms are pointer-equal, cloning is a refcount bump, and equality
//! and hashing have pointer fast paths (see [`crate::intern`]). `Term`
//! dereferences to `Expr`, so pattern-matching read sites are unchanged;
//! construction sites intern via `From<Expr> for Term`.

use crate::intern::{ExprList, Term};
use crate::ops::{BinOp, UnOp};
use crate::value::{TypeTag, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A logical variable `x̂ ∈ X̂` (paper §2.3), identified by a unique id.
///
/// Logical variables are minted by the symbolic allocator when executing the
/// `iSym` command, and stand for arbitrary values constrained only by the
/// path condition.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LVar(pub u64);

impl fmt::Debug for LVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#x{}", self.0)
    }
}
impl fmt::Display for LVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#x{}", self.0)
    }
}

/// A GIL expression.
///
/// Built with the constructor helpers (`Expr::int`, [`Expr::pvar`], …) and
/// the combinator methods ([`Expr::add`], [`Expr::eq`], …), which keep
/// compiled code readable:
///
/// ```
/// use gillian_gil::Expr;
/// let e = Expr::pvar("x").add(Expr::int(1)).lt(Expr::int(10));
/// assert_eq!(e.to_string(), "((x + 1) < 10)");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Expr {
    /// A literal value.
    Val(Value),
    /// A program variable `x ∈ X`.
    PVar(Arc<str>),
    /// A logical variable `x̂ ∈ X̂`.
    LVar(LVar),
    /// Unary operator application `⊖e`.
    Un(UnOp, Term),
    /// Binary operator application `e₁ ⊕ e₂`.
    Bin(BinOp, Term, Term),
    /// List construction `[e₁, …, eₙ]`.
    List(ExprList),
    /// String concatenation `s-cat(e₁, …, eₙ)`.
    StrCat(ExprList),
    /// List concatenation `l-cat(e₁, …, eₙ)`.
    LstCat(ExprList),
}

// The DSL builder methods deliberately mirror operator names (`add`,
// `not`, …) without implementing the std `ops` traits: the operators build
// *syntax*, not values, and `a + b` would read as computation.
#[allow(clippy::should_implement_trait)]
impl Expr {
    // ---- constructors -------------------------------------------------

    /// Integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Val(Value::Int(n))
    }
    /// Number (double) literal.
    pub fn num(x: f64) -> Expr {
        Expr::Val(Value::num(x))
    }
    /// String literal.
    pub fn str(s: impl AsRef<str>) -> Expr {
        Expr::Val(Value::str(s))
    }
    /// Boolean literal.
    pub fn bool(b: bool) -> Expr {
        Expr::Val(Value::Bool(b))
    }
    /// The literal `true`.
    pub fn tt() -> Expr {
        Expr::bool(true)
    }
    /// The literal `false`.
    pub fn ff() -> Expr {
        Expr::bool(false)
    }
    /// Program variable.
    pub fn pvar(x: impl AsRef<str>) -> Expr {
        Expr::PVar(Arc::from(x.as_ref()))
    }
    /// Logical variable.
    pub fn lvar(x: LVar) -> Expr {
        Expr::LVar(x)
    }
    /// Procedure-identifier literal.
    pub fn proc(name: impl AsRef<str>) -> Expr {
        Expr::Val(Value::proc(name))
    }
    /// Type literal.
    pub fn type_tag(t: TypeTag) -> Expr {
        Expr::Val(Value::Type(t))
    }
    /// The empty list literal.
    pub fn nil() -> Expr {
        Expr::Val(Value::nil())
    }

    /// The least expression under the derived order: `Val` is the first
    /// `Expr` variant and `Int` the first `Value` variant. A map keyed by
    /// `(e, Expr)` pairs holds all of `e`'s entries in the range starting
    /// at `(e, Expr::LEAST)`.
    pub const LEAST: Expr = Expr::Val(Value::Int(i64::MIN));

    /// The least non-literal expression, `PVar("")`: every `Val` sorts
    /// below it and every other expression at or above it, so in a sorted
    /// run of expressions the literals come first and one range probe
    /// from here finds the first non-literal.
    pub fn least_symbolic() -> &'static Expr {
        static LEAST_SYMBOLIC: std::sync::LazyLock<Expr> =
            std::sync::LazyLock::new(|| Expr::PVar(Arc::from("")));
        &LEAST_SYMBOLIC
    }
    /// List construction from sub-expressions.
    pub fn list(es: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::List(es.into_iter().collect())
    }
    /// N-ary list concatenation from sub-expressions.
    pub fn lstcat_of(es: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::LstCat(es.into_iter().collect())
    }
    /// N-ary string concatenation from sub-expressions.
    pub fn strcat_of(es: impl IntoIterator<Item = Expr>) -> Expr {
        Expr::StrCat(es.into_iter().collect())
    }

    // ---- combinators ---------------------------------------------------

    /// `self ⊕ other` for an arbitrary binary operator.
    pub fn bin(self, op: BinOp, other: Expr) -> Expr {
        Expr::Bin(op, self.into(), other.into())
    }
    /// `⊖self` for an arbitrary unary operator.
    pub fn un(self, op: UnOp) -> Expr {
        Expr::Un(op, self.into())
    }
    /// Addition.
    pub fn add(self, other: Expr) -> Expr {
        self.bin(BinOp::Add, other)
    }
    /// Subtraction.
    pub fn sub(self, other: Expr) -> Expr {
        self.bin(BinOp::Sub, other)
    }
    /// Multiplication.
    pub fn mul(self, other: Expr) -> Expr {
        self.bin(BinOp::Mul, other)
    }
    /// Division.
    pub fn div(self, other: Expr) -> Expr {
        self.bin(BinOp::Div, other)
    }
    /// Remainder.
    pub fn rem(self, other: Expr) -> Expr {
        self.bin(BinOp::Mod, other)
    }
    /// Structural equality.
    pub fn eq(self, other: Expr) -> Expr {
        self.bin(BinOp::Eq, other)
    }
    /// Negated structural equality.
    pub fn ne(self, other: Expr) -> Expr {
        self.eq(other).not()
    }
    /// Strict less-than.
    pub fn lt(self, other: Expr) -> Expr {
        self.bin(BinOp::Lt, other)
    }
    /// Less-or-equal.
    pub fn le(self, other: Expr) -> Expr {
        self.bin(BinOp::Leq, other)
    }
    /// Strict greater-than (desugars to swapped `<`).
    pub fn gt(self, other: Expr) -> Expr {
        other.bin(BinOp::Lt, self)
    }
    /// Greater-or-equal (desugars to swapped `<=`).
    pub fn ge(self, other: Expr) -> Expr {
        other.bin(BinOp::Leq, self)
    }
    /// Boolean conjunction.
    pub fn and(self, other: Expr) -> Expr {
        self.bin(BinOp::And, other)
    }
    /// Boolean disjunction.
    pub fn or(self, other: Expr) -> Expr {
        self.bin(BinOp::Or, other)
    }
    /// Boolean negation.
    pub fn not(self) -> Expr {
        self.un(UnOp::Not)
    }
    /// The type of the expression's value.
    pub fn type_of(self) -> Expr {
        self.un(UnOp::TypeOf)
    }
    /// `typeOf(self) = t`.
    pub fn has_type(self, t: TypeTag) -> Expr {
        self.type_of().eq(Expr::type_tag(t))
    }
    /// List length.
    pub fn lst_len(self) -> Expr {
        self.un(UnOp::LstLen)
    }
    /// `i`-th element of a list.
    pub fn lst_nth(self, i: Expr) -> Expr {
        self.bin(BinOp::LstNth, i)
    }
    /// First element of a list.
    pub fn lst_head(self) -> Expr {
        self.un(UnOp::LstHead)
    }
    /// All but the first element of a list.
    pub fn lst_tail(self) -> Expr {
        self.un(UnOp::LstTail)
    }
    /// Prepend onto a list.
    pub fn cons(self, list: Expr) -> Expr {
        self.bin(BinOp::LstCons, list)
    }

    // ---- queries -------------------------------------------------------

    /// Returns the literal value if this expression is one.
    pub fn as_value(&self) -> Option<&Value> {
        match self {
            Expr::Val(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the literal boolean if this expression is one.
    pub fn as_bool(&self) -> Option<bool> {
        self.as_value().and_then(Value::as_bool)
    }

    /// Returns the literal integer if this expression is one.
    pub fn as_int(&self) -> Option<i64> {
        self.as_value().and_then(Value::as_int)
    }

    /// True when the expression contains no variables (program or logical).
    pub fn is_closed(&self) -> bool {
        let mut closed = true;
        self.visit(&mut |e| {
            if matches!(e, Expr::PVar(_) | Expr::LVar(_)) {
                closed = false;
            }
        });
        closed
    }

    /// Calls `f` on this expression and every sub-expression (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Val(_) | Expr::PVar(_) | Expr::LVar(_) => {}
            Expr::Un(_, e) => e.visit(f),
            Expr::Bin(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::List(es) | Expr::StrCat(es) | Expr::LstCat(es) => {
                for e in es {
                    e.visit(f);
                }
            }
        }
    }

    /// Collects the logical variables occurring in the expression.
    pub fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let Expr::LVar(x) = e {
                out.insert(*x);
            }
        });
        out
    }

    /// Collects the program variables occurring in the expression.
    pub fn pvars(&self) -> BTreeSet<Arc<str>> {
        let mut out = BTreeSet::new();
        self.visit(&mut |e| {
            if let Expr::PVar(x) = e {
                out.insert(x.clone());
            }
        });
        out
    }

    /// Rebuilds the expression, replacing each variable through `f`;
    /// variables for which `f` returns `None` are kept as-is.
    ///
    /// Subtrees in which nothing is replaced are **shared, not rebuilt**:
    /// the result reuses the original interned nodes (a refcount bump), so
    /// a substitution that hits nothing allocates nothing.
    pub fn subst(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
        if let Some(e) = f(self) {
            return e;
        }
        match self {
            Expr::Val(_) | Expr::PVar(_) | Expr::LVar(_) => self.clone(),
            Expr::Un(op, e) => {
                let ne = subst_term(e, f);
                match ne {
                    Some(ne) => Expr::Un(*op, ne),
                    None => self.clone(),
                }
            }
            Expr::Bin(op, a, b) => {
                let na = subst_term(a, f);
                let nb = subst_term(b, f);
                if na.is_none() && nb.is_none() {
                    self.clone()
                } else {
                    Expr::Bin(
                        *op,
                        na.unwrap_or_else(|| a.clone()),
                        nb.unwrap_or_else(|| b.clone()),
                    )
                }
            }
            Expr::List(es) => subst_list(es, f)
                .map(Expr::List)
                .unwrap_or_else(|| self.clone()),
            Expr::StrCat(es) => subst_list(es, f)
                .map(Expr::StrCat)
                .unwrap_or_else(|| self.clone()),
            Expr::LstCat(es) => subst_list(es, f)
                .map(Expr::LstCat)
                .unwrap_or_else(|| self.clone()),
        }
    }

    /// Substitutes logical variables through the given mapping.
    pub fn subst_lvars(&self, map: &impl Fn(LVar) -> Option<Expr>) -> Expr {
        self.subst(&|e| match e {
            Expr::LVar(x) => map(*x),
            _ => None,
        })
    }

    /// A small structural size measure (number of nodes), used by the
    /// simplifier to avoid size-increasing rewrites.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

/// Substitutes under an interned node, returning `None` when nothing
/// changed (so the caller can keep sharing the original `Term`).
fn subst_term(t: &Term, f: &impl Fn(&Expr) -> Option<Expr>) -> Option<Term> {
    if let Some(e) = f(t.expr()) {
        return Some(e.into());
    }
    match t.expr() {
        Expr::Val(_) | Expr::PVar(_) | Expr::LVar(_) => None,
        Expr::Un(op, e) => subst_term(e, f).map(|ne| Expr::Un(*op, ne).into()),
        Expr::Bin(op, a, b) => {
            let na = subst_term(a, f);
            let nb = subst_term(b, f);
            if na.is_none() && nb.is_none() {
                None
            } else {
                Some(
                    Expr::Bin(
                        *op,
                        na.unwrap_or_else(|| a.clone()),
                        nb.unwrap_or_else(|| b.clone()),
                    )
                    .into(),
                )
            }
        }
        Expr::List(es) => subst_list(es, f).map(|nes| Expr::List(nes).into()),
        Expr::StrCat(es) => subst_list(es, f).map(|nes| Expr::StrCat(nes).into()),
        Expr::LstCat(es) => subst_list(es, f).map(|nes| Expr::LstCat(nes).into()),
    }
}

/// Substitutes across a shared sequence, returning `None` when no element
/// changed (so the caller can keep sharing the original `ExprList`).
fn subst_list(es: &ExprList, f: &impl Fn(&Expr) -> Option<Expr>) -> Option<ExprList> {
    let mut changed: Option<Vec<Expr>> = None;
    for (i, e) in es.iter().enumerate() {
        let ne = e.subst(f);
        match &mut changed {
            Some(out) => out.push(ne),
            None if ne != *e => {
                let mut out = Vec::with_capacity(es.len());
                out.extend_from_slice(&es[..i]);
                out.push(ne);
                changed = Some(out);
            }
            None => {}
        }
    }
    changed.map(ExprList::from)
}

impl From<Value> for Expr {
    fn from(v: Value) -> Expr {
        Expr::Val(v)
    }
}
impl From<i64> for Expr {
    fn from(n: i64) -> Expr {
        Expr::int(n)
    }
}
impl From<bool> for Expr {
    fn from(b: bool) -> Expr {
        Expr::bool(b)
    }
}
impl From<&str> for Expr {
    fn from(s: &str) -> Expr {
        Expr::str(s)
    }
}
impl From<LVar> for Expr {
    fn from(x: LVar) -> Expr {
        Expr::LVar(x)
    }
}
impl From<Term> for Expr {
    fn from(t: Term) -> Expr {
        t.expr().clone()
    }
}
impl From<&Term> for Expr {
    fn from(t: &Term) -> Expr {
        t.expr().clone()
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Val(v) => write!(f, "{v}"),
            Expr::PVar(x) => write!(f, "{x}"),
            Expr::LVar(x) => write!(f, "{x}"),
            Expr::Un(op, e) => match op {
                UnOp::Neg | UnOp::BitNot => write!(f, "({op}{e})"),
                _ => write!(f, "{op}({e})"),
            },
            Expr::Bin(op, a, b) => match op {
                BinOp::LstNth | BinOp::StrNth | BinOp::LstCons | BinOp::LstSub => {
                    write!(f, "{op}({a}, {b})")
                }
                _ => write!(f, "({a} {op} {b})"),
            },
            Expr::List(es) => {
                write!(f, "{{{{ ")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, " }}}}")
            }
            Expr::StrCat(es) => {
                write!(f, "s-cat(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::LstCat(es) => {
                write!(f, "l-cat(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::InternStats;

    #[test]
    fn builders_produce_expected_shapes() {
        let e = Expr::pvar("x").add(Expr::int(1));
        assert_eq!(
            e,
            Expr::Bin(
                BinOp::Add,
                Expr::PVar(Arc::from("x")).into(),
                Expr::int(1).into()
            )
        );
    }

    #[test]
    fn lvars_and_pvars_are_collected() {
        let e = Expr::pvar("a")
            .add(Expr::lvar(LVar(3)))
            .eq(Expr::lvar(LVar(1)).mul(Expr::pvar("b")));
        assert_eq!(e.lvars(), BTreeSet::from([LVar(1), LVar(3)]));
        let pv: Vec<String> = e.pvars().iter().map(|s| s.to_string()).collect();
        assert_eq!(pv, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn subst_replaces_lvars() {
        let e = Expr::lvar(LVar(0)).add(Expr::lvar(LVar(1)));
        let r = e.subst_lvars(&|x| (x == LVar(0)).then(|| Expr::int(5)));
        assert_eq!(r, Expr::int(5).add(Expr::lvar(LVar(1))));
    }

    #[test]
    fn subst_that_hits_nothing_shares_everything() {
        let e = Expr::pvar("x")
            .add(Expr::lvar(LVar(1)))
            .mul(Expr::int(2).sub(Expr::pvar("y")));
        let before = InternStats::thread_snapshot();
        let r = e.subst(&|_| None);
        let delta = InternStats::thread_snapshot().since(&before);
        assert_eq!(r, e);
        assert_eq!(delta.mints, 0, "no-op substitution must not mint");
        assert_eq!(delta.hits, 0, "no-op substitution must not re-intern");
    }

    #[test]
    fn subst_shares_untouched_siblings() {
        let shared = Expr::pvar("big").mul(Expr::int(7));
        let e = shared.clone().add(Expr::lvar(LVar(9)));
        let r = e.subst_lvars(&|x| (x == LVar(9)).then(|| Expr::int(1)));
        // The untouched left subtree must be the same interned node.
        match (&e, &r) {
            (Expr::Bin(_, a, _), Expr::Bin(_, ra, _)) => {
                assert!(a.same(ra), "untouched subtree must be shared")
            }
            _ => unreachable!(),
        }
        assert_eq!(r, shared.add(Expr::int(1)));
    }

    #[test]
    fn is_closed_detects_variables() {
        assert!(Expr::int(1).add(Expr::int(2)).is_closed());
        assert!(!Expr::pvar("x").is_closed());
        assert!(!Expr::list([Expr::lvar(LVar(0))]).is_closed());
    }

    /// Ordered-map lookups in the memory models rely on these properties
    /// of the derived order; a reordering of the `Expr` or `Value`
    /// variants must fail here rather than silently change a decision.
    #[test]
    fn derived_order_puts_literals_first() {
        let values = [
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::num(f64::NEG_INFINITY),
            Value::num(f64::NAN),
            Value::str(""),
            Value::str("zz"),
            Value::Bool(false),
            Value::Bool(true),
            Value::Sym(crate::Sym(0)),
            Value::Sym(crate::Sym(u64::MAX)),
            Value::Type(crate::TypeTag::Int),
            Value::Type(crate::TypeTag::List),
            Value::proc(""),
            Value::nil(),
            Value::List(vec![Value::Int(i64::MIN)]),
        ];
        let symbolic = [
            Expr::pvar(""),
            Expr::pvar("x"),
            Expr::lvar(LVar(0)),
            Expr::lvar(LVar(u64::MAX)),
            Expr::Val(Value::Int(i64::MIN)).un(UnOp::Not),
            Expr::lvar(LVar(0)).add(Expr::int(1)),
            Expr::list([]),
            Expr::list([Expr::Val(Value::Int(i64::MIN))]),
            Expr::strcat_of([]),
            Expr::lstcat_of([]),
        ];
        let literals: Vec<Expr> = values.into_iter().map(Expr::Val).collect();
        for e in literals.iter().chain(&symbolic) {
            assert!(Expr::LEAST <= *e, "{e:?} sorts below Expr::LEAST");
        }
        for lit in &literals {
            for sym in &symbolic {
                assert!(lit < sym, "literal {lit:?} must sort before {sym:?}");
            }
            assert!(lit < Expr::least_symbolic());
        }
        for sym in &symbolic {
            assert!(
                Expr::least_symbolic() <= sym,
                "{sym:?} sorts below PVar(\"\")"
            );
        }
    }

    #[test]
    fn display_round_trips_shapes() {
        let e = Expr::pvar("x").add(Expr::int(1)).lt(Expr::int(10));
        assert_eq!(e.to_string(), "((x + 1) < 10)");
        assert_eq!(Expr::list([Expr::int(1)]).to_string(), "{{ 1 }}");
    }
}
