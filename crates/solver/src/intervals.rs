//! Interval reasoning over numeric atoms.
//!
//! Tracks an inclusive interval per *term* (any expression of numeric type,
//! treated opaquely, plus the `base + c` pattern recognised by the
//! simplifier) and propagates `<`/`≤` edges between terms to a bounded
//! fixpoint. Detects empty intervals and cyclic strict orderings on the
//! workloads symbolic execution produces (loop counters vs. bounds).
//!
//! Integers and floats are kept in separate domains; mixed comparisons do
//! not arise (GIL arithmetic is not mixed-type).

use crate::persistent::{PMap, PVec};
use gillian_gil::{BinOp, Expr};

/// An inclusive integer interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntItv {
    /// Lower bound.
    pub lo: i64,
    /// Upper bound.
    pub hi: i64,
}

impl IntItv {
    /// The full `i64` range.
    pub fn top() -> Self {
        IntItv {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// True when the interval contains no integers.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Intersection.
    pub fn meet(self, other: Self) -> Self {
        IntItv {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Shifts the interval by `c` (saturating).
    pub fn shift(self, c: i64) -> Self {
        IntItv {
            lo: self.lo.saturating_add(c),
            hi: self.hi.saturating_add(c),
        }
    }
}

/// An ordering edge `a ⋈ b + c` between two integer terms.
#[derive(Clone, Debug)]
struct Edge {
    a: Expr,
    b: Expr,
    /// Constant added to `b`'s side.
    c: i64,
    strict: bool,
}

/// The integer interval domain: per-term intervals plus ordering edges.
///
/// Both are persistent, so a clone shares them and an extension of a
/// frozen domain holds only the intervals it narrows and the edges it
/// adds.
#[derive(Clone, Debug, Default)]
pub struct IntDomain {
    itv: PMap<Expr, IntItv>,
    edges: PVec<Edge>,
}

/// Decomposes `e` as the affine form `a·base + c` (defaults to
/// `1·e + 0`). Over-/underflowing coefficient arithmetic falls back to the
/// opaque form.
///
/// Affine reasoning treats multiplication as mathematical rather than
/// wrapping: satisfying assignments with indices beyond ±2⁶³/a are pruned.
/// This matches compiled pointer arithmetic (where such overflow is itself
/// undefined behaviour); pruning can only lose paths, never report a false
/// bug — reports stay model-verified.
fn affine(e: &Expr) -> (Expr, i64, i64) {
    match e {
        Expr::Bin(BinOp::Add, x, c) => {
            if let Some(c) = c.as_int() {
                let (base, a, c0) = affine(x);
                if let Some(c) = c0.checked_add(c) {
                    return (base, a, c);
                }
            }
            (e.clone(), 1, 0)
        }
        Expr::Bin(BinOp::Mul, x, c) | Expr::Bin(BinOp::Mul, c, x) if c.as_int().is_some() => {
            let m = c.as_int().expect("checked literal");
            let (base, a, c0) = affine(x);
            match (a.checked_mul(m), c0.checked_mul(m)) {
                (Some(a2), Some(c2)) if a2 != 0 => (base, a2, c2),
                _ => (e.clone(), 1, 0),
            }
        }
        // x - c  =  a·base + (c₀ - c)
        Expr::Bin(BinOp::Sub, x, c) if c.as_int().is_some() => {
            let m = c.as_int().expect("checked literal");
            let (base, a, c0) = affine(x);
            match c0.checked_sub(m) {
                Some(c2) => (base, a, c2),
                None => (e.clone(), 1, 0),
            }
        }
        // c - x  =  -a·base + (c - c₀)
        Expr::Bin(BinOp::Sub, c, x) if c.as_int().is_some() => {
            let m = c.as_int().expect("checked literal");
            let (base, a, c0) = affine(x);
            match (a.checked_neg(), m.checked_sub(c0)) {
                (Some(a2), Some(c2)) if a2 != 0 => (base, a2, c2),
                _ => (e.clone(), 1, 0),
            }
        }
        _ => (e.clone(), 1, 0),
    }
}

/// `⌈m / n⌉` for positive `n` (`div_euclid` already floors).
fn ceil_div(m: i64, n: i64) -> i64 {
    m.div_euclid(n) + i64::from(m.rem_euclid(n) != 0)
}

/// Structural bounds a term carries regardless of constraints:
/// `e & c ∈ [0, c]` for a non-negative literal mask, and
/// `e % c ∈ (-|c|, |c|)` for a literal divisor.
pub fn intrinsic_bounds(t: &Expr) -> IntItv {
    match t {
        Expr::Bin(BinOp::BitAnd, a, b) => {
            let mask = a.as_int().or_else(|| b.as_int());
            match mask {
                Some(c) if c >= 0 => IntItv { lo: 0, hi: c },
                _ => IntItv::top(),
            }
        }
        Expr::Bin(BinOp::Mod, _, b) => match b.as_int() {
            Some(c) if c != 0 => {
                let m = (c.unsigned_abs() - 1).min(i64::MAX as u64) as i64;
                IntItv { lo: -m, hi: m }
            }
            _ => IntItv::top(),
        },
        _ => IntItv::top(),
    }
}

impl IntDomain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    fn interval(&self, t: &Expr) -> IntItv {
        self.interval_rec(t, 4)
    }

    fn interval_rec(&self, t: &Expr, depth: u8) -> IntItv {
        if let Some(n) = t.as_int() {
            return IntItv { lo: n, hi: n };
        }
        let stored = self.itv.get(t).copied().unwrap_or_else(IntItv::top);
        let mut out = stored.meet(intrinsic_bounds(t));
        if depth > 0 {
            out = out.meet(self.structural_bounds(t, depth - 1));
        }
        out
    }

    /// Structural interval estimation for operators the affine layer does
    /// not cover. Currently: truncating division with a sign-definite
    /// divisor (what loop bounds like `i < n / d` need to terminate).
    fn structural_bounds(&self, t: &Expr, depth: u8) -> IntItv {
        let Expr::Bin(BinOp::Div, a, b) = t else {
            return IntItv::top();
        };
        let ia = self.interval_rec(a, depth);
        let ib = self.interval_rec(b, depth);
        if ia.is_empty() || ib.is_empty() {
            return IntItv::top();
        }
        // Truncating division is monotone in the dividend and piecewise
        // monotone in a sign-definite divisor, so corner quotients bound
        // the result. A divisor interval containing 0 yields no bound.
        if ib.lo < 1 && ib.hi > -1 {
            return IntItv::top();
        }
        // `i64::MIN / -1` overflows: the quotient is not monotone through
        // that corner, so the corner hull would exclude every positive
        // quotient of the neighbouring dividends. No bound there.
        if ia.lo == i64::MIN && ib.hi == -1 {
            return IntItv::top();
        }
        let corners = [
            (ia.lo, ib.lo),
            (ia.lo, ib.hi),
            (ia.hi, ib.lo),
            (ia.hi, ib.hi),
        ];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for (x, y) in corners {
            let q = x / y;
            lo = lo.min(q);
            hi = hi.max(q);
        }
        IntItv { lo, hi }
    }

    fn constrain(&mut self, t: Expr, itv: IntItv) -> bool {
        if t.as_int().is_some() {
            return !self.interval(&t).meet(itv).is_empty();
        }
        let cur = self.interval(&t).meet(itv);
        self.itv.insert(t, cur);
        !cur.is_empty()
    }

    /// Records `a ⋈ b` (`<` when `strict`, else `≤`), decomposing affine
    /// forms on both sides.
    ///
    /// Returns `false` on an immediate contradiction.
    #[must_use]
    pub fn assert_cmp(&mut self, a: &Expr, b: &Expr, strict: bool) -> bool {
        let (ab, aa, ac) = affine(a);
        let (bb, ba, bc) = affine(b);
        // Same base, same scale: decided by the offsets.
        if ab == bb && aa == ba {
            let c = bc.saturating_sub(ac);
            return if strict { 0 < c } else { 0 <= c };
        }
        // Same base, different scales: aa·x + ac ⋈ ba·x + bc reduces to
        // (aa−ba)·x ⋈ bc−ac, a literal bound on the shared base. Without
        // this, guards like `(x·2 + 128) < x` sail past the checker and
        // every downstream path becomes an unmodellable false path.
        if ab == bb {
            if let (Some(s), Some(d)) = (aa.checked_sub(ba), bc.checked_sub(ac)) {
                if s != 0 {
                    return self.bound_affine(&ab, s, 0, d, strict, true);
                }
            }
        }
        // A literal side bounds the affine term directly.
        if let Some(d) = b.as_int() {
            return self.bound_affine(&ab, aa, ac, d, strict, true);
        }
        if let Some(d) = a.as_int() {
            return self.bound_affine(&bb, ba, bc, d, strict, false);
        }
        // Unit scales: a difference edge between the bases.
        if aa == 1 && ba == 1 {
            let c = bc.saturating_sub(ac);
            self.edges.push(Edge {
                a: ab,
                b: bb,
                c,
                strict,
            });
            return self.propagate();
        }
        // Mixed scales without a literal side: edge between the full terms
        // (contributes cycle detection only).
        self.edges.push(Edge {
            a: a.clone(),
            b: b.clone(),
            c: 0,
            strict,
        });
        self.propagate()
    }

    /// Bounds `base` from `a·base + c ⋈ d` (when `upper`, the affine term
    /// is on the left, so the constraint is an upper bound for positive
    /// `a`). Returns `false` on contradiction.
    #[must_use]
    fn bound_affine(
        &mut self,
        base: &Expr,
        a: i64,
        c: i64,
        d: i64,
        strict: bool,
        upper: bool,
    ) -> bool {
        let delta = i64::from(strict);
        let itv = if upper {
            // a·base ≤ d - c - δ
            let Some(m) = d.checked_sub(c).and_then(|x| x.checked_sub(delta)) else {
                return true;
            };
            if a > 0 {
                IntItv {
                    lo: i64::MIN,
                    hi: m.div_euclid(a), // floor
                }
            } else {
                // div_euclid by a negative ceils; `i64::MIN / -1`
                // overflows and narrows nothing.
                let Some(lo) = m.checked_div_euclid(a) else {
                    return true;
                };
                IntItv { lo, hi: i64::MAX }
            }
        } else {
            // d + δ ≤ a·base + c  ⇔  a·base ≥ d - c + δ
            let Some(m) = d.checked_sub(c).and_then(|x| x.checked_add(delta)) else {
                return true;
            };
            if a > 0 {
                IntItv {
                    lo: ceil_div(m, a),
                    hi: i64::MAX,
                }
            } else {
                // floor(m / a) for negative a; overflow narrows nothing.
                let Some(hi) = a.checked_neg().and_then(|n| ceil_div(m, n).checked_neg()) else {
                    return true;
                };
                IntItv { lo: i64::MIN, hi }
            }
        };
        if !self.constrain(base.clone(), itv) {
            return false;
        }
        self.propagate()
    }

    /// Records `t = n` for a literal integer.
    #[must_use]
    pub fn assert_eq_const(&mut self, t: &Expr, n: i64) -> bool {
        let (base, a, c) = affine(t);
        // `i64::MIN / -1` overflows: narrow nothing, which is sound
        // (`x = i64::MIN` satisfies `-x = i64::MIN` under wrapping).
        let Some((m, target)) = n.checked_sub(c).and_then(|m| Some((m, m.checked_div(a)?))) else {
            return true;
        };
        if m % a != 0 {
            return false; // no integer solution
        }
        if !self.constrain(
            base,
            IntItv {
                lo: target,
                hi: target,
            },
        ) {
            return false;
        }
        self.propagate()
    }

    /// Records `t ≠ n`; only narrows when `n` is an interval endpoint.
    #[must_use]
    pub fn assert_ne_const(&mut self, t: &Expr, n: i64) -> bool {
        let (base, a, c) = affine(t);
        // Overflow narrows nothing, as in `assert_eq_const`.
        let Some((m, n)) = n.checked_sub(c).and_then(|m| Some((m, m.checked_div(a)?))) else {
            return true;
        };
        if m % a != 0 {
            return true; // the affine term can never equal n
        }
        let cur = self.interval(&base);
        let next = if cur.lo == n && cur.hi == n {
            return false;
        } else if cur.lo == n {
            IntItv {
                lo: n.saturating_add(1),
                hi: cur.hi,
            }
        } else if cur.hi == n {
            IntItv {
                lo: cur.lo,
                hi: n.saturating_sub(1),
            }
        } else {
            return true;
        };
        if !self.constrain(base, next) {
            return false;
        }
        self.propagate()
    }

    /// Detects a negative cycle in the difference-constraint graph induced
    /// by the edges (`a ⋈ b + c` ⇔ `a - b ≤ c - δ`). A negative cycle means
    /// the conjunction of orderings is unsatisfiable even before any
    /// constant grounding (e.g. `x < y ∧ y < x`).
    fn has_negative_cycle(&self) -> bool {
        use std::collections::BTreeMap;
        let mut dist: BTreeMap<&Expr, i64> = BTreeMap::new();
        for e in &self.edges {
            dist.entry(&e.a).or_insert(0);
            dist.entry(&e.b).or_insert(0);
        }
        let n = dist.len();
        for round in 0..=n {
            let mut changed = false;
            for e in &self.edges {
                let w = e.c.saturating_sub(if e.strict { 1 } else { 0 });
                let da = dist[&e.a];
                let db = dist[&e.b];
                // Constraint a - b ≤ w: relax dist[a] ≤ dist[b] + w.
                if da > db.saturating_add(w) {
                    *dist.get_mut(&e.a).unwrap() = db.saturating_add(w);
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if round == n {
                return true;
            }
        }
        false
    }

    /// Propagates all edges to a bounded fixpoint.
    ///
    /// Returns `false` when some term's interval becomes empty (Unsat).
    #[must_use]
    fn propagate(&mut self) -> bool {
        if self.has_negative_cycle() {
            return false;
        }
        // Each round tightens at least one bound or stops; bound rounds to
        // keep the checker total on adversarial cycles.
        for _ in 0..64 {
            let mut changed = false;
            // A clone of the edge list is a refcount bump: propagation
            // narrows intervals but adds no edge.
            for e in self.edges.clone().iter() {
                let ia = self.interval(&e.a);
                let ib = self.interval(&e.b);
                let delta = if e.strict { 1 } else { 0 };
                // a ≤ b + c - δ′ … upper bound for a:
                let a_hi = ib.hi.saturating_add(e.c).saturating_sub(delta);
                // lower bound for b: b ≥ a - c + δ
                let b_lo = ia.lo.saturating_sub(e.c).saturating_add(delta);
                let na = ia.meet(IntItv {
                    lo: i64::MIN,
                    hi: a_hi,
                });
                let nb = ib.meet(IntItv {
                    lo: b_lo,
                    hi: i64::MAX,
                });
                if na != ia {
                    changed = true;
                    if !self.constrain(e.a.clone(), na) {
                        return false;
                    }
                }
                if nb != ib {
                    changed = true;
                    if !self.constrain(e.b.clone(), nb) {
                        return false;
                    }
                }
            }
            if !changed {
                return true;
            }
        }
        true
    }

    /// Re-checks every stored interval against the *current* structural
    /// bounds of its term: constraints asserted before a subterm was
    /// narrowed (e.g. `k < 6/d` before `d ≠ 0`) are revalidated here.
    /// Returns `false` when any term's interval is now empty.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.itv.keys().all(|t| !self.interval(t).is_empty())
    }

    /// A copy that shares nothing with `self`.
    #[cfg(test)]
    pub(crate) fn unshared(&self) -> IntDomain {
        IntDomain {
            itv: self.itv.unshared(),
            edges: self.edges.unshared(),
        }
    }

    /// Overlay entries of the interval map and segments of the edge list.
    #[cfg(test)]
    pub(crate) fn sharing(&self) -> (usize, usize) {
        (self.itv.overlay_len(), self.edges.segments())
    }

    /// The current interval of a term (after affine decomposition).
    pub fn query(&self, t: &Expr) -> IntItv {
        let (base, a, c) = affine(t);
        let itv = self.interval(&base);
        let end1 = itv.lo.saturating_mul(a).saturating_add(c);
        let end2 = itv.hi.saturating_mul(a).saturating_add(c);
        IntItv {
            lo: end1.min(end2),
            hi: end1.max(end2),
        }
    }

    /// All terms with a narrowed interval, for model seeding.
    pub fn narrowed_terms(&self) -> impl Iterator<Item = (&Expr, IntItv)> {
        self.itv.iter().map(|(e, i)| (e, *i))
    }
}

/// A float interval with independently open/closed endpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NumItv {
    /// Lower bound.
    pub lo: f64,
    /// Whether the lower bound is excluded.
    pub lo_open: bool,
    /// Upper bound.
    pub hi: f64,
    /// Whether the upper bound is excluded.
    pub hi_open: bool,
}

impl NumItv {
    /// The full real line.
    pub fn top() -> Self {
        NumItv {
            lo: f64::NEG_INFINITY,
            lo_open: false,
            hi: f64::INFINITY,
            hi_open: false,
        }
    }

    /// True when the interval contains no floats.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && (self.lo_open || self.hi_open))
    }
}

/// The float domain: tracks comparisons of terms against literals. A term
/// constrained here is implicitly non-NaN (NaN falsifies every comparison).
#[derive(Clone, Debug, Default)]
pub struct NumDomain {
    bounds: PMap<Expr, NumItv>,
}

impl NumDomain {
    /// Creates an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    fn get(&self, t: &Expr) -> NumItv {
        self.bounds.get(t).copied().unwrap_or_else(NumItv::top)
    }

    /// Records `t ⋈ x` (when `term_on_left`) or `x ⋈ t` against a literal.
    ///
    /// Returns `false` when the term's interval becomes empty (Unsat).
    #[must_use]
    pub fn assert_cmp_const(&mut self, t: &Expr, x: f64, term_on_left: bool, strict: bool) -> bool {
        if x.is_nan() {
            return false; // comparisons against NaN never hold
        }
        let mut itv = self.get(t);
        if term_on_left {
            if x < itv.hi || (x == itv.hi && strict && !itv.hi_open) {
                itv.hi = x;
                itv.hi_open = strict;
            }
        } else if x > itv.lo || (x == itv.lo && strict && !itv.lo_open) {
            itv.lo = x;
            itv.lo_open = strict;
        }
        self.bounds.insert(t.clone(), itv);
        !itv.is_empty()
    }

    /// The interval of a term.
    pub fn query(&self, t: &Expr) -> NumItv {
        self.get(t)
    }

    /// All narrowed terms, for model seeding.
    pub fn narrowed_terms(&self) -> impl Iterator<Item = (&Expr, NumItv)> {
        self.bounds.iter().map(|(e, b)| (e, *b))
    }

    /// A copy that shares nothing with `self`.
    #[cfg(test)]
    pub(crate) fn unshared(&self) -> NumDomain {
        NumDomain {
            bounds: self.bounds.unshared(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::LVar;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    #[test]
    fn bounds_meet_to_contradiction() {
        let mut d = IntDomain::new();
        assert!(d.assert_cmp(&x(0), &Expr::int(5), true)); // x < 5
                                                           // 5 ≤ x empties the interval: the call itself reports Unsat.
        assert!(!d.assert_cmp(&Expr::int(5), &x(0), false));
    }

    #[test]
    fn transitive_chains_propagate() {
        let mut d = IntDomain::new();
        assert!(d.assert_cmp(&x(0), &x(1), true)); // x0 < x1
        assert!(d.assert_cmp(&x(1), &x(2), true)); // x1 < x2
        assert!(d.assert_cmp(&x(2), &Expr::int(2), false)); // x2 ≤ 2
        assert!(d.query(&x(0)).hi <= 0);
        assert!(d.assert_cmp(&Expr::int(0), &x(0), false)); // 0 ≤ x0
        assert_eq!(d.query(&x(0)), IntItv { lo: 0, hi: 0 });
    }

    #[test]
    fn strict_cycle_is_contradiction() {
        let mut d = IntDomain::new();
        assert!(d.assert_cmp(&x(0), &x(1), true));
        // x1 < x0 closes a strict cycle; propagation keeps tightening until
        // bounds are detected empty, or the round bound trips — then the
        // contradiction is still caught through constants:
        let _ = d.assert_cmp(&x(1), &x(0), true);
        let ok0 = d.assert_cmp(&Expr::int(0), &x(0), false);
        let ok1 = d.assert_cmp(&x(0), &Expr::int(10), false);
        assert!(!(ok0 && ok1) || d.query(&x(0)).is_empty() || d.query(&x(1)).is_empty());
    }

    #[test]
    fn offsets_are_decomposed() {
        let mut d = IntDomain::new();
        // x + 1 ≤ 10  →  x ≤ 9
        assert!(d.assert_cmp(&x(0).add(Expr::int(1)), &Expr::int(10), false));
        assert_eq!(d.query(&x(0)).hi, 9);
        // Same-base comparison decides immediately: x + 1 < x + 3.
        let mut d2 = IntDomain::new();
        assert!(d2.assert_cmp(&x(0).add(Expr::int(1)), &x(0).add(Expr::int(3)), true));
        assert!(!d2.assert_cmp(&x(0).add(Expr::int(3)), &x(0).add(Expr::int(1)), true));
    }

    #[test]
    fn same_base_different_scales_resolve() {
        // (x·2 + 128) < x  ⇔  x < -128: combined with -8 ≤ x this is a
        // contradiction the checker must catch — otherwise every guard of
        // this shape mints an unmodellable false path downstream
        // (differential battery, seed 1592590343).
        let mut d = IntDomain::new();
        assert!(d.assert_cmp(&Expr::int(-8), &x(0), false));
        assert!(!d.assert_cmp(
            &x(0).clone().mul(Expr::int(2)).add(Expr::int(128)),
            &x(0),
            true
        ));
        // And the satisfiable direction tightens instead of refuting:
        // x < x·2 + 128  ⇔  -128 < x.
        let mut d2 = IntDomain::new();
        assert!(d2.assert_cmp(&x(0), &x(0).mul(Expr::int(2)).add(Expr::int(128)), true));
        assert!(d2.query(&x(0)).lo >= -127);
    }

    #[test]
    fn eq_and_ne_consts() {
        let mut d = IntDomain::new();
        assert!(d.assert_eq_const(&x(0), 7));
        assert_eq!(d.query(&x(0)), IntItv { lo: 7, hi: 7 });
        assert!(!d.assert_ne_const(&x(0), 7));
        let mut d2 = IntDomain::new();
        assert!(d2.assert_cmp(&Expr::int(0), &x(1), false));
        assert!(d2.assert_cmp(&x(1), &Expr::int(1), false));
        assert!(d2.assert_ne_const(&x(1), 0));
        assert_eq!(d2.query(&x(1)), IntItv { lo: 1, hi: 1 });
    }

    #[test]
    fn num_domain_bounds() {
        let mut d = NumDomain::new();
        assert!(d.assert_cmp_const(&x(0), 5.0, true, true)); // x < 5.0
        assert!(d.assert_cmp_const(&x(0), 1.0, false, false)); // 1.0 ≤ x
        let itv = d.query(&x(0));
        assert_eq!((itv.lo, itv.hi), (1.0, 5.0));
        assert!(itv.hi_open && !itv.lo_open);
        // x < 1.0 now empties the interval.
        assert!(!d.assert_cmp_const(&x(0), 1.0, true, true));
        // Point interval is fine when both ends are closed.
        let mut d2 = NumDomain::new();
        assert!(d2.assert_cmp_const(&x(1), 2.0, true, false)); // x ≤ 2
        assert!(d2.assert_cmp_const(&x(1), 2.0, false, false)); // 2 ≤ x
        assert!(!d2.assert_cmp_const(&x(1), 2.0, true, true)); // x < 2
    }
}
#[cfg(test)]
mod affine_tests {
    use super::*;
    use gillian_gil::LVar;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    #[test]
    fn scaled_bounds_propagate_to_the_base() {
        let mut d = IntDomain::new();
        // 8x ≤ 24 → x ≤ 3; 0 ≤ 8x → x ≥ 0.
        assert!(d.assert_cmp(&x(0).mul(Expr::int(8)), &Expr::int(24), false));
        assert!(d.assert_cmp(&Expr::int(0), &x(0).mul(Expr::int(8)), false));
        assert_eq!(d.query(&x(0)), IntItv { lo: 0, hi: 3 });
        // 8x < 0 now contradicts.
        assert!(!d.assert_cmp(&x(0).mul(Expr::int(8)), &Expr::int(0), true));
    }

    #[test]
    fn affine_with_offset_and_rounding() {
        let mut d = IntDomain::new();
        // 3x + 1 < 9 → 3x ≤ 7 → x ≤ 2 (floor).
        assert!(d.assert_cmp(
            &x(0).mul(Expr::int(3)).add(Expr::int(1)),
            &Expr::int(9),
            true
        ));
        assert_eq!(d.query(&x(0)).hi, 2);
        // 5 ≤ 3x → x ≥ 2 (ceil).
        assert!(d.assert_cmp(&Expr::int(5), &x(0).mul(Expr::int(3)), false));
        assert_eq!(d.query(&x(0)), IntItv { lo: 2, hi: 2 });
    }

    #[test]
    fn negative_scale_flips_bounds() {
        let mut d = IntDomain::new();
        // -2x ≤ 6 → x ≥ -3.
        assert!(d.assert_cmp(&x(0).mul(Expr::int(-2)), &Expr::int(6), false));
        assert_eq!(d.query(&x(0)).lo, -3);
        // 4 ≤ -2x → x ≤ -2.
        assert!(d.assert_cmp(&Expr::int(4), &x(0).mul(Expr::int(-2)), false));
        assert_eq!(d.query(&x(0)), IntItv { lo: -3, hi: -2 });
    }

    #[test]
    fn affine_equalities_and_divisibility() {
        let mut d = IntDomain::new();
        assert!(d.assert_eq_const(&x(0).mul(Expr::int(8)), 16));
        assert_eq!(d.query(&x(0)), IntItv { lo: 2, hi: 2 });
        let mut d2 = IntDomain::new();
        assert!(
            !d2.assert_eq_const(&x(1).mul(Expr::int(8)), 15),
            "8x = 15 has no solution"
        );
        // 8x ≠ 15 is vacuous.
        let mut d3 = IntDomain::new();
        assert!(d3.assert_ne_const(&x(2).mul(Expr::int(8)), 15));
    }

    #[test]
    fn same_base_same_scale_decides() {
        let mut d = IntDomain::new();
        let e1 = x(0).mul(Expr::int(8)).add(Expr::int(8));
        let e2 = x(0).mul(Expr::int(8)).add(Expr::int(16));
        assert!(d.assert_cmp(&e1, &e2, true));
        assert!(!d.assert_cmp(&e2, &e1, true));
    }
}

#[cfg(test)]
mod division_tests {
    use super::*;
    use gillian_gil::LVar;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    #[test]
    fn division_bounds_follow_the_divisor() {
        let mut d = IntDomain::new();
        // 1 ≤ x ≤ 3 → 6/x ∈ [2, 6].
        assert!(d.assert_cmp(&Expr::int(1), &x(0), false));
        assert!(d.assert_cmp(&x(0), &Expr::int(3), false));
        let q = Expr::int(6).div(x(0));
        let itv = d.query(&q);
        assert_eq!(itv, IntItv { lo: 2, hi: 6 });
        // A bound beyond the structural range is inconsistent — caught
        // either at assertion time or by the consistency recheck.
        let ok = d.assert_cmp(&Expr::int(7), &q, false);
        assert!(!ok || !d.consistent());
    }

    #[test]
    fn division_by_possibly_zero_gives_no_bound() {
        let mut d = IntDomain::new();
        assert!(d.assert_cmp(&Expr::int(0), &x(0), false));
        assert!(d.assert_cmp(&x(0), &Expr::int(3), false));
        let q = Expr::int(6).div(x(0));
        assert_eq!(d.query(&q), IntItv::top());
    }

    #[test]
    fn negative_divisors_bound_too() {
        let mut d = IntDomain::new();
        // -3 ≤ x ≤ -1 → 6/x ∈ [-6, -2].
        assert!(d.assert_cmp(&Expr::int(-3), &x(0), false));
        assert!(d.assert_cmp(&x(0), &Expr::int(-1), false));
        let q = Expr::int(6).div(x(0));
        assert_eq!(d.query(&q), IntItv { lo: -6, hi: -2 });
    }

    #[test]
    fn overflow_corner_gives_no_bound() {
        // An unbounded dividend over the divisor -1: `i64::MIN / -1`
        // wraps, so the corner hull would claim the quotient is never
        // positive, although `-5 / -1 = 5`.
        let mut d = IntDomain::new();
        assert!(d.assert_eq_const(&x(1), -1));
        let q = x(0).div(x(1));
        assert_eq!(d.query(&q), IntItv::top());
        assert!(d.assert_cmp(&Expr::int(1), &q, false));
        assert!(d.consistent());
    }

    #[test]
    fn negated_min_narrows_nothing() {
        // `-x` against `i64::MIN`: the quotient `i64::MIN / -1` overflows.
        // Under wrapping `x = i64::MIN` satisfies each atom, so none may
        // narrow, panic or refute.
        let min = Expr::int(i64::MIN);
        for neg in [x(0).mul(Expr::int(-1)), Expr::int(0).sub(x(0))] {
            let mut d = IntDomain::new();
            assert!(d.assert_eq_const(&neg, i64::MIN));
            assert!(d.assert_ne_const(&neg, i64::MIN));
            assert!(d.assert_cmp(&neg, &min, false));
            assert!(d.assert_cmp(&min, &neg, false));
            assert_eq!(d.query(&x(0)), IntItv::top(), "{neg}");
        }
    }

    #[test]
    fn consistency_recheck_catches_late_narrowing() {
        let mut d = IntDomain::new();
        let q = Expr::int(6).div(x(0));
        // Constrain the quotient before anything is known about x…
        assert!(d.assert_cmp(&Expr::int(10), &q, false));
        assert!(d.consistent(), "nothing known about x yet");
        // …then narrow x: 6/x ≤ 6 < 10 — only the recheck sees it.
        assert!(d.assert_cmp(&Expr::int(1), &x(0), false));
        assert!(d.assert_cmp(&x(0), &Expr::int(3), false));
        assert!(!d.consistent());
    }
}
