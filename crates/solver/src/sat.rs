//! Satisfiability checking for conjunctions of GIL boolean expressions.
//!
//! The checker is a bounded combination of:
//!
//! 1. simplification of every conjunct (with a typing environment grown
//!    from `typeOf` facts and operator usage);
//! 2. equality reasoning via union-find with *substitution closure*:
//!    rewrite atoms with class representatives and re-simplify, to a
//!    bounded fixpoint;
//! 3. interval/difference reasoning on `Int` comparisons and literal-bound
//!    reasoning on `Num` comparisons;
//! 4. bounded case splitting over disjunctions.
//!
//! The result is three-valued; `Unknown` is treated as "possibly SAT" by
//! the engine (see the crate docs for why this is the sound direction).

use crate::ctx::{collect_mask_sites, CapturedState};
use crate::intervals::{IntDomain, NumDomain};
use crate::simplify::simplify;
use crate::typing::{absorb_type_fact, infer, TypeEnv};
use crate::uf::UnionFind;
use gillian_gil::{BinOp, Expr, TypeTag, UnOp, Value};
use std::sync::Arc;
use std::time::Instant;

/// The verdict of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A contradiction was derived: no model exists.
    Unsat,
    /// No contradiction was found within budget.
    Sat,
    /// The budget was exhausted before a verdict.
    Unknown,
}

impl SatResult {
    /// True unless the result is [`SatResult::Unsat`] — i.e. the path may
    /// be feasible and must be kept.
    pub fn possibly_sat(self) -> bool {
        self != SatResult::Unsat
    }
}

/// Tunable limits for a query.
#[derive(Clone, Copy, Debug)]
pub struct SatBudget {
    /// Maximum substitution-closure rounds.
    pub closure_rounds: usize,
    /// Maximum disjunction cases explored.
    pub split_cases: usize,
    /// Wall-clock cutoff: once past this instant the checker stops early
    /// with [`SatResult::Unknown`] instead of finishing its closure rounds
    /// and case splits. `None` (the default) means no time limit. The
    /// [`crate::Solver`] tightens this with any run-level deadline
    /// installed via [`crate::Solver::set_interrupt`].
    pub deadline: Option<Instant>,
}

impl SatBudget {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl Default for SatBudget {
    fn default() -> Self {
        SatBudget {
            closure_rounds: 8,
            split_cases: 64,
            deadline: None,
        }
    }
}

/// Grows the typing environment from operator usage inside conjuncts that
/// are assumed to evaluate to `true` (so their subterms evaluate cleanly).
fn absorb_usage_types(env: &mut TypeEnv, conjuncts: &[Expr]) {
    for _ in 0..3 {
        let mut changed = false;
        for c in conjuncts {
            c.visit(&mut |e| {
                if let Expr::Bin(op, a, b) = e {
                    let relevant = matches!(
                        op,
                        BinOp::Add
                            | BinOp::Sub
                            | BinOp::Mul
                            | BinOp::Div
                            | BinOp::Mod
                            | BinOp::Lt
                            | BinOp::Leq
                    );
                    if !relevant {
                        return;
                    }
                    let ta = infer(env, a);
                    let tb = infer(env, b);
                    let prop = |env: &mut TypeEnv, side: &Expr, t: TypeTag, changed: &mut bool| {
                        if let Expr::LVar(x) = side {
                            if matches!(t, TypeTag::Int | TypeTag::Num | TypeTag::Str)
                                && env.insert(*x, t) != Some(t)
                            {
                                *changed = true;
                            }
                        }
                    };
                    match (ta, tb) {
                        (Some(t), None) => prop(env, b, t, &mut changed),
                        (None, Some(t)) => prop(env, a, t, &mut changed),
                        _ => {}
                    }
                }
            });
        }
        if !changed {
            break;
        }
    }
}

/// The classified atoms of a conjunction. `pub(crate)` (with private
/// fields) so a clean solve's residual atoms can be frozen inside a
/// [`CapturedState`] and extended by a later incremental query.
#[derive(Clone, Debug, Default)]
pub(crate) struct Atoms {
    eqs: Vec<(Expr, Expr)>,
    neqs: Vec<(Expr, Expr)>,
    /// `(a, b, strict)` with both sides typed `Int`.
    int_cmps: Vec<(Expr, Expr, bool)>,
    /// `(term, literal, term_on_left, strict)` with `Num` typing.
    num_cmps: Vec<(Expr, f64, bool, bool)>,
    /// Disjunctions for case splitting.
    ors: Vec<(Expr, Expr)>,
    /// Anything else — kept, re-simplified each closure round.
    opaque: Vec<Expr>,
    /// Equalities already merged into the union-find, preserved so that
    /// feedback recursion (`atoms_to_exprs`) does not lose them.
    uf_eqs: Vec<(Expr, Expr)>,
}

/// Flattens and classifies one simplified conjunct. Returns `false` on an
/// immediately false conjunct.
fn classify(env: &TypeEnv, e: Expr, atoms: &mut Atoms) -> bool {
    match e {
        Expr::Val(Value::Bool(true)) => true,
        Expr::Val(Value::Bool(false)) => false,
        Expr::Bin(BinOp::And, a, b) => {
            classify(env, (*a).clone(), atoms) && classify(env, (*b).clone(), atoms)
        }
        Expr::Bin(BinOp::Or, a, b) => {
            atoms.ors.push(((*a).clone(), (*b).clone()));
            true
        }
        Expr::Bin(BinOp::Eq, a, b) => {
            atoms.eqs.push(((*a).clone(), (*b).clone()));
            true
        }
        Expr::Bin(op @ (BinOp::Lt | BinOp::Leq), a, b) => {
            let strict = op == BinOp::Lt;
            let ta = infer(env, &a);
            let tb = infer(env, &b);
            if ta == Some(TypeTag::Int) || tb == Some(TypeTag::Int) {
                atoms.int_cmps.push(((*a).clone(), (*b).clone(), strict));
            } else if let Expr::Val(Value::Num(x)) = b.as_ref() {
                let x = x.get();
                atoms.num_cmps.push(((*a).clone(), x, true, strict));
            } else if let Expr::Val(Value::Num(x)) = a.as_ref() {
                let x = x.get();
                atoms.num_cmps.push(((*b).clone(), x, false, strict));
            } else {
                // Generic ordering edge: cycle detection is sound in any
                // total order (Num comparisons also imply non-NaN), and
                // integer-specific grounding only triggers on Int literals,
                // which cannot reach non-Int terms.
                atoms.int_cmps.push(((*a).clone(), (*b).clone(), strict));
            }
            true
        }
        Expr::Un(UnOp::Not, inner) => match inner.expr().clone() {
            Expr::Bin(BinOp::Eq, a, b) => {
                atoms.neqs.push(((*a).clone(), (*b).clone()));
                true
            }
            Expr::Bin(BinOp::Or, a, b) => {
                classify(env, (*a).clone().not(), atoms) && classify(env, (*b).clone().not(), atoms)
            }
            Expr::Bin(BinOp::And, a, b) => {
                atoms.ors.push(((*a).clone().not(), (*b).clone().not()));
                true
            }
            other => {
                atoms.eqs.push((other, Expr::ff()));
                true
            }
        },
        // A bare boolean term asserts itself.
        other => {
            atoms.eqs.push((other, Expr::tt()));
            true
        }
    }
}

/// Public re-export of usage-based type absorption for the model finder.
pub fn absorb_usage_types_pub(env: &mut TypeEnv, conjuncts: &[Expr]) {
    absorb_usage_types(env, conjuncts);
}

/// Checks satisfiability of a conjunction of boolean expressions.
pub fn check_conjunction(conjuncts: &[Expr], budget: SatBudget) -> SatResult {
    check_conjunction_inner(conjuncts, budget, None)
}

/// Like [`check_conjunction`], but additionally freezes the end-of-solve
/// state into `capture` when the solve finishes *cleanly* with `Sat`
/// (closure converged, no case split decided the verdict). `Unsat` and
/// `Unknown` leave `capture` untouched.
pub(crate) fn check_conjunction_capturing(
    conjuncts: &[Expr],
    budget: SatBudget,
    capture: &mut Option<CapturedState>,
) -> SatResult {
    check_conjunction_inner(conjuncts, budget, Some(capture))
}

fn check_conjunction_inner(
    conjuncts: &[Expr],
    budget: SatBudget,
    capture: Option<&mut Option<CapturedState>>,
) -> SatResult {
    let mut env = TypeEnv::new();
    let mut consistent = true;
    for c in conjuncts {
        consistent &= absorb_type_fact(&mut env, c);
    }
    if !consistent {
        return SatResult::Unsat;
    }
    absorb_usage_types(&mut env, conjuncts);
    let simplified: Vec<Expr> = conjuncts.iter().map(|c| simplify(&env, c)).collect();
    let mut cases = budget.split_cases;
    check_rec(&env, simplified, budget, &mut cases, 0, capture)
}

/// Solves a frozen prefix state extended by `delta` (the conjuncts pushed
/// since the prefix was solved), without re-solving the prefix.
///
/// Returns `None` when incremental reuse does not apply — the extension
/// changes the typing environment, so prefix conjuncts could simplify
/// differently and the caller must fall back to a monolithic solve.
///
/// Every `Unsat` is derived from the conjunction, so it is as sound as a
/// monolithic one, but the two are not always *identical*: the interval
/// domain keeps what it learnt in assertion order, so a prefix solved
/// before a delta can bound a term that a monolithic solve over the
/// sorted whole leaves open, or the reverse (the generated While programs
/// of seeds 1238, 1537 and 1692 explore different path counts with
/// incremental solving on and off). Only paths without a model differ:
/// the differential oracle replays the same number of paths either way.
pub(crate) fn check_extension(
    seed: &CapturedState,
    delta: &[Expr],
    budget: SatBudget,
    capture: &mut Option<CapturedState>,
) -> Option<SatResult> {
    // Typing gate: absorb the delta into a copy of the captured
    // environment. An inconsistency is a verdict (the monolithic solve
    // over the union would derive the same conflict); any *growth* means
    // reuse is off the table.
    let mut env = (*seed.env).clone();
    let mut consistent = true;
    for c in delta {
        consistent &= absorb_type_fact(&mut env, c);
    }
    if !consistent {
        return Some(SatResult::Unsat);
    }
    if env != *seed.env {
        return None;
    }
    absorb_usage_types(&mut env, delta);
    if env != *seed.env {
        return None;
    }
    // Mirror the monolithic pipeline's ordering: conjuncts are sorted
    // structurally before simplification, so the delta's relative order
    // here matches its relative order in a whole-set solve.
    let mut sorted: Vec<Expr> = delta.to_vec();
    sorted.sort_unstable();
    let simplified: Vec<Expr> = sorted.iter().map(|c| simplify(&env, c)).collect();
    if let Some(verdict) = fast_extend(seed, &env, &simplified, capture) {
        return Some(verdict);
    }
    // General seeded path: re-serialize the prefix's residual atoms
    // (equalities drained into the union-find are re-emitted, so nothing
    // is lost) and run the full checker over residual + delta. Closure
    // over the residual converges immediately — it is already a fixpoint
    // — so the cost is dominated by the delta.
    let mut exprs = atoms_to_exprs(&seed.atoms, 0);
    exprs.extend(simplified);
    let mut cases = budget.split_cases;
    Some(check_rec(&env, exprs, budget, &mut cases, 0, Some(capture)))
}

/// The incremental fast path: when the delta contains only ordering and
/// disequality atoms (no equalities, disjunctions, or boolean atoms), the
/// equality classes cannot change, so the delta atoms are rewritten once
/// through the frozen union-find and asserted into clones of the interval
/// domains. Returns `None` whenever anything would require re-running
/// closure — a structural escape under rewriting, a newly pinned
/// singleton interval, a newly enabled mask identity — so the verdict
/// stays identical to a monolithic solve.
fn fast_extend(
    seed: &CapturedState,
    env: &TypeEnv,
    delta: &[Expr],
    capture: &mut Option<CapturedState>,
) -> Option<SatResult> {
    let mut fresh = Atoms::default();
    for c in delta {
        if !classify(env, c.clone(), &mut fresh) {
            return Some(SatResult::Unsat);
        }
    }
    let uf = &*seed.uf;
    if !fresh.eqs.is_empty()
        || !fresh.ors.is_empty()
        || !fresh.opaque.is_empty()
        || !fresh.uf_eqs.is_empty()
    {
        return refutes_residual_neq(seed, env, &fresh.eqs).then_some(SatResult::Unsat);
    }
    // One rewrite round is the fixpoint here: with no new equalities the
    // union-find is exactly the frozen one, so a second round would see
    // unchanged representatives.
    let mut d_neqs: Vec<(Expr, Expr)> = Vec::new();
    let mut d_int: Vec<(Expr, Expr, bool)> = Vec::new();
    let mut d_num: Vec<(Expr, f64, bool, bool)> = Vec::new();
    for (a, b) in fresh.neqs {
        let e = simplify(env, &uf.apply(&Expr::Bin(BinOp::Eq, a.into(), b.into())));
        match e.as_bool() {
            Some(true) => return Some(SatResult::Unsat),
            Some(false) => {}
            None => {
                if let Expr::Bin(BinOp::Eq, a, b) = e {
                    if uf.same_class(&a, &b) {
                        return Some(SatResult::Unsat);
                    }
                    d_neqs.push(((*a).clone(), (*b).clone()));
                } else {
                    return None;
                }
            }
        }
    }
    for (a, b, strict) in fresh.int_cmps {
        let op = if strict { BinOp::Lt } else { BinOp::Leq };
        let e = simplify(env, &uf.apply(&Expr::Bin(op, a.into(), b.into())));
        match e.as_bool() {
            Some(true) => {}
            Some(false) => return Some(SatResult::Unsat),
            None => {
                if let Expr::Bin(op2 @ (BinOp::Lt | BinOp::Leq), a, b) = e {
                    d_int.push(((*a).clone(), (*b).clone(), op2 == BinOp::Lt));
                } else {
                    return None;
                }
            }
        }
    }
    for (t, x, left, strict) in fresh.num_cmps {
        let op = if strict { BinOp::Lt } else { BinOp::Leq };
        let full = if left {
            t.clone().bin(op, Expr::num(x))
        } else {
            Expr::num(x).bin(op, t.clone())
        };
        let e = simplify(env, &uf.apply(&full));
        match e.as_bool() {
            Some(true) => {}
            Some(false) => return Some(SatResult::Unsat),
            None => {
                let nt = simplify(env, &uf.apply(&t));
                if nt == t && e == full {
                    d_num.push((nt, x, left, strict));
                } else {
                    return None;
                }
            }
        }
    }

    let mut ints = (*seed.ints).clone();
    let mut nums = (*seed.nums).clone();
    for (a, b, strict) in &d_int {
        if !ints.assert_cmp(a, b, *strict) {
            return Some(SatResult::Unsat);
        }
    }
    // Re-assert *all* disequalities, not just the delta's: a prefix
    // disequality that sat strictly inside its term's old interval may
    // now lie on an endpoint the delta narrowed to — exactly when the
    // monolithic solve (which asserts them after all comparisons) would
    // narrow further.
    for (a, b) in seed.atoms.neqs.iter().chain(&d_neqs) {
        match (a.as_int(), b.as_int()) {
            (Some(n), None) if !ints.assert_ne_const(b, n) => {
                return Some(SatResult::Unsat);
            }
            (None, Some(n)) if !ints.assert_ne_const(a, n) => {
                return Some(SatResult::Unsat);
            }
            _ => {}
        }
    }
    for (t, x, left, strict) in &d_num {
        if !nums.assert_cmp_const(t, *x, *left, *strict) {
            return Some(SatResult::Unsat);
        }
    }
    if !ints.consistent() {
        return Some(SatResult::Unsat);
    }

    // Learning parity: the captured solve ended with nothing left to
    // learn, so only delta-driven narrowing can newly trigger the
    // singleton or mask-identity rules — and either trigger needs a full
    // closure re-run.
    for (t, itv) in ints.narrowed_terms() {
        if itv.lo == itv.hi && uf.value_of(t) != Some(Value::Int(itv.lo)) {
            return None;
        }
    }
    let delta_exprs: Vec<Expr> = atoms_to_exprs(
        &Atoms {
            neqs: d_neqs.clone(),
            int_cmps: d_int.clone(),
            num_cmps: d_num.clone(),
            ..Atoms::default()
        },
        0,
    );
    let mut sites: Vec<(Expr, Expr, i64)> = seed.mask_sites.to_vec();
    collect_mask_sites(&delta_exprs, &mut sites);
    for (sub, x, mask) in &sites {
        let itv = ints.query(x);
        if itv.lo >= 0 && itv.hi <= *mask && !uf.same_class(sub, x) {
            return None;
        }
    }

    let mut atoms = (*seed.atoms).clone();
    atoms.neqs.extend(d_neqs);
    atoms.int_cmps.extend(d_int);
    atoms.num_cmps.extend(d_num);
    *capture = Some(CapturedState {
        env: seed.env.clone(),
        uf: seed.uf.clone(),
        atoms: Arc::new(atoms),
        ints: Arc::new(ints),
        nums: Arc::new(nums),
        mask_sites: sites.into(),
    });
    Some(SatResult::Sat)
}

/// True when some delta equality `a = b` rewrites, through the frozen
/// union-find, onto a residual disequality `a' ≠ b'`: merging the two
/// sides closes `r ≠ r`, which is what the general path would derive
/// after re-solving the whole residual.
fn refutes_residual_neq(seed: &CapturedState, env: &TypeEnv, eqs: &[(Expr, Expr)]) -> bool {
    eqs.iter().any(|(a, b)| {
        let a = simplify(env, &seed.uf.apply(a));
        let b = simplify(env, &seed.uf.apply(b));
        seed.atoms
            .neqs
            .iter()
            .any(|(x, y)| (*x == a && *y == b) || (*x == b && *y == a))
    })
}

fn check_rec(
    env: &TypeEnv,
    conjuncts: Vec<Expr>,
    budget: SatBudget,
    cases: &mut usize,
    depth: usize,
    capture: Option<&mut Option<CapturedState>>,
) -> SatResult {
    // Deadline checks sit at recursion entry and at each closure round:
    // those are the only places where unbounded-looking work (rewriting
    // fixpoints, case-split recursion) accumulates, so polling there bounds
    // overshoot to one round past the deadline.
    if budget.expired() {
        return SatResult::Unknown;
    }
    let mut atoms = Atoms::default();
    for c in conjuncts {
        if !classify(env, c, &mut atoms) {
            return SatResult::Unsat;
        }
    }

    let mut uf = UnionFind::new();
    let mut rewritten_uf_eqs: std::collections::BTreeSet<(Expr, Expr)> =
        std::collections::BTreeSet::new();
    // Substitution closure.
    for round in 0..budget.closure_rounds {
        if budget.expired() {
            return SatResult::Unknown;
        }
        for (a, b) in std::mem::take(&mut atoms.eqs) {
            if !uf.union(&a, &b) {
                return SatResult::Unsat;
            }
            atoms.uf_eqs.push((a, b));
        }
        // Rewrite remaining atoms through class representatives.
        let rewrite = |e: &Expr, uf: &UnionFind| -> Expr {
            let substituted = e.subst(&|sub| {
                let r = uf.repr(sub);
                (r != *sub).then_some(r)
            });
            simplify(env, &substituted)
        };
        let mut changed = false;
        let mut requeue: Vec<Expr> = Vec::new();
        for (a, b) in std::mem::take(&mut atoms.neqs) {
            let e = rewrite(&Expr::Bin(BinOp::Eq, a.into(), b.into()), &uf);
            match e.as_bool() {
                Some(true) => return SatResult::Unsat,
                Some(false) => {}
                None => {
                    if let Expr::Bin(BinOp::Eq, a, b) = e {
                        if uf.same_class(&a, &b) {
                            return SatResult::Unsat;
                        }
                        atoms.neqs.push(((*a).clone(), (*b).clone()));
                    } else {
                        requeue.push(e.not());
                        changed = true;
                    }
                }
            }
        }
        for (a, b, strict) in std::mem::take(&mut atoms.int_cmps) {
            let op = if strict { BinOp::Lt } else { BinOp::Leq };
            let e = rewrite(&Expr::Bin(op, a.into(), b.into()), &uf);
            match e.as_bool() {
                Some(true) => {}
                Some(false) => return SatResult::Unsat,
                None => {
                    if let Expr::Bin(op2 @ (BinOp::Lt | BinOp::Leq), a, b) = e {
                        atoms
                            .int_cmps
                            .push(((*a).clone(), (*b).clone(), op2 == BinOp::Lt));
                    } else {
                        requeue.push(e);
                        changed = true;
                    }
                }
            }
        }
        for (t, x, left, strict) in std::mem::take(&mut atoms.num_cmps) {
            // Rewrite the *full* comparison: a negated occurrence of the
            // same atom put `cmp = false` into the equality engine, and
            // the whole-node representative lookup detects the collision
            // (which the Num domains cannot, because ¬(a<b) admits NaN).
            let op = if strict { BinOp::Lt } else { BinOp::Leq };
            let full = if left {
                t.clone().bin(op, Expr::num(x))
            } else {
                Expr::num(x).bin(op, t.clone())
            };
            let e = rewrite(&full, &uf);
            match e.as_bool() {
                Some(true) => {}
                Some(false) => return SatResult::Unsat,
                None => {
                    let nt = rewrite(&t, &uf);
                    if nt == t && e == full {
                        atoms.num_cmps.push((nt, x, left, strict));
                    } else {
                        requeue.push(e);
                        changed = true;
                    }
                }
            }
        }
        for o in std::mem::take(&mut atoms.opaque) {
            let e = rewrite(&o, &uf);
            match e.as_bool() {
                Some(true) => {}
                Some(false) => return SatResult::Unsat,
                None => {
                    // A rewritten opaque atom may have become structured.
                    requeue.push(e);
                }
            }
        }
        // Rewrite the *strict subterms* of equalities already merged into
        // the union-find (e.g. `(0 < x) = false` with `x = 5` elsewhere:
        // the inner x must fold for the contradiction to surface).
        for (a, b) in atoms.uf_eqs.clone() {
            if !rewritten_uf_eqs.insert((a.clone(), b.clone())) {
                continue;
            }
            let inner = |e: &Expr, uf: &UnionFind| -> Expr {
                let substituted = match e {
                    Expr::Un(op, x) => Expr::Un(
                        *op,
                        x.subst(&|s| {
                            let r = uf.repr(s);
                            (r != *s).then_some(r)
                        })
                        .into(),
                    ),
                    Expr::Bin(op, x, y) => {
                        let f = |s: &Expr| {
                            let r = uf.repr(s);
                            (r != *s).then_some(r)
                        };
                        Expr::Bin(*op, x.subst(&f).into(), y.subst(&f).into())
                    }
                    leaf => leaf.clone(),
                };
                simplify(env, &substituted)
            };
            let a2 = inner(&a, &uf);
            let b2 = inner(&b, &uf);
            if a2 != a || b2 != b {
                let e = simplify(env, &a2.eq(b2));
                match e.as_bool() {
                    Some(true) => {}
                    Some(false) => return SatResult::Unsat,
                    None => {
                        requeue.push(e);
                        changed = true;
                    }
                }
            }
        }
        for e in requeue {
            if !classify(env, e, &mut atoms) {
                return SatResult::Unsat;
            }
        }
        if atoms.eqs.is_empty() && !changed {
            break;
        }
        if round + 1 == budget.closure_rounds && !atoms.eqs.is_empty() {
            // Could not reach closure; merge what remains without rewrite.
            for (a, b) in std::mem::take(&mut atoms.eqs) {
                if !uf.union(&a, &b) {
                    return SatResult::Unsat;
                }
                atoms.uf_eqs.push((a, b));
            }
        }
    }

    // Interval reasoning.
    let mut ints = IntDomain::new();
    let mut nums = NumDomain::new();
    for (a, b, strict) in &atoms.int_cmps {
        if !ints.assert_cmp(a, b, *strict) {
            return SatResult::Unsat;
        }
    }
    // Feed literal equalities/disequalities involving Int-typed terms.
    for (t, v) in uf.literal_bindings() {
        if let Value::Int(n) = v {
            if !ints.assert_eq_const(&t, n) {
                return SatResult::Unsat;
            }
        }
    }
    for (a, b) in &atoms.neqs {
        match (a.as_int(), b.as_int()) {
            (Some(n), None) if !ints.assert_ne_const(b, n) => {
                return SatResult::Unsat;
            }
            (None, Some(n)) if !ints.assert_ne_const(a, n) => {
                return SatResult::Unsat;
            }
            _ => {}
        }
    }
    for (t, x, left, strict) in &atoms.num_cmps {
        if !nums.assert_cmp_const(t, *x, *left, *strict) {
            return SatResult::Unsat;
        }
    }
    // Revalidate stored intervals against structural bounds that may have
    // tightened after the constraints were asserted.
    if !ints.consistent() {
        return SatResult::Unsat;
    }

    // Singleton intervals induce equalities (e.g. `0 ≤ n ∧ n ≤ 0` pins
    // `n = 0`); feed them back through substitution closure so opaque
    // atoms mentioning the term (nonlinear arithmetic, list operations)
    // get constant-folded. Mask identities (`x & m = x` when the interval
    // of `x` fits inside the mask) feed back the same way.
    if depth < 8 {
        let mut learned: Vec<Expr> = Vec::new();
        for (t, itv) in ints.narrowed_terms() {
            if itv.lo == itv.hi && uf.value_of(t) != Some(Value::Int(itv.lo)) {
                learned.push(t.clone().eq(Expr::int(itv.lo)));
            }
        }
        let all = atoms_to_exprs(&atoms, 0);
        let mut masked: Vec<(Expr, Expr)> = Vec::new();
        for e in &all {
            e.visit(&mut |sub| {
                if let Expr::Bin(BinOp::BitAnd, a, b) = sub {
                    let (x, mask) = match (a.as_int(), b.as_int()) {
                        (Some(m), None) => (b.as_ref(), m),
                        (None, Some(m)) => (a.as_ref(), m),
                        _ => return,
                    };
                    // x & m = x whenever 0 ≤ x ≤ m and m+1 is a power of 2.
                    if mask >= 0
                        && (mask.wrapping_add(1) & mask) == 0
                        && !masked.iter().any(|(s, _)| s == sub)
                    {
                        let itv = ints.query(x);
                        if itv.lo >= 0 && itv.hi <= mask {
                            masked.push((sub.clone(), x.clone()));
                        }
                    }
                }
            });
        }
        for (sub, x) in masked {
            if !uf.same_class(&sub, &x) {
                learned.push(sub.eq(x));
            }
        }
        if !learned.is_empty() {
            let mut rest = all;
            rest.extend(learned);
            return check_rec(env, rest, budget, cases, depth + 1, capture);
        }
    }

    // Case splitting over disjunctions.
    if let Some((a, b)) = atoms.ors.first().cloned() {
        if *cases == 0 || depth > 8 {
            return SatResult::Unknown;
        }
        let rest: Vec<Expr> = atoms_to_exprs(&atoms, 1);
        let mut any_unknown = false;
        for branch in [a, b] {
            *cases = cases.saturating_sub(1);
            let mut case = rest.clone();
            case.push(simplify(env, &branch));
            // No capture through case splits: a Sat decided by one case
            // is not a state valid for the whole conjunction.
            match check_rec(env, case, budget, cases, depth + 1, None) {
                SatResult::Sat => return SatResult::Sat,
                SatResult::Unknown => any_unknown = true,
                SatResult::Unsat => {}
            }
        }
        return if any_unknown {
            SatResult::Unknown
        } else {
            SatResult::Unsat
        };
    }

    // A clean Sat: no disjunction decided the verdict and (when depth<8,
    // the same bound the learning rules use) nothing was left to learn —
    // the state below is the complete end-of-solve state and is safe to
    // freeze for incremental extension.
    if depth < 8 {
        if let Some(slot) = capture {
            let residual = atoms_to_exprs(&atoms, 0);
            let mut mask_sites = Vec::new();
            collect_mask_sites(&residual, &mut mask_sites);
            *slot = Some(CapturedState {
                env: Arc::new(env.clone()),
                uf: Arc::new(uf),
                atoms: Arc::new(atoms),
                ints: Arc::new(ints),
                nums: Arc::new(nums),
                mask_sites: mask_sites.into(),
            });
        }
    }
    SatResult::Sat
}

/// Re-serialises atoms into expressions (skipping the first `skip_ors`
/// disjunctions, which the caller is splitting on).
fn atoms_to_exprs(atoms: &Atoms, skip_ors: usize) -> Vec<Expr> {
    let mut out = Vec::new();
    for (a, b) in atoms.eqs.iter().chain(&atoms.uf_eqs) {
        out.push(a.clone().eq(b.clone()));
    }
    for (a, b) in &atoms.neqs {
        out.push(a.clone().ne(b.clone()));
    }
    for (a, b, strict) in &atoms.int_cmps {
        let op = if *strict { BinOp::Lt } else { BinOp::Leq };
        out.push(a.clone().bin(op, b.clone()));
    }
    for (t, x, left, strict) in &atoms.num_cmps {
        let op = if *strict { BinOp::Lt } else { BinOp::Leq };
        out.push(if *left {
            t.clone().bin(op, Expr::num(*x))
        } else {
            Expr::num(*x).bin(op, t.clone())
        });
    }
    for (a, b) in atoms.ors.iter().skip(skip_ors) {
        out.push(a.clone().or(b.clone()));
    }
    out.extend(atoms.opaque.iter().cloned());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::LVar;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    fn check(cs: &[Expr]) -> SatResult {
        check_conjunction(cs, SatBudget::default())
    }

    #[test]
    fn empty_and_trivial() {
        assert_eq!(check(&[]), SatResult::Sat);
        assert_eq!(check(&[Expr::tt()]), SatResult::Sat);
        assert_eq!(check(&[Expr::ff()]), SatResult::Unsat);
    }

    #[test]
    fn equality_contradiction() {
        assert_eq!(
            check(&[x(0).eq(Expr::int(1)), x(0).eq(Expr::int(2))]),
            SatResult::Unsat
        );
        assert_eq!(
            check(&[x(0).eq(x(1)), x(1).eq(Expr::int(2)), x(0).eq(Expr::int(2))]),
            SatResult::Sat
        );
    }

    #[test]
    fn disequality_contradiction() {
        assert_eq!(check(&[x(0).eq(x(1)), x(0).ne(x(1))]), SatResult::Unsat);
        assert_eq!(check(&[x(0).ne(Expr::int(3))]), SatResult::Sat);
    }

    #[test]
    fn interval_contradiction() {
        // x < 5 ∧ 5 ≤ x
        assert_eq!(
            check(&[x(0).lt(Expr::int(5)), Expr::int(5).le(x(0)),]),
            SatResult::Unsat
        );
        // 0 ≤ x ∧ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1
        assert_eq!(
            check(&[
                Expr::int(0).le(x(0)),
                x(0).le(Expr::int(1)),
                x(0).ne(Expr::int(0)),
                x(0).ne(Expr::int(1)),
            ]),
            SatResult::Unsat
        );
    }

    #[test]
    fn transitive_interval_chain() {
        assert_eq!(
            check(&[x(0).lt(x(1)), x(1).lt(x(2)), x(2).lt(x(0))]),
            SatResult::Unsat,
            "strict cycle"
        );
        assert_eq!(check(&[x(0).lt(x(1)), x(1).lt(x(2))]), SatResult::Sat);
    }

    #[test]
    fn substitution_closure_resolves_through_equalities() {
        // x0 = x1 ∧ x1 = 3 ∧ x0 + 1 < 3  →  4 < 3 unsat
        assert_eq!(
            check(&[
                x(0).eq(x(1)),
                x(1).eq(Expr::int(3)),
                x(0).add(Expr::int(1)).lt(Expr::int(3)),
            ]),
            SatResult::Unsat
        );
    }

    #[test]
    fn type_conflicts_are_unsat() {
        let tf = |e: Expr, t: TypeTag| e.type_of().eq(Expr::type_tag(t));
        assert_eq!(
            check(&[tf(x(0), TypeTag::Int), tf(x(0), TypeTag::Str)]),
            SatResult::Unsat
        );
        assert_eq!(
            check(&[tf(x(0), TypeTag::Int), x(0).eq(Expr::str("s"))]),
            SatResult::Unsat
        );
    }

    #[test]
    fn disjunction_splitting() {
        // (x=1 ∨ x=2) ∧ x≠1 ∧ x≠2
        assert_eq!(
            check(&[
                x(0).eq(Expr::int(1)).or(x(0).eq(Expr::int(2))),
                x(0).ne(Expr::int(1)),
                x(0).ne(Expr::int(2)),
            ]),
            SatResult::Unsat
        );
        assert_eq!(
            check(&[
                x(0).eq(Expr::int(1)).or(x(0).eq(Expr::int(2))),
                x(0).ne(Expr::int(1)),
            ]),
            SatResult::Sat
        );
    }

    #[test]
    fn num_comparisons() {
        assert_eq!(
            check(&[x(0).lt(Expr::num(1.0)), Expr::num(2.0).le(x(0)),]),
            SatResult::Unsat
        );
        assert_eq!(check(&[x(0).lt(Expr::num(1.0))]), SatResult::Sat);
    }

    #[test]
    fn bool_atoms() {
        assert_eq!(check(&[x(0).clone(), x(0).not()]), SatResult::Unsat);
        assert_eq!(check(&[x(0).clone()]), SatResult::Sat);
    }

    #[test]
    fn division_by_minus_one_keeps_positive_quotients() {
        // ¬(x = 0) ∧ x < 1 ∧ -8 ≤ wrap_s19(x·2 + x·2 + 1) / x + -4 ∧
        // x ≤ x·2 + 1: the interval hull of the division used to wrap at
        // `i64::MIN / -1` and refute it, losing the model x = -1
        // (generated While program, seed 1715).
        let quotient = x(0)
            .mul(Expr::int(2))
            .add(x(0).mul(Expr::int(2)))
            .add(Expr::int(1))
            .un(UnOp::WrapSigned(19))
            .div(x(0));
        let core = vec![
            x(0).ne(Expr::int(0)),
            x(0).lt(Expr::int(1)),
            Expr::int(-8).le(quotient.add(Expr::int(-4))),
            x(0).le(x(0).mul(Expr::int(2)).add(Expr::int(1))),
        ];
        assert_eq!(check(&core), SatResult::Sat);
        let mut pinned = core;
        pinned.push(x(0).eq(Expr::int(-1)));
        assert_eq!(check(&pinned), SatResult::Sat);
    }

    #[test]
    fn list_structure() {
        // {{1, x}} = {{1, 2}} ∧ x ≠ 2
        assert_eq!(
            check(&[
                Expr::list([Expr::int(1), x(0)]).eq(Expr::list([Expr::int(1), Expr::int(2)])),
                x(0).ne(Expr::int(2)),
            ]),
            SatResult::Unsat
        );
    }
}

#[cfg(test)]
mod residual_neq_tests {
    use super::*;
    use gillian_gil::LVar;
    use proptest::prelude::*;

    /// A variable `x0..x2` or a small literal.
    fn term(t: (bool, u8, i64)) -> Expr {
        match t {
            (true, i, _) => Expr::lvar(LVar(u64::from(i % 3))),
            (false, _, c) => Expr::int(c),
        }
    }

    fn term_strategy() -> impl Strategy<Value = (bool, u8, i64)> {
        (any::<bool>(), 0u8..3, -2i64..3)
    }

    /// One residual atom: a disequality, an equality, a bound or a sum.
    fn atom_strategy() -> impl Strategy<Value = Expr> {
        prop_oneof![
            3 => (term_strategy(), term_strategy()).prop_map(|(a, b)| term(a).ne(term(b))),
            2 => (term_strategy(), term_strategy()).prop_map(|(a, b)| term(a).eq(term(b))),
            2 => (term_strategy(), -2i64..3).prop_map(|(a, c)| term(a).lt(Expr::int(c))),
            1 => (0u8..3, 0u8..3, -2i64..3).prop_map(|(a, b, c)| {
                term((true, a, 0)).add(term((true, b, 0))).eq(Expr::int(c))
            }),
        ]
    }

    fn split_ne(e: &Expr) -> Option<(Expr, Expr)> {
        let Expr::Un(UnOp::Not, inner) = e else {
            return None;
        };
        match inner.expr() {
            Expr::Bin(BinOp::Eq, a, b) => Some(((**a).clone(), (**b).clone())),
            _ => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// An equality delta on a solved residual: the rule's `Unsat`, and
        /// whatever `check_extension` answers, match `check_rec` over the
        /// residual plus the delta.
        #[test]
        fn residual_neq_rule_matches_the_general_path(
            atoms in proptest::collection::vec(atom_strategy(), 1..7),
            pick in 0usize..8,
            other in (term_strategy(), term_strategy()),
        ) {
            let int = |i: u64| Expr::lvar(LVar(i)).type_of().eq(Expr::type_tag(TypeTag::Int));
            let mut residual: Vec<Expr> = (0..3).map(int).collect();
            residual.extend(atoms.iter().cloned());
            residual.sort_unstable();
            let budget = SatBudget::default();
            let mut capture = None;
            let verdict = check_conjunction_capturing(&residual, budget, &mut capture);
            let Some(seed) = capture else {
                return Ok(());
            };
            prop_assert_eq!(verdict, SatResult::Sat);
            // Equate the sides of a generated disequality when there is
            // one to pick (the rule's target), else two arbitrary terms.
            let neqs: Vec<(Expr, Expr)> = atoms.iter().filter_map(split_ne).collect();
            let (a, b) = match neqs.get(pick % 4) {
                Some(pair) => pair.clone(),
                None => (term(other.0), term(other.1)),
            };
            let delta = vec![a.eq(b)];
            let Some(extended) = check_extension(&seed, &delta, budget, &mut None) else {
                return Ok(());
            };
            let env = &*seed.env;
            let simplified: Vec<Expr> = delta.iter().map(|c| simplify(env, c)).collect();
            let mut exprs = atoms_to_exprs(&seed.atoms, 0);
            exprs.extend(simplified.iter().cloned());
            let mut cases = budget.split_cases;
            let general = check_rec(env, exprs, budget, &mut cases, 0, None);
            prop_assert_eq!(extended, general);
            let mut fresh = Atoms::default();
            for c in simplified {
                if !classify(env, c, &mut fresh) {
                    return Ok(());
                }
            }
            if refutes_residual_neq(&seed, env, &fresh.eqs) {
                prop_assert_eq!(general, SatResult::Unsat);
            }
        }
    }
}
