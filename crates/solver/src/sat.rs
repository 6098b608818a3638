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

use crate::ctx::{collect_mask_sites, CapturedState, MaskSite};
use crate::intervals::{IntDomain, NumDomain};
use crate::persistent::PVec;
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

/// The classified atoms of a conjunction, as the checker rewrites them.
#[derive(Clone, Debug, Default)]
struct Atoms {
    eqs: Vec<(Expr, Expr)>,
    neqs: Vec<(Expr, Expr)>,
    /// `(a, b, strict)` with both sides typed `Int`.
    int_cmps: Vec<(Expr, Expr, bool)>,
    /// `(term, literal, term_on_left, strict)` with `Num` typing.
    num_cmps: Vec<NumCmp>,
    /// Disjunctions for case splitting.
    ors: Vec<(Expr, Expr)>,
    /// Equalities already merged into the union-find, preserved so that
    /// feedback recursion (`atoms_to_exprs`) does not lose them.
    uf_eqs: Vec<(Expr, Expr)>,
}

/// A `Num` comparison against a literal: `(term, literal, term_on_left,
/// strict)`.
type NumCmp = (Expr, f64, bool, bool);

/// The residual atoms of a clean solve, frozen inside a [`CapturedState`]
/// in shared append-only segments, so that an incremental extension holds
/// only the atoms it adds or rewrites. A clean solve leaves no pending
/// equality (they are drained into the union-find) and no disjunction.
#[derive(Clone, Debug)]
pub(crate) struct Residual {
    neqs: PVec<(Expr, Expr)>,
    int_cmps: PVec<(Expr, Expr, bool)>,
    num_cmps: PVec<NumCmp>,
    /// Equalities merged into the union-find, as in [`Atoms`].
    uf_eqs: PVec<(Expr, Expr)>,
}

impl Residual {
    /// Freezes the atoms a clean solve ends with, one segment per kind.
    fn freeze(atoms: Atoms) -> Residual {
        debug_assert!(atoms.ors.is_empty(), "a clean solve split no disjunction");
        // Pending equalities remain only when closure ran no round at all;
        // `atoms_to_exprs` serializes them just before the merged ones.
        let mut uf_eqs = atoms.eqs;
        uf_eqs.extend(atoms.uf_eqs);
        Residual {
            neqs: atoms.neqs.into(),
            int_cmps: atoms.int_cmps.into(),
            num_cmps: atoms.num_cmps.into(),
            uf_eqs: uf_eqs.into(),
        }
    }

    /// Re-serialises the residual in the order [`atoms_to_exprs`] gives
    /// the atoms it was frozen from.
    fn to_exprs(&self) -> Vec<Expr> {
        serialize(
            self.uf_eqs.iter(),
            self.neqs.iter(),
            self.int_cmps.iter(),
            self.num_cmps.iter(),
            [].iter(),
        )
    }
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

/// The layer of [`check_extension`] that answered an incremental query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Extension {
    /// A delta without equalities or disjunctions, propagated through the
    /// frozen union-find (or refuted by its type facts alone).
    Fast,
    /// A delta with equalities, merged into a copy of the frozen
    /// union-find (or refuted by the residual-disequality rule).
    Equalities,
    /// The frozen residual re-solved together with the delta.
    SeededFull,
}

/// Solves a frozen prefix state extended by `delta` (the conjuncts pushed
/// since the prefix was solved), without re-solving the prefix, and says
/// which layer answered.
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
) -> Option<(SatResult, Extension)> {
    let (env, simplified) = match delta_conjuncts(seed, delta) {
        Ok(prepared) => prepared,
        Err(answer) => return answer.map(|v| (v, Extension::Fast)),
    };
    let mut fresh = Atoms::default();
    for c in &simplified {
        if !classify(&env, c.clone(), &mut fresh) {
            return Some((SatResult::Unsat, Extension::Fast));
        }
    }
    let answer = if fresh.eqs.is_empty() && fresh.ors.is_empty() {
        fast_extend(seed, &env, fresh, capture).map(|v| (v, Extension::Fast))
    } else if refutes_residual_neq(seed, &env, &fresh.eqs) {
        Some((SatResult::Unsat, Extension::Equalities))
    } else if fresh.ors.is_empty() {
        extend_by_equalities(seed, &env, fresh, capture).map(|v| (v, Extension::Equalities))
    } else {
        None
    };
    if answer.is_some() {
        return answer;
    }
    let verdict = seeded_full(seed, &env, simplified, budget, capture);
    Some((verdict, Extension::SeededFull))
}

/// The typing gate and simplification shared by every extension layer:
/// absorbs the delta into a copy of the captured environment and returns
/// it with the delta's simplified conjuncts. An inconsistency is a verdict
/// (`Err(Some(Unsat))`: the monolithic solve over the union would derive
/// the same conflict); any *growth* means reuse is off the table
/// (`Err(None)`).
fn delta_conjuncts(
    seed: &CapturedState,
    delta: &[Expr],
) -> Result<(TypeEnv, Vec<Expr>), Option<SatResult>> {
    let mut env = (*seed.env).clone();
    let mut consistent = true;
    for c in delta {
        consistent &= absorb_type_fact(&mut env, c);
    }
    if !consistent {
        return Err(Some(SatResult::Unsat));
    }
    if env != *seed.env {
        return Err(None);
    }
    absorb_usage_types(&mut env, delta);
    if env != *seed.env {
        return Err(None);
    }
    // Mirror the monolithic pipeline's ordering: conjuncts are sorted
    // structurally before simplification, so the delta's relative order
    // here matches its relative order in a whole-set solve.
    let mut sorted: Vec<Expr> = delta.to_vec();
    sorted.sort_unstable();
    let simplified = sorted.iter().map(|c| simplify(&env, c)).collect();
    Ok((env, simplified))
}

/// The seeded full check: re-serializes the prefix's residual atoms
/// (equalities drained into the union-find are re-emitted, so nothing is
/// lost) and runs the full checker over residual + delta. Closure over
/// the residual converges immediately — it is already a fixpoint — so the
/// cost is dominated by the delta, plus re-classifying and re-propagating
/// the whole residual.
fn seeded_full(
    seed: &CapturedState,
    env: &TypeEnv,
    simplified: Vec<Expr>,
    budget: SatBudget,
    capture: &mut Option<CapturedState>,
) -> SatResult {
    let mut exprs = seed.atoms.to_exprs();
    exprs.extend(simplified);
    let mut cases = budget.split_cases;
    check_rec(env, exprs, budget, &mut cases, 0, Some(capture))
}

/// What rewriting one classified atom through the union-find gives.
enum Rewrite<T> {
    /// The atom keeps its kind, possibly with rewritten sides.
    Kept(T),
    /// The atom became true.
    Dropped,
    /// The atom became false.
    Refuted,
    /// The atom changed shape: the closure loop re-classifies this
    /// conjunct, and the incremental extensions fall back.
    Requeue(Expr),
}

/// Substitutes class representatives into `e` and re-simplifies it: the
/// closure loop's per-atom rewrite, which the incremental extensions
/// share so that every path rewrites an atom identically.
fn rewrite(env: &TypeEnv, uf: &UnionFind, e: &Expr) -> Expr {
    simplify(env, &uf.apply(e))
}

fn rewrite_neq(env: &TypeEnv, uf: &UnionFind, (a, b): &(Expr, Expr)) -> Rewrite<(Expr, Expr)> {
    let e = rewrite(env, uf, &a.clone().eq(b.clone()));
    match e.as_bool() {
        Some(true) => Rewrite::Refuted,
        Some(false) => Rewrite::Dropped,
        None => match e {
            Expr::Bin(BinOp::Eq, a, b) if uf.same_class(&a, &b) => Rewrite::Refuted,
            Expr::Bin(BinOp::Eq, a, b) => Rewrite::Kept(((*a).clone(), (*b).clone())),
            e => Rewrite::Requeue(e.not()),
        },
    }
}

fn rewrite_int_cmp(
    env: &TypeEnv,
    uf: &UnionFind,
    (a, b, strict): &(Expr, Expr, bool),
) -> Rewrite<(Expr, Expr, bool)> {
    let e = rewrite(env, uf, &cmp_expr(a, b, *strict));
    match e.as_bool() {
        Some(true) => Rewrite::Dropped,
        Some(false) => Rewrite::Refuted,
        None => match e {
            Expr::Bin(op @ (BinOp::Lt | BinOp::Leq), a, b) => {
                Rewrite::Kept(((*a).clone(), (*b).clone(), op == BinOp::Lt))
            }
            e => Rewrite::Requeue(e),
        },
    }
}

/// Rewrites the *full* comparison: a negated occurrence of the same atom
/// put `cmp = false` into the equality engine, and the whole-node
/// representative lookup detects the collision (which the Num domains
/// cannot, because ¬(a<b) admits NaN).
fn rewrite_num_cmp(env: &TypeEnv, uf: &UnionFind, cmp: &NumCmp) -> Rewrite<NumCmp> {
    let full = num_cmp_expr(cmp);
    let e = rewrite(env, uf, &full);
    match e.as_bool() {
        Some(true) => Rewrite::Dropped,
        Some(false) => Rewrite::Refuted,
        None if e == full && rewrite(env, uf, &cmp.0) == cmp.0 => Rewrite::Kept(cmp.clone()),
        None => Rewrite::Requeue(e),
    }
}

/// Rewrites the *strict subterms* of one side of an equality already
/// merged into the union-find (e.g. `(0 < x) = false` with `x = 5`
/// elsewhere: the inner `x` must fold for the contradiction to surface).
fn rewrite_strict_subterms(env: &TypeEnv, uf: &UnionFind, e: &Expr) -> Expr {
    let substituted = match e {
        Expr::Un(op, x) => Expr::Un(*op, uf.apply(x).into()),
        Expr::Bin(op, x, y) => Expr::Bin(*op, uf.apply(x).into(), uf.apply(y).into()),
        leaf => leaf.clone(),
    };
    simplify(env, &substituted)
}

/// One closure round over the atoms of one kind: rewrites each through
/// `rule`, keeping kept atoms in place and queueing reshaped ones for
/// re-classification. Returns `false` on a refutation.
fn rewrite_atoms<T>(
    items: &mut Vec<T>,
    requeue: &mut Vec<Expr>,
    rule: impl Fn(&T) -> Rewrite<T>,
) -> bool {
    for item in std::mem::take(items) {
        match rule(&item) {
            Rewrite::Kept(t) => items.push(t),
            Rewrite::Dropped => {}
            Rewrite::Refuted => return false,
            Rewrite::Requeue(e) => requeue.push(e),
        }
    }
    true
}

/// Rewrites a delta's atoms of one kind for an incremental extension,
/// pushing the kept ones onto `out`. `Err` carries the extension's answer:
/// `Unsat` on a refutation, `None` (fall back) when an atom changed shape.
fn extend_atoms<T>(
    items: &[T],
    out: &mut Vec<T>,
    rule: impl Fn(&T) -> Rewrite<T>,
) -> Result<(), Option<SatResult>> {
    for item in items {
        match rule(item) {
            Rewrite::Kept(t) => out.push(t),
            Rewrite::Dropped => {}
            Rewrite::Refuted => return Err(Some(SatResult::Unsat)),
            Rewrite::Requeue(_) => return Err(None),
        }
    }
    Ok(())
}

/// Carries a frozen residual's atoms of one kind into an equality
/// extension. When `touched` accepts none of them, the frozen segments are
/// shared whole. Otherwise the atoms are copied in order, those `touched`
/// accepts rewritten through `rule` and also pushed onto `rewritten`.
/// `Err` as for [`extend_atoms`], except that a dropped atom also falls
/// back. Returns the carried atoms and whether any was rewritten.
fn carry_residual<T: Clone>(
    items: &PVec<T>,
    rewritten: &mut Vec<T>,
    touched: impl Fn(&T) -> bool,
    rule: impl Fn(&T) -> Rewrite<T>,
) -> Result<(PVec<T>, bool), Option<SatResult>> {
    let Some(first) = items.iter().position(&touched) else {
        return Ok((items.clone(), false));
    };
    let mut out: Vec<T> = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if i < first || (i > first && !touched(item)) {
            out.push(item.clone());
            continue;
        }
        match rule(item) {
            Rewrite::Kept(t) => {
                rewritten.push(t.clone());
                out.push(t);
            }
            Rewrite::Refuted => return Err(Some(SatResult::Unsat)),
            Rewrite::Dropped | Rewrite::Requeue(_) => return Err(None),
        }
    }
    Ok((out.into(), true))
}

/// The incremental fast path: when the delta contains only ordering and
/// disequality atoms (no equalities, disjunctions, or boolean atoms), the
/// equality classes cannot change, so the delta atoms are rewritten once
/// through the frozen union-find and asserted into clones of the interval
/// domains (which share the frozen ones). Returns `None` whenever anything
/// would require re-running closure — a structural escape under
/// rewriting, a newly pinned singleton interval, a newly enabled mask
/// identity — so the verdict stays identical to a monolithic solve.
fn fast_extend(
    seed: &CapturedState,
    env: &TypeEnv,
    fresh: Atoms,
    capture: &mut Option<CapturedState>,
) -> Option<SatResult> {
    // One rewrite round is the fixpoint here: with no new equalities the
    // union-find is exactly the frozen one, so a second round would see
    // unchanged representatives.
    let uf = &seed.uf;
    let mut added = Atoms::default();
    let rewritten = extend_atoms(&fresh.neqs, &mut added.neqs, |p| rewrite_neq(env, uf, p))
        .and_then(|()| {
            extend_atoms(&fresh.int_cmps, &mut added.int_cmps, |c| {
                rewrite_int_cmp(env, uf, c)
            })
        })
        .and_then(|()| {
            extend_atoms(&fresh.num_cmps, &mut added.num_cmps, |c| {
                rewrite_num_cmp(env, uf, c)
            })
        });
    if let Err(answer) = rewritten {
        return answer;
    }

    let mut ints = seed.ints.clone();
    let mut nums = seed.nums.clone();
    for (a, b, strict) in &added.int_cmps {
        if !ints.assert_cmp(a, b, *strict) {
            return Some(SatResult::Unsat);
        }
    }
    // Re-assert *all* disequalities, not just the delta's: a prefix
    // disequality that sat strictly inside its term's old interval may
    // now lie on an endpoint the delta narrowed to — exactly when the
    // monolithic solve (which asserts them after all comparisons) would
    // narrow further.
    if !assert_int_neqs(&mut ints, seed.atoms.neqs.iter().chain(&added.neqs)) {
        return Some(SatResult::Unsat);
    }
    for (t, x, left, strict) in &added.num_cmps {
        if !nums.assert_cmp_const(t, *x, *left, *strict) {
            return Some(SatResult::Unsat);
        }
    }
    if !ints.consistent() {
        return Some(SatResult::Unsat);
    }

    let mut sites = seed.mask_sites.clone();
    collect_mask_sites(&atoms_to_exprs(&added, 0), &mut sites);
    if would_learn(&ints, uf, &sites) {
        return None;
    }

    let mut atoms = seed.atoms.clone();
    atoms.neqs.extend(added.neqs);
    atoms.int_cmps.extend(added.int_cmps);
    atoms.num_cmps.extend(added.num_cmps);
    *capture = Some(CapturedState {
        env: seed.env.clone(),
        uf: seed.uf.clone(),
        atoms,
        ints,
        nums,
        mask_sites: sites,
    });
    Some(SatResult::Sat)
}

/// The equality extension: a delta with equalities (and no disjunctions
/// or `Num` comparisons) is merged into a clone of the frozen union-find,
/// and only the residual atoms that mention a *moved* representative — a
/// class root that the merge put under another root or a literal — are
/// rewritten, by the closure loop's own rule. This is the first closure
/// round of the seeded full check, which then converges; the frozen
/// interval domain is extended in place unless a rewritten comparison or
/// a class newly pinned to an `Int` literal changes what the domain is
/// built from, in which case it is rebuilt exactly as the full check
/// builds it.
///
/// Returns `None`, and the seeded full check runs, whenever a second
/// closure round or the learning rules could change the outcome: a
/// rewrite changes an atom's shape or drops it, touches a `Num`
/// comparison or a strict subterm of a merged equality, or a singleton
/// interval or mask identity becomes learnable.
fn extend_by_equalities(
    seed: &CapturedState,
    env: &TypeEnv,
    fresh: Atoms,
    capture: &mut Option<CapturedState>,
) -> Option<SatResult> {
    if !fresh.num_cmps.is_empty() {
        return None;
    }
    let frozen = &seed.uf;
    let mut uf = frozen.clone();
    for (a, b) in &fresh.eqs {
        if !uf.union(a, b) {
            return Some(SatResult::Unsat);
        }
    }
    // Residual atoms were rewritten through the frozen union-find, so the
    // only subterms whose representative the merge changes are the old
    // representatives of the merged classes.
    let mut moved: Vec<Expr> = Vec::new();
    for side in fresh.eqs.iter().flat_map(|(a, b)| [a, b]) {
        let r = frozen.repr(side);
        if !matches!(r, Expr::Val(_)) && uf.repr(&r) != r && !moved.contains(&r) {
            moved.push(r);
        }
    }
    let mentions = |e: &Expr| {
        let mut hit = false;
        if !moved.is_empty() {
            e.visit(&mut |sub| hit = hit || moved.contains(sub));
        }
        hit
    };
    let mentions_strictly = |e: &Expr| match e {
        Expr::Un(_, x) => mentions(x),
        Expr::Bin(_, x, y) => mentions(x) || mentions(y),
        _ => false,
    };
    // An atom is rewritten as one node `a ⋈ b`, which can itself be a
    // moved representative: `¬(a < b)` merges `a < b` with `false`.
    let moved_node = |side: &dyn Fn(&Expr, &Expr) -> bool| {
        moved
            .iter()
            .any(|m| matches!(m, Expr::Bin(_, x, y) if side(x, y)))
    };
    let touches =
        |a: &Expr, b: &Expr| mentions(a) || mentions(b) || moved_node(&|x, y| x == a && y == b);
    if seed
        .atoms
        .num_cmps
        .iter()
        .any(|(t, ..)| mentions(t) || moved_node(&|x, y| x == t || y == t))
        || seed
            .atoms
            .uf_eqs
            .iter()
            .any(|(a, b)| mentions_strictly(a) || mentions_strictly(b))
        || fresh.eqs.iter().any(|(a, b)| {
            rewrite_strict_subterms(env, &uf, a) != *a || rewrite_strict_subterms(env, &uf, b) != *b
        })
    {
        return None;
    }

    // Everything the extended residual gains, for the mask-site scan.
    let mut added = Atoms::default();
    let carried = carry_residual(
        &seed.atoms.neqs,
        &mut added.neqs,
        |(a, b)| touches(a, b),
        |p| rewrite_neq(env, &uf, p),
    )
    .and_then(|(neqs, _)| {
        let (int_cmps, rewrote_cmps) = carry_residual(
            &seed.atoms.int_cmps,
            &mut added.int_cmps,
            |(a, b, _)| touches(a, b),
            |c| rewrite_int_cmp(env, &uf, c),
        )?;
        Ok((neqs, int_cmps, rewrote_cmps))
    });
    let (neqs, int_cmps, rewrote_cmps) = match carried {
        Ok(carried) => carried,
        Err(answer) => return answer,
    };
    let mut atoms = Residual {
        neqs,
        int_cmps,
        num_cmps: seed.atoms.num_cmps.clone(),
        uf_eqs: seed.atoms.uf_eqs.clone(),
    };
    let mut delta = Atoms::default();
    let rewritten = extend_atoms(&fresh.neqs, &mut delta.neqs, |p| rewrite_neq(env, &uf, p))
        .and_then(|()| {
            extend_atoms(&fresh.int_cmps, &mut delta.int_cmps, |c| {
                rewrite_int_cmp(env, &uf, c)
            })
        });
    if let Err(answer) = rewritten {
        return answer;
    }
    atoms.neqs.extend(delta.neqs.iter().cloned());
    atoms.int_cmps.extend(delta.int_cmps.iter().cloned());
    atoms.uf_eqs.extend(fresh.eqs.iter().cloned());

    // A class newly pinned to an `Int` literal adds literal bindings,
    // which the full check asserts between comparisons and disequalities.
    let pinned = moved
        .iter()
        .any(|r| matches!(uf.value_of(r), Some(Value::Int(_))));
    let (ints, nums) = if rewrote_cmps || pinned {
        match propagate_intervals(&atoms.int_cmps, &atoms.neqs, &atoms.num_cmps, &uf) {
            Some(domains) => domains,
            None => return Some(SatResult::Unsat),
        }
    } else {
        let mut ints = seed.ints.clone();
        for (a, b, strict) in &delta.int_cmps {
            if !ints.assert_cmp(a, b, *strict) {
                return Some(SatResult::Unsat);
            }
        }
        // As in the fast path, every disequality is re-asserted.
        if !assert_int_neqs(&mut ints, &atoms.neqs) || !ints.consistent() {
            return Some(SatResult::Unsat);
        }
        (ints, seed.nums.clone())
    };

    added.neqs.extend(delta.neqs);
    added.int_cmps.extend(delta.int_cmps);
    added.uf_eqs = fresh.eqs;
    let mut sites = seed.mask_sites.clone();
    collect_mask_sites(&atoms_to_exprs(&added, 0), &mut sites);
    if would_learn(&ints, &uf, &sites) {
        return None;
    }
    *capture = Some(CapturedState {
        env: seed.env.clone(),
        uf,
        atoms,
        ints,
        nums,
        mask_sites: sites,
    });
    Some(SatResult::Sat)
}

/// True when some delta equality `a = b` rewrites, through the frozen
/// union-find, onto a residual disequality `a' ≠ b'`: merging the two
/// sides closes `r ≠ r`, which is what the general path would derive
/// after re-solving the whole residual.
fn refutes_residual_neq(seed: &CapturedState, env: &TypeEnv, eqs: &[(Expr, Expr)]) -> bool {
    eqs.iter().any(|(a, b)| {
        let a = rewrite(env, &seed.uf, a);
        let b = rewrite(env, &seed.uf, b);
        seed.atoms
            .neqs
            .iter()
            .any(|(x, y)| (*x == a && *y == b) || (*x == b && *y == a))
    })
}

/// Learning parity for the incremental extensions: the frozen solve
/// ended with nothing left to learn, so only what an extension narrowed
/// or merged can newly trigger the singleton or mask-identity rule — and
/// either trigger needs a full closure re-run.
fn would_learn(ints: &IntDomain, uf: &UnionFind, sites: &PVec<MaskSite>) -> bool {
    ints.narrowed_terms()
        .any(|(t, itv)| itv.lo == itv.hi && uf.value_of(t) != Some(Value::Int(itv.lo)))
        || sites.iter().any(|(sub, x, mask)| {
            let itv = ints.query(x);
            itv.lo >= 0 && itv.hi <= *mask && !uf.same_class(sub, x)
        })
}

/// Builds the interval domains of a closed atom set in the checker's one
/// assertion order — comparisons, literal classes, disequalities with a
/// literal side, `Num` bounds — then revalidates stored intervals against
/// structural bounds that tightened after they were asserted. `None` on a
/// contradiction.
fn propagate_intervals<'a>(
    int_cmps: impl IntoIterator<Item = &'a (Expr, Expr, bool)>,
    neqs: impl IntoIterator<Item = &'a (Expr, Expr)>,
    num_cmps: impl IntoIterator<Item = &'a NumCmp>,
    uf: &UnionFind,
) -> Option<(IntDomain, NumDomain)> {
    let mut ints = IntDomain::new();
    for (a, b, strict) in int_cmps {
        if !ints.assert_cmp(a, b, *strict) {
            return None;
        }
    }
    for (t, v) in uf.literal_bindings() {
        if let Value::Int(n) = v {
            if !ints.assert_eq_const(&t, n) {
                return None;
            }
        }
    }
    if !assert_int_neqs(&mut ints, neqs) {
        return None;
    }
    let mut nums = NumDomain::new();
    for (t, x, left, strict) in num_cmps {
        if !nums.assert_cmp_const(t, *x, *left, *strict) {
            return None;
        }
    }
    ints.consistent().then_some((ints, nums))
}

/// Asserts every disequality with an integer literal side into `ints`
/// (it narrows an interval only at an endpoint). `false` on a
/// contradiction.
fn assert_int_neqs<'a>(
    ints: &mut IntDomain,
    neqs: impl IntoIterator<Item = &'a (Expr, Expr)>,
) -> bool {
    neqs.into_iter()
        .all(|(a, b)| match (a.as_int(), b.as_int()) {
            (Some(n), None) => ints.assert_ne_const(b, n),
            (None, Some(n)) => ints.assert_ne_const(a, n),
            _ => true,
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
        let mut requeue: Vec<Expr> = Vec::new();
        if !rewrite_atoms(&mut atoms.neqs, &mut requeue, |p| rewrite_neq(env, &uf, p))
            || !rewrite_atoms(&mut atoms.int_cmps, &mut requeue, |c| {
                rewrite_int_cmp(env, &uf, c)
            })
            || !rewrite_atoms(&mut atoms.num_cmps, &mut requeue, |c| {
                rewrite_num_cmp(env, &uf, c)
            })
        {
            return SatResult::Unsat;
        }
        for (a, b) in atoms.uf_eqs.clone() {
            if !rewritten_uf_eqs.insert((a.clone(), b.clone())) {
                continue;
            }
            let a2 = rewrite_strict_subterms(env, &uf, &a);
            let b2 = rewrite_strict_subterms(env, &uf, &b);
            if a2 != a || b2 != b {
                let e = simplify(env, &a2.eq(b2));
                match e.as_bool() {
                    Some(true) => {}
                    Some(false) => return SatResult::Unsat,
                    None => requeue.push(e),
                }
            }
        }
        let changed = !requeue.is_empty();
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
    let Some((ints, nums)) =
        propagate_intervals(&atoms.int_cmps, &atoms.neqs, &atoms.num_cmps, &uf)
    else {
        return SatResult::Unsat;
    };

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
            let mut mask_sites = PVec::new();
            collect_mask_sites(&atoms_to_exprs(&atoms, 0), &mut mask_sites);
            *slot = Some(CapturedState {
                env: Arc::new(env.clone()),
                uf,
                atoms: Residual::freeze(atoms),
                ints,
                nums,
                mask_sites,
            });
        }
    }
    SatResult::Sat
}

/// Re-serialises atoms into expressions (skipping the first `skip_ors`
/// disjunctions, which the caller is splitting on).
fn atoms_to_exprs(atoms: &Atoms, skip_ors: usize) -> Vec<Expr> {
    serialize(
        atoms.eqs.iter().chain(&atoms.uf_eqs),
        &atoms.neqs,
        &atoms.int_cmps,
        &atoms.num_cmps,
        atoms.ors.iter().skip(skip_ors),
    )
}

/// Serialises atoms kind by kind: equalities, disequalities, `Int` and
/// `Num` comparisons, disjunctions.
fn serialize<'a>(
    eqs: impl IntoIterator<Item = &'a (Expr, Expr)>,
    neqs: impl IntoIterator<Item = &'a (Expr, Expr)>,
    int_cmps: impl IntoIterator<Item = &'a (Expr, Expr, bool)>,
    num_cmps: impl IntoIterator<Item = &'a NumCmp>,
    ors: impl IntoIterator<Item = &'a (Expr, Expr)>,
) -> Vec<Expr> {
    let mut out = Vec::new();
    for (a, b) in eqs {
        out.push(a.clone().eq(b.clone()));
    }
    for (a, b) in neqs {
        out.push(a.clone().ne(b.clone()));
    }
    for (a, b, strict) in int_cmps {
        out.push(cmp_expr(a, b, *strict));
    }
    for cmp in num_cmps {
        out.push(num_cmp_expr(cmp));
    }
    for (a, b) in ors {
        out.push(a.clone().or(b.clone()));
    }
    out
}

/// `a < b` when `strict`, else `a ≤ b`.
fn cmp_expr(a: &Expr, b: &Expr, strict: bool) -> Expr {
    let op = if strict { BinOp::Lt } else { BinOp::Leq };
    a.clone().bin(op, b.clone())
}

fn num_cmp_expr((t, x, left, strict): &NumCmp) -> Expr {
    if *left {
        cmp_expr(t, &Expr::num(*x), *strict)
    } else {
        cmp_expr(&Expr::num(*x), t, *strict)
    }
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
            let Some((extended, _)) = check_extension(&seed, &delta, budget, &mut None) else {
                return Ok(());
            };
            let env = &*seed.env;
            let simplified: Vec<Expr> = delta.iter().map(|c| simplify(env, c)).collect();
            let mut exprs = seed.atoms.to_exprs();
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

#[cfg(test)]
mod equality_extension_tests {
    use super::*;
    use gillian_gil::LVar;
    use proptest::prelude::*;

    fn v(i: u8) -> Expr {
        Expr::lvar(LVar(u64::from(i % 4)))
    }

    /// The literal `c`, an `Int` or a `Num`.
    fn lit(num: bool, c: i64) -> Expr {
        if num {
            Expr::num(c as f64)
        } else {
            Expr::int(c)
        }
    }

    /// `x_i + c`, or `x_i` when `c` is 0.
    fn off(num: bool, i: u8, c: i64) -> Expr {
        if c == 0 {
            v(i)
        } else {
            v(i).add(lit(num, c))
        }
    }

    /// `(kind, i, c, j, d)`: one atom over `x0..x3`.
    type Spec = (u8, u8, i64, u8, i64);

    fn spec() -> impl Strategy<Value = Spec> {
        (0u8..7, 0u8..4, -3i64..4, 0u8..4, -3i64..4)
    }

    /// A prefix atom: an offset equality or disequality, a literal pin or
    /// its negation, an offset comparison or a literal bound.
    fn atom(num: bool, (kind, i, c, j, d): Spec) -> Expr {
        match kind {
            0 => off(num, i, c).eq(off(num, j, d)),
            1 => off(num, i, c).ne(off(num, j, d)),
            2 => v(i).eq(lit(num, c)),
            3 => v(i).ne(lit(num, c)),
            4 => off(num, i, c).lt(off(num, j, d)),
            5 => v(i).le(lit(num, c)),
            _ => lit(num, c).le(v(i)),
        }
    }

    /// An equality delta: an offset equality (the then-arm of a
    /// membership guard), a literal pin, a variable equality, or a
    /// negated comparison (over `Num`, which the simplifier cannot flip
    /// because of NaN, it merges the comparison with `false`).
    fn equality(num: bool, (kind, i, c, j, d): Spec) -> Expr {
        match kind % 4 {
            0 => off(num, i, c).eq(off(num, j, d)),
            1 => v(i).eq(lit(num, c)),
            2 => v(i).eq(v(j)),
            _ => off(num, i, c).lt(off(num, j, d)).not(),
        }
    }

    /// The four variables typed `Int` (or `Num`), then `atoms`, in the
    /// structural order the solver sorts a condition into.
    fn condition(num: bool, atoms: impl IntoIterator<Item = Expr>) -> Vec<Expr> {
        let ty = if num { TypeTag::Num } else { TypeTag::Int };
        let mut out: Vec<Expr> = (0..4)
            .map(|i| v(i).type_of().eq(Expr::type_tag(ty)))
            .collect();
        out.extend(atoms);
        out.sort_unstable();
        out
    }

    fn solve(conjuncts: &[Expr]) -> Option<CapturedState> {
        let mut capture = None;
        check_conjunction_capturing(conjuncts, SatBudget::default(), &mut capture);
        capture
    }

    /// The equality extension's answer for `delta`, or `None` when it
    /// does not apply or falls back.
    fn extend(
        seed: &CapturedState,
        delta: &Expr,
        capture: &mut Option<CapturedState>,
    ) -> Option<(SatResult, TypeEnv, Vec<Expr>)> {
        let (env, simplified) = delta_conjuncts(seed, std::slice::from_ref(delta)).ok()?;
        let mut fresh = Atoms::default();
        let classified = simplified
            .iter()
            .all(|c| classify(&env, c.clone(), &mut fresh));
        if !classified || fresh.eqs.is_empty() || !fresh.ors.is_empty() {
            return None;
        }
        let verdict = extend_by_equalities(seed, &env, fresh, capture)?;
        Some((verdict, env, simplified))
    }

    #[test]
    fn offset_guards_extend_the_frozen_state() {
        // Three distinct elements, then the then-arm of a membership
        // guard `x0 + 3 = x1 + -2`, then one more comparison.
        let off = |i, c| off(false, i, c);
        let prefix = condition(
            false,
            [
                off(0, 3).ne(off(1, -2)),
                off(0, 3).ne(off(2, 1)),
                off(1, -2).ne(off(2, 1)),
                off(0, 3).lt(off(2, 1)),
            ],
        );
        let seed = solve(&prefix).expect("the prefix solves cleanly");
        let mut next = None;
        let guard = off(0, 3).eq(off(2, 1)).not();
        let (verdict, ..) = extend(&seed, &off(1, 2).eq(v(2)), &mut next)
            .expect("an offset equality takes the equality extension");
        assert_eq!(verdict, SatResult::Sat);
        let next = next.expect("a Sat extension freezes its state");
        // The merged state refutes the else-arm of the same guard.
        let closed = off(1, 2).ne(v(2));
        assert_eq!(
            check_extension(&next, &[closed], SatBudget::default(), &mut None),
            Some((SatResult::Unsat, Extension::Fast))
        );
        assert_eq!(
            check_extension(&next, &[guard], SatBudget::default(), &mut None)
                .map(|(verdict, _)| verdict),
            Some(SatResult::Sat)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// An equality delta on a random solved prefix: the equality
        /// extension and the seeded full check, each from its own fresh
        /// solve of the prefix, give the same verdict, and their frozen
        /// states give the same verdict on one more delta.
        #[test]
        fn equality_extension_matches_the_seeded_full_check(
            num in any::<bool>(),
            prefix in proptest::collection::vec(spec(), 1..8),
            first in spec(),
            second in spec(),
            pick in 0usize..8,
        ) {
            // Half the negated comparisons negate one of the prefix's own,
            // so that the merged node is a residual atom.
            let cmps: Vec<Expr> = prefix
                .iter()
                .filter(|s| s.0 == 4)
                .map(|s| atom(num, *s))
                .collect();
            let delta = match cmps.get(pick) {
                Some(cmp) if first.0 % 4 == 3 => cmp.clone().not(),
                _ => equality(num, first),
            };
            let conjuncts = condition(num, prefix.into_iter().map(|s| atom(num, s)));
            let (Some(ours), Some(theirs)) = (solve(&conjuncts), solve(&conjuncts)) else {
                return Ok(());
            };
            let budget = SatBudget::default();
            let (mut ours_next, mut theirs_next) = (None, None);
            let Some((extended, env, simplified)) = extend(&ours, &delta, &mut ours_next) else {
                return Ok(());
            };
            let full = seeded_full(&theirs, &env, simplified, budget, &mut theirs_next);
            prop_assert_eq!(extended, full, "on {:?} extended by {}", conjuncts, delta);
            let (Some(ours_next), Some(theirs_next)) = (ours_next, theirs_next) else {
                return Ok(());
            };
            let more = [atom(num, second)];
            let ours2 = check_extension(&ours_next, &more, budget, &mut None).map(|(v, _)| v);
            let theirs2 = check_extension(&theirs_next, &more, budget, &mut None).map(|(v, _)| v);
            prop_assert_eq!(
                ours2, theirs2,
                "on {:?} extended by {} then {}", conjuncts, delta, more[0]
            );
        }
    }
}

#[cfg(test)]
mod shared_state_tests {
    use super::*;
    use gillian_gil::LVar;
    use proptest::prelude::*;

    /// Variables per condition: enough that a chain narrows and merges
    /// more terms than an overlay holds.
    const VARS: u64 = 12;

    fn v(i: u8) -> Expr {
        Expr::lvar(LVar(u64::from(i) % VARS))
    }

    /// `x_i + c`, or `x_i` when `c` is 0.
    fn off(i: u8, c: i64) -> Expr {
        if c == 0 {
            v(i)
        } else {
            v(i).add(Expr::int(c))
        }
    }

    /// `(kind, i, c, j, d)`: one delta conjunct over `x0..x11`.
    type Step = (u8, u8, i64, u8, i64);

    fn step() -> impl Strategy<Value = Step> {
        (0u8..12, 0u8..12, -3i64..4, 0u8..12, -3i64..4)
    }

    /// Kinds 0–8 take the fast path (orderings, bounds, disequalities),
    /// 9–11 the equality extension (offset equalities, pins, variable
    /// equalities).
    fn conjunct((kind, i, c, j, d): Step) -> Expr {
        match kind {
            0 | 1 => off(i, c).lt(off(j, d)),
            2 | 3 => v(i).le(Expr::int(40 + c)),
            4 | 5 => Expr::int(-40 + d).le(v(i)),
            6 | 7 => off(i, c).ne(off(j, d)),
            8 => v(i).ne(Expr::int(c)),
            9 => off(i, c).eq(off(j, d)),
            10 => v(i).eq(Expr::int(c * 5)),
            _ => v(i).eq(v(j)),
        }
    }

    /// A copy of `state` that shares nothing: the copying representation
    /// that frozen states had before they were persistent.
    fn unshared(state: &CapturedState) -> CapturedState {
        let atoms = &state.atoms;
        CapturedState {
            env: Arc::new((*state.env).clone()),
            uf: state.uf.unshared(),
            atoms: Residual {
                neqs: atoms.neqs.unshared(),
                int_cmps: atoms.int_cmps.unshared(),
                num_cmps: atoms.num_cmps.unshared(),
                uf_eqs: atoms.uf_eqs.unshared(),
            },
            ints: state.ints.unshared(),
            nums: state.nums.unshared(),
            mask_sites: state.mask_sites.unshared(),
        }
    }

    /// The residual's serialization, the narrowed intervals and the
    /// literal classes of a frozen state.
    type Observed = (Vec<Expr>, Vec<(Expr, i64, i64)>, Vec<(Expr, Value)>);

    /// Everything an extension's answer can depend on, in iteration order.
    fn observe(state: &CapturedState) -> Observed {
        (
            state.atoms.to_exprs(),
            state
                .ints
                .narrowed_terms()
                .map(|(e, i)| (e.clone(), i.lo, i.hi))
                .collect(),
            state.uf.literal_bindings(),
        )
    }

    /// The deepest segment chain and fullest overlay a chain reached, and
    /// the number of chains, over every case.
    static DEEPEST: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    static FULLEST: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One frozen state extended through a chain of mixed fast and
        /// equality deltas, each step from the state the last `Sat` step
        /// froze: at every step the extension answers as the same
        /// extension of an unshared copy of the seed (the copying
        /// representation), with the same layer, and freezes a state that
        /// reads the same, down to the residual's serialization order, the
        /// interval map's key order and the literal classes.
        ///
        /// The seeded full check from the same seed is not an oracle here:
        /// on chains this long a frozen state need not be closed, so the
        /// fast path and the equality extension answer `Sat` on some steps
        /// where re-solving the residual refutes it (ROADMAP item 2).
        #[test]
        fn shared_state_chains_match_the_copying_representation(
            prefix in proptest::collection::vec(step(), 0..4),
            steps in proptest::collection::vec(proptest::collection::vec(step(), 1..3), 40..80),
        ) {
            let int = |i: u8| v(i).type_of().eq(Expr::type_tag(TypeTag::Int));
            let mut conjuncts: Vec<Expr> = (0..VARS as u8).map(int).collect();
            conjuncts.extend(prefix.into_iter().map(conjunct));
            conjuncts.sort_unstable();
            let budget = SatBudget::default();
            let mut capture = None;
            check_conjunction_capturing(&conjuncts, budget, &mut capture);
            let Some(mut state) = capture else {
                return Ok(());
            };
            for delta in steps {
                let delta: Vec<Expr> = delta.into_iter().map(conjunct).collect();
                let flat = unshared(&state);
                let (mut next, mut flat_next) = (None, None);
                let ours = check_extension(&state, &delta, budget, &mut next);
                let copying = check_extension(&flat, &delta, budget, &mut flat_next);
                prop_assert_eq!(ours, copying, "on {:?} then {:?}", state.atoms.to_exprs(), delta);
                match (next, flat_next) {
                    (Some(next), Some(flat_next)) => {
                        prop_assert_eq!(observe(&next), observe(&flat_next));
                        let (overlay, edges) = next.ints.sharing();
                        let atoms = &next.atoms;
                        let segments = [
                            atoms.neqs.segments(),
                            atoms.int_cmps.segments(),
                            atoms.uf_eqs.segments(),
                            edges,
                        ]
                        .into_iter()
                        .max()
                        .unwrap_or(0);
                        DEEPEST.fetch_max(segments, std::sync::atomic::Ordering::Relaxed);
                        FULLEST.fetch_max(overlay, std::sync::atomic::Ordering::Relaxed);
                        state = next;
                    }
                    (next, flat_next) => prop_assert_eq!(next.is_some(), flat_next.is_some()),
                }
            }
        }
    }

    #[test]
    fn chains_cross_every_compaction_threshold() {
        shared_state_chains_match_the_copying_representation();
        let deepest = DEEPEST.load(std::sync::atomic::Ordering::Relaxed);
        let fullest = FULLEST.load(std::sync::atomic::Ordering::Relaxed);
        assert!(deepest >= 16, "segment chains reached only {deepest}");
        assert!(fullest >= 8, "interval overlays reached only {fullest}");
    }
}
