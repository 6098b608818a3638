//! Bounded, self-verifying model finding.
//!
//! Produces an assignment `ε : X̂ → V` (a *logical environment*, paper §3.2)
//! satisfying a conjunction of boolean expressions. The search is a bounded
//! backtracking enumeration over per-variable candidate values harvested
//! from the constraints themselves (equality classes, interval endpoints,
//! literals occurring in the formula, type defaults).
//!
//! Every returned model is **verified**: all conjuncts are concretely
//! evaluated under the assignment through the interpreter's own operator
//! semantics. The engine relies on this to guarantee that reported bugs are
//! true positives; a `None` from [`find_model`] never means "unsat", only
//! "not found within budget".

use crate::intervals::{IntDomain, NumDomain};
use crate::simplify::simplify;
use crate::typing::{absorb_type_fact, infer, TypeEnv};
use crate::uf::UnionFind;
use gillian_gil::eval::eval_closed;
use gillian_gil::ops::{eval_binop, eval_lstcat, eval_strcat, eval_unop};
use gillian_gil::{BinOp, EvalError, Expr, LVar, Sym, TypeTag, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A logical environment: a concrete value for each logical variable.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    assignment: BTreeMap<LVar, Value>,
}

impl Model {
    /// Creates a model from an explicit assignment.
    pub fn from_assignment(assignment: BTreeMap<LVar, Value>) -> Self {
        Model { assignment }
    }

    /// Looks up the value of a logical variable.
    pub fn get(&self, x: LVar) -> Option<&Value> {
        self.assignment.get(&x)
    }

    /// Iterates over the assignment in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&LVar, &Value)> {
        self.assignment.iter()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True when no variables are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Evaluates `e` concretely, reading logical variables from the
    /// assignment. Builds no terms: the result, error text included, is
    /// that of evaluating `e` with the assignment substituted in.
    ///
    /// # Errors
    ///
    /// Fails when `e` mentions an unassigned or program variable, or an
    /// operator is applied outside its domain.
    pub fn eval(&self, e: &Expr) -> Result<Value, EvalError> {
        eval_in(&self.assignment, e)
    }

    /// Checks that every conjunct evaluates to `true` under the model.
    pub fn satisfies(&self, conjuncts: &[Expr]) -> bool {
        conjuncts.iter().all(|c| holds(&self.assignment, c))
    }
}

/// Concrete evaluation with logical variables read from `assignment`, in
/// the operand order of [`gillian_gil::eval::eval`]. Variables it cannot
/// read fall through to that evaluator, so their errors are its errors.
fn eval_in(assignment: &BTreeMap<LVar, Value>, e: &Expr) -> Result<Value, EvalError> {
    let all = |es: &[Expr]| -> Result<Vec<Value>, EvalError> {
        es.iter().map(|e| eval_in(assignment, e)).collect()
    };
    match e {
        Expr::Val(v) => Ok(v.clone()),
        Expr::LVar(x) => match assignment.get(x) {
            Some(v) => Ok(v.clone()),
            None => eval_closed(e),
        },
        Expr::PVar(_) => eval_closed(e),
        Expr::Un(op, a) => eval_unop(*op, &eval_in(assignment, a)?),
        Expr::Bin(op, a, b) => eval_binop(*op, &eval_in(assignment, a)?, &eval_in(assignment, b)?),
        Expr::List(es) => all(es).map(Value::List),
        Expr::StrCat(es) => eval_strcat(&all(es)?),
        Expr::LstCat(es) => eval_lstcat(&all(es)?),
    }
}

/// True when `c` evaluates to `true` under `assignment`.
fn holds(assignment: &BTreeMap<LVar, Value>, c: &Expr) -> bool {
    matches!(eval_in(assignment, c), Ok(Value::Bool(true)))
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (x, v)) in self.assignment.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x} ↦ {v}")?;
        }
        write!(f, "}}")
    }
}

/// Limits for the model search.
#[derive(Clone, Copy, Debug)]
pub struct ModelBudget {
    /// Maximum search-tree nodes visited.
    pub max_nodes: usize,
    /// Maximum candidate values tried per variable.
    pub candidates_per_var: usize,
}

impl Default for ModelBudget {
    fn default() -> Self {
        ModelBudget {
            max_nodes: 50_000,
            candidates_per_var: 16,
        }
    }
}

/// Work done by one model search, for `SolverStats` and telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SearchWork {
    /// Search-tree nodes visited, over every tier run.
    pub(crate) nodes: u64,
    /// Budget tiers not run because an earlier tier exhausted the
    /// search space.
    pub(crate) tiers_skipped: u64,
}

/// Attempts to find a verified model of the conjunction.
pub fn find_model(conjuncts: &[Expr], budget: ModelBudget) -> Option<Model> {
    find_model_tiers(conjuncts, &[budget], &mut SearchWork::default()).map(|(m, _)| m)
}

/// Finds a model under escalating budgets: the given budget first, then
/// two progressively larger searches (8×/64× nodes, 4×/8× more
/// candidates per variable).
///
/// The differential oracle uses this to make witness extraction *total
/// modulo budget*: a path condition the configured search cannot crack
/// gets genuinely deeper searches before the path is (reported as)
/// skipped. `None` still never means "unsat", only "not found within the
/// largest budget". The answer is always that of running [`find_model`]
/// at each budget in turn; tiers that provably cannot change it are
/// skipped (see [`find_model_tiers`]).
pub fn find_model_escalating(conjuncts: &[Expr], budget: ModelBudget) -> Option<Model> {
    find_model_tiers(
        conjuncts,
        &escalation_tiers(budget),
        &mut SearchWork::default(),
    )
    .map(|(m, _)| m)
}

/// The budgets [`find_model_escalating`] tries, in order.
pub(crate) fn escalation_tiers(budget: ModelBudget) -> [ModelBudget; 3] {
    let scale = |b: ModelBudget, cands: usize| ModelBudget {
        max_nodes: b.max_nodes.saturating_mul(8),
        candidates_per_var: b.candidates_per_var.saturating_mul(cands),
    };
    let second = scale(budget, 4);
    [budget, second, scale(second, 2)]
}

/// Runs the search at each budget in `tiers` until one finds a model,
/// preparing the budget-independent part once. Returns the model with the
/// index of the tier that found it.
///
/// Stops early at the first [`Tier::Exhausted`]: every later tier would
/// search the very same tree and fail the same way, so the answer equals
/// `tiers.iter().find_map(|&b| find_model(conjuncts, b))`.
pub(crate) fn find_model_tiers(
    conjuncts: &[Expr],
    tiers: &[ModelBudget],
    work: &mut SearchWork,
) -> Option<(Model, usize)> {
    let prepared = prepare(conjuncts);
    for (i, &budget) in tiers.iter().enumerate() {
        let outcome = match &prepared {
            Ok(p) => p.run(budget, &mut work.nodes),
            Err(early) => early.clone(),
        };
        match outcome {
            Tier::Found(m) => return Some((m, i)),
            Tier::Exhausted => {
                work.tiers_skipped += (tiers.len() - 1 - i) as u64;
                return None;
            }
            Tier::OutOfBudget => {}
        }
    }
    None
}

/// How the search at one budget ended.
#[derive(Clone, Debug)]
enum Tier {
    /// A model, verified against the original conjuncts.
    Found(Model),
    /// No model at any budget: either a budget-independent early failure
    /// (type conflict, false conjunct, union-find conflict, or no
    /// variables), or a search that covered its whole tree under the node
    /// budget with no candidate list cut short — a larger budget builds
    /// identical candidate lists and so searches the identical tree.
    Exhausted,
    /// The node budget or a candidate cap cut the search, or the model it
    /// found failed the final check (longer candidate lists reorder the
    /// search, so a larger budget may still succeed).
    OutOfBudget,
}

/// The budget-independent half of a model search.
struct Prepared<'a> {
    /// The conjuncts as given, for the final verification.
    conjuncts: &'a [Expr],
    env: TypeEnv,
    ints: IntDomain,
    nums: NumDomain,
    /// Literals of the formula, by type.
    pool: BTreeMap<TypeTag, Vec<Value>>,
    /// Variables the equality classes pin to a value.
    fixed: BTreeMap<LVar, Value>,
    /// The remaining variables, in search order.
    free: Vec<LVar>,
    /// The simplified, flattened conjuncts by ready level (see
    /// [`ready_levels`]).
    ready: Vec<Vec<Expr>>,
}

/// Does the budget-independent half of the search, or returns the
/// outcome of every tier when that half already decides it.
fn prepare(conjuncts: &[Expr]) -> Result<Prepared<'_>, Tier> {
    let mut env = TypeEnv::new();
    for c in conjuncts {
        if !absorb_type_fact(&mut env, c) {
            return Err(Tier::Exhausted);
        }
    }
    crate::sat::absorb_usage_types_pub(&mut env, conjuncts);

    let mut flat: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if !flatten(&simplify(&env, c), &mut flat) {
            return Err(Tier::Exhausted);
        }
    }

    // Collect variables from the *original* conjuncts: simplification may
    // discharge a conjunct (e.g. a `typeOf` fact) whose variable must still
    // be assigned for the final verification against the originals.
    let mut vars: BTreeSet<LVar> = BTreeSet::new();
    for c in conjuncts {
        vars.extend(c.lvars());
    }
    for c in &flat {
        vars.extend(c.lvars());
    }
    if vars.is_empty() {
        // Verify against the *original* conjuncts too: simplification may
        // have discharged a conjunct whose evaluation actually errors.
        let m = Model::default();
        return Err(if m.satisfies(&flat) && m.satisfies(conjuncts) {
            Tier::Found(m)
        } else {
            Tier::Exhausted
        });
    }

    // Equality classes pin some variables outright.
    let mut uf = UnionFind::new();
    let mut ints = IntDomain::new();
    let mut nums = NumDomain::new();
    for c in &flat {
        match c {
            Expr::Bin(BinOp::Eq, a, b) if !uf.union(a, b) => {
                return Err(Tier::Exhausted);
            }
            Expr::Bin(op @ (BinOp::Lt | BinOp::Leq), a, b) => {
                let strict = *op == BinOp::Lt;
                if infer(&env, a) == Some(TypeTag::Int) || infer(&env, b) == Some(TypeTag::Int) {
                    let _ = ints.assert_cmp(a, b, strict);
                } else if let Expr::Val(Value::Num(x)) = b.as_ref() {
                    let _ = nums.assert_cmp_const(a, x.get(), true, strict);
                } else if let Expr::Val(Value::Num(x)) = a.as_ref() {
                    let _ = nums.assert_cmp_const(b, x.get(), false, strict);
                }
            }
            _ => {}
        }
    }

    let mut fixed: BTreeMap<LVar, Value> = BTreeMap::new();
    for x in &vars {
        if let Some(v) = uf.value_of(&Expr::LVar(*x)) {
            fixed.insert(*x, v);
        }
    }

    // Literal pool from the formula, by type.
    let mut pool: BTreeMap<TypeTag, Vec<Value>> = BTreeMap::new();
    for c in &flat {
        c.visit(&mut |e| {
            if let Expr::Val(v) = e {
                let t = v.type_of();
                let entry = pool.entry(t).or_default();
                if !entry.contains(v) && entry.len() < 24 {
                    entry.push(v.clone());
                    // Neighbours help satisfy strict bounds / disequalities.
                    if let Value::Int(n) = v {
                        for d in [n.saturating_sub(1), n.saturating_add(1)] {
                            let nv = Value::Int(d);
                            if !entry.contains(&nv) && entry.len() < 24 {
                                entry.push(nv);
                            }
                        }
                    }
                }
            }
        });
    }

    let free: Vec<LVar> = vars
        .iter()
        .copied()
        .filter(|x| !fixed.contains_key(x))
        .collect();
    let ready = ready_levels(flat, &free);
    Ok(Prepared {
        conjuncts,
        env,
        ints,
        nums,
        pool,
        fixed,
        free,
        ready,
    })
}

impl Prepared<'_> {
    /// Builds the candidate lists for `budget` and searches, adding the
    /// nodes visited to `nodes`.
    fn run(&self, budget: ModelBudget, nodes: &mut u64) -> Tier {
        let mut cut = false;
        let candidates: Vec<Vec<Value>> = self
            .free
            .iter()
            .map(|x| {
                candidate_values(
                    *x,
                    &self.env,
                    &self.pool,
                    &self.ints,
                    &self.nums,
                    budget.candidates_per_var,
                    &mut cut,
                )
            })
            .collect();
        let mut visited = 0usize;
        let mut assignment = self.fixed.clone();
        let found = search(
            &self.ready,
            &self.free,
            &candidates,
            0,
            &mut assignment,
            &mut visited,
            budget.max_nodes,
        );
        *nodes += visited as u64;
        if found {
            let m = Model::from_assignment(assignment);
            debug_assert!(self.ready.iter().flatten().all(|c| holds(&m.assignment, c)));
            // The flattened conjuncts came from the originals by
            // semantics-preserving rewrites, but verify against the
            // originals to be safe.
            if m.satisfies(self.conjuncts) {
                Tier::Found(m)
            } else {
                Tier::OutOfBudget
            }
        } else if visited < budget.max_nodes && !cut {
            Tier::Exhausted
        } else {
            Tier::OutOfBudget
        }
    }
}

fn flatten(e: &Expr, out: &mut Vec<Expr>) -> bool {
    match e {
        Expr::Val(Value::Bool(true)) => true,
        Expr::Val(Value::Bool(false)) => false,
        Expr::Bin(BinOp::And, a, b) => flatten(a, out) && flatten(b, out),
        other => {
            out.push(other.clone());
            true
        }
    }
}

/// Groups conjuncts by *ready level*: the 1-based position in `free` of a
/// conjunct's last free variable, or 0 when it mentions fixed variables
/// only. A conjunct at level `k` is fully assigned from search depth `k`
/// on. `free` must be sorted, and every variable of a conjunct must be
/// fixed or in `free`.
fn ready_levels(flat: Vec<Expr>, free: &[LVar]) -> Vec<Vec<Expr>> {
    let mut ready: Vec<Vec<Expr>> = vec![Vec::new(); free.len() + 1];
    for c in flat {
        let level = c
            .lvars()
            .iter()
            .filter_map(|x| free.binary_search(x).ok())
            .max()
            .map_or(0, |i| i + 1);
        ready[level].push(c);
    }
    ready
}

/// The candidate values for `x`, at most `cap` of them; sets `cut` when
/// the cap turned a distinct value away.
fn candidate_values(
    x: LVar,
    env: &TypeEnv,
    pool: &BTreeMap<TypeTag, Vec<Value>>,
    ints: &IntDomain,
    nums: &NumDomain,
    cap: usize,
    cut: &mut bool,
) -> Vec<Value> {
    let term = Expr::LVar(x);
    let mut out: Vec<Value> = Vec::new();
    let mut push = |v: Value, out: &mut Vec<Value>| {
        if !out.contains(&v) {
            if out.len() < cap {
                out.push(v);
            } else {
                *cut = true;
            }
        }
    };
    let ty = env.get(&x).copied();

    // Interval endpoints first: most likely to satisfy comparisons.
    if matches!(ty, None | Some(TypeTag::Int)) {
        let itv = ints.query(&term);
        if !itv.is_empty() && (itv.lo != i64::MIN || itv.hi != i64::MAX) {
            let lo = itv.lo.max(i64::MIN + 2);
            let hi = itv.hi.min(i64::MAX - 2);
            for v in [
                lo,
                lo.saturating_add(1),
                hi,
                hi.saturating_sub(1),
                lo.midpoint(hi),
            ] {
                if v >= itv.lo && v <= itv.hi {
                    push(Value::Int(v), &mut out);
                }
            }
        }
    }
    if matches!(ty, None | Some(TypeTag::Num)) {
        let itv = nums.query(&term);
        if !itv.is_empty() && (itv.lo.is_finite() || itv.hi.is_finite()) {
            let pick = if itv.lo.is_finite() && itv.hi.is_finite() {
                (itv.lo + itv.hi) / 2.0
            } else if itv.lo.is_finite() {
                itv.lo + 1.0
            } else {
                itv.hi - 1.0
            };
            for v in [pick, itv.lo, itv.hi, itv.lo + 0.5, itv.hi - 0.5] {
                if v.is_finite() {
                    push(Value::num(v), &mut out);
                }
            }
        }
    }

    // Literals of the right type from the formula.
    let mut add_pool = |t: TypeTag, out: &mut Vec<Value>| {
        if let Some(vs) = pool.get(&t) {
            for v in vs {
                push(v.clone(), out);
            }
        }
    };
    match ty {
        Some(t) => add_pool(t, &mut out),
        None => {
            for t in TypeTag::ALL {
                add_pool(t, &mut out);
            }
        }
    }

    // Type defaults.
    let defaults: Vec<Value> = match ty {
        Some(TypeTag::Int) => vec![0, 1, 2, -1, 3, 7]
            .into_iter()
            .map(Value::Int)
            .collect(),
        Some(TypeTag::Num) => [0.0, 1.0, 2.0, -1.0, 0.5]
            .iter()
            .map(|&v| Value::num(v))
            .collect(),
        Some(TypeTag::Str) => ["", "a", "b", "ab"].iter().map(Value::str).collect(),
        Some(TypeTag::Bool) => vec![Value::Bool(true), Value::Bool(false)],
        Some(TypeTag::Sym) => vec![Value::Sym(Sym(Sym::FIRST_FRESH + 7000 + x.0))],
        Some(TypeTag::List) => vec![Value::nil(), Value::List(vec![Value::Int(0)])],
        Some(TypeTag::Type) => vec![Value::Type(TypeTag::Int)],
        Some(TypeTag::Proc) => vec![Value::proc("f")],
        None => vec![
            Value::Int(0),
            Value::Int(1),
            Value::Bool(true),
            Value::Bool(false),
            Value::num(0.0),
            Value::str("a"),
            Value::Sym(Sym(Sym::FIRST_FRESH + 7000 + x.0)),
            Value::nil(),
        ],
    };
    for v in defaults {
        push(v, &mut out);
    }
    out
}

/// DFS over `free` in order, assigning each variable its candidates in
/// turn. A node at depth `idx` evaluates only `ready[idx]`, the conjuncts
/// its newest variable completed: a conjunct ready higher up the branch
/// was already checked there, under the same values.
fn search(
    ready: &[Vec<Expr>],
    free: &[LVar],
    candidates: &[Vec<Value>],
    idx: usize,
    assignment: &mut BTreeMap<LVar, Value>,
    nodes: &mut usize,
    max_nodes: usize,
) -> bool {
    if *nodes >= max_nodes {
        return false;
    }
    *nodes += 1;
    if !ready[idx].iter().all(|c| holds(assignment, c)) {
        return false;
    }
    if idx == free.len() {
        return true;
    }
    let x = free[idx];
    for v in &candidates[idx] {
        assignment.insert(x, v.clone());
        if search(
            ready,
            free,
            candidates,
            idx + 1,
            assignment,
            nodes,
            max_nodes,
        ) {
            return true;
        }
        assignment.remove(&x);
        if *nodes >= max_nodes {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    fn find(cs: &[Expr]) -> Option<Model> {
        find_model(cs, ModelBudget::default())
    }

    #[test]
    fn finds_model_for_equalities() {
        let m = find(&[x(0).eq(Expr::int(5)), x(1).eq(x(0))]).unwrap();
        assert_eq!(m.get(LVar(0)), Some(&Value::Int(5)));
        assert_eq!(m.get(LVar(1)), Some(&Value::Int(5)));
    }

    #[test]
    fn finds_model_for_intervals() {
        let m = find(&[
            Expr::int(10).le(x(0)),
            x(0).lt(Expr::int(12)),
            x(0).ne(Expr::int(10)),
        ])
        .unwrap();
        assert_eq!(m.get(LVar(0)), Some(&Value::Int(11)));
    }

    #[test]
    fn finds_model_with_type_constraints() {
        let m = find(&[
            x(0).type_of().eq(Expr::type_tag(TypeTag::Str)),
            x(0).ne(Expr::str("")),
        ])
        .unwrap();
        assert!(matches!(m.get(LVar(0)), Some(Value::Str(s)) if !s.is_empty()));
    }

    #[test]
    fn rejects_unsat() {
        assert!(find(&[x(0).eq(Expr::int(1)), x(0).eq(Expr::int(2))]).is_none());
        assert!(find(&[Expr::ff()]).is_none());
    }

    #[test]
    fn model_is_verified_against_errors() {
        // head(x0) = 1 with x0 a list: must pick a non-empty list or fail;
        // either way, no unverified model escapes.
        let cs = [x(0).clone().lst_head().eq(Expr::int(1))];
        if let Some(m) = find(&cs) {
            assert!(m.satisfies(&cs));
        }
    }

    #[test]
    fn num_bounds_guide_search() {
        let m = find(&[Expr::num(1.0).lt(x(0)), x(0).lt(Expr::num(2.0))]).unwrap();
        let v = m.get(LVar(0)).unwrap().as_f64().unwrap();
        assert!(v > 1.0 && v < 2.0, "got {v}");
    }

    #[test]
    fn bool_and_disjunction_models() {
        let m = find(&[x(0).clone().or(x(1).clone()), x(0).not()]).unwrap();
        assert_eq!(m.get(LVar(1)), Some(&Value::Bool(true)));
    }

    #[test]
    fn list_equality_models() {
        let m = find(&[Expr::list([x(0), Expr::int(2)])
            .eq(Expr::Val(Value::List(vec![Value::Int(1), Value::Int(2)])))])
        .unwrap();
        assert_eq!(m.get(LVar(0)), Some(&Value::Int(1)));
    }

    /// Every conjunction the tests in this module search, plus cases
    /// that exhaust or cut the search.
    fn hand_cases() -> Vec<Vec<Expr>> {
        let int = |e: Expr| e.type_of().eq(Expr::type_tag(TypeTag::Int));
        vec![
            vec![x(0).eq(Expr::int(5)), x(1).eq(x(0))],
            vec![
                Expr::int(10).le(x(0)),
                x(0).lt(Expr::int(12)),
                x(0).ne(Expr::int(10)),
            ],
            vec![
                x(0).type_of().eq(Expr::type_tag(TypeTag::Str)),
                x(0).ne(Expr::str("")),
            ],
            vec![x(0).eq(Expr::int(1)), x(0).eq(Expr::int(2))],
            vec![Expr::ff()],
            vec![x(0).lst_head().eq(Expr::int(1))],
            vec![Expr::num(1.0).lt(x(0)), x(0).lt(Expr::num(2.0))],
            vec![x(0).or(x(1)), x(0).not()],
            vec![Expr::list([x(0), Expr::int(2)])
                .eq(Expr::Val(Value::List(vec![Value::Int(1), Value::Int(2)])))],
            vec![x(0).add(Expr::int(2)).eq(Expr::int(7))],
            // Unsatisfiable over small candidate lists: exhausted.
            vec![int(x(0)), int(x(1)), x(0).lt(x(1)), x(1).lt(x(0))],
            // Needs a value outside every candidate list: cut or exhausted
            // depending on the cap.
            vec![int(x(0)), x(0).mul(Expr::int(3)).eq(Expr::int(1000))],
            vec![
                int(x(0)),
                int(x(1)),
                int(x(2)),
                x(0).add(x(1)).add(x(2)).eq(Expr::int(12345)),
            ],
            vec![Expr::pvar("p").eq(x(0))],
            vec![Expr::int(1).eq(Expr::int(1))],
        ]
    }

    #[test]
    fn escalation_matches_running_every_tier() {
        for base in [
            ModelBudget::default(),
            ModelBudget {
                max_nodes: 20,
                candidates_per_var: 2,
            },
            ModelBudget {
                max_nodes: 2_000,
                candidates_per_var: 16,
            },
        ] {
            for cs in hand_cases() {
                let reference = escalation_tiers(base)
                    .iter()
                    .find_map(|&t| find_model(&cs, t));
                assert_eq!(
                    find_model_escalating(&cs, base),
                    reference,
                    "{cs:?} at {base:?}"
                );
            }
        }
    }

    #[test]
    fn escalation_tiers_scale_nodes_and_candidates() {
        let t = escalation_tiers(ModelBudget {
            max_nodes: 10,
            candidates_per_var: 3,
        });
        let pairs: Vec<(usize, usize)> = t
            .iter()
            .map(|b| (b.max_nodes, b.candidates_per_var))
            .collect();
        assert_eq!(pairs, [(10, 3), (80, 12), (640, 24)]);
    }

    #[test]
    fn exhausted_search_skips_the_remaining_tiers() {
        let int = |e: Expr| e.type_of().eq(Expr::type_tag(TypeTag::Int));
        let tiers = escalation_tiers(ModelBudget::default());
        // Both orders of two variables fail on every candidate pair, and
        // the whole tree fits the node budget.
        let cs = [int(x(0)), int(x(1)), x(0).lt(x(1)), x(1).lt(x(0))];
        let mut work = SearchWork::default();
        assert_eq!(find_model_tiers(&cs, &tiers, &mut work), None);
        assert_eq!(work.tiers_skipped, 2);
        assert!(work.nodes > 0);
        // A budget-independent failure never searches.
        let mut work = SearchWork::default();
        let conflict = [x(0).eq(Expr::int(1)), x(0).eq(Expr::int(2))];
        assert_eq!(find_model_tiers(&conflict, &tiers, &mut work), None);
        assert_eq!(
            work,
            SearchWork {
                nodes: 0,
                tiers_skipped: 2
            }
        );
        // A node cut runs the next tier.
        let tiny = ModelBudget {
            max_nodes: 3,
            candidates_per_var: 16,
        };
        let mut work = SearchWork::default();
        assert_eq!(find_model_tiers(&cs, &[tiny, tiny], &mut work), None);
        assert_eq!(
            work,
            SearchWork {
                nodes: 6,
                tiers_skipped: 0
            }
        );
    }

    #[test]
    fn a_candidate_cut_is_out_of_budget() {
        let int = |e: Expr| e.type_of().eq(Expr::type_tag(TypeTag::Int));
        let cs = [int(x(0)), x(0).mul(Expr::int(3)).eq(Expr::int(1000))];
        let p = prepare(&cs).expect("searchable");
        let mut nodes = 0;
        let small = ModelBudget {
            max_nodes: 1_000,
            candidates_per_var: 2,
        };
        assert!(matches!(p.run(small, &mut nodes), Tier::OutOfBudget));
        assert!(matches!(
            p.run(ModelBudget::default(), &mut nodes),
            Tier::Exhausted
        ));
    }

    #[test]
    fn ready_levels_follow_the_last_free_variable() {
        let free = [LVar(1), LVar(2), LVar(3)];
        let flat = vec![
            x(0).eq(Expr::int(7)),
            x(2).lt(x(1)),
            x(3).eq(x(0)),
            Expr::pvar("p"),
            x(1).not(),
        ];
        let levels: Vec<Vec<String>> = ready_levels(flat, &free)
            .iter()
            .map(|l| l.iter().map(|c| c.to_string()).collect())
            .collect();
        assert_eq!(
            levels,
            [
                vec!["(#x0 = 7)", "p"],
                vec!["not(#x1)"],
                vec!["(#x2 < #x1)"],
                vec!["(#x3 = #x0)"],
            ]
        );
    }

    #[test]
    fn search_checks_each_conjunct_at_its_ready_level() {
        // x0 is fixed; x1, x2, x3 are free with two candidates each.
        let free = [LVar(1), LVar(2), LVar(3)];
        let candidates = vec![vec![Value::Int(0), Value::Int(1)]; 3];
        let run = |flat: Vec<Expr>| {
            let ready = ready_levels(flat, &free);
            let mut assignment = BTreeMap::from([(LVar(0), Value::Int(7))]);
            let mut nodes = 0;
            let found = search(
                &ready,
                &free,
                &candidates,
                0,
                &mut assignment,
                &mut nodes,
                usize::MAX,
            );
            (found, nodes)
        };
        let unreachable = x(1).add(x(2)).add(x(3)).eq(Expr::int(9));
        // The whole tree: 1 + 2 + 4 + 8 nodes, with the fixed-only
        // conjunct true at the root.
        assert_eq!(
            run(vec![x(0).eq(Expr::int(7)), unreachable.clone()]),
            (false, 15)
        );
        // A false conjunct over fixed variables only prunes at the root.
        assert_eq!(
            run(vec![x(0).eq(Expr::int(8)), unreachable.clone()]),
            (false, 1)
        );
        // `x1 = 1` prunes the `x1 = 0` subtree one level down.
        assert_eq!(
            run(vec![x(1).eq(Expr::int(1)), unreachable]),
            (false, 1 + 2 + 2 + 4)
        );
        // The first satisfying leaf in DFS order is x1 = 0, x2 = 1,
        // x3 = 1: root, x1 = 0, x2 = 0 and its two leaves, x2 = 1 and
        // its two leaves.
        assert_eq!(
            run(vec![x(1).add(x(2)).add(x(3)).eq(Expr::int(2))]),
            (true, 1 + 1 + 1 + 2 + 1 + 2)
        );
    }

    #[test]
    fn eval_reads_the_assignment_and_keeps_error_text() {
        let m = Model::from_assignment(BTreeMap::from([(LVar(0), Value::Int(4))]));
        assert_eq!(m.eval(&x(0).add(Expr::int(1))), Ok(Value::Int(5)));
        let unassigned = m.eval(&x(0).add(x(1))).unwrap_err();
        assert_eq!(unassigned.0, "logical variable #x1 in concrete evaluation");
        let pvar = m.eval(&Expr::pvar("p")).unwrap_err();
        assert_eq!(pvar.0, "unbound variable p");
    }
}
