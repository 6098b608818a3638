//! The While concrete and symbolic memory models (paper §2.4, Fig. 3).
//!
//! Concrete memories map `(location, property)` cells to values
//! (`µ : U × S ⇀ V`); symbolic memories map `(logical expression,
//! property)` cells to logical expressions (`µ̂ : Ê × S ⇀ Ê`). Property
//! names stay concrete strings — While objects are *static* (dynamic
//! property names arrive with the MiniJS instantiation).
//!
//! The action set is `A_While = {lookup, mutate, dispose}`; symbolic
//! `lookup`/`mutate` branch over the locations the address may alias
//! (rules `S-Lookup` and `S-Mutate-{Present,Absent}` of Fig. 3), learning
//! the corresponding equalities/disequalities into the path condition.
//!
//! The symbolic memory is a [`SymMap`] grouped by property, so the
//! locations defining a property are one group. `lookup` and `mutate`
//! have literal fast paths on the bytecode backend; `dispose`, which
//! aliases the address against every location, has none.

use gillian_core::checkpoint::StateIoError;
use gillian_core::memory::{
    decide, expr_args, successors, value_args, Alias, ArgList, ConcreteMemory, SymBranch, SymMap,
    SymbolicMemory,
};
use gillian_gil::serial::{self, ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn err_value(msg: impl Into<String>) -> Value {
    Value::str(msg.into())
}

/// The message of an action whose argument is not an `n`-element list.
fn arity(action: &str, n: usize, arg: impl std::fmt::Display) -> String {
    format!("{action}: expected {n}-element argument list, got {arg}")
}

/// A concrete While memory: `(location, property) ⇀ value`
/// (copy-on-write behind an [`Arc`], like the JS and C memories).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WhileConcMemory {
    cells: Arc<BTreeMap<(Value, Arc<str>), Value>>,
}

impl WhileConcMemory {
    /// Number of cells (for tests).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Direct cell insertion (for tests and interpretation functions).
    pub fn insert(&mut self, loc: Value, prop: impl AsRef<str>, value: Value) -> Option<Value> {
        Arc::make_mut(&mut self.cells).insert((loc, Arc::from(prop.as_ref())), value)
    }

    /// Direct cell read (for tests).
    pub fn get(&self, loc: &Value, prop: &str) -> Option<&Value> {
        self.cells.get(&(loc.clone(), Arc::from(prop)))
    }
}

impl ConcreteMemory for WhileConcMemory {
    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        let args = |n| value_args(&arg, n).ok_or_else(|| err_value(arity(name, n, &arg)));
        match name {
            // [C-Lookup]  µ = _ ⊎ l.p ↦ v  ⟹  µ.lookup([l,p]) ⇝ (µ, v)
            "lookup" => {
                let args = args(2)?;
                let prop = args[1]
                    .as_str()
                    .ok_or_else(|| err_value("lookup: property must be a string"))?;
                self.cells
                    .get(&(args[0].clone(), Arc::from(prop)))
                    .cloned()
                    .ok_or_else(|| err_value(format!("lookup: no property {prop} at {}", args[0])))
            }
            // [C-Mutate-Present] / [C-Mutate-Absent]
            "mutate" => {
                let args = args(3)?;
                let prop = args[1]
                    .as_str()
                    .ok_or_else(|| err_value("mutate: property must be a string"))?;
                Arc::make_mut(&mut self.cells)
                    .insert((args[0].clone(), Arc::from(prop)), args[2].clone());
                Ok(args[2].clone())
            }
            // [C-Dispose]: drop every cell of the object.
            "dispose" => {
                let loc = arg;
                Arc::make_mut(&mut self.cells).retain(|(l, _), _| l != &loc);
                Ok(Value::Bool(true))
            }
            other => Err(err_value(format!("unknown While action {other}"))),
        }
    }
}

/// Dense codes for the While actions with a literal fast path, used by
/// the bytecode backend's per-site inline caches (`gillian_core::exec`).
/// `dispose` has none and stays on the general path.
mod code {
    pub const LOOKUP: u16 = 0;
    pub const MUTATE: u16 = 1;
}

/// A symbolic While memory: `(property, location expression) ⇀
/// expression`, grouped by property (module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WhileSymMemory {
    cells: SymMap<Arc<str>, Expr>,
}

impl WhileSymMemory {
    /// Number of cells (for tests).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Direct cell insertion (for tests).
    pub fn insert(&mut self, loc: Expr, prop: impl AsRef<str>, value: Expr) -> Option<Expr> {
        self.cells.insert(Arc::from(prop.as_ref()), loc, value)
    }

    /// Iterates over the `(location, property, value)` cells, grouped by
    /// property (used by the interpretation function `I_W`).
    pub fn cells(&self) -> impl Iterator<Item = (&Expr, &str, &Expr)> {
        self.cells
            .iter()
            .map(|((prop, loc), value)| (loc, prop.as_ref(), value))
    }

    fn apply(&mut self, edit: Edit) {
        match edit {
            Edit::Keep => {}
            Edit::Put(loc, prop, value) => {
                self.cells.insert(prop, loc, value);
            }
            Edit::Dispose(loc) => self.cells.retain(|_, l, _| l != &loc),
        }
    }

    // ---- literal fast paths (bytecode backend only) -----------------
    //
    // Each helper owns the memory: the one branch it builds takes `self`
    // (a write mutates it in place), and `Err(self)` hands it back
    // untouched for the general path.

    fn fast_lookup(self, arg: &Expr, pc: &PathCondition) -> Result<Vec<SymBranch<Self>>, Self> {
        let Some(args) = ArgList::of(arg, 2) else {
            return Err(self);
        };
        let Some((el, prop)) = args.literal(0).zip(args.str(1)) else {
            return Err(self);
        };
        let el = Expr::Val(el.clone());
        let value = match self.cells.literal(prop, &el) {
            None => return Err(self),
            Some(found) => found.map(|(_, value)| value.clone()),
        };
        let pc = pc.clone();
        Ok(vec![match value {
            Some(value) => SymBranch::ok(self, value, pc),
            None => {
                let msg = format!("lookup: no property {prop} at {el}");
                SymBranch::err(self, Expr::str(msg), pc)
            }
        }])
    }

    fn fast_mutate(mut self, arg: &Expr, pc: &PathCondition) -> Result<Vec<SymBranch<Self>>, Self> {
        let Some(args) = ArgList::of(arg, 3) else {
            return Err(self);
        };
        let Some((el, prop)) = args.literal(0).zip(args.str(1)) else {
            return Err(self);
        };
        let el = Expr::Val(el.clone());
        if self.cells.literal(prop, &el).is_none() {
            return Err(self);
        }
        // Present overwrites in place; absent extends.
        let value = args.expr(2);
        self.cells.insert(prop.clone(), el, value.clone());
        Ok(vec![SymBranch::ok(self, value, pc.clone())])
    }
}

/// The memory effect of one symbolic branch, decided before the branch's
/// memory exists.
enum Edit {
    Keep,
    /// Writes cell `(location, property)`.
    Put(Expr, Arc<str>, Expr),
    /// Drops every cell of the location.
    Dispose(Expr),
}

/// The address and static property of a `lookup` (`n = 2`) or `mutate`
/// (`n = 3`), with the whole argument list.
fn prop_args(arg: &Expr, n: usize, action: &str) -> Result<(Vec<Expr>, Arc<str>), Expr> {
    let args = expr_args(arg, n).ok_or_else(|| Expr::str(arity(action, n, arg)))?;
    let prop = match &args[1] {
        Expr::Val(Value::Str(s)) => s.clone(),
        other => {
            let msg = format!("{action}: property must be a literal string, got {other}");
            return Err(Expr::str(msg));
        }
    };
    Ok((args, prop))
}

impl SymbolicMemory for WhileSymMemory {
    fn language() -> &'static str {
        "while"
    }

    fn save(&self, enc: &mut Encoder, out: &mut Vec<u8>) -> Result<(), StateIoError> {
        serial::put_len(out, self.cells.len(), "while memory cells")?;
        // Iteration is canonical order, so equal memories encode to equal
        // bytes.
        for ((prop, loc), value) in self.cells.iter() {
            enc.write_expr(out, loc)?;
            serial::put_str(out, prop)?;
            enc.write_expr(out, value)?;
        }
        Ok(())
    }

    fn load(dec: &Decoder, r: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        let n = r.count()?;
        let mut mem = WhileSymMemory::default();
        for _ in 0..n {
            let loc = dec.read_expr(r)?;
            let prop: Arc<str> = Arc::from(r.str()?);
            let value = dec.read_expr(r)?;
            mem.cells.insert(prop, loc, value);
        }
        Ok(mem)
    }

    fn action_code(&self, name: &str) -> Option<u16> {
        Some(match name {
            "lookup" => code::LOOKUP,
            "mutate" => code::MUTATE,
            _ => return None,
        })
    }

    fn execute_action_coded(
        self,
        code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        let fast = match code {
            code::LOOKUP => self.fast_lookup(arg, pc),
            code::MUTATE => self.fast_mutate(arg, pc),
            _ => Err(self),
        };
        fast.unwrap_or_else(|mem| mem.execute_action(name, arg, pc, solver))
    }

    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // Branches are decided first, as edits; `successors` then builds
        // their memories, the last one reusing `self`. Each is decided
        // once, and keeps the condition its query checked.
        let err1 = |mem, e| vec![SymBranch::err(mem, e, pc.clone())];
        let mut branches = Vec::new();
        match name {
            // [S-Lookup]: branch on every location potentially equal to the
            // address; learn the equality. The residual branch (equal to
            // none) is the "property not found" error.
            "lookup" => {
                let (args, prop) = match prop_args(arg, 2, "lookup") {
                    Ok(x) => x,
                    Err(e) => return err1(self, e),
                };
                let el = &args[0];
                let (found, none_of) = self.cells.aliases(&prop, el, None, pc, solver);
                for (_, value, _, pc) in found {
                    branches.push(SymBranch::ok(Edit::Keep, value.clone(), pc));
                }
                if let Some(pc) = decide(pc, solver, &none_of) {
                    let msg = Expr::str(format!("lookup: no property {prop} at {el}"));
                    branches.push(SymBranch::err(Edit::Keep, msg, pc));
                }
            }
            // [S-Mutate-Present] / [S-Mutate-Absent]
            "mutate" => {
                let (args, prop) = match prop_args(arg, 3, "mutate") {
                    Ok(x) => x,
                    Err(e) => return err1(self, e),
                };
                let (el, ev) = (&args[0], &args[2]);
                let (found, none_of) = self.cells.aliases(&prop, el, None, pc, solver);
                for (loc, _, _, pc) in found {
                    let put = Edit::Put(loc.clone(), prop.clone(), ev.clone());
                    branches.push(SymBranch::ok(put, ev.clone(), pc));
                }
                // Absent: the address defines no `p` yet; extend.
                if let Some(pc) = decide(pc, solver, &none_of) {
                    let put = Edit::Put(el.clone(), prop, ev.clone());
                    branches.push(SymBranch::ok(put, ev.clone(), pc));
                }
            }
            // [S-Dispose]: branch on aliasing with each known location.
            "dispose" => {
                let locs: BTreeSet<&Expr> = self.cells.iter().map(|((_, l), _)| l).collect();
                let mut alias = Alias::new(arg, None, pc, solver);
                for loc in locs {
                    if let Some((_, pc)) = alias.candidate(loc) {
                        let dispose = Edit::Dispose(loc.clone());
                        branches.push(SymBranch::ok(dispose, Expr::tt(), pc));
                    }
                }
                if let Some(pc) = decide(pc, solver, &alias.none_of()) {
                    branches.push(SymBranch::ok(Edit::Keep, Expr::tt(), pc));
                }
            }
            other => return err1(self, Expr::str(format!("unknown While action {other}"))),
        }
        successors(self, branches, Self::apply)
    }

    fn lvars(&self) -> BTreeSet<gillian_gil::LVar> {
        let mut out = BTreeSet::new();
        for ((_, loc), val) in self.cells.iter() {
            out.extend(loc.lvars());
            out.extend(val.lvars());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::{LVar, Sym};
    use proptest::prelude::*;

    fn sym(i: u64) -> Value {
        Value::Sym(Sym(Sym::FIRST_FRESH + i))
    }

    #[test]
    fn concrete_lookup_mutate_dispose() {
        let mut m = WhileConcMemory::default();
        let l = sym(0);
        let arg = Value::List(vec![l.clone(), Value::str("a"), Value::Int(1)]);
        m.execute_action("mutate", arg).unwrap();
        let got = m
            .execute_action("lookup", Value::List(vec![l.clone(), Value::str("a")]))
            .unwrap();
        assert_eq!(got, Value::Int(1));
        // Lookup of an absent property errors (C-Lookup needs presence).
        assert!(m
            .execute_action("lookup", Value::List(vec![l.clone(), Value::str("b")]))
            .is_err());
        m.execute_action("dispose", l.clone()).unwrap();
        assert!(m
            .execute_action("lookup", Value::List(vec![l, Value::str("a")]))
            .is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn symbolic_lookup_on_literal_location_is_deterministic() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        let branches = m.execute_action("lookup", &Expr::list([l, Expr::str("a")]), &pc, &solver);
        assert_eq!(branches.len(), 1, "literal locations do not alias-branch");
        assert_eq!(branches[0].outcome, Ok(Expr::int(1)));
        assert_eq!(branches[0].pc, pc, "and learn nothing");
    }

    #[test]
    fn symbolic_lookup_branches_on_aliasing() {
        // Two objects with property "a"; address is a logical variable:
        // lookup must branch three ways (alias l0, alias l1, neither).
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l0 = Expr::Val(sym(0));
        let l1 = Expr::Val(sym(1));
        m.insert(l0.clone(), "a", Expr::int(10));
        m.insert(l1.clone(), "a", Expr::int(11));
        let x = Expr::lvar(LVar(0));
        let branches = m.execute_action(
            "lookup",
            &Expr::list([x.clone(), Expr::str("a")]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 3, "S-Lookup branches + error branch");
        let oks: Vec<_> = branches.iter().filter(|b| b.outcome.is_ok()).collect();
        assert_eq!(oks.len(), 2);
        assert!(branches.iter().any(|b| b.outcome.is_err()));
    }

    #[test]
    fn symbolic_mutate_absent_extends_memory() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        let branches = m.execute_action(
            "mutate",
            &Expr::list([l.clone(), Expr::str("p"), Expr::int(7)]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].memory.len(), 1);
    }

    #[test]
    fn symbolic_mutate_branches_present_and_absent() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l0 = Expr::Val(sym(0));
        m.insert(l0.clone(), "p", Expr::int(1));
        let x = Expr::lvar(LVar(0));
        let branches = m.execute_action(
            "mutate",
            &Expr::list([x, Expr::str("p"), Expr::int(2)]),
            &pc,
            &solver,
        );
        // Present (x = l0, overwrite) and absent (x ≠ l0, extend).
        assert_eq!(branches.len(), 2);
        assert!(branches.iter().all(|b| b.outcome.is_ok()));
        assert!(branches.iter().any(|b| b.memory.len() == 1));
        assert!(branches.iter().any(|b| b.memory.len() == 2));
    }

    #[test]
    fn pc_prunes_alias_branches() {
        let solver = Solver::optimized();
        let mut pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l0 = Expr::Val(sym(0));
        let l1 = Expr::Val(sym(1));
        m.insert(l0.clone(), "a", Expr::int(10));
        m.insert(l1.clone(), "a", Expr::int(11));
        let x = Expr::lvar(LVar(0));
        pc.push(x.clone().eq(l0.clone()));
        let branches = m.execute_action("lookup", &Expr::list([x, Expr::str("a")]), &pc, &solver);
        assert_eq!(branches.len(), 1, "pc pins the alias: {branches:?}");
        assert_eq!(branches[0].outcome, Ok(Expr::int(10)));
    }

    fn mutate(l: &Expr, v: i64) -> Expr {
        Expr::list([l.clone(), Expr::str("a"), Expr::int(v)])
    }

    #[test]
    fn single_successor_write_is_in_place() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        let cells = m.cells.as_ptr();
        let branches = m.execute_action("mutate", &mutate(&l, 2), &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].outcome, Ok(Expr::int(2)));
        assert_eq!(branches[0].memory.cells.as_ptr(), cells);
    }

    #[test]
    fn clones_taken_before_a_write_are_isolated() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        let snapshot = m.clone();
        let branches = m
            .clone()
            .execute_action("mutate", &mutate(&l, 2), &pc, &solver);
        assert_ne!(branches[0].memory, snapshot);
        assert_eq!(
            m, snapshot,
            "a write through a clone leaked into the original"
        );
        // Sibling branches (x aliases l, or x is a new object) are
        // isolated from each other and from the pre-state.
        let x = Expr::lvar(LVar(0));
        let branches = m
            .clone()
            .execute_action("mutate", &mutate(&x, 3), &pc, &solver);
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].memory.len(), 1);
        assert_eq!(branches[1].memory.len(), 2);
        let branches = m.clone().execute_action("dispose", &l, &pc, &solver);
        assert!(branches[0].memory.is_empty());
        assert_eq!(m, snapshot);
    }

    // ---- coded fast paths ------------------------------------------

    /// Runs `name` as the bytecode backend does: through the coded entry
    /// point when the action has a code.
    fn coded(
        m: WhileSymMemory,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<WhileSymMemory>> {
        match m.action_code(name) {
            Some(code) => m.execute_action_coded(code, name, arg, pc, solver),
            None => m.execute_action(name, arg, pc, solver),
        }
    }

    #[test]
    fn literal_mutate_writes_in_place() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        let cells = m.cells.as_ptr();
        let branches = coded(m, "mutate", &mutate(&l, 2), &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].outcome, Ok(Expr::int(2)));
        assert_eq!(branches[0].memory.cells.as_ptr(), cells);
        assert_eq!(solver.stats().simplifications, 0, "no alias decision");
        assert_eq!(solver.stats().sat_queries, 0, "pc is already decided");
    }

    #[test]
    fn symbolic_location_of_another_property_keeps_the_fast_path() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        m.insert(Expr::lvar(LVar(0)), "b", Expr::int(2));
        let lookup = Expr::list([l.clone(), Expr::str("a")]);
        let branches = coded(m.clone(), "lookup", &lookup, &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].outcome, Ok(Expr::int(1)));
        let branches = coded(m, "mutate", &mutate(&l, 3), &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(solver.stats().simplifications, 0, "no alias decision");
    }

    #[test]
    fn symbolic_location_of_this_property_takes_the_general_path() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = WhileSymMemory::default();
        let l = Expr::Val(sym(0));
        m.insert(l.clone(), "a", Expr::int(1));
        m.insert(Expr::lvar(LVar(0)), "a", Expr::int(2));
        let lookup = Expr::list([l.clone(), Expr::str("a")]);
        let branches = coded(m.clone(), "lookup", &lookup, &pc, &solver);
        assert!(solver.stats().simplifications > 0, "alias decision ran");
        // One branch per location: l itself, and x under x = l.
        assert_eq!(branches.len(), 2, "{branches:?}");
    }

    /// The solver counters both legs must agree on (the general path
    /// also simplifies, so simplification counts differ by design).
    fn query_counts(solver: &Solver) -> [u64; 5] {
        let s = solver.stats();
        [
            s.sat_queries,
            s.cache_hits,
            s.sat_unknowns,
            s.incremental_hits,
            s.model_searches,
        ]
    }

    /// Literal `Sym` locations and a few logical variables.
    fn arb_loc() -> impl Strategy<Value = Expr> {
        prop_oneof![
            4 => (0u64..4).prop_map(|i| Expr::Val(sym(i))),
            1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i))),
        ]
    }

    /// Addresses: the locations above, plus a literal that is no location.
    fn arb_addr() -> impl Strategy<Value = Expr> {
        prop_oneof![
            5 => arb_loc(),
            1 => Just(Expr::int(7)),
        ]
    }

    fn arb_prop() -> impl Strategy<Value = &'static str> {
        proptest::sample::select(vec!["a", "b", "c"])
    }

    fn arb_value() -> impl Strategy<Value = Expr> {
        prop_oneof![
            3 => (0i64..3).prop_map(Expr::int),
            1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i)).add(Expr::int(1))),
        ]
    }

    /// An argument list as the evaluators build it: all-literal lists
    /// folded into one `Value::List` when `fold` is set, as the bytecode
    /// backend does.
    fn arg_list(parts: Vec<Expr>, fold: bool) -> Expr {
        let values: Option<Vec<Value>> = parts
            .iter()
            .map(|e| match e {
                Expr::Val(v) => Some(v.clone()),
                _ => None,
            })
            .collect();
        match values {
            Some(vs) if fold => Expr::Val(Value::List(vs)),
            _ => Expr::list(parts),
        }
    }

    /// `(action, argument)`: well-formed actions plus a few malformed ones
    /// (a non-string property, a wrong arity), which take the error path.
    fn arb_action() -> impl Strategy<Value = (&'static str, Expr)> {
        prop_oneof![
            4 => (arb_addr(), arb_prop(), any::<bool>()).prop_map(|(l, p, fold)| {
                ("lookup", arg_list(vec![l, Expr::str(p)], fold))
            }),
            4 => (arb_addr(), arb_prop(), arb_value(), any::<bool>()).prop_map(
                |(l, p, v, fold)| ("mutate", arg_list(vec![l, Expr::str(p), v], fold))
            ),
            2 => arb_addr().prop_map(|l| ("dispose", l)),
            1 => (arb_addr(), any::<bool>()).prop_map(|(l, fold)| {
                ("lookup", arg_list(vec![l, Expr::int(0)], fold))
            }),
            1 => arb_addr().prop_map(|l| ("mutate", arg_list(vec![l], false))),
        ]
    }

    /// Path condition `i`: none, pinning or excluding an alias, unsat.
    /// Each leg builds its own: a path condition carries solve contexts,
    /// which a shared one would carry from the first leg to the second.
    fn pc_of(i: u8) -> PathCondition {
        let mut pc = PathCondition::new();
        let x = Expr::lvar(LVar(0));
        match i {
            0 => {}
            1 => pc.push(x.eq(Expr::Val(sym(0)))),
            2 => pc.push(x.ne(Expr::Val(sym(1)))),
            _ => pc.push(Expr::ff()),
        }
        pc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn coded_actions_match_the_general_path(
            cells in proptest::collection::vec((arb_loc(), arb_prop(), arb_value()), 0..7),
            actions in proptest::collection::vec(arb_action(), 1..5),
            pc in 0u8..4,
        ) {
            let mut m = WhileSymMemory::default();
            for (l, p, v) in cells {
                m.insert(l, p, v);
            }
            // Each action runs on one successor of the last (the first
            // branch's memory), so later actions see written heaps.
            for (name, arg) in actions {
                let (general_solver, coded_solver) = (Solver::optimized(), Solver::optimized());
                let general = m.clone().execute_action(name, &arg, &pc_of(pc), &general_solver);
                let fast = coded(m.clone(), name, &arg, &pc_of(pc), &coded_solver);
                prop_assert_eq!(general.len(), fast.len());
                for (g, c) in general.iter().zip(&fast) {
                    prop_assert_eq!(&g.outcome, &c.outcome);
                    prop_assert_eq!(&g.pc, &c.pc);
                    prop_assert_eq!(&g.memory, &c.memory);
                }
                prop_assert_eq!(query_counts(&general_solver), query_counts(&coded_solver));
                match fast.into_iter().next() {
                    Some(b) => m = b.memory,
                    None => break,
                }
            }
        }
    }
}
