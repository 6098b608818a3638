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

use gillian_core::checkpoint::StateIoError;
use gillian_core::memory::{successors, ConcreteMemory, SymBranch, SymbolicMemory};
use gillian_gil::serial::{self, ByteReader, Decoder, Encoder};
use gillian_gil::{Expr, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::BTreeMap;
use std::sync::Arc;

fn err_value(msg: impl Into<String>) -> Value {
    Value::str(msg.into())
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

/// Destructures an action argument list.
fn value_args(arg: &Value, n: usize, action: &str) -> Result<Vec<Value>, Value> {
    match arg.as_list() {
        Some(items) if items.len() == n => Ok(items.to_vec()),
        _ => Err(err_value(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))),
    }
}

impl ConcreteMemory for WhileConcMemory {
    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        match name {
            // [C-Lookup]  µ = _ ⊎ l.p ↦ v  ⟹  µ.lookup([l,p]) ⇝ (µ, v)
            "lookup" => {
                let args = value_args(&arg, 2, "lookup")?;
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
                let args = value_args(&arg, 3, "mutate")?;
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

/// A symbolic While memory: `(location expression, property) ⇀ expression`
/// (copy-on-write behind an [`Arc`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WhileSymMemory {
    cells: Arc<BTreeMap<(Expr, Arc<str>), Expr>>,
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
        Arc::make_mut(&mut self.cells).insert((loc, Arc::from(prop.as_ref())), value)
    }

    /// Iterates over cells in canonical order (used by the interpretation
    /// function `I_W`).
    pub fn cells(&self) -> impl Iterator<Item = (&(Expr, Arc<str>), &Expr)> {
        self.cells.iter()
    }

    /// The locations that define property `p`.
    fn locs_with(&self, prop: &str) -> Vec<Expr> {
        self.cells
            .keys()
            .filter(|(_, p)| p.as_ref() == prop)
            .map(|(l, _)| l.clone())
            .collect()
    }

    /// All distinct locations in the memory.
    fn locs(&self) -> Vec<Expr> {
        let mut out: Vec<Expr> = self.cells.keys().map(|(l, _)| l.clone()).collect();
        out.sort();
        out.dedup();
        out
    }

    fn apply(&mut self, edit: Edit) {
        match edit {
            Edit::Keep => {}
            Edit::Put(loc, prop, value) => {
                Arc::make_mut(&mut self.cells).insert((loc, prop), value);
            }
            Edit::Dispose(loc) => Arc::make_mut(&mut self.cells).retain(|(l, _), _| l != &loc),
        }
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

fn expr_args(arg: &Expr, n: usize, action: &str) -> Result<Vec<Expr>, Expr> {
    let parts: Option<Vec<Expr>> = match arg {
        Expr::List(es) if es.len() == n => Some(es.to_vec()),
        Expr::Val(Value::List(vs)) if vs.len() == n => {
            Some(vs.iter().cloned().map(Expr::Val).collect())
        }
        _ => None,
    };
    parts.ok_or_else(|| {
        Expr::str(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))
    })
}

fn static_prop(e: &Expr, action: &str) -> Result<Arc<str>, Expr> {
    match e {
        Expr::Val(Value::Str(s)) => Ok(s.clone()),
        other => Err(Expr::str(format!(
            "{action}: property must be a literal string, got {other}"
        ))),
    }
}

impl SymbolicMemory for WhileSymMemory {
    fn language() -> &'static str {
        "while"
    }

    fn save(&self, enc: &mut Encoder, out: &mut Vec<u8>) -> Result<(), StateIoError> {
        serial::put_len(out, self.cells.len(), "while memory cells")?;
        // BTreeMap iteration is canonical order, so equal memories encode
        // to equal bytes.
        for ((loc, prop), value) in self.cells.iter() {
            enc.write_expr(out, loc)?;
            serial::put_str(out, prop)?;
            enc.write_expr(out, value)?;
        }
        Ok(())
    }

    fn load(dec: &Decoder, r: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        let n = r.count()?;
        let mut cells = BTreeMap::new();
        for _ in 0..n {
            let loc = dec.read_expr(r)?;
            let prop: Arc<str> = Arc::from(r.str()?);
            let value = dec.read_expr(r)?;
            cells.insert((loc, prop), value);
        }
        Ok(WhileSymMemory {
            cells: Arc::new(cells),
        })
    }

    fn execute_action(
        self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // Branches are decided first, as edits; `successors` then builds
        // their memories, the last one reusing `self`.
        let mut branches = Vec::new();
        match name {
            // [S-Lookup]: branch on every location potentially equal to the
            // address; learn the equality. The residual branch (equal to
            // none) is the "property not found" error.
            "lookup" => {
                let (el, prop) = match expr_args(arg, 2, "lookup")
                    .and_then(|a| Ok((a[0].clone(), static_prop(&a[1], "lookup")?)))
                {
                    Ok(x) => x,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let mut none_of = Expr::tt();
                for loc in self.locs_with(&prop) {
                    let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
                    if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                        let value = self.cells[&(loc.clone(), prop.clone())].clone();
                        branches.push(SymBranch::ok_if(Edit::Keep, value, eq));
                    }
                    none_of = none_of.and(el.clone().ne(loc));
                }
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    branches.push(SymBranch::err_if(
                        Edit::Keep,
                        Expr::str(format!("lookup: no property {prop} at {el}")),
                        none_of,
                    ));
                }
            }
            // [S-Mutate-Present] / [S-Mutate-Absent]
            "mutate" => {
                let (el, prop, ev) = match expr_args(arg, 3, "mutate")
                    .and_then(|a| Ok((a[0].clone(), static_prop(&a[1], "mutate")?, a[2].clone())))
                {
                    Ok(x) => x,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let mut none_of = Expr::tt();
                for loc in self.locs_with(&prop) {
                    let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
                    if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                        let put = Edit::Put(loc.clone(), prop.clone(), ev.clone());
                        branches.push(SymBranch::ok_if(put, ev.clone(), eq));
                    }
                    none_of = none_of.and(el.clone().ne(loc));
                }
                // Absent: the address defines no `p` yet; extend.
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    branches.push(SymBranch::ok_if(
                        Edit::Put(el, prop, ev.clone()),
                        ev,
                        none_of,
                    ));
                }
            }
            // [S-Dispose]: branch on aliasing with each known location.
            "dispose" => {
                let el = arg.clone();
                let mut none_of = Expr::tt();
                for loc in self.locs() {
                    let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
                    if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                        branches.push(SymBranch::ok_if(Edit::Dispose(loc.clone()), Expr::tt(), eq));
                    }
                    none_of = none_of.and(el.clone().ne(loc));
                }
                let none_of = solver.simplify(pc, &none_of);
                if none_of.as_bool() != Some(false) && solver.sat_with(pc, &none_of).possibly_sat()
                {
                    branches.push(SymBranch::ok_if(Edit::Keep, Expr::tt(), none_of));
                }
            }
            other => {
                return vec![SymBranch::err_if(
                    self,
                    Expr::str(format!("unknown While action {other}")),
                    Expr::tt(),
                )]
            }
        }
        successors(self, branches, Self::apply)
    }

    fn lvars(&self) -> std::collections::BTreeSet<gillian_gil::LVar> {
        let mut out = std::collections::BTreeSet::new();
        for ((loc, _), val) in self.cells.iter() {
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
        assert_eq!(branches[0].constraint, Expr::tt());
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
        let cells = Arc::as_ptr(&m.cells);
        let branches = m.execute_action("mutate", &mutate(&l, 2), &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].outcome, Ok(Expr::int(2)));
        assert_eq!(Arc::as_ptr(&branches[0].memory.cells), cells);
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
}
