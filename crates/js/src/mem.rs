//! The MiniJS concrete and symbolic memory models (paper §4.1).
//!
//! A JS memory is a pair of a *heap* and a *metadata table*:
//!
//! - concrete heap `h : U × V ⇀ V` — object locations and property *keys*
//!   (keys are full values: MiniJS indexes arrays with numbers directly
//!   instead of stringifying, a documented deviation from ES5) to values;
//! - concrete metadata table `m : U ⇀ V` — per-object metadata (MiniJS
//!   stores the class tag, `"Object"`/`"Array"`); an entry in the table is
//!   what makes a location *an object*.
//!
//! Symbolically both components map logical expressions: the metadata
//! table is a [`SymMap`] with one group, the heap a [`SymMap`] grouped by
//! object. The model has eight actions — creation/deletion of objects,
//! retrieval/update/deletion of properties and metadata, plus property
//! test: `{newObj, delObj, getProp, setProp, delProp, hasProp, getMeta,
//! setMeta}`.
//!
//! Every action but `newObj` first resolves its address against the
//! objects, and a property action then resolves its key against the
//! object's keys under the object equality ([`Effect`]). The symbolic
//! `getProp` is the paper's `SGetProp` rule: one branch per key the
//! looked-up key may equal, plus the *absent* branch yielding `undefined`
//! (JS semantics) under the conjunction of the disequalities. On the
//! bytecode backend, a literal address and key over literal tables take
//! a fast path.

use crate::values::undefined_expr;
use gillian_core::memory::{
    decide, expr_args, successors, value_args, ConcreteMemory, SymBranch, SymMap, SymbolicMemory,
};
use gillian_gil::{Expr, LVar, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::{BTreeMap, BTreeSet};

/// Dense codes for the eight JS actions, used by the bytecode backend's
/// per-site inline caches (`gillian_core::exec`): a dispatch site caches
/// the code on first execution and thereafter skips the string match.
mod code {
    pub const NEW_OBJ: u16 = 0;
    pub const DEL_OBJ: u16 = 1;
    pub const GET_PROP: u16 = 2;
    pub const SET_PROP: u16 = 3;
    pub const DEL_PROP: u16 = 4;
    pub const HAS_PROP: u16 = 5;
    pub const GET_META: u16 = 6;
    pub const SET_META: u16 = 7;
}

fn js_action_code(name: &str) -> Option<u16> {
    Some(match name {
        "newObj" => code::NEW_OBJ,
        "delObj" => code::DEL_OBJ,
        "getProp" => code::GET_PROP,
        "setProp" => code::SET_PROP,
        "delProp" => code::DEL_PROP,
        "hasProp" => code::HAS_PROP,
        "getMeta" => code::GET_META,
        "setMeta" => code::SET_META,
        _ => return None,
    })
}

fn err_value(msg: impl Into<String>) -> Value {
    Value::List(vec![Value::str("JSError"), Value::str(msg.into())])
}

fn err_expr(msg: impl Into<String>) -> Expr {
    Expr::list([Expr::str("JSError"), Expr::str(msg.into())])
}

/// The message of an action whose argument is not an `n`-element list.
fn arity(action: &str, n: usize, arg: impl std::fmt::Display) -> String {
    format!("{action}: expected {n}-element argument list, got {arg}")
}

/// A concrete MiniJS memory: heap cells plus metadata table.
///
/// Both tables are copy-on-write behind [`Arc`]s: cloning the memory (the
/// engine clones states on every step) is two pointer bumps, and
/// straight-line execution mutates in place.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsConcMemory {
    meta: std::sync::Arc<BTreeMap<Value, Value>>,
    cells: std::sync::Arc<BTreeMap<(Value, Value), Value>>,
}

impl JsConcMemory {
    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.meta.len()
    }

    /// Direct accessors for tests and interpretation functions.
    pub fn insert_object(&mut self, loc: Value, meta: Value) -> Option<Value> {
        std::sync::Arc::make_mut(&mut self.meta).insert(loc, meta)
    }

    /// Inserts a heap cell directly.
    pub fn insert_cell(&mut self, loc: Value, key: Value, value: Value) -> Option<Value> {
        std::sync::Arc::make_mut(&mut self.cells).insert((loc, key), value)
    }

    /// Reads a heap cell directly.
    pub fn cell(&self, loc: &Value, key: &Value) -> Option<&Value> {
        self.cells.get(&(loc.clone(), key.clone()))
    }
}

impl ConcreteMemory for JsConcMemory {
    // Concrete dispatch keeps the default (name-keyed) coded delegation:
    // the concrete actions are dominated by their BTreeMap operations, so
    // the inline cache's only concrete win is resolving the code once.
    fn action_code(&self, name: &str) -> Option<u16> {
        js_action_code(name)
    }

    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        let args = |n| value_args(&arg, n).ok_or_else(|| err_value(arity(name, n, &arg)));
        match name {
            "newObj" => {
                let args = args(2)?;
                if self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("newObj: {} already exists", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.meta).insert(args[0].clone(), args[1].clone());
                Ok(args[0].clone())
            }
            "delObj" => {
                let loc = arg;
                if std::sync::Arc::make_mut(&mut self.meta)
                    .remove(&loc)
                    .is_none()
                {
                    return Err(err_value(format!("delObj: {loc} is not an object")));
                }
                std::sync::Arc::make_mut(&mut self.cells).retain(|(l, _), _| l != &loc);
                Ok(Value::Bool(true))
            }
            "getProp" => {
                let args = args(2)?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("getProp: {} is not an object", args[0])));
                }
                Ok(self
                    .cells
                    .get(&(args[0].clone(), args[1].clone()))
                    .cloned()
                    .unwrap_or_else(crate::values::undefined_value))
            }
            "setProp" => {
                let args = args(3)?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("setProp: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.cells)
                    .insert((args[0].clone(), args[1].clone()), args[2].clone());
                Ok(args[2].clone())
            }
            "delProp" => {
                let args = args(2)?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("delProp: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.cells)
                    .remove(&(args[0].clone(), args[1].clone()));
                Ok(Value::Bool(true))
            }
            "hasProp" => {
                let args = args(2)?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("hasProp: {} is not an object", args[0])));
                }
                Ok(Value::Bool(
                    self.cells.contains_key(&(args[0].clone(), args[1].clone())),
                ))
            }
            "getMeta" => self
                .meta
                .get(&arg)
                .cloned()
                .ok_or_else(|| err_value(format!("getMeta: {arg} is not an object"))),
            "setMeta" => {
                let args = args(2)?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("setMeta: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.meta).insert(args[0].clone(), args[1].clone());
                Ok(args[1].clone())
            }
            other => Err(err_value(format!("unknown JS action {other}"))),
        }
    }
}

/// A symbolic MiniJS memory (copy-on-write, like [`JsConcMemory`]).
///
/// Actions consume the memory, so a single-successor write mutates the
/// maps in place; sibling branches are clones that copy on their first
/// write.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JsSymMemory {
    meta: SymMap<(), Expr>,
    cells: SymMap<Expr, Expr>,
}

/// The memory effect of one symbolic branch, decided before the branch's
/// memory exists (`gillian_core::memory::successors` builds it).
enum Edit {
    Keep,
    /// Registers or retags object `loc` with the metadata.
    SetMeta(Expr, Expr),
    /// Drops object `loc` and all of its cells.
    DelObj(Expr),
    /// Writes cell `(loc, key)`.
    SetCell(Expr, Expr, Expr),
    /// Removes cell `(loc, key)`.
    DelCell(Expr, Expr),
}

/// What an action other than `newObj` does once its address has resolved
/// to an object: the branch's edit and outcome value. The general path
/// and the literal fast path share it, so they differ only in how they
/// resolve.
#[derive(Clone, Copy)]
enum Effect {
    /// An object action: its argument is the bare location (`None`) or an
    /// `n`-element list starting with it; the effect sees the arguments,
    /// the object's location and its metadata.
    Object(Option<usize>, fn(&[Expr], &Expr, &Expr) -> (Edit, Expr)),
    /// A property action on key `args[1]` of an `n`-element list: the
    /// effect sees the arguments, the object's location and the cell the
    /// key resolved to.
    Property(usize, fn(&[Expr], &Expr, Cell<'_>) -> (Edit, Expr)),
}

/// The cell a key resolved to: its stored key and value, or `None` when
/// the key is absent.
type Cell<'a> = Option<(&'a Expr, &'a Expr)>;

impl Effect {
    fn of(code: u16) -> Option<Effect> {
        Some(match code {
            code::DEL_OBJ => {
                Effect::Object(None, |_, loc, _| (Edit::DelObj(loc.clone()), Expr::tt()))
            }
            code::GET_META => Effect::Object(None, |_, _, meta| (Edit::Keep, meta.clone())),
            code::SET_META => Effect::Object(Some(2), |args, loc, _| {
                (Edit::SetMeta(loc.clone(), args[1].clone()), args[1].clone())
            }),
            // Absent keys read as `undefined` (JS semantics).
            code::GET_PROP => Effect::Property(2, |_, _, found| {
                let value = found.map_or_else(undefined_expr, |(_, v)| v.clone());
                (Edit::Keep, value)
            }),
            // Overwrite keeps the stored key expression, extend inserts
            // the looked-up one.
            code::SET_PROP => Effect::Property(3, |args, loc, found| {
                let key = found.map_or(&args[1], |(k, _)| k).clone();
                (
                    Edit::SetCell(loc.clone(), key, args[2].clone()),
                    args[2].clone(),
                )
            }),
            // Deleting an absent property is a no-op, like JS.
            code::DEL_PROP => Effect::Property(2, |_, loc, found| {
                let edit = found.map_or(Edit::Keep, |(k, _)| Edit::DelCell(loc.clone(), k.clone()));
                (edit, Expr::tt())
            }),
            code::HAS_PROP => {
                Effect::Property(2, |_, _, found| (Edit::Keep, Expr::bool(found.is_some())))
            }
            _ => return None,
        })
    }

    /// The argument list, or its expected length on a wrong arity.
    fn args(self, arg: &Expr) -> Result<Vec<Expr>, usize> {
        match self {
            Effect::Object(None, _) => Ok(vec![arg.clone()]),
            Effect::Object(Some(n), _) | Effect::Property(n, _) => expr_args(arg, n).ok_or(n),
        }
    }
}

fn not_an_object(action: &str, el: &Expr) -> Expr {
    err_expr(format!("{action}: {el} is not an object"))
}

impl JsSymMemory {
    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.meta.len()
    }

    /// Direct insertion for tests.
    pub fn insert_object(&mut self, loc: Expr, meta: Expr) -> Option<Expr> {
        self.meta.insert((), loc, meta)
    }

    /// Direct cell insertion for tests.
    pub fn insert_cell(&mut self, loc: Expr, key: Expr, value: Expr) -> Option<Expr> {
        self.cells.insert(loc, key, value)
    }

    /// Iterates over objects (for the interpretation function).
    pub fn objects(&self) -> impl Iterator<Item = (&Expr, &Expr)> {
        self.meta.iter().map(|((_, loc), meta)| (loc, meta))
    }

    /// Iterates over heap cells (for the interpretation function).
    pub fn heap_cells(&self) -> impl Iterator<Item = (&(Expr, Expr), &Expr)> {
        self.cells.iter()
    }

    /// Applies a branch's memory effect (see [`Edit`]).
    fn apply(&mut self, edit: Edit) {
        match edit {
            Edit::Keep => {}
            Edit::SetMeta(loc, meta) => {
                self.meta.insert((), loc, meta);
            }
            Edit::DelObj(loc) => {
                self.meta.remove(&(), &loc);
                self.cells.remove_group(&loc);
            }
            Edit::SetCell(loc, key, value) => {
                self.cells.insert(loc, key, value);
            }
            Edit::DelCell(loc, key) => {
                self.cells.remove(&loc, &key);
            }
        }
    }

    /// The literal fast path of every action but `newObj` (bytecode
    /// backend only): when the address, the key and every object and key
    /// they meet are literals, the alias decisions fold to the map
    /// lookups of [`SymMap::literal`], and the one surviving branch keeps
    /// `pc` without a query, as the folded decisions of the general path
    /// do. It owns the memory: the branch takes `self` (a write mutates
    /// it in place), and `Err(self)` hands it back untouched for the
    /// general path.
    fn fast_action(
        mut self,
        effect: Effect,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Ok(args) = effect.args(arg) else {
            return Err(self);
        };
        let (edit, value) = match self.meta.literal(&(), &args[0]) {
            None => return Err(self),
            Some(None) => {
                let err = not_an_object(name, &args[0]);
                return Ok(vec![SymBranch::err(self, err, pc.clone())]);
            }
            Some(Some((loc, meta))) => match effect {
                Effect::Object(_, act) => act(&args, loc, meta),
                Effect::Property(_, act) => match self.cells.literal(loc, &args[1]) {
                    None => return Err(self),
                    Some(found) => act(&args, loc, found),
                },
            },
        };
        self.apply(edit);
        Ok(vec![SymBranch::ok(self, value, pc.clone())])
    }
}

impl SymbolicMemory for JsSymMemory {
    fn language() -> &'static str {
        "minijs"
    }

    fn action_code(&self, name: &str) -> Option<u16> {
        js_action_code(name)
    }

    fn execute_action_coded(
        self,
        code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // `newObj` never consults the solver, and the fast path declines
        // whenever anything symbolic is involved; both fall back to the
        // general tree-walk implementation.
        let fast = match Effect::of(code) {
            Some(effect) => self.fast_action(effect, name, arg, pc),
            None => Err(self),
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
        let err1 = |mem, e| vec![SymBranch::err(mem, e, pc.clone())];
        let effect = match js_action_code(name) {
            None => return err1(self, err_expr(format!("unknown JS action {name}"))),
            Some(code::NEW_OBJ) => {
                let Some(args) = expr_args(arg, 2) else {
                    return err1(self, err_expr(arity(name, 2, arg)));
                };
                // Locations come from the allocator, so existence folds.
                if self.meta.get(&(), &args[0]).is_some() {
                    let err = err_expr(format!("newObj: {} already exists", args[0]));
                    return err1(self, err);
                }
                let new = Edit::SetMeta(args[0].clone(), args[1].clone());
                let new = SymBranch::ok(new, args[0].clone(), pc.clone());
                return successors(self, vec![new], Self::apply);
            }
            Some(code) => Effect::of(code).expect("every action but newObj has an effect"),
        };
        let args = match effect.args(arg) {
            Ok(args) => args,
            Err(n) => return err1(self, err_expr(arity(name, n, arg))),
        };
        // Branches are decided first, as edits; `successors` then builds
        // their memories, the last one reusing `self`. Each is decided
        // once, and keeps the condition its query checked.
        let mut out = Vec::new();
        let el = &args[0];
        let (objects, not_obj) = self.meta.aliases(&(), el, None, pc, solver);
        for (loc, meta, obj_eq, obj_pc) in objects {
            match effect {
                Effect::Object(_, act) => {
                    let (edit, value) = act(&args, loc, meta);
                    out.push(SymBranch::ok(edit, value, obj_pc));
                }
                // [SGetProp - Branch - Found] per key, plus the absent
                // branch, each decided under the object's equality.
                Effect::Property(_, act) => {
                    let (keys, absent) =
                        self.cells.aliases(loc, &args[1], Some(&obj_eq), pc, solver);
                    for (key, value, _, key_pc) in keys {
                        let (edit, value) = act(&args, loc, Some((key, value)));
                        out.push(SymBranch::ok(edit, value, key_pc));
                    }
                    if let Some(absent_pc) = decide(pc, solver, &absent) {
                        let (edit, value) = act(&args, loc, None);
                        out.push(SymBranch::ok(edit, value, absent_pc));
                    }
                }
            }
        }
        if let Some(pc) = decide(pc, solver, &not_obj) {
            out.push(SymBranch::err(Edit::Keep, not_an_object(name, el), pc));
        }
        successors(self, out, Self::apply)
    }

    fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        for ((_, loc), meta) in self.meta.iter() {
            out.extend(loc.lvars());
            out.extend(meta.lvars());
        }
        for ((loc, key), value) in self.cells.iter() {
            out.extend(loc.lvars());
            out.extend(key.lvars());
            out.extend(value.lvars());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::undefined_value;
    use gillian_gil::Sym;

    fn loc(i: u64) -> Value {
        Value::Sym(Sym(Sym::FIRST_FRESH + i))
    }

    fn new_obj(m: &mut JsConcMemory, i: u64) -> Value {
        let l = loc(i);
        m.execute_action("newObj", Value::List(vec![l.clone(), Value::str("Object")]))
            .unwrap();
        l
    }

    #[test]
    fn concrete_lifecycle() {
        let mut m = JsConcMemory::default();
        let l = new_obj(&mut m, 0);
        // getProp of an absent key is undefined (JS semantics).
        let v = m
            .execute_action("getProp", Value::List(vec![l.clone(), Value::str("k")]))
            .unwrap();
        assert_eq!(v, undefined_value());
        m.execute_action(
            "setProp",
            Value::List(vec![l.clone(), Value::num(0.0), Value::str("x")]),
        )
        .unwrap();
        assert_eq!(
            m.execute_action("getProp", Value::List(vec![l.clone(), Value::num(0.0)]))
                .unwrap(),
            Value::str("x")
        );
        assert_eq!(
            m.execute_action("hasProp", Value::List(vec![l.clone(), Value::num(0.0)]))
                .unwrap(),
            Value::Bool(true)
        );
        m.execute_action("delProp", Value::List(vec![l.clone(), Value::num(0.0)]))
            .unwrap();
        assert_eq!(
            m.execute_action("hasProp", Value::List(vec![l.clone(), Value::num(0.0)]))
                .unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            m.execute_action("getMeta", l.clone()).unwrap(),
            Value::str("Object")
        );
        m.execute_action("delObj", l.clone()).unwrap();
        assert!(m
            .execute_action("getProp", Value::List(vec![l, Value::str("k")]))
            .is_err());
    }

    #[test]
    fn concrete_non_object_accesses_error() {
        let mut m = JsConcMemory::default();
        for action in ["getProp", "setProp", "hasProp"] {
            let n = if action == "setProp" { 3 } else { 2 };
            let mut items = vec![undefined_value(), Value::str("k")];
            if n == 3 {
                items.push(Value::num(1.0));
            }
            assert!(
                m.execute_action(action, Value::List(items)).is_err(),
                "{action} on undefined must be a JS error"
            );
        }
    }

    #[test]
    fn symbolic_getprop_branches_on_symbolic_key() {
        // One object with keys "a" and "b"; a symbolic key must branch
        // three ways: k = "a", k = "b", k ∉ {a, b} → undefined.
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        m.insert_cell(l.clone(), Expr::str("b"), Expr::num(2.0));
        let k = Expr::lvar(LVar(0));
        let branches = m.execute_action("getProp", &Expr::list([l, k]), &pc, &solver);
        // 3 in-object branches; the not-an-object branch is infeasible for
        // a literal location… but the key lvar could equal the location?
        // No: `el` here is the literal location, so not_obj is false.
        assert_eq!(branches.len(), 3, "{branches:#?}");
        assert!(branches.iter().any(|b| b.outcome == Ok(undefined_expr())));
    }

    #[test]
    fn symbolic_getprop_with_concrete_key_is_deterministic() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        let branches = m.execute_action("getProp", &Expr::list([l, Expr::str("a")]), &pc, &solver);
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].outcome, Ok(Expr::num(1.0)));
        assert_eq!(branches[0].pc, pc, "and learns nothing");
    }

    #[test]
    fn symbolic_access_on_undefined_is_an_error_branch() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let m = JsSymMemory::default();
        let branches = m.execute_action(
            "getProp",
            &Expr::list([undefined_expr(), Expr::str("a")]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1);
        assert!(branches[0].outcome.is_err());
    }

    #[test]
    fn symbolic_setprop_overwrites_or_extends() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        let k = Expr::lvar(LVar(0));
        let branches =
            m.execute_action("setProp", &Expr::list([l, k, Expr::num(9.0)]), &pc, &solver);
        assert_eq!(branches.len(), 2);
        let sizes: Vec<usize> = branches.iter().map(|b| b.memory.cells.len()).collect();
        assert!(sizes.contains(&1), "overwrite branch");
        assert!(sizes.contains(&2), "extend branch");
    }

    /// One object at a literal location with one literal-keyed cell.
    fn one_object() -> (JsSymMemory, Expr) {
        let mut m = JsSymMemory::default();
        let l = Expr::Val(loc(0));
        m.insert_object(l.clone(), Expr::str("Object"));
        m.insert_cell(l.clone(), Expr::str("a"), Expr::num(1.0));
        (m, l)
    }

    #[test]
    fn single_successor_writes_are_in_place() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let set = |l: &Expr| Expr::list([l.clone(), Expr::str("b"), Expr::num(2.0)]);
        // The general path and the literal fast path alike.
        for coded in [false, true] {
            let (m, l) = one_object();
            let (meta, cells) = (m.meta.as_ptr(), m.cells.as_ptr());
            let branches = if coded {
                m.execute_action_coded(code::SET_PROP, "setProp", &set(&l), &pc, &solver)
            } else {
                m.execute_action("setProp", &set(&l), &pc, &solver)
            };
            assert_eq!(branches.len(), 1);
            assert_eq!(branches[0].memory.cells.as_ptr(), cells, "coded: {coded}");
            let mem = branches.into_iter().next().unwrap().memory;
            let retag = Expr::list([l, Expr::str("Array")]);
            let branches = if coded {
                mem.execute_action_coded(code::SET_META, "setMeta", &retag, &pc, &solver)
            } else {
                mem.execute_action("setMeta", &retag, &pc, &solver)
            };
            assert_eq!(branches.len(), 1);
            assert_eq!(branches[0].memory.meta.as_ptr(), meta, "coded: {coded}");
        }
    }

    #[test]
    fn clones_taken_before_a_write_are_isolated() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let (m, l) = one_object();
        let snapshot = m.clone();
        let set = Expr::list([l.clone(), Expr::str("a"), Expr::num(9.0)]);
        let branches =
            m.clone()
                .execute_action_coded(code::SET_PROP, "setProp", &set, &pc, &solver);
        assert_eq!(branches[0].memory.cells.len(), 1);
        assert_ne!(branches[0].memory, snapshot);
        assert_eq!(
            m, snapshot,
            "a write through a clone leaked into the original"
        );
        // Sibling branches of one action (overwrite `a` or extend) are
        // isolated from each other and from the pre-state.
        let k = Expr::lvar(LVar(0));
        let set = Expr::list([l.clone(), k, Expr::num(9.0)]);
        let branches = m.clone().execute_action("setProp", &set, &pc, &solver);
        assert_eq!(branches.len(), 2);
        assert_ne!(branches[0].memory, branches[1].memory);
        assert_eq!(m, snapshot);
        let branches = m.clone().execute_action("delObj", &l, &pc, &solver);
        assert_eq!(branches[0].memory.object_count(), 0);
        assert_eq!(m, snapshot);
    }
}
