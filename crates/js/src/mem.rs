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
//! Symbolically both components map logical expressions. The model has
//! eight actions — creation/deletion of objects, retrieval/update/deletion
//! of properties and metadata, plus property test:
//! `{newObj, delObj, getProp, setProp, delProp, hasProp, getMeta, setMeta}`.
//!
//! The symbolic `getProp` implements the paper's `SGetProp` rule: it
//! branches on the looked-up key equalling each key of the aliased object
//! (under the path condition), passing the learned equality back to the
//! state — plus the *absent* branch yielding `undefined` (JS semantics)
//! under the conjunction of the disequalities.

use crate::values::undefined_expr;
use gillian_core::memory::{literal_gate, successors, ConcreteMemory, SymBranch, SymbolicMemory};
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

fn value_args(arg: &Value, n: usize, action: &str) -> Result<Vec<Value>, Value> {
    match arg.as_list() {
        Some(items) if items.len() == n => Ok(items.to_vec()),
        _ => Err(err_value(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))),
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
        match name {
            "newObj" => {
                let args = value_args(&arg, 2, "newObj")?;
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
                let args = value_args(&arg, 2, "getProp")?;
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
                let args = value_args(&arg, 3, "setProp")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("setProp: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.cells)
                    .insert((args[0].clone(), args[1].clone()), args[2].clone());
                Ok(args[2].clone())
            }
            "delProp" => {
                let args = value_args(&arg, 2, "delProp")?;
                if !self.meta.contains_key(&args[0]) {
                    return Err(err_value(format!("delProp: {} is not an object", args[0])));
                }
                std::sync::Arc::make_mut(&mut self.cells)
                    .remove(&(args[0].clone(), args[1].clone()));
                Ok(Value::Bool(true))
            }
            "hasProp" => {
                let args = value_args(&arg, 2, "hasProp")?;
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
                let args = value_args(&arg, 2, "setMeta")?;
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
    meta: std::sync::Arc<BTreeMap<Expr, Expr>>,
    cells: std::sync::Arc<BTreeMap<(Expr, Expr), Expr>>,
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

impl JsSymMemory {
    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.meta.len()
    }

    /// Direct insertion for tests.
    pub fn insert_object(&mut self, loc: Expr, meta: Expr) -> Option<Expr> {
        std::sync::Arc::make_mut(&mut self.meta).insert(loc, meta)
    }

    /// Direct cell insertion for tests.
    pub fn insert_cell(&mut self, loc: Expr, key: Expr, value: Expr) -> Option<Expr> {
        std::sync::Arc::make_mut(&mut self.cells).insert((loc, key), value)
    }

    /// Iterates over objects (for the interpretation function).
    pub fn objects(&self) -> impl Iterator<Item = (&Expr, &Expr)> {
        self.meta.iter()
    }

    /// Iterates over heap cells (for the interpretation function).
    pub fn heap_cells(&self) -> impl Iterator<Item = (&(Expr, Expr), &Expr)> {
        self.cells.iter()
    }

    /// The keys defined on object `loc` (syntactically keyed cells), in
    /// order: an object's cells are contiguous in the map and start at
    /// `(loc, Expr::LEAST)`.
    fn keys_of(&self, loc: &Expr) -> Vec<Expr> {
        self.cells
            .range((loc.clone(), Expr::LEAST)..)
            .take_while(|((l, _), _)| l == loc)
            .map(|((_, k), _)| k.clone())
            .collect()
    }

    /// Applies a branch's memory effect (see [`Edit`]).
    fn apply(&mut self, edit: Edit) {
        match edit {
            Edit::Keep => {}
            Edit::SetMeta(loc, meta) => {
                std::sync::Arc::make_mut(&mut self.meta).insert(loc, meta);
            }
            Edit::DelObj(loc) => {
                std::sync::Arc::make_mut(&mut self.meta).remove(&loc);
                let keys = self.keys_of(&loc);
                if !keys.is_empty() {
                    let cells = std::sync::Arc::make_mut(&mut self.cells);
                    for key in keys {
                        cells.remove(&(loc.clone(), key));
                    }
                }
            }
            Edit::SetCell(loc, key, value) => {
                std::sync::Arc::make_mut(&mut self.cells).insert((loc, key), value);
            }
            Edit::DelCell(loc, key) => {
                std::sync::Arc::make_mut(&mut self.cells).remove(&(loc, key));
            }
        }
    }

    /// Matches `el` against the registered object locations: the feasible
    /// `(location, equality constraint)` pairs plus the
    /// not-any-object constraint.
    fn match_objects(
        &self,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> (Vec<(Expr, Expr)>, Expr) {
        let mut matches = Vec::new();
        let mut none_of = Expr::tt();
        for loc in self.meta.keys() {
            let eq = solver.simplify(pc, &el.clone().eq(loc.clone()));
            if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                matches.push((loc.clone(), eq));
            }
            none_of = none_of.and(el.clone().ne(loc.clone()));
        }
        (matches, solver.simplify(pc, &none_of))
    }

    /// Matches key `ek` against the keys of object `loc`.
    fn match_keys(
        &self,
        loc: &Expr,
        ek: &Expr,
        under: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> (Vec<(Expr, Expr)>, Expr) {
        let mut matches = Vec::new();
        let mut none_of = under.clone();
        for key in self.keys_of(loc) {
            let eq = solver.simplify(pc, &under.clone().and(ek.clone().eq(key.clone())));
            if eq.as_bool() != Some(false) && solver.sat_with(pc, &eq).possibly_sat() {
                matches.push((key.clone(), eq));
            }
            none_of = none_of.and(ek.clone().ne(key.clone()));
        }
        (matches, solver.simplify(pc, &none_of))
    }

    // ---- literal fast paths (bytecode backend only) -----------------
    //
    // When the looked-up location/key and every registered location/key
    // are literals, each equality in `match_objects`/`match_keys` folds
    // syntactically: the matched branch's constraint is the literal
    // `true`, every other candidate folds to `false`, and the
    // none-of-them disequality conjunction folds to `false` (a match
    // exists) or `true` (no match). `eval_binop(Eq)` is total and
    // `Value`'s derived `Eq`/`Ord` agree, so a `BTreeMap` hit is *the
    // same decision* the solver's constant folder would make. The branch
    // set is therefore decided without the solver — except for one
    // residual probe: `push_branch` gates the surviving branch on
    // `sat(pc ∧ true)`, which [`literal_gate`] preserves so an unsat
    // path condition yields the same empty branch set on both paths.
    // These helpers are reachable only from `execute_action_coded` (the
    // bytecode backend); the tree walk stays a byte-identical reference.

    /// Resolves a literal location against a fully-literal object table:
    /// `Some(found)` when the match folds for every registered object,
    /// `None` when any side is symbolic and `match_objects` must run.
    /// Literals sort before every non-literal, so the table is fully
    /// literal exactly when its last location is.
    fn literal_object(&self, el: &Expr) -> Option<Option<Expr>> {
        let all_literal = matches!(self.meta.keys().next_back(), None | Some(Expr::Val(_)));
        if !matches!(el, Expr::Val(_)) || !all_literal {
            return None;
        }
        Some(self.meta.get_key_value(el).map(|(loc, _)| loc.clone()))
    }

    /// Resolves a literal key against object `loc` when all of its keys
    /// are literal; `None` falls back to `match_keys`. The object's
    /// literal keys sort before its symbolic ones, so one probe at
    /// `(loc, Expr::least_symbolic())` finds a symbolic key if any.
    fn literal_key(&self, loc: &Expr, ek: &Expr) -> Option<Option<Expr>> {
        if !matches!(ek, Expr::Val(_)) {
            return None;
        }
        let first_symbolic = self
            .cells
            .range((loc.clone(), Expr::least_symbolic().clone())..)
            .next();
        if first_symbolic.is_some_and(|((l, _), _)| l == loc) {
            return None;
        }
        Some(
            self.cells
                .get_key_value(&(loc.clone(), ek.clone()))
                .map(|((_, k), _)| k.clone()),
        )
    }

    /// The non-object error branch shared by the literal fast paths.
    fn literal_not_obj(
        self,
        action: &str,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        literal_gate(
            pc,
            solver,
            vec![SymBranch::err_if(
                self,
                err_expr(format!("{action}: {el} is not an object")),
                Expr::tt(),
            )],
        )
    }

    // Every fast path owns the memory: the one branch it builds takes
    // `self` (a write mutates it in place), and `Err(self)` hands it back
    // untouched for the general path.

    fn fast_del_obj(
        mut self,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        Ok(match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => {
                self.apply(Edit::DelObj(loc));
                literal_gate(
                    pc,
                    solver,
                    vec![SymBranch::ok_if(self, Expr::tt(), Expr::tt())],
                )
            }
            Some(None) => self.literal_not_obj("delObj", el, pc, solver),
        })
    }

    fn fast_get_prop(
        self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Ok(args) = expr_args(arg, 2, "getProp") else {
            return Err(self);
        };
        let (el, ek) = (&args[0], &args[1]);
        let loc = match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => loc,
            Some(None) => return Ok(self.literal_not_obj("getProp", el, pc, solver)),
        };
        let value = match self.literal_key(&loc, ek) {
            None => return Err(self),
            Some(Some(key)) => self.cells[&(loc, key)].clone(),
            // Absent key reads as `undefined` (JS semantics).
            Some(None) => undefined_expr(),
        };
        Ok(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(self, value, Expr::tt())],
        ))
    }

    fn fast_set_prop(
        mut self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Ok(args) = expr_args(arg, 3, "setProp") else {
            return Err(self);
        };
        let (el, ek, ev) = (&args[0], &args[1], &args[2]);
        let loc = match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => loc,
            Some(None) => return Ok(self.literal_not_obj("setProp", el, pc, solver)),
        };
        // Overwrite keeps the stored key expression, extend inserts the
        // looked-up one — content-identical here (both fold equal).
        let Some(key) = self.literal_key(&loc, ek) else {
            return Err(self);
        };
        self.apply(Edit::SetCell(
            loc,
            key.unwrap_or_else(|| ek.clone()),
            ev.clone(),
        ));
        Ok(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(self, ev.clone(), Expr::tt())],
        ))
    }

    fn fast_del_prop(
        mut self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Ok(args) = expr_args(arg, 2, "delProp") else {
            return Err(self);
        };
        let (el, ek) = (&args[0], &args[1]);
        let loc = match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => loc,
            Some(None) => return Ok(self.literal_not_obj("delProp", el, pc, solver)),
        };
        match self.literal_key(&loc, ek) {
            None => return Err(self),
            Some(Some(key)) => self.apply(Edit::DelCell(loc, key)),
            // Deleting an absent property is a no-op, like JS.
            Some(None) => {}
        }
        Ok(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(self, Expr::tt(), Expr::tt())],
        ))
    }

    fn fast_has_prop(
        self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Ok(args) = expr_args(arg, 2, "hasProp") else {
            return Err(self);
        };
        let (el, ek) = (&args[0], &args[1]);
        let loc = match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => loc,
            Some(None) => return Ok(self.literal_not_obj("hasProp", el, pc, solver)),
        };
        let Some(found) = self.literal_key(&loc, ek) else {
            return Err(self);
        };
        Ok(literal_gate(
            pc,
            solver,
            vec![SymBranch::ok_if(
                self,
                Expr::bool(found.is_some()),
                Expr::tt(),
            )],
        ))
    }

    fn fast_get_meta(
        self,
        el: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        Ok(match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => {
                let meta = self.meta[&loc].clone();
                literal_gate(pc, solver, vec![SymBranch::ok_if(self, meta, Expr::tt())])
            }
            Some(None) => self.literal_not_obj("getMeta", el, pc, solver),
        })
    }

    fn fast_set_meta(
        mut self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Ok(args) = expr_args(arg, 2, "setMeta") else {
            return Err(self);
        };
        let (el, em) = (&args[0], &args[1]);
        Ok(match self.literal_object(el) {
            None => return Err(self),
            Some(Some(loc)) => {
                self.apply(Edit::SetMeta(loc, em.clone()));
                literal_gate(
                    pc,
                    solver,
                    vec![SymBranch::ok_if(self, em.clone(), Expr::tt())],
                )
            }
            Some(None) => self.literal_not_obj("setMeta", el, pc, solver),
        })
    }
}

/// Pushes a branch unless its constraint is trivially false or unsat.
fn push_branch<M>(
    out: &mut Vec<SymBranch<M>>,
    pc: &PathCondition,
    solver: &Solver,
    branch: SymBranch<M>,
) {
    if branch.constraint.as_bool() == Some(false) {
        return;
    }
    if solver.sat_with(pc, &branch.constraint).possibly_sat() {
        out.push(branch);
    }
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
        err_expr(format!(
            "{action}: expected {n}-element argument list, got {arg}"
        ))
    })
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
        // `newObj` never consults the solver, and a fast helper declines
        // whenever anything symbolic is involved; both fall back to the
        // general tree-walk implementation.
        let fast = match code {
            code::DEL_OBJ => self.fast_del_obj(arg, pc, solver),
            code::GET_PROP => self.fast_get_prop(arg, pc, solver),
            code::SET_PROP => self.fast_set_prop(arg, pc, solver),
            code::DEL_PROP => self.fast_del_prop(arg, pc, solver),
            code::HAS_PROP => self.fast_has_prop(arg, pc, solver),
            code::GET_META => self.fast_get_meta(arg, pc, solver),
            code::SET_META => self.fast_set_meta(arg, pc, solver),
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
        // their memories, the last one reusing `self`.
        let mut out: Vec<SymBranch<Edit>> = Vec::new();
        match name {
            "newObj" => {
                let args = match expr_args(arg, 2, "newObj") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                // Locations come from the allocator, so existence folds.
                if self.meta.contains_key(&args[0]) {
                    return vec![SymBranch::err_if(
                        self,
                        err_expr(format!("newObj: {} already exists", args[0])),
                        Expr::tt(),
                    )];
                }
                let new = Edit::SetMeta(args[0].clone(), args[1].clone());
                out.push(SymBranch::ok(new, args[0].clone()));
            }
            "delObj" => {
                let el = arg.clone();
                let (matches, none_of) = self.match_objects(&el, pc, solver);
                for (loc, eq) in matches {
                    let del = SymBranch::ok_if(Edit::DelObj(loc), Expr::tt(), eq);
                    push_branch(&mut out, pc, solver, del);
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("delObj: {el} is not an object")),
                        none_of,
                    ),
                );
            }
            "getProp" => {
                let args = match expr_args(arg, 2, "getProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let (el, ek) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    // [SGetProp - Branch - Found] per key, plus the absent
                    // branch yielding `undefined`.
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (key, eq) in keys {
                        let value = self.cells[&(loc.clone(), key)].clone();
                        push_branch(
                            &mut out,
                            pc,
                            solver,
                            SymBranch::ok_if(Edit::Keep, value, eq),
                        );
                    }
                    let absent = SymBranch::ok_if(Edit::Keep, undefined_expr(), none_key);
                    push_branch(&mut out, pc, solver, absent);
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("getProp: {el} is not an object")),
                        not_obj,
                    ),
                );
            }
            "setProp" => {
                let args = match expr_args(arg, 3, "setProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let (el, ek, ev) = (args[0].clone(), args[1].clone(), args[2].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (key, eq) in keys {
                        let set = Edit::SetCell(loc.clone(), key, ev.clone());
                        push_branch(&mut out, pc, solver, SymBranch::ok_if(set, ev.clone(), eq));
                    }
                    let extend = Edit::SetCell(loc, ek.clone(), ev.clone());
                    let extend = SymBranch::ok_if(extend, ev.clone(), none_key);
                    push_branch(&mut out, pc, solver, extend);
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("setProp: {el} is not an object")),
                        not_obj,
                    ),
                );
            }
            "delProp" => {
                let args = match expr_args(arg, 2, "delProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let (el, ek) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (key, eq) in keys {
                        let del = SymBranch::ok_if(Edit::DelCell(loc.clone(), key), Expr::tt(), eq);
                        push_branch(&mut out, pc, solver, del);
                    }
                    // Deleting an absent property is a no-op, like JS.
                    let absent = SymBranch::ok_if(Edit::Keep, Expr::tt(), none_key);
                    push_branch(&mut out, pc, solver, absent);
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("delProp: {el} is not an object")),
                        not_obj,
                    ),
                );
            }
            "hasProp" => {
                let args = match expr_args(arg, 2, "hasProp") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let (el, ek) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let (keys, none_key) = self.match_keys(&loc, &ek, &obj_eq, pc, solver);
                    for (_, eq) in keys {
                        push_branch(
                            &mut out,
                            pc,
                            solver,
                            SymBranch::ok_if(Edit::Keep, Expr::tt(), eq),
                        );
                    }
                    let absent = SymBranch::ok_if(Edit::Keep, Expr::ff(), none_key);
                    push_branch(&mut out, pc, solver, absent);
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("hasProp: {el} is not an object")),
                        not_obj,
                    ),
                );
            }
            "getMeta" => {
                let el = arg.clone();
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let meta = self.meta[&loc].clone();
                    push_branch(
                        &mut out,
                        pc,
                        solver,
                        SymBranch::ok_if(Edit::Keep, meta, obj_eq),
                    );
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("getMeta: {el} is not an object")),
                        not_obj,
                    ),
                );
            }
            "setMeta" => {
                let args = match expr_args(arg, 2, "setMeta") {
                    Ok(a) => a,
                    Err(e) => return vec![SymBranch::err_if(self, e, Expr::tt())],
                };
                let (el, em) = (args[0].clone(), args[1].clone());
                let (objs, not_obj) = self.match_objects(&el, pc, solver);
                for (loc, obj_eq) in objs {
                    let set = SymBranch::ok_if(Edit::SetMeta(loc, em.clone()), em.clone(), obj_eq);
                    push_branch(&mut out, pc, solver, set);
                }
                push_branch(
                    &mut out,
                    pc,
                    solver,
                    SymBranch::err_if(
                        Edit::Keep,
                        err_expr(format!("setMeta: {el} is not an object")),
                        not_obj,
                    ),
                );
            }
            other => {
                return vec![SymBranch::err_if(
                    self,
                    err_expr(format!("unknown JS action {other}")),
                    Expr::tt(),
                )]
            }
        }
        successors(self, out, Self::apply)
    }

    fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        for (loc, meta) in self.meta.iter() {
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
    use proptest::prelude::*;
    use std::sync::Arc;

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
        assert_eq!(branches[0].constraint.as_bool(), Some(true));
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
            let (meta, cells) = (Arc::as_ptr(&m.meta), Arc::as_ptr(&m.cells));
            let branches = if coded {
                m.execute_action_coded(code::SET_PROP, "setProp", &set(&l), &pc, &solver)
            } else {
                m.execute_action("setProp", &set(&l), &pc, &solver)
            };
            assert_eq!(branches.len(), 1);
            assert_eq!(
                Arc::as_ptr(&branches[0].memory.cells),
                cells,
                "coded: {coded}"
            );
            let mem = branches.into_iter().next().unwrap().memory;
            let retag = Expr::list([l, Expr::str("Array")]);
            let branches = if coded {
                mem.execute_action_coded(code::SET_META, "setMeta", &retag, &pc, &solver)
            } else {
                mem.execute_action("setMeta", &retag, &pc, &solver)
            };
            assert_eq!(branches.len(), 1);
            assert_eq!(
                Arc::as_ptr(&branches[0].memory.meta),
                meta,
                "coded: {coded}"
            );
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

    // The definitions the ordered-map lookups replaced: full scans.

    fn scan_keys_of(m: &JsSymMemory, loc: &Expr) -> Vec<Expr> {
        m.cells
            .keys()
            .filter(|(l, _)| l == loc)
            .map(|(_, k)| k.clone())
            .collect()
    }

    fn scan_literal_object(m: &JsSymMemory, el: &Expr) -> Option<Option<Expr>> {
        let all_literal = m.meta.keys().all(|e| matches!(e, Expr::Val(_)));
        if !matches!(el, Expr::Val(_)) || !all_literal {
            return None;
        }
        Some(m.meta.get_key_value(el).map(|(loc, _)| loc.clone()))
    }

    fn scan_literal_key(m: &JsSymMemory, loc: &Expr, ek: &Expr) -> Option<Option<Expr>> {
        if !matches!(ek, Expr::Val(_)) {
            return None;
        }
        let mut found = None;
        for (l, k) in m.cells.keys() {
            if l == loc {
                if !matches!(k, Expr::Val(_)) {
                    return None;
                }
                if k == ek {
                    found = Some(k.clone());
                }
            }
        }
        Some(found)
    }

    /// Literal and symbolic locations.
    fn arb_loc() -> impl Strategy<Value = Expr> {
        prop_oneof![
            3 => (0u64..4).prop_map(|i| Expr::Val(loc(i))),
            1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i))),
        ]
    }

    /// Literal keys of several types, and symbolic keys.
    fn arb_key() -> impl Strategy<Value = Expr> {
        prop_oneof![
            2 => (0u8..4).prop_map(|i| Expr::str(format!("k{i}"))),
            2 => (0u8..4).prop_map(|i| Expr::num(i as f64)),
            1 => (0i64..2).prop_map(Expr::int),
            1 => (0u64..3).prop_map(|i| Expr::lvar(LVar(i))),
            1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i)).add(Expr::int(1))),
            1 => Just(Expr::pvar("")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ordered_lookups_match_full_scans(
            objects in proptest::collection::vec(arb_loc(), 0..5),
            cells in proptest::collection::vec((arb_loc(), arb_key()), 0..12),
            probes in proptest::collection::vec((arb_loc(), arb_key()), 1..6),
        ) {
            let mut m = JsSymMemory::default();
            for l in objects {
                m.insert_object(l, Expr::str("Object"));
            }
            for (i, (l, k)) in cells.into_iter().enumerate() {
                m.insert_cell(l, k, Expr::int(i as i64));
            }
            for (l, k) in probes {
                prop_assert_eq!(m.keys_of(&l), scan_keys_of(&m, &l));
                prop_assert_eq!(m.literal_object(&l), scan_literal_object(&m, &l));
                prop_assert_eq!(m.literal_key(&l, &k), scan_literal_key(&m, &l, &k));
            }
        }
    }
}
