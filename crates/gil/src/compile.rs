//! Compilation of GIL procedures to flat register bytecode.
//!
//! The tree-walking interpreter re-traverses every [`Expr`] on every
//! execution of every command. This module lowers each [`Proc`] once, at
//! program load, into a flat instruction vector ([`CompiledProc`]) whose
//! per-command work is precomputed:
//!
//! - **Superinstructions.** Each GIL command becomes exactly one [`Instr`]
//!   that fuses the command with its expression evaluation: `Assign` is
//!   eval+assign, `CmpGoto` is compare+branch, and division by a nonzero
//!   literal carries a `div_nz` guard elision (see [`ExprKind::Bin1`]).
//!   Constant operands are folded into the instruction stream at compile
//!   time (load-const+op fusion), so no register traffic is spent on them.
//! - **Register expressions.** Expressions too complex for a fused form
//!   are flattened post-order into a [`RegProg`]: a short sequence of
//!   register ops evaluated over a reusable per-run register bank
//!   ([`EvalScratch`]). Transient values live in that arena and are
//!   overwritten in place on the next evaluation instead of allocating a
//!   fresh spine of `Value`s per visit.
//! - **Label→pc map.** GIL labels *are* command indices, and compilation
//!   is 1:1 (one `Instr` per [`Cmd`]), so the label→pc map is the
//!   identity: `pc == idx`. This is load-bearing — call frames, branch
//!   traces, and checkpoints identify program points by `(proc, idx)`,
//!   and the identity map keeps those identities byte-compatible between
//!   the bytecode and the reference tree walk.
//! - **Frame slots.** Each procedure gets a [`Layout`]: its parameters
//!   and every variable it assigns or reads, sorted by name. Compiled code
//!   names a variable by its slot in that layout alone — instruction
//!   targets, [`ExprKind::Var`]/[`ExprKind::Bin1`] and [`EOp::Load`] — and
//!   reads and writes a [`Frame`] laid out the same way by index. Error
//!   text takes the name back from the frame's layout. Slots are numbered
//!   by first occurrence while a body compiles, then renumbered to name
//!   order once the walk has seen every variable.
//! - **Inline caches.** Every `Action` site carries an [`AtomicU32`]
//!   inline cache resolving the stringly-named memory action to the
//!   memory model's dense action code on first execution. Programs are
//!   immutable after compile and a run binds exactly one memory model,
//!   so the cache is never invalidated. `Call` sites whose callee is a
//!   literal procedure value are resolved to a dense procedure id at
//!   compile time ([`ProcHint`]).
//!
//! Exact-equivalence contract: for every expression and store, the
//! compiled evaluators produce the same `Result` — same values, same
//! [`EvalError`] text, same *first* error when several subterms would
//! fail — as [`crate::eval::eval`]. The compiler only elides work it can
//! prove irrelevant: a folded subtree is one that provably never errors,
//! and removing a non-erroring subtree cannot change which error fires
//! first among the rest.

use crate::eval::eval_closed;
use crate::expr::{Expr, LVar};
use crate::frame::{Frame, Layout};
use crate::hashing::FxBuildHasher;
use crate::intern::Term;
use crate::ops::{eval_binop, eval_lstcat, eval_strcat, eval_unop, BinOp, EvalError, UnOp};
use crate::prog::{Cmd, Ident, Label, Proc, Prog};
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

/// Inline-cache sentinel: the action at this site has not been resolved.
pub const IC_UNRESOLVED: u32 = 0;
/// Inline-cache sentinel: the memory model has no dense code for this
/// action; dispatch falls back to the stringly-named path.
pub const IC_NO_CODE: u32 = 1;
/// Bias added to a resolved action code when stored in the inline cache
/// (so codes never collide with the two sentinels).
pub const IC_BIAS: u32 = 2;

/// The register bank backing [`RegProg`] evaluation — the bytecode
/// backend's bump arena, one per exploration run. Registers are allocated
/// once, grown to the widest expression seen, and overwritten in place on
/// every evaluation; nothing is freed until the run ends.
#[derive(Debug, Default)]
pub struct EvalScratch {
    regs: Vec<Value>,
    /// Symbolic twin of `regs`: expression-valued registers for
    /// [`RegProg::run_symbolic`].
    sregs: Vec<Expr>,
}

impl EvalScratch {
    /// A fresh, empty register bank.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    /// Grows the bank to at least `n` registers and hands out the slice.
    fn regs(&mut self, n: u32) -> &mut [Value] {
        if self.regs.len() < n as usize {
            self.regs.resize(n as usize, Value::nil());
        }
        &mut self.regs
    }

    /// Grows the symbolic bank to at least `n` registers.
    fn sregs(&mut self, n: u32) -> &mut [Expr] {
        if self.sregs.len() < n as usize {
            self.sregs.resize(n as usize, Expr::Val(Value::nil()));
        }
        &mut self.sregs
    }
}

/// An operand of a register op: a register, or a constant folded into the
/// instruction stream at compile time.
#[derive(Clone, Debug, PartialEq)]
pub enum Operand {
    /// Read register `r`.
    Reg(u32),
    /// A compile-time constant.
    Const(Value),
}

/// One op of a flattened expression ([`RegProg`]).
///
/// Ops appear in the *post-order evaluation position* of the subterm they
/// came from: `Load` sits exactly where the tree walk would look the
/// variable up, so an unbound-variable error fires in the same relative
/// order as every other error.
#[derive(Clone, Debug, PartialEq)]
pub enum EOp {
    /// `dst := ρ(var)`; errors with "unbound variable" like the tree walk.
    Load {
        /// The slot of the program variable to read.
        var: u32,
        /// Destination register.
        dst: u32,
    },
    /// A logical variable: an error in concrete evaluation (kept at its
    /// evaluation position), a kept-symbolic leaf in symbolic evaluation.
    LVarErr {
        /// The offending logical variable.
        var: LVar,
        /// Destination register (symbolic evaluation only).
        dst: u32,
    },
    /// `dst := src` — materializes an operand into a register window.
    Copy {
        /// Source operand.
        src: Operand,
        /// Destination register.
        dst: u32,
    },
    /// `dst := op src` via [`eval_unop`].
    Un {
        /// The unary operator.
        op: UnOp,
        /// Source operand.
        src: Operand,
        /// Destination register.
        dst: u32,
    },
    /// `dst := a op b` via [`eval_binop`].
    Bin {
        /// The binary operator.
        op: BinOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Destination register.
        dst: u32,
    },
    /// `dst := [regs[base], …, regs[base+n-1]]`.
    List {
        /// First register of the contiguous element window.
        base: u32,
        /// Window length.
        n: u32,
        /// Destination register.
        dst: u32,
    },
    /// `dst := strcat(regs[base..base+n])` via [`eval_strcat`].
    StrCat {
        /// First register of the contiguous element window.
        base: u32,
        /// Window length.
        n: u32,
        /// Destination register.
        dst: u32,
    },
    /// `dst := lstcat(regs[base..base+n])` via [`eval_lstcat`].
    LstCat {
        /// First register of the contiguous element window.
        base: u32,
        /// Window length.
        n: u32,
        /// Destination register.
        dst: u32,
    },
}

/// A flattened expression: straight-line register ops plus the operand
/// holding the final result.
#[derive(Clone, Debug, PartialEq)]
pub struct RegProg {
    ops: Vec<EOp>,
    out: Operand,
    max_regs: u32,
}

/// Stack-discipline register allocator used while flattening.
struct Builder<'s> {
    ops: Vec<EOp>,
    next: u32,
    max: u32,
    slot: &'s mut dyn FnMut(&Ident) -> u32,
}

/// True when `e` mentions no program variable.
fn closed(e: &Expr) -> bool {
    match e {
        Expr::Val(_) | Expr::LVar(_) => true,
        Expr::PVar(_) => false,
        Expr::Un(_, t) => closed(t),
        Expr::Bin(_, a, b) => closed(a) && closed(b),
        Expr::List(es) | Expr::StrCat(es) | Expr::LstCat(es) => es.iter().all(closed),
    }
}

impl Builder<'_> {
    fn alloc(&mut self) -> u32 {
        let r = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        r
    }

    fn free_to(&mut self, mark: u32) {
        self.next = mark;
    }

    fn place(&mut self, want: Option<u32>) -> u32 {
        match want {
            Some(d) => d,
            None => self.alloc(),
        }
    }

    /// Returns a constant result, copying it into `want` when the caller
    /// needs it materialized (a register-window slot).
    fn put_const(&mut self, v: Value, want: Option<u32>) -> Operand {
        match want {
            Some(dst) => {
                self.ops.push(EOp::Copy {
                    src: Operand::Const(v),
                    dst,
                });
                Operand::Reg(dst)
            }
            None => Operand::Const(v),
        }
    }

    /// Flattens `e` post-order. With `want = Some(d)` the result is
    /// materialized in register `d`; otherwise it may come back as a
    /// constant or a freshly allocated register.
    fn flatten(&mut self, e: &Expr, want: Option<u32>) -> Operand {
        // A subtree without program variables evaluates the same on every
        // run. Fold the *successful* ones away entirely — eliding a
        // subtree that provably never errors cannot reorder the errors
        // that remain. Erroring closed subtrees keep their positional ops
        // below, so the first-error position is preserved exactly.
        if !matches!(e, Expr::Val(_)) && closed(e) {
            if let Ok(v) = eval_closed(e) {
                return self.put_const(v, want);
            }
        }
        match e {
            Expr::Val(v) => self.put_const(v.clone(), want),
            Expr::PVar(x) => {
                let dst = self.place(want);
                let var = (self.slot)(x);
                self.ops.push(EOp::Load { var, dst });
                Operand::Reg(dst)
            }
            Expr::LVar(x) => {
                let dst = self.place(want);
                self.ops.push(EOp::LVarErr { var: *x, dst });
                Operand::Reg(dst)
            }
            Expr::Un(op, t) => {
                let mark = self.next;
                let src = self.flatten(t, None);
                self.free_to(mark);
                let dst = self.place(want);
                self.ops.push(EOp::Un { op: *op, src, dst });
                Operand::Reg(dst)
            }
            Expr::Bin(op, a, b) => {
                let mark = self.next;
                let oa = self.flatten(a, None);
                let ob = self.flatten(b, None);
                self.free_to(mark);
                let dst = self.place(want);
                self.ops.push(EOp::Bin {
                    op: *op,
                    a: oa,
                    b: ob,
                    dst,
                });
                Operand::Reg(dst)
            }
            Expr::List(es) | Expr::StrCat(es) | Expr::LstCat(es) => {
                let mark = self.next;
                let n = es.len() as u32;
                let base = self.next;
                self.next += n;
                self.max = self.max.max(self.next);
                for (i, el) in es.iter().enumerate() {
                    let inner = self.next;
                    self.flatten(el, Some(base + i as u32));
                    self.free_to(inner);
                }
                self.free_to(mark);
                let dst = self.place(want);
                self.ops.push(match e {
                    Expr::List(_) => EOp::List { base, n, dst },
                    Expr::StrCat(_) => EOp::StrCat { base, n, dst },
                    _ => EOp::LstCat { base, n, dst },
                });
                Operand::Reg(dst)
            }
        }
    }
}

/// The slot of `x` in a layout that must list it.
fn slot_in(layout: &Layout, x: &str) -> u32 {
    layout
        .slot(x)
        .unwrap_or_else(|| panic!("variable {x} is not in the layout"))
}

/// Reads slot `var` of a concrete store, with the tree walk's error for an
/// unbound variable.
fn load(store: &Frame<Value>, var: u32) -> Result<&Value, EvalError> {
    store
        .get_slot(var)
        .ok_or_else(|| EvalError::new(format!("unbound variable {}", store.layout().name(var))))
}

fn operand<'a>(regs: &'a [Value], o: &'a Operand) -> &'a Value {
    match o {
        Operand::Reg(r) => &regs[*r as usize],
        Operand::Const(v) => v,
    }
}

impl RegProg {
    /// Flattens an expression into register ops, naming its variables by
    /// their slots in `layout`.
    ///
    /// # Panics
    ///
    /// When `layout` lacks a program variable of `e`.
    pub fn flatten(e: &Expr, layout: &Layout) -> RegProg {
        RegProg::build(e, &mut |x| slot_in(layout, x))
    }

    fn build(e: &Expr, slot: &mut dyn FnMut(&Ident) -> u32) -> RegProg {
        let mut b = Builder {
            ops: Vec::new(),
            next: 0,
            max: 0,
            slot,
        };
        let out = b.flatten(e, None);
        RegProg {
            ops: b.ops,
            out,
            max_regs: b.max,
        }
    }

    /// The flattened ops (inspectable in tests).
    pub fn ops(&self) -> &[EOp] {
        &self.ops
    }

    /// Evaluates the flattened expression against a concrete store laid
    /// out by the layout it was flattened against.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`crate::eval::eval`] on the source
    /// expression, in the same order.
    pub fn run(&self, store: &Frame<Value>, scratch: &mut EvalScratch) -> Result<Value, EvalError> {
        let regs = scratch.regs(self.max_regs);
        for op in &self.ops {
            match op {
                EOp::Load { var, dst } => {
                    regs[*dst as usize] = load(store, *var)?.clone();
                }
                EOp::LVarErr { var, .. } => {
                    return Err(EvalError::new(format!(
                        "logical variable {var} in concrete evaluation"
                    )));
                }
                EOp::Copy { src, dst } => {
                    let v = operand(regs, src).clone();
                    regs[*dst as usize] = v;
                }
                EOp::Un { op, src, dst } => {
                    let v = eval_unop(*op, operand(regs, src))?;
                    regs[*dst as usize] = v;
                }
                EOp::Bin { op, a, b, dst } => {
                    let v = eval_binop(*op, operand(regs, a), operand(regs, b))?;
                    regs[*dst as usize] = v;
                }
                EOp::List { base, n, dst } => {
                    let v = Value::List(regs[*base as usize..(*base + *n) as usize].to_vec());
                    regs[*dst as usize] = v;
                }
                EOp::StrCat { base, n, dst } => {
                    let v = eval_strcat(&regs[*base as usize..(*base + *n) as usize])?;
                    regs[*dst as usize] = v;
                }
                EOp::LstCat { base, n, dst } => {
                    let v = eval_lstcat(&regs[*base as usize..(*base + *n) as usize])?;
                    regs[*dst as usize] = v;
                }
            }
        }
        Ok(match &self.out {
            Operand::Reg(r) => scratch.regs[*r as usize].clone(),
            Operand::Const(v) => v.clone(),
        })
    }

    /// Evaluates the flattened expression against a *symbolic* store,
    /// folding literal subresults in value space.
    ///
    /// Contract: for every store ρ and simplifier tier `S` (both
    /// `simplify_basic` and the typed tier), `S(run_symbolic(ρ)) ==
    /// S(ρ-substitution of the source)`. This holds because every fold
    /// performed here is exactly `S`'s own literal fold — `eval_unop` /
    /// `eval_binop` on success, the residual node on failure, all-literal
    /// list promotion — and `S` is an idempotent bottom-up rewriter, so
    /// pre-folding a subtree to its `S`-normal form cannot change the
    /// root result. String/list concatenations are *not* folded here
    /// (their `S`-rules merge adjacent literals rather than requiring all
    /// literals); they are rebuilt and left to the root simplify.
    ///
    /// Compile-time `Const` operands are sound symbolically: `flatten`
    /// only folds a closed subtree when strict concrete evaluation
    /// succeeds, which (strictness) means every subnode folds, so both
    /// tiers collapse the same subtree to the same literal.
    ///
    /// # Errors
    ///
    /// `Err(var)` for the first unbound program variable in
    /// left-to-right leaf order — the variable the substitution walk
    /// reports. Logical variables are kept symbolic, not errors.
    pub fn run_symbolic(
        &self,
        store: &Frame<Expr>,
        scratch: &mut EvalScratch,
    ) -> Result<Expr, Ident> {
        // Registers obey stack discipline: each is written before it is
        // read and read exactly once (operands are distinct subtree
        // results), so reads *take* the slot instead of cloning.
        fn take(regs: &mut [Expr], o: &Operand) -> Expr {
            match o {
                Operand::Reg(r) => {
                    std::mem::replace(&mut regs[*r as usize], Expr::Val(Value::Bool(false)))
                }
                Operand::Const(v) => Expr::Val(v.clone()),
            }
        }
        let regs = scratch.sregs(self.max_regs);
        for op in &self.ops {
            match op {
                EOp::Load { var, dst } => {
                    let v = store
                        .get_slot(*var)
                        .ok_or_else(|| store.layout().name(*var).clone())?;
                    regs[*dst as usize] = v.clone();
                }
                EOp::LVarErr { var, dst } => {
                    regs[*dst as usize] = Expr::LVar(*var);
                }
                EOp::Copy { src, dst } => {
                    let v = take(regs, src);
                    regs[*dst as usize] = v;
                }
                EOp::Un { op, src, dst } => {
                    let x = take(regs, src);
                    let v = match &x {
                        Expr::Val(xv) => match eval_unop(*op, xv) {
                            Ok(f) => Expr::Val(f),
                            Err(_) => Expr::Un(*op, x.into()),
                        },
                        _ => Expr::Un(*op, x.into()),
                    };
                    regs[*dst as usize] = v;
                }
                EOp::Bin { op, a, b, dst } => {
                    let xa = take(regs, a);
                    let xb = take(regs, b);
                    let v = match (&xa, &xb) {
                        (Expr::Val(va), Expr::Val(vb)) => match eval_binop(*op, va, vb) {
                            Ok(f) => Expr::Val(f),
                            Err(_) => Expr::Bin(*op, xa.into(), xb.into()),
                        },
                        _ => Expr::Bin(*op, xa.into(), xb.into()),
                    };
                    regs[*dst as usize] = v;
                }
                EOp::List { base, n, dst } => {
                    let window = *base as usize..(*base + *n) as usize;
                    let v = if regs[window.clone()]
                        .iter()
                        .all(|e| matches!(e, Expr::Val(_)))
                    {
                        // `promote_list`'s canonical form for all-literal
                        // lists, built without interning a node.
                        Expr::Val(Value::List(
                            regs[window]
                                .iter_mut()
                                .map(|e| {
                                    match std::mem::replace(e, Expr::Val(Value::Bool(false))) {
                                        Expr::Val(v) => v,
                                        _ => unreachable!("window checked all-literal"),
                                    }
                                })
                                .collect(),
                        ))
                    } else {
                        Expr::List(
                            regs[window]
                                .iter_mut()
                                .map(|e| std::mem::replace(e, Expr::Val(Value::Bool(false))))
                                .collect::<Vec<_>>()
                                .into(),
                        )
                    };
                    regs[*dst as usize] = v;
                }
                EOp::StrCat { base, n, dst } => {
                    let window = *base as usize..(*base + *n) as usize;
                    let v = Expr::StrCat(
                        regs[window]
                            .iter_mut()
                            .map(|e| std::mem::replace(e, Expr::Val(Value::Bool(false))))
                            .collect::<Vec<_>>()
                            .into(),
                    );
                    regs[*dst as usize] = v;
                }
                EOp::LstCat { base, n, dst } => {
                    let window = *base as usize..(*base + *n) as usize;
                    let v = Expr::LstCat(
                        regs[window]
                            .iter_mut()
                            .map(|e| std::mem::replace(e, Expr::Val(Value::Bool(false))))
                            .collect::<Vec<_>>()
                            .into(),
                    );
                    regs[*dst as usize] = v;
                }
            }
        }
        Ok(match &self.out {
            Operand::Reg(r) => std::mem::replace(
                &mut scratch.sregs[*r as usize],
                Expr::Val(Value::Bool(false)),
            ),
            Operand::Const(v) => Expr::Val(v.clone()),
        })
    }
}

/// The compiled evaluation strategy for one expression site.
///
/// Picked once at compile; hot kinds avoid both the tree walk and, where
/// possible, any register traffic. Backends that want the original tree
/// (the symbolic general case) read it back via [`ExprCode::source`].
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// A literal: evaluation is a clone.
    Lit(Value),
    /// A program-variable-free expression: its concrete result — value
    /// *or* error — is fixed at compile time. (Symbolically it may still
    /// depend on the path condition and is re-simplified per path.)
    Closed(Result<Value, EvalError>),
    /// A bare variable read, by slot.
    Var(u32),
    /// `x op lit` / `lit op x` — the fused one-variable binop.
    Bin1 {
        /// The binary operator.
        op: BinOp,
        /// The slot of the program variable side.
        var: u32,
        /// The literal side, pre-extracted.
        lit: Value,
        /// The literal side's original interned term, reused when the
        /// symbolic backend rebuilds the substituted expression (shares
        /// the node exactly as `Expr::subst` would).
        lit_term: Term,
        /// True when the variable is the left operand.
        var_on_left: bool,
        /// Guard elision: `op` is integer division and `lit` is a nonzero
        /// integer divisor, so the zero check is statically discharged.
        div_nz: bool,
    },
    /// The general case: a flattened register program.
    Reg(RegProg),
}

/// A compiled expression site: the chosen strategy plus the source tree
/// for backends that need it.
#[derive(Clone, Debug)]
pub struct ExprCode {
    source: Expr,
    kind: ExprKind,
}

impl ExprCode {
    /// Compiles one expression site, naming its variables by their slots
    /// in `layout`.
    ///
    /// # Panics
    ///
    /// When `layout` lacks a program variable of `e`.
    pub fn new(e: &Expr, layout: &Layout) -> ExprCode {
        ExprCode::build(e, &mut |x| slot_in(layout, x))
    }

    fn build(e: &Expr, slot: &mut dyn FnMut(&Ident) -> u32) -> ExprCode {
        let kind = match e {
            Expr::Val(v) => ExprKind::Lit(v.clone()),
            _ if closed(e) => ExprKind::Closed(eval_closed(e)),
            Expr::PVar(x) => ExprKind::Var(slot(x)),
            Expr::Bin(op, a, b) => match (&**a, &**b) {
                (Expr::PVar(x), Expr::Val(v)) => ExprKind::Bin1 {
                    op: *op,
                    var: slot(x),
                    lit: v.clone(),
                    lit_term: b.clone(),
                    var_on_left: true,
                    div_nz: *op == BinOp::Div && matches!(v, Value::Int(n) if *n != 0),
                },
                (Expr::Val(v), Expr::PVar(x)) => ExprKind::Bin1 {
                    op: *op,
                    var: slot(x),
                    lit: v.clone(),
                    lit_term: a.clone(),
                    var_on_left: false,
                    div_nz: false,
                },
                _ => ExprKind::Reg(RegProg::build(e, slot)),
            },
            _ => ExprKind::Reg(RegProg::build(e, slot)),
        };
        ExprCode {
            source: e.clone(),
            kind,
        }
    }

    /// The source expression this site was compiled from.
    pub fn source(&self) -> &Expr {
        &self.source
    }

    /// The compiled strategy.
    pub fn kind(&self) -> &ExprKind {
        &self.kind
    }

    /// Evaluates against a concrete store laid out by the layout the site
    /// was compiled against — same results, same errors, same error order
    /// as [`crate::eval::eval`] on [`Self::source`].
    ///
    /// # Errors
    ///
    /// Exactly the [`EvalError`]s of the tree walk.
    pub fn eval_concrete(
        &self,
        store: &Frame<Value>,
        scratch: &mut EvalScratch,
    ) -> Result<Value, EvalError> {
        match &self.kind {
            ExprKind::Lit(v) => Ok(v.clone()),
            ExprKind::Closed(r) => r.clone(),
            ExprKind::Var(x) => load(store, *x).cloned(),
            ExprKind::Bin1 {
                op,
                var,
                lit,
                var_on_left,
                div_nz,
                ..
            } => {
                // The literal side never errors, so the variable lookup is
                // always the first (and only) possible pre-operator error.
                let v = load(store, *var)?;
                if *div_nz {
                    if let (Value::Int(a), Value::Int(b)) = (v, lit) {
                        return Ok(Value::Int(a.wrapping_div(*b)));
                    }
                }
                if *var_on_left {
                    eval_binop(*op, v, lit)
                } else {
                    eval_binop(*op, lit, v)
                }
            }
            ExprKind::Reg(rp) => rp.run(store, scratch),
        }
    }
}

/// A compiled GIL command. One [`Instr`] per [`Cmd`], in source order, so
/// `pc == idx` (see the module docs on why that identity matters).
#[derive(Debug)]
pub enum Instr {
    /// Fused eval+assign: `x := e`.
    Assign {
        /// Slot of the assigned variable.
        lhs: u32,
        /// Compiled right-hand side.
        code: ExprCode,
    },
    /// Fused compare+branch: `ifgoto e target`.
    CmpGoto {
        /// Compiled guard.
        code: ExprCode,
        /// Jump target when the guard holds (`pc == label`).
        target: Label,
    },
    /// Unconditional jump.
    Goto {
        /// Jump target (`pc == label`).
        target: Label,
    },
    /// Procedure call.
    Call {
        /// Slot of the variable receiving the return value.
        lhs: u32,
        /// Compiled callee expression.
        code: ExprCode,
        /// Compiled argument expressions, in order.
        args: Vec<ExprCode>,
        /// Static resolution of a literal callee, when available.
        hint: Option<ProcHint>,
    },
    /// Return to the caller (or finish the path at the top frame).
    Return {
        /// Compiled return expression.
        code: ExprCode,
    },
    /// Fail with the evaluated (or failed-to-evaluate) value.
    Fail {
        /// Compiled payload expression.
        code: ExprCode,
    },
    /// Silently discard the path.
    Vanish,
    /// Memory action `x := α(e)` with a per-site inline cache.
    Action {
        /// Slot of the variable receiving the action result.
        lhs: u32,
        /// The stringly-typed action name (the IC's fallback key).
        name: Ident,
        /// Compiled argument expression.
        code: ExprCode,
        /// Inline cache: [`IC_UNRESOLVED`], [`IC_NO_CODE`], or the memory
        /// model's dense action code biased by [`IC_BIAS`]. Never
        /// invalidated — programs are immutable after compile and a run
        /// binds one memory model.
        ic: AtomicU32,
    },
    /// Fresh uninterpreted symbol.
    USym {
        /// Slot of the variable receiving the symbol.
        lhs: u32,
        /// Allocation site id.
        site: u32,
    },
    /// Fresh interpreted symbol.
    ISym {
        /// Slot of the variable receiving the symbol.
        lhs: u32,
        /// Allocation site id.
        site: u32,
    },
    /// No-op.
    Skip,
}

/// Compile-time resolution of a literal callee.
#[derive(Clone, Debug)]
pub struct ProcHint {
    /// The statically known callee name.
    pub name: Ident,
    /// Its dense procedure id, when the program defines it. `None` keeps
    /// the "unknown procedure" error alive at run time — raised *after*
    /// argument evaluation, exactly as the tree walk orders it.
    pub pid: Option<u32>,
}

/// One compiled procedure.
#[derive(Debug)]
pub struct CompiledProc {
    /// The procedure name.
    pub name: Ident,
    /// The procedure's variables: parameters, assigned and read, sorted by
    /// name. Every slot operand of [`Self::body`] indexes it.
    pub layout: Arc<Layout>,
    /// The slot of each parameter, in parameter order.
    pub param_slots: Vec<u32>,
    /// The instruction vector (`pc == idx` into the source body).
    pub body: Vec<Instr>,
}

/// One procedure slot: the source body (expression handles, so the clone
/// is cheap) plus its once-compiled form.
#[derive(Debug)]
struct ProcSlot {
    src: Proc,
    compiled: std::sync::OnceLock<CompiledProc>,
}

/// A compiled program: procedures in [`Prog::iter`] (name) order, plus
/// the name→pid map. Not `Clone` — instruction inline caches are shared
/// state; hand the whole program around by reference (or `Arc`).
///
/// Procedures compile **lazily**, on first [`by_pid`](Self::by_pid): a
/// guest program bundles its whole standard library, but any one entry
/// point reaches only a fraction of it, and flattening every body up
/// front would charge each suite for code it never runs. The name→pid
/// map is still built eagerly so [`ProcHint`]s and "unknown procedure"
/// errors resolve exactly as before.
#[derive(Debug)]
pub struct CompiledProg {
    procs: Vec<ProcSlot>,
    by_name: BTreeMap<Ident, u32>,
}

impl CompiledProg {
    /// The dense id of a procedure, if defined.
    pub fn pid(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The compiled procedure with dense id `pid`, compiling it on first
    /// use (thread-safe, so a shared program compiles each procedure
    /// once).
    pub fn by_pid(&self, pid: u32) -> &CompiledProc {
        let slot = &self.procs[pid as usize];
        slot.compiled
            .get_or_init(|| compile_proc(&slot.src, &self.by_name))
    }

    /// Looks up a compiled procedure by name.
    pub fn proc(&self, name: &str) -> Option<&CompiledProc> {
        self.pid(name).map(|p| self.by_pid(p))
    }

    /// The source of the procedure with dense id `pid`.
    pub fn source(&self, pid: u32) -> &Proc {
        &self.procs[pid as usize].src
    }
}

/// Numbers a procedure's variables while its body compiles: slots in
/// first-occurrence order during the walk, renumbered to name order by
/// [`Slots::finish`].
#[derive(Default)]
struct Slots(HashMap<Ident, u32, FxBuildHasher>);

impl Slots {
    fn slot(&mut self, x: &Ident) -> u32 {
        if let Some(&s) = self.0.get(x) {
            return s;
        }
        let s = self.0.len() as u32;
        self.0.insert(x.clone(), s);
        s
    }

    /// The layout, and the map from first-occurrence slots to its slots.
    fn finish(self) -> (Layout, Vec<u32>) {
        let mut order: Vec<(Ident, u32)> = self.0.into_iter().collect();
        order.sort_unstable();
        let mut renumber = vec![0; order.len()];
        for (slot, (_, first)) in order.iter().enumerate() {
            renumber[*first as usize] = slot as u32;
        }
        let names = order.into_iter().map(|(x, _)| x).collect();
        (Layout::from_sorted(names), renumber)
    }
}

fn compile_cmd(cmd: &Cmd, by_name: &BTreeMap<Ident, u32>, slots: &mut Slots) -> Instr {
    let mut code = |e: &Expr| ExprCode::build(e, &mut |x| slots.slot(x));
    match cmd {
        Cmd::Assign(x, e) => Instr::Assign {
            code: code(e),
            lhs: slots.slot(x),
        },
        Cmd::IfGoto(e, j) => Instr::CmpGoto {
            code: code(e),
            target: *j,
        },
        Cmd::Goto(j) => Instr::Goto { target: *j },
        Cmd::Call { lhs, proc, args } => {
            let hint = match proc {
                Expr::Val(Value::Proc(f)) => Some(ProcHint {
                    name: f.clone(),
                    pid: by_name.get(f).copied(),
                }),
                _ => None,
            };
            Instr::Call {
                code: code(proc),
                args: args.iter().map(&mut code).collect(),
                lhs: slots.slot(lhs),
                hint,
            }
        }
        Cmd::Return(e) => Instr::Return { code: code(e) },
        Cmd::Fail(e) => Instr::Fail { code: code(e) },
        Cmd::Vanish => Instr::Vanish,
        Cmd::Action { lhs, name, arg } => Instr::Action {
            code: code(arg),
            lhs: slots.slot(lhs),
            name: name.clone(),
            ic: AtomicU32::new(IC_UNRESOLVED),
        },
        Cmd::USym { lhs, site } => Instr::USym {
            lhs: slots.slot(lhs),
            site: *site,
        },
        Cmd::ISym { lhs, site } => Instr::ISym {
            lhs: slots.slot(lhs),
            site: *site,
        },
        Cmd::Skip => Instr::Skip,
    }
}

impl RegProg {
    fn renumber(&mut self, to: &[u32]) {
        for op in &mut self.ops {
            if let EOp::Load { var, .. } = op {
                *var = to[*var as usize];
            }
        }
    }
}

impl ExprCode {
    fn renumber(&mut self, to: &[u32]) {
        match &mut self.kind {
            ExprKind::Var(x) | ExprKind::Bin1 { var: x, .. } => *x = to[*x as usize],
            ExprKind::Reg(rp) => rp.renumber(to),
            ExprKind::Lit(_) | ExprKind::Closed(_) => {}
        }
    }
}

impl Instr {
    fn renumber(&mut self, to: &[u32]) {
        match self {
            Instr::Assign { lhs, code } | Instr::Action { lhs, code, .. } => {
                *lhs = to[*lhs as usize];
                code.renumber(to);
            }
            Instr::Call {
                lhs, code, args, ..
            } => {
                *lhs = to[*lhs as usize];
                code.renumber(to);
                args.iter_mut().for_each(|a| a.renumber(to));
            }
            Instr::USym { lhs, .. } | Instr::ISym { lhs, .. } => *lhs = to[*lhs as usize],
            Instr::CmpGoto { code, .. } | Instr::Return { code } | Instr::Fail { code } => {
                code.renumber(to)
            }
            Instr::Goto { .. } | Instr::Vanish | Instr::Skip => {}
        }
    }
}

fn compile_proc(p: &Proc, by_name: &BTreeMap<Ident, u32>) -> CompiledProc {
    let mut slots = Slots::default();
    let mut param_slots: Vec<u32> = p.params.iter().map(|x| slots.slot(x)).collect();
    let mut body: Vec<Instr> = p
        .body
        .iter()
        .map(|c| compile_cmd(c, by_name, &mut slots))
        .collect();
    let (layout, to) = slots.finish();
    for s in &mut param_slots {
        *s = to[*s as usize];
    }
    for instr in &mut body {
        instr.renumber(&to);
    }
    CompiledProc {
        name: p.name.clone(),
        layout: Arc::new(layout),
        param_slots,
        body,
    }
}

/// Compiles a whole program. Procedure ids follow [`Prog::iter`]'s
/// deterministic name order. Bodies are flattened lazily — this builds
/// the id map and snapshots the sources (cheap handle clones); see
/// [`CompiledProg::by_pid`].
pub fn compile(prog: &Prog) -> CompiledProg {
    static COMPILES: std::sync::OnceLock<&'static gillian_telemetry::Counter> =
        std::sync::OnceLock::new();
    COMPILES
        .get_or_init(|| {
            gillian_telemetry::registry().counter(gillian_telemetry::names::EXEC_COMPILES)
        })
        .incr();
    let by_name: BTreeMap<Ident, u32> = prog
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i as u32))
        .collect();
    let procs = prog
        .iter()
        .map(|p| ProcSlot {
            src: p.clone(),
            compiled: std::sync::OnceLock::new(),
        })
        .collect();
    CompiledProg { procs, by_name }
}

/// The per-[`Prog`] memo of its compiled form, so exploring the same
/// program many times (a symbolic test suite is hundreds of entry points
/// into one program) compiles once and shares the warm inline caches.
///
/// Derived data, invisible to the program's value semantics: clones and
/// deserialized programs start cold, equality ignores it, and [`Prog`]'s
/// mutators reset it.
#[derive(Default)]
pub struct BytecodeCache(std::sync::OnceLock<std::sync::Arc<CompiledProg>>);

impl BytecodeCache {
    /// The compiled program, compiling on first use.
    pub(crate) fn get_or_compile(&self, prog: &Prog) -> std::sync::Arc<CompiledProg> {
        self.0
            .get_or_init(|| std::sync::Arc::new(compile(prog)))
            .clone()
    }
}

impl Clone for BytecodeCache {
    fn clone(&self) -> Self {
        BytecodeCache::default()
    }
}

impl PartialEq for BytecodeCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for BytecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "BytecodeCache(compiled)"
        } else {
            "BytecodeCache(cold)"
        })
    }
}

impl Prog {
    /// This program compiled to register bytecode, memoized per program
    /// instance (see [`BytecodeCache`]). Counted under `exec.compiles`
    /// only when the memo is cold.
    pub fn bytecode(&self) -> std::sync::Arc<CompiledProg> {
        self.bytecode.get_or_compile(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::eval::eval;

    fn store() -> Frame<Value> {
        [
            ("x", Value::Int(10)),
            ("y", Value::Int(3)),
            ("name", Value::str("gil")),
            ("xs", Value::List(vec![Value::Int(1), Value::Int(2)])),
        ]
        .into_iter()
        .map(|(x, v)| (x.into(), v))
        .collect()
    }

    /// A layout covering the test store and the variables of `e`, and the
    /// test store laid out by it.
    fn laid_out(e: &Expr) -> (Arc<Layout>, Frame<Value>) {
        let st = store();
        let names = st.iter().map(|(x, _)| x.clone()).chain(e.pvars());
        let layout = Arc::new(Layout::new(names));
        let st = st.relayout(&layout).expect("the layout covers the store");
        (layout, st)
    }

    /// The compiled evaluator must agree with the tree walk — values,
    /// error text, and first-error choice — on every expression.
    fn assert_agrees(e: &Expr) {
        let (layout, st) = laid_out(e);
        let mut scratch = EvalScratch::new();
        let code = ExprCode::new(e, &layout);
        let tree = eval(&st, e);
        let flat = code.eval_concrete(&st, &mut scratch);
        assert_eq!(flat, tree, "compiled vs tree walk on {e}");
        // The general register path must agree too, even when `new`
        // picked a fused kind.
        let rp = RegProg::flatten(e, &layout);
        assert_eq!(rp.run(&st, &mut scratch), tree, "RegProg on {e}");
    }

    fn code(e: &Expr) -> ExprCode {
        ExprCode::new(e, &laid_out(e).0)
    }

    #[test]
    fn fused_kinds_are_selected() {
        assert!(matches!(code(&Expr::int(3)).kind(), ExprKind::Lit(_)));
        assert!(matches!(
            code(&Expr::int(1).add(Expr::int(2))).kind(),
            ExprKind::Closed(Ok(_))
        ));
        assert!(matches!(
            code(&Expr::int(1).div(Expr::int(0))).kind(),
            ExprKind::Closed(Err(_))
        ));
        assert!(matches!(code(&Expr::pvar("x")).kind(), ExprKind::Var(_)));
        match code(&Expr::pvar("x").div(Expr::int(2))).kind() {
            ExprKind::Bin1 {
                var_on_left: true,
                div_nz: true,
                ..
            } => {}
            other => panic!("expected guarded Bin1, got {other:?}"),
        }
        match code(&Expr::int(7).lt(Expr::pvar("x"))).kind() {
            ExprKind::Bin1 {
                var_on_left: false,
                div_nz: false,
                ..
            } => {}
            other => panic!("expected mirrored Bin1, got {other:?}"),
        }
        assert!(matches!(
            code(&Expr::pvar("x").add(Expr::pvar("y"))).kind(),
            ExprKind::Reg(_)
        ));
    }

    #[test]
    fn compiled_eval_agrees_with_tree_walk() {
        let cases = [
            Expr::int(42),
            Expr::pvar("x"),
            Expr::pvar("x").add(Expr::int(5)),
            Expr::int(20).sub(Expr::pvar("y")),
            Expr::pvar("x").div(Expr::int(2)),
            Expr::pvar("x").div(Expr::pvar("y")),
            Expr::pvar("x").add(Expr::pvar("y")).mul(Expr::pvar("x")),
            Expr::list([Expr::pvar("x"), Expr::int(2).add(Expr::int(3))]),
            Expr::strcat_of([Expr::pvar("name"), Expr::str("!")]),
            Expr::lstcat_of([Expr::pvar("xs"), Expr::list([Expr::pvar("y")])]),
            Expr::pvar("xs").lst_nth(Expr::pvar("y").sub(Expr::int(2))),
            Expr::pvar("x").lt(Expr::int(10)).not(),
            Expr::list([
                Expr::list([Expr::pvar("x"), Expr::pvar("y")]),
                Expr::pvar("name"),
            ]),
        ];
        for e in &cases {
            assert_agrees(e);
        }
    }

    #[test]
    fn compiled_errors_match_tree_walk() {
        let cases = [
            // Unbound variable.
            Expr::pvar("missing"),
            // Unbound inside a larger term.
            Expr::pvar("missing").add(Expr::int(1)),
            // Division by zero, fused and general.
            Expr::pvar("x").div(Expr::int(0)),
            Expr::pvar("x").div(Expr::pvar("x").sub(Expr::pvar("x"))),
            // Closed erroring subtree inside an open expression: the
            // unbound error on the left still fires first.
            Expr::pvar("missing").add(Expr::int(1).div(Expr::int(0))),
            // …and when the erroring closed subtree comes first, it wins.
            Expr::int(1).div(Expr::int(0)).add(Expr::pvar("missing")),
            // Error order within one node: left operand before right.
            Expr::pvar("gone").add(Expr::pvar("also_gone")),
            // Type errors from operators.
            Expr::pvar("name").add(Expr::int(1)),
            Expr::strcat_of([Expr::pvar("x")]),
            // Logical variables are concrete-eval errors.
            Expr::lvar(LVar(7)).add(Expr::pvar("x")),
            Expr::pvar("x").add(Expr::lvar(LVar(7))),
        ];
        for e in &cases {
            assert_agrees(e);
        }
    }

    #[test]
    fn register_windows_nest() {
        // Nested n-ary nodes exercise window allocation above live slots.
        let e = Expr::list([
            Expr::strcat_of([Expr::pvar("name"), Expr::str("-"), Expr::pvar("name")]),
            Expr::lstcat_of([Expr::pvar("xs"), Expr::pvar("xs")]),
            Expr::pvar("x").add(Expr::pvar("y")),
        ]);
        assert_agrees(&e);
        let rp = RegProg::flatten(&e, &laid_out(&e).0);
        assert!(rp.max_regs >= 3, "window needs at least three registers");
    }

    #[test]
    fn closed_subtrees_fold_to_constants() {
        let e = Expr::pvar("x").add(Expr::int(2).mul(Expr::int(21)));
        // Any non-Reg kind means a fused strategy consumed the constant
        // subtree entirely, which is even better.
        if let ExprKind::Reg(rp) = code(&e).kind() {
            assert!(
                rp.ops()
                    .iter()
                    .all(|op| !matches!(op, EOp::Bin { op: BinOp::Mul, .. })),
                "constant multiply must be folded at compile time"
            );
        }
        assert_agrees(&e);
    }

    #[test]
    fn scratch_is_reusable_across_programs() {
        let (layout, st) = laid_out(&Expr::nil());
        let mut scratch = EvalScratch::new();
        let a = ExprCode::new(
            &Expr::pvar("x").add(Expr::pvar("y")).mul(Expr::pvar("x")),
            &layout,
        );
        let b = ExprCode::new(&Expr::list([Expr::pvar("y"), Expr::pvar("x")]), &layout);
        for _ in 0..3 {
            assert_eq!(a.eval_concrete(&st, &mut scratch), Ok(Value::Int(130)));
            assert_eq!(
                b.eval_concrete(&st, &mut scratch),
                Ok(Value::List(vec![Value::Int(3), Value::Int(10)]))
            );
        }
    }

    #[test]
    fn compile_assigns_pids_in_name_order_and_hints_calls() {
        let prog = Prog::from_procs([
            Proc::new(
                "main",
                [],
                vec![
                    Cmd::call_static("r", "aux", vec![Expr::int(1)]),
                    Cmd::call_static("s", "nope", vec![]),
                    Cmd::Return(Expr::pvar("r")),
                ],
            ),
            Proc::new("aux", ["n"], vec![Cmd::Return(Expr::pvar("n"))]),
        ]);
        let cp = compile(&prog);
        // Name order: aux = 0, main = 1.
        assert_eq!(cp.pid("aux"), Some(0));
        assert_eq!(cp.pid("main"), Some(1));
        assert_eq!(cp.by_pid(0).name.as_ref(), "aux");
        let main = cp.proc("main").unwrap();
        assert_eq!(main.body.len(), 3);
        match &main.body[0] {
            Instr::Call { hint: Some(h), .. } => {
                assert_eq!(h.name.as_ref(), "aux");
                assert_eq!(h.pid, Some(0));
            }
            other => panic!("expected hinted call, got {other:?}"),
        }
        match &main.body[1] {
            Instr::Call { hint: Some(h), .. } => {
                assert_eq!(h.name.as_ref(), "nope");
                assert_eq!(h.pid, None, "unknown callee stays unresolved");
            }
            other => panic!("expected hinted call, got {other:?}"),
        }
    }

    #[test]
    fn procedures_name_variables_by_slots_of_a_sorted_layout() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            ["n", "b"],
            vec![
                Cmd::assign("x", Expr::pvar("n").add(Expr::int(1))),
                Cmd::call_static("r", "main", vec![Expr::pvar("x"), Expr::pvar("a")]),
                Cmd::Return(Expr::pvar("r")),
            ],
        )]);
        let cp = compile(&prog);
        let main = cp.proc("main").unwrap();
        let names: Vec<&str> = main.layout.names().iter().map(|x| x.as_ref()).collect();
        assert_eq!(names, ["a", "b", "n", "r", "x"]);
        assert_eq!(main.param_slots, [2, 1]);
        let Instr::Assign { lhs, code } = &main.body[0] else {
            panic!("expected an assignment");
        };
        assert_eq!(*lhs, 4);
        assert!(matches!(code.kind(), ExprKind::Bin1 { var: 2, .. }));
        let Instr::Call { lhs, args, .. } = &main.body[1] else {
            panic!("expected a call");
        };
        assert_eq!(*lhs, 3);
        assert!(matches!(args[1].kind(), ExprKind::Var(0)));
    }

    #[test]
    fn action_sites_start_unresolved() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::action("v", "lookup", Expr::pvar("x"))],
        )]);
        let cp = compile(&prog);
        match &cp.proc("main").unwrap().body[0] {
            Instr::Action { ic, .. } => {
                assert_eq!(ic.load(std::sync::atomic::Ordering::Relaxed), IC_UNRESOLVED);
            }
            other => panic!("expected action, got {other:?}"),
        }
    }
}
