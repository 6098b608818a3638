//! Soundness infrastructure (paper §3.2): memory interpretation functions
//! and differential checking.
//!
//! Theorem 3.10 lifts a *memory interpretation function* `I` (Def. 3.7) —
//! plus the built-in allocator interpretation — to a soundness relation
//! between the lifted state models, which the GIL semantics preserves
//! (Theorem 3.6). A tool developer therefore only proves the two memory
//! lemmas MA-RS and MA-RC.
//!
//! This module provides the Rust rendering of `I` ([`MemoryInterpretation`])
//! and *empirical* checkers for the lemmas and the end-to-end theorem:
//!
//! - [`check_action`] exercises MA-RS/MA-RC on a single symbolic action:
//!   every branch's path condition is modelled, the symbolic memory is
//!   interpreted through the model, the concrete action is run, and the
//!   outcomes (and, on success, the memories after it) are compared under
//!   the model.
//! - [`check_program`] exercises GIL Restricted Soundness end-to-end: every
//!   finished symbolic path with a modelled path condition is replayed
//!   concretely under the model-derived allocator script, and the final
//!   outcomes must coincide.
//!
//! Instantiations call these from their test suites (and property tests)
//! instead of hand-writing per-language soundness arguments.

use crate::explore::{explore, ExploreConfig, ExploreOutcome};
use crate::memory::{ConcreteMemory, SymbolicMemory};
use crate::symbolic::SymbolicState;
use crate::testing::script_from_model;
use crate::ConcreteState;
use gillian_gil::{Expr, Prog, Value};
use gillian_solver::{Model, PathCondition, Solver};
use std::sync::Arc;

/// A memory interpretation function `I : (X̂ ⇀ V) ⇀ |M̂| → |M|` (Def. 3.7):
/// interprets a symbolic memory under a logical environment.
pub trait MemoryInterpretation {
    /// The concrete memory model `M`.
    type Concrete: ConcreteMemory;
    /// The symbolic memory model `M̂`.
    type Symbolic: SymbolicMemory;

    /// Interprets `sym` under `model`, producing a concrete memory.
    ///
    /// # Errors
    ///
    /// Returns a description when the model does not cover the memory's
    /// logical variables or interpretation produces an ill-formed memory
    /// (e.g. two symbolic cells collapsing onto one concrete cell).
    fn interpret(&self, model: &Model, sym: &Self::Symbolic) -> Result<Self::Concrete, String>;
}

/// A discrepancy found by a differential check — evidence against MA-RS.
#[derive(Clone, Debug)]
pub struct Discrepancy {
    /// Which check failed.
    pub context: String,
    /// What the symbolic side produced.
    pub symbolic: String,
    /// What the concrete side produced.
    pub concrete: String,
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: symbolic {} vs concrete {}",
            self.context, self.symbolic, self.concrete
        )
    }
}

/// Completes a model into a full logical environment: every variable in
/// `needed` that the model leaves unassigned gets a default value (an
/// unconstrained logical variable may take *any* value, so this is a valid
/// extension of `ε`).
pub fn complete_model(model: &Model, needed: impl IntoIterator<Item = gillian_gil::LVar>) -> Model {
    let mut assignment: std::collections::BTreeMap<gillian_gil::LVar, Value> =
        model.iter().map(|(x, v)| (*x, v.clone())).collect();
    for x in needed {
        assignment.entry(x).or_insert(Value::Int(0));
    }
    Model::from_assignment(assignment)
}

/// Empirically checks MA-RS and MA-RC for one action application.
///
/// For every branch `(µ̂′, ê′, π̂′)` of the symbolic action with `π ∧ π̂′`
/// modelled by some `ε`: interprets `µ̂` through `ε`, runs the concrete
/// action on `⟦arg⟧ε`, and demands the concrete outcome match `⟦ê′⟧ε`
/// (MA-RS) and exist at all (MA-RC). On a successful branch the concrete
/// memory after the action must also be the interpretation of `µ̂′`,
/// where `µ̂′` has one: a post-state that `I` rejects under `ε` (MiniC's
/// documented symbolic partial overlap, whose bytes collapse) is left to
/// the end-to-end checks.
///
/// # Errors
///
/// Returns the list of discrepancies (empty ⇒ the lemma held on this
/// instance).
pub fn check_action<I: MemoryInterpretation>(
    interp: &I,
    solver: &Solver,
    sym_mem: &I::Symbolic,
    action: &str,
    arg: &Expr,
    pc: &PathCondition,
) -> Result<usize, Vec<Discrepancy>>
where
    I::Concrete: PartialEq,
{
    let mut checked = 0;
    let mut problems = Vec::new();
    // The action consumes its memory; the interpretation below still
    // needs the pre-state.
    let branches = sym_mem.clone().execute_action(action, arg, pc, solver);
    for branch in branches {
        let Some(model) = solver.model(&branch.pc) else {
            continue; // no model within budget: nothing to check
        };
        let mut needed = sym_mem.lvars();
        needed.extend(arg.lvars());
        needed.extend(
            branch
                .outcome
                .as_ref()
                .map_or_else(|e| e.lvars(), |v| v.lvars()),
        );
        let model = complete_model(&model, needed);
        let concrete_arg = match model.eval(arg) {
            Ok(v) => v,
            Err(e) => {
                problems.push(Discrepancy {
                    context: format!("action {action}: argument interpretation"),
                    symbolic: arg.to_string(),
                    concrete: e.to_string(),
                });
                continue;
            }
        };
        let mut conc_mem = match interp.interpret(&model, sym_mem) {
            Ok(m) => m,
            Err(e) => {
                problems.push(Discrepancy {
                    context: format!("action {action}: memory interpretation"),
                    symbolic: format!("{sym_mem:?}"),
                    concrete: e,
                });
                continue;
            }
        };
        checked += 1;
        let concrete_out = conc_mem.execute_action(action, concrete_arg);
        match (&branch.outcome, &concrete_out) {
            (Ok(se), Ok(cv)) => match model.eval(se) {
                Ok(sv) if &sv == cv => match interp.interpret(&model, &branch.memory) {
                    Ok(after) if after != conc_mem => problems.push(Discrepancy {
                        context: format!("action {action}: memories after the action differ"),
                        symbolic: format!("{after:?}"),
                        concrete: format!("{conc_mem:?}"),
                    }),
                    _ => {}
                },
                Ok(sv) => problems.push(Discrepancy {
                    context: format!("action {action}: value outputs differ"),
                    symbolic: sv.to_string(),
                    concrete: cv.to_string(),
                }),
                Err(e) => problems.push(Discrepancy {
                    context: format!("action {action}: symbolic output uninterpretable"),
                    symbolic: se.to_string(),
                    concrete: e.to_string(),
                }),
            },
            (Err(_), Err(_)) => {} // both error: aligned (messages may differ)
            (s, c) => problems.push(Discrepancy {
                context: format!("action {action}: outcome kinds differ"),
                symbolic: format!("{s:?}"),
                concrete: format!("{c:?}"),
            }),
        }
    }
    if problems.is_empty() {
        Ok(checked)
    } else {
        Err(problems)
    }
}

/// Statistics of an end-to-end differential run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SoundnessReport {
    /// Symbolic paths explored.
    pub sym_paths: usize,
    /// Paths whose final path condition was modelled and replayed.
    pub replayed: usize,
    /// Paths skipped (no model within budget, or truncated).
    pub skipped: usize,
}

/// Empirically checks GIL Restricted Soundness (Theorem 3.6) end-to-end:
/// runs `entry` symbolically from empty memory; for every finished path
/// whose final path condition has a model, replays the program concretely
/// under the model-derived allocator script and compares final outcomes.
///
/// # Errors
///
/// Returns the discrepancies found (empty ⇒ the theorem held on every
/// modelled path of this program).
pub fn check_program<M, C>(
    prog: &Prog,
    entry: &str,
    solver: Arc<Solver>,
    cfg: ExploreConfig,
) -> Result<SoundnessReport, Vec<Discrepancy>>
where
    M: SymbolicMemory,
    C: ConcreteMemory,
{
    let initial = SymbolicState::<M>::new(solver.clone());
    let sym = explore(prog, entry, initial, cfg.clone());
    let mut report = SoundnessReport {
        sym_paths: sym.paths.len(),
        ..Default::default()
    };
    let mut problems = Vec::new();
    for path in &sym.paths {
        if matches!(
            path.outcome,
            ExploreOutcome::Truncated | ExploreOutcome::EngineError { .. }
        ) {
            // Truncated paths prove nothing to replay; EngineError paths
            // carry a sentinel state whose pc is not the dead path's.
            report.skipped += 1;
            continue;
        }
        let Some(model) = solver.model(&path.state.pc) else {
            report.skipped += 1;
            continue;
        };
        // Complete the environment over every lvar the comparison touches:
        // the iSym trace (script) and the symbolic return value.
        let mut needed: std::collections::BTreeSet<gillian_gil::LVar> = path
            .state
            .alloc()
            .isym_trace()
            .iter()
            .map(|(_, x)| *x)
            .collect();
        if let ExploreOutcome::Normal(se) = &path.outcome {
            needed.extend(se.lvars());
        }
        let model = complete_model(&model, needed);
        let script = script_from_model(&path.state, &model);
        let conc = explore(
            prog,
            entry,
            ConcreteState::<C>::with_script(script),
            cfg.clone(),
        );
        let Some(cpath) = conc.paths.first() else {
            problems.push(Discrepancy {
                context: format!("{entry}: concrete run produced no path"),
                symbolic: format!("{:?}", path.outcome),
                concrete: "nothing".into(),
            });
            continue;
        };
        report.replayed += 1;
        match (&path.outcome, &cpath.outcome) {
            (ExploreOutcome::Normal(se), ExploreOutcome::Normal(cv)) => match model.eval(se) {
                Ok(sv) if &sv == cv => {}
                Ok(sv) => problems.push(Discrepancy {
                    context: format!("{entry}: return values differ"),
                    symbolic: sv.to_string(),
                    concrete: cv.to_string(),
                }),
                Err(e) => problems.push(Discrepancy {
                    context: format!("{entry}: symbolic return uninterpretable"),
                    symbolic: se.to_string(),
                    concrete: e.to_string(),
                }),
            },
            (ExploreOutcome::Error(_), ExploreOutcome::Error(_)) => {}
            (ExploreOutcome::Vanished, ExploreOutcome::Vanished) => {}
            (s, c) => problems.push(Discrepancy {
                context: format!("{entry}: outcomes differ"),
                symbolic: format!("{s:?}"),
                concrete: format!("{c:?}"),
            }),
        }
    }
    if problems.is_empty() {
        Ok(report)
    } else {
        Err(problems)
    }
}

/// The identity interpretation for memoryless instantiations (both
/// memories are `()`-like). Useful in engine-level tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrivialInterpretation<C, S> {
    _marker: std::marker::PhantomData<(C, S)>,
}

impl<C, S> MemoryInterpretation for TrivialInterpretation<C, S>
where
    C: ConcreteMemory,
    S: SymbolicMemory,
{
    type Concrete = C;
    type Symbolic = S;

    fn interpret(&self, _model: &Model, _sym: &S) -> Result<C, String> {
        Ok(C::default())
    }
}

/// Convenience for instantiations: interprets a symbolic value expression
/// as a concrete value under a model, mapping failures to strings.
pub fn interpret_expr(model: &Model, e: &Expr) -> Result<Value, String> {
    model.eval(e).map_err(|err| err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::{Cmd, Proc};

    #[derive(Clone, Debug, Default)]
    struct NoSymMem;
    impl SymbolicMemory for NoSymMem {
        fn execute_action(
            self,
            _: &str,
            arg: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<crate::memory::SymBranch<Self>> {
            vec![crate::memory::SymBranch::ok(
                NoSymMem,
                arg.clone(),
                pc.clone(),
            )]
        }
    }
    #[derive(Clone, Debug, Default, PartialEq)]
    struct NoConcMem;
    impl ConcreteMemory for NoConcMem {
        fn execute_action(&mut self, _: &str, arg: Value) -> Result<Value, Value> {
            Ok(arg)
        }
    }

    #[test]
    fn trivial_action_soundness_holds() {
        let solver = Solver::optimized();
        let interp = TrivialInterpretation::<NoConcMem, NoSymMem>::default();
        let pc = PathCondition::new();
        let checked =
            check_action(&interp, &solver, &NoSymMem, "echo", &Expr::int(3), &pc).unwrap();
        assert_eq!(checked, 1);
    }

    #[test]
    fn program_soundness_on_branching_program() {
        // x := iSym; ifgoto x < 10: return x else fail.
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::isym("x", 0),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(10)), 3),
                Cmd::Fail(Expr::str("big")),
                Cmd::Return(Expr::pvar("x")),
            ],
        )]);
        let report = check_program::<NoSymMem, NoConcMem>(
            &prog,
            "main",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(report.sym_paths, 2);
        assert_eq!(report.replayed, 2);
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn program_soundness_detects_divergence() {
        // A symbolic memory that claims success while the concrete memory
        // errors — MA-RS violated, check_program must notice.
        #[derive(Clone, Debug, Default)]
        struct LyingConc;
        impl ConcreteMemory for LyingConc {
            fn execute_action(&mut self, _: &str, _: Value) -> Result<Value, Value> {
                Err(Value::str("concrete always fails"))
            }
        }
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::action("r", "touch", Expr::int(0)),
                Cmd::Return(Expr::pvar("r")),
            ],
        )]);
        let result = check_program::<NoSymMem, LyingConc>(
            &prog,
            "main",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        );
        assert!(result.is_err(), "divergence must be reported");
    }
}
