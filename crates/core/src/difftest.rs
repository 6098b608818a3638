//! Differential symbolic-vs-concrete testing: the CSC oracle.
//!
//! The paper defines the concrete state constructor (Def. 2.5) and the
//! symbolic one (Def. 2.6) over the *same* interpreter precisely so the
//! two executions can be compared. This module industrialises that
//! comparison: [`run_differential`] explores a program symbolically, and
//! for every finished path extracts a witness model of the final path
//! condition, concretizes the `iSym` inputs through it (restriction-
//! directed execution, §3), replays the program concretely under the
//! scripted allocator, and compares what both sides produced —
//!
//! - the **outcome kind** (normal / error / vanished),
//! - the **return value** (symbolic value evaluated under the model vs
//!   the concrete value),
//! - the **final store**, binding by binding, and
//! - optionally the **final memory**, through the instantiation's
//!   [`MemoryInterpretation`] (`I(ε, µ̂) ≐ µ`).
//!
//! Any mismatch is a [`Divergence`] carrying the path's branch trace and
//! input script, so it replays deterministically (see
//! [`crate::explore::replay_path`]) and shrinks to a committed regression
//! via [`crate::generate::minimize`].
//!
//! Model extraction is *total modulo budget*: paths whose condition the
//! configured model search cannot crack are retried with escalated
//! budgets, in the same search ([`gillian_solver::Solver::witness`]),
//! before being reported — never silently — as
//! [`DifftestReport::skipped`].

use crate::concrete::ConcreteState;
use crate::explore::{explore, ExploreConfig, ExploreOutcome};
use crate::memory::{ConcreteMemory, SymbolicMemory};
use crate::soundness::{complete_model, MemoryInterpretation};
use crate::state::GilState;
use crate::symbolic::SymbolicState;
use crate::testing::script_from_model;
use gillian_gil::{Expr, Frame, Ident, LVar, Prog, Value};
use gillian_solver::{Model, Solver};
use gillian_telemetry::{names, registry, Journal};
use std::collections::BTreeSet;
use std::sync::Arc;

/// What differed between the symbolic path and its concrete replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MismatchClass {
    /// The two runs ended in different outcome kinds.
    OutcomeKind,
    /// Both ended normally, with different return values.
    ReturnValue,
    /// A final-store binding differs (or is uninterpretable).
    Store,
    /// The interpreted symbolic memory differs from the concrete one.
    Memory,
    /// The concrete replay produced no path at all.
    MissingConcretePath,
}

impl std::fmt::Display for MismatchClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MismatchClass::OutcomeKind => "outcome-kind",
            MismatchClass::ReturnValue => "return-value",
            MismatchClass::Store => "store",
            MismatchClass::Memory => "memory",
            MismatchClass::MissingConcretePath => "missing-concrete-path",
        };
        f.write_str(s)
    }
}

/// One symbolic-vs-concrete mismatch: evidence of an engine or memory-
/// model bug (or a documented semantic gap — see `DESIGN.md` §13).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// What class of comparison failed.
    pub class: MismatchClass,
    /// The symbolic path's branch trace (successor index at every
    /// branching step) — the deterministic replay handle.
    pub trace: Vec<u32>,
    /// The concrete `iSym` script derived from the witness model.
    pub script: Vec<Value>,
    /// What the symbolic side produced (rendered).
    pub symbolic: String,
    /// What the concrete side produced (rendered).
    pub concrete: String,
    /// Where in the comparison the mismatch was found.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} (trace {:?}, script {:?}): symbolic {} vs concrete {}",
            self.class, self.detail, self.trace, self.script, self.symbolic, self.concrete
        )
    }
}

/// A symbolic path the oracle could not check, and why. Skips are
/// reported, never silent: a skipped path is a hole in the differential
/// guarantee.
#[derive(Clone, Debug)]
pub struct SkippedPath {
    /// The path's branch trace.
    pub trace: Vec<u32>,
    /// Why it was skipped (`truncated`, `engine-error`, `no-model`).
    pub reason: &'static str,
}

/// The outcome of one differential run.
#[derive(Clone, Debug, Default)]
pub struct DifftestReport {
    /// Symbolic paths explored.
    pub sym_paths: usize,
    /// GIL commands executed by the symbolic exploration.
    pub sym_cmds: u64,
    /// Paths replayed concretely and compared.
    pub replayed: usize,
    /// Paths replayed only after the escalated model search (the
    /// configured budget failed first).
    pub fallback_models: usize,
    /// Paths the oracle could not check, with reasons.
    pub skipped: Vec<SkippedPath>,
    /// Every mismatch found.
    pub divergences: Vec<Divergence>,
}

impl DifftestReport {
    /// True when every explored path was checked and agreed.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty() && self.skipped.is_empty()
    }

    /// True when no divergence was found (skips allowed).
    pub fn agreed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// A memory comparison hook for [`run_differential_with`]. The plain
/// oracle uses [`NoMemoryCheck`]; instantiations pass
/// [`InterpMemoryCheck`] built from their interpretation function.
pub trait MemoryCheck<M: SymbolicMemory, C: ConcreteMemory> {
    /// Compares the interpreted symbolic final memory against the
    /// concrete final memory. `Ok(())` when they agree; `Err((sym,
    /// conc))` renderings when they do not.
    fn compare(
        &self,
        model: &gillian_solver::Model,
        sym: &M,
        conc: &C,
    ) -> Result<(), (String, String)>;
}

/// Skips memory comparison (for memory-less or opaque instantiations).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMemoryCheck;

impl<M: SymbolicMemory, C: ConcreteMemory> MemoryCheck<M, C> for NoMemoryCheck {
    fn compare(&self, _: &gillian_solver::Model, _: &M, _: &C) -> Result<(), (String, String)> {
        Ok(())
    }
}

/// Memory comparison through a [`MemoryInterpretation`]: interprets the
/// symbolic memory under the model and demands structural equality with
/// the concrete memory (`I(ε, µ̂) = µ`, Def. 3.7 made executable).
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpMemoryCheck<I>(pub I);

impl<I> MemoryCheck<I::Symbolic, I::Concrete> for InterpMemoryCheck<I>
where
    I: MemoryInterpretation,
    I::Concrete: PartialEq + std::fmt::Debug,
{
    fn compare(
        &self,
        model: &gillian_solver::Model,
        sym: &I::Symbolic,
        conc: &I::Concrete,
    ) -> Result<(), (String, String)> {
        match self.0.interpret(model, sym) {
            Ok(interpreted) if &interpreted == conc => Ok(()),
            Ok(interpreted) => Err((format!("{interpreted:?}"), format!("{conc:?}"))),
            Err(e) => Err((format!("uninterpretable: {e}"), format!("{conc:?}"))),
        }
    }
}

/// Runs the differential oracle with outcome/return/store comparison
/// only (no memory check) — the right entry point for engine-level
/// (memory-less) programs.
pub fn run_differential<M, C>(
    prog: &Prog,
    entry: &str,
    solver: Arc<Solver>,
    cfg: ExploreConfig,
) -> DifftestReport
where
    M: SymbolicMemory,
    C: ConcreteMemory,
{
    run_differential_with::<M, C, _>(prog, entry, solver, cfg, &NoMemoryCheck)
}

/// Runs the differential oracle with a memory comparison hook.
///
/// The symbolic exploration honours `cfg` (including `strategy`); every
/// concrete replay runs with the same budgets and a disabled journal
/// (replays are deterministic and not part of the run's trace).
pub fn run_differential_with<M, C, K>(
    prog: &Prog,
    entry: &str,
    solver: Arc<Solver>,
    cfg: ExploreConfig,
    memcheck: &K,
) -> DifftestReport
where
    M: SymbolicMemory,
    C: ConcreteMemory,
    K: MemoryCheck<M, C>,
{
    let initial = SymbolicState::<M>::new(solver.clone());
    let sym = explore(prog, entry, initial, cfg.clone());
    let mut conc_cfg = cfg.clone();
    conc_cfg.journal = Journal::disabled();
    let mut report = DifftestReport {
        sym_paths: sym.paths.len(),
        sym_cmds: sym.total_cmds,
        ..Default::default()
    };
    let metrics = registry();
    for path in &sym.paths {
        if matches!(path.outcome, ExploreOutcome::Truncated) {
            report.skipped.push(SkippedPath {
                trace: path.trace.clone(),
                reason: "truncated",
            });
            continue;
        }
        if matches!(path.outcome, ExploreOutcome::EngineError { .. }) {
            report.skipped.push(SkippedPath {
                trace: path.trace.clone(),
                reason: "engine-error",
            });
            continue;
        }
        // Witness extraction with escalation: the configured budget
        // first, then progressively larger budgets. Only when every tier
        // fails is the path skipped — and reported.
        let Some((model, via_fallback)) = solver.witness(&path.state.pc) else {
            report.skipped.push(SkippedPath {
                trace: path.trace.clone(),
                reason: "no-model",
            });
            continue;
        };
        if via_fallback {
            report.fallback_models += 1;
        }
        // Complete the environment over every lvar the comparison reads:
        // the iSym script, the outcome value, the final store, and the
        // symbolic memory.
        let mut needed: BTreeSet<LVar> = path
            .state
            .alloc()
            .isym_trace()
            .iter()
            .map(|(_, x)| *x)
            .collect();
        match &path.outcome {
            ExploreOutcome::Normal(e) | ExploreOutcome::Error(e) => needed.extend(e.lvars()),
            _ => {}
        }
        for (_, e) in path.state.store().iter() {
            needed.extend(e.lvars());
        }
        needed.extend(path.state.memory.lvars());
        let model = complete_model(&model, needed);
        let script = script_from_model(&path.state, &model);
        let conc = explore(
            prog,
            entry,
            ConcreteState::<C>::with_script(script.clone()),
            conc_cfg.clone(),
        );
        let Some(cpath) = conc.paths.first() else {
            report.divergences.push(Divergence {
                class: MismatchClass::MissingConcretePath,
                trace: path.trace.clone(),
                script,
                symbolic: format!("{:?}", path.outcome.kind()),
                concrete: "no path".into(),
                detail: "concrete replay produced no path".into(),
            });
            continue;
        };
        report.replayed += 1;
        metrics.counter(names::DIFFTEST_REPLAYS).incr();
        let mut diverged = false;
        // 1. Outcome kind, and return value under the model.
        match (&path.outcome, &cpath.outcome) {
            (ExploreOutcome::Normal(se), ExploreOutcome::Normal(cv)) => match model.eval(se) {
                Ok(sv) if &sv == cv => {}
                Ok(sv) => {
                    diverged = true;
                    report.divergences.push(Divergence {
                        class: MismatchClass::ReturnValue,
                        trace: path.trace.clone(),
                        script: script.clone(),
                        symbolic: sv.to_string(),
                        concrete: cv.to_string(),
                        detail: "return values differ".into(),
                    });
                }
                Err(e) => {
                    diverged = true;
                    report.divergences.push(Divergence {
                        class: MismatchClass::ReturnValue,
                        trace: path.trace.clone(),
                        script: script.clone(),
                        symbolic: format!("{se} (uninterpretable: {e})"),
                        concrete: cv.to_string(),
                        detail: "symbolic return uninterpretable under model".into(),
                    });
                }
            },
            (ExploreOutcome::Error(_), ExploreOutcome::Error(_)) => {}
            (ExploreOutcome::Vanished, ExploreOutcome::Vanished) => {}
            (s, c) => {
                diverged = true;
                report.divergences.push(Divergence {
                    class: MismatchClass::OutcomeKind,
                    trace: path.trace.clone(),
                    script: script.clone(),
                    symbolic: s.kind().into(),
                    concrete: c.kind().into(),
                    detail: "outcome kinds differ".into(),
                });
            }
        }
        // 2. Final store, binding by binding. Compared only when the
        // outcome kinds agreed: after a divergent prefix the stores
        // legitimately differ.
        if !diverged && path.outcome.kind() == cpath.outcome.kind() {
            if let Some((x, symbolic, concrete)) =
                store_mismatch(&model, path.state.store(), cpath.state.store())
            {
                diverged = true;
                report.divergences.push(Divergence {
                    class: MismatchClass::Store,
                    trace: path.trace.clone(),
                    script: script.clone(),
                    symbolic,
                    concrete,
                    detail: format!("store binding {x} differs"),
                });
            }
        }
        // 3. Final memory through the interpretation hook.
        if !diverged && path.outcome.kind() == cpath.outcome.kind() {
            if let Err((s, c)) = memcheck.compare(&model, &path.state.memory, &cpath.state.memory) {
                report.divergences.push(Divergence {
                    class: MismatchClass::Memory,
                    trace: path.trace.clone(),
                    script: script.clone(),
                    symbolic: s,
                    concrete: c,
                    detail: "final memories differ under interpretation".into(),
                });
            }
        }
    }
    if !report.divergences.is_empty() {
        metrics
            .counter(names::DIFFTEST_DIVERGENCES)
            .add(report.divergences.len() as u64);
    }
    if !report.skipped.is_empty() {
        metrics
            .counter(names::DIFFTEST_SKIPPED)
            .add(report.skipped.len() as u64);
    }
    if report.fallback_models > 0 {
        metrics
            .counter(names::DIFFTEST_FALLBACK_MODELS)
            .add(report.fallback_models as u64);
    }
    report
}

/// The first binding on which two final stores disagree under `model`:
/// a symbolic binding, in name order, whose value differs or that the
/// concrete store lacks, else a concrete binding the symbolic store lacks.
/// Returns the variable and each side rendered (`unbound` when absent).
fn store_mismatch(
    model: &Model,
    sym: &Frame<Expr>,
    conc: &Frame<Value>,
) -> Option<(Ident, String, String)> {
    for (x, se) in sym.iter() {
        let cv = conc.get(x);
        match (model.eval(se), cv) {
            (Ok(sv), Some(cv)) if &sv == cv => {}
            (sv, cv) => {
                let symbolic = match sv {
                    Ok(v) => v.to_string(),
                    Err(e) => format!("{se} (uninterpretable: {e})"),
                };
                let concrete = cv.map_or("unbound".into(), |v| v.to_string());
                return Some((x.clone(), symbolic, concrete));
            }
        }
    }
    conc.iter()
        .find(|(x, _)| sym.get(x).is_none())
        .map(|(x, cv)| (x.clone(), "unbound".into(), cv.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{build_prog, gen_ops, minimize, GenOp, MemDialect, Rng};
    use crate::memory::SymBranch;
    use gillian_gil::{Cmd, Expr, Proc};
    use gillian_solver::PathCondition;

    /// Consistent echo memories: both sides store nothing and echo the
    /// argument, so every comparison must agree.
    #[derive(Clone, Debug, Default)]
    pub struct EchoSym;
    impl SymbolicMemory for EchoSym {
        fn execute_action(
            self,
            _: &str,
            arg: &Expr,
            pc: &PathCondition,
            _: &Solver,
        ) -> Vec<SymBranch<Self>> {
            vec![SymBranch::ok(EchoSym, arg.clone(), pc.clone())]
        }
    }
    #[derive(Clone, Debug, Default)]
    pub struct EchoConc;
    impl ConcreteMemory for EchoConc {
        fn execute_action(&mut self, _: &str, arg: Value) -> Result<Value, Value> {
            Ok(arg)
        }
    }

    fn run(prog: &Prog) -> DifftestReport {
        run_differential::<EchoSym, EchoConc>(
            prog,
            "main",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        )
    }

    #[test]
    fn store_check_reports_a_binding_only_the_concrete_store_has() {
        let bind = |pairs: &[(&str, i64)]| -> Frame<Value> {
            pairs
                .iter()
                .map(|(x, n)| (Ident::from(*x), Value::Int(*n)))
                .collect()
        };
        let lift = |f: &Frame<Value>| -> Frame<Expr> {
            f.iter()
                .map(|(x, v)| (x.clone(), Expr::Val(v.clone())))
                .collect()
        };
        let mismatch = |sym: &Frame<Value>, conc: &Frame<Value>| {
            store_mismatch(&Model::default(), &lift(sym), conc)
                .map(|(x, s, c)| format!("{x}: {s} vs {c}"))
        };
        let one = bind(&[("x", 1)]);
        let two = bind(&[("x", 1), ("y", 2)]);
        assert_eq!(mismatch(&one, &two).as_deref(), Some("y: unbound vs 2"));
        assert_eq!(mismatch(&two, &one).as_deref(), Some("y: 2 vs unbound"));
        assert_eq!(mismatch(&two, &two), None);
    }

    #[test]
    fn generated_programs_agree_on_a_quick_sample() {
        for seed in 0..8u64 {
            let ops = gen_ops(&mut Rng::new(seed), 14, MemDialect::None);
            let prog = build_prog(&ops, MemDialect::None);
            let report = run(&prog);
            assert!(report.agreed(), "seed {seed}: {:?}", report.divergences);
            assert!(report.replayed > 0 || report.sym_paths == 0);
        }
    }

    #[test]
    fn oracle_detects_lying_concrete_memory() {
        // The symbolic memory echoes, the concrete one lies: a guaranteed
        // divergence the oracle must catch.
        #[derive(Clone, Debug, Default)]
        struct Lying;
        impl ConcreteMemory for Lying {
            fn execute_action(&mut self, _: &str, _: Value) -> Result<Value, Value> {
                Ok(Value::Int(999))
            }
        }
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::action("r", "touch", Expr::int(1)),
                Cmd::Return(Expr::pvar("r")),
            ],
        )]);
        let report = run_differential::<EchoSym, Lying>(
            &prog,
            "main",
            Arc::new(Solver::optimized()),
            ExploreConfig::default(),
        );
        assert_eq!(report.divergences.len(), 1);
        assert_eq!(report.divergences[0].class, MismatchClass::ReturnValue);
    }

    #[test]
    fn oracle_reports_skips_not_silence() {
        // One path, truncated by a tiny budget: it must show up as a
        // skip, not disappear.
        let prog = build_prog(
            &[GenOp::Input, GenOp::Bump(1), GenOp::Bump(2), GenOp::Bump(3)],
            MemDialect::None,
        );
        let cfg = ExploreConfig {
            max_cmds_per_path: 2,
            ..Default::default()
        };
        let report = run_differential::<EchoSym, EchoConc>(
            &prog,
            "main",
            Arc::new(Solver::optimized()),
            cfg,
        );
        assert!(!report.skipped.is_empty());
        assert!(report.skipped.iter().all(|s| s.reason == "truncated"));
    }

    #[test]
    fn minimizer_shrinks_a_seeded_divergence() {
        // Divergence predicate driven by the real oracle against a lying
        // concrete memory: minimization must keep exactly the action op.
        #[derive(Clone, Debug, Default)]
        struct LyingConc;
        impl ConcreteMemory for LyingConc {
            fn execute_action(&mut self, _: &str, _: Value) -> Result<Value, Value> {
                Ok(Value::Int(999))
            }
        }
        let ops = vec![
            GenOp::Bump(4),
            GenOp::Input,
            GenOp::Mem(crate::generate::MemOp::Read { loc: 0, slot: 0 }),
            GenOp::Bump(2),
        ];
        let diverges = |ops: &[GenOp]| {
            let prog = build_prog(ops, MemDialect::While);
            !run_differential::<EchoSym, LyingConc>(
                &prog,
                "main",
                Arc::new(Solver::optimized()),
                ExploreConfig::default(),
            )
            .agreed()
        };
        assert!(diverges(&ops));
        let min = minimize(&ops, diverges);
        assert!(min.len() <= 2, "minimized to {min:?}");
        assert!(diverges(&min));
    }
}
