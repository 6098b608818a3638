//! The GIL semantics (paper Fig. 1), written once over [`GilState`].
//!
//! Transitions are `p ⊢ ⟨σ, cs, i⟩ ⇝ ⟨σ′, cs′, j⟩ᵒ`: configurations carry a
//! state, a call stack and the index of the next command; outcomes are
//! continuation, return `N(v)`, or error `E(v)` — plus `vanish`, which
//! silently discards the path. Symbolic states make [`step`] return
//! several successor configurations (conditional gotos and branching
//! memory actions); concrete states return exactly one.
//!
//! [`step`] is the **reference semantics**, not a run-time backend: the
//! explorer always runs the compiled-bytecode block dispatch of
//! [`crate::exec`], which must agree with `step` command-for-command
//! (same successors, same outcomes, same error text — see `exec`'s
//! equivalence contract). [`all_paths`] enumerates every path of a
//! program over `step`; the backend batteries compare each exploration
//! against it.
//!
//! ## Panic contract
//!
//! [`step`] itself never panics on well-formed programs, but it calls into
//! tool-developer code — [`SymbolicMemory`] actions and the hosted
//! expression evaluator — which may. The interpreter does *not* catch
//! those panics: it promises only not to corrupt any state it did not
//! consume (it takes configurations by value). [`all_paths`] catches
//! nothing either. Isolation is layered above the bytecode loop:
//! [`explore`](crate::explore) wraps each block in a panic guard, so a
//! panicking memory action kills one path (reported as
//! [`ExploreOutcome::EngineError`]), never the whole exploration.
//!
//! [`SymbolicMemory`]: crate::memory::SymbolicMemory

use crate::explore::{ExploreOutcome, ExploreResult, PathResult};
use crate::state::GilState;
use gillian_gil::{Cmd, Ident, Proc, Prog};
use gillian_telemetry::Report;

/// A non-continuation outcome `o ∈ O` of a finished path.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome<V> {
    /// `N(v)` — top-level return.
    Normal(V),
    /// `E(v)` — execution failed with error value `v`.
    Error(V),
    /// The path was silently discarded (`vanish`).
    Vanished,
}

impl<V> Outcome<V> {
    /// True for the error outcome.
    pub fn is_error(&self) -> bool {
        matches!(self, Outcome::Error(_))
    }
}

/// An inner stack frame `⟨f, x, ρ, i⟩`: callee name, return variable,
/// caller store, return index — plus the caller's procedure name, which the
/// paper recovers from the remainder of the stack.
#[derive(Clone, Debug)]
pub struct Frame<S: GilState> {
    /// Procedure executing *below* this frame (the caller).
    pub caller: Ident,
    /// Variable receiving the return value.
    pub ret_var: Ident,
    /// The caller's store `ρ`.
    pub store: gillian_gil::Frame<S::V>,
    /// Index to resume at in the caller.
    pub ret_idx: usize,
}

/// A configuration `⟨σ, cs, i⟩`.
#[derive(Clone, Debug)]
pub struct Config<S: GilState> {
    /// The current state `σ`.
    pub state: S,
    /// Inner frames of the call stack (bottom → top).
    pub stack: Vec<Frame<S>>,
    /// The procedure currently executing (top of the call stack).
    pub proc: Ident,
    /// Index of the next command.
    pub idx: usize,
}

impl<S: GilState> Config<S> {
    /// The initial configuration: `⟨σ, ⟨f⟩, 0⟩` with an empty store.
    pub fn entry(proc: impl AsRef<str>, mut state: S) -> Self {
        state.set_store(gillian_gil::Frame::new());
        Config {
            state,
            stack: Vec::new(),
            proc: Ident::from(proc.as_ref()),
            idx: 0,
        }
    }
}

/// A finished path: final state plus outcome.
#[derive(Clone, Debug)]
pub struct Final<S: GilState> {
    /// The state at termination.
    pub state: S,
    /// The path's outcome.
    pub outcome: Outcome<S::V>,
}

/// The result of one small step from a configuration.
#[derive(Clone, Debug)]
pub enum StepOut<S: GilState> {
    /// Execution continues from a successor configuration.
    Next(Config<S>),
    /// The path finished.
    Done(Final<S>),
}

fn done<S: GilState>(state: S, outcome: Outcome<S::V>) -> StepOut<S> {
    StepOut::Done(Final { state, outcome })
}

fn err_done<S: GilState>(state: S, v: S::V) -> StepOut<S> {
    done(state, Outcome::Error(v))
}

/// Executes the command at `cfg`'s program point, returning all successor
/// configurations / finished paths (Fig. 1, one match arm per rule).
pub fn step<S: GilState>(prog: &Prog, cfg: Config<S>) -> Vec<StepOut<S>> {
    step_in(&|f| prog.proc(f), cfg)
}

/// [`step`] over the procedures `procs` resolves by name.
pub(crate) fn step_in<'p, S: GilState>(
    procs: &impl Fn(&str) -> Option<&'p Proc>,
    cfg: Config<S>,
) -> Vec<StepOut<S>> {
    let Config {
        mut state,
        mut stack,
        proc,
        idx,
    } = cfg;
    let Some(p) = procs(&proc) else {
        let v = state.error_value(&format!("unknown procedure {proc}"));
        return vec![err_done(state, v)];
    };
    let Some(cmd) = p.body.get(idx) else {
        let v = state.error_value(&format!("fell off the end of {proc} at {idx}"));
        return vec![err_done(state, v)];
    };
    let next = |state: S, stack: Vec<Frame<S>>, proc: Ident, idx: usize| {
        StepOut::Next(Config {
            state,
            stack,
            proc,
            idx,
        })
    };
    match cmd {
        // [Assignment]  σ.(setVarₓ ∘ evalₑ)
        Cmd::Assign(x, e) => match state.eval(e) {
            Ok(v) => {
                state.set_var(x, v);
                vec![next(state, stack, proc, idx + 1)]
            }
            Err(v) => vec![err_done(state, v)],
        },
        // [IfGoto-True] / [IfGoto-False]  σ.(assume ∘ eval)
        Cmd::IfGoto(e, j) => match state.branch_on(e) {
            Ok(branches) => branches
                .into_iter()
                .map(|(st, taken)| {
                    let target = if taken { *j } else { idx + 1 };
                    next(st, stack.clone(), proc.clone(), target)
                })
                .collect(),
            Err(v) => vec![err_done(state, v)],
        },
        Cmd::Goto(j) => vec![next(state, stack, proc, *j)],
        // [Call]
        Cmd::Call {
            lhs,
            proc: pe,
            args,
        } => {
            let callee_v = match state.eval(pe) {
                Ok(v) => v,
                Err(v) => return vec![err_done(state, v)],
            };
            let callee = match state.resolve_proc(&callee_v) {
                Ok(f) => f,
                Err(v) => return vec![err_done(state, v)],
            };
            let mut arg_vs = Vec::with_capacity(args.len());
            for a in args {
                match state.eval(a) {
                    Ok(v) => arg_vs.push(v),
                    Err(v) => return vec![err_done(state, v)],
                }
            }
            let Some(callee_proc) = procs(&callee) else {
                let v = state.error_value(&format!("unknown procedure {callee}"));
                return vec![err_done(state, v)];
            };
            let new_store = gillian_gil::Frame::from_params(&callee_proc.params, arg_vs);
            let caller_store = state.store().clone();
            stack.push(Frame {
                caller: proc,
                ret_var: lhs.clone(),
                store: caller_store,
                ret_idx: idx + 1,
            });
            state.set_store(new_store);
            vec![next(state, stack, callee, 0)]
        }
        // [Return] / [Top Return]
        Cmd::Return(e) => match state.eval(e) {
            Ok(v) => match stack.pop() {
                Some(frame) => {
                    state.set_store(frame.store);
                    state.set_var(&frame.ret_var, v);
                    vec![next(state, stack, frame.caller, frame.ret_idx)]
                }
                None => vec![done(state, Outcome::Normal(v))],
            },
            Err(v) => vec![err_done(state, v)],
        },
        // [Fail]
        Cmd::Fail(e) => match state.eval(e) {
            Ok(v) | Err(v) => vec![err_done(state, v)],
        },
        Cmd::Vanish => vec![done(state, Outcome::Vanished)],
        // [Action]  σ.(setVarₓ ∘ α ∘ evalₑ)
        Cmd::Action { lhs, name, arg } => {
            let arg_v = match state.eval(arg) {
                Ok(v) => v,
                Err(v) => return vec![err_done(state, v)],
            };
            state
                .execute_action(name, arg_v)
                .into_iter()
                .map(|(mut st, outcome)| match outcome {
                    Ok(v) => {
                        st.set_var(lhs, v);
                        next(st, stack.clone(), proc.clone(), idx + 1)
                    }
                    Err(v) => err_done(st, v),
                })
                .collect()
        }
        // [uSym] / [iSym]
        Cmd::USym { lhs, site } => {
            let v = state.fresh_usym(*site);
            state.set_var(lhs, v);
            vec![next(state, stack, proc, idx + 1)]
        }
        Cmd::ISym { lhs, site } => {
            let v = state.fresh_isym(*site);
            state.set_var(lhs, v);
            vec![next(state, stack, proc, idx + 1)]
        }
        Cmd::Skip => vec![next(state, stack, proc, idx + 1)],
    }
}

/// Every path of `prog` from `entry`, enumerated depth-first over
/// [`step`]: the reference an exploration of the compiled program must
/// reproduce. A branch-trace entry is pushed only when a step yields more
/// than one successor, every step charges one command, and a path that
/// has executed `max_cmds_per_path` commands ends as
/// [`ExploreOutcome::Truncated`] (marking the result truncated), as
/// [`explore`](crate::explore::explore) ends it. No other budget, deadline
/// or panic guard applies, so call it only on programs whose paths are
/// few enough to enumerate.
pub fn all_paths<S: GilState>(
    prog: &Prog,
    entry: &str,
    initial: S,
    max_cmds_per_path: u64,
) -> ExploreResult<S> {
    let mut pending = vec![(Config::entry(entry, initial), 0u64, Vec::new())];
    let (mut paths, mut total_cmds) = (Vec::new(), 0u64);
    while let Some((cfg, cmds, trace)) = pending.pop() {
        if cmds >= max_cmds_per_path {
            paths.push(PathResult {
                state: cfg.state,
                outcome: ExploreOutcome::Truncated,
                cmds,
                trace,
            });
            continue;
        }
        let (cmds, outs) = (cmds + 1, step(prog, cfg));
        total_cmds += 1;
        let branching = outs.len() > 1;
        for (i, out) in outs.into_iter().enumerate() {
            let mut trace = trace.clone();
            if branching {
                trace.push(i as u32);
            }
            match out {
                StepOut::Next(c) => pending.push((c, cmds, trace)),
                StepOut::Done(Final { state, outcome }) => paths.push(PathResult {
                    state,
                    outcome: outcome.into(),
                    cmds,
                    trace,
                }),
            }
        }
    }
    let truncated = paths
        .iter()
        .any(|p| matches!(p.outcome, ExploreOutcome::Truncated));
    ExploreResult {
        paths,
        total_cmds,
        truncated,
        dropped_paths: 0,
        killed: false,
        diagnostics: Default::default(),
        report: Report::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::ConcreteState;
    use crate::memory::ConcreteMemory;
    use gillian_gil::{Expr, Proc, Value};

    #[derive(Clone, Debug, Default)]
    struct NoMem;
    impl ConcreteMemory for NoMem {
        fn execute_action(&mut self, name: &str, _: Value) -> Result<Value, Value> {
            Err(Value::str(format!("no actions ({name})")))
        }
    }

    type St = ConcreteState<NoMem>;

    fn run_to_end(prog: &Prog, entry: &str) -> PathResult<St> {
        let mut result = all_paths(prog, entry, St::new(), 10_000);
        assert!(!result.truncated, "runaway test program");
        assert_eq!(result.paths.len(), 1, "concrete execution is deterministic");
        result.paths.pop().unwrap()
    }

    fn is_error(path: PathResult<St>) -> bool {
        matches!(path.outcome, ExploreOutcome::Error(_))
    }

    #[test]
    fn straight_line_returns() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::assign("x", Expr::int(40)),
                Cmd::assign("x", Expr::pvar("x").add(Expr::int(2))),
                Cmd::Return(Expr::pvar("x")),
            ],
        )]);
        let f = run_to_end(&prog, "main");
        assert_eq!(f.outcome, ExploreOutcome::Normal(Value::Int(42)));
    }

    #[test]
    fn calls_save_and_restore_stores() {
        let prog = Prog::from_procs([
            Proc::new(
                "main",
                [],
                vec![
                    Cmd::assign("x", Expr::int(1)),
                    Cmd::call_static("y", "double", vec![Expr::int(21)]),
                    // x must still be 1 after the call.
                    Cmd::Return(Expr::pvar("x").add(Expr::pvar("y"))),
                ],
            ),
            Proc::new(
                "double",
                ["n"],
                vec![
                    Cmd::assign("x", Expr::pvar("n").mul(Expr::int(2))),
                    Cmd::Return(Expr::pvar("x")),
                ],
            ),
        ]);
        let f = run_to_end(&prog, "main");
        assert_eq!(f.outcome, ExploreOutcome::Normal(Value::Int(43)));
    }

    #[test]
    fn ifgoto_takes_the_right_branch() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::assign("x", Expr::int(5)),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(10)), 3),
                Cmd::Fail(Expr::str("wrong branch")),
                Cmd::Return(Expr::tt()),
            ],
        )]);
        let f = run_to_end(&prog, "main");
        assert_eq!(f.outcome, ExploreOutcome::Normal(Value::Bool(true)));
    }

    #[test]
    fn fail_and_vanish_terminate() {
        let fail = Prog::from_procs([Proc::new("main", [], vec![Cmd::Fail(Expr::str("boom"))])]);
        assert_eq!(
            run_to_end(&fail, "main").outcome,
            ExploreOutcome::Error(Value::str("boom"))
        );
        let vanish = Prog::from_procs([Proc::new("main", [], vec![Cmd::Vanish])]);
        assert_eq!(
            run_to_end(&vanish, "main").outcome,
            ExploreOutcome::Vanished
        );
    }

    #[test]
    fn dynamic_call_through_value() {
        let prog = Prog::from_procs([
            Proc::new(
                "main",
                [],
                vec![
                    Cmd::assign("f", Expr::proc("id")),
                    Cmd::Call {
                        lhs: "r".into(),
                        proc: Expr::pvar("f"),
                        args: vec![Expr::int(9)],
                    },
                    Cmd::Return(Expr::pvar("r")),
                ],
            ),
            Proc::new("id", ["v"], vec![Cmd::Return(Expr::pvar("v"))]),
        ]);
        let f = run_to_end(&prog, "main");
        assert_eq!(f.outcome, ExploreOutcome::Normal(Value::Int(9)));
    }

    #[test]
    fn errors_propagate_from_eval() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::assign("x", Expr::pvar("missing"))],
        )]);
        assert!(is_error(run_to_end(&prog, "main")));
        let oob = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::assign("x", Expr::int(1).div(Expr::int(0)))],
        )]);
        assert!(is_error(run_to_end(&oob, "main")));
    }

    #[test]
    fn unknown_procedure_is_an_error() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::call_static("r", "nope", vec![])],
        )]);
        assert!(is_error(run_to_end(&prog, "main")));
    }
}
