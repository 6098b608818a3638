//! The execution backend: block dispatch over compiled GIL.
//!
//! [`step_block`] is the engine's inner loop. Where [`crate::interp::step`]
//! executes exactly one command and hands every successor back to the
//! explorer's worklist, `step_block` retires up to a *block* of commands in
//! place — a fused basic-block dispatch over the register bytecode of
//! [`gillian_gil::compile`] — and only surfaces when the path forks,
//! finishes, or exhausts its block budget. The worklist round-trip,
//! configuration re-destructuring, and per-command panic-guard entry that
//! a command-at-a-time loop would pay per command are paid once per block.
//!
//! ## Exact equivalence contract
//!
//! The tree walk of [`crate::interp`] is the reference semantics (paper
//! Fig. 1), and this backend must produce the same `(trace, outcome,
//! cmds)` triple for every path, on every program, under every state
//! model, as [`crate::interp::all_paths`] enumerates over it:
//!
//! - **Traces.** A branch-trace entry is pushed only when a step yields
//!   more than one successor. The block loop continues in place *only* on
//!   single-successor steps, so it forks exactly where the tree walk
//!   forks — and returns the fork to the explorer, which applies the same
//!   trace rule as the reference.
//! - **Command accounting.** The loop publishes its progress through a
//!   caller-supplied atomic *before* executing each command: when the
//!   block returns (or panics out through the explorer's panic guard),
//!   the atomic holds exactly the number of commands the tree walk would
//!   have charged, including the in-flight one.
//! - **Semantics.** Each [`Instr`] arm mirrors the corresponding
//!   [`crate::interp::step`] rule operation-for-operation — same
//!   evaluation order, same error messages, same error precedence. The
//!   state-model hooks it calls ([`GilState::eval_code`],
//!   [`GilState::guard_code`], [`GilState::execute_action_coded`])
//!   default to the tree-walk methods and are overridden only by
//!   implementations that promise exact agreement.
//!
//! The backend batteries (`bytecode_equiv` and the While, MiniJS and
//! MiniC `bytecode_*` tests) check this contract against `all_paths`.
//!
//! ## Frame slots
//!
//! Compiled code names variables by slot in its procedure's
//! [`Layout`], so the loop keeps the state's frame laid out by the layout
//! of the procedure executing. A call builds the callee frame in the
//! callee's layout from its parameter slots; the loop checks the layout
//! (one pointer compare) only at block entry and after a return, and
//! moves the frame onto it by name when it differs — a frame built
//! outside compiled code, such as the empty entry frame or a decoded
//! checkpoint frame. A frame binding a variable its procedure lacks
//! (possible only in a damaged checkpoint) cannot be laid out; its
//! commands run on the tree walk, which keeps the binding.
//!
//! ## Inline caches
//!
//! Memory-action sites carry a per-site [`AtomicU32`] inline cache mapping
//! the action name to the memory model's dense action code
//! ([`GilState::action_code`]). The first dispatch at a site resolves the
//! cache; every later dispatch skips string matching. Caches are never
//! invalidated: programs are immutable after compile and an exploration
//! binds a single memory model, so a resolved code can never go stale.
//!
//! [`Instr`]: gillian_gil::compile::Instr
//! [`AtomicU32`]: std::sync::atomic::AtomicU32

use crate::interp::{Config, Final, Frame, Outcome, StepOut};
use crate::state::{GilState, GuardEval};
use gillian_gil::compile::{
    CompiledProc, CompiledProg, EvalScratch, Instr, IC_BIAS, IC_NO_CODE, IC_UNRESOLVED,
};
use gillian_gil::{Ident, Layout};
use gillian_solver::Interrupt;
use gillian_telemetry::{names, registry, Counter, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Upper bound on commands retired per [`step_block`] call. Large enough
/// to amortize dispatch overhead over straight-line runs, small enough
/// that per-path budget clamping keeps blocks exact. (Deadline and
/// cancellation stay per-command responsive regardless: the block polls
/// its [`Interrupt`] between commands and surfaces early when it fires.)
pub const BLOCK_MAX: u64 = 64;

fn exec_blocks() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| registry().counter(names::EXEC_BLOCKS))
}

fn exec_cmds() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| registry().counter(names::EXEC_CMDS))
}

fn block_cmds_histogram() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| registry().histogram(names::EXEC_BLOCK_CMDS))
}

fn ic_hits() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| registry().counter(names::EXEC_IC_HITS))
}

fn ic_misses() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| registry().counter(names::EXEC_IC_MISSES))
}

/// The dispatcher's per-step time attribution, fed to the exploration
/// profiler. The engines pass one (only when the journal is armed — a
/// disabled run passes `None` and pays a single branch per block) and
/// drain it into `ProcTime` journal events after each step.
///
/// A **segment** is a maximal run of commands executed under one call
/// stack. The block loop observes the stack before every command; a
/// segment closes when the stack changes (call/return) or when the
/// engine drains, charging the segment its elapsed wall time and
/// retired commands. The call stack is rendered bottom-first and joined
/// with `;` (`"main;f"`), ready for folded-stack output.
#[derive(Debug, Default)]
pub struct BlockProfile {
    segments: Vec<(String, u64, u64)>,
    open: Option<OpenSegment>,
}

#[derive(Debug)]
struct OpenSegment {
    /// Cheap identity of the stack: `(depth, pid)`. Every call/return
    /// changes the depth, so within one block the key changes exactly
    /// at proc transitions — the rendered stack is built only then.
    key: (usize, u32),
    stack: String,
    since_cmds: u64,
    t0: std::time::Instant,
}

impl BlockProfile {
    /// An empty profile.
    pub fn new() -> BlockProfile {
        BlockProfile::default()
    }

    /// Notes that the next command executes under the stack identified
    /// by `key` (`cmds` commands having completed so far); `render` is
    /// invoked only when this opens a new segment.
    fn observe(&mut self, key: (usize, u32), cmds: u64, render: impl FnOnce() -> String) {
        match &self.open {
            Some(open) if open.key == key => {}
            _ => {
                self.close(cmds);
                self.open = Some(OpenSegment {
                    key,
                    stack: render(),
                    since_cmds: cmds,
                    t0: std::time::Instant::now(),
                });
            }
        }
    }

    fn close(&mut self, cmds: u64) {
        let Some(open) = self.open.take() else { return };
        let micros = open.t0.elapsed().as_micros() as u64;
        let seg_cmds = cmds.saturating_sub(open.since_cmds);
        if seg_cmds == 0 && micros == 0 {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            if last.0 == open.stack {
                last.1 += seg_cmds;
                last.2 += micros;
                return;
            }
        }
        self.segments.push((open.stack, seg_cmds, micros));
    }

    /// Closes the in-flight segment (charging it up to `cmds` retired
    /// commands — the engine passes the block's final progress reading,
    /// which is exact even when the block panicked out) and takes every
    /// accumulated `(stack, cmds, micros)` segment.
    pub fn drain(&mut self, cmds: u64) -> Vec<(String, u64, u64)> {
        self.close(cmds);
        std::mem::take(&mut self.segments)
    }
}

/// Renders a configuration's call stack bottom-first (`"main;f"`): each
/// frame's caller, then the procedure currently executing.
fn render_stack<S: GilState>(stack: &[Frame<S>], proc: &Ident) -> String {
    let mut out = String::new();
    for frame in stack {
        out.push_str(frame.caller.as_ref());
        out.push(';');
    }
    out.push_str(proc.as_ref());
    out
}

fn done<S: GilState>(state: S, outcome: Outcome<S::V>) -> StepOut<S> {
    StepOut::Done(Final { state, outcome })
}

fn err_done<S: GilState>(state: S, v: S::V) -> StepOut<S> {
    done(state, Outcome::Error(v))
}

fn next<S: GilState>(state: S, stack: Vec<Frame<S>>, proc: Ident, idx: usize) -> StepOut<S> {
    StepOut::Next(Config {
        state,
        stack,
        proc,
        idx,
    })
}

/// Lays the state's frame out by `layout`: a pointer compare when it
/// already is, a move by name otherwise. False when the frame binds a
/// variable `layout` lacks.
fn rebind<S: GilState>(state: &mut S, layout: &Arc<Layout>) -> bool {
    if Arc::ptr_eq(state.store().layout(), layout) {
        return true;
    }
    match state.store().relayout(layout) {
        Some(frame) => {
            state.set_store(frame);
            true
        }
        None => false,
    }
}

/// The slot a return into `caller` at `ret_idx` writes: the left-hand side
/// of the call just before `ret_idx` when it names `ret_var` (always so
/// for frames compiled code pushed), else the slot of `ret_var` by name.
fn ret_slot(caller: &CompiledProc, ret_idx: usize, ret_var: &Ident) -> Option<u32> {
    if let Some(Instr::Call { lhs, .. }) = ret_idx.checked_sub(1).and_then(|i| caller.body.get(i)) {
        if caller.layout.name(*lhs) == ret_var {
            return Some(*lhs);
        }
    }
    caller.layout.slot(ret_var)
}

/// Executes up to `limit` commands of `compiled` from `cfg`, returning the
/// successors of the last command executed (exactly as
/// [`crate::interp::step`] would for that command).
///
/// `limit` must be at least 1 and must already be clamped to the path and
/// total command budgets — the block never checks them itself. `progress`
/// is the crash-safe accounting channel: it is set to `n` immediately
/// before the `n`-th command of the block executes, so the caller can read
/// the exact charge even if the command panics out through a guard.
/// `scratch` is the per-worker register file for compiled expression
/// evaluation. `interrupt` is the run's deadline/cancel pair: the block
/// polls it between commands and surfaces its in-flight configuration
/// early when it fires, so the explorer's scheduling-point checks stay
/// per-command responsive. `profile`, when present, accumulates
/// per-call-stack exclusive time segments for the exploration profiler
/// (see [`BlockProfile`]); pass `None` on untraced runs to keep the block
/// loop timer-free.
pub fn step_block<S: GilState>(
    compiled: &CompiledProg,
    cfg: Config<S>,
    limit: u64,
    interrupt: &Interrupt,
    progress: &AtomicU64,
    scratch: &mut EvalScratch,
    profile: Option<&mut BlockProfile>,
) -> Vec<StepOut<S>> {
    debug_assert!(limit >= 1, "block budget must admit at least one command");
    let outs = block(compiled, cfg, limit, interrupt, progress, scratch, profile);
    let charged = progress.load(Ordering::Relaxed);
    exec_blocks().incr();
    exec_cmds().add(charged);
    block_cmds_histogram().record(charged);
    outs
}

/// The block loop: direct dispatch over [`Instr`], mirroring
/// [`crate::interp::step`] arm-for-arm.
fn block<S: GilState>(
    compiled: &CompiledProg,
    cfg: Config<S>,
    limit: u64,
    interrupt: &Interrupt,
    progress: &AtomicU64,
    scratch: &mut EvalScratch,
    mut profile: Option<&mut BlockProfile>,
) -> Vec<StepOut<S>> {
    let Config {
        mut state,
        mut stack,
        mut proc,
        mut idx,
    } = cfg;
    // Dense id of the procedure currently executing; `None` reproduces
    // the tree walk's "unknown procedure" error on the next charged
    // command (e.g. after returning into a caller the program no longer
    // defines — impossible for frames this loop pushed, possible for
    // hand-built configurations).
    let mut cur = compiled.pid(&proc);
    // Dense ids of the callers of frames *this block* pushed, so returns
    // within the block skip the name lookup. Frames pushed by earlier
    // blocks fall back to `pid(frame.caller)`.
    let mut shadow: Vec<u32> = Vec::new();
    // Whether the frame is known to be laid out by `cur`'s layout.
    let mut laid_out = false;
    let mut charged = 0u64;
    loop {
        if let Some(p) = profile.as_deref_mut() {
            p.observe((stack.len(), cur.unwrap_or(u32::MAX)), charged, || {
                render_stack(&stack, &proc)
            });
        }
        charged += 1;
        progress.store(charged, Ordering::Relaxed);
        let Some(pid) = cur else {
            let v = state.error_value(&format!("unknown procedure {proc}"));
            return vec![err_done(state, v)];
        };
        let cp = compiled.by_pid(pid);
        if !laid_out {
            if !rebind(&mut state, &cp.layout) {
                let cfg = Config {
                    state,
                    stack,
                    proc,
                    idx,
                };
                return crate::interp::step_in(
                    &|f| compiled.pid(f).map(|p| compiled.source(p)),
                    cfg,
                );
            }
            laid_out = true;
        }
        let Some(instr) = cp.body.get(idx) else {
            let v = state.error_value(&format!("fell off the end of {proc} at {idx}"));
            return vec![err_done(state, v)];
        };
        match instr {
            Instr::Assign { lhs, code } => match state.eval_code(code, scratch) {
                Ok(v) => {
                    state.set_slot(*lhs, v);
                    idx += 1;
                }
                Err(v) => return vec![err_done(state, v)],
            },
            Instr::CmpGoto { code, target } => match state.guard_code(code, scratch) {
                GuardEval::Take(taken) => {
                    idx = if taken { *target } else { idx + 1 };
                }
                GuardEval::Fork(mut branches) => match branches.len() {
                    0 => return Vec::new(),
                    1 => {
                        let (st, taken) = branches.pop().expect("len checked");
                        state = st;
                        idx = if taken { *target } else { idx + 1 };
                    }
                    _ => {
                        return branches
                            .into_iter()
                            .map(|(st, taken)| {
                                let j = if taken { *target } else { idx + 1 };
                                next(st, stack.clone(), proc.clone(), j)
                            })
                            .collect()
                    }
                },
                GuardEval::Fail(v) => return vec![err_done(state, v)],
            },
            Instr::Goto { target } => idx = *target,
            Instr::Call {
                lhs,
                code,
                args,
                hint,
            } => {
                let callee_v = match state.eval_code(code, scratch) {
                    Ok(v) => v,
                    Err(v) => return vec![err_done(state, v)],
                };
                // Dynamic resolution stays even for hinted sites: a
                // custom state model may reject (or rewrite) callee
                // values, and the hint is only a post-resolution pid
                // shortcut.
                let callee = match state.resolve_proc(&callee_v) {
                    Ok(f) => f,
                    Err(v) => return vec![err_done(state, v)],
                };
                let mut arg_vs = Vec::with_capacity(args.len());
                for a in args {
                    match state.eval_code(a, scratch) {
                        Ok(v) => arg_vs.push(v),
                        Err(v) => return vec![err_done(state, v)],
                    }
                }
                let np = match hint {
                    Some(h) if h.name == callee => h.pid,
                    _ => compiled.pid(&callee),
                };
                // "unknown procedure" is raised *after* argument
                // evaluation, exactly as the tree walk orders it.
                let Some(np) = np else {
                    let v = state.error_value(&format!("unknown procedure {callee}"));
                    return vec![err_done(state, v)];
                };
                let callee_cp = compiled.by_pid(np);
                let new_store =
                    gillian_gil::Frame::bind(&callee_cp.layout, &callee_cp.param_slots, arg_vs);
                let caller_store = state.store().clone();
                shadow.push(pid);
                stack.push(Frame {
                    caller: std::mem::replace(&mut proc, callee),
                    ret_var: cp.layout.name(*lhs).clone(),
                    store: caller_store,
                    ret_idx: idx + 1,
                });
                state.set_store(new_store);
                cur = Some(np);
                idx = 0;
            }
            Instr::Return { code } => match state.eval_code(code, scratch) {
                Ok(v) => match stack.pop() {
                    Some(frame) => {
                        state.set_store(frame.store);
                        proc = frame.caller;
                        idx = frame.ret_idx;
                        cur = shadow.pop().or_else(|| compiled.pid(&proc));
                        let slot = cur
                            .map(|p| compiled.by_pid(p))
                            .filter(|caller| rebind(&mut state, &caller.layout))
                            .and_then(|caller| ret_slot(caller, idx, &frame.ret_var));
                        match slot {
                            Some(slot) => state.set_slot(slot, v),
                            None => {
                                state.set_var(&frame.ret_var, v);
                                laid_out = false;
                            }
                        }
                    }
                    None => return vec![done(state, Outcome::Normal(v))],
                },
                Err(v) => return vec![err_done(state, v)],
            },
            Instr::Fail { code } => match state.eval_code(code, scratch) {
                Ok(v) | Err(v) => return vec![err_done(state, v)],
            },
            Instr::Vanish => return vec![done(state, Outcome::Vanished)],
            Instr::Action {
                lhs,
                name,
                code,
                ic,
            } => {
                let arg_v = match state.eval_code(code, scratch) {
                    Ok(v) => v,
                    Err(v) => return vec![err_done(state, v)],
                };
                let action = match ic.load(Ordering::Relaxed) {
                    IC_UNRESOLVED => {
                        let c = state.action_code(name.as_ref());
                        ic.store(
                            c.map_or(IC_NO_CODE, |k| u32::from(k) + IC_BIAS),
                            Ordering::Relaxed,
                        );
                        ic_misses().incr();
                        c
                    }
                    IC_NO_CODE => {
                        ic_hits().incr();
                        None
                    }
                    k => {
                        ic_hits().incr();
                        Some((k - IC_BIAS) as u16)
                    }
                };
                let mut branches = match action {
                    Some(k) => state.execute_action_coded(k, name.as_ref(), arg_v),
                    None => state.execute_action(name.as_ref(), arg_v),
                };
                match branches.len() {
                    0 => return Vec::new(),
                    1 => {
                        let (mut st, outcome) = branches.pop().expect("len checked");
                        match outcome {
                            Ok(v) => {
                                st.set_slot(*lhs, v);
                                state = st;
                                idx += 1;
                            }
                            Err(v) => return vec![err_done(st, v)],
                        }
                    }
                    _ => {
                        return branches
                            .into_iter()
                            .map(|(mut st, outcome)| match outcome {
                                Ok(v) => {
                                    st.set_slot(*lhs, v);
                                    next(st, stack.clone(), proc.clone(), idx + 1)
                                }
                                Err(v) => err_done(st, v),
                            })
                            .collect()
                    }
                }
            }
            Instr::USym { lhs, site } => {
                let v = state.fresh_usym(*site);
                state.set_slot(*lhs, v);
                idx += 1;
            }
            Instr::ISym { lhs, site } => {
                let v = state.fresh_isym(*site);
                state.set_slot(*lhs, v);
                idx += 1;
            }
            Instr::Skip => idx += 1,
        }
        if charged >= limit || interrupt.interrupted() {
            return vec![next(state, stack, proc, idx)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::ConcreteState;
    use crate::interp;
    use crate::memory::ConcreteMemory;
    use gillian_gil::{Cmd, Expr, Proc, Prog, Value};

    #[derive(Clone, Debug, Default)]
    struct NoMem;
    impl ConcreteMemory for NoMem {
        fn execute_action(&mut self, name: &str, _: Value) -> Result<Value, Value> {
            Err(Value::str(format!("no actions ({name})")))
        }
    }

    type St = ConcreteState<NoMem>;

    /// Runs `prog` to completion in blocks of at most `limit` commands,
    /// asserting the outcome and command charge of the reference tree
    /// walk ([`interp::all_paths`]).
    fn run_both(prog: &Prog, limit: u64) -> (Outcome<Value>, u64) {
        let compiled = prog.bytecode();
        let progress = AtomicU64::new(0);
        let mut scratch = EvalScratch::new();
        let mut pending = vec![Config::entry("main", St::new())];
        let mut cmds = 0u64;
        let mut finals = Vec::new();
        let mut fuel = 10_000;
        while let Some(cfg) = pending.pop() {
            fuel -= 1;
            assert!(fuel > 0, "runaway test program");
            progress.store(0, Ordering::Relaxed);
            let outs = step_block(
                &compiled,
                cfg,
                limit,
                &Interrupt::default(),
                &progress,
                &mut scratch,
                None,
            );
            cmds += progress.load(Ordering::Relaxed);
            for out in outs {
                match out {
                    StepOut::Next(c) => pending.push(c),
                    StepOut::Done(f) => finals.push(f),
                }
            }
        }
        assert_eq!(finals.len(), 1, "concrete execution is deterministic");
        let outcome = finals.pop().unwrap().outcome;
        let reference = interp::all_paths(prog, "main", St::new(), 10_000);
        let [path] = &reference.paths[..] else {
            panic!("the reference found {} paths", reference.paths.len());
        };
        assert_eq!(
            path.outcome,
            outcome.clone().into(),
            "outcomes must agree with the reference"
        );
        assert_eq!(
            reference.total_cmds, cmds,
            "command charges must agree with the reference"
        );
        (outcome, cmds)
    }

    fn call_prog() -> Prog {
        Prog::from_procs([
            Proc::new(
                "main",
                [],
                vec![
                    Cmd::assign("x", Expr::int(1)),
                    Cmd::call_static("y", "double", vec![Expr::int(21)]),
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
        ])
    }

    #[test]
    fn blocks_agree_with_tree_walk_on_calls() {
        for limit in [1, 2, 3, BLOCK_MAX] {
            let (outcome, cmds) = run_both(&call_prog(), limit);
            assert_eq!(outcome, Outcome::Normal(Value::Int(43)));
            assert_eq!(cmds, 5, "three main cmds + two double cmds");
        }
    }

    #[test]
    fn loops_and_branches_agree() {
        // while (x < 40) x := x + 1; return x
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![
                Cmd::assign("x", Expr::int(0)),
                Cmd::IfGoto(Expr::pvar("x").lt(Expr::int(40)), 3),
                Cmd::Return(Expr::pvar("x")),
                Cmd::assign("x", Expr::pvar("x").add(Expr::int(1))),
                Cmd::Goto(1),
            ],
        )]);
        for limit in [1, 7, BLOCK_MAX] {
            let (outcome, _) = run_both(&prog, limit);
            assert_eq!(outcome, Outcome::Normal(Value::Int(40)));
        }
    }

    #[test]
    fn errors_agree_in_message_and_charge() {
        for body in [
            vec![Cmd::assign("x", Expr::pvar("missing"))],
            vec![Cmd::assign("x", Expr::int(1).div(Expr::int(0)))],
            vec![Cmd::call_static("r", "nope", vec![])],
            vec![Cmd::Fail(Expr::str("boom"))],
            vec![Cmd::assign("x", Expr::int(0))], // falls off the end
        ] {
            let prog = Prog::from_procs([Proc::new("main", [], body)]);
            let (outcome, _) = run_both(&prog, BLOCK_MAX);
            assert!(outcome.is_error(), "got {outcome:?}");
        }
    }

    #[test]
    fn unknown_entry_procedure_errors() {
        let prog = Prog::from_procs([Proc::new("main", [], vec![Cmd::Vanish])]);
        let compiled = prog.bytecode();
        let progress = AtomicU64::new(0);
        let mut scratch = EvalScratch::new();
        let cfg = Config::entry("nope", St::new());
        let outs = step_block(
            &compiled,
            cfg,
            BLOCK_MAX,
            &Interrupt::default(),
            &progress,
            &mut scratch,
            None,
        );
        assert_eq!(outs.len(), 1);
        let StepOut::Done(f) = &outs[0] else {
            panic!("expected a finished path");
        };
        assert_eq!(
            f.outcome,
            Outcome::Error(Value::str("unknown procedure nope"))
        );
        assert_eq!(progress.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn block_limit_cuts_exactly_and_resumes() {
        let prog = call_prog();
        let compiled = prog.bytecode();
        let progress = AtomicU64::new(0);
        let mut scratch = EvalScratch::new();
        let outs = step_block(
            &compiled,
            Config::entry("main", St::new()),
            2,
            &Interrupt::default(),
            &progress,
            &mut scratch,
            None,
        );
        assert_eq!(progress.load(Ordering::Relaxed), 2);
        assert_eq!(outs.len(), 1);
        let StepOut::Next(c) = outs.into_iter().next().unwrap() else {
            panic!("expected a continuation");
        };
        // Two commands in: inside `double`, with the caller frame saved.
        assert_eq!(c.proc.as_ref(), "double");
        assert_eq!(c.stack.len(), 1);
    }

    #[test]
    fn action_inline_cache_resolves_to_no_code() {
        let prog = Prog::from_procs([Proc::new(
            "main",
            [],
            vec![Cmd::action("r", "poke", Expr::int(1))],
        )]);
        let compiled = prog.bytecode();
        let progress = AtomicU64::new(0);
        let mut scratch = EvalScratch::new();
        let outs = step_block(
            &compiled,
            Config::entry("main", St::new()),
            BLOCK_MAX,
            &Interrupt::default(),
            &progress,
            &mut scratch,
            None,
        );
        assert_eq!(outs.len(), 1, "NoMem action errors deterministically");
        // The site's cache is now resolved to "no dense code".
        let Instr::Action { ic, .. } = &compiled.proc("main").unwrap().body[0] else {
            panic!("expected an action instruction");
        };
        assert_eq!(ic.load(Ordering::Relaxed), IC_NO_CODE);
    }
}
