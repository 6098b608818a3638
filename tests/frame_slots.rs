//! Frame slots: every compiled procedure names its variables by slot in a
//! layout sorted by name, and slot-addressed execution binds, reads,
//! reports and checkpoints variables as the by-name tree walk does.

use gillian::core::checkpoint::{decode_checkpoint, encode_checkpoint, StateCtx, StateIoError};
use gillian::core::explore::{explore, explore_resume, ExploreConfig, ExploreResult};
use gillian::core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian::core::interp::all_paths;
use gillian::core::{
    CheckpointConfig, ConcreteMemory, ConcreteState, FaultPlan, GilState, SymBranch,
    SymbolicMemory, SymbolicState,
};
use gillian::gil::compile::{CompiledProc, EOp, ExprCode, ExprKind, Instr};
use gillian::gil::serial::{ByteReader, Decoder, Encoder};
use gillian::gil::{Cmd, Expr, Ident, Proc, Prog, Value};
use gillian::solver::{PathCondition, Solver};
use gillian::telemetry::Journal;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

/// A concrete memory whose every action echoes its argument.
#[derive(Clone, Debug, Default)]
struct EchoConc;

impl ConcreteMemory for EchoConc {
    fn execute_action(&mut self, _: &str, arg: Value) -> Result<Value, Value> {
        Ok(arg)
    }
}

/// The symbolic twin of [`EchoConc`], with checkpoint support.
#[derive(Clone, Debug, Default)]
struct EchoSym;

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

    fn save(&self, _: &mut Encoder, _: &mut Vec<u8>) -> Result<(), StateIoError> {
        Ok(())
    }

    fn load(_: &Decoder, _: &mut ByteReader<'_>) -> Result<Self, StateIoError> {
        Ok(EchoSym)
    }
}

type Conc = ConcreteState<EchoConc>;
type Sym = SymbolicState<EchoSym>;

fn config() -> ExploreConfig {
    ExploreConfig {
        journal: Journal::disabled(),
        ..ExploreConfig::default()
    }
}

/// Each path as (trace, outcome, commands, final store), in trace order.
fn paths<S: GilState>(r: &ExploreResult<S>) -> Vec<(Vec<u32>, String, u64, String)> {
    let mut out: Vec<_> = r
        .paths
        .iter()
        .map(|p| {
            let outcome = format!("{:?}", p.outcome);
            (
                p.trace.clone(),
                outcome,
                p.cmds,
                format!("{:?}", p.state.store()),
            )
        })
        .collect();
    out.sort();
    out
}

/// Explores `prog` on the bytecode and on the tree walk, concretely and
/// symbolically, demanding the same paths and final stores; returns the
/// concrete paths.
fn agree(prog: &Prog) -> Vec<(Vec<u32>, String, u64, String)> {
    let bytecode = explore(prog, "main", Conc::new(), config());
    let tree = all_paths(prog, "main", Conc::new(), 10_000);
    assert_eq!(paths(&bytecode), paths(&tree), "concrete:\n{prog}");
    let solver = || Arc::new(Solver::optimized());
    let bytecode = explore(prog, "main", Sym::new(solver()), config());
    let tree = all_paths(prog, "main", Sym::new(solver()), 10_000);
    assert_eq!(paths(&bytecode), paths(&tree), "symbolic:\n{prog}");
    paths(&explore(prog, "main", Conc::new(), config()))
}

/// The shipped programs: every Buckets and Collections suite and a sample
/// of generated While programs.
fn shipped() -> Vec<(String, Prog)> {
    let mut out = Vec::new();
    for suite in gillian::js::buckets::suite_names() {
        out.push((
            format!("buckets {suite}"),
            gillian::js::buckets::suite_prog(suite).0,
        ));
    }
    for suite in gillian::c::collections::suite_names() {
        let (prog, _) = gillian::c::collections::suite_prog(suite).expect("suite compiles");
        out.push((format!("collections {suite}"), prog));
    }
    for seed in 0..20 {
        let ops = gen_ops(&mut Rng::new(seed), 14, MemDialect::While);
        out.push((
            format!("generated {seed}"),
            build_prog(&ops, MemDialect::While),
        ));
    }
    out
}

/// The program variables of `e`, left to right, repeats included.
fn var_leaves(e: &Expr) -> Vec<Ident> {
    let mut out = Vec::new();
    e.visit(&mut |sub| {
        if let Expr::PVar(x) = sub {
            out.push(x.clone());
        }
    });
    out
}

/// The variables a compiled site reads, by the names its slots have.
fn slot_reads(cp: &CompiledProc, code: &ExprCode) -> Vec<Ident> {
    let name = |s: &u32| cp.layout.name(*s).clone();
    match code.kind() {
        ExprKind::Lit(_) | ExprKind::Closed(_) => Vec::new(),
        ExprKind::Var(s) | ExprKind::Bin1 { var: s, .. } => vec![name(s)],
        ExprKind::Reg(rp) => rp
            .ops()
            .iter()
            .filter_map(|op| match op {
                EOp::Load { var, .. } => Some(name(var)),
                _ => None,
            })
            .collect(),
    }
}

/// Checks one instruction's slot operands against its source command:
/// the variable written and the variables read, in evaluation order.
fn check_operands(cp: &CompiledProc, cmd: &Cmd, instr: &Instr) {
    let site = |code: &ExprCode, e: &Expr| {
        assert_eq!(
            slot_reads(cp, code),
            var_leaves(e),
            "{}: reads of {e}",
            cp.name
        );
    };
    let lhs = |slot: &u32, x: &Ident| {
        assert_eq!(cp.layout.name(*slot), x, "{}: target of {cmd}", cp.name);
    };
    match (cmd, instr) {
        (Cmd::Assign(x, e), Instr::Assign { lhs: s, code }) => {
            lhs(s, x);
            site(code, e);
        }
        (Cmd::IfGoto(e, _), Instr::CmpGoto { code, .. })
        | (Cmd::Return(e), Instr::Return { code })
        | (Cmd::Fail(e), Instr::Fail { code }) => site(code, e),
        (
            Cmd::Call { lhs: x, proc, args },
            Instr::Call {
                lhs: s,
                code,
                args: codes,
                ..
            },
        ) => {
            lhs(s, x);
            site(code, proc);
            assert_eq!(args.len(), codes.len());
            for (a, c) in args.iter().zip(codes) {
                site(c, a);
            }
        }
        (Cmd::Action { lhs: x, arg, .. }, Instr::Action { lhs: s, code, .. }) => {
            lhs(s, x);
            site(code, arg);
        }
        (Cmd::USym { lhs: x, .. }, Instr::USym { lhs: s, .. })
        | (Cmd::ISym { lhs: x, .. }, Instr::ISym { lhs: s, .. }) => lhs(s, x),
        (Cmd::Goto(_), Instr::Goto { .. })
        | (Cmd::Vanish, Instr::Vanish)
        | (Cmd::Skip, Instr::Skip) => {}
        (cmd, instr) => panic!("{}: {cmd} compiled to {instr:?}", cp.name),
    }
}

/// The variables a procedure's layout must list: its parameters and every
/// variable it assigns or reads.
fn variables(p: &Proc) -> BTreeSet<Ident> {
    let mut out: BTreeSet<Ident> = p.params.iter().cloned().collect();
    for cmd in &p.body {
        let (lhs, exprs): (Option<&Ident>, Vec<&Expr>) = match cmd {
            Cmd::Assign(x, e) => (Some(x), vec![e]),
            Cmd::IfGoto(e, _) | Cmd::Return(e) | Cmd::Fail(e) => (None, vec![e]),
            Cmd::Call { lhs, proc, args } => {
                (Some(lhs), std::iter::once(proc).chain(args).collect())
            }
            Cmd::Action { lhs, arg, .. } => (Some(lhs), vec![arg]),
            Cmd::USym { lhs, .. } | Cmd::ISym { lhs, .. } => (Some(lhs), Vec::new()),
            Cmd::Goto(_) | Cmd::Vanish | Cmd::Skip => (None, Vec::new()),
        };
        out.extend(lhs.cloned());
        for e in exprs {
            out.extend(var_leaves(e));
        }
    }
    out
}

#[test]
fn shipped_layouts_are_sorted_unique_and_exact() {
    let mut procs = 0;
    for (name, prog) in shipped() {
        let compiled = prog.bytecode();
        for pid in prog.iter().filter_map(|p| compiled.pid(&p.name)) {
            let cp = compiled.by_pid(pid);
            let names = cp.layout.names();
            assert!(
                names.windows(2).all(|w| w[0] < w[1]),
                "{name}: layout of {} is not sorted and unique: {names:?}",
                cp.name
            );
            let want = variables(compiled.source(pid));
            let got: BTreeSet<Ident> = names.iter().cloned().collect();
            assert_eq!(got, want, "{name}: layout of {}", cp.name);
            let params: Vec<&Ident> = cp.param_slots.iter().map(|s| cp.layout.name(*s)).collect();
            let want: Vec<&Ident> = compiled.source(pid).params.iter().collect();
            assert_eq!(params, want, "{name}: parameter slots of {}", cp.name);
            procs += 1;
        }
    }
    assert!(procs > 100, "only {procs} procedures checked");
}

#[test]
fn every_slot_operand_names_its_variable() {
    for (_, prog) in shipped() {
        let compiled = prog.bytecode();
        for pid in prog.iter().filter_map(|p| compiled.pid(&p.name)) {
            let cp = compiled.by_pid(pid);
            let src = compiled.source(pid);
            assert_eq!(cp.body.len(), src.body.len());
            for (cmd, instr) in src.body.iter().zip(&cp.body) {
                check_operands(cp, cmd, instr);
            }
        }
    }
}

/// `main` calls `f` with `args`; `f` has parameters `params`, assigns a
/// local and returns `ret`.
fn call_prog(args: Vec<Expr>, params: &[&str], ret: Expr) -> Prog {
    Prog::from_procs([
        Proc::new(
            "main",
            [],
            vec![
                Cmd::assign("m", Expr::int(7)),
                Cmd::call_static("r", "f", args),
                Cmd::Return(Expr::list([Expr::pvar("r"), Expr::pvar("m")])),
            ],
        ),
        Proc::new(
            "f",
            params.iter().copied(),
            vec![Cmd::assign("local", Expr::int(0)), Cmd::Return(ret)],
        ),
    ])
}

#[test]
fn calls_bind_arguments_as_the_tree_walk_does() {
    let a_b = Expr::list([Expr::pvar("a"), Expr::pvar("b")]);
    // Too few arguments: `b` stays unbound, and reading it fails in `f`,
    // whose frame binds only `a` and `local`.
    let few = agree(&call_prog(vec![Expr::int(1)], &["a", "b"], a_b.clone()));
    assert_eq!(few.len(), 1);
    assert!(few[0].1.contains("unbound variable b"), "{few:?}");
    assert_eq!(few[0].3, r#"{"a": Int(1), "local": Int(0)}"#);
    // Too many arguments: the extras are dropped.
    let many = agree(&call_prog(
        vec![Expr::int(1), Expr::int(2), Expr::int(3)],
        &["a", "b"],
        a_b,
    ));
    assert_eq!(many[0].1, "Normal(List([List([Int(1), Int(2)]), Int(7)]))");
    // A repeated parameter keeps its last argument.
    let dup = agree(&call_prog(
        vec![Expr::int(1), Expr::int(2)],
        &["a", "a"],
        Expr::pvar("a"),
    ));
    assert_eq!(dup[0].1, "Normal(List([Int(2), Int(7)]))");
    assert_eq!(dup[0].3, r#"{"m": Int(7), "r": Int(2)}"#);
}

#[test]
fn unbound_variable_errors_keep_their_text_and_order() {
    let y_then_z = Expr::pvar("y").add(Expr::pvar("z"));
    let cases: Vec<(Vec<Cmd>, &str)> = vec![
        (
            vec![Cmd::assign("x", Expr::pvar("y"))],
            "unbound variable y",
        ),
        (
            vec![Cmd::assign("x", y_then_z.clone())],
            "unbound variable y",
        ),
        (
            vec![Cmd::assign("z", Expr::int(1)), Cmd::assign("x", y_then_z)],
            "unbound variable y",
        ),
        (
            vec![
                Cmd::assign("y", Expr::int(1)),
                Cmd::assign("x", Expr::list([Expr::pvar("y"), Expr::pvar("z")])),
            ],
            "unbound variable z",
        ),
        (
            vec![Cmd::IfGoto(Expr::pvar("q").lt(Expr::int(1)), 0)],
            "unbound variable q",
        ),
        (
            vec![Cmd::call_static("r", "main", vec![Expr::pvar("w")])],
            "unbound variable w",
        ),
        (
            vec![Cmd::action("r", "echo", Expr::pvar("u"))],
            "unbound variable u",
        ),
        (vec![Cmd::Return(Expr::pvar("v"))], "unbound variable v"),
    ];
    for (mut body, want) in cases {
        body.push(Cmd::Return(Expr::int(0)));
        let prog = Prog::from_procs([Proc::new("main", [], body)]);
        let got = agree(&prog);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, format!("Error({:?})", Value::str(want)), "{prog}");
    }
}

/// `main` passes a symbol to `f`, which branches three times on it, so a
/// run's frontier sits inside `f` with `main`'s frame saved below.
fn branching_call_prog() -> Prog {
    let t = || Expr::pvar("t");
    Prog::from_procs([
        Proc::new(
            "main",
            [],
            vec![
                Cmd::ISym {
                    lhs: "x".into(),
                    site: 0,
                },
                Cmd::assign("k", Expr::int(5)),
                Cmd::call_static("r", "f", vec![Expr::pvar("x")]),
                Cmd::assign("y", Expr::pvar("r").add(Expr::pvar("k"))),
                Cmd::Return(Expr::pvar("y")),
            ],
        ),
        Proc::new(
            "f",
            ["n"],
            vec![
                Cmd::assign("t", Expr::pvar("n").mul(Expr::int(2))),
                Cmd::IfGoto(t().lt(Expr::int(10)), 3),
                Cmd::assign("t", t().sub(Expr::int(10))),
                Cmd::IfGoto(t().lt(Expr::int(5)), 5),
                Cmd::assign("t", t().add(Expr::int(1))),
                Cmd::IfGoto(Expr::pvar("n").eq(Expr::int(3)), 7),
                Cmd::Return(t()),
                Cmd::Fail(Expr::list([t()])),
            ],
        ),
    ])
}

fn ckpt_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gillian-frame-slots-{}-{tag}.bin",
        std::process::id()
    ))
}

/// Kills a run of [`branching_call_prog`] at scheduling point `k` and
/// returns its checkpoint, if the kill fired.
fn killed_checkpoint(prog: &Prog, solver: &Arc<Solver>, k: u64) -> Option<Vec<u8>> {
    let path = ckpt_path(&format!("kill-{k}"));
    let mut cfg = config();
    cfg.faults = Some(Arc::new(FaultPlan::seeded(1).kill_at(k)));
    cfg.checkpoint = Some(CheckpointConfig::at(&path));
    let cut = explore(prog, "main", Sym::new(solver.clone()), cfg);
    let bytes = std::fs::read(&path).ok();
    let _ = std::fs::remove_file(&path);
    cut.killed.then_some(bytes).flatten()
}

/// Resumes checkpoint `bytes`, returning the resumed paths keyed by trace.
fn resume(prog: &Prog, solver: &Arc<Solver>, bytes: &[u8], tag: &str) -> ExploreResult<Sym> {
    let path = ckpt_path(tag);
    std::fs::write(&path, bytes).expect("write checkpoint");
    let ctx = StateCtx::new(solver.clone());
    let resumed = explore_resume(prog, &path, &ctx, Sym::new(solver.clone()), config())
        .expect("a pristine checkpoint resumes");
    let _ = std::fs::remove_file(&path);
    resumed.result
}

#[test]
fn mid_call_checkpoints_resume_to_the_same_paths_and_stores() {
    let prog = branching_call_prog();
    let solver = Arc::new(Solver::optimized());
    let whole: BTreeMap<Vec<u32>, _> =
        paths(&explore(&prog, "main", Sym::new(solver.clone()), config()))
            .into_iter()
            .map(|(trace, outcome, cmds, store)| (trace, (outcome, cmds, store)))
            .collect();
    assert!(whole.len() > 3, "f branches: {whole:?}");
    let ctx = StateCtx::new(solver.clone());
    let mut mid_call = 0;
    for k in 1..8 {
        let Some(bytes) = killed_checkpoint(&prog, &solver, k) else {
            continue;
        };
        let data = decode_checkpoint::<Sym>(&bytes, &ctx).expect("decodes");
        mid_call += data
            .frontier
            .iter()
            .filter(|i| !i.config.stack.is_empty())
            .count();
        let resumed = resume(&prog, &solver, &bytes, &format!("resume-{k}"));
        assert!(!resumed.paths.is_empty(), "kill@{k} left nothing to resume");
        for (trace, outcome, cmds, store) in paths(&resumed) {
            assert_eq!(
                whole.get(&trace),
                Some(&(outcome, cmds, store)),
                "kill@{k}: path {trace:?}"
            );
        }
    }
    assert!(mid_call > 0, "no checkpoint caught a path inside f");
}

/// A checkpoint whose frames bind variables their procedures lack (which
/// only a damaged file can hold) resumes without a panic and keeps those
/// bindings, as the tree walk would.
#[test]
fn foreign_checkpoint_bindings_are_kept() {
    let prog = branching_call_prog();
    let solver = Arc::new(Solver::optimized());
    let ctx = StateCtx::new(solver.clone());
    let mut checked = 0;
    for k in 1..8 {
        let Some(bytes) = killed_checkpoint(&prog, &solver, k) else {
            continue;
        };
        let mut data = decode_checkpoint::<Sym>(&bytes, &ctx).expect("decodes");
        if data.frontier.iter().all(|i| i.config.stack.is_empty()) {
            continue;
        }
        for item in &mut data.frontier {
            item.config.state.set_var(&"zz_top".into(), Expr::int(1));
            for frame in &mut item.config.stack {
                frame.store.set(&"zz_caller".into(), Expr::int(2));
            }
        }
        let damaged = encode_checkpoint(&data).expect("encodes");
        let clean = resume(&prog, &solver, &bytes, &format!("clean-{k}"));
        let foreign = resume(&prog, &solver, &damaged, &format!("foreign-{k}"));
        assert_eq!(foreign.engine_errors().count(), 0, "kill@{k}");
        let shape = |r: &ExploreResult<Sym>| -> Vec<_> {
            paths(r).into_iter().map(|(t, o, c, _)| (t, o, c)).collect()
        };
        assert_eq!(
            shape(&foreign),
            shape(&clean),
            "kill@{k}: unused bindings changed the run"
        );
        for p in &foreign.paths {
            let store = p.state.store();
            assert!(
                store.get("zz_top").is_some() || store.get("zz_caller").is_some(),
                "kill@{k}: path {:?} lost its foreign binding: {store:?}",
                p.trace
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "no checkpoint caught a path inside f");
}
