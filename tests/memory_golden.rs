//! The general and coded action paths of the three symbolic memories,
//! pinned against a committed fixture.
//!
//! The coded-vs-general batteries compare two paths of the same code
//! with each other, so a change that moves both alike passes them. This
//! test compares both with `fixtures/memory_golden.txt`: for a few
//! hundred fixed `(memory, action, argument, path condition)` cases per
//! language, drawn from a seeded generator, it records every branch's
//! outcome, learned constraint and successor memory, and the solver
//! counters of each run. Cases cover literal and symbolic addresses,
//! keys and offsets, folded (`Value::List`) and unfolded argument lists,
//! wrong arities and an unsat path condition. Every case runs through
//! `execute_action` on a fresh solver, and through `execute_action_coded`
//! on another when the action has a code. Each solver first decides the
//! case's path condition, as the engine has before any action runs; an
//! unsat one runs no action.
//!
//! Memories are rendered through their public views, not their internal
//! maps: While `cells()`, MiniJS `objects()` and `heap_cells()`, MiniC
//! `blocks_iter()` and `cells_iter()`. Lines show expressions in their
//! `Display` form; a per-case FNV-1a digest of the `Debug` form pins
//! what `Display` cannot tell apart (an integer from a float, a folded
//! list from an unfolded one).
//!
//! Regenerate the fixture only when a change to branch lists or solver
//! traffic is intended:
//!
//! ```sh
//! cargo test --test memory_golden -- --ignored regenerate_fixture
//! ```

use gillian_c::chunks::Chunk;
use gillian_c::values::POISON;
use gillian_c::CSymMemory;
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::Rng;
use gillian_gil::{Expr, LVar, Sym, TypeTag, Value};
use gillian_js::values::undefined_expr;
use gillian_js::JsSymMemory;
use gillian_solver::{PathCondition, Solver, SolverStats};
use gillian_while::WhileSymMemory;
use std::fmt::Write as _;

const FIXTURE: &str = "tests/fixtures/memory_golden.txt";

/// Cases per language.
const CASES: usize = 300;

fn sym(i: u64) -> Value {
    Value::Sym(Sym(Sym::FIRST_FRESH + i))
}

fn lvar(i: u64) -> Expr {
    Expr::lvar(LVar(i))
}

fn pick<T: Clone>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize].clone()
}

/// An argument list as the evaluators build it: with `fold`, an
/// all-literal list is one `Value::List`, as the bytecode backend passes
/// it; otherwise it stays a list of expressions.
fn arg_list(parts: Vec<Expr>, fold: bool) -> Expr {
    let values: Option<Vec<Value>> = parts.iter().map(|e| e.as_value().cloned()).collect();
    match values {
        Some(vs) if fold => Expr::Val(Value::List(vs)),
        _ => Expr::list(parts),
    }
}

/// A wrong-arity argument list: one part dropped or one added.
fn bad_arity(mut parts: Vec<Expr>, rng: &mut Rng, fold: bool) -> Expr {
    if parts.len() > 1 && rng.below(2) == 0 {
        parts.pop();
    } else {
        parts.push(Expr::int(0));
    }
    arg_list(parts, fold)
}

/// The solver counters a case records, per leg: the traffic since
/// `base`.
fn counters(solver: &Solver, base: &SolverStats) -> String {
    let s = solver.stats();
    format!(
        "q={} hit={} unk={} inc={} models={} simp={}",
        s.sat_queries - base.sat_queries,
        s.cache_hits - base.cache_hits,
        s.sat_unknowns - base.sat_unknowns,
        s.incremental_hits - base.incremental_hits,
        s.model_searches - base.model_searches,
        s.simplifications - base.simplifications
    )
}

/// FNV-1a over `s`.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A memory's public view, as `(Display, Debug)` renderings.
trait View {
    fn view(&self) -> (String, String);
}

impl View for WhileSymMemory {
    fn view(&self) -> (String, String) {
        let cells: Vec<_> = self.cells().collect();
        let shown: Vec<String> = cells
            .iter()
            .map(|(l, p, v)| format!("{l}.{p}={v}"))
            .collect();
        (shown.join(" "), format!("{cells:?}"))
    }
}

impl View for JsSymMemory {
    fn view(&self) -> (String, String) {
        let objects: Vec<_> = self.objects().collect();
        let cells: Vec<_> = self.heap_cells().collect();
        let mut shown: Vec<String> = objects.iter().map(|(l, m)| format!("{l}:{m}")).collect();
        shown.extend(cells.iter().map(|((l, k), v)| format!("{l}[{k}]={v}")));
        (shown.join(" "), format!("{objects:?}{cells:?}"))
    }
}

impl View for CSymMemory {
    fn view(&self) -> (String, String) {
        let mut shown = Vec::new();
        let mut debug = String::new();
        for (b, size, perm, freed) in self.blocks_iter() {
            let cells: Vec<_> = self.cells_iter(b).collect();
            shown.push(format!("{b}/{size}/{perm}/{freed}"));
            shown.extend(
                cells
                    .iter()
                    .map(|(o, (v, k, n))| format!("@{o}=[{v},{k},{n}]")),
            );
            let _ = write!(debug, "{b:?}{size}{perm}{freed}{cells:?}");
        }
        (shown.join(" "), debug)
    }
}

/// The constraint a branch learned: the conjunct its condition adds to
/// the case's `pc`, or `true` when it keeps `pc`.
fn learned(pc: &PathCondition, branch: &PathCondition) -> Expr {
    match branch.conjuncts().get(pc.len()) {
        Some(added) => added.clone(),
        None => Expr::tt(),
    }
}

/// Renders the branches of one leg into `out`, and their `Debug` forms
/// into `exact`.
fn render_leg<M: View>(
    out: &mut String,
    exact: &mut String,
    leg: &str,
    pc: &PathCondition,
    branches: &[SymBranch<M>],
    solver: &Solver,
    base: &SolverStats,
) {
    let n = branches.len();
    let _ = writeln!(out, "  {leg}: {n} [{}]", counters(solver, base));
    for b in branches {
        let (kind, value) = match &b.outcome {
            Ok(v) => ("ok", v),
            Err(e) => ("err", e),
        };
        let (mem, mem_debug) = b.memory.view();
        let constraint = learned(pc, &b.pc);
        let _ = writeln!(out, "    {kind} {value} | {constraint} | {mem}");
        let _ = write!(exact, "{:?}{constraint:?}{mem_debug}", b.outcome);
    }
}

/// Runs one case through both entry points and renders it.
fn render_case<M: SymbolicMemory + View>(
    out: &mut String,
    label: &str,
    mem: M,
    name: &str,
    arg: &Expr,
    pc: impl Fn() -> PathCondition,
) {
    let (shown, _) = mem.view();
    let _ = writeln!(out, "{label} {name} {arg}");
    let conjuncts: Vec<String> = pc().conjuncts().iter().map(|e| e.to_string()).collect();
    if pc().is_trivially_false() {
        let _ = writeln!(out, "  pc: false");
    } else {
        let _ = writeln!(out, "  pc: {}", conjuncts.join(" /\\ "));
    }
    let _ = writeln!(out, "  mem: {shown}");
    let mut exact = format!("{arg:?}");
    // An action runs only under a decided condition (the precondition of
    // `execute_action`): each leg decides the case's condition on its
    // fresh solver first, as the engine has, and records the action's
    // own traffic after that. Under an unsat condition no action runs.
    let mut run_leg = |leg: &str, code: Option<u16>| {
        let (solver, pc) = (Solver::optimized(), pc());
        if !solver.check_sat(&pc).possibly_sat() {
            let _ = writeln!(out, "  {leg}: not run, unsat");
            return;
        }
        let base = solver.stats();
        let mem = mem.clone();
        let branches = match code {
            Some(code) => mem.execute_action_coded(code, name, arg, &pc, &solver),
            None => mem.execute_action(name, arg, &pc, &solver),
        };
        render_leg(out, &mut exact, leg, &pc, &branches, &solver, &base);
    };
    run_leg("general", None);
    if let Some(code) = mem.action_code(name) {
        run_leg("coded", Some(code));
    }
    let _ = writeln!(out, "  digest: {:016x}", digest(&exact));
}

// ---- While ------------------------------------------------------------

fn while_loc(rng: &mut Rng) -> Expr {
    match rng.below(5) {
        0 | 1 => lvar(rng.below(2)),
        _ => Expr::Val(sym(rng.below(4))),
    }
}

fn while_addr(rng: &mut Rng) -> Expr {
    match rng.below(6) {
        0 => Expr::int(7),
        _ => while_loc(rng),
    }
}

fn while_value(rng: &mut Rng) -> Expr {
    match rng.below(4) {
        0 => lvar(rng.below(2)).add(Expr::int(1)),
        _ => Expr::int(rng.below(3) as i64),
    }
}

/// Path condition `i` over `#0`: none, pinning or excluding an alias,
/// unsat.
fn while_pc(i: u64) -> PathCondition {
    let mut pc = PathCondition::new();
    match i {
        0 => {}
        1 => pc.push(lvar(0).eq(Expr::Val(sym(0)))),
        2 => pc.push(lvar(0).ne(Expr::Val(sym(1)))),
        _ => pc.push(Expr::ff()),
    }
    pc
}

fn while_cases(out: &mut String) {
    let mut rng = Rng::new(0x5745_4149_4c45);
    let props = ["a", "b", "c"];
    for i in 0..CASES {
        let mut m = WhileSymMemory::default();
        for _ in 0..rng.below(7) {
            let (l, p, v) = (
                while_loc(&mut rng),
                pick(&mut rng, &props),
                while_value(&mut rng),
            );
            m.insert(l, p, v);
        }
        let fold = rng.below(2) == 0;
        let (name, arg) = match rng.below(12) {
            0..=3 => {
                let parts = vec![while_addr(&mut rng), Expr::str(pick(&mut rng, &props))];
                ("lookup", arg_list(parts, fold))
            }
            4..=7 => {
                let (l, p) = (while_addr(&mut rng), pick(&mut rng, &props));
                let parts = vec![l, Expr::str(p), while_value(&mut rng)];
                ("mutate", arg_list(parts, fold))
            }
            8 | 9 => ("dispose", while_addr(&mut rng)),
            10 => {
                let name = pick(&mut rng, &["lookup", "mutate"]);
                let parts = [while_addr(&mut rng), Expr::int(0), Expr::int(1)];
                let parts = parts[..if name == "lookup" { 2 } else { 3 }].to_vec();
                (name, arg_list(parts, fold))
            }
            _ => {
                let name = pick(&mut rng, &["lookup", "mutate", "free"]);
                let parts = vec![while_addr(&mut rng), Expr::str("a")];
                (name, bad_arity(parts, &mut rng, fold))
            }
        };
        let pc = rng.below(4);
        render_case(out, &format!("while/{i}"), m, name, &arg, || while_pc(pc));
    }
}

// ---- MiniJS -----------------------------------------------------------

fn js_loc(rng: &mut Rng) -> Expr {
    match rng.below(3) {
        0 => lvar(rng.below(2)),
        _ => Expr::Val(sym(rng.below(4))),
    }
}

fn js_addr(rng: &mut Rng) -> Expr {
    match rng.below(8) {
        0 => undefined_expr(),
        _ => js_loc(rng),
    }
}

fn js_key(rng: &mut Rng) -> Expr {
    match rng.below(8) {
        0 | 1 => Expr::str(format!("k{}", rng.below(3))),
        2 | 3 => Expr::num(rng.below(3) as f64),
        4 => Expr::int(rng.below(2) as i64),
        5 => lvar(2 + rng.below(2)),
        6 => lvar(2).add(Expr::int(1)),
        _ => Expr::str("k0"),
    }
}

fn js_value(rng: &mut Rng) -> Expr {
    match rng.below(4) {
        0 => lvar(4),
        _ => Expr::num(rng.below(3) as f64),
    }
}

/// Path condition `i` over the location `#0` and the key `#2`: none,
/// pinning or excluding an object, pinning a key, unsat.
fn js_pc(i: u64) -> PathCondition {
    let mut pc = PathCondition::new();
    match i {
        0 => {}
        1 => pc.push(lvar(0).eq(Expr::Val(sym(0)))),
        2 => pc.push(lvar(0).ne(Expr::Val(sym(1)))),
        3 => pc.push(lvar(2).eq(Expr::str("k1"))),
        _ => pc.push(Expr::ff()),
    }
    pc
}

fn js_cases(out: &mut String) {
    let mut rng = Rng::new(0x4d49_4e49_4a53);
    let actions = [
        "newObj", "delObj", "getProp", "setProp", "delProp", "hasProp", "getMeta", "setMeta",
    ];
    for i in 0..CASES {
        let mut m = JsSymMemory::default();
        for _ in 0..rng.below(5) {
            let class = pick(&mut rng, &["Object", "Array"]);
            m.insert_object(js_loc(&mut rng), Expr::str(class));
        }
        for _ in 0..rng.below(9) {
            // Mostly on the first object, so that keys meet each other.
            let l = match rng.below(3) {
                0 => js_loc(&mut rng),
                _ => Expr::Val(sym(0)),
            };
            let (k, v) = (js_key(&mut rng), js_value(&mut rng));
            m.insert_cell(l, k, v);
        }
        let fold = rng.below(2) == 0;
        let name = pick(&mut rng, &actions);
        let (l, k, v) = (js_addr(&mut rng), js_key(&mut rng), js_value(&mut rng));
        let parts = match name {
            "newObj" => vec![Expr::Val(sym(rng.below(6))), Expr::str("Object")],
            "delObj" | "getMeta" => vec![l],
            "setProp" => vec![l, k, v],
            "setMeta" => vec![l, Expr::str("Array")],
            _ => vec![l, k],
        };
        let arg = if rng.below(10) == 0 {
            bad_arity(parts, &mut rng, fold)
        } else if parts.len() == 1 {
            parts[0].clone()
        } else {
            arg_list(parts, fold)
        };
        let pc = rng.below(5);
        render_case(out, &format!("js/{i}"), m, name, &arg, || js_pc(pc));
    }
}

// ---- MiniC ------------------------------------------------------------

fn block(i: u64) -> Expr {
    Expr::Val(sym(i))
}

fn chunk(rng: &mut Rng) -> Expr {
    let n = match rng.below(3) {
        0 => pick(rng, &[1u8, 2, 4]),
        _ => 8,
    };
    if rng.below(2) == 0 {
        Chunk::int(n).to_expr()
    } else {
        Chunk::uint(n).to_expr()
    }
}

fn c_offset(rng: &mut Rng) -> Expr {
    match rng.below(9) {
        0..=2 => Expr::int(pick(rng, &[0i64, 8])),
        3 => Expr::int(pick(rng, &[4i64, 12])),
        4 => Expr::int(rng.below(20) as i64 - 2),
        5 | 6 => lvar(0),
        _ => lvar(0).add(Expr::int(rng.below(9) as i64)),
    }
}

fn c_value(rng: &mut Rng) -> Expr {
    match rng.below(5) {
        0 => lvar(1),
        1 => Expr::int(i64::MIN),
        _ => Expr::int(rng.below(7) as i64 - 3),
    }
}

/// Path condition `i` over the offset `#0` and the value `#1`: both
/// integers, then `0 ≤ #0 ≤ 8`, or `#0 = 4`, or unsat.
fn c_pc(i: u64) -> PathCondition {
    let mut pc = PathCondition::new();
    for e in [lvar(0), lvar(1)] {
        pc.push(e.type_of().eq(Expr::type_tag(TypeTag::Int)));
    }
    match i {
        0 => {}
        1 => {
            pc.push(Expr::int(0).le(lvar(0)));
            pc.push(lvar(0).le(Expr::int(8)));
        }
        2 => pc.push(lvar(0).eq(Expr::int(4))),
        _ => pc.push(Expr::ff()),
    }
    pc
}

/// A heap with two 16-byte blocks and a few stores, some at symbolic
/// offsets, built through the general path under `c_pc(0)`.
fn c_heap(rng: &mut Rng) -> CSymMemory {
    let setup = Solver::optimized();
    let mut m = CSymMemory::default();
    for b in 0..2 {
        m.register_block(Sym(Sym::FIRST_FRESH + b), 16);
    }
    for _ in 0..rng.below(5) {
        let b = if rng.below(4) == 0 { 1 } else { 0 };
        let parts = vec![chunk(rng), block(b), c_offset(rng), c_value(rng)];
        let arg = Expr::list(parts);
        let branches = m.clone().execute_action("store", &arg, &c_pc(0), &setup);
        if let Some(b) = branches.into_iter().find(|b| b.outcome.is_ok()) {
            m = b.memory;
        }
    }
    if rng.below(6) == 0 {
        let arg = Expr::list([block(1), Expr::int(0)]);
        m = m
            .execute_action("free", &arg, &c_pc(0), &setup)
            .remove(0)
            .memory;
    }
    m
}

fn c_bytes(rng: &mut Rng) -> Expr {
    let mut bytes = Vec::new();
    for _ in 0..1 + rng.below(3) {
        if rng.below(4) == 0 {
            bytes.push(Expr::Val(Value::Sym(POISON)));
            continue;
        }
        let n = pick(rng, &[1i64, 2, 4, 8]);
        let (v, k) = (Expr::int(rng.below(3) as i64), rng.below(n as u64) as i64);
        bytes.push(Expr::list([v, Expr::int(k), Expr::int(n)]));
    }
    Expr::list(bytes)
}

fn c_cases(out: &mut String) {
    let mut rng = Rng::new(0x4d49_4e49_4300);
    for i in 0..CASES {
        let m = c_heap(&mut rng);
        let fold = rng.below(2) == 0;
        let b = block(pick(&mut rng, &[0, 0, 0, 0, 0, 1, 2]));
        let (name, parts) = match rng.below(16) {
            0..=4 => ("load", vec![chunk(&mut rng), b, c_offset(&mut rng)]),
            5..=9 => {
                let parts = vec![chunk(&mut rng), b, c_offset(&mut rng), c_value(&mut rng)];
                ("store", parts)
            }
            10 => (
                "free",
                vec![b, pick(&mut rng, &[Expr::int(0), Expr::int(4), lvar(0)])],
            ),
            11 => {
                let (o, len) = (rng.below(18) as i64 - 1, rng.below(11) as i64 - 1);
                ("loadBytes", vec![b, Expr::int(o), Expr::int(len)])
            }
            12 => (
                "storeBytes",
                vec![b, Expr::int(rng.below(18) as i64 - 1), c_bytes(&mut rng)],
            ),
            13 => {
                let op = Expr::str(pick(&mut rng, &["eq", "ne", "lt", "le"]));
                let ptr = |rng: &mut Rng| {
                    let b = block(rng.below(2));
                    Expr::list([b, c_offset(rng)])
                };
                ("cmpPtr", vec![op, ptr(&mut rng), ptr(&mut rng)])
            }
            14 => ("dropPerm", vec![b, Expr::int(rng.below(4) as i64)]),
            _ => (pick(&mut rng, &["sizeBlock", "checkPerm"]), vec![b]),
        };
        let arg = if rng.below(10) == 0 {
            bad_arity(parts, &mut rng, fold)
        } else if parts.len() == 1 {
            parts[0].clone()
        } else {
            arg_list(parts, fold)
        };
        let pc = rng.below(4);
        render_case(out, &format!("c/{i}"), m, name, &arg, || c_pc(pc));
    }
}

fn render_all() -> String {
    let mut out = String::new();
    while_cases(&mut out);
    js_cases(&mut out);
    c_cases(&mut out);
    out
}

#[test]
fn memory_actions_match_the_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    let want = std::fs::read_to_string(&path).expect("read fixture");
    let got = render_all();
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!(
            "memory actions diverge from {FIXTURE} at line {}:\n  got:  {g}\n  want: {w}",
            line + 1
        );
    }
}

#[test]
#[ignore]
fn regenerate_fixture() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
    std::fs::write(&path, render_all()).expect("write fixture");
}
