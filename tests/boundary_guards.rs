//! Boundary-guard battery: guards over integer operators at their edge
//! constants never panic the solver and never end a guest path as an
//! engine error.
//!
//! A chain assumes a few atoms one after another through `sat_assume`, as
//! a run of guards does, under all four `{caching, incremental}` solver
//! configurations. An atom compares an integer term with another: logical
//! variables and constants under `+ − × / %`, negation, the six wraps
//! (`wrap_{s,u}{8,16,32}`), `&` with a constant and the three shifts.
//! Constants come from `i64::MIN`, `i64::MAX`, ±1, 0, 127, −128, 255, 256
//! and 2³¹. The chains built from the operators While has also run as
//! While programs, whose exploration must report no engine error.

use gillian::core::generate::Rng;
use gillian::gil::{BinOp, Expr, LVar, TypeTag, UnOp};
use gillian::solver::{PathCondition, Solver, SolverConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEED: u64 = 0xB0DA_2026;
const CHAINS: u64 = 1500;
const ATOMS: u64 = 3;
const WHILE_PROGRAMS: u64 = 40;

const CONSTS: [i64; 10] = [i64::MIN, i64::MAX, 1, -1, 0, 127, -128, 255, 256, 1 << 31];

/// An integer term over the variables `x` and `y`.
#[derive(Clone, Debug)]
enum Term {
    Var(u8),
    Const(i64),
    Un(UnOp, Box<Term>),
    Bin(BinOp, Box<Term>, Box<Term>),
}

impl Term {
    /// The term over logical variables 0 (`x`) and 1 (`y`).
    fn expr(&self) -> Expr {
        match self {
            Term::Var(v) => Expr::lvar(LVar(u64::from(*v))),
            Term::Const(n) => Expr::int(*n),
            Term::Un(op, a) => a.expr().un(*op),
            Term::Bin(op, a, b) => a.expr().bin(*op, b.expr()),
        }
    }

    /// The term in While syntax, when While has every operator in it.
    fn source(&self) -> Option<String> {
        Some(match self {
            Term::Var(0) => "x".into(),
            Term::Var(_) => "y".into(),
            Term::Const(i64::MIN) => "(0 - 9223372036854775807 - 1)".into(),
            Term::Const(n) if *n < 0 => format!("(0 - {})", n.unsigned_abs()),
            Term::Const(n) => n.to_string(),
            Term::Un(UnOp::Neg, a) => format!("(-{})", a.source()?),
            Term::Bin(op, a, b) => {
                let op = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                    _ => return None,
                };
                format!("({} {op} {})", a.source()?, b.source()?)
            }
            Term::Un(..) => return None,
        })
    }
}

fn constant(rng: &mut Rng) -> Term {
    Term::Const(CONSTS[rng.below(CONSTS.len() as u64) as usize])
}

fn leaf(rng: &mut Rng) -> Term {
    if rng.below(3) == 0 {
        constant(rng)
    } else {
        Term::Var(rng.below(2) as u8)
    }
}

/// The operators a term may use: the first six (`+ − × / %` and
/// negation) are the ones While has.
#[derive(Clone, Copy)]
enum Ops {
    All = 12,
    While = 6,
}

fn term(rng: &mut Rng, depth: u32, ops: Ops) -> Term {
    if depth == 0 {
        return leaf(rng);
    }
    let a = Box::new(term(rng, depth - 1, ops));
    let width = [8, 16, 32][rng.below(3) as usize];
    match rng.below(ops as u64) {
        0..=4 => {
            let op =
                [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod][rng.below(5) as usize];
            let b = Box::new(term(rng, depth - 1, ops));
            if rng.below(2) == 0 {
                Term::Bin(op, a, b)
            } else {
                Term::Bin(op, b, a)
            }
        }
        5 => Term::Un(UnOp::Neg, a),
        6 => Term::Un(UnOp::WrapSigned(width), a),
        7 => Term::Un(UnOp::WrapUnsigned(width), a),
        8 => Term::Bin(BinOp::BitAnd, a, Box::new(constant(rng))),
        n => {
            let op = [BinOp::Shl, BinOp::ShrA, BinOp::ShrL][n as usize - 9];
            Term::Bin(op, a, Box::new(constant(rng)))
        }
    }
}

/// One atom: two terms under `=`, `<` or `<=`, possibly negated.
#[derive(Clone, Debug)]
struct Atom {
    cmp: BinOp,
    negated: bool,
    lhs: Term,
    rhs: Term,
}

impl Atom {
    fn generate(rng: &mut Rng, ops: Ops) -> Atom {
        Atom {
            cmp: [BinOp::Eq, BinOp::Lt, BinOp::Leq][rng.below(3) as usize],
            negated: rng.below(4) == 0,
            lhs: {
                let depth = 1 + rng.below(3) as u32;
                term(rng, depth, ops)
            },
            rhs: if rng.below(2) == 0 {
                constant(rng)
            } else {
                let depth = rng.below(2) as u32;
                term(rng, depth, ops)
            },
        }
    }

    fn expr(&self) -> Expr {
        let e = self.lhs.expr().bin(self.cmp, self.rhs.expr());
        if self.negated {
            e.not()
        } else {
            e
        }
    }

    fn source(&self) -> Option<String> {
        let cmp = match self.cmp {
            BinOp::Eq if self.negated => "!=",
            BinOp::Eq => "=",
            BinOp::Lt if self.negated => ">=",
            BinOp::Lt => "<",
            _ if self.negated => ">",
            _ => "<=",
        };
        Some(format!(
            "{} {cmp} {}",
            self.lhs.source()?,
            self.rhs.source()?
        ))
    }
}

fn chains(n: u64, ops: Ops) -> Vec<Vec<Atom>> {
    let mut rng = Rng::new(SEED ^ ops as u64);
    (0..n)
        .map(|_| (0..ATOMS).map(|_| Atom::generate(&mut rng, ops)).collect())
        .collect()
}

fn configs() -> Vec<(String, SolverConfig)> {
    let mut out = Vec::new();
    for caching in [false, true] {
        for incremental in [false, true] {
            out.push((
                format!("caching={caching} incremental={incremental}"),
                SolverConfig {
                    caching,
                    incremental,
                    ..SolverConfig::optimized()
                },
            ));
        }
    }
    out
}

/// Assumes the typing of `x` and `y` and then each atom in turn, stopping
/// at the first refuted one, as a run of guards would. True when every
/// atom was possibly satisfiable.
fn assume_chain(solver: &Solver, chain: &[Atom]) -> bool {
    let typing = [0, 1].map(|v| Expr::lvar(LVar(v)).has_type(TypeTag::Int));
    let mut pc = PathCondition::new();
    for atom in typing.into_iter().chain(chain.iter().map(Atom::expr)) {
        let (verdict, next) = solver.sat_assume(&pc, &atom);
        if !verdict.possibly_sat() {
            return false;
        }
        pc = next;
    }
    true
}

#[test]
fn boundary_guard_chains_never_panic_the_solver() {
    let chains = chains(CHAINS, Ops::All);
    let mut panics = Vec::new();
    for (name, config) in configs() {
        // One solver per configuration, shared by its chains, so the
        // caches and frozen solve contexts see the whole battery.
        let solver = Solver::new(config);
        let mut feasible = 0;
        for (i, chain) in chains.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| assume_chain(&solver, chain))) {
                Ok(all) => feasible += usize::from(all),
                Err(_) => {
                    let atoms: Vec<String> = chain.iter().map(|a| a.expr().to_string()).collect();
                    panics.push(format!("{name}, chain {i}: {}", atoms.join(" ; ")));
                }
            }
        }
        // Both answers must occur, or the chains test nothing.
        assert!(
            feasible > 0 && feasible < chains.len(),
            "{name}: {feasible} of {} chains feasible",
            chains.len()
        );
    }
    assert!(panics.is_empty(), "solver panics:\n{}", panics.join("\n"));
}

#[test]
fn boundary_guard_chains_end_no_while_path_as_an_engine_error() {
    for chain in chains(WHILE_PROGRAMS, Ops::While) {
        let guards: Vec<String> = chain
            .iter()
            .map(|a| a.source().expect("While operators only"))
            .collect();
        // Each guard's branches both continue to the next guard, so every
        // combination of outcomes is explored.
        let mut body = String::from("x := symb(); y := symb(); r := 0;\n");
        for (i, g) in guards.iter().enumerate() {
            body.push_str(&format!(
                "if ({g}) {{ r := r + {}; }} else {{ r := r; }}\n",
                1 << i
            ));
        }
        let src = format!("proc main() {{\n{body}return r;\n}}");
        let out = gillian::while_lang::symbolic_test(&src).expect("generated While parses");
        let diagnostics = &out.result.diagnostics;
        assert_eq!(diagnostics.engine_errors, 0, "{src}\n{diagnostics:?}");
        assert!(!out.result.truncated, "{src}");
    }
}
