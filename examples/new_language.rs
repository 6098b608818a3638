//! Tutorial: instantiating Gillian for a brand-new language in one file.
//!
//! The paper's usability pitch (§4.3): "to instantiate Gillian to a new
//! target language, a tool developer must provide a trusted compiler from
//! the TL to GIL, and implementations of the concrete and symbolic memory
//! models of the TL". This example does exactly that for **CounterLang**,
//! a toy language whose memory is a bank of named counters:
//!
//! - actions: `incr(name)`, `decr(name)` (errors below zero — the
//!   language's one runtime fault), `read(name)`;
//! - a ~40-line "compiler" that emits GIL directly through the builders.
//!
//! Everything else — stores, allocation, path conditions, exploration,
//! counter-models, concrete replay — comes from the platform. Running the
//! example finds the input that drives a counter negative, with a
//! verified model and a confirming concrete replay.
//!
//! Run with: `cargo run --example new_language`

use gillian::core::explore::ExploreConfig;
use gillian::core::memory::{decide, ConcreteMemory, SymBranch, SymbolicMemory};
use gillian::core::testing::run_test_with_replay;
use gillian::gil::{Cmd, Expr, Proc, Prog, TypeTag, Value};
use gillian::solver::{PathCondition, Solver};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Step 1: the concrete memory model (paper Def. 2.3).
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct ConcCounters(BTreeMap<String, i64>);

impl ConcreteMemory for ConcCounters {
    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        let key = arg
            .as_str()
            .ok_or_else(|| Value::str("counter names are strings"))?
            .to_string();
        let cell = self.0.entry(key.clone()).or_insert(0);
        match name {
            "incr" => {
                *cell += 1;
                Ok(Value::Int(*cell))
            }
            "decr" => {
                if *cell == 0 {
                    Err(Value::str(format!("counter {key} went negative")))
                } else {
                    *cell -= 1;
                    Ok(Value::Int(*cell))
                }
            }
            "read" => Ok(Value::Int(*cell)),
            other => Err(Value::str(format!("unknown action {other}"))),
        }
    }
}

// ---------------------------------------------------------------------
// Step 2: the symbolic memory model (paper Def. 2.4). Counters hold
// symbolic expressions; `decr` branches on the zero test, learning the
// constraint into the path condition.
//
// The action owns the memory it runs on: a successor that writes can
// mutate `self` in place, and a sibling branch takes a `clone()`.
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct SymCounters(BTreeMap<String, Expr>);

impl SymbolicMemory for SymCounters {
    fn execute_action(
        mut self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        let Expr::Val(Value::Str(key)) = arg else {
            return vec![SymBranch::err(
                self,
                Expr::str("counter names are literal strings"),
                pc.clone(),
            )];
        };
        let current = self.0.get(key.as_ref()).cloned().unwrap_or(Expr::int(0));
        match name {
            "incr" => {
                let next = solver.simplify(pc, &current.add(Expr::int(1)));
                self.0.insert(key.to_string(), next.clone());
                vec![SymBranch::ok(self, next, pc.clone())]
            }
            "read" => vec![SymBranch::ok(self, current, pc.clone())],
            "decr" => {
                // `decide` asks the solver once per branch and returns the
                // path condition the successor keeps, or `None` when the
                // constraint is unsatisfiable with the path condition.
                let mut out = Vec::new();
                let zero = solver.simplify(pc, &current.clone().eq(Expr::int(0)));
                let nonzero = solver.simplify(pc, &zero.clone().not());
                if let Some(pc) = decide(pc, solver, &zero) {
                    let negative = Expr::str(format!("counter {key} went negative"));
                    out.push(SymBranch::err(self.clone(), negative, pc));
                }
                // The last branch writes into the memory itself.
                if let Some(taken) = decide(pc, solver, &nonzero) {
                    let next = solver.simplify(pc, &current.sub(Expr::int(1)));
                    self.0.insert(key.to_string(), next.clone());
                    out.push(SymBranch::ok(self, next, taken));
                }
                out
            }
            other => vec![SymBranch::err(
                self,
                Expr::str(format!("unknown action {other}")),
                pc.clone(),
            )],
        }
    }
}

// ---------------------------------------------------------------------
// Step 3: a "compiler" — here, emitting GIL directly. The program takes a
// symbolic number of decrements and applies them after two increments:
// a bug exactly when the input exceeds 2.
// ---------------------------------------------------------------------

fn counter_program() -> Prog {
    Prog::from_procs([Proc::new(
        "main",
        [],
        vec![
            /* 0 */ Cmd::isym("n", 0),
            // assume typeOf(n) = Int ∧ 0 ≤ n ≤ 5
            /* 1 */
            Cmd::IfGoto(Expr::pvar("n").has_type(TypeTag::Int), 3),
            /* 2 */ Cmd::Vanish,
            /* 3 */
            Cmd::IfGoto(
                Expr::int(0)
                    .le(Expr::pvar("n"))
                    .and(Expr::pvar("n").le(Expr::int(5))),
                5,
            ),
            /* 4 */ Cmd::Vanish,
            /* 5 */ Cmd::action("_", "incr", Expr::str("tokens")),
            /* 6 */ Cmd::action("_", "incr", Expr::str("tokens")),
            // loop: i from 0 to n, decrementing each round
            /* 7 */
            Cmd::assign("i", Expr::int(0)),
            /* 8 */ Cmd::IfGoto(Expr::pvar("i").lt(Expr::pvar("n")), 10),
            /* 9 */ Cmd::Goto(13),
            /* 10 */ Cmd::action("_", "decr", Expr::str("tokens")),
            /* 11 */ Cmd::assign("i", Expr::pvar("i").add(Expr::int(1))),
            /* 12 */ Cmd::Goto(8),
            /* 13 */ Cmd::action("left", "read", Expr::str("tokens")),
            /* 14 */ Cmd::Return(Expr::pvar("left")),
        ],
    )])
}

// ---------------------------------------------------------------------
// Step 4: run — the platform provides everything else.
// ---------------------------------------------------------------------

fn main() {
    let prog = counter_program();
    println!("CounterLang program (compiled GIL):\n{prog}");
    let outcome = run_test_with_replay::<SymCounters, ConcCounters>(
        &prog,
        "main",
        Arc::new(Solver::optimized()),
        ExploreConfig::default(),
    );
    println!(
        "explored {} paths ({} GIL commands)",
        outcome.result.paths.len(),
        outcome.gil_cmds()
    );
    for bug in &outcome.bugs {
        println!("bug       : {}", bug.error);
        if let Some(model) = &bug.model {
            println!("model     : {model}");
        }
        println!("input     : {:?}", bug.script);
        println!("replay    : {:?}", bug.replay);
        println!("confirmed : {}", bug.confirmed());
    }
    // The minimal counterexample is three decrements after two increments.
    assert!(outcome
        .bugs
        .iter()
        .any(|b| b.confirmed() && b.script == vec![Value::Int(3)]));
    println!("\nthe platform found the minimal failing input n = 3, verified it,");
    println!("and replayed it concretely — with ~170 lines of language-specific code.");
}
