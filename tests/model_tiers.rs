//! Exactness of the model search's escalation cut-off.
//!
//! `find_model_escalating` prepares a search once and stops at the first
//! budget tier that exhausts its search space. Its answer must be exactly
//! that of running `find_model` at every tier in turn. This battery checks
//! that on the final path conditions of fixed-seed generated programs over
//! the While and MiniC memory models: the conditions the differential
//! oracle really searches, including the wrapping-infeasible ones that no
//! tier can crack. On the same conditions it checks that
//! `Solver::witness`, one search over the configured budget and the replay
//! tiers, answers as `Solver::model` falling back to
//! `Solver::model_for_replay` does.

use gillian::c::CInterpretation;
use gillian::core::explore::{explore_with, ExploreConfig};
use gillian::core::generate::{build_prog, gen_ops, MemDialect, Rng};
use gillian::core::memory::SymbolicMemory;
use gillian::core::soundness::MemoryInterpretation;
use gillian::core::symbolic::SymbolicState;
use gillian::gil::Expr;
use gillian::solver::model::find_model;
use gillian::solver::{find_model_escalating, ModelBudget, PathCondition, Solver, SolverConfig};
use gillian::telemetry::Journal;
use gillian::while_lang::WhileInterpretation;
use std::sync::Arc;

/// Programs per dialect.
const CASES: u64 = 100;

/// Base budgets: small enough that the uncut reference stays fast, and
/// tight enough that some conditions need a later tier.
const BASES: [ModelBudget; 2] = [
    ModelBudget {
        max_nodes: 2_000,
        candidates_per_var: 16,
    },
    ModelBudget {
        max_nodes: 100,
        candidates_per_var: 4,
    },
];

/// The final path conditions of `CASES` generated programs of `dialect`.
fn final_path_conditions<I>(dialect: MemDialect, salt: u64) -> Vec<Vec<Expr>>
where
    I: MemoryInterpretation,
    I::Symbolic: SymbolicMemory,
{
    let solver = Arc::new(Solver::optimized());
    let mut out = Vec::new();
    for seed in salt..salt + CASES {
        let ops = gen_ops(&mut Rng::new(seed), 14, dialect);
        let prog = build_prog(&ops, dialect);
        let cfg = ExploreConfig {
            workers: 1,
            journal: Journal::disabled(),
            ..Default::default()
        };
        let initial = SymbolicState::<I::Symbolic>::new(solver.clone());
        let result = explore_with(&prog, "main", initial, cfg);
        out.extend(result.paths.iter().map(|p| p.state.pc.conjuncts()));
    }
    out
}

/// What escalation means: the first model `find_model` finds over the
/// tiers, with the same node and candidate scaling.
fn every_tier(cs: &[Expr], base: ModelBudget) -> Option<gillian::solver::Model> {
    let second = ModelBudget {
        max_nodes: base.max_nodes * 8,
        candidates_per_var: base.candidates_per_var * 4,
    };
    let third = ModelBudget {
        max_nodes: second.max_nodes * 8,
        candidates_per_var: second.candidates_per_var * 2,
    };
    [base, second, third]
        .iter()
        .find_map(|&tier| find_model(cs, tier))
}

/// Checks every condition, and that the battery covers both halves of
/// the cut-off: conditions only a later tier cracks, and conditions no
/// tier cracks.
fn assert_exact(conditions: &[Vec<Expr>], dialect: &str) {
    let (mut later, mut failures) = (0, 0);
    for base in BASES {
        for cs in conditions {
            let escalated = find_model_escalating(cs, base);
            assert_eq!(
                escalated,
                every_tier(cs, base),
                "{dialect}: escalation at {base:?} diverged from running every tier on {cs:?}"
            );
            match escalated {
                None => failures += 1,
                Some(_) if find_model(cs, base).is_none() => later += 1,
                Some(_) => {}
            }
        }
    }
    eprintln!(
        "{dialect}: {} path conditions × {} bases, {later} need a later tier, \
         {failures} without a model",
        conditions.len(),
        BASES.len()
    );
    assert!(later > 0, "{dialect}: no condition needs a later tier");
    assert!(failures > 0, "{dialect}: every condition has a model");
}

/// Checks that `witness` gives the model and the fallback flag of the
/// two-search sequence, in one search, and that the battery reaches the
/// fallback.
fn assert_witness_exact(conditions: &[Vec<Expr>], dialect: &str) {
    let mut fallbacks = 0;
    for base in BASES {
        let solver = Solver::new(SolverConfig {
            model_budget: base,
            ..SolverConfig::optimized()
        });
        for cs in conditions {
            let pc: PathCondition = cs.iter().cloned().collect();
            let two_searches = solver
                .model(&pc)
                .map(|m| (m, false))
                .or_else(|| solver.model_for_replay(&pc).map(|m| (m, true)));
            let before = solver.stats().model_searches;
            let witness = solver.witness(&pc);
            assert_eq!(
                solver.stats().model_searches - before,
                u64::from(!pc.is_trivially_false()),
                "{dialect}: a witness is one search"
            );
            assert_eq!(
                witness, two_searches,
                "{dialect}: witness at {base:?} diverged from model then model_for_replay on {cs:?}"
            );
            fallbacks += usize::from(matches!(witness, Some((_, true))));
        }
    }
    assert!(
        fallbacks > 0,
        "{dialect}: no witness needs an escalated tier"
    );
}

#[test]
fn escalation_is_exact_on_while_path_conditions() {
    let conditions = final_path_conditions::<WhileInterpretation>(MemDialect::While, 0x77_0000);
    assert_exact(&conditions, "While");
    assert_witness_exact(&conditions, "While");
}

#[test]
fn escalation_is_exact_on_c_path_conditions() {
    let conditions = final_path_conditions::<CInterpretation>(MemDialect::C, 0xC_0000);
    assert_exact(&conditions, "C");
    assert_witness_exact(&conditions, "C");
}
