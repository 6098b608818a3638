//! The While memory interpretation function `I_W` (paper §3.3).
//!
//! ```text
//! I_W(ε, ∅) ≜ ∅
//! I_W(ε, ê.p ↦ ê′) ≜ ⟦ê⟧ε.p ↦ ⟦ê′⟧ε
//! I_W(ε, µ̂₁ ⊎ µ̂₂) ≜ I_W(ε, µ̂₁) ⊎ I_W(ε, µ̂₂)
//! ```
//!
//! The disjoint union `⊎` in the last clause means interpretation *fails*
//! when two symbolic cells collapse onto the same concrete cell — exactly
//! the ill-formedness the paper's side conditions rule out. Lemma 3.11
//! (I_W is a memory interpretation function, i.e. satisfies MA-RS and
//! MA-RC) is checked empirically by this crate's test suite through
//! [`gillian_core::soundness::check_action`].

use crate::mem::{WhileConcMemory, WhileSymMemory};
use gillian_core::soundness::MemoryInterpretation;
use gillian_solver::Model;

/// The interpretation function `I_W` as a [`MemoryInterpretation`].
#[derive(Clone, Copy, Debug, Default)]
pub struct WhileInterpretation;

impl MemoryInterpretation for WhileInterpretation {
    type Concrete = WhileConcMemory;
    type Symbolic = WhileSymMemory;

    fn interpret(&self, model: &Model, sym: &WhileSymMemory) -> Result<WhileConcMemory, String> {
        let mut out = WhileConcMemory::default();
        for (loc_e, prop, val_e) in sym.cells() {
            let loc = model
                .eval(loc_e)
                .map_err(|e| format!("I_W: location {loc_e} uninterpretable: {e}"))?;
            let val = model
                .eval(val_e)
                .map_err(|e| format!("I_W: value {val_e} uninterpretable: {e}"))?;
            if out.insert(loc.clone(), prop, val).is_some() {
                return Err(format!(
                    "I_W: cells collapse onto {loc}.{prop} (⊎ violated)"
                ));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_core::soundness::check_action;
    use gillian_gil::{Expr, LVar, Sym, Value};
    use gillian_solver::{PathCondition, Solver};
    use std::collections::BTreeMap;

    fn sym_loc(i: u64) -> Expr {
        Expr::Val(Value::Sym(Sym(Sym::FIRST_FRESH + i)))
    }

    #[test]
    fn interprets_cells_pointwise() {
        let mut m = WhileSymMemory::default();
        m.insert(sym_loc(0), "a", Expr::lvar(LVar(0)));
        let model = Model::from_assignment(BTreeMap::from([(LVar(0), Value::Int(5))]));
        let conc = WhileInterpretation.interpret(&model, &m).unwrap();
        assert_eq!(
            conc.get(&Value::Sym(Sym(Sym::FIRST_FRESH)), "a"),
            Some(&Value::Int(5))
        );
    }

    #[test]
    fn collapsing_cells_are_rejected() {
        let mut m = WhileSymMemory::default();
        m.insert(Expr::lvar(LVar(0)), "a", Expr::int(1));
        m.insert(Expr::lvar(LVar(1)), "a", Expr::int(2));
        // ε maps both addresses to the same location: ⊎ is violated.
        let model = Model::from_assignment(BTreeMap::from([
            (LVar(0), Value::Sym(Sym(99))),
            (LVar(1), Value::Sym(Sym(99))),
        ]));
        assert!(WhileInterpretation.interpret(&model, &m).is_err());
    }

    /// Lemma 3.11, empirically: lookup/mutate/dispose satisfy MA-RS/MA-RC
    /// on representative memories and arguments.
    #[test]
    fn lemma_3_11_on_representative_actions() {
        let solver = Solver::optimized();
        let mut m = WhileSymMemory::default();
        m.insert(sym_loc(0), "a", Expr::int(10));
        m.insert(sym_loc(1), "a", Expr::lvar(LVar(1)));
        let pc = PathCondition::new();
        let x = Expr::lvar(LVar(0));

        for (action, arg) in [
            ("lookup", Expr::list([x.clone(), Expr::str("a")])),
            ("lookup", Expr::list([sym_loc(0), Expr::str("a")])),
            (
                "mutate",
                Expr::list([x.clone(), Expr::str("a"), Expr::int(3)]),
            ),
            (
                "mutate",
                Expr::list([sym_loc(1), Expr::str("b"), Expr::int(4)]),
            ),
            ("dispose", x.clone()),
            ("dispose", sym_loc(0)),
        ] {
            let checked = check_action(&WhileInterpretation, &solver, &m, action, &arg, &pc)
                .unwrap_or_else(|problems| {
                    panic!("MA-RS violated for {action}({arg}): {problems:?}")
                });
            assert!(checked > 0, "{action}({arg}): no branch was modelled");
        }
    }
}
