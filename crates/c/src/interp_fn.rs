//! The MiniC memory interpretation function (paper Def. 3.7 for the C
//! instantiation): interprets blocks and their bytes pointwise under a
//! logical environment. The symbolic heap keeps runs of bytes; its byte
//! view (`CSymMemory::cells_iter`) gives each byte as the paper's
//! `[v, k, n]` triple, and each byte becomes one concrete cell.

use crate::mem::{CConcMemory, CSymMemory};
use gillian_core::soundness::MemoryInterpretation;
use gillian_solver::Model;

/// The interpretation function for MiniC memories.
#[derive(Clone, Copy, Debug, Default)]
pub struct CInterpretation;

impl MemoryInterpretation for CInterpretation {
    type Concrete = CConcMemory;
    type Symbolic = CSymMemory;

    fn interpret(&self, model: &Model, sym: &CSymMemory) -> Result<CConcMemory, String> {
        let mut out = CConcMemory::default();
        for (b, size, perm, freed) in sym.blocks_iter() {
            out.register_block(b, size, perm, freed);
            for (off_e, (v_e, k, n)) in sym.cells_iter(b) {
                let off = model
                    .eval(&off_e)
                    .map_err(|e| format!("I_C: offset {off_e} uninterpretable: {e}"))?;
                let Some(off) = off.as_int() else {
                    return Err(format!("I_C: offset {off_e} interprets to non-integer"));
                };
                let v = model
                    .eval(&v_e)
                    .map_err(|e| format!("I_C: value {v_e} uninterpretable: {e}"))?;
                if !out.set_cell(b, off, v, k, n) {
                    return Err(format!("I_C: cells collapse at {b}+{off}"));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::Chunk;
    use gillian_core::memory::SymbolicMemory;
    use gillian_core::soundness::check_action;
    use gillian_gil::{Expr, LVar, Sym, Value};
    use gillian_solver::{PathCondition, Solver};

    fn blk(i: u64) -> Sym {
        Sym(Sym::FIRST_FRESH + i)
    }

    /// MA-RS/MA-RC for the C actions on representative memories — the C
    /// analogue of the paper's Lemma 3.11, checked empirically.
    #[test]
    fn c_actions_satisfy_memory_lemmas() {
        let solver = Solver::optimized();
        let mut m = CSymMemory::default();
        m.register_block(blk(0), 16);
        m.set_run(blk(0), 0, Expr::lvar(LVar(1)), 8);
        m.set_run(blk(0), 8, Expr::int(7), 8);
        let mut pc = PathCondition::new();
        pc.push(
            Expr::lvar(LVar(1))
                .type_of()
                .eq(Expr::type_tag(gillian_gil::TypeTag::Int)),
        );
        let b = Expr::Val(Value::Sym(blk(0)));
        let i8c = Chunk::int(8).to_expr();
        let off = Expr::lvar(LVar(0));
        let cases: Vec<(&str, Expr)> = vec![
            ("load", Expr::list([i8c.clone(), b.clone(), Expr::int(0)])),
            ("load", Expr::list([i8c.clone(), b.clone(), off.clone()])),
            (
                "store",
                Expr::list([i8c.clone(), b.clone(), Expr::int(8), Expr::int(3)]),
            ),
            (
                "store",
                Expr::list([i8c.clone(), b.clone(), off, Expr::lvar(LVar(2))]),
            ),
            ("sizeBlock", b.clone()),
            ("free", Expr::list([b.clone(), Expr::int(0)])),
            (
                "loadBytes",
                Expr::list([b.clone(), Expr::int(0), Expr::int(8)]),
            ),
        ];
        for (action, arg) in cases {
            let checked = check_action(&CInterpretation, &solver, &m, action, &arg, &pc)
                .unwrap_or_else(|problems| {
                    panic!("MA-RS violated for {action}({arg}): {problems:#?}")
                });
            assert!(checked > 0, "{action}({arg}): no branch was modelled");
        }
    }

    /// The same on bytes copied apart from their run: bytes 4..8 of an
    /// 8-byte value at the start of a block. A store that meets their
    /// run must clear them, in the symbolic heap as in the concrete one.
    #[test]
    fn c_actions_satisfy_memory_lemmas_on_fragments() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = CSymMemory::default();
        m.register_block(blk(0), 16);
        let b = Expr::Val(Value::Sym(blk(0)));
        let fragment =
            Expr::list((4..8).map(|k| Expr::list([Expr::int(1234), Expr::int(k), Expr::int(8)])));
        let store_bytes = Expr::list([b.clone(), Expr::int(0), fragment]);
        let mut branches = m.execute_action("storeBytes", &store_bytes, &pc, &solver);
        let m = branches.pop().expect("one branch").memory;
        let i8c = Chunk::int(8).to_expr();
        let cases: Vec<(&str, Expr)> = vec![
            (
                "store",
                Expr::list([i8c.clone(), b.clone(), Expr::int(2), Expr::int(5)]),
            ),
            ("load", Expr::list([i8c, b.clone(), Expr::int(0)])),
            (
                "loadBytes",
                Expr::list([b.clone(), Expr::int(0), Expr::int(4)]),
            ),
        ];
        for (action, arg) in cases {
            let checked = check_action(&CInterpretation, &solver, &m, action, &arg, &pc)
                .unwrap_or_else(|problems| {
                    panic!("MA-RS violated for {action}({arg}): {problems:#?}")
                });
            assert!(checked > 0, "{action}({arg}): no branch was modelled");
        }
    }
}
