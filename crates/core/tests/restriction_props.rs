//! Property tests for restriction (paper Def. 3.1): the three laws —
//! idempotence, right commutativity, weakening — on the engine's
//! restriction instances, plus the compatibility of the induced pre-order
//! (Def. 3.4) on path-condition-carrying states.

use gillian_core::allocator::{ConcAllocator, SymAllocator};
use gillian_core::memory::{SymBranch, SymbolicMemory};
use gillian_core::restriction::{check_restriction_laws, Restrict};
use gillian_core::symbolic::SymbolicState;
use gillian_gil::{Expr, LVar};
use gillian_solver::{PathCondition, Solver};
use proptest::prelude::*;
use std::sync::Arc;

/// A trivial symbolic memory, to instantiate `SymbolicState`.
#[derive(Clone, Debug, Default, PartialEq)]
struct NoMem;
impl SymbolicMemory for NoMem {
    fn execute_action(
        self,
        _: &str,
        arg: &Expr,
        pc: &PathCondition,
        _: &Solver,
    ) -> Vec<SymBranch<Self>> {
        vec![SymBranch::ok(NoMem, arg.clone(), pc.clone())]
    }
}

/// Builds an allocator that has performed the given allocation script.
fn alloc_after(usyms: u8, isyms: u8) -> SymAllocator {
    let mut a = SymAllocator::new();
    for i in 0..usyms {
        let _ = a.alloc_usym(i as u32);
    }
    for i in 0..isyms {
        let _ = a.alloc_isym(i as u32);
    }
    a
}

/// Builds a state whose path condition contains the selected constraints.
fn state_with(picks: &[bool]) -> SymbolicState<NoMem> {
    let universe: Vec<Expr> = vec![
        Expr::lvar(LVar(0)).lt(Expr::int(10)),
        Expr::int(0).le(Expr::lvar(LVar(0))),
        Expr::lvar(LVar(1)).eq(Expr::str("k")),
        Expr::lvar(LVar(2)).ne(Expr::lvar(LVar(0))),
        Expr::lvar(LVar(1))
            .type_of()
            .eq(Expr::type_tag(gillian_gil::TypeTag::Str)),
    ];
    let mut st = SymbolicState::<NoMem>::new(Arc::new(Solver::optimized()));
    for (i, take) in picks.iter().enumerate() {
        if *take {
            assert!(st.assume(&universe[i % universe.len()]));
        }
    }
    st
}

/// States compare by the components restriction touches.
fn key(st: &SymbolicState<NoMem>) -> (Vec<Expr>, SymAllocator) {
    (st.pc.sorted_conjuncts(), st.alloc().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn allocator_restriction_laws(
        (u1, i1) in (0u8..6, 0u8..6),
        (u2, i2) in (0u8..6, 0u8..6),
        (u3, i3) in (0u8..6, 0u8..6),
    ) {
        let a = alloc_after(u1, i1);
        let b = alloc_after(u2, i2);
        let c = alloc_after(u3, i3);
        check_restriction_laws(&a, &b, &c).unwrap();
        // Monotonicity w.r.t. allocation (Def. 3.3): allocating refines.
        let mut a2 = a.clone();
        let _ = a2.alloc_usym(0);
        prop_assert!(a2.refines(&a));
        let mut a3 = a.clone();
        let _ = a3.alloc_isym(0);
        prop_assert!(a3.refines(&a));
    }

    #[test]
    fn concrete_allocator_restriction_laws(
        n1 in 0u8..6, n2 in 0u8..6, n3 in 0u8..6,
    ) {
        let mk = |n: u8| {
            let mut a = ConcAllocator::new();
            for i in 0..n {
                let _ = a.alloc_usym(i as u32);
            }
            a
        };
        check_restriction_laws(&mk(n1), &mk(n2), &mk(n3)).unwrap();
    }

    #[test]
    fn state_restriction_laws(
        p1 in proptest::collection::vec(any::<bool>(), 5),
        p2 in proptest::collection::vec(any::<bool>(), 5),
        p3 in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let s1 = state_with(&p1);
        let s2 = state_with(&p2);
        let s3 = state_with(&p3);
        // Idempotence.
        prop_assert_eq!(key(&s1.restrict(&s1)), key(&s1));
        // Right commutativity.
        prop_assert_eq!(
            key(&s1.restrict(&s2).restrict(&s3)),
            key(&s1.restrict(&s3).restrict(&s2))
        );
        // Weakening.
        if key(&s1.restrict(&s2).restrict(&s3)) == key(&s1) {
            prop_assert_eq!(key(&s1.restrict(&s2)), key(&s1));
            prop_assert_eq!(key(&s1.restrict(&s3)), key(&s1));
        }
    }

    /// ⇃-≤ compatibility on path conditions: restriction only adds
    /// constraints, so every model of the restricted pc satisfies the
    /// original (restriction increases precision, Def. 3.4).
    #[test]
    fn restriction_increases_precision(
        p1 in proptest::collection::vec(any::<bool>(), 5),
        p2 in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let s1 = state_with(&p1);
        let s2 = state_with(&p2);
        let restricted = s1.restrict(&s2);
        prop_assert!(
            restricted.pc.subsumes(&s1.pc),
            "{} should subsume {}",
            restricted.pc,
            s1.pc
        );
        // And any model of the restricted pc satisfies the original.
        let solver = Solver::optimized();
        if let Some(model) = solver.model(&restricted.pc) {
            prop_assert!(model.satisfies(&s1.pc.conjuncts()));
        }
    }
}
