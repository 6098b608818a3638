//! Incremental-solving support: frozen per-prefix solver state (see
//! `DESIGN.md` §12).
//!
//! [`SolveCtx`] is the solver state left over after a *clean* solve of a
//! path condition — typing environment, union-find, residual atoms, and
//! the interval stores — frozen under a `OnceLock` on the condition's
//! newest chain node and in the exact-cache entry of its conjunct set. A
//! later query on a descendant condition finds the deepest solved
//! ancestor — frozen on the node, or resolved through the cache by the
//! node's key when another chain with the same conjunct set was solved —
//! and propagates only the conjuncts pushed since, instead of re-solving
//! the whole conjunction (the incremental, functional solver-state
//! technique Soteria reports as a headline optimization).

use crate::intervals::{IntDomain, NumDomain};
use crate::persistent::PVec;
use crate::sat::{Residual, SatResult};
use crate::typing::TypeEnv;
use crate::uf::UnionFind;
use gillian_gil::{BinOp, Expr};
use std::sync::Arc;

/// The frozen result of solving one path-condition prefix.
///
/// `verdict` is always `Sat` or `Unsat` — `Unknown` verdicts reflect an
/// exhausted or interrupted budget and are never frozen. `state` is
/// present exactly for clean `Sat` solves (no case splits decided the
/// verdict, closure converged); an `Unsat` context needs no state, since
/// every extension of an unsatisfiable prefix is unsatisfiable.
#[derive(Debug)]
pub(crate) struct SolveCtx {
    pub(crate) verdict: SatResult,
    pub(crate) state: Option<CapturedState>,
}

/// The solver state at the end of a clean `Sat` solve.
///
/// Every part is persistent, so an extension shares what it does not
/// touch and holds only its delta: the residual atoms, ordering edges and
/// mask sites are append-only segment lists ([`PVec`]) to which an
/// extension adds one segment per kind it grows, and the interval maps and
/// the union-find are shared bases under small overlays
/// ([`crate::persistent::PMap`]). The fast path shares the union-find and
/// every residual kind whole; the equality extension copies only the
/// residual kinds in which it rewrites an atom.
#[derive(Debug)]
pub(crate) struct CapturedState {
    /// The typing environment the solve ran under.
    pub(crate) env: Arc<TypeEnv>,
    /// Equality classes after substitution closure.
    pub(crate) uf: UnionFind,
    /// Residual atoms (equalities drained into `uf`, no disjunctions).
    pub(crate) atoms: Residual,
    /// Integer interval/difference domain after propagation.
    pub(crate) ints: IntDomain,
    /// Float literal-bound domain.
    pub(crate) nums: NumDomain,
    /// Candidate mask-identity sites `(x & m, x, m)` occurring anywhere
    /// in the captured atoms, so the incremental fast path can re-check
    /// the mask-learning trigger without re-scanning every atom tree.
    pub(crate) mask_sites: PVec<MaskSite>,
}

/// A mask-identity site `(x & m, x, m)`.
pub(crate) type MaskSite = (Expr, Expr, i64);

/// Appends to `sites` the candidate mask-identity sites `(x & m, x, m)`
/// (with `m+1` a power of two) of the given expressions that it does not
/// hold yet. The satisfiability checker learns `x & m = x` once the
/// interval of `x` fits inside the mask; the captured site list lets an
/// incremental extension re-test exactly those triggers.
pub(crate) fn collect_mask_sites(exprs: &[Expr], sites: &mut PVec<MaskSite>) {
    let mut found: Vec<MaskSite> = Vec::new();
    for e in exprs {
        e.visit(&mut |sub| {
            if let Expr::Bin(BinOp::BitAnd, a, b) = sub {
                let (x, mask) = match (a.as_int(), b.as_int()) {
                    (Some(m), None) => (b.as_ref(), m),
                    (None, Some(m)) => (a.as_ref(), m),
                    _ => return,
                };
                if mask >= 0
                    && (mask.wrapping_add(1) & mask) == 0
                    && !found.iter().chain(sites.iter()).any(|(s, _, _)| s == sub)
                {
                    found.push((sub.clone(), x.clone(), mask));
                }
            }
        });
    }
    sites.extend(found);
}
