//! Union-find over GIL expressions with literal representatives.
//!
//! The sat checker's equality engine: terms are opaque expressions; merging
//! two classes whose literal representatives differ is a contradiction.
//! Instead of full congruence closure, the checker runs *substitution
//! closure* (see `sat.rs`): after each merge round, atoms are rewritten with
//! class representatives and re-simplified to a fixpoint — simpler, and
//! precise enough for the equalities produced by symbolic execution (mostly
//! `lvar = literal` and `lvar = lvar`).

use crate::persistent::PMap;
use gillian_gil::{Expr, Value};

/// A union-find over expressions, tracking a literal value per class when
/// one is known. Its maps are persistent, so a clone that merges a few
/// classes shares everything else with the original.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: PMap<Expr, Expr>,
    /// Literal representative of each root's class, if any.
    value: PMap<Expr, Value>,
}

impl UnionFind {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds the root of `e`'s class (path-halving-free, functional maps).
    pub fn find(&self, e: &Expr) -> Expr {
        let mut cur = e.clone();
        while let Some(p) = self.parent.get(&cur) {
            if p == &cur {
                break;
            }
            cur = p.clone();
        }
        cur
    }

    /// The literal value of `e`'s class, if known. Literal expressions are
    /// their own value.
    pub fn value_of(&self, e: &Expr) -> Option<Value> {
        if let Expr::Val(v) = e {
            return Some(v.clone());
        }
        let root = self.find(e);
        if let Expr::Val(v) = &root {
            return Some(v.clone());
        }
        self.value.get(&root).cloned()
    }

    /// Merges the classes of `a` and `b`.
    ///
    /// Returns `false` on contradiction: the two classes are pinned to
    /// distinct literal values.
    #[must_use]
    pub fn union(&mut self, a: &Expr, b: &Expr) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        let va = self.class_value(&ra);
        let vb = self.class_value(&rb);
        match (&va, &vb) {
            (Some(x), Some(y)) if x != y => return false,
            _ => {}
        }
        // Prefer a literal root; otherwise the smaller expression.
        let (root, child) = match (&ra, &rb) {
            (Expr::Val(_), _) => (ra.clone(), rb.clone()),
            (_, Expr::Val(_)) => (rb.clone(), ra.clone()),
            _ => {
                if ra.size() <= rb.size() {
                    (ra.clone(), rb.clone())
                } else {
                    (rb.clone(), ra.clone())
                }
            }
        };
        self.parent.insert(child.clone(), root.clone());
        if let Some(v) = va.or(vb) {
            if !matches!(root, Expr::Val(_)) {
                self.value.insert(root, v);
            }
        }
        true
    }

    fn class_value(&self, root: &Expr) -> Option<Value> {
        if let Expr::Val(v) = root {
            Some(v.clone())
        } else {
            self.value.get(root).cloned()
        }
    }

    /// The representative to substitute for `e`: the class literal if known,
    /// otherwise the class root.
    pub fn repr(&self, e: &Expr) -> Expr {
        match self.value_of(e) {
            Some(v) => Expr::Val(v),
            None => self.find(e),
        }
    }

    /// Substitutes every subterm of `e` by its class representative
    /// (shared by the closure loop and the incremental fast path, so both
    /// rewrite atoms identically).
    pub fn apply(&self, e: &Expr) -> Expr {
        e.subst(&|sub| {
            let r = self.repr(sub);
            (r != *sub).then_some(r)
        })
    }

    /// All known `term → literal` bindings (for model construction).
    pub fn literal_bindings(&self) -> Vec<(Expr, Value)> {
        let mut out = Vec::new();
        let keys: Vec<Expr> = self.parent.keys().cloned().collect();
        for k in keys {
            if matches!(k, Expr::Val(_)) {
                continue;
            }
            if let Some(v) = self.value_of(&k) {
                out.push((k, v));
            }
        }
        // Roots holding values but never appearing as children.
        for (root, v) in self.value.iter() {
            if !out.iter().any(|(e, _)| e == root) && !matches!(root, Expr::Val(_)) {
                out.push((root.clone(), v.clone()));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// A copy that shares nothing with `self`.
    #[cfg(test)]
    pub(crate) fn unshared(&self) -> UnionFind {
        UnionFind {
            parent: self.parent.unshared(),
            value: self.value.unshared(),
        }
    }

    /// Tests whether `a` and `b` are known equal.
    pub fn same_class(&self, a: &Expr, b: &Expr) -> bool {
        if a == b {
            return true;
        }
        if let (Some(x), Some(y)) = (self.value_of(a), self.value_of(b)) {
            return x == y;
        }
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::LVar;

    fn x(i: u64) -> Expr {
        Expr::lvar(LVar(i))
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new();
        assert!(uf.union(&x(0), &x(1)));
        assert!(uf.union(&x(1), &x(2)));
        assert!(uf.same_class(&x(0), &x(2)));
        assert!(!uf.same_class(&x(0), &x(3)));
    }

    #[test]
    fn literal_pins_class() {
        let mut uf = UnionFind::new();
        assert!(uf.union(&x(0), &Expr::int(5)));
        assert!(uf.union(&x(1), &x(0)));
        assert_eq!(uf.value_of(&x(1)), Some(Value::Int(5)));
        assert_eq!(uf.repr(&x(1)), Expr::int(5));
    }

    #[test]
    fn conflicting_literals_contradict() {
        let mut uf = UnionFind::new();
        assert!(uf.union(&x(0), &Expr::int(5)));
        assert!(uf.union(&x(1), &Expr::int(6)));
        assert!(!uf.union(&x(0), &x(1)));
    }

    #[test]
    fn literal_bindings_are_complete() {
        let mut uf = UnionFind::new();
        assert!(uf.union(&x(0), &x(1)));
        assert!(uf.union(&x(1), &Expr::str("v")));
        let binds = uf.literal_bindings();
        assert!(binds.contains(&(x(0), Value::str("v"))));
        assert!(binds.contains(&(x(1), Value::str("v"))));
    }
}
