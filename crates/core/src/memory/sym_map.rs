//! The symbolic partial map the memories share (module docs of
//! [`crate::memory`]: "Building a memory on `SymMap`").

use super::decide;
use gillian_gil::Expr;
use gillian_solver::{PathCondition, Solver};
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;

/// A copy-on-write ordered partial map from `(group, key expression)` to
/// `V`.
///
/// Entries are ordered by group, then by key under the derived `Expr`
/// order, so a group's entries are contiguous and one range walk from
/// `(g, Expr::LEAST)` visits them ([`SymMap::group`]). Within a group the
/// literal keys come first, so one probe at `(g, Expr::least_symbolic())`
/// tells whether the group has a symbolic key ([`SymMap::literal`]).
/// Cloning shares the map; the first write through a shared handle copies
/// it, and a write through a unique one mutates it in place.
#[derive(Clone, Debug, PartialEq)]
pub struct SymMap<G, V> {
    map: Arc<BTreeMap<(G, Expr), V>>,
}

impl<G, V> Default for SymMap<G, V> {
    fn default() -> Self {
        SymMap {
            map: Arc::default(),
        }
    }
}

impl<G: Ord + Clone, V: Clone> SymMap<G, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entries in `(group, key)` order.
    pub fn iter(&self) -> btree_map::Iter<'_, (G, Expr), V> {
        self.map.iter()
    }

    /// The value at `(group, key)`: the syntactic entry, with no alias
    /// reasoning.
    pub fn get(&self, group: &G, key: &Expr) -> Option<&V> {
        self.map.get(&(group.clone(), key.clone()))
    }

    /// Writes `(group, key)`, returning the value it replaces.
    pub fn insert(&mut self, group: G, key: Expr, value: V) -> Option<V> {
        Arc::make_mut(&mut self.map).insert((group, key), value)
    }

    /// Removes `(group, key)`, returning its value.
    pub fn remove(&mut self, group: &G, key: &Expr) -> Option<V> {
        Arc::make_mut(&mut self.map).remove(&(group.clone(), key.clone()))
    }

    /// Keeps the entries `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&G, &Expr, &V) -> bool) {
        Arc::make_mut(&mut self.map).retain(|(g, k), v| keep(g, k, v));
    }

    /// The `(key, value)` entries of `group`, in key order: literal keys
    /// first.
    pub fn group<'a>(&'a self, group: &'a G) -> impl Iterator<Item = (&'a Expr, &'a V)> + 'a {
        self.map
            .range((group.clone(), Expr::LEAST)..)
            .take_while(move |((g, _), _)| g == group)
            .map(|((_, k), v)| (k, v))
    }

    /// Removes every entry of `group`. Removing a group with no entries
    /// writes nothing, so a shared map stays shared.
    pub fn remove_group(&mut self, group: &G) {
        let keys: Vec<Expr> = self.group(group).map(|(k, _)| k.clone()).collect();
        if !keys.is_empty() {
            let map = Arc::make_mut(&mut self.map);
            for key in keys {
                map.remove(&(group.clone(), key));
            }
        }
    }

    /// The literal probe: `None` when `key` or any key of `group` is
    /// symbolic, so that only the alias decision can resolve `key`;
    /// otherwise the entry whose key equals `key`, if any.
    ///
    /// On literals the alias decision folds syntactically
    /// ([`SymMap::aliases`]): `eval_binop(Eq)` is `Value`'s derived
    /// equality, which the map's order agrees with, so the entry found
    /// here is the one candidate whose equality folds to `true`, every
    /// other folds to `false`, and the none-of conjunction folds to
    /// `false` when an entry is found and to `true` when none is.
    pub fn literal(&self, group: &G, key: &Expr) -> Option<Option<(&Expr, &V)>> {
        if !matches!(key, Expr::Val(_)) {
            return None;
        }
        let first_symbolic = self
            .map
            .range((group.clone(), Expr::least_symbolic().clone())..)
            .next();
        if first_symbolic.is_some_and(|((g, _), _)| g == group) {
            return None;
        }
        Some(
            self.map
                .get_key_value(&(group.clone(), key.clone()))
                .map(|((_, k), v)| (k, v)),
        )
    }

    /// The alias decision of `addr` over the keys of `group` (see
    /// [`Alias`]): every entry `addr` may equal, with its equality
    /// constraint and the decided condition that conjoins it, in key
    /// order, then the simplified constraint that `addr` equals none of
    /// the keys.
    pub fn aliases<'a>(
        &'a self,
        group: &'a G,
        addr: &Expr,
        under: Option<&Expr>,
        pc: &PathCondition,
        solver: &Solver,
    ) -> (Vec<(&'a Expr, &'a V, Expr, PathCondition)>, Expr) {
        let mut alias = Alias::new(addr, under, pc, solver);
        let matches = self
            .group(group)
            .filter_map(|(k, v)| {
                let (eq, pc) = alias.candidate(k)?;
                Some((k, v, eq, pc))
            })
            .collect();
        (matches, alias.none_of())
    }

    /// The address of the shared map, for tests that check a write
    /// happened in place.
    pub fn as_ptr(&self) -> *const () {
        Arc::as_ptr(&self.map).cast()
    }
}

/// One alias decision: which candidate keys an address may equal under a
/// path condition, and under what constraint it equals none of them.
///
/// For each candidate `k`, [`Alias::candidate`] simplifies `addr = k`,
/// conjoined after `under` when given, and decides it once
/// ([`crate::memory::decide`]): a literal asks nothing, anything else is
/// checked, and a feasible candidate comes with the checked condition,
/// which its branch keeps. The none-of constraint starts at `under` (or
/// `true`) and conjoins `addr ≠ k` for every candidate, feasible or not;
/// [`Alias::none_of`] simplifies it, and the caller decides it when its
/// query order calls for it.
///
/// The decision is lazy, one candidate per call, so a caller may do its
/// own solver work between candidates and keep the order of its queries.
pub struct Alias<'a> {
    addr: &'a Expr,
    under: Option<&'a Expr>,
    pc: &'a PathCondition,
    solver: &'a Solver,
    none_of: Expr,
}

impl<'a> Alias<'a> {
    /// Starts a decision for `addr`. `under` is a constraint every branch
    /// is taken under (a MiniJS object equality, a MiniC bounds check);
    /// `None` keeps the constraints free of a leading `true`, which
    /// `Expr::and` does not fold.
    pub fn new(
        addr: &'a Expr,
        under: Option<&'a Expr>,
        pc: &'a PathCondition,
        solver: &'a Solver,
    ) -> Self {
        Alias {
            addr,
            under,
            pc,
            solver,
            none_of: under.cloned().unwrap_or_else(Expr::tt),
        }
    }

    /// Decides candidate `key`: when the address may equal it, the
    /// simplified constraint under which it does, and the decided
    /// condition that conjoins it.
    pub fn candidate(&mut self, key: &Expr) -> Option<(Expr, PathCondition)> {
        let eq = self.addr.clone().eq(key.clone());
        let eq = match self.under {
            Some(under) => under.clone().and(eq),
            None => eq,
        };
        let eq = self.solver.simplify(self.pc, &eq);
        let none_of = std::mem::replace(&mut self.none_of, Expr::tt());
        self.none_of = none_of.and(self.addr.clone().ne(key.clone()));
        let pc = decide(self.pc, self.solver, &eq)?;
        Some((eq, pc))
    }

    /// The simplified constraint under which the address equals none of
    /// the candidates decided so far.
    pub fn none_of(self) -> Expr {
        self.solver.simplify(self.pc, &self.none_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillian_gil::{LVar, Sym, Value};
    use proptest::prelude::*;

    fn loc(i: u64) -> Expr {
        Expr::Val(Value::Sym(Sym(Sym::FIRST_FRESH + i)))
    }

    // The definitions the ordered-map walks replace: full scans.

    fn scan_group<G: Ord + Clone>(m: &SymMap<G, i64>, group: &G) -> Vec<(Expr, i64)> {
        m.iter()
            .filter(|((g, _), _)| g == group)
            .map(|((_, k), v)| (k.clone(), *v))
            .collect()
    }

    fn scan_literal<G: Ord + Clone>(
        m: &SymMap<G, i64>,
        group: &G,
        key: &Expr,
    ) -> Option<Option<(Expr, i64)>> {
        if !matches!(key, Expr::Val(_)) {
            return None;
        }
        let mut found = None;
        for ((g, k), v) in m.iter() {
            if g == group {
                if !matches!(k, Expr::Val(_)) {
                    return None;
                }
                if k == key {
                    found = Some((k.clone(), *v));
                }
            }
        }
        Some(found)
    }

    fn check_scans<G: Ord + Clone>(
        m: &SymMap<G, i64>,
        probes: &[(G, Expr)],
    ) -> Result<(), TestCaseError> {
        for (g, k) in probes {
            let walked: Vec<(Expr, i64)> = m.group(g).map(|(k, v)| (k.clone(), *v)).collect();
            prop_assert_eq!(walked, scan_group(m, g));
            let probed = m.literal(g, k).map(|f| f.map(|(k, v)| (k.clone(), *v)));
            prop_assert_eq!(probed, scan_literal(m, g, k));
        }
        Ok(())
    }

    /// Literal and symbolic locations.
    fn arb_loc() -> impl Strategy<Value = Expr> {
        prop_oneof![
            3 => (0u64..4).prop_map(loc),
            1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i))),
        ]
    }

    /// Literal keys of several types, and symbolic keys.
    fn arb_key() -> impl Strategy<Value = Expr> {
        prop_oneof![
            2 => (0u8..4).prop_map(|i| Expr::str(format!("k{i}"))),
            2 => (0u8..4).prop_map(|i| Expr::num(i as f64)),
            1 => (0i64..2).prop_map(Expr::int),
            1 => (0u64..3).prop_map(|i| Expr::lvar(LVar(i))),
            1 => (0u64..2).prop_map(|i| Expr::lvar(LVar(i)).add(Expr::int(1))),
            1 => Just(Expr::pvar("")),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Grouped by location expression, as MiniJS keys its cells.
        #[test]
        fn expr_grouped_walks_match_full_scans(
            cells in proptest::collection::vec((arb_loc(), arb_key()), 0..12),
            probes in proptest::collection::vec((arb_loc(), arb_key()), 1..6),
        ) {
            let mut m = SymMap::default();
            for (i, (l, k)) in cells.into_iter().enumerate() {
                m.insert(l, k, i as i64);
            }
            check_scans(&m, &probes)?;
        }

        /// One group, as the MiniJS metadata table is keyed; and groups
        /// by name, as the While heap is.
        #[test]
        fn unit_and_name_grouped_walks_match_full_scans(
            keys in proptest::collection::vec((0u8..3, arb_loc()), 0..8),
            probes in proptest::collection::vec((0u8..3, arb_loc()), 1..6),
        ) {
            let (mut unit, mut named) = (SymMap::default(), SymMap::default());
            for (i, (g, k)) in keys.into_iter().enumerate() {
                unit.insert((), k.clone(), i as i64);
                named.insert(Arc::<str>::from(format!("p{g}")), k, i as i64);
            }
            let unit_probes: Vec<((), Expr)> = probes.iter().map(|(_, k)| ((), k.clone())).collect();
            check_scans(&unit, &unit_probes)?;
            let named_probes: Vec<(Arc<str>, Expr)> = probes
                .into_iter()
                .map(|(g, k)| (Arc::from(format!("p{g}")), k))
                .collect();
            check_scans(&named, &named_probes)?;
        }

        /// The fact the literal fast paths rest on: on a group whose keys
        /// are all literal, with a literal address, the probe answers as
        /// the alias decision does.
        #[test]
        fn literal_probe_is_the_alias_decision(
            keys in proptest::collection::vec(arb_key(), 0..8),
            addr in arb_key(),
            under_tt in any::<bool>(),
        ) {
            let mut m = SymMap::default();
            for (i, k) in keys.into_iter().enumerate() {
                m.insert((), k, i as i64);
            }
            let Some(found) = m.literal(&(), &addr) else {
                let symbolic = !matches!(addr, Expr::Val(_))
                    || m.group(&()).any(|(k, _)| !matches!(k, Expr::Val(_)));
                prop_assert!(symbolic);
                return Ok(());
            };
            let (solver, pc) = (Solver::optimized(), PathCondition::new());
            let tt = Expr::tt();
            let under = under_tt.then_some(&tt);
            let (matches, none_of) = m.aliases(&(), &addr, under, &pc, &solver);
            match found {
                Some((k, v)) => {
                    prop_assert_eq!(matches.len(), 1);
                    prop_assert_eq!((matches[0].0, matches[0].1), (k, v));
                    prop_assert_eq!(&matches[0].2, &Expr::tt());
                    prop_assert_eq!(&matches[0].3, &pc);
                    prop_assert_eq!(none_of, Expr::ff());
                }
                None => {
                    prop_assert!(matches.is_empty());
                    prop_assert_eq!(none_of, Expr::tt());
                }
            }
        }
    }

    #[test]
    fn alias_constraints_are_built_under_the_given_constraint() {
        let (solver, pc) = (Solver::optimized(), PathCondition::new());
        let x = Expr::lvar(LVar(0));
        let mut m = SymMap::default();
        m.insert((), loc(0), 10);
        m.insert((), loc(1), 11);
        let (matches, none_of) = m.aliases(&(), &x, None, &pc, &solver);
        let keys: Vec<&Expr> = matches.iter().map(|(k, ..)| *k).collect();
        assert_eq!(keys, [&loc(0), &loc(1)]);
        assert_eq!(matches[0].2, x.clone().eq(loc(0)));
        let want = Expr::tt()
            .and(x.clone().ne(loc(0)))
            .and(x.clone().ne(loc(1)));
        assert_eq!(none_of, solver.simplify(&pc, &want));
        // Under a constraint, it leads every conjunction.
        let under = x.clone().ne(loc(1));
        let mut alias = Alias::new(&x, Some(&under), &pc, &solver);
        assert_eq!(alias.candidate(&loc(1)), None, "excluded by `under`");
        let (eq, decided) = alias.candidate(&loc(0)).expect("feasible");
        assert_eq!(
            eq,
            solver.simplify(&pc, &under.clone().and(x.clone().eq(loc(0))))
        );
        assert_eq!(decided.conjuncts(), [solver.simplify(&pc, &eq)]);
    }

    #[test]
    fn writes_through_a_clone_copy_and_unique_writes_do_not() {
        let mut m: SymMap<Expr, i64> = SymMap::default();
        m.insert(loc(0), loc(1), 1);
        let ptr = m.as_ptr();
        m.insert(loc(0), loc(2), 2);
        assert_eq!(m.as_ptr(), ptr, "unique write in place");
        let snapshot = m.clone();
        m.remove_group(&loc(9));
        assert_eq!(m.as_ptr(), ptr, "removing an empty group writes nothing");
        m.remove_group(&loc(0));
        assert!(m.is_empty());
        assert_ne!(m.as_ptr(), ptr, "a shared map is copied on write");
        assert_eq!(snapshot.len(), 2, "the clone kept its entries");
    }
}
