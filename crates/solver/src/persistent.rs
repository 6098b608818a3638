//! Persistent (immutable, structurally shared) collections.
//!
//! Path conditions and frozen solver states are snapshotted at every
//! branch point and extended by a few entries each, so their collections
//! must clone in O(1) and share structure with their ancestors. The
//! workspace vendors no persistent-collection crates, so three are
//! hand-written here:
//!
//! - [`PSet`], a set of `u64` keys: the conjunct dedup index of a
//!   [`PathCondition`](crate::PathCondition). A bitmapped 32-way trie (a
//!   HAMT whose "hash" is the key itself — interner term ids are dense and
//!   unique, so no hashing is needed).
//! - [`PVec`], an append-only sequence of shared segments: the residual
//!   atoms, ordering edges and mask sites of a frozen solve state.
//! - [`PMap`], an ordered map as a shared base plus a small private
//!   overlay: the interval maps and the union-find of a frozen solve
//!   state.
//!
//! A [`PVec`] or [`PMap`] that nobody else shares is written in place,
//! so building a new one costs what a `Vec` or `BTreeMap` costs.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Bits consumed per trie level.
const BITS: u32 = 5;
/// Child mask per level (32-way branching).
const MASK: u64 = (1 << BITS) - 1;

#[derive(Debug)]
enum Node {
    /// A single key stored at whatever depth it stopped colliding.
    Leaf(u64),
    /// A compressed branch: bit `i` of `bitmap` set ⇔ a child exists for
    /// chunk `i`, stored at `children[popcount(bitmap & (bit-1))]`.
    Branch {
        bitmap: u32,
        children: Box<[Arc<Node>]>,
    },
}

impl Node {
    fn contains(&self, key: u64, shift: u32) -> bool {
        match self {
            Node::Leaf(k) => *k == key,
            Node::Branch { bitmap, children } => {
                let bit = 1u32 << ((key >> shift) & MASK);
                if bitmap & bit == 0 {
                    false
                } else {
                    let idx = (bitmap & (bit - 1)).count_ones() as usize;
                    children[idx].contains(key, shift + BITS)
                }
            }
        }
    }

    /// True when `f` holds for every key stored under this node.
    fn all_keys(&self, f: &mut impl FnMut(u64) -> bool) -> bool {
        match self {
            Node::Leaf(k) => f(*k),
            Node::Branch { children, .. } => children.iter().all(|c| c.all_keys(f)),
        }
    }

    /// Structural subset test: every key under `self` is under `sup`,
    /// with the two nodes rooted at the same `shift`. Shared subtrees
    /// (the common case for a snapshot against its own extension) answer
    /// in O(1) via pointer equality.
    fn is_subset(self: &Arc<Node>, sup: &Arc<Node>, shift: u32) -> bool {
        if Arc::ptr_eq(self, sup) {
            return true;
        }
        match (&**self, &**sup) {
            (Node::Leaf(k), _) => sup.contains(*k, shift),
            // A branch can compress a single-key chain, so falling into
            // this arm does not by itself mean |self| > 1: check each key.
            (Node::Branch { .. }, Node::Leaf(k)) => self.all_keys(&mut |x| x == *k),
            (
                Node::Branch {
                    bitmap: bs,
                    children: cs,
                },
                Node::Branch {
                    bitmap: bb,
                    children: cb,
                },
            ) => {
                if bs & !bb != 0 {
                    return false;
                }
                let mut bits = *bs;
                let mut i = 0;
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    bits ^= bit;
                    let j = (bb & (bit - 1)).count_ones() as usize;
                    if !cs[i].is_subset(&cb[j], shift + BITS) {
                        return false;
                    }
                    i += 1;
                }
                true
            }
        }
    }

    /// Returns the updated node, or `None` when `key` was already present
    /// (so the caller keeps sharing the original).
    fn insert(self: &Arc<Node>, key: u64, shift: u32) -> Option<Arc<Node>> {
        match &**self {
            Node::Leaf(k) if *k == key => None,
            Node::Leaf(k) => Some(split(*k, key, shift)),
            Node::Branch { bitmap, children } => {
                let chunk = (key >> shift) & MASK;
                let bit = 1u32 << chunk;
                let idx = (bitmap & (bit - 1)).count_ones() as usize;
                if bitmap & bit != 0 {
                    let child = children[idx].insert(key, shift + BITS)?;
                    let mut next: Vec<Arc<Node>> = children.to_vec();
                    next[idx] = child;
                    Some(Arc::new(Node::Branch {
                        bitmap: *bitmap,
                        children: next.into_boxed_slice(),
                    }))
                } else {
                    let mut next: Vec<Arc<Node>> = Vec::with_capacity(children.len() + 1);
                    next.extend_from_slice(&children[..idx]);
                    next.push(Arc::new(Node::Leaf(key)));
                    next.extend_from_slice(&children[idx..]);
                    Some(Arc::new(Node::Branch {
                        bitmap: bitmap | bit,
                        children: next.into_boxed_slice(),
                    }))
                }
            }
        }
    }
}

/// Builds the minimal branch chain distinguishing two unequal keys from
/// `shift` downward. Distinct `u64`s always differ in some 5-bit chunk at
/// shift ≤ 60, so this terminates within the key width.
fn split(k1: u64, k2: u64, shift: u32) -> Arc<Node> {
    debug_assert!(k1 != k2 && shift < u64::BITS);
    let c1 = (k1 >> shift) & MASK;
    let c2 = (k2 >> shift) & MASK;
    if c1 == c2 {
        Arc::new(Node::Branch {
            bitmap: 1 << c1,
            children: vec![split(k1, k2, shift + BITS)].into_boxed_slice(),
        })
    } else {
        let (lo, hi) = if c1 < c2 {
            (Node::Leaf(k1), Node::Leaf(k2))
        } else {
            (Node::Leaf(k2), Node::Leaf(k1))
        };
        Arc::new(Node::Branch {
            bitmap: (1 << c1) | (1 << c2),
            children: vec![Arc::new(lo), Arc::new(hi)].into_boxed_slice(),
        })
    }
}

/// A persistent set of `u64` keys: `clone()` is O(1), insertion is
/// O(log n) and shares all untouched structure with the original.
#[derive(Clone, Debug, Default)]
pub struct PSet {
    root: Option<Arc<Node>>,
    len: usize,
}

impl PSet {
    /// The empty set.
    pub fn new() -> PSet {
        PSet::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, key: u64) -> bool {
        match &self.root {
            Some(root) => root.contains(key, 0),
            None => false,
        }
    }

    /// True when every key of `self` is in `other`. Structurally shared
    /// subtrees — a snapshot probed against its own extension — compare
    /// by pointer, so the cost is proportional to the unshared part.
    pub fn is_subset(&self, other: &PSet) -> bool {
        if self.len > other.len {
            return false;
        }
        match (&self.root, &other.root) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a.is_subset(b, 0),
        }
    }

    /// Inserts in place (path-copying internally; other clones of this
    /// set are unaffected). Returns `true` when the key was new.
    pub fn insert(&mut self, key: u64) -> bool {
        match &self.root {
            None => {
                self.root = Some(Arc::new(Node::Leaf(key)));
                self.len = 1;
                true
            }
            Some(root) => match root.insert(key, 0) {
                Some(next) => {
                    self.root = Some(next);
                    self.len += 1;
                    true
                }
                None => false,
            },
        }
    }
}

/// Most segments a [`PVec`] chains before an append compacts it into one.
const MAX_SEGMENTS: usize = 16;

/// One segment of a [`PVec`]: its own items after those of `prev`.
#[derive(Debug)]
struct Segment<T> {
    items: Vec<T>,
    /// Items in the segments before this one.
    before: usize,
    /// Segments in the chain that ends here, this one included.
    depth: usize,
    prev: Option<Arc<Segment<T>>>,
}

/// An append-only sequence whose clones share their segments: `clone()`
/// is O(1), and appending to a shared vector adds one segment that holds
/// only the new items. Appending to a vector that nobody shares writes
/// into its last segment in place. An append that would chain more than
/// 16 segments copies the whole sequence into one, so iteration visits at
/// most 16 segments.
#[derive(Debug)]
pub struct PVec<T> {
    last: Option<Arc<Segment<T>>>,
}

impl<T> Clone for PVec<T> {
    fn clone(&self) -> Self {
        PVec {
            last: self.last.clone(),
        }
    }
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        PVec { last: None }
    }
}

impl<T: Clone> PVec<T> {
    /// The empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.last.as_ref().map_or(0, |s| s.before + s.items.len())
    }

    /// True when there are no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one item.
    pub fn push(&mut self, item: T) {
        self.extend(std::iter::once(item));
    }

    /// Appends `items` in order. Other clones of this vector are
    /// unaffected; an empty `items` leaves the segments as they are.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            return;
        }
        if let Some(last) = self.last.as_mut().and_then(Arc::get_mut) {
            last.items.extend(items);
            return;
        }
        let (before, depth) = self.last.as_ref().map_or((0, 0), |s| (self.len(), s.depth));
        self.last = Some(Arc::new(if depth == MAX_SEGMENTS {
            let mut all = self.to_vec();
            all.extend(items);
            Segment {
                items: all,
                before: 0,
                depth: 1,
                prev: None,
            }
        } else {
            Segment {
                items: items.collect(),
                before,
                depth: depth + 1,
                prev: self.last.take(),
            }
        }));
    }

    /// The items, in order.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut segments: [&[T]; MAX_SEGMENTS] = [&[]; MAX_SEGMENTS];
        let mut count = 0;
        let mut cur = self.last.as_deref();
        while let Some(s) = cur {
            segments[s.depth - 1] = &s.items;
            count = count.max(s.depth);
            cur = s.prev.as_deref();
        }
        Iter {
            segments,
            count,
            next: 0,
            current: [].iter(),
        }
    }

    /// The items, copied into one `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter().cloned());
        out
    }

    /// A copy in one segment that shares nothing with `self`.
    #[cfg(test)]
    pub(crate) fn unshared(&self) -> PVec<T> {
        PVec::from(self.to_vec())
    }

    /// Segments chained, for tests of the compaction.
    #[cfg(test)]
    pub(crate) fn segments(&self) -> usize {
        self.last.as_ref().map_or(0, |s| s.depth)
    }
}

impl<T> From<Vec<T>> for PVec<T> {
    /// One segment holding `items`, without spare capacity.
    fn from(mut items: Vec<T>) -> Self {
        if items.is_empty() {
            return PVec { last: None };
        }
        items.shrink_to_fit();
        PVec {
            last: Some(Arc::new(Segment {
                items,
                before: 0,
                depth: 1,
                prev: None,
            })),
        }
    }
}

impl<'a, T: Clone> IntoIterator for &'a PVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// The items of a [`PVec`], oldest segment first.
pub struct Iter<'a, T> {
    segments: [&'a [T]; MAX_SEGMENTS],
    count: usize,
    next: usize,
    current: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.current.next() {
                return Some(item);
            }
            if self.next == self.count {
                return None;
            }
            self.current = self.segments[self.next].iter();
            self.next += 1;
        }
    }
}

/// Entries a [`PMap`]'s overlay holds before it is folded into a private
/// copy of the base.
const MAX_OVERLAY: usize = 8;

/// An ordered map as a shared base plus a small private overlay:
/// `clone()` shares the base, and inserting into a clone writes to its
/// overlay, which is folded into a private copy of the base once it holds
/// more than 8 entries. A map whose base nobody else shares is written in
/// place. Entries are never removed, and iteration is in key order.
#[derive(Debug)]
pub struct PMap<K, V> {
    base: Option<Arc<BTreeMap<K, V>>>,
    /// Entries that shadow or add to `base`.
    overlay: BTreeMap<K, V>,
}

impl<K: Clone, V: Clone> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            base: self.base.clone(),
            overlay: self.overlay.clone(),
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap {
            base: None,
            overlay: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Clone, V: Clone + PartialEq> PMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value stored for `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.overlay
            .get(key)
            .or_else(|| self.base.as_ref()?.get(key))
    }

    /// Stores `value` for `key`. Other clones of this map are unaffected;
    /// storing the value a key already has changes nothing.
    pub fn insert(&mut self, key: K, value: V) {
        if self.get(&key) == Some(&value) {
            return;
        }
        let base = self.base.get_or_insert_with(Default::default);
        if let Some(base) = Arc::get_mut(base) {
            base.extend(std::mem::take(&mut self.overlay));
            base.insert(key, value);
            return;
        }
        self.overlay.insert(key, value);
        if self.overlay.len() > MAX_OVERLAY {
            Arc::make_mut(base).extend(std::mem::take(&mut self.overlay));
        }
    }

    /// The entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut base = self.base.iter().flat_map(|b| b.iter()).peekable();
        let mut overlay = self.overlay.iter().peekable();
        std::iter::from_fn(move || match (base.peek(), overlay.peek()) {
            (Some((bk, _)), Some((ok, _))) if bk < ok => base.next(),
            (Some((bk, _)), Some((ok, _))) if bk == ok => {
                base.next();
                overlay.next()
            }
            (_, Some(_)) => overlay.next(),
            (_, None) => base.next(),
        })
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// A copy without overlay that shares nothing with `self`.
    #[cfg(test)]
    pub(crate) fn unshared(&self) -> PMap<K, V> {
        let mut out = PMap::new();
        for (k, v) in self.iter() {
            out.insert(k.clone(), v.clone());
        }
        out
    }

    /// Entries in the private overlay, for tests of the compaction.
    #[cfg(test)]
    pub(crate) fn overlay_len(&self) -> usize {
        self.overlay.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = PSet::new();
        assert!(s.is_empty());
        for k in [0u64, 1, 31, 32, 33, 1 << 40, u64::MAX, 7, 7] {
            s.insert(k);
        }
        assert_eq!(s.len(), 8, "duplicate insert must not grow the set");
        for k in [0u64, 1, 31, 32, 33, 1 << 40, u64::MAX, 7] {
            assert!(s.contains(k), "{k} must be present");
        }
        assert!(!s.contains(2));
        assert!(!s.contains(1 << 41));
    }

    #[test]
    fn clones_are_independent_snapshots() {
        let mut a = PSet::new();
        for k in 0..100 {
            a.insert(k);
        }
        let snapshot = a.clone();
        for k in 100..200 {
            a.insert(k);
        }
        assert_eq!(snapshot.len(), 100);
        assert!(
            !snapshot.contains(150),
            "snapshot must not see later inserts"
        );
        assert!(a.contains(150));
        assert!(a.contains(50));
    }

    #[test]
    fn subset_is_structural_and_exact() {
        let mut small = PSet::new();
        let mut big = PSet::new();
        for k in [3u64, 77, 1 << 40] {
            small.insert(k);
            big.insert(k);
        }
        let snapshot = big.clone();
        for k in [5u64, 9_000, u64::MAX] {
            big.insert(k);
        }
        assert!(small.is_subset(&big));
        assert!(snapshot.is_subset(&big), "snapshot ⊆ its own extension");
        assert!(!big.is_subset(&small));
        assert!(PSet::new().is_subset(&small));
        assert!(!small.is_subset(&PSet::new()));
        let mut disjoint = PSet::new();
        disjoint.insert(4);
        assert!(!disjoint.is_subset(&big));
        let mut overlapping = PSet::new();
        overlapping.insert(3);
        overlapping.insert(4);
        assert!(!overlapping.is_subset(&big), "4 ∉ big");
    }

    #[test]
    fn dense_and_sparse_keys() {
        let mut s = PSet::new();
        // Dense sequential ids (the interner's actual distribution) plus
        // adversarial high-bit patterns.
        for k in 0..10_000u64 {
            assert!(s.insert(k));
        }
        for k in (0..64).map(|i| 1u64 << i) {
            s.insert(k);
        }
        assert!(s.contains(9_999));
        assert!(s.contains(1 << 63));
        assert!(!s.contains(10_001 + (1 << 50)));
        for k in 0..10_000u64 {
            assert!(!s.insert(k), "re-insert of {k} must report present");
        }
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn appends_to_a_shared_vector_leave_the_original() {
        let mut a = PVec::from(vec![1, 2, 3]);
        let snapshot = a.clone();
        a.extend([4, 5]);
        a.push(6);
        assert_eq!(snapshot.to_vec(), [1, 2, 3]);
        assert_eq!(a.to_vec(), [1, 2, 3, 4, 5, 6]);
        assert_eq!(a.len(), 6);
        let mut b = snapshot.clone();
        b.extend(std::iter::empty());
        assert!(Arc::ptr_eq(
            b.last.as_ref().unwrap(),
            snapshot.last.as_ref().unwrap()
        ));
        assert!(PVec::<u8>::from(Vec::new()).is_empty());
    }

    #[test]
    fn chains_compact_at_the_segment_cap() {
        let mut v = PVec::new();
        let mut snapshots = Vec::new();
        for i in 0..40 {
            snapshots.push(v.clone());
            v.push(i);
            let depth = v.last.as_ref().unwrap().depth;
            assert!(depth <= MAX_SEGMENTS, "{depth} segments after {i}");
        }
        assert_eq!(v.to_vec(), (0..40).collect::<Vec<_>>());
        for (n, s) in snapshots.iter().enumerate() {
            assert_eq!(s.to_vec(), (0..n as i32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn overlays_shadow_the_shared_base() {
        let mut a = PMap::new();
        for k in 0..20 {
            a.insert(k, k * 10);
        }
        let snapshot = a.clone();
        a.insert(5, 0);
        a.insert(100, 1);
        assert_eq!(a.get(&5), Some(&0));
        assert_eq!(snapshot.get(&5), Some(&50));
        assert_eq!(snapshot.get(&100), None);
        let keys: Vec<i32> = a.keys().copied().collect();
        let mut expected: Vec<i32> = (0..20).collect();
        expected.push(100);
        assert_eq!(keys, expected);
        // Storing an unchanged value does not grow the overlay.
        let mut b = snapshot.clone();
        b.insert(3, 30);
        assert!(b.overlay.is_empty());
    }

    /// One step on a model: append a run, or snapshot (clone) a version.
    #[derive(Clone, Debug)]
    enum VecOp {
        Extend(Vec<u8>),
        Fork(usize),
    }

    fn vec_op() -> impl Strategy<Value = VecOp> {
        prop_oneof![
            3 => proptest::collection::vec(any::<u8>(), 0..4).prop_map(VecOp::Extend),
            1 => (0usize..64).prop_map(VecOp::Fork),
        ]
    }

    /// One step on a map: insert into the current version, or continue
    /// from an earlier one.
    #[derive(Clone, Debug)]
    enum MapOp {
        Insert(u8, u8),
        Fork(usize),
    }

    fn map_op() -> impl Strategy<Value = MapOp> {
        prop_oneof![
            4 => (0u8..40, 0u8..4).prop_map(|(k, v)| MapOp::Insert(k, v)),
            1 => (0usize..64).prop_map(MapOp::Fork),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every version of a `PVec` reads as its `Vec` model, across
        /// forks and past several segment compactions.
        #[test]
        fn pvec_matches_a_vec(ops in proptest::collection::vec(vec_op(), 1..120)) {
            let mut versions: Vec<(PVec<u8>, Vec<u8>)> = vec![(PVec::new(), Vec::new())];
            let (mut cur, mut model) = (PVec::new(), Vec::new());
            for op in ops {
                match op {
                    VecOp::Extend(items) => {
                        cur.extend(items.iter().copied());
                        model.extend(items);
                        versions.push((cur.clone(), model.clone()));
                    }
                    VecOp::Fork(i) => {
                        let (v, m) = versions[i % versions.len()].clone();
                        cur = v;
                        model = m;
                    }
                }
            }
            for (v, m) in &versions {
                prop_assert_eq!(v.len(), m.len());
                prop_assert_eq!(&v.iter().copied().collect::<Vec<u8>>(), m);
            }
        }

        /// Every version of a `PMap` reads as its `BTreeMap` model, in key
        /// order, across forks and overlay compactions.
        #[test]
        fn pmap_matches_a_btree_map(ops in proptest::collection::vec(map_op(), 1..120)) {
            let mut versions: Vec<(PMap<u8, u8>, BTreeMap<u8, u8>)> =
                vec![(PMap::new(), BTreeMap::new())];
            let (mut cur, mut model) = (PMap::new(), BTreeMap::new());
            for op in ops {
                match op {
                    MapOp::Insert(k, v) => {
                        cur.insert(k, v);
                        model.insert(k, v);
                        versions.push((cur.clone(), model.clone()));
                    }
                    MapOp::Fork(i) => {
                        let (v, m) = versions[i % versions.len()].clone();
                        cur = v;
                        model = m;
                    }
                }
            }
            for (v, m) in &versions {
                let got: Vec<(u8, u8)> = v.iter().map(|(k, x)| (*k, *x)).collect();
                let want: Vec<(u8, u8)> = m.iter().map(|(k, x)| (*k, *x)).collect();
                prop_assert_eq!(got, want);
                for k in 0u8..40 {
                    prop_assert_eq!(v.get(&k), m.get(&k));
                }
            }
        }
    }
}
