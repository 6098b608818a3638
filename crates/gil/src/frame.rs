//! Variable stores laid out in slots: `ρ : X ⇀ V` (paper Defs. 2.5
//! and 2.6).
//!
//! A [`Layout`] lists program variables sorted by name, and a variable's
//! *slot* is its index. The bytecode compiler gives each procedure one
//! layout covering its parameters and every variable it assigns or reads
//! ([`crate::compile`]), so compiled code names variables by slot alone.
//!
//! A [`Frame`] is a store over a layout: one cell per slot, copy-on-write
//! behind an [`Arc`], so a branch snapshot or a saved caller frame is a
//! refcount bump and a write to an unshared frame is an indexed store.
//! Both the concrete and the symbolic state keep their store as a frame.
//!
//! Frames are addressable by name too, for the tree-walk oracle and for
//! frames built outside compiled code (the entry state, checkpoint
//! decoding). A by-name write to a variable the layout lacks grows the
//! frame onto a new layout with the name inserted. [`Frame::relayout`]
//! moves such a frame onto a procedure's layout, by name, once.
//!
//! Iteration visits bound variables in name order, so rendered stores,
//! checkpoint bytes and store comparisons follow the order of an ordered
//! map keyed by name.

use crate::prog::Ident;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A set of program variables sorted by name; a variable's slot is its
/// index.
#[derive(Debug)]
pub struct Layout {
    names: Box<[Ident]>,
}

impl Layout {
    /// The layout of `names`, sorted and deduplicated.
    pub fn new(names: impl IntoIterator<Item = Ident>) -> Layout {
        let mut names: Vec<Ident> = names.into_iter().collect();
        names.sort_unstable();
        names.dedup();
        Layout {
            names: names.into(),
        }
    }

    /// A layout over names the caller has already sorted and deduplicated.
    pub(crate) fn from_sorted(names: Box<[Ident]>) -> Layout {
        debug_assert!(names.windows(2).all(|w| w[0] < w[1]), "unsorted layout");
        Layout { names }
    }

    /// The shared layout with no variables.
    pub fn empty() -> Arc<Layout> {
        static EMPTY: OnceLock<Arc<Layout>> = OnceLock::new();
        EMPTY
            .get_or_init(|| Arc::new(Layout::from_sorted(Box::new([]))))
            .clone()
    }

    /// The variables, in slot (= name) order.
    pub fn names(&self) -> &[Ident] {
        &self.names
    }

    /// The number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the layout has no variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The slot of variable `x`, if the layout lists it.
    pub fn slot(&self, x: &str) -> Option<u32> {
        self.position(x).ok().map(|i| i as u32)
    }

    /// The variable in slot `slot`.
    ///
    /// # Panics
    ///
    /// When `slot` is out of range.
    pub fn name(&self, slot: u32) -> &Ident {
        &self.names[slot as usize]
    }

    fn position(&self, x: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|n| (**n).cmp(x))
    }
}

/// A variable store over a [`Layout`]: one cell per slot, `None` for an
/// unbound variable.
pub struct Frame<V> {
    layout: Arc<Layout>,
    cells: Arc<[Option<V>]>,
}

impl<V> Clone for Frame<V> {
    fn clone(&self) -> Self {
        Frame {
            layout: self.layout.clone(),
            cells: self.cells.clone(),
        }
    }
}

impl<V> Default for Frame<V> {
    fn default() -> Self {
        Frame::new()
    }
}

impl<V> Frame<V> {
    /// The empty store.
    pub fn new() -> Self {
        Frame::with_layout(Layout::empty())
    }

    /// A store over `layout` with every variable unbound.
    pub fn with_layout(layout: Arc<Layout>) -> Self {
        let cells = (0..layout.len()).map(|_| None).collect();
        Frame { layout, cells }
    }

    /// A callee store over `layout`: `args[i]` is bound in `slots[i]`,
    /// left to right, so a repeated parameter keeps its last argument.
    /// Missing arguments leave their parameters unbound; extra arguments
    /// are dropped.
    pub fn bind(layout: &Arc<Layout>, slots: &[u32], args: Vec<V>) -> Self {
        let mut frame = Frame::with_layout(layout.clone());
        let cells = Arc::get_mut(&mut frame.cells).expect("a fresh frame is unshared");
        for (&s, v) in slots.iter().zip(args) {
            cells[s as usize] = Some(v);
        }
        frame
    }

    /// The layout this store is laid out by.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// The value in slot `slot`, if bound.
    pub fn get_slot(&self, slot: u32) -> Option<&V> {
        self.cells.get(slot as usize)?.as_ref()
    }

    /// Looks a variable up by name.
    pub fn get(&self, x: &str) -> Option<&V> {
        self.get_slot(self.layout.slot(x)?)
    }

    /// The bound variables and their values, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ident, &V)> {
        self.layout
            .names
            .iter()
            .zip(self.cells.iter())
            .filter_map(|(x, c)| c.as_ref().map(|v| (x, v)))
    }

    /// The number of bound variables.
    pub fn len(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(Option::is_none)
    }
}

impl<V: Clone> Frame<V> {
    /// Binds slot `slot`, copying the cells first if the frame is shared.
    ///
    /// # Panics
    ///
    /// When `slot` is out of range.
    pub fn set_slot(&mut self, slot: u32, v: V) {
        Arc::make_mut(&mut self.cells)[slot as usize] = Some(v);
    }

    /// Binds a variable by name. A name the layout lacks moves the frame
    /// onto a new layout with the name inserted in order.
    pub fn set(&mut self, x: &Ident, v: V) {
        match self.layout.position(x) {
            Ok(i) => self.set_slot(i as u32, v),
            Err(i) => {
                let mut names = self.layout.names.to_vec();
                names.insert(i, x.clone());
                let mut cells = self.cells.to_vec();
                cells.insert(i, Some(v));
                self.layout = Arc::new(Layout::from_sorted(names.into()));
                self.cells = cells.into();
            }
        }
    }

    /// A callee store binding `params` to `args` by name, as
    /// [`Frame::bind`] binds slots.
    pub fn from_params(params: &[Ident], args: Vec<V>) -> Self {
        params.iter().cloned().zip(args).collect()
    }

    /// This store laid out by `layout`, each binding moved to the slot of
    /// its name: a refcount bump when the frame already uses `layout`.
    /// `None` when a bound variable is not in `layout`.
    pub fn relayout(&self, layout: &Arc<Layout>) -> Option<Self> {
        if Arc::ptr_eq(&self.layout, layout) {
            return Some(self.clone());
        }
        let mut frame = Frame::with_layout(layout.clone());
        let cells = Arc::get_mut(&mut frame.cells).expect("a fresh frame is unshared");
        for (x, v) in self.iter() {
            cells[layout.slot(x)? as usize] = Some(v.clone());
        }
        Some(frame)
    }
}

/// Collects `(name, value)` bindings; a repeated name keeps its last
/// value, as successive writes would.
impl<V> FromIterator<(Ident, V)> for Frame<V> {
    fn from_iter<I: IntoIterator<Item = (Ident, V)>>(iter: I) -> Self {
        let mut pairs: Vec<(Ident, V)> = iter.into_iter().collect();
        // Stable, so equal names stay in write order.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut names: Vec<Ident> = Vec::with_capacity(pairs.len());
        let mut cells: Vec<Option<V>> = Vec::with_capacity(pairs.len());
        for (x, v) in pairs {
            if names.last() == Some(&x) {
                *cells.last_mut().expect("cells track names") = Some(v);
            } else {
                names.push(x);
                cells.push(Some(v));
            }
        }
        Frame {
            layout: Arc::new(Layout::from_sorted(names.into())),
            cells: cells.into(),
        }
    }
}

/// Renders as a map from names to values, in name order.
impl<V: fmt::Debug> fmt::Debug for Frame<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Equal when the same variables are bound to equal values, whatever the
/// layouts.
impl<V: PartialEq> PartialEq for Frame<V> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(x: &str) -> Ident {
        Ident::from(x)
    }

    #[test]
    fn layouts_sort_and_deduplicate() {
        let l = Layout::new(["b", "a", "c", "a"].map(ident));
        assert_eq!(l.names(), &["a", "b", "c"].map(ident));
        assert_eq!(l.slot("b"), Some(1));
        assert_eq!(l.slot("z"), None);
        assert_eq!(l.name(2).as_ref(), "c");
    }

    #[test]
    fn slot_and_name_access_agree() {
        let layout = Arc::new(Layout::new(["n", "x"].map(ident)));
        let mut f = Frame::with_layout(layout.clone());
        assert!(f.is_empty());
        f.set_slot(1, 10);
        assert_eq!(f.get("x"), Some(&10));
        assert_eq!(f.get("n"), None);
        f.set(&ident("n"), 3);
        assert_eq!(f.get_slot(0), Some(&3));
        assert!(
            Arc::ptr_eq(f.layout(), &layout),
            "known names keep the layout"
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn by_name_writes_grow_the_layout_in_order() {
        let mut f = Frame::new();
        for (x, v) in [("m", 1), ("a", 2), ("z", 3), ("a", 4)] {
            f.set(&ident(x), v);
        }
        let bound: Vec<_> = f.iter().map(|(x, v)| (x.to_string(), *v)).collect();
        assert_eq!(bound, [("a".into(), 4), ("m".into(), 1), ("z".into(), 3)]);
        assert_eq!(format!("{f:?}"), r#"{"a": 4, "m": 1, "z": 3}"#);
    }

    #[test]
    fn snapshots_are_copy_on_write() {
        let layout = Arc::new(Layout::new(["x"].map(ident)));
        let mut a = Frame::with_layout(layout);
        a.set_slot(0, 1);
        let snapshot = a.clone();
        a.set_slot(0, 2);
        assert_eq!(snapshot.get("x"), Some(&1));
        assert_eq!(a.get("x"), Some(&2));
    }

    #[test]
    fn binding_follows_positional_call_rules() {
        let layout = Arc::new(Layout::new(["a", "b"].map(ident)));
        // Too few arguments leave `b` unbound; too many are dropped; a
        // repeated parameter keeps its last argument.
        let few = Frame::bind(&layout, &[0, 1], vec![1]);
        assert_eq!((few.get("a"), few.get("b")), (Some(&1), None));
        let many = Frame::bind(&layout, &[0], vec![1, 2, 3]);
        assert_eq!(many.len(), 1);
        let dup = Frame::bind(&layout, &[0, 0], vec![1, 2]);
        assert_eq!(dup.get("a"), Some(&2));
        let by_name = Frame::from_params(&["a", "a"].map(ident), vec![1, 2]);
        assert_eq!(by_name, dup);
    }

    #[test]
    fn relayout_moves_bindings_by_name() {
        let f: Frame<i32> = [(ident("y"), 2), (ident("x"), 1)].into_iter().collect();
        let target = Arc::new(Layout::new(["w", "x", "y"].map(ident)));
        let g = f.relayout(&target).expect("every name is in the target");
        assert!(Arc::ptr_eq(g.layout(), &target));
        assert_eq!(g.get_slot(1), Some(&1));
        assert_eq!(g, f);
        let narrow = Arc::new(Layout::new(["x"].map(ident)));
        assert!(f.relayout(&narrow).is_none(), "`y` has no slot");
    }
}
