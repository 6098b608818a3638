//! The concrete state constructor `CSC` (paper Def. 2.5).
//!
//! Lifts any [`ConcreteMemory`] to a full concrete state model by pairing
//! it with a concrete variable store and the built-in concrete allocator:
//! `|S| = |M| × (X ⇀ V) × |AL|`.

use crate::allocator::ConcAllocator;
use crate::memory::ConcreteMemory;
use crate::state::{GilState, GuardEval};
use gillian_gil::eval::eval;
use gillian_gil::{EvalScratch, Expr, ExprCode, Frame, Ident, Value};

/// A concrete GIL state `⟨µ, ρ, ξ⟩` over memory model `M`.
#[derive(Clone, Debug, Default)]
pub struct ConcreteState<M> {
    /// The language memory `µ`.
    pub memory: M,
    store: Frame<Value>,
    alloc: ConcAllocator,
}

impl<M: ConcreteMemory> ConcreteState<M> {
    /// A state with empty memory and store and a fresh allocator.
    pub fn new() -> Self {
        ConcreteState {
            memory: M::default(),
            store: Frame::new(),
            alloc: ConcAllocator::new(),
        }
    }

    /// A state whose allocator replays `script` for `iSym` allocations —
    /// the restriction-directed executions of paper §3.
    pub fn with_script(script: impl IntoIterator<Item = Value>) -> Self {
        ConcreteState {
            memory: M::default(),
            store: Frame::new(),
            alloc: ConcAllocator::scripted(script),
        }
    }

    /// A state over an explicit initial memory.
    pub fn with_memory(memory: M) -> Self {
        ConcreteState {
            memory,
            store: Frame::new(),
            alloc: ConcAllocator::new(),
        }
    }

    /// The allocator record (inspectable in tests).
    pub fn alloc(&self) -> &ConcAllocator {
        &self.alloc
    }
}

impl<M: ConcreteMemory> GilState for ConcreteState<M> {
    type V = Value;

    fn eval(&self, e: &Expr) -> Result<Value, Value> {
        eval(&self.store, e).map_err(|err| Value::str(err.0))
    }

    fn set_var(&mut self, x: &Ident, v: Value) {
        self.store.set(x, v);
    }

    fn store(&self) -> &Frame<Value> {
        &self.store
    }

    fn set_store(&mut self, store: Frame<Value>) {
        self.store = store;
    }

    fn resolve_proc(&self, v: &Value) -> Result<Ident, Value> {
        match v {
            Value::Proc(f) => Ok(f.clone()),
            Value::Str(s) => Ok(s.clone()),
            other => Err(Value::str(format!("cannot call non-procedure {other}"))),
        }
    }

    fn branch_on(&self, e: &Expr) -> Result<Vec<(Self, bool)>, Value> {
        match self.eval(e)? {
            Value::Bool(b) => Ok(vec![(self.clone(), b)]),
            other => Err(Value::str(format!("non-boolean guard {other}"))),
        }
    }

    fn fresh_usym(&mut self, site: u32) -> Value {
        Value::Sym(self.alloc.alloc_usym(site))
    }

    fn fresh_isym(&mut self, site: u32) -> Value {
        self.alloc.alloc_isym(site)
    }

    fn execute_action(mut self, name: &str, arg: Value) -> Vec<(Self, Result<Value, Value>)> {
        let outcome = self.memory.execute_action(name, arg);
        vec![(self, outcome)]
    }

    fn error_value(&self, msg: &str) -> Value {
        Value::str(msg)
    }

    fn eval_code(&self, code: &ExprCode, scratch: &mut EvalScratch) -> Result<Value, Value> {
        code.eval_concrete(&self.store, scratch)
            .map_err(|err| Value::str(err.0))
    }

    /// Concrete guards never fork: decide in place, with no state clone
    /// and no successor vector (`Take(b)` ≡ the single branch
    /// [`GilState::branch_on`] would return).
    fn guard_code(&self, code: &ExprCode, scratch: &mut EvalScratch) -> GuardEval<Self> {
        match code.eval_concrete(&self.store, scratch) {
            Ok(Value::Bool(b)) => GuardEval::Take(b),
            Ok(other) => GuardEval::Fail(Value::str(format!("non-boolean guard {other}"))),
            Err(err) => GuardEval::Fail(Value::str(err.0)),
        }
    }

    fn set_slot(&mut self, slot: u32, v: Value) {
        self.store.set_slot(slot, v);
    }

    fn action_code(&self, name: &str) -> Option<u16> {
        self.memory.action_code(name)
    }

    fn execute_action_coded(
        mut self,
        code: u16,
        name: &str,
        arg: Value,
    ) -> Vec<(Self, Result<Value, Value>)> {
        let outcome = self.memory.execute_action_coded(code, name, arg);
        vec![(self, outcome)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A toy memory: a single counter cell with `inc`/`get` actions.
    #[derive(Clone, Debug, Default)]
    struct Counter(BTreeMap<String, i64>);

    impl ConcreteMemory for Counter {
        fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
            let key = arg
                .as_str()
                .ok_or_else(|| Value::str("expected key"))?
                .to_string();
            match name {
                "inc" => {
                    let c = self.0.entry(key).or_insert(0);
                    *c += 1;
                    Ok(Value::Int(*c))
                }
                "get" => self
                    .0
                    .get(&key)
                    .map(|&c| Value::Int(c))
                    .ok_or_else(|| Value::str(format!("no counter {key}"))),
                other => Err(Value::str(format!("unknown action {other}"))),
            }
        }
    }

    #[test]
    fn state_lifts_memory_actions() {
        let st = ConcreteState::<Counter>::new();
        let branches = st.execute_action("inc", Value::str("a"));
        let (st, out) = branches.into_iter().next().unwrap();
        assert_eq!(out, Ok(Value::Int(1)));
        let (_, out2) = st
            .execute_action("get", Value::str("a"))
            .into_iter()
            .next()
            .unwrap();
        assert_eq!(out2, Ok(Value::Int(1)));
    }

    #[test]
    fn action_errors_surface_as_error_values() {
        let st = ConcreteState::<Counter>::new();
        let (_, out) = st
            .execute_action("get", Value::str("missing"))
            .into_iter()
            .next()
            .unwrap();
        assert!(out.is_err());
    }

    #[test]
    fn branch_on_requires_boolean() {
        let mut st = ConcreteState::<Counter>::new();
        st.set_var(&"b".into(), Value::Bool(true));
        let branches = st.clone().branch_on(&Expr::pvar("b")).unwrap();
        assert_eq!(branches.len(), 1);
        assert!(branches[0].1);
        assert!(st.branch_on(&Expr::int(1)).is_err());
    }

    #[test]
    fn usym_and_isym_allocate() {
        let mut st = ConcreteState::<Counter>::new();
        let s1 = st.fresh_usym(0);
        let s2 = st.fresh_usym(0);
        assert_ne!(s1, s2);
        assert_eq!(st.fresh_isym(1), Value::Int(0));
        let mut scripted = ConcreteState::<Counter>::with_script([Value::Int(42)]);
        assert_eq!(scripted.fresh_isym(1), Value::Int(42));
    }
}
