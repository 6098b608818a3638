//! Boundary offsets through the MiniC heaps: `load`, `store`, `loadBytes`
//! and `storeBytes` at offsets around an 8-byte block and at the ends of
//! the `i64` range. No access may panic or wrap past the bounds check;
//! an out-of-range access is the typed `out-of-bounds` UB value, and the
//! concrete heap, the symbolic heap and the symbolic heap's literal fast
//! paths answer every access alike.

use gillian::c::chunks::Chunk;
use gillian::c::{CConcMemory, CSymMemory};
use gillian::core::memory::{ConcreteMemory, SymbolicMemory};
use gillian::gil::{Expr, Sym, Value};
use gillian::solver::{PathCondition, Solver};

const SIZE: i64 = 8;

const OFFSETS: [i64; 7] = [i64::MIN, -1, 0, SIZE - 1, SIZE, i64::MAX - 7, i64::MAX];

/// How an access ended: `"ok"` without an error, or the kind of its UB
/// value.
fn kind(error: Option<&Value>) -> String {
    match error {
        None => "ok".to_string(),
        Some(Value::List(items)) if items.len() == 3 && items[0] == Value::str("UB") => {
            match &items[1] {
                Value::Str(kind) => kind.to_string(),
                other => panic!("UB value with kind {other}"),
            }
        }
        Some(other) => panic!("error outcome {other} is not a UB value"),
    }
}

/// The heap actions at `off`: an 8-byte store, an 8-byte load, eight
/// bytes stored and eight bytes loaded.
fn actions(block: &Value, off: i64) -> Vec<(&'static str, Value)> {
    let chunk = Chunk::int(8).to_value();
    let off = Value::Int(off);
    let byte = |k: i64| Value::List(vec![Value::Int(7), Value::Int(k), Value::Int(8)]);
    vec![
        (
            "store",
            Value::List(vec![
                chunk.clone(),
                block.clone(),
                off.clone(),
                Value::Int(7),
            ]),
        ),
        ("load", Value::List(vec![chunk, block.clone(), off.clone()])),
        (
            "storeBytes",
            Value::List(vec![
                block.clone(),
                off.clone(),
                Value::List((0..8).map(byte).collect()),
            ]),
        ),
        (
            "loadBytes",
            Value::List(vec![block.clone(), off, Value::Int(8)]),
        ),
    ]
}

/// Runs `arg` through the symbolic heap, generally or through its coded
/// fast paths, and returns the one branch's memory and outcome kind.
fn symbolic(
    mem: CSymMemory,
    name: &str,
    arg: &Value,
    coded: bool,
    solver: &Solver,
) -> (CSymMemory, String) {
    let (arg, pc) = (Expr::Val(arg.clone()), PathCondition::new());
    let mut branches = match mem.action_code(name).filter(|_| coded) {
        Some(code) => mem.execute_action_coded(code, name, &arg, &pc, solver),
        None => mem.execute_action(name, &arg, &pc, solver),
    };
    assert_eq!(branches.len(), 1, "{name} {arg}: literal access branched");
    let branch = branches.pop().expect("one branch");
    let kind = match &branch.outcome {
        Ok(_) => kind(None),
        Err(Expr::Val(v)) => kind(Some(v)),
        Err(other) => panic!("{name} {arg}: symbolic error {other}"),
    };
    (branch.memory, kind)
}

#[test]
fn boundary_offsets_give_the_same_ub_in_every_c_heap() {
    let solver = Solver::optimized();
    let block = Value::Sym(Sym(Sym::FIRST_FRESH));
    let alloc = Value::List(vec![block.clone(), Value::Int(SIZE)]);
    let mut conc = CConcMemory::default();
    conc.execute_action("alloc", alloc.clone())
        .expect("alloc succeeds");
    let (mut general, mut coded) = (CSymMemory::default(), CSymMemory::default());
    for mem in [&mut general, &mut coded] {
        let (next, kind) = symbolic(std::mem::take(mem), "alloc", &alloc, false, &solver);
        assert_eq!(kind, "ok");
        *mem = next;
    }
    // One memory of each kind sees every access in turn, so an access
    // that wrapped past the bounds check would corrupt what later ones
    // read.
    for off in OFFSETS {
        for (name, arg) in actions(&block, off) {
            let want = kind(conc.execute_action(name, arg.clone()).err().as_ref());
            let in_bounds = (0..=SIZE - 8).contains(&off);
            if !in_bounds {
                assert_eq!(want, "out-of-bounds", "concrete {name} at {off}");
            }
            let (next, got) = symbolic(general, name, &arg, false, &solver);
            assert_eq!(got, want, "symbolic {name} at {off}");
            general = next;
            let (next, got) = symbolic(coded, name, &arg, true, &solver);
            assert_eq!(got, want, "coded symbolic {name} at {off}");
            coded = next;
        }
    }
}
