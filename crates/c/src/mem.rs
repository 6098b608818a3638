//! The MiniC concrete and symbolic memory models (paper §4.2) — the
//! CompCert-style memory: separated blocks, block-offset pointers,
//! byte-granular memory values, permissions, and chunked load/store.
//!
//! A memory value occupying byte `off + k` of a stored `n`-byte value `v`
//! is the triple `[v, k, n]` (the unified CompCertS representation the
//! paper adopts for its symbolic memory and notes "could also be applied
//! to the CompCert concrete memory model" — we do exactly that, so the
//! concrete and symbolic heaps have the same shape).
//!
//! The concrete heap stores those triples literally, one cell per byte.
//! The symbolic heap stores the bytes at literal offsets as *run
//! entries*: an entry `(v, k, len, n)` at offset `o` holds the bytes
//! `[v, k + i, n]` at `o + i` for `i < len`, so a whole stored value is
//! one entry `(v, 0, n, n)`. Entries are maximal, which keeps the
//! representation canonical; `[v, k, n]` is the byte view of an entry
//! (`CSymMemory::cells_iter`), and everything that interprets the heap
//! reads it pointwise through that view.
//!
//! A store of `[lo, hi)` follows one overwrite rule in both heaps
//! ([`store_span`]): the byte `[v, k, n]` at `o` belongs to the run of
//! `n` bytes at `o − k`, and every run that meets `[lo, hi)` loses all of
//! its bytes, including fragments copied apart from their run start by
//! `storeBytes`.
//!
//! ## Actions
//!
//! `A_C = {alloc, free, load, store, loadBytes, storeBytes, dropPerm,
//! checkPerm, sizeBlock, cmpPtr, globalSet, globalGet}` — the heap,
//! permission-table and global-environment management of the paper's
//! action set, minus the concurrency-related actions (Gillian handles
//! sequential programs only, §4.2).
//!
//! ## Undefined behaviour
//!
//! Every UB class the paper's evaluation exercises surfaces as an error
//! value `["UB", kind, detail]`: invalid/null dereference, out-of-bounds
//! access (the Collections-C buffer overflow), use-after-free, double
//! free, uninitialized/partial reads, insufficient permissions, and
//! cross-block or invalid pointer ordering (the Collections-C pointer
//! comparison bugs).
//!
//! ## Documented limitations (matching the paper's §4.2)
//!
//! - allocation sizes must be concrete ("we do not reason about
//!   allocation of symbolic size");
//! - alignment is not checked;
//! - a symbolic store that *partially* overlaps a differently-based run is
//!   not detected (chunk-strided code, which is what compilers emit, never
//!   does this); the differential soundness tests guard the corner.

use crate::chunks::{Chunk, ChunkKind};
use crate::values::POISON;
use gillian_core::memory::{
    decide, expr_args, successors, value_args, Alias, ArgList, ConcreteMemory, SymBranch,
    SymbolicMemory,
};
use gillian_gil::ops::eval_unop;
use gillian_gil::{Expr, LVar, Sym, UnOp, Value};
use gillian_solver::{PathCondition, Solver};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Permission levels, ascending (paper: "we model permissions as
/// integers, in ascending order of permissiveness").
pub mod perm {
    /// No access (freed or fully dropped).
    pub const NONE: u8 = 0;
    /// Read-only.
    pub const READABLE: u8 = 1;
    /// Read and write.
    pub const WRITABLE: u8 = 2;
    /// Read, write, and free.
    pub const FREEABLE: u8 = 3;
}

/// Dense codes for the MiniC actions, used by the bytecode backend's
/// per-site inline caches (`gillian_core::exec`): a dispatch site caches
/// the code on first execution and thereafter skips the string match.
mod code {
    pub const ALLOC: u16 = 0;
    pub const FREE: u16 = 1;
    pub const LOAD: u16 = 2;
    pub const STORE: u16 = 3;
    pub const LOAD_BYTES: u16 = 4;
    pub const STORE_BYTES: u16 = 5;
    pub const DROP_PERM: u16 = 6;
    pub const CHECK_PERM: u16 = 7;
    pub const SIZE_BLOCK: u16 = 8;
    pub const CMP_PTR: u16 = 9;
    pub const GLOBAL_SET: u16 = 10;
    pub const GLOBAL_GET: u16 = 11;
}

fn c_action_code(name: &str) -> Option<u16> {
    Some(match name {
        "alloc" => code::ALLOC,
        "free" => code::FREE,
        "load" => code::LOAD,
        "store" => code::STORE,
        "loadBytes" => code::LOAD_BYTES,
        "storeBytes" => code::STORE_BYTES,
        "dropPerm" => code::DROP_PERM,
        "checkPerm" => code::CHECK_PERM,
        "sizeBlock" => code::SIZE_BLOCK,
        "cmpPtr" => code::CMP_PTR,
        "globalSet" => code::GLOBAL_SET,
        "globalGet" => code::GLOBAL_GET,
        _ => return None,
    })
}

fn ub_value(kind: &str, detail: impl std::fmt::Display) -> Value {
    Value::List(vec![
        Value::str("UB"),
        Value::str(kind),
        Value::str(detail.to_string()),
    ])
}

fn ub_expr(kind: &str, detail: impl std::fmt::Display) -> Expr {
    Expr::Val(ub_value(kind, detail))
}

fn wrap_op(chunk: Chunk) -> Option<UnOp> {
    match chunk.kind {
        ChunkKind::Int if chunk.size < 8 => Some(if chunk.signed {
            UnOp::WrapSigned(chunk.size * 8)
        } else {
            UnOp::WrapUnsigned(chunk.size * 8)
        }),
        _ => None,
    }
}

/// How far a byte's run reaches: a run is at most `u8::MAX` bytes long,
/// and a byte sits at most `u8::MAX` bytes past its run's start.
const RUN_REACH: i64 = u8::MAX as i64;

/// The offsets of the bytes that can belong to a run meeting `[lo, hi)`:
/// a byte `[v, k, n]` at `o` belongs to the run `[o − k, o − k + n)`,
/// which meets `[lo, hi)` only if `lo − RUN_REACH < o < hi + RUN_REACH`.
fn overlap_window(lo: i64, hi: i64) -> std::ops::Range<i64> {
    lo.saturating_sub(RUN_REACH - 1)..hi.saturating_add(RUN_REACH)
}

/// The overwrite rule both heaps share: the span `[from, to)` of offsets
/// whose bytes a store of `[lo, hi)` clears. `cells` are the `(o, k, n)`
/// of the bytes at offsets in [`overlap_window`] (the symbolic heap
/// passes one per run entry, whose bytes all share a run). Every run
/// `[o − k, o − k + n)` that meets `[lo, hi)` dies with all its bytes,
/// wherever they are. Each such run meets `[lo, hi)`, so together with
/// `[lo, hi)` they form one span.
fn store_span(lo: i64, hi: i64, cells: impl IntoIterator<Item = (i64, u8, u8)>) -> (i64, i64) {
    cells.into_iter().fold((lo, hi), |(from, to), (o, k, n)| {
        let start = o - k as i64;
        let end = start + n as i64;
        if start < hi && end > lo {
            (from.min(start), to.max(end))
        } else {
            (from, to)
        }
    })
}

// ---------------------------------------------------------------------
// Concrete memory
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
struct ConcBlock {
    size: i64,
    perm: u8,
    freed: bool,
    cells: BTreeMap<i64, (Value, u8, u8)>,
}

/// The concrete MiniC memory.
///
/// Blocks sit behind [`Arc`]s with copy-on-write mutation: cloning a
/// memory is cheap (states clone on every step), and sequential execution
/// mutates blocks in place because the previous state has been dropped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CConcMemory {
    blocks: Arc<BTreeMap<Sym, Arc<ConcBlock>>>,
    globals: Arc<BTreeMap<Arc<str>, Value>>,
}

impl CConcMemory {
    fn block_mut(&mut self, b: Sym) -> Option<&mut ConcBlock> {
        Arc::make_mut(&mut self.blocks)
            .get_mut(&b)
            .map(Arc::make_mut)
    }

    fn blocks_mut(&mut self) -> &mut BTreeMap<Sym, Arc<ConcBlock>> {
        Arc::make_mut(&mut self.blocks)
    }
}

/// The message of an action whose argument is not an `n`-element list.
fn arity(action: &str, n: usize, arg: impl std::fmt::Display) -> String {
    format!("{action}: expected {n}-element list, got {arg}")
}

fn as_block(v: &Value, action: &str) -> Result<Sym, Value> {
    v.as_sym().ok_or_else(|| {
        ub_value(
            "bad-action-argument",
            format!("{action}: {v} is not a block"),
        )
    })
}

fn as_offset(v: &Value, action: &str) -> Result<i64, Value> {
    v.as_int().ok_or_else(|| {
        ub_value(
            "bad-action-argument",
            format!("{action}: {v} is not an offset"),
        )
    })
}

/// Decodes a stored value through a chunk (concrete).
fn decode_value(v: &Value, chunk: Chunk) -> Result<Value, Value> {
    match (chunk.kind, v) {
        (ChunkKind::Int, Value::Int(_)) => match wrap_op(chunk) {
            Some(op) => eval_unop(op, v).map_err(|e| ub_value("decode", e.0)),
            None => Ok(v.clone()),
        },
        (ChunkKind::Float, Value::Num(_)) => Ok(v.clone()),
        (ChunkKind::Ptr, Value::List(items)) if items.len() == 2 => Ok(v.clone()),
        _ => Err(ub_value(
            "mixed-read",
            format!("value {v} does not decode as a {} chunk", chunk.kind.name()),
        )),
    }
}

/// Encodes a value for storage through a chunk (concrete).
fn encode_value(v: &Value, chunk: Chunk) -> Result<Value, Value> {
    decode_value(v, chunk).map_err(|_| {
        ub_value(
            "mixed-store",
            format!(
                "value {v} cannot be stored through a {} chunk",
                chunk.kind.name()
            ),
        )
    })
}

impl CConcMemory {
    fn block(&self, b: Sym, action: &str) -> Result<&ConcBlock, Value> {
        match self.blocks.get(&b) {
            Some(blk) if blk.freed => {
                Err(ub_value("use-after-free", format!("{action} on freed {b}")))
            }
            Some(blk) => Ok(blk),
            None => Err(ub_value("invalid-block", format!("{action} on {b}"))),
        }
    }

    fn check_bounds(
        blk: &ConcBlock,
        off: i64,
        len: i64,
        b: Sym,
        action: &str,
    ) -> Result<(), Value> {
        if off < 0 || len < 0 || off + len > blk.size {
            Err(ub_value(
                "out-of-bounds",
                format!(
                    "{action} of {len} bytes at {b}+{off} (block size {})",
                    blk.size
                ),
            ))
        } else {
            Ok(())
        }
    }

    fn check_perm(blk: &ConcBlock, need: u8, b: Sym, action: &str) -> Result<(), Value> {
        if blk.perm < need {
            Err(ub_value(
                "insufficient-permission",
                format!("{action} needs permission {need} on {b} (has {})", blk.perm),
            ))
        } else {
            Ok(())
        }
    }

    /// Direct block registration (for interpretation functions).
    pub fn register_block(&mut self, b: Sym, size: i64, perm: u8, freed: bool) {
        self.blocks_mut().insert(
            b,
            Arc::new(ConcBlock {
                size,
                perm,
                freed,
                cells: BTreeMap::new(),
            }),
        );
    }

    /// Direct cell write (for interpretation functions).
    pub fn set_cell(&mut self, b: Sym, off: i64, value: Value, k: u8, n: u8) -> bool {
        match self.block_mut(b) {
            Some(blk) => blk.cells.insert(off, (value, k, n)).is_none(),
            None => false,
        }
    }

    /// Number of live blocks.
    pub fn live_blocks(&self) -> usize {
        self.blocks.values().filter(|b| !b.freed).count()
    }
}

impl ConcreteMemory for CConcMemory {
    // Concrete dispatch keeps the default (name-keyed) coded delegation:
    // the concrete actions are dominated by their map operations, so the
    // inline cache's only concrete win is resolving the code once.
    fn action_code(&self, name: &str) -> Option<u16> {
        c_action_code(name)
    }

    fn execute_action(&mut self, name: &str, arg: Value) -> Result<Value, Value> {
        let args = |n| {
            value_args(&arg, n).ok_or_else(|| ub_value("bad-action-argument", arity(name, n, &arg)))
        };
        match name {
            "alloc" => {
                let args = args(2)?;
                let b = as_block(&args[0], "alloc")?;
                let size = as_offset(&args[1], "alloc")?;
                if size < 0 {
                    return Err(ub_value("bad-alloc", format!("negative size {size}")));
                }
                if self.blocks.contains_key(&b) {
                    return Err(ub_value("bad-alloc", format!("block {b} exists")));
                }
                self.register_block(b, size, perm::FREEABLE, false);
                Ok(args[0].clone())
            }
            "free" => {
                let args = args(2)?;
                let b = as_block(&args[0], "free")?;
                let off = as_offset(&args[1], "free")?;
                if off != 0 {
                    return Err(ub_value(
                        "bad-free",
                        format!("free of {b}+{off} (nonzero offset)"),
                    ));
                }
                match self.block_mut(b) {
                    None => Err(ub_value("invalid-block", format!("free of {b}"))),
                    Some(blk) if blk.freed => Err(ub_value(
                        "double-free",
                        format!("free of already freed {b}"),
                    )),
                    Some(blk) => {
                        if blk.perm < perm::FREEABLE {
                            return Err(ub_value(
                                "insufficient-permission",
                                format!("free of {b} with permission {}", blk.perm),
                            ));
                        }
                        blk.freed = true;
                        blk.perm = perm::NONE;
                        blk.cells.clear();
                        Ok(Value::Bool(true))
                    }
                }
            }
            "load" => {
                let args = args(3)?;
                let chunk = Chunk::from_value(&args[0])
                    .ok_or_else(|| ub_value("bad-action-argument", "load: bad chunk"))?;
                let b = as_block(&args[1], "load")?;
                let off = as_offset(&args[2], "load")?;
                let blk = self.block(b, "load")?;
                Self::check_perm(blk, perm::READABLE, b, "load")?;
                Self::check_bounds(blk, off, chunk.size as i64, b, "load")?;
                let Some((v0, 0, n0)) = blk.cells.get(&off).cloned() else {
                    return Err(ub_value(
                        "uninitialized-read",
                        format!("load at {b}+{off} reads uninitialized or partial bytes"),
                    ));
                };
                if n0 != chunk.size {
                    return Err(ub_value(
                        "mixed-read",
                        format!(
                            "load of {} bytes over a {n0}-byte value at {b}+{off}",
                            chunk.size
                        ),
                    ));
                }
                for i in 1..n0 {
                    match blk.cells.get(&(off + i as i64)) {
                        Some((v, k, n)) if *v == v0 && *k == i && *n == n0 => {}
                        _ => {
                            return Err(ub_value(
                                "mixed-read",
                                format!("load at {b}+{off} reads torn bytes"),
                            ))
                        }
                    }
                }
                decode_value(&v0, chunk)
            }
            "store" => {
                let args = args(4)?;
                let chunk = Chunk::from_value(&args[0])
                    .ok_or_else(|| ub_value("bad-action-argument", "store: bad chunk"))?;
                let b = as_block(&args[1], "store")?;
                let off = as_offset(&args[2], "store")?;
                let value = encode_value(&args[3], chunk)?;
                let blk = self.block(b, "store")?;
                Self::check_perm(blk, perm::WRITABLE, b, "store")?;
                Self::check_bounds(blk, off, chunk.size as i64, b, "store")?;
                let size = chunk.size;
                let blk = self.block_mut(b).expect("checked above");
                let (lo, hi) = (off, off + size as i64);
                let window = blk.cells.range(overlap_window(lo, hi));
                let (from, to) = store_span(lo, hi, window.map(|(o, (_, k, n))| (*o, *k, *n)));
                let doomed: Vec<i64> = blk.cells.range(from..to).map(|(o, _)| *o).collect();
                for o in doomed {
                    blk.cells.remove(&o);
                }
                for k in 0..size {
                    blk.cells.insert(off + k as i64, (value.clone(), k, size));
                }
                Ok(value)
            }
            "loadBytes" => {
                let args = args(3)?;
                let b = as_block(&args[0], "loadBytes")?;
                let off = as_offset(&args[1], "loadBytes")?;
                let len = as_offset(&args[2], "loadBytes")?;
                let blk = self.block(b, "loadBytes")?;
                Self::check_perm(blk, perm::READABLE, b, "loadBytes")?;
                Self::check_bounds(blk, off, len, b, "loadBytes")?;
                let mut out = Vec::with_capacity(len as usize);
                for i in 0..len {
                    match blk.cells.get(&(off + i)) {
                        Some((v, k, n)) => out.push(Value::List(vec![
                            v.clone(),
                            Value::Int(*k as i64),
                            Value::Int(*n as i64),
                        ])),
                        None => out.push(Value::Sym(POISON)),
                    }
                }
                Ok(Value::List(out))
            }
            "storeBytes" => {
                let args = args(3)?;
                let b = as_block(&args[0], "storeBytes")?;
                let off = as_offset(&args[1], "storeBytes")?;
                let bytes = args[2]
                    .as_list()
                    .ok_or_else(|| ub_value("bad-action-argument", "storeBytes: bytes"))?
                    .to_vec();
                let len = bytes.len() as i64;
                let blk = self.block(b, "storeBytes")?;
                Self::check_perm(blk, perm::WRITABLE, b, "storeBytes")?;
                Self::check_bounds(blk, off, len, b, "storeBytes")?;
                let blk = self.block_mut(b).expect("checked above");
                for (i, byte) in bytes.into_iter().enumerate() {
                    let at = off + i as i64;
                    if byte == Value::Sym(POISON) {
                        blk.cells.remove(&at);
                    } else if let Some(items) = byte.as_list() {
                        if items.len() == 3 {
                            let k = items[1].as_int().unwrap_or(0) as u8;
                            let n = items[2].as_int().unwrap_or(1) as u8;
                            blk.cells.insert(at, (items[0].clone(), k, n));
                            continue;
                        }
                        return Err(ub_value("bad-action-argument", "storeBytes: bad byte"));
                    } else {
                        return Err(ub_value("bad-action-argument", "storeBytes: bad byte"));
                    }
                }
                Ok(Value::Bool(true))
            }
            "dropPerm" => {
                let args = args(2)?;
                let b = as_block(&args[0], "dropPerm")?;
                let p = as_offset(&args[1], "dropPerm")? as u8;
                let blk = self
                    .block_mut(b)
                    .ok_or_else(|| ub_value("invalid-block", format!("dropPerm on {b}")))?;
                blk.perm = blk.perm.min(p);
                Ok(Value::Int(blk.perm as i64))
            }
            "checkPerm" => {
                let b = as_block(&arg, "checkPerm")?;
                match self.blocks.get(&b) {
                    Some(blk) => Ok(Value::Int(blk.perm as i64)),
                    None => Ok(Value::Int(-1)),
                }
            }
            "sizeBlock" => {
                let b = as_block(&arg, "sizeBlock")?;
                let blk = self.block(b, "sizeBlock")?;
                Ok(Value::Int(blk.size))
            }
            "cmpPtr" => {
                let args = args(3)?;
                let op = args[0]
                    .as_str()
                    .ok_or_else(|| ub_value("bad-action-argument", "cmpPtr: op"))?
                    .to_string();
                let p1 = args[1].as_list().filter(|l| l.len() == 2);
                let p2 = args[2].as_list().filter(|l| l.len() == 2);
                let (Some(p1), Some(p2)) = (p1, p2) else {
                    return Err(ub_value("bad-action-argument", "cmpPtr: non-pointers"));
                };
                let same_block = p1[0] == p2[0];
                match op.as_str() {
                    "eq" => Ok(Value::Bool(p1 == p2)),
                    "ne" => Ok(Value::Bool(p1 != p2)),
                    "lt" | "le" => {
                        // Ordering is defined only within one *valid* block.
                        if !same_block {
                            return Err(ub_value(
                                "ub-pointer-comparison",
                                "ordering of pointers into different blocks",
                            ));
                        }
                        let b = as_block(&p1[0], "cmpPtr")?;
                        let _ = self.block(b, "cmpPtr").map_err(|_| {
                            ub_value("ub-pointer-comparison", "ordering of invalid pointers")
                        })?;
                        let o1 = as_offset(&p1[1], "cmpPtr")?;
                        let o2 = as_offset(&p2[1], "cmpPtr")?;
                        Ok(Value::Bool(if op == "lt" { o1 < o2 } else { o1 <= o2 }))
                    }
                    other => Err(ub_value("bad-action-argument", format!("cmpPtr: {other}"))),
                }
            }
            "globalSet" => {
                let args = args(2)?;
                let name = args[0]
                    .as_str()
                    .ok_or_else(|| ub_value("bad-action-argument", "globalSet: name"))?;
                Arc::make_mut(&mut self.globals).insert(Arc::from(name), args[1].clone());
                Ok(args[1].clone())
            }
            "globalGet" => {
                let name = arg
                    .as_str()
                    .ok_or_else(|| ub_value("bad-action-argument", "globalGet: name"))?;
                self.globals
                    .get(name)
                    .cloned()
                    .ok_or_else(|| ub_value("invalid-global", name))
            }
            other => Err(ub_value("unknown-action", other)),
        }
    }
}

// ---------------------------------------------------------------------
// Symbolic memory
// ---------------------------------------------------------------------

/// Bytes `k .. k + len` of an `n`-byte stored value, at consecutive
/// offsets: byte `i` of the entry is the memory value `[value, k + i, n]`.
/// A byte from outside its value (`k ≥ n`, which only `storeBytes` can
/// write) is an entry of its own.
#[derive(Clone, Debug, PartialEq)]
struct Run {
    value: Expr,
    k: u8,
    len: u8,
    n: u8,
}

impl Run {
    /// A whole stored value.
    fn whole(value: Expr, n: u8) -> Run {
        Run {
            value,
            k: 0,
            len: n,
            n,
        }
    }

    /// The single byte `[value, k, n]`.
    fn byte((value, k, n): (Expr, u8, u8)) -> Run {
        Run {
            value,
            k,
            len: 1,
            n,
        }
    }

    /// The byte view of byte `i` of the entry.
    fn byte_view(&self, i: u8) -> (Expr, u8, u8) {
        (self.value.clone(), self.k + i, self.n)
    }

    /// The entry's bytes from byte `i` on.
    fn tail_from(&self, i: u8) -> Run {
        Run {
            value: self.value.clone(),
            k: self.k + i,
            len: self.len - i,
            n: self.n,
        }
    }

    /// Whether `next`, placed right after this entry, continues it: the
    /// same value, its next bytes. Entries are maximal under this
    /// relation, which makes the representation canonical. A whole run
    /// continues nothing and nothing continues it.
    fn continues(&self, next: &Run) -> bool {
        next.k < next.n
            && u16::from(next.k) == u16::from(self.k) + u16::from(self.len)
            && next.n == self.n
            && next.value == self.value
    }
}

/// A symbolic block. The bytes at literal offsets are maximal [`Run`]
/// entries keyed by the offset of their first byte; a complete stored
/// value is exactly an entry `(v, 0, n, n)`. A run stored at a symbolic
/// offset `base` stays byte-granular: one `[v, k, n]` cell per byte, keyed
/// by the simplified offset `simplify(base + k)`.
#[derive(Clone, Debug, PartialEq)]
struct SymBlock {
    size: i64,
    perm: u8,
    freed: bool,
    runs: BTreeMap<i64, Run>,
    sym_cells: BTreeMap<Expr, (Expr, u8, u8)>,
}

impl SymBlock {
    fn new(size: i64) -> SymBlock {
        SymBlock {
            size,
            perm: perm::FREEABLE,
            freed: false,
            runs: BTreeMap::new(),
            sym_cells: BTreeMap::new(),
        }
    }

    /// The entry holding the byte at literal offset `o`, with its offset.
    fn run_at(&self, o: i64) -> Option<(i64, &Run)> {
        let (&start, run) = self.runs.range(..=o).next_back()?;
        (o < start + run.len as i64).then_some((start, run))
    }

    /// The byte at offset `key`.
    fn byte(&self, key: &Expr) -> Option<(Expr, u8, u8)> {
        match key.as_int() {
            Some(o) => self
                .run_at(o)
                .map(|(start, run)| run.byte_view((o - start) as u8)),
            None => self.sym_cells.get(key).cloned(),
        }
    }

    /// The bytes at literal offsets in `[lo, hi)`, in offset order.
    fn literal_bytes(&self, lo: i64, hi: i64) -> impl Iterator<Item = (i64, (Expr, u8, u8))> + '_ {
        let from = self.run_at(lo).map_or(lo, |(start, _)| start);
        self.runs
            .range(from..hi.max(from))
            .flat_map(|(&start, run)| {
                (0..run.len).map(move |i| (start + i as i64, run.byte_view(i)))
            })
            .filter(move |(o, _)| (lo..hi).contains(o))
    }

    /// Removes the bytes at literal offsets `[lo, hi)`, cutting the
    /// entries that straddle either end. Cutting keeps entries maximal:
    /// each remainder borders the cleared gap.
    fn clear(&mut self, lo: i64, hi: i64) {
        if lo >= hi {
            return;
        }
        if let Some((&start, run)) = self.runs.range(..lo).next_back() {
            let end = start + run.len as i64;
            if end > lo {
                let tail = (end > hi).then(|| run.tail_from((hi - start) as u8));
                self.runs.get_mut(&start).expect("just found").len = (lo - start) as u8;
                if let Some(tail) = tail {
                    self.runs.insert(hi, tail);
                    return;
                }
            }
        }
        while let Some((&start, _)) = self.runs.range(lo..hi).next() {
            let run = self.runs.remove(&start).expect("just found");
            if start + run.len as i64 > hi {
                self.runs.insert(hi, run.tail_from((hi - start) as u8));
            }
        }
    }

    /// Writes `run` at literal offset `o`, whose bytes are clear, joined
    /// with a neighbour it continues or that continues it.
    fn put(&mut self, o: i64, mut run: Run) {
        let mut start = o;
        if let Some((&left_start, left)) = self.runs.range(..o).next_back() {
            if left_start + left.len as i64 == o && left.continues(&run) {
                run.k = left.k;
                run.len += left.len;
                start = left_start;
            }
        }
        let end = start + run.len as i64;
        if self
            .runs
            .get(&end)
            .is_some_and(|right| run.continues(right))
        {
            run.len += self.runs.remove(&end).expect("just found").len;
        }
        self.runs.insert(start, run);
    }

    /// Stores `value` as a whole `n`-byte run at literal offset `lo`,
    /// clearing what the overwrite rule ([`store_span`]) clears.
    fn store(&mut self, lo: i64, value: Expr, n: u8) {
        let hi = lo + n as i64;
        let window = self.runs.range(overlap_window(lo, hi));
        let (from, to) = store_span(lo, hi, window.map(|(o, run)| (*o, run.k, run.n)));
        self.clear(from, to);
        // A whole run joins no neighbour (`Run::continues`).
        self.runs.insert(lo, Run::whole(value, n));
    }

    /// Writes one byte per offset from literal offset `lo` (`None` clears
    /// the byte), joining consecutive bytes into entries.
    fn write_bytes(&mut self, lo: i64, bytes: Vec<Option<(Expr, u8, u8)>>) {
        self.clear(lo, lo + bytes.len() as i64);
        let mut pending: Option<(i64, Run)> = None;
        for (i, byte) in bytes.into_iter().enumerate() {
            let next = byte.map(Run::byte);
            if let (Some((_, run)), Some(next)) = (&mut pending, &next) {
                if run.continues(next) {
                    run.len += 1;
                    continue;
                }
            }
            if let Some((start, run)) = pending.take() {
                self.put(start, run);
            }
            pending = next.map(|run| (lo + i as i64, run));
        }
        if let Some((start, run)) = pending {
            self.put(start, run);
        }
    }

    /// Writes the byte at offset `key`.
    fn set_byte(&mut self, key: Expr, byte: (Expr, u8, u8)) {
        match key.as_int() {
            Some(o) => self.write_bytes(o, vec![Some(byte)]),
            None => {
                self.sym_cells.insert(key, byte);
            }
        }
    }

    /// Removes the byte at offset `key`.
    fn remove_byte(&mut self, key: &Expr) {
        match key.as_int() {
            Some(o) => self.clear(o, o + 1),
            None => {
                self.sym_cells.remove(key);
            }
        }
    }
}

/// The symbolic MiniC memory: blocks of [`Run`] entries, whose byte view
/// is the paper's `[v, k, n]` triples.
///
/// Like [`CConcMemory`], blocks are copy-on-write behind [`Arc`]s, so the
/// per-branch state clones of symbolic execution stay cheap. Actions
/// consume the memory: a single-successor action (every action along
/// straight-line code) edits the block map and the touched block in
/// place, and a sibling branch is a clone that copies only what it
/// writes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CSymMemory {
    blocks: Arc<BTreeMap<Sym, Arc<SymBlock>>>,
    globals: Arc<BTreeMap<Arc<str>, Expr>>,
}

/// The memory effect of one symbolic branch, decided before the branch's
/// memory exists (`gillian_core::memory::successors` builds it).
enum Edit {
    Keep,
    /// Frees the block.
    Free(Sym),
    /// Stores `value` as a whole run of `size` bytes at literal offset
    /// `off` of block `b` ([`SymBlock::store`]).
    Store {
        b: Sym,
        off: i64,
        size: u8,
        value: Expr,
    },
    /// Stores a run at a symbolic offset, byte by byte: removes the
    /// `remove` bytes, then writes `value` as byte `k` of `size` at
    /// `insert[k]`. Keys are computed when the branch is decided, in the
    /// order the solver saw them.
    StoreSymbolic {
        b: Sym,
        remove: Vec<Expr>,
        size: u8,
        insert: Vec<Expr>,
        value: Expr,
    },
}

impl CSymMemory {
    fn block_mut(&mut self, b: Sym) -> Option<&mut SymBlock> {
        Arc::make_mut(&mut self.blocks)
            .get_mut(&b)
            .map(Arc::make_mut)
    }

    fn blocks_mut(&mut self) -> &mut BTreeMap<Sym, Arc<SymBlock>> {
        Arc::make_mut(&mut self.blocks)
    }

    /// Applies a branch's memory effect (see [`Edit`]).
    fn apply(&mut self, edit: Edit) {
        match edit {
            Edit::Keep => {}
            Edit::Free(b) => {
                if let Some(blk) = self.block_mut(b) {
                    blk.freed = true;
                    blk.perm = perm::NONE;
                    blk.runs.clear();
                    blk.sym_cells.clear();
                }
            }
            Edit::Store {
                b,
                off,
                size,
                value,
            } => {
                self.block_mut(b)
                    .expect("block checked")
                    .store(off, value, size);
            }
            Edit::StoreSymbolic {
                b,
                remove,
                size,
                insert,
                value,
            } => {
                let blk = self.block_mut(b).expect("block checked");
                for key in &remove {
                    blk.remove_byte(key);
                }
                for (k, key) in insert.into_iter().enumerate() {
                    blk.set_byte(key, (value.clone(), k as u8, size));
                }
            }
        }
    }
}

/// The cell keys of the `n` bytes of a run at the symbolic offset `base`.
fn run_keys(base: &Expr, n: u8, solver: &Solver, pc: &PathCondition) -> Vec<Expr> {
    (0..n).map(|k| offset_key(base, k, solver, pc)).collect()
}

/// The edit storing `value` as a `size`-byte run at `base`, over the run
/// of `old` bytes that starts there, if any: a whole run at a literal
/// offset, and byte by byte at a symbolic one.
fn store_edit(
    b: Sym,
    base: Expr,
    old: Option<u8>,
    size: u8,
    value: Expr,
    solver: &Solver,
    pc: &PathCondition,
) -> Edit {
    match base.as_int() {
        Some(off) => Edit::Store {
            b,
            off,
            size,
            value,
        },
        None => Edit::StoreSymbolic {
            b,
            remove: old.map_or_else(Vec::new, |n| run_keys(&base, n, solver, pc)),
            size,
            insert: run_keys(&base, size, solver, pc),
            value,
        },
    }
}

fn expr_block(e: &Expr, action: &str) -> Result<Sym, Expr> {
    match e {
        Expr::Val(Value::Sym(s)) => Ok(*s),
        other => Err(ub_expr(
            "bad-action-argument",
            format!("{action}: {other} is not a literal block"),
        )),
    }
}

fn expr_ptr(e: &Expr) -> Option<(Expr, Expr)> {
    let ptr = ArgList::of(e, 2)?;
    Some((ptr.expr(0), ptr.expr(1)))
}

/// The cell key of byte `base + k` of a run at the symbolic offset
/// `base`: the simplified offset, so that equal offsets share a key.
fn offset_key(base: &Expr, k: u8, solver: &Solver, pc: &PathCondition) -> Expr {
    solver.simplify(pc, &base.clone().add(Expr::int(k as i64)))
}

/// Decodes a stored symbolic value through a chunk.
fn decode_expr(v: &Expr, chunk: Chunk) -> Expr {
    match wrap_op(chunk) {
        Some(op) => v.clone().un(op),
        None => v.clone(),
    }
}

impl CSymMemory {
    /// Direct block registration (for tests).
    pub fn register_block(&mut self, b: Sym, size: i64) {
        self.blocks_mut().insert(b, Arc::new(SymBlock::new(size)));
    }

    /// Direct run write (for tests): stores value `v` of `n` bytes at
    /// concrete offset `off`, over whatever bytes were there.
    pub fn set_run(&mut self, b: Sym, off: i64, v: Expr, n: u8) {
        let blk = self.block_mut(b).expect("block registered");
        blk.write_bytes(off, (0..n).map(|k| Some((v.clone(), k, n))).collect());
    }

    /// Iterates blocks (for the interpretation function).
    pub fn blocks_iter(&self) -> impl Iterator<Item = (Sym, i64, u8, bool)> + '_ {
        self.blocks
            .iter()
            .map(|(b, blk)| (*b, blk.size, blk.perm, blk.freed))
    }

    /// The byte view of a block (for the interpretation function): each
    /// byte's offset and its memory value `[v, k, n]`, in offset order.
    pub fn cells_iter(&self, b: Sym) -> impl Iterator<Item = (Expr, (Expr, u8, u8))> + '_ {
        self.blocks.get(&b).into_iter().flat_map(|blk| {
            let literal = blk
                .literal_bytes(i64::MIN, i64::MAX)
                .map(|(o, byte)| (Expr::int(o), byte));
            let symbolic = blk
                .sym_cells
                .iter()
                .map(|(o, byte)| (o.clone(), byte.clone()));
            literal.chain(symbolic)
        })
    }

    /// The run starts (bytes with `k == 0`) of a block, as `(offset,
    /// value, n)`, in offset order.
    fn run_starts(&self, b: Sym) -> Vec<(Expr, Expr, u8)> {
        let Some(blk) = self.blocks.get(&b) else {
            return Vec::new();
        };
        let literal = blk
            .runs
            .iter()
            .filter(|(_, run)| run.k == 0)
            .map(|(o, run)| (Expr::int(*o), run.value.clone(), run.n));
        let symbolic = blk
            .sym_cells
            .iter()
            .filter(|(_, (_, k, _))| *k == 0)
            .map(|(off, (v, _, n))| (off.clone(), v.clone(), *n));
        literal.chain(symbolic).collect()
    }

    /// True when every byte of the block is at a literal offset — the
    /// common case, where accesses at literal offsets can use direct map
    /// lookups instead of alias branching.
    fn all_offsets_literal(&self, b: Sym) -> bool {
        self.blocks
            .get(&b)
            .is_some_and(|blk| blk.sym_cells.is_empty())
    }

    /// Fast-path candidates for an access at a *literal* offset into a
    /// block whose bytes are all at literal offsets: at most one run can
    /// match, found by direct lookup instead of scanning every run.
    fn literal_candidates(&self, b: Sym, off: i64) -> Option<Vec<(Expr, Expr, u8)>> {
        if !self.all_offsets_literal(b) {
            return None;
        }
        let blk = self.blocks.get(&b)?;
        Some(match blk.runs.get(&off) {
            Some(run) if run.k == 0 => vec![(Expr::int(off), run.value.clone(), run.n)],
            // A mid-run hit or a miss: no run *starts* here; the general
            // machinery then produces the torn/uninitialized error branch.
            _ => Vec::new(),
        })
    }

    /// Checks that the run start `[v, 0, n]` at `base` is followed by the
    /// rest of its value: at a literal offset, its entry is whole.
    fn run_complete(
        &self,
        b: Sym,
        base: &Expr,
        v: &Expr,
        n: u8,
        solver: &Solver,
        pc: &PathCondition,
    ) -> bool {
        let Some(blk) = self.blocks.get(&b) else {
            return false;
        };
        if let Some(o) = base.as_int() {
            return blk.runs.get(&o).is_some_and(|run| run.len == n);
        }
        (1..n).all(|i| {
            let key = offset_key(base, i, solver, pc);
            matches!(blk.byte(&key), Some((cv, ck, cn)) if cv == *v && ck == i && cn == n)
        })
    }

    /// Validity prologue shared by memory accesses: checks the block and
    /// returns `(in_bounds, out_of_bounds)` constraints for `len` bytes at
    /// `off`, or the immediate error.
    #[allow(clippy::too_many_arguments)]
    fn access_prologue(
        &self,
        action: &str,
        b: Sym,
        off: &Expr,
        len: i64,
        need: u8,
        solver: &Solver,
        pc: &PathCondition,
    ) -> Result<(Expr, Expr), Expr> {
        let Some(blk) = self.blocks.get(&b) else {
            return Err(ub_expr("invalid-block", format!("{action} on {b}")));
        };
        if blk.freed {
            return Err(ub_expr("use-after-free", format!("{action} on freed {b}")));
        }
        if blk.perm < need {
            return Err(ub_expr(
                "insufficient-permission",
                format!("{action} needs permission {need} on {b} (has {})", blk.perm),
            ));
        }
        // Literal offsets (the common case for concrete programs) fold
        // the bounds check directly — same result the simplifier's
        // constant folder would return, without the solver round-trips.
        let in_bounds = match off.as_int() {
            Some(o) => {
                if 0 <= o && o <= blk.size - len {
                    Expr::tt()
                } else {
                    Expr::ff()
                }
            }
            None => {
                let e = Expr::int(0)
                    .le(off.clone())
                    .and(off.clone().le(Expr::int(blk.size - len)));
                solver.simplify(pc, &e)
            }
        };
        let out_of_bounds = match in_bounds.as_bool() {
            Some(b) => Expr::Val(Value::Bool(!b)),
            None => solver.simplify(pc, &in_bounds.clone().not()),
        };
        Ok((in_bounds, out_of_bounds))
    }
}

/// `simplify(pc, decode_expr(v, chunk))` with the solver round-trip
/// skipped when it is provably the identity: literals and bare logical
/// variables are fixpoints of the simplifier, and a literal under a wrap
/// folds through the same `eval_unop` the simplifier's constant folder
/// uses (errors stay residual there, so those fall through to it).
fn decode_simplified(v: &Expr, chunk: Chunk, pc: &PathCondition, solver: &Solver) -> Expr {
    match wrap_op(chunk) {
        None => match v {
            Expr::Val(_) | Expr::LVar(_) => v.clone(),
            _ => solver.simplify(pc, v),
        },
        Some(op) => {
            if let Expr::Val(val) = v {
                if let Ok(folded) = eval_unop(op, val) {
                    return Expr::Val(folded);
                }
            }
            solver.simplify(pc, &decode_expr(v, chunk))
        }
    }
}

impl CSymMemory {
    // ---- literal fast paths (bytecode backend only) -----------------
    //
    // When the offset is a literal integer and every cell offset of the
    // accessed block is literal, each decision of the general `load`/
    // `store` machinery folds: the bounds check folds in
    // `access_prologue`, at most one run can alias the access (found by
    // direct map lookup, as in `literal_candidates`), its equality
    // constraint folds to the literal `true`, and the out-of-bounds and
    // none-of-the-runs constraints fold to `false`. The branch set is a
    // single branch that keeps the path condition, decided without the
    // solver — except, for values that are not simplifier fixpoints, the
    // same decode `simplify` the general path issues.
    // These helpers are reachable only from `execute_action_coded` (the
    // bytecode backend); the tree walk stays a byte-identical reference.

    /// The literal-access prologue shared by `fast_load`/`fast_store`:
    /// `None` falls back to the general path (symbolic anything, missing
    /// or freed block, insufficient permission — the error prologues stay
    /// on one code path).
    fn literal_access(&self, args: &[Expr], need: u8) -> Option<(Chunk, Sym, i64, &SymBlock)> {
        let chunk = args[0].as_value().and_then(Chunk::from_value)?;
        let b = match &args[1] {
            Expr::Val(Value::Sym(s)) => *s,
            _ => return None,
        };
        let off = args[2].as_int()?;
        let blk = self.blocks.get(&b)?;
        if blk.freed || blk.perm < need || !self.all_offsets_literal(b) {
            return None;
        }
        Some((chunk, b, off, blk))
    }

    // Every fast path owns the memory: the one branch it builds takes
    // `self` (a store writes it in place), and `Err(self)` hands it back
    // untouched for the general path.

    fn fast_load(
        self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Some(args) = expr_args(arg, 3) else {
            return Err(self);
        };
        let Some((chunk, b, off, blk)) = self.literal_access(&args, perm::READABLE) else {
            return Err(self);
        };
        let outcome = if !(0 <= off && off <= blk.size - chunk.size as i64) {
            Err(ub_expr(
                "out-of-bounds",
                format!("load of {} bytes at {b}+{off}", chunk.size),
            ))
        } else {
            match blk.runs.get(&off) {
                Some(run) if run.k == 0 && run.len == chunk.size && run.n == chunk.size => {
                    Ok(decode_simplified(&run.value, chunk, pc, solver))
                }
                Some(run) if run.k == 0 => {
                    Err(ub_expr("mixed-read", format!("torn load at {b}+{off}")))
                }
                // A mid-run hit or a miss: no run starts here.
                _ => Err(ub_expr(
                    "uninitialized-read",
                    format!("load at {b}+{off} reads uninitialized bytes"),
                )),
            }
        };
        Ok(vec![SymBranch {
            memory: self,
            outcome,
            pc: pc.clone(),
        }])
    }

    fn fast_store(
        mut self,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Result<Vec<SymBranch<Self>>, Self> {
        let Some(args) = expr_args(arg, 4) else {
            return Err(self);
        };
        let Some((chunk, b, off, blk)) = self.literal_access(&args, perm::WRITABLE) else {
            return Err(self);
        };
        if !(0 <= off && off <= blk.size - chunk.size as i64) {
            let oob = ub_expr(
                "out-of-bounds",
                format!("store of {} bytes at {b}+{off}", chunk.size),
            );
            return Ok(vec![SymBranch::err(self, oob, pc.clone())]);
        }
        let value = decode_simplified(&args[3], chunk, pc, solver);
        self.apply(Edit::Store {
            b,
            off,
            size: chunk.size,
            value: value.clone(),
        });
        Ok(vec![SymBranch::ok(self, value, pc.clone())])
    }

    fn fast_free(mut self, arg: &Expr, pc: &PathCondition) -> Result<Vec<SymBranch<Self>>, Self> {
        let Some(args) = expr_args(arg, 2) else {
            return Err(self);
        };
        let (Expr::Val(Value::Sym(b)), Some(off)) = (&args[0], args[1].as_int()) else {
            return Err(self);
        };
        let b = *b;
        match self.blocks.get(&b) {
            Some(blk) if !blk.freed && blk.perm >= perm::FREEABLE => {}
            _ => return Err(self),
        }
        let pc = pc.clone();
        Ok(vec![if off == 0 {
            self.apply(Edit::Free(b));
            SymBranch::ok(self, Expr::tt(), pc)
        } else {
            let ub = ub_expr("bad-free", format!("free of {b} at nonzero offset {off}"));
            SymBranch::err(self, ub, pc)
        }])
    }

    /// `cmpPtr` on two fully-literal pointers: every comparison folds
    /// through the same `eval_binop` the simplifier's constant folder
    /// uses (`Value`'s derived equality is element-wise on the promoted
    /// pointer lists). The general path issues no satisfiability probes
    /// for `cmpPtr` — only simplifies — so no gate applies here either.
    /// Returns the single branch's outcome; `None` falls back to the
    /// general path.
    fn literal_cmp_ptr(&self, arg: &Expr) -> Option<Result<Expr, Expr>> {
        let args = expr_args(arg, 3)?;
        let op = match &args[0] {
            Expr::Val(Value::Str(s)) => s.clone(),
            _ => return None,
        };
        let (b1, o1) = expr_ptr(&args[1])?;
        let (b2, o2) = expr_ptr(&args[2])?;
        let (vb1, vo1, vb2, vo2) = match (&b1, &o1, &b2, &o2) {
            (Expr::Val(vb1), Expr::Val(vo1), Expr::Val(vb2), Expr::Val(vo2)) => {
                (vb1, vo1, vb2, vo2)
            }
            _ => return None,
        };
        Some(match op.as_ref() {
            "eq" => Ok(Expr::bool(vb1 == vb2 && vo1 == vo2)),
            "ne" => Ok(Expr::bool(vb1 != vb2 || vo1 != vo2)),
            "lt" | "le" => {
                if vb1 != vb2 {
                    Err(ub_expr(
                        "ub-pointer-comparison",
                        "ordering of pointers into different blocks",
                    ))
                } else {
                    let Value::Sym(blk) = vb1 else { return None };
                    match self.blocks.get(blk) {
                        Some(info) if !info.freed => {
                            let (Value::Int(a), Value::Int(c)) = (vo1, vo2) else {
                                // Mixed offset types stay residual under
                                // the folder; let the general path decide.
                                return None;
                            };
                            Ok(Expr::bool(if op.as_ref() == "lt" { a < c } else { a <= c }))
                        }
                        _ => Err(ub_expr(
                            "ub-pointer-comparison",
                            "ordering of invalid pointers",
                        )),
                    }
                }
            }
            _ => return None,
        })
    }
}

impl SymbolicMemory for CSymMemory {
    fn action_code(&self, name: &str) -> Option<u16> {
        c_action_code(name)
    }

    fn execute_action_coded(
        self,
        code: u16,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // Only the hot heap accesses have literal fast paths; a fast
        // helper declines whenever anything symbolic is involved.
        // Everything else falls back to the general implementation.
        let fast = match code {
            code::LOAD => self.fast_load(arg, pc, solver),
            code::STORE => self.fast_store(arg, pc, solver),
            code::FREE => self.fast_free(arg, pc),
            code::CMP_PTR => match self.literal_cmp_ptr(arg) {
                Some(outcome) => Ok(vec![SymBranch {
                    memory: self,
                    outcome,
                    pc: pc.clone(),
                }]),
                None => Err(self),
            },
            _ => Err(self),
        };
        fast.unwrap_or_else(|mem| mem.execute_action(name, arg, pc, solver))
    }
    fn language() -> &'static str {
        "minic"
    }

    fn execute_action(
        mut self,
        name: &str,
        arg: &Expr,
        pc: &PathCondition,
        solver: &Solver,
    ) -> Vec<SymBranch<Self>> {
        // Multi-branch actions decide their branches first, as edits;
        // `successors` then builds the memories, the last one reusing
        // `self`. Single-branch actions write `self` directly.
        let err1 = |mem: Self, e: Expr| vec![SymBranch::err(mem, e, pc.clone())];
        let ok1 = |mem: Self, v: Expr| vec![SymBranch::ok(mem, v, pc.clone())];
        let args_of = |n| {
            expr_args(arg, n).ok_or_else(|| ub_expr("bad-action-argument", arity(name, n, arg)))
        };
        match name {
            "alloc" => {
                let args = match args_of(2) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let b = match expr_block(&args[0], "alloc") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let Some(size) = args[1].as_int() else {
                    // Paper §4.2: symbolic allocation sizes are an open
                    // research problem; MiniC rejects them like Gillian-C.
                    return err1(
                        self,
                        ub_expr(
                            "symbolic-alloc",
                            format!("alloc of symbolic size {}", args[1]),
                        ),
                    );
                };
                if size < 0 {
                    return err1(self, ub_expr("bad-alloc", format!("negative size {size}")));
                }
                if self.blocks.contains_key(&b) {
                    return err1(self, ub_expr("bad-alloc", format!("block {b} exists")));
                }
                self.register_block(b, size);
                ok1(self, args[0].clone())
            }
            "free" => {
                let args = match args_of(2) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let b = match expr_block(&args[0], "free") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let off = &args[1];
                let Some(blk) = self.blocks.get(&b) else {
                    return err1(self, ub_expr("invalid-block", format!("free of {b}")));
                };
                if blk.freed {
                    return err1(
                        self,
                        ub_expr("double-free", format!("free of already freed {b}")),
                    );
                }
                if blk.perm < perm::FREEABLE {
                    let ub = ub_expr(
                        "insufficient-permission",
                        format!("free of {b} with permission {}", blk.perm),
                    );
                    return err1(self, ub);
                }
                let mut out = Vec::new();
                let zero = solver.simplify(pc, &off.clone().eq(Expr::int(0)));
                let nonzero = solver.simplify(pc, &zero.clone().not());
                if let Some(pc) = decide(pc, solver, &zero) {
                    out.push(SymBranch::ok(Edit::Free(b), Expr::tt(), pc));
                }
                if let Some(pc) = decide(pc, solver, &nonzero) {
                    let ub = ub_expr("bad-free", format!("free of {b} at nonzero offset {off}"));
                    out.push(SymBranch::err(Edit::Keep, ub, pc));
                }
                successors(self, out, Self::apply)
            }
            "load" => {
                let args = match args_of(3) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let chunk = match args[0].as_value().and_then(Chunk::from_value) {
                    Some(c) => c,
                    None => return err1(self, ub_expr("bad-action-argument", "load: bad chunk")),
                };
                let b = match expr_block(&args[1], "load") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let off = solver.simplify(pc, &args[2]);
                let (in_bounds, oob) = match self.access_prologue(
                    "load",
                    b,
                    &off,
                    chunk.size as i64,
                    perm::READABLE,
                    solver,
                    pc,
                ) {
                    Ok(x) => x,
                    Err(e) => return err1(self, e),
                };
                let mut out = Vec::new();
                if let Some(pc) = decide(pc, solver, &oob) {
                    let msg = format!("load of {} bytes at {b}+{off}", chunk.size);
                    out.push(SymBranch::err(
                        Edit::Keep,
                        ub_expr("out-of-bounds", msg),
                        pc,
                    ));
                }
                let candidates = match off.as_int().and_then(|o| self.literal_candidates(b, o)) {
                    Some(c) => c,
                    None => self.run_starts(b),
                };
                let mut alias = Alias::new(&off, Some(&in_bounds), pc, solver);
                for (base, v, n) in candidates {
                    let Some((_, next)) = alias.candidate(&base) else {
                        continue;
                    };
                    out.push(
                        if n == chunk.size && self.run_complete(b, &base, &v, n, solver, pc) {
                            let decoded = solver.simplify(pc, &decode_expr(&v, chunk));
                            SymBranch::ok(Edit::Keep, decoded, next)
                        } else {
                            let ub = ub_expr("mixed-read", format!("torn load at {b}+{off}"));
                            SymBranch::err(Edit::Keep, ub, next)
                        },
                    );
                }
                if let Some(pc) = decide(pc, solver, &alias.none_of()) {
                    let msg = format!("load at {b}+{off} reads uninitialized bytes");
                    out.push(SymBranch::err(
                        Edit::Keep,
                        ub_expr("uninitialized-read", msg),
                        pc,
                    ));
                }
                successors(self, out, Self::apply)
            }
            "store" => {
                let args = match args_of(4) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let chunk = match args[0].as_value().and_then(Chunk::from_value) {
                    Some(c) => c,
                    None => return err1(self, ub_expr("bad-action-argument", "store: bad chunk")),
                };
                let b = match expr_block(&args[1], "store") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let off = solver.simplify(pc, &args[2]);
                let value = solver.simplify(pc, &decode_expr(&args[3], chunk));
                let (in_bounds, oob) = match self.access_prologue(
                    "store",
                    b,
                    &off,
                    chunk.size as i64,
                    perm::WRITABLE,
                    solver,
                    pc,
                ) {
                    Ok(x) => x,
                    Err(e) => return err1(self, e),
                };
                let mut out = Vec::new();
                if let Some(pc) = decide(pc, solver, &oob) {
                    let msg = format!("store of {} bytes at {b}+{off}", chunk.size);
                    out.push(SymBranch::err(
                        Edit::Keep,
                        ub_expr("out-of-bounds", msg),
                        pc,
                    ));
                }
                let candidates = match off.as_int().and_then(|o| self.literal_candidates(b, o)) {
                    Some(c) => c,
                    None => self.run_starts(b),
                };
                let mut alias = Alias::new(&off, Some(&in_bounds), pc, solver);
                for (base, _, n) in candidates {
                    let Some((_, next)) = alias.candidate(&base) else {
                        continue;
                    };
                    let edit = store_edit(b, base, Some(n), chunk.size, value.clone(), solver, pc);
                    out.push(SymBranch::ok(edit, value.clone(), next));
                }
                if let Some(next) = decide(pc, solver, &alias.none_of()) {
                    let edit = store_edit(b, off, None, chunk.size, value.clone(), solver, pc);
                    out.push(SymBranch::ok(edit, value, next));
                }
                successors(self, out, Self::apply)
            }
            "loadBytes" => {
                let args = match args_of(3) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let b = match expr_block(&args[0], "loadBytes") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let (Some(off), Some(len)) = (args[1].as_int(), args[2].as_int()) else {
                    return err1(
                        self,
                        ub_expr(
                            "symbolic-bytes",
                            "loadBytes needs concrete offset and length",
                        ),
                    );
                };
                let Some(blk) = self.blocks.get(&b) else {
                    return err1(self, ub_expr("invalid-block", format!("loadBytes on {b}")));
                };
                if blk.freed {
                    return err1(
                        self,
                        ub_expr("use-after-free", format!("loadBytes on freed {b}")),
                    );
                }
                if blk.perm < perm::READABLE {
                    return err1(self, ub_expr("insufficient-permission", "loadBytes"));
                }
                if off < 0 || len < 0 || off + len > blk.size {
                    return err1(
                        self,
                        ub_expr("out-of-bounds", format!("loadBytes at {b}+{off}")),
                    );
                }
                let mut bytes = vec![Expr::Val(Value::Sym(POISON)); len as usize];
                for (o, (v, k, n)) in blk.literal_bytes(off, off + len) {
                    bytes[(o - off) as usize] =
                        Expr::list([v, Expr::int(k as i64), Expr::int(n as i64)]);
                }
                ok1(self, Expr::List(bytes.into()))
            }
            "storeBytes" => {
                let args = match args_of(3) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let b = match expr_block(&args[0], "storeBytes") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let Some(off) = args[1].as_int() else {
                    return err1(
                        self,
                        ub_expr("symbolic-bytes", "storeBytes needs a concrete offset"),
                    );
                };
                let bytes: Vec<Expr> = match &args[2] {
                    Expr::List(es) => es.to_vec(),
                    Expr::Val(Value::List(vs)) => vs.iter().cloned().map(Expr::Val).collect(),
                    _ => return err1(self, ub_expr("bad-action-argument", "storeBytes: bytes")),
                };
                let len = bytes.len() as i64;
                let Some(blk) = self.blocks.get(&b) else {
                    return err1(self, ub_expr("invalid-block", format!("storeBytes on {b}")));
                };
                if blk.freed {
                    return err1(
                        self,
                        ub_expr("use-after-free", format!("storeBytes on freed {b}")),
                    );
                }
                if blk.perm < perm::WRITABLE {
                    return err1(self, ub_expr("insufficient-permission", "storeBytes"));
                }
                if off < 0 || off + len > blk.size {
                    return err1(
                        self,
                        ub_expr("out-of-bounds", format!("storeBytes at {b}+{off}")),
                    );
                }
                // Every byte is decoded before the block is touched, so a
                // bad byte leaves the memory as it was.
                let mut cells = Vec::with_capacity(bytes.len());
                for byte in bytes {
                    if byte == Expr::Val(Value::Sym(POISON)) {
                        cells.push(None);
                        continue;
                    }
                    let Some(parts) = expr_args(&byte, 3) else {
                        return err1(self, ub_expr("bad-action-argument", "storeBytes: bad byte"));
                    };
                    let (Some(k), Some(n)) = (parts[1].as_int(), parts[2].as_int()) else {
                        return err1(self, ub_expr("bad-action-argument", "storeBytes: bad byte"));
                    };
                    cells.push(Some((parts[0].clone(), k as u8, n as u8)));
                }
                self.block_mut(b).expect("checked").write_bytes(off, cells);
                ok1(self, Expr::tt())
            }
            "dropPerm" => {
                let args = match args_of(2) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let b = match expr_block(&args[0], "dropPerm") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let Some(p) = args[1].as_int() else {
                    return err1(self, ub_expr("bad-action-argument", "dropPerm: level"));
                };
                if !self.blocks.contains_key(&b) {
                    return err1(self, ub_expr("invalid-block", format!("dropPerm on {b}")));
                }
                let blk = self.block_mut(b).expect("checked");
                blk.perm = blk.perm.min(p as u8);
                let result = Expr::int(blk.perm as i64);
                ok1(self, result)
            }
            "checkPerm" => {
                let b = match expr_block(arg, "checkPerm") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                let p = self.blocks.get(&b).map(|blk| blk.perm as i64).unwrap_or(-1);
                ok1(self, Expr::int(p))
            }
            "sizeBlock" => {
                let b = match expr_block(arg, "sizeBlock") {
                    Ok(b) => b,
                    Err(e) => return err1(self, e),
                };
                match self.blocks.get(&b) {
                    Some(blk) if !blk.freed => {
                        let size = Expr::int(blk.size);
                        ok1(self, size)
                    }
                    Some(_) => err1(
                        self,
                        ub_expr("use-after-free", format!("sizeBlock on freed {b}")),
                    ),
                    None => err1(self, ub_expr("invalid-block", format!("sizeBlock on {b}"))),
                }
            }
            "cmpPtr" => {
                let args = match args_of(3) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let op = match &args[0] {
                    Expr::Val(Value::Str(s)) => s.to_string(),
                    _ => return err1(self, ub_expr("bad-action-argument", "cmpPtr: op")),
                };
                let (Some((b1, o1)), Some((b2, o2))) = (expr_ptr(&args[1]), expr_ptr(&args[2]))
                else {
                    return err1(self, ub_expr("bad-action-argument", "cmpPtr: non-pointers"));
                };
                match op.as_str() {
                    "eq" => {
                        let eq = solver.simplify(pc, &args[1].clone().eq(args[2].clone()));
                        ok1(self, eq)
                    }
                    "ne" => {
                        let ne = solver.simplify(pc, &args[1].clone().ne(args[2].clone()));
                        ok1(self, ne)
                    }
                    "lt" | "le" => {
                        // Blocks are literal symbols, so this decides
                        // concretely in practice.
                        let same = solver.simplify(pc, &b1.clone().eq(b2.clone()));
                        match same.as_bool() {
                            Some(false) => err1(
                                self,
                                ub_expr(
                                    "ub-pointer-comparison",
                                    "ordering of pointers into different blocks",
                                ),
                            ),
                            _ => {
                                let blk = match expr_block(&b1, "cmpPtr") {
                                    Ok(b) => b,
                                    Err(e) => return err1(self, e),
                                };
                                match self.blocks.get(&blk) {
                                    Some(info) if !info.freed => {
                                        let cmp = if op == "lt" { o1.lt(o2) } else { o1.le(o2) };
                                        ok1(self, solver.simplify(pc, &cmp))
                                    }
                                    _ => err1(
                                        self,
                                        ub_expr(
                                            "ub-pointer-comparison",
                                            "ordering of invalid pointers",
                                        ),
                                    ),
                                }
                            }
                        }
                    }
                    other => err1(
                        self,
                        ub_expr("bad-action-argument", format!("cmpPtr: {other}")),
                    ),
                }
            }
            "globalSet" => {
                let args = match args_of(2) {
                    Ok(a) => a,
                    Err(e) => return err1(self, e),
                };
                let name = match &args[0] {
                    Expr::Val(Value::Str(s)) => s.clone(),
                    _ => return err1(self, ub_expr("bad-action-argument", "globalSet: name")),
                };
                Arc::make_mut(&mut self.globals).insert(name, args[1].clone());
                ok1(self, args[1].clone())
            }
            "globalGet" => {
                let name = match arg {
                    Expr::Val(Value::Str(s)) => s.clone(),
                    _ => return err1(self, ub_expr("bad-action-argument", "globalGet: name")),
                };
                match self.globals.get(&name).cloned() {
                    Some(v) => ok1(self, v),
                    None => err1(self, ub_expr("invalid-global", name)),
                }
            }
            other => err1(self, ub_expr("unknown-action", other)),
        }
    }

    fn lvars(&self) -> BTreeSet<LVar> {
        let mut out = BTreeSet::new();
        for blk in self.blocks.values() {
            for run in blk.runs.values() {
                out.extend(run.value.lvars());
            }
            for (off, (v, _, _)) in &blk.sym_cells {
                out.extend(off.lvars());
                out.extend(v.lvars());
            }
        }
        for v in self.globals.values() {
            out.extend(v.lvars());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::ptr_value;
    use proptest::prelude::*;

    fn blk(i: u64) -> Sym {
        Sym(Sym::FIRST_FRESH + i)
    }

    fn alloc_conc(m: &mut CConcMemory, i: u64, size: i64) -> Sym {
        let b = blk(i);
        m.execute_action("alloc", Value::List(vec![Value::Sym(b), Value::Int(size)]))
            .unwrap();
        b
    }

    #[test]
    fn concrete_store_load_round_trip() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 16);
        let chunk = Chunk::int(4).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                chunk.clone(),
                Value::Sym(b),
                Value::Int(0),
                Value::Int(1234),
            ]),
        )
        .unwrap();
        let v = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(1234));
    }

    #[test]
    fn concrete_narrow_store_wraps() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 8);
        let chunk = Chunk::int(1).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                chunk.clone(),
                Value::Sym(b),
                Value::Int(0),
                Value::Int(200),
            ]),
        )
        .unwrap();
        let v = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(-56), "signed char wraps");
    }

    #[test]
    fn concrete_out_of_bounds_is_ub() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 4);
        let chunk = Chunk::int(4).to_value();
        let e = m
            .execute_action(
                "store",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(1), Value::Int(0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("out-of-bounds"), "{e}");
    }

    #[test]
    fn concrete_uninitialized_and_torn_reads_are_ub() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 16);
        let i4 = Chunk::int(4).to_value();
        let e = m
            .execute_action(
                "load",
                Value::List(vec![i4.clone(), Value::Sym(b), Value::Int(0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("uninitialized"), "{e}");
        // Store 8 bytes, read 4: torn.
        let i8c = Chunk::int(8).to_value();
        m.execute_action(
            "store",
            Value::List(vec![i8c, Value::Sym(b), Value::Int(0), Value::Int(7)]),
        )
        .unwrap();
        let e = m
            .execute_action("load", Value::List(vec![i4, Value::Sym(b), Value::Int(0)]))
            .unwrap_err();
        assert!(e.to_string().contains("mixed-read"), "{e}");
    }

    #[test]
    fn concrete_overlapping_store_invalidates_old_run() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 16);
        let i8c = Chunk::int(8).to_value();
        let i4 = Chunk::int(4).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                i8c.clone(),
                Value::Sym(b),
                Value::Int(0),
                Value::Int(7),
            ]),
        )
        .unwrap();
        // Overwrite bytes 4..8 with an int: old 8-byte run must die.
        m.execute_action(
            "store",
            Value::List(vec![
                i4.clone(),
                Value::Sym(b),
                Value::Int(4),
                Value::Int(1),
            ]),
        )
        .unwrap();
        let e = m
            .execute_action("load", Value::List(vec![i8c, Value::Sym(b), Value::Int(0)]))
            .unwrap_err();
        assert!(e.to_string().contains("uninitialized") || e.to_string().contains("mixed"));
        let v = m
            .execute_action("load", Value::List(vec![i4, Value::Sym(b), Value::Int(4)]))
            .unwrap();
        assert_eq!(v, Value::Int(1));
    }

    #[test]
    fn concrete_free_lifecycle() {
        let mut m = CConcMemory::default();
        let b = alloc_conc(&mut m, 0, 8);
        m.execute_action("free", Value::List(vec![Value::Sym(b), Value::Int(0)]))
            .unwrap();
        let chunk = Chunk::int(4).to_value();
        let e = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(b), Value::Int(0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("use-after-free"), "{e}");
        let e = m
            .execute_action("free", Value::List(vec![Value::Sym(b), Value::Int(0)]))
            .unwrap_err();
        assert!(e.to_string().contains("double-free"), "{e}");
    }

    #[test]
    fn concrete_memcpy_via_bytes() {
        let mut m = CConcMemory::default();
        let src = alloc_conc(&mut m, 0, 8);
        let dst = alloc_conc(&mut m, 1, 8);
        let chunk = Chunk::int(8).to_value();
        m.execute_action(
            "store",
            Value::List(vec![
                chunk.clone(),
                Value::Sym(src),
                Value::Int(0),
                Value::Int(99),
            ]),
        )
        .unwrap();
        let bytes = m
            .execute_action(
                "loadBytes",
                Value::List(vec![Value::Sym(src), Value::Int(0), Value::Int(8)]),
            )
            .unwrap();
        m.execute_action(
            "storeBytes",
            Value::List(vec![Value::Sym(dst), Value::Int(0), bytes]),
        )
        .unwrap();
        let v = m
            .execute_action(
                "load",
                Value::List(vec![chunk, Value::Sym(dst), Value::Int(0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Int(99));
    }

    #[test]
    fn concrete_pointer_comparison_ub() {
        let mut m = CConcMemory::default();
        let b1 = alloc_conc(&mut m, 0, 8);
        let b2 = alloc_conc(&mut m, 1, 8);
        // Equality across blocks is defined.
        let v = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("eq"), ptr_value(b1, 0), ptr_value(b2, 0)]),
            )
            .unwrap();
        assert_eq!(v, Value::Bool(false));
        // Ordering across blocks is UB.
        let e = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("lt"), ptr_value(b1, 0), ptr_value(b2, 0)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("ub-pointer-comparison"), "{e}");
        // Ordering within one block is fine.
        let v = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("lt"), ptr_value(b1, 0), ptr_value(b1, 4)]),
            )
            .unwrap();
        assert_eq!(v, Value::Bool(true));
        // Ordering of freed pointers is UB (the Collections-C test bug).
        m.execute_action("free", Value::List(vec![Value::Sym(b1), Value::Int(0)]))
            .unwrap();
        let e = m
            .execute_action(
                "cmpPtr",
                Value::List(vec![Value::str("le"), ptr_value(b1, 0), ptr_value(b1, 4)]),
            )
            .unwrap_err();
        assert!(e.to_string().contains("invalid pointers"), "{e}");
    }

    #[test]
    fn symbolic_load_with_symbolic_offset_branches() {
        let solver = Solver::optimized();
        let mut pc = PathCondition::new();
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 16);
        m.set_run(b, 0, Expr::int(10), 8);
        m.set_run(b, 8, Expr::int(20), 8);
        let off = Expr::lvar(LVar(0));
        pc.push(
            off.clone()
                .type_of()
                .eq(Expr::type_tag(gillian_gil::TypeTag::Int)),
        );
        let chunk = Chunk::int(8).to_expr();
        let branches = m.execute_action(
            "load",
            &Expr::list([chunk, Expr::Val(Value::Sym(b)), off]),
            &pc,
            &solver,
        );
        // out-of-bounds error, two hits, uninitialized-gap error.
        let oks: Vec<_> = branches.iter().filter(|br| br.outcome.is_ok()).collect();
        assert_eq!(oks.len(), 2, "{branches:#?}");
        assert!(branches.iter().filter(|br| br.outcome.is_err()).count() >= 2);
    }

    #[test]
    fn symbolic_concrete_offsets_do_not_branch() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 8);
        m.set_run(b, 0, Expr::lvar(LVar(3)), 8);
        let chunk = Chunk::int(8).to_expr();
        let branches = m.execute_action(
            "load",
            &Expr::list([chunk, Expr::Val(Value::Sym(b)), Expr::int(0)]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1, "{branches:#?}");
        assert_eq!(branches[0].outcome, Ok(Expr::lvar(LVar(3))));
    }

    #[test]
    fn symbolic_out_of_bounds_with_symbolic_index() {
        // The Collections-C off-by-one shape: index i with 0 ≤ i ≤ size is
        // out of bounds exactly at i = size.
        let solver = Solver::optimized();
        let mut pc = PathCondition::new();
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 8);
        m.set_run(b, 0, Expr::int(5), 8);
        let i = Expr::lvar(LVar(0));
        pc.push(Expr::int(0).le(i.clone()));
        pc.push(i.clone().le(Expr::int(1)));
        let chunk = Chunk::int(8).to_expr();
        let off = i.mul(Expr::int(8));
        let branches = m.execute_action(
            "load",
            &Expr::list([chunk, Expr::Val(Value::Sym(b)), off]),
            &pc,
            &solver,
        );
        let errs: Vec<String> = branches
            .iter()
            .filter_map(|br| br.outcome.as_ref().err().map(|e| e.to_string()))
            .collect();
        assert!(
            errs.iter().any(|e| e.contains("out-of-bounds")),
            "i = 1 must be a feasible overflow: {branches:#?}"
        );
        assert!(branches.iter().any(|br| br.outcome.is_ok()));
    }

    #[test]
    fn symbolic_alloc_of_symbolic_size_is_rejected() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let m = CSymMemory::default();
        let branches = m.execute_action(
            "alloc",
            &Expr::list([Expr::Val(Value::Sym(blk(0))), Expr::lvar(LVar(0))]),
            &pc,
            &solver,
        );
        assert_eq!(branches.len(), 1);
        assert!(branches[0].outcome.is_err());
    }

    /// One 16-byte block with an 8-byte run at offset 0.
    fn one_block() -> (CSymMemory, Sym) {
        let mut m = CSymMemory::default();
        let b = blk(0);
        m.register_block(b, 16);
        m.set_run(b, 0, Expr::int(5), 8);
        (m, b)
    }

    fn store_arg(b: Sym, off: i64, v: i64) -> Expr {
        Expr::list([
            Chunk::int(8).to_expr(),
            Expr::Val(Value::Sym(b)),
            Expr::int(off),
            Expr::int(v),
        ])
    }

    #[test]
    fn single_successor_writes_are_in_place() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        // The general path and the literal fast path alike.
        for coded in [false, true] {
            let (m, b) = one_block();
            let blocks = Arc::as_ptr(&m.blocks);
            let block = Arc::as_ptr(&m.blocks[&b]);
            let branches = if coded {
                m.execute_action_coded(code::STORE, "store", &store_arg(b, 8, 7), &pc, &solver)
            } else {
                m.execute_action("store", &store_arg(b, 8, 7), &pc, &solver)
            };
            assert_eq!(branches.len(), 1, "{branches:#?}");
            let mem = &branches[0].memory;
            assert_eq!(mem.blocks[&b].runs.len(), 2, "one entry per stored value");
            assert_eq!(Arc::as_ptr(&mem.blocks), blocks, "coded: {coded}");
            assert_eq!(Arc::as_ptr(&mem.blocks[&b]), block, "coded: {coded}");
        }
    }

    #[test]
    fn clones_taken_before_a_write_are_isolated() {
        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let (m, b) = one_block();
        let snapshot = m.clone();
        for coded in [false, true] {
            let branches = if coded {
                m.clone().execute_action_coded(
                    code::STORE,
                    "store",
                    &store_arg(b, 0, 7),
                    &pc,
                    &solver,
                )
            } else {
                m.clone()
                    .execute_action("store", &store_arg(b, 0, 7), &pc, &solver)
            };
            assert_ne!(branches[0].memory, snapshot);
            assert_eq!(
                m, snapshot,
                "a write through a clone leaked into the original"
            );
        }
        let free = Expr::list([Expr::Val(Value::Sym(b)), Expr::int(0)]);
        let branches = m
            .clone()
            .execute_action_coded(code::FREE, "free", &free, &pc, &solver);
        assert!(branches[0].memory.blocks[&b].freed);
        assert_eq!(m, snapshot);
        // Sibling branches of one action (free at offset 0, or the
        // bad-free error) are isolated from each other and the pre-state.
        let off = Expr::lvar(LVar(0));
        let free = Expr::list([Expr::Val(Value::Sym(b)), off]);
        let branches = m.clone().execute_action("free", &free, &pc, &solver);
        assert_eq!(branches.len(), 2, "{branches:#?}");
        assert!(branches[0].memory.blocks[&b].freed);
        assert_eq!(branches[1].memory, snapshot);
        assert_eq!(m, snapshot);
    }

    fn load_bytes_conc(m: &mut CConcMemory, b: Sym, off: i64, len: i64) -> Value {
        m.execute_action(
            "loadBytes",
            Value::List(vec![Value::Sym(b), Value::Int(off), Value::Int(len)]),
        )
        .unwrap()
    }

    /// Bytes 4..8 of a stored 8-byte value, copied to the start of a
    /// fresh block, belong to the run starting 4 bytes before it: a store
    /// that meets that run clears them in both heaps.
    #[test]
    fn fragment_bytes_die_with_their_run() {
        let i8c = Chunk::int(8).to_value();
        let poison2 = Value::List(vec![Value::Sym(POISON), Value::Sym(POISON)]);

        let mut m = CConcMemory::default();
        let b0 = alloc_conc(&mut m, 0, 8);
        let b1 = alloc_conc(&mut m, 1, 16);
        let store = |b: Sym, off: i64| {
            Value::List(vec![
                i8c.clone(),
                Value::Sym(b),
                Value::Int(off),
                Value::Int(1234),
            ])
        };
        m.execute_action("store", store(b0, 0)).unwrap();
        let fragment = load_bytes_conc(&mut m, b0, 4, 4);
        m.execute_action(
            "storeBytes",
            Value::List(vec![Value::Sym(b1), Value::Int(0), fragment.clone()]),
        )
        .unwrap();
        m.execute_action("store", store(b1, 2)).unwrap();
        assert_eq!(load_bytes_conc(&mut m, b1, 0, 2), poison2);

        let solver = Solver::optimized();
        let pc = PathCondition::new();
        let mut m = CSymMemory::default();
        m.register_block(b0, 8);
        m.register_block(b1, 16);
        let run = |m: CSymMemory, name: &str, arg: Value| {
            let mut branches = m.execute_action(name, &Expr::Val(arg), &pc, &solver);
            assert_eq!(branches.len(), 1, "{name}: {branches:#?}");
            let branch = branches.pop().expect("one branch");
            let out = branch.outcome.expect("no error");
            let out = gillian_gil::eval::eval(&Default::default(), &out).expect("ground");
            (branch.memory, out)
        };
        let (m, _) = run(m, "store", store(b0, 0));
        let (m, bytes) = run(
            m,
            "loadBytes",
            Value::List(vec![Value::Sym(b0), Value::Int(4), Value::Int(4)]),
        );
        assert_eq!(bytes, fragment);
        let (m, _) = run(
            m,
            "storeBytes",
            Value::List(vec![Value::Sym(b1), Value::Int(0), fragment]),
        );
        let (m, _) = run(m, "store", store(b1, 2));
        let (_, bytes) = run(
            m,
            "loadBytes",
            Value::List(vec![Value::Sym(b1), Value::Int(0), Value::Int(2)]),
        );
        assert_eq!(bytes, poison2);
    }

    /// `(offset, k, n)` of bytes reaching one maximal run around a write:
    /// chunk-sized and maximal run lengths, bytes inside and outside
    /// their value.
    fn arb_cell() -> impl Strategy<Value = (i64, u8, u8)> {
        let offset = prop_oneof![
            4 => -4i64..24,
            2 => -300i64..-240,
            2 => 250i64..300,
        ];
        let byte = prop_oneof![
            3 => (any::<u8>(), proptest::sample::select(vec![1u8, 2, 4, 8]))
                .prop_map(|(k, n)| (k % n, n)),
            1 => (any::<u8>(), 250u8..=255),
            1 => (any::<u8>(), any::<u8>()),
        ];
        (offset, byte).prop_map(|(o, (k, n))| (o, k, n))
    }

    /// The overwrite rule over every byte of the block, as the concrete
    /// heap applied it before the window: the definition `store_span`
    /// implements.
    fn scan_store(bytes: &mut BTreeMap<i64, (Expr, u8, u8)>, lo: i64, v: Expr, n: u8) {
        let hi = lo + n as i64;
        let mut doomed = BTreeSet::new();
        for (o, (_, k, len)) in bytes.iter() {
            let start = o - *k as i64;
            if start + *len as i64 > lo && start < hi {
                doomed.extend(start..start + *len as i64);
            }
        }
        for o in doomed {
            bytes.remove(&o);
        }
        for k in 0..n {
            bytes.insert(lo + k as i64, (v.clone(), k, n));
        }
    }

    /// The maximal entries of a byte view.
    fn canonical(bytes: &BTreeMap<i64, (Expr, u8, u8)>) -> BTreeMap<i64, Run> {
        let mut out: BTreeMap<i64, Run> = BTreeMap::new();
        let mut last: Option<i64> = None;
        for (&o, byte) in bytes {
            let byte = Run::byte(byte.clone());
            if let Some(start) = last {
                let run = out.get_mut(&start).expect("last entry");
                if start + run.len as i64 == o && run.continues(&byte) {
                    run.len += 1;
                    continue;
                }
            }
            out.insert(o, byte);
            last = Some(o);
        }
        out
    }

    /// A heap write at a literal offset: a whole stored value, or bytes as
    /// `storeBytes` writes them — holes and consecutive pieces of values,
    /// some running past their value's end.
    #[derive(Clone, Debug)]
    enum Write {
        Store(i64, i64, u8),
        Bytes(i64, Vec<Option<(Expr, u8, u8)>>),
    }

    fn arb_write() -> impl Strategy<Value = Write> {
        let piece = prop_oneof![
            1 => (1usize..3).prop_map(|len| vec![None; len]),
            3 => (0i64..2, 0u8..9, proptest::sample::select(vec![1u8, 2, 4, 8]), 1u8..5).prop_map(
                |(v, k, n, len)| (k..k + len).map(|k| Some((Expr::int(v), k, n))).collect()
            ),
        ];
        prop_oneof![
            1 => (0i64..20, 0i64..2, proptest::sample::select(vec![1u8, 2, 4, 8]))
                .prop_map(|(o, v, n)| Write::Store(o, v, n)),
            1 => (0i64..20, proptest::collection::vec(piece, 1..4))
                .prop_map(|(o, pieces)| Write::Bytes(o, pieces.concat())),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn store_span_window_matches_full_scan(
            cells in proptest::collection::vec(arb_cell(), 0..24),
            lo in -8i64..20,
            n in proptest::sample::select(vec![1u8, 2, 4, 8]),
        ) {
            let cells: BTreeMap<i64, (u8, u8)> =
                cells.into_iter().map(|(o, k, n)| (o, (k, n))).collect();
            let hi = lo + n as i64;
            let all = cells.iter().map(|(o, (k, n))| (*o, *k, *n));
            let window = cells.range(overlap_window(lo, hi)).map(|(o, (k, n))| (*o, *k, *n));
            prop_assert_eq!(store_span(lo, hi, window), store_span(lo, hi, all));
        }

        #[test]
        fn run_entries_are_the_canonical_byte_view(
            writes in proptest::collection::vec(arb_write(), 1..8),
        ) {
            let mut blk = SymBlock::new(32);
            let mut bytes: BTreeMap<i64, (Expr, u8, u8)> = BTreeMap::new();
            for write in writes {
                match write {
                    Write::Store(o, v, n) => {
                        blk.store(o, Expr::int(v), n);
                        scan_store(&mut bytes, o, Expr::int(v), n);
                    }
                    Write::Bytes(o, new) => {
                        for (i, byte) in new.iter().enumerate() {
                            let at = o + i as i64;
                            match byte {
                                Some(byte) => bytes.insert(at, byte.clone()),
                                None => bytes.remove(&at),
                            };
                        }
                        blk.write_bytes(o, new);
                    }
                }
                let view: BTreeMap<i64, (Expr, u8, u8)> =
                    blk.literal_bytes(i64::MIN, i64::MAX).collect();
                prop_assert_eq!(&view, &bytes);
                prop_assert_eq!(&blk.runs, &canonical(&bytes));
                for o in -1..34 {
                    let window: Vec<_> = blk.literal_bytes(o, o + 3).collect();
                    let expected: Vec<_> =
                        bytes.range(o..o + 3).map(|(o, b)| (*o, b.clone())).collect();
                    prop_assert_eq!(window, expected);
                }
            }
        }
    }
}
