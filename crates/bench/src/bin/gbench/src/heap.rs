//! The peak heap of a measured phase: the system allocator, counting
//! live bytes.
//!
//! Peak RSS moves with the allocator's fragmentation, which depends on
//! the order tests run in (72 to 97 MB across seeds of one workload on the
//! reference host); the peak of live heap bytes is exact and repeats.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

/// Live and peak bytes. Statistics only: they publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    // A plain load and store: the benchmark allocates from one thread, and
    // a lost update under concurrency only understates a statistic.
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters do not touch memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most heap bytes live at once since the last [`restart_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Relaxed)
}

/// Starts a new peak from the bytes live now.
pub fn restart_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Runs `f` without counting towards the peak what `f` allocates and
/// frees again.
pub fn untracked<T>(f: impl FnOnce() -> T) -> T {
    let peak = PEAK.load(Relaxed);
    let out = f();
    PEAK.store(peak.max(LIVE.load(Relaxed)), Relaxed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-wide and other tests run beside this one,
    /// so the block dwarfs their heaps. Zeroed, it stays untouched
    /// address space.
    #[test]
    fn the_peak_follows_allocations_and_restarts_from_live_bytes() {
        const BLOCK: usize = 256 << 20;
        let before = peak_bytes();
        let block = vec![0u8; BLOCK];
        assert!(peak_bytes() >= before.max(BLOCK));
        drop(block);
        assert!(peak_bytes() >= BLOCK, "the peak survives the free");
        restart_peak();
        assert!(peak_bytes() < BLOCK, "a freed block leaves the new peak");
        untracked(|| drop(vec![0u8; BLOCK]));
        assert!(peak_bytes() < BLOCK, "an untracked block leaves the peak");
    }
}
