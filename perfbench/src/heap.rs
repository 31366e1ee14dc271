//! Peak heap use, counted by the process's allocator.
//!
//! Resident-set peaks of processes this small move by several per cent
//! between runs with page granularity and per-thread malloc arenas; the
//! bytes the program holds on the heap do not. Counting is switched on
//! only around the warm-up slice, so measured slices pay one relaxed load
//! per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The system allocator, counting live bytes while [`peak_during`] runs.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

// Statistics only: the counters publish no other data, so every access
// is `Relaxed`. Threads a measured closure spawns see `ENABLED` through
// the spawn's happens-before edge.
fn record(delta: i64) {
    if ENABLED.load(Ordering::Relaxed) {
        let now = CURRENT.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only the atomics above and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Runs `f` and returns its result with the peak growth of live heap
/// bytes while it ran. Memory freed during `f` that was allocated before
/// it counts against the growth, never below zero at the end.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CURRENT.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    let result = f();
    ENABLED.store(false, Ordering::Relaxed);
    (result, PEAK.load(Ordering::Relaxed).max(0) as u64)
}
