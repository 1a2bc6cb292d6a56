//! A counting global allocator for the benchmark binary.
//!
//! `main.rs` installs [`CountingAlloc`]; [`snapshot`] reads cumulative
//! `(allocations, bytes)`; [`start_peak`] and [`peak_bytes`] measure the
//! most bytes held at once.
//! In any other binary (the tests) the counters stay at zero. Relaxed
//! atomics suffice: the counts publish no other data, and a benchmark run
//! is single-threaded.

// `GlobalAlloc` is an unsafe trait; the impl only bumps counters around
// delegation to `System`, so `System`'s contract carries over unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Count `size` more bytes held, and raise the peak to match.
fn hold(size: u64) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

/// `System`, counting allocation calls, bytes requested and bytes held.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        hold(layout.size() as u64);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is fresh traffic for the grown part.
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        match (new_size as u64).checked_sub(layout.size() as u64) {
            Some(grown) => hold(grown),
            None => {
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative `(allocations, bytes)` since process start.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Start a new peak at the bytes held now; returns them.
pub fn start_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The most bytes held from the allocator at once since [`start_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
