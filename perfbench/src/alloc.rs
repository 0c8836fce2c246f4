//! A counting global allocator (std only): allocation events and live
//! heap bytes, with a resettable high-water mark. It supplies
//! `peak_heap_mb` and every `allocs_per_op` figure; counting replaces RSS
//! sampling, which moved by several MB between identical runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`] and counts. Relaxed atomics suffice: the values
/// are statistics and publish no other data.
pub struct Counting;

/// One counter per cache line, so that threads bumping one counter do not
/// also invalidate the line holding another.
#[repr(align(128))]
struct Line<T>(T);

static ALLOCS: Line<AtomicU64> = Line(AtomicU64::new(0));
static LIVE: Line<AtomicUsize> = Line(AtomicUsize::new(0));
static PEAK: Line<AtomicUsize> = Line(AtomicUsize::new(0));

thread_local! {
    // const-initialised and free of drop glue: reading it never allocates
    // and stays valid while the thread exits
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    ALLOCS.0.fetch_add(1, Relaxed);
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

fn grew(bytes: usize) {
    let live = LIVE.0.fetch_add(bytes, Relaxed) + bytes;
    // a plain load first: the read-modify-write only when a new peak is set
    if live > PEAK.0.load(Relaxed) {
        PEAK.0.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the bookkeeping touches only atomics
// and a const thread-local cell, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted();
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.0.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; forwarded verbatim.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            counted();
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.0.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Allocation events (alloc, alloc_zeroed, realloc) so far, all threads.
pub fn allocs() -> u64 {
    ALLOCS.0.load(Relaxed)
}

/// Allocation events so far on the calling thread: what a span counts, so
/// that work on other threads never lands in it.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Start a new high-water mark at the current live heap.
pub fn reset_peak() {
    PEAK.0.store(LIVE.0.load(Relaxed), Relaxed);
}

/// Highest live heap, in bytes, since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.0.load(Relaxed)
}
