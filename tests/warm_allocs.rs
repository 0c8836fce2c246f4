//! A warm analytical estimate does only its per-device arithmetic: once a
//! model's analysis is cached, one request makes a few dozen allocations
//! whatever the model's size. It neither builds nor hashes the graph,
//! scans no kernel per launch and spawns no thread. Hashing a graph
//! allocates nothing at all. A test binary of its own, so the counting
//! allocator sees no other test's allocations; its tests take
//! [`SERIAL`] so they see none of each other's.

use cnnperf_core::{model_content_hash, EngineConfig, ResilientEngine, Tier};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Allocation calls made by this process, reallocations included.
/// Relaxed suffices: a statistic that publishes no other data.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`] and counts allocation calls.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the bookkeeping touches one atomic and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Held by every test here while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // a failed test must not wedge the other
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The most allocations one warm analytical request may make: 14-15 are
/// measured, plus a margin of 5, below what one `format!`ed counter name
/// (4 per bump, two bumps per request) would add back.
const MAX_WARM_ALLOCS: usize = 20;

#[test]
fn hashing_a_model_allocates_nothing() {
    let _guard = serial();
    let model = cnn_ir::zoo::build_any("resnet50").unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let hash = model_content_hash(&model);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "hashing resnet50 allocated {allocs} times");
    assert_ne!(hash, 0);
}

#[test]
fn a_warm_analytical_request_allocates_independently_of_model_size() {
    let _guard = serial();
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Analytical],
        ..EngineConfig::default()
    });
    // 29, 204 and 550 launches
    let mut counted = Vec::new();
    for model in ["alexnet", "resnet50", "densenet121"] {
        // the first request analyzes the model and registers the lazily
        // created counters, the second warms every per-request map entry
        for _ in 0..2 {
            assert!(engine.estimate(model, "V100S", 60_000).served());
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = engine.estimate(model, "V100S", 60_000);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(out.served(), "{model}: {:?}", out.attempts);
        counted.push((model, allocs));
    }
    println!("allocations per warm request: {counted:?}");
    assert!(
        counted.iter().all(|&(_, n)| n <= MAX_WARM_ALLOCS),
        "over {MAX_WARM_ALLOCS}: {counted:?}"
    );
}
