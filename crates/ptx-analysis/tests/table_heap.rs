//! The prepared-kernel table stays small: all 28 templates, poly tier
//! included, retain at most 1 MiB. A test binary of its own, so the
//! counting allocator sees no other test's allocations.

use ptx::kernel::Kernel;
use ptx_analysis::{clear_kernel_table, prepare_kernel};
use ptx_codegen::Template;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes of this process. Relaxed suffices: a statistic that
/// publishes no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Forwards to [`System`] and tracks live bytes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the bookkeeping touches one atomic and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn prepare_all(kernels: &[Kernel]) {
    for k in kernels {
        let prepared = prepare_kernel(k);
        prepared
            .poly(true)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
    }
}

#[test]
fn prepared_templates_retain_at_most_one_mib() {
    let kernels: Vec<Kernel> = Template::ALL.iter().map(|t| t.build()).collect();
    // a first pass registers the lazily created counters and sizes the
    // table, which are not part of what the entries retain
    prepare_all(&kernels);
    clear_kernel_table();
    let before = LIVE.load(Ordering::Relaxed);
    prepare_all(&kernels);
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    println!("28 prepared templates retain {retained} bytes");
    assert!(retained <= 1 << 20, "{retained} bytes");
}
