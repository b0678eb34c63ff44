//! Process-wide counting allocator: `core.allocs_per_pkt` is read from
//! here. The benchmark drives the deployment from one thread, so a
//! process-global counter sees exactly the allocations of the timed calls
//! when read around them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls (frees are not
/// counted: dropping emitted frames is expected, acquiring memory on the
/// fast path is not).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocations so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
