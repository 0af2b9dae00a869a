//! A counting global allocator.
//!
//! Every allocation and reallocation made on a thread bumps that thread's
//! counter, and live bytes are tracked with a resettable high-water mark.
//! Counters are per thread: the simulator runs on one thread, and the
//! self-tests run in parallel without polluting each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to the system allocator and counts on the calling thread.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64, new_allocation: bool) {
    // `try_with` rather than `with`: the allocator can be entered while
    // a thread is being torn down. The cells are const-initialised and
    // have no destructor, so they never allocate.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + u64::from(new_allocation)));
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as i64, true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as i64, true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        grow(-(layout.size() as i64), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A growing `Vec` reallocates: count it as one allocation.
            grow(new_size as i64 - layout.size() as i64, true);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made so far on this thread.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated on this thread and not yet freed.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Restarts this thread's high-water mark at the current live bytes.
pub fn reset_peak() {
    let live = live_bytes();
    PEAK.with(|p| p.set(live));
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.with(Cell::get)
}

/// Runs `f` without leaving a trace in this thread's allocation count or
/// high-water mark. `f` must free everything it allocates.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let (allocs, live, peak) = (allocations(), live_bytes(), peak_bytes());
    let r = f();
    debug_assert_eq!(live_bytes(), live, "an uncounted section leaked");
    ALLOCS.with(|a| a.set(allocs));
    PEAK.with(|p| p.set(peak));
    r
}
