//! A counting global allocator: allocation calls, live bytes and the
//! peak of live bytes, for the heap and allocation metrics.
//!
//! Counters are kept per thread. `simlab::run_cells` runs a cell on a
//! worker thread while the calling thread allocates its result slots
//! and blocks on a channel; process-wide counters would pick up those
//! allocations whenever the two threads interleave differently, and a
//! repeat of one cell would not count the same. Per thread, a region
//! opened by [`mark`] and closed by [`since`] on the cell's thread
//! counts exactly what that thread did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with counters around it.
pub struct Counting;

/// One thread's counters. Live bytes are signed: a thread may free
/// memory another thread allocated.
struct Counters {
    allocs: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so reaching it never
    // allocates and never re-enters the allocator.
    static COUNTERS: Counters = const {
        Counters {
            allocs: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Record one allocation call of `bytes` bytes, releasing `freed`.
fn record(bytes: usize, freed: usize) {
    let _ = COUNTERS.try_with(|c| {
        c.allocs.set(c.allocs.get() + 1);
        let live = c.live.get() - freed as i64 + bytes as i64;
        c.live.set(live);
        c.peak.set(c.peak.get().max(live));
    });
}

fn release(bytes: usize) {
    let _ = COUNTERS.try_with(|c| c.live.set(c.live.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counter updates touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's valid, non-zero layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        release(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`; it is forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size, layout.size());
        }
        p
    }
}

/// The calling thread's allocator state at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    allocs: u64,
    live: i64,
}

/// What a measured region allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`).
    pub allocs: u64,
    /// Peak live heap bytes above the level at the region's start.
    pub peak_bytes: u64,
}

/// Start a measured region on the calling thread: resets its peak to
/// its current live level.
pub fn mark() -> Mark {
    COUNTERS.with(|c| {
        let live = c.live.get();
        c.peak.set(live);
        Mark {
            allocs: c.allocs.get(),
            live,
        }
    })
}

/// Close a region opened by [`mark`] on the same thread.
pub fn since(m: Mark) -> Usage {
    COUNTERS.with(|c| Usage {
        allocs: c.allocs.get() - m.allocs,
        peak_bytes: (c.peak.get() - m.live).max(0) as u64,
    })
}
