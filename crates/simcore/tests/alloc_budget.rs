//! Allocation budget of the per-op kernel path: once the task slab,
//! the event queue and the semaphore's wait slab have grown to their
//! peak, a detached task that races an acquire against a timeout and
//! then sleeps allocates one block, its own box. Wakers are per slot,
//! the timeout pins its future in place and a queued acquire takes a
//! slab slot, so none of them allocates per task. An installed kernel
//! hook adds nothing: emitting an event clones one `Rc` of the hooks.
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, so tests running in parallel do not count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use simcore::combinators::timeout;
use simcore::sync::Semaphore;
use simcore::{Sim, SimDuration};

/// The system allocator, counting allocation calls per thread.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reaching it never
    // allocates and never re-enters the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's valid, non-zero layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by this allocator for `layout`, and
        // the caller guarantees `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const TASKS: u64 = 10_000;

/// Spawn `TASKS` detached tasks at once, each taking one of 4 permits
/// under a 30 s timeout and holding it for 1 ms, and run them all.
fn round(sim: &Sim, sem: &Semaphore) {
    for _ in 0..TASKS {
        let (s, sem) = (sim.clone(), sem.clone());
        sim.spawn_detached(async move {
            let permit = timeout(&s, SimDuration::from_secs(30), sem.acquire()).await;
            s.delay(SimDuration::from_millis(1)).await;
            drop(permit);
        });
    }
    sim.run();
}

/// Run two rounds and return the second, warm round's allocations
/// per task.
fn warm_allocs_per_task(sim: &Sim) -> f64 {
    let sem = Semaphore::new(4);
    // The first round grows every slab to the round's peak: all tasks
    // live at once, all but four queued on the semaphore, each with a
    // pending timeout event.
    round(sim, &sem);
    let before = allocs();
    round(sim, &sem);
    let per_task = (allocs() - before) as f64 / TASKS as f64;
    assert_eq!(sem.acquired_total(), 2 * TASKS, "an acquire timed out");
    // Each round's four first acquires succeed at once and never arm
    // their timeout; every other timeout is armed, then cancelled.
    assert_eq!(sim.cancelled_events(), 2 * (TASKS - 4));
    assert_eq!(sim.live_tasks(), 0);
    per_task
}

#[test]
fn a_detached_op_allocates_only_its_task_box() {
    let per_task = warm_allocs_per_task(&Sim::new(1));
    assert!(
        per_task <= 1.0,
        "{per_task} allocations per task once warm; the budget is 1, the task box"
    );
}

#[test]
fn an_installed_hook_adds_no_allocation_per_event() {
    let sim = Sim::new(1);
    let fired = Rc::new(Cell::new(0u64));
    let f = Rc::clone(&fired);
    sim.add_kernel_hook(Rc::new(move |_, _| f.set(f.get() + 1)));
    let per_task = warm_allocs_per_task(&sim);
    assert!(fired.get() > 2 * TASKS, "the hook did not run");
    assert!(
        per_task <= 1.0,
        "{per_task} allocations per task once warm with a hook installed; the budget is 1"
    );
}
