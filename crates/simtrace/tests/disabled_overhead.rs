//! What tracing costs when no tracer is installed. Model code wraps its
//! operations in `simtrace::span`; with no tracer that is one
//! thread-local read and a branch, the label closure never runs and
//! nothing is recorded. Two tests hold the claim on one workload, 100
//! tasks of 50 delayed ops, run with and without a span around each op:
//!
//! * `spans_without_a_tracer_change_nothing` (tier-1, deterministic):
//!   both variants fire the same events in the same order and allocate
//!   exactly as often;
//! * `spans_without_a_tracer_cost_under_two_percent` (ignored, host
//!   timing): over interleaved A/B rounds, the median of the paired
//!   time ratios stays under 1.02. Host timing is too noisy to gate on a
//!   shared runner, so it runs on request, on a quiet machine:
//!   `cargo test --release -p simtrace --test disabled_overhead -- --ignored --nocapture`.
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, so tests running in parallel do not count each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use simcore::{Sim, SimDuration};
use simtrace::{Layer, Tracer};

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

/// One run of the workload: its fired events, trace fingerprint and
/// allocations. A tracer is built in both variants but never installed.
fn workload(spans: bool) -> (u64, u64, u64) {
    let before = allocs();
    let sim = Sim::new(5);
    let _tracer = Tracer::new(&sim);
    for i in 0..100 {
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..50 {
                if spans {
                    let sp = simtrace::span(Layer::App, "bench.op", || format!("task{i}"));
                    s.delay(SimDuration::from_nanos(10)).await;
                    drop(sp);
                } else {
                    s.delay(SimDuration::from_nanos(10)).await;
                }
            }
        });
    }
    sim.run();
    let (events, fingerprint) = (sim.events_fired(), sim.trace_fingerprint());
    drop(sim);
    (events, fingerprint, allocs() - before)
}

#[test]
fn spans_without_a_tracer_change_nothing() {
    let plain = workload(false);
    let spanned = workload(true);
    assert_eq!(plain.0, 100 * 50);
    assert_eq!(
        spanned, plain,
        "(events, fingerprint, allocations) with spans vs without"
    );
}

/// Seconds taken by `reps` back-to-back runs of one variant.
fn timed(spans: bool, reps: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(workload(spans));
    }
    t0.elapsed().as_secs_f64()
}

#[test]
#[ignore = "host timing; run on a quiet machine with --ignored"]
fn spans_without_a_tracer_cost_under_two_percent() {
    const PAIRS: usize = 51;
    const REPS: u32 = 20;
    timed(false, REPS);
    timed(true, REPS);
    // Each pair times both variants back to back, alternating which goes
    // first, so drift in host speed hits both sides of a ratio alike.
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|k| {
            let (plain, spanned) = if k % 2 == 0 {
                let p = timed(false, REPS);
                (p, timed(true, REPS))
            } else {
                let s = timed(true, REPS);
                (timed(false, REPS), s)
            };
            spanned / plain
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[PAIRS / 2] - 1.0;
    println!(
        "tracing disabled: median overhead {:+.2}% over {PAIRS} pairs (quartiles {:+.2}% .. {:+.2}%; guard: <2%)",
        overhead * 100.0,
        (ratios[PAIRS / 4] - 1.0) * 100.0,
        (ratios[3 * PAIRS / 4] - 1.0) * 100.0,
    );
    assert!(
        overhead < 0.02,
        "tracing-disabled overhead {:.2}% exceeds the 2% guard",
        overhead * 100.0
    );
}
