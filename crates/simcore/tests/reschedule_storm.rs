//! Kernel invariants under cancel/reschedule storms, and the reserved-seq
//! primitive (`Sim::reserve_seq` + `Sim::schedule_at_seq`).
//!
//! A random program of batches runs at fixed instants. Each batch
//! schedules events, cancels earlier ones, and reserves seqs whose events
//! are armed only later (at the end of the batch, or in a later batch,
//! but always before their instant). The same program also runs with
//! every reservation replaced by a plain `schedule_at` at reservation
//! time. Both runs must fire the same events in the same order, at the
//! same instants, with the same kernel fingerprint; every fire must be in
//! `(time, seq)` order, never in the past, and exactly the events not
//! cancelled before their turn must fire.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use simcore::{EventHandle, Sim, SimTime};

/// Spacing of the batch instants (ns); event delays are multiples of a
/// quarter of it, so equal-time ties and cross-batch events are common.
const STEP: u64 = 100;

#[derive(Debug, Clone)]
enum Op {
    Schedule { delay: u64 },
    Reserve { delay: u64 },
    Cancel { pick: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12).prop_map(|d| Op::Schedule {
            delay: d * STEP / 4
        }),
        (0u64..12).prop_map(|d| Op::Reserve {
            delay: d * STEP / 4
        }),
        (0usize..64).prop_map(|pick| Op::Cancel { pick }),
    ]
}

struct Ev {
    at: SimTime,
    /// The kernel seq this event holds (mirrored, not read back).
    seq: u64,
    handle: Option<EventHandle>,
    /// A reserved seq whose event is not armed yet.
    pending: bool,
    /// `(time, seq)` of the batch that cancelled it, if any.
    cancelled_by: Option<(SimTime, u64)>,
}

#[derive(Default)]
struct Harness {
    reserved_mode: bool,
    events: Vec<Ev>,
    next_seq: u64,
    /// One entry per fire; batches log `label = usize::MAX`.
    log: Vec<Fire>,
}

/// `(label, time, seq)` of one fired event.
type Fire = (usize, SimTime, u64);

/// What one run of a program leaves behind.
struct Run {
    log: Vec<Fire>,
    events: Vec<Ev>,
    fired: u64,
    fingerprint: u64,
}

type Shared = Rc<RefCell<Harness>>;

fn on_fire(h: &Shared, sim: &Sim, label: usize) {
    let mut h = h.borrow_mut();
    let (at, seq) = (h.events[label].at, h.events[label].seq);
    assert_eq!(sim.now(), at, "event {label} fired off its instant");
    h.log.push((label, at, seq));
}

fn arm(h: &Shared, sim: &Sim, label: usize, reserved: bool) {
    let at = h.borrow().events[label].at;
    let hh = h.clone();
    let cb = move |s: &Sim| on_fire(&hh, s, label);
    let handle = if reserved {
        let seq = h.borrow().events[label].seq;
        sim.schedule_at_seq(at, seq, cb)
    } else {
        sim.schedule_at(at, cb)
    };
    let mut h = h.borrow_mut();
    h.events[label].handle = Some(handle);
    h.events[label].pending = false;
}

fn run_batch(h: &Shared, sim: &Sim, b: usize, ops: &[Op], next_batch_at: Option<SimTime>) {
    let now = sim.now();
    h.borrow_mut().log.push((usize::MAX, now, b as u64));
    for op in ops {
        match *op {
            Op::Schedule { delay } | Op::Reserve { delay } => {
                let reserve = matches!(op, Op::Reserve { .. }) && h.borrow().reserved_mode;
                let label = {
                    let mut hb = h.borrow_mut();
                    let seq = hb.next_seq;
                    hb.next_seq += 1;
                    hb.events.push(Ev {
                        at: SimTime::from_nanos(now.as_nanos() + delay),
                        seq,
                        handle: None,
                        pending: reserve,
                        cancelled_by: None,
                    });
                    hb.events.len() - 1
                };
                if reserve {
                    let seq = sim.reserve_seq();
                    assert_eq!(seq, h.borrow().events[label].seq);
                } else {
                    arm(h, sim, label, false);
                }
            }
            Op::Cancel { pick } => {
                let mut hb = h.borrow_mut();
                if hb.events.is_empty() {
                    continue;
                }
                let n = hb.events.len();
                let ev = &mut hb.events[pick % n];
                if let Some(handle) = &ev.handle {
                    handle.cancel();
                }
                // A not-yet-armed reservation is simply never armed.
                ev.pending = false;
                ev.cancelled_by.get_or_insert((now, b as u64));
            }
        }
    }
    // Arm every reservation due before the next batch, latest-reserved
    // first; the rest wait for a later batch.
    let due: Vec<usize> = {
        let hb = h.borrow();
        (0..hb.events.len())
            .rev()
            .filter(|&i| hb.events[i].pending && next_batch_at.is_none_or(|t| hb.events[i].at < t))
            .collect()
    };
    for label in due {
        arm(h, sim, label, true);
    }
}

/// Run the program, with reservations or with plain `schedule_at`.
fn run(batches: &[Vec<Op>], reserved_mode: bool) -> Run {
    let sim = Sim::new(3);
    let h: Shared = Rc::new(RefCell::new(Harness {
        reserved_mode,
        next_seq: batches.len() as u64,
        ..Harness::default()
    }));
    // The batch events hold seqs 0..batches.len().
    for b in 0..batches.len() {
        let (hh, ops) = (h.clone(), batches[b].clone());
        let next = (b + 1 < batches.len()).then(|| SimTime::from_nanos((b as u64 + 1) * STEP));
        sim.schedule_at(SimTime::from_nanos(b as u64 * STEP), move |s| {
            run_batch(&hh, s, b, &ops, next)
        });
    }
    sim.run();
    let h = Rc::try_unwrap(h)
        .ok()
        .expect("harness released")
        .into_inner();
    Run {
        log: h.log,
        events: h.events,
        fired: sim.events_fired(),
        fingerprint: sim.trace_fingerprint(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn storms_keep_order_and_reserved_seqs_keep_their_slot(
        batches in prop::collection::vec(prop::collection::vec(op(), 0..8), 1..12)
    ) {
        let Run { log, events, fired, fingerprint } = run(&batches, true);
        // (time, seq) order over every fire, which also rules out fires
        // in the past and equal-time fires out of FIFO order.
        let keys: Vec<(SimTime, u64)> = log.iter().map(|&(_, at, seq)| (at, seq)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "out of order: {:?}", keys);
        // Exactly the events not cancelled before their turn fired.
        let mut expect: Vec<usize> = (0..events.len())
            .filter(|&i| events[i].cancelled_by.is_none_or(|c| c > (events[i].at, events[i].seq)))
            .collect();
        let mut got: Vec<usize> = log.iter().map(|e| e.0).filter(|&l| l != usize::MAX).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(fired as usize, log.len());
        // A reserved seq fires where a plain schedule_at issued at
        // reservation time would have.
        let plain = run(&batches, false);
        prop_assert_eq!(&log, &plain.log);
        prop_assert_eq!(fired, plain.fired);
        prop_assert_eq!(fingerprint, plain.fingerprint);
    }
}
