//! Model test for the kernel's indexed event queue
//! (`simcore::queue::EventQueue`).
//!
//! The model is the lazy queue the kernel used before: a
//! `BinaryHeap<Reverse<(at, seq)>>` whose cancelled entries stay in
//! place, flagged, and are skipped when they reach the head. Random
//! programs of pushes (with tied instants), cancels, double cancels,
//! cancels after fire and pops run against both. After every step the
//! two must agree on what was popped or removed, on the number of live
//! events and on which tickets are live, and the queue's heap must
//! record every key's position in its slot.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use simcore::queue::{EventQueue, Ticket};
use simcore::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Push { at: u64 },
    Cancel { pick: usize },
    CancelTwice { pick: usize },
    CancelFired { pick: usize },
    Pop,
}

fn op() -> impl Strategy<Value = Op> {
    // Weights 4:2:1:1:3. Few distinct instants, so ties on `at` are the
    // rule.
    (0u32..11, 0usize..1024).prop_map(|(kind, pick)| match kind {
        0..=3 => Op::Push {
            at: pick as u64 % 6,
        },
        4..=5 => Op::Cancel { pick },
        6 => Op::CancelTwice { pick },
        7 => Op::CancelFired { pick },
        _ => Op::Pop,
    })
}

/// The pre-change lazy queue: entries stay until popped; a cancelled
/// one is skipped at the head.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    cancelled: Vec<bool>,
    fired: Vec<bool>,
}

impl Model {
    fn push(&mut self, at: u64, seq: u64) -> usize {
        let id = self.cancelled.len();
        self.heap.push(Reverse((at, seq, id)));
        self.cancelled.push(false);
        self.fired.push(false);
        id
    }

    fn is_live(&self, id: usize) -> bool {
        !self.cancelled[id] && !self.fired[id]
    }

    fn cancel(&mut self, id: usize) -> Option<usize> {
        let live = self.is_live(id);
        self.cancelled[id] = true;
        live.then_some(id)
    }

    fn pop(&mut self) -> Option<(u64, u64, usize)> {
        while let Some(Reverse((at, seq, id))) = self.heap.pop() {
            if !self.cancelled[id] {
                self.fired[id] = true;
                return Some((at, seq, id));
            }
        }
        None
    }

    fn live(&self) -> usize {
        (0..self.cancelled.len())
            .filter(|&i| self.is_live(i))
            .count()
    }
}

fn run(ops: &[Op]) {
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut m = Model::default();
    let mut tickets: Vec<Ticket> = Vec::new();
    let mut fired: Vec<usize> = Vec::new();
    let mut seq = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push { at } => {
                let id = m.push(at, seq);
                tickets.push(q.push(SimTime::from_nanos(at), seq, id));
                seq += 1;
            }
            Op::Cancel { pick } | Op::CancelTwice { pick } if !tickets.is_empty() => {
                let id = pick % tickets.len();
                assert_eq!(
                    q.remove(tickets[id]),
                    m.cancel(id),
                    "step {step}: cancel {id}"
                );
                if matches!(op, Op::CancelTwice { .. }) {
                    assert_eq!(q.remove(tickets[id]), None, "step {step}: recancel {id}");
                }
            }
            Op::CancelFired { pick } if !fired.is_empty() => {
                let id = fired[pick % fired.len()];
                assert_eq!(
                    q.remove(tickets[id]),
                    None,
                    "step {step}: cancel fired {id}"
                );
            }
            Op::Pop => {
                let got = q.pop().map(|(at, seq, id)| (at.as_nanos(), seq, id));
                assert_eq!(got, m.pop(), "step {step}: pop");
                fired.extend(got.map(|g| g.2));
            }
            _ => {}
        }
        assert_eq!(q.len(), m.live(), "step {step}: live count");
        for (id, &t) in tickets.iter().enumerate() {
            assert_eq!(q.is_live(t), m.is_live(id), "step {step}: is_live({id})");
        }
        q.check_index();
    }
    // Drain: the rest pops in the model's order.
    loop {
        let got = q.pop().map(|(at, seq, id)| (at.as_nanos(), seq, id));
        assert_eq!(got, m.pop(), "drain");
        if got.is_none() {
            break;
        }
        q.check_index();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_queue_matches_lazy_model(ops in prop::collection::vec(op(), 1..300)) {
        run(&ops);
    }
}

#[test]
fn reused_slot_is_out_of_reach_of_stale_tickets() {
    // Push, cancel and re-push so the freed slot is reused by a tied
    // event; the stale ticket must neither remove nor see the new one.
    let ops = [
        Op::Push { at: 1 },
        Op::Push { at: 1 },
        Op::Cancel { pick: 0 },
        Op::Push { at: 1 },
        Op::Cancel { pick: 0 },
        Op::CancelTwice { pick: 1 },
        Op::Push { at: 0 },
        Op::Pop,
        Op::CancelFired { pick: 0 },
        Op::Pop,
    ];
    run(&ops);
}
