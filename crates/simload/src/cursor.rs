//! Lazy arrival release: one cursor task per schedule.
//!
//! An open-loop schedule fires one task per arrival at that arrival's
//! instant. Spawning every task up front, each asleep until its
//! instant, costs memory in proportion to the whole schedule (a future
//! and a heap entry per pending arrival). [`spawn_at_instants`] fires
//! the *same* kernel events in the *same* `(time, seq)` slots with
//! state in proportion to the arrivals in flight:
//!
//! * an eager task whose instant has already come runs its work at its
//!   first poll and takes no sleep seq, so those arrivals are still
//!   spawned right away, in order;
//! * the first drain polls the remaining eager tasks back to back and
//!   each one's sleep takes one seq, so together they take one
//!   contiguous block. The cursor, spawned in the first of those
//!   tasks' queue slot, reserves that block at its first poll;
//! * it then arms one wake at a time, arrival `j` at
//!   `(instant_j, base + j)`, unconditionally (tied instants stay
//!   separate events). Both keys rise with `j`, so the next wake is
//!   always armed before anything could pop past it;
//! * when a wake fires the ready queue is empty, so the cursor's poll
//!   and then the task it spawns run exactly where the eager task
//!   resumed.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use simcore::prelude::*;
use simcore::EventHandle;

/// The sim instant an arrival scheduled at `sched_s` seconds fires.
pub(crate) fn instant(sched_s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(sched_s)
}

/// Spawn `task(i, t)` at the instant `offset_s + t` of every arrival
/// `(i, t)` of `instants` (seconds relative to `offset_s`, ascending),
/// in index order. The fired schedule is that of one task per arrival
/// spawned now, each sleeping until its instant before running
/// `task(i, t)`; the memory is not (see the module docs).
///
/// Arrivals already due are spawned before this returns; the rest by a
/// cursor task spawned after them. `task` should only build the
/// arrival's future: the work belongs in the future, which the kernel
/// polls right after the spawn.
pub fn spawn_at_instants<T, Fut>(sim: &Sim, offset_s: f64, instants: Vec<f64>, mut task: T)
where
    T: FnMut(usize, f64) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    assert!(
        instants.windows(2).all(|w| w[0] <= w[1]),
        "arrival instants must be ascending"
    );
    let now = sim.now();
    let due = instants.partition_point(|&t| instant(offset_s + t) <= now);
    for (i, &t) in instants[..due].iter().enumerate() {
        sim.spawn_detached(task(i, t));
    }
    if due == instants.len() {
        return;
    }
    let s = sim.clone();
    sim.spawn_detached(async move {
        let base = s.reserve_seqs((instants.len() - due) as u64);
        for (j, &t) in instants.iter().enumerate().skip(due) {
            SeqWake {
                sim: &s,
                at: instant(offset_s + t),
                seq: base + (j - due) as u64,
                armed: None,
            }
            .await;
            s.spawn_detached(task(j, t));
        }
    });
}

/// Sleep until one wake event armed under a reserved seq has fired.
/// Unlike [`simcore::Delay`] it arms even when the instant is now, so
/// an arrival tied with the one before it is still its own event.
struct SeqWake<'a> {
    sim: &'a Sim,
    at: SimTime,
    seq: u64,
    armed: Option<EventHandle>,
}

impl Future for SeqWake<'_> {
    type Output = ();

    // The cursor task hands its waker to nothing but its own wakes, so
    // a poll after arming means the wake fired.
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.armed.take().is_some() {
            debug_assert!(self.sim.now() >= self.at);
            return Poll::Ready(());
        }
        let ev = self.sim.wake_at_seq(self.at, self.seq, cx.waker().clone());
        self.armed = Some(ev);
        Poll::Pending
    }
}

impl Drop for SeqWake<'_> {
    fn drop(&mut self) {
        if let Some(ev) = &self.armed {
            ev.cancel();
        }
    }
}
