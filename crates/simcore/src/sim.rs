//! The simulation driver: virtual clock, event heap, process spawning.
//!
//! A [`Sim`] is a cheaply-cloneable handle (internally `Rc`) to one
//! simulation world. Everything scheduled against it is totally ordered by
//! `(time, sequence-number)`, so a run is a pure function of the initial
//! seed — the basis of the determinism guarantees the higher layers
//! (and the reproduction experiments) rely on.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use crate::executor::Executor;
use crate::queue::{EventQueue, Ticket};
use crate::time::{SimDuration, SimTime};

/// What a fired event does.
enum Action {
    /// Wake a suspended task.
    Wake(Waker),
    /// Run an arbitrary callback against the simulation.
    Call(Box<dyn FnOnce(&Sim)>),
}

/// Handle to a scheduled event that allows cancelling it before it fires.
///
/// Cancellation is eager: [`cancel`](Self::cancel) takes the event out of
/// the queue at once, in O(log n), and drops its action. This is how
/// abandoned timeouts and in-flight network transfers whose fair-share
/// rates change give their events back. The handle is a weak reference to
/// the simulation plus a generation-checked queue slot, so cancelling
/// twice, after the event fired, or after the simulation is gone is a
/// no-op.
#[derive(Clone)]
pub struct EventHandle {
    sim: Weak<SimInner>,
    ticket: Ticket,
}

impl EventHandle {
    /// Cancel the event. Idempotent; harmless after the event fired.
    pub fn cancel(&self) {
        let Some(inner) = self.sim.upgrade() else {
            return;
        };
        let removed = inner.queue.borrow_mut().remove(self.ticket);
        if removed.is_some() {
            inner.cancelled_events.set(inner.cancelled_events.get() + 1);
        }
        // Dropped only now, with the queue released: a dropped closure
        // or waker may own another handle and cancel through it.
        drop(removed);
    }

    /// True while the event is queued: neither fired nor cancelled.
    pub fn is_live(&self) -> bool {
        self.sim
            .upgrade()
            .is_some_and(|inner| inner.queue.borrow().is_live(self.ticket))
    }
}

/// Kernel-level happenings observable through [`Sim::add_kernel_hook`].
///
/// Hooks exist so external subsystems (the `simtrace` tracer, the
/// `simfault` injector) can watch executor activity without the kernel
/// depending on them. When no hook is installed the cost is a single
/// flag check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelEvent {
    /// A simulation process was spawned.
    TaskSpawned,
    /// A scheduled wake event fired (a suspended task resumes).
    WakeFired,
    /// A scheduled callback event fired.
    CallFired,
}

/// Shape of a kernel observation hook (see [`Sim::add_kernel_hook`]).
pub type KernelHook = Rc<dyn Fn(&Sim, KernelEvent)>;

/// Handle identifying one installed kernel hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelHookId(u64);

/// Installed kernel hooks with their ids, in installation order. Add
/// and remove build a new slice, so an emission iterates the one it
/// cloned.
type Hooks = Rc<[(u64, KernelHook)]>;

struct SimInner {
    now: Cell<SimTime>,
    seq: Cell<u64>,
    queue: RefCell<EventQueue<Action>>,
    exec: Executor,
    events_fired: Cell<u64>,
    cancelled_events: Cell<u64>,
    pushes: Cell<u64>,
    peak_heap_depth: Cell<usize>,
    trace_hash: Cell<u64>,
    base_seed: u64,
    /// `None` while no hook is installed, so a `Sim` without hooks
    /// allocates nothing for them.
    hooks: RefCell<Option<Hooks>>,
    next_hook_id: Cell<u64>,
    has_hook: Cell<bool>,
}

/// A handle to one simulation world. Clone freely; all clones share state.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Sim {
    /// Create a simulation whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(SimInner {
                now: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                queue: RefCell::new(EventQueue::new()),
                exec: Executor::new(),
                events_fired: Cell::new(0),
                cancelled_events: Cell::new(0),
                pushes: Cell::new(0),
                peak_heap_depth: Cell::new(0),
                trace_hash: Cell::new(0xcbf2_9ce4_8422_2325),
                base_seed: seed,
                hooks: RefCell::new(None),
                next_hook_id: Cell::new(0),
                has_hook: Cell::new(false),
            }),
        }
    }

    /// Install a kernel observation hook. Hooks fire on process spawn
    /// and on every event pop, in installation order; a hook must not
    /// re-enter the simulation. Several independent subsystems (tracer,
    /// fault injector) can each hold one; remove with
    /// [`remove_kernel_hook`](Self::remove_kernel_hook). With no hooks
    /// installed the emission cost is a single flag check.
    pub fn add_kernel_hook(&self, hook: KernelHook) -> KernelHookId {
        let id = self.inner.next_hook_id.get();
        self.inner.next_hook_id.set(id + 1);
        let mut hooks = self.inner.hooks.borrow_mut();
        let old = hooks.as_deref().unwrap_or_default().iter().cloned();
        *hooks = Some(old.chain([(id, hook)]).collect());
        self.inner.has_hook.set(true);
        KernelHookId(id)
    }

    /// Remove a previously installed kernel hook; unknown ids are a
    /// no-op (a guard may outlive a hook explicitly removed earlier).
    pub fn remove_kernel_hook(&self, id: KernelHookId) {
        let mut hooks = self.inner.hooks.borrow_mut();
        let kept: Rc<[_]> = hooks
            .as_deref()
            .unwrap_or_default()
            .iter()
            .filter(|(h, _)| *h != id.0)
            .cloned()
            .collect();
        *hooks = (!kept.is_empty()).then_some(kept);
        self.inner.has_hook.set(hooks.is_some());
    }

    #[inline]
    fn emit_kernel(&self, ev: KernelEvent) {
        if self.inner.has_hook.get() {
            // Iterate a clone of the slice, so hooks can (un)install
            // hooks while it runs; their changes apply from the next
            // emission on.
            let hooks = self.inner.hooks.borrow().clone();
            for (_, h) in hooks.as_deref().unwrap_or_default() {
                h(self, ev);
            }
        }
    }

    /// The seed this simulation was created with.
    pub fn seed(&self) -> u64 {
        self.inner.base_seed
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Derive a deterministic RNG stream for a named component.
    pub fn rng(&self, label: &str) -> crate::rng::SimRng {
        crate::rng::SimRng::for_stream(self.inner.base_seed, label)
    }

    /// The stream [`rng`](Self::rng) derives for the label
    /// `format!("{prefix}{index}")`, without allocating the label.
    pub fn rng_indexed(&self, prefix: &str, index: u64) -> crate::rng::SimRng {
        crate::rng::SimRng::for_indexed_stream(self.inner.base_seed, prefix, index)
    }

    fn next_seq(&self) -> u64 {
        let s = self.inner.seq.get();
        self.inner.seq.set(s + 1);
        s
    }

    fn push_event(&self, at: SimTime, seq: u64, action: Action) -> EventHandle {
        debug_assert!(
            at >= self.now(),
            "event scheduled in the past: {at:?} < {:?}",
            self.now()
        );
        let inner = &self.inner;
        let mut queue = inner.queue.borrow_mut();
        let ticket = queue.push(at, seq, action);
        inner.pushes.set(inner.pushes.get() + 1);
        inner
            .peak_heap_depth
            .set(inner.peak_heap_depth.get().max(queue.len()));
        EventHandle {
            sim: Rc::downgrade(inner),
            ticket,
        }
    }

    /// Schedule `f` to run at absolute time `at`.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&Sim) + 'static) -> EventHandle {
        self.push_event(at, self.next_seq(), Action::Call(Box::new(f)))
    }

    /// Consume the next sequence number without scheduling anything.
    ///
    /// Together with [`schedule_at_seq`](Self::schedule_at_seq) this lets
    /// a subsystem keep its own timer queue yet fire each timer exactly
    /// where a [`schedule_at`](Self::schedule_at) issued at reservation
    /// time would have: same `(time, seq)` slot in the total order, same
    /// fingerprint contribution.
    pub fn reserve_seq(&self) -> u64 {
        self.next_seq()
    }

    /// Consume `n` consecutive sequence numbers and return the first:
    /// the block `first..first + n` that `n` back-to-back
    /// [`reserve_seq`](Self::reserve_seq) calls would have returned.
    pub fn reserve_seqs(&self, n: u64) -> u64 {
        let first = self.inner.seq.get();
        self.inner.seq.set(first + n);
        first
    }

    /// Schedule `f` at `at` under a sequence number previously obtained
    /// from [`reserve_seq`](Self::reserve_seq). Consumes no new sequence
    /// number. A seq may be armed again after its earlier event was
    /// cancelled; it must not be live twice.
    pub fn schedule_at_seq(
        &self,
        at: SimTime,
        seq: u64,
        f: impl FnOnce(&Sim) + 'static,
    ) -> EventHandle {
        debug_assert!(seq < self.inner.seq.get(), "seq {seq} was never reserved");
        self.push_event(at, seq, Action::Call(Box::new(f)))
    }

    /// Schedule `f` to run after `d` has elapsed.
    pub fn schedule_in(&self, d: SimDuration, f: impl FnOnce(&Sim) + 'static) -> EventHandle {
        self.schedule_at(self.now() + d, f)
    }

    /// Spawn a simulation process. The future runs on this simulation's
    /// executor; its `Output` is retrievable through the returned
    /// [`JoinHandle`].
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let state = Rc::new(JoinState {
            result: RefCell::new(None),
            waiters: RefCell::new(Vec::new()),
        });
        let st = Rc::clone(&state);
        self.spawn_detached(async move {
            let out = future.await;
            *st.result.borrow_mut() = Some(out);
            for w in st.waiters.borrow_mut().drain(..) {
                w.wake();
            }
        });
        JoinHandle { state }
    }

    /// Spawn a simulation process nobody joins. It is scheduled exactly
    /// as [`spawn`](Self::spawn) schedules it, but allocates no join
    /// state: the task's box is its only allocation once the executor
    /// has a free slot.
    pub fn spawn_detached(&self, future: impl Future<Output = ()> + 'static) {
        self.inner.exec.spawn(Box::pin(future));
        self.emit_kernel(KernelEvent::TaskSpawned);
    }

    /// Future that completes after `d` of virtual time.
    pub fn delay(&self, d: SimDuration) -> Delay {
        self.sleep_until(self.now() + d)
    }

    /// Future that completes at absolute virtual time `deadline` (or
    /// immediately if the deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Delay {
        Delay {
            sim: self.clone(),
            deadline,
            event: None,
        }
    }

    /// Wake `waker` at absolute time `at`; returns a cancellation handle.
    /// Building block for cancellable waits (network transfer rescheduling).
    pub fn wake_at(&self, at: SimTime, waker: Waker) -> EventHandle {
        self.push_event(at, self.next_seq(), Action::Wake(waker))
    }

    /// Wake `waker` at `at` under a sequence number previously obtained
    /// from [`reserve_seq`](Self::reserve_seq) or
    /// [`reserve_seqs`](Self::reserve_seqs): the [`wake_at`](Self::wake_at)
    /// twin of [`schedule_at_seq`](Self::schedule_at_seq), with the same
    /// rules. Consumes no new sequence number.
    pub fn wake_at_seq(&self, at: SimTime, seq: u64, waker: Waker) -> EventHandle {
        debug_assert!(seq < self.inner.seq.get(), "seq {seq} was never reserved");
        self.push_event(at, seq, Action::Wake(waker))
    }

    fn fire_next(&self) -> bool {
        let next = self.inner.queue.borrow_mut().pop();
        let Some((at, seq, action)) = next else {
            return false;
        };
        debug_assert!(at >= self.now());
        self.inner.now.set(at);
        self.inner
            .events_fired
            .set(self.inner.events_fired.get() + 1);
        // Fold (time, seq) into the trace fingerprint (FNV-1a style);
        // two runs with the same seed must produce identical hashes.
        let mut h = self.inner.trace_hash.get();
        for word in [at.as_nanos(), seq] {
            h ^= word;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.inner.trace_hash.set(h);
        match action {
            Action::Wake(w) => {
                self.emit_kernel(KernelEvent::WakeFired);
                w.wake();
            }
            Action::Call(f) => {
                self.emit_kernel(KernelEvent::CallFired);
                f(self);
            }
        }
        true
    }

    /// Run until no ready tasks and no pending events remain.
    pub fn run(&self) {
        loop {
            self.inner.exec.drain_ready();
            if !self.fire_next() {
                break;
            }
        }
    }

    /// Run until virtual time would exceed `until`; the clock finishes at
    /// `min(until, time of last event)`. Events at exactly `until` fire.
    pub fn run_until(&self, until: SimTime) {
        loop {
            self.inner.exec.drain_ready();
            let next_at = self.inner.queue.borrow().peek_at();
            if next_at.is_none_or(|at| at > until) {
                break;
            }
            self.fire_next();
        }
        if self.now() < until {
            self.inner.now.set(until);
        }
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&self, d: SimDuration) {
        let until = self.now() + d;
        self.run_until(until);
    }

    /// Number of events fired so far (simulation statistic).
    pub fn events_fired(&self) -> u64 {
        self.inner.events_fired.get()
    }

    /// Events cancelled before they fired (simulation cost statistic).
    /// Every push ends up fired, cancelled or still pending:
    /// `pushes == events_fired + cancelled_events + pending_events`.
    pub fn cancelled_events(&self) -> u64 {
        self.inner.cancelled_events.get()
    }

    /// Events queued now: pushed, neither fired nor cancelled.
    pub fn pending_events(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Total processes ever spawned.
    pub fn tasks_spawned(&self) -> u64 {
        self.inner.exec.spawned_total()
    }

    /// Processes that have not finished yet.
    pub fn live_tasks(&self) -> usize {
        self.inner.exec.live_tasks()
    }

    /// Events ever pushed onto the queue, fired, cancelled or pending
    /// (simulation cost statistic).
    pub fn pushes(&self) -> u64 {
        self.inner.pushes.get()
    }

    /// Most events the queue ever held at once: the kernel's share of the
    /// simulation's peak memory. A cancelled event leaves the queue at
    /// once, so only live events count.
    pub fn peak_heap_depth(&self) -> usize {
        self.inner.peak_heap_depth.get()
    }

    /// Order-sensitive fingerprint of every event fired so far. Equal
    /// fingerprints across two runs certify identical schedules.
    pub fn trace_fingerprint(&self) -> u64 {
        self.inner.trace_hash.get()
    }
}

/// Future returned by [`Sim::delay`] / [`Sim::sleep_until`].
///
/// Dropping an unfired `Delay` (e.g. losing a `select2` race) cancels
/// its scheduled wake event, so abandoned timeouts cannot hold the
/// simulation clock hostage.
pub struct Delay {
    sim: Sim,
    deadline: SimTime,
    event: Option<EventHandle>,
}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            self.event = None;
            return Poll::Ready(());
        }
        if self.event.is_none() {
            let deadline = self.deadline;
            let handle = self.sim.wake_at(deadline, cx.waker().clone());
            self.event = Some(handle);
        }
        Poll::Pending
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        if let Some(ev) = &self.event {
            ev.cancel();
        }
    }
}

struct JoinState<T> {
    result: RefCell<Option<T>>,
    waiters: RefCell<Vec<Waker>>,
}

/// Handle to a spawned process; awaiting it yields the process's output.
///
/// Panics if awaited after the value was already taken by another waiter.
pub struct JoinHandle<T> {
    state: Rc<JoinState<T>>,
}

impl<T> JoinHandle<T> {
    /// True once the process has finished (its result may still be pending
    /// pickup).
    pub fn is_finished(&self) -> bool {
        self.state.result.borrow().is_some()
    }

    /// Take the result without awaiting, if available.
    pub fn try_take(&self) -> Option<T> {
        self.state.result.borrow_mut().take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        if let Some(v) = self.state.result.borrow_mut().take() {
            return Poll::Ready(v);
        }
        self.state.waiters.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration as D;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new(1);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn delay_advances_clock() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.delay(D::from_secs(5)).await;
            s.now()
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), SimTime::from_nanos(5_000_000_000));
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let (a, b, c, d) = (log.clone(), log.clone(), log.clone(), log.clone());
        sim.schedule_at(SimTime::from_nanos(20), move |_| a.borrow_mut().push("t20"));
        sim.schedule_at(SimTime::from_nanos(10), move |_| {
            b.borrow_mut().push("t10-first")
        });
        sim.schedule_at(SimTime::from_nanos(10), move |_| {
            c.borrow_mut().push("t10-second")
        });
        sim.schedule_at(SimTime::from_nanos(5), move |_| d.borrow_mut().push("t5"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["t5", "t10-first", "t10-second", "t20"]);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let l = log.clone();
        let h = sim.schedule_in(D::from_secs(1), move |_| l.borrow_mut().push(1));
        let l2 = log.clone();
        sim.schedule_in(D::from_secs(2), move |_| l2.borrow_mut().push(2));
        assert!(h.is_live());
        h.cancel();
        assert!(!h.is_live());
        sim.run();
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.delay(D::from_millis(3)).await;
            42u32
        });
        let h2 = sim.spawn(async move { h.await * 2 });
        sim.run();
        assert_eq!(h2.try_take(), Some(84));
    }

    #[test]
    fn nested_spawns_and_delays_interleave_correctly() {
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u64, &'static str)>>> = Rc::default();
        for (name, start, step) in [("a", 0u64, 10u64), ("b", 5, 10)] {
            let s = sim.clone();
            let l = log.clone();
            sim.spawn(async move {
                s.delay(D::from_nanos(start)).await;
                for _ in 0..3 {
                    l.borrow_mut().push((s.now().as_nanos(), name));
                    s.delay(D::from_nanos(step)).await;
                }
            });
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![
                (0, "a"),
                (5, "b"),
                (10, "a"),
                (15, "b"),
                (20, "a"),
                (25, "b")
            ]
        );
    }

    #[test]
    fn run_until_stops_clock_at_bound() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(0u32));
        let f = fired.clone();
        sim.schedule_at(SimTime::from_nanos(100), move |_| {
            f.set(f.get() + 1);
        });
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!(fired.get(), 0);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        sim.run_until(SimTime::from_nanos(100));
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn run_until_does_not_fire_past_bound_behind_a_tombstone() {
        // The event at 40 is cancelled; the live event at 100 lies past
        // the bound and must not fire.
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let early = sim.schedule_at(SimTime::from_nanos(40), |_| {});
        sim.schedule_at(SimTime::from_nanos(100), move |_| f.set(true));
        early.cancel();
        sim.run_until(SimTime::from_nanos(50));
        assert!(!fired.get(), "event past `until` fired");
        assert_eq!(sim.now(), SimTime::from_nanos(50));
        assert_eq!((sim.events_fired(), sim.cancelled_events()), (0, 1));
        sim.run_until(SimTime::from_nanos(100));
        assert!(fired.get());
    }

    #[test]
    fn push_and_heap_depth_counters() {
        let sim = Sim::new(1);
        let a = sim.schedule_in(D::from_secs(1), |_| {});
        sim.schedule_in(D::from_secs(2), |_| {});
        a.cancel();
        sim.run();
        sim.schedule_in(D::from_secs(1), |_| {});
        sim.run();
        assert_eq!(sim.pushes(), 3);
        assert_eq!(sim.peak_heap_depth(), 2);
    }

    #[test]
    fn reserved_seq_block_wakes_fire_in_their_slots() {
        // Two wakes armed after a plain event at the same instant, under
        // a block reserved before it, fire first and in block order.
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let t = SimTime::from_nanos(10);
        let base = sim.reserve_seqs(2);
        assert_eq!(sim.reserve_seq(), base + 2, "the block is consumed");
        let l = log.clone();
        sim.schedule_at(t, move |_| l.borrow_mut().push("plain"));
        for (k, name) in [(1, "second"), (0, "first")] {
            let (s, l) = (sim.clone(), log.clone());
            let mut armed = false;
            sim.spawn(std::future::poll_fn(move |cx| {
                if armed {
                    l.borrow_mut().push(name);
                    return Poll::Ready(());
                }
                armed = true;
                s.wake_at_seq(t, base + k, cx.waker().clone());
                Poll::Pending
            }));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["first", "second", "plain"]);
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn deterministic_fingerprint_across_runs() {
        fn build_and_run() -> u64 {
            let sim = Sim::new(99);
            for i in 0..50u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    let mut rng = s.rng("proc");
                    for _ in 0..5 {
                        let d = D::from_nanos(rng.u64_below(1000) + i);
                        s.delay(d).await;
                    }
                });
            }
            sim.run();
            sim.trace_fingerprint()
        }
        assert_eq!(build_and_run(), build_and_run());
    }

    #[test]
    fn hooks_changed_during_an_emission_apply_from_the_next() {
        // The first hook removes itself and installs another while the
        // first event is emitted: that emission still runs the hooks it
        // started with, the next one runs the new set.
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let own_id: Rc<Cell<Option<KernelHookId>>> = Rc::default();
        let (l, id) = (log.clone(), own_id.clone());
        let first = sim.add_kernel_hook(Rc::new(move |sim: &Sim, _| {
            l.borrow_mut().push("first");
            if let Some(me) = id.take() {
                sim.remove_kernel_hook(me);
                let l = l.clone();
                sim.add_kernel_hook(Rc::new(move |_: &Sim, _| l.borrow_mut().push("added")));
            }
        }));
        own_id.set(Some(first));
        let l = log.clone();
        sim.add_kernel_hook(Rc::new(move |_: &Sim, _| l.borrow_mut().push("second")));
        sim.schedule_in(D::from_nanos(1), |_| {});
        sim.schedule_in(D::from_nanos(2), |_| {});
        sim.run();
        assert_eq!(*log.borrow(), vec!["first", "second", "second", "added"]);
    }

    #[test]
    fn counters_track_activity() {
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            s.delay(D::from_secs(1)).await;
        });
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(sim.tasks_spawned(), 1);
        assert!(sim.events_fired() >= 1);

        // Every scheduled callback fires once, and every spawn counts.
        for n in [1_000u64, 10_000] {
            let sim = Sim::new(1);
            for i in 0..n {
                sim.schedule_at(SimTime::from_nanos(i * 7 % 1_000_000), |_| {});
            }
            sim.run();
            assert_eq!(sim.events_fired(), n);
        }
        let sim = Sim::new(4);
        for _ in 0..10_000 {
            let s = sim.clone();
            sim.spawn(async move {
                s.delay(D::from_nanos(1)).await;
            });
        }
        sim.run();
        assert_eq!((sim.tasks_spawned(), sim.live_tasks()), (10_000, 0));
    }

    #[test]
    fn pushes_are_fired_cancelled_or_pending() {
        let sim = Sim::new(1);
        let balanced = |sim: &Sim| {
            let accounted =
                sim.events_fired() + sim.cancelled_events() + sim.pending_events() as u64;
            assert_eq!(sim.pushes(), accounted);
        };
        let a = sim.schedule_in(D::from_secs(1), |_| {});
        let b = sim.schedule_in(D::from_secs(2), |_| {});
        sim.schedule_in(D::from_secs(3), |_| {});
        balanced(&sim);
        a.cancel();
        a.cancel();
        assert_eq!((sim.cancelled_events(), sim.pending_events()), (1, 2));
        balanced(&sim);
        sim.run_until(SimTime::ZERO + D::from_secs(2));
        b.cancel();
        assert_eq!(sim.events_fired(), 1);
        assert_eq!(sim.cancelled_events(), 1, "cancel after fire is a no-op");
        balanced(&sim);
        sim.run();
        assert_eq!((sim.events_fired(), sim.pending_events()), (2, 0));
        balanced(&sim);
    }

    #[test]
    fn won_timeouts_leave_no_residue_in_the_queue() {
        // Each op's 30 s timeout loses its race 1 ms in. Cancelled timers
        // must leave the queue at once, not sit there for 30 s.
        const N: u64 = 10_000;
        let sim = Sim::new(1);
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..N {
                let op = s.clone();
                s.spawn(async move {
                    let fast = op.delay(D::from_millis(1));
                    let r = crate::combinators::timeout(&op, D::from_secs(30), fast).await;
                    assert!(r.is_ok());
                });
                s.delay(D::from_millis(1)).await;
            }
        });
        sim.run();
        assert!(
            sim.peak_heap_depth() <= 16,
            "depth {}",
            sim.peak_heap_depth()
        );
        assert_eq!(sim.cancelled_events(), N);
    }

    /// Cancels its handle when dropped, like a `Delay`.
    struct CancelOnDrop(EventHandle);

    impl Drop for CancelOnDrop {
        fn drop(&mut self) {
            self.0.cancel();
        }
    }

    #[test]
    fn cancelling_a_closure_that_owns_handles_reenters_safely() {
        let sim = Sim::new(1);
        let fired: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let f = fired.clone();
        let inner = sim.schedule_in(D::from_secs(2), move |_| f.borrow_mut().push("inner"));
        let guard = CancelOnDrop(inner.clone());
        let (s, f) = (sim.clone(), fired.clone());
        let mut delay = Box::pin(sim.delay(D::from_secs(3)));
        // Poll the delay once so it holds a queued wake.
        let waker = std::task::Waker::noop();
        assert!(delay
            .as_mut()
            .poll(&mut Context::from_waker(waker))
            .is_pending());
        let outer = sim.schedule_in(D::from_secs(1), move |_| {
            let _keep = (&guard, &delay, &s);
            f.borrow_mut().push("outer");
        });
        assert_eq!(sim.pending_events(), 3);
        outer.cancel();
        assert!(!outer.is_live() && !inner.is_live());
        assert_eq!((sim.cancelled_events(), sim.pending_events()), (3, 0));
        sim.run();
        assert!(fired.borrow().is_empty());
    }

    #[test]
    fn dropping_a_sim_with_pending_handle_owners_is_quiet() {
        let sim = Sim::new(1);
        let a = sim.schedule_in(D::from_secs(1), |_| {});
        let b = sim.schedule_in(D::from_secs(2), |_| {});
        let guard = CancelOnDrop(a.clone());
        let b2 = b.clone();
        sim.schedule_in(D::from_secs(3), move |_| {
            let _keep = (&guard, &b2);
        });
        drop(sim);
        assert!(!a.is_live() && !b.is_live());
        a.cancel();
    }

    #[test]
    fn reserved_seq_fires_in_its_reserved_slot() {
        // The reserved event is armed last but holds the earliest seq,
        // so it fires first among the three equal-time events.
        let sim = Sim::new(1);
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let t = SimTime::from_nanos(10);
        let seq = sim.reserve_seq();
        let (a, b, c) = (log.clone(), log.clone(), log.clone());
        sim.schedule_at(t, move |_| a.borrow_mut().push("plain-1"));
        sim.schedule_at(t, move |_| b.borrow_mut().push("plain-2"));
        sim.schedule_at_seq(t, seq, move |_| c.borrow_mut().push("reserved"));
        sim.run();
        assert_eq!(*log.borrow(), vec!["reserved", "plain-1", "plain-2"]);
    }
}
