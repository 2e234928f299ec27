//! Synchronization primitives for simulation processes.
//!
//! These mirror the shapes of `tokio::sync` but are single-threaded and
//! deterministic: wait queues are strict FIFO, so given the same seed the
//! same process always wins a contended resource. All of them are
//! cancel-safe — dropping a pending future never loses a permit or a
//! message (the invariants the property tests at the bottom check).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

const WAITING: u8 = 0;
const GRANTED: u8 = 1;
const CANCELLED: u8 = 2;

/// One queued acquire. A node is referenced by the FIFO while it waits
/// and by its [`Acquire`] until that picks its permit up or is dropped;
/// whichever lets go last frees the slot.
struct WaitNode {
    state: u8,
    waker: Option<Waker>,
}

/// The wait queue: FIFO of slot indices into a slab of nodes whose
/// freed slots are reused, so a queued acquire allocates nothing once
/// the slab has grown to the queue's peak.
#[derive(Default)]
struct Waiters {
    fifo: VecDeque<u32>,
    nodes: Vec<WaitNode>,
    free: Vec<u32>,
}

impl Waiters {
    fn push(&mut self, waker: Waker) -> u32 {
        let node = WaitNode {
            state: WAITING,
            waker: Some(waker),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("more than u32::MAX queued acquires")
            }
        };
        self.fifo.push_back(slot);
        slot
    }

    fn node(&mut self, slot: u32) -> &mut WaitNode {
        &mut self.nodes[slot as usize]
    }

    fn vacate(&mut self, slot: u32) {
        self.node(slot).waker = None;
        self.free.push(slot);
    }
}

struct SemState {
    permits: Cell<usize>,
    waiters: RefCell<Waiters>,
    acquired_total: Cell<u64>,
}

/// Counting semaphore with FIFO granting. Models any finite-capacity
/// station: storage front-ends, partition servers, replica write pipelines.
#[derive(Clone)]
pub struct Semaphore {
    st: Rc<SemState>,
}

impl Semaphore {
    /// Create with `permits` initially available.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            st: Rc::new(SemState {
                permits: Cell::new(permits),
                waiters: RefCell::default(),
                acquired_total: Cell::new(0),
            }),
        }
    }

    /// Permits currently available (not counting queued waiters).
    pub fn available(&self) -> usize {
        self.st.permits.get()
    }

    /// Total successful acquisitions over the simulation (statistic).
    pub fn acquired_total(&self) -> u64 {
        self.st.acquired_total.get()
    }

    /// Acquire one permit, waiting FIFO behind earlier requesters.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: Rc::clone(&self.st),
            slot: None,
            done: false,
        }
    }

    /// Take a permit immediately if one is free and nobody is queued.
    pub fn try_acquire(&self) -> Option<Permit> {
        self.st.take_if_unqueued().then(|| Permit {
            sem: Rc::clone(&self.st),
        })
    }
}

impl SemState {
    /// Take a free permit if nobody is queued (FIFO), counting it.
    fn take_if_unqueued(&self) -> bool {
        if self.permits.get() > 0 && self.waiters.borrow().fifo.is_empty() {
            self.permits.set(self.permits.get() - 1);
            self.acquired_total.set(self.acquired_total.get() + 1);
            true
        } else {
            false
        }
    }
}

/// Hand the released permit to the first live waiter, else bank it.
/// Cancelled waiters met on the way are freed.
fn release_one(st: &SemState) {
    let mut waiters = st.waiters.borrow_mut();
    while let Some(slot) = waiters.fifo.pop_front() {
        let node = waiters.node(slot);
        if node.state == CANCELLED {
            waiters.vacate(slot);
            continue;
        }
        node.state = GRANTED;
        let waker = node.waker.take();
        drop(waiters);
        if let Some(w) = waker {
            w.wake();
        }
        return;
    }
    st.permits.set(st.permits.get() + 1);
}

/// RAII guard for one semaphore permit; releases on drop.
pub struct Permit {
    sem: Rc<SemState>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        release_one(&self.sem);
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Rc<SemState>,
    slot: Option<u32>,
    done: bool,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        assert!(!self.done, "Acquire polled after completion");
        let this = &mut *self;
        if let Some(slot) = this.slot {
            let mut waiters = this.sem.waiters.borrow_mut();
            let node = waiters.node(slot);
            match node.state {
                GRANTED => {
                    waiters.vacate(slot);
                    drop(waiters);
                    this.slot = None;
                    this.done = true;
                    this.sem
                        .acquired_total
                        .set(this.sem.acquired_total.get() + 1);
                    Poll::Ready(Permit {
                        sem: Rc::clone(&this.sem),
                    })
                }
                WAITING => {
                    node.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
                _ => unreachable!("polled a cancelled Acquire"),
            }
        } else if this.sem.take_if_unqueued() {
            this.done = true;
            Poll::Ready(Permit {
                sem: Rc::clone(&this.sem),
            })
        } else {
            let slot = this.sem.waiters.borrow_mut().push(cx.waker().clone());
            this.slot = Some(slot);
            Poll::Pending
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(slot) = self.slot else {
            return;
        };
        let mut waiters = self.sem.waiters.borrow_mut();
        let node = waiters.node(slot);
        match node.state {
            // Still queued: the FIFO frees the slot when it reaches it.
            WAITING => {
                node.state = CANCELLED;
                node.waker = None;
            }
            // Permit was granted but never picked up: pass it on so it
            // isn't lost (cancel-safety invariant).
            GRANTED => {
                waiters.vacate(slot);
                drop(waiters);
                release_one(&self.sem);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Signal (one-shot broadcast)
// ---------------------------------------------------------------------------

struct SignalState {
    fired: Cell<bool>,
    waiters: RefCell<Vec<Waker>>,
}

/// One-shot broadcast event: any number of processes wait, one `fire()`
/// releases them all. Later waiters pass straight through.
#[derive(Clone)]
pub struct Signal {
    st: Rc<SignalState>,
}

impl Default for Signal {
    fn default() -> Self {
        Self::new()
    }
}

impl Signal {
    /// New unfired signal.
    pub fn new() -> Self {
        Signal {
            st: Rc::new(SignalState {
                fired: Cell::new(false),
                waiters: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Fire the signal, releasing all current and future waiters.
    pub fn fire(&self) {
        if self.st.fired.replace(true) {
            return;
        }
        for w in self.st.waiters.borrow_mut().drain(..) {
            w.wake();
        }
    }

    /// True once fired.
    pub fn is_fired(&self) -> bool {
        self.st.fired.get()
    }

    /// Wait until the signal fires.
    pub fn wait(&self) -> SignalWait {
        SignalWait {
            st: Rc::clone(&self.st),
        }
    }
}

/// Future returned by [`Signal::wait`].
pub struct SignalWait {
    st: Rc<SignalState>,
}

impl Future for SignalWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.st.fired.get() {
            Poll::Ready(())
        } else {
            self.st.waiters.borrow_mut().push(cx.waker().clone());
            Poll::Pending
        }
    }
}

// ---------------------------------------------------------------------------
// Channel (unbounded MPMC)
// ---------------------------------------------------------------------------

struct RecvNode<T> {
    slot: RefCell<Option<T>>,
    cancelled: Cell<bool>,
    waker: RefCell<Option<Waker>>,
}

struct ChanState<T> {
    queue: RefCell<VecDeque<T>>,
    waiters: RefCell<VecDeque<Rc<RecvNode<T>>>>,
    senders: Cell<usize>,
    sent_total: Cell<u64>,
}

/// Create an unbounded multi-producer multi-consumer channel. Items are
/// handed to receivers in FIFO order of both items and waiting receivers.
pub fn channel<T: 'static>() -> (Sender<T>, Receiver<T>) {
    let st = Rc::new(ChanState {
        queue: RefCell::new(VecDeque::new()),
        waiters: RefCell::new(VecDeque::new()),
        senders: Cell::new(1),
        sent_total: Cell::new(0),
    });
    (Sender { st: Rc::clone(&st) }, Receiver { st })
}

/// Sending half; clone for multiple producers. Channel closes when the
/// last sender drops.
pub struct Sender<T> {
    st: Rc<ChanState<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.st.senders.set(self.st.senders.get() + 1);
        Sender {
            st: Rc::clone(&self.st),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let n = self.st.senders.get() - 1;
        self.st.senders.set(n);
        if n == 0 {
            // Closed: wake everyone so they observe the closure.
            for node in self.st.waiters.borrow_mut().drain(..) {
                if let Some(w) = node.waker.borrow_mut().take() {
                    w.wake();
                }
            }
        }
    }
}

impl<T> Sender<T> {
    /// Enqueue `item`, handing it directly to the longest-waiting receiver
    /// if one exists.
    pub fn send(&self, item: T) {
        self.st.sent_total.set(self.st.sent_total.get() + 1);
        let mut waiters = self.st.waiters.borrow_mut();
        while let Some(node) = waiters.pop_front() {
            if node.cancelled.get() {
                continue;
            }
            *node.slot.borrow_mut() = Some(item);
            if let Some(w) = node.waker.borrow_mut().take() {
                w.wake();
            }
            return;
        }
        drop(waiters);
        self.st.queue.borrow_mut().push_back(item);
    }

    /// Messages currently buffered (not yet handed to a receiver).
    pub fn backlog(&self) -> usize {
        self.st.queue.borrow().len()
    }

    /// Total messages ever sent (statistic).
    pub fn sent_total(&self) -> u64 {
        self.st.sent_total.get()
    }
}

/// Receiving half; clone for multiple consumers (work-sharing pool).
pub struct Receiver<T> {
    st: Rc<ChanState<T>>,
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            st: Rc::clone(&self.st),
        }
    }
}

impl<T: 'static> Receiver<T> {
    /// Wait for the next message; `None` once the channel is closed and
    /// drained.
    pub fn recv(&self) -> Recv<T> {
        Recv {
            st: Rc::clone(&self.st),
            node: None,
            done: false,
        }
    }

    /// Messages currently buffered.
    pub fn backlog(&self) -> usize {
        self.st.queue.borrow().len()
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<T> {
    st: Rc<ChanState<T>>,
    node: Option<Rc<RecvNode<T>>>,
    done: bool,
}

impl<T> Future for Recv<T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        assert!(!self.done, "Recv polled after completion");
        if let Some(node) = self.node.clone() {
            if let Some(item) = node.slot.borrow_mut().take() {
                self.done = true;
                return Poll::Ready(Some(item));
            }
            if self.st.senders.get() == 0 {
                self.done = true;
                return Poll::Ready(None);
            }
            *node.waker.borrow_mut() = Some(cx.waker().clone());
            return Poll::Pending;
        }
        // Only take from the buffer if no earlier receiver is queued —
        // preserves receiver FIFO fairness.
        let no_live_waiters = self.st.waiters.borrow().iter().all(|n| n.cancelled.get());
        if no_live_waiters {
            let item = self.st.queue.borrow_mut().pop_front();
            if let Some(item) = item {
                self.done = true;
                return Poll::Ready(Some(item));
            }
        }
        if self.st.senders.get() == 0 {
            self.done = true;
            return Poll::Ready(None);
        }
        let node = Rc::new(RecvNode {
            slot: RefCell::new(None),
            cancelled: Cell::new(false),
            waker: RefCell::new(Some(cx.waker().clone())),
        });
        self.st.waiters.borrow_mut().push_back(Rc::clone(&node));
        self.node = Some(node);
        Poll::Pending
    }
}

impl<T> Drop for Recv<T> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if let Some(node) = &self.node {
            node.cancelled.set(true);
            // An item may have been handed over concurrently with the
            // drop; give it back at the front so ordering is preserved.
            if let Some(item) = node.slot.borrow_mut().take() {
                let mut waiters = self.st.waiters.borrow_mut();
                while let Some(next) = waiters.pop_front() {
                    if next.cancelled.get() {
                        continue;
                    }
                    *next.slot.borrow_mut() = Some(item);
                    if let Some(w) = next.waker.borrow_mut().take() {
                        w.wake();
                    }
                    return;
                }
                drop(waiters);
                self.st.queue.borrow_mut().push_front(item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::time::SimDuration as D;

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(2);
        let peak = Rc::new(Cell::new(0usize));
        let active = Rc::new(Cell::new(0usize));
        for _ in 0..10 {
            let (s, sm, pk, ac) = (sim.clone(), sem.clone(), peak.clone(), active.clone());
            sim.spawn(async move {
                let _p = sm.acquire().await;
                ac.set(ac.get() + 1);
                pk.set(pk.get().max(ac.get()));
                s.delay(D::from_millis(10)).await;
                ac.set(ac.get() - 1);
            });
        }
        sim.run();
        assert_eq!(peak.get(), 2);
        assert_eq!(sem.acquired_total(), 10);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn semaphore_grants_fifo() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let order: Rc<RefCell<Vec<usize>>> = Rc::default();
        // Occupy the permit first.
        let (s0, sm0) = (sim.clone(), sem.clone());
        sim.spawn(async move {
            let _p = sm0.acquire().await;
            s0.delay(D::from_millis(5)).await;
        });
        for i in 0..5 {
            let (s, sm, ord) = (sim.clone(), sem.clone(), order.clone());
            sim.spawn(async move {
                // Stagger arrival so queue order is well-defined.
                s.delay(D::from_micros(i as u64 + 1)).await;
                let _p = sm.acquire().await;
                ord.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dropped_acquire_does_not_leak_permit() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        // Holder takes the permit for 10 ms.
        let (s, sm) = (sim.clone(), sem.clone());
        sim.spawn(async move {
            let _p = sm.acquire().await;
            s.delay(D::from_millis(10)).await;
        });
        // Impatient waiter gives up after 1 ms (drops its Acquire).
        let (s2, sm2) = (sim.clone(), sem.clone());
        sim.spawn(async move {
            let mut acq = Box::pin(sm2.acquire());
            let timeout = s2.delay(D::from_millis(1));
            match crate::combinators::select2(&mut acq, timeout).await {
                crate::combinators::Either::Left(_p) => panic!("should have timed out"),
                crate::combinators::Either::Right(()) => drop(acq),
            }
        });
        // Patient waiter must still eventually get the permit.
        let got = Rc::new(Cell::new(false));
        let (sm3, g) = (sem.clone(), got.clone());
        let s3 = sim.clone();
        sim.spawn(async move {
            s3.delay(D::from_millis(2)).await;
            let _p = sm3.acquire().await;
            g.set(true);
        });
        sim.run();
        assert!(got.get());
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new(1);
        let sem = Semaphore::new(1);
        let p = sem.try_acquire().unwrap();
        assert!(sem.try_acquire().is_none());
        drop(p);
        assert!(sem.try_acquire().is_some());
        drop(sim);
    }

    #[test]
    fn signal_releases_all_waiters() {
        let sim = Sim::new(1);
        let sig = Signal::new();
        let released = Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let (sg, r) = (sig.clone(), released.clone());
            sim.spawn(async move {
                sg.wait().await;
                r.set(r.get() + 1);
            });
        }
        let (s, sg) = (sim.clone(), sig.clone());
        sim.spawn(async move {
            s.delay(D::from_secs(1)).await;
            sg.fire();
        });
        sim.run();
        assert_eq!(released.get(), 4);
        assert!(sig.is_fired());
    }

    #[test]
    fn channel_delivers_in_order() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        let got: Rc<RefCell<Vec<u32>>> = Rc::default();
        let g = got.clone();
        sim.spawn(async move {
            while let Some(v) = rx.recv().await {
                g.borrow_mut().push(v);
            }
        });
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..5 {
                tx.send(i);
                s.delay(D::from_millis(1)).await;
            }
            // tx drops here -> channel closes -> receiver exits.
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.live_tasks(), 0, "receiver must exit on close");
    }

    #[test]
    fn channel_mpmc_work_sharing() {
        let sim = Sim::new(7);
        let (tx, rx) = channel::<u32>();
        let counts: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![0; 3]));
        for w in 0..3usize {
            let (rxc, c, s) = (rx.clone(), counts.clone(), sim.clone());
            sim.spawn(async move {
                while let Some(_v) = rxc.recv().await {
                    c.borrow_mut()[w] += 1;
                    s.delay(D::from_millis(3)).await;
                }
            });
        }
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..30 {
                tx.send(i);
                s.delay(D::from_millis(1)).await;
            }
        });
        sim.run();
        let total: u32 = counts.borrow().iter().sum();
        assert_eq!(total, 30);
        // Work must actually be shared across all three consumers.
        assert!(
            counts.borrow().iter().all(|&c| c > 0),
            "{:?}",
            counts.borrow()
        );
    }

    #[test]
    fn channel_close_drains_buffer_first() {
        let sim = Sim::new(1);
        let (tx, rx) = channel::<u32>();
        tx.send(1);
        tx.send(2);
        drop(tx);
        let got: Rc<RefCell<Vec<Option<u32>>>> = Rc::default();
        let g = got.clone();
        sim.spawn(async move {
            for _ in 0..3 {
                let v = rx.recv().await;
                g.borrow_mut().push(v);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![Some(1), Some(2), None]);
    }
}
