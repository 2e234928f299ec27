//! Synchronization primitives for simulation processes.
//!
//! A FIFO [`Semaphore`] and a one-shot [`Signal`]. They mirror the
//! shapes of `tokio::sync` but are single-threaded and deterministic:
//! the wait queue is strict FIFO, so given the same seed the same
//! process always wins a contended resource. Both are cancel-safe —
//! dropping a pending future never loses a permit (the invariant the
//! tests at the bottom check).

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::time::SimDuration as D;

    #[test]
    fn semaphore_limits_concurrency() {
        for (permits, tasks, ops) in [(2, 10, 1), (4, 100, 100)] {
            let sim = Sim::new(1);
            let sem = Semaphore::new(permits);
            let peak = Rc::new(Cell::new(0usize));
            let active = Rc::new(Cell::new(0usize));
            for _ in 0..tasks {
                let (s, sm, pk, ac) = (sim.clone(), sem.clone(), peak.clone(), active.clone());
                sim.spawn(async move {
                    for _ in 0..ops {
                        let _p = sm.acquire().await;
                        ac.set(ac.get() + 1);
                        pk.set(pk.get().max(ac.get()));
                        s.delay(D::from_millis(10)).await;
                        ac.set(ac.get() - 1);
                    }
                });
            }
            sim.run();
            assert_eq!(peak.get(), permits);
            assert_eq!(sem.acquired_total(), tasks * ops);
            assert_eq!(sem.available(), permits);
        }
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
}
