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

struct WaitNode {
    state: Cell<u8>,
    waker: RefCell<Option<Waker>>,
}

struct SemState {
    permits: Cell<usize>,
    queue: RefCell<VecDeque<Rc<WaitNode>>>,
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
                queue: RefCell::new(VecDeque::new()),
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
            node: None,
            done: false,
        }
    }

    /// Take a permit immediately if one is free and nobody is queued.
    pub fn try_acquire(&self) -> Option<Permit> {
        if self.st.permits.get() > 0 && self.st.queue.borrow().is_empty() {
            self.st.permits.set(self.st.permits.get() - 1);
            self.st.acquired_total.set(self.st.acquired_total.get() + 1);
            Some(Permit {
                sem: Rc::clone(&self.st),
            })
        } else {
            None
        }
    }
}

/// Hand the released permit to the first live waiter, else bank it.
fn release_one(st: &Rc<SemState>) {
    let mut queue = st.queue.borrow_mut();
    while let Some(node) = queue.pop_front() {
        if node.state.get() == CANCELLED {
            continue;
        }
        node.state.set(GRANTED);
        if let Some(w) = node.waker.borrow_mut().take() {
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
    node: Option<Rc<WaitNode>>,
    done: bool,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        assert!(!self.done, "Acquire polled after completion");
        if let Some(node) = &self.node {
            match node.state.get() {
                GRANTED => {
                    self.done = true;
                    self.sem
                        .acquired_total
                        .set(self.sem.acquired_total.get() + 1);
                    Poll::Ready(Permit {
                        sem: Rc::clone(&self.sem),
                    })
                }
                WAITING => {
                    *node.waker.borrow_mut() = Some(cx.waker().clone());
                    Poll::Pending
                }
                _ => unreachable!("polled a cancelled Acquire"),
            }
        } else {
            // Fast path only when nobody is already queued (FIFO).
            if self.sem.permits.get() > 0 && self.sem.queue.borrow().is_empty() {
                self.sem.permits.set(self.sem.permits.get() - 1);
                self.sem
                    .acquired_total
                    .set(self.sem.acquired_total.get() + 1);
                self.done = true;
                return Poll::Ready(Permit {
                    sem: Rc::clone(&self.sem),
                });
            }
            let node = Rc::new(WaitNode {
                state: Cell::new(WAITING),
                waker: RefCell::new(Some(cx.waker().clone())),
            });
            self.sem.queue.borrow_mut().push_back(Rc::clone(&node));
            self.node = Some(node);
            Poll::Pending
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if let Some(node) = &self.node {
            match node.state.get() {
                WAITING => node.state.set(CANCELLED),
                // Permit was granted but never picked up: pass it on so it
                // isn't lost (cancel-safety invariant).
                GRANTED => release_one(&self.sem),
                _ => {}
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
}
