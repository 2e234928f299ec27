//! A minimal single-threaded task executor for simulation processes.
//!
//! Simulation processes are plain `async fn`s. They are **not** `Send`:
//! a whole simulation lives on one thread (parallelism in this project
//! happens *across* independent simulations, one per sweep point). The
//! only cross-thread-capable piece is the waker, because [`std::task::Waker`]
//! requires `Send + Sync`; we satisfy that with an `Arc`-backed ready queue
//! (a `std::sync::Mutex<VecDeque>` that is in practice uncontended).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Identifier of a spawned task (slot index in the task slab).
pub(crate) type TaskId = usize;

/// Queue of tasks that have been woken and must be polled before virtual
/// time advances.
pub(crate) struct ReadyQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

impl ReadyQueue {
    fn new() -> Arc<Self> {
        Arc::new(ReadyQueue {
            queue: Mutex::new(VecDeque::new()),
        })
    }

    pub(crate) fn push(&self, id: TaskId) {
        self.queue
            .lock()
            .expect("ready queue poisoned")
            .push_back(id);
    }

    fn pop(&self) -> Option<TaskId> {
        self.queue.lock().expect("ready queue poisoned").pop_front()
    }
}

/// Waker for one task: waking pushes the task id onto the ready queue.
struct TaskWaker {
    id: TaskId,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready.push(self.id);
    }
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// One slab slot. `Running` marks a task whose future has been taken out
/// for polling, so that re-entrant `spawn`/`wake` calls from inside the
/// poll cannot alias it.
enum Slot {
    Vacant { next_free: Option<TaskId> },
    Occupied { future: LocalFuture, waker: Waker },
    Running,
}

/// The task slab plus ready queue. Owned by the simulation, `!Send`.
pub(crate) struct Executor {
    slots: RefCell<Vec<Slot>>,
    free_head: RefCell<Option<TaskId>>,
    ready: Arc<ReadyQueue>,
    live: std::cell::Cell<usize>,
    spawned_total: std::cell::Cell<u64>,
}

impl Executor {
    pub(crate) fn new() -> Self {
        Executor {
            slots: RefCell::new(Vec::new()),
            free_head: RefCell::new(None),
            ready: ReadyQueue::new(),
            live: std::cell::Cell::new(0),
            spawned_total: std::cell::Cell::new(0),
        }
    }

    /// Number of tasks that have not yet completed.
    pub(crate) fn live_tasks(&self) -> usize {
        self.live.get()
    }

    /// Total tasks ever spawned (simulation statistic).
    pub(crate) fn spawned_total(&self) -> u64 {
        self.spawned_total.get()
    }

    /// Insert a task and mark it ready for its first poll.
    pub(crate) fn spawn(&self, future: LocalFuture) -> TaskId {
        let id = {
            let mut slots = self.slots.borrow_mut();
            let mut free = self.free_head.borrow_mut();
            match *free {
                Some(id) => {
                    let next = match slots[id] {
                        Slot::Vacant { next_free } => next_free,
                        _ => unreachable!("free list points at non-vacant slot"),
                    };
                    *free = next;
                    id
                }
                None => {
                    slots.push(Slot::Vacant { next_free: None });
                    slots.len() - 1
                }
            }
        };
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
        }));
        self.slots.borrow_mut()[id] = Slot::Occupied { future, waker };
        self.live.set(self.live.get() + 1);
        self.spawned_total.set(self.spawned_total.get() + 1);
        self.ready.push(id);
        id
    }

    /// Poll every ready task until the ready queue drains. Returns the
    /// number of polls performed. Tasks spawned or woken during polling are
    /// processed in the same drain (still at the same virtual time).
    pub(crate) fn drain_ready(&self) -> u64 {
        let mut polls = 0;
        while let Some(id) = self.ready.pop() {
            // Take the future out so the slab is not borrowed across the
            // poll (the poll may spawn new tasks or wake this one).
            let taken = {
                let mut slots = self.slots.borrow_mut();
                match &mut slots[id] {
                    slot @ Slot::Occupied { .. } => {
                        let old = std::mem::replace(slot, Slot::Running);
                        match old {
                            Slot::Occupied { future, waker } => Some((future, waker)),
                            _ => unreachable!(),
                        }
                    }
                    // Stale wake for a finished/cancelled task: ignore.
                    Slot::Vacant { .. } => None,
                    // Duplicate wake while the task is mid-poll: the task
                    // will be re-queued by its own waker if still pending;
                    // a duplicate entry is harmless to drop here because
                    // the re-queue happened before we popped this one.
                    Slot::Running => None,
                }
            };
            let Some((mut future, waker)) = taken else {
                continue;
            };
            polls += 1;
            let mut cx = Context::from_waker(&waker);
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(()) => self.release(id),
                Poll::Pending => {
                    self.slots.borrow_mut()[id] = Slot::Occupied { future, waker };
                }
            }
        }
        polls
    }

    fn release(&self, id: TaskId) {
        let mut slots = self.slots.borrow_mut();
        let mut free = self.free_head.borrow_mut();
        slots[id] = Slot::Vacant { next_free: *free };
        *free = Some(id);
        self.live.set(self.live.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn spawn_and_complete_immediately_ready_task() {
        let ex = Executor::new();
        let hit = Rc::new(Cell::new(false));
        let h = hit.clone();
        ex.spawn(Box::pin(async move {
            h.set(true);
        }));
        assert_eq!(ex.live_tasks(), 1);
        ex.drain_ready();
        assert!(hit.get());
        assert_eq!(ex.live_tasks(), 0);
    }

    #[test]
    fn slots_are_reused_after_completion() {
        let ex = Executor::new();
        let a = ex.spawn(Box::pin(async {}));
        ex.drain_ready();
        let b = ex.spawn(Box::pin(async {}));
        assert_eq!(a, b, "freed slot should be reused");
        ex.drain_ready();
        assert_eq!(ex.spawned_total(), 2);
    }

    #[test]
    fn task_spawned_during_drain_runs_in_same_drain() {
        struct YieldOnce(bool);
        impl Future for YieldOnce {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }

        let ex = Rc::new(Executor::new());
        let order = Rc::new(RefCell::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        let ex2 = Rc::clone(&ex);
        ex.spawn(Box::pin(async move {
            o1.borrow_mut().push("outer");
            ex2.spawn(Box::pin(async move {
                o2.borrow_mut().push("inner");
            }));
            YieldOnce(false).await;
        }));
        ex.drain_ready();
        assert_eq!(*order.borrow(), vec!["outer", "inner"]);
        assert_eq!(ex.live_tasks(), 0);
    }

    #[test]
    fn pending_task_stays_live_until_woken() {
        struct WaitForFlag(Rc<Cell<bool>>, Rc<RefCell<Option<Waker>>>);
        impl Future for WaitForFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0.get() {
                    Poll::Ready(())
                } else {
                    *self.1.borrow_mut() = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
        let ex = Executor::new();
        let flag = Rc::new(Cell::new(false));
        let waker_cell: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        ex.spawn(Box::pin(WaitForFlag(flag.clone(), waker_cell.clone())));
        ex.drain_ready();
        assert_eq!(ex.live_tasks(), 1);
        flag.set(true);
        waker_cell.borrow().as_ref().unwrap().wake_by_ref();
        ex.drain_ready();
        assert_eq!(ex.live_tasks(), 0);
    }
}
