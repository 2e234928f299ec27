//! Differential oracle for the allocation-lean kernel: random task
//! programs run once on the live `Sim`, executor, `Semaphore` and
//! `timeout`, and once on the versions they replaced, kept verbatim
//! under `tests/reference/` (a fresh `Arc` waker and join state per
//! spawn, an `Rc` node per queued acquire, a boxed timeout). Each
//! program is written once, in [`interpreter!`], and expanded against
//! both kernels. The two runs must agree exactly: every task poll
//! (spurious ones included), grant, timeout and spawn in the log, the
//! grant order, the fired-event and cancelled-event counts, the
//! schedule fingerprint and the tasks spawned.
//!
//! The programs mix tied deadlines on a coarse grid, timeouts racing
//! semaphore acquires, acquires dropped while waiting and after being
//! granted, timeouts dropped mid-race, tasks spawned from a finished
//! task's destructor, stale wakers woken after their slot was reused,
//! and joined, dropped and detached spawns side by side.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use proptest::prelude::*;
use simcore::SimDuration;

// The reference kernel resolves `crate::{executor, sim, sync,
// combinators}` to itself and `crate::{queue, rng, time}` to the live
// modules, which this change leaves alone.
#[allow(dead_code)]
#[path = "reference/combinators.rs"]
mod combinators;
#[allow(dead_code)]
#[path = "reference/executor.rs"]
mod executor;
#[allow(dead_code)]
#[path = "reference/sim.rs"]
mod sim;
#[allow(dead_code)]
#[path = "reference/sync.rs"]
mod sync;
mod queue {
    pub use simcore::queue::*;
}
mod rng {
    pub use simcore::rng::*;
}
mod time {
    pub use simcore::time::*;
}

/// One grid step: every instant and duration is a multiple, so
/// deadlines, grants and wakes tie often.
const STEP_NS: u64 = 1_000_000;

fn steps(k: u64) -> SimDuration {
    SimDuration::from_nanos(k * STEP_NS)
}

/// How a task spawns a child.
#[derive(Debug, Clone, Copy)]
enum How {
    /// `spawn`, then await the handle.
    Joined,
    /// `spawn`, dropping the handle.
    Dropped,
    /// `spawn_detached` (plain `spawn` on the reference kernel).
    Detached,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Sleep(u64),
    /// Acquire (under `timeout(limit)` if given), then hold `hold` steps.
    Acquire {
        sem: usize,
        limit: Option<u64>,
        hold: u64,
    },
    /// Race a `patience` delay, polled first, against an acquire: on a
    /// tie the acquire is dropped after its permit was granted.
    Impatient {
        sem: usize,
        patience: u64,
        hold: u64,
    },
    /// Race a `patience` delay against `timeout(limit, acquire)`, so a
    /// pending timeout is dropped mid-race.
    Nested {
        sem: usize,
        patience: u64,
        limit: u64,
        hold: u64,
    },
    /// `timeout(limit, delay(dur))`.
    TimedSleep {
        limit: u64,
        dur: u64,
    },
    /// Spawn a later program.
    Spawn {
        prog: usize,
        how: How,
    },
    /// Spawn a later program from this task's destructor, which the
    /// executor runs once the task has finished.
    SpawnOnDrop {
        prog: usize,
        how: How,
    },
    /// Keep a clone of this task's waker for later wakes.
    Stash,
    /// Wake one stashed waker; its task may have finished and its slot
    /// may hold another task by now.
    WakeStashed(usize),
    /// Wake self and return `Pending` once.
    Yield,
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    permits: Vec<usize>,
    programs: Vec<Vec<Step>>,
    /// `(instant in steps, program, how)`; instant 0 spawns before the
    /// run, later ones from a callback.
    roots: Vec<(u64, usize, How)>,
    /// Callbacks waking a stashed waker: `(instant in steps, index)`.
    calls: Vec<(u64, usize)>,
}

/// What the log records, tagged with the instant and the task label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Poll,
    Granted(usize),
    TimedOut(usize),
    GaveUp(usize),
    Slept,
    Elapsed,
    Spawned(u32),
    Joined(u32),
    Called(usize),
    Done,
}

type Entry = (u64, u32, Ev);

#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    log: Vec<Entry>,
    /// `(semaphore, task label)` in grant order.
    grants: Vec<(usize, u32)>,
    events_fired: u64,
    fingerprint: u64,
    cancelled_events: u64,
    tasks_spawned: u64,
    pushes: u64,
    live_tasks: usize,
    end_ns: u64,
    /// `(available, acquired_total)` per semaphore.
    sems: Vec<(usize, u64)>,
}

/// Label of the spawner outside every task.
const ROOT: u32 = u32::MAX;

/// The program `k` names from program `prog`: only later programs may
/// be spawned, so every run ends.
fn child_of(prog: usize, k: usize, programs: usize) -> Option<usize> {
    let later = programs - prog - 1;
    (later > 0).then(|| prog + 1 + k % later)
}

/// Wake the task once and yield.
struct YieldOnce(bool);

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// The interpreter of [`Scenario`]s, expanded once per kernel. The
/// expansion site must bring `Sim`, `JoinHandle`, `Semaphore`,
/// `timeout`, `select2`, `Either` and a `detach(&Sim, Task)` into scope.
macro_rules! interpreter {
    () => {
        use std::cell::{Cell, RefCell};
        use std::future::Future;
        use std::pin::Pin;
        use std::rc::Rc;
        use std::task::{Context, Poll, Waker};

        use super::{child_of, steps, Entry, Ev, How, Outcome, Scenario, Step, YieldOnce, ROOT};
        use simcore::SimTime;

        struct Ctx {
            sim: Sim,
            sems: Vec<Semaphore>,
            programs: Vec<Vec<Step>>,
            log: RefCell<Vec<Entry>>,
            grants: RefCell<Vec<(usize, u32)>>,
            stash: RefCell<Vec<Waker>>,
            next_label: Cell<u32>,
        }

        impl Ctx {
            fn note(&self, who: u32, ev: Ev) {
                let now = self.sim.now().as_nanos();
                self.log.borrow_mut().push((now, who, ev));
            }

            fn wake_stashed(&self, k: usize) {
                let waker = {
                    let stash = self.stash.borrow();
                    (!stash.is_empty()).then(|| stash[k % stash.len()].clone())
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }

            async fn hold(&self, me: u32, sem: usize, hold: u64) {
                self.note(me, Ev::Granted(sem));
                self.grants.borrow_mut().push((sem, me));
                self.sim.delay(steps(hold)).await;
            }
        }

        /// One spawned task: logs every poll, and spawns its
        /// `SpawnOnDrop` children when the executor drops it.
        pub struct Task {
            ctx: Rc<Ctx>,
            me: u32,
            body: Pin<Box<dyn Future<Output = ()>>>,
            on_drop: Rc<RefCell<Vec<(usize, How)>>>,
        }

        impl Future for Task {
            type Output = ();

            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                self.ctx.note(self.me, Ev::Poll);
                self.body.as_mut().poll(cx)
            }
        }

        impl Drop for Task {
            fn drop(&mut self) {
                let children = std::mem::take(&mut *self.on_drop.borrow_mut());
                for (prog, how) in children {
                    drop(spawn(&self.ctx, self.me, prog, how));
                }
            }
        }

        fn spawn(ctx: &Rc<Ctx>, parent: u32, prog: usize, how: How) -> Option<JoinHandle<()>> {
            let me = ctx.next_label.get();
            ctx.next_label.set(me + 1);
            ctx.note(parent, Ev::Spawned(me));
            let on_drop = Rc::default();
            let task = Task {
                ctx: Rc::clone(ctx),
                me,
                body: Box::pin(body(Rc::clone(ctx), me, prog, Rc::clone(&on_drop))),
                on_drop,
            };
            match how {
                How::Joined => Some(ctx.sim.spawn(task)),
                How::Dropped => {
                    drop(ctx.sim.spawn(task));
                    None
                }
                How::Detached => {
                    detach(&ctx.sim, task);
                    None
                }
            }
        }

        async fn body(ctx: Rc<Ctx>, me: u32, prog: usize, on_drop: Rc<RefCell<Vec<(usize, How)>>>) {
            let programs = ctx.programs.len();
            for step in ctx.programs[prog].clone() {
                match step {
                    Step::Sleep(k) => ctx.sim.delay(steps(k)).await,
                    Step::Acquire { sem, limit, hold } => {
                        let acquire = ctx.sems[sem].acquire();
                        let got = match limit {
                            Some(l) => timeout(&ctx.sim, steps(l), acquire).await.ok(),
                            None => Some(acquire.await),
                        };
                        match got {
                            Some(_permit) => ctx.hold(me, sem, hold).await,
                            None => ctx.note(me, Ev::TimedOut(sem)),
                        }
                    }
                    Step::Impatient {
                        sem,
                        patience,
                        hold,
                    } => {
                        let wait = ctx.sim.delay(steps(patience));
                        match select2(wait, ctx.sems[sem].acquire()).await {
                            Either::Left(()) => ctx.note(me, Ev::GaveUp(sem)),
                            Either::Right(_permit) => ctx.hold(me, sem, hold).await,
                        }
                    }
                    Step::Nested {
                        sem,
                        patience,
                        limit,
                        hold,
                    } => {
                        let wait = ctx.sim.delay(steps(patience));
                        let timed =
                            Box::pin(timeout(&ctx.sim, steps(limit), ctx.sems[sem].acquire()));
                        match select2(wait, timed).await {
                            Either::Left(()) => ctx.note(me, Ev::GaveUp(sem)),
                            Either::Right(Err(_)) => ctx.note(me, Ev::TimedOut(sem)),
                            Either::Right(Ok(_permit)) => ctx.hold(me, sem, hold).await,
                        }
                    }
                    Step::TimedSleep { limit, dur } => {
                        let r = timeout(&ctx.sim, steps(limit), ctx.sim.delay(steps(dur))).await;
                        ctx.note(me, if r.is_ok() { Ev::Slept } else { Ev::Elapsed });
                    }
                    Step::Spawn { prog: k, how } => {
                        let Some(child) = child_of(prog, k, programs) else {
                            continue;
                        };
                        let label = ctx.next_label.get();
                        if let Some(h) = spawn(&ctx, me, child, how) {
                            h.await;
                            ctx.note(me, Ev::Joined(label));
                        }
                    }
                    Step::SpawnOnDrop { prog: k, how } => {
                        if let Some(child) = child_of(prog, k, programs) {
                            on_drop.borrow_mut().push((child, how));
                        }
                    }
                    Step::Stash => {
                        let w = std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
                        ctx.stash.borrow_mut().push(w);
                    }
                    Step::WakeStashed(k) => ctx.wake_stashed(k),
                    Step::Yield => YieldOnce(false).await,
                }
            }
            ctx.note(me, Ev::Done);
        }

        pub fn run(sc: &Scenario) -> Outcome {
            let sim = Sim::new(sc.seed);
            let ctx = Rc::new(Ctx {
                sim: sim.clone(),
                sems: sc.permits.iter().map(|&p| Semaphore::new(p)).collect(),
                programs: sc.programs.clone(),
                log: RefCell::default(),
                grants: RefCell::default(),
                stash: RefCell::default(),
                next_label: Cell::new(0),
            });
            for &(at, prog, how) in &sc.roots {
                let c = Rc::clone(&ctx);
                if at == 0 {
                    drop(spawn(&c, ROOT, prog, how));
                } else {
                    sim.schedule_at(SimTime::ZERO + steps(at), move |_| {
                        drop(spawn(&c, ROOT, prog, how));
                    });
                }
            }
            for &(at, k) in &sc.calls {
                let c = Rc::clone(&ctx);
                sim.schedule_at(SimTime::ZERO + steps(at), move |_| {
                    c.note(ROOT, Ev::Called(k));
                    c.wake_stashed(k);
                });
            }
            sim.run();
            Outcome {
                log: ctx.log.take(),
                grants: ctx.grants.take(),
                events_fired: sim.events_fired(),
                fingerprint: sim.trace_fingerprint(),
                cancelled_events: sim.cancelled_events(),
                tasks_spawned: sim.tasks_spawned(),
                pushes: sim.pushes(),
                live_tasks: sim.live_tasks(),
                end_ns: sim.now().as_nanos(),
                sems: ctx
                    .sems
                    .iter()
                    .map(|s| (s.available(), s.acquired_total()))
                    .collect(),
            }
        }
    };
}

/// The live kernel.
mod lean {
    use simcore::combinators::{select2, timeout, Either};
    use simcore::sync::Semaphore;
    use simcore::{JoinHandle, Sim};

    // Model code detaches `async` blocks, which drop what they own
    // inside their last poll, as the reference `spawn` does with its
    // future. A hand-written future is dropped only after its slot is
    // freed: `executor_differential` holds that to the reference
    // executor. The block is what moves the drop into the poll.
    #[allow(clippy::redundant_async_block)]
    fn detach(sim: &Sim, task: Task) {
        sim.spawn_detached(async move { task.await });
    }

    interpreter!();
}

/// The kernel this one replaced.
mod old {
    use crate::combinators::{select2, timeout, Either};
    use crate::sim::{JoinHandle, Sim};
    use crate::sync::Semaphore;

    fn detach(sim: &Sim, task: Task) {
        drop(sim.spawn(task));
    }

    interpreter!();
}

fn how() -> impl Strategy<Value = How> {
    prop_oneof![Just(How::Joined), Just(How::Dropped), Just(How::Detached)]
}

fn step(sems: usize) -> impl Strategy<Value = Step> {
    let sem = 0..sems;
    let short = 0u64..4;
    prop_oneof![
        short.clone().prop_map(Step::Sleep),
        (sem.clone(), prop::option::of(short.clone()), short.clone())
            .prop_map(|(sem, limit, hold)| Step::Acquire { sem, limit, hold }),
        (sem.clone(), short.clone(), short.clone()).prop_map(|(sem, patience, hold)| {
            Step::Impatient {
                sem,
                patience,
                hold,
            }
        }),
        (sem, short.clone(), short.clone(), short.clone()).prop_map(
            |(sem, patience, limit, hold)| Step::Nested {
                sem,
                patience,
                limit,
                hold,
            }
        ),
        (short.clone(), short).prop_map(|(limit, dur)| Step::TimedSleep { limit, dur }),
        (0usize..8, how()).prop_map(|(prog, how)| Step::Spawn { prog, how }),
        (0usize..8, how()).prop_map(|(prog, how)| Step::SpawnOnDrop { prog, how }),
        Just(Step::Stash),
        (0usize..8).prop_map(Step::WakeStashed),
        Just(Step::Yield),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    prop::collection::vec(1usize..3, 1..4).prop_flat_map(|permits| {
        let sems = permits.len();
        (
            (Just(permits), 0u64..1_000),
            prop::collection::vec(prop::collection::vec(step(sems), 1..8), 1..6),
            prop::collection::vec((0u64..4, 0usize..6, how()), 1..6),
            prop::collection::vec((0u64..12, 0usize..8), 0..4),
        )
            .prop_map(|((permits, seed), programs, mut roots, calls)| {
                for root in &mut roots {
                    root.1 %= programs.len();
                }
                Scenario {
                    seed,
                    permits,
                    programs,
                    roots,
                    calls,
                }
            })
    })
}

fn assert_same(sc: &Scenario) {
    let new = lean::run(sc);
    let old = old::run(sc);
    if let Some(i) =
        (0..new.log.len().max(old.log.len())).find(|&i| new.log.get(i) != old.log.get(i))
    {
        let from = i.saturating_sub(6);
        panic!(
            "logs diverge at entry {i} on {sc:?}\nlean: {:?}\nold:  {:?}",
            &new.log[from..(i + 3).min(new.log.len())],
            &old.log[from..(i + 3).min(old.log.len())],
        );
    }
    assert_eq!(new, old, "kernels diverged on {sc:?}");
    assert_eq!(new.live_tasks, 0, "a task never finished");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lean_kernel_fires_the_reference_schedule(sc in scenario()) {
        assert_same(&sc);
    }
}

/// Two waiters queue behind a held permit; the grants follow the queue.
#[test]
fn grants_follow_the_queue_on_both_kernels() {
    let sc = Scenario {
        seed: 1,
        permits: vec![1],
        programs: vec![vec![Step::Acquire {
            sem: 0,
            limit: None,
            hold: 1,
        }]],
        roots: vec![
            (0, 0, How::Detached),
            (0, 0, How::Dropped),
            (0, 0, How::Joined),
        ],
        calls: vec![],
    };
    assert_same(&sc);
    assert_eq!(lean::run(&sc).grants, vec![(0, 0), (0, 1), (0, 2)]);
}

/// Executor-level programs: no events, only polls, spawns and wakes.
#[derive(Debug, Clone, Copy)]
enum XStep {
    Stash,
    WakeStashed(usize),
    Yield,
    /// Stash this task's waker and return `Pending`: only a wake through
    /// some stashed waker resumes the task.
    Park,
    /// Spawn a later program.
    Spawn(usize),
    /// Spawn a later program from this future's destructor.
    SpawnOnDrop(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum XEv {
    Poll,
    Spawned(u32),
    Done,
    /// `xrun` wakes every stashed waker to resume parked tasks.
    WakeAll,
}

/// Spawns a boxed future straight onto an executor: the live kernel's
/// `spawn_detached` or the reference `Executor::spawn`.
trait Spawner: Clone + 'static {
    fn spawn_boxed(&self, future: Pin<Box<dyn Future<Output = ()>>>);
}

impl Spawner for simcore::Sim {
    fn spawn_boxed(&self, future: Pin<Box<dyn Future<Output = ()>>>) {
        self.spawn_detached(future);
    }
}

impl Spawner for std::rc::Rc<executor::Executor> {
    fn spawn_boxed(&self, future: Pin<Box<dyn Future<Output = ()>>>) {
        self.spawn(future);
    }
}

struct XCtx<S> {
    spawner: S,
    programs: Vec<Vec<XStep>>,
    log: std::cell::RefCell<Vec<(u32, XEv)>>,
    stash: std::cell::RefCell<Vec<std::task::Waker>>,
    next_label: std::cell::Cell<u32>,
}

/// A hand-written task future: the executor drops it, and so runs its
/// `SpawnOnDrop` children's spawns, after the poll that finished it.
struct XTask<S: Spawner> {
    ctx: std::rc::Rc<XCtx<S>>,
    me: u32,
    at: usize,
    prog: usize,
    on_drop: Vec<usize>,
}

fn xspawn<S: Spawner>(ctx: &std::rc::Rc<XCtx<S>>, parent: u32, prog: usize) {
    let me = ctx.next_label.get();
    ctx.next_label.set(me + 1);
    ctx.log.borrow_mut().push((parent, XEv::Spawned(me)));
    let task = XTask {
        ctx: std::rc::Rc::clone(ctx),
        me,
        at: 0,
        prog,
        on_drop: Vec::new(),
    };
    ctx.spawner.spawn_boxed(Box::pin(task));
}

impl<S: Spawner> Future for XTask<S> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let ctx = std::rc::Rc::clone(&this.ctx);
        ctx.log.borrow_mut().push((this.me, XEv::Poll));
        let programs = ctx.programs.len();
        while let Some(&step) = ctx.programs[this.prog].get(this.at) {
            this.at += 1;
            match step {
                XStep::Stash => ctx.stash.borrow_mut().push(cx.waker().clone()),
                XStep::WakeStashed(k) => {
                    let waker = {
                        let stash = ctx.stash.borrow();
                        (!stash.is_empty()).then(|| stash[k % stash.len()].clone())
                    };
                    if let Some(w) = waker {
                        w.wake();
                    }
                }
                XStep::Yield => {
                    cx.waker().wake_by_ref();
                    return Poll::Pending;
                }
                XStep::Park => {
                    ctx.stash.borrow_mut().push(cx.waker().clone());
                    return Poll::Pending;
                }
                XStep::Spawn(k) => {
                    if let Some(child) = child_of(this.prog, k, programs) {
                        xspawn(&ctx, this.me, child);
                    }
                }
                XStep::SpawnOnDrop(k) => this.on_drop.extend(child_of(this.prog, k, programs)),
            }
        }
        ctx.log.borrow_mut().push((this.me, XEv::Done));
        Poll::Ready(())
    }
}

impl<S: Spawner> Drop for XTask<S> {
    fn drop(&mut self) {
        for prog in std::mem::take(&mut self.on_drop) {
            xspawn(&self.ctx, self.me, prog);
        }
    }
}

/// Run `roots` to completion: `drain` polls until nothing is ready and
/// returns the live tasks; while any remain (parked), wake every
/// stashed waker and drain again. Each resume advances its task, so
/// this ends.
fn xrun<S: Spawner>(
    spawner: S,
    programs: &[Vec<XStep>],
    roots: &[usize],
    drain: impl Fn(&S) -> usize,
) -> Vec<(u32, XEv)> {
    let ctx = std::rc::Rc::new(XCtx {
        spawner,
        programs: programs.to_vec(),
        log: Default::default(),
        stash: Default::default(),
        next_label: Default::default(),
    });
    for &prog in roots {
        xspawn(&ctx, ROOT, prog % programs.len());
    }
    while drain(&ctx.spawner) > 0 {
        ctx.log.borrow_mut().push((ROOT, XEv::WakeAll));
        let stash = ctx.stash.take();
        for w in stash {
            w.wake();
        }
    }
    ctx.log.take()
}

fn xstep() -> impl Strategy<Value = XStep> {
    prop_oneof![
        Just(XStep::Stash),
        (0usize..8).prop_map(XStep::WakeStashed),
        Just(XStep::Yield),
        Just(XStep::Park),
        (0usize..8).prop_map(XStep::Spawn),
        (0usize..8).prop_map(XStep::SpawnOnDrop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `spawn_detached` of a hand-written future behaves as the
    /// reference executor's spawn: same polls (stale wakes into reused
    /// slots included), same spawn order, same counts.
    #[test]
    fn executor_differential(
        programs in prop::collection::vec(prop::collection::vec(xstep(), 1..8), 1..6),
        roots in prop::collection::vec(0usize..6, 1..5),
    ) {
        let sim = simcore::Sim::new(1);
        let lean = xrun(sim.clone(), &programs, &roots, lean_drain);
        let ex = std::rc::Rc::new(executor::Executor::new());
        let old = xrun(std::rc::Rc::clone(&ex), &programs, &roots, old_drain);
        prop_assert_eq!(&lean, &old, "{:?} from {:?}", programs, roots);
        prop_assert_eq!(sim.tasks_spawned(), ex.spawned_total());
        prop_assert_eq!((sim.live_tasks(), ex.live_tasks()), (0, 0));
    }
}

fn lean_drain(sim: &simcore::Sim) -> usize {
    sim.run();
    sim.live_tasks()
}

fn old_drain(ex: &std::rc::Rc<executor::Executor>) -> usize {
    ex.drain_ready();
    ex.live_tasks()
}

/// A finished task's destructor spawns a child, which takes the slot
/// the task just freed: a wake through the finished task's stashed
/// waker then resumes the parked child, before `xrun` wakes them all.
#[test]
fn destructor_spawn_takes_the_freed_slot() {
    let programs = vec![
        vec![XStep::Stash, XStep::SpawnOnDrop(0)],
        vec![XStep::Park],
        vec![XStep::WakeStashed(0)],
    ];
    let lean = xrun(simcore::Sim::new(1), &programs, &[0, 2], lean_drain);
    let ex = std::rc::Rc::new(executor::Executor::new());
    assert_eq!(lean, xrun(ex, &programs, &[0, 2], old_drain));
    assert_eq!(lean.last(), Some(&(2, XEv::Done)), "{lean:?}");
    assert!(!lean.contains(&(ROOT, XEv::WakeAll)), "{lean:?}");
}
