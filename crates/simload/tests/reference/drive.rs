//! The one open-loop driver every measurement cell runs on.
//!
//! [`drive`] owns the coordinated-omission-free accounting shared by
//! `run_open_loop`, the elastic cell, the geo cell and the consistency
//! cell: it spawns one task per scheduled arrival (in index order),
//! sleeps each until its instant, awaits the caller's op, charges the
//! latency from the *scheduled* instant, counts completions draining
//! inside the measurement window, feeds the [`LoadObserver`] an
//! external control loop reads, and records the window's cohort in an
//! [`SloTracker`]. Callers keep only what is specific to them: the op
//! itself (with its trace span) and their control-plane tasks, spawned
//! between [`drive`] and [`Drive::run`].

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use azstore::StorageError;
use simcore::prelude::*;
use simfault::GiveUp;

use crate::slo::{FailClass, SloTracker};

/// Where one schedule sits on the sim clock and which of its arrivals
/// are measured.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Absolute instant the schedule starts: arrival `t` fires at
    /// `offset_s + t`.
    pub offset_s: f64,
    /// Arrivals with `t < warmup_s` run but are not recorded.
    pub warmup_s: f64,
    /// Measurement window length after the warmup, seconds.
    pub window_s: f64,
    /// Latency SLO, seconds from the scheduled instant.
    pub deadline_s: f64,
}

/// What one arrival's op reports. `Ok` carries the observed staleness
/// of a read that measures it (recorded into the tracker's staleness
/// stream), `Err` the final error and why the client gave up.
pub type OpResult = Result<Option<f64>, (StorageError, GiveUp)>;

/// Live progress counters of a driven schedule, shared with whoever is
/// watching the fleet (the elastic supervisor reads queue depth as
/// `dispatched - completed` and the shed count between control ticks).
#[derive(Debug, Default)]
pub struct LoadObserver {
    /// Arrivals whose scheduled instant has passed (op issued).
    pub dispatched: Cell<u64>,
    /// Ops finished, successfully or not.
    pub completed: Cell<u64>,
    /// Ops finished successfully within the deadline.
    pub good: Cell<u64>,
    /// Ops failed with a shed (`ServerBusy`) response.
    pub shed: Cell<u64>,
}

impl LoadObserver {
    /// Ops issued but not yet finished — the fleet's backlog.
    pub fn in_flight(&self) -> u64 {
        self.dispatched.get() - self.completed.get()
    }
}

/// The four measurements every open-loop result carries.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Arrivals scheduled in the window, per second of window.
    pub scheduled_ops_s: f64,
    /// Successful completion *events* inside the window, over the
    /// window, from any arrival (warmup cohort included). In steady
    /// state completions of warmup arrivals inside the window balance
    /// window arrivals completing after it, so this is the unbiased
    /// throughput on both sides of the knee.
    pub achieved_ops_s: f64,
    /// In-window completions that also met the deadline, per second.
    pub goodput_ops_s: f64,
    /// SLO accounting over the cohort of arrivals *scheduled* in the
    /// window.
    pub slo: SloTracker,
}

/// State every arrival task of one schedule shares (one allocation per
/// schedule, one pointer per task).
struct Shared<F> {
    sim: Sim,
    op: F,
    window: Window,
    tracker: RefCell<SloTracker>,
    /// Successful completions inside the window: `(all, within deadline)`.
    drained: Cell<(u64, u64)>,
    observer: Rc<LoadObserver>,
}

/// A schedule whose arrival tasks are spawned; [`run`](Drive::run)
/// drives the sim and collects the measurements.
pub struct Drive<F> {
    shared: Rc<Shared<F>>,
}

/// The sim instant an arrival scheduled at `sched_s` seconds fires.
fn instant(sched_s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(sched_s)
}

/// Seconds from the scheduled instant `sched_s` to now — the
/// coordinated-omission-free latency the driver records (ops use it for
/// their span attributes).
pub fn latency_since(sim: &Sim, sched_s: f64) -> f64 {
    (sim.now() - instant(sched_s)).as_secs_f64()
}

/// Spawn one task per arrival of `instants` (seconds relative to
/// `window.offset_s`, ascending), in index order. Task `i` sleeps until
/// `sched_s = offset_s + instants[i]`, then awaits `op(i, sched_s)`.
/// Arrivals at or after `warmup_s` are noted as scheduled now and
/// recorded when they finish. Does not call `sim.run()`: spawn any
/// control-plane tasks, then call [`Drive::run`].
pub fn drive<F, Fut>(sim: &Sim, instants: &[f64], window: Window, op: F) -> Drive<F>
where
    F: Fn(usize, f64) -> Fut + 'static,
    Fut: Future<Output = OpResult> + 'static,
{
    let shared = Rc::new(Shared {
        sim: sim.clone(),
        op,
        window,
        tracker: RefCell::new(SloTracker::new(window.deadline_s)),
        drained: Cell::new((0, 0)),
        observer: Rc::new(LoadObserver::default()),
    });
    for (i, &t) in instants.iter().enumerate() {
        if t >= window.warmup_s {
            shared.tracker.borrow_mut().note_scheduled();
        }
        let shared = Rc::clone(&shared);
        // Only `shared`, `i` and `t` live across the sleep: every
        // arrival's task is spawned up front, so its size is the
        // schedule's memory footprint.
        sim.spawn(async move {
            let at = instant(shared.window.offset_s + t);
            shared.sim.sleep_until(at).await;
            let obs = &shared.observer;
            obs.dispatched.set(obs.dispatched.get() + 1);
            let res = (shared.op)(i, shared.window.offset_s + t).await;
            shared.finish(t, res);
        });
    }
    Drive { shared }
}

impl<F> Shared<F> {
    /// Account one finished arrival scheduled at relative instant `t`.
    fn finish(&self, t: f64, res: OpResult) {
        let (s, w) = (&self.sim, &self.window);
        let latency_s = latency_since(s, w.offset_s + t);
        let met = latency_s <= w.deadline_s;
        let done_s = s.now().as_secs_f64();
        let obs = &self.observer;
        obs.completed.set(obs.completed.get() + 1);
        match &res {
            Ok(_) if met => obs.good.set(obs.good.get() + 1),
            Err((StorageError::ServerBusy, _)) => obs.shed.set(obs.shed.get() + 1),
            _ => {}
        }
        let (from, to) = (
            w.offset_s + w.warmup_s,
            w.offset_s + (w.warmup_s + w.window_s),
        );
        if res.is_ok() && (from..to).contains(&done_s) {
            let (all, good) = self.drained.get();
            self.drained.set((all + 1, good + met as u64));
        }
        if t >= w.warmup_s {
            let mut tr = self.tracker.borrow_mut();
            match res {
                Ok(staleness) => {
                    tr.record_ok(latency_s, done_s);
                    if let Some(st) = staleness {
                        tr.record_staleness(st);
                    }
                }
                Err((e, giveup)) => tr.record_fail(classify(&e, giveup)),
            }
        }
    }
}

impl<F> Drive<F> {
    /// The schedule's live progress counters.
    pub fn observer(&self) -> Rc<LoadObserver> {
        Rc::clone(&self.shared.observer)
    }

    /// Run the sim to completion and collect the measurements.
    pub fn run(self) -> Measured {
        self.shared.sim.run();
        let Ok(shared) = Rc::try_unwrap(self.shared) else {
            panic!("arrival tasks outlived sim.run()");
        };
        let window_s = shared.window.window_s;
        let (all, good) = shared.drained.get();
        let slo = shared.tracker.into_inner();
        Measured {
            scheduled_ops_s: slo.scheduled as f64 / window_s,
            achieved_ops_s: all as f64 / window_s,
            goodput_ops_s: good as f64 / window_s,
            slo,
        }
    }
}

/// Map a final error + give-up reason to its SLO failure class.
fn classify(e: &StorageError, giveup: GiveUp) -> FailClass {
    match (e, giveup) {
        (StorageError::ServerBusy, GiveUp::BudgetExhausted) => FailClass::BudgetExhausted,
        (StorageError::ServerBusy, _) => FailClass::Shed,
        (StorageError::Timeout, _) => FailClass::Timeout,
        _ => FailClass::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_semantics_on_a_hand_placed_schedule() {
        use GiveUp::{BudgetExhausted, NotRetryable};
        use StorageError::{NotFound, ServerBusy, Timeout};
        // Window: arrivals fire at 10 + t; t < 1 is warmup; completions
        // drain inside [11, 15).
        let window = Window {
            offset_s: 10.0,
            warmup_s: 1.0,
            window_s: 4.0,
            deadline_s: 0.5,
        };
        // (relative instant, how long the op takes, what it reports)
        let script: Vec<(f64, f64, OpResult)> = vec![
            // Warmup: finishes exactly at the window start (drained),
            // its latency and staleness never recorded.
            (0.0, 1.0, Ok(Some(9.0))),
            // Warmup: finishes before the window (not drained).
            (0.5, 0.1, Ok(None)),
            // Measured, on time, drained and good.
            (1.0, 0.2, Ok(Some(0.25))),
            // Measured, late, finishes exactly at the horizon (excluded).
            (2.0, 3.0, Ok(None)),
            // One failure of each class.
            (2.5, 0.3, Err((ServerBusy, NotRetryable))),
            (2.6, 0.3, Err((ServerBusy, BudgetExhausted))),
            (2.7, 0.3, Err((Timeout, NotRetryable))),
            (2.8, 0.3, Err((NotFound, NotRetryable))),
        ];
        let instants: Vec<f64> = script.iter().map(|a| a.0).collect();
        let sim = Sim::new(1);
        let s = sim.clone();
        let run = drive(&sim, &instants, window, move |i, sched_s| {
            assert_eq!(sched_s, 10.0 + script[i].0, "op gets the absolute instant");
            let (s, (_, took_s, res)) = (s.clone(), script[i].clone());
            async move {
                s.delay(SimDuration::from_secs_f64(took_s)).await;
                res
            }
        });

        // Mid-run probe at 12.55: arrivals 0–4 dispatched, 0–2 done.
        let observer = run.observer();
        let probe = sim.spawn({
            let s = sim.clone();
            let observer = Rc::clone(&observer);
            async move {
                s.sleep_until(instant(12.55)).await;
                let o = &observer;
                (o.dispatched.get(), o.completed.get(), o.in_flight())
            }
        });
        let m = run.run();
        assert_eq!(probe.try_take(), Some((5, 3, 2)));
        assert_eq!(observer.in_flight(), 0);
        assert_eq!(observer.good.get(), 2, "arrivals 1 and 2 met the deadline");
        assert_eq!(observer.shed.get(), 2, "both ServerBusy failures");

        let slo = &m.slo;
        assert_eq!(slo.scheduled, 6, "warmup arrivals are not scheduled");
        assert_eq!(m.scheduled_ops_s, 1.5);
        assert_eq!((slo.completed, slo.late), (2, 1));
        assert_eq!(
            (slo.failed, slo.shed, slo.budget_exhausted, slo.timed_out),
            (4, 1, 1, 1),
            "shed / budget / timeout tallied apart; NotFound only in `failed`"
        );
        // Latency from 10 + t, not from t or from issue: 0.2 and 3.0.
        assert!(
            (slo.latency.min() - 0.2).abs() < 1e-9,
            "{}",
            slo.latency.min()
        );
        assert!(
            (slo.latency.max() - 3.0).abs() < 1e-9,
            "{}",
            slo.latency.max()
        );
        assert_eq!(slo.staleness.count(), 1);
        assert_eq!(slo.staleness.max(), 0.25);
        // Drained: arrival 0 (ends at 11.0) and 2 (11.2); arrival 3
        // ends at 15.0, outside [11, 15). Only arrival 2 met the SLO.
        assert_eq!(m.achieved_ops_s, 2.0 / 4.0);
        assert_eq!(m.goodput_ops_s, 1.0 / 4.0);
    }
}
