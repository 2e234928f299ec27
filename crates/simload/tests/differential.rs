//! Differential oracle for the lazy arrival cursor behind
//! [`simload::drive`]: random schedules run through the current driver
//! and through the eager one (a sleeping task per arrival, spawned up
//! front) kept verbatim under `tests/reference/`, each on its own `Sim`.
//! The two must agree exactly: the fired log, the number of fired
//! kernel events, the schedule fingerprint, the cancelled events, every
//! measurement bit for bit and what a control-plane task observes
//! mid-run.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use azstore::StorageError;
use proptest::prelude::*;
use simcore::prelude::*;
use simfault::GiveUp;
use simload::{OpResult, SloTracker};

/// The module the reference driver resolves `crate::slo` against.
mod slo {
    pub use simload::{FailClass, SloTracker};
}

#[allow(dead_code)]
#[path = "reference/drive.rs"]
mod reference;

/// One grid step: every instant and duration is a multiple, so ties
/// between arrivals, op ends, probes and control events are common.
const STEP_NS: u64 = 500_000;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Report at once: the op finishes inside the arrival's poll.
    Inline(u8),
    /// Sleep this many steps (0 is ready at once), then report.
    Sleep(u64, u8),
    /// Schedule a callback this many steps ahead, then report at once.
    Schedule(u64),
    /// Spawn a child that sleeps this many steps, then sleep one step.
    Spawn(u64),
}

#[derive(Debug, Clone)]
struct Scenario {
    /// Clock advance before anything is spawned, in steps.
    pre_steps: u64,
    offset_steps: u64,
    /// Relative arrival instants, in steps, ascending.
    instants: Vec<u64>,
    warmup_steps: u64,
    window_steps: u64,
    deadline_steps: u64,
    /// Op of arrival `i` is `ops[i % ops.len()]`.
    ops: Vec<Op>,
    /// A task spawned before the driver sleeps this many steps.
    early_task_steps: u64,
    /// Control-plane probe instants (absolute steps, ascending).
    probes: Vec<u64>,
}

fn secs(steps: u64) -> f64 {
    steps as f64 * STEP_NS as f64 * 1e-9
}

fn at(steps: u64) -> SimTime {
    SimTime::from_nanos(steps * STEP_NS)
}

fn result(code: u8) -> OpResult {
    match code % 5 {
        0 => Ok(None),
        1 => Ok(Some(0.25)),
        2 => Err((StorageError::ServerBusy, GiveUp::NotRetryable)),
        3 => Err((StorageError::ServerBusy, GiveUp::BudgetExhausted)),
        _ => Err((StorageError::Timeout, GiveUp::NotRetryable)),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5).prop_map(Op::Inline),
        (0u64..6, 0u8..5).prop_map(|(d, r)| Op::Sleep(d, r)),
        (0u64..6).prop_map(Op::Schedule),
        (0u64..6).prop_map(Op::Spawn),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            prop_oneof![Just(0u64), 0u64..6],
            prop_oneof![Just(0u64), 0u64..4],
            prop::collection::vec(prop_oneof![Just(0u64), 0u64..40], 0..48),
        ),
        (0u64..8, 1u64..40, 1u64..8),
        prop::collection::vec(op_strategy(), 1..6),
        (0u64..8, prop::collection::vec(0u64..50, 0..6)),
    )
        .prop_map(
            |(
                (pre_steps, offset_steps, mut instants),
                (warmup_steps, window_steps, deadline_steps),
                ops,
                (early_task_steps, mut probes),
            )| {
                instants.sort_unstable();
                probes.sort_unstable();
                Scenario {
                    pre_steps,
                    offset_steps,
                    instants,
                    warmup_steps,
                    window_steps,
                    deadline_steps,
                    ops,
                    early_task_steps,
                    probes,
                }
            },
        )
}

type Log = Rc<RefCell<Vec<(u64, &'static str, usize)>>>;
type BoxedOp = Pin<Box<dyn Future<Output = OpResult>>>;
/// Observer probes: `(instant ns, [dispatched, completed, good, shed])`.
type Probes = Rc<RefCell<Vec<(u64, [u64; 4])>>>;

fn note(log: &Log, sim: &Sim, what: &'static str, who: usize) {
    log.borrow_mut().push((sim.now().as_nanos(), what, who));
}

/// The scenario's op, shared by both drivers.
fn make_op(sim: &Sim, sc: &Scenario, log: &Log) -> impl Fn(usize, f64) -> BoxedOp + 'static {
    let (sim, ops, log) = (sim.clone(), sc.ops.clone(), Rc::clone(log));
    move |i, sched_s| {
        let (s, log) = (sim.clone(), Rc::clone(&log));
        let op = ops[i % ops.len()];
        Box::pin(async move {
            log.borrow_mut().push((sched_s.to_bits(), "sched", i));
            note(&log, &s, "start", i);
            let code = match op {
                Op::Inline(r) => r,
                Op::Sleep(d, r) => {
                    s.delay(SimDuration::from_nanos(d * STEP_NS)).await;
                    r
                }
                Op::Schedule(d) => {
                    let l = Rc::clone(&log);
                    s.schedule_in(SimDuration::from_nanos(d * STEP_NS), move |s| {
                        note(&l, s, "scheduled", i)
                    });
                    0
                }
                Op::Spawn(d) => {
                    let (c, l) = (s.clone(), Rc::clone(&log));
                    s.spawn(async move {
                        c.delay(SimDuration::from_nanos(d * STEP_NS)).await;
                        note(&l, &c, "child", i);
                    });
                    s.delay(SimDuration::from_nanos(STEP_NS)).await;
                    1
                }
            };
            note(&log, &s, "end", i);
            result(code)
        })
    }
}

/// Everything the two drivers must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(u64, &'static str, usize)>,
    probes: Vec<(u64, [u64; 4])>,
    events_fired: u64,
    fingerprint: u64,
    cancelled_events: u64,
    /// `scheduled_ops_s`, `achieved_ops_s`, `goodput_ops_s` bits.
    rates: [u64; 3],
    slo: Vec<u64>,
}

/// The tracker's fields, floats by their bits.
fn slo_bits(t: &SloTracker) -> Vec<u64> {
    let mut v = vec![
        t.deadline_s.to_bits(),
        t.scheduled,
        t.completed,
        t.failed,
        t.shed,
        t.budget_exhausted,
        t.timed_out,
        t.late,
        t.last_completion_s.to_bits(),
    ];
    for s in [&t.latency, &t.staleness] {
        v.push(s.count());
        for x in [
            s.mean(),
            s.std(),
            s.min(),
            s.max(),
            s.quantile(0.5),
            s.quantile(0.99),
        ] {
            v.push(x.to_bits());
        }
    }
    v
}

#[derive(Clone, Copy)]
enum Driver {
    Reference,
    Lazy,
}

/// Build the driver's window and observer probe, run, and collect.
macro_rules! drive_with {
    ($krate:path, $sim:expr, $instants:expr, $sc:expr, $op:expr, $log:expr, $probe_log:expr) => {{
        use $krate as d;
        let window = d::Window {
            offset_s: secs($sc.offset_steps),
            warmup_s: secs($sc.warmup_steps),
            window_s: secs($sc.window_steps),
            deadline_s: secs($sc.deadline_steps),
        };
        let run = d::drive($sim, $instants, window, $op);
        let obs = run.observer();
        spawn_control(
            $sim,
            &$sc.probes,
            Rc::clone(&$log),
            Rc::clone(&$probe_log),
            move || {
                [
                    obs.dispatched.get(),
                    obs.completed.get(),
                    obs.good.get(),
                    obs.shed.get(),
                ]
            },
        );
        let m = run.run();
        (
            [
                m.scheduled_ops_s.to_bits(),
                m.achieved_ops_s.to_bits(),
                m.goodput_ops_s.to_bits(),
            ],
            slo_bits(&m.slo),
        )
    }};
}

/// The control plane: probes the observer at each probe instant and
/// schedules an event from there.
fn spawn_control(
    sim: &Sim,
    probes: &[u64],
    log: Log,
    out: Probes,
    probe: impl Fn() -> [u64; 4] + 'static,
) {
    let (s, probes) = (sim.clone(), probes.to_vec());
    sim.spawn(async move {
        for (k, p) in probes.into_iter().enumerate() {
            s.sleep_until(at(p)).await;
            out.borrow_mut().push((s.now().as_nanos(), probe()));
            let l = Rc::clone(&log);
            s.schedule_in(SimDuration::from_nanos(STEP_NS), move |s| {
                note(&l, s, "control", k)
            });
        }
    });
}

fn run(sc: &Scenario, driver: Driver) -> Outcome {
    let sim = Sim::new(11);
    if sc.pre_steps > 0 {
        sim.run_until(at(sc.pre_steps));
    }
    let log: Log = Rc::default();
    let probe_log: Probes = Rc::default();
    {
        let (s, l, d) = (sim.clone(), Rc::clone(&log), sc.early_task_steps);
        sim.spawn(async move {
            s.delay(SimDuration::from_nanos(d * STEP_NS)).await;
            note(&l, &s, "early", 0);
        });
    }
    let instants: Vec<f64> = sc.instants.iter().map(|&k| secs(k)).collect();
    let op = make_op(&sim, sc, &log);
    let (rates, slo) = match driver {
        Driver::Reference => drive_with!(reference, &sim, &instants, sc, op, log, probe_log),
        Driver::Lazy => drive_with!(simload, &sim, instants, sc, op, log, probe_log),
    };
    assert_eq!(sim.live_tasks(), 0);
    let log = log.borrow().clone();
    let probes = probe_log.borrow().clone();
    Outcome {
        log,
        probes,
        events_fired: sim.events_fired(),
        fingerprint: sim.trace_fingerprint(),
        cancelled_events: sim.cancelled_events(),
        rates,
        slo,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_cursor_fires_the_eager_schedule(sc in scenario()) {
        let eager = run(&sc, Driver::Reference);
        let lazy = run(&sc, Driver::Lazy);
        prop_assert_eq!(&lazy, &eager, "scenario {:?}", sc);
    }
}

#[test]
fn cases_cover_the_edges() {
    // The oracle is only as strong as its inputs: over the generated
    // cases, some must have a due prefix, tied instants and ops of
    // every kind.
    let mut rng = proptest::TestRng::for_test("cases_cover_the_edges");
    let (mut prefix, mut ties, mut kinds) = (0, 0, [0; 4]);
    for _ in 0..256 {
        let sc = scenario().generate(&mut rng);
        let now = sc.pre_steps;
        if sc.instants.iter().any(|&t| sc.offset_steps + t <= now) {
            prefix += 1;
        }
        if sc.instants.windows(2).any(|w| w[0] == w[1]) {
            ties += 1;
        }
        for op in &sc.ops {
            kinds[match op {
                Op::Inline(_) => 0,
                Op::Sleep(..) => 1,
                Op::Schedule(_) => 2,
                Op::Spawn(_) => 3,
            }] += 1;
        }
    }
    assert!(prefix >= 32 && ties >= 32, "prefix {prefix} ties {ties}");
    assert!(kinds.iter().all(|&k| k >= 32), "{kinds:?}");
}
