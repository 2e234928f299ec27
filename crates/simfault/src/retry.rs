//! The unified retry/backoff policy.
//!
//! Every client-side retry loop in the reproduction — the storage SDK's
//! ServerBusy retries, the ModisAzure worker's idle poll backoff, the
//! manager's enqueue retry, fabric lifecycle ops — is an instance of the
//! same shape: attempt, classify, maybe wait, maybe try again. This
//! module is that shape, written once.
//!
//! Determinism contract: a [`RetryPolicy`] draws jitter only from the
//! RNG stream its caller hands it, creates a timeout event per attempt
//! only when `attempt_timeout` is set, and otherwise schedules nothing.
//! Replacing an open-coded loop with an equivalent policy is therefore
//! event-for-event identical — the seed-level fingerprints of every
//! pre-existing experiment binary prove it.

use std::cell::RefCell;
use std::future::Future;

use simcore::combinators::timeout;
use simcore::prelude::*;

/// How long to wait before attempt `n + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// No wait between attempts.
    None,
    /// Constant wait (seconds).
    Fixed(f64),
    /// `base_s * factor^attempt`, capped at `max_s`.
    Exponential {
        /// Wait before the first retry (seconds).
        base_s: f64,
        /// Multiplier applied per attempt.
        factor: f64,
        /// Ceiling on the wait (seconds).
        max_s: f64,
    },
}

impl Backoff {
    /// The wait after failed attempt `attempt` (0-based), in seconds.
    pub fn delay_s(&self, attempt: u32) -> f64 {
        match *self {
            Backoff::None => 0.0,
            Backoff::Fixed(s) => s,
            Backoff::Exponential {
                base_s,
                factor,
                max_s,
            } => {
                // powi keeps the sequence bit-exact with the repeated
                // `*= factor` form the open-coded loops used.
                (base_s * factor.powi(attempt.min(1024) as i32)).min(max_s)
            }
        }
    }

    /// Stateful view for loops that walk the sequence and reset it on
    /// progress (the worker's idle poll).
    pub fn seq(self) -> BackoffSeq {
        BackoffSeq {
            backoff: self,
            attempt: 0,
        }
    }
}

/// A cursor over a [`Backoff`] sequence.
#[derive(Debug, Clone)]
pub struct BackoffSeq {
    backoff: Backoff,
    attempt: u32,
}

impl BackoffSeq {
    /// The next wait in the sequence (advances the cursor).
    pub fn next_delay_s(&mut self) -> f64 {
        let d = self.backoff.delay_s(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        d
    }

    /// Rewind to the start of the sequence (progress was made).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts taken since the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }
}

/// Multiplicative jitter applied to each backoff wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jitter {
    /// Deterministic waits.
    None,
    /// Uniform in `[0.5, 1.5)` — the 2009 storage SDK's spread, centred
    /// on the nominal wait.
    Centered,
}

/// A complete client retry policy: backoff shape, retry budget,
/// per-attempt timeout and jitter source.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Wait schedule between attempts.
    pub backoff: Backoff,
    /// Retry budget: total attempts = `retries + 1`.
    pub retries: u32,
    /// Client-side timeout wrapped around every attempt.
    pub attempt_timeout: Option<SimDuration>,
    /// Jitter applied to each wait.
    pub jitter: Jitter,
    /// simtrace counter bumped once per retry (not per attempt).
    pub retry_counter: Option<&'static str>,
}

/// Retry budget for loops that never give up (the manager's enqueue).
pub const FOREVER: u32 = u32::MAX;

impl RetryPolicy {
    /// Single attempt, no waiting — still useful for its timeout.
    pub fn none() -> Self {
        RetryPolicy {
            backoff: Backoff::None,
            retries: 0,
            attempt_timeout: None,
            jitter: Jitter::None,
            retry_counter: None,
        }
    }

    /// Fixed wait between attempts.
    pub fn fixed(delay_s: f64, retries: u32) -> Self {
        RetryPolicy {
            backoff: Backoff::Fixed(delay_s),
            retries,
            ..Self::none()
        }
    }

    /// Exponential backoff, uncapped by default.
    pub fn exponential(base_s: f64, factor: f64, retries: u32) -> Self {
        RetryPolicy {
            backoff: Backoff::Exponential {
                base_s,
                factor,
                max_s: f64::INFINITY,
            },
            retries,
            ..Self::none()
        }
    }

    /// Wrap every attempt in a client-side timeout.
    pub fn with_timeout(mut self, d: SimDuration) -> Self {
        self.attempt_timeout = Some(d);
        self
    }

    /// Apply jitter to the waits.
    pub fn with_jitter(mut self, j: Jitter) -> Self {
        self.jitter = j;
        self
    }

    /// Bump a simtrace counter on every retry.
    pub fn with_counter(mut self, name: &'static str) -> Self {
        self.retry_counter = Some(name);
        self
    }

    /// Single-attempt form of [`run`](Self::run): the connection
    /// precheck and the per-attempt timeout, no retries (budget and
    /// backoff are ignored). For operation classes the 2009 SDKs did
    /// not auto-retry — blob transfers and queue/table reads.
    pub async fn run_once<T, E, Fut>(
        &self,
        sim: &Sim,
        mut precheck: impl FnMut() -> Option<E>,
        fut: Fut,
        timeout_error: impl Fn() -> E,
    ) -> Result<T, E>
    where
        Fut: Future<Output = Result<T, E>>,
    {
        if let Some(e) = precheck() {
            return Err(e);
        }
        match self.attempt_timeout {
            Some(d) => match timeout(sim, d, fut).await {
                Ok(r) => r,
                Err(_) => Err(timeout_error()),
            },
            None => fut.await,
        }
    }

    /// Drive `op` under this policy.
    ///
    /// Per attempt: `precheck` runs first (connection-level fault
    /// injection — returning `Some(e)` fails the whole call without
    /// scheduling anything); then the attempt, wrapped in
    /// `attempt_timeout` when set (a timeout maps through
    /// `timeout_error` and is never retried — the 2009 SDK surfaced
    /// client timeouts directly); an `Err` that `retryable` accepts
    /// consumes one of `retries`, bumps the counter, waits the jittered
    /// backoff and retries. Running out of retries returns the last
    /// error. This is [`run_budgeted`](Self::run_budgeted) under a
    /// cross-call budget that never runs dry.
    ///
    /// `rng` is the caller's jitter stream; required only when
    /// `jitter != Jitter::None`.
    pub async fn run<T, E, F, Fut>(
        &self,
        sim: &Sim,
        rng: Option<&RefCell<SimRng>>,
        precheck: impl FnMut() -> Option<E>,
        op: F,
        retryable: impl Fn(&E) -> bool,
        timeout_error: impl Fn() -> E,
    ) -> Result<T, E>
    where
        F: FnMut(u32) -> Fut,
        Fut: Future<Output = Result<T, E>>,
    {
        // An infinite budget never runs dry, so only `retries` bounds
        // the loop.
        let budget = RetryBudget::new(f64::INFINITY, 0.0);
        self.run_budgeted(sim, rng, &budget, precheck, op, retryable, timeout_error)
            .await
            .map_err(|(e, _)| e)
    }

    /// Budgeted form of [`run`](Self::run): every retry withdraws one
    /// credit from `budget` first, and a successful call deposits the
    /// budget's earn-back fraction. With the budget empty a retryable
    /// error fails fast — under overload the whole fleet's *extra*
    /// traffic is bounded by the credits its successes earned, so
    /// retries cannot amplify the storm that is causing them.
    ///
    /// Returns the error together with [`GiveUp`] saying *why* the loop
    /// stopped, so callers can report budget exhaustion distinctly from
    /// plain attempt exhaustion or a non-retryable failure (the
    /// `SloTracker` shed-vs-timeout split rides on this).
    #[allow(clippy::too_many_arguments)]
    pub async fn run_budgeted<T, E, F, Fut>(
        &self,
        sim: &Sim,
        rng: Option<&RefCell<SimRng>>,
        budget: &RetryBudget,
        mut precheck: impl FnMut() -> Option<E>,
        mut op: F,
        retryable: impl Fn(&E) -> bool,
        timeout_error: impl Fn() -> E,
    ) -> Result<T, (E, GiveUp)>
    where
        F: FnMut(u32) -> Fut,
        Fut: Future<Output = Result<T, E>>,
    {
        let mut attempt: u32 = 0;
        loop {
            if let Some(e) = precheck() {
                return Err((e, GiveUp::NotRetryable));
            }
            let outcome = match self.attempt_timeout {
                Some(d) => match timeout(sim, d, op(attempt)).await {
                    Ok(r) => r,
                    // Timeouts are never retried (same contract as
                    // `run`): the attempt already cost a full deadline.
                    Err(_) => return Err((timeout_error(), GiveUp::NotRetryable)),
                },
                None => op(attempt).await,
            };
            match outcome {
                Ok(v) => {
                    budget.deposit();
                    return Ok(v);
                }
                Err(e) if !retryable(&e) => return Err((e, GiveUp::NotRetryable)),
                Err(e) if attempt >= self.retries => return Err((e, GiveUp::AttemptsExhausted)),
                Err(e) if !budget.try_withdraw() => return Err((e, GiveUp::BudgetExhausted)),
                Err(_) => {
                    if let Some(name) = self.retry_counter {
                        simtrace::counter(name, 1);
                    }
                    let j = match self.jitter {
                        Jitter::None => 1.0,
                        Jitter::Centered => {
                            let rng = rng.expect("jittered RetryPolicy needs an RNG stream");
                            0.5 + rng.borrow_mut().f64()
                        }
                    };
                    let wait = self.backoff.delay_s(attempt) * j;
                    if wait > 0.0 {
                        sim.delay(SimDuration::from_secs_f64(wait)).await;
                    }
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }
}

/// Why a [`run_budgeted`](RetryPolicy::run_budgeted) loop gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GiveUp {
    /// The error was not retryable (includes attempt timeouts and
    /// precheck failures).
    NotRetryable,
    /// The policy's per-call attempt budget (`retries`) ran out.
    AttemptsExhausted,
    /// The client's cross-call retry budget had no credit left.
    BudgetExhausted,
}

/// A per-client token bucket of retry credits (the "retry budget" of
/// the SRE literature): starts full, each retry withdraws one credit,
/// each *success* deposits `earn_per_success` back (capped at `max`).
/// Under sustained overload successes dry up, the bucket drains, and
/// the client's retry traffic throttles to its success-earned rate —
/// instead of multiplying every shed response into `retries` more
/// arrivals at exactly the moment the service can least afford them.
#[derive(Debug)]
pub struct RetryBudget {
    max: f64,
    earn_per_success: f64,
    balance: std::cell::Cell<f64>,
}

impl RetryBudget {
    /// A budget starting (and capped) at `max` credits, earning
    /// `earn_per_success` back per successful call.
    pub fn new(max: f64, earn_per_success: f64) -> Self {
        assert!(max >= 0.0 && earn_per_success >= 0.0);
        RetryBudget {
            max,
            earn_per_success,
            balance: std::cell::Cell::new(max),
        }
    }

    /// Withdraw one credit; `false` (no state change) when fewer than
    /// one credit remains.
    pub fn try_withdraw(&self) -> bool {
        let b = self.balance.get();
        if b >= 1.0 {
            self.balance.set(b - 1.0);
            true
        } else {
            false
        }
    }

    /// Deposit the per-success earn-back, capped at the maximum.
    pub fn deposit(&self) {
        self.balance
            .set((self.balance.get() + self.earn_per_success).min(self.max));
    }

    /// Current credit balance.
    pub fn balance(&self) -> f64 {
        self.balance.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn exponential_matches_doubling_loop() {
        // The storage SDK's loop: backoff = 2, then *= 2 per retry.
        let b = Backoff::Exponential {
            base_s: 2.0,
            factor: 2.0,
            max_s: f64::INFINITY,
        };
        let mut open_coded = 2.0;
        for attempt in 0..8 {
            assert_eq!(b.delay_s(attempt), open_coded, "attempt {attempt}");
            open_coded *= 2.0;
        }
    }

    #[test]
    fn exponential_caps_like_the_worker_idle_loop() {
        // Worker idle poll: 5 s doubling to a 600 s ceiling.
        let b = Backoff::Exponential {
            base_s: 5.0,
            factor: 2.0,
            max_s: 600.0,
        };
        let mut seq = b.seq();
        let mut got = Vec::new();
        for _ in 0..9 {
            got.push(seq.next_delay_s());
        }
        assert_eq!(
            got,
            vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 600.0, 600.0]
        );
        seq.reset();
        assert_eq!(seq.next_delay_s(), 5.0);
    }

    #[test]
    fn fixed_and_none_backoffs() {
        assert_eq!(Backoff::Fixed(2.0).delay_s(7), 2.0);
        assert_eq!(Backoff::None.delay_s(0), 0.0);
    }

    #[test]
    fn budget_exhaustion_returns_last_error_after_all_attempts() {
        let sim = Sim::new(11);
        let attempts = Rc::new(Cell::new(0u32));
        let a = attempts.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            RetryPolicy::fixed(1.0, 3)
                .run(
                    &s,
                    None,
                    || None::<&'static str>,
                    |_| {
                        a.set(a.get() + 1);
                        async { Err::<(), _>("busy") }
                    },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Err("busy"));
        assert_eq!(attempts.get(), 4, "retries=3 means 4 attempts");
        // Three fixed 1 s waits elapsed between the four attempts.
        assert_eq!(sim.now().as_secs_f64(), 3.0);
    }

    #[test]
    fn non_retryable_error_fails_fast() {
        let sim = Sim::new(12);
        let attempts = Rc::new(Cell::new(0u32));
        let a = attempts.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            RetryPolicy::fixed(1.0, 5)
                .run(
                    &s,
                    None,
                    || None::<&'static str>,
                    |_| {
                        a.set(a.get() + 1);
                        async { Err::<(), _>("fatal") }
                    },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Err("fatal"));
        assert_eq!(attempts.get(), 1);
        assert_eq!(sim.now().as_secs_f64(), 0.0);
    }

    #[test]
    fn precheck_failure_schedules_nothing() {
        let sim = Sim::new(13);
        let s = sim.clone();
        let h = sim.spawn(async move {
            RetryPolicy::none()
                .with_timeout(SimDuration::from_secs_f64(30.0))
                .run(
                    &s,
                    None,
                    || Some("connection"),
                    |_| async { Ok::<u32, _>(1) },
                    |_| false,
                    || "timeout",
                )
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Err("connection"));
    }

    #[test]
    fn attempt_timeout_maps_through_timeout_error() {
        let sim = Sim::new(14);
        let s = sim.clone();
        let slow = sim.clone();
        let h = sim.spawn(async move {
            RetryPolicy::none()
                .with_timeout(SimDuration::from_secs_f64(5.0))
                .run(
                    &s,
                    None,
                    || None::<&'static str>,
                    move |_| {
                        let slow = slow.clone();
                        async move {
                            slow.delay(SimDuration::from_secs_f64(60.0)).await;
                            Ok::<(), _>(())
                        }
                    },
                    |_| true,
                    || "timeout",
                )
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Err("timeout"));
        assert_eq!(sim.now().as_secs_f64(), 5.0, "gave up at the timeout");
    }

    #[test]
    fn retry_budget_withdraws_and_earns_back() {
        let b = RetryBudget::new(2.0, 0.5);
        assert!(b.try_withdraw());
        assert!(b.try_withdraw());
        assert!(!b.try_withdraw(), "bucket empty");
        b.deposit();
        assert!(!b.try_withdraw(), "half a credit is not a credit");
        b.deposit();
        assert!(b.try_withdraw(), "two successes earned one retry");
        for _ in 0..100 {
            b.deposit();
        }
        assert_eq!(b.balance(), 2.0, "capped at max");
    }

    #[test]
    fn budgeted_run_distinguishes_exhaustion_classes() {
        // Plenty of credit: attempts exhaust first.
        let sim = Sim::new(16);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let budget = RetryBudget::new(10.0, 0.0);
            let res = RetryPolicy::fixed(1.0, 2)
                .run_budgeted(
                    &s,
                    None,
                    &budget,
                    || None::<&'static str>,
                    |_| async { Err::<(), _>("busy") },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await;
            (res, budget.balance())
        });
        sim.run();
        let (res, balance) = h.try_take().unwrap();
        assert_eq!(res, Err(("busy", GiveUp::AttemptsExhausted)));
        assert_eq!(balance, 8.0, "two retries withdrew two credits");

        // One credit: the budget runs dry before the attempt cap.
        let sim = Sim::new(17);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let budget = RetryBudget::new(1.0, 0.0);
            RetryPolicy::fixed(1.0, 5)
                .run_budgeted(
                    &s,
                    None,
                    &budget,
                    || None::<&'static str>,
                    |_| async { Err::<(), _>("busy") },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await
        });
        sim.run();
        assert_eq!(
            h.try_take().unwrap(),
            Err(("busy", GiveUp::BudgetExhausted))
        );
        assert_eq!(sim.now().as_secs_f64(), 1.0, "one funded retry ran");

        // Non-retryable error reports as such and costs no credit.
        let sim = Sim::new(18);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let budget = RetryBudget::new(1.0, 0.0);
            let res = RetryPolicy::fixed(1.0, 5)
                .run_budgeted(
                    &s,
                    None,
                    &budget,
                    || None::<&'static str>,
                    |_| async { Err::<(), _>("fatal") },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await;
            (res, budget.balance())
        });
        sim.run();
        let (res, balance) = h.try_take().unwrap();
        assert_eq!(res, Err(("fatal", GiveUp::NotRetryable)));
        assert_eq!(balance, 1.0);
    }

    #[test]
    fn budgeted_run_deposits_on_success() {
        let sim = Sim::new(19);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let budget = RetryBudget::new(4.0, 0.5);
            let tries = Cell::new(0u32);
            let res = RetryPolicy::fixed(1.0, 5)
                .run_budgeted(
                    &s,
                    None,
                    &budget,
                    || None::<&'static str>,
                    |_| {
                        tries.set(tries.get() + 1);
                        let n = tries.get();
                        async move {
                            if n <= 2 {
                                Err("busy")
                            } else {
                                Ok(())
                            }
                        }
                    },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await;
            (res, budget.balance())
        });
        sim.run();
        let (res, balance) = h.try_take().unwrap();
        assert!(res.is_ok());
        // Two withdrawals then one success deposit: 4 - 2 + 0.5.
        assert_eq!(balance, 2.5);
    }

    #[test]
    fn centered_jitter_scales_waits_within_bounds() {
        let sim = Sim::new(15);
        let rng = RefCell::new(sim.rng("test.jitter"));
        let s = sim.clone();
        let h = sim.spawn(async move {
            let tries = Cell::new(0u32);
            RetryPolicy::fixed(10.0, 2)
                .with_jitter(Jitter::Centered)
                .run(
                    &s,
                    Some(&rng),
                    || None::<&'static str>,
                    |_| {
                        tries.set(tries.get() + 1);
                        let n = tries.get();
                        async move {
                            if n <= 2 {
                                Err("busy")
                            } else {
                                Ok(())
                            }
                        }
                    },
                    |e| *e == "busy",
                    || "timeout",
                )
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Ok(()));
        let elapsed = sim.now().as_secs_f64();
        // Two jittered 10 s waits, each in [5, 15).
        assert!((10.0..30.0).contains(&elapsed), "elapsed={elapsed}");
    }
}
