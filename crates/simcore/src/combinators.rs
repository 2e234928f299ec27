//! Small future combinators (the `futures` crate is not available
//! offline): two-way select, join-all, and a deadline wrapper.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::sim::Sim;
use crate::time::SimDuration;

/// Result of [`select2`].
#[derive(Debug, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Race two futures; the loser is dropped (or, if passed by `&mut`, left
/// where it was so the caller can keep polling it — the pattern the task
/// monitor uses to race work against a kill signal).
pub fn select2<A, B>(a: A, b: B) -> Select2<A, B>
where
    A: Future,
    B: Future,
{
    Select2 {
        a: Some(a),
        b: Some(b),
    }
}

/// Future returned by [`select2`].
pub struct Select2<A, B> {
    a: Option<A>,
    b: Option<B>,
}

impl<A, B> Future for Select2<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = Either<A::Output, B::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = &mut *self;
        if let Some(a) = this.a.as_mut() {
            if let Poll::Ready(v) = Pin::new(a).poll(cx) {
                this.a = None;
                return Poll::Ready(Either::Left(v));
            }
        }
        if let Some(b) = this.b.as_mut() {
            if let Poll::Ready(v) = Pin::new(b).poll(cx) {
                this.b = None;
                return Poll::Ready(Either::Right(v));
            }
        }
        Poll::Pending
    }
}

/// Drive a set of futures to completion concurrently, returning their
/// outputs in input order.
pub async fn join_all<F>(futures: Vec<F>) -> Vec<F::Output>
where
    F: Future,
{
    JoinAll {
        slots: futures
            .into_iter()
            .map(|f| JoinSlot::Pending(Box::pin(f)))
            .collect(),
    }
    .await
}

enum JoinSlot<F: Future> {
    Pending(Pin<Box<F>>),
    Done(Option<F::Output>),
}

struct JoinAll<F: Future> {
    slots: Vec<JoinSlot<F>>,
}

// Safe: the contained futures are heap-pinned (`Pin<Box<F>>`), so moving
// the `JoinAll` wrapper itself never moves a pinned future.
impl<F: Future> Unpin for JoinAll<F> {}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut all_done = true;
        for slot in this.slots.iter_mut() {
            if let JoinSlot::Pending(f) = slot {
                match f.as_mut().poll(cx) {
                    Poll::Ready(v) => *slot = JoinSlot::Done(Some(v)),
                    Poll::Pending => all_done = false,
                }
            }
        }
        if !all_done {
            return Poll::Pending;
        }
        let outs = this
            .slots
            .iter_mut()
            .map(|s| match s {
                JoinSlot::Done(v) => v.take().expect("output taken twice"),
                JoinSlot::Pending(_) => unreachable!(),
            })
            .collect();
        Poll::Ready(outs)
    }
}

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Run `fut` but give up (dropping it) if `d` of virtual time passes first.
///
/// `fut` is pinned in this future's own frame, so the race allocates
/// nothing; `fut` is dropped when this future returns or is dropped.
pub async fn timeout<F: Future>(sim: &Sim, d: SimDuration, fut: F) -> Result<F::Output, Elapsed> {
    let fut = std::pin::pin!(fut);
    let delay = sim.delay(d);
    match select2(fut, delay).await {
        Either::Left(v) => Ok(v),
        Either::Right(()) => Err(Elapsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration as D;

    #[test]
    fn select_picks_earlier_future() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let fast = Box::pin(async {
                s.delay(D::from_millis(1)).await;
                "fast"
            });
            let slow = Box::pin(async {
                s.delay(D::from_millis(5)).await;
                "slow"
            });
            select2(fast, slow).await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Either::Left("fast")));
    }

    #[test]
    fn select_prefers_left_on_tie() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let a = Box::pin(s.delay(D::from_millis(2)));
            let b = Box::pin(s.delay(D::from_millis(2)));
            select2(a, b).await
        });
        sim.run();
        assert!(matches!(h.try_take(), Some(Either::Left(()))));
    }

    #[test]
    fn join_all_returns_in_input_order() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let futs: Vec<_> = (0..5u64)
                .map(|i| {
                    let s = s.clone();
                    async move {
                        // Later entries finish earlier; output order must
                        // still follow input order.
                        s.delay(D::from_millis(10 - i)).await;
                        i
                    }
                })
                .collect();
            join_all(futs).await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn timeout_expires() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let slow = async {
                s.delay(D::from_secs(10)).await;
                7u32
            };
            timeout(&s, D::from_secs(1), slow).await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Err(Elapsed)));
        // Timed-out process released everything: sim must be quiescent at
        // the timeout, not at the abandoned 10s delay... but the cancelled
        // delay's heap entry still fires harmlessly; clock may advance.
    }

    #[test]
    fn timeout_passes_through_fast_result() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let h = sim.spawn(async move {
            let quick = async {
                s.delay(D::from_millis(1)).await;
                7u32
            };
            timeout(&s, D::from_secs(1), quick).await
        });
        sim.run();
        assert_eq!(h.try_take(), Some(Ok(7)));
    }
}
