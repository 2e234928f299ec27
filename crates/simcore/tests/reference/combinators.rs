//! The boxed `timeout`, verbatim: it pins the raced future on the heap
//! with `Box::pin` before handing it to `select2`.

use std::future::Future;

pub use simcore::combinators::{select2, Either};

use crate::sim::Sim;
use crate::time::SimDuration;

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
pub async fn timeout<F: Future>(sim: &Sim, d: SimDuration, fut: F) -> Result<F::Output, Elapsed> {
    let fut = Box::pin(fut);
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
