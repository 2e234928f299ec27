//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the Windows Azure reproduction: a single-threaded,
//! fully deterministic discrete-event simulator whose processes are plain
//! `async fn`s. Model code awaits virtual-time primitives ([`Sim::delay`],
//! [`sync::Semaphore`], [`sync::channel`]) and the engine interleaves
//! processes in a total `(time, sequence)` order, so a run is a pure
//! function of its seed.
//!
//! ## Layout
//! * [`time`] — `SimTime` / `SimDuration` (u64 nanoseconds)
//! * [`sim`] — the engine: clock, spawning, cancellable events
//! * [`queue`] — the event queue: indexed min-heap with eager removal
//! * [`sync`] — FIFO semaphore, one-shot signal, unbounded MPMC channel
//! * [`combinators`] — `select2`, `join_all`, `timeout`
//! * [`rng`] — per-component deterministic RNG streams
//! * [`dist`] — distributions (normal, lognormal, Pareto, empirical, …)
//! * [`stats`] — Welford stats, exact percentiles, histograms, daily series
//! * [`report`] — ASCII tables and CSV for the regeneration binaries
//!
//! ## Example
//! ```
//! use simcore::prelude::*;
//!
//! let sim = Sim::new(42);
//! let server = Semaphore::new(2); // a 2-slot service station
//! for client in 0..8u32 {
//!     let (s, srv) = (sim.clone(), server.clone());
//!     sim.spawn(async move {
//!         let _slot = srv.acquire().await;
//!         s.delay(SimDuration::from_millis(10)).await; // service time
//!         drop(client);
//!     });
//! }
//! sim.run();
//! // 8 jobs through 2 slots at 10ms each => 40ms makespan.
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(40));
//! ```

#![warn(missing_docs)]

pub mod combinators;
pub mod dist;
mod executor;
pub mod queue;
pub mod report;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod sync;
pub mod time;

pub use sim::{Delay, EventHandle, JoinHandle, KernelEvent, KernelHook, KernelHookId, Sim};
pub use time::{SimDuration, SimTime};

/// One-stop imports for model code.
pub mod prelude {
    pub use crate::combinators::{join_all, select2, timeout, Either};
    pub use crate::dist::{
        Constant, Dist, Empirical, Exp, LogNormal, Mixture, Normal, Pareto, TruncNormal, Uniform,
        Weibull,
    };
    pub use crate::rng::SimRng;
    pub use crate::sim::{JoinHandle, Sim};
    pub use crate::stats::{DailySeries, Histogram, OnlineStats, SampleSet};
    pub use crate::sync::{channel, Permit, Receiver, Semaphore, Sender, Signal};
    pub use crate::time::{SimDuration, SimTime};
}
