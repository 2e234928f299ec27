//! # simload — open-loop workload generation and SLO tracking
//!
//! The Fig 1–3 reproductions in `cloudbench` are *closed-loop*: each
//! client issues its next request only after the previous one returns,
//! which is the paper's own protocol but systematically understates
//! latency under overload (the offered rate backs off exactly when the
//! service saturates — coordinated omission). This crate adds the
//! complementary *open-loop* view:
//!
//! * [`ArrivalProcess`] — deterministic arrival schedules (constant
//!   rate, Poisson, MMPP-style bursty on/off, diurnal curve, recorded
//!   replay) drawn from a dedicated `simcore` RNG stream, so the event
//!   stream is byte-reproducible and shard-invariant;
//! * [`drive`] — the one open-loop driver: one task per scheduled
//!   arrival, spawned at its instant by a lazy cursor
//!   ([`spawn_at_instants`]), latency charged from the scheduled
//!   instant, window throughput and SLO accounting, shared by every
//!   open-loop cell;
//! * [`run_open_loop`] — a client fleet that fires blob/table/queue
//!   operations against `azstore` at the scheduled instants and
//!   charges latency from those instants;
//! * [`SloTracker`] — mergeable SLO accounting (deadline violations,
//!   goodput, p50/p95/p99/p99.9) on `simlab`'s exact-merge statistics.
//!
//! The `frontier` campaign in `bench` sweeps offered load through
//! these pieces to locate each service's saturation knee and
//! cross-validates it against the closed-loop Fig 1–3 peaks.

#![warn(missing_docs)]

pub mod arrival;
mod cursor;
mod drive;
pub mod fleet;
pub mod observe;
pub mod slo;

pub use arrival::ArrivalProcess;
pub use cursor::spawn_at_instants;
pub use drive::{drive, latency_since, Drive, LoadObserver, Measured, OpResult, Window};
pub use fleet::{
    fire, run_open_loop, seed_workload, LoadCellResult, LoadConfig, ShedRetry, Workload,
};
pub use observe::WindowedArrivals;
pub use slo::{FailClass, SloTracker};
