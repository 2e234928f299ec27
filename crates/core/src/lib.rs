//! # cloudbench — the paper's measurement harness
//!
//! This crate is the reproduction's *primary contribution* layer: the
//! methodology of *Early observations on the performance of Windows
//! Azure* (HPDC'10) packaged as a reusable library. It drives the
//! simulated platform (`azstore`, `fabric`, `dcnet`) through exactly the
//! protocols the paper describes and aggregates the same statistics the
//! paper plots:
//!
//! * [`experiments::blob`] — Fig 1 (blob bandwidth vs concurrency)
//! * [`experiments::table`] — Fig 2 (table ops vs concurrency)
//! * [`experiments::queue`] — Fig 3 (queue ops vs concurrency)
//! * [`experiments::vm`] — Table 1 (VM lifecycle campaign)
//! * [`experiments::tcp`] — Figs 4 & 5 (TCP latency / bandwidth)
//!
//! Sweep points are independent simulations, one [`simlab`] cell each;
//! every experiment's `run(cfg, opts)` schedules its cells through
//! [`simlab::run_cells`], so `--shards`, `--faults` and `--trace` apply
//! the same way to library callers and campaigns. The paper's published
//! numbers live in [`anchors`] so results can be compared
//! programmatically.
//!
//! ## Example
//! ```
//! use cloudbench::experiments::blob;
//! use simlab::RunOpts;
//!
//! // A scaled-down Fig 1 sweep (full scale: BlobScalingConfig::default()).
//! let mut cfg = blob::BlobScalingConfig::quick();
//! cfg.client_counts = vec![1, 32];
//! let (result, _trace) = blob::run(&cfg, &RunOpts::serial());
//! let one = result.at(1).unwrap().download_per_client_mbps;
//! let many = result.at(32).unwrap().download_per_client_mbps;
//! assert!(many < one); // concurrency costs per-client bandwidth
//! ```

#![warn(missing_docs)]

pub mod anchors;
pub mod experiments;

pub use anchors::Anchor;

/// The concurrency ladder used throughout the paper: "For all our tests
/// we use from 1 to 192 concurrent clients" (§3).
pub const CLIENT_COUNTS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 192];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_ladder_matches_paper() {
        assert_eq!(CLIENT_COUNTS.first(), Some(&1));
        assert_eq!(CLIENT_COUNTS.last(), Some(&192));
        assert!(CLIENT_COUNTS.windows(2).all(|w| w[0] < w[1]));
    }
}
