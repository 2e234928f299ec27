//! # dcnet — fluid-flow datacenter network simulation
//!
//! The network substrate for the Windows Azure reproduction. Instead of
//! packets, transfers are *fluid flows*: whenever the set of active flows
//! changes, the rates of the flows it touches are recomputed as their
//! max-min fair shares across all links they cross ([`fluid::MaxMin`]),
//! and their completion instants are re-timed. This reproduces
//! second-scale bandwidth behaviour (who shares what, where the
//! bottleneck is, how a late joiner slows everyone) at a tiny fraction of
//! packet-level cost.
//!
//! * [`fluid`] — pure max-min allocation + the three link models
//! * [`net`] — the live [`net::Network`]: links, flows, completion timing
//! * [`topology`] — two-tier rack/core fabric and path selection
//! * [`latency`] — topology-mixture RTT model (paper Fig 4)
//! * [`region`] — seed-pure region↔region RTT map (cross-region routing)
//! * [`background`] — co-tenant traffic generators (paper Fig 5's tail)
//!
//! ## Example
//! ```
//! use simcore::prelude::*;
//! use dcnet::{Network, LinkModel};
//!
//! let sim = Sim::new(7);
//! let net = Network::new(&sim);
//! let pipe = net.add_link("pipe", LinkModel::Shared { capacity: 100.0 });
//! let n = net.clone();
//! let h = sim.spawn(async move {
//!     // Two flows race over the 100 B/s pipe.
//!     let path = [pipe];
//!     let a = Box::pin(n.transfer(&path, 300.0, f64::INFINITY));
//!     let b = Box::pin(n.transfer(&path, 300.0, f64::INFINITY));
//!     join_all(vec![a, b]).await
//! });
//! sim.run();
//! let stats = h.try_take().unwrap();
//! // Each ran at 50 B/s: 6 seconds.
//! assert!((stats[0].duration().as_secs_f64() - 6.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod background;
pub mod fluid;
pub mod latency;
pub mod net;
pub mod region;
pub mod topology;

pub use background::{BackgroundConfig, BackgroundTraffic, ClassMix};
pub use fluid::{FlowSpec, LinkModel};
pub use latency::{LatencyModel, PairPlacement};
pub use net::{LinkId, Network, TransferStats};
pub use region::RegionRtt;
pub use topology::{HostId, Topology, TopologyConfig};
