//! Rack/host topology: builds the standard two-tier datacenter fabric
//! (host NICs → rack uplinks → core) out of fluid links and answers
//! path queries for host-to-host transfers.
//!
//! The reproduction assumes 2009-era commodity gear, as the paper does:
//! Gigabit host NICs ("We assume that the physical hardware is Gigabit
//! Ethernet, which has a limit of 125 MB/s", §4.2) and oversubscribed
//! rack uplinks, which is where the contended lower tail of Fig 5 comes
//! from.

use simcore::prelude::*;

use crate::fluid::LinkModel;
use crate::net::{LinkId, Network, TransferStats};

/// Identifier of a host within one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

/// Construction parameters for [`Topology::build`].
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of racks.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// Host NIC capacity per direction, bytes/s (GigE = 125 MB/s).
    pub nic_bps: f64,
    /// Rack uplink capacity per direction, bytes/s.
    pub uplink_bps: f64,
    /// Core fabric capacity, bytes/s (large; rarely the bottleneck).
    pub core_bps: f64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        // 2009-era: GigE NICs, 4:1-ish oversubscribed 10 GigE uplinks.
        TopologyConfig {
            racks: 8,
            hosts_per_rack: 24,
            nic_bps: 125.0e6,
            uplink_bps: 1_250.0e6,
            core_bps: 40_000.0e6,
        }
    }
}

struct HostLinks {
    egress: LinkId,
    ingress: LinkId,
    rack: usize,
}

/// A built two-tier topology over a [`Network`].
pub struct Topology {
    net: Network,
    hosts: Vec<HostLinks>,
    uplink_up: Vec<LinkId>,
    uplink_down: Vec<LinkId>,
    core: LinkId,
}

impl Topology {
    /// Create all links for `cfg` inside `net`.
    pub fn build(net: &Network, cfg: &TopologyConfig) -> Self {
        assert!(cfg.racks > 0 && cfg.hosts_per_rack > 0);
        let mut uplink_up = Vec::with_capacity(cfg.racks);
        let mut uplink_down = Vec::with_capacity(cfg.racks);
        for r in 0..cfg.racks {
            uplink_up.push(net.add_link(
                format!("rack{r}.up"),
                LinkModel::Shared {
                    capacity: cfg.uplink_bps,
                },
            ));
            uplink_down.push(net.add_link(
                format!("rack{r}.down"),
                LinkModel::Shared {
                    capacity: cfg.uplink_bps,
                },
            ));
        }
        let core = net.add_link(
            "core",
            LinkModel::Shared {
                capacity: cfg.core_bps,
            },
        );
        let mut hosts = Vec::with_capacity(cfg.racks * cfg.hosts_per_rack);
        for r in 0..cfg.racks {
            for h in 0..cfg.hosts_per_rack {
                hosts.push(HostLinks {
                    egress: net.add_link(
                        format!("host{r}.{h}.out"),
                        LinkModel::Shared {
                            capacity: cfg.nic_bps,
                        },
                    ),
                    ingress: net.add_link(
                        format!("host{r}.{h}.in"),
                        LinkModel::Shared {
                            capacity: cfg.nic_bps,
                        },
                    ),
                    rack: r,
                });
            }
        }
        Topology {
            net: net.clone(),
            hosts,
            uplink_up,
            uplink_down,
            core,
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Rack index of a host.
    pub fn rack_of(&self, h: HostId) -> usize {
        self.hosts[h.0].rack
    }

    /// True if the two hosts share a rack (their traffic avoids uplinks).
    pub fn same_rack(&self, a: HostId, b: HostId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// The host's NIC egress link (for custom paths, e.g. into a storage
    /// front-end).
    pub fn egress(&self, h: HostId) -> LinkId {
        self.hosts[h.0].egress
    }

    /// The host's NIC ingress link.
    pub fn ingress(&self, h: HostId) -> LinkId {
        self.hosts[h.0].ingress
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// All rack uplink links, both directions (for background traffic).
    pub fn uplinks(&self) -> Vec<LinkId> {
        self.uplink_up
            .iter()
            .chain(self.uplink_down.iter())
            .copied()
            .collect()
    }

    /// The upstream uplink of rack `r`.
    pub fn uplink_up(&self, r: usize) -> LinkId {
        self.uplink_up[r]
    }

    /// The downstream uplink of rack `r`.
    pub fn uplink_down(&self, r: usize) -> LinkId {
        self.uplink_down[r]
    }

    /// The core fabric link.
    pub fn core(&self) -> LinkId {
        self.core
    }

    /// Link path from `src` to `dst`: same-rack traffic stays on NICs;
    /// cross-rack traffic additionally crosses both uplinks and the core.
    pub fn path(&self, src: HostId, dst: HostId) -> Vec<LinkId> {
        let s = &self.hosts[src.0];
        let d = &self.hosts[dst.0];
        if s.rack == d.rack {
            vec![s.egress, d.ingress]
        } else {
            vec![
                s.egress,
                self.uplink_up[s.rack],
                self.core,
                self.uplink_down[d.rack],
                d.ingress,
            ]
        }
    }

    /// Transfer `bytes` from `src` to `dst` with no per-flow cap.
    pub async fn send(&self, src: HostId, dst: HostId, bytes: f64) -> TransferStats {
        self.net
            .transfer(&self.path(src, dst), bytes, f64::INFINITY)
            .await
    }

    /// Pick an ordered pair of distinct hosts uniformly at random.
    pub fn random_pair(&self, rng: &mut SimRng) -> (HostId, HostId) {
        let a = rng.usize_below(self.hosts.len());
        let mut b = rng.usize_below(self.hosts.len() - 1);
        if b >= a {
            b += 1;
        }
        (HostId(a), HostId(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_topo(sim: &Sim) -> Topology {
        let net = Network::new(sim);
        Topology::build(
            &net,
            &TopologyConfig {
                racks: 2,
                hosts_per_rack: 2,
                nic_bps: 100.0,
                uplink_bps: 150.0,
                core_bps: 10_000.0,
            },
        )
    }

    #[test]
    fn rack_assignment_is_block_wise() {
        let sim = Sim::new(1);
        let t = small_topo(&sim);
        assert_eq!(t.host_count(), 4);
        assert_eq!(t.rack_of(HostId(0)), 0);
        assert_eq!(t.rack_of(HostId(1)), 0);
        assert_eq!(t.rack_of(HostId(2)), 1);
        assert!(t.same_rack(HostId(0), HostId(1)));
        assert!(!t.same_rack(HostId(1), HostId(2)));
    }

    #[test]
    fn same_rack_path_has_two_links() {
        let sim = Sim::new(1);
        let t = small_topo(&sim);
        assert_eq!(t.path(HostId(0), HostId(1)).len(), 2);
        assert_eq!(t.path(HostId(0), HostId(2)).len(), 5);
    }

    #[test]
    fn same_rack_transfer_gets_nic_rate() {
        let sim = Sim::new(1);
        let t = Rc::new(small_topo(&sim));
        let tt = Rc::clone(&t);
        let h = sim.spawn(async move { tt.send(HostId(0), HostId(1), 1000.0).await });
        sim.run();
        // NIC = 100 B/s is the bottleneck -> 10 s.
        assert!((h.try_take().unwrap().duration().as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn cross_rack_transfers_contend_on_uplink() {
        let sim = Sim::new(1);
        let t = Rc::new(small_topo(&sim));
        // Both rack-0 hosts send cross-rack: uplink 150 shared by 2 flows
        // -> 75 each (NIC 100 not binding).
        let rates: Rc<std::cell::RefCell<Vec<f64>>> = Rc::default();
        for (src, dst) in [(HostId(0), HostId(2)), (HostId(1), HostId(3))] {
            let (tt, r) = (Rc::clone(&t), rates.clone());
            sim.spawn(async move {
                let s = tt.send(src, dst, 750.0).await;
                r.borrow_mut().push(s.avg_rate());
            });
        }
        sim.run();
        for rate in rates.borrow().iter() {
            assert!((rate - 75.0).abs() < 1e-6, "rate={rate}");
        }
    }

    #[test]
    fn random_pair_is_distinct() {
        let sim = Sim::new(5);
        let t = small_topo(&sim);
        let mut rng = sim.rng("pairs");
        for _ in 0..100 {
            let (a, b) = t.random_pair(&mut rng);
            assert_ne!(a, b);
            assert!(a.0 < 4 && b.0 < 4);
        }
    }

    use std::rc::Rc;
}
