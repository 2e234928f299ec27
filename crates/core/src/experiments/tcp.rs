//! Experiments FIG4 and FIG5 — instance-to-instance TCP latency and
//! bandwidth (paper §4.2).
//!
//! "We create a deployment with 20 small VMs. Ten of these VMs measure
//! latency, and the rest measure bandwidth. Each virtual machine is
//! paired with another one ... the client measures the roundtrip time of
//! 1 byte of information ... For the bandwidth measurement the client
//! sends 2 GB of information to the server." Both figures are cumulative
//! histograms over ~10 000 measurements.

use std::cell::RefCell;
use std::rc::Rc;

use dcnet::{
    BackgroundConfig, BackgroundTraffic, HostId, LatencyModel, LinkModel, Network, PairPlacement,
    Topology, TopologyConfig,
};
use simcore::prelude::*;
use simcore::report::{num, pct, AsciiTable};
use simlab::{run_cells, CellCtx, RunOpts};

// ---------------------------------------------------------------------------
// FIG4 — latency
// ---------------------------------------------------------------------------

/// Configuration of the latency measurement.
#[derive(Debug, Clone)]
pub struct TcpLatencyConfig {
    /// VM pairs measuring (paper: 10 VMs = 5..10 pairs; samples matter).
    pub pairs: usize,
    /// RTT samples per pair (total ≈ 10 000 in the paper).
    pub samples_per_pair: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TcpLatencyConfig {
    fn default() -> Self {
        TcpLatencyConfig {
            pairs: 10,
            samples_per_pair: 1000,
            seed: 0xF164,
        }
    }
}

/// Latency measurement outcome.
#[derive(Debug, Clone)]
pub struct TcpLatencyResult {
    /// All RTT samples, milliseconds.
    pub samples_ms: SampleSet,
}

impl TcpLatencyResult {
    /// Fraction of samples at or below `ms`.
    pub fn fraction_at_most(&self, ms: f64) -> f64 {
        self.samples_ms.fraction_at_most(ms)
    }

    /// Render the cumulative histogram (Fig 4 style).
    pub fn render(&self) -> String {
        let hist = self.samples_ms.histogram(0.0, 10.0, 20);
        let mut t = AsciiTable::new(vec!["latency <= (ms)", "samples", "cumulative"])
            .with_title("Fig 4 — cumulative TCP latency between small VMs");
        for (edge, count, cum) in hist.cumulative() {
            t.row(vec![num(edge, 1), count.to_string(), pct(cum)]);
        }
        t.row(vec![
            "overflow".to_string(),
            hist.overflow().to_string(),
            pct(1.0),
        ]);
        t.render()
    }
}

/// Run the latency measurement, one cell per VM pair. Each pair keeps
/// its placement for all of its samples, as a real deployed pair would.
/// Placements come from the fabric's fault-domain spread
/// ([`LatencyModel::spread_placements`]): a 10-pair deployment realizes
/// the datacenter placement mixture instead of rolling i.i.d. placement
/// dice, which at this sample size misses Fig 4's anchors more often
/// than it hits them. Returns the result and the traced cell's summary,
/// if any.
pub fn run_latency(cfg: &TcpLatencyConfig, opts: &RunOpts) -> (TcpLatencyResult, Option<String>) {
    let placements = LatencyModel::default().spread_placements(cfg.pairs);
    let out = run_cells(cfg.pairs, opts, |i, ctx| {
        latency_pair(cfg, i, placements[i], ctx)
    });
    let mut samples = SampleSet::with_capacity(cfg.pairs * cfg.samples_per_pair);
    for v in out.cells.into_iter().flatten() {
        samples.push(v);
    }
    let result = TcpLatencyResult {
        samples_ms: samples,
    };
    (result, out.trace_summary)
}

/// One pair's RTT samples (ms). The latency model is a closed-form draw
/// with no `Sim` behind it, so it is transparent to fault plans (the
/// paper's Fig 4 ran on a healthy deployment; faults act on the storage
/// and fabric figures). When this is the traced cell it also runs a
/// representative NIC-level ping scenario, so the Chrome trace has real
/// `net.flow` spans in it; the samples do not depend on it.
fn latency_pair(
    cfg: &TcpLatencyConfig,
    pair: usize,
    placement: PairPlacement,
    ctx: &CellCtx,
) -> Vec<f64> {
    let model = LatencyModel::default();
    let mut rng = SimRng::from_seed(cfg.seed ^ ((pair as u64) << 8));
    let samples = (0..cfg.samples_per_pair)
        .map(|_| model.sample_rtt(placement, &mut rng).as_millis_f64())
        .collect();
    if ctx.is_traced() {
        // A few 1-byte-scale ping flows across a VM pair's NIC links
        // (net.flow spans + bandwidth-share counters).
        ctx.with_sim(cfg.seed, |sim| {
            let net = Network::new(sim);
            let tx = net.add_link("vm_a.tx", LinkModel::Shared { capacity: 125.0e6 });
            let rx = net.add_link("vm_b.rx", LinkModel::Shared { capacity: 125.0e6 });
            for _ in 0..5 {
                let net = net.clone();
                sim.spawn(async move {
                    for _ in 0..4 {
                        net.transfer(&[tx, rx], 1.0e3, f64::INFINITY).await;
                    }
                });
            }
            sim.run();
        });
    }
    samples
}

// ---------------------------------------------------------------------------
// FIG5 — bandwidth
// ---------------------------------------------------------------------------

/// Configuration of the bandwidth measurement.
#[derive(Debug, Clone)]
pub struct TcpBandwidthConfig {
    /// Deployment rounds (each re-places the pairs and re-rolls the
    /// background state).
    pub rounds: usize,
    /// Concurrent measurement pairs per round (paper: 5).
    pub pairs_per_round: usize,
    /// Sequential transfers per pair per round.
    pub transfers_per_pair: usize,
    /// Transfer size (paper: 2 GB).
    pub bytes: f64,
    /// Probability a pair lands in the same rack (deployment locality).
    pub p_same_rack: f64,
    /// ABLATION: background tenant traffic on/off (off removes Fig 5's
    /// contended lower tail).
    pub background: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TcpBandwidthConfig {
    fn default() -> Self {
        TcpBandwidthConfig {
            rounds: 24,
            pairs_per_round: 5,
            transfers_per_pair: 4,
            bytes: 2.0e9,
            p_same_rack: 0.55,
            background: true,
            seed: 0xF165,
        }
    }
}

impl TcpBandwidthConfig {
    /// Smaller variant for tests.
    pub fn quick() -> Self {
        TcpBandwidthConfig {
            rounds: 8,
            transfers_per_pair: 2,
            bytes: 1.0e9,
            ..TcpBandwidthConfig::default()
        }
    }
}

/// Bandwidth measurement outcome.
#[derive(Debug, Clone)]
pub struct TcpBandwidthResult {
    /// Per-transfer average rates, MB/s.
    pub samples_mbps: SampleSet,
}

impl TcpBandwidthResult {
    /// Fraction of transfers at or above `mbps`.
    pub fn fraction_at_least(&self, mbps: f64) -> f64 {
        1.0 - self.samples_mbps.fraction_at_most(mbps - 1e-9)
    }

    /// Fraction of transfers at or below `mbps`.
    pub fn fraction_at_most(&self, mbps: f64) -> f64 {
        self.samples_mbps.fraction_at_most(mbps)
    }

    /// Render the cumulative histogram (Fig 5 style).
    pub fn render(&self) -> String {
        let hist = self.samples_mbps.histogram(0.0, 130.0, 13);
        let mut t = AsciiTable::new(vec!["bandwidth <= (MB/s)", "samples", "cumulative"])
            .with_title("Fig 5 — cumulative TCP bandwidth, 2 GB transfers");
        for (edge, count, cum) in hist.cumulative() {
            t.row(vec![num(edge, 0), count.to_string(), pct(cum)]);
        }
        t.render()
    }
}

/// Pick a pair of distinct hosts, same-rack with probability
/// `p_same_rack` (deployments are packed close by the fabric).
fn place_pair(topo: &Topology, p_same: f64, rng: &mut SimRng) -> (HostId, HostId) {
    if rng.chance(p_same) {
        loop {
            let (a, b) = topo.random_pair(rng);
            if topo.same_rack(a, b) {
                return (a, b);
            }
        }
    } else {
        loop {
            let (a, b) = topo.random_pair(rng);
            if !topo.same_rack(a, b) {
                return (a, b);
            }
        }
    }
}

/// One deployment round's transfer rates (MB/s).
fn bandwidth_round(cfg: &TcpBandwidthConfig, round: usize, ctx: &CellCtx) -> Vec<f64> {
    let seed = cfg.seed ^ ((round as u64) << 12);
    ctx.with_sim(seed, |sim| one_round_on(sim, cfg))
}

fn one_round_on(sim: &Sim, cfg: &TcpBandwidthConfig) -> Vec<f64> {
    let net = Network::new(sim);
    let topo = Rc::new(Topology::build(&net, &TopologyConfig::default()));
    let bg_cfg = if cfg.background {
        BackgroundConfig::default()
    } else {
        // All-calm mixtures: controllers exist but never spawn flows.
        let calm = dcnet::ClassMix {
            p_calm: 1.0,
            p_busy: 0.0,
            calm: (0, 0),
            busy: (0, 0),
            congested: (0, 0),
        };
        BackgroundConfig {
            uplink: calm.clone(),
            nic: calm,
            ..BackgroundConfig::default()
        }
    };
    let bg = BackgroundTraffic::start(&topo, &bg_cfg);
    let rates: Rc<RefCell<Vec<f64>>> = Rc::default();
    let done = Rc::new(std::cell::Cell::new(0usize));
    let total_pairs = cfg.pairs_per_round;
    let mut rng = sim.rng("fig5.placement");
    for p in 0..total_pairs {
        let (src, dst) = place_pair(&topo, cfg.p_same_rack, &mut rng);
        let (t, r, s) = (Rc::clone(&topo), rates.clone(), sim.clone());
        let (b, d) = (bg.clone(), done.clone());
        let (bytes, k) = (cfg.bytes, cfg.transfers_per_pair);
        let mut prng = sim.rng(&format!("fig5.pair{p}"));
        sim.spawn(async move {
            // Let the background generators reach steady state first.
            s.delay(SimDuration::from_secs(15)).await;
            for _ in 0..k {
                // Per-connection TCP efficiency: window/framing losses
                // keep a single stream a bit under line rate.
                let cap = 125.0e6 * prng.range_f64(0.80, 0.95);
                let path = t.path(src, dst);
                let stats = t.network().transfer(&path, bytes, cap).await;
                r.borrow_mut().push(stats.avg_rate() / 1.0e6);
            }
            d.set(d.get() + 1);
            if d.get() == total_pairs {
                b.stop();
            }
        });
    }
    sim.run();
    let out = rates.borrow().clone();
    out
}

/// Run the bandwidth measurement, one cell per deployment round.
/// Returns the result and the traced cell's summary, if any.
pub fn run_bandwidth(
    cfg: &TcpBandwidthConfig,
    opts: &RunOpts,
) -> (TcpBandwidthResult, Option<String>) {
    let out = run_cells(cfg.rounds, opts, |i, ctx| bandwidth_round(cfg, i, ctx));
    let mut samples =
        SampleSet::with_capacity(cfg.rounds * cfg.pairs_per_round * cfg.transfers_per_pair);
    for v in out.cells.into_iter().flatten() {
        samples.push(v);
    }
    let result = TcpBandwidthResult {
        samples_mbps: samples,
    };
    (result, out.trace_summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig 4's anchors: ≈50 % ≤ 1 ms, ≈75 % ≤ 2 ms.
    #[test]
    fn fig4_anchor_fractions() {
        let cfg = TcpLatencyConfig {
            pairs: 40, // more pairs to tighten the placement mixture
            samples_per_pair: 500,
            seed: 99,
        };
        let (r, _) = run_latency(&cfg, &RunOpts::serial());
        let le1 = r.fraction_at_most(1.0);
        let le2 = r.fraction_at_most(2.0);
        assert!((le1 - 0.50).abs() < 0.12, "P(<=1ms) = {le1}");
        assert!((le2 - 0.75).abs() < 0.12, "P(<=2ms) = {le2}");
        assert!(r.samples_ms.max() > 5.0, "no tail");
    }

    /// Fig 5's anchors: ≈50 % of transfers ≥ 90 MB/s, ≈15 % ≤ 30 MB/s.
    #[test]
    fn fig5_anchor_fractions() {
        let (r, _) = run_bandwidth(&TcpBandwidthConfig::quick(), &RunOpts::serial());
        let ge90 = r.fraction_at_least(90.0);
        let le30 = r.fraction_at_most(30.0);
        assert!((0.30..0.72).contains(&ge90), "P(>=90) = {ge90}");
        assert!((0.04..0.33).contains(&le30), "P(<=30) = {le30}");
        // Nothing exceeds GigE.
        assert!(r.samples_mbps.max() <= 125.0 + 1e-6);
    }

    #[test]
    fn latency_render_is_cumulative() {
        for (pairs, samples_per_pair, seed) in [(4, 100, 7), (10, 1000, 1)] {
            let cfg = TcpLatencyConfig {
                pairs,
                samples_per_pair,
                seed,
            };
            let (r, _) = run_latency(&cfg, &RunOpts::serial());
            assert_eq!(r.samples_ms.len(), pairs * samples_per_pair);
            let s = r.render();
            assert!(s.contains("Fig 4"));
            assert!(s.contains("overflow"));
        }
    }

    #[test]
    fn bandwidth_render_has_13_bins() {
        let cfg = TcpBandwidthConfig {
            rounds: 2,
            pairs_per_round: 2,
            transfers_per_pair: 1,
            bytes: 0.5e9,
            p_same_rack: 0.5,
            background: true,
            seed: 3,
        };
        let (r, _) = run_bandwidth(&cfg, &RunOpts::serial());
        let s = r.render();
        assert_eq!(s.lines().count(), 1 + 2 + 13);
    }

    #[test]
    fn placement_bias_is_respected() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let topo = Topology::build(&net, &TopologyConfig::default());
        let mut rng = sim.rng("place");
        let n = 2000;
        let same = (0..n)
            .filter(|_| {
                let (a, b) = place_pair(&topo, 0.55, &mut rng);
                topo.same_rack(a, b)
            })
            .count();
        let frac = same as f64 / n as f64;
        assert!((frac - 0.55).abs() < 0.05, "same-rack frac = {frac}");
    }
}
