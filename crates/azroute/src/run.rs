//! One consistency measurement cell: a region-pinned open-loop reader
//! fleet plus a background writer stream against a whole geo set.
//!
//! Arrival schedules are drawn up front from dedicated RNG streams
//! (`"route.arrivals"` for reads, `"route.writes"` for the mutation
//! stream that feeds the replication logs). The reads run through
//! `simload::drive` — one task per arrival, coordinated-omission-free
//! latency charged from the scheduled instant, window throughput and SLO
//! accounting — with every read going through the
//! [`RouteClient`](crate::route::RouteClient) consistency router, and
//! every successful read's *observed staleness* landing in the SLO
//! tracker's staleness stream.
//!
//! Reader placement is the swept variable: `Home` pins each client to
//! its account's primary region (the azgeo baseline), `Secondary` to
//! the account's secondary region (where eventual reads become free),
//! and `Remote` to a region hosting neither replica (where every mode
//! pays something). Cells with a `fault_start_s` restrict the fleet to
//! accounts primaried on stamp 0 — the partition victim — so the
//! availability split between modes is not diluted by accounts the
//! fault never touches.

use std::cell::Cell;
use std::rc::Rc;

use azgeo::calib;
use azgeo::failover::spawn_monitor;
use azgeo::set::{spawn_shipper, GeoSet};
use azstore::StampConfig;
use dcnet::RegionRtt;
use simcore::prelude::*;
use simfault::GiveUp;
use simload::{latency_since, ArrivalProcess, SloTracker, Window, Workload};
use simtrace::Layer;

use crate::consistency::{Consistency, ReadPolicy};
use crate::route::{RouteClient, RouteStats};

/// Where the reader fleet sits relative to its accounts' replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderPlacement {
    /// Each client in its account's primary region (RTT 0 to primary).
    Home,
    /// Each client in its account's secondary region (RTT 0 to the
    /// replica eventual reads want).
    Secondary,
    /// Each client in a region hosting neither replica (lowest stamp
    /// index that is not the primary or secondary — deterministic).
    Remote,
}

impl ReaderPlacement {
    /// Short name for tables and CSV rows.
    pub fn name(self) -> &'static str {
        match self {
            ReaderPlacement::Home => "home",
            ReaderPlacement::Secondary => "secondary",
            ReaderPlacement::Remote => "remote",
        }
    }

    /// The client region this placement pins an account's reader to.
    fn region_for(self, p: azgeo::Placement, stamps: usize) -> usize {
        match self {
            ReaderPlacement::Home => p.primary,
            ReaderPlacement::Secondary => p.secondary,
            ReaderPlacement::Remote => (0..stamps)
                .find(|&s| s != p.primary && s != p.secondary)
                .expect("remote placement needs at least three stamps"),
        }
    }
}

/// One consistency cell's knobs.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Number of stamps = number of regions (equal capacity weights).
    pub stamps: usize,
    /// Storage accounts placed over the stamps.
    pub accounts: u32,
    /// The read op fired per arrival (BlobGet or TableQuery).
    pub workload: Workload,
    /// Arrival process shaping the read schedule.
    pub process: ArrivalProcess,
    /// Aggregate offered read rate across the whole set (ops/s).
    pub offered_ops_s: f64,
    /// Warmup before the measurement window (seconds).
    pub warmup_s: f64,
    /// Measurement window (seconds).
    pub window_s: f64,
    /// Reader VMs arrivals round-robin over.
    pub fleet: usize,
    /// Read-latency SLO from the scheduled instant (seconds).
    pub deadline_s: f64,
    /// The consistency mode every reader runs under.
    pub mode: Consistency,
    /// Where the reader fleet sits relative to its replicas.
    pub placement: ReaderPlacement,
    /// Placement seed for the location service.
    pub placement_seed: u64,
    /// Seed for the region↔region RTT matrix.
    pub rtt_seed: u64,
    /// Base cross-region RTT (seconds) the matrix spreads around.
    pub rtt_base_s: f64,
    /// Per-pair RTT spread in `[0, 1)`.
    pub rtt_spread: f64,
    /// Aggregate background write rate feeding the replication logs
    /// (queue Adds at each account's primary, ops/s).
    pub write_ops_s: f64,
    /// When set, a stamp-0 partition opens at this instant (the caller
    /// installs the fault plan) and the fleet reads *only* accounts
    /// primaried on stamp 0; the result's RTO-window goodput counts
    /// successful reads scheduled inside
    /// `[first probe-grid instant ≥ start, +EXPECTED_RTO_S)`.
    pub fault_start_s: Option<f64>,
}

/// Everything one consistency cell measures.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// Target aggregate offered read rate (ops/s).
    pub offered_ops_s: f64,
    /// Rate actually scheduled in the window (ops/s).
    pub scheduled_ops_s: f64,
    /// Successful read completions in the window / window (ops/s).
    pub achieved_ops_s: f64,
    /// In-window completions that also met the deadline (ops/s).
    pub goodput_ops_s: f64,
    /// SLO accounting over the window-scheduled cohort; the staleness
    /// stream holds every successful read's observed staleness.
    pub slo: SloTracker,
    /// Reads answered by primaries.
    pub reads_primary: u64,
    /// Reads answered by secondaries.
    pub reads_secondary: u64,
    /// Secondary probes the policy refused (escalated to primary).
    pub escalations: u64,
    /// Reads/writes timed out against a partitioned stamp.
    pub unavailable: u64,
    /// Successful background writes.
    pub writes_ok: u64,
    /// Successful reads *scheduled* inside the RTO window (see
    /// [`RouteConfig::fault_start_s`]); 0 for clean cells.
    pub rto_window_good: u64,
    /// The RTO window `[start, end)`, when a fault was configured.
    pub rto_window: Option<(f64, f64)>,
    /// Fleet-mean region→primary RTT (the price a strong read pays).
    pub expected_primary_rtt_s: f64,
    /// Fleet-mean `rtt(region, primary) − rtt(region, nearest replica)`
    /// — the closed-form latency drop an eventual read should realize.
    pub expected_saving_rtt_s: f64,
    /// Accounts promoted to their secondary (partition cells).
    pub promotions: u64,
    /// Commit-log entries lost at promotions.
    pub lost_entries: u64,
    /// Measured first-failover RTO (s); 0 without a failover.
    pub rto_s: f64,
    /// FNV fold of every routing decision — the purity witness.
    pub route_fingerprint: u64,
    /// The RTT matrix digest (two runs with equal fingerprints routed
    /// over bit-identical distances).
    pub rtt_fingerprint: u64,
}

/// Run one consistency cell to completion on `sim` (drives
/// `sim.run()`).
pub fn run_consistency(sim: &Sim, base: StampConfig, cfg: &RouteConfig) -> RouteResult {
    assert!(cfg.stamps >= 3, "remote placement needs three stamps");
    assert!(cfg.fleet > 0, "fleet must be non-empty");
    assert!(cfg.accounts > 0, "need at least one account");
    assert!(cfg.window_s > 0.0, "window must be positive");
    if let Consistency::BoundedStaleness(tau) = cfg.mode {
        assert!(
            tau.is_finite() && tau > 0.0,
            "BoundedStaleness bound must be positive (CLI rejects this at parse)"
        );
    }

    let weights = vec![1.0; cfg.stamps];
    let set = GeoSet::new(sim, &base, &weights, cfg.accounts, cfg.placement_seed);
    for stamp in set.stamps() {
        simload::seed_workload(stamp, cfg.workload);
    }
    let rtt = Rc::new(RegionRtt::new(
        cfg.rtt_seed,
        cfg.stamps,
        cfg.rtt_base_s,
        cfg.rtt_spread,
    ));
    let stats = Rc::new(RouteStats::new());

    // The fleet's account pool: everything, or — in a partition cell —
    // only the fault victim's primaries, so every scheduled read is one
    // the partition actually threatens.
    let pool: Vec<u32> = match cfg.fault_start_s {
        None => (0..cfg.accounts).collect(),
        Some(_) => set.location().primaries_on(0),
    };
    assert!(
        !pool.is_empty(),
        "stamp 0 must primary at least one account"
    );

    // One router per VM, pinned to the placement's region for its own
    // account; writers reuse the same clients so session tokens come
    // from the clients' own writes.
    let accounts_of_vm: Vec<u32> = (0..cfg.fleet).map(|vm| pool[vm % pool.len()]).collect();
    let clients: Vec<Rc<RouteClient>> = (0..cfg.fleet)
        .map(|vm| {
            let p = set.location().placement_of(accounts_of_vm[vm]);
            let region = cfg.placement.region_for(p, cfg.stamps);
            Rc::new(RouteClient::new(&set, &rtt, &stats, vm, region, cfg.mode))
        })
        .collect();

    // Closed-form RTT expectations for the campaign's drop anchor:
    // reads round-robin uniformly over the fleet, so the fleet mean is
    // the per-read expectation.
    let (mut exp_primary, mut exp_nearest) = (0.0f64, 0.0f64);
    for (vm, c) in clients.iter().enumerate() {
        let p = set.location().placement_of(accounts_of_vm[vm]);
        exp_primary += rtt.rtt_s(c.region(), p.primary);
        let near = rtt.nearest(c.region(), &[p.primary, p.secondary]);
        exp_nearest += rtt.rtt_s(c.region(), near);
    }
    exp_primary /= cfg.fleet as f64;
    exp_nearest /= cfg.fleet as f64;

    let horizon = cfg.warmup_s + cfg.window_s;
    let mut rng = sim.rng("route.arrivals");
    let instants = cfg.process.instants(&mut rng, cfg.offered_ops_s, horizon);

    // The RTO availability window: from the first probe-grid instant at
    // or after the fault (where the monitor charges the RTO from) for
    // the closed-form recovery time.
    let rto_window = cfg.fault_start_s.map(|start| {
        let grid = calib::PROBE_INTERVAL_S;
        let first_missed = (start / grid).ceil() * grid;
        (first_missed, first_missed + calib::EXPECTED_RTO_S)
    });

    let window = Window {
        offset_s: 0.0,
        warmup_s: cfg.warmup_s,
        window_s: cfg.window_s,
        deadline_s: cfg.deadline_s,
    };
    let rto_good = Rc::new(Cell::new(0u64));
    let (workload, mode_name) = (cfg.workload, cfg.mode.name());
    let (s, rto_good_op) = (sim.clone(), Rc::clone(&rto_good));
    let reader_clients = clients.clone();
    let reader_accounts = accounts_of_vm.clone();
    let run = simload::drive(sim, instants, window, move |i, t| {
        let s = s.clone();
        let client = Rc::clone(&reader_clients[i % reader_clients.len()]);
        let account = reader_accounts[i % reader_clients.len()];
        let rto_good = Rc::clone(&rto_good_op);
        // Availability is judged by *scheduled* instant: a read that
        // arrives inside the RTO window and succeeds counts, however
        // long it takes — a strong read arriving there hits the down
        // check immediately and can never count.
        let in_rto_window = rto_window.is_some_and(|(w0, w1)| (w0..w1).contains(&t));
        async move {
            let sp = simtrace::span(Layer::Route, "route.read", || {
                format!("route:{mode_name}:a{account:04}")
            });
            let res = client.read(account, workload, i).await;
            sp.attr(
                "latency_ms",
                format_args!("{:.3}", latency_since(&s, t) * 1e3),
            );
            if let Ok(out) = &res {
                sp.attr("staleness_ms", format_args!("{:.3}", out.staleness_s * 1e3));
                sp.attr("served_by", format_args!("s{}", out.served_by));
            }
            sp.end();
            if res.is_ok() && in_rto_window {
                rto_good.set(rto_good.get() + 1);
            }
            res.map(|out| Some(out.staleness_s))
                .map_err(|e| (e, GiveUp::NotRetryable))
        }
    });

    // Background writers: Poisson mutations round-robin over the same
    // clients (each writes its own account), feeding the replication
    // logs the staleness measurements read.
    if cfg.write_ops_s > 0.0 {
        let mut wrng = sim.rng("route.writes");
        let writes = ArrivalProcess::Poisson.instants(&mut wrng, cfg.write_ops_s, horizon);
        simload::spawn_at_instants(sim, 0.0, writes, move |k, _| {
            let client = Rc::clone(&clients[k % clients.len()]);
            let account = accounts_of_vm[k % clients.len()];
            async move {
                let _ = client.write(account, 512.0, k).await;
            }
        });
    }

    spawn_shipper(&set, horizon);
    spawn_monitor(&set, horizon);
    let m = run.run();
    RouteResult {
        offered_ops_s: cfg.offered_ops_s,
        scheduled_ops_s: m.scheduled_ops_s,
        achieved_ops_s: m.achieved_ops_s,
        goodput_ops_s: m.goodput_ops_s,
        slo: m.slo,
        reads_primary: stats.reads_primary.get(),
        reads_secondary: stats.reads_secondary.get(),
        escalations: stats.escalations.get(),
        unavailable: stats.unavailable.get(),
        writes_ok: stats.writes.get(),
        rto_window_good: rto_good.get(),
        rto_window,
        expected_primary_rtt_s: exp_primary,
        expected_saving_rtt_s: exp_primary - exp_nearest,
        promotions: set.stats.promotions.get(),
        lost_entries: set.stats.lost_entries.get(),
        rto_s: set.stats.rto_s.get(),
        route_fingerprint: stats.fingerprint.get(),
        rtt_fingerprint: rtt.fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfault::{FaultEpisode, FaultKind, FaultPlan, StorageFaults};

    fn cfg(mode: Consistency, placement: ReaderPlacement) -> RouteConfig {
        RouteConfig {
            stamps: 4,
            accounts: 16,
            workload: Workload::TableQuery {
                entities: 64,
                entity_kb: 4,
            },
            process: ArrivalProcess::Poisson,
            offered_ops_s: 100.0,
            warmup_s: 2.0,
            window_s: 8.0,
            fleet: 16,
            deadline_s: 0.5,
            mode,
            placement,
            placement_seed: 0xA2,
            rtt_seed: 0xC3,
            rtt_base_s: 0.035,
            rtt_spread: 0.5,
            write_ops_s: 16.0,
            fault_start_s: None,
        }
    }

    fn cell(seed: u64, c: &RouteConfig) -> RouteResult {
        let sim = Sim::new(seed);
        run_consistency(&sim, StampConfig::default(), c)
    }

    fn partition_cell(seed: u64, mode: Consistency) -> RouteResult {
        let sim = Sim::new(seed);
        let plan = FaultPlan {
            name: "test",
            storage: StorageFaults::clean(),
            episodes: vec![FaultEpisode {
                start_s: 4.0,
                duration_s: 600.0,
                kind: FaultKind::StampPartition { stamp: 0 },
            }],
        };
        let _g = simfault::install(&sim, &plan);
        let c = RouteConfig {
            window_s: 14.0,
            fault_start_s: Some(4.0),
            ..cfg(mode, ReaderPlacement::Secondary)
        };
        run_consistency(&sim, StampConfig::default(), &c)
    }

    #[test]
    fn strong_pays_the_primary_rtt_eventual_does_not() {
        let strong = cell(21, &cfg(Consistency::Strong, ReaderPlacement::Secondary));
        let eventual = cell(21, &cfg(Consistency::Eventual, ReaderPlacement::Secondary));
        assert_eq!(strong.reads_secondary, 0);
        assert!(eventual.reads_secondary > 0);
        assert_eq!(eventual.escalations, 0);
        // From the secondary's region the strong read pays one full
        // cross-region RTT the eventual read skips; the measured mean
        // drop must land on the fleet-mean RTT within queueing noise.
        let drop_s = (strong.slo.latency.mean() - eventual.slo.latency.mean()).max(0.0);
        let expected = strong.expected_primary_rtt_s - strong.expected_saving_rtt_s + 0.0;
        assert!(
            expected.abs() < 1e-12,
            "secondary placement: nearest is free"
        );
        assert!(
            (drop_s - strong.expected_saving_rtt_s).abs() / strong.expected_saving_rtt_s < 0.10,
            "measured drop {drop_s} vs expected {}",
            strong.expected_saving_rtt_s
        );
        // Eventual reads observed real replication lag.
        assert!(eventual.slo.staleness.max() > 0.0);
        // Strong reads never observe staleness.
        assert_eq!(strong.slo.staleness.max(), 0.0);
    }

    #[test]
    fn bounded_staleness_is_a_hard_invariant() {
        let tau = 2.0;
        let r = cell(
            22,
            &cfg(Consistency::bounded(tau), ReaderPlacement::Secondary),
        );
        assert!(r.reads_secondary > 0, "some reads within the bound");
        assert!(r.escalations > 0, "some reads beyond it escalated");
        assert!(
            r.slo.staleness.max() <= tau,
            "observed staleness {} exceeds tau {tau}",
            r.slo.staleness.max()
        );
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let c = cfg(Consistency::Session, ReaderPlacement::Remote);
        let (a, b) = (cell(23, &c), cell(23, &c));
        assert_eq!(a.route_fingerprint, b.route_fingerprint);
        assert_eq!(a.rtt_fingerprint, b.rtt_fingerprint);
        assert_eq!(a.slo.completed, b.slo.completed);
        assert_eq!(a.achieved_ops_s.to_bits(), b.achieved_ops_s.to_bits());
        assert_eq!(a.writes_ok, b.writes_ok);
    }

    #[test]
    fn partition_splits_availability_by_mode() {
        let strong = partition_cell(24, Consistency::Strong);
        let eventual = partition_cell(24, Consistency::Eventual);
        let bounded = partition_cell(24, Consistency::bounded(15.0));
        // The window is the closed-form detection+promotion span.
        assert_eq!(strong.rto_window, Some((4.0, 13.0)));
        assert!(strong.promotions > 0, "the monitor promoted off stamp 0");
        // Strong reads arriving inside the window all hit the down
        // check; eventual/bounded keep serving from live secondaries.
        assert_eq!(strong.rto_window_good, 0, "strong blackout");
        assert!(strong.unavailable > 0);
        assert!(eventual.rto_window_good > 0, "eventual availability");
        assert!(bounded.rto_window_good > 0, "bounded availability");
        assert!(
            bounded.slo.staleness.max() <= 15.0,
            "the bound holds even while the partition grows the lag"
        );
        // The partition grew real staleness on the surviving replica.
        assert!(eventual.slo.staleness.max() > 1.0);
    }
}
