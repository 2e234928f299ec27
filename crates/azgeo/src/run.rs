//! One geo measurement cell: an open-loop fleet against a whole geo
//! set.
//!
//! The whole arrival schedule is drawn up front from the dedicated
//! `"geo.arrivals"` stream and run through `simload::drive` — one task
//! per arrival, coordinated-omission-free latency charged from the
//! scheduled instant, window throughput and SLO accounting — with every
//! op going through the [`GeoClient`](crate::set::GeoClient) front
//! door. The cell adds the geo control plane: the replication shipper,
//! the health monitor, and (optionally) the cross-stamp rebalancer.
//!
//! Clean cells keep *home-stamp affinity*: arrival `i` lands on VM
//! `i % fleet`, and each VM issues ops for its own account, whose
//! primary is the VM's home stamp — the realistic layout where
//! cross-stamp hops appear only after a migration or failover. Cells
//! with `skew_alpha` instead draw each arrival's account from the
//! `"geo.accounts"` stream with popularity skew `u^alpha` (account 0
//! hottest), which concentrates load on one stamp and exercises the
//! rebalancer.

use std::rc::Rc;

use azstore::StampConfig;
use simcore::prelude::*;
use simfault::GiveUp;
use simload::{latency_since, ArrivalProcess, SloTracker, Window, Workload};
use simtrace::Layer;

use crate::balance::spawn_rebalancer;
use crate::failover::spawn_monitor;
use crate::set::{spawn_shipper, GeoClient, GeoSet};

/// One geo cell's knobs.
#[derive(Debug, Clone)]
pub struct GeoConfig {
    /// Number of stamps (equal capacity weights).
    pub stamps: usize,
    /// Storage accounts placed over the stamps.
    pub accounts: u32,
    /// The op fired per arrival.
    pub workload: Workload,
    /// Arrival process shaping the schedule.
    pub process: ArrivalProcess,
    /// Aggregate offered rate across the whole set (ops/s).
    pub offered_ops_s: f64,
    /// Warmup before the measurement window (seconds).
    pub warmup_s: f64,
    /// Measurement window (seconds).
    pub window_s: f64,
    /// Client VMs arrivals round-robin over (whole set).
    pub fleet: usize,
    /// Latency SLO from the scheduled instant (seconds).
    pub deadline_s: f64,
    /// Per-arrival account popularity skew (`u^alpha`, account 0
    /// hottest); `None` keeps home-stamp affinity.
    pub skew_alpha: Option<f64>,
    /// Run the cross-stamp rebalancer.
    pub rebalance: bool,
    /// Placement seed for the location service.
    pub placement_seed: u64,
}

/// Everything one geo cell measures.
#[derive(Debug, Clone)]
pub struct GeoResult {
    /// Target aggregate offered rate (ops/s).
    pub offered_ops_s: f64,
    /// Rate actually scheduled in the window (ops/s).
    pub scheduled_ops_s: f64,
    /// Successful completion events in the window / window (ops/s).
    pub achieved_ops_s: f64,
    /// In-window completions that also met the deadline (ops/s).
    pub goodput_ops_s: f64,
    /// SLO accounting over the window-scheduled cohort.
    pub slo: SloTracker,
    /// Successful ops served per stamp (whole run).
    pub stamp_ops: Vec<u64>,
    /// Front-door sheds summed over stamps (whole run).
    pub admit_shed: u64,
    /// Station latch sheds summed over stamps (whole run).
    pub latch_shed: u64,
    /// TTL cache revalidations.
    pub revalidations: u64,
    /// Stale-epoch redirects.
    pub redirects: u64,
    /// Ops served off the VM's home stamp.
    pub remote_ops: u64,
    /// Ops timed out against a down stamp.
    pub unavailable_ops: u64,
    /// Replication batches / entries shipped.
    pub ship_batches: u64,
    /// Replication entries shipped.
    pub ship_entries: u64,
    /// Worst RPO gauge reading at any shipper tick (s).
    pub rpo_max_s: f64,
    /// Worst lost-tail age at a promotion (s); 0 without a failover.
    pub rpo_at_promotion_s: f64,
    /// Commit-log entries lost at promotions.
    pub lost_entries: u64,
    /// Accounts promoted to their secondary.
    pub promotions: u64,
    /// Measured first-failover RTO (s); 0 without a failover.
    pub rto_s: f64,
    /// Rebalance migrations performed.
    pub moves: u64,
    /// Byte-reproducible decision log (rebalance + failover).
    pub decisions: Vec<String>,
    /// Placement-map digest after the run.
    pub placement_fingerprint: u64,
}

/// Run one geo cell to completion on `sim` (drives `sim.run()`).
pub fn run_geo(sim: &Sim, base: StampConfig, cfg: &GeoConfig) -> GeoResult {
    assert!(cfg.stamps >= 2, "geo needs at least two stamps");
    assert!(cfg.fleet > 0, "fleet must be non-empty");
    assert!(cfg.accounts > 0, "need at least one account");
    assert!(cfg.window_s > 0.0, "window must be positive");

    let weights = vec![1.0; cfg.stamps];
    let set = GeoSet::new(sim, &base, &weights, cfg.accounts, cfg.placement_seed);
    for stamp in set.stamps() {
        simload::seed_workload(stamp, cfg.workload);
    }
    // One front door per VM, homed where its own account lives.
    let clients: Vec<Rc<GeoClient>> = (0..cfg.fleet)
        .map(|vm| Rc::new(GeoClient::new(&set, vm, vm as u32 % cfg.accounts)))
        .collect();

    let horizon = cfg.warmup_s + cfg.window_s;
    let mut rng = sim.rng("geo.arrivals");
    let instants = cfg.process.instants(&mut rng, cfg.offered_ops_s, horizon);
    // Per-arrival accounts: the VM's own under affinity, or a skewed
    // draw from a dedicated stream.
    let accounts_of: Vec<u32> = match cfg.skew_alpha {
        None => instants
            .iter()
            .enumerate()
            .map(|(i, _)| (i % cfg.fleet) as u32 % cfg.accounts)
            .collect(),
        Some(alpha) => {
            let mut arng = sim.rng("geo.accounts");
            instants
                .iter()
                .map(|_| {
                    let u = arng.f64().powf(alpha);
                    ((u * cfg.accounts as f64) as u32).min(cfg.accounts - 1)
                })
                .collect()
        }
    };

    let window = Window {
        offset_s: 0.0,
        warmup_s: cfg.warmup_s,
        window_s: cfg.window_s,
        deadline_s: cfg.deadline_s,
    };
    let (workload, deadline_s) = (cfg.workload, cfg.deadline_s);
    let s = sim.clone();
    let run = simload::drive(sim, instants, window, move |i, t| {
        let s = s.clone();
        let client = Rc::clone(&clients[i % clients.len()]);
        let account = accounts_of[i];
        async move {
            let sp = simtrace::span(Layer::Geo, "geo.op", || {
                format!("geo:{}:a{account:04}", workload.name())
            });
            let res = client.op(account, workload, i, Some(t + deadline_s)).await;
            let ok = res.is_ok();
            sp.attr(
                "latency_ms",
                format_args!("{:.3}", latency_since(&s, t) * 1e3),
            );
            sp.attr("deadline", if ok { "met" } else { "failed" });
            sp.end();
            res.map(|()| None).map_err(|e| (e, GiveUp::NotRetryable))
        }
    });

    spawn_shipper(&set, horizon);
    spawn_monitor(&set, horizon);
    if cfg.rebalance {
        spawn_rebalancer(&set, horizon);
    }
    let m = run.run();
    let (mut admit_shed, mut latch_shed) = (0u64, 0u64);
    for stamp in set.stamps() {
        admit_shed += stamp.admission_stats().1;
        latch_shed += stamp.latch_shed_total();
    }
    let decisions = set.decisions();
    GeoResult {
        offered_ops_s: cfg.offered_ops_s,
        scheduled_ops_s: m.scheduled_ops_s,
        achieved_ops_s: m.achieved_ops_s,
        goodput_ops_s: m.goodput_ops_s,
        slo: m.slo,
        stamp_ops: set.stamp_ops(),
        admit_shed,
        latch_shed,
        revalidations: set.stats.revalidations.get(),
        redirects: set.stats.redirects.get(),
        remote_ops: set.stats.remote_ops.get(),
        unavailable_ops: set.stats.unavailable_ops.get(),
        ship_batches: set.stats.ship_batches.get(),
        ship_entries: set.stats.ship_entries.get(),
        rpo_max_s: set.stats.rpo_max_s.get(),
        rpo_at_promotion_s: set.stats.rpo_at_promotion_s.get(),
        lost_entries: set.stats.lost_entries.get(),
        promotions: set.stats.promotions.get(),
        rto_s: set.stats.rto_s.get(),
        moves: decisions.iter().filter(|d| d.contains(" move ")).count() as u64,
        decisions,
        placement_fingerprint: set.location().fingerprint(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(seed: u64, offered: f64) -> GeoResult {
        let sim = Sim::new(seed);
        run_geo(
            &sim,
            StampConfig::default(),
            &GeoConfig {
                stamps: 2,
                accounts: 8,
                workload: Workload::QueueAdd {
                    message_bytes: 512.0,
                },
                process: ArrivalProcess::Poisson,
                offered_ops_s: offered,
                warmup_s: 2.0,
                window_s: 8.0,
                fleet: 16,
                deadline_s: 0.5,
                skew_alpha: None,
                rebalance: false,
                placement_seed: 0x6E0,
            },
        )
    }

    #[test]
    fn clean_cell_achieves_offered_with_no_cross_stamp_traffic() {
        let r = cell(41, 100.0);
        assert!(r.slo.scheduled > 500);
        assert_eq!(r.slo.failed, 0);
        assert!(
            (r.achieved_ops_s - r.scheduled_ops_s).abs() / r.scheduled_ops_s < 0.05,
            "achieved {} vs scheduled {}",
            r.achieved_ops_s,
            r.scheduled_ops_s
        );
        // Home affinity: every op lands on its VM's home stamp.
        assert_eq!(r.remote_ops, 0);
        assert_eq!(r.redirects, 0);
        assert_eq!(r.promotions, 0);
        // Both stamps served work.
        assert!(r.stamp_ops.iter().all(|&n| n > 0), "{:?}", r.stamp_ops);
        // Queue adds replicated.
        assert!(r.ship_entries > 0);
        assert!(r.rpo_max_s > 0.0 && r.rpo_max_s < 10.0);
        assert_eq!(r.lost_entries, 0);
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let (a, b) = (cell(43, 80.0), cell(43, 80.0));
        assert_eq!(a.slo.completed, b.slo.completed);
        assert_eq!(a.achieved_ops_s.to_bits(), b.achieved_ops_s.to_bits());
        assert_eq!(a.stamp_ops, b.stamp_ops);
        assert_eq!(a.ship_entries, b.ship_entries);
        assert_eq!(a.placement_fingerprint, b.placement_fingerprint);
    }

    #[test]
    fn mid_window_partition_fails_over_and_loses_a_tail() {
        use simfault::{FaultEpisode, FaultKind, FaultPlan, StorageFaults};
        let sim = Sim::new(47);
        let plan = FaultPlan {
            name: "test",
            storage: StorageFaults::clean(),
            episodes: vec![FaultEpisode {
                start_s: 5.0,
                duration_s: 30.0,
                kind: FaultKind::StampPartition { stamp: 0 },
            }],
        };
        let _g = simfault::install(&sim, &plan);
        let r = run_geo(
            &sim,
            StampConfig::default(),
            &GeoConfig {
                stamps: 2,
                accounts: 8,
                workload: Workload::QueueAdd {
                    message_bytes: 512.0,
                },
                process: ArrivalProcess::Poisson,
                offered_ops_s: 100.0,
                warmup_s: 2.0,
                window_s: 20.0,
                fleet: 16,
                deadline_s: 0.5,
                skew_alpha: None,
                rebalance: false,
                placement_seed: 0x6E0,
            },
        );
        assert!(r.promotions > 0, "accounts promoted off the dead stamp");
        assert_eq!(r.rto_s, crate::calib::EXPECTED_RTO_S);
        assert!(r.lost_entries > 0, "async replication loses a tail");
        assert!(r.rpo_at_promotion_s > 0.0);
        assert!(r.unavailable_ops > 0, "ops timed out against the partition");
        assert!(
            r.redirects > 0,
            "survivors reached via stale-epoch redirect"
        );
        assert!(
            r.goodput_ops_s > 0.0,
            "the surviving stamp keeps serving its accounts"
        );
    }
}
