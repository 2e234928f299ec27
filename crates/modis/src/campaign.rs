//! Campaign driver: assembles the system, runs the full (or scaled)
//! Feb–Sep 2010 campaign, and returns everything Table 2 and Fig 7 need.

use std::collections::HashSet;
use std::rc::Rc;

use simcore::combinators::{select2, Either};
use simcore::prelude::*;

use crate::calib;
use crate::manager::{spawn_manager, ManagerStats};
use crate::monitor::spawn_monitor;
use crate::system::{ModisConfig, ModisSystem, DATA_CONTAINER};
use crate::tasks::TileDay;
use crate::telemetry::Telemetry;
use crate::worker::spawn_workers;

/// Outcome of one campaign run.
pub struct CampaignReport {
    /// The full telemetry sink (Table 2 + Fig 7 renderers live here).
    pub telemetry: Telemetry,
    /// Portal/manager counters.
    pub manager: ManagerStats,
    /// Watchdog kills issued.
    pub monitor_kills: u64,
    /// Total task executions.
    pub executions: u64,
    /// Distinct tasks.
    pub distinct_tasks: u64,
    /// Virtual campaign duration.
    pub elapsed: SimDuration,
    /// Simulator events fired (cost metric).
    pub events: u64,
}

impl CampaignReport {
    /// Executions per distinct task (the paper: 3.05 M executions over
    /// ~2.7 M distinct tasks ≈ 1.13).
    pub fn executions_per_task(&self) -> f64 {
        if self.distinct_tasks == 0 {
            0.0
        } else {
            self.executions as f64 / self.distinct_tasks as f64
        }
    }
}

/// The (tile, day) coordinates covered by the first `days` days of the
/// campaign's *synthetic request history*: a deterministic
/// arrival-and-shape sequence drawn from `seed` alone, mirroring the
/// manager's per-request draws. Every day segment of a sharded campaign
/// shares this sequence (each consumes the prefix up to its own
/// offset), so segment `i` can stage the sources a single long run
/// would have accumulated before its first day — without it, each
/// cold-started segment re-downloads coordinates the full campaign
/// fetched once, and the Table 2 task mix skews toward downloads.
pub fn history_coverage(cfg: &ModisConfig, seed: u64, days: u64) -> Vec<TileDay> {
    let mut rng = SimRng::for_stream(seed, "modis.prewarm");
    let mean_gap = calib::REQUEST_INTERARRIVAL_MEAN_S / cfg.arrival_scale;
    let end = days as f64 * 86_400.0;
    let mut now = 0.0;
    let mut covered: HashSet<TileDay> = HashSet::new();
    loop {
        now += Exp::with_mean(mean_gap).sample(&mut rng).max(60.0);
        if now >= end {
            break;
        }
        // Mirror the manager's request-shape draw order exactly (the
        // reduction coin is consumed even though coverage ignores it).
        let n_tiles =
            (rng.u64_in(cfg.request_tiles.0, cfg.request_tiles.1) as u32).min(cfg.tile_pool as u32);
        let n_days =
            (rng.u64_in(cfg.request_days.0, cfg.request_days.1) as u32).min(cfg.day_pool as u32);
        let tile0 = rng.u64_below((cfg.tile_pool as u64 - n_tiles as u64).max(1)) as u32;
        let day0 = rng.u64_below((cfg.day_pool as u64 - n_days as u64).max(1)) as u32;
        let _with_reduction = rng.chance(calib::REDUCTION_PER_REPROJECTION);
        for t in 0..n_tiles {
            for d in 0..n_days {
                covered.insert(TileDay {
                    tile: tile0 + t,
                    day: day0 + d,
                });
            }
        }
    }
    let mut v: Vec<TileDay> = covered.into_iter().collect();
    v.sort();
    v
}

/// Stage every source file the synthetic history has already fetched
/// into the stamp's blob store, so the manager's existence probes and
/// the workers' source reads see a warm catalog.
fn stage_history(sys: &Rc<ModisSystem>) {
    let coords = history_coverage(&sys.cfg, sys.cfg.prewarm_seed, sys.cfg.prewarm_days);
    let blobs = sys.stamp.blob_service();
    for coord in coords {
        for k in 0..sys.catalog.band_count(coord) {
            blobs.seed(
                DATA_CONTAINER,
                &coord.source_blob(k),
                sys.catalog.file_bytes(coord, k),
            );
        }
    }
}

/// Run a campaign to completion (all requests issued, queue drained,
/// all executions finished).
pub fn run_campaign(cfg: ModisConfig) -> CampaignReport {
    let sim = Sim::new(cfg.seed);
    run_campaign_on(&sim, cfg)
}

/// Run a campaign on a caller-supplied simulator. This is the traced
/// entry point: install a `simtrace::Tracer` built from the same `Sim`
/// beforehand and the campaign's task/storage/network spans land in it.
pub fn run_campaign_on(sim: &Sim, cfg: ModisConfig) -> CampaignReport {
    let sim = sim.clone();
    // Activate the campaign's fault plan: steady-state rates are baked
    // into the stamp config below; scheduled episodes (if any) need the
    // injector installed for this sim. Plans without episodes make this
    // a no-op beyond a thread-local flag.
    let _faults = simfault::install(&sim, &cfg.faults);
    let sys = ModisSystem::new(&sim, cfg);
    if sys.cfg.prewarm_days > 0 {
        stage_history(&sys);
    }

    let manager = spawn_manager(&sys);
    let monitor = if sys.cfg.watchdog {
        Some(spawn_monitor(&sys))
    } else {
        None
    };
    let _workers = spawn_workers(&sys);

    // Terminator: once the portal has closed and the pipeline is fully
    // drained, fire the shutdown signal so every process exits.
    {
        let sys = Rc::clone(&sys);
        let s = sim.clone();
        sim.spawn(async move {
            loop {
                let tick = Box::pin(s.delay(SimDuration::from_secs(120)));
                let stop = Box::pin(sys.shutdown.wait());
                if matches!(select2(stop, tick).await, Either::Left(())) {
                    break;
                }
                if sys.is_drained() {
                    sys.shutdown.fire();
                    break;
                }
            }
        });
    }

    sim.run();

    CampaignReport {
        telemetry: sys.telemetry.clone(),
        manager: manager.try_take().expect("manager finished"),
        monitor_kills: monitor
            .map(|m| m.try_take().expect("monitor finished"))
            .unwrap_or(0),
        executions: sys.telemetry.total_executions(),
        distinct_tasks: sys.telemetry.distinct_tasks(),
        elapsed: sim.now() - SimTime::ZERO,
        events: sim.events_fired(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::TaskKind;
    use crate::telemetry::Outcome;

    fn quick_campaign() -> CampaignReport {
        run_campaign(ModisConfig::quick())
    }

    #[test]
    fn campaign_drains_completely() {
        let r = quick_campaign();
        assert!(r.manager.requests > 0, "no requests generated");
        assert!(r.executions > 1000, "too few executions: {}", r.executions);
        assert!(
            r.executions >= r.distinct_tasks,
            "executions {} < distinct {}",
            r.executions,
            r.distinct_tasks
        );
        // Campaign must finish some time after the request window.
        assert!(r.elapsed >= SimDuration::from_days(30));
        assert!(r.elapsed < SimDuration::from_days(60), "drain too slow");
    }

    #[test]
    fn table2_phase_mix_shape() {
        let r = quick_campaign();
        let t = &r.telemetry;
        let total = r.executions as f64;
        let frac = |k: TaskKind| t.kind_count(k) as f64 / total;
        // Reprojection dominates, reduction second, downloads small,
        // aggregation tiny (paper: 55.8 / 39.4 / 4.6 / 0.3 %).
        let repro = frac(TaskKind::Reprojection);
        let red = frac(TaskKind::Reduction);
        let down = frac(TaskKind::SourceDownload);
        let agg = frac(TaskKind::Aggregation);
        assert!((0.40..0.75).contains(&repro), "repro={repro}");
        assert!((0.15..0.55).contains(&red), "red={red}");
        assert!(down < 0.25, "down={down}");
        assert!(agg < 0.02, "agg={agg}");
        assert!(
            repro > red && red > down && down > agg,
            "{repro} {red} {down} {agg}"
        );
    }

    #[test]
    fn table2_failure_taxonomy_shape() {
        let r = quick_campaign();
        let t = &r.telemetry;
        // Success is the dominant class, in the paper's 65.5 % band.
        let success = t.fraction(Outcome::Success);
        assert!((0.50..0.80).contains(&success), "success={success}");
        // Unknown failure is the biggest error class (paper 11.3 %).
        let unknown = t.fraction(Outcome::UnknownFailure);
        assert!((0.05..0.20).contains(&unknown), "unknown={unknown}");
        // Null-log class equals the download executions exactly (the
        // paper's 4.57 % coincidence, reproduced structurally).
        assert_eq!(
            t.count(Outcome::UnknownNullLog),
            t.kind_count(TaskKind::SourceDownload)
        );
        // Download-source-failed present at percent scale (paper 4.1 %).
        // At quick scale the emergent download/reprojection races are
        // stronger than at full scale (tiny catalog, bursty requests),
        // so the band is wide; the full-scale fraction is checked in
        // EXPERIMENTS.md against the paper's 4.10 %.
        let dsf = t.fraction(Outcome::DownloadSourceFailed);
        assert!((0.005..0.17).contains(&dsf), "dsf={dsf}");
        // Blob-already-exists present (paper 5.98 %).
        let dup = t.fraction(Outcome::BlobAlreadyExists);
        assert!((0.01..0.12).contains(&dup), "dup={dup}");
        // Ordering of the big classes matches the paper.
        assert!(t.count(Outcome::UnknownFailure) > t.count(Outcome::BlobAlreadyExists));
        assert!(t.count(Outcome::BlobAlreadyExists) > t.count(Outcome::ConnectionFailure));
    }

    #[test]
    fn fig7_vm_timeouts_are_rare_but_bursty() {
        let r = quick_campaign();
        let t = &r.telemetry;
        let overall = t.overall_timeout_fraction();
        // Paper: 0.17 % overall. Band is wide: a 30-day window's rate
        // depends on which severity days it contains.
        assert!(
            (0.0001..0.03).contains(&overall),
            "overall timeout fraction = {overall}"
        );
        assert!(t.count(Outcome::VmExecutionTimeout) > 0);
        assert_eq!(r.monitor_kills, t.count(Outcome::VmExecutionTimeout));
        // Bursty: the worst day is much worse than the overall rate.
        let max_daily = t.max_daily_timeout_fraction();
        assert!(
            max_daily > overall * 2.0,
            "not bursty: max daily {max_daily} vs overall {overall}"
        );
    }

    /// The §6.3 ablation: without the watchdog, slowdown victims run to
    /// completion — no VM-timeout class, but a heavy execution-time
    /// tail. The monitor converts that unbounded tail into bounded
    /// retries.
    #[test]
    fn without_watchdog_slow_tasks_run_to_completion() {
        let mut cfg = ModisConfig::quick();
        cfg.watchdog = false;
        let r = run_campaign(cfg);
        assert_eq!(r.monitor_kills, 0);
        assert_eq!(r.telemetry.count(Outcome::VmExecutionTimeout), 0);
        // Same workload with the watchdog kills some executions.
        let with = quick_campaign();
        assert!(with.monitor_kills > 0);
        // Same distinct task population either way (nothing is lost).
        assert_eq!(r.distinct_tasks, with.distinct_tasks);
    }

    #[test]
    fn retries_inflate_executions_mildly() {
        let r = quick_campaign();
        let ratio = r.executions_per_task();
        // Paper: ≈ 1.13 executions per distinct task.
        assert!((1.0..1.4).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn renders_produce_paper_shaped_tables() {
        let r = quick_campaign();
        let t2 = r.telemetry.render_table2();
        assert!(t2.contains("Reprojection"));
        assert!(t2.contains("Success"));
        let f7 = r.telemetry.render_fig7();
        assert!(
            f7.lines().count() > 30,
            "Fig 7 should span the campaign days"
        );
    }
}
