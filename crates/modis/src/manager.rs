//! The portal + service manager (paper §5.1, Fig 6).
//!
//! "A user enters a processing request using the web portal ... The
//! request is then added to a service queue which is monitored by a
//! service manager ... The service manager processes incoming requests
//! and computes how the request is broken into smaller pieces which are
//! handled independently by the various worker role instances."
//!
//! Decomposition of one request (region × time-span, optional
//! reduction): one reprojection task per (tile, day); source-download
//! tasks only for tile/days whose files are not already in blob storage
//! ("Results are saved along the way for reuse later so that work is
//! not duplicated more than necessary"); aggregation precursor tasks per
//! batch of reductions; one reduction task per (tile, day) when the
//! request asks for it.

use std::collections::HashSet;
use std::rc::Rc;

use simcore::prelude::*;

use simfault::RetryPolicy;

use crate::calib;
use crate::system::{ModisSystem, DATA_CONTAINER, TASK_QUEUE};
use crate::tasks::{TaskSpec, TileDay};

/// The manager never gives up on an enqueue: a 2 s fixed-interval retry
/// with an unbounded budget.
const ENQUEUE_RETRY: RetryPolicy = RetryPolicy {
    backoff: simfault::Backoff::Fixed(2.0),
    retries: simfault::FOREVER,
    attempt_timeout: None,
    jitter: simfault::Jitter::None,
    retry_counter: None,
};

/// Counters the manager reports at the end.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManagerStats {
    /// Requests processed.
    pub requests: u64,
    /// Distinct tasks created.
    pub tasks_created: u64,
    /// Source-download tasks skipped thanks to blob reuse.
    pub downloads_reused: u64,
}

/// Spawn the portal/manager process; resolves with its stats when the
/// request window closes.
pub fn spawn_manager(sys: &Rc<ModisSystem>) -> simcore::JoinHandle<ManagerStats> {
    let sys = Rc::clone(sys);
    let sim = sys.sim.clone();
    sim.clone().spawn(async move {
        let mut rng = sim.rng("modis.manager");
        let manager_client = sys.stamp.attach_small_client();
        let mut scheduled_sources: HashSet<TileDay> = HashSet::new();
        let mut stats = ManagerStats::default();
        let end = sys.campaign_end();
        let mean_gap = calib::REQUEST_INTERARRIVAL_MEAN_S / sys.cfg.arrival_scale;
        loop {
            let gap = Exp::with_mean(mean_gap).sample(&mut rng).max(60.0);
            sim.delay(SimDuration::from_secs_f64(gap)).await;
            if sim.now() >= end {
                break;
            }
            stats.requests += 1;
            let request_id = stats.requests;

            // Shape of the request: a contiguous region × time span.
            let n_tiles = (rng.u64_in(sys.cfg.request_tiles.0, sys.cfg.request_tiles.1) as u32)
                .min(sys.cfg.tile_pool as u32);
            let n_days = (rng.u64_in(sys.cfg.request_days.0, sys.cfg.request_days.1) as u32)
                .min(sys.cfg.day_pool as u32);
            let tile0 = rng.u64_below((sys.cfg.tile_pool as u64 - n_tiles as u64).max(1)) as u32;
            let day0 = rng.u64_below((sys.cfg.day_pool as u64 - n_days as u64).max(1)) as u32;
            let with_reduction = rng.chance(calib::REDUCTION_PER_REPROJECTION);

            // Enumerate coordinates and create tasks, downloads first so
            // workers usually find sources staged.
            let mut coords = Vec::with_capacity((n_tiles * n_days) as usize);
            for t in 0..n_tiles {
                for d in 0..n_days {
                    coords.push(TileDay {
                        tile: tile0 + t,
                        day: day0 + d,
                    });
                }
            }
            let mut to_enqueue: Vec<TaskSpec> = Vec::with_capacity(coords.len() * 2);
            for &coord in &coords {
                if scheduled_sources.contains(&coord) {
                    stats.downloads_reused += 1;
                    continue;
                }
                // One existence probe per coordinate group (the real
                // manager checked blob storage; files of a group share
                // fate).
                let probe = coord.source_blob(0);
                let present = manager_client
                    .blob
                    .exists(DATA_CONTAINER, &probe)
                    .await
                    .unwrap_or(false);
                if present {
                    stats.downloads_reused += 1;
                    scheduled_sources.insert(coord);
                    continue;
                }
                scheduled_sources.insert(coord);
                to_enqueue.push(TaskSpec::SourceDownload {
                    coord,
                    files: sys.catalog.band_count(coord),
                });
            }
            if with_reduction {
                let batches = coords.len().div_ceil(calib::REDUCTIONS_PER_AGGREGATION);
                for batch in 0..batches as u32 {
                    to_enqueue.push(TaskSpec::Aggregation {
                        request: request_id,
                        batch,
                    });
                }
            }
            for &coord in &coords {
                to_enqueue.push(TaskSpec::Reprojection {
                    request: request_id,
                    coord,
                    files: sys.catalog.band_count(coord),
                });
            }
            if with_reduction {
                for &coord in &coords {
                    to_enqueue.push(TaskSpec::Reduction {
                        request: request_id,
                        coord,
                    });
                }
            }
            for spec in to_enqueue {
                let id = sys.register_task(spec);
                stats.tasks_created += 1;
                // Task descriptors are ~1.5 kB queue messages. The add
                // is retried on any error, forever: losing a task
                // message would strand its request forever.
                let _ = ENQUEUE_RETRY
                    .run(
                        &sim,
                        None,
                        || None,
                        |_| manager_client.queue.add(TASK_QUEUE, id.to_string(), 1500.0),
                        |_| true,
                        || azstore::StorageError::Timeout,
                    )
                    .await;
            }
        }
        sys.manager_done.set(true);
        stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ModisConfig;
    use crate::tasks::TaskKind;

    fn run_manager_only(
        seed: u64,
        days: u64,
        arrival_scale: f64,
    ) -> (Rc<ModisSystem>, ManagerStats) {
        let sim = Sim::new(seed);
        let sys = ModisSystem::new(
            &sim,
            ModisConfig {
                days,
                arrival_scale,
                ..ModisConfig::quick()
            },
        );
        let h = spawn_manager(&sys);
        let stats = run_to_manager_end(&sim, &sys, &h);
        (sys, stats)
    }

    /// Run until the manager has finished. It ends at its first request
    /// gap reaching past the campaign end, which can lie more than a day
    /// beyond it (the mean gap is half a day).
    fn run_to_manager_end(
        sim: &Sim,
        sys: &ModisSystem,
        h: &simcore::JoinHandle<ManagerStats>,
    ) -> ManagerStats {
        sim.run_until(sys.campaign_end() + SimDuration::from_days(1));
        while !h.is_finished() {
            sim.run_for(SimDuration::from_days(1));
        }
        h.try_take().expect("manager finished")
    }

    #[test]
    fn manager_creates_tasks_with_paper_mix() {
        let (sys, stats) = run_manager_only(5, 40, 1.2);
        assert!(stats.requests >= 3, "too few requests: {}", stats.requests);
        assert_eq!(stats.tasks_created, sys.telemetry.distinct_tasks());
        let tasks = sys.tasks.borrow();
        let count = |k: TaskKind| tasks.values().filter(|t| t.spec.kind() == k).count() as f64;
        let repro = count(TaskKind::Reprojection);
        let red = count(TaskKind::Reduction);
        let agg = count(TaskKind::Aggregation);
        let down = count(TaskKind::SourceDownload);
        assert!(repro > 0.0);
        // Reduction : reprojection tracks the request-level probability
        // in expectation; small samples wander, so use a broad band.
        let ratio = red / repro;
        assert!((0.2..1.0).contains(&ratio), "reduction ratio {ratio}");
        // Aggregations are rare precursors.
        assert!(agg < red / 30.0 || red == 0.0, "agg={agg} red={red}");
        // Downloads bounded by coordinates (one per new tile/day).
        assert!(down <= repro);
        drop(tasks);
        assert!(sys.manager_done.get());
    }

    #[test]
    fn source_reuse_kicks_in_across_requests() {
        // Narrow catalog: later requests overlap earlier ones heavily.
        let sim = Sim::new(7);
        let sys = ModisSystem::new(
            &sim,
            ModisConfig {
                days: 60,
                arrival_scale: 2.0,
                request_tiles: (30, 30),
                request_days: (300, 400),
                ..ModisConfig::quick()
            },
        );
        let h = spawn_manager(&sys);
        let stats = run_to_manager_end(&sim, &sys, &h);
        assert!(
            stats.downloads_reused > 0,
            "no reuse despite overlapping requests"
        );
    }

    #[test]
    fn messages_land_in_the_task_queue() {
        let (sys, stats) = run_manager_only(9, 30, 1.0);
        let queued = sys.stamp.queue_service().len(TASK_QUEUE) as u64;
        // No workers running: everything the manager enqueued is still
        // there (minus nothing).
        assert_eq!(queued, stats.tasks_created);
    }
}
