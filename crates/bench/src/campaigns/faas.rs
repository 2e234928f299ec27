//! Faas campaign: serverless cold starts and the keepalive frontier.
//!
//! Table 1 prices the VM lifecycle; this campaign shrinks it to
//! container size (the pool's 1/128 lifecycle scale, ≈2.96 s per cold
//! start) and asks the question every function platform faces: how
//! much idle memory buys how many warm starts? Each cell replays an
//! Azure-Functions-shaped synthetic invocation trace against one
//! container pool under one keepalive policy — unload-at-idle (cold
//! maximal, waste minimal), a fixed 20-minute window (the platform
//! default), and the Serverless-in-the-Wild hybrid histogram
//! (per-app IAT binades driving prewarm + tightened keepalive). Cold
//! starts are *emergent*: every one is a real `fabric` create+boot
//! with the calibrated startup-failure retries, and crash cells land
//! a mid-window host outage that reaps idle containers through the
//! same machinery. The trace is drawn from its own RNG stream before
//! any fabric randomness, so for a given seed all three policies face
//! byte-identical demand.
//!
//! The output is the cold-start-fraction-vs-wasted-memory frontier
//! (`faas.csv`, one row per cell; the `cold_starts`/`warm_starts`/
//! `evictions`/`mem_ticks` columns mirror the `faas.*` trace
//! counters). The verdict point is the `wild` trace, clean: the
//! hybrid policy must undercut the fixed window's wasted memory-time
//! by ≥10 % while staying within 10 points of its cold-start
//! fraction, and the frontier must be ordered (no-keepalive coldest/
//! cheapest, fixed warmest/most wasteful, hybrid between).
//!
//! Quick mode runs the verdict slice only (wild × 3 policies, clean +
//! crash); the cell constants are identical in both modes, so the
//! quick anchors measure the same points the full campaign does.

use cloudbench::anchors;
use faas::{run_faas, FaasConfig, FaasResult, PolicyKind, TraceShape};
use simcore::report::{num, AsciiTable, Csv};
use simfault::{FaultEpisode, FaultKind, FaultPlan};
use simlab::{anchor, run_cells, RunOpts};

use super::CampaignOutput;

/// One cell of the grid.
#[derive(Clone)]
struct Cell {
    si: usize,
    policy: PolicyKind,
    crash: bool,
}

/// Full sweep plan for one mode.
struct Plan {
    /// (trace shape, base seed), in sweep order. Crash cells share the
    /// clean cell's seed so the invocation schedule is identical and
    /// the outage is the only difference.
    shapes: Vec<(TraceShape, u64)>,
    hosts: usize,
    horizon_s: f64,
}

impl Plan {
    fn new(quick: bool) -> Plan {
        let mut shapes = vec![(TraceShape::wild(), 42u64)];
        if !quick {
            shapes.push((TraceShape::diurnal(), 52));
            shapes.push((TraceShape::bursty(), 62));
        }
        let probe = FaasConfig::quick(TraceShape::wild(), PolicyKind::FixedWindow);
        Plan {
            shapes,
            hosts: probe.hosts,
            horizon_s: probe.horizon_s,
        }
    }

    /// Per-cell configuration (identical in quick and full mode — only
    /// the shape grid grows).
    fn config(&self, c: &Cell) -> FaasConfig {
        FaasConfig::quick(self.shapes[c.si].0.clone(), c.policy)
    }

    /// Cell grid in canonical order (part of the seed contract —
    /// `run_cells` merges shards back into this order).
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for si in 0..self.shapes.len() {
            for policy in PolicyKind::ALL {
                for crash in [false, true] {
                    cells.push(Cell { si, policy, crash });
                }
            }
        }
        cells
    }

    /// The outage for crash cells: a third of the hosts go down
    /// together 40 % into the window for 900 s — long at container
    /// timescale (hundreds of cold-start leads), so the pool must reap
    /// the dead idle containers and re-buy every one of them through
    /// the scaled Table 1 lifecycle while the survivors absorb load.
    fn crash_episodes(&self) -> Vec<FaultEpisode> {
        (0..self.hosts / 3)
            .map(|host| FaultEpisode {
                start_s: 0.4 * self.horizon_s,
                duration_s: 900.0,
                kind: FaultKind::HostCrash {
                    host: host.try_into().expect("host index fits"),
                },
            })
            .collect()
    }
}

/// One measured cell.
struct Point {
    shape: &'static str,
    policy: PolicyKind,
    crash: bool,
    r: FaasResult,
}

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    Plan::new(quick).cells().len()
}

/// Run the faas campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let plan = Plan::new(quick);
    let cells = plan.cells();
    eprintln!(
        "faas: {} policies x {} trace shapes x crash on/off ({} cells, {} s horizon) ...",
        PolicyKind::ALL.len(),
        plan.shapes.len(),
        cells.len(),
        plan.horizon_s,
    );
    let out = run_cells(cells.len(), opts, |i, ctx| {
        let c = &cells[i];
        let cfg = plan.config(c);
        // Crash cells layer the host outage on top of whatever
        // `--faults` plan the run carries (`install` nests, restoring
        // the outer plan on drop).
        let crash_plan = c.crash.then(|| {
            let mut fp = ctx.fault_plan().cloned().unwrap_or_else(FaultPlan::none);
            fp.episodes.extend(plan.crash_episodes());
            fp
        });
        let seed = plan.shapes[c.si].1;
        ctx.with_sim(seed, |sim| {
            let _crash = crash_plan.as_ref().map(|fp| simfault::install(sim, fp));
            run_faas(sim, &cfg)
        })
    });
    let points: Vec<Point> = out
        .cells
        .into_iter()
        .zip(&cells)
        .map(|(r, c)| Point {
            shape: plan.shapes[c.si].0.name,
            policy: c.policy,
            crash: c.crash,
            r,
        })
        .collect();

    let mut table = AsciiTable::new(vec![
        "shape",
        "policy",
        "faults",
        "invocations",
        "cold",
        "warm",
        "cold %",
        "prewarms",
        "evicted",
        "wasted GB*s",
        "mean idle MB",
        "cold mean s",
    ])
    .with_title(
        "Faas keepalive — cold-start fraction vs wasted idle memory under the scaled Table 1 tax"
            .to_string(),
    );
    let mut csv = Csv::new();
    csv.row(&[
        "shape",
        "policy",
        "crash",
        "invocations",
        "cold_starts",
        "warm_starts",
        "joins",
        "cold_fraction",
        "prewarm_scheduled",
        "prewarm_loads",
        "prewarm_cancelled",
        "containers_created",
        "evictions",
        "evict_expired",
        "evict_lru",
        "evict_crash",
        "mem_ticks_mb_s",
        "wasted_mb_s",
        "wasted_mb_mean",
        "peak_idle_mb",
        "cold_mean_s",
        "cold_max_s",
        "scheduled",
        "completed",
        "failed",
        "violation_frac",
    ]);
    for p in &points {
        table.row(vec![
            p.shape.to_string(),
            p.policy.name().to_string(),
            if p.crash { "crash" } else { "clean" }.to_string(),
            p.r.invocations.to_string(),
            p.r.cold_starts.to_string(),
            p.r.warm_starts.to_string(),
            format!("{:.2}%", p.r.cold_fraction() * 100.0),
            p.r.prewarm_loads.to_string(),
            p.r.evictions.to_string(),
            num(p.r.wasted_mb_s / 1024.0, 3),
            num(p.r.wasted_mb_mean(plan.horizon_s), 3),
            format!("{:.2}", p.r.cold_full.mean()),
        ]);
        csv.row(&[
            p.shape.to_string(),
            p.policy.name().to_string(),
            (p.crash as u8).to_string(),
            p.r.invocations.to_string(),
            p.r.cold_starts.to_string(),
            p.r.warm_starts.to_string(),
            p.r.joins.to_string(),
            format!("{:.4}", p.r.cold_fraction()),
            p.r.prewarm_scheduled.to_string(),
            p.r.prewarm_loads.to_string(),
            p.r.prewarm_cancelled.to_string(),
            p.r.containers_created.to_string(),
            p.r.evictions.to_string(),
            p.r.evict_expired.to_string(),
            p.r.evict_lru.to_string(),
            p.r.evict_crash.to_string(),
            format!("{:.1}", p.r.mem_tick_mb_s),
            format!("{:.1}", p.r.wasted_mb_s),
            format!("{:.2}", p.r.wasted_mb_mean(plan.horizon_s)),
            format!("{:.1}", p.r.peak_idle_mb),
            format!("{:.3}", p.r.cold_full.mean()),
            format!("{:.3}", p.r.cold_full.max()),
            p.r.slo.scheduled.to_string(),
            p.r.slo.completed.to_string(),
            p.r.slo.failed.to_string(),
            format!("{:.4}", p.r.slo.violation_fraction()),
        ]);
    }

    // The verdict point: wild trace, clean. The schedule there is
    // byte-identical across policies (same seed, trace drawn before
    // any fabric randomness), so the frontier comparison is between
    // keepalive policies, not luck.
    let verdict = |policy: PolicyKind| -> &Point {
        points
            .iter()
            .find(|p| p.shape == "wild" && p.policy == policy && !p.crash)
            .expect("the verdict slice runs in every mode")
    };
    let nk = verdict(PolicyKind::NoKeepalive);
    let fx = verdict(PolicyKind::FixedWindow);
    let hy = verdict(PolicyKind::Hybrid);
    // Dominance: the histogram beats the fixed window by >=10 % on the
    // memory axis without giving back more than 10 points of cold-start
    // fraction (its extra colds are concurrency-peak containers that a
    // per-container keepalive lets expire).
    let dominates = hy.r.wasted_mb_s < 0.9 * fx.r.wasted_mb_s
        && hy.r.cold_fraction() < fx.r.cold_fraction() + 0.10;
    // Ordering: the two degenerate policies bracket the hybrid on both
    // axes — the frontier the policy definitions promise.
    let ordered = nk.r.cold_fraction() > hy.r.cold_fraction()
        && hy.r.cold_fraction() > fx.r.cold_fraction()
        && nk.r.wasted_mb_s < hy.r.wasted_mb_s
        && hy.r.wasted_mb_s < fx.r.wasted_mb_s;

    let checks = vec![
        anchors::FAAS_COLD_START_LIFECYCLE_S.check(nk.r.cold_full.mean()),
        anchors::FAAS_HYBRID_DOMINANCE.check(if dominates { 1.0 } else { 0.0 }),
        anchors::FAAS_FRONTIER_ORDERING.check(if ordered { 1.0 } else { 0.0 }),
    ];

    let mut block = anchor::render_block(
        "Faas frontier (wild clean verdict + emergent container lifecycle):",
        &checks,
    );
    block.push_str("Frontier at the verdict point (wild trace, clean):\n");
    for p in [nk, fx, hy] {
        block.push_str(&format!(
            "  {:12} {:5.2}% cold ({:6} of {:6}), {:>10} MB*s wasted idle, {:5} prewarms, {:6} evictions\n",
            p.policy.name(),
            p.r.cold_fraction() * 100.0,
            p.r.cold_starts,
            p.r.invocations,
            num(p.r.wasted_mb_s, 4),
            p.r.prewarm_loads,
            p.r.evictions,
        ));
    }
    block.push_str(&format!(
        "  hybrid dominates fixed (>=10% less waste, <10 pt colder): {}; frontier ordered (no_keepalive / hybrid / fixed bracket both axes): {}\n",
        if dominates { "yes" } else { "NO" },
        if ordered { "yes" } else { "NO" },
    ));

    let stdout = format!("{}\n{}", table.render(), block);
    CampaignOutput {
        name: "faas",
        cells: cells.len(),
        stdout,
        files: vec![
            ("faas.csv".to_string(), csv.as_str().to_string()),
            ("faas.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
