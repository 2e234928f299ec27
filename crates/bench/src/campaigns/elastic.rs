//! Elastic campaign: autoscaling under the 10-minute VM tax.
//!
//! Table 1 prices elasticity: capacity ordered now turns Ready one
//! add-boot plus one stagger later (≈476 s mean for a small worker),
//! while capacity released stops billing immediately. This campaign
//! runs four controllers — a fixed planned-peak baseline, two reactive
//! policies (queue-depth backlog, utilization with hysteresis) and a
//! Holt double-exponential-smoothing predictive policy ordering a full
//! scale-out lead ahead — against three demand shapes (diurnal, bursty
//! on/off, step) on two services (queue Add, table Query), each cell
//! clean and again with a six-host crash episode landing mid-window.
//! Every cell is one `autoscale::run_elastic` simulation: the arrival
//! schedule is drawn before any fabric randomness, so for a given seed
//! every policy faces byte-identical demand, and scale-out latency is
//! *emergent* from real `fabric` deployments, not modelled.
//!
//! The output is the SLO-violations-vs-instance-hours frontier
//! (`elastic.csv`). The verdict point is the queue service under
//! diurnal arrivals, clean: the predictive policy must dominate the
//! fixed baseline on both axes, and the frontier must be ordered
//! (predictive ≤ util-hysteresis ≤ queue-depth on violations, with
//! queue-depth at least undercutting fixed on hours). The bursty and
//! step cells are kept *because* the elastics lose some of them —
//! demand discontinuities inside one blind scale-out lead are exactly
//! what the paper's provisioning tax says cannot be absorbed.
//!
//! Quick mode runs the verdict slice only (queue × diurnal × 4
//! policies, clean + crash); the cell constants are identical, so the
//! quick anchors measure the same points the full campaign does.

use autoscale::{run_elastic, ElasticConfig, ElasticResult, PolicyKind, Service};
use cloudbench::anchors;
use simcore::report::{num, AsciiTable, Csv};
use simfault::{FaultEpisode, FaultKind, FaultPlan};
use simlab::{anchor, run_cells, RunOpts};
use simload::ArrivalProcess;

use super::CampaignOutput;

/// One cell of the grid.
#[derive(Clone)]
struct Cell {
    si: usize,
    pi: usize,
    policy: PolicyKind,
    crash: bool,
}

/// Full sweep plan for one mode.
struct Plan {
    services: Vec<Service>,
    /// (arrival pattern, base seed), in sweep order. Crash cells share
    /// the clean cell's seed so the demand schedule is identical and
    /// the episode is the only difference.
    patterns: Vec<(ArrivalProcess, u64)>,
    /// Mean demand in per-instance capacity units (multiples of μᵢ).
    demand_units: f64,
    /// Planned peak demand in the same units (the fixed baseline
    /// provisions `floor(peak_units)`).
    peak_units: f64,
    setup_s: f64,
    horizon_s: f64,
}

impl Plan {
    fn new(quick: bool) -> Plan {
        // Two diurnal periods so the controllers face a ramp they have
        // already seen once; the step and bursty shapes stress the
        // blind first reaction instead.
        let diurnal = ArrivalProcess::Diurnal {
            period_s: 3600.0,
            amplitude: 0.8,
            phase: 0.0,
        };
        let mut patterns = vec![(diurnal, 42u64)];
        if !quick {
            // Burst timescale deliberately near the boot timescale —
            // the adversarial regime for every controller.
            patterns.push((
                ArrivalProcess::Bursty {
                    on_mean_s: 600.0,
                    off_mean_s: 300.0,
                    shape: 1.0,
                },
                52,
            ));
            patterns.push((ArrivalProcess::step_default(), 62));
        }
        let services = if quick {
            vec![Service::Queue]
        } else {
            vec![Service::Queue, Service::Table]
        };
        Plan {
            services,
            patterns,
            demand_units: 2.75,
            peak_units: 4.95,
            setup_s: 1800.0,
            horizon_s: 7200.0,
        }
    }

    /// Per-cell controller configuration (identical in quick and full
    /// mode — only the grid shrinks).
    fn config(&self, c: &Cell) -> ElasticConfig {
        ElasticConfig {
            service: self.services[c.si],
            pattern: self.patterns[c.pi].0.clone(),
            policy: c.policy,
            demand_units: self.demand_units,
            peak_units: self.peak_units,
            setup_s: self.setup_s,
            horizon_s: self.horizon_s,
            tick_s: 10.0,
            obs_window_s: 60.0,
            min_instances: 2,
            max_instances: 16,
            fleet: 8,
            hosts: 8,
        }
    }

    /// Cell grid in canonical order (part of the seed contract —
    /// `run_cells` merges shards back into this order).
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for si in 0..self.services.len() {
            for pi in 0..self.patterns.len() {
                for policy in PolicyKind::ALL {
                    for crash in [false, true] {
                        cells.push(Cell {
                            si,
                            pi,
                            policy,
                            crash,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The crash episode for injected cells: six of the eight hosts go
    /// down together 40 % into the measurement window, for 900 s — a
    /// rack-scale outage wide enough that random VM placement cannot
    /// dodge it, and long enough that waiting it out violates, so
    /// every controller must re-buy capacity *through* the Table 1
    /// lead (replacements may even land on still-dead hosts and be
    /// reaped again).
    fn crash_episodes(&self) -> Vec<FaultEpisode> {
        (0..6)
            .map(|host| FaultEpisode {
                start_s: self.setup_s + 0.4 * self.horizon_s,
                duration_s: 900.0,
                kind: FaultKind::HostCrash { host },
            })
            .collect()
    }
}

/// One measured cell.
struct Point {
    service: Service,
    pattern: &'static str,
    policy: PolicyKind,
    crash: bool,
    r: ElasticResult,
}

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    Plan::new(quick).cells().len()
}

/// Run the elastic campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let plan = Plan::new(quick);
    let cells = plan.cells();
    eprintln!(
        "elastic: {} policies x {} patterns x crash on/off over {} services ({} cells, {} s horizon) ...",
        PolicyKind::ALL.len(),
        plan.patterns.len(),
        plan.services.len(),
        cells.len(),
        plan.horizon_s,
    );
    let out = run_cells(cells.len(), opts, |i, ctx| {
        let c = &cells[i];
        let cfg = plan.config(c);
        // Crash cells layer the host-crash episodes on top of whatever
        // `--faults` plan the run carries (`install` nests, restoring
        // the outer plan on drop).
        let crash_plan = c.crash.then(|| {
            let mut fp = ctx.fault_plan().cloned().unwrap_or_else(FaultPlan::none);
            fp.episodes.extend(plan.crash_episodes());
            fp
        });
        let seed = plan.patterns[c.pi].1;
        ctx.with_sim(seed, |sim| {
            let _crash = crash_plan.as_ref().map(|fp| simfault::install(sim, fp));
            run_elastic(sim, &cfg)
        })
    });
    let points: Vec<Point> = out
        .cells
        .into_iter()
        .zip(&cells)
        .map(|(r, c)| Point {
            service: plan.services[c.si],
            pattern: plan.patterns[c.pi].0.name(),
            policy: c.policy,
            crash: c.crash,
            r,
        })
        .collect();

    let mut table = AsciiTable::new(vec![
        "service",
        "pattern",
        "policy",
        "faults",
        "scheduled",
        "SLO viol",
        "viol %",
        "inst-hours",
        "max fleet",
        "outs",
        "ins",
        "reaped",
        "lead s",
    ])
    .with_title(
        "Elastic autoscaling — SLO violations vs instance-hours under the Table 1 scale-out tax"
            .to_string(),
    );
    let mut csv = Csv::new();
    csv.row(&[
        "service",
        "pattern",
        "policy",
        "crash",
        "scheduled",
        "completed",
        "failed",
        "late",
        "shed",
        "violations",
        "violation_frac",
        "instance_hours",
        "initial_instances",
        "max_committed",
        "scale_outs",
        "scale_ins",
        "adds_failed",
        "reaped",
        "first_ready_lead_s",
        "add_stagger_mean_s",
        "stagger_count",
        "initial_ramp_ratio",
        "initial_ready_s",
        "admit_shed",
    ]);
    for p in &points {
        table.row(vec![
            p.service.name().to_string(),
            p.pattern.to_string(),
            p.policy.name().to_string(),
            if p.crash { "crash" } else { "clean" }.to_string(),
            p.r.slo.scheduled.to_string(),
            p.r.violations().to_string(),
            format!("{:.2}%", p.r.slo.violation_fraction() * 100.0),
            num(p.r.instance_hours, 3),
            p.r.max_committed.to_string(),
            p.r.scale_outs.to_string(),
            p.r.scale_ins.to_string(),
            p.r.reaped.to_string(),
            p.r.first_ready_lead_s
                .map(|l| num(l, 0))
                .unwrap_or_else(|| "-".to_string()),
        ]);
        csv.row(&[
            p.service.name().to_string(),
            p.pattern.to_string(),
            p.policy.name().to_string(),
            (p.crash as u8).to_string(),
            p.r.slo.scheduled.to_string(),
            p.r.slo.completed.to_string(),
            p.r.slo.failed.to_string(),
            p.r.slo.late.to_string(),
            p.r.slo.shed.to_string(),
            p.r.violations().to_string(),
            format!("{:.4}", p.r.slo.violation_fraction()),
            format!("{:.4}", p.r.instance_hours),
            p.r.initial_instances.to_string(),
            p.r.max_committed.to_string(),
            p.r.scale_outs.to_string(),
            p.r.scale_ins.to_string(),
            p.r.adds_failed.to_string(),
            p.r.reaped.to_string(),
            p.r.first_ready_lead_s
                .map(|l| format!("{l:.1}"))
                .unwrap_or_default(),
            p.r.add_stagger_mean_s
                .map(|s| format!("{s:.1}"))
                .unwrap_or_default(),
            p.r.stagger_count.to_string(),
            format!("{:.3}", p.r.initial_ramp_ratio),
            format!("{:.1}", p.r.initial_ready_s),
            p.r.admit_shed.to_string(),
        ]);
    }

    // The verdict point: queue service, diurnal arrivals, clean. The
    // arrival schedule there is byte-identical across policies (same
    // seed, schedule drawn before fabric randomness), so the frontier
    // comparison is between controllers, not luck.
    let verdict = |policy: PolicyKind| -> &Point {
        points
            .iter()
            .find(|p| {
                p.service == Service::Queue
                    && p.pattern == "diurnal"
                    && p.policy == policy
                    && !p.crash
            })
            .expect("the verdict slice runs in every mode")
    };
    let fixed = verdict(PolicyKind::Fixed);
    let qd = verdict(PolicyKind::QueueDepth);
    let util = verdict(PolicyKind::UtilHysteresis);
    let pred = verdict(PolicyKind::PredictiveHolt);
    let dominates = pred.r.violations() < fixed.r.violations()
        && pred.r.instance_hours < fixed.r.instance_hours;
    let ordered = pred.r.violations() <= util.r.violations()
        && util.r.violations() <= qd.r.violations()
        && qd.r.instance_hours < fixed.r.instance_hours;

    // Lifecycle anchors aggregate over every cell: each add batch any
    // controller ordered contributes its order-to-first-ready lead,
    // and every cell's initial boot contributes its ramp ratio.
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let leads: Vec<f64> = points
        .iter()
        .filter_map(|p| p.r.first_ready_lead_s)
        .collect();
    let ramps: Vec<f64> = points.iter().map(|p| p.r.initial_ramp_ratio).collect();

    let checks = vec![
        anchors::ELASTIC_PREDICTIVE_DOMINANCE.check(if dominates { 1.0 } else { 0.0 }),
        anchors::ELASTIC_REACTIVE_ORDERING.check(if ordered { 1.0 } else { 0.0 }),
        anchors::ELASTIC_SCALE_OUT_LEAD_S.check(mean(&leads)),
        anchors::ELASTIC_INITIAL_RAMP_RATIO.check(mean(&ramps)),
    ];

    let mut block = anchor::render_block(
        "Elastic frontier (queue diurnal verdict + emergent Table 1 lifecycle):",
        &checks,
    );
    block.push_str("Frontier at the verdict point (queue, diurnal, clean):\n");
    for p in [fixed, qd, util, pred] {
        block.push_str(&format!(
            "  {:11} {:6} violations ({:5.2}%), {:6} instance-hours, max fleet {}\n",
            p.policy.name(),
            p.r.violations(),
            p.r.slo.violation_fraction() * 100.0,
            num(p.r.instance_hours, 3),
            p.r.max_committed,
        ));
    }
    block.push_str(&format!(
        "  predictive dominates fixed on both axes: {}; frontier ordered (pred <= util <= qd on violations, qd cheaper than fixed): {}\n",
        if dominates { "yes" } else { "NO" },
        if ordered { "yes" } else { "NO" },
    ));

    let stdout = format!("{}\n{}", table.render(), block);
    CampaignOutput {
        name: "elastic",
        cells: cells.len(),
        stdout,
        files: vec![
            ("elastic.csv".to_string(), csv.as_str().to_string()),
            ("elastic.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
