//! Frontier campaign: open-loop offered-load sweeps per storage
//! service.
//!
//! The Fig 1–3 campaigns are closed-loop (the paper's protocol): they
//! find each service's peak by adding clients. This campaign
//! approaches the same ceilings from the other side: an open-loop
//! fleet (`simload`) offers load at a scheduled rate, sweeps the rate
//! through the saturation knee, and reports coordinated-omission-free
//! latency percentiles, SLO-violation fractions and goodput at every
//! point. The located capacity must agree with the closed-loop peaks —
//! blob GET vs Fig 1's 393.4 MB/s, queue Add vs Fig 3's 569 ops/s, and
//! table Query vs this reproduction's own closed-loop aggregate at 192
//! clients (Fig 2 publishes no numeric peak).
//!
//! One bursty (MMPP-style on/off) cell per service rides along at
//! sub-knee mean load, showing how burstiness alone degrades tail
//! latency and SLO compliance at unchanged mean rate.

use cloudbench::anchors;
use cloudbench::experiments::stamp_config;
use simcore::report::{num, AsciiTable, Csv};
use simlab::{anchor, run_cells, RunOpts};
use simload::{run_open_loop, ArrivalProcess, LoadCellResult, LoadConfig};

use super::{CampaignOutput, Service, ServicePlan};

/// Full sweep plan (grid + windows) for one mode.
struct Plan {
    services: [ServicePlan; 3],
    multipliers: Vec<f64>,
    /// Offered-load multiplier the bursty rider cells run at.
    bursty_multiplier: f64,
    warmup_s: f64,
    window_s: f64,
    fleet: usize,
    seed: u64,
}

impl Plan {
    fn new(quick: bool) -> Plan {
        Plan {
            services: ServicePlan::frontier(quick),
            multipliers: if quick {
                vec![0.5, 0.85, 0.95, 1.0, 1.15]
            } else {
                vec![0.3, 0.5, 0.7, 0.85, 0.95, 1.0, 1.15, 1.3]
            },
            bursty_multiplier: 0.85,
            warmup_s: if quick { 2.0 } else { 5.0 },
            window_s: if quick { 8.0 } else { 30.0 },
            fleet: if quick { 64 } else { 192 },
            seed: 0x10AD,
        }
    }

    /// Cell grid: all Poisson sweep points, then one bursty rider per
    /// service. Cell order (and thus seeds) is part of the contract —
    /// `run_cells` merges shards back into this canonical order.
    fn points(&self) -> Vec<(usize, f64, ArrivalProcess)> {
        // The rider's on/off sojourns scale with the window so every
        // cell sees several burst cycles (a fixed multi-second preset
        // would make short quick windows land inside one sojourn and
        // measure nothing).
        let bursty = ArrivalProcess::Bursty {
            on_mean_s: self.window_s / 16.0,
            off_mean_s: self.window_s / 8.0,
            shape: 0.7,
        };
        let mut pts = Vec::new();
        for (si, _) in self.services.iter().enumerate() {
            for &m in &self.multipliers {
                pts.push((si, m, ArrivalProcess::Poisson));
            }
        }
        for (si, _) in self.services.iter().enumerate() {
            pts.push((si, self.bursty_multiplier, bursty.clone()));
        }
        pts
    }
}

/// One measured sweep point.
struct Point {
    service: Service,
    process: &'static str,
    multiplier: f64,
    unit_scale: f64,
    cell: LoadCellResult,
}

impl Point {
    /// Offered rate in the service's reporting unit.
    fn offered(&self) -> f64 {
        self.cell.offered_ops_s * self.unit_scale
    }

    fn achieved(&self) -> f64 {
        self.cell.achieved_ops_s * self.unit_scale
    }

    fn goodput(&self) -> f64 {
        self.cell.goodput_ops_s * self.unit_scale
    }
}

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    Plan::new(quick).points().len()
}

/// Run the frontier campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let plan = Plan::new(quick);
    let pts = plan.points();
    eprintln!(
        "frontier: sweeping x{:?} offered load over {} services, {} s windows, fleet {} ...",
        plan.multipliers,
        plan.services.len(),
        plan.window_s,
        plan.fleet
    );
    let out = run_cells(pts.len(), opts, |i, ctx| {
        let (si, m, process) = pts[i].clone();
        let sp = &plan.services[si];
        let cfg = LoadConfig {
            workload: sp.workload,
            process,
            offered_ops_s: sp.nominal_ops_s * m,
            warmup_s: plan.warmup_s,
            window_s: plan.window_s,
            fleet: plan.fleet,
            deadline_s: sp.deadline_s,
            shed_retry: None,
        };
        let seed = plan.seed ^ ((si as u64) << 8) ^ ((i as u64) << 16);
        ctx.with_sim(seed, |sim| run_open_loop(sim, stamp_config(ctx), &cfg))
    });
    let points: Vec<Point> = out
        .cells
        .into_iter()
        .zip(&pts)
        .map(|(cell, (si, m, process))| {
            let sp = &plan.services[*si];
            Point {
                service: sp.service(),
                process: process.name(),
                multiplier: *m,
                unit_scale: sp.unit_scale(),
                cell,
            }
        })
        .collect();

    let mut table = AsciiTable::new(vec![
        "service",
        "process",
        "x nominal",
        "offered",
        "achieved",
        "goodput",
        "unit",
        "p50 ms",
        "p99 ms",
        "SLO viol",
    ])
    .with_title("Offered-load frontier — open-loop sweep per service".to_string());
    let mut csv = Csv::new();
    csv.row(&[
        "service",
        "process",
        "multiplier",
        "offered_ops_s",
        "scheduled_ops_s",
        "achieved_ops_s",
        "goodput_ops_s",
        "offered_units",
        "achieved_units",
        "unit",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "p999_ms",
        "violation_frac",
        "completed",
        "failed",
    ]);
    for p in &points {
        table.row(vec![
            p.service.name().to_string(),
            p.process.to_string(),
            num(p.multiplier, 2),
            num(p.offered(), 1),
            num(p.achieved(), 1),
            num(p.goodput(), 1),
            p.service.unit().to_string(),
            num(p.cell.slo.quantile_ms(0.50), 1),
            num(p.cell.slo.quantile_ms(0.99), 1),
            format!("{:.1}%", p.cell.slo.violation_fraction() * 100.0),
        ]);
        csv.row(&[
            p.service.name().to_string(),
            p.process.to_string(),
            format!("{:.2}", p.multiplier),
            format!("{:.3}", p.cell.offered_ops_s),
            format!("{:.3}", p.cell.scheduled_ops_s),
            format!("{:.3}", p.cell.achieved_ops_s),
            format!("{:.3}", p.cell.goodput_ops_s),
            format!("{:.2}", p.offered()),
            format!("{:.2}", p.achieved()),
            p.service.unit().to_string(),
            format!("{:.3}", p.cell.slo.quantile_ms(0.50)),
            format!("{:.3}", p.cell.slo.quantile_ms(0.95)),
            format!("{:.3}", p.cell.slo.quantile_ms(0.99)),
            format!("{:.3}", p.cell.slo.quantile_ms(0.999)),
            format!("{:.4}", p.cell.slo.violation_fraction()),
            p.cell.slo.completed.to_string(),
            p.cell.slo.failed.to_string(),
        ]);
    }

    // Per service, over the Poisson sweep: the anchor measurement is
    // the *peak goodput* — the best SLO-honouring throughput at any
    // offered point. That is the open-loop quantity comparable to a
    // closed-loop peak: the deadline bounds effective concurrency the
    // way the client count did, where the raw drain rate under overload
    // would chase the service's asymptote instead. The knee is the
    // highest offered point still meeting the SLO for >= 90 % of
    // scheduled arrivals.
    let mut knee_lines = String::new();
    let mut checks = Vec::new();
    for sp in &plan.services {
        let sweep: Vec<&Point> = points
            .iter()
            .filter(|p| p.service == sp.service() && p.process == "poisson")
            .collect();
        let peak_goodput = sweep.iter().map(|p| p.goodput()).fold(0.0, f64::max);
        let capacity = sweep.iter().map(|p| p.achieved()).fold(0.0, f64::max);
        let knee = sweep
            .iter()
            .filter(|p| p.cell.slo.violation_fraction() <= 0.10)
            .map(|p| p.multiplier)
            .fold(0.0, f64::max);
        knee_lines.push_str(&format!(
            "  {}: peak goodput {} {unit} under {} ms SLO, drain capacity ~{} {unit}, knee at {knee:.2}x nominal offered\n",
            sp.service().name(),
            num(peak_goodput, 1),
            num(sp.deadline_s * 1e3, 0),
            num(capacity, 1),
            unit = sp.service().unit(),
        ));
        let a = match sp.service() {
            Service::Blob => anchors::FRONTIER_BLOB_CAPACITY_MBPS,
            Service::Table => anchors::FRONTIER_TABLE_CAPACITY_OPS,
            Service::Queue => anchors::FRONTIER_QUEUE_CAPACITY_OPS,
        };
        checks.push(a.check(peak_goodput));
    }

    let mut block = anchor::render_block(
        "Closed-loop cross-validation (Fig 1-3 peaks vs open-loop capacity):",
        &checks,
    );
    block.push_str("Saturation knees:\n");
    block.push_str(&knee_lines);

    let stdout = format!("{}\n{}", table.render(), block);
    CampaignOutput {
        name: "frontier",
        cells: pts.len(),
        stdout,
        files: vec![
            ("frontier.csv".to_string(), csv.as_str().to_string()),
            ("frontier.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
