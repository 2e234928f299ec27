//! Shedding campaign: admission control & overload past the knee.
//!
//! The frontier campaign locates each service's saturation knee and
//! shows goodput collapsing past it — queues grow without bound, every
//! completion arrives after its deadline, and retries amplify the
//! overload. This campaign asks the follow-up question: which
//! front-door admission policy keeps goodput alive *past* the knee?
//!
//! Grid: per service, the four `azstore::admit` policies plus a
//! no-policy baseline, at offered loads around the knee (1.0x and
//! 1.3x nominal, plus 1.15x in full mode) with a bursty (MMPP-style
//! on/off) rider at 1.3x, each cell run clean and again under a
//! `simfault` front-end error storm. Shed responses flow back through
//! the client's budgeted retry path (`ShedRetry`), so the numbers
//! include the retry-amplification feedback loop a naive rejection
//! would trigger.
//!
//! The anchor per service is the goodput gain of the best policy over
//! the baseline at 1.3x bursty, judged on the mean over that point's
//! clean and storm cells: the campaign passes when the winner
//! preserves at least 1.5x the baseline's goodput (see
//! `cloudbench::anchors::SHEDDING_*` for the capped-ratio encoding).

use azstore::AdmissionConfig;
use cloudbench::anchors;
use cloudbench::experiments::stamp_config;
use simcore::report::{num, AsciiTable, Csv};
use simfault::{FaultEpisode, FaultKind, FaultPlan};
use simlab::{anchor, run_cells, RunOpts};
use simload::{run_open_loop, ArrivalProcess, LoadCellResult, LoadConfig, ShedRetry};

use super::{CampaignOutput, Service, ServicePlan};

/// The swept admission policies (plus the no-policy baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    None,
    TokenBucket,
    QueueBound,
    Deadline,
    CoDel,
}

/// Canonical sweep order — baseline first so the table reads
/// "what overload looks like, then what each policy does about it".
const POLICIES: [Policy; 5] = [
    Policy::None,
    Policy::TokenBucket,
    Policy::QueueBound,
    Policy::Deadline,
    Policy::CoDel,
];

impl Policy {
    /// Parameterize the policy for one service. Every parameter is
    /// derived from the same two per-service facts the frontier sweep
    /// established — nominal capacity and the SLO deadline — so the
    /// comparison is between policy *shapes*, not hand-tuned constants:
    ///
    /// * token bucket: refill at nominal capacity, burst of ~50 ms of
    ///   capacity (absorbs scheduling jitter, not sustained overload);
    /// * queue bound: Little's law at half the deadline — with `limit`
    ///   in flight draining at nominal rate, sojourn stays near
    ///   `deadline / 2`;
    /// * deadline-aware: shed when the estimated drain time exceeds
    ///   the op's remaining SLO budget (the stashed deadline);
    /// * CoDel: target sojourn `deadline / 4`, control interval one
    ///   deadline.
    fn config(self, sp: &ServicePlan) -> AdmissionConfig {
        match self {
            Policy::None => AdmissionConfig::None,
            Policy::TokenBucket => AdmissionConfig::TokenBucket {
                rate_ops_s: sp.nominal_ops_s,
                burst: (sp.nominal_ops_s * 0.05).max(8.0),
            },
            Policy::QueueBound => AdmissionConfig::QueueBound {
                limit: ((sp.nominal_ops_s * sp.deadline_s * 0.5).ceil() as usize).max(4),
            },
            Policy::Deadline => AdmissionConfig::DeadlineAware {
                default_budget_s: sp.deadline_s,
            },
            Policy::CoDel => AdmissionConfig::CoDel {
                target_s: sp.deadline_s * 0.25,
                interval_s: sp.deadline_s,
            },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Policy::None => "none",
            Policy::TokenBucket => "token_bucket",
            Policy::QueueBound => "queue_bound",
            Policy::Deadline => "deadline",
            Policy::CoDel => "codel",
        }
    }
}

/// One cell of the grid.
#[derive(Clone)]
struct Cell {
    si: usize,
    policy: Policy,
    multiplier: f64,
    process: ArrivalProcess,
    storm: bool,
}

/// Full sweep plan for one mode.
struct Plan {
    services: Vec<ServicePlan>,
    /// (multiplier, process) load points, in sweep order.
    loads: Vec<(f64, ArrivalProcess)>,
    warmup_s: f64,
    window_s: f64,
    fleet: usize,
    seed: u64,
}

impl Plan {
    fn new(quick: bool) -> Plan {
        let window_s = if quick { 6.0 } else { 12.0 };
        let bursty = ArrivalProcess::Bursty {
            on_mean_s: window_s / 16.0,
            off_mean_s: window_s / 8.0,
            shape: 0.7,
        };
        // Quick mode sweeps the queue service only (the cheapest ops),
        // keeping the CI grid at 30 cells; full mode covers all three
        // services. The services are the frontier's full-mode operating
        // points, so "1.3x" means the same thing in both campaigns.
        let services = ServicePlan::frontier(false)
            .into_iter()
            .filter(|sp| !quick || sp.service() == Service::Queue)
            .collect();
        let mut loads = vec![(1.0, ArrivalProcess::Poisson)];
        if !quick {
            loads.push((1.15, ArrivalProcess::Poisson));
        }
        loads.push((1.3, ArrivalProcess::Poisson));
        loads.push((1.3, bursty));
        Plan {
            services,
            loads,
            warmup_s: if quick { 1.5 } else { 3.0 },
            window_s,
            fleet: if quick { 48 } else { 96 },
            // Seed chosen so no bursty cell draws a heavy-tailed OFF
            // sojourn covering its entire measurement window (a
            // legitimate but degenerate outcome for Weibull(0.7)
            // on/off processes that would leave a cell with zero
            // scheduled arrivals to judge the policy by).
            seed: 0x5AED1,
        }
    }

    /// Cell grid in canonical order (part of the seed contract —
    /// `run_cells` merges shards back into this order).
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for si in 0..self.services.len() {
            for &policy in &POLICIES {
                for (m, process) in &self.loads {
                    for storm in [false, true] {
                        cells.push(Cell {
                            si,
                            policy,
                            multiplier: *m,
                            process: process.clone(),
                            storm,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The front-end error storm episode for one service's cells: a
    /// window covering the middle third of the measurement window,
    /// erroring 20 % of ops and stalling every op by a quarter of the
    /// service's deadline — enough to push a near-knee cell over it.
    fn storm_episode(&self, sp: &ServicePlan) -> FaultEpisode {
        FaultEpisode {
            start_s: self.warmup_s + self.window_s / 3.0,
            duration_s: self.window_s / 3.0,
            kind: FaultKind::FrontendStorm {
                error_p: 0.2,
                stall_s: sp.deadline_s * 0.25,
            },
        }
    }
}

/// One measured cell.
struct Point {
    service: Service,
    policy: Policy,
    process: &'static str,
    multiplier: f64,
    storm: bool,
    cell: LoadCellResult,
}

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    Plan::new(quick).cells().len()
}

/// Run the shedding campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let plan = Plan::new(quick);
    let cells = plan.cells();
    eprintln!(
        "shedding: {} policies x {} load points x storm on/off over {} services ({} cells, {} s windows, fleet {}) ...",
        POLICIES.len(),
        plan.loads.len(),
        plan.services.len(),
        cells.len(),
        plan.window_s,
        plan.fleet
    );
    let out = run_cells(cells.len(), opts, |i, ctx| {
        let c = &cells[i];
        let sp = &plan.services[c.si];
        let cfg = LoadConfig {
            workload: sp.workload,
            process: c.process.clone(),
            offered_ops_s: sp.nominal_ops_s * c.multiplier,
            warmup_s: plan.warmup_s,
            window_s: plan.window_s,
            fleet: plan.fleet,
            deadline_s: sp.deadline_s,
            shed_retry: Some(ShedRetry::for_deadline(sp.deadline_s)),
        };
        let stamp_cfg = azstore::StampConfig {
            admission: c.policy.config(sp),
            ..stamp_config(ctx)
        };
        // Storm cells layer the front-end storm on top of whatever
        // `--faults` plan the run carries: clone it (steady-state
        // storage rates and all), append the episode, and install the
        // merged plan for this cell only (`install` nests, restoring
        // the outer plan on drop).
        let storm_plan = c.storm.then(|| {
            let mut fp = ctx.fault_plan().cloned().unwrap_or_else(FaultPlan::none);
            fp.episodes.push(plan.storm_episode(sp));
            fp
        });
        let seed = plan.seed ^ ((i as u64) << 16) ^ ((c.si as u64) << 8);
        ctx.with_sim(seed, |sim| {
            let _storm = storm_plan.as_ref().map(|fp| simfault::install(sim, fp));
            run_open_loop(sim, stamp_cfg, &cfg)
        })
    });
    let points: Vec<Point> = out
        .cells
        .into_iter()
        .zip(&cells)
        .map(|(cell, c)| Point {
            service: plan.services[c.si].service(),
            policy: c.policy,
            process: c.process.name(),
            multiplier: c.multiplier,
            storm: c.storm,
            cell,
        })
        .collect();

    let mut table = AsciiTable::new(vec![
        "service",
        "policy",
        "process",
        "x nominal",
        "storm",
        "offered",
        "achieved",
        "goodput",
        "p99 ms",
        "SLO viol",
        "shed",
    ])
    .with_title(
        "Admission control & overload shedding — goodput past the knee (ops/s)".to_string(),
    );
    let mut csv = Csv::new();
    csv.row(&[
        "service",
        "policy",
        "process",
        "multiplier",
        "storm",
        "offered_ops_s",
        "scheduled_ops_s",
        "achieved_ops_s",
        "goodput_ops_s",
        "p50_ms",
        "p99_ms",
        "violation_frac",
        "good_frac",
        "completed",
        "failed",
        "failed_shed",
        "failed_budget",
        "failed_timeout",
        "late",
        "retries",
        "admit_accepted",
        "admit_shed",
        "latch_shed",
    ]);
    for p in &points {
        table.row(vec![
            p.service.name().to_string(),
            p.policy.name().to_string(),
            p.process.to_string(),
            num(p.multiplier, 2),
            if p.storm { "storm" } else { "clean" }.to_string(),
            num(p.cell.offered_ops_s, 1),
            num(p.cell.achieved_ops_s, 1),
            num(p.cell.goodput_ops_s, 1),
            num(p.cell.slo.quantile_ms(0.99), 1),
            format!("{:.1}%", p.cell.slo.violation_fraction() * 100.0),
            p.cell.slo.shed.to_string(),
        ]);
        csv.row(&[
            p.service.name().to_string(),
            p.policy.name().to_string(),
            p.process.to_string(),
            format!("{:.2}", p.multiplier),
            (p.storm as u8).to_string(),
            format!("{:.3}", p.cell.offered_ops_s),
            format!("{:.3}", p.cell.scheduled_ops_s),
            format!("{:.3}", p.cell.achieved_ops_s),
            format!("{:.3}", p.cell.goodput_ops_s),
            format!("{:.3}", p.cell.slo.quantile_ms(0.50)),
            format!("{:.3}", p.cell.slo.quantile_ms(0.99)),
            format!("{:.4}", p.cell.slo.violation_fraction()),
            format!("{:.4}", p.cell.slo.good_fraction()),
            p.cell.slo.completed.to_string(),
            p.cell.slo.failed.to_string(),
            p.cell.slo.shed.to_string(),
            p.cell.slo.budget_exhausted.to_string(),
            p.cell.slo.timed_out.to_string(),
            p.cell.slo.late.to_string(),
            p.cell.retries.to_string(),
            p.cell.admit_accepted.to_string(),
            p.cell.admit_shed.to_string(),
            p.cell.latch_shed.to_string(),
        ]);
    }

    // Per service: the verdict point is 1.3x bursty — the overload
    // shape the knee analysis says is hardest (same mean rate, arrival
    // bursts several times it). Each policy is judged on its *mean*
    // goodput over that point's clean and storm cells: a policy that
    // keeps goodput alive past the knee must do so both in fair
    // weather and through the front-end error storm, and averaging the
    // two halves the single-cell variance a heavy-tailed on/off
    // arrival draw injects. The anchor is the winner's gain over the
    // no-policy baseline on the same mean, capped so a collapsed
    // baseline can't make the ratio meaninglessly large (see the
    // anchor constants' docs).
    let verdict_goodput = |svc: Service, policy: Policy| -> (f64, f64) {
        let mut clean = 0.0;
        let mut storm = 0.0;
        for p in &points {
            if p.service == svc
                && p.policy == policy
                && p.process == "bursty"
                && p.multiplier == 1.3
            {
                if p.storm {
                    storm = p.cell.goodput_ops_s;
                } else {
                    clean = p.cell.goodput_ops_s;
                }
            }
        }
        (clean, storm)
    };
    let mut lines = String::new();
    let mut checks = Vec::new();
    for sp in &plan.services {
        let (base_clean, base_storm) = verdict_goodput(sp.service(), Policy::None);
        let base = (base_clean + base_storm) / 2.0;
        let (winner, win_clean, win_storm) = POLICIES
            .iter()
            .filter(|&&pl| pl != Policy::None)
            .map(|&pl| {
                let (c, s) = verdict_goodput(sp.service(), pl);
                (pl, c, s)
            })
            .fold(
                (Policy::None, f64::NEG_INFINITY, f64::NEG_INFINITY),
                |acc, (pl, c, s)| {
                    if c + s > acc.1 + acc.2 {
                        (pl, c, s)
                    } else {
                        acc
                    }
                },
            );
        let win = (win_clean + win_storm) / 2.0;
        let gain = if base > 0.0 {
            win / base
        } else if win > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        lines.push_str(&format!(
            "  {}: winner '{}' at 1.3x bursty — mean goodput {} vs baseline {} ops/s ({}x gain; >= 1.5x required); clean {} vs {}, under front-end storm {} vs {}\n",
            sp.service().name(),
            winner.name(),
            num(win, 1),
            num(base, 1),
            if gain.is_finite() { num(gain, 2) } else { "inf".to_string() },
            num(win_clean, 1),
            num(base_clean, 1),
            num(win_storm, 1),
            num(base_storm, 1),
        ));
        let a = match sp.service() {
            Service::Blob => anchors::SHEDDING_BLOB_GOODPUT_GAIN,
            Service::Table => anchors::SHEDDING_TABLE_GOODPUT_GAIN,
            Service::Queue => anchors::SHEDDING_QUEUE_GOODPUT_GAIN,
        };
        checks.push(a.check(gain.min(4.5)));
    }

    let mut block = anchor::render_block(
        "Overload robustness (winner-vs-baseline goodput gain, capped ratio):",
        &checks,
    );
    block.push_str("Policy verdicts at 1.3x offered load:\n");
    block.push_str(&lines);

    let stdout = format!("{}\n{}", table.render(), block);
    CampaignOutput {
        name: "shedding",
        cells: cells.len(),
        stdout,
        files: vec![
            ("shedding.csv".to_string(), csv.as_str().to_string()),
            ("shedding.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
