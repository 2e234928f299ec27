//! Consistency campaign: region-aware read routing over the geo set —
//! the staleness-vs-latency frontier and the availability split during
//! failover.
//!
//! The geo campaign measured the platform through its location-service
//! front door: every read lands on the account's *primary* stamp. Here
//! the `azroute` layer routes reads by consistency mode instead, and
//! three cell families probe what the secondary replica buys:
//!
//! * **A front-door baseline** per service — `azgeo::run_geo` at the
//!   same load, the reference strong reads must match (the routing
//!   layer adds a policy decision, not a service).
//! * **Clean route cells** — the full mode × placement grid (strong /
//!   eventual / bounded(τ) / session, reader fleets pinned to the
//!   primary's, the secondary's, or a remote region) under a steady
//!   background write stream feeding the replication logs. The cells
//!   trace the frontier: strong pays the full region→primary RTT for
//!   staleness 0; eventual reads the nearest replica and observes real
//!   applied-watermark lag; bounded buys a hard staleness ceiling at
//!   the price of escalations; session pays only when its own writes
//!   have not replicated yet.
//! * **Partition cells** — a mid-window stamp-0 partition with the
//!   fleet restricted to accounts primaried on the victim. Inside the
//!   closed-form detection+promotion window strong reads produce zero
//!   goodput (anchored) while eventual and bounded keep serving from
//!   the surviving secondaries — the availability argument for
//!   relaxed reads.
//!
//! The clean bounded cells run at τ = 2 s by default; `--tau SECONDS`
//! overrides it (the CLI rejects τ ≤ 0 at parse). Partition cells pin
//! τ = 15 s — above the worst in-window lag, so the bound alone never
//! blacks the mode out.

use azgeo::{run_geo, GeoConfig, GeoResult};
use azroute::consistency::ReadPolicy;
use azroute::{run_consistency, Consistency, ReaderPlacement, RouteConfig, RouteResult};
use azstore::calib::{BLOB_EGRESS_BPS, TABLE_NOMINAL_OPS_S};
use cloudbench::anchors;
use cloudbench::experiments::stamp_config;
use simcore::report::{num, AsciiTable, Csv};
use simfault::{FaultEpisode, FaultKind, FaultPlan};
use simlab::{anchor, run_cells, RunOpts};
use simload::{ArrivalProcess, Workload};

use super::{CampaignOutput, ServicePlan};

/// Stamps in the geo set = regions in the RTT matrix (1:1).
const STAMPS: usize = 4;
/// Placement seed (same deterministic account→stamp map as geo).
const PLACEMENT_SEED: u64 = 0xA2;
/// Seed of the region↔region RTT matrix (pure function of the seed —
/// no `Sim` entropy).
const RTT_SEED: u64 = 0xC3;
/// Base cross-region RTT the matrix spreads around (s).
const RTT_BASE_S: f64 = 0.035;
/// Per-pair RTT spread in `[0, 1)`.
const RTT_SPREAD: f64 = 0.5;
/// Bounded-staleness bound in clean cells when `--tau` is not given.
const TAU_CLEAN_DEFAULT_S: f64 = 2.0;
/// Bounded-staleness bound in partition cells: above the worst
/// in-window applied lag, so bounded availability is limited by the
/// fault, not the bound.
const TAU_PARTITION_S: f64 = 15.0;
/// Campaign seed base.
const SEED: u64 = 0xA40;

/// Cell family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `run_geo` front-door reference at the same load.
    Baseline,
    /// Routed reads, healthy set.
    Clean,
    /// Routed reads with the mid-window stamp-0 partition.
    Partition,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Baseline => "baseline",
            Kind::Clean => "clean",
            Kind::Partition => "partition",
        }
    }
}

/// Full cell grid + windows for one mode.
struct Plan {
    /// The swept read services (queue Adds are the write stream, not a
    /// read to route). Each plan's nominal is the aggregate read rate
    /// the clean cells offer: ~0.3x the aggregate knee, well under it
    /// so latency differences are RTTs, not queueing. Its deadline
    /// covers the worst cross-region RTT.
    services: Vec<ServicePlan>,
    /// The four modes, clean-τ resolved (canonical order).
    modes: Vec<Consistency>,
    /// Placements swept in clean cells (canonical order).
    placements: Vec<ReaderPlacement>,
    /// Partition-cell modes (session only in full mode).
    partition_modes: Vec<Consistency>,
    /// Partition cells offer this restricted-pool read rate (ops/s).
    partition_ops_s: f64,
    warmup_s: f64,
    window_s: f64,
    /// Partition cells run longer so the whole RTO window and the
    /// post-promotion regime land inside the horizon.
    partition_window_s: f64,
    fleet: usize,
    accounts: u32,
    /// Aggregate background write rate in clean cells (ops/s).
    write_ops_s: f64,
    /// Stamp-0 partition opening instant.
    fault_start_s: f64,
}

/// One grid entry.
#[derive(Clone, Copy)]
struct Cell {
    si: usize,
    kind: Kind,
    /// Index into `modes` / `partition_modes` (unused for baselines).
    mi: usize,
    placement: ReaderPlacement,
}

impl Plan {
    fn new(quick: bool, tau_clean_s: f64) -> Plan {
        let mut services = vec![ServicePlan {
            // Small queries: service time well under the cross-region
            // RTTs the placements add, so the frontier is visible.
            workload: Workload::TableQuery {
                entities: 64,
                entity_kb: 4,
            },
            nominal_ops_s: 0.3 * STAMPS as f64 * TABLE_NOMINAL_OPS_S,
            deadline_s: 0.12,
        }];
        if !quick {
            services.push(ServicePlan {
                workload: Workload::BlobGet { blob_bytes: 0.25e6 },
                nominal_ops_s: 0.3 * STAMPS as f64 * BLOB_EGRESS_BPS / 0.25e6,
                deadline_s: 0.5,
            });
        }
        let modes = vec![
            Consistency::Strong,
            Consistency::Eventual,
            Consistency::bounded(tau_clean_s),
            Consistency::Session,
        ];
        let mut partition_modes = vec![
            Consistency::Strong,
            Consistency::Eventual,
            Consistency::bounded(TAU_PARTITION_S),
        ];
        if !quick {
            partition_modes.push(Consistency::Session);
        }
        Plan {
            services,
            modes,
            placements: vec![
                ReaderPlacement::Home,
                ReaderPlacement::Secondary,
                ReaderPlacement::Remote,
            ],
            partition_modes,
            partition_ops_s: 585.0,
            warmup_s: if quick { 2.0 } else { 5.0 },
            window_s: if quick { 8.0 } else { 15.0 },
            partition_window_s: if quick { 14.0 } else { 20.0 },
            fleet: if quick { 256 } else { 1024 },
            accounts: if quick { 64 } else { 1024 },
            write_ops_s: if quick { 64.0 } else { 256.0 },
            // Probes tick every 2 s: a partition at 4 s (quick) is
            // first missed at 4, promoted at 13 — the RTO window is
            // [4, 13); at 8 s (full) it is [8, 17), inside the 25 s
            // horizon either way.
            fault_start_s: if quick { 4.0 } else { 8.0 },
        }
    }

    /// Canonical cell order (the shard-merge contract): per-service
    /// front-door baselines, then the clean placement × mode grid, then
    /// the partition cells (table service, secondary placement).
    fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (si, _) in self.services.iter().enumerate() {
            cells.push(Cell {
                si,
                kind: Kind::Baseline,
                mi: 0,
                placement: ReaderPlacement::Home,
            });
        }
        for (si, _) in self.services.iter().enumerate() {
            for &placement in &self.placements {
                for (mi, _) in self.modes.iter().enumerate() {
                    cells.push(Cell {
                        si,
                        kind: Kind::Clean,
                        mi,
                        placement,
                    });
                }
            }
        }
        for (mi, _) in self.partition_modes.iter().enumerate() {
            cells.push(Cell {
                si: 0,
                kind: Kind::Partition,
                mi,
                placement: ReaderPlacement::Secondary,
            });
        }
        cells
    }

    /// The cell's mode (partition cells draw from their own list).
    fn mode(&self, c: &Cell) -> Consistency {
        match c.kind {
            Kind::Partition => self.partition_modes[c.mi],
            _ => self.modes[c.mi],
        }
    }

    /// Cell seed — deliberately *not* keyed on the mode, so strong and
    /// eventual cells at the same service/placement run identical
    /// arrival and write schedules and their latency means subtract
    /// cleanly (the RTT-drop anchor).
    fn seed(&self, c: &Cell) -> u64 {
        let pi = match c.placement {
            ReaderPlacement::Home => 0u64,
            ReaderPlacement::Secondary => 1,
            ReaderPlacement::Remote => 2,
        };
        let kind = match c.kind {
            Kind::Partition => 1u64,
            _ => 0,
        };
        SEED ^ ((c.si as u64) << 8) ^ (pi << 16) ^ (kind << 24)
    }

    fn route_config(&self, c: &Cell) -> RouteConfig {
        let sp = &self.services[c.si];
        let partition = c.kind == Kind::Partition;
        RouteConfig {
            stamps: STAMPS,
            accounts: self.accounts,
            workload: sp.workload,
            process: ArrivalProcess::Poisson,
            offered_ops_s: if partition {
                self.partition_ops_s
            } else {
                sp.nominal_ops_s
            },
            warmup_s: self.warmup_s,
            window_s: if partition {
                self.partition_window_s
            } else {
                self.window_s
            },
            fleet: self.fleet,
            deadline_s: sp.deadline_s,
            mode: self.mode(c),
            placement: c.placement,
            placement_seed: PLACEMENT_SEED,
            rtt_seed: RTT_SEED,
            rtt_base_s: RTT_BASE_S,
            rtt_spread: RTT_SPREAD,
            write_ops_s: if partition { 128.0 } else { self.write_ops_s },
            fault_start_s: partition.then_some(self.fault_start_s),
        }
    }

    fn geo_config(&self, c: &Cell) -> GeoConfig {
        let sp = &self.services[c.si];
        GeoConfig {
            stamps: STAMPS,
            accounts: self.accounts,
            workload: sp.workload,
            process: ArrivalProcess::Poisson,
            offered_ops_s: sp.nominal_ops_s,
            warmup_s: self.warmup_s,
            window_s: self.window_s,
            fleet: self.fleet,
            deadline_s: sp.deadline_s,
            skew_alpha: None,
            rebalance: false,
            placement_seed: PLACEMENT_SEED,
        }
    }
}

/// Planned cell count for one mode (the bench report records this
/// without executing the campaign).
pub fn cell_count(quick: bool) -> usize {
    Plan::new(quick, TAU_CLEAN_DEFAULT_S).cells().len()
}

/// One measured cell.
enum CellOut {
    Geo(GeoResult),
    Route(RouteResult),
}

/// Run the consistency campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let tau_clean_s = opts.tau.unwrap_or(TAU_CLEAN_DEFAULT_S);
    let plan = Plan::new(quick, tau_clean_s);
    let cells = plan.cells();
    eprintln!(
        "consistency: {} stamps, {} accounts, fleet {}, {} modes x {} placements x {} services + {} baselines + {} partition cells (tau {} s clean / {} s partition) ...",
        STAMPS,
        plan.accounts,
        plan.fleet,
        plan.modes.len(),
        plan.placements.len(),
        plan.services.len(),
        plan.services.len(),
        plan.partition_modes.len(),
        tau_clean_s,
        TAU_PARTITION_S,
    );
    let out = run_cells(cells.len(), opts, |i, ctx| {
        let c = &cells[i];
        // Partition cells layer the stamp-0 partition on top of
        // whatever `--faults` plan the run carries.
        let fault = (c.kind == Kind::Partition).then(|| {
            let mut fp = ctx.fault_plan().cloned().unwrap_or_else(FaultPlan::none);
            fp.episodes.push(FaultEpisode {
                start_s: plan.fault_start_s,
                duration_s: 600.0,
                kind: FaultKind::StampPartition { stamp: 0 },
            });
            fp
        });
        let base = stamp_config(ctx);
        ctx.with_sim(plan.seed(c), |sim| {
            let _fault = fault.as_ref().map(|fp| simfault::install(sim, fp));
            match c.kind {
                Kind::Baseline => CellOut::Geo(run_geo(sim, base, &plan.geo_config(c))),
                _ => CellOut::Route(run_consistency(sim, base, &plan.route_config(c))),
            }
        })
    });
    let points: Vec<(Cell, CellOut)> = cells.iter().copied().zip(out.cells).collect();

    let mut table = AsciiTable::new(vec![
        "service",
        "cell",
        "mode",
        "place",
        "tau s",
        "offered",
        "goodput",
        "p50 ms",
        "p99 ms",
        "stale max s",
        "2nd reads",
        "escal",
        "unavail",
        "rto good",
    ])
    .with_title("Consistency routing — staleness-vs-latency frontier over the geo set".to_string());
    let mut csv = Csv::new();
    csv.row(
        &[
            "service",
            "cell",
            "mode",
            "placement",
            "tau_s",
            "offered_ops_s",
            "scheduled_ops_s",
            "achieved_ops_s",
            "goodput_ops_s",
            "p50_ms",
            "p99_ms",
            "violation_frac",
            "completed",
            "failed",
            "staleness_mean_s",
            "staleness_max_s",
            "reads_primary",
            "reads_secondary",
            "escalations",
            "unavailable",
            "writes_ok",
            "rto_window_good",
            "rto_window_start_s",
            "rto_window_end_s",
            "expected_primary_rtt_s",
            "expected_saving_rtt_s",
            "promotions",
            "lost_entries",
            "rto_s",
            "route_fp",
            "rtt_fp",
        ]
        .map(String::from),
    );
    for (c, o) in &points {
        let sp = &plan.services[c.si];
        match o {
            CellOut::Geo(r) => {
                table.row(vec![
                    sp.service().name().to_string(),
                    c.kind.name().to_string(),
                    "frontdoor".to_string(),
                    "home".to_string(),
                    "-".to_string(),
                    num(r.offered_ops_s, 1),
                    num(r.goodput_ops_s, 1),
                    num(r.slo.quantile_ms(0.50), 2),
                    num(r.slo.quantile_ms(0.99), 2),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    r.unavailable_ops.to_string(),
                    "-".to_string(),
                ]);
                let mut row = vec![
                    sp.service().name().to_string(),
                    c.kind.name().to_string(),
                    "frontdoor".to_string(),
                    "home".to_string(),
                    String::new(),
                    format!("{:.3}", r.offered_ops_s),
                    format!("{:.3}", r.scheduled_ops_s),
                    format!("{:.3}", r.achieved_ops_s),
                    format!("{:.3}", r.goodput_ops_s),
                    format!("{:.3}", r.slo.quantile_ms(0.50)),
                    format!("{:.3}", r.slo.quantile_ms(0.99)),
                    format!("{:.4}", r.slo.violation_fraction()),
                    r.slo.completed.to_string(),
                    r.slo.failed.to_string(),
                ];
                row.extend(std::iter::repeat_n(String::new(), 7));
                row.push(r.unavailable_ops.to_string());
                row.extend(std::iter::repeat_n(String::new(), 8));
                csv.row(&row);
            }
            CellOut::Route(r) => {
                let mode = plan.mode(c);
                let tau = mode.tau_s();
                table.row(vec![
                    sp.service().name().to_string(),
                    c.kind.name().to_string(),
                    mode.name().to_string(),
                    c.placement.name().to_string(),
                    tau.map(|t| num(t, 1)).unwrap_or_else(|| "-".to_string()),
                    num(r.offered_ops_s, 1),
                    num(r.goodput_ops_s, 1),
                    num(r.slo.quantile_ms(0.50), 2),
                    num(r.slo.quantile_ms(0.99), 2),
                    num(r.slo.staleness.max(), 2),
                    r.reads_secondary.to_string(),
                    r.escalations.to_string(),
                    r.unavailable.to_string(),
                    match r.rto_window {
                        Some(_) => r.rto_window_good.to_string(),
                        None => "-".to_string(),
                    },
                ]);
                csv.row(&[
                    sp.service().name().to_string(),
                    c.kind.name().to_string(),
                    mode.name().to_string(),
                    c.placement.name().to_string(),
                    tau.map(|t| format!("{t:.3}")).unwrap_or_default(),
                    format!("{:.3}", r.offered_ops_s),
                    format!("{:.3}", r.scheduled_ops_s),
                    format!("{:.3}", r.achieved_ops_s),
                    format!("{:.3}", r.goodput_ops_s),
                    format!("{:.3}", r.slo.quantile_ms(0.50)),
                    format!("{:.3}", r.slo.quantile_ms(0.99)),
                    format!("{:.4}", r.slo.violation_fraction()),
                    r.slo.completed.to_string(),
                    r.slo.failed.to_string(),
                    format!("{:.4}", r.slo.staleness.mean()),
                    format!("{:.4}", r.slo.staleness.max()),
                    r.reads_primary.to_string(),
                    r.reads_secondary.to_string(),
                    r.escalations.to_string(),
                    r.unavailable.to_string(),
                    r.writes_ok.to_string(),
                    r.rto_window_good.to_string(),
                    r.rto_window
                        .map(|(a, _)| format!("{a:.1}"))
                        .unwrap_or_default(),
                    r.rto_window
                        .map(|(_, b)| format!("{b:.1}"))
                        .unwrap_or_default(),
                    format!("{:.6}", r.expected_primary_rtt_s),
                    format!("{:.6}", r.expected_saving_rtt_s),
                    r.promotions.to_string(),
                    r.lost_entries.to_string(),
                    format!("{:.3}", r.rto_s),
                    format!("{:016x}", r.route_fingerprint),
                    format!("{:016x}", r.rtt_fingerprint),
                ]);
            }
        }
    }

    // Cell lookups for the anchors (table service throughout).
    let route = |kind: Kind, mode_name: &str, placement: ReaderPlacement| -> &RouteResult {
        points
            .iter()
            .find_map(|(c, o)| match o {
                CellOut::Route(r)
                    if c.si == 0
                        && c.kind == kind
                        && c.placement == placement
                        && plan.mode(c).name() == mode_name =>
                {
                    Some(r)
                }
                _ => None,
            })
            .expect("grid has the requested route cell")
    };
    let baseline = points
        .iter()
        .find_map(|(c, o)| match o {
            CellOut::Geo(r) if c.si == 0 => Some(r),
            _ => None,
        })
        .expect("grid has the table baseline");

    let mut checks = Vec::new();
    // 1. Strong reads from the home region vs the geo front door.
    let strong_home = route(Kind::Clean, "strong", ReaderPlacement::Home);
    let p50_ratio = strong_home.slo.quantile_ms(0.50) / baseline.slo.quantile_ms(0.50);
    checks.push(anchors::ROUTE_STRONG_MATCHES_GEO.check(p50_ratio));
    // 2. The eventual RTT drop at the secondary's region: measured mean
    // drop over the closed-form fleet-mean saving.
    let strong_sec = route(Kind::Clean, "strong", ReaderPlacement::Secondary);
    let eventual_sec = route(Kind::Clean, "eventual", ReaderPlacement::Secondary);
    let drop_s = (strong_sec.slo.latency.mean() - eventual_sec.slo.latency.mean()).max(0.0);
    checks.push(anchors::ROUTE_EVENTUAL_RTT_DROP.check(drop_s / strong_sec.expected_saving_rtt_s));
    // 3. The bounded hard invariant over EVERY bounded cell, clean and
    // partitioned: max observed staleness <= the cell's tau.
    let mut bounded_ok = true;
    let mut bounded_lines = String::new();
    for (c, o) in &points {
        if let CellOut::Route(r) = o {
            if let Some(tau) = plan.mode(c).tau_s() {
                let ok = r.slo.staleness.max() <= tau;
                bounded_ok &= ok;
                bounded_lines.push_str(&format!(
                    "  bounded {} {} {}: stale max {:.3} s <= tau {:.1} s: {}\n",
                    plan.services[c.si].service().name(),
                    c.kind.name(),
                    c.placement.name(),
                    r.slo.staleness.max(),
                    tau,
                    if ok { "ok" } else { "VIOLATED" },
                ));
            }
        }
    }
    checks.push(anchors::ROUTE_BOUNDED_WITHIN_TAU.check(if bounded_ok { 1.0 } else { 0.0 }));
    // 4. Availability through the RTO window: strong blacked out,
    // eventual and bounded serving.
    let strong_p = route(Kind::Partition, "strong", ReaderPlacement::Secondary);
    let eventual_p = route(Kind::Partition, "eventual", ReaderPlacement::Secondary);
    let bounded_p = route(Kind::Partition, "bounded", ReaderPlacement::Secondary);
    let avail_ok = strong_p.rto_window_good == 0
        && eventual_p.rto_window_good > 0
        && bounded_p.rto_window_good > 0;
    checks.push(anchors::ROUTE_PARTITION_AVAILABILITY.check(if avail_ok { 1.0 } else { 0.0 }));

    let mut block = anchor::render_block(
        "Consistency verdicts (strong vs front door, RTT drop, tau bound, RTO-window availability):",
        &checks,
    );
    block.push_str(&format!(
        "Frontier (table, secondary region): strong p50 {:.2} ms stale 0; eventual p50 {:.2} ms stale mean {:.2} s max {:.2} s; bounded(tau {:.1}) p50 {:.2} ms stale max {:.2} s, {} escalations; session p50 {:.2} ms, {} escalations\n",
        strong_sec.slo.quantile_ms(0.50),
        eventual_sec.slo.quantile_ms(0.50),
        eventual_sec.slo.staleness.mean(),
        eventual_sec.slo.staleness.max(),
        tau_clean_s,
        route(Kind::Clean, "bounded", ReaderPlacement::Secondary).slo.quantile_ms(0.50),
        route(Kind::Clean, "bounded", ReaderPlacement::Secondary).slo.staleness.max(),
        route(Kind::Clean, "bounded", ReaderPlacement::Secondary).escalations,
        route(Kind::Clean, "session", ReaderPlacement::Secondary).slo.quantile_ms(0.50),
        route(Kind::Clean, "session", ReaderPlacement::Secondary).escalations,
    ));
    block.push_str(&format!(
        "Expected fleet-mean RTTs (secondary placement): to primary {:.1} ms, eventual saving {:.1} ms; measured strong-minus-eventual drop {:.1} ms\n",
        strong_sec.expected_primary_rtt_s * 1e3,
        strong_sec.expected_saving_rtt_s * 1e3,
        drop_s * 1e3,
    ));
    if let Some((w0, w1)) = strong_p.rto_window {
        block.push_str(&format!(
            "RTO window [{:.0} s, {:.0} s): strong {} good reads ({} timed out), eventual {}, bounded {}; {} accounts promoted, {} entries lost\n",
            w0,
            w1,
            strong_p.rto_window_good,
            strong_p.unavailable,
            eventual_p.rto_window_good,
            bounded_p.rto_window_good,
            strong_p.promotions,
            strong_p.lost_entries,
        ));
    }
    block.push_str("Bounded-staleness audit:\n");
    block.push_str(&bounded_lines);

    let stdout = format!("{}\n{}", table.render(), block);
    CampaignOutput {
        name: "consistency",
        cells: cells.len(),
        stdout,
        files: vec![
            ("consistency.csv".to_string(), csv.as_str().to_string()),
            ("consistency.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary: out.trace_summary,
    }
}
