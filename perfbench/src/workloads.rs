//! The three benchmark workloads: their cell configurations, built
//! from a seed, and the public entry point each cell runs through.
//!
//! * `blob_knee` — open-loop Poisson blob GETs just below the
//!   saturation knee (`simload::run_open_loop`). The only workload where the `dcnet`
//!   fluid solver's per-flow rebuild and reschedule dominate.
//! * `elastic_diurnal` — `autoscale::run_elastic` under diurnal queue
//!   demand, one cell per policy. Model-bound: about half a million
//!   fired events per cell, no network flows at all.
//! * `geo_reads_writes` — `azroute::run_consistency` over a four-stamp
//!   geo set: routed table reads beside a replicated write stream, one
//!   cell per (consistency mode, reader placement) pair.

use autoscale::{run_elastic, ElasticConfig, PolicyKind, Service};
use azroute::{run_consistency, Consistency, ReaderPlacement, RouteConfig};
use azstore::{StampConfig, StorageStamp};
use simcore::rng::SimRng;
use simcore::Sim;
use simload::{run_open_loop, seed_workload, ArrivalProcess, LoadConfig, SloTracker, Workload};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    BlobKnee,
    ElasticDiurnal,
    GeoReadsWrites,
}

/// Blob size of the knee workload (bytes).
const BLOB_BYTES: f64 = 2e6;
/// The fig-1 nominal aggregate download rate (400 MB/s).
const BLOB_NOMINAL_BYTES_S: f64 = 400e6;
/// Offered load as a share of nominal: just below the knee. At 1.0x
/// the shared pipe runs critically loaded, the backlog is a random
/// walk, and one cell costs anywhere from 0.5 s to 4 s of CPU depending
/// on the seed; at 0.9x the spread is about 14 % with 100-odd flows
/// still sharing the pipe, so dcnet's per-flow work still dominates.
const BLOB_LOAD: f64 = 0.9;
/// Geo set size (stamps = regions).
const GEO_STAMPS: usize = 4;
/// Consistency mode and reader placement of each geo cell of a round.
const GEO_MODES: [(Consistency, ReaderPlacement); 3] = [
    (Consistency::Strong, ReaderPlacement::Home),
    (Consistency::Eventual, ReaderPlacement::Secondary),
    (Consistency::Session, ReaderPlacement::Remote),
];

impl Bench {
    pub fn parse(name: &str) -> Option<Bench> {
        match name {
            "blob_knee" => Some(Bench::BlobKnee),
            "elastic_diurnal" => Some(Bench::ElasticDiurnal),
            "geo_reads_writes" => Some(Bench::GeoReadsWrites),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Bench::BlobKnee => "blob_knee",
            Bench::ElasticDiurnal => "elastic_diurnal",
            Bench::GeoReadsWrites => "geo_reads_writes",
        }
    }

    /// Cells in one round. The cells of a round share one seed, so they
    /// face the same demand and differ only in policy or mode.
    pub fn round_len(self) -> usize {
        match self {
            Bench::BlobKnee => 1,
            Bench::ElasticDiurnal => PolicyKind::ALL.len(),
            Bench::GeoReadsWrites => GEO_MODES.len(),
        }
    }

    /// Cell `variant` of round `round` of a run seeded `run_seed`.
    pub fn cell(self, run_seed: u64, round: usize, variant: usize) -> Cell {
        assert!(variant < self.round_len());
        Cell {
            bench: self,
            variant,
            seed: splitmix64(run_seed ^ splitmix64(round as u64)),
        }
    }
}

/// SplitMix64 finaliser: spreads consecutive run seeds and rounds over
/// unrelated cell seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One simulation cell: a workload configuration and the seed of its
/// `Sim`.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub bench: Bench,
    pub variant: usize,
    pub seed: u64,
}

/// What a cell's simulated results say, stripped to what the benchmark
/// checks and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Hash of the simulated results only (no event or task counts).
    pub digest: u64,
    /// First broken invariant, if any.
    pub violation: Option<String>,
    pub admit_shed: u64,
    pub latch_shed: u64,
    pub scale_outs: u64,
    pub scale_ins: u64,
    pub reads_primary: u64,
    pub reads_secondary: u64,
    pub escalations: u64,
}

impl Cell {
    /// Short label: workload, variant and seed.
    pub fn label(&self) -> String {
        let v = match self.bench {
            Bench::BlobKnee => "poisson".to_string(),
            Bench::ElasticDiurnal => PolicyKind::ALL[self.variant].name().to_string(),
            Bench::GeoReadsWrites => {
                let (mode, placement) = GEO_MODES[self.variant];
                format!("{}/{}", mode_name(mode), placement.name())
            }
        };
        format!("{}:{v}:{:016x}", self.bench.name(), self.seed)
    }

    fn blob_config(&self) -> LoadConfig {
        LoadConfig {
            workload: Workload::BlobGet {
                blob_bytes: BLOB_BYTES,
            },
            process: ArrivalProcess::Poisson,
            offered_ops_s: BLOB_LOAD * BLOB_NOMINAL_BYTES_S / BLOB_BYTES,
            warmup_s: 2.0,
            window_s: 8.0,
            fleet: 64,
            deadline_s: 1.0,
            shed_retry: None,
        }
    }

    fn elastic_config(&self) -> ElasticConfig {
        ElasticConfig {
            service: Service::Queue,
            pattern: ArrivalProcess::Diurnal {
                period_s: 3600.0,
                amplitude: 0.8,
                phase: 0.0,
            },
            policy: PolicyKind::ALL[self.variant],
            demand_units: 2.75,
            peak_units: 4.95,
            setup_s: 1800.0,
            horizon_s: 7200.0,
            tick_s: 10.0,
            obs_window_s: 60.0,
            min_instances: 2,
            max_instances: 16,
            fleet: 8,
            hosts: 8,
        }
    }

    fn geo_config(&self) -> RouteConfig {
        let (mode, placement) = GEO_MODES[self.variant];
        RouteConfig {
            stamps: GEO_STAMPS,
            accounts: 64,
            workload: Workload::TableQuery {
                entities: 64,
                entity_kb: 4,
            },
            process: ArrivalProcess::Poisson,
            // 0.3x the aggregate table nominal: RTTs, not queueing.
            offered_ops_s: 0.3 * GEO_STAMPS as f64 * 3900.0,
            warmup_s: 2.0,
            window_s: 8.0,
            fleet: 256,
            deadline_s: 0.12,
            mode,
            placement,
            placement_seed: 0xA2,
            rtt_seed: 0xC3,
            rtt_base_s: 0.035,
            rtt_spread: 0.5,
            write_ops_s: 64.0,
            fault_start_s: None,
        }
    }

    /// Draw the cell's arrival schedules from the same RNG streams the
    /// cell will draw them from; returns the number of client
    /// operations the cell schedules, warmup included.
    pub fn schedule(&self) -> u64 {
        let draw = |label: &str, process: &ArrivalProcess, rate: f64, horizon: f64| {
            let mut rng = SimRng::for_stream(self.seed, label);
            process.instants(&mut rng, rate, horizon).len() as u64
        };
        match self.bench {
            Bench::BlobKnee => {
                let c = self.blob_config();
                draw(
                    "load.arrivals",
                    &c.process,
                    c.offered_ops_s,
                    c.warmup_s + c.window_s,
                )
            }
            Bench::ElasticDiurnal => {
                let c = self.elastic_config();
                let rate = c.demand_units * c.service.per_instance_ops_s();
                draw("load.arrivals", &c.pattern, rate, c.horizon_s)
            }
            Bench::GeoReadsWrites => {
                let c = self.geo_config();
                let horizon = c.warmup_s + c.window_s;
                draw("route.arrivals", &c.process, c.offered_ops_s, horizon)
                    + draw(
                        "route.writes",
                        &ArrivalProcess::Poisson,
                        c.write_ops_s,
                        horizon,
                    )
            }
        }
    }

    /// Build and seed the storage stamps the cell runs on, on a
    /// throwaway `Sim` (the cell builds its own copies).
    pub fn build_stamps(&self) {
        let sim = Sim::new(self.seed);
        let (stamps, workload) = match self.bench {
            Bench::BlobKnee => (1, self.blob_config().workload),
            Bench::ElasticDiurnal => (1, self.elastic_config().service.workload()),
            Bench::GeoReadsWrites => (GEO_STAMPS, self.geo_config().workload),
        };
        for _ in 0..stamps {
            let stamp = StorageStamp::standalone(&sim, StampConfig::default());
            seed_workload(&stamp, workload);
            std::hint::black_box(&stamp);
        }
    }

    /// Run the cell to completion on `sim`.
    pub fn run(&self, sim: &Sim) -> Outcome {
        let mut d = Digest::new();
        let mut out = Outcome::default();
        let mut check = Checks::default();
        match self.bench {
            Bench::BlobKnee => {
                let r = run_open_loop(sim, StampConfig::default(), &self.blob_config());
                check.slo(&r.slo);
                check.rates(r.scheduled_ops_s, r.achieved_ops_s, r.goodput_ops_s);
                d.slo(&r.slo);
                for f in [r.scheduled_ops_s, r.achieved_ops_s, r.goodput_ops_s] {
                    d.f64(f);
                }
                for n in [r.retries, r.admit_accepted, r.admit_shed, r.latch_shed] {
                    d.u64(n);
                }
                out.admit_shed = r.admit_shed;
                out.latch_shed = r.latch_shed;
            }
            Bench::ElasticDiurnal => {
                let r = run_elastic(sim, &self.elastic_config());
                check.slo(&r.slo);
                check.finite("instance_hours", r.instance_hours);
                check.finite("initial_ramp_ratio", r.initial_ramp_ratio);
                d.slo(&r.slo);
                for f in [r.instance_hours, r.initial_ramp_ratio, r.initial_ready_s] {
                    d.f64(f);
                }
                for f in [r.first_ready_lead_s, r.add_stagger_mean_s] {
                    d.f64(f.unwrap_or(-1.0));
                }
                for n in [
                    r.initial_instances as u64,
                    r.max_committed as u64,
                    r.scale_outs,
                    r.scale_ins,
                    r.adds_failed,
                    r.reaped,
                    r.stagger_count as u64,
                    r.admit_shed,
                ] {
                    d.u64(n);
                }
                d.bytes(r.decision_log.as_bytes());
                d.bytes(r.events.as_bytes());
                out.admit_shed = r.admit_shed;
                out.scale_outs = r.scale_outs;
                out.scale_ins = r.scale_ins;
            }
            Bench::GeoReadsWrites => {
                let r = run_consistency(sim, StampConfig::default(), &self.geo_config());
                check.slo(&r.slo);
                check.rates(r.scheduled_ops_s, r.achieved_ops_s, r.goodput_ops_s);
                d.slo(&r.slo);
                for f in [
                    r.scheduled_ops_s,
                    r.achieved_ops_s,
                    r.goodput_ops_s,
                    r.expected_primary_rtt_s,
                    r.expected_saving_rtt_s,
                    r.rto_s,
                ] {
                    d.f64(f);
                }
                for n in [
                    r.reads_primary,
                    r.reads_secondary,
                    r.escalations,
                    r.unavailable,
                    r.writes_ok,
                    r.rto_window_good,
                    r.promotions,
                    r.lost_entries,
                    r.route_fingerprint,
                    r.rtt_fingerprint,
                ] {
                    d.u64(n);
                }
                out.reads_primary = r.reads_primary;
                out.reads_secondary = r.reads_secondary;
                out.escalations = r.escalations;
            }
        }
        out.digest = d.0;
        out.violation = check.first;
        out
    }
}

fn mode_name(mode: Consistency) -> &'static str {
    match mode {
        Consistency::Strong => "strong",
        Consistency::Eventual => "eventual",
        Consistency::Session => "session",
        Consistency::BoundedStaleness(_) => "bounded",
    }
}

/// FNV-1a over the simulated results.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn f64(&mut self, f: f64) {
        self.u64(f.to_bits());
    }

    fn slo(&mut self, s: &SloTracker) {
        for n in [
            s.scheduled,
            s.completed,
            s.failed,
            s.shed,
            s.budget_exhausted,
            s.timed_out,
            s.late,
            s.latency.count(),
            s.staleness.count(),
        ] {
            self.u64(n);
        }
        self.f64(s.last_completion_s);
        for q in [0.5, 0.95, 0.99, 0.999] {
            self.f64(s.latency.quantile(q));
            self.f64(s.staleness.quantile(q));
        }
        self.f64(s.latency.mean());
    }
}

/// Per-cell invariants; keeps the first violation.
#[derive(Default)]
struct Checks {
    first: Option<String>,
}

impl Checks {
    fn fail(&mut self, msg: String) {
        self.first.get_or_insert(msg);
    }

    fn finite(&mut self, what: &str, v: f64) {
        if !v.is_finite() {
            self.fail(format!("{what} is {v}"));
        }
    }

    fn slo(&mut self, s: &SloTracker) {
        if s.scheduled == 0 {
            self.fail("no operation scheduled in the window".into());
        }
        if s.scheduled != s.completed + s.failed {
            self.fail(format!(
                "scheduled {} != ok {} + failed {}",
                s.scheduled, s.completed, s.failed
            ));
        }
        if s.good() > s.completed {
            self.fail(format!("good {} > completed {}", s.good(), s.completed));
        }
        for q in [0.5, 0.95, 0.99, 0.999] {
            self.finite("latency quantile", s.latency.quantile(q));
        }
        self.finite("mean latency", s.latency.mean());
    }

    fn rates(&mut self, scheduled: f64, achieved: f64, goodput: f64) {
        for (what, v) in [
            ("scheduled rate", scheduled),
            ("achieved rate", achieved),
            ("goodput", goodput),
        ] {
            self.finite(what, v);
        }
        if goodput > achieved {
            self.fail(format!("goodput {goodput} > achieved {achieved}"));
        }
    }
}
