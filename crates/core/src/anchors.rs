//! The paper's published anchor numbers, as data.
//!
//! Used by EXPERIMENTS.md generation and by the integration tests to
//! report paper-vs-measured side by side. Each constant cites its
//! sentence in the paper.

use simlab::AnchorCheck;

/// An anchor: a named scalar the paper reports, with the tolerance used
/// when we compare the reproduction against it.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Short identifier (also used in EXPERIMENTS.md).
    pub name: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// Relative tolerance for "reproduced" (0.15 = ±15 %).
    pub rel_tol: f64,
}

impl Anchor {
    /// The paper-vs-measured check record: the one verdict rule, shared
    /// by the `*.anchors.txt` reports, the manifest and [`matches`].
    ///
    /// [`matches`]: Anchor::matches
    pub fn check(&self, measured: f64) -> AnchorCheck {
        AnchorCheck {
            name: self.name,
            paper: self.paper,
            rel_tol: self.rel_tol,
            measured,
        }
    }

    /// True if `measured` lies within the anchor's tolerance.
    pub fn matches(&self, measured: f64) -> bool {
        self.check(measured).ok()
    }
}

/// Fig 1: single-client download bandwidth, MB/s ("approximately 13 MB/s").
pub const FIG1_DL_1CLIENT_MBPS: Anchor = Anchor {
    name: "fig1.download.per_client@1",
    paper: 13.0,
    rel_tol: 0.15,
};

/// Fig 1: per-client at 32 clients relative to 1 client ("half").
pub const FIG1_DL_32CLIENT_RATIO: Anchor = Anchor {
    name: "fig1.download.ratio32",
    paper: 0.5,
    rel_tol: 0.25,
};

/// Fig 1: peak aggregate download, MB/s ("393.4 MB/s ... 128 clients").
pub const FIG1_DL_PEAK_MBPS: Anchor = Anchor {
    name: "fig1.download.aggregate@128",
    paper: 393.4,
    rel_tol: 0.12,
};

/// Fig 1: upload per client at 64, MB/s ("∼1.25 MB/s for 64 VMs").
pub const FIG1_UL_64CLIENT_MBPS: Anchor = Anchor {
    name: "fig1.upload.per_client@64",
    paper: 1.25,
    rel_tol: 0.25,
};

/// Fig 1: upload per client at 192, MB/s ("∼0.65 MB/s for 192 VMs").
pub const FIG1_UL_192CLIENT_MBPS: Anchor = Anchor {
    name: "fig1.upload.per_client@192",
    paper: 0.65,
    rel_tol: 0.25,
};

/// Fig 1: peak aggregate upload, MB/s ("124.25 MB/s ... 192 clients").
pub const FIG1_UL_PEAK_MBPS: Anchor = Anchor {
    name: "fig1.upload.aggregate@192",
    paper: 124.25,
    rel_tol: 0.15,
};

/// Fig 3: Add service-side peak, ops/s ("peaks at 64 concurrent clients
/// with 569").
pub const FIG3_ADD_PEAK_OPS: Anchor = Anchor {
    name: "fig3.add.aggregate@64",
    paper: 569.0,
    rel_tol: 0.20,
};

/// Fig 3: Receive service-side peak, ops/s ("... and 424 ops/s").
pub const FIG3_RECV_PEAK_OPS: Anchor = Anchor {
    name: "fig3.receive.aggregate@64",
    paper: 424.0,
    rel_tol: 0.20,
};

/// Fig 3: Peek throughput at 128 clients ("3392 ops/s").
pub const FIG3_PEEK_128_OPS: Anchor = Anchor {
    name: "fig3.peek.aggregate@128",
    paper: 3392.0,
    rel_tol: 0.15,
};

/// Fig 3: Peek throughput at 192 clients ("3878 ops/s").
pub const FIG3_PEEK_192_OPS: Anchor = Anchor {
    name: "fig3.peek.aggregate@192",
    paper: 3878.0,
    rel_tol: 0.15,
};

/// Table 1 (headline): worker small create+run, seconds (~9–10 min).
pub const TAB1_SMALL_WORKER_STARTUP_S: Anchor = Anchor {
    name: "table1.worker.small.create_plus_run",
    paper: 619.0,
    rel_tol: 0.15,
};

/// §4.1: VM startup failure rate ("2.6%").
pub const TAB1_STARTUP_FAILURE_RATE: Anchor = Anchor {
    name: "table1.startup_failure_rate",
    paper: 0.026,
    rel_tol: 0.8,
};

/// Fig 4: fraction of RTTs ≤ 1 ms ("approximately 50% of the time").
pub const FIG4_LE_1MS: Anchor = Anchor {
    name: "fig4.latency.fraction_le_1ms",
    paper: 0.50,
    rel_tol: 0.22,
};

/// Fig 4: fraction of RTTs ≤ 2 ms ("75% of the time").
pub const FIG4_LE_2MS: Anchor = Anchor {
    name: "fig4.latency.fraction_le_2ms",
    paper: 0.75,
    rel_tol: 0.15,
};

/// Fig 5: fraction of transfers ≥ 90 MB/s ("50% of the time").
pub const FIG5_GE_90MBPS: Anchor = Anchor {
    name: "fig5.bandwidth.fraction_ge_90",
    paper: 0.50,
    rel_tol: 0.35,
};

/// Fig 5: fraction ≤ 30 MB/s ("for the lower end of the sample – 15%").
pub const FIG5_LE_30MBPS: Anchor = Anchor {
    name: "fig5.bandwidth.fraction_le_30",
    paper: 0.15,
    rel_tol: 0.8,
};

/// Table 2: overall VM-execution-timeout rate ("5300 task executions ...
/// representing 0.17%").
pub const TAB2_VM_TIMEOUT_RATE: Anchor = Anchor {
    name: "table2.vm_timeout_rate",
    paper: 0.0017,
    rel_tol: 0.9,
};

/// Fig 7: maximum daily timeout fraction ("0% to nearly 16%").
pub const FIG7_MAX_DAILY: Anchor = Anchor {
    name: "fig7.max_daily_timeout_fraction",
    paper: 0.16,
    rel_tol: 0.8,
};

/// Table 2: success rate (65.50 %).
pub const TAB2_SUCCESS_RATE: Anchor = Anchor {
    name: "table2.success_rate",
    paper: 0.655,
    rel_tol: 0.25,
};

/// Frontier: peak open-loop blob GET goodput under the campaign's SLO
/// (MB/s) must land on the closed-loop Fig 1 peak ("393.4 MB/s"): the
/// knee of the offered-load sweep and the concurrency peak probe the
/// same shared egress pipe from opposite directions. Wider tolerance
/// than the Fig 1 anchor — the open-loop estimate rides on a deadline
/// cutoff rather than a steady closed-loop plateau.
pub const FRONTIER_BLOB_CAPACITY_MBPS: Anchor = Anchor {
    name: "frontier.blob.peak_goodput_mbs",
    paper: 393.4,
    rel_tol: 0.2,
};

/// Frontier: peak open-loop table Query goodput under SLO (ops/s).
/// Fig 2 publishes no numeric peak, so the reference is this
/// reproduction's own closed-loop Query aggregate at 192 clients
/// (3923 ops/s from `results/fig2.csv`) — internal cross-validation,
/// not a paper value. The SLO deadline bounds effective concurrency
/// the way the 192-client cap did; the query station's raw drain rate
/// asymptotes well above either.
pub const FRONTIER_TABLE_CAPACITY_OPS: Anchor = Anchor {
    name: "frontier.table.peak_goodput_ops",
    paper: 3923.2,
    rel_tol: 0.2,
};

/// Frontier: peak open-loop queue Add goodput under SLO (ops/s) vs the
/// closed-loop Fig 3 peak ("569 messages per second with 64 clients").
pub const FRONTIER_QUEUE_CAPACITY_OPS: Anchor = Anchor {
    name: "frontier.queue.peak_goodput_ops",
    paper: 569.0,
    rel_tol: 0.2,
};

/// Shedding: goodput gain of the best admission policy over the
/// no-policy baseline at 1.3x offered load under bursty arrivals
/// (clean cells). Not a paper scalar — the paper observed the knee but
/// published no overload-control numbers — this is the robustness bar
/// the shedding campaign holds itself to. Encoded as a capped ratio:
/// the measured value is `min(gain, 4.5)` compared against 3.0 with
/// ±50 % tolerance, so the check passes exactly when the winner
/// preserves ≥ 1.5x the baseline goodput (the "50 % more goodput"
/// acceptance bar) without rewarding unbounded ratios when the
/// baseline collapses toward zero.
pub const SHEDDING_BLOB_GOODPUT_GAIN: Anchor = Anchor {
    name: "shedding.blob.winner_goodput_gain",
    paper: 3.0,
    rel_tol: 0.5,
};

/// Shedding: table Query winner-vs-baseline goodput gain at 1.3x
/// bursty (same capped-ratio encoding as the blob anchor).
pub const SHEDDING_TABLE_GOODPUT_GAIN: Anchor = Anchor {
    name: "shedding.table.winner_goodput_gain",
    paper: 3.0,
    rel_tol: 0.5,
};

/// Shedding: queue Add winner-vs-baseline goodput gain at 1.3x bursty
/// (same capped-ratio encoding as the blob anchor).
pub const SHEDDING_QUEUE_GOODPUT_GAIN: Anchor = Anchor {
    name: "shedding.queue.winner_goodput_gain",
    paper: 3.0,
    rel_tol: 0.5,
};

/// Elastic: predictive-dominance indicator at the campaign's verdict
/// point (queue service, diurnal arrivals, clean cell). Not a paper
/// scalar — the paper measures the ~10-minute scale-out tax (Table 1)
/// but runs no controller against it — this is the bar the elastic
/// campaign holds itself to: the Holt predictive policy must beat the
/// fixed planned-peak baseline on *both* axes of the frontier (fewer
/// SLO violations *and* fewer instance-hours). Encoded as an
/// indicator: measured `1.0` when the double win holds, `0.0`
/// otherwise, compared against 1.0.
pub const ELASTIC_PREDICTIVE_DOMINANCE: Anchor = Anchor {
    name: "elastic.queue.predictive_dominates_fixed",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Elastic: reactive-ordering indicator at the same verdict point.
/// The frontier must be *ordered*: the predictive policy violates no
/// more than utilization-hysteresis, which violates no more than the
/// purely reactive queue-depth policy (each step adds lead time), and
/// queue-depth — the cheapest controller — must at least undercut the
/// fixed baseline's instance-hours. Same indicator encoding as the
/// dominance anchor.
pub const ELASTIC_REACTIVE_ORDERING: Anchor = Anchor {
    name: "elastic.queue.reactive_between",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Elastic: mean order-to-first-ready scale-out lead over every add
/// batch the campaign's controllers ordered, seconds. The reference is
/// the Table 1 expectation for a small worker add — one add boot
/// (≈293 s, the paper's "starting a VM takes around 5 to 10 minutes"
/// regime) plus one exponential readiness stagger (mean ≈183 s) —
/// with a wide tolerance because each cell sees only a handful of
/// batches of an exponential-tailed draw.
pub const ELASTIC_SCALE_OUT_LEAD_S: Anchor = Anchor {
    name: "elastic.scale_out.first_ready_lead_s",
    paper: 476.25,
    rel_tol: 0.35,
};

/// Elastic: mean initial-boot ramp ratio — the observed spread of the
/// initial deployment's instance-ready offsets over its Table 1
/// expectation (per-instance run stagger mean × instance count).
/// ≈1.0 when the emergent lifecycle matches the calibration.
pub const ELASTIC_INITIAL_RAMP_RATIO: Anchor = Anchor {
    name: "elastic.initial_boot.ramp_ratio",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Faas: mean full-cold container start at the verdict point (wild
/// trace, clean cells), seconds. The container lifecycle is the
/// Table 1 small-worker create + first boot compressed by the pool's
/// 1/128 lifecycle scale: (86.25 + 292.75) / 128 ≈ 2.96 s — the
/// paper's ten-minute VM tax re-emerging at container size, squarely
/// in the measured Azure Functions cold-start band of a few seconds.
/// Tolerance covers the per-app package-staging spread and the rare
/// startup-failure retry included in the measured mean.
pub const FAAS_COLD_START_LIFECYCLE_S: Anchor = Anchor {
    name: "faas.cold_start.lifecycle_s",
    paper: 2.961,
    rel_tol: 0.3,
};

/// Faas: hybrid-dominance indicator at the verdict point (wild trace,
/// clean cells). Not a paper scalar — this is the Serverless in the
/// Wild acceptance bar: the histogram-based prewarm+keepalive policy
/// must beat the fixed 20-minute window on at least one frontier axis
/// (cold-start fraction or wasted idle memory-time) without losing on
/// the other by more than 10 %. Indicator encoding: measured `1.0`
/// when it holds, `0.0` otherwise.
pub const FAAS_HYBRID_DOMINANCE: Anchor = Anchor {
    name: "faas.wild.hybrid_dominates_fixed",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Faas: frontier-ordering indicator at the same verdict point. The
/// keepalive frontier must be ordered the way the policy definitions
/// promise: no-keepalive pays the most cold starts while wasting the
/// least idle memory, and the fixed window pays the fewest cold starts
/// while wasting the most — the two ends the hybrid policy is supposed
/// to interpolate between. Same indicator encoding as the dominance
/// anchor.
pub const FAAS_FRONTIER_ORDERING: Anchor = Anchor {
    name: "faas.wild.frontier_ordering",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Geo: aggregate open-loop blob GET peak goodput over the 4-stamp set
/// (MB/s) must land on 4 × the closed-loop Fig 1 peak (4 × 393.4).
/// Under home-stamp affinity each stamp runs at the same operating
/// point as the single-stamp frontier sweep, so the multi-stamp
/// platform must scale the Fig 1 ceiling linearly — the scale-out
/// acceptance bar, at the tight ±10 % the issue demands.
pub const GEO_BLOB_AGGREGATE_MBPS: Anchor = Anchor {
    name: "geo.blob.aggregate_peak_goodput_mbs",
    paper: 1573.6,
    rel_tol: 0.1,
};

/// Geo: aggregate table Query peak goodput over the 4-stamp set
/// (ops/s), 4 × the closed-loop 192-client aggregate the frontier
/// anchor uses (Fig 2 publishes no numeric peak).
pub const GEO_TABLE_AGGREGATE_OPS: Anchor = Anchor {
    name: "geo.table.aggregate_peak_goodput_ops",
    paper: 15692.8,
    rel_tol: 0.1,
};

/// Geo: aggregate queue Add peak goodput over the 4-stamp set (ops/s),
/// 4 × the closed-loop Fig 3 peak ("569 messages per second").
pub const GEO_QUEUE_AGGREGATE_OPS: Anchor = Anchor {
    name: "geo.queue.aggregate_peak_goodput_ops",
    paper: 2276.0,
    rel_tol: 0.1,
};

/// Geo: measured stamp-failover RTO (s) in the mid-window partition
/// cell. Not a paper scalar — the reference is the closed form of the
/// reproduction's own detection/promotion calibration
/// (`azgeo::calib::EXPECTED_RTO_S`): (DOWN_AFTER_MISSES − 1) ×
/// PROBE_INTERVAL_S + PROMOTE_GRACE_S = 9 s, exact because probes tick
/// on a deterministic virtual-time grid and the RTO is charged from
/// the first missed probe.
pub const GEO_FAILOVER_RTO_S: Anchor = Anchor {
    name: "geo.failover.rto_s",
    paper: 9.0,
    rel_tol: 0.05,
};

/// Geo: RPO-positivity indicator for the same failover cell.
/// Asynchronous geo-replication batches mutations every few seconds,
/// so a mid-window stamp partition must abandon a non-empty unshipped
/// tail — lost entries > 0 and a positive lost-tail age at promotion.
/// Indicator encoding: measured `1.0` when both hold, `0.0` otherwise.
pub const GEO_FAILOVER_RPO_POSITIVE: Anchor = Anchor {
    name: "geo.failover.rpo_positive",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Route: strong reads from the home region must be indistinguishable
/// from the PR 9 geo front door — the routing layer adds a policy
/// decision, not a service. Measured as the ratio of the strong/home
/// p50 read latency to the geo-baseline p50 in the same campaign
/// (same service, same load, same seeds); reference 1.0.
pub const ROUTE_STRONG_MATCHES_GEO: Anchor = Anchor {
    name: "route.strong.home_p50_vs_geo",
    paper: 1.0,
    rel_tol: 0.1,
};

/// Route: for a fleet pinned to the secondary's region, eventual reads
/// must be cheaper than strong reads by exactly the region-RTT saving
/// the seed-pure distance matrix promises: rtt(region, primary) −
/// rtt(region, secondary). Measured as (strong mean − eventual mean) /
/// expected saving; reference 1.0 — the routing layer may not invent
/// or eat latency beyond the modelled distances.
pub const ROUTE_EVENTUAL_RTT_DROP: Anchor = Anchor {
    name: "route.eventual.secondary_rtt_drop_ratio",
    paper: 1.0,
    rel_tol: 0.1,
};

/// Route: the bounded-staleness hard invariant. In *every* bounded
/// cell of the campaign (clean and partitioned), the maximum observed
/// staleness over all served reads must be ≤ the cell's τ — the bound
/// is checked against the same applied-watermark lag that is recorded,
/// so a single violation is a routing bug, not noise. Indicator
/// encoding: measured `1.0` when every cell holds, `0.0` otherwise.
pub const ROUTE_BOUNDED_WITHIN_TAU: Anchor = Anchor {
    name: "route.bounded.within_tau",
    paper: 1.0,
    rel_tol: 0.25,
};

/// Route: availability split during the failover window. In the
/// mid-window stamp-partition cell, reads scheduled inside the
/// `azgeo::calib::EXPECTED_RTO_S`-long detection+promotion window
/// must produce zero goodput under strong (the primary is gone) while
/// eventual and bounded keep serving from the surviving secondary —
/// the availability argument for relaxed reads. Indicator encoding:
/// measured `1.0` when both sides hold, `0.0` otherwise.
pub const ROUTE_PARTITION_AVAILABILITY: Anchor = Anchor {
    name: "route.partition.relaxed_reads_survive",
    paper: 1.0,
    rel_tol: 0.25,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_respects_tolerance() {
        assert!(FIG1_DL_1CLIENT_MBPS.matches(12.0));
        assert!(!FIG1_DL_1CLIENT_MBPS.matches(7.0));
        assert!(FIG1_DL_PEAK_MBPS.matches(360.0));
        assert!(!FIG1_DL_PEAK_MBPS.matches(200.0));
    }

    #[test]
    fn rel_err_signs() {
        assert!(FIG4_LE_1MS.check(0.45).rel_err() < 0.0);
        assert!(FIG4_LE_1MS.check(0.55).rel_err() > 0.0);
    }

    /// A zero paper value has no relative scale: only an exact zero
    /// matches (the `AnchorCheck` rule every report line uses).
    #[test]
    fn zero_paper_value_uses_absolute() {
        let a = Anchor {
            name: "zero",
            paper: 0.0,
            rel_tol: 0.1,
        };
        assert!(a.matches(0.0));
        assert!(!a.matches(0.05));
        assert!(!a.matches(0.2));
    }
}
