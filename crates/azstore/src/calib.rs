//! Calibration constants for the storage stamp.
//!
//! Philosophy (DESIGN.md §5): every *curve shape* must come from a
//! mechanism (locks, replication fan-out, NIC caps, load-dependent
//! service); the constants below only pin absolute values to the paper's
//! published anchors. Each constant cites the sentence it comes from.
//! All bandwidths are bytes/second, all times are seconds unless noted.

/// One mebibyte in bytes — bandwidth anchors in the paper are MB/s.
pub const MB: f64 = 1.0e6;
/// One kibibyte-ish in bytes (the paper's "kB" entity/message sizes).
pub const KB: f64 = 1.0e3;

// ---------------------------------------------------------------------------
// Blob service (paper §3.1, Fig 1; recommendations §6.1)
// ---------------------------------------------------------------------------

/// Per-VM storage-access throttle for a small instance.
/// "For 1–8 concurrent clients we saw a 100 Mbit/s, or approximately
/// 13 MB/s, limitation" (§6.1).
pub const SMALL_VM_STORAGE_BPS: f64 = 13.0 * MB;

/// Aggregate egress available against a single blob.
/// "The maximum service-side bandwidth achievable against a single blob
/// ... is limited to approximately 400 MB/s, which is just about what we
/// would expect from three 1 Gb/s links if a blob is triple-replicated"
/// (§6.1). The observed maximum was 393.4 MB/s at 128 clients (§3.1).
pub const BLOB_EGRESS_BPS: f64 = 400.0 * MB;

/// Simulated table Query saturation throughput (ops/s): this
/// reproduction's closed-loop Fig 2 aggregate, which the paper does not
/// publish. Unlike the constants around it this is an outcome of the
/// table model, not an input to it; with [`BLOB_EGRESS_BPS`] and
/// [`QUEUE_NOMINAL_OPS_S`] it names each service's saturation capacity
/// once for the open-loop campaigns and the autoscaler.
pub const TABLE_NOMINAL_OPS_S: f64 = 3900.0;

/// Simulated queue Add saturation throughput (ops/s): the closed-loop
/// Fig 3 Add peak (the paper's 569 ops/s), an outcome of the queue
/// model like [`TABLE_NOMINAL_OPS_S`].
pub const QUEUE_NOMINAL_OPS_S: f64 = 585.0;

/// Concurrency knee past which single-blob egress degrades (the paper's
/// maximum was *at* 128 clients; 192 was lower).
pub const BLOB_EGRESS_KNEE: usize = 128;

/// Egress degradation strength past the knee; 0.002/flow puts the
/// 192-client aggregate ≈ 355 MB/s, below the 128-client peak as
/// observed.
pub const BLOB_EGRESS_GAMMA: f64 = 0.002;

/// Front-end per-flow download ceiling when alone (≈ the VM throttle).
pub const BLOB_DL_PERFLOW_BASE: f64 = 13.0 * MB;
/// Concurrency scale of the download ceiling: "The bandwidth for 32
/// concurrent clients is half of the bandwidth that a single client
/// achieves" (§3.1) — the ceiling halves around n = 34 with exponent
/// 0.8.
pub const BLOB_DL_PERFLOW_BETA: f64 = 34.0;
/// Sub-linear decline exponent (lets the aggregate keep rising to the
/// 128-client peak).
pub const BLOB_DL_PERFLOW_EXP: f64 = 0.8;

/// Ingest (upload) aggregate capacity. "For the blob upload operation,
/// the maximum throughput was 124.25 MB/s ... with 192 concurrent
/// clients" (§3.1) — still rising at 192, so the pipe is ~125 MB/s.
pub const BLOB_INGEST_BPS: f64 = 125.0 * MB;

/// Upload per-flow ceiling base: "the performance of the upload blob
/// operation ... has a similar curve shape to the download but at about
/// half the bandwidth" (§3.1).
pub const BLOB_UL_PERFLOW_BASE: f64 = 7.0 * MB;
/// Upload ceiling concurrency scale, pinned by "average upload speed is
/// only ∼0.65 MB/s for 192 VMs and ∼1.25 MB/s for 64 VMs" (§3.1).
pub const BLOB_UL_PERFLOW_BETA: f64 = 9.0;
/// Upload ceiling exponent.
pub const BLOB_UL_PERFLOW_EXP: f64 = 0.75;

/// Base (unloaded) one-way request latency to the storage front end.
pub const BLOB_REQ_LATENCY_S: f64 = 0.004;

// ---------------------------------------------------------------------------
// Table service (paper §3.2, Fig 2)
// ---------------------------------------------------------------------------
// Fig 2 carries no absolute y-values in the text, so single-client rates
// are set to 2009-plausible values; the *shape* anchors are explicit:
// "For both Insert and Query, the performance of the clients decreases as
// we increase the level of concurrency. However ... even with 192
// concurrent clients we have not hit the maximum server throughput."
// "The maximum throughput ... is reached at 8 concurrent clients for the
// Update operation and 128 for the Delete operation."

/// Fixed per-op overhead for a point query (key lookup): RTT + FE + read.
pub const TABLE_QUERY_BASE_S: f64 = 0.016;
/// Load-dependent service growth for queries (s per concurrent client).
pub const TABLE_QUERY_LOAD_S: f64 = 0.00017;

/// Fixed per-op overhead for Insert (adds 3-replica commit over Query).
pub const TABLE_INSERT_BASE_S: f64 = 0.025;
/// Load growth for Insert.
pub const TABLE_INSERT_LOAD_S: f64 = 0.00025;
/// Partition mutation latch hold per insert at 4 kB (caps the partition
/// at ~4000 inserts/s — never reached at 192 clients, per the paper).
pub const TABLE_INSERT_HOLD_S: f64 = 0.00025;

/// Fixed per-op overhead for the unconditional Update.
pub const TABLE_UPDATE_BASE_S: f64 = 0.022;
/// Per-entity write latch hold: every concurrent client updates the SAME
/// entity (§3.2), so this latch is what saturates at ~8 clients.
pub const TABLE_UPDATE_HOLD_S: f64 = 0.0035;
/// Latch hold contention growth scale (hold inflates with waiters).
pub const TABLE_UPDATE_HOLD_NSCALE: f64 = 100.0;

/// Fixed per-op overhead for Delete.
pub const TABLE_DELETE_BASE_S: f64 = 0.025;
/// Load growth for Delete.
pub const TABLE_DELETE_LOAD_S: f64 = 0.00017;
/// Partition index latch hold per delete. Chosen so the latch *binds*
/// near 128 clients (the paper's Delete peak) even though clients spend
/// most of each cycle in the load-dependent station: cap = 1/(hold ×
/// inflation) ≈ 2.6 k ops/s crosses the unsaturated demand curve there,
/// and waiter build-up drives the post-peak decline.
pub const TABLE_DELETE_HOLD_S: f64 = 0.00037;
/// Delete latch contention growth scale.
pub const TABLE_DELETE_HOLD_NSCALE: f64 = 300.0;

/// Entity-size scaling of the partition latch hold within the normal
/// write path: `hold × (kb/4)^TABLE_SIZE_HOLD_EXP`. Mildly sublinear per
/// byte — which is why the paper found 1–16 kB curves "similar".
pub const TABLE_SIZE_HOLD_EXP: f64 = 0.8;

/// Entities above this size leave the inline commit path (single journal
/// record) for a multi-extent write.
pub const TABLE_LARGE_ENTITY_KB: f64 = 32.0;

/// Extra serialized commit cost of the multi-extent path. Pinned by the
/// §3.2 cliff: "For the Insert test on 64 kB entities with 192
/// concurrent clients, only 89 clients successfully finished all 500
/// insert operations, and the other 103 clients have encountered timeout
/// exceptions" (and 94/128 at 128 clients) — at 64 kB the hold is
/// ≈ 0.3 s, so with ≥128 clients the FIFO latch wait straddles the 30 s
/// client timeout: clients queued deep time out and abort, survivors
/// (≈ timeout/hold ≈ 100) finish — matching the paper's ~89–94. At 16 kB
/// and below the penalty is absent, keeping those curves paper-similar.
pub const TABLE_LARGE_COMMIT_S: f64 = 0.30;
/// Per-kB payload transfer cost through the partition server (s/kB).
pub const TABLE_PAYLOAD_S_PER_KB: f64 = 0.00004;

/// Queue length at a mutation latch beyond which the server sheds load
/// with ServerBusy. High enough that the table experiments are governed
/// by the latch-wait-vs-timeout mechanism above; spurious busy episodes
/// for the application study come from `SPURIOUS_BUSY_P` instead.
pub const TABLE_BUSY_QUEUE_LIMIT: usize = 250;

/// Client-side per-operation timeout (the 2009 SDK default was 90 s; the
/// paper's clients saw timeouts — 30 s keeps runs short and matches the
/// SDK's configurable common choice).
pub const CLIENT_OP_TIMEOUT_S: f64 = 30.0;

/// Client SDK retry count for ServerBusy before surfacing an error.
pub const CLIENT_BUSY_RETRIES: u32 = 3;
/// Base backoff between ServerBusy retries (doubles each attempt).
pub const CLIENT_BUSY_BACKOFF_S: f64 = 2.0;

/// Full-partition property-filter scan: per-entity scan cost. "over a
/// half of the 32 concurrent clients got time-out exceptions ... when
/// querying the same table partition – with ∼220,000 entities
/// pre-populated – using property filters" (§6.1): 220 k × 0.13 ms ≈
/// 28.6 s base, so with load inflation and jitter roughly half the
/// concurrent scans cross the 30 s timeout.
pub const TABLE_SCAN_S_PER_ENTITY: f64 = 0.00013;

// ---------------------------------------------------------------------------
// Queue service (paper §3.3, Fig 3; recommendations §6.1)
// ---------------------------------------------------------------------------
// Anchors: "the maximum service-side throughput peaks at 64 concurrent
// clients with 569 and 424 ops/s" (Add, Receive); "Peek ... 3878 ops/s
// for 192 clients compared to 3392 ops/s for 128"; "With 16 or fewer
// writers each client obtained 15–20 ops/s"; ">10 ops/s ... up to 32
// writers".

/// Peek fixed overhead (read-only, any replica): single client ≈ 72 ops/s.
pub const QUEUE_PEEK_BASE_S: f64 = 0.0125;
/// Peek load-dependent growth (pins 3392@128 → 3878@192, still rising).
pub const QUEUE_PEEK_LOAD_S: f64 = 0.000185;

/// Add fixed overhead (3-replica synchronous append): ≈ 19 ops/s alone.
pub const QUEUE_ADD_BASE_S: f64 = 0.052;
/// Add load-dependent growth.
pub const QUEUE_ADD_LOAD_S: f64 = 0.00084;
/// Queue-head mutation latch hold for Add (peak ≈ 569 ops/s at 64).
pub const QUEUE_ADD_HOLD_S: f64 = 0.00139;
/// Add latch contention growth scale (drives the decline past 64).
pub const QUEUE_ADD_HOLD_NSCALE: f64 = 240.0;

/// Receive fixed overhead (sync + visibility assignment; slower than Add
/// per §6.1 "message retrieval was more affected by concurrency").
pub const QUEUE_RECV_BASE_S: f64 = 0.062;
/// Receive load growth.
pub const QUEUE_RECV_LOAD_S: f64 = 0.00095;
/// Receive latch hold (peak ≈ 424 ops/s at 64; the latch must bind a
/// little below the station asymptote, hence the higher hold than a
/// naive 1/424 split would suggest).
pub const QUEUE_RECV_HOLD_S: f64 = 0.00219;
/// Receive latch contention growth scale.
pub const QUEUE_RECV_HOLD_NSCALE: f64 = 240.0;

/// Per-kB payload cost for queue messages (512 B–8 kB all look similar,
/// §3.3 — this term is small by construction).
pub const QUEUE_PAYLOAD_S_PER_KB: f64 = 0.00003;

/// Maximum visibility timeout. "tasks take longer than the maximum
/// visibility timeout value (2 h)" (§5.2).
pub const QUEUE_MAX_VISIBILITY_S: f64 = 2.0 * 3600.0;

/// Default visibility timeout applied by Receive when unspecified (the
/// 2009 API default was 30 s).
pub const QUEUE_DEFAULT_VISIBILITY_S: f64 = 30.0;

// ---------------------------------------------------------------------------
// Reliability injection (paper Table 2 rates are *observed at app level*;
// service-level rates are set so ModisAzure's mix reproduces them).
// The rates themselves live with the fault-injection subsystem
// (`simfault::rates`, with per-constant derivations) and are re-exported
// here so calibration stays a one-stop shop.
// ---------------------------------------------------------------------------

pub use simfault::rates::{
    BLOB_CORRUPT_READ_P, BLOB_READ_FAIL_P, CONNECTION_FAIL_P, INTERNAL_ERROR_P, SPURIOUS_BUSY_P,
};

/// Jitter applied multiplicatively to service times (lognormal sigma).
pub const SERVICE_JITTER_SIGMA: f64 = 0.18;

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-form sanity of the Fig 1 calibration: the per-flow ceiling
    /// at 32 clients is about half its single-flow value.
    #[test]
    fn blob_download_ceiling_halves_at_32() {
        let cap = |n: f64| {
            BLOB_DL_PERFLOW_BASE / (1.0 + (n / BLOB_DL_PERFLOW_BETA).powf(BLOB_DL_PERFLOW_EXP))
        };
        let ratio = cap(32.0) / cap(1.0);
        assert!((ratio - 0.5).abs() < 0.07, "ratio={ratio}");
    }

    /// Upload anchors: ~1.25 MB/s at 64 clients, ~0.65 MB/s at 192.
    #[test]
    fn blob_upload_ceiling_hits_paper_points() {
        let cap = |n: f64| {
            BLOB_UL_PERFLOW_BASE / (1.0 + (n / BLOB_UL_PERFLOW_BETA).powf(BLOB_UL_PERFLOW_EXP))
        };
        let at64 = cap(64.0) / MB;
        let at192 = cap(192.0) / MB;
        assert!((at64 - 1.25).abs() < 0.25, "at64={at64}");
        assert!((at192 - 0.65).abs() < 0.15, "at192={at192}");
        // Aggregate at 192 must sit just under the 125 MB/s ingest pipe.
        assert!(at192 * 192.0 <= 125.0 + 1.0, "aggregate={}", at192 * 192.0);
        assert!(at192 * 192.0 > 110.0);
    }

    /// Queue Peek closed form: service-side throughput still rising from
    /// 128 to 192 clients, near the paper's 3392 → 3878 ops/s.
    #[test]
    fn queue_peek_throughput_anchors() {
        let agg = |n: f64| n / (QUEUE_PEEK_BASE_S + QUEUE_PEEK_LOAD_S * n);
        let a128 = agg(128.0);
        let a192 = agg(192.0);
        assert!(a192 > a128, "peek must still be rising at 192");
        assert!((a128 - 3392.0).abs() / 3392.0 < 0.08, "a128={a128}");
        assert!((a192 - 3878.0).abs() / 3878.0 < 0.08, "a192={a192}");
    }

    /// Queue Add: unconstrained demand crosses the latch cap near 64
    /// clients (the observed peak), and the cap at 64 is ≈ 569 ops/s.
    #[test]
    fn queue_add_peak_is_near_64_clients() {
        let unsat = |n: f64| n / (QUEUE_ADD_BASE_S + QUEUE_ADD_LOAD_S * n);
        let cap = |n: f64| 1.0 / (QUEUE_ADD_HOLD_S * (1.0 + n / QUEUE_ADD_HOLD_NSCALE));
        // Below the peak demand is under the cap; above, over.
        assert!(unsat(32.0) < cap(32.0));
        assert!(unsat(96.0) > cap(96.0));
        let peak = cap(64.0);
        assert!((peak - 569.0).abs() / 569.0 < 0.10, "peak={peak}");
        // Decline after the peak.
        assert!(cap(192.0) < cap(64.0));
        // Per-client anchors from §6.1.
        let pc16 = 1.0 / (QUEUE_ADD_BASE_S + QUEUE_ADD_LOAD_S * 16.0);
        let pc32 = 1.0 / (QUEUE_ADD_BASE_S + QUEUE_ADD_LOAD_S * 32.0);
        assert!((14.0..21.0).contains(&pc16), "pc16={pc16}");
        assert!(pc32 > 10.0, "pc32={pc32}");
    }

    /// Table Update: the per-entity latch saturates around 8 clients.
    #[test]
    fn table_update_peak_is_near_8_clients() {
        let unsat = |n: f64| n / (TABLE_UPDATE_BASE_S + 0.0);
        let cap = |n: f64| 1.0 / (TABLE_UPDATE_HOLD_S * (1.0 + n / TABLE_UPDATE_HOLD_NSCALE));
        assert!(unsat(4.0) < cap(4.0), "update saturated too early");
        assert!(unsat(16.0) > cap(16.0), "update saturates too late");
    }

    /// Property-filter scan over the pre-populated ~220 k-entity
    /// partition sits just under the client timeout, so load inflation
    /// plus jitter pushes roughly half of the concurrent scans over it.
    #[test]
    fn property_scan_straddles_timeout() {
        let scan = 220_000.0 * TABLE_SCAN_S_PER_ENTITY;
        assert!(
            scan > 0.80 * CLIENT_OP_TIMEOUT_S && scan < CLIENT_OP_TIMEOUT_S,
            "scan={scan}s vs timeout={CLIENT_OP_TIMEOUT_S}s"
        );
    }
}
