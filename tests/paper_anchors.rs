//! Light cross-crate anchor checks: scaled-down versions of every
//! experiment, each compared against the paper's published number via
//! the `cloudbench::anchors` table. (Heavier shape tests live in the
//! experiment modules; full-scale regeneration is `azlab run`,
//! recorded in EXPERIMENTS.md.)

use cloudbench::anchors;
use cloudbench::experiments::{blob, queue, tcp};
use simlab::RunOpts;

#[test]
fn fig1_blob_anchors_scaled() {
    let cfg = blob::BlobScalingConfig {
        blob_bytes: 500.0e6,
        client_counts: vec![1, 32, 64, 128, 192],
        runs: 1,
        seed: 21,
    };
    let (r, _) = blob::run(&cfg, &RunOpts::serial());
    let one = r.at(1).unwrap();
    assert!(anchors::FIG1_DL_1CLIENT_MBPS.matches(one.download_per_client_mbps));
    let ratio = r.at(32).unwrap().download_per_client_mbps / one.download_per_client_mbps;
    assert!(
        anchors::FIG1_DL_32CLIENT_RATIO.matches(ratio),
        "ratio={ratio}"
    );
    assert!(anchors::FIG1_DL_PEAK_MBPS.matches(r.at(128).unwrap().download_aggregate_mbps));
    assert!(anchors::FIG1_UL_64CLIENT_MBPS.matches(r.at(64).unwrap().upload_per_client_mbps));
    assert!(anchors::FIG1_UL_192CLIENT_MBPS.matches(r.at(192).unwrap().upload_per_client_mbps));
    assert!(anchors::FIG1_UL_PEAK_MBPS.matches(r.at(192).unwrap().upload_aggregate_mbps));
}

#[test]
fn fig3_queue_anchors_scaled() {
    let cfg = queue::QueueScalingConfig {
        message_bytes: 512.0,
        client_counts: vec![64, 128, 192],
        ops_per_client: 60,
        seed: 22,
    };
    let (r, _) = queue::run(&cfg, &RunOpts::serial());
    assert!(
        anchors::FIG3_ADD_PEAK_OPS.matches(r.at(queue::QueueOp::Add, 64).unwrap().aggregate_ops_s)
    );
    assert!(anchors::FIG3_RECV_PEAK_OPS
        .matches(r.at(queue::QueueOp::Receive, 64).unwrap().aggregate_ops_s));
    assert!(anchors::FIG3_PEEK_128_OPS
        .matches(r.at(queue::QueueOp::Peek, 128).unwrap().aggregate_ops_s));
    assert!(anchors::FIG3_PEEK_192_OPS
        .matches(r.at(queue::QueueOp::Peek, 192).unwrap().aggregate_ops_s));
}

#[test]
fn fig4_latency_anchors() {
    let cfg = tcp::TcpLatencyConfig {
        pairs: 50,
        samples_per_pair: 400,
        seed: 23,
    };
    let (r, _) = tcp::run_latency(&cfg, &RunOpts::serial());
    assert!(anchors::FIG4_LE_1MS.matches(r.fraction_at_most(1.0)));
    assert!(anchors::FIG4_LE_2MS.matches(r.fraction_at_most(2.0)));
}

#[test]
fn fig5_bandwidth_anchors_scaled() {
    let (r, _) = tcp::run_bandwidth(&tcp::TcpBandwidthConfig::quick(), &RunOpts::serial());
    assert!(
        anchors::FIG5_GE_90MBPS.matches(r.fraction_at_least(90.0)),
        "ge90={}",
        r.fraction_at_least(90.0)
    );
    assert!(
        anchors::FIG5_LE_30MBPS.matches(r.fraction_at_most(30.0)),
        "le30={}",
        r.fraction_at_most(30.0)
    );
}
