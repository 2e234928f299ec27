//! Mini storage-scaling study: sweep a few client counts against the
//! blob and queue services and watch the paper's concurrency behaviour
//! emerge (Fig 1's bandwidth decay, Fig 3's Add/Peek gap).
//!
//! Run with: `cargo run --release --example storage_scaling`

use azure_repro::prelude::*;
use experiments::{blob, queue};
use simlab::RunOpts;

fn main() {
    println!("== blob bandwidth vs concurrency (mini Fig 1) ==");
    let blob_cfg = blob::BlobScalingConfig {
        blob_bytes: 200.0e6,
        client_counts: vec![1, 8, 32, 128],
        runs: 1,
        seed: 7,
    };
    let (blob_result, _) = blob::run(&blob_cfg, &RunOpts::serial());
    println!("{}", blob_result.render());
    let r1 = blob_result.at(1).unwrap().download_per_client_mbps;
    let r32 = blob_result.at(32).unwrap().download_per_client_mbps;
    println!(
        "per-client bandwidth at 32 clients is {:.0}% of a lone client (paper: ~50%)\n",
        r32 / r1 * 100.0
    );

    println!("== queue operations vs concurrency (mini Fig 3) ==");
    let queue_cfg = queue::QueueScalingConfig {
        message_bytes: 512.0,
        client_counts: vec![1, 16, 64],
        ops_per_client: 50,
        seed: 7,
    };
    let (q, _) = queue::run(&queue_cfg, &RunOpts::serial());
    println!("{}", q.render());
    let peek = q.at(queue::QueueOp::Peek, 64).unwrap().aggregate_ops_s;
    let add = q.at(queue::QueueOp::Add, 64).unwrap().aggregate_ops_s;
    println!(
        "at 64 clients Peek sustains {:.0} ops/s vs Add's {:.0} — \
         Peek needs no replica synchronization (paper §3.3)",
        peek, add
    );
}
