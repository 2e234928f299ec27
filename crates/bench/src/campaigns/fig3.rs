//! Fig 3 campaign: average per-client queue performance vs concurrency
//! (paper §3.3). One cell per (op, clients) phase plus two cells for
//! the queue-length invariance check.

use cloudbench::anchors;
use cloudbench::experiments::queue::{self, QueueOp, QueueScalingConfig};
use simcore::report::Csv;
use simlab::{anchor, run_cells, RunOpts};

use super::CampaignOutput;

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    let cfg = if quick {
        QueueScalingConfig::quick()
    } else {
        QueueScalingConfig::default()
    };
    QueueOp::ALL.len() * cfg.client_counts.len() + 2
}

/// Run the Fig 3 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let cfg = if quick {
        QueueScalingConfig::quick()
    } else {
        QueueScalingConfig::default()
    };
    eprintln!(
        "fig3: sweeping {:?} clients, {} ops each, {} B messages ...",
        cfg.client_counts, cfg.ops_per_client, cfg.message_bytes
    );
    let (result, trace_summary) = queue::run(&cfg, opts);
    // Queue-length invariance arms (200 k vs 2 M messages; scaled when
    // quick) run second and are never the traced cell.
    let scale = if quick { 0.05 } else { 1.0 };
    let invariance_msgs = [(200_000.0 * scale) as usize, (2_000_000.0 * scale) as usize];
    let invariance_opts = RunOpts {
        trace: None,
        ..opts.clone()
    };
    let rates = run_cells(2, &invariance_opts, |i, ctx| {
        queue::length_invariance_at(77, invariance_msgs[i], ctx)
    })
    .cells;
    let (small, large) = (rates[0], rates[1]);

    let mut csv = Csv::new();
    csv.row(&[
        "op",
        "clients",
        "per_client_ops_s",
        "aggregate_ops_s",
        "ok",
        "failed",
    ]);
    for r in &result.rows {
        csv.row(&[
            r.op.to_string(),
            r.clients.to_string(),
            format!("{:.3}", r.per_client_ops_s),
            format!("{:.2}", r.aggregate_ops_s),
            r.ok.to_string(),
            r.failed.to_string(),
        ]);
    }

    let mut checks = Vec::new();
    if let Some(r) = result.at(QueueOp::Add, 64) {
        checks.push(anchors::FIG3_ADD_PEAK_OPS.check(r.aggregate_ops_s));
    }
    if let Some(r) = result.at(QueueOp::Receive, 64) {
        checks.push(anchors::FIG3_RECV_PEAK_OPS.check(r.aggregate_ops_s));
    }
    if let Some(r) = result.at(QueueOp::Peek, 128) {
        checks.push(anchors::FIG3_PEEK_128_OPS.check(r.aggregate_ops_s));
    }
    if let Some(r) = result.at(QueueOp::Peek, 192) {
        checks.push(anchors::FIG3_PEEK_192_OPS.check(r.aggregate_ops_s));
    }
    let mut block = anchor::render_block("Paper anchors (Fig 3):", &checks);
    block.push_str(&format!(
        "  queue length invariance: {:.1} ops/s at {}k msgs vs {:.1} ops/s at {}k msgs (paper: no variation)\n",
        small,
        (200.0 * scale) as u64,
        large,
        (2000.0 * scale) as u64
    ));

    let stdout = format!("{}\n{}", result.render(), block);
    CampaignOutput {
        name: "fig3",
        cells: result.rows.len() + rates.len(),
        stdout,
        files: vec![
            ("fig3.csv".to_string(), csv.as_str().to_string()),
            ("fig3.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary,
    }
}
