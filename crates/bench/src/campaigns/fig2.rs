//! Fig 2 campaign: average per-client table performance vs concurrency
//! (paper §3.2), including the 64 kB high-concurrency insert cliff.
//! One cell per 4 kB sweep point plus one per 64 kB cliff point.

use cloudbench::experiments::table::{self, TableOp, TableScalingConfig};
use simcore::report::Csv;
use simlab::RunOpts;

use super::CampaignOutput;

const CLIFF_COUNTS: [usize; 3] = [64, 128, 192];

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    let base = if quick {
        TableScalingConfig::quick()
    } else {
        TableScalingConfig::default()
    };
    base.client_counts.len() + CLIFF_COUNTS.len()
}

/// Run the Fig 2 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let base = if quick {
        TableScalingConfig::quick()
    } else {
        TableScalingConfig::default()
    };
    let cliff_cfg = TableScalingConfig {
        entity_kb: 64,
        client_counts: CLIFF_COUNTS.to_vec(),
        inserts_per_client: if quick { 60 } else { 500 },
        queries_per_client: 0,
        updates_per_client: 0,
        ..base.clone()
    };
    eprintln!(
        "fig2: 4 kB sweep over {:?} clients + 64 kB insert cliff at {:?} ...",
        base.client_counts, cliff_cfg.client_counts
    );
    let (result, trace_summary) = table::run(&base, opts);
    // The cliff cells come second and are never the traced cell.
    let cliff_opts = RunOpts {
        trace: None,
        ..opts.clone()
    };
    let (cliff, _) = table::run(&cliff_cfg, &cliff_opts);

    let mut csv = Csv::new();
    csv.row(&[
        "op",
        "clients",
        "per_client_ops_s",
        "aggregate_ops_s",
        "ok",
        "timeouts",
        "busy",
        "clients_fully_ok",
    ]);
    for r in &result.rows {
        csv.row(&[
            r.op.to_string(),
            r.clients.to_string(),
            format!("{:.3}", r.per_client_ops_s),
            format!("{:.2}", r.aggregate_ops_s),
            r.ok.to_string(),
            r.timeouts.to_string(),
            r.busy.to_string(),
            r.clients_fully_ok.to_string(),
        ]);
    }

    let mut summary = String::new();
    summary.push_str("Paper anchors (Fig 2, shapes):\n");
    for op in TableOp::ALL {
        let peak = result.peak_clients(op);
        summary.push_str(&format!(
            "  {op}: aggregate throughput peaks at {peak} clients\n"
        ));
    }
    summary.push_str(
        "  paper: Insert/Query unsaturated at 192; Update peaks at 8; Delete peaks at 128\n",
    );
    summary.push_str("\n64 kB Insert (paper: 94/128 and 89/192 clients finished cleanly):\n");
    for clients in CLIFF_COUNTS {
        if let Some(r) = cliff.at(TableOp::Insert, clients) {
            summary.push_str(&format!(
                "  {} clients: {} finished without errors, {} timeouts\n",
                clients, r.clients_fully_ok, r.timeouts
            ));
        }
    }

    let stdout = format!("{}\n{}", result.render(), summary);
    CampaignOutput {
        name: "fig2",
        cells: result.cells() + cliff.cells(),
        stdout,
        files: vec![
            ("fig2.csv".to_string(), csv.as_str().to_string()),
            ("fig2.anchors.txt".to_string(), summary),
        ],
        anchors: Vec::new(),
        trace_summary,
    }
}
