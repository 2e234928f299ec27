//! Fig 5 campaign: cumulative TCP bandwidth between two small VMs
//! sending 2 GB through TCP internal endpoints (paper §4.2). One cell
//! per deployment round.

use cloudbench::anchors;
use cloudbench::experiments::tcp::{self, TcpBandwidthConfig};
use simcore::report::Csv;
use simlab::{anchor, RunOpts};

use super::CampaignOutput;

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    if quick {
        TcpBandwidthConfig::quick()
    } else {
        TcpBandwidthConfig::default()
    }
    .rounds
}

/// Run the Fig 5 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let cfg = if quick {
        TcpBandwidthConfig::quick()
    } else {
        TcpBandwidthConfig::default()
    };
    eprintln!(
        "fig5: {} rounds x {} pairs x {} transfers of {:.1} GB ...",
        cfg.rounds,
        cfg.pairs_per_round,
        cfg.transfers_per_pair,
        cfg.bytes / 1.0e9
    );
    let (result, trace_summary) = tcp::run_bandwidth(&cfg, opts);

    let mut csv = Csv::new();
    csv.row(&["bandwidth_mbps", "cumulative_fraction"]);
    for (v, f) in result.samples_mbps.cdf() {
        csv.row(&[format!("{v:.2}"), format!("{f:.4}")]);
    }

    let checks = vec![
        anchors::FIG5_GE_90MBPS.check(result.fraction_at_least(90.0)),
        anchors::FIG5_LE_30MBPS.check(result.fraction_at_most(30.0)),
    ];
    let block = anchor::render_block("Paper anchors (Fig 5):", &checks);

    let stdout = format!("{}\n{}", result.render(), block);
    CampaignOutput {
        name: "fig5",
        cells: cfg.rounds,
        stdout,
        files: vec![
            ("fig5.csv".to_string(), csv.as_str().to_string()),
            ("fig5.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary,
    }
}
