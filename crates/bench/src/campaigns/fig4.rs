//! Fig 4 campaign: cumulative TCP latency between two small VMs (paper
//! §4.2). One cell per VM pair (see [`tcp::run_latency`]).

use cloudbench::anchors;
use cloudbench::experiments::tcp::{self, TcpLatencyConfig};
use simcore::report::Csv;
use simlab::{anchor, RunOpts};

use super::CampaignOutput;

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(quick: bool) -> usize {
    if quick {
        10
    } else {
        TcpLatencyConfig::default().pairs
    }
}

/// Run the Fig 4 campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    let cfg = if quick {
        TcpLatencyConfig {
            pairs: 10,
            samples_per_pair: 200,
            ..TcpLatencyConfig::default()
        }
    } else {
        TcpLatencyConfig::default()
    };
    eprintln!(
        "fig4: {} pairs x {} RTT samples ...",
        cfg.pairs, cfg.samples_per_pair
    );
    let (result, trace_summary) = tcp::run_latency(&cfg, opts);

    let mut csv = Csv::new();
    csv.row(&["latency_ms", "cumulative_fraction"]);
    for (v, f) in result.samples_ms.cdf().into_iter().step_by(25) {
        csv.row(&[format!("{v:.4}"), format!("{f:.4}")]);
    }

    let checks = vec![
        anchors::FIG4_LE_1MS.check(result.fraction_at_most(1.0)),
        anchors::FIG4_LE_2MS.check(result.fraction_at_most(2.0)),
    ];
    let block = anchor::render_block("Paper anchors (Fig 4):", &checks);

    let stdout = format!("{}\n{}", result.render(), block);
    CampaignOutput {
        name: "fig4",
        cells: cfg.pairs,
        stdout,
        files: vec![
            ("fig4.csv".to_string(), csv.as_str().to_string()),
            ("fig4.anchors.txt".to_string(), block),
        ],
        anchors: checks,
        trace_summary,
    }
}
