//! The paper's campaigns as library functions.
//!
//! Each regeneration target (Figs 1–5 and 7, Tables 1–2, the ablation
//! suite) is a pure function `run(quick, &RunOpts) -> CampaignOutput`:
//! it decomposes the campaign into deterministic cells, drives them
//! through [`simlab::run_cells`] (so `--shards`, `--faults` and
//! `--trace` all apply uniformly), and returns everything the campaign
//! produces — rendered stdout, result files, anchor verdicts — without
//! touching the filesystem. [`CAMPAIGNS`] lists them; the `azlab`
//! driver handles printing, saving and the manifest.
//!
//! Table 2 and Fig 7 come from the same ModisAzure campaign, so they
//! share one entry ([`modis`]) that emits both artifacts; `azlab run
//! table2` and `azlab run fig7` are aliases for it.

use std::path::Path;

use azstore::calib::{BLOB_EGRESS_BPS, QUEUE_NOMINAL_OPS_S, TABLE_NOMINAL_OPS_S};
use simlab::{AnchorCheck, RunOpts};
use simload::Workload;

pub mod ablations;
pub mod consistency;
pub mod elastic;
pub mod faas;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod frontier;
pub mod geo;
pub mod modis;
pub mod shedding;
pub mod table1;

/// A storage service the open-loop campaigns (frontier, shedding,
/// geo, consistency) drive, named by its [`ServicePlan`] workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Service {
    Blob,
    Table,
    Queue,
}

impl Service {
    fn name(self) -> &'static str {
        match self {
            Service::Blob => "blob",
            Service::Table => "table",
            Service::Queue => "queue",
        }
    }

    /// Throughput unit for reporting (blob in MB/s, others in ops/s).
    fn unit(self) -> &'static str {
        match self {
            Service::Blob => "MB/s",
            _ => "ops/s",
        }
    }
}

/// One service at an operating point of an open-loop campaign.
struct ServicePlan {
    workload: Workload,
    /// Rate the campaign's load multipliers scale (ops/s).
    nominal_ops_s: f64,
    /// Latency SLO (seconds from the scheduled instant).
    deadline_s: f64,
}

impl ServicePlan {
    /// The single-stamp frontier operating points, in sweep order blob,
    /// table, queue. Nominal rates are the closed-loop saturation
    /// capacities (`azstore::calib`): 400 MB/s aggregate download,
    /// ~3.9 k Query/s, ~585 Add/s. Blob transfers are sized so warmup
    /// covers a few service times even at saturation concurrency (~3
    /// MB/s per flow near the Fig 1 peak); capacity in MB/s is governed
    /// by the shared pipes, not the object size.
    fn frontier(quick: bool) -> [ServicePlan; 3] {
        let blob_bytes = if quick { 2e6 } else { 8e6 };
        [
            ServicePlan {
                workload: Workload::BlobGet { blob_bytes },
                nominal_ops_s: BLOB_EGRESS_BPS / blob_bytes,
                // ~1.5x the per-op time at saturation concurrency.
                deadline_s: if quick { 1.0 } else { 4.0 },
            },
            ServicePlan {
                workload: Workload::TableQuery {
                    entities: 512,
                    entity_kb: 4,
                },
                nominal_ops_s: TABLE_NOMINAL_OPS_S,
                // The query station's sojourn at the closed-loop peak's
                // effective concurrency is ~50-70 ms; the deadline caps
                // the open-loop goodput at the comparable point (the
                // station itself asymptotes well above the 192-client
                // aggregate, so an SLO-free drain rate would not be
                // comparable to Fig 2).
                deadline_s: 0.08,
            },
            ServicePlan {
                workload: Workload::QueueAdd {
                    message_bytes: 512.0,
                },
                nominal_ops_s: QUEUE_NOMINAL_OPS_S,
                deadline_s: 0.5,
            },
        ]
    }

    fn service(&self) -> Service {
        match self.workload {
            Workload::BlobGet { .. } => Service::Blob,
            Workload::TableQuery { .. } => Service::Table,
            Workload::QueueAdd { .. } => Service::Queue,
        }
    }

    /// Ops/s → the service's reporting unit (MB per op for blob).
    fn unit_scale(&self) -> f64 {
        match self.service() {
            Service::Blob => self.workload.bytes_per_op() / 1e6,
            _ => 1.0,
        }
    }
}

/// Everything one campaign produces, computed without side effects.
#[derive(Debug)]
pub struct CampaignOutput {
    /// Canonical campaign name (`fig1` ... `ablations`).
    pub name: &'static str,
    /// Cells the sharded runner executed.
    pub cells: usize,
    /// Exactly what the campaign prints on stdout (tables + anchor
    /// blocks), byte-identical for any shard count.
    pub stdout: String,
    /// Result files as `(file name, contents)`, to be written into the
    /// run's results directory.
    pub files: Vec<(String, String)>,
    /// Anchor verdicts for the manifest.
    pub anchors: Vec<AnchorCheck>,
    /// Latency breakdown + file note of the traced cell, if any.
    pub trace_summary: Option<String>,
}

/// One campaign: its canonical name and entry points.
#[derive(Debug)]
pub struct Campaign {
    /// Canonical name (`azlab run <name>`).
    pub name: &'static str,
    /// Run the campaign (`quick`, runner options).
    pub run: fn(bool, &RunOpts) -> CampaignOutput,
    /// Planned cell count in one mode, without running it (the `azlab
    /// bench` report records quick and full counts side by side).
    pub cell_count: fn(bool) -> usize,
}

/// Every campaign, in `azlab run all` execution order.
pub const CAMPAIGNS: &[Campaign] = &[
    Campaign {
        name: "fig1",
        run: fig1::run,
        cell_count: fig1::cell_count,
    },
    Campaign {
        name: "fig2",
        run: fig2::run,
        cell_count: fig2::cell_count,
    },
    Campaign {
        name: "fig3",
        run: fig3::run,
        cell_count: fig3::cell_count,
    },
    Campaign {
        name: "fig4",
        run: fig4::run,
        cell_count: fig4::cell_count,
    },
    Campaign {
        name: "fig5",
        run: fig5::run,
        cell_count: fig5::cell_count,
    },
    Campaign {
        name: "table1",
        run: table1::run,
        cell_count: table1::cell_count,
    },
    Campaign {
        name: "modis",
        run: modis::run,
        cell_count: modis::cell_count,
    },
    Campaign {
        name: "frontier",
        run: frontier::run,
        cell_count: frontier::cell_count,
    },
    Campaign {
        name: "geo",
        run: geo::run,
        cell_count: geo::cell_count,
    },
    Campaign {
        name: "shedding",
        run: shedding::run,
        cell_count: shedding::cell_count,
    },
    Campaign {
        name: "elastic",
        run: elastic::run,
        cell_count: elastic::cell_count,
    },
    Campaign {
        name: "faas",
        run: faas::run,
        cell_count: faas::cell_count,
    },
    Campaign {
        name: "consistency",
        run: consistency::run,
        cell_count: consistency::cell_count,
    },
    Campaign {
        name: "ablations",
        run: ablations::run,
        cell_count: ablations::cell_count,
    },
];

/// Resolve a CLI target (including the `table2`/`fig7` aliases) to its
/// campaign.
pub fn canonical(target: &str) -> Option<&'static Campaign> {
    let name = match target {
        "table2" | "fig7" => "modis",
        t => t,
    };
    CAMPAIGNS.iter().find(|c| c.name == name)
}

/// Print a campaign's stdout, write its files into `dir` (announcing
/// each on stdout like the pre-simlab binaries did), and print the
/// trace summary if one was captured.
pub fn emit(out: &CampaignOutput, dir: &Path) {
    print!("{}", out.stdout);
    for (name, contents) in &out.files {
        let path = dir.join(name);
        if std::fs::write(&path, contents).is_ok() {
            println!("[saved {}]", path.display());
        }
    }
    if let Some(t) = &out.trace_summary {
        print!("{t}");
    }
}

/// Default shard count: one per available core.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
