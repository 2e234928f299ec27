//! Ablation campaign: turn each mechanism off and show which paper
//! observation disappears (see the table in DESIGN.md).
//!
//! | Mechanism | Paper artifact it generates |
//! |---|---|
//! | per-flow front-end ceiling | Fig 1's per-client decline (halving at 32) |
//! | latch contention inflation | Fig 3's Add/Receive decline past 64 clients |
//! | background tenant traffic  | Fig 5's ≤30 MB/s contended tail |
//! | host performance variation | Fig 7's VM-timeout spikes |
//! | the 4× watchdog            | bounded retries instead of a slow tail |
//!
//! Six cells: the three micro ablations and the three ModisAzure
//! configurations. The ablations compare mechanisms against themselves,
//! so `azlab` runs this campaign without a fault plan regardless of
//! `--faults`.

use ::modis::campaign::run_campaign_on;
use ::modis::{ModisConfig, Outcome};
use azstore::{StampConfig, StorageStamp};
use cloudbench::experiments::tcp::{self, TcpBandwidthConfig};
use simcore::report::AsciiTable;
use simlab::{run_cells, CellCtx, RunOpts};

use super::CampaignOutput;

enum AblationCell {
    Section(String),
    Modis {
        name: &'static str,
        vm_timeouts: u64,
        max_daily_pct: f64,
        elapsed: String,
    },
}

/// Per-client download bandwidth at `clients` with/without the
/// front-end ceiling.
fn blob_per_client(clients: usize, ablate: bool, ctx: &CellCtx) -> f64 {
    ctx.with_sim(31, |sim| {
        let stamp = StorageStamp::standalone(
            sim,
            StampConfig {
                ablate_no_frontend_ceiling: ablate,
                ..StampConfig::default()
            },
        );
        stamp.blob_service().seed("b", "x", 200.0e6);
        let rates = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for _ in 0..clients {
            let c = stamp.attach_small_client();
            let r = rates.clone();
            sim.spawn(async move {
                let dl = c.blob.get("b", "x").await.unwrap();
                r.borrow_mut().push(dl.rate_bps() / 1.0e6);
            });
        }
        sim.run();
        let v = rates.borrow();
        v.iter().sum::<f64>() / v.len() as f64
    })
}

/// Queue Add aggregate at `clients` with/without latch inflation.
fn queue_add_aggregate(clients: usize, ablate: bool, ctx: &CellCtx) -> f64 {
    ctx.with_sim(32, |sim| {
        let stamp = StorageStamp::standalone(
            sim,
            StampConfig {
                ablate_no_latch_inflation: ablate,
                ..StampConfig::default()
            },
        );
        let ops = 40usize;
        let t0 = sim.now();
        for _ in 0..clients {
            let c = stamp.attach_small_client();
            sim.spawn(async move {
                for i in 0..ops {
                    c.queue.add("q", format!("m{i}"), 512.0).await.unwrap();
                }
            });
        }
        sim.run();
        (clients * ops) as f64 / (sim.now() - t0).as_secs_f64()
    })
}

fn frontend_ceiling_section(ctx: &CellCtx) -> String {
    let mut t = AsciiTable::new(vec!["clients", "with ceiling MB/s", "without MB/s"])
        .with_title("Ablation 1 — per-flow front-end ceiling (Fig 1's per-client decline)");
    for clients in [1usize, 32] {
        t.row(vec![
            clients.to_string(),
            format!("{:.2}", blob_per_client(clients, false, ctx)),
            format!("{:.2}", blob_per_client(clients, true, ctx)),
        ]);
    }
    let mut out = t.render();
    out.push_str("paper: 32 clients get HALF a lone client's bandwidth; without the\nceiling they would keep nearly all of it until the 400 MB/s pipe binds.\n\n");
    out
}

fn latch_inflation_section(ctx: &CellCtx) -> String {
    let mut t = AsciiTable::new(vec!["clients", "with inflation ops/s", "without ops/s"])
        .with_title("Ablation 2 — latch contention inflation (Fig 3's decline past 64)");
    for clients in [64usize, 192] {
        t.row(vec![
            clients.to_string(),
            format!("{:.0}", queue_add_aggregate(clients, false, ctx)),
            format!("{:.0}", queue_add_aggregate(clients, true, ctx)),
        ]);
    }
    let mut out = t.render();
    out.push_str("paper: Add peaks at 64 clients (569 ops/s) and DECLINES at 192;\nwithout hold inflation throughput plateaus instead of declining.\n\n");
    out
}

fn background_traffic_section(quick: bool) -> String {
    let mut cfg = TcpBandwidthConfig::quick();
    if !quick {
        cfg.rounds = 16;
    }
    // Serial inside this cell: one datacenter topology at a time, so
    // the campaign's parallelism stays under `--shards` control.
    let (with_bg, _) = tcp::run_bandwidth(&cfg, &RunOpts::serial());
    cfg.background = false;
    let (without_bg, _) = tcp::run_bandwidth(&cfg, &RunOpts::serial());
    let mut t = AsciiTable::new(vec!["metric", "with background", "without"])
        .with_title("Ablation 3 — background tenant traffic (Fig 5's contended tail)");
    t.row(vec![
        "P(<= 30 MB/s)".to_string(),
        format!("{:.1}%", with_bg.fraction_at_most(30.0) * 100.0),
        format!("{:.1}%", without_bg.fraction_at_most(30.0) * 100.0),
    ]);
    t.row(vec![
        "P(>= 90 MB/s)".to_string(),
        format!("{:.1}%", with_bg.fraction_at_least(90.0) * 100.0),
        format!("{:.1}%", without_bg.fraction_at_least(90.0) * 100.0),
    ]);
    let mut out = t.render();
    out.push_str("paper: ~15% of transfers fall to <=30 MB/s; the tail is entirely\nco-tenant traffic — removing it leaves nearly all transfers >=90 MB/s.\n\n");
    out
}

fn modis_variant(name: &'static str, cfg: ModisConfig, ctx: &CellCtx) -> AblationCell {
    ctx.with_sim(cfg.seed, |sim| {
        let r = run_campaign_on(sim, cfg.clone());
        AblationCell::Modis {
            name,
            vm_timeouts: r.telemetry.count(Outcome::VmExecutionTimeout),
            max_daily_pct: r.telemetry.max_daily_timeout_fraction() * 100.0,
            elapsed: r.elapsed.to_string(),
        }
    })
}

/// Planned cell count for one mode (recorded by `azlab bench`).
pub fn cell_count(_quick: bool) -> usize {
    6
}

/// Run the ablation campaign.
pub fn run(quick: bool, opts: &RunOpts) -> CampaignOutput {
    eprintln!("ablations: 3 micro ablations + 3 ModisAzure configurations ...");
    // Ablations measure each mechanism against its own absence; a fault
    // plan on top would confound the comparison, so only trace/shards
    // flow through.
    let cell_opts = RunOpts {
        shards: opts.shards,
        faults: None,
        trace: opts.trace.clone(),
        tau: None,
    };
    let base = ModisConfig::quick();
    let mut no_var = base.clone();
    no_var.variation = false;
    let mut no_dog = base.clone();
    no_dog.watchdog = false;
    let out = run_cells(6, &cell_opts, |i, ctx| match i {
        0 => AblationCell::Section(frontend_ceiling_section(ctx)),
        1 => AblationCell::Section(latch_inflation_section(ctx)),
        2 => AblationCell::Section(background_traffic_section(quick)),
        3 => modis_variant("full system", base.clone(), ctx),
        4 => modis_variant("no host variation", no_var.clone(), ctx),
        _ => modis_variant("no watchdog", no_dog.clone(), ctx),
    });

    let mut text = String::new();
    let mut t = AsciiTable::new(vec![
        "configuration",
        "vm timeouts",
        "max daily %",
        "campaign length",
    ])
    .with_title("Ablations 4 & 5 — host variation and the 4x watchdog (Fig 7)");
    for cell in &out.cells {
        match cell {
            AblationCell::Section(s) => text.push_str(s),
            AblationCell::Modis {
                name,
                vm_timeouts,
                max_daily_pct,
                elapsed,
            } => {
                t.row(vec![
                    name.to_string(),
                    vm_timeouts.to_string(),
                    format!("{max_daily_pct:.2}"),
                    elapsed.clone(),
                ]);
            }
        }
    }
    text.push_str(&t.render());
    text.push_str(
        "paper: sporadic >4x slowdowns hit up to 16% of a day's tasks; without\nhost variation no timeouts exist, and without the watchdog the same\nslowdowns surface as a silent long tail instead of bounded retries.\n",
    );

    CampaignOutput {
        name: "ablations",
        cells: 6,
        stdout: text.clone(),
        files: vec![("ablations.txt".to_string(), text)],
        anchors: Vec::new(),
        trace_summary: out.trace_summary,
    }
}
