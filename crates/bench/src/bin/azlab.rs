//! `azlab` — the campaign driver, the one entry point for every
//! regeneration target:
//!
//! ```text
//! azlab run all [--quick] [--shards N] [--faults <preset>]
//! azlab run <target> [--quick] [--shards N] [--faults <preset>] [--trace <path>] [--tau SECONDS]
//! azlab run --list
//! azlab bench [--shards N] [--out <path>]
//! ```
//!
//! `run` executes the selected campaigns through the deterministic
//! sharded runner, writes their artifacts into `results/` (or
//! `results/quick/` under `--quick`) and finishes with a
//! machine-readable `manifest.json` recording per-campaign cell counts,
//! wall-clock and anchor verdicts. The merged output is byte-identical
//! for any `--shards N`.
//!
//! `run --list` enumerates the campaign targets (and their aliases)
//! one per line and exits 0; an unknown target is a hard usage error
//! (exit 2) that prints the same list.
//!
//! `bench` times the quick campaign set and the ModisAzure campaign at
//! 1 vs 4 shards, writing a `BENCH_pr10.json` wall-clock report with
//! each campaign's planned cell count in both modes (quick and full)
//! next to its quick wall-clock. Times are recorded in microseconds:
//! several quick campaigns finish in well under a millisecond, where
//! ms-resolution rows read `0`.

use std::path::PathBuf;
use std::time::Instant;

use bench::campaigns::{self, Campaign, CAMPAIGNS};
use simlab::{CampaignEntry, Manifest, RunOpts, TraceSpec};

const USAGE: &str = "azlab <run|bench> [target] [--quick] [--shards N] [--faults <preset>] [--trace <path>] [--tau SECONDS] [--out <path>] [--list]\n  targets: all fig1 fig2 fig3 fig4 fig5 table1 table2 fig7 modis frontier geo shedding elastic faas consistency ablations  (azlab run --list enumerates them)";

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn main() {
    let flags = simlab::cli::parse_or_exit(USAGE);
    match flags.words.first().map(String::as_str) {
        Some("run") => cmd_run(flags),
        Some("bench") => cmd_bench(flags),
        Some(other) => usage_exit(&format!("unknown subcommand {other:?}")),
        None => usage_exit("missing subcommand"),
    }
}

fn cmd_run(flags: simlab::Flags) {
    if flags.list {
        println!("all");
        for c in CAMPAIGNS {
            println!("{}", c.name);
        }
        println!("table2 (alias of modis)");
        println!("fig7 (alias of modis)");
        return;
    }
    if flags.words.len() > 2 {
        usage_exit(&format!("unexpected argument {:?}", flags.words[2]));
    }
    let target = flags.words.get(1).map(String::as_str).unwrap_or("all");
    let selected: &[Campaign] = if target == "all" {
        CAMPAIGNS
    } else {
        match campaigns::canonical(target) {
            Some(c) => std::slice::from_ref(c),
            None => usage_exit(&format!(
                "unknown target {target:?} (known: all {} table2 fig7)",
                CAMPAIGNS
                    .iter()
                    .map(|c| c.name)
                    .collect::<Vec<_>>()
                    .join(" ")
            )),
        }
    };
    if flags.trace.is_some() && selected.len() > 1 {
        usage_exit(
            "--trace needs a single target (it captures one campaign's representative cell)",
        );
    }
    let shards = flags.shards.unwrap_or_else(campaigns::default_shards);
    let dir = bench::results_dir_for(flags.quick);

    let mut manifest = Manifest {
        quick: flags.quick,
        shards,
        faults: flags
            .faults
            .as_ref()
            .map(|p| p.name.to_string())
            .unwrap_or_else(|| "none".to_string()),
        campaigns: Vec::new(),
    };
    for c in selected {
        let opts = RunOpts {
            shards,
            faults: flags.faults.clone(),
            trace: flags.trace.clone().map(|path| TraceSpec { cell: 0, path }),
            tau: flags.tau,
        };
        let t0 = Instant::now();
        let out = (c.run)(flags.quick, &opts);
        let wall_us = t0.elapsed().as_micros() as u64;
        campaigns::emit(&out, &dir);
        manifest.campaigns.push(CampaignEntry {
            name: out.name.to_string(),
            cells: out.cells,
            wall_us,
            anchors: out.anchors,
            artifacts: out.files.into_iter().map(|(n, _)| n).collect(),
        });
    }
    let path = dir.join("manifest.json");
    if std::fs::write(&path, manifest.to_json()).is_ok() {
        println!("[saved {}]", path.display());
    }
}

fn cmd_bench(flags: simlab::Flags) {
    if flags.words.len() > 1 {
        usage_exit(&format!("unexpected argument {:?}", flags.words[1]));
    }
    let shards = flags.shards.unwrap_or(4);
    let time = |c: &Campaign, shards: usize| -> (usize, u64) {
        let opts = RunOpts {
            shards,
            faults: None,
            trace: None,
            tau: None,
        };
        let t0 = Instant::now();
        let out = (c.run)(true, &opts);
        (out.cells, t0.elapsed().as_micros() as u64)
    };

    // The acceptance measurement: the day-segmented ModisAzure campaign
    // (the old serial table2) at 1 shard vs 4.
    eprintln!("azlab bench: modis --quick serial vs 4 shards ...");
    let modis = campaigns::canonical("modis").expect("modis is a campaign");
    let (_, modis_serial_us) = time(modis, 1);
    let (_, modis_shards4_us) = time(modis, 4);
    let speedup = modis_serial_us as f64 / modis_shards4_us.max(1) as f64;

    eprintln!("azlab bench: full quick campaign set at {shards} shards ...");
    let mut rows = Vec::new();
    let mut total_us = 0u64;
    for c in CAMPAIGNS {
        let (cells, us) = time(c, shards);
        total_us += us;
        rows.push((c, cells, us));
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"azlab\",\n  \"quick\": true,\n");
    json.push_str(&format!("  \"shards\": {shards},\n"));
    // The speedup is only interpretable against the cores that backed
    // the worker threads (a 1-core host measures ~1.0x by physics).
    json.push_str(&format!(
        "  \"host_cpus\": {},\n",
        campaigns::default_shards()
    ));
    json.push_str(&format!(
        "  \"modis_serial_us\": {modis_serial_us},\n  \"modis_shards4_us\": {modis_shards4_us},\n"
    ));
    json.push_str(&format!("  \"modis_speedup_4shards\": {speedup:.2},\n"));
    json.push_str("  \"campaigns\": [\n");
    for (i, (c, cells, us)) in rows.iter().enumerate() {
        let (name, cells_full) = (c.name, (c.cell_count)(false));
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"cells_quick\": {cells}, \"cells_full\": {cells_full}, \"wall_us\": {us}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"total_us\": {total_us}\n}}\n"));

    let path = flags.out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_pr10.json")
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "[saved {}]  modis quick: {}us serial, {}us at 4 shards ({speedup:.2}x)",
            path.display(),
            modis_serial_us,
            modis_shards4_us
        ),
        Err(e) => eprintln!("bench: failed to write {}: {e}", path.display()),
    }
}
