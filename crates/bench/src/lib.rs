//! Campaign library and the `azlab` regeneration driver.
//!
//! The [`campaigns`] module holds every paper artifact as a library
//! function driven by the `simlab` sharded runner, listed once in
//! [`campaigns::CAMPAIGNS`]; the `azlab` binary is the driver:
//!
//! | Campaign | Artifact | Full-scale runtime (release, 1 core) |
//! |----------|----------|--------------------------------------|
//! | `fig1`   | Fig 1 — blob bandwidth vs concurrency | <1 s |
//! | `fig2`   | Fig 2 — table ops vs concurrency | ~25 s serial; sharded, its slowest cell |
//! | `fig3`   | Fig 3 — queue ops vs concurrency | ~3 s |
//! | `fig4`   | Fig 4 — TCP latency histogram | <1 s |
//! | `fig5`   | Fig 5 — TCP bandwidth histogram | ~23 s serial; sharded, its slowest cell |
//! | `table1` | Table 1 — VM lifecycle campaign (431 runs) | <1 s (one cell) |
//! | `modis`  | Table 2 + Fig 7 — ModisAzure campaign | ~3 min serial; scales toward 1/8th sharded |
//! | `frontier` | offered-load frontier sweeps | ~1 min at 4 shards |
//! | `shedding` | admission control past the knee | ~30 s |
//! | `elastic` | autoscaling vs the provisioning tax | ~90 s |
//! | `faas` | serverless keepalive frontier | ~10 s (18 cells, ~60 k invocations each) |
//! | `geo` | multi-stamp scale-out, geo-replication, failover | ~20 s (16 cells, 4 stamps, 10⁴ clients) |
//! | `consistency` | region-aware read routing, staleness-vs-latency frontier | ~40 s (30 cells, 4 modes × 3 placements) |
//! | `ablations` | the DESIGN.md mechanism ablations | ~10 s |
//!
//! Run everything with `azlab run all [--quick] [--shards N]`, or one
//! campaign with e.g. `azlab run fig3` (`table2` and `fig7` are aliases
//! for `modis`, which emits both artifact sets).
//!
//! All targets accept `--quick` for a scaled-down run (artifacts then
//! land in `results/quick/`), `--shards N` to spread cells over worker
//! threads (the merged output is byte-identical for any `N` — the
//! determinism contract in DESIGN.md §6), `--faults <preset>` to run
//! every cell under a `simfault` plan (`none`, `paper`,
//! `crash-partition`), and `--trace <path>` to dump a Chrome
//! trace-event JSON of the campaign's representative cell. Fault and
//! trace installation happen on whichever worker thread runs each cell,
//! so the flags apply to sharded sweeps exactly as to serial runs. The
//! `consistency` campaign additionally accepts `--tau SECONDS` to
//! override the clean-cell bounded-staleness bound (τ ≤ 0 is rejected
//! at parse with exit 2).

use std::fs;
use std::path::PathBuf;

pub mod campaigns;

/// Directory full-scale regeneration outputs land in (`results/` at the
/// workspace root).
pub fn results_dir() -> PathBuf {
    results_dir_for(false)
}

/// Results directory for a run: `results/` at full scale,
/// `results/quick/` under `--quick` (so quick runs never clobber the
/// checked-in full-scale artifacts).
pub fn results_dir_for(quick: bool) -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    if quick {
        dir = dir.join("quick");
    }
    let _ = fs::create_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dirs_are_creatable() {
        assert!(results_dir().ends_with("results"));
        assert!(results_dir_for(true).ends_with("results/quick"));
    }

    #[test]
    fn every_target_resolves() {
        let resolve = |t: &str| campaigns::canonical(t).map(|c| c.name);
        let mut seen = std::collections::BTreeSet::new();
        for c in campaigns::CAMPAIGNS {
            assert!(seen.insert(c.name), "campaign {} listed twice", c.name);
            assert_eq!(resolve(c.name), Some(c.name));
        }
        assert_eq!(resolve("table2"), Some("modis"));
        assert_eq!(resolve("fig7"), Some("modis"));
        assert_eq!(resolve("fig9"), None);
    }
}
