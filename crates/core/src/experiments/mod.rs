//! The paper's experiments, one module per table/figure.
//!
//! | Module | Paper artifact | Campaign |
//! |---|---|---|
//! | [`blob`]  | Fig 1 — blob bandwidth vs concurrency | `azlab run fig1` |
//! | [`table`] | Fig 2 — table ops vs concurrency | `azlab run fig2` |
//! | [`queue`] | Fig 3 — queue ops vs concurrency | `azlab run fig3` |
//! | [`vm`]    | Table 1 — VM lifecycle times | `azlab run table1` |
//! | [`tcp`]   | Figs 4 & 5 — TCP latency / bandwidth | `azlab run fig4`, `azlab run fig5` |
//!
//! (Table 2 and Fig 7 come from the `modis` crate's campaign.)
//!
//! Every experiment has one sweep, `run(cfg, opts)` (`tcp` has one per
//! figure): it builds the experiment's cell list, runs it through
//! [`simlab::run_cells`] under `opts`, and folds the cells into the
//! experiment's result, returned next to the traced cell's summary.
//! Library callers and tests pass [`simlab::RunOpts::serial`]; the
//! `azlab` campaigns pass their `--shards`/`--faults`/`--trace`
//! options, so both execute the exact same event sequences.

use azstore::{FaultProfile, StampConfig};
use simlab::CellCtx;

pub mod blob;
pub mod queue;
pub mod table;
pub mod tcp;
pub mod vm;

/// Stamp configuration for a cell: steady-state storage fault rates
/// come from the cell's fault plan (microbenchmarks are clean without
/// `--faults`, exactly the pre-simlab behaviour). Public so campaigns
/// outside this crate (the `simload` frontier) build their stamps the
/// same way.
pub fn stamp_config(ctx: &CellCtx) -> StampConfig {
    match ctx.fault_plan() {
        Some(plan) => StampConfig {
            faults: FaultProfile::from_plan(plan),
            ..StampConfig::default()
        },
        None => StampConfig::default(),
    }
}

/// Mean of a slice (0 for empty), summed in slice order.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
