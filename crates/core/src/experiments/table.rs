//! Experiment FIG2 — table operation scaling (paper §3.2, Fig 2).
//!
//! Protocol, verbatim from the paper: each client **inserts** 500 new
//! entities into the same table partition; then each client **queries**
//! the same entity 500 times by partition + row key; then each client
//! **updates** the same entity 100 times with unconditional updates;
//! finally each client **deletes** the same 500 entities it inserted.
//! Entity sizes 1, 4, 16 and 64 kB; 1–192 concurrent clients.

use std::rc::Rc;

use azstore::{Entity, StorageAccountClient, StorageError, StorageStamp};
use simcore::combinators::join_all;
use simcore::prelude::*;
use simcore::report::{num, AsciiTable};
use simlab::{run_cells, CellCtx, RunOpts};

use super::mean;
use crate::CLIENT_COUNTS;

/// The four benchmarked table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableOp {
    /// Insert new entities.
    Insert,
    /// Point query by keys.
    Query,
    /// Unconditional update of one shared entity.
    Update,
    /// Delete own entities.
    Delete,
}

impl TableOp {
    /// All four, in the paper's order.
    pub const ALL: [TableOp; 4] = [
        TableOp::Insert,
        TableOp::Query,
        TableOp::Update,
        TableOp::Delete,
    ];
}

impl std::fmt::Display for TableOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TableOp::Insert => "Insert",
            TableOp::Query => "Query",
            TableOp::Update => "Update",
            TableOp::Delete => "Delete",
        })
    }
}

/// Configuration for the table scaling experiment.
#[derive(Debug, Clone)]
pub struct TableScalingConfig {
    /// Entity size in kB (paper: 1, 4, 16, 64; Fig 2 shows 4).
    pub entity_kb: usize,
    /// Client counts to sweep.
    pub client_counts: Vec<usize>,
    /// Inserts (and deletes) per client (paper: 500).
    pub inserts_per_client: usize,
    /// Point queries per client (paper: 500).
    pub queries_per_client: usize,
    /// Updates per client (paper: 100).
    pub updates_per_client: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TableScalingConfig {
    fn default() -> Self {
        TableScalingConfig {
            entity_kb: 4,
            client_counts: CLIENT_COUNTS.to_vec(),
            inserts_per_client: 500,
            queries_per_client: 500,
            updates_per_client: 100,
            seed: 0xF162,
        }
    }
}

impl TableScalingConfig {
    /// Reduced op counts for quick runs.
    pub fn quick() -> Self {
        TableScalingConfig {
            entity_kb: 4,
            client_counts: vec![1, 8, 64, 192],
            inserts_per_client: 40,
            queries_per_client: 40,
            updates_per_client: 20,
            seed: 0xF162,
        }
    }
}

/// Stats of one client over one phase.
#[derive(Debug, Clone, Copy, Default)]
struct ClientPhase {
    ok: u64,
    timeouts: u64,
    busy: u64,
    other_err: u64,
    elapsed_s: f64,
}

/// One (op, clients) cell of the Fig 2 result.
#[derive(Debug, Clone, Copy)]
pub struct TableScalingRow {
    /// Operation.
    pub op: TableOp,
    /// Concurrent clients.
    pub clients: usize,
    /// Mean per-client successful ops/s (the Fig 2 y-axis).
    pub per_client_ops_s: f64,
    /// Service-side throughput: total successful ops / phase makespan.
    pub aggregate_ops_s: f64,
    /// Successful operations.
    pub ok: u64,
    /// Operations that surfaced a timeout.
    pub timeouts: u64,
    /// Operations that surfaced ServerBusy after retries.
    pub busy: u64,
    /// Clients that completed the whole phase without a single failure
    /// (the paper's "only 89 clients successfully finished all 500").
    pub clients_fully_ok: usize,
}

/// Full Fig 2 result at one entity size.
#[derive(Debug, Clone)]
pub struct TableScalingResult {
    /// Entity size used, kB.
    pub entity_kb: usize,
    /// All cells (4 ops × swept client counts).
    pub rows: Vec<TableScalingRow>,
}

impl TableScalingResult {
    /// Cells executed: each yields one row per op.
    pub fn cells(&self) -> usize {
        self.rows.len() / TableOp::ALL.len()
    }

    /// Cell lookup.
    pub fn at(&self, op: TableOp, clients: usize) -> Option<&TableScalingRow> {
        self.rows
            .iter()
            .find(|r| r.op == op && r.clients == clients)
    }

    /// Client count with the highest aggregate throughput for `op`.
    pub fn peak_clients(&self, op: TableOp) -> usize {
        self.rows
            .iter()
            .filter(|r| r.op == op)
            .fold((0usize, 0.0f64), |best, r| {
                if r.aggregate_ops_s > best.1 {
                    (r.clients, r.aggregate_ops_s)
                } else {
                    best
                }
            })
            .0
    }

    /// Render the Fig 2 data as a table.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "op",
            "clients",
            "ops/s per client",
            "aggregate ops/s",
            "ok",
            "timeouts",
            "busy",
            "clients fully ok",
        ])
        .with_title(format!(
            "Fig 2 — average per-client table performance ({} kB entities)",
            self.entity_kb
        ));
        for r in &self.rows {
            t.row(vec![
                r.op.to_string(),
                r.clients.to_string(),
                num(r.per_client_ops_s, 2),
                num(r.aggregate_ops_s, 1),
                r.ok.to_string(),
                r.timeouts.to_string(),
                r.busy.to_string(),
                r.clients_fully_ok.to_string(),
            ]);
        }
        t.render()
    }
}

fn classify(e: &StorageError, cp: &mut ClientPhase) {
    match e {
        StorageError::Timeout => cp.timeouts += 1,
        StorageError::ServerBusy => cp.busy += 1,
        _ => cp.other_err += 1,
    }
}

struct PhaseOutcome {
    rowless: Vec<ClientPhase>,
    makespan_s: f64,
}

fn summarize(op: TableOp, clients: usize, out: &PhaseOutcome) -> TableScalingRow {
    let per_client: Vec<f64> = out
        .rowless
        .iter()
        .map(|c| {
            if c.elapsed_s > 0.0 {
                c.ok as f64 / c.elapsed_s
            } else {
                0.0
            }
        })
        .collect();
    let ok: u64 = out.rowless.iter().map(|c| c.ok).sum();
    TableScalingRow {
        op,
        clients,
        per_client_ops_s: mean(&per_client),
        aggregate_ops_s: if out.makespan_s > 0.0 {
            ok as f64 / out.makespan_s
        } else {
            0.0
        },
        ok,
        timeouts: out.rowless.iter().map(|c| c.timeouts).sum(),
        busy: out.rowless.iter().map(|c| c.busy).sum(),
        clients_fully_ok: out
            .rowless
            .iter()
            .filter(|c| c.timeouts + c.busy + c.other_err == 0)
            .count(),
    }
}

/// Run the whole four-phase protocol for one client count; returns the
/// four rows in paper order.
fn run_point(cfg: &TableScalingConfig, clients: usize, ctx: &CellCtx) -> Vec<TableScalingRow> {
    let seed = cfg.seed ^ ((clients as u64) << 20) ^ cfg.entity_kb as u64;
    ctx.with_sim(seed, |sim| one_point_on(sim, cfg, clients, ctx))
}

fn one_point_on(
    sim: &Sim,
    cfg: &TableScalingConfig,
    clients: usize,
    ctx: &CellCtx,
) -> Vec<TableScalingRow> {
    let stamp = StorageStamp::standalone(sim, super::stamp_config(ctx));
    // The shared entity targeted by the query and update phases.
    stamp
        .table_service()
        .seed("bench", Entity::benchmark("part0", "shared", cfg.entity_kb));
    let accounts: Vec<Rc<StorageAccountClient>> = (0..clients)
        .map(|_| Rc::new(stamp.attach_small_client()))
        .collect();

    let kb = cfg.entity_kb;
    let (n_ins, n_q, n_u) = (
        cfg.inserts_per_client,
        cfg.queries_per_client,
        cfg.updates_per_client,
    );

    let s = sim.clone();
    let accounts2 = accounts.clone();
    let coordinator = sim.spawn(async move {
        let mut outcomes = Vec::with_capacity(4);
        // ---- Insert phase ----
        let t0 = s.now();
        let futs: Vec<_> = accounts2
            .iter()
            .enumerate()
            .map(|(ci, acct)| {
                let acct = Rc::clone(acct);
                let s = s.clone();
                async move {
                    let mut cp = ClientPhase::default();
                    let start = s.now();
                    for k in 0..n_ins {
                        let e = Entity::benchmark("part0", &format!("c{ci}-r{k}"), kb);
                        match acct.table.insert("bench", e).await {
                            Ok(()) => cp.ok += 1,
                            // The paper's clients aborted the phase on a
                            // timeout exception ("only 89 clients
                            // successfully finished all 500").
                            Err(e @ StorageError::Timeout) => {
                                classify(&e, &mut cp);
                                break;
                            }
                            Err(e) => classify(&e, &mut cp),
                        }
                    }
                    cp.elapsed_s = (s.now() - start).as_secs_f64();
                    cp
                }
            })
            .collect();
        let rowless = join_all(futs).await;
        outcomes.push(PhaseOutcome {
            rowless,
            makespan_s: (s.now() - t0).as_secs_f64(),
        });

        // ---- Query phase ----
        let t0 = s.now();
        let futs: Vec<_> = accounts2
            .iter()
            .map(|acct| {
                let acct = Rc::clone(acct);
                let s = s.clone();
                async move {
                    let mut cp = ClientPhase::default();
                    let start = s.now();
                    for _ in 0..n_q {
                        match acct.table.query_point("bench", "part0", "shared").await {
                            Ok(_) => cp.ok += 1,
                            Err(e) => classify(&e, &mut cp),
                        }
                    }
                    cp.elapsed_s = (s.now() - start).as_secs_f64();
                    cp
                }
            })
            .collect();
        let rowless = join_all(futs).await;
        outcomes.push(PhaseOutcome {
            rowless,
            makespan_s: (s.now() - t0).as_secs_f64(),
        });

        // ---- Update phase (everyone updates the same entity) ----
        let t0 = s.now();
        let futs: Vec<_> = accounts2
            .iter()
            .map(|acct| {
                let acct = Rc::clone(acct);
                let s = s.clone();
                async move {
                    let mut cp = ClientPhase::default();
                    let start = s.now();
                    for _ in 0..n_u {
                        let e = Entity::benchmark("part0", "shared", kb);
                        match acct.table.update("bench", e).await {
                            Ok(()) => cp.ok += 1,
                            Err(e) => classify(&e, &mut cp),
                        }
                    }
                    cp.elapsed_s = (s.now() - start).as_secs_f64();
                    cp
                }
            })
            .collect();
        let rowless = join_all(futs).await;
        outcomes.push(PhaseOutcome {
            rowless,
            makespan_s: (s.now() - t0).as_secs_f64(),
        });

        // ---- Delete phase (each client deletes its own entities) ----
        let t0 = s.now();
        let futs: Vec<_> = accounts2
            .iter()
            .enumerate()
            .map(|(ci, acct)| {
                let acct = Rc::clone(acct);
                let s = s.clone();
                async move {
                    let mut cp = ClientPhase::default();
                    let start = s.now();
                    for k in 0..n_ins {
                        match acct
                            .table
                            .delete("bench", "part0", &format!("c{ci}-r{k}"))
                            .await
                        {
                            Ok(()) => cp.ok += 1,
                            // An entity whose insert failed leaves a
                            // NotFound here; don't double-count it as an
                            // infrastructure error.
                            Err(StorageError::NotFound) => {}
                            Err(e) => classify(&e, &mut cp),
                        }
                    }
                    cp.elapsed_s = (s.now() - start).as_secs_f64();
                    cp
                }
            })
            .collect();
        let rowless = join_all(futs).await;
        outcomes.push(PhaseOutcome {
            rowless,
            makespan_s: (s.now() - t0).as_secs_f64(),
        });
        outcomes
    });
    sim.run();
    let outcomes = coordinator.try_take().expect("coordinator finished");
    TableOp::ALL
        .iter()
        .zip(outcomes.iter())
        .map(|(op, out)| summarize(*op, clients, out))
        .collect()
}

/// Run the full Fig 2 experiment at the configured entity size, one
/// cell per swept client count. Returns the result and the traced
/// cell's summary, if any.
pub fn run(cfg: &TableScalingConfig, opts: &RunOpts) -> (TableScalingResult, Option<String>) {
    let out = run_cells(cfg.client_counts.len(), opts, |i, ctx| {
        run_point(cfg, cfg.client_counts[i], ctx)
    });
    let result = TableScalingResult {
        entity_kb: cfg.entity_kb,
        rows: out.cells.into_iter().flatten().collect(),
    };
    (result, out.trace_summary)
}

/// Shape similarity of two per-client curves for `op`: each curve is
/// normalized by its own first point, then 1 − mean absolute relative
/// difference is returned (1.0 = identical shapes, ≤0 = unrelated).
pub fn curve_similarity(a: &TableScalingResult, b: &TableScalingResult, op: TableOp) -> f64 {
    let curve = |r: &TableScalingResult| -> Vec<f64> {
        let mut pts: Vec<(usize, f64)> = r
            .rows
            .iter()
            .filter(|x| x.op == op)
            .map(|x| (x.clients, x.per_client_ops_s))
            .collect();
        pts.sort_by_key(|(c, _)| *c);
        let first = pts.first().map(|(_, v)| *v).unwrap_or(1.0).max(1e-12);
        pts.into_iter().map(|(_, v)| v / first).collect()
    };
    let (ca, cb) = (curve(a), curve(b));
    if ca.len() != cb.len() || ca.is_empty() {
        return 0.0;
    }
    let mean_rel_diff = ca
        .iter()
        .zip(&cb)
        .map(|(x, y)| (x - y).abs() / x.max(*y).max(1e-12))
        .sum::<f64>()
        / ca.len() as f64;
    1.0 - mean_rel_diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(cfg: TableScalingConfig) -> TableScalingResult {
        run(&cfg, &RunOpts::serial()).0
    }

    fn shape_result() -> TableScalingResult {
        sweep(TableScalingConfig {
            entity_kb: 4,
            client_counts: vec![1, 8, 32, 128, 192],
            inserts_per_client: 60,
            queries_per_client: 60,
            updates_per_client: 40,
            seed: 7,
        })
    }

    /// Fig 2 shape anchors: per-client rates decline; Insert and Query
    /// aggregates are still rising at 192 (unsaturated); Update peaks
    /// near 8; Delete peaks near 128.
    #[test]
    fn fig2_shape_anchors_hold() {
        let r = shape_result();
        for op in TableOp::ALL {
            let one = r.at(op, 1).unwrap().per_client_ops_s;
            let many = r.at(op, 192).unwrap().per_client_ops_s;
            assert!(
                many < one,
                "{op}: per-client should decline ({one} -> {many})"
            );
        }
        for op in [TableOp::Insert, TableOp::Query] {
            let a128 = r.at(op, 128).unwrap().aggregate_ops_s;
            let a192 = r.at(op, 192).unwrap().aggregate_ops_s;
            assert!(
                a192 > a128 * 0.95,
                "{op}: server should not be saturated at 192 ({a128} -> {a192})"
            );
        }
        let upd_peak = r.peak_clients(TableOp::Update);
        assert!(
            (4..=32).contains(&upd_peak),
            "update peak at {upd_peak} clients (paper: 8)"
        );
        let del_peak = r.peak_clients(TableOp::Delete);
        assert!(
            (64..=192).contains(&del_peak),
            "delete peak at {del_peak} clients (paper: 128)"
        );
        // Update declines drastically: 192-client aggregate well below peak.
        let upd192 = r.at(TableOp::Update, 192).unwrap().aggregate_ops_s;
        let upd_peak_v = r
            .rows
            .iter()
            .filter(|x| x.op == TableOp::Update)
            .map(|x| x.aggregate_ops_s)
            .fold(0.0f64, f64::max);
        assert!(
            upd192 < upd_peak_v * 0.7,
            "update did not decline: {upd192} vs {upd_peak_v}"
        );
    }

    /// §3.2's 64 kB cliff: at 128+ clients a large fraction of clients
    /// fail to finish all inserts with timeout-class errors, while the
    /// 4 kB runs stay clean.
    #[test]
    fn large_entities_at_high_concurrency_hit_timeouts() {
        let big = sweep(TableScalingConfig {
            entity_kb: 64,
            client_counts: vec![128],
            inserts_per_client: 60,
            queries_per_client: 0,
            updates_per_client: 0,
            seed: 11,
        });
        let row = big.at(TableOp::Insert, 128).unwrap();
        let failed_clients = 128 - row.clients_fully_ok;
        assert!(
            failed_clients >= 25,
            "expected a large failed-client fraction at 64kB/128, got {failed_clients}"
        );
        assert!(row.timeouts + row.busy > 0);

        let small = sweep(TableScalingConfig {
            entity_kb: 4,
            client_counts: vec![128],
            inserts_per_client: 60,
            queries_per_client: 0,
            updates_per_client: 0,
            seed: 11,
        });
        let srow = small.at(TableOp::Insert, 128).unwrap();
        assert!(
            srow.clients_fully_ok >= 120,
            "4 kB inserts should stay clean, fully_ok={}",
            srow.clients_fully_ok
        );
    }

    /// §3.2: "the shape of the performance curves for different entity
    /// sizes are similar" (apart from the 64 kB timeout exceptions).
    #[test]
    fn small_entity_sizes_share_curve_shapes() {
        let base = TableScalingConfig {
            entity_kb: 4,
            client_counts: vec![1, 8, 32, 128],
            inserts_per_client: 40,
            queries_per_client: 40,
            updates_per_client: 0,
            seed: 13,
        };
        let results: Vec<_> = [1, 4, 16]
            .iter()
            .map(|&kb| {
                sweep(TableScalingConfig {
                    entity_kb: kb,
                    ..base.clone()
                })
            })
            .collect();
        for op in [TableOp::Insert, TableOp::Query] {
            for pair in results.windows(2) {
                let sim = curve_similarity(&pair[0], &pair[1], op);
                assert!(
                    sim > 0.75,
                    "{op}: {} kB vs {} kB shapes diverge (similarity {sim:.2})",
                    pair[0].entity_kb,
                    pair[1].entity_kb
                );
            }
        }
    }

    #[test]
    fn render_mentions_all_ops() {
        for (clients, inserts, queries, updates, seed) in [(2, 5, 5, 5, 3), (32, 20, 20, 10, 1)] {
            let r = sweep(TableScalingConfig {
                entity_kb: 4,
                client_counts: vec![clients],
                inserts_per_client: inserts,
                queries_per_client: queries,
                updates_per_client: updates,
                seed,
            });
            assert_eq!(r.rows.len(), TableOp::ALL.len());
            let s = r.render();
            for op in TableOp::ALL {
                assert!(s.contains(&op.to_string()), "missing {op} in render");
            }
        }
    }
}
