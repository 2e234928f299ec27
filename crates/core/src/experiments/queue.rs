//! Experiment FIG3 — queue operation scaling (paper §3.3, Fig 3).
//!
//! "For our queue test we use one queue that is shared among several
//! worker roles – from 1 to 192. We examine the scalability of three
//! queue storage operations: Add, Peek and Receive", with message sizes
//! 512 B–8 kB. Also reproduces the queue-length invariance check
//! (200 k vs 2 M messages).

use std::rc::Rc;

use azstore::{StorageAccountClient, StorageError, StorageStamp};
use simcore::combinators::join_all;
use simcore::prelude::*;
use simcore::report::{num, AsciiTable};
use simlab::{run_cells, CellCtx, RunOpts};

use super::mean;
use crate::CLIENT_COUNTS;

/// The three benchmarked queue operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueOp {
    /// Enqueue a message.
    Add,
    /// Read the head without state change.
    Peek,
    /// Dequeue with a visibility timeout.
    Receive,
}

impl QueueOp {
    /// All three, in the paper's order.
    pub const ALL: [QueueOp; 3] = [QueueOp::Add, QueueOp::Peek, QueueOp::Receive];
}

impl std::fmt::Display for QueueOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QueueOp::Add => "Add",
            QueueOp::Peek => "Peek",
            QueueOp::Receive => "Receive",
        })
    }
}

/// Configuration for the queue scaling experiment.
#[derive(Debug, Clone)]
pub struct QueueScalingConfig {
    /// Message size in bytes (paper: 512, 1 k, 4 k, 8 k; Fig 3 shows 512).
    pub message_bytes: f64,
    /// Client counts to sweep.
    pub client_counts: Vec<usize>,
    /// Operations per client per phase.
    pub ops_per_client: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for QueueScalingConfig {
    fn default() -> Self {
        QueueScalingConfig {
            message_bytes: 512.0,
            client_counts: CLIENT_COUNTS.to_vec(),
            ops_per_client: 200,
            seed: 0xF163,
        }
    }
}

impl QueueScalingConfig {
    /// Reduced op counts for quick runs.
    pub fn quick() -> Self {
        QueueScalingConfig {
            message_bytes: 512.0,
            client_counts: vec![1, 16, 64, 128, 192],
            ops_per_client: 40,
            seed: 0xF163,
        }
    }
}

/// One (op, clients) cell of the Fig 3 result.
#[derive(Debug, Clone, Copy)]
pub struct QueueScalingRow {
    /// Operation.
    pub op: QueueOp,
    /// Concurrent clients.
    pub clients: usize,
    /// Mean per-client successful ops/s.
    pub per_client_ops_s: f64,
    /// Service-side throughput (ops/s).
    pub aggregate_ops_s: f64,
    /// Successful ops.
    pub ok: u64,
    /// Failed ops (timeout/busy/other).
    pub failed: u64,
}

/// Full Fig 3 result at one message size.
#[derive(Debug, Clone)]
pub struct QueueScalingResult {
    /// Message size, bytes.
    pub message_bytes: f64,
    /// All cells.
    pub rows: Vec<QueueScalingRow>,
}

impl QueueScalingResult {
    /// Cell lookup.
    pub fn at(&self, op: QueueOp, clients: usize) -> Option<&QueueScalingRow> {
        self.rows
            .iter()
            .find(|r| r.op == op && r.clients == clients)
    }

    /// Client count with the highest aggregate for `op`.
    pub fn peak_clients(&self, op: QueueOp) -> usize {
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

    /// Render the Fig 3 data as a table.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "op",
            "clients",
            "ops/s per client",
            "aggregate ops/s",
            "ok",
            "failed",
        ])
        .with_title(format!(
            "Fig 3 — average per-client queue performance ({} B messages)",
            self.message_bytes
        ));
        for r in &self.rows {
            t.row(vec![
                r.op.to_string(),
                r.clients.to_string(),
                num(r.per_client_ops_s, 2),
                num(r.aggregate_ops_s, 1),
                r.ok.to_string(),
                r.failed.to_string(),
            ]);
        }
        t.render()
    }
}

/// Run one (op, clients) phase.
fn run_phase(
    cfg: &QueueScalingConfig,
    op: QueueOp,
    clients: usize,
    ctx: &CellCtx,
) -> QueueScalingRow {
    let seed = cfg.seed ^ ((clients as u64) << 24) ^ (op as u64) << 40;
    ctx.with_sim(seed, |sim| one_phase_on(sim, op, clients, cfg, ctx))
}

fn one_phase_on(
    sim: &Sim,
    op: QueueOp,
    clients: usize,
    cfg: &QueueScalingConfig,
    ctx: &CellCtx,
) -> QueueScalingRow {
    let stamp = StorageStamp::standalone(sim, super::stamp_config(ctx));
    // Peek/Receive phases need a populated queue.
    if matches!(op, QueueOp::Peek | QueueOp::Receive) {
        stamp.queue_service().seed_messages(
            "bench",
            clients * cfg.ops_per_client * 2,
            cfg.message_bytes,
        );
    }
    let accounts: Vec<Rc<StorageAccountClient>> = (0..clients)
        .map(|_| Rc::new(stamp.attach_small_client()))
        .collect();
    let s = sim.clone();
    let (msg, k) = (cfg.message_bytes, cfg.ops_per_client);
    let h = sim.spawn(async move {
        let t0 = s.now();
        let futs: Vec<_> = accounts
            .iter()
            .map(|acct| {
                let acct = Rc::clone(acct);
                let s = s.clone();
                async move {
                    let mut ok = 0u64;
                    let mut failed = 0u64;
                    let start = s.now();
                    for i in 0..k {
                        let res: Result<(), StorageError> = match op {
                            QueueOp::Add => acct
                                .queue
                                .add("bench", format!("m{i}"), msg)
                                .await
                                .map(|_| ()),
                            QueueOp::Peek => acct.queue.peek("bench").await.map(|_| ()),
                            QueueOp::Receive => {
                                acct.queue.receive_default("bench").await.map(|_| ())
                            }
                        };
                        match res {
                            Ok(()) => ok += 1,
                            Err(_) => failed += 1,
                        }
                    }
                    (ok, failed, (s.now() - start).as_secs_f64())
                }
            })
            .collect();
        let per_client = join_all(futs).await;
        let makespan = (s.now() - t0).as_secs_f64();
        (per_client, makespan)
    });
    sim.run();
    let (per_client, makespan) = h.try_take().expect("phase finished");
    let rates: Vec<f64> = per_client
        .iter()
        .map(|(ok, _, el)| if *el > 0.0 { *ok as f64 / el } else { 0.0 })
        .collect();
    let ok: u64 = per_client.iter().map(|(ok, _, _)| ok).sum();
    let failed: u64 = per_client.iter().map(|(_, f, _)| f).sum();
    QueueScalingRow {
        op,
        clients,
        per_client_ops_s: mean(&rates),
        aggregate_ops_s: if makespan > 0.0 {
            ok as f64 / makespan
        } else {
            0.0
        },
        ok,
        failed,
    }
}

/// Run the full Fig 3 experiment, one cell per (op, clients) phase in
/// paper op order. Returns the result and the traced cell's summary,
/// if any.
pub fn run(cfg: &QueueScalingConfig, opts: &RunOpts) -> (QueueScalingResult, Option<String>) {
    let points: Vec<(QueueOp, usize)> = QueueOp::ALL
        .iter()
        .flat_map(|op| cfg.client_counts.iter().map(move |c| (*op, *c)))
        .collect();
    let out = run_cells(points.len(), opts, |i, ctx| {
        let (op, clients) = points[i];
        run_phase(cfg, op, clients, ctx)
    });
    let result = QueueScalingResult {
        message_bytes: cfg.message_bytes,
        rows: out.cells,
    };
    (result, out.trace_summary)
}

/// Shape similarity of two per-client curves for `op` (1.0 = identical
/// after normalizing by each curve's first point).
pub fn curve_similarity(a: &QueueScalingResult, b: &QueueScalingResult, op: QueueOp) -> f64 {
    let curve = |r: &QueueScalingResult| -> Vec<f64> {
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

/// One arm of the §3.3 queue-length invariance check: the per-client
/// Receive rate (ops/s) on a queue preloaded with `n_msgs` messages.
pub fn length_invariance_at(seed: u64, n_msgs: usize, ctx: &CellCtx) -> f64 {
    ctx.with_sim(seed, |sim| {
        let stamp = StorageStamp::standalone(sim, super::stamp_config(ctx));
        stamp.queue_service().seed_messages("big", n_msgs, 512.0);
        let acct = stamp.attach_small_client();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let t0 = s.now();
            let k = 100u64;
            let mut got = 0u64;
            // A faulted receive doesn't count; cap attempts so a fault
            // plan can't stall the cell forever.
            for _ in 0..k * 10 {
                if got == k {
                    break;
                }
                if let Ok(Some(_)) = acct.queue.receive_default("big").await {
                    got += 1;
                }
            }
            got as f64 / (s.now() - t0).as_secs_f64()
        });
        sim.run();
        h.try_take().unwrap()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(cfg: QueueScalingConfig) -> QueueScalingResult {
        run(&cfg, &RunOpts::serial()).0
    }

    fn shape_result() -> QueueScalingResult {
        sweep(QueueScalingConfig {
            message_bytes: 512.0,
            client_counts: vec![1, 16, 32, 64, 128, 192],
            ops_per_client: 60,
            seed: 5,
        })
    }

    /// Fig 3 anchors: Add/Receive aggregates peak at 64 clients near
    /// 569/424 ops/s; Peek is far faster and still rising at 192.
    #[test]
    fn fig3_anchor_points_hold() {
        let r = shape_result();
        let add_peak = r.peak_clients(QueueOp::Add);
        assert!(
            (32..=128).contains(&add_peak),
            "add peak at {add_peak} (paper: 64)"
        );
        let recv_peak = r.peak_clients(QueueOp::Receive);
        assert!(
            (32..=128).contains(&recv_peak),
            "receive peak at {recv_peak} (paper: 64)"
        );
        let add64 = r.at(QueueOp::Add, 64).unwrap().aggregate_ops_s;
        assert!(
            (420.0..700.0).contains(&add64),
            "add@64 = {add64} (paper 569)"
        );
        let recv64 = r.at(QueueOp::Receive, 64).unwrap().aggregate_ops_s;
        assert!(
            (300.0..550.0).contains(&recv64),
            "receive@64 = {recv64} (paper 424)"
        );
        // Peek: service-side throughput still rising from 128 to 192.
        let peek128 = r.at(QueueOp::Peek, 128).unwrap().aggregate_ops_s;
        let peek192 = r.at(QueueOp::Peek, 192).unwrap().aggregate_ops_s;
        assert!(
            peek192 > peek128,
            "peek should still rise: {peek128} -> {peek192}"
        );
        assert!(
            (2700.0..4000.0).contains(&peek128),
            "peek@128 = {peek128} (paper 3392)"
        );
        assert!(
            (3100.0..4600.0).contains(&peek192),
            "peek@192 = {peek192} (paper 3878)"
        );
        // Peek beats Add/Receive everywhere (no replication sync).
        for c in [1usize, 64, 192] {
            let p = r.at(QueueOp::Peek, c).unwrap().per_client_ops_s;
            let a = r.at(QueueOp::Add, c).unwrap().per_client_ops_s;
            assert!(p > a, "peek ({p}) !> add ({a}) at {c}");
        }
    }

    /// §6.1's per-writer bands: 15–20 ops/s with ≤16 writers, >10 with
    /// ≤32 writers.
    #[test]
    fn per_writer_bands_hold() {
        let r = shape_result();
        for c in [1usize, 16] {
            let add = r.at(QueueOp::Add, c).unwrap().per_client_ops_s;
            assert!((13.0..22.0).contains(&add), "add per-client at {c} = {add}");
        }
        let add32 = r.at(QueueOp::Add, 32).unwrap().per_client_ops_s;
        assert!(add32 > 10.0, "add per-client at 32 = {add32}");
    }

    #[test]
    fn queue_length_invariance_holds() {
        // 200 k vs 2 M messages, scaled by 0.05.
        let msgs = [10_000, 100_000];
        let rates = run_cells(2, &RunOpts::serial(), |i, ctx| {
            length_invariance_at(3, msgs[i], ctx)
        })
        .cells;
        let ratio = rates[1] / rates[0];
        assert!((0.85..1.18).contains(&ratio), "ratio={ratio}");
    }

    /// §3.3: "the shape of the performance curve for each message size
    /// is very similar".
    #[test]
    fn message_sizes_share_curve_shapes() {
        let base = QueueScalingConfig {
            message_bytes: 512.0,
            client_counts: vec![1, 16, 64, 128],
            ops_per_client: 40,
            seed: 17,
        };
        let results: Vec<_> = [512.0, 1024.0, 4096.0, 8192.0]
            .iter()
            .map(|&b| {
                sweep(QueueScalingConfig {
                    message_bytes: b,
                    ..base.clone()
                })
            })
            .collect();
        for op in QueueOp::ALL {
            for pair in results.windows(2) {
                let sim = curve_similarity(&pair[0], &pair[1], op);
                assert!(
                    sim > 0.8,
                    "{op}: {} B vs {} B shapes diverge (similarity {sim:.2})",
                    pair[0].message_bytes,
                    pair[1].message_bytes
                );
            }
        }
    }

    #[test]
    fn render_mentions_all_ops() {
        for (clients, ops_per_client) in [(2, 5), (32, 20)] {
            let r = sweep(QueueScalingConfig {
                message_bytes: 512.0,
                client_counts: vec![clients],
                ops_per_client,
                seed: 1,
            });
            assert_eq!(r.rows.len(), QueueOp::ALL.len());
            let s = r.render();
            for op in QueueOp::ALL {
                assert!(s.contains(&op.to_string()));
            }
        }
    }
}
