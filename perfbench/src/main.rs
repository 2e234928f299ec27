//! perfbench — the simulator's host-cost benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <blob_knee|elastic_diurnal|geo_reads_writes> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats the workload's set-up (configs, arrival schedules,
//! stamp builds) before its first cell and after every round, and
//! reports the median as `setup_s`. It runs rounds of cells through
//! `simlab::run_cells` on one thread until `--seconds` have passed, and
//! checks every cell's outputs. With `--trace 0` it reports the
//! end-to-end metrics: per round, the median over rounds of each
//! variant's cell, summed over the round's variants. With `--trace 1`
//! every cell also runs a second time with the `simtrace` tracer and a
//! kernel hook installed, and the run reports the per-layer metrics. The last stdout line is one JSON
//! object; the lines before it print every metric with its unit and
//! sample count. See `perfbench/DESIGN.md` for the workload choice and
//! the predictions each per-layer metric serves.

mod alloc;
mod reference;
mod trace;
mod workloads;

use std::time::Instant;

use simlab::{run_cells, RunOpts};

use alloc::Usage;
use trace::{GapHist, LayerCounts, SpanLog};
use workloads::{Bench, Cell, Outcome};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up repetitions (at least this many, for at least this many
/// seconds) before the first cell and after each round; `setup_s` is
/// the median repetition.
const SETUP_FIRST: (usize, f64) = (5, 0.1);
const SETUP_BETWEEN: (usize, f64) = (1, 0.02);
/// Cap on one batch, for workloads whose set-up takes microseconds.
const SETUP_MAX_REPS: usize = 10_000;

const USAGE: &str = "usage: perfbench --workload <blob_knee|elastic_diurnal|geo_reads_writes> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// On-CPU seconds of the calling thread so far.
fn thread_cpu_s() -> f64 {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = s
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// One cell as measured on the thread that ran it.
struct Measured {
    outcome: Outcome,
    wall_s: f64,
    cpu_s: f64,
    usage: Usage,
    events: u64,
    tasks: u64,
}

/// One cell run through `simlab::run_cells`, untraced.
struct CellRun {
    m: Measured,
    /// `run_cells` wall time around the cell.
    outer_s: f64,
}

fn run_untraced(cell: &Cell) -> CellRun {
    let t = Instant::now();
    let mut out = run_cells(1, &RunOpts::serial(), |_, ctx| {
        let cpu0 = thread_cpu_s();
        let t0 = Instant::now();
        let mark = alloc::mark();
        let (outcome, events, tasks) = ctx.with_sim(cell.seed, |sim| {
            let o = cell.run(sim);
            (o, sim.events_fired(), sim.tasks_spawned())
        });
        let usage = alloc::since(mark);
        let wall_s = t0.elapsed().as_secs_f64();
        Measured {
            outcome,
            wall_s,
            cpu_s: thread_cpu_s() - cpu0,
            usage,
            events,
            tasks,
        }
    });
    let outer_s = t.elapsed().as_secs_f64();
    CellRun {
        m: out.cells.pop().expect("run_cells returns its one cell"),
        outer_s,
    }
}

/// The traced twin of a cell: on-CPU seconds, outcome and layer counts.
fn run_twin(cell: &Cell) -> (f64, Outcome, LayerCounts, GapHist) {
    let mut out = run_cells(1, &RunOpts::serial(), |_, ctx| {
        let cpu0 = thread_cpu_s();
        let (o, counts, gaps) = ctx.with_sim(cell.seed, |sim| trace::run_traced(cell, sim));
        (thread_cpu_s() - cpu0, o, counts, gaps)
    });
    out.cells.pop().expect("run_cells returns its one cell")
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set-up timings of one repetition.
struct Setup {
    total_s: f64,
    schedule_s: f64,
    stamps_s: f64,
}

/// Build the first round's configs, draw their arrival schedules and
/// build their stamps — everything a run needs before its first cell.
fn set_up(bench: Bench, seed: u64, spans: &SpanLog, parent: usize) -> Setup {
    let t = Instant::now();
    let (mut schedule_s, mut stamps_s) = (0.0, 0.0);
    for v in 0..bench.round_len() {
        let cell = bench.cell(seed, 0, v);
        let t1 = Instant::now();
        std::hint::black_box(spans.time("schedule", parent, None, || cell.schedule()));
        let t2 = Instant::now();
        spans.time("stamp_build", parent, None, || cell.build_stamps());
        schedule_s += (t2 - t1).as_secs_f64();
        stamps_s += t2.elapsed().as_secs_f64();
    }
    Setup {
        total_s: t.elapsed().as_secs_f64(),
        schedule_s,
        stamps_s,
    }
}

/// One timed cell: its untraced run and, in a traced run, the traced
/// twin's on-CPU seconds and layer counts.
struct Sample {
    ops: u64,
    run: CellRun,
    traced: Option<(f64, LayerCounts)>,
}

/// For each variant, the median over rounds of `f`. A median per
/// variant keeps one cell slowed by a busy host from moving a figure.
fn variant_medians(rounds: &[Vec<Sample>], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    (0..rounds[0].len())
        .map(|v| median(rounds.iter().map(|r| f(&r[v])).collect()))
        .collect()
}

/// A figure per round: the variant medians of `f`, summed.
fn per_round(rounds: &[Vec<Sample>], f: impl Fn(&Sample) -> f64) -> f64 {
    variant_medians(rounds, f).iter().sum()
}

/// Sum of `f` over round 0, whose cells every run of a seed repeats.
fn round0(rounds: &[Vec<Sample>], f: impl Fn(&Sample) -> u64) -> f64 {
    rounds[0].iter().map(f).sum::<u64>() as f64
}

/// Correctness bookkeeping: cells checked and cells that failed.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn cell(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                println!("CHECK FAILED {label}: {p}");
            }
        }
    }
}

/// Problems with one timed cell's outcome: broken invariants, and a
/// digest that disagrees with the stored reference (at the reference
/// seed) or equals it (at any other seed).
fn outcome_problems(cell: &Cell, round: usize, run_seed: u64, o: &Outcome) -> Vec<String> {
    let mut p: Vec<String> = o.violation.iter().cloned().collect();
    let stored = reference::digest(cell.bench, cell.variant);
    if run_seed == reference::REF_SEED && round == 0 {
        match stored {
            Some(d) if d == o.digest => {}
            Some(d) => p.push(format!(
                "digest {:016x} != stored reference {d:016x}",
                o.digest
            )),
            None => p.push(format!(
                "no stored reference digest (got {:016x})",
                o.digest
            )),
        }
    } else if stored == Some(o.digest) {
        p.push(format!(
            "digest {:016x} equals the reference seed's: the digest ignores the inputs",
            o.digest
        ));
    }
    p
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Repeat set-up at least `min_reps` times and for at least `min_s`
/// seconds.
fn set_up_batch(
    bench: Bench,
    seed: u64,
    spans: &SpanLog,
    parent: usize,
    (min_reps, min_s): (usize, f64),
    out: &mut Vec<Setup>,
) {
    let span = spans.open("setup", Some(parent), None);
    let t = Instant::now();
    let mut reps = 0;
    while reps < min_reps || (t.elapsed().as_secs_f64() < min_s && reps < SETUP_MAX_REPS) {
        out.push(set_up(bench, seed, spans, span));
        reps += 1;
    }
    spans.close(span);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let bench = args.bench;
    let spans = SpanLog::new();
    let root = spans.open("workload", None, None);

    // Set-up before the first cell (its first repetition also fills any
    // lazy state), then again after every round, so that the median
    // samples host speed over the whole run.
    let mut setups: Vec<Setup> = Vec::new();
    set_up_batch(bench, args.seed, &spans, root, SETUP_FIRST, &mut setups);

    // Timed rounds until the time budget is spent (at least one).
    let mut verdict = Verdict::default();
    let mut rounds: Vec<Vec<Sample>> = Vec::new();
    let mut gaps = GapHist::new();
    let timed = Instant::now();
    while rounds.is_empty() || timed.elapsed().as_secs_f64() < args.seconds {
        let r = rounds.len();
        let mut round = Vec::new();
        for v in 0..bench.round_len() {
            let cell = bench.cell(args.seed, r, v);
            let id = r * bench.round_len() + v;
            let cell_span = spans.open("cell", Some(root), Some(id));
            let ops = spans.time("schedule", cell_span, Some(id), || cell.schedule());
            if args.trace {
                spans.time("stamp_build", cell_span, Some(id), || cell.build_stamps());
            }
            let run = spans.time("run", cell_span, Some(id), || run_untraced(&cell));
            let twin = args
                .trace
                .then(|| spans.time("run_traced", cell_span, Some(id), || run_twin(&cell)));
            let merge = spans.open("merge", Some(cell_span), Some(id));
            let mut problems = outcome_problems(&cell, r, args.seed, &run.m.outcome);
            let traced = twin.map(|(cpu_s, o, counts, g)| {
                if o != run.m.outcome {
                    problems.push("tracing changed the simulated outcome".into());
                }
                gaps.merge(&g);
                (cpu_s, counts)
            });
            verdict.cell(&cell.label(), problems);
            if r == 0 {
                println!(
                    "cell {} digest {:016x} events {} tasks {} allocs {} peak_bytes {}",
                    cell.label(),
                    run.m.outcome.digest,
                    run.m.events,
                    run.m.tasks,
                    run.m.usage.allocs,
                    run.m.usage.peak_bytes
                );
            }
            round.push(Sample { ops, run, traced });
            spans.close(merge);
            spans.close(cell_span);
        }
        rounds.push(round);
        set_up_batch(bench, args.seed, &spans, root, SETUP_BETWEEN, &mut setups);
    }
    let measured_s = timed.elapsed().as_secs_f64();

    // Self-check: the first cell again must repeat its allocations,
    // peak heap, event and task counts and digest exactly.
    let first = &rounds[0][0].run.m;
    let cell0 = bench.cell(args.seed, 0, 0);
    let again = spans.time("self_check", root, None, || run_untraced(&cell0).m);
    let mut problems = Vec::new();
    for (what, a, b) in [
        ("allocations", first.usage.allocs, again.usage.allocs),
        (
            "peak heap bytes",
            first.usage.peak_bytes,
            again.usage.peak_bytes,
        ),
        ("events fired", first.events, again.events),
        ("tasks spawned", first.tasks, again.tasks),
        ("digest", first.outcome.digest, again.outcome.digest),
    ] {
        if a != b {
            problems.push(format!("repeat run changed {what}: {a} -> {b}"));
        }
    }
    verdict.cell(&format!("{} (repeat)", cell0.label()), problems);

    // Reference check, unless the timed cells already were the
    // reference cells.
    if args.seed != reference::REF_SEED {
        let v = (args.seed % bench.round_len() as u64) as usize;
        let cell = bench.cell(reference::REF_SEED, 0, v);
        let o = spans.time("ref_check", root, None, || run_untraced(&cell).m.outcome);
        let problems = outcome_problems(&cell, 0, reference::REF_SEED, &o);
        verdict.cell(&format!("{} (reference)", cell.label()), problems);
    }
    spans.close(root);

    let n = rounds.len();
    let setup_n = setups.len();
    let ops = per_round(&rounds, |c| c.ops as f64);
    let cpu_s = per_round(&rounds, |c| c.run.m.cpu_s);
    let peak_bytes = variant_medians(&rounds, |c| c.run.m.usage.peak_bytes as f64)
        .into_iter()
        .fold(0.0, f64::max);
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let e2e = vec![
        metric("wall_s", per_round(&rounds, |c| c.run.outer_s), "s", n),
        metric("cpu_s", cpu_s, "s", n),
        metric("us_per_sim_op", cpu_s * 1e6 / ops, "us", n),
        metric("peak_heap_mb", peak_bytes / 1e6, "MB", n),
        metric(
            "allocs_per_sim_op",
            per_round(&rounds, |c| c.run.m.usage.allocs as f64) / ops,
            "count",
            n,
        ),
        metric(
            "setup_s",
            median(setups.iter().map(|s| s.total_s).collect()),
            "s",
            setup_n,
        ),
    ];
    let cells_failed_frac = verdict.failed as f64 / verdict.attempted as f64;

    // Per-layer metrics; all zero-safe, since a workload may bypass a
    // layer entirely.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let counts = |c: &Sample| c.traced.map(|t| t.1).unwrap_or_default();
    let allocs0 = round0(&rounds, |c| c.run.m.usage.allocs);
    let events0 = round0(&rounds, |c| c.run.m.events);
    let flows0 = round0(&rounds, |c| counts(c).flows);
    let layer = vec![
        metric(
            "simlab.overhead_ms",
            per_round(&rounds, |c| (c.run.outer_s - c.run.m.wall_s) * 1e3),
            "ms",
            n,
        ),
        metric("simload.arrivals", round0(&rounds, |c| c.ops), "count", 1),
        metric(
            "simload.schedule_ms",
            median(setups.iter().map(|s| s.schedule_s * 1e3).collect()),
            "ms",
            setup_n,
        ),
        metric(
            "simload.peak_live_tasks",
            rounds[0]
                .iter()
                .map(|c| counts(c).peak_live_tasks)
                .max()
                .unwrap_or(0) as f64,
            "count",
            1,
        ),
        metric("simcore.events_fired", events0, "count", 1),
        metric(
            "simcore.tasks_spawned",
            round0(&rounds, |c| c.run.m.tasks),
            "count",
            1,
        ),
        metric(
            "simcore.wakes",
            round0(&rounds, |c| counts(c).wakes),
            "count",
            1,
        ),
        metric(
            "simcore.calls",
            round0(&rounds, |c| counts(c).calls),
            "count",
            1,
        ),
        metric(
            "simcore.us_per_event",
            ratio(cpu_s * 1e6, per_round(&rounds, |c| c.run.m.events as f64)),
            "us",
            n,
        ),
        metric(
            "simcore.allocs_per_event",
            ratio(allocs0, events0),
            "count",
            1,
        ),
        metric("simcore.event_gap_p50_us", gaps.quantile_us(0.5), "us", n),
        metric("simcore.event_gap_p99_us", gaps.quantile_us(0.99), "us", n),
        metric(
            "dcnet.rate_updates",
            round0(&rounds, |c| counts(c).rate_updates),
            "count",
            1,
        ),
        metric("dcnet.flows", flows0, "count", 1),
        metric(
            "dcnet.us_per_rate_update",
            ratio(
                cpu_s * 1e6,
                per_round(&rounds, |c| counts(c).rate_updates as f64),
            ),
            "us",
            n,
        ),
        metric("dcnet.allocs_per_flow", ratio(allocs0, flows0), "count", 1),
        metric(
            "azstore.ops",
            round0(&rounds, |c| counts(c).store_ops),
            "count",
            1,
        ),
        metric(
            "azstore.admit_shed",
            round0(&rounds, |c| c.run.m.outcome.admit_shed),
            "count",
            1,
        ),
        metric(
            "azstore.latch_shed",
            round0(&rounds, |c| c.run.m.outcome.latch_shed),
            "count",
            1,
        ),
        metric(
            "azstore.stamp_build_ms",
            median(setups.iter().map(|s| s.stamps_s * 1e3).collect()),
            "ms",
            setup_n,
        ),
        metric(
            "fabric.starts_ok",
            round0(&rounds, |c| counts(c).starts_ok),
            "count",
            1,
        ),
        metric(
            "fabric.starts_failed",
            round0(&rounds, |c| counts(c).starts_failed),
            "count",
            1,
        ),
        metric(
            "autoscale.scale_outs",
            round0(&rounds, |c| c.run.m.outcome.scale_outs),
            "count",
            1,
        ),
        metric(
            "autoscale.scale_ins",
            round0(&rounds, |c| c.run.m.outcome.scale_ins),
            "count",
            1,
        ),
        metric(
            "azgeo.ship_entries",
            round0(&rounds, |c| counts(c).ship_entries),
            "count",
            1,
        ),
        metric(
            "azroute.reads_primary",
            round0(&rounds, |c| c.run.m.outcome.reads_primary),
            "count",
            1,
        ),
        metric(
            "azroute.reads_secondary",
            round0(&rounds, |c| c.run.m.outcome.reads_secondary),
            "count",
            1,
        ),
        metric(
            "azroute.escalations",
            round0(&rounds, |c| c.run.m.outcome.escalations),
            "count",
            1,
        ),
        metric(
            "simtrace.overhead_ratio",
            ratio(per_round(&rounds, |c| c.traced.map_or(0.0, |t| t.0)), cpu_s),
            "ratio",
            n,
        ),
    ];

    println!(
        "workload {} seed {} trace {}: {} rounds of {} cells in {:.2} s",
        bench.name(),
        args.seed,
        args.trace as u8,
        n,
        bench.round_len(),
        measured_s
    );
    println!("end-to-end (per round: each variant's median cell, summed; setup_s: median set-up):");
    for m in &e2e {
        println!(
            "  {:<26} {:>14.6} {:<5} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<26} {:>14.6} {:<5} n={}",
        "cells_failed_frac", cells_failed_frac, "1", verdict.attempted
    );
    if args.trace {
        println!("per-layer (counts: round 0; timings: as above):");
        for m in &layer {
            println!(
                "  {:<26} {:>14.6} {:<5} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        print!("benchmark spans:\n{}", spans.summary());
    }

    let shown = if args.trace { &layer } else { &e2e };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        metrics.join(", ")
    );
}
