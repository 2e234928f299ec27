//! The traced run's instruments: benchmark-owned spans, a kernel hook
//! timing the gaps between kernel events, and the `simtrace` counters
//! read after each traced cell.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use simcore::{KernelEvent, Sim};
use simtrace::{Layer, Tracer};

use crate::workloads::{Cell, Outcome};

/// One benchmark-owned span: host time around a call into the program.
struct BenchSpan {
    name: &'static str,
    parent: Option<usize>,
    cell: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends, then summarised.
pub struct SpanLog {
    origin: Instant,
    spans: RefCell<Vec<BenchSpan>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; `cell` is the id shared by every span of one cell.
    pub fn open(&self, name: &'static str, parent: Option<usize>, cell: Option<usize>) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(BenchSpan {
            name,
            parent,
            cell,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: usize,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, Some(parent), cell);
        let r = f();
        self.close(id);
        r
    }

    /// Per span name: count, total and self milliseconds, and the
    /// number of distinct cell ids, in first-seen order.
    pub fn summary(&self) -> String {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut rows: BTreeMap<&'static str, (u64, u64, u64, Vec<usize>)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_insert_with(|| {
                order.push(s.name);
                (0, 0, 0, Vec::new())
            });
            row.0 += 1;
            row.1 += dur;
            row.2 += dur.saturating_sub(child_ns[i]);
            if let Some(c) = s.cell {
                if !row.3.contains(&c) {
                    row.3.push(c);
                }
            }
        }
        let mut out = format!(
            "{:<12} {:>6} {:>6} {:>12} {:>12}\n",
            "span", "count", "cells", "total_ms", "self_ms"
        );
        for name in order {
            let (n, total, own, cells) = &rows[name];
            out.push_str(&format!(
                "{name:<12} {n:>6} {:>6} {:>12.3} {:>12.3}\n",
                cells.len(),
                *total as f64 / 1e6,
                *own as f64 / 1e6
            ));
        }
        out
    }
}

/// Host-time gaps between consecutive kernel-hook firings, in
/// nanoseconds: exact below 64 ns, then 64 buckets per power of two
/// (under 1.6 % relative error).
#[derive(Clone)]
pub struct GapHist {
    buckets: Vec<u64>,
}

const GAP_SUB_BITS: u32 = 6;
const GAP_SUB: u64 = 1 << GAP_SUB_BITS;

impl GapHist {
    pub fn new() -> GapHist {
        GapHist {
            buckets: vec![0; (GAP_SUB * (65 - u64::from(GAP_SUB_BITS))) as usize],
        }
    }

    fn bucket(ns: u64) -> usize {
        if ns < GAP_SUB {
            return ns as usize;
        }
        let e = 63 - ns.leading_zeros();
        let sub = (ns >> (e - GAP_SUB_BITS)) & (GAP_SUB - 1);
        (GAP_SUB * u64::from(e + 1 - GAP_SUB_BITS) + sub) as usize
    }

    /// Smallest value of the bucket after `b`.
    fn upper_ns(b: usize) -> u64 {
        let b = b as u64;
        if b < GAP_SUB {
            return b + 1;
        }
        let e = b / GAP_SUB + u64::from(GAP_SUB_BITS) - 1;
        let sub = b % GAP_SUB;
        (GAP_SUB + sub + 1) << (e - u64::from(GAP_SUB_BITS))
    }

    fn push(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
    }

    pub fn merge(&mut self, other: &GapHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Upper edge of the bucket holding quantile `p`, in microseconds.
    pub fn quantile_us(&self, p: f64) -> f64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::upper_ns(i) as f64 / 1e3;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Layer counts of one traced cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    pub wakes: u64,
    pub calls: u64,
    pub peak_live_tasks: u64,
    pub rate_updates: u64,
    pub flows: u64,
    pub store_ops: u64,
    pub starts_ok: u64,
    pub starts_failed: u64,
    pub ship_entries: u64,
}

/// What the kernel hook collects while a traced cell runs.
struct HookState {
    last: StdCell<Option<Instant>>,
    gaps: RefCell<GapHist>,
    peak_live: StdCell<usize>,
}

/// Run `cell` on `sim` with a `simtrace` tracer and the gap-timing
/// kernel hook installed; read the layer counts afterwards.
pub fn run_traced(cell: &Cell, sim: &Sim) -> (Outcome, LayerCounts, GapHist) {
    let tracer = Tracer::new(sim);
    let guard = tracer.install();
    let state = Rc::new(HookState {
        last: StdCell::new(None),
        gaps: RefCell::new(GapHist::new()),
        peak_live: StdCell::new(0),
    });
    let st = Rc::clone(&state);
    let hook = sim.add_kernel_hook(Rc::new(move |sim: &Sim, ev| {
        let now = Instant::now();
        if let Some(prev) = st.last.replace(Some(now)) {
            st.gaps
                .borrow_mut()
                .push(now.duration_since(prev).as_nanos() as u64);
        }
        if ev == KernelEvent::TaskSpawned {
            st.peak_live.set(st.peak_live.get().max(sim.live_tasks()));
        }
    }));
    let outcome = cell.run(sim);
    sim.remove_kernel_hook(hook);
    drop(guard);

    let counter = |name: &str| tracer.counter(name).max(0) as u64;
    let mut counts = LayerCounts {
        wakes: counter("kernel.wakes"),
        calls: counter("kernel.calls"),
        peak_live_tasks: state.peak_live.get() as u64,
        rate_updates: counter("net.rate_updates"),
        starts_ok: counter("fabric.starts_ok"),
        starts_failed: counter("fabric.starts_failed"),
        ship_entries: counter("geo.ship.entries"),
        ..LayerCounts::default()
    };
    for s in tracer.span_stats() {
        match s.layer {
            Layer::Net if s.kind == "net.flow" => counts.flows += s.count,
            Layer::Store
                if ["blob.", "table.", "queue."]
                    .iter()
                    .any(|p| s.kind.starts_with(p)) =>
            {
                counts.store_ops += s.count
            }
            _ => {}
        }
    }
    let gaps = state.gaps.borrow().clone();
    (outcome, counts, gaps)
}
