//! Telemetry: the "robust logging and monitoring infrastructure" the
//! paper recommends building early (§6.3). Every task execution is
//! logged with its outcome class; aggregations produce Table 2 and
//! Fig 7.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simcore::prelude::*;
use simcore::report::{num, pct, AsciiTable};
use simlab::StreamSummary;

use crate::tasks::TaskKind;

/// Outcome classes — the Table 2 error taxonomy plus the user-code
/// bucket the paper mentions but omits from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Task completed.
    Success,
    /// Unclassified failure (user code / environment), 11.30 %.
    UnknownFailure,
    /// Create-if-absent product write conflicted, 5.98 %.
    BlobAlreadyExists,
    /// Execution left no log (all source-download executions), 4.57 %.
    UnknownNullLog,
    /// Could not fetch source data from the external feed, 4.10 %.
    DownloadSourceFailed,
    /// Transport-level connection failure, 0.29 %.
    ConnectionFailure,
    /// Killed by the watchdog at 4× the historical mean, 0.17 %.
    VmExecutionTimeout,
    /// A storage operation timed out, 0.14 %.
    OperationTimeout,
    /// Downloaded payload failed verification, 0.10 %.
    CorruptBlobRead,
    /// Storage shed load, 0.04 %.
    ServerBusy,
    /// Read aborted mid-transfer, 0.02 %.
    BlobReadFail,
    /// Source blob permanently absent, 0.02 %.
    NonExistentSourceBlob,
    /// "Unable to read input file" (20 occurrences).
    UnableToReadInput,
    /// "Bad image format" (15).
    BadImageFormat,
    /// "Transport error" (12).
    TransportError,
    /// "Internal storage client error" (10).
    InternalStorageError,
    /// "Out of disk space" (7).
    OutOfDiskSpace,
    /// User-MATLAB classes the paper's Table 2 omits (≈ 7.8 %).
    UserCodeOther,
}

impl Outcome {
    /// All classes, in Table 2 row order (UserCodeOther last). Derived
    /// from [`crate::taxonomy::TABLE`], the single source of truth.
    pub const ALL: [Outcome; crate::taxonomy::CLASSES] = crate::taxonomy::all_outcomes();

    /// Paper label (from the taxonomy table).
    pub fn label(&self) -> &'static str {
        crate::taxonomy::class(*self).label
    }

    /// Whether a failed execution of this class should be retried
    /// (infrastructure-transient classes are; user-code and
    /// bookkeeping classes are not).
    pub fn retryable(&self) -> bool {
        crate::taxonomy::class(*self).retryable
    }

    /// Whether the execution counts as having *finished* the task (the
    /// product is usable even though the class is logged as an error).
    pub fn completes_task(&self) -> bool {
        crate::taxonomy::class(*self).completes_task
    }
}

struct TelemetryState {
    by_outcome: HashMap<Outcome, u64>,
    by_kind: HashMap<TaskKind, u64>,
    durations: HashMap<TaskKind, StreamSummary>,
    daily_timeouts: DailySeries,
    distinct_tasks: u64,
    abandoned_tasks: u64,
}

/// Shared telemetry sink; clone freely.
#[derive(Clone)]
pub struct Telemetry {
    st: Rc<RefCell<TelemetryState>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Empty sink.
    pub fn new() -> Self {
        Telemetry {
            st: Rc::new(RefCell::new(TelemetryState {
                by_outcome: HashMap::new(),
                by_kind: HashMap::new(),
                durations: HashMap::new(),
                daily_timeouts: DailySeries::daily(),
                distinct_tasks: 0,
                abandoned_tasks: 0,
            })),
        }
    }

    /// Record one task execution.
    pub fn record_execution(
        &self,
        at: SimTime,
        kind: TaskKind,
        outcome: Outcome,
        duration: SimDuration,
    ) {
        let mut st = self.st.borrow_mut();
        *st.by_outcome.entry(outcome).or_insert(0) += 1;
        *st.by_kind.entry(kind).or_insert(0) += 1;
        if outcome == Outcome::Success {
            st.durations
                .entry(kind)
                .or_default()
                .push(duration.as_secs_f64());
        }
        st.daily_timeouts
            .record(at, outcome == Outcome::VmExecutionTimeout);
    }

    /// Register a distinct task (for the executions-vs-tasks ratio).
    pub fn record_distinct_task(&self) {
        self.st.borrow_mut().distinct_tasks += 1;
    }

    /// Register a task abandoned after exhausting retries.
    pub fn record_abandoned(&self) {
        self.st.borrow_mut().abandoned_tasks += 1;
    }

    /// Historical mean successful duration for a task kind, if enough
    /// samples exist (used by the watchdog).
    pub fn mean_duration(&self, kind: TaskKind, min_samples: u64) -> Option<f64> {
        let st = self.st.borrow();
        st.durations.get(&kind).and_then(|s| {
            if s.count() >= min_samples {
                Some(s.mean())
            } else {
                None
            }
        })
    }

    /// Executions of one outcome class.
    pub fn count(&self, outcome: Outcome) -> u64 {
        *self.st.borrow().by_outcome.get(&outcome).unwrap_or(&0)
    }

    /// Executions of one task kind.
    pub fn kind_count(&self, kind: TaskKind) -> u64 {
        *self.st.borrow().by_kind.get(&kind).unwrap_or(&0)
    }

    /// Total executions.
    pub fn total_executions(&self) -> u64 {
        self.st.borrow().by_outcome.values().sum()
    }

    /// Distinct tasks registered.
    pub fn distinct_tasks(&self) -> u64 {
        self.st.borrow().distinct_tasks
    }

    /// Tasks abandoned after the retry limit.
    pub fn abandoned_tasks(&self) -> u64 {
        self.st.borrow().abandoned_tasks
    }

    /// Fraction of executions in one class.
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        let total = self.total_executions();
        if total == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / total as f64
        }
    }

    /// Fig 7 rows: (day, executions, timeouts, fraction).
    pub fn daily_timeout_rows(&self) -> Vec<(usize, u64, u64, f64)> {
        self.st.borrow().daily_timeouts.rows()
    }

    /// Largest daily timeout fraction (the "up to ~16 %" headline).
    pub fn max_daily_timeout_fraction(&self) -> f64 {
        self.st.borrow().daily_timeouts.max_fraction()
    }

    /// Overall VM-timeout fraction (paper: 0.17 %).
    pub fn overall_timeout_fraction(&self) -> f64 {
        self.fraction(Outcome::VmExecutionTimeout)
    }

    /// Freeze the sink into a mergeable, `Send` snapshot (the sharded
    /// campaign runner merges per-segment snapshots with day offsets).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let st = self.st.borrow();
        let daily = st.daily_timeouts.rows();
        TelemetrySnapshot {
            outcomes: Outcome::ALL
                .iter()
                .map(|o| *st.by_outcome.get(o).unwrap_or(&0))
                .collect(),
            kinds: TaskKind::ALL
                .iter()
                .map(|k| *st.by_kind.get(k).unwrap_or(&0))
                .collect(),
            durations: TaskKind::ALL
                .iter()
                .map(|k| st.durations.get(k).cloned().unwrap_or_default())
                .collect(),
            daily_totals: daily.iter().map(|&(_, t, _, _)| t).collect(),
            daily_hits: daily.iter().map(|&(_, _, h, _)| h).collect(),
            distinct_tasks: st.distinct_tasks,
            abandoned_tasks: st.abandoned_tasks,
        }
    }

    /// Render the Table 2 reproduction.
    pub fn render_table2(&self) -> String {
        self.snapshot().render_table2()
    }

    /// Render the Fig 7 reproduction.
    pub fn render_fig7(&self) -> String {
        self.snapshot().render_fig7()
    }
}

fn outcome_index(o: Outcome) -> usize {
    Outcome::ALL.iter().position(|&x| x == o).expect("in ALL")
}

fn kind_index(k: TaskKind) -> usize {
    TaskKind::ALL.iter().position(|&x| x == k).expect("in ALL")
}

/// A frozen, owned view of a [`Telemetry`] sink: plain vectors in
/// `Outcome::ALL` / `TaskKind::ALL` order plus per-day counters, so it
/// is `Send + Clone` and two snapshots merge exactly (counts add,
/// duration summaries merge via Welford + log₂ histograms). The sharded
/// Table 2 / Fig 7 campaign runs each day-segment as its own cell and
/// folds the snapshots back together with [`merge_offset`]
/// (TelemetrySnapshot::merge_offset).
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    outcomes: Vec<u64>,
    kinds: Vec<u64>,
    durations: Vec<StreamSummary>,
    daily_totals: Vec<u64>,
    daily_hits: Vec<u64>,
    distinct_tasks: u64,
    abandoned_tasks: u64,
}

impl TelemetrySnapshot {
    /// Executions of one outcome class.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.outcomes
            .get(outcome_index(outcome))
            .copied()
            .unwrap_or(0)
    }

    /// Executions of one task kind.
    pub fn kind_count(&self, kind: TaskKind) -> u64 {
        self.kinds.get(kind_index(kind)).copied().unwrap_or(0)
    }

    /// Total executions.
    pub fn total_executions(&self) -> u64 {
        self.outcomes.iter().sum()
    }

    /// Distinct tasks registered.
    pub fn distinct_tasks(&self) -> u64 {
        self.distinct_tasks
    }

    /// Tasks abandoned after the retry limit.
    pub fn abandoned_tasks(&self) -> u64 {
        self.abandoned_tasks
    }

    /// Fraction of executions in one class.
    pub fn fraction(&self, outcome: Outcome) -> f64 {
        let total = self.total_executions();
        if total == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / total as f64
        }
    }

    /// Successful-execution duration summary for one task kind.
    pub fn duration_summary(&self, kind: TaskKind) -> &StreamSummary {
        &self.durations[kind_index(kind)]
    }

    /// Fig 7 rows: (day, executions, timeouts, fraction).
    pub fn daily_timeout_rows(&self) -> Vec<(usize, u64, u64, f64)> {
        self.daily_totals
            .iter()
            .zip(&self.daily_hits)
            .enumerate()
            .map(|(i, (&t, &h))| {
                let frac = if t == 0 { 0.0 } else { h as f64 / t as f64 };
                (i, t, h, frac)
            })
            .collect()
    }

    /// Largest daily timeout fraction (the "up to ~16 %" headline).
    pub fn max_daily_timeout_fraction(&self) -> f64 {
        self.daily_timeout_rows()
            .into_iter()
            .map(|(_, _, _, f)| f)
            .fold(0.0, f64::max)
    }

    /// Overall VM-timeout fraction (paper: 0.17 %).
    pub fn overall_timeout_fraction(&self) -> f64 {
        self.fraction(Outcome::VmExecutionTimeout)
    }

    /// Merge `other` into `self`, with `other`'s day 0 landing on
    /// global day `day_offset`. Counts add; duration summaries merge
    /// exactly (Welford + log₂ histogram), so a segmented campaign
    /// reports the same aggregates regardless of segmentation.
    pub fn merge_offset(&mut self, other: &TelemetrySnapshot, day_offset: usize) {
        fn add_into(dst: &mut Vec<u64>, src: &[u64], offset: usize) {
            if dst.len() < offset + src.len() {
                dst.resize(offset + src.len(), 0);
            }
            for (i, &v) in src.iter().enumerate() {
                dst[offset + i] += v;
            }
        }
        add_into(&mut self.outcomes, &other.outcomes, 0);
        add_into(&mut self.kinds, &other.kinds, 0);
        if self.durations.len() < other.durations.len() {
            self.durations
                .resize_with(other.durations.len(), StreamSummary::default);
        }
        for (d, o) in self.durations.iter_mut().zip(&other.durations) {
            d.merge(o);
        }
        add_into(&mut self.daily_totals, &other.daily_totals, day_offset);
        add_into(&mut self.daily_hits, &other.daily_hits, day_offset);
        self.distinct_tasks += other.distinct_tasks;
        self.abandoned_tasks += other.abandoned_tasks;
    }

    /// Render the Table 2 reproduction.
    pub fn render_table2(&self) -> String {
        let total = self.total_executions().max(1);
        let mut t = AsciiTable::new(vec![
            "ModisAzure task classification",
            "Task execution count",
            "Percentage of total",
        ])
        .with_title("Table 2 — ModisAzure task breakdown and selected failure types");
        for kind in TaskKind::ALL {
            let c = self.kind_count(kind);
            t.row(vec![
                kind.to_string(),
                c.to_string(),
                pct(c as f64 / total as f64),
            ]);
        }
        t.row(vec![
            "Total task executions".to_string(),
            total.to_string(),
            pct(1.0),
        ]);
        let mut err = AsciiTable::new(vec!["Selected types of task errors", "Count", "Percentage"]);
        let mut rows: Vec<(Outcome, u64)> =
            Outcome::ALL.iter().map(|o| (*o, self.count(*o))).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        for (o, c) in rows {
            if c == 0 {
                continue;
            }
            err.row(vec![
                o.label().to_string(),
                c.to_string(),
                pct(c as f64 / total as f64),
            ]);
        }
        format!("{}\n{}", t.render(), err.render())
    }

    /// Render the Fig 7 reproduction.
    pub fn render_fig7(&self) -> String {
        let mut t = AsciiTable::new(vec!["day", "executions", "vm timeouts", "% of day"])
            .with_title("Fig 7 — percent of task executions with VM timeout over time");
        for (day, total, hits, frac) in self.daily_timeout_rows() {
            t.row(vec![
                day.to_string(),
                total.to_string(),
                hits.to_string(),
                num(frac * 100.0, 2),
            ]);
        }
        t.render()
    }

    /// Render per-kind successful-execution duration percentiles from
    /// the mergeable log₂ histograms (a product the pre-simlab pipeline
    /// could not compute without holding every sample in memory).
    pub fn render_duration_percentiles(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "task kind",
            "successes",
            "mean (s)",
            "p50 (s)",
            "p90 (s)",
            "p99 (s)",
        ])
        .with_title("Successful task execution durations (streamed log2 percentiles)");
        for kind in TaskKind::ALL {
            let s = self.duration_summary(kind);
            t.row(vec![
                kind.to_string(),
                s.count().to_string(),
                num(s.mean(), 1),
                num(s.quantile(0.50), 1),
                num(s.quantile(0.90), 1),
                num(s.quantile(0.99), 1),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_fractions() {
        let t = Telemetry::new();
        let d = SimDuration::from_mins(6);
        for i in 0..10 {
            t.record_execution(
                SimTime::ZERO + SimDuration::from_hours(i),
                TaskKind::Reprojection,
                if i < 7 {
                    Outcome::Success
                } else {
                    Outcome::UnknownFailure
                },
                d,
            );
        }
        assert_eq!(t.total_executions(), 10);
        assert_eq!(t.count(Outcome::Success), 7);
        assert!((t.fraction(Outcome::UnknownFailure) - 0.3).abs() < 1e-12);
        assert_eq!(t.kind_count(TaskKind::Reprojection), 10);
    }

    #[test]
    fn mean_duration_needs_min_samples() {
        let t = Telemetry::new();
        for _ in 0..5 {
            t.record_execution(
                SimTime::ZERO,
                TaskKind::Reduction,
                Outcome::Success,
                SimDuration::from_mins(4),
            );
        }
        assert!(t.mean_duration(TaskKind::Reduction, 10).is_none());
        assert!(t.mean_duration(TaskKind::Reduction, 5).is_some());
        // Failures don't pollute the duration history.
        t.record_execution(
            SimTime::ZERO,
            TaskKind::Reduction,
            Outcome::VmExecutionTimeout,
            SimDuration::from_mins(40),
        );
        let m = t.mean_duration(TaskKind::Reduction, 5).unwrap();
        assert!((m - 240.0).abs() < 1e-9);
    }

    #[test]
    fn daily_timeouts_aggregate_by_day() {
        let t = Telemetry::new();
        let day = SimDuration::from_days(1);
        t.record_execution(SimTime::ZERO, TaskKind::Reprojection, Outcome::Success, day);
        t.record_execution(
            SimTime::ZERO + day * 3,
            TaskKind::Reprojection,
            Outcome::VmExecutionTimeout,
            day,
        );
        let rows = t.daily_timeout_rows();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[3].3, 1.0);
        assert_eq!(t.max_daily_timeout_fraction(), 1.0);
        assert!((t.overall_timeout_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn retryability_and_completion_classes() {
        assert!(Outcome::VmExecutionTimeout.retryable());
        assert!(!Outcome::UnknownFailure.retryable());
        assert!(Outcome::BlobAlreadyExists.completes_task());
        assert!(!Outcome::DownloadSourceFailed.completes_task());
        assert!(Outcome::UnknownNullLog.completes_task());
    }

    #[test]
    fn snapshot_matches_sink_and_renders_identically() {
        let t = Telemetry::new();
        let d = SimDuration::from_mins(6);
        for i in 0..20 {
            t.record_execution(
                SimTime::ZERO + SimDuration::from_hours(i * 5),
                if i % 3 == 0 {
                    TaskKind::Reduction
                } else {
                    TaskKind::Reprojection
                },
                match i % 5 {
                    0 => Outcome::UnknownFailure,
                    1 => Outcome::VmExecutionTimeout,
                    _ => Outcome::Success,
                },
                d * (i + 1),
            );
        }
        t.record_distinct_task();
        t.record_abandoned();
        let s = t.snapshot();
        assert_eq!(s.total_executions(), t.total_executions());
        assert_eq!(s.count(Outcome::Success), t.count(Outcome::Success));
        assert_eq!(
            s.kind_count(TaskKind::Reduction),
            t.kind_count(TaskKind::Reduction)
        );
        assert_eq!(s.daily_timeout_rows(), t.daily_timeout_rows());
        assert_eq!(s.distinct_tasks(), 1);
        assert_eq!(s.abandoned_tasks(), 1);
        assert_eq!(s.render_table2(), t.render_table2());
        assert_eq!(s.render_fig7(), t.render_fig7());
    }

    /// Recording days 0..a into one sink and days a..b into another,
    /// then merging the snapshots with an offset, must equal recording
    /// everything into one sink — the segmentation contract the sharded
    /// Table 2 / Fig 7 campaign relies on.
    #[test]
    fn segmented_snapshots_merge_to_the_whole() {
        let record = |t: &Telemetry, day: usize, i: u64| {
            t.record_execution(
                SimTime::ZERO + SimDuration::from_days(day as u64) + SimDuration::from_hours(i),
                TaskKind::Reprojection,
                if i.is_multiple_of(7) {
                    Outcome::VmExecutionTimeout
                } else {
                    Outcome::Success
                },
                SimDuration::from_mins(3 + i),
            );
        };
        let whole = Telemetry::new();
        let seg_a = Telemetry::new();
        let seg_b = Telemetry::new();
        for day in 0..6usize {
            for i in 0..10u64 {
                record(&whole, day, i);
                if day < 4 {
                    record(&seg_a, day, i);
                } else {
                    // Segments simulate their own local day 0.
                    record(&seg_b, day - 4, i);
                }
            }
        }
        let mut merged = seg_a.snapshot();
        merged.merge_offset(&seg_b.snapshot(), 4);
        let want = whole.snapshot();
        assert_eq!(merged.render_table2(), want.render_table2());
        assert_eq!(merged.render_fig7(), want.render_fig7());
        assert_eq!(
            merged.render_duration_percentiles(),
            want.render_duration_percentiles()
        );
        assert_eq!(merged.total_executions(), want.total_executions());
        let (m, w) = (
            merged.duration_summary(TaskKind::Reprojection),
            want.duration_summary(TaskKind::Reprojection),
        );
        assert_eq!(m.count(), w.count());
        assert!((m.mean() - w.mean()).abs() < 1e-9);
        assert!((m.std() - w.std()).abs() < 1e-9);
        assert_eq!(m.min(), w.min());
        assert_eq!(m.max(), w.max());
    }

    #[test]
    fn render_contains_paper_labels() {
        let t = Telemetry::new();
        t.record_execution(
            SimTime::ZERO,
            TaskKind::SourceDownload,
            Outcome::UnknownNullLog,
            SimDuration::from_mins(2),
        );
        let s = t.render_table2();
        assert!(s.contains("Source download"));
        assert!(s.contains("Unknown - null log"));
        assert!(s.contains("Total task executions"));
        assert!(t.render_fig7().contains("Fig 7"));
    }
}
