//! Property-based tests for the kernel's data structures and time
//! arithmetic.

use proptest::prelude::*;
use simcore::prelude::*;
use simcore::stats::Histogram;
use simcore::time::NANOS_PER_SEC;

proptest! {
    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in prop::collection::vec(-1.0e6f64..1.0e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        if xs.len() > 1 {
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((s.std() - var.sqrt()).abs() <= 1e-4 * (1.0 + var.sqrt()));
        }
        prop_assert_eq!(s.count(), xs.len() as u64);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
    }

    /// Merging partitioned accumulators equals one pass over the union.
    #[test]
    fn online_stats_merge_is_partition_invariant(
        xs in prop::collection::vec(-1.0e4f64..1.0e4, 1..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.push(x);
            if i < split { a.push(x) } else { b.push(x) }
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.std() - whole.std()).abs() < 1e-6);
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentiles_are_monotone_and_bounded(
        xs in prop::collection::vec(-1.0e5f64..1.0e5, 1..150),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        let mut s = SampleSet::new();
        for &x in &xs {
            s.push(x);
        }
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let qlo = s.percentile(lo);
        let qhi = s.percentile(hi);
        prop_assert!(qlo <= qhi + 1e-9);
        prop_assert!(s.min() <= qlo + 1e-9);
        prop_assert!(qhi <= s.max() + 1e-9);
    }

    /// Every recorded sample lands in exactly one histogram bucket.
    #[test]
    fn histogram_conserves_mass(
        xs in prop::collection::vec(-50.0f64..150.0, 0..300),
        bins in 1usize..40,
    ) {
        let mut h = Histogram::new(0.0, 100.0, bins);
        for &x in &xs {
            h.push(x);
        }
        let in_bins: u64 = (0..bins).map(|i| h.count(i)).sum();
        prop_assert_eq!(in_bins + h.underflow() + h.overflow(), xs.len() as u64);
        prop_assert_eq!(h.total(), xs.len() as u64);
        // Cumulative fraction ends at (total - overflow) / total.
        if !xs.is_empty() {
            let last = h.cumulative().last().unwrap().2;
            let expect = (xs.len() as u64 - h.overflow()) as f64 / xs.len() as f64;
            prop_assert!((last - expect).abs() < 1e-9);
        }
    }

    /// Duration round trip through f64 seconds is accurate to a few ns
    /// per second of magnitude.
    #[test]
    fn duration_secs_roundtrip(ns in 0u64..(86_400 * NANOS_PER_SEC)) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let err = back.as_nanos().abs_diff(ns);
        prop_assert!(err <= 1 + ns / 1_000_000_000, "err={err}");
    }

    /// Time ordering survives adding a duration (monotonicity).
    #[test]
    fn time_addition_is_monotone(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
        let dd = SimDuration::from_nanos(d);
        if ta <= tb {
            prop_assert!(ta + dd <= tb + dd);
        }
    }

    /// The empirical distribution's quantile function is monotone and
    /// spans the knot range.
    #[test]
    fn empirical_quantile_monotone(
        mut points in prop::collection::vec(0.0f64..1000.0, 2..20),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        points.sort_by(|a, b| a.partial_cmp(b).unwrap());
        points.dedup();
        prop_assume!(points.len() >= 2);
        let n = points.len();
        let knots: Vec<(f64, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect();
        let d = Empirical::from_cdf(knots);
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        prop_assert!(d.quantile(lo) <= d.quantile(hi) + 1e-9);
        prop_assert!(d.quantile(1.0) <= points[n - 1] + 1e-9);
        prop_assert!(d.quantile(0.0) >= points[0] - 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine executes any batch of delayed tasks in deadline order
    /// and the clock finishes at the latest deadline.
    #[test]
    fn delays_fire_in_order(delays in prop::collection::vec(0u64..1_000_000, 1..50)) {
        let sim = Sim::new(42);
        let fired = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for &d in &delays {
            let (s, f) = (sim.clone(), fired.clone());
            sim.spawn(async move {
                s.delay(SimDuration::from_nanos(d)).await;
                f.borrow_mut().push(s.now().as_nanos());
            });
        }
        sim.run();
        let fired = fired.borrow();
        prop_assert_eq!(fired.len(), delays.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]), "out of order: {:?}", fired);
        let max = *delays.iter().max().unwrap();
        prop_assert_eq!(sim.now().as_nanos(), max);
    }

    /// A semaphore of arbitrary capacity never admits more than its
    /// permits, and everyone eventually gets through.
    #[test]
    fn semaphore_never_oversubscribes(cap in 1usize..8, tasks in 1usize..40) {
        let sim = Sim::new(7);
        let sem = Semaphore::new(cap);
        let active = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let peak = std::rc::Rc::new(std::cell::Cell::new(0usize));
        let done = std::rc::Rc::new(std::cell::Cell::new(0usize));
        for _ in 0..tasks {
            let (s, sm) = (sim.clone(), sem.clone());
            let (a, p, d) = (active.clone(), peak.clone(), done.clone());
            sim.spawn(async move {
                let _g = sm.acquire().await;
                a.set(a.get() + 1);
                p.set(p.get().max(a.get()));
                s.delay(SimDuration::from_micros(10)).await;
                a.set(a.get() - 1);
                d.set(d.get() + 1);
            });
        }
        sim.run();
        prop_assert!(peak.get() <= cap);
        prop_assert_eq!(done.get(), tasks);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An indexed stream is the stream of its formatted label, bit for
    /// bit, across small and full-width indices.
    #[test]
    fn indexed_stream_matches_formatted_label(
        seed in 0u64..=u64::MAX,
        prefix in "[a-z]{0,8}",
        index in prop_oneof![0u64..1000, 0u64..=u64::MAX],
    ) {
        let label = format!("{prefix}.{index}");
        let mut formatted = SimRng::for_stream(seed, &label);
        let mut indexed = SimRng::for_indexed_stream(seed, &format!("{prefix}."), index);
        for _ in 0..4 {
            prop_assert_eq!(formatted.f64().to_bits(), indexed.f64().to_bits(), "label {}", label);
        }
        let sim = Sim::new(seed);
        prop_assert_eq!(
            sim.rng(&label).f64().to_bits(),
            sim.rng_indexed(&format!("{prefix}."), index).f64().to_bits()
        );
    }
}
