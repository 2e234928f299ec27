//! Property-based tests for the serverless layer: byte-identical
//! trace generation, three-way keepalive divergence on a fixed trace,
//! and hybrid-histogram window bounds over arbitrary gap patterns.

use faas::policy::{PolicyKind, FIXED_WINDOW_S, MAX_KEEPALIVE_S, MIN_PREWARM_S, MIN_SAMPLES};
use faas::{run_faas, FaasConfig, FaasResult, FaasTrace, TraceShape};
use proptest::prelude::*;
use simcore::prelude::*;

fn any_shape() -> impl Strategy<Value = TraceShape> {
    prop_oneof![
        Just(TraceShape::wild()),
        Just(TraceShape::diurnal()),
        Just(TraceShape::bursty()),
    ]
}

fn tiny_cell(policy: PolicyKind, seed: u64) -> FaasResult {
    let sim = Sim::new(seed);
    run_faas(
        &sim,
        &FaasConfig {
            apps: 12,
            horizon_s: 1800.0,
            hosts: 8,
            mem_capacity_mb: 3072.0,
            ..FaasConfig::quick(TraceShape::wild(), policy)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same shape: the synthetic trace reproduces byte for
    /// byte (schedule digest over raw f64 bits), independent of how
    /// many times the generator has run in the process.
    #[test]
    fn trace_generation_is_byte_deterministic(
        seed in 0u64..10_000,
        shape in any_shape(),
        napps in 4usize..64,
    ) {
        let gen = |_: ()| {
            let mut rng = SimRng::for_stream(seed, "faas.trace");
            FaasTrace::synth(&mut rng, &shape, napps, 1800.0)
        };
        let a = gen(());
        let b = gen(());
        prop_assert_eq!(a.schedule_digest(), b.schedule_digest());
        prop_assert_eq!(a.apps.len(), b.apps.len());
        for (x, y) in a.apps.iter().zip(b.apps.iter()) {
            prop_assert_eq!(x.rate_ops_s.to_bits(), y.rate_ops_s.to_bits());
            prop_assert_eq!(x.mem_mb.to_bits(), y.mem_mb.to_bits());
        }
    }

    /// On the byte-identical demand (same seed draws the trace before
    /// any fabric randomness), the three keepalive policies must leave
    /// three pairwise-distinct eviction logs — the subsystem's
    /// divergence witness.
    #[test]
    fn keepalive_policies_diverge_three_ways(seed in 0u64..500) {
        let none = tiny_cell(PolicyKind::NoKeepalive, seed);
        let fixed = tiny_cell(PolicyKind::FixedWindow, seed);
        let hybrid = tiny_cell(PolicyKind::Hybrid, seed);
        // Identical demand...
        prop_assert_eq!(none.invocations, fixed.invocations);
        prop_assert_eq!(fixed.invocations, hybrid.invocations);
        // ...three distinct eviction behaviours.
        prop_assert_ne!(&none.eviction_log, &fixed.eviction_log);
        prop_assert_ne!(&fixed.eviction_log, &hybrid.eviction_log);
        prop_assert_ne!(&none.eviction_log, &hybrid.eviction_log);
        // And the frontier endpoints hold: keeping nothing is at least
        // as cold and at most as wasteful as the fixed window.
        prop_assert!(none.cold_fraction() >= fixed.cold_fraction());
        prop_assert!(none.wasted_mb_s <= fixed.wasted_mb_s);
    }

    /// The hybrid histogram's emitted windows stay inside hard bounds
    /// for any gap pattern: keepalive never exceeds the cap, a prewarm
    /// is never scheduled before `MIN_PREWARM_S`, and the window pair
    /// always leaves a nonnegative residency span.
    #[test]
    fn hybrid_windows_respect_bounds(
        gaps in prop::collection::vec(1.0f64..20_000.0, 1..80),
    ) {
        let mut policy = PolicyKind::Hybrid.build(1);
        policy.observe_arrival(0, None);
        let mut seen = 0u64;
        for g in &gaps {
            policy.observe_arrival(0, Some(*g));
            seen += 1;
            let w = policy.windows(0);
            prop_assert!(w.keepalive_s >= 0.0);
            prop_assert!(
                w.keepalive_s <= MAX_KEEPALIVE_S.max(FIXED_WINDOW_S),
                "keepalive {} above cap", w.keepalive_s
            );
            if let Some(p) = w.prewarm_s {
                prop_assert!(p >= MIN_PREWARM_S, "prewarm {p} below floor");
                prop_assert!(p.is_finite() && w.keepalive_s.is_finite());
            }
            if seen < MIN_SAMPLES {
                // Not enough evidence: the fallback fixed window.
                prop_assert_eq!(w.keepalive_s.to_bits(), FIXED_WINDOW_S.to_bits());
                prop_assert!(w.prewarm_s.is_none());
            }
        }
    }
}
