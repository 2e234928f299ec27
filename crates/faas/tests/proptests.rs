//! Property-based tests for the serverless layer: byte-identical
//! trace generation, three-way keepalive divergence on a fixed trace,
//! hybrid-histogram window bounds over arbitrary gap patterns, and the
//! Azure Functions CSV adapter over synthetic and damaged files.

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

/// A synthetic Azure Functions invocations file: one row per
/// `(app, counts)`, the app named `app{n}`, over `minutes` minutes.
fn azure_csv(minutes: usize, rows: &[(usize, Vec<u64>)]) -> String {
    let mut csv = String::from("HashOwner,HashApp,HashFunction,Trigger");
    for m in 1..=minutes {
        csv.push_str(&format!(",{m}"));
    }
    for (k, (app, counts)) in rows.iter().enumerate() {
        csv.push_str(&format!("\no{app},app{app},f{k},http"));
        for c in &counts[..minutes] {
            csv.push_str(&format!(",{c}"));
        }
    }
    csv.push('\n');
    csv
}

fn azure_rows() -> impl Strategy<Value = Vec<(usize, Vec<u64>)>> {
    prop::collection::vec((0usize..4, prop::collection::vec(0u64..6, 5)), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every per-minute count of a well-formed file becomes that many
    /// invocations of its app inside that minute; apps are numbered in
    /// order of first appearance and the schedule is sorted.
    #[test]
    fn azure_replay_accounts_for_every_count(minutes in 1usize..6, rows in azure_rows()) {
        let t = FaasTrace::from_azure_invocations_csv(&azure_csv(minutes, &rows), 1e9).unwrap();
        let mut order: Vec<usize> = Vec::new();
        for (app, _) in &rows {
            if !order.contains(app) {
                order.push(*app);
            }
        }
        prop_assert_eq!(t.apps.len(), order.len());
        let mut want = vec![vec![0u64; minutes]; order.len()];
        for (app, counts) in &rows {
            let id = order.iter().position(|a| a == app).unwrap();
            for (m, c) in counts[..minutes].iter().enumerate() {
                want[id][m] += c;
            }
        }
        let mut got = vec![vec![0u64; minutes]; order.len()];
        for inv in &t.invocations {
            got[inv.app][(inv.t_s / 60.0) as usize] += 1;
        }
        prop_assert_eq!(got, want);
        prop_assert!(t.invocations.windows(2).all(|w| w[0].t_s <= w[1].t_s));
    }

    /// A damaged row is an error, never a panic: a missing field, a
    /// count that is not a u64, or counts of one app and minute whose
    /// sum overflows u64.
    #[test]
    fn azure_replay_rejects_damaged_rows(
        minutes in 1usize..6,
        rows in azure_rows(),
        damage in 0usize..3,
        at in 0usize..1000,
    ) {
        let row = 1 + at % rows.len();
        let mut lines: Vec<String> = azure_csv(minutes, &rows).lines().map(str::to_string).collect();
        match damage {
            0 => {
                let cut = lines[row].rfind(',').unwrap();
                lines[row].truncate(cut);
            }
            1 => lines[row].push('x'),
            _ => {
                let big = format!(",{}", u64::MAX);
                let dup = lines[row].rsplit_once(',').unwrap().0.to_string() + &big;
                lines[row] = dup.clone();
                lines.push(dup);
            }
        }
        prop_assert!(FaasTrace::from_azure_invocations_csv(&lines.join("\n"), 1e9).is_err());
    }
}
