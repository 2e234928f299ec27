//! Property-based tests for the max-min allocator: feasibility,
//! cap-respect, and bottleneck (Pareto) properties over random
//! topologies.

use proptest::prelude::*;

use dcnet::fluid::{max_min_rates, FlowSpec, MaxMin};
use dcnet::LinkModel;

/// Strategy: a random set of shared links and flows crossing them.
fn scenario() -> impl Strategy<Value = (Vec<LinkModel>, Vec<FlowSpec>)> {
    let links = prop::collection::vec(1.0f64..1000.0, 1..8).prop_map(|caps| {
        caps.into_iter()
            .map(|capacity| LinkModel::Shared { capacity })
            .collect::<Vec<_>>()
    });
    links.prop_flat_map(|links| {
        let nl = links.len();
        let flows = prop::collection::vec(
            (
                prop::option::of(1.0f64..500.0),
                prop::collection::btree_set(0..nl, 1..=nl.min(4)),
            ),
            1..20,
        )
        .prop_map(|fs| {
            fs.into_iter()
                .map(|(cap, links)| FlowSpec {
                    cap: cap.unwrap_or(f64::INFINITY),
                    links: links.into_iter().collect(),
                })
                .collect::<Vec<FlowSpec>>()
        });
        (Just(links), flows)
    })
}

proptest! {
    /// Feasibility: no link carries more than its capacity, no flow
    /// exceeds its own cap, and all rates are non-negative.
    #[test]
    fn allocation_is_feasible((links, flows) in scenario()) {
        let rates = max_min_rates(&links, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        for (f, &r) in flows.iter().zip(&rates) {
            prop_assert!(r >= 0.0);
            prop_assert!(r <= f.cap * (1.0 + 1e-9));
        }
        for (l, model) in links.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.links.contains(&l))
                .map(|(_, &r)| r)
                .sum();
            let n = flows.iter().filter(|f| f.links.contains(&l)).count();
            let cap = model.effective_capacity(n);
            prop_assert!(used <= cap * (1.0 + 1e-6), "link {l}: {used} > {cap}");
        }
    }

    /// Bottleneck property (max-min / Pareto): every flow is either at
    /// its own cap or crosses at least one saturated link — no flow can
    /// be unilaterally sped up.
    #[test]
    fn every_flow_hits_a_bottleneck((links, flows) in scenario()) {
        let rates = max_min_rates(&links, &flows);
        let used: Vec<f64> = (0..links.len())
            .map(|l| {
                flows
                    .iter()
                    .zip(&rates)
                    .filter(|(f, _)| f.links.contains(&l))
                    .map(|(_, &r)| r)
                    .sum()
            })
            .collect();
        for (f, &r) in flows.iter().zip(&rates) {
            let at_cap = f.cap.is_finite() && r >= f.cap * (1.0 - 1e-6);
            let on_saturated = f.links.iter().any(|&l| {
                let n = flows.iter().filter(|g| g.links.contains(&l)).count();
                used[l] >= links[l].effective_capacity(n) * (1.0 - 1e-6)
            });
            prop_assert!(
                at_cap || on_saturated,
                "flow with rate {r} (cap {}) has slack on every link",
                f.cap
            );
        }
    }

    /// The compressed core fed the way `Network` feeds it (only the
    /// links the flows cross, densely renumbered in order of first
    /// appearance) produces bit-identical rates to the dense entry point.
    #[test]
    fn sparse_matches_dense((links, flows) in scenario()) {
        let dense = max_min_rates(&links, &flows);
        let mut renumber = vec![usize::MAX; links.len()];
        let (mut models, mut caps, mut off, mut flat) = (Vec::new(), Vec::new(), vec![0], Vec::new());
        for f in &flows {
            caps.push(f.cap);
            for &l in &f.links {
                if renumber[l] == usize::MAX {
                    renumber[l] = models.len();
                    models.push(links[l]);
                }
                flat.push(renumber[l]);
            }
            off.push(flat.len());
        }
        let sparse = MaxMin::default().solve(&models, &caps, &off, &flat).to_vec();
        prop_assert_eq!(dense.len(), sparse.len());
        for (a, b) in dense.iter().zip(&sparse) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
        }
    }

    /// Adding a flow never increases any other flow's rate (contention
    /// monotonicity) when all flows share one link.
    #[test]
    fn adding_a_flow_never_helps_others(
        cap in 10.0f64..1000.0,
        n in 1usize..15,
    ) {
        let links = vec![LinkModel::Shared { capacity: cap }];
        let mk = |k: usize| -> Vec<FlowSpec> {
            (0..k)
                .map(|_| FlowSpec { cap: f64::INFINITY, links: vec![0] })
                .collect()
        };
        let before = max_min_rates(&links, &mk(n));
        let after = max_min_rates(&links, &mk(n + 1));
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a <= &(b * (1.0 + 1e-9)));
        }
    }
}
