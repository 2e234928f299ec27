//! Differential oracle for the live [`dcnet::Network`]: random staggered
//! transfers and link-model changes run through the current network and
//! through the pre-slab implementation kept verbatim under
//! `tests/reference/`, each on its own `Sim`. The two must agree exactly:
//! every completion instant, the number of fired kernel events, the
//! kernel's schedule fingerprint and the count of rate recomputations.
//! The rewritten solver is likewise held bit-for-bit to the old one.

use proptest::prelude::*;
use simcore::prelude::*;

use dcnet::fluid::{max_min_rates, FlowSpec};
use dcnet::LinkModel;

#[path = "reference/fluid.rs"]
mod reference_fluid;

/// The module the reference `Network` resolves `crate::fluid` against.
mod fluid {
    pub use super::reference_fluid::max_min_rates_with;
    pub use dcnet::fluid::{FlowSpec, LinkModel};
}

#[allow(dead_code)]
#[path = "reference/net.rs"]
mod net;

#[derive(Debug, Clone)]
struct Transfer {
    path: Vec<usize>,
    cap: f64,
    bytes: f64,
    start: SimDuration,
}

#[derive(Debug, Clone)]
struct Change {
    at: SimDuration,
    link: usize,
    model: LinkModel,
}

#[derive(Debug, Clone)]
struct Scenario {
    links: Vec<LinkModel>,
    transfers: Vec<Transfer>,
    changes: Vec<Change>,
}

#[derive(Debug, PartialEq)]
struct Outcome {
    /// Completion instant (ns) per transfer; `None` if it never drained.
    finished: Vec<Option<u64>>,
    events_fired: u64,
    fingerprint: u64,
    recomputes: u64,
    completed: u64,
}

fn link_model() -> impl Strategy<Value = LinkModel> {
    prop_oneof![
        (1.0f64..1000.0).prop_map(|capacity| LinkModel::Shared { capacity }),
        (1.0f64..1000.0, 0usize..4, 0.0f64..0.5).prop_map(|(capacity, knee, gamma)| {
            LinkModel::SharedDegrading {
                capacity,
                knee,
                gamma,
            }
        }),
        (1.0f64..500.0, 0.5f64..8.0, 0.5f64..1.5).prop_map(|(base, beta, exponent)| {
            LinkModel::PerFlow {
                base,
                beta,
                exponent,
            }
        }),
    ]
}

/// `m` with every rate multiplied by `k`.
fn scaled(m: LinkModel, k: f64) -> LinkModel {
    match m {
        LinkModel::Shared { capacity } => LinkModel::Shared {
            capacity: capacity * k,
        },
        LinkModel::SharedDegrading {
            capacity,
            knee,
            gamma,
        } => LinkModel::SharedDegrading {
            capacity: capacity * k,
            knee,
            gamma,
        },
        LinkModel::PerFlow {
            base,
            beta,
            exponent,
        } => LinkModel::PerFlow {
            base: base * k,
            beta,
            exponent,
        },
    }
}

/// A random scenario. Half of them run a million times faster (GB/s
/// links, GB transfers, same durations), where the nanosecond rounding
/// of due instants leaves residues above the drained threshold and the
/// sliver-reschedule path fires.
fn scenario() -> impl Strategy<Value = Scenario> {
    (prop::bool::ANY, scenario_at_unit_scale()).prop_map(|(fast, mut sc)| {
        let k = if fast { 1.0e6 } else { 1.0 };
        for m in sc.links.iter_mut() {
            *m = scaled(*m, k);
        }
        for t in sc.transfers.iter_mut() {
            t.cap *= k;
            t.bytes *= k;
        }
        for c in sc.changes.iter_mut() {
            c.model = scaled(c.model, k);
        }
        sc
    })
}

fn scenario_at_unit_scale() -> impl Strategy<Value = Scenario> {
    prop::collection::vec(link_model(), 1..9).prop_flat_map(|links| {
        let nl = links.len();
        // Start instants and change times on a 50 ms grid, so ties
        // between arrivals, completions and changes are common.
        let transfer = (
            prop::collection::vec(0..nl, 1..=8),
            prop::option::of(1.0f64..500.0),
            0.0f64..5000.0,
            0u64..200,
        )
            .prop_map(|(path, cap, bytes, start)| Transfer {
                path,
                cap: cap.unwrap_or(f64::INFINITY),
                bytes,
                start: SimDuration::from_millis(start * 50),
            });
        // A change may also stall a link outright (zero capacity).
        let change_model = prop_oneof![link_model(), Just(LinkModel::Shared { capacity: 0.0 })];
        let change = (0u64..400, 0..nl, change_model).prop_map(|(at, link, model)| Change {
            at: SimDuration::from_millis(at * 50),
            link,
            model,
        });
        (
            Just(links),
            prop::collection::vec(transfer, 1..40),
            prop::collection::vec(change, 0..5),
        )
            .prop_map(|(links, transfers, changes)| Scenario {
                links,
                transfers,
                changes,
            })
    })
}

/// Run `sc` on a fresh `Sim` through the network type `$Network`.
macro_rules! run_on {
    ($Network:ty, $sc:expr) => {{
        let sc: &Scenario = $sc;
        let sim = Sim::new(11);
        let net = <$Network>::new(&sim);
        let ids: Vec<_> = sc
            .links
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_link(format!("l{i}"), m))
            .collect();
        let handles: Vec<_> = sc
            .transfers
            .iter()
            .map(|t| {
                let (n, s, t) = (net.clone(), sim.clone(), t.clone());
                let path: Vec<_> = t.path.iter().map(|&l| ids[l]).collect();
                sim.spawn(async move {
                    s.delay(t.start).await;
                    n.transfer(&path, t.bytes, t.cap).await.finished.as_nanos()
                })
            })
            .collect();
        for c in &sc.changes {
            let (n, s, c) = (net.clone(), sim.clone(), c.clone());
            let id = ids[c.link];
            sim.spawn(async move {
                s.delay(c.at).await;
                n.set_link_model(id, c.model);
            });
        }
        sim.run();
        Outcome {
            finished: handles.iter().map(|h| h.try_take()).collect(),
            events_fired: sim.events_fired(),
            fingerprint: sim.trace_fingerprint(),
            recomputes: net.recomputes(),
            completed: net.flows_completed(),
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slab/index/armed-event network fires exactly the schedule of
    /// the per-flow-event network it replaced.
    #[test]
    fn network_matches_reference(sc in scenario()) {
        let reference = run_on!(net::Network, &sc);
        let current = run_on!(dcnet::Network, &sc);
        prop_assert_eq!(&current, &reference, "scenario: {:?}", sc);
    }

    /// The compressed-row solver behind `max_min_rates` returns the old
    /// dense solver's rates bit for bit, over all three link models and
    /// paths that may repeat a link.
    #[test]
    fn solver_matches_reference(
        (links, flows) in prop::collection::vec(link_model(), 1..9).prop_flat_map(|links| {
            let nl = links.len();
            let flow = (prop::collection::vec(0..nl, 0..=8), prop::option::of(0.0f64..500.0))
                .prop_map(|(links, cap)| FlowSpec { cap: cap.unwrap_or(f64::INFINITY), links });
            (Just(links), prop::collection::vec(flow, 0..30))
        })
    ) {
        let old = reference_fluid::max_min_rates(&links, &flows);
        let new = max_min_rates(&links, &flows);
        let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&new), bits(&old), "links {:?} flows {:?}", links, flows);
    }
}
