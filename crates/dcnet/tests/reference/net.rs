//! The live network: links + active flows over a simulation.
//!
//! Every [`Network::transfer`] registers a fluid flow. Whenever the flow
//! set changes, all rates are recomputed with
//! [`crate::fluid::max_min_rates`], in-flight byte counts are settled at
//! the old rates, and each flow's completion event is rescheduled. Flow
//! bookkeeping uses a `BTreeMap` so iteration order — and therefore the
//! whole simulation — is deterministic.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use simcore::prelude::*;
use simcore::EventHandle;

use crate::fluid::{FlowSpec, LinkModel};

/// Identifier of a link in one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) usize);

/// Outcome of a completed transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferStats {
    /// Bytes moved.
    pub bytes: f64,
    /// When the flow was registered.
    pub started: SimTime,
    /// When the last byte drained.
    pub finished: SimTime,
}

impl TransferStats {
    /// Wall-clock duration of the transfer.
    pub fn duration(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Average throughput in bytes/s.
    pub fn avg_rate(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.bytes / secs
        }
    }
}

struct LinkEntry {
    #[allow(dead_code)]
    name: String,
    model: LinkModel,
}

struct FlowRt {
    links: Vec<usize>,
    cap: f64,
    remaining: f64,
    rate: f64,
    last_update: SimTime,
    completion: Option<EventHandle>,
    done: Signal,
}

struct NetState {
    sim: Sim,
    links: RefCell<Vec<LinkEntry>>,
    flows: RefCell<BTreeMap<u64, FlowRt>>,
    next_flow: Cell<u64>,
    recomputes: Cell<u64>,
    completed: Cell<u64>,
}

/// Handle to one network; clone freely.
#[derive(Clone)]
pub struct Network {
    st: Rc<NetState>,
}

/// Treat a residue below half a byte as drained (float settling slack).
const DONE_EPS: f64 = 0.5;

impl Network {
    /// New empty network bound to `sim`.
    pub fn new(sim: &Sim) -> Self {
        Network {
            st: Rc::new(NetState {
                sim: sim.clone(),
                links: RefCell::new(Vec::new()),
                flows: RefCell::new(BTreeMap::new()),
                next_flow: Cell::new(0),
                recomputes: Cell::new(0),
                completed: Cell::new(0),
            }),
        }
    }

    /// The simulation this network runs on.
    pub fn sim(&self) -> &Sim {
        &self.st.sim
    }

    /// Register a link; returns its id for use in paths.
    pub fn add_link(&self, name: impl Into<String>, model: LinkModel) -> LinkId {
        let mut links = self.st.links.borrow_mut();
        links.push(LinkEntry {
            name: name.into(),
            model,
        });
        LinkId(links.len() - 1)
    }

    /// Replace a link's model (e.g. a maintenance event halving a pipe).
    /// Triggers a rate recompute.
    pub fn set_link_model(&self, id: LinkId, model: LinkModel) {
        self.st.links.borrow_mut()[id.0].model = model;
        self.settle_all();
        self.recompute();
    }

    /// Number of flows currently crossing `id`.
    pub fn flows_on(&self, id: LinkId) -> usize {
        self.st
            .flows
            .borrow()
            .values()
            .filter(|f| f.links.contains(&id.0))
            .count()
    }

    /// Total flows completed so far.
    pub fn flows_completed(&self) -> u64 {
        self.st.completed.get()
    }

    /// Number of rate recomputations so far (cost metric for the ablation
    /// bench).
    pub fn recomputes(&self) -> u64 {
        self.st.recomputes.get()
    }

    /// Active flow count.
    pub fn active_flows(&self) -> usize {
        self.st.flows.borrow().len()
    }

    /// Move `bytes` across `path` (an ordered set of links), optionally
    /// capped at `cap` bytes/s, sharing bandwidth max-min fairly with all
    /// concurrent flows. Resolves when the last byte drains.
    pub async fn transfer(&self, path: &[LinkId], bytes: f64, cap: f64) -> TransferStats {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "bad transfer size {bytes}"
        );
        let now = self.st.sim.now();
        if bytes <= DONE_EPS {
            return TransferStats {
                bytes,
                started: now,
                finished: now,
            };
        }
        let id = self.st.next_flow.get();
        self.st.next_flow.set(id + 1);
        let sp = simtrace::span(simtrace::Layer::Net, "net.flow", || format!("flow{id}"));
        if sp.is_recording() {
            sp.attr("bytes", format!("{bytes:.0}"));
        }
        let done = Signal::new();
        let seed_links: Vec<usize> = path.iter().map(|l| l.0).collect();
        {
            self.st.flows.borrow_mut().insert(
                id,
                FlowRt {
                    links: seed_links.clone(),
                    cap,
                    remaining: bytes,
                    rate: 0.0,
                    last_update: now,
                    completion: None,
                    done: done.clone(),
                },
            );
            self.recompute_component(&seed_links);
        }
        simtrace::gauge("net.active_flows", self.st.flows.borrow().len() as f64);
        done.wait().await;
        TransferStats {
            bytes,
            started: now,
            finished: self.st.sim.now(),
        }
    }

    /// Deduct progress made at the current rates up to `now`.
    fn settle_all(&self) {
        let now = self.st.sim.now();
        for f in self.st.flows.borrow_mut().values_mut() {
            let dt = (now - f.last_update).as_secs_f64();
            if dt > 0.0 && f.rate > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            f.last_update = now;
        }
    }

    /// Re-run max-min allocation for every flow (link-model changes may
    /// affect arbitrary flows).
    fn recompute(&self) {
        self.settle_all();
        let member_ids: Vec<u64> = self.st.flows.borrow().keys().copied().collect();
        self.reallocate(&member_ids);
    }

    /// Recompute only the connected component of flows reachable (via
    /// shared links) from `seed_links`. Max-min allocation decomposes
    /// exactly across connected components — flows that share no link
    /// (transitively) with the changed flow keep their rates — so this
    /// is an exact optimization, not an approximation. It turns the
    /// background-traffic-heavy Fig 5 scenario from O(all flows²) per
    /// change into O(component²).
    fn recompute_component(&self, seed_links: &[usize]) {
        let member_ids: Vec<u64> = {
            let flows = self.st.flows.borrow();
            let mut in_links: std::collections::HashSet<usize> =
                seed_links.iter().copied().collect();
            let mut member: std::collections::HashSet<u64> = std::collections::HashSet::new();
            let mut members_ordered: Vec<u64> = Vec::new();
            // Fixpoint over the flow-link bipartite graph; scanning the
            // BTreeMap keeps membership order deterministic.
            loop {
                let mut grew = false;
                for (id, f) in flows.iter() {
                    if member.contains(id) {
                        continue;
                    }
                    if f.links.iter().any(|l| in_links.contains(l)) {
                        member.insert(*id);
                        members_ordered.push(*id);
                        for &l in &f.links {
                            in_links.insert(l);
                        }
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
            members_ordered.sort_unstable();
            members_ordered
        };
        // Settle only the affected flows: everyone else's rate is
        // unchanged, so their progress stays linear and needs no
        // checkpoint.
        {
            let now = self.st.sim.now();
            let mut flows = self.st.flows.borrow_mut();
            for id in &member_ids {
                if let Some(f) = flows.get_mut(id) {
                    let dt = (now - f.last_update).as_secs_f64();
                    if dt > 0.0 && f.rate > 0.0 {
                        f.remaining = (f.remaining - f.rate * dt).max(0.0);
                    }
                    f.last_update = now;
                }
            }
        }
        self.reallocate(&member_ids);
    }

    /// Allocate rates for `member_ids` and reschedule their completions.
    /// Each call is a bandwidth-share update: every affected flow gets a
    /// fresh max-min rate.
    fn reallocate(&self, member_ids: &[u64]) {
        self.st.recomputes.set(self.st.recomputes.get() + 1);
        simtrace::counter("net.rate_updates", 1);
        let specs: Vec<FlowSpec> = {
            let flows = self.st.flows.borrow();
            member_ids
                .iter()
                .filter_map(|id| flows.get(id))
                .map(|f| FlowSpec {
                    cap: f.cap,
                    links: f.links.clone(),
                })
                .collect()
        };
        // Sparse allocation: only the links these flows cross are
        // consulted (the network may hold one egress pipe per blob —
        // tens of thousands of links — while only dozens are busy).
        let links = self.st.links.borrow();
        let rates = crate::fluid::max_min_rates_with(&specs, |l| links[l].model);
        drop(links);
        let now = self.st.sim.now();
        let mut flows = self.st.flows.borrow_mut();
        for (id, rate) in member_ids.iter().zip(rates) {
            let Some(f) = flows.get_mut(id) else { continue };
            f.rate = rate;
            if let Some(ev) = f.completion.take() {
                ev.cancel();
            }
            if rate > 0.0 {
                let eta = SimDuration::from_secs_f64(f.remaining / rate);
                let fire_at = now + eta;
                let net = self.clone();
                let fid = *id;
                f.completion = Some(self.st.sim.schedule_at(fire_at, move |_| {
                    net.on_completion(fid);
                }));
            }
            // rate == 0: flow is stalled; it will be rescheduled when
            // capacity appears (a future recompute).
        }
    }

    fn on_completion(&self, id: u64) {
        // Settle just this flow to check whether it truly drained; its
        // component gets settled inside recompute_component below.
        {
            let now = self.st.sim.now();
            let mut flows = self.st.flows.borrow_mut();
            if let Some(f) = flows.get_mut(&id) {
                let dt = (now - f.last_update).as_secs_f64();
                if dt > 0.0 && f.rate > 0.0 {
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
                f.last_update = now;
            }
        }
        let finished = {
            let mut flows = self.st.flows.borrow_mut();
            match flows.get_mut(&id) {
                Some(f) if f.remaining <= DONE_EPS => flows.remove(&id),
                Some(f) => {
                    // Float drift left a sliver: reschedule from here.
                    let remaining = f.remaining;
                    let rate = f.rate;
                    if rate > 0.0 {
                        let eta = SimDuration::from_secs_f64(remaining / rate)
                            + SimDuration::from_nanos(1);
                        let net = self.clone();
                        f.completion =
                            Some(self.st.sim.schedule_in(eta, move |_| net.on_completion(id)));
                    }
                    None
                }
                None => None,
            }
        };
        if let Some(f) = finished {
            self.st.completed.set(self.st.completed.get() + 1);
            simtrace::gauge("net.active_flows", self.st.flows.borrow().len() as f64);
            f.done.fire();
            self.recompute_component(&f.links);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn shared(c: f64) -> LinkModel {
        LinkModel::Shared { capacity: c }
    }

    #[test]
    fn single_transfer_takes_bytes_over_rate() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(100.0)); // 100 B/s
        let n = net.clone();
        let h = sim.spawn(async move { n.transfer(&[l], 500.0, f64::INFINITY).await });
        sim.run();
        let stats = h.try_take().unwrap();
        assert!((stats.duration().as_secs_f64() - 5.0).abs() < 1e-6);
        assert!((stats.avg_rate() - 100.0).abs() < 1e-3);
        assert_eq!(net.flows_completed(), 1);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn concurrent_transfers_share_fairly() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(100.0));
        let results: Rc<RefCell<Vec<TransferStats>>> = Rc::default();
        for _ in 0..2 {
            let (n, r) = (net.clone(), results.clone());
            sim.spawn(async move {
                let s = n.transfer(&[l], 500.0, f64::INFINITY).await;
                r.borrow_mut().push(s);
            });
        }
        sim.run();
        // Both run the whole time at 50 B/s -> 10 s each.
        for s in results.borrow().iter() {
            assert!((s.duration().as_secs_f64() - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(100.0));
        let (n1, n2) = (net.clone(), net.clone());
        let h1 = sim.spawn(async move { n1.transfer(&[l], 1000.0, f64::INFINITY).await });
        let s2 = sim.clone();
        let h2 = sim.spawn(async move {
            s2.delay(SimDuration::from_secs(5)).await;
            n2.transfer(&[l], 250.0, f64::INFINITY).await
        });
        sim.run();
        // Flow 1: 5s alone at 100 B/s (500 B), then shares at 50 B/s.
        // Flow 2 (250 B at 50 B/s) finishes at t=10; flow 1 then has
        // 250 B left at full 100 B/s -> finishes at t=12.5.
        let f1 = h1.try_take().unwrap();
        let f2 = h2.try_take().unwrap();
        assert!((f2.finished.as_secs_f64() - 10.0).abs() < 1e-6, "{f2:?}");
        assert!((f1.finished.as_secs_f64() - 12.5).abs() < 1e-6, "{f1:?}");
    }

    #[test]
    fn multi_link_path_respects_bottleneck() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let fast = net.add_link("fast", shared(1000.0));
        let slow = net.add_link("slow", shared(10.0));
        let n = net.clone();
        let h = sim.spawn(async move { n.transfer(&[fast, slow], 100.0, f64::INFINITY).await });
        sim.run();
        assert!((h.try_take().unwrap().duration().as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn flow_cap_limits_rate() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(1000.0));
        let n = net.clone();
        let h = sim.spawn(async move { n.transfer(&[l], 100.0, 20.0).await });
        sim.run();
        assert!((h.try_take().unwrap().duration().as_secs_f64() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(1.0));
        let n = net.clone();
        let h = sim.spawn(async move { n.transfer(&[l], 0.0, f64::INFINITY).await });
        sim.run();
        assert_eq!(h.try_take().unwrap().duration(), SimDuration::ZERO);
    }

    #[test]
    fn per_flow_ceiling_shrinks_with_concurrency() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link(
            "frontend",
            LinkModel::PerFlow {
                base: 100.0,
                beta: 2.0,
                exponent: 1.0,
            },
        );
        // 2 flows: each capped at 100/(1+2/2) = 50.
        let results: Rc<RefCell<Vec<f64>>> = Rc::default();
        for _ in 0..2 {
            let (n, r) = (net.clone(), results.clone());
            sim.spawn(async move {
                let s = n.transfer(&[l], 500.0, f64::INFINITY).await;
                r.borrow_mut().push(s.avg_rate());
            });
        }
        sim.run();
        for rate in results.borrow().iter() {
            assert!((rate - 50.0).abs() < 1e-6, "rate={rate}");
        }
    }

    #[test]
    fn many_flows_all_complete_with_full_utilization() {
        let sim = Sim::new(3);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(100.0));
        let done = Rc::new(Cell::new(0u32));
        for i in 0..50 {
            let (n, d, s) = (net.clone(), done.clone(), sim.clone());
            sim.spawn(async move {
                s.delay(SimDuration::from_millis(i * 10)).await;
                n.transfer(&[l], 100.0, f64::INFINITY).await;
                d.set(d.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 50);
        // 50 flows x 100 B over a 100 B/s pipe: ~50 s of busy time (starts
        // staggered over the first 0.5 s, pipe saturated throughout).
        let makespan = sim.now().as_secs_f64();
        // DONE_EPS settling slack can shave nanoseconds off the ideal 50 s.
        assert!((49.9..50.6).contains(&makespan), "makespan={makespan}");
    }

    #[test]
    fn disjoint_components_do_not_interact() {
        // Two flows on disjoint links: the second one's arrival and
        // completion must not disturb the first one's timing at all.
        let sim = Sim::new(4);
        let net = Network::new(&sim);
        let a = net.add_link("a", shared(100.0));
        let b = net.add_link("b", shared(50.0));
        let n1 = net.clone();
        let h1 = sim.spawn(async move { n1.transfer(&[a], 1000.0, f64::INFINITY).await });
        let (s, n2) = (sim.clone(), net.clone());
        let h2 = sim.spawn(async move {
            s.delay(SimDuration::from_secs(2)).await;
            n2.transfer(&[b], 100.0, f64::INFINITY).await
        });
        sim.run();
        // Flow A: full 100 B/s throughout -> exactly 10 s.
        assert!((h1.try_take().unwrap().duration().as_secs_f64() - 10.0).abs() < 1e-9);
        assert!((h2.try_take().unwrap().duration().as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn chained_components_still_interact() {
        // f1 on [a], f2 on [a, b], f3 on [b]: one connected component —
        // f3's arrival must affect f1 through the chain.
        let sim = Sim::new(5);
        let net = Network::new(&sim);
        let a = net.add_link("a", shared(100.0));
        let b = net.add_link("b", shared(100.0));
        let n = net.clone();
        let h1 = sim.spawn(async move { n.transfer(&[a], 600.0, f64::INFINITY).await });
        let n = net.clone();
        let _h2 = sim.spawn(async move { n.transfer(&[a, b], 600.0, f64::INFINITY).await });
        let n = net.clone();
        let _h3 = sim.spawn(async move { n.transfer(&[b], 600.0, f64::INFINITY).await });
        sim.run();
        // With f2 squeezed on both links, max-min gives f1 and f3 more
        // than an even 3-way split but less than the full pipe; f1
        // cannot have run at 100 B/s the whole time.
        let d1 = h1.try_take().unwrap().duration().as_secs_f64();
        assert!(d1 > 6.0 + 1e-9, "f1 unaffected by the chain: {d1}");
    }

    #[test]
    fn link_model_change_reschedules_flows() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let l = net.add_link("pipe", shared(100.0));
        let n = net.clone();
        let h = sim.spawn(async move { n.transfer(&[l], 1000.0, f64::INFINITY).await });
        let (s, n2) = (sim.clone(), net.clone());
        sim.spawn(async move {
            s.delay(SimDuration::from_secs(5)).await;
            n2.set_link_model(l, shared(50.0)); // halves mid-flight
        });
        sim.run();
        // 500 B at 100 B/s, then 500 B at 50 B/s -> 15 s.
        assert!((h.try_take().unwrap().duration().as_secs_f64() - 15.0).abs() < 1e-6);
    }
}
