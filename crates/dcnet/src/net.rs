//! The live network: links + active flows over a simulation.
//!
//! Every [`Network::transfer`] registers a fluid flow. When the flow set
//! changes, the network walks the connected component of flows that share
//! links (transitively) with the change, settles their in-flight bytes at
//! the old rates, re-solves that component's max-min rates with
//! [`crate::fluid::MaxMin`] and recomputes each member's due instant.
//!
//! Due instants live in a network-local lazy heap. The network keeps
//! exactly one kernel event armed, at the earliest due flow, and moves it
//! only when that head changes. Each due instant carries a sequence number
//! reserved from the kernel ([`Sim::reserve_seq`]) at the moment it is
//! computed, and the armed event fires under it ([`Sim::schedule_at_seq`]),
//! so every completion lands in the same `(time, seq)` slot of the kernel's
//! total order as a dedicated event would. Components are solved and
//! rescheduled in ascending flow id, so the whole simulation is
//! deterministic.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use simcore::prelude::*;
use simcore::EventHandle;

use crate::fluid::{LinkModel, MaxMin};

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
    /// Slots of the flows crossing this link, each once, in no order.
    flows: Vec<usize>,
    /// Epoch of the last walk or dense mapping that visited this link.
    stamp: u64,
    /// This link's index in the current solve's dense link order.
    dense: usize,
}

struct FlowRt {
    /// Monotonic registration number: the solve and reschedule order.
    id: u64,
    links: Vec<usize>,
    cap: f64,
    remaining: f64,
    rate: f64,
    last_update: SimTime,
    /// `(time, seq)` of the pending completion; `None` while stalled.
    due: Option<(SimTime, u64)>,
    /// Epoch of the last component walk that reached this flow.
    stamp: u64,
    done: Signal,
}

impl FlowRt {
    /// Deduct progress made at the current rate up to `now`.
    fn settle(&mut self, now: SimTime) {
        let dt = (now - self.last_update).as_secs_f64();
        if dt > 0.0 && self.rate > 0.0 {
            self.remaining = (self.remaining - self.rate * dt).max(0.0);
        }
        self.last_update = now;
    }
}

/// A pending completion: `(time, seq, slot)`, earliest first.
type Due = Reverse<(SimTime, u64, usize)>;

/// A heap entry is live iff it equals its flow's current `due`.
fn is_live(flows: &[Option<FlowRt>], &Reverse((at, seq, slot)): &Due) -> bool {
    matches!(&flows[slot], Some(f) if f.due == Some((at, seq)))
}

#[derive(Default)]
struct State {
    links: Vec<LinkEntry>,
    /// Flow slab; freed slots are reused through `free`.
    flows: Vec<Option<FlowRt>>,
    free: Vec<usize>,
    live: usize,
    next_flow: u64,
    epoch: u64,
    /// Lazy completion heap: an entry is live iff it equals its flow's
    /// current `due`; stale entries are dropped when they surface.
    due: BinaryHeap<Due>,
    /// The one kernel event this network has armed, at the live head.
    armed: Option<(SimTime, u64, EventHandle)>,
    // Scratch reused by every recomputation.
    members: Vec<usize>,
    stack: Vec<usize>,
    models: Vec<LinkModel>,
    caps: Vec<f64>,
    off: Vec<usize>,
    flat: Vec<usize>,
    solver: MaxMin,
    // Work counters.
    recomputes: u64,
    completed: u64,
    component_rebuilds: u64,
    members_touched: u64,
}

impl State {
    fn flow(&mut self, slot: usize) -> &mut FlowRt {
        self.flows[slot].as_mut().expect("live flow slot")
    }

    fn insert(&mut self, flow: FlowRt) -> usize {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.flows.push(None);
                self.flows.len() - 1
            }
        };
        for &l in &flow.links {
            let on = &mut self.links[l].flows;
            // A path that repeats a link is indexed once.
            if on.last() != Some(&slot) {
                on.push(slot);
            }
        }
        self.flows[slot] = Some(flow);
        self.live += 1;
        slot
    }

    fn remove(&mut self, slot: usize) -> FlowRt {
        let flow = self.flows[slot].take().expect("live flow slot");
        for &l in &flow.links {
            let on = &mut self.links[l].flows;
            if let Some(p) = on.iter().position(|&s| s == slot) {
                on.swap_remove(p);
            }
        }
        self.free.push(slot);
        self.live -= 1;
        flow
    }

    /// Order `members` by flow id and settle them at `now`: everyone
    /// else's rate is unchanged, so their progress stays linear and
    /// needs no checkpoint.
    fn sort_and_settle_members(&mut self, now: SimTime) {
        let flows = &mut self.flows;
        self.members
            .sort_unstable_by_key(|&s| flows[s].as_ref().expect("member is live").id);
        for &slot in &self.members {
            flows[slot].as_mut().expect("member is live").settle(now);
        }
    }

    /// Fill `members` with the connected component of flows reachable
    /// (via shared links) from `seed` links, in ascending flow id, and
    /// settle them at `now`. A depth-first walk over the link→flows index
    /// with per-epoch marks: O(component), no rescans.
    fn component(&mut self, seed: impl IntoIterator<Item = usize>, now: SimTime) {
        self.component_rebuilds += 1;
        self.epoch += 1;
        let e = self.epoch;
        let State {
            links,
            flows,
            members,
            stack,
            ..
        } = self;
        members.clear();
        stack.clear();
        for l in seed {
            if links[l].stamp != e {
                links[l].stamp = e;
                stack.push(l);
            }
        }
        while let Some(l) = stack.pop() {
            for i in 0..links[l].flows.len() {
                let slot = links[l].flows[i];
                let f = flows[slot].as_mut().expect("indexed flow is live");
                if f.stamp == e {
                    continue;
                }
                f.stamp = e;
                members.push(slot);
                for &l2 in &f.links {
                    if links[l2].stamp != e {
                        links[l2].stamp = e;
                        stack.push(l2);
                    }
                }
            }
        }
        self.sort_and_settle_members(now);
    }

    /// Solve max-min rates for `members` and give each a fresh due
    /// instant under a newly reserved kernel seq (in member order, one
    /// seq per flow with a positive rate).
    fn reallocate(&mut self, sim: &Sim) {
        self.recomputes += 1;
        self.members_touched += self.members.len() as u64;
        self.epoch += 1;
        let e = self.epoch;
        let State {
            links,
            flows,
            due,
            live,
            members,
            models,
            caps,
            off,
            flat,
            solver,
            ..
        } = self;
        // Dense link order = first appearance over members in id order,
        // each flow's links in path order. Only the links these flows
        // cross are consulted (the network may hold one egress pipe per
        // blob while only dozens are busy).
        models.clear();
        caps.clear();
        off.clear();
        flat.clear();
        off.push(0);
        for &slot in members.iter() {
            let f = flows[slot].as_ref().expect("member is live");
            caps.push(f.cap);
            for &l in &f.links {
                let link = &mut links[l];
                if link.stamp != e {
                    link.stamp = e;
                    link.dense = models.len();
                    models.push(link.model);
                }
                flat.push(link.dense);
            }
            off.push(flat.len());
        }
        let rates = solver.solve(models, caps, off, flat);
        let now = sim.now();
        for (&slot, &rate) in members.iter().zip(rates) {
            let f = flows[slot].as_mut().expect("member is live");
            f.rate = rate;
            f.due = None;
            if rate > 0.0 {
                let fire_at = now + SimDuration::from_secs_f64(f.remaining / rate);
                let seq = sim.reserve_seq();
                f.due = Some((fire_at, seq));
                due.push(Reverse((fire_at, seq, slot)));
            }
            // rate == 0: flow is stalled; it gets a due instant when
            // capacity appears (a future recompute).
        }
        // Bound the lazy heap: drop stale entries once they dominate.
        if due.len() > 2 * *live + 64 {
            due.retain(|d| is_live(flows, d));
        }
    }
}

/// Handle to one network; clone freely.
#[derive(Clone)]
pub struct Network {
    st: Rc<NetState>,
}

struct NetState {
    sim: Sim,
    state: RefCell<State>,
}

/// Treat a residue below half a byte as drained (float settling slack).
const DONE_EPS: f64 = 0.5;

impl Network {
    /// New empty network bound to `sim`.
    pub fn new(sim: &Sim) -> Self {
        Network {
            st: Rc::new(NetState {
                sim: sim.clone(),
                state: RefCell::new(State::default()),
            }),
        }
    }

    /// The simulation this network runs on.
    pub fn sim(&self) -> &Sim {
        &self.st.sim
    }

    /// Register a link; returns its id for use in paths.
    pub fn add_link(&self, name: impl Into<String>, model: LinkModel) -> LinkId {
        let mut st = self.st.state.borrow_mut();
        st.links.push(LinkEntry {
            name: name.into(),
            model,
            flows: Vec::new(),
            stamp: 0,
            dense: 0,
        });
        LinkId(st.links.len() - 1)
    }

    /// Replace a link's model (e.g. a maintenance event halving a pipe).
    /// Re-solves and reschedules every flow (link-model changes may
    /// affect arbitrary flows).
    pub fn set_link_model(&self, id: LinkId, model: LinkModel) {
        {
            let now = self.st.sim.now();
            let mut st = self.st.state.borrow_mut();
            st.links[id.0].model = model;
            let State { flows, members, .. } = &mut *st;
            members.clear();
            members.extend((0..flows.len()).filter(|&s| flows[s].is_some()));
            st.sort_and_settle_members(now);
        }
        self.reallocate();
        self.rearm();
    }

    /// Number of flows currently crossing `id`.
    pub fn flows_on(&self, id: LinkId) -> usize {
        self.st.state.borrow().links[id.0].flows.len()
    }

    /// Total flows completed so far.
    pub fn flows_completed(&self) -> u64 {
        self.st.state.borrow().completed
    }

    /// Number of rate recomputations so far (cost metric for the ablation
    /// bench).
    pub fn recomputes(&self) -> u64 {
        self.st.state.borrow().recomputes
    }

    /// Number of connected-component walks so far (one per flow arrival
    /// or departure).
    pub fn component_rebuilds(&self) -> u64 {
        self.st.state.borrow().component_rebuilds
    }

    /// Flows re-solved and rescheduled so far, summed over every
    /// recomputation: the size-weighted cost of the rate updates.
    pub fn members_touched(&self) -> u64 {
        self.st.state.borrow().members_touched
    }

    /// Active flow count.
    pub fn active_flows(&self) -> usize {
        self.st.state.borrow().live
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
        let id = {
            let mut st = self.st.state.borrow_mut();
            st.next_flow += 1;
            st.next_flow - 1
        };
        let sp = simtrace::span(simtrace::Layer::Net, "net.flow", || format!("flow{id}"));
        if sp.is_recording() {
            sp.attr("bytes", format!("{bytes:.0}"));
        }
        let done = Signal::new();
        let live = {
            let mut st = self.st.state.borrow_mut();
            st.insert(FlowRt {
                id,
                links: path.iter().map(|l| l.0).collect(),
                cap,
                remaining: bytes,
                rate: 0.0,
                last_update: now,
                due: None,
                stamp: 0,
                done: done.clone(),
            });
            st.component(path.iter().map(|l| l.0), now);
            st.live
        };
        self.reallocate();
        self.rearm();
        simtrace::gauge("net.active_flows", live as f64);
        done.wait().await;
        TransferStats {
            bytes,
            started: now,
            finished: self.st.sim.now(),
        }
    }

    /// Re-solve the current `members` (a bandwidth-share update).
    fn reallocate(&self) {
        simtrace::counter("net.rate_updates", 1);
        self.st.state.borrow_mut().reallocate(&self.st.sim);
    }

    /// Point the one armed kernel event at the live head of the due
    /// heap, moving it only if the head changed.
    fn rearm(&self) {
        let mut st = self.st.state.borrow_mut();
        while let Some(head) = st.due.peek() {
            if is_live(&st.flows, head) {
                break;
            }
            st.due.pop();
        }
        let head = st.due.peek().map(|&Reverse((at, seq, _))| (at, seq));
        if head == st.armed.as_ref().map(|&(at, seq, _)| (at, seq)) {
            return;
        }
        if let Some((_, _, ev)) = st.armed.take() {
            ev.cancel();
        }
        if let Some((at, seq)) = head {
            let net = self.clone();
            let ev = self.st.sim.schedule_at_seq(at, seq, move |_| net.on_due());
            st.armed = Some((at, seq, ev));
        }
    }

    /// The armed event fired: complete (or re-time) the head flow.
    fn on_due(&self) {
        let slot = {
            let mut st = self.st.state.borrow_mut();
            let (at, seq, _) = st.armed.take().expect("fired while armed");
            let Reverse((_, _, slot)) = st.due.pop().expect("armed head is queued");
            debug_assert_eq!(st.flows[slot].as_ref().and_then(|f| f.due), Some((at, seq)));
            st.flow(slot).due = None;
            slot
        };
        self.on_completion(slot);
        self.rearm();
    }

    fn on_completion(&self, slot: usize) {
        let finished = {
            let now = self.st.sim.now();
            let mut st = self.st.state.borrow_mut();
            let f = st.flow(slot);
            // Settle just this flow to check whether it truly drained; its
            // component gets settled by the walk below.
            f.settle(now);
            if f.remaining <= DONE_EPS {
                let f = st.remove(slot);
                st.completed += 1;
                Some((f, st.live))
            } else {
                // Float drift left a sliver: reschedule from here.
                if f.rate > 0.0 {
                    let eta = SimDuration::from_secs_f64(f.remaining / f.rate)
                        + SimDuration::from_nanos(1);
                    let fire_at = now + eta;
                    let seq = self.st.sim.reserve_seq();
                    f.due = Some((fire_at, seq));
                    st.due.push(Reverse((fire_at, seq, slot)));
                }
                None
            }
        };
        if let Some((f, live)) = finished {
            simtrace::gauge("net.active_flows", live as f64);
            f.done.fire();
            self.st
                .state
                .borrow_mut()
                .component(f.links.iter().copied(), self.st.sim.now());
            self.reallocate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

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

    #[test]
    fn flows_on_tracks_the_link_index() {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        let a = net.add_link("a", shared(100.0));
        let b = net.add_link("b", shared(100.0));
        for path in [vec![a], vec![a, b], vec![b, b]] {
            let n = net.clone();
            sim.spawn(async move { n.transfer(&path, 100.0, f64::INFINITY).await });
        }
        sim.run_until(SimTime::from_nanos(1));
        // A path that repeats a link counts once on it.
        assert_eq!((net.flows_on(a), net.flows_on(b)), (2, 2));
        sim.run();
        assert_eq!((net.flows_on(a), net.flows_on(b)), (0, 0));
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn reschedule_storm_leaves_fewer_tombstones_than_events() {
        // Blob-GET-shaped churn: ~100 clients share a degrading egress
        // and a per-flow front end, each behind its own ingress pipe,
        // and keep re-downloading 2 MB blobs. Every arrival and
        // departure re-solves the whole ~100-flow component.
        let sim = Sim::new(5);
        let net = Network::new(&sim);
        let egress = net.add_link(
            "egress",
            LinkModel::SharedDegrading {
                capacity: 400.0e6,
                knee: 64,
                gamma: 0.002,
            },
        );
        let frontend = net.add_link(
            "frontend",
            LinkModel::PerFlow {
                base: 13.0e6,
                beta: 34.0,
                exponent: 0.8,
            },
        );
        for c in 0..100u64 {
            let ingress = net.add_link(format!("client{c}"), shared(12.5e6));
            let (n, s) = (net.clone(), sim.clone());
            sim.spawn(async move {
                s.delay(SimDuration::from_micros(c * 370)).await;
                for round in 0..5u64 {
                    n.transfer(&[egress, frontend, ingress], 2.0e6, f64::INFINITY)
                        .await;
                    s.delay(SimDuration::from_micros(1 + (c * 7 + round * 13) % 50))
                        .await;
                }
            });
        }
        sim.run();
        assert_eq!(net.flows_completed(), 500);
        assert_eq!(net.component_rebuilds(), 1000);
        assert!(net.members_touched() > 50 * net.recomputes());
        assert!(
            sim.cancelled_events() <= sim.events_fired(),
            "{} cancelled for {} fired events",
            sim.cancelled_events(),
            sim.events_fired()
        );
    }
}
