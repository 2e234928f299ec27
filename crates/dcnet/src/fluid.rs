//! Max-min fair rate allocation (progressive filling / water-filling).
//!
//! The fluid-flow model replaces packet-level simulation: every active
//! transfer is a *flow* crossing a set of *links*, and whenever the flow
//! set changes the allocator recomputes each flow's rate as its max-min
//! fair share. This is the standard abstraction for datacenter-scale
//! bandwidth studies; its cost is O(iterations × (links + flows)) per
//! change instead of per packet.
//!
//! Two capacity behaviours beyond the classic shared pipe are modelled,
//! both needed to reproduce the paper's storage curves (see
//! `azstore::calib` for the calibration story):
//!
//! * [`LinkModel::SharedDegrading`] — a shared pipe whose usable capacity
//!   degrades past a concurrency knee (server-side contention; Fig 1's
//!   aggregate dip past 128 clients).
//! * [`LinkModel::PerFlow`] — imposes a *per-flow* ceiling that shrinks
//!   with the number of flows on the link (front-end RTT inflation under
//!   concurrency: per-flow TCP throughput ∝ window/RTT).

/// How a link constrains the flows crossing it.
#[derive(Debug, Clone, Copy)]
pub enum LinkModel {
    /// Classic pipe: `capacity` bytes/s split max-min among flows.
    Shared {
        /// Total capacity in bytes/s.
        capacity: f64,
    },
    /// Shared pipe whose effective capacity is
    /// `capacity / (1 + gamma * max(0, n - knee))` for `n` active flows.
    SharedDegrading {
        /// Raw capacity in bytes/s.
        capacity: f64,
        /// Flow count beyond which degradation starts.
        knee: usize,
        /// Degradation strength per extra flow.
        gamma: f64,
    },
    /// No shared capacity, but each crossing flow is individually capped at
    /// `base / (1 + (n / beta)^exponent)` for `n` active flows on the link.
    PerFlow {
        /// Per-flow ceiling when alone (bytes/s).
        base: f64,
        /// Concurrency scale at which the ceiling has halved-ish.
        beta: f64,
        /// Sub-linear exponent shaping the decline.
        exponent: f64,
    },
}

impl LinkModel {
    /// Effective shared capacity given `n` active flows
    /// (infinite for `PerFlow`, which constrains per-flow instead).
    pub fn effective_capacity(&self, n: usize) -> f64 {
        match *self {
            LinkModel::Shared { capacity } => capacity,
            LinkModel::SharedDegrading {
                capacity,
                knee,
                gamma,
            } => {
                let excess = n.saturating_sub(knee) as f64;
                capacity / (1.0 + gamma * excess)
            }
            LinkModel::PerFlow { .. } => f64::INFINITY,
        }
    }

    /// Per-flow ceiling this link imposes given `n` active flows
    /// (infinite for shared links).
    pub fn per_flow_cap(&self, n: usize) -> f64 {
        match *self {
            LinkModel::PerFlow {
                base,
                beta,
                exponent,
            } => {
                if n == 0 {
                    base
                } else {
                    base / (1.0 + (n as f64 / beta).powf(exponent))
                }
            }
            _ => f64::INFINITY,
        }
    }
}

/// A flow as the allocator sees it: an intrinsic rate cap plus the list of
/// link indices it crosses.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Intrinsic per-flow rate cap in bytes/s (use `f64::INFINITY` for none).
    pub cap: f64,
    /// Indices into the link table.
    pub links: Vec<usize>,
}

/// Compute max-min fair rates.
///
/// `models[l]` describes link `l`; `flows[f]` describes flow `f`. Effective
/// capacities and per-flow ceilings are evaluated at the *current* flow
/// counts. Returns one rate per flow (bytes/s). A convenience wrapper that
/// packs `flows` into the compressed form [`MaxMin::solve`] takes.
pub fn max_min_rates(models: &[LinkModel], flows: &[FlowSpec]) -> Vec<f64> {
    let caps: Vec<f64> = flows.iter().map(|f| f.cap).collect();
    let mut off = Vec::with_capacity(flows.len() + 1);
    let mut flat = Vec::new();
    off.push(0);
    for f in flows {
        flat.extend_from_slice(&f.links);
        off.push(flat.len());
    }
    MaxMin::default().solve(models, &caps, &off, &flat).to_vec()
}

/// Reusable working storage for the max-min solver. Keeping one across
/// recomputations makes each solve allocation-free once the buffers have
/// grown to the largest component seen.
#[derive(Debug, Default)]
pub struct MaxMin {
    active_on_link: Vec<usize>,
    remaining_cap: Vec<f64>,
    /// Each flow's total cap: intrinsic cap ∧ every PerFlow ceiling it crosses.
    ceiling: Vec<f64>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
    /// Transpose of the input: the flows crossing link `l` are
    /// `by_link[by_link_off[l]..by_link_off[l + 1]]`, in ascending order.
    by_link_off: Vec<usize>,
    by_link: Vec<usize>,
    /// Next free position in each link's `by_link` bucket while filling.
    cursor: Vec<usize>,
}

impl MaxMin {
    /// Max-min fair rates (progressive filling) for flows given in
    /// compressed sparse rows: flow `f` has intrinsic cap `caps[f]` and
    /// crosses links `flat[off[f]..off[f + 1]]`, which index `models`.
    /// Links are visited in `models` order and flows in index order, so
    /// the result is a pure function of the inputs, bit for bit. Returns
    /// one rate per flow (bytes/s).
    pub fn solve(
        &mut self,
        models: &[LinkModel],
        caps: &[f64],
        off: &[usize],
        flat: &[usize],
    ) -> &[f64] {
        let nf = caps.len();
        let nl = models.len();
        debug_assert_eq!(off.len(), nf + 1);
        self.rates.clear();
        if nf == 0 {
            return &self.rates;
        }
        let links_of = |f: usize| &flat[off[f]..off[f + 1]];

        // Flow counts per link -> effective capacities & per-flow ceilings.
        let active_on_link = &mut self.active_on_link;
        active_on_link.clear();
        active_on_link.resize(nl, 0);
        for &l in flat {
            active_on_link[l] += 1;
        }
        let remaining_cap = &mut self.remaining_cap;
        remaining_cap.clear();
        remaining_cap.extend(
            models
                .iter()
                .enumerate()
                .map(|(l, m)| m.effective_capacity(active_on_link[l])),
        );

        self.ceiling.clear();
        self.ceiling.extend((0..nf).map(|f| {
            let mut c = caps[f];
            for &l in links_of(f) {
                c = c.min(models[l].per_flow_cap(active_on_link[l]));
            }
            c.max(0.0)
        }));
        let ceiling = &self.ceiling;

        self.by_link_off.clear();
        self.by_link_off.push(0);
        let mut acc = 0;
        for &n in active_on_link.iter() {
            acc += n;
            self.by_link_off.push(acc);
        }
        self.by_link.clear();
        self.by_link.resize(flat.len(), 0);
        let cursor = &mut self.cursor;
        cursor.clear();
        cursor.extend_from_slice(&self.by_link_off[..nl]);
        for f in 0..nf {
            for &l in links_of(f) {
                self.by_link[cursor[l]] = f;
                cursor[l] += 1;
            }
        }

        let rates = &mut self.rates;
        rates.resize(nf, 0.0);
        let frozen = &mut self.frozen;
        frozen.clear();
        frozen.resize(nf, false);

        let freeze = |f: usize,
                      rate: f64,
                      rates: &mut [f64],
                      frozen: &mut [bool],
                      remaining_cap: &mut [f64],
                      active_on_link: &mut [usize]| {
            rates[f] = rate;
            frozen[f] = true;
            for &l in links_of(f) {
                remaining_cap[l] = (remaining_cap[l] - rate).max(0.0);
                active_on_link[l] -= 1;
            }
        };

        let mut active = nf;
        while active > 0 {
            // Bottleneck share: min over links (with active flows) of the
            // equal split of the remaining capacity.
            let mut s_star = f64::INFINITY;
            for l in 0..nl {
                if active_on_link[l] > 0 && remaining_cap[l].is_finite() {
                    s_star = s_star.min(remaining_cap[l] / active_on_link[l] as f64);
                }
            }
            // Smallest active flow cap.
            let mut c_star = f64::INFINITY;
            for f in 0..nf {
                if !frozen[f] {
                    c_star = c_star.min(ceiling[f]);
                }
            }

            if c_star <= s_star && c_star.is_finite() {
                // Cap-limited flows cannot use their share: freeze them at cap.
                for f in 0..nf {
                    if !frozen[f] && ceiling[f] <= s_star {
                        let r = ceiling[f];
                        freeze(f, r, rates, frozen, remaining_cap, active_on_link);
                        active -= 1;
                    }
                }
            } else if s_star.is_finite() {
                // Freeze every active flow crossing a bottleneck link at s*.
                let mut froze_any = false;
                for l in 0..nl {
                    if active_on_link[l] > 0
                        && remaining_cap[l].is_finite()
                        && remaining_cap[l] / active_on_link[l] as f64 <= s_star * (1.0 + 1e-12)
                    {
                        for &f in &self.by_link[self.by_link_off[l]..self.by_link_off[l + 1]] {
                            if !frozen[f] {
                                freeze(f, s_star, rates, frozen, remaining_cap, active_on_link);
                                active -= 1;
                                froze_any = true;
                            }
                        }
                    }
                }
                debug_assert!(froze_any, "progressive filling made no progress");
                if !froze_any {
                    break;
                }
            } else {
                // No finite constraint anywhere: unconstrained flows would get
                // infinite rate; clamp to a huge finite value to stay numeric.
                for f in 0..nf {
                    if !frozen[f] {
                        rates[f] = f64::MAX / 4.0;
                        frozen[f] = true;
                        active -= 1;
                    }
                }
            }
        }
        rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    fn shared(c: f64) -> LinkModel {
        LinkModel::Shared { capacity: c }
    }

    fn flow(cap: f64, links: &[usize]) -> FlowSpec {
        FlowSpec {
            cap,
            links: links.to_vec(),
        }
    }

    #[test]
    fn single_flow_gets_full_link() {
        let r = max_min_rates(&[shared(100.0)], &[flow(INF, &[0])]);
        assert_eq!(r, vec![100.0]);
    }

    #[test]
    fn two_flows_split_evenly() {
        let r = max_min_rates(&[shared(100.0)], &[flow(INF, &[0]), flow(INF, &[0])]);
        assert_eq!(r, vec![50.0, 50.0]);
    }

    #[test]
    fn capped_flow_leaves_rest_to_others() {
        let r = max_min_rates(
            &[shared(100.0)],
            &[flow(10.0, &[0]), flow(INF, &[0]), flow(INF, &[0])],
        );
        assert_eq!(r, vec![10.0, 45.0, 45.0]);
    }

    #[test]
    fn classic_three_link_example() {
        // Textbook max-min: links A=10, B=10; f0 crosses A+B, f1 crosses A,
        // f2 crosses B, f3 crosses B.
        // B is the bottleneck first: share 10/3; f0,f2,f3 -> 10/3.
        // Then A has f1 with 10-10/3 = 6.67 left -> f1 = 6.67.
        let r = max_min_rates(
            &[shared(10.0), shared(10.0)],
            &[
                flow(INF, &[0, 1]),
                flow(INF, &[0]),
                flow(INF, &[1]),
                flow(INF, &[1]),
            ],
        );
        assert!((r[0] - 10.0 / 3.0).abs() < 1e-9);
        assert!((r[1] - (10.0 - 10.0 / 3.0)).abs() < 1e-9);
        assert!((r[2] - 10.0 / 3.0).abs() < 1e-9);
        assert!((r[3] - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn flow_with_no_links_gets_cap() {
        let r = max_min_rates(&[shared(5.0)], &[flow(42.0, &[])]);
        assert_eq!(r, vec![42.0]);
    }

    #[test]
    fn link_capacity_never_exceeded() {
        let models = [shared(100.0), shared(30.0), shared(250.0)];
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| {
                let links: Vec<usize> = match i % 3 {
                    0 => vec![0, 2],
                    1 => vec![1, 2],
                    _ => vec![0, 1, 2],
                };
                flow(if i % 5 == 0 { 3.0 } else { INF }, &links)
            })
            .collect();
        let r = max_min_rates(&models, &flows);
        for (l, m) in models.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&r)
                .filter(|(f, _)| f.links.contains(&l))
                .map(|(_, rate)| *rate)
                .sum();
            let cap = m.effective_capacity(flows.iter().filter(|f| f.links.contains(&l)).count());
            assert!(
                used <= cap * (1.0 + 1e-9),
                "link {l}: used {used} > cap {cap}"
            );
        }
        // And every flow got a positive rate.
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn degrading_link_loses_capacity_past_knee() {
        let m = LinkModel::SharedDegrading {
            capacity: 400.0,
            knee: 128,
            gamma: 0.002,
        };
        assert_eq!(m.effective_capacity(1), 400.0);
        assert_eq!(m.effective_capacity(128), 400.0);
        let at192 = m.effective_capacity(192);
        assert!(at192 < 400.0 && at192 > 300.0, "at192={at192}");
    }

    #[test]
    fn per_flow_link_caps_individually() {
        let m = LinkModel::PerFlow {
            base: 13.0,
            beta: 32.0,
            exponent: 1.0,
        };
        // One flow: near base. 32 flows: base/2.
        assert!((m.per_flow_cap(0) - 13.0).abs() < 1e-9);
        assert!((m.per_flow_cap(32) - 6.5).abs() < 1e-9);
        // In allocation: 4 flows on a per-flow link with huge shared pipe.
        let models = [m, shared(1e9)];
        let flows: Vec<FlowSpec> = (0..4).map(|_| flow(INF, &[0, 1])).collect();
        let r = max_min_rates(&models, &flows);
        let expect = 13.0 / (1.0 + 4.0 / 32.0);
        for rate in r {
            assert!((rate - expect).abs() < 1e-9, "rate={rate} expect={expect}");
        }
    }

    #[test]
    fn per_flow_and_shared_combine() {
        // Per-flow ceiling 10 each, but shared pipe of 12 for 3 flows:
        // shared is the bottleneck -> 4 each.
        let models = [
            LinkModel::PerFlow {
                base: 10.0,
                beta: 1e12,
                exponent: 1.0,
            },
            shared(12.0),
        ];
        let flows: Vec<FlowSpec> = (0..3).map(|_| flow(INF, &[0, 1])).collect();
        let r = max_min_rates(&models, &flows);
        for rate in r {
            assert!((rate - 4.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unconstrained_flow_gets_finite_huge_rate() {
        let r = max_min_rates(&[], &[flow(INF, &[])]);
        assert!(r[0].is_finite());
        assert!(r[0] > 1e30);
    }

    #[test]
    fn zero_capacity_link_stalls_flows() {
        let r = max_min_rates(&[shared(0.0)], &[flow(INF, &[0]), flow(INF, &[0])]);
        assert_eq!(r, vec![0.0, 0.0]);
    }
}
