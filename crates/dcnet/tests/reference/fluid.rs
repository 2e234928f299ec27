//! The pre-slab max-min entry points, verbatim: the dense solver over
//! `FlowSpec`s and the `HashMap`-mapped sparse wrapper the reference
//! `Network` calls. Test-only; the differential oracle runs the old
//! `Network` on these so it shares no solver code with the new one.

use dcnet::fluid::{FlowSpec, LinkModel};

/// Compute max-min fair rates.
///
/// `models[l]` describes link `l`; `flows[f]` describes flow `f`. Effective
/// capacities and per-flow ceilings are evaluated at the *current* flow
/// counts. Returns one rate per flow (bytes/s).
pub fn max_min_rates(models: &[LinkModel], flows: &[FlowSpec]) -> Vec<f64> {
    let nf = flows.len();
    let nl = models.len();
    if nf == 0 {
        return Vec::new();
    }

    // Flow counts per link -> effective capacities & per-flow ceilings.
    let mut flows_on_link = vec![0usize; nl];
    for f in flows {
        for &l in &f.links {
            flows_on_link[l] += 1;
        }
    }
    let link_cap: Vec<f64> = models
        .iter()
        .enumerate()
        .map(|(l, m)| m.effective_capacity(flows_on_link[l]))
        .collect();

    // Each flow's total cap: intrinsic cap ∧ every PerFlow ceiling it crosses.
    let caps: Vec<f64> = flows
        .iter()
        .map(|f| {
            let mut c = f.cap;
            for &l in &f.links {
                c = c.min(models[l].per_flow_cap(flows_on_link[l]));
            }
            c.max(0.0)
        })
        .collect();

    let mut rates = vec![0.0f64; nf];
    let mut frozen = vec![false; nf];
    let mut remaining_cap = link_cap;
    let mut active_on_link = flows_on_link;

    let freeze = |f: usize,
                  rate: f64,
                  rates: &mut [f64],
                  frozen: &mut [bool],
                  remaining_cap: &mut [f64],
                  active_on_link: &mut [usize]| {
        rates[f] = rate;
        frozen[f] = true;
        for &l in &flows[f].links {
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
                c_star = c_star.min(caps[f]);
            }
        }

        if c_star <= s_star && c_star.is_finite() {
            // Cap-limited flows cannot use their share: freeze them at cap.
            for f in 0..nf {
                if !frozen[f] && caps[f] <= s_star {
                    let r = caps[f];
                    freeze(
                        f,
                        r,
                        &mut rates,
                        &mut frozen,
                        &mut remaining_cap,
                        &mut active_on_link,
                    );
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
                    // Collect first: freezing mutates active_on_link.
                    let on_l: Vec<usize> = (0..nf)
                        .filter(|&f| !frozen[f] && flows[f].links.contains(&l))
                        .collect();
                    for f in on_l {
                        if !frozen[f] {
                            freeze(
                                f,
                                s_star,
                                &mut rates,
                                &mut frozen,
                                &mut remaining_cap,
                                &mut active_on_link,
                            );
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

/// Sparse entry point: like [`max_min_rates`], but looks up only the
/// links the flows actually cross via `model_of`. Networks with very
/// many links (one egress pipe per blob) but few active flows pay
/// O(active links), not O(all links), per recomputation.
pub fn max_min_rates_with(
    flows: &[FlowSpec],
    mut model_of: impl FnMut(usize) -> LinkModel,
) -> Vec<f64> {
    use std::collections::HashMap;
    let mut dense: HashMap<usize, usize> = HashMap::new();
    let mut used_models: Vec<LinkModel> = Vec::new();
    let dense_flows: Vec<FlowSpec> = flows
        .iter()
        .map(|f| FlowSpec {
            cap: f.cap,
            links: f
                .links
                .iter()
                .map(|&l| {
                    *dense.entry(l).or_insert_with(|| {
                        used_models.push(model_of(l));
                        used_models.len() - 1
                    })
                })
                .collect(),
        })
        .collect();
    max_min_rates(&used_models, &dense_flows)
}
