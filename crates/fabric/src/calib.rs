//! Fabric calibration: the paper's Table 1 grid and the decomposed
//! phase-time model derived from it.
//!
//! Table 1 ("Worker role and web role VM request time (s)") is the
//! anchor: the model decomposes each phase mechanistically and derives
//! its parameters so the means reproduce the grid *by construction*,
//! while the textual observations (10-min startup headline, package-size
//! effect, 1st→4th instance lag, web-role suspend cost, flat deletes)
//! fall out of the decomposition.
//!
//! Known deliberate deviation (DESIGN.md §8): Table 1's Run averages and
//! the text's "first instance ready in 9–10 min" cannot both hold given
//! the also-stated 4-minute 1st→4th lag; we reproduce the Table 1 grid
//! and the create+run ≈ 10 min headline, and keep the ~4-min stagger
//! inside the run phase.

use crate::types::{RoleType, VmSize};

/// Mean/std pair in seconds, straight from the paper's Table 1.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    /// Reported average.
    pub avg: f64,
    /// Reported standard deviation.
    pub std: f64,
}

/// One Table 1 row: all five phases for a (role, size) pair.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Create phase stats.
    pub create: PhaseStat,
    /// Run phase stats.
    pub run: PhaseStat,
    /// Add phase stats (`None` = the paper's "N/A" for extra large).
    pub add: Option<PhaseStat>,
    /// Suspend phase stats.
    pub suspend: PhaseStat,
    /// Delete phase stats.
    pub delete: PhaseStat,
}

const fn ps(avg: f64, std: f64) -> PhaseStat {
    PhaseStat { avg, std }
}

/// The verbatim Table 1 grid.
pub fn paper_table1(role: RoleType, size: VmSize) -> Table1Row {
    match (role, size) {
        (RoleType::Worker, VmSize::Small) => Table1Row {
            create: ps(86.0, 27.0),
            run: ps(533.0, 36.0),
            add: Some(ps(1026.0, 355.0)),
            suspend: ps(40.0, 30.0),
            delete: ps(6.0, 5.0),
        },
        (RoleType::Worker, VmSize::Medium) => Table1Row {
            create: ps(61.0, 10.0),
            run: ps(591.0, 42.0),
            add: Some(ps(740.0, 176.0)),
            suspend: ps(37.0, 12.0),
            delete: ps(5.0, 3.0),
        },
        (RoleType::Worker, VmSize::Large) => Table1Row {
            create: ps(54.0, 11.0),
            run: ps(660.0, 91.0),
            add: Some(ps(774.0, 137.0)),
            suspend: ps(35.0, 8.0),
            delete: ps(6.0, 6.0),
        },
        (RoleType::Worker, VmSize::ExtraLarge) => Table1Row {
            create: ps(51.0, 9.0),
            run: ps(790.0, 30.0),
            add: None,
            suspend: ps(42.0, 19.0),
            delete: ps(6.0, 5.0),
        },
        (RoleType::Web, VmSize::Small) => Table1Row {
            create: ps(86.0, 17.0),
            run: ps(594.0, 32.0),
            add: Some(ps(1132.0, 478.0)),
            suspend: ps(86.0, 14.0),
            delete: ps(6.0, 2.0),
        },
        (RoleType::Web, VmSize::Medium) => Table1Row {
            create: ps(61.0, 10.0),
            run: ps(637.0, 77.0),
            add: Some(ps(789.0, 181.0)),
            suspend: ps(92.0, 17.0),
            delete: ps(6.0, 6.0),
        },
        (RoleType::Web, VmSize::Large) => Table1Row {
            create: ps(52.0, 9.0),
            run: ps(679.0, 40.0),
            add: Some(ps(670.0, 155.0)),
            suspend: ps(94.0, 14.0),
            delete: ps(5.0, 3.0),
        },
        (RoleType::Web, VmSize::ExtraLarge) => Table1Row {
            create: ps(55.0, 16.0),
            run: ps(827.0, 40.0),
            add: None,
            suspend: ps(96.0, 3.0),
            delete: ps(6.0, 8.0),
        },
    }
}

/// Package size of the paper's test deployment, MB (observation 5 puts a
/// 1.2 MB vs 5 MB comparison; the main campaign used the larger one).
pub const REFERENCE_PACKAGE_MB: f64 = 5.0;

/// Package staging rate through the deployment pipeline: "A 1.2 MB
/// application starts 30 s faster than a 5 MB application" ⇒
/// (5 − 1.2)/30 ≈ 0.127 MB/s.
pub const PACKAGE_STAGE_MB_PER_S: f64 = 0.127;

/// Mean readiness lag between consecutive instances during Run: "we have
/// observed a 4 min lag between the 1st instance and the 4th instance"
/// — three gaps ⇒ 80 s each (observation 3).
pub const RUN_STAGGER_MEAN_S: f64 = 80.0;

/// Stagger jitter (kept tight: Table 1's Run stds are small).
pub const RUN_STAGGER_STD_S: f64 = 15.0;

/// Minimum per-instance stagger during Add (lag is derived per size from
/// Table 1 but never below this).
pub const ADD_STAGGER_MIN_S: f64 = 10.0;

/// VM startup failure rate: "The VM startup failure rate, taking into
/// account all of our test cases, is 2.6%" (§4.1). Applied per run/add
/// request.
pub const STARTUP_FAILURE_P: f64 = 0.026;

/// Subscription quota: "the 20-core limit imposed by Azure on normal
/// user accounts" (§4.1).
pub const QUOTA_CORES: u32 = 20;

/// First-instance boot time for Run: Table 1 run mean minus the expected
/// stagger of the remaining instances.
pub fn run_first_boot_mean(role: RoleType, size: VmSize) -> f64 {
    let row = paper_table1(role, size);
    let extra = (size.test_instances() as f64 - 1.0) * RUN_STAGGER_MEAN_S;
    (row.run.avg - extra).max(30.0)
}

/// Per-instance stagger for Add, derived so the Add mean matches Table 1
/// given the same first-boot base as Run.
pub fn add_stagger_mean(role: RoleType, size: VmSize) -> Option<f64> {
    let row = paper_table1(role, size);
    let add = row.add?;
    let added = size.test_instances() as f64;
    Some(((add.avg - run_first_boot_mean(role, size)) / added).max(ADD_STAGGER_MIN_S))
}

/// First-boot base for Add (re-derived so the mean is exact even where
/// the stagger was clamped, e.g. web/large where Add < Run in Table 1).
pub fn add_first_boot_mean(role: RoleType, size: VmSize) -> Option<f64> {
    let row = paper_table1(role, size);
    let add = row.add?;
    let added = size.test_instances() as f64;
    let lag = add_stagger_mean(role, size)?;
    Some((add.avg - added * lag).max(30.0))
}

/// Expected decision→first-capacity lead time of a scale-out: the mean
/// add-first-boot delay plus one expected stagger (the first added
/// instance itself arrives one stagger after the boot base — see
/// `Deployment::add_impl`, which draws b1 and then `count` staggers).
/// Predictive autoscalers must order capacity this far ahead of a
/// forecast knee; for small worker roles it is ≈ 476 s, the "10-minute
/// VM tax" Table 1 measures.
pub fn scale_out_lead_s(role: RoleType, size: VmSize) -> Option<f64> {
    Some(add_first_boot_mean(role, size)? + add_stagger_mean(role, size)?)
}

// ---------------------------------------------------------------------------
// Host performance variation (paper §5.2, Fig 7)
// ---------------------------------------------------------------------------

/// Speed factor of a degraded host: the paper saw slowdowns "of over 4×"
/// (tasks killed at 4× the historical mean after 45–60 min vs ~10 min
/// normal), so degraded hosts run at 1/8–1/4 speed.
pub const DEGRADED_SPEED_MIN: f64 = 0.08;
/// Upper bound of the degraded speed factor.
pub const DEGRADED_SPEED_MAX: f64 = 0.22;

/// Mean length of one degradation episode.
pub const EPISODE_MEAN_HOURS: f64 = 2.0;

/// Baseline per-hour probability a host enters a degraded episode on a
/// day with severity multiplier 1. Together with the severity mixture
/// below this pins the campaign-wide timeout rate near the paper's
/// 0.17 % (5 300 / 3 054 430 task executions).
pub const HOURLY_DEGRADE_BASE_P: f64 = 1.6e-3;

/// Day-severity mixture: most days are clean, some are mildly noisy, a
/// few are bad, and rare days are the catastrophic ones behind Fig 7's
/// ~16 % spikes.
#[derive(Debug, Clone, Copy)]
pub struct SeverityMix {
    /// P(clean day): multiplier 0.
    pub p_clean: f64,
    /// P(mild day): multiplier uniform in `mild`.
    pub p_mild: f64,
    /// P(bad day): multiplier uniform in `bad`. Remainder is severe.
    pub p_bad: f64,
    /// Mild multiplier range.
    pub mild: (f64, f64),
    /// Bad multiplier range.
    pub bad: (f64, f64),
    /// Severe multiplier range.
    pub severe: (f64, f64),
}

/// Default severity mixture (see Fig 7 calibration test in `modis`).
pub const SEVERITY: SeverityMix = SeverityMix {
    p_clean: 0.65,
    p_mild: 0.24,
    p_bad: 0.10,
    mild: (0.3, 2.0),
    bad: (2.0, 20.0),
    severe: (20.0, 200.0),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_plus_run_is_about_ten_minutes_for_small() {
        // Observation 2's headline: "the average time to start a worker
        // role small instance is around 9 min ... web role ... around
        // 10 min" (create + run).
        for (role, lo, hi) in [(RoleType::Worker, 9.0, 11.0), (RoleType::Web, 10.0, 12.0)] {
            let row = paper_table1(role, VmSize::Small);
            let mins = (row.create.avg + row.run.avg) / 60.0;
            assert!((lo..hi).contains(&mins), "{role}: {mins} min");
        }
    }

    #[test]
    fn run_first_boot_leaves_4min_stagger_for_small() {
        let b1 = run_first_boot_mean(RoleType::Worker, VmSize::Small);
        // 533 - 3*80 = 293.
        assert!((b1 - 293.0).abs() < 1e-9);
        // Large/XL have one instance: first boot IS the run mean.
        assert_eq!(
            run_first_boot_mean(RoleType::Web, VmSize::ExtraLarge),
            827.0
        );
    }

    #[test]
    fn add_model_reconstructs_table1_means() {
        for role in RoleType::ALL {
            for size in VmSize::ALL {
                let row = paper_table1(role, size);
                let Some(add) = row.add else {
                    assert_eq!(size, VmSize::ExtraLarge);
                    continue;
                };
                let b1 = add_first_boot_mean(role, size).unwrap();
                let lag = add_stagger_mean(role, size).unwrap();
                let mean = b1 + size.test_instances() as f64 * lag;
                assert!(
                    (mean - add.avg).abs() < 1.0,
                    "{role}/{size}: model {mean} vs table {}",
                    add.avg
                );
            }
        }
    }

    #[test]
    fn adds_are_slower_than_runs_for_small_and_medium() {
        // Observation 4: "Adding more instances to existing deployment
        // takes much longer than requesting the same number initially."
        for role in RoleType::ALL {
            for size in [VmSize::Small, VmSize::Medium] {
                let row = paper_table1(role, size);
                assert!(row.add.unwrap().avg > row.run.avg, "{role}/{size}");
            }
        }
    }

    #[test]
    fn web_suspend_is_slower_than_worker() {
        // "web roles took ... longer" to suspend: LB drain + IIS.
        for size in VmSize::ALL {
            let web = paper_table1(RoleType::Web, size).suspend.avg;
            let worker = paper_table1(RoleType::Worker, size).suspend.avg;
            assert!(web > worker + 40.0, "{size}: web {web} worker {worker}");
        }
    }

    #[test]
    fn deletes_are_flat_six_seconds() {
        // Observation 6: "consistent performance for deployment
        // deletion, around 6 s for all test cases".
        for role in RoleType::ALL {
            for size in VmSize::ALL {
                let d = paper_table1(role, size).delete.avg;
                assert!((5.0..=6.0).contains(&d));
            }
        }
    }

    #[test]
    fn package_effect_matches_observation_five() {
        let delta = (5.0 - 1.2) / PACKAGE_STAGE_MB_PER_S;
        assert!((delta - 30.0).abs() < 1.0, "delta={delta}");
    }

    #[test]
    fn severity_mixture_probabilities_are_valid() {
        let s = SEVERITY;
        let total = s.p_clean + s.p_mild + s.p_bad;
        assert!(total < 1.0 && total > 0.9);
        assert!(s.mild.0 < s.mild.1 && s.bad.0 < s.bad.1 && s.severe.0 < s.severe.1);
    }

    #[test]
    fn degraded_hosts_are_at_least_4x_slower() {
        const { assert!(DEGRADED_SPEED_MAX <= 0.25 && DEGRADED_SPEED_MIN > 0.0) };
    }
}
