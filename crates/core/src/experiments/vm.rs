//! Experiment TAB1 — VM lifecycle timing campaign (paper §4.1, Table 1).
//!
//! "For every run of our test program, the test program randomly picks a
//! role type and a VM size, and creates a new Azure cloud deployment ...
//! Then our test program measures the time spent in all five phases —
//! create, run, add, suspend and delete." The paper collected 431
//! successful runs and observed a 2.6 % VM startup failure rate.

use std::collections::HashMap;

use fabric::{
    DeploymentSpec, FabricConfig, FabricController, FabricError, Phase, RoleType, VmSize,
};
use simcore::prelude::*;
use simcore::report::{num, AsciiTable};
use simlab::{run_cells, RunOpts};

/// Configuration of the lifecycle campaign.
#[derive(Debug, Clone)]
pub struct VmLifecycleConfig {
    /// Successful runs to collect (paper: 431).
    pub successful_runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for VmLifecycleConfig {
    fn default() -> Self {
        VmLifecycleConfig {
            successful_runs: 431,
            seed: 0x7AB1,
        }
    }
}

impl VmLifecycleConfig {
    /// Reduced campaign for quick runs.
    pub fn quick() -> Self {
        VmLifecycleConfig {
            successful_runs: 48,
            seed: 0x7AB1,
        }
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone)]
pub struct VmLifecycleResult {
    /// Per-(role, size, phase) statistics.
    pub cells: HashMap<(RoleType, VmSize, Phase), OnlineStats>,
    /// Successful lifecycle runs collected.
    pub successes: u64,
    /// Start requests that failed (the 2.6 %).
    pub failures: u64,
    /// Total start requests issued (run + add attempts).
    pub start_requests: u64,
}

impl VmLifecycleResult {
    /// Mean of one cell, seconds (`None` if never sampled, e.g. XL Add).
    pub fn mean(&self, role: RoleType, size: VmSize, phase: Phase) -> Option<f64> {
        self.cells.get(&(role, size, phase)).map(|s| s.mean())
    }

    /// Std of one cell, seconds.
    pub fn std(&self, role: RoleType, size: VmSize, phase: Phase) -> Option<f64> {
        self.cells.get(&(role, size, phase)).map(|s| s.std())
    }

    /// Observed startup-failure rate per start request.
    pub fn failure_rate(&self) -> f64 {
        if self.start_requests == 0 {
            0.0
        } else {
            self.failures as f64 / self.start_requests as f64
        }
    }

    /// Render in the paper's Table 1 layout.
    pub fn render(&self) -> String {
        let mut t = AsciiTable::new(vec![
            "Role",
            "Size",
            "Statistic",
            "Create",
            "Run",
            "Add",
            "Suspend",
            "Delete",
        ])
        .with_title("Table 1 — worker/web role VM request time (s)");
        for role in RoleType::ALL {
            for size in VmSize::ALL {
                for (stat_name, f) in [("AVG", true), ("STD", false)] {
                    let cell = |phase: Phase| -> String {
                        match self.cells.get(&(role, size, phase)) {
                            Some(s) if s.count() > 0 => num(if f { s.mean() } else { s.std() }, 0),
                            _ => "N/A".to_string(),
                        }
                    };
                    t.row(vec![
                        role.to_string(),
                        size.to_string(),
                        stat_name.to_string(),
                        cell(Phase::Create),
                        cell(Phase::Run),
                        cell(Phase::Add),
                        cell(Phase::Suspend),
                        cell(Phase::Delete),
                    ]);
                }
            }
        }
        t.render()
    }
}

/// Run the campaign. Table 1 is one long sequential simulation, so it
/// is a single cell; the cell context still routes `--faults` and
/// `--trace` to whichever thread runs it. Returns the result and the
/// traced cell's summary, if any.
pub fn run(cfg: &VmLifecycleConfig, opts: &RunOpts) -> (VmLifecycleResult, Option<String>) {
    let mut out = run_cells(1, opts, |_, ctx| {
        ctx.with_sim(cfg.seed, |sim| run_on(sim, cfg))
    });
    (out.cells.remove(0), out.trace_summary)
}

fn run_on(sim: &Sim, cfg: &VmLifecycleConfig) -> VmLifecycleResult {
    let fc = FabricController::new(sim, FabricConfig::default());
    let mut rng = sim.rng("vm.campaign");
    let target = cfg.successful_runs;
    let s = sim.clone();
    let h = sim.spawn(async move {
        let mut cells: HashMap<(RoleType, VmSize, Phase), OnlineStats> = HashMap::new();
        let mut successes = 0u64;
        let mut failures = 0u64;
        let mut start_requests = 0u64;
        let record = |cells: &mut HashMap<(RoleType, VmSize, Phase), OnlineStats>,
                      role: RoleType,
                      size: VmSize,
                      phase: Phase,
                      secs: f64| {
            cells.entry((role, size, phase)).or_default().push(secs);
        };
        while successes < target as u64 {
            let role = *rng.pick(&RoleType::ALL);
            let size = *rng.pick(&VmSize::ALL);
            let spec = DeploymentSpec::paper_test(role, size);
            let dep = match fc.create_deployment(spec).await {
                Ok(d) => d,
                Err(_) => continue,
            };
            let create_s = dep.create_duration().as_secs_f64();

            start_requests += 1;
            let run = match dep.run().await {
                Ok(r) => r,
                Err(FabricError::StartupFailure) => {
                    failures += 1;
                    let _ = dep.delete().await;
                    continue;
                }
                Err(_) => {
                    let _ = dep.delete().await;
                    continue;
                }
            };

            let add = if size == VmSize::ExtraLarge {
                None
            } else {
                start_requests += 1;
                match dep.add_instances().await {
                    Ok(r) => Some(r),
                    Err(FabricError::StartupFailure) => {
                        failures += 1;
                        let _ = dep.suspend().await;
                        let _ = dep.delete().await;
                        continue;
                    }
                    Err(_) => None,
                }
            };

            let sus = match dep.suspend().await {
                Ok(r) => r,
                Err(_) => continue,
            };
            let del = match dep.delete().await {
                Ok(r) => r,
                Err(_) => continue,
            };

            record(&mut cells, role, size, Phase::Create, create_s);
            record(
                &mut cells,
                role,
                size,
                Phase::Run,
                run.duration.as_secs_f64(),
            );
            if let Some(a) = add {
                record(&mut cells, role, size, Phase::Add, a.duration.as_secs_f64());
            }
            record(
                &mut cells,
                role,
                size,
                Phase::Suspend,
                sus.duration.as_secs_f64(),
            );
            record(
                &mut cells,
                role,
                size,
                Phase::Delete,
                del.duration.as_secs_f64(),
            );
            successes += 1;
            // Space runs out like the real campaign did (and keep the
            // clock moving between deployments).
            s.delay(SimDuration::from_secs(30)).await;
        }
        (cells, successes, failures, start_requests)
    });
    sim.run();
    let (cells, successes, failures, start_requests) = h.try_take().expect("campaign done");
    VmLifecycleResult {
        cells,
        successes,
        failures,
        start_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::calib::paper_table1;

    fn campaign() -> VmLifecycleResult {
        let cfg = VmLifecycleConfig {
            successful_runs: 160,
            seed: 0x7AB1,
        };
        run(&cfg, &RunOpts::serial()).0
    }

    #[test]
    fn campaign_collects_requested_successes() {
        let cfg = VmLifecycleConfig {
            successful_runs: 10,
            seed: 1,
        };
        assert_eq!(run(&cfg, &RunOpts::serial()).0.successes, 10);
        let r = campaign();
        assert_eq!(r.successes, 160);
        // Every (role, size) cell eventually sampled.
        for role in RoleType::ALL {
            for size in VmSize::ALL {
                assert!(
                    r.mean(role, size, Phase::Run).is_some(),
                    "{role}/{size} never sampled"
                );
            }
        }
    }

    #[test]
    fn means_track_paper_table1() {
        let r = campaign();
        for role in RoleType::ALL {
            for size in VmSize::ALL {
                let row = paper_table1(role, size);
                let checks: Vec<(Phase, f64)> = vec![
                    (Phase::Create, row.create.avg),
                    (Phase::Run, row.run.avg),
                    (Phase::Suspend, row.suspend.avg),
                ];
                for (phase, target) in checks {
                    if let Some(mean) = r.mean(role, size, phase) {
                        let rel = (mean - target).abs() / target;
                        assert!(
                            rel < 0.25,
                            "{role}/{size}/{phase}: {mean:.0} vs paper {target}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn xl_add_stays_na() {
        let r = campaign();
        for role in RoleType::ALL {
            assert!(r.mean(role, VmSize::ExtraLarge, Phase::Add).is_none());
        }
    }

    #[test]
    fn failure_rate_near_paper() {
        let r = campaign();
        let rate = r.failure_rate();
        // Paper: 2.6 %. Wide band for a 160-run sample.
        assert!((0.005..0.07).contains(&rate), "failure rate = {rate}");
    }

    #[test]
    fn render_has_16_stat_rows_and_na() {
        let cfg = VmLifecycleConfig {
            successful_runs: 30,
            seed: 1,
        };
        let (r, _) = run(&cfg, &RunOpts::serial());
        let s = r.render();
        assert!(s.contains("Table 1"));
        assert!(s.contains("N/A"), "XL Add must render as N/A");
        // 8 (role,size) combos x AVG+STD.
        assert_eq!(s.lines().count(), 1 + 2 + 16);
    }
}
