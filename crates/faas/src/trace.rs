//! Deterministic synthetic invocation traces shaped like the Azure
//! Functions 2019 dataset, plus a replay adapter for the real thing.
//!
//! The generator reproduces the three published shape facts from
//! *Serverless in the Wild* (Shahrad et al., ATC'20) without needing
//! the dataset on disk:
//!
//! * **Pareto-ish popularity** — a handful of apps produce most
//!   invocations while the long tail fires every few minutes or less.
//!   Per-app mean rates follow a jittered log-uniform rank curve from
//!   the cap down to the floor, so the head is busy enough to learn
//!   keepalive windows from while the tail stays cold-start-dominated.
//! * **Heavy-tailed inter-invocation times** — most apps are bursty:
//!   Weibull-renewal gaps with shape < 1 (tight clusters separated by
//!   gaps much longer than the mean), the regime where keepalive
//!   policy choice decides the cold-start bill.
//! * **Diurnal app classes** — a slice of apps follows a daily rate
//!   curve with a per-app phase, so the population's load moves around
//!   the clock instead of breathing in unison. A timer-trigger slice
//!   fires on near-constant periods — the predictable class whose
//!   inter-arrival histogram a prewarm policy can actually exploit.
//!
//! Every draw comes from forks of one dedicated master stream
//! (`sim.rng("faas.trace")` in the cell runner), taken **before** any
//! fabric randomness: the schedule is a pure function of the seed and
//! the shape, byte-identical across shard counts and policies.

use simcore::dist::{Dist, LogNormal, Uniform};
use simcore::rng::SimRng;
use simload::ArrivalProcess;

/// Behavioural class of one app (which arrival process drives it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// Heavy-tailed Weibull-renewal gaps (the dominant class).
    Bursty,
    /// Diurnal rate curve with a per-app phase.
    Diurnal,
    /// Timer triggers: near-constant gaps with scheduler jitter.
    Steady,
}

impl AppClass {
    /// Stable short name (decision logs, CSV).
    pub fn name(self) -> &'static str {
        match self {
            AppClass::Bursty => "bursty",
            AppClass::Diurnal => "diurnal",
            AppClass::Steady => "steady",
        }
    }
}

/// Population-level shape knobs — the campaign sweeps presets of this.
#[derive(Debug, Clone)]
pub struct TraceShape {
    /// Stable short name (CSV column values).
    pub name: &'static str,
    /// Class mix weights `(bursty, diurnal, steady)`; need not sum to 1.
    pub class_weights: (f64, f64, f64),
    /// Weibull shape of bursty apps' inter-invocation gaps (< 1).
    pub burst_shape: f64,
    /// Skew exponent of the log-uniform rank-rate curve: per-app rates
    /// span cap→floor geometrically by rank, with the rank fraction
    /// raised to this power (>1 thickens the busy head, ≈1 is the
    /// published very-heavy popularity tail).
    pub popularity_alpha: f64,
    /// Slowest per-app mean rate (rank-curve floor), invocations/s.
    pub rate_floor_ops_s: f64,
    /// Fastest per-app mean rate (cap), invocations/s.
    pub rate_cap_ops_s: f64,
    /// Period of the diurnal class's rate curve, seconds.
    pub day_s: f64,
}

impl TraceShape {
    /// The published mix: mostly bursty apps, a diurnal slice, a steady
    /// slice — the shape the keepalive frontier is judged on.
    pub fn wild() -> TraceShape {
        TraceShape {
            name: "wild",
            class_weights: (0.6, 0.25, 0.15),
            burst_shape: 0.5,
            popularity_alpha: 1.1,
            rate_floor_ops_s: 1.0 / 900.0,
            rate_cap_ops_s: 1.0,
            day_s: 7200.0,
        }
    }

    /// Diurnal-dominated population (per-app phases spread the peaks).
    pub fn diurnal() -> TraceShape {
        TraceShape {
            name: "diurnal",
            class_weights: (0.15, 0.7, 0.15),
            burst_shape: 0.6,
            popularity_alpha: 1.2,
            rate_floor_ops_s: 1.0 / 600.0,
            rate_cap_ops_s: 1.0,
            day_s: 7200.0,
        }
    }

    /// Extreme-burstiness population: nearly every app heavy-tailed at
    /// shape 0.35 — the adversarial case for fixed windows.
    pub fn bursty() -> TraceShape {
        TraceShape {
            name: "bursty",
            class_weights: (0.9, 0.0, 0.1),
            burst_shape: 0.35,
            popularity_alpha: 1.05,
            rate_floor_ops_s: 1.0 / 1200.0,
            rate_cap_ops_s: 0.5,
            day_s: 7200.0,
        }
    }

    /// The campaign's trace shapes, sweep order.
    pub fn presets() -> Vec<TraceShape> {
        vec![
            TraceShape::wild(),
            TraceShape::diurnal(),
            TraceShape::bursty(),
        ]
    }
}

/// Static description of one app in the population.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Index into the trace's app table.
    pub id: usize,
    /// Arrival-process class.
    pub class: AppClass,
    /// Long-run mean invocation rate, invocations/s.
    pub rate_ops_s: f64,
    /// Resident container footprint, MB (Azure p50 ≈ 170 MB).
    pub mem_mb: f64,
    /// Code package staged on cold start, MB (drives create time).
    pub package_mb: f64,
    /// Mean execution duration, seconds.
    pub exec_mean_s: f64,
}

/// One function invocation.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// Arrival instant, seconds.
    pub t_s: f64,
    /// App it belongs to.
    pub app: usize,
    /// Execution duration on a nominal-speed host, seconds.
    pub exec_s: f64,
}

/// A complete invocation trace: the app population plus the merged,
/// time-ordered schedule.
#[derive(Debug, Clone)]
pub struct FaasTrace {
    /// App table (`Invocation::app` indexes it).
    pub apps: Vec<AppSpec>,
    /// All invocations, ascending by `(t_s, app)`.
    pub invocations: Vec<Invocation>,
}

impl FaasTrace {
    /// Generate a synthetic trace: `napps` apps over `[0, horizon_s)`.
    ///
    /// `master` must be a dedicated stream (the cell runner passes
    /// `sim.rng("faas.trace")`); each app gets its own fork, so the
    /// population is stable under changes to any single app's draws.
    pub fn synth(
        master: &mut SimRng,
        shape: &TraceShape,
        napps: usize,
        horizon_s: f64,
    ) -> FaasTrace {
        assert!(napps > 0 && horizon_s > 0.0);
        let (wb, wd, ws) = shape.class_weights;
        let wsum = wb + wd + ws;
        assert!(wsum > 0.0, "class weights must not all be zero");
        let mut apps = Vec::with_capacity(napps);
        let mut invocations = Vec::new();
        for id in 0..napps {
            let mut rng = master.fork(&format!("app{id}"));
            let class = {
                let u = rng.f64() * wsum;
                if u < wb {
                    AppClass::Bursty
                } else if u < wb + wd {
                    AppClass::Diurnal
                } else {
                    AppClass::Steady
                }
            };
            // Log-uniform popularity by rank (app 0 is the head): rates
            // span the full cap→floor spectrum for any population size,
            // so every cell has both always-warm head apps and a sparse
            // tail where keepalive policy decides the cold-start bill.
            let span = shape.rate_floor_ops_s / shape.rate_cap_ops_s;
            let frac = if napps > 1 {
                (id as f64 / (napps - 1) as f64).powf(shape.popularity_alpha)
            } else {
                0.0
            };
            let rate =
                (shape.rate_cap_ops_s * span.powf(frac) * Uniform::new(0.7, 1.3).sample(&mut rng))
                    .clamp(shape.rate_floor_ops_s, shape.rate_cap_ops_s);
            // Azure Functions first-percentile allocated memory is
            // ~100-200 MB at the median with a long tail; log-normal
            // around 170 MB clipped to a container-plausible band.
            let mem_mb = LogNormal::with_mean(170.0, 0.6)
                .sample(&mut rng)
                .clamp(32.0, 2048.0);
            // Package sizes symmetric around the 5 MB Table 1 reference
            // so the population-mean create time matches the calibrated
            // lifecycle exactly.
            let package_mb = Uniform::new(1.2, 8.8).sample(&mut rng);
            // Executions are sub-second at the median with a tail —
            // short against every lifecycle phase, as in the dataset.
            let exec_mean_s = LogNormal::with_mean(0.6, 0.8)
                .sample(&mut rng)
                .clamp(0.05, 10.0);
            let process = match class {
                AppClass::Bursty => ArrivalProcess::HeavyTail {
                    shape: shape.burst_shape,
                },
                AppClass::Diurnal => ArrivalProcess::Diurnal {
                    period_s: shape.day_s,
                    amplitude: 0.8,
                    phase: rng.f64(),
                },
                AppClass::Steady => ArrivalProcess::Periodic { cv: 0.05 },
            };
            let instants = process.instants(&mut rng, rate, horizon_s);
            let exec = LogNormal::with_mean(exec_mean_s, 0.5);
            for t_s in instants {
                invocations.push(Invocation {
                    t_s,
                    app: id,
                    exec_s: exec.sample(&mut rng).clamp(0.01, 30.0),
                });
            }
            apps.push(AppSpec {
                id,
                class,
                rate_ops_s: rate,
                mem_mb,
                package_mb,
                exec_mean_s,
            });
        }
        invocations.sort_by(|a, b| {
            a.t_s
                .partial_cmp(&b.t_s)
                .expect("finite instants")
                .then(a.app.cmp(&b.app))
        });
        FaasTrace { apps, invocations }
    }

    /// Replay adapter for the Azure Functions 2019 invocations file:
    /// `HashOwner,HashApp,HashFunction,Trigger,1,2,…,1440` with
    /// per-minute invocation counts. Functions aggregate into their
    /// app; each minute's count spreads evenly across the minute (the
    /// dataset's resolution floor). Apps get the dataset's published
    /// medians for memory (170 MB) and execution (0.6 s) since the
    /// percentile files ship separately. Instants beyond `horizon_s`
    /// are clipped. A malformed file, including counts whose per-app
    /// sum overflows `u64`, is an `Err`, never a panic.
    pub fn from_azure_invocations_csv(text: &str, horizon_s: f64) -> Result<FaasTrace, String> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty trace file")?;
        let cols: Vec<&str> = header.split(',').collect();
        if cols.len() < 5 || cols[1] != "HashApp" {
            return Err(format!(
                "unexpected header (want HashOwner,HashApp,HashFunction,Trigger,1,…): {header:?}"
            ));
        }
        let minutes = cols.len() - 4;
        // App order = first appearance in the file (deterministic).
        let mut app_ids: Vec<String> = Vec::new();
        let mut per_app_counts: Vec<Vec<u64>> = Vec::new();
        for (lineno, line) in lines {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != cols.len() {
                return Err(format!(
                    "line {}: {} fields, header has {}",
                    lineno + 1,
                    fields.len(),
                    cols.len()
                ));
            }
            let app_hash = fields[1];
            let id = match app_ids.iter().position(|a| a == app_hash) {
                Some(i) => i,
                None => {
                    app_ids.push(app_hash.to_string());
                    per_app_counts.push(vec![0; minutes]);
                    app_ids.len() - 1
                }
            };
            for (m, f) in fields[4..].iter().enumerate() {
                let c: u64 = f
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad count {f:?}", lineno + 1))?;
                let sum = &mut per_app_counts[id][m];
                *sum = sum
                    .checked_add(c)
                    .ok_or_else(|| format!("line {}: {app_hash} count overflows", lineno + 1))?;
            }
        }
        if app_ids.is_empty() {
            return Err("trace contains no functions".to_string());
        }
        let mut apps = Vec::with_capacity(app_ids.len());
        let mut invocations = Vec::new();
        for (id, counts) in per_app_counts.iter().enumerate() {
            let total = counts
                .iter()
                .try_fold(0u64, |t, &c| t.checked_add(c))
                .ok_or_else(|| format!("app {}: total count overflows", app_ids[id]))?;
            for (m, &c) in counts.iter().enumerate() {
                for i in 0..c {
                    let t_s = m as f64 * 60.0 + (i as f64 + 0.5) * 60.0 / c as f64;
                    if t_s < horizon_s {
                        invocations.push(Invocation {
                            t_s,
                            app: id,
                            exec_s: 0.6,
                        });
                    }
                }
            }
            apps.push(AppSpec {
                id,
                class: AppClass::Bursty,
                rate_ops_s: total as f64 / (minutes as f64 * 60.0),
                mem_mb: 170.0,
                package_mb: fabric::calib::REFERENCE_PACKAGE_MB,
                exec_mean_s: 0.6,
            });
        }
        invocations.sort_by(|a, b| {
            a.t_s
                .partial_cmp(&b.t_s)
                .expect("finite instants")
                .then(a.app.cmp(&b.app))
        });
        Ok(FaasTrace { apps, invocations })
    }

    /// Byte-exact digest of the schedule: one fixed-format line per
    /// invocation carrying the raw f64 bits. Two traces are the same
    /// schedule iff their digests are equal — the determinism witness
    /// the proptests compare.
    pub fn schedule_digest(&self) -> String {
        let mut s = String::with_capacity(self.invocations.len() * 48);
        for inv in &self.invocations {
            s.push_str(&format!(
                "t={:016x} app={:05} exec={:016x}\n",
                inv.t_s.to_bits(),
                inv.app,
                inv.exec_s.to_bits()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master(seed: u64) -> SimRng {
        SimRng::for_stream(seed, "faas.trace")
    }

    #[test]
    fn synth_is_deterministic_and_sorted() {
        let shape = TraceShape::wild();
        let a = FaasTrace::synth(&mut master(7), &shape, 40, 3600.0);
        let b = FaasTrace::synth(&mut master(7), &shape, 40, 3600.0);
        assert_eq!(a.schedule_digest(), b.schedule_digest());
        assert!(!a.invocations.is_empty());
        assert!(
            a.invocations.windows(2).all(|w| w[0].t_s <= w[1].t_s),
            "unsorted"
        );
        let c = FaasTrace::synth(&mut master(8), &shape, 40, 3600.0);
        assert_ne!(a.schedule_digest(), c.schedule_digest());
    }

    #[test]
    fn population_is_heavy_tailed() {
        // Top-decile apps must carry well over half the invocations
        // (Pareto popularity), and per-app rates span the floor-to-cap
        // range.
        let shape = TraceShape::wild();
        let t = FaasTrace::synth(&mut master(11), &shape, 200, 7200.0);
        let mut per_app = vec![0u64; t.apps.len()];
        for inv in &t.invocations {
            per_app[inv.app] += 1;
        }
        let mut sorted = per_app.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = sorted.iter().take(20).sum();
        let bottom_half: u64 = sorted.iter().skip(100).sum();
        let total: u64 = sorted.iter().sum();
        assert!(
            top as f64 > 0.4 * total as f64,
            "top-10% carries {top}/{total}"
        );
        assert!(
            (bottom_half as f64) < 0.1 * total as f64,
            "bottom half carries {bottom_half}/{total}"
        );
        for app in &t.apps {
            assert!(app.rate_ops_s >= shape.rate_floor_ops_s * 0.999);
            assert!(app.rate_ops_s <= shape.rate_cap_ops_s * 1.001);
            assert!((32.0..=2048.0).contains(&app.mem_mb));
        }
    }

    #[test]
    fn class_mix_tracks_the_weights() {
        let t = FaasTrace::synth(&mut master(13), &TraceShape::wild(), 400, 60.0);
        let bursty = t
            .apps
            .iter()
            .filter(|a| a.class == AppClass::Bursty)
            .count() as f64
            / t.apps.len() as f64;
        assert!((0.45..0.75).contains(&bursty), "bursty share {bursty}");
    }

    #[test]
    fn azure_replay_parses_and_spreads_minutes() {
        let csv = "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n\
                   o1,appA,f1,http,2,0,1\n\
                   o1,appA,f2,timer,0,1,0\n\
                   o2,appB,f3,queue,3,0,0\n";
        let t = FaasTrace::from_azure_invocations_csv(csv, 1e9).unwrap();
        assert_eq!(t.apps.len(), 2);
        // appA: minute 0 has 2 (f1) → 15 s and 45 s; minute 1 has 1
        // (f2) → 90 s; minute 2 has 1 (f1) → 150 s. appB: minute 0 has
        // 3 → 10/30/50 s.
        let a: Vec<(f64, usize)> = t.invocations.iter().map(|i| (i.t_s, i.app)).collect();
        assert_eq!(
            a,
            vec![
                (10.0, 1),
                (15.0, 0),
                (30.0, 1),
                (45.0, 0),
                (50.0, 1),
                (90.0, 0),
                (150.0, 0),
            ]
        );
        assert!((t.apps[0].rate_ops_s - 4.0 / 180.0).abs() < 1e-12);
        // Horizon clips.
        let clipped = FaasTrace::from_azure_invocations_csv(csv, 60.0).unwrap();
        assert_eq!(clipped.invocations.len(), 5);
    }

    #[test]
    fn azure_replay_rejects_garbage() {
        assert!(FaasTrace::from_azure_invocations_csv("", 60.0).is_err());
        assert!(FaasTrace::from_azure_invocations_csv("a,b,c\n", 60.0).is_err());
        let bad_fields = "HashOwner,HashApp,HashFunction,Trigger,1\no1,a,f,h\n";
        assert!(FaasTrace::from_azure_invocations_csv(bad_fields, 60.0).is_err());
        let bad_count = "HashOwner,HashApp,HashFunction,Trigger,1\no1,a,f,h,x\n";
        assert!(FaasTrace::from_azure_invocations_csv(bad_count, 60.0).is_err());
        // Counts that overflow u64: two functions of one app in the same
        // minute, and one function's minutes summed over the app.
        let half = u64::MAX / 2 + 1;
        let same_minute = format!(
            "HashOwner,HashApp,HashFunction,Trigger,1\no1,a,f1,h,{half}\no1,a,f2,h,{half}\n"
        );
        assert!(FaasTrace::from_azure_invocations_csv(&same_minute, 60.0).is_err());
        let over_minutes =
            format!("HashOwner,HashApp,HashFunction,Trigger,1,2\no1,a,f,h,{half},{half}\n");
        assert!(FaasTrace::from_azure_invocations_csv(&over_minutes, 60.0).is_err());
    }
}
