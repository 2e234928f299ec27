//! The host pool and its performance-variation process (paper §5.2).
//!
//! ModisAzure "observed random slowdowns of VM execution that led us to
//! terminate execution after 4× the normal execution time", affecting
//! 0.17 % of 3 M task executions overall but up to ~16 % of a single
//! day's executions (Fig 7). The mechanism modelled here: physical hosts
//! occasionally enter *degradation episodes* (noisy neighbour, failing
//! disk, hypervisor pathology) during which every VM on the host runs at
//! a fraction of nominal speed; the per-hour hazard of entering an
//! episode is modulated by a day-severity series — most days are clean,
//! rare days are catastrophic, which is what makes Fig 7 spiky rather
//! than uniform.
//!
//! The process is evaluated **lazily and deterministically**: a host's
//! speed profile is a pure function of (seed, host id, day), computed on
//! demand and cached. No background processes — simulations terminate
//! naturally and two runs with one seed see identical slowdowns.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simcore::prelude::*;

use crate::calib::{self, SeverityMix};

/// One degradation episode on a host.
#[derive(Debug, Clone, Copy)]
struct Episode {
    start: SimTime,
    end: SimTime,
    speed: f64,
}

/// Host-pool configuration.
#[derive(Debug, Clone)]
pub struct HostPoolConfig {
    /// Number of physical hosts.
    pub hosts: usize,
    /// Master switch for the variation process (lifecycle experiments
    /// run it off; ModisAzure runs it on).
    pub variation: bool,
    /// Baseline per-hour degradation hazard (severity-1 days).
    pub hourly_base_p: f64,
    /// Mean episode duration, hours.
    pub episode_mean_h: f64,
    /// Degraded speed factor range.
    pub speed_range: (f64, f64),
    /// Day severity mixture.
    pub severity: SeverityMix,
}

impl Default for HostPoolConfig {
    fn default() -> Self {
        HostPoolConfig {
            hosts: 64,
            variation: false,
            hourly_base_p: calib::HOURLY_DEGRADE_BASE_P,
            episode_mean_h: calib::EPISODE_MEAN_HOURS,
            speed_range: (calib::DEGRADED_SPEED_MIN, calib::DEGRADED_SPEED_MAX),
            severity: calib::SEVERITY,
        }
    }
}

impl HostPoolConfig {
    /// Config with variation enabled (application studies).
    pub fn with_variation(hosts: usize) -> Self {
        HostPoolConfig {
            hosts,
            variation: true,
            ..HostPoolConfig::default()
        }
    }
}

/// Episode schedules keyed by (host index, day).
type EpisodeMap = HashMap<(usize, u64), Rc<Vec<Episode>>>;

/// The pool of physical hosts.
pub struct HostPool {
    sim: Sim,
    cfg: HostPoolConfig,
    episodes: RefCell<EpisodeMap>,
    day_mult: RefCell<HashMap<u64, f64>>,
}

const DAY: SimDuration = SimDuration::from_secs(86_400);

impl HostPool {
    /// Create a pool bound to `sim`.
    pub fn new(sim: &Sim, cfg: HostPoolConfig) -> Rc<Self> {
        assert!(cfg.hosts > 0);
        Rc::new(HostPool {
            sim: sim.clone(),
            cfg,
            episodes: RefCell::new(HashMap::new()),
            day_mult: RefCell::new(HashMap::new()),
        })
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.cfg.hosts
    }

    /// True if the pool has no hosts (never; pools are non-empty).
    pub fn is_empty(&self) -> bool {
        self.cfg.hosts == 0
    }

    /// The severity multiplier of day `d` (pure function of the seed).
    pub fn day_multiplier(&self, d: u64) -> f64 {
        if let Some(&m) = self.day_mult.borrow().get(&d) {
            return m;
        }
        let s = &self.cfg.severity;
        let mut rng = self.sim.rng(&format!("fabric.severity.{d}"));
        let u = rng.f64();
        let m = if u < s.p_clean {
            0.0
        } else if u < s.p_clean + s.p_mild {
            rng.range_f64(s.mild.0, s.mild.1)
        } else if u < s.p_clean + s.p_mild + s.p_bad {
            rng.range_f64(s.bad.0, s.bad.1)
        } else {
            rng.range_f64(s.severe.0, s.severe.1)
        };
        self.day_mult.borrow_mut().insert(d, m);
        m
    }

    /// Degradation episodes *starting* on day `d` for `host`.
    fn episodes_of(&self, host: usize, d: u64) -> Rc<Vec<Episode>> {
        if let Some(e) = self.episodes.borrow().get(&(host, d)) {
            return Rc::clone(e);
        }
        let mut eps = Vec::new();
        if self.cfg.variation {
            let m = self.day_multiplier(d);
            if m > 0.0 {
                let p = (self.cfg.hourly_base_p * m).min(0.95);
                let mut rng = self.sim.rng(&format!("fabric.host.{host}.day.{d}"));
                let day_start = SimTime::ZERO + DAY * d;
                for hour in 0..24u64 {
                    if rng.chance(p) {
                        let start = day_start
                            + SimDuration::from_hours(hour)
                            + SimDuration::from_secs_f64(rng.range_f64(0.0, 3600.0));
                        let dur_h = Exp::with_mean(self.cfg.episode_mean_h)
                            .sample(&mut rng)
                            .clamp(0.05, 24.0);
                        let speed = rng.range_f64(self.cfg.speed_range.0, self.cfg.speed_range.1);
                        eps.push(Episode {
                            start,
                            end: start + SimDuration::from_secs_f64(dur_h * 3600.0),
                            speed,
                        });
                    }
                }
            }
        }
        let eps = Rc::new(eps);
        self.episodes
            .borrow_mut()
            .insert((host, d), Rc::clone(&eps));
        eps
    }

    /// Current speed factor of `host` at time `t`, plus the time at which
    /// this piecewise-constant segment may change.
    pub fn speed_segment(&self, host: usize, t: SimTime) -> (f64, SimTime) {
        let day = t.as_nanos() / DAY.as_nanos();
        // Episodes can span from the previous day (max 24 h), and the
        // next boundary may be a future episode's start today.
        let mut speed = 1.0f64;
        let mut until = SimTime::ZERO + DAY * (day + 1);
        for d in day.saturating_sub(1)..=day {
            for e in self.episodes_of(host, d).iter() {
                if e.start <= t && t < e.end {
                    speed = speed.min(e.speed);
                    until = until.min(e.end);
                } else if e.start > t {
                    until = until.min(e.start);
                }
            }
        }
        // Injected faults (simfault `HostCrash` / `GrayFailure`)
        // compose with the endogenous variation process: the slowest
        // active source wins and the segment ends at the nearest
        // boundary of either. A single flag read when no injector is
        // installed.
        if let Some((inj_speed, inj_until_s)) = simfault::host_speed(host as u64, t.as_secs_f64()) {
            speed = speed.min(inj_speed);
            // until is infinite once all of the host's episodes are past.
            if inj_until_s.is_finite() {
                until = until.min(SimTime::ZERO + SimDuration::from_secs_f64(inj_until_s));
            }
        }
        (speed, until.max(t + SimDuration::from_nanos(1)))
    }

    /// True if the host is currently degraded.
    pub fn is_degraded(&self, host: usize, t: SimTime) -> bool {
        self.speed_segment(host, t).0 < 1.0
    }

    /// Execute `work` (nominal compute time at speed 1.0) on `host`,
    /// advancing virtual time by the slowdown-adjusted duration.
    /// Returns the elapsed wall time.
    pub async fn execute(&self, host: usize, work: SimDuration) -> SimDuration {
        assert!(host < self.cfg.hosts, "host {host} out of range");
        let start = self.sim.now();
        let mut remaining = work.as_secs_f64();
        let mut t = start;
        while remaining > 0.0 {
            let (speed, until) = self.speed_segment(host, t);
            let seg = (until - t).as_secs_f64();
            let can_do = seg * speed;
            if can_do >= remaining {
                t += SimDuration::from_secs_f64(remaining / speed);
                break;
            }
            remaining -= can_do;
            t = until;
        }
        self.sim.delay(t - start).await;
        self.sim.now() - start
    }

    /// Nominal-to-actual stretch factor for `work` started at `t`
    /// (analytic, no time advance; used by telemetry and tests).
    pub fn stretch_factor(&self, host: usize, t: SimTime, work: SimDuration) -> f64 {
        let mut remaining = work.as_secs_f64();
        if remaining <= 0.0 {
            return 1.0;
        }
        let mut cur = t;
        while remaining > 0.0 {
            let (speed, until) = self.speed_segment(host, cur);
            let seg = (until - cur).as_secs_f64();
            let can_do = seg * speed;
            if can_do >= remaining {
                cur += SimDuration::from_secs_f64(remaining / speed);
                break;
            }
            remaining -= can_do;
            cur = until;
        }
        (cur - t).as_secs_f64() / work.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forced_bad_pool(sim: &Sim) -> Rc<HostPool> {
        // Severity: every day severe with a huge multiplier, hourly
        // hazard ~1 -> hosts are almost always degraded.
        HostPool::new(
            sim,
            HostPoolConfig {
                hosts: 4,
                variation: true,
                hourly_base_p: 0.5,
                episode_mean_h: 3.0,
                speed_range: (0.2, 0.25),
                severity: SeverityMix {
                    p_clean: 0.0,
                    p_mild: 0.0,
                    p_bad: 0.0,
                    mild: (1.0, 1.0),
                    bad: (1.0, 1.0),
                    severe: (2.0, 2.0),
                },
            },
        )
    }

    #[test]
    fn disabled_variation_executes_at_nominal_speed() {
        let sim = Sim::new(1);
        let pool = HostPool::new(&sim, HostPoolConfig::default());
        let p = Rc::clone(&pool);
        let h = sim.spawn(async move { p.execute(0, SimDuration::from_mins(10)).await });
        sim.run();
        assert_eq!(h.try_take().unwrap(), SimDuration::from_mins(10));
        assert!(!pool.is_degraded(0, SimTime::ZERO));
    }

    #[test]
    fn degraded_host_stretches_execution_at_least_4x() {
        let sim = Sim::new(2);
        let pool = forced_bad_pool(&sim);
        // Find a degraded moment on host 0.
        let mut t = SimTime::ZERO;
        let mut found = None;
        for _ in 0..2000 {
            if pool.is_degraded(0, t) {
                found = Some(t);
                break;
            }
            t += SimDuration::from_mins(10);
        }
        let t = found.expect("forced-bad pool never degraded");
        // Instantaneous slowdown: a short job fully inside the episode
        // runs at the degraded speed, i.e. at least 4x slower.
        let stretch = pool.stretch_factor(0, t, SimDuration::from_secs(1));
        assert!(stretch >= 4.0, "stretch={stretch}");
        // And the degraded speed itself is in the configured band.
        let (speed, _) = pool.speed_segment(0, t);
        assert!((0.2..=0.25).contains(&speed), "speed={speed}");
    }

    #[test]
    fn execute_accounts_for_episode_boundaries() {
        let sim = Sim::new(3);
        let pool = forced_bad_pool(&sim);
        // A long job spanning many segments still computes exactly its
        // nominal work: elapsed == stretch * nominal by construction.
        let p = Rc::clone(&pool);
        let h = sim.spawn(async move {
            let nominal = SimDuration::from_hours(8);
            let predicted = p.stretch_factor(0, SimTime::ZERO, nominal);
            let elapsed = p.execute(0, nominal).await;
            (predicted, elapsed.as_secs_f64() / nominal.as_secs_f64())
        });
        sim.run();
        let (predicted, actual) = h.try_take().unwrap();
        assert!((predicted - actual).abs() < 1e-6, "{predicted} vs {actual}");
        assert!(actual > 1.0, "forced-bad pool should stretch the job");
    }

    #[test]
    fn day_multiplier_is_deterministic_and_mixes() {
        let sim = Sim::new(4);
        let pool = HostPool::new(
            &sim,
            HostPoolConfig {
                variation: true,
                ..HostPoolConfig::default()
            },
        );
        let days = 2000u64;
        let mut clean = 0;
        let mut severe = 0;
        for d in 0..days {
            let m = pool.day_multiplier(d);
            assert_eq!(m, pool.day_multiplier(d), "cache instability");
            if m == 0.0 {
                clean += 1;
            }
            if m >= 30.0 {
                severe += 1;
            }
        }
        let clean_frac = clean as f64 / days as f64;
        assert!(
            (clean_frac - calib::SEVERITY.p_clean).abs() < 0.04,
            "clean={clean_frac}"
        );
        // Severe days exist but are rare.
        assert!(severe >= 1);
        assert!((severe as f64 / days as f64) < 0.03);
    }

    #[test]
    fn speed_profiles_are_deterministic_across_pools() {
        let probe = |seed: u64| {
            let sim = Sim::new(seed);
            let pool = forced_bad_pool(&sim);
            let mut out = Vec::new();
            for h in 0..4 {
                for k in 0..200 {
                    let t = SimTime::ZERO + SimDuration::from_mins(k * 17);
                    out.push(pool.speed_segment(h, t).0);
                }
            }
            out
        };
        assert_eq!(probe(9), probe(9));
        assert_ne!(probe(9), probe(10));
    }

    #[test]
    fn episodes_spanning_midnight_are_visible_next_day() {
        let sim = Sim::new(6);
        let pool = forced_bad_pool(&sim);
        // Scan the first minutes of many days: with hazard 0.5/h and
        // 3h mean episodes, some midnight must be covered by an episode
        // that started the previous day.
        let mut crossing = false;
        for d in 1..60u64 {
            let t = SimTime::ZERO + DAY * d + SimDuration::from_secs(30);
            if pool.is_degraded(0, t) {
                // Confirm no episode of day d started this early.
                let eps = pool.episodes_of(0, d);
                let started_today = eps.iter().any(|e| e.start <= t);
                if !started_today {
                    crossing = true;
                    break;
                }
            }
        }
        assert!(crossing, "no midnight-spanning episode observed");
    }

    #[test]
    fn injected_host_faults_compose_with_variation() {
        let sim = Sim::new(20);
        let plan = simfault::FaultPlan {
            name: "test-crash",
            storage: simfault::StorageFaults::clean(),
            episodes: vec![simfault::FaultEpisode {
                start_s: 100.0,
                duration_s: 50.0,
                kind: simfault::FaultKind::HostCrash { host: 0 },
            }],
        };
        let _g = simfault::install(&sim, &plan);
        let pool = HostPool::new(&sim, HostPoolConfig::default());
        let t = SimTime::ZERO + SimDuration::from_secs(120);
        let (speed, until) = pool.speed_segment(0, t);
        assert_eq!(speed, 0.0, "crashed host must stop");
        assert_eq!((until - SimTime::ZERO).as_secs_f64(), 150.0);
        // A host the plan never names is untouched.
        assert_eq!(pool.speed_segment(1, t).0, 1.0);
        // Before the episode the host runs at nominal speed and the
        // segment ends when the crash begins.
        let (s0, u0) = pool.speed_segment(0, SimTime::ZERO + SimDuration::from_secs(90));
        assert_eq!(s0, 1.0);
        assert_eq!((u0 - SimTime::ZERO).as_secs_f64(), 100.0);
    }

    #[test]
    fn crashed_host_stalls_execution_until_the_episode_ends() {
        let sim = Sim::new(21);
        let plan = simfault::FaultPlan {
            name: "test-crash",
            storage: simfault::StorageFaults::clean(),
            episodes: vec![simfault::FaultEpisode {
                start_s: 0.0,
                duration_s: 300.0,
                kind: simfault::FaultKind::HostCrash { host: 0 },
            }],
        };
        let _g = simfault::install(&sim, &plan);
        let pool = HostPool::new(&sim, HostPoolConfig::default());
        let p = Rc::clone(&pool);
        let h = sim.spawn(async move { p.execute(0, SimDuration::from_secs(60)).await });
        sim.run();
        // 300 s dead, then 60 s of work at nominal speed.
        assert_eq!(h.try_take().unwrap(), SimDuration::from_secs(360));
    }

    #[test]
    fn zero_work_executes_instantly() {
        let sim = Sim::new(7);
        let pool = HostPool::new(&sim, HostPoolConfig::default());
        let p = Rc::clone(&pool);
        let h = sim.spawn(async move { p.execute(0, SimDuration::ZERO).await });
        sim.run();
        assert_eq!(h.try_take().unwrap(), SimDuration::ZERO);
        assert_eq!(
            pool.stretch_factor(0, SimTime::ZERO, SimDuration::ZERO),
            1.0
        );
    }
}
