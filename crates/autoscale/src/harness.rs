//! The control harness around a policy: bounds, cooldowns, and a
//! byte-reproducible decision log.
//!
//! Policies ([`Scaler`]) return raw preferences; the harness is the
//! part every policy shares — clamp to `[min, max]` and rate-limit
//! direction changes with separate scale-out and scale-in cooldowns —
//! and it renders every tick into a fixed-format log line. The log is
//! the determinism witness: same seed and schedule must reproduce it
//! byte for byte, across shard counts.

use crate::policy::{Scaler, Signals};

/// What the harness tells the actuator to do this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// No change (in the band or cooling down).
    Hold,
    /// Order this many additional instances.
    ScaleOut(usize),
    /// Release this many instances.
    ScaleIn(usize),
}

/// Bounds and cooldowns wrapped around one policy.
pub struct Harness {
    policy: Box<dyn Scaler>,
    /// Never go below this many committed instances.
    pub min_instances: usize,
    /// Never go above this many committed instances.
    pub max_instances: usize,
    /// Minimum seconds between scale-out orders.
    pub cooldown_out_s: f64,
    /// Minimum seconds between scale-ins, and after the latest
    /// scale-out (capacity just bought gets a chance to serve before
    /// being released).
    pub cooldown_in_s: f64,
    last_out_s: f64,
    last_in_s: f64,
    log: String,
}

impl Harness {
    /// Wrap `policy` with bounds and cooldowns.
    pub fn new(
        policy: Box<dyn Scaler>,
        min_instances: usize,
        max_instances: usize,
        cooldown_out_s: f64,
        cooldown_in_s: f64,
    ) -> Self {
        assert!(min_instances >= 1 && min_instances <= max_instances);
        Harness {
            policy,
            min_instances,
            max_instances,
            cooldown_out_s,
            cooldown_in_s,
            last_out_s: f64::NEG_INFINITY,
            last_in_s: f64::NEG_INFINITY,
            log: String::new(),
        }
    }

    /// Decide one tick and append its log line.
    pub fn decide(&mut self, sig: &Signals) -> Decision {
        let raw = self.policy.desired(sig);
        let desired = raw.clamp(self.min_instances, self.max_instances);
        let committed = sig.committed;
        let (decision, verdict) = if desired > committed {
            if sig.now_s - self.last_out_s >= self.cooldown_out_s {
                self.last_out_s = sig.now_s;
                (Decision::ScaleOut(desired - committed), "out")
            } else {
                (Decision::Hold, "cool")
            }
        } else if desired < committed {
            if sig.now_s - self.last_in_s >= self.cooldown_in_s
                && sig.now_s - self.last_out_s >= self.cooldown_in_s
            {
                self.last_in_s = sig.now_s;
                (Decision::ScaleIn(committed - desired), "in")
            } else {
                (Decision::Hold, "cool")
            }
        } else {
            (Decision::Hold, "hold")
        };
        // Fixed-format rendering: the byte-identity contract.
        self.log.push_str(&format!(
            "t={:09.1} rate={:09.3} inflight={:06} shed={:05} ready={:03} committed={:03} desired={:03} {}{}\n",
            sig.now_s,
            sig.rate_ops_s,
            sig.in_flight,
            sig.shed_delta,
            sig.ready,
            committed,
            desired,
            verdict,
            match decision {
                Decision::ScaleOut(n) => format!("+{n}"),
                Decision::ScaleIn(n) => format!("-{n}"),
                Decision::Hold => String::new(),
            }
        ));
        decision
    }

    /// The rendered decision log so far (one line per tick).
    pub fn decision_log(&self) -> &str {
        &self.log
    }

    /// Consume the harness, returning the rendered decision log.
    pub fn into_log(self) -> String {
        self.log
    }
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("policy", &self.policy.name())
            .field("min_instances", &self.min_instances)
            .field("max_instances", &self.max_instances)
            .field("ticks", &self.log.lines().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fixed, QueueDepth};

    fn sig(now_s: f64, in_flight: u64, committed: usize) -> Signals {
        Signals {
            now_s,
            rate_ops_s: 0.0,
            new_rates: Vec::new(),
            in_flight,
            shed_delta: 0,
            ready: committed,
            committed,
            per_instance_ops_s: 10.0,
        }
    }

    #[test]
    fn clamps_to_bounds() {
        let mut h = Harness::new(Box::new(Fixed { instances: 99 }), 1, 8, 0.0, 0.0);
        assert_eq!(h.decide(&sig(0.0, 0, 4)), Decision::ScaleOut(4));
        let mut h = Harness::new(Box::new(Fixed { instances: 0 }), 2, 8, 0.0, 0.0);
        assert_eq!(h.decide(&sig(0.0, 0, 4)), Decision::ScaleIn(2));
    }

    #[test]
    fn cooldowns_rate_limit_direction_changes() {
        let mut h = Harness::new(
            Box::new(QueueDepth {
                high_per_instance: 10.0,
                low_per_instance: 1.0,
            }),
            1,
            16,
            60.0,
            300.0,
        );
        // Overloaded: first out fires, second is cooling.
        assert!(matches!(h.decide(&sig(0.0, 200, 4)), Decision::ScaleOut(_)));
        assert_eq!(h.decide(&sig(10.0, 200, 4)), Decision::Hold);
        assert!(matches!(
            h.decide(&sig(61.0, 200, 4)),
            Decision::ScaleOut(_)
        ));
        // Idle right after an out: scale-in blocked for cooldown_in.
        assert_eq!(h.decide(&sig(70.0, 0, 8)), Decision::Hold);
        assert!(matches!(h.decide(&sig(362.0, 0, 8)), Decision::ScaleIn(1)));
    }

    #[test]
    fn log_is_one_fixed_format_line_per_tick() {
        let mut h = Harness::new(Box::new(Fixed { instances: 4 }), 1, 16, 0.0, 0.0);
        h.decide(&sig(0.0, 7, 4));
        h.decide(&sig(10.0, 7, 4));
        let log = h.decision_log();
        assert_eq!(log.lines().count(), 2);
        assert!(log.starts_with("t=0000000.0 rate=00000.000 inflight=000007"));
        assert!(log.lines().all(|l| l.ends_with("hold")));
    }
}
