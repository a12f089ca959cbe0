//! Tuning parameters shared by the Ω algorithms.

use lls_primitives::Duration;

/// How a process grows its timeout on a candidate after a premature
/// suspicion.
///
/// The paper's mechanism requires only that timeouts grow without bound over
/// suspicions, so that a ♦-timely leader is suspected finitely often; the
/// exact policy is an implementation degree of freedom, exercised by the
/// ablation experiment E9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPolicy {
    /// `timeout += step` on every suspicion (the pseudocode idiom
    /// "Timeout\[leader\] := Timeout\[leader\] + 1", generalized).
    Additive {
        /// Increment per suspicion.
        step: Duration,
    },
    /// `timeout := timeout * num / den` (with `num > den`), rounded up.
    Multiplicative {
        /// Numerator of the growth factor.
        num: u32,
        /// Denominator of the growth factor.
        den: u32,
    },
    /// Never grow (deliberately wrong: violates the paper's requirement;
    /// used as an ablation arm to show why adaptation matters).
    Frozen,
}

impl TimeoutPolicy {
    /// Applies the policy to `current`.
    pub fn bump(&self, current: Duration) -> Duration {
        match *self {
            TimeoutPolicy::Additive { step } => current.saturating_add(step),
            TimeoutPolicy::Multiplicative { num, den } => {
                let t = current.ticks().max(1);
                let grown = t.saturating_mul(num as u64).div_ceil(den as u64);
                Duration::from_ticks(grown.max(t + 1))
            }
            TimeoutPolicy::Frozen => current,
        }
    }
}

/// Throughput parameters of a leader-driven replicated log: how many client
/// commands one decided slot may carry, and how many slots may be in flight
/// (proposed but not yet chosen) at once under a stable leader.
///
/// Neither knob touches safety: a batch is one atomic log entry chosen by
/// the ordinary ballot/quorum rules, and pipelined slots are just several
/// such entries awaiting their quorums concurrently — exactly the state a
/// slow single-slot leader passes through anyway. The paper's claims are
/// per-slot; batching only changes how many commands ride in each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchParams {
    /// Maximum client commands coalesced into one log entry. 1 disables
    /// batching (every command gets its own slot, the pre-batching wire
    /// shape).
    pub max_batch: usize,
    /// Maximum slots proposed but not yet chosen at once. Commands arriving
    /// while the pipeline is full queue up and coalesce into batches.
    pub pipeline_depth: usize,
}

impl BatchParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: both knobs
    /// must be at least 1 (a zero batch or zero-depth pipeline can never
    /// propose anything).
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".to_owned());
        }
        if self.pipeline_depth == 0 {
            return Err("pipeline_depth must be at least 1".to_owned());
        }
        Ok(())
    }
}

impl Default for BatchParams {
    /// Batching off (`max_batch = 1`), pipeline deep enough (32) that the
    /// pre-batching "propose immediately" behaviour is preserved for any
    /// realistic in-flight window.
    fn default() -> Self {
        BatchParams {
            max_batch: 1,
            pipeline_depth: 32,
        }
    }
}

/// Parameters of an Ω instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmegaParams {
    /// Heartbeat period η: how often a self-believed leader sends `ALIVE`.
    pub eta: Duration,
    /// Initial timeout on every candidate leader.
    pub initial_timeout: Duration,
    /// Timeout growth policy.
    pub timeout_policy: TimeoutPolicy,
    /// Deduplicate accusations per counter value (phase). Disabling this is
    /// an ablation arm (E9): duplicated or stale accusations then inflate
    /// counters and churn leadership.
    pub dedup_accusations: bool,
}

impl OmegaParams {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: η must be
    /// positive and the initial timeout at least η (otherwise a leader is
    /// suspected before it can possibly have heartbeat).
    pub fn validate(&self) -> Result<(), String> {
        if self.eta.ticks() == 0 {
            return Err("eta must be positive".to_owned());
        }
        if self.initial_timeout < self.eta {
            return Err(format!(
                "initial_timeout ({}) must be at least eta ({})",
                self.initial_timeout, self.eta
            ));
        }
        Ok(())
    }
}

impl Default for OmegaParams {
    /// η = 10 ticks, initial timeout 30 ticks, additive growth of η/2,
    /// deduplication on.
    fn default() -> Self {
        OmegaParams {
            eta: Duration::from_ticks(10),
            initial_timeout: Duration::from_ticks(30),
            timeout_policy: TimeoutPolicy::Additive {
                step: Duration::from_ticks(5),
            },
            dedup_accusations: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_bump_adds_step() {
        let p = TimeoutPolicy::Additive {
            step: Duration::from_ticks(5),
        };
        assert_eq!(p.bump(Duration::from_ticks(10)), Duration::from_ticks(15));
    }

    #[test]
    fn multiplicative_bump_strictly_grows() {
        let p = TimeoutPolicy::Multiplicative { num: 3, den: 2 };
        assert_eq!(p.bump(Duration::from_ticks(10)), Duration::from_ticks(15));
        // Even at 1 tick, growth is strict.
        assert!(p.bump(Duration::from_ticks(1)) > Duration::from_ticks(1));
    }

    #[test]
    fn frozen_never_grows() {
        let p = TimeoutPolicy::Frozen;
        assert_eq!(p.bump(Duration::from_ticks(10)), Duration::from_ticks(10));
    }

    #[test]
    fn default_params_validate() {
        assert!(OmegaParams::default().validate().is_ok());
    }

    #[test]
    fn default_batch_params_disable_batching() {
        let b = BatchParams::default();
        assert!(b.validate().is_ok());
        assert_eq!(b.max_batch, 1, "batching must be opt-in");
    }

    #[test]
    fn zero_batch_knobs_are_rejected() {
        let b = BatchParams {
            max_batch: 0,
            ..BatchParams::default()
        };
        assert!(b.validate().unwrap_err().contains("max_batch"));
        let b = BatchParams {
            pipeline_depth: 0,
            ..BatchParams::default()
        };
        assert!(b.validate().unwrap_err().contains("pipeline_depth"));
    }

    #[test]
    fn bad_params_are_rejected() {
        let p = OmegaParams {
            eta: Duration::ZERO,
            ..OmegaParams::default()
        };
        assert!(p.validate().is_err());
        let p = OmegaParams {
            initial_timeout: Duration::from_ticks(1),
            ..OmegaParams::default()
        };
        assert!(p.validate().unwrap_err().contains("initial_timeout"));
    }
}
