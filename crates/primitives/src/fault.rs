//! Fault injection: the loss/delay model the TCP substrate (`wirenet`)
//! applies to frames in flight, and the jitter source of its reconnect
//! backoff.
//!
//! The injector is deliberately self-contained (its PRNG is an internal
//! xorshift, no external dependency) so that the primitives crate stays
//! dependency-free.

use std::time::Duration as StdDuration;

/// The fate the injector assigns to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The message is silently dropped (fair-lossy link).
    Drop,
    /// The message is delivered after the given extra delay.
    DeliverAfter(StdDuration),
}

/// A seeded loss/delay model over wall-clock time.
///
/// * Each message is dropped independently with probability `loss`.
/// * Surviving messages are held for a delay drawn uniformly from
///   `[min_delay, max_delay]`.
///
/// Sampling is deterministic per seed, so a run can be replayed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    loss: f64,
    min_delay: StdDuration,
    max_delay: StdDuration,
    state: u64,
}

impl FaultInjector {
    /// Creates an injector.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]` or `min_delay > max_delay`.
    pub fn new(loss: f64, min_delay: StdDuration, max_delay: StdDuration, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        assert!(
            min_delay <= max_delay,
            "min_delay must not exceed max_delay"
        );
        FaultInjector {
            loss,
            min_delay,
            max_delay,
            // Avoid the xorshift fixed point at zero.
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// Decides one message's fate.
    pub fn fate(&mut self) -> Fate {
        if self.should_drop() {
            Fate::Drop
        } else {
            Fate::DeliverAfter(self.sample_delay())
        }
    }

    /// Samples the drop decision alone.
    pub fn should_drop(&mut self) -> bool {
        self.loss > 0.0 && self.next_f64() < self.loss
    }

    /// Samples a delay alone, uniform in `[min_delay, max_delay]`.
    pub fn sample_delay(&mut self) -> StdDuration {
        let (lo, hi) = (self.min_delay, self.max_delay);
        self.sample_between(lo, hi)
    }

    /// Samples uniformly from `[lo, hi]`, ignoring the configured delay
    /// bounds. Useful as a general jitter source (e.g. reconnect backoff).
    pub fn sample_between(&mut self, lo: StdDuration, hi: StdDuration) -> StdDuration {
        let spread = hi.saturating_sub(lo).as_nanos() as u64;
        if spread == 0 {
            return lo;
        }
        // Widening multiply maps a u64 draw onto [0, spread] without bias
        // worth caring about at these magnitudes.
        let extra = ((u128::from(self.next_u64()) * u128::from(spread + 1)) >> 64) as u64;
        lo + StdDuration::from_nanos(extra)
    }

    /// xorshift64*: tiny, fast, and plenty for fault sampling.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mk = || {
            FaultInjector::new(
                0.3,
                StdDuration::from_micros(100),
                StdDuration::from_micros(900),
                42,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..100 {
            assert_eq!(a.fate(), b.fate());
        }
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut inj = FaultInjector::new(0.5, StdDuration::ZERO, StdDuration::ZERO, 7);
        let drops = (0..10_000).filter(|_| inj.should_drop()).count();
        assert!(
            (4_000..6_000).contains(&drops),
            "drops {drops} far from 50%"
        );
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut inj = FaultInjector::new(0.0, StdDuration::ZERO, StdDuration::from_millis(1), 7);
        assert!((0..1_000).all(|_| !inj.should_drop()));
    }

    #[test]
    fn full_loss_always_drops() {
        let mut inj = FaultInjector::new(1.0, StdDuration::ZERO, StdDuration::ZERO, 7);
        assert!((0..1_000).all(|_| inj.should_drop()));
    }

    #[test]
    fn delays_stay_within_bounds() {
        let lo = StdDuration::from_micros(200);
        let hi = StdDuration::from_millis(1);
        let mut inj = FaultInjector::new(0.0, lo, hi, 99);
        for _ in 0..1_000 {
            let d = inj.sample_delay();
            assert!(d >= lo && d <= hi, "delay {d:?} outside [{lo:?}, {hi:?}]");
        }
    }

    #[test]
    fn seed_zero_is_usable() {
        let mut inj = FaultInjector::new(0.5, StdDuration::ZERO, StdDuration::ZERO, 0);
        // Must not get stuck at the xorshift fixed point.
        let drops = (0..1_000).filter(|_| inj.should_drop()).count();
        assert!(drops > 0 && drops < 1_000);
    }
}
