//! Message-delay distributions.

use lls_primitives::Duration;
use rand::Rng;

/// A distribution over message delays, sampled per message.
///
/// The paper distinguishes links with a (unknown) *bound* on delay from links
/// with *no* bound. [`DelayDist::Constant`] and [`DelayDist::Uniform`] model
/// the former; [`DelayDist::HeavyTail`] has unbounded support (geometric tail)
/// and models the latter — an asynchronous link can hold a message arbitrarily
/// long.
///
/// # Example
///
/// ```
/// use netsim::DelayDist;
/// use lls_primitives::Duration;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let d = DelayDist::Uniform {
///     lo: Duration::from_ticks(2),
///     hi: Duration::from_ticks(5),
/// };
/// let s = d.sample(&mut rng);
/// assert!(s >= Duration::from_ticks(2) && s <= Duration::from_ticks(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDist {
    /// Every message takes exactly this long.
    Constant(Duration),
    /// Delay drawn uniformly from `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum delay.
        lo: Duration,
        /// Maximum delay.
        hi: Duration,
    },
    /// `base + step * G` where `G ~ Geometric(p)` (number of failures before
    /// the first success). Unbounded support: models an asynchronous link with
    /// no delay bound, while still delivering "most" messages quickly.
    HeavyTail {
        /// Minimum delay.
        base: Duration,
        /// Tail granularity.
        step: Duration,
        /// Per-step continuation probability `1 - p` is `tail`; larger `tail`
        /// means heavier tail. Must be in `[0, 1)`.
        tail: f64,
    },
}

impl DelayDist {
    /// Convenience constant-delay constructor.
    pub fn constant(ticks: u64) -> Self {
        DelayDist::Constant(Duration::from_ticks(ticks))
    }

    /// Convenience uniform-delay constructor over `[lo, hi]` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(lo: u64, hi: u64) -> Self {
        assert!(
            lo <= hi,
            "uniform delay requires lo <= hi, got [{lo}, {hi}]"
        );
        DelayDist::Uniform {
            lo: Duration::from_ticks(lo),
            hi: Duration::from_ticks(hi),
        }
    }

    /// Convenience heavy-tail constructor.
    ///
    /// # Panics
    ///
    /// Panics if `tail` is not in `[0, 1)`.
    pub fn heavy_tail(base: u64, step: u64, tail: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&tail),
            "tail probability must be in [0, 1), got {tail}"
        );
        DelayDist::HeavyTail {
            base: Duration::from_ticks(base),
            step: Duration::from_ticks(step),
            tail,
        }
    }

    /// The largest delay this distribution can produce, or `None` if
    /// unbounded.
    pub fn upper_bound(&self) -> Option<Duration> {
        match *self {
            DelayDist::Constant(d) => Some(d),
            DelayDist::Uniform { hi, .. } => Some(hi),
            DelayDist::HeavyTail { .. } => None,
        }
    }

    /// Draws one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match *self {
            DelayDist::Constant(d) => d,
            DelayDist::Uniform { lo, hi } => {
                Duration::from_ticks(rng.gen_range(lo.ticks()..=hi.ticks()))
            }
            DelayDist::HeavyTail { base, step, tail } => {
                let mut extra: u64 = 0;
                // Geometric tail, capped so a pathological RNG stream cannot
                // stall the simulation; the cap is far above any timeout the
                // protocols use, so it is indistinguishable from "unbounded"
                // for every experiment.
                while extra < 1_000_000 && rng.gen_bool(tail) {
                    extra += 1;
                }
                base + step * extra
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = DelayDist::constant(9);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), Duration::from_ticks(9));
        }
    }

    #[test]
    fn uniform_stays_in_range_and_hits_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = DelayDist::uniform(1, 3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let s = d.sample(&mut rng).ticks();
            assert!((1..=3).contains(&s));
            seen[s as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }

    #[test]
    fn heavy_tail_exceeds_any_fixed_bound_eventually() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = DelayDist::heavy_tail(1, 1, 0.9);
        let max = (0..500).map(|_| d.sample(&mut rng).ticks()).max().unwrap();
        assert!(max > 10, "tail never materialized (max={max})");
        assert_eq!(d.upper_bound(), None);
    }

    #[test]
    fn upper_bounds() {
        assert_eq!(
            DelayDist::constant(4).upper_bound(),
            Some(Duration::from_ticks(4))
        );
        assert_eq!(
            DelayDist::uniform(1, 6).upper_bound(),
            Some(Duration::from_ticks(6))
        );
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_rejects_inverted_range() {
        let _ = DelayDist::uniform(5, 2);
    }

    #[test]
    #[should_panic(expected = "tail probability")]
    fn heavy_tail_rejects_certain_continuation() {
        let _ = DelayDist::heavy_tail(1, 1, 1.0);
    }
}
