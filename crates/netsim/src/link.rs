//! Per-link synchrony and reliability models.

use lls_primitives::{Duration, Instant};
use rand::Rng;

use crate::delay::DelayDist;

/// What happens to one message on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// The message will be delivered at this (absolute) time.
    DeliverAt(Instant),
    /// The message is lost.
    Drop,
}

/// The behaviour of one unidirectional link, mirroring the paper's taxonomy.
///
/// * [`LinkModel::Timely`] — synchronous from the start: every message sent at
///   `t` is delivered by `t + delta`.
/// * [`LinkModel::EventuallyTimely`] — the paper's ♦-timely link: there are an
///   *unknown* bound `δ` and global stabilization time `GST` such that a
///   message sent at `t ≥ GST` is delivered by `t + δ`. Before GST the link
///   behaves like the given pre-GST lossy model (messages lost with some
///   probability, or delayed arbitrarily).
/// * [`LinkModel::FairLossy`] — no delay bound; each message is independently
///   lost with probability `loss < 1`. Realizes the fair-loss property
///   ("infinitely many sends ⇒ infinitely many deliveries") almost surely.
/// * [`LinkModel::LossyAsync`] — may lose *everything* (`loss` may be 1);
///   delivered messages take a heavy-tailed delay. No liveness guarantee.
/// * [`LinkModel::Dead`] — drops everything; a convenience extreme of
///   `LossyAsync`.
///
/// # Example
///
/// ```
/// use netsim::{LinkModel, LinkFate, DelayDist};
/// use lls_primitives::{Duration, Instant};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let link = LinkModel::timely(3);
/// match link.route(Instant::from_ticks(10), &mut rng) {
///     LinkFate::DeliverAt(t) => assert!(t <= Instant::from_ticks(13)),
///     LinkFate::Drop => unreachable!("timely links never drop"),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Always timely with bound `delta` (delay sampled from `delay`, whose
    /// upper bound must be ≤ `delta`).
    Timely {
        /// Delay distribution; bounded.
        delay: DelayDist,
    },
    /// ♦-timely: timely with bound `delta` from `gst` on; lossy/slow before.
    EventuallyTimely {
        /// Global stabilization time for this link.
        gst: Instant,
        /// Post-GST delay distribution; bounded.
        delay: DelayDist,
        /// Pre-GST loss probability.
        pre_loss: f64,
        /// Pre-GST delay distribution (may be unbounded).
        pre_delay: DelayDist,
    },
    /// Fair lossy: per-message loss with probability `loss < 1`, unbounded
    /// delay distribution allowed.
    FairLossy {
        /// Per-message loss probability, in `[0, 1)`.
        loss: f64,
        /// Delay distribution for delivered messages.
        delay: DelayDist,
    },
    /// Lossy asynchronous: no guarantee at all. `loss` may be 1.
    LossyAsync {
        /// Per-message loss probability, in `[0, 1]`.
        loss: f64,
        /// Delay distribution for delivered messages.
        delay: DelayDist,
    },
    /// Drops every message.
    Dead,
    /// Adversarial deterministic blinker: repeats a cycle of `on` ticks
    /// (timely, delay ≤ `delta`) followed by `off` ticks (everything sent is
    /// dropped). Unlike random loss, the blink pattern is periodic, which
    /// defeats detectors whose timeouts do not grow: a frozen timeout larger
    /// than `on + off` never observes the link as timely, while an adaptive
    /// timeout eventually spans the off-phase. Not a ♦-timely link.
    Blink {
        /// Length of the delivering phase.
        on: Duration,
        /// Length of the dropping phase.
        off: Duration,
        /// Delay during the on-phase.
        delta: Duration,
    },
}

impl LinkModel {
    /// A timely link with constant delay `delta` ticks.
    pub fn timely(delta: u64) -> Self {
        LinkModel::Timely {
            delay: DelayDist::constant(delta),
        }
    }

    /// A ♦-timely link: before `gst`, loses `pre_loss` of messages and delays
    /// the rest with a heavy tail; from `gst` on, delivers within `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `pre_loss` is not in `[0, 1]`.
    pub fn eventually_timely(gst: u64, delta: u64, pre_loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&pre_loss),
            "loss probability must be in [0, 1], got {pre_loss}"
        );
        LinkModel::EventuallyTimely {
            gst: Instant::from_ticks(gst),
            delay: DelayDist::uniform(1, delta.max(1)),
            pre_loss,
            pre_delay: DelayDist::heavy_tail(delta.max(1), delta.max(1), 0.8),
        }
    }

    /// A fair-lossy link losing each message with probability `loss`,
    /// delivering the rest with a heavy-tailed delay starting at `base_delay`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1)` — fair loss requires that
    /// infinitely many sends yield infinitely many deliveries.
    pub fn fair_lossy(loss: f64, base_delay: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "fair-lossy loss must be in [0, 1), got {loss}"
        );
        LinkModel::FairLossy {
            loss,
            delay: DelayDist::heavy_tail(base_delay.max(1), base_delay.max(1), 0.5),
        }
    }

    /// A deterministic blinking link: delivers (within `delta`) for `on`
    /// ticks, then drops everything for `off` ticks, repeating.
    ///
    /// # Panics
    ///
    /// Panics if `on` is zero (the link would be dead).
    pub fn blink(on: u64, off: u64, delta: u64) -> Self {
        assert!(on > 0, "blink link requires a positive on-phase");
        LinkModel::Blink {
            on: Duration::from_ticks(on),
            off: Duration::from_ticks(off),
            delta: Duration::from_ticks(delta.max(1)),
        }
    }

    /// A lossy asynchronous link (no guarantees).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not in `[0, 1]`.
    pub fn lossy_async(loss: f64, base_delay: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss probability must be in [0, 1], got {loss}"
        );
        LinkModel::LossyAsync {
            loss,
            delay: DelayDist::heavy_tail(base_delay.max(1), base_delay.max(1), 0.8),
        }
    }

    /// Decides the fate of a message sent now.
    pub fn route<R: Rng + ?Sized>(&self, now: Instant, rng: &mut R) -> LinkFate {
        match *self {
            LinkModel::Timely { delay } => LinkFate::DeliverAt(now + delay.sample(rng)),
            LinkModel::EventuallyTimely {
                gst,
                delay,
                pre_loss,
                pre_delay,
            } => {
                if now >= gst {
                    LinkFate::DeliverAt(now + delay.sample(rng))
                } else if pre_loss >= 1.0 || rng.gen_bool(pre_loss.clamp(0.0, 1.0)) {
                    LinkFate::Drop
                } else {
                    LinkFate::DeliverAt(now + pre_delay.sample(rng))
                }
            }
            LinkModel::FairLossy { loss, delay } => {
                if rng.gen_bool(loss.clamp(0.0, 1.0)) {
                    LinkFate::Drop
                } else {
                    LinkFate::DeliverAt(now + delay.sample(rng))
                }
            }
            LinkModel::LossyAsync { loss, delay } => {
                if loss >= 1.0 || rng.gen_bool(loss.clamp(0.0, 1.0)) {
                    LinkFate::Drop
                } else {
                    LinkFate::DeliverAt(now + delay.sample(rng))
                }
            }
            LinkModel::Dead => LinkFate::Drop,
            LinkModel::Blink { on, off, delta } => {
                let cycle = on.ticks() + off.ticks();
                if cycle == 0 || now.ticks() % cycle < on.ticks() {
                    let d = if delta.ticks() == 0 {
                        Duration::from_ticks(1)
                    } else {
                        Duration::from_ticks(rng.gen_range(1..=delta.ticks()))
                    };
                    LinkFate::DeliverAt(now + d)
                } else {
                    LinkFate::Drop
                }
            }
        }
    }

    /// Returns `true` if this link is ♦-timely (or timely from the start):
    /// i.e. it satisfies the paper's timeliness property with *some* GST and
    /// `δ`. Used by topology validators to check that a configuration actually
    /// contains a ♦-source.
    pub fn is_eventually_timely(&self) -> bool {
        matches!(
            self,
            LinkModel::Timely { .. } | LinkModel::EventuallyTimely { .. }
        )
    }

    /// The delay bound `δ` this link honours after its GST, if any.
    pub fn delta(&self) -> Option<Duration> {
        match self {
            LinkModel::Timely { delay } => delay.upper_bound(),
            LinkModel::EventuallyTimely { delay, .. } => delay.upper_bound(),
            _ => None,
        }
    }

    /// The GST from which this link is timely, if it ever becomes timely.
    pub fn gst(&self) -> Option<Instant> {
        match self {
            LinkModel::Timely { .. } => Some(Instant::ZERO),
            LinkModel::EventuallyTimely { gst, .. } => Some(*gst),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn timely_always_delivers_within_delta() {
        let link = LinkModel::timely(5);
        let mut rng = rng();
        for t in 0..100 {
            match link.route(Instant::from_ticks(t), &mut rng) {
                LinkFate::DeliverAt(at) => {
                    assert!(at <= Instant::from_ticks(t + 5));
                    assert!(at >= Instant::from_ticks(t));
                }
                LinkFate::Drop => panic!("timely link dropped a message"),
            }
        }
    }

    #[test]
    fn eventually_timely_honours_gst() {
        let link = LinkModel::eventually_timely(1000, 4, 0.9);
        let mut rng = rng();
        // After GST: always delivered within delta.
        for t in 1000..1100 {
            match link.route(Instant::from_ticks(t), &mut rng) {
                LinkFate::DeliverAt(at) => assert!(at <= Instant::from_ticks(t + 4)),
                LinkFate::Drop => panic!("post-GST drop on ♦-timely link"),
            }
        }
        // Before GST: drops happen.
        let drops = (0..200)
            .filter(|_| matches!(link.route(Instant::from_ticks(1), &mut rng), LinkFate::Drop))
            .count();
        assert!(drops > 100, "expected many pre-GST drops, got {drops}");
    }

    #[test]
    fn fair_lossy_delivers_infinitely_often() {
        let link = LinkModel::fair_lossy(0.8, 2);
        let mut rng = rng();
        let delivered = (0..1000)
            .filter(|_| {
                matches!(
                    link.route(Instant::from_ticks(0), &mut rng),
                    LinkFate::DeliverAt(_)
                )
            })
            .count();
        // ~20% expected; the point is that it is neither 0 nor 100%.
        assert!(delivered > 100 && delivered < 400, "delivered={delivered}");
    }

    #[test]
    fn dead_and_total_loss_drop_everything() {
        let mut rng = rng();
        for _ in 0..100 {
            assert_eq!(
                LinkModel::Dead.route(Instant::ZERO, &mut rng),
                LinkFate::Drop
            );
            assert_eq!(
                LinkModel::lossy_async(1.0, 1).route(Instant::ZERO, &mut rng),
                LinkFate::Drop
            );
        }
    }

    #[test]
    fn classification_helpers() {
        assert!(LinkModel::timely(1).is_eventually_timely());
        assert!(LinkModel::eventually_timely(10, 2, 0.5).is_eventually_timely());
        assert!(!LinkModel::fair_lossy(0.1, 1).is_eventually_timely());
        assert!(!LinkModel::Dead.is_eventually_timely());
        assert_eq!(LinkModel::timely(3).delta(), Some(Duration::from_ticks(3)));
        assert_eq!(
            LinkModel::eventually_timely(10, 2, 0.5).gst(),
            Some(Instant::from_ticks(10))
        );
        assert_eq!(LinkModel::fair_lossy(0.1, 1).gst(), None);
    }

    #[test]
    #[should_panic(expected = "fair-lossy loss")]
    fn fair_lossy_rejects_total_loss() {
        let _ = LinkModel::fair_lossy(1.0, 1);
    }

    #[test]
    fn blink_delivers_in_on_phase_and_drops_in_off_phase() {
        let link = LinkModel::blink(10, 20, 2);
        let mut rng = rng();
        // Cycle length 30: [0,10) on, [10,30) off.
        for t in [0u64, 5, 9, 30, 35, 60] {
            match link.route(Instant::from_ticks(t), &mut rng) {
                LinkFate::DeliverAt(at) => assert!(at <= Instant::from_ticks(t + 2)),
                LinkFate::Drop => panic!("on-phase drop at t={t}"),
            }
        }
        for t in [10u64, 15, 29, 40, 59] {
            assert_eq!(
                link.route(Instant::from_ticks(t), &mut rng),
                LinkFate::Drop,
                "off-phase delivery at t={t}"
            );
        }
    }

    #[test]
    fn blink_is_not_eventually_timely() {
        assert!(!LinkModel::blink(5, 5, 1).is_eventually_timely());
        assert_eq!(LinkModel::blink(5, 5, 1).gst(), None);
    }

    #[test]
    #[should_panic(expected = "positive on-phase")]
    fn blink_rejects_zero_on_phase() {
        let _ = LinkModel::blink(0, 5, 1);
    }
}
