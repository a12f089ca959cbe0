//! Discrete virtual time.
//!
//! The paper's model has unknown real-time bounds (`δ`, GST) but only ever
//! reasons about *orderings* of events; any discrete clock is faithful. We use
//! `u64` ticks. Conventionally one tick ≈ one "time unit" of the paper; the
//! heartbeat period `η`, link delays `δ` and GST are all expressed in ticks.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A point in virtual time, measured in ticks since the start of the run.
///
/// # Example
///
/// ```
/// use lls_primitives::{Duration, Instant};
///
/// let t = Instant::ZERO + Duration::from_ticks(10);
/// assert_eq!(t.ticks(), 10);
/// assert_eq!(t - Instant::ZERO, Duration::from_ticks(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The origin of virtual time.
    pub const ZERO: Instant = Instant(0);

    /// A time later than every time reachable in practice.
    pub const MAX: Instant = Instant(u64::MAX);

    /// Creates an instant at `ticks` ticks from the origin.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Instant(ticks)
    }

    /// Ticks since the origin.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating difference: `self - earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A span of virtual time, in ticks.
///
/// # Example
///
/// ```
/// use lls_primitives::Duration;
///
/// let d = Duration::from_ticks(3) * 4;
/// assert_eq!(d.ticks(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration of `ticks` ticks.
    #[inline]
    pub const fn from_ticks(ticks: u64) -> Self {
        Duration(ticks)
    }

    /// Length in ticks.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}t", self.0)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Instant {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Instant::saturating_since`] when the order is not statically known.
    #[inline]
    fn sub(self, rhs: Instant) -> Duration {
        debug_assert!(rhs <= self, "instant subtraction underflow");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = Instant::from_ticks(100);
        let d = Duration::from_ticks(40);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + Duration::ZERO, t);
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let a = Instant::from_ticks(5);
        let b = Instant::from_ticks(9);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_ticks(4));
    }

    #[test]
    fn addition_saturates_instead_of_overflowing() {
        let t = Instant::MAX;
        assert_eq!(t + Duration::from_ticks(1), Instant::MAX);
        let d = Duration::from_ticks(u64::MAX);
        assert_eq!(d * 3, d);
        assert_eq!(d + d, d);
    }

    #[test]
    fn ordering_matches_ticks() {
        assert!(Instant::from_ticks(3) < Instant::from_ticks(4));
        assert!(Duration::from_ticks(3) < Duration::from_ticks(4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Instant::from_ticks(7).to_string(), "t7");
        assert_eq!(Duration::from_ticks(7).to_string(), "7t");
    }
}
