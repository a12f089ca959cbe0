//! Crash-stop fault schedules.
//!
//! The paper uses the *crash* failure model: a faulty process stops executing
//! at some time and never takes another step. (Crash–*recovery* is the 2011
//! follow-up paper, out of scope here.) A [`FaultPlan`] pins down, per
//! process, when — if ever — it crashes, and optionally when it starts.

use lls_primitives::{Instant, ProcessId};

/// A deterministic crash/start schedule for one run.
///
/// # Example
///
/// ```
/// use netsim::FaultPlan;
/// use lls_primitives::{Instant, ProcessId};
///
/// let mut plan = FaultPlan::new(3);
/// plan.crash_at(ProcessId(1), Instant::from_ticks(100));
/// plan.start_at(ProcessId(2), Instant::from_ticks(10));
/// assert_eq!(plan.crash_time(ProcessId(1)), Some(Instant::from_ticks(100)));
/// assert_eq!(plan.crash_time(ProcessId(0)), None);
/// assert_eq!(plan.correct_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    n: usize,
    crash: Vec<Option<Instant>>,
    start: Vec<Instant>,
}

impl FaultPlan {
    /// A plan in which every process starts at time 0 and never crashes.
    pub fn new(n: usize) -> Self {
        FaultPlan {
            n,
            crash: vec![None; n],
            start: vec![Instant::ZERO; n],
        }
    }

    /// Schedules `p` to crash at `t` (crash-stop: it takes no step at or
    /// after `t`). Overwrites any earlier schedule for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn crash_at(&mut self, p: ProcessId, t: Instant) -> &mut Self {
        assert!(p.as_usize() < self.n, "{p} out of range");
        self.crash[p.as_usize()] = Some(t);
        self
    }

    /// Schedules `p` to run `on_start` at `t` instead of time 0 (staggered
    /// boot).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn start_at(&mut self, p: ProcessId, t: Instant) -> &mut Self {
        assert!(p.as_usize() < self.n, "{p} out of range");
        self.start[p.as_usize()] = t;
        self
    }

    /// When `p` crashes, or `None` if it is correct in this run.
    pub fn crash_time(&self, p: ProcessId) -> Option<Instant> {
        self.crash.get(p.as_usize()).copied().flatten()
    }

    /// When `p` boots.
    pub fn start_time(&self, p: ProcessId) -> Instant {
        self.start[p.as_usize()]
    }

    /// Ids of processes that never crash in this plan.
    pub fn correct(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.crash
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_none())
            .map(|(i, _)| ProcessId(i as u32))
    }

    /// Number of processes that never crash.
    pub fn correct_count(&self) -> usize {
        self.crash.iter().filter(|c| c.is_none()).count()
    }

    /// Returns `true` if a majority of processes are correct — the premise of
    /// the paper's consensus system `S_maj`.
    pub fn has_correct_majority(&self) -> bool {
        self.correct_count() > self.n / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_all_correct() {
        let plan = FaultPlan::new(4);
        assert_eq!(plan.correct_count(), 4);
        assert!(plan.has_correct_majority());
        assert_eq!(plan.correct().count(), 4);
        assert_eq!(plan.start_time(ProcessId(3)), Instant::ZERO);
    }

    #[test]
    fn crash_schedule_is_reflected() {
        let mut plan = FaultPlan::new(4);
        plan.crash_at(ProcessId(0), Instant::from_ticks(5))
            .crash_at(ProcessId(3), Instant::from_ticks(9));
        assert_eq!(plan.correct_count(), 2);
        let correct: Vec<_> = plan.correct().collect();
        assert_eq!(correct, vec![ProcessId(1), ProcessId(2)]);
        assert!(!plan.has_correct_majority());
    }

    #[test]
    fn majority_boundary() {
        let mut plan = FaultPlan::new(5);
        plan.crash_at(ProcessId(0), Instant::ZERO);
        plan.crash_at(ProcessId(1), Instant::ZERO);
        assert!(plan.has_correct_majority()); // 3 of 5
        plan.crash_at(ProcessId(2), Instant::ZERO);
        assert!(!plan.has_correct_majority()); // 2 of 5
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_crash_panics() {
        FaultPlan::new(2).crash_at(ProcessId(2), Instant::ZERO);
    }
}
