//! Trace checkers for the paper's two theorems.
//!
//! Both theorems are "eventually forever" properties, which a finite run can
//! only certify up to its horizon: the checkers find the *stabilization
//! point* — the last time the property was violated — and the caller decides
//! whether that point falls early enough before the horizon to count as
//! converged (experiments use a comfortable margin, e.g. the last 20 % of a
//! long run).
//!
//! * **Ω** ([`stabilization`]): from some time on, every correct process
//!   trusts the same correct process.
//! * **Communication efficiency**: from some time on, only one process sends
//!   messages — checked against the runtime's send log (see
//!   `netsim::Stats::quiescence_time`), not against traces here, because only
//!   the runtime sees sends.

use lls_primitives::{Instant, ProcessId};

/// One Ω output: at time `at`, `process` started trusting `leader`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderRecord {
    /// When the change happened.
    pub at: Instant,
    /// The process whose output changed.
    pub process: ProcessId,
    /// The newly trusted process.
    pub leader: ProcessId,
}

/// The verdict of the Ω checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stabilization {
    /// The common final leader.
    pub leader: ProcessId,
    /// The time of the last leader change at any correct process — from here
    /// on, the Ω property held for the rest of the run.
    pub at: Instant,
}

/// Checks the Ω property over a finite trace: did all `correct` processes end
/// the run trusting the same *correct* process?
///
/// Returns the stabilization point if so, `None` if the final outputs
/// disagree, the common leader is faulty, or some correct process never
/// produced an output.
///
/// # Example
///
/// ```
/// use lls_primitives::{Instant, ProcessId};
/// use omega::spec::{stabilization, LeaderRecord};
///
/// let t = |k| Instant::from_ticks(k);
/// let p = |k| ProcessId(k);
/// let trace = vec![
///     LeaderRecord { at: t(0), process: p(0), leader: p(0) },
///     LeaderRecord { at: t(0), process: p(1), leader: p(0) },
///     LeaderRecord { at: t(40), process: p(0), leader: p(1) },
///     LeaderRecord { at: t(55), process: p(1), leader: p(1) },
/// ];
/// let s = stabilization(&trace, &[p(0), p(1)]).expect("converged");
/// assert_eq!(s.leader, p(1));
/// assert_eq!(s.at, t(55));
/// ```
pub fn stabilization(trace: &[LeaderRecord], correct: &[ProcessId]) -> Option<Stabilization> {
    let mut final_leader: Vec<Option<(Instant, ProcessId)>> = Vec::new();
    for &p in correct {
        let last = trace
            .iter()
            .filter(|r| r.process == p)
            .map(|r| (r.at, r.leader))
            .next_back()?;
        final_leader.push(Some(last));
    }
    let (_, leader) = final_leader.first()?.as_ref().copied()?;
    if !correct.contains(&leader) {
        return None;
    }
    let mut stable_at = Instant::ZERO;
    for entry in &final_leader {
        let (at, l) = entry.expect("filled above");
        if l != leader {
            return None;
        }
        stable_at = stable_at.max(at);
    }
    Some(Stabilization {
        leader,
        at: stable_at,
    })
}

/// Returns `true` iff the trace satisfies Ω by the end of the run *and*
/// stabilized no later than `deadline` (giving the "forever" part a
/// meaningful observation window).
pub fn omega_holds_by(trace: &[LeaderRecord], correct: &[ProcessId], deadline: Instant) -> bool {
    stabilization(trace, correct).is_some_and(|s| s.at <= deadline)
}

/// Number of leader changes observed at `p` (excluding the initial output).
pub fn leader_changes(trace: &[LeaderRecord], p: ProcessId) -> usize {
    trace
        .iter()
        .filter(|r| r.process == p)
        .count()
        .saturating_sub(1)
}

/// Splits a run's duration into the *last* `tail_percent` percent and returns
/// the cut point — the conventional deadline passed to [`omega_holds_by`].
///
/// # Panics
///
/// Panics if `tail_percent` is not in `(0, 100)`.
pub fn tail_cut(horizon: Instant, tail_percent: u64) -> Instant {
    assert!(
        tail_percent > 0 && tail_percent < 100,
        "tail_percent must be in (0, 100), got {tail_percent}"
    );
    Instant::from_ticks(horizon.ticks() / 100 * (100 - tail_percent))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(k: u64) -> Instant {
        Instant::from_ticks(k)
    }
    fn p(k: u32) -> ProcessId {
        ProcessId(k)
    }
    fn rec(at: u64, process: u32, leader: u32) -> LeaderRecord {
        LeaderRecord {
            at: t(at),
            process: p(process),
            leader: p(leader),
        }
    }

    #[test]
    fn agreement_on_correct_leader_stabilizes() {
        let trace = vec![
            rec(0, 0, 0),
            rec(0, 1, 0),
            rec(10, 1, 1),
            rec(20, 0, 1),
            rec(30, 1, 1),
        ];
        let s = stabilization(&trace, &[p(0), p(1)]).unwrap();
        assert_eq!(s.leader, p(1));
        assert_eq!(s.at, t(30));
    }

    #[test]
    fn disagreement_fails() {
        let trace = vec![rec(0, 0, 0), rec(0, 1, 1)];
        assert!(stabilization(&trace, &[p(0), p(1)]).is_none());
    }

    #[test]
    fn faulty_final_leader_fails() {
        // Both trust p2, but p2 is not in the correct set.
        let trace = vec![rec(0, 0, 2), rec(0, 1, 2)];
        assert!(stabilization(&trace, &[p(0), p(1)]).is_none());
    }

    #[test]
    fn silent_correct_process_fails() {
        let trace = vec![rec(0, 0, 0)];
        assert!(stabilization(&trace, &[p(0), p(1)]).is_none());
    }

    #[test]
    fn faulty_processes_are_ignored() {
        // p1 (faulty) disagrees; only p0 and p2 must agree.
        let trace = vec![rec(0, 0, 2), rec(5, 1, 1), rec(9, 2, 2)];
        let s = stabilization(&trace, &[p(0), p(2)]).unwrap();
        assert_eq!(s.leader, p(2));
        assert_eq!(s.at, t(9));
    }

    #[test]
    fn omega_holds_by_enforces_deadline() {
        let trace = vec![rec(0, 0, 0), rec(0, 1, 0), rec(90, 1, 0)];
        assert!(omega_holds_by(&trace, &[p(0), p(1)], t(95)));
        assert!(!omega_holds_by(&trace, &[p(0), p(1)], t(80)));
    }

    #[test]
    fn leader_change_counting() {
        let trace = vec![rec(0, 0, 0), rec(10, 0, 1), rec(20, 0, 0), rec(5, 1, 0)];
        assert_eq!(leader_changes(&trace, p(0)), 2);
        assert_eq!(leader_changes(&trace, p(1)), 0);
        assert_eq!(leader_changes(&trace, p(2)), 0);
    }

    #[test]
    fn tail_cut_math() {
        assert_eq!(tail_cut(t(1000), 20), t(800));
        assert_eq!(tail_cut(t(1000), 50), t(500));
    }

    #[test]
    #[should_panic(expected = "tail_percent")]
    fn tail_cut_rejects_degenerate() {
        let _ = tail_cut(t(100), 100);
    }
}
