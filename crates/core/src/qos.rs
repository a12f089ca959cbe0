//! Quality-of-service metrics for Ω runs, in the spirit of the classic
//! failure-detector QoS framework (Chen, Toueg, Aguilera: *On the quality of
//! service of failure detectors*).
//!
//! The Ω specification only says "eventually"; deployments care about *how
//! fast* and *how noisy*. Given a leader trace, the crash schedule and the
//! run horizon, [`qos`] computes:
//!
//! * **stabilization time** — when the final agreement began;
//! * **instability** — leader changes, total and per process;
//! * **crash detection time** — for every crashed process, how long some
//!   correct process kept trusting it after the crash (the Ω analogue of
//!   the detection-time metric);
//! * **wrongful demotions** — times a correct process stopped trusting the
//!   eventual leader only to return to it (the Ω analogue of mistake rate).

use lls_primitives::{Duration, Instant, ProcessId};

use crate::spec::{stabilization, LeaderRecord};

/// Detection metrics for one crashed process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashDetection {
    /// The crashed process.
    pub victim: ProcessId,
    /// When it crashed.
    pub crash_at: Instant,
    /// The last time any correct process switched *to or stayed with* the
    /// victim — i.e. when the system was finally clear of it — if it was
    /// ever trusted after the crash.
    pub cleared_at: Option<Instant>,
    /// `cleared_at - crash_at`; zero if nobody trusted the victim after the
    /// crash.
    pub detection: Duration,
}

/// The full QoS report of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosReport {
    /// When agreement on the final correct leader began, if it did.
    pub stabilization_at: Option<Instant>,
    /// Total leader changes across all correct processes (excluding each
    /// process's initial output).
    pub total_changes: usize,
    /// Leader changes per process id (faulty processes included, for
    /// completeness).
    pub per_process_changes: Vec<usize>,
    /// Crash-detection metrics, one entry per crashed process.
    pub detections: Vec<CrashDetection>,
    /// Wrongful demotions: events where a correct process switched *away*
    /// from the eventual leader after having trusted it (each one is a
    /// "mistake" in QoS terms).
    pub wrongful_demotions: usize,
}

/// Computes the QoS report for a finished run.
///
/// `n` is the system size, `trace` the leader outputs, `correct` the
/// processes that never crashed, and `crashes` the `(victim, time)` schedule.
///
/// # Example
///
/// ```
/// use lls_primitives::{Duration, Instant, ProcessId};
/// use omega::qos::qos;
/// use omega::spec::LeaderRecord;
///
/// let t = |k| Instant::from_ticks(k);
/// let p = |k| ProcessId(k);
/// // p0 crashes at t=50; p1 keeps trusting it until t=80, then self-elects.
/// let trace = vec![
///     LeaderRecord { at: t(0), process: p(1), leader: p(0) },
///     LeaderRecord { at: t(80), process: p(1), leader: p(1) },
/// ];
/// let report = qos(2, &trace, &[p(1)], &[(p(0), t(50))]);
/// assert_eq!(report.detections[0].detection, Duration::from_ticks(30));
/// assert_eq!(report.stabilization_at, Some(t(80)));
/// ```
pub fn qos(
    n: usize,
    trace: &[LeaderRecord],
    correct: &[ProcessId],
    crashes: &[(ProcessId, Instant)],
) -> QosReport {
    let stab = stabilization(trace, correct);
    let mut per_process_changes = vec![0usize; n];
    let mut seen_first = vec![false; n];
    for r in trace {
        let i = r.process.as_usize();
        if i < n {
            if seen_first[i] {
                per_process_changes[i] += 1;
            } else {
                seen_first[i] = true;
            }
        }
    }
    let total_changes = correct
        .iter()
        .map(|p| per_process_changes[p.as_usize()])
        .sum();

    let detections = crashes
        .iter()
        .map(|&(victim, crash_at)| {
            // For each correct process, find when it *last stopped* trusting
            // the victim after the crash. A process trusts the victim at
            // time t if its latest output at or before t names the victim.
            let mut cleared_at: Option<Instant> = None;
            for &p in correct {
                let mut trusted_at_crash = false;
                let mut last: Option<ProcessId> = None;
                let mut switched_away: Option<Instant> = None;
                for r in trace.iter().filter(|r| r.process == p) {
                    if r.at <= crash_at {
                        last = Some(r.leader);
                    } else {
                        if last == Some(victim) && r.leader != victim {
                            switched_away = Some(r.at);
                        }
                        last = Some(r.leader);
                        if last == Some(victim) {
                            // Re-trusted the dead process: clear the switch.
                            switched_away = None;
                        }
                    }
                    if r.at <= crash_at && r.leader == victim {
                        trusted_at_crash = true;
                    }
                }
                let p_cleared = match (trusted_at_crash || last == Some(victim), switched_away) {
                    (_, Some(t)) => Some(t),
                    (false, None) => None, // never trusted it after crash
                    (true, None) => None,  // still trusts it (no clearance!)
                };
                if let Some(t) = p_cleared {
                    cleared_at = Some(cleared_at.map_or(t, |c| c.max(t)));
                }
            }
            CrashDetection {
                victim,
                crash_at,
                cleared_at,
                detection: cleared_at.map_or(Duration::ZERO, |c| c.saturating_since(crash_at)),
            }
        })
        .collect();

    // Wrongful demotions of the eventual leader.
    let wrongful_demotions = match stab {
        Some(s) => {
            let mut count = 0;
            for &p in correct {
                let mut prev: Option<ProcessId> = None;
                for r in trace.iter().filter(|r| r.process == p) {
                    if prev == Some(s.leader) && r.leader != s.leader {
                        count += 1;
                    }
                    prev = Some(r.leader);
                }
            }
            count
        }
        None => 0,
    };

    QosReport {
        stabilization_at: stab.map(|s| s.at),
        total_changes,
        per_process_changes,
        detections,
        wrongful_demotions,
    }
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
    fn change_counting_excludes_initial_outputs() {
        let trace = vec![rec(0, 0, 0), rec(10, 0, 1), rec(0, 1, 0), rec(20, 1, 1)];
        let report = qos(2, &trace, &[p(0), p(1)], &[]);
        assert_eq!(report.per_process_changes, vec![1, 1]);
        assert_eq!(report.total_changes, 2);
        assert_eq!(report.stabilization_at, Some(t(20)));
    }

    #[test]
    fn detection_time_is_last_clearance_after_crash() {
        // p2 crashes at 50. p0 clears at 70, p1 clears at 90 → detection 40.
        let trace = vec![rec(0, 0, 2), rec(0, 1, 2), rec(70, 0, 0), rec(90, 1, 0)];
        let report = qos(3, &trace, &[p(0), p(1)], &[(p(2), t(50))]);
        let d = &report.detections[0];
        assert_eq!(d.victim, p(2));
        assert_eq!(d.cleared_at, Some(t(90)));
        assert_eq!(d.detection, Duration::from_ticks(40));
    }

    #[test]
    fn retrusting_a_dead_process_extends_detection() {
        // p0 leaves the victim at 60 but returns at 70, leaving finally at 95.
        let trace = vec![rec(0, 0, 2), rec(60, 0, 0), rec(70, 0, 2), rec(95, 0, 0)];
        let report = qos(3, &trace, &[p(0)], &[(p(2), t(50))]);
        assert_eq!(report.detections[0].cleared_at, Some(t(95)));
        assert_eq!(report.detections[0].detection, Duration::from_ticks(45));
    }

    #[test]
    fn never_trusting_the_victim_means_zero_detection() {
        let trace = vec![rec(0, 0, 0), rec(0, 1, 0)];
        let report = qos(3, &trace, &[p(0), p(1)], &[(p(2), t(50))]);
        assert_eq!(report.detections[0].cleared_at, None);
        assert_eq!(report.detections[0].detection, Duration::ZERO);
    }

    #[test]
    fn wrongful_demotions_count_departures_from_final_leader() {
        // Final leader is p1; p0 trusts it, leaves, returns, stays.
        let trace = vec![rec(0, 0, 1), rec(10, 0, 2), rec(20, 0, 1), rec(0, 1, 1)];
        let report = qos(3, &trace, &[p(0), p(1)], &[]);
        assert_eq!(report.wrongful_demotions, 1);
        assert_eq!(report.stabilization_at, Some(t(20)));
    }

    #[test]
    fn no_stabilization_reports_none() {
        let trace = vec![rec(0, 0, 0), rec(0, 1, 1)];
        let report = qos(2, &trace, &[p(0), p(1)], &[]);
        assert_eq!(report.stabilization_at, None);
        assert_eq!(report.wrongful_demotions, 0);
    }
}
