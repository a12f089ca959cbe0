//! Candidate ranking by *(accusation counter, id)*.
//!
//! The heart of the paper's election rule: every process ranks all `n`
//! candidates by the pair *(counter, id)* in lexicographic order and trusts
//! the minimum. The table kept per process distinguishes two kinds of
//! evidence about a candidate `q`:
//!
//! * the **authoritative** counter — the largest value heard directly from
//!   `q` in an `ALIVE` message (the leader's own counter is monotone, so
//!   "largest heard" converges to the true value);
//! * a **provisional** surcharge — local timeouts on `q` that `q` has not yet
//!   acknowledged. It handles crashed leaders, whose authoritative counter
//!   would otherwise stay at its last value forever: every further suspicion
//!   pushes the crashed candidate further down the ranking. Hearing from `q`
//!   again clears the surcharge — the authoritative value subsumes whatever
//!   accusations actually reached `q`, and accusations that got lost must not
//!   permanently poison one process's view (they would break agreement,
//!   since other processes never saw them).

use lls_primitives::ProcessId;

/// A candidate's rank: smaller is more trustworthy.
///
/// # Example
///
/// ```
/// use omega::CandidateRank;
/// use lls_primitives::ProcessId;
///
/// let a = CandidateRank { counter: 2, id: ProcessId(9) };
/// let b = CandidateRank { counter: 3, id: ProcessId(0) };
/// let c = CandidateRank { counter: 2, id: ProcessId(4) };
/// assert!(a < b); // counter dominates
/// assert!(c < a); // id breaks ties
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateRank {
    /// Effective accusation counter.
    pub counter: u64,
    /// Process id, breaking ties.
    pub id: ProcessId,
}

/// Per-process table of counter evidence for all candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTable {
    auth: Vec<u64>,
    prov: Vec<u64>,
}

impl RankTable {
    /// A table for `n` candidates, all counters zero.
    pub fn new(n: usize) -> Self {
        RankTable {
            auth: vec![0; n],
            prov: vec![0; n],
        }
    }

    /// Number of candidates.
    pub fn n(&self) -> usize {
        self.auth.len()
    }

    /// The authoritative counter of `q`.
    pub fn auth(&self, q: ProcessId) -> u64 {
        self.auth[q.as_usize()]
    }

    /// The provisional surcharge on `q`.
    pub fn prov(&self, q: ProcessId) -> u64 {
        self.prov[q.as_usize()]
    }

    /// `q`'s effective rank.
    pub fn rank(&self, q: ProcessId) -> CandidateRank {
        CandidateRank {
            counter: self.auth[q.as_usize()].saturating_add(self.prov[q.as_usize()]),
            id: q,
        }
    }

    /// Records an authoritative counter heard from `q` itself. Adopts it if
    /// larger, and clears the provisional surcharge in either case (we just
    /// heard from `q`: it is alive, and its own counter is the truth).
    pub fn record_alive(&mut self, q: ProcessId, counter: u64) {
        let i = q.as_usize();
        if counter > self.auth[i] {
            self.auth[i] = counter;
        }
        self.prov[i] = 0;
    }

    /// Adds one provisional accusation against `q` (a local timeout).
    pub fn record_suspicion(&mut self, q: ProcessId) {
        self.prov[q.as_usize()] = self.prov[q.as_usize()].saturating_add(1);
    }

    /// Increments `q`'s authoritative counter and returns the new value. Used by
    /// the owner on itself when absorbing a valid accusation, and by the
    /// gossiping baseline to record suspicions directly in the shared vector.
    pub fn bump_auth(&mut self, q: ProcessId) -> u64 {
        let i = q.as_usize();
        self.auth[i] = self.auth[i].saturating_add(1);
        self.auth[i]
    }

    /// The candidate with the minimum *(counter, id)* — the process to trust.
    pub fn best(&self) -> ProcessId {
        (0..self.auth.len() as u32)
            .map(ProcessId)
            .min_by_key(|&q| self.rank(q))
            .expect("RankTable is never empty")
    }

    /// Merges another process's authoritative knowledge (used by the gossiping
    /// baseline): takes the pointwise max of authoritative counters.
    pub fn merge_auth(&mut self, other: &[u64]) {
        assert_eq!(other.len(), self.auth.len(), "counter vector size mismatch");
        for (mine, theirs) in self.auth.iter_mut().zip(other) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// A copy of the authoritative counter vector (for gossiping).
    pub fn auth_vector(&self) -> Vec<u64> {
        self.auth.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn rank_orders_counter_then_id() {
        let mut ranks = [
            CandidateRank {
                counter: 1,
                id: p(0),
            },
            CandidateRank {
                counter: 0,
                id: p(2),
            },
            CandidateRank {
                counter: 0,
                id: p(1),
            },
        ];
        ranks.sort();
        assert_eq!(
            ranks.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![p(1), p(2), p(0)]
        );
    }

    #[test]
    fn fresh_table_trusts_lowest_id() {
        let t = RankTable::new(4);
        assert_eq!(t.best(), p(0));
    }

    #[test]
    fn suspicions_demote() {
        let mut t = RankTable::new(3);
        t.record_suspicion(p(0));
        assert_eq!(t.best(), p(1));
        t.record_suspicion(p(1));
        assert_eq!(t.best(), p(2));
        // p2 with zero accusations now wins over both.
        assert_eq!(t.rank(p(0)).counter, 1);
    }

    #[test]
    fn alive_clears_provisional_surcharge() {
        let mut t = RankTable::new(3);
        t.record_suspicion(p(0));
        t.record_suspicion(p(0));
        assert_eq!(t.best(), p(1));
        t.record_alive(p(0), 0);
        assert_eq!(t.best(), p(0));
        assert_eq!(t.prov(p(0)), 0);
    }

    #[test]
    fn alive_adopts_larger_counters_only() {
        let mut t = RankTable::new(2);
        t.record_alive(p(1), 5);
        assert_eq!(t.auth(p(1)), 5);
        // A stale (delayed) smaller value must not regress the counter.
        t.record_alive(p(1), 3);
        assert_eq!(t.auth(p(1)), 5);
        t.record_alive(p(1), 8);
        assert_eq!(t.auth(p(1)), 8);
    }

    #[test]
    fn bump_auth_is_monotone() {
        let mut t = RankTable::new(2);
        assert_eq!(t.bump_auth(p(0)), 1);
        assert_eq!(t.bump_auth(p(0)), 2);
        assert_eq!(t.auth(p(0)), 2);
    }

    #[test]
    fn merge_takes_pointwise_max() {
        let mut t = RankTable::new(3);
        t.record_alive(p(1), 4);
        t.merge_auth(&[2, 1, 7]);
        assert_eq!(t.auth_vector(), vec![2, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn merge_rejects_wrong_size() {
        RankTable::new(2).merge_auth(&[0; 3]);
    }

    #[test]
    fn effective_rank_combines_auth_and_prov() {
        let mut t = RankTable::new(2);
        t.record_alive(p(1), 3);
        t.record_suspicion(p(1));
        assert_eq!(
            t.rank(p(1)),
            CandidateRank {
                counter: 4,
                id: p(1)
            }
        );
    }
}
