//! Process identities and the known membership `Π`.

use std::fmt;

/// The identity of a process in `Π = {0, …, n-1}`.
///
/// The paper's model assumes a finite, *totally ordered* set of processes whose
/// identities are known to everyone; the total order is what lets algorithms
/// break ties between accusation counters ("smallest counter, then smallest
/// id"). We realize the order as the natural order on the wrapped index.
///
/// # Example
///
/// ```
/// use lls_primitives::ProcessId;
///
/// let p = ProcessId(2);
/// let q = ProcessId(5);
/// assert!(p < q);
/// assert_eq!(p.as_usize(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the id as an index into per-process tables.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// The known process universe `Π` of size `n`.
///
/// The paper assumes `n > 1` and that every process knows `n`; [`Membership::new`]
/// enforces the former.
///
/// # Example
///
/// ```
/// use lls_primitives::{Membership, ProcessId};
///
/// let m = Membership::new(4);
/// assert_eq!(m.n(), 4);
/// assert_eq!(m.iter().count(), 4);
/// assert_eq!(m.others(ProcessId(1)).count(), 3);
/// assert_eq!(m.majority(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Membership {
    n: u32,
}

impl Membership {
    /// Creates a membership of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`: the paper's model requires `n > 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "the model requires n > 1 processes, got {n}");
        assert!(n <= u32::MAX as usize, "membership too large");
        Membership { n: n as u32 }
    }

    /// Number of processes in the system.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Smallest quorum size that any two quorums intersect: `⌊n/2⌋ + 1`.
    ///
    /// Consensus in system `S_maj` assumes a majority of correct processes;
    /// this is the matching quorum size.
    #[inline]
    pub fn majority(&self) -> usize {
        self.n() / 2 + 1
    }

    /// Returns `true` if `p` is a member.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        p.0 < self.n
    }

    /// Iterates over all members in id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n).map(ProcessId)
    }

    /// Iterates over all members except `me`, in id order.
    pub fn others(&self, me: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.n).map(ProcessId).filter(move |&p| p != me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_order_is_total_and_matches_index() {
        let mut ids: Vec<ProcessId> = (0..10).rev().map(ProcessId).collect();
        ids.sort();
        assert_eq!(ids, (0..10).map(ProcessId).collect::<Vec<_>>());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ProcessId(7).to_string(), "p7");
    }

    #[test]
    fn membership_iteration_covers_universe() {
        let m = Membership::new(5);
        assert_eq!(m.iter().count(), 5);
        assert!(m.contains(ProcessId(4)));
        assert!(!m.contains(ProcessId(5)));
    }

    #[test]
    fn others_excludes_self_only() {
        let m = Membership::new(5);
        let others: Vec<_> = m.others(ProcessId(2)).collect();
        assert_eq!(
            others,
            vec![ProcessId(0), ProcessId(1), ProcessId(3), ProcessId(4)]
        );
    }

    #[test]
    fn majority_is_floor_half_plus_one() {
        assert_eq!(Membership::new(2).majority(), 2);
        assert_eq!(Membership::new(3).majority(), 2);
        assert_eq!(Membership::new(4).majority(), 3);
        assert_eq!(Membership::new(5).majority(), 3);
        assert_eq!(Membership::new(6).majority(), 4);
        assert_eq!(Membership::new(7).majority(), 4);
    }

    #[test]
    #[should_panic(expected = "n > 1")]
    fn singleton_membership_rejected() {
        let _ = Membership::new(1);
    }
}
