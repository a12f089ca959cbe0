//! Ballot numbers.

use std::fmt;

use lls_primitives::wire::{Wire, WireError, WireReader};
use lls_primitives::ProcessId;

/// A ballot: a totally ordered proposal epoch, ordered by `(round, leader)`.
///
/// Two distinct proposers can never own the same ballot because the proposer
/// id is part of the order — the classic trick that gives each leader its own
/// disjoint, unbounded supply of ballots.
///
/// # Example
///
/// ```
/// use consensus::Ballot;
/// use lls_primitives::ProcessId;
///
/// let a = Ballot::new(1, ProcessId(2));
/// let b = Ballot::new(2, ProcessId(0));
/// assert!(a < b);                                 // round dominates
/// assert!(Ballot::new(1, ProcessId(0)) < a);      // id breaks ties
/// assert_eq!(a.next_for(ProcessId(0)).round(), 2); // strictly above `a`
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    round: u64,
    leader: ProcessId,
}

impl Ballot {
    /// The ballot below every real ballot; acceptors start promised to it.
    pub const ZERO: Ballot = Ballot {
        round: 0,
        leader: ProcessId(0),
    };

    /// Creates the ballot `(round, leader)`.
    pub fn new(round: u64, leader: ProcessId) -> Self {
        Ballot { round, leader }
    }

    /// The round component.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The proposer that owns this ballot.
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// The smallest ballot owned by `me` that is strictly greater than
    /// `self`.
    pub fn next_for(&self, me: ProcessId) -> Ballot {
        if me > self.leader {
            Ballot {
                round: self.round,
                leader: me,
            }
        } else {
            Ballot {
                round: self.round + 1,
                leader: me,
            }
        }
    }
}

impl Wire for Ballot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.leader.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Ballot::new(u64::decode(r)?, ProcessId::decode(r)?))
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b({},{})", self.round, self.leader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_round_then_leader() {
        let mut v = vec![
            Ballot::new(2, ProcessId(0)),
            Ballot::new(1, ProcessId(3)),
            Ballot::new(1, ProcessId(1)),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Ballot::new(1, ProcessId(1)),
                Ballot::new(1, ProcessId(3)),
                Ballot::new(2, ProcessId(0)),
            ]
        );
    }

    #[test]
    fn next_for_is_strictly_greater_and_minimal_supply() {
        let b = Ballot::new(5, ProcessId(2));
        // Higher id: same round suffices.
        let n = b.next_for(ProcessId(4));
        assert!(n > b);
        assert_eq!(n, Ballot::new(5, ProcessId(4)));
        // Lower or equal id: bump the round.
        let n = b.next_for(ProcessId(1));
        assert!(n > b);
        assert_eq!(n, Ballot::new(6, ProcessId(1)));
        let n = b.next_for(ProcessId(2));
        assert!(n > b);
        assert_eq!(n, Ballot::new(6, ProcessId(2)));
    }

    #[test]
    fn zero_is_minimal() {
        assert!(Ballot::ZERO <= Ballot::new(0, ProcessId(0)));
        assert!(Ballot::ZERO < Ballot::new(0, ProcessId(1)));
        assert!(Ballot::ZERO < Ballot::new(1, ProcessId(0)));
    }

    #[test]
    fn distinct_proposers_never_collide() {
        let a = Ballot::ZERO.next_for(ProcessId(1));
        let b = Ballot::ZERO.next_for(ProcessId(2));
        assert_ne!(a, b);
    }
}
