//! Wire messages of the communication-efficient Ω algorithm.

use lls_primitives::wire::{Wire, WireError, WireReader};

/// Messages exchanged by [`CommEffOmega`](crate::CommEffOmega).
///
/// Both messages carry an accusation-counter value, which doubles as a
/// *phase number*:
///
/// * In `Alive`, it is the sender's own current counter — the authoritative
///   value receivers adopt.
/// * In `Accuse`, it is the counter value the accuser currently attributes to
///   the accused. The accused increments its counter only when the accusation
///   matches its current counter, which makes accusations idempotent: under
///   fair-lossy links an accuser retransmits, and duplicates or stale copies
///   must not inflate the counter more than once per "phase".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OmegaMsg {
    /// "I am the leader and my accusation counter is `counter`." Broadcast
    /// every η by a process that currently trusts itself.
    Alive {
        /// Sender's authoritative accusation counter.
        counter: u64,
    },
    /// "You, my current leader, missed your deadline; I accuse you at phase
    /// `counter`." Sent point-to-point to the suspected leader only — this is
    /// what keeps the protocol communication-efficient.
    Accuse {
        /// The accuser's view of the accused's counter.
        counter: u64,
    },
}

impl Wire for OmegaMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OmegaMsg::Alive { counter } => {
                out.push(0);
                counter.encode(out);
            }
            OmegaMsg::Accuse { counter } => {
                out.push(1);
                counter.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(OmegaMsg::Alive {
                counter: u64::decode(r)?,
            }),
            1 => Ok(OmegaMsg::Accuse {
                counter: u64::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                type_name: "OmegaMsg",
                tag,
            }),
        }
    }
}

/// Classifier for `netsim`-style per-kind message statistics.
///
/// # Example
///
/// ```
/// use omega::{classify_msg, OmegaMsg};
/// assert_eq!(classify_msg(&OmegaMsg::Alive { counter: 0 }), "ALIVE");
/// assert_eq!(classify_msg(&OmegaMsg::Accuse { counter: 3 }), "ACCUSE");
/// ```
pub fn classify_msg(msg: &OmegaMsg) -> &'static str {
    match msg {
        OmegaMsg::Alive { .. } => "ALIVE",
        OmegaMsg::Accuse { .. } => "ACCUSE",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_stable() {
        assert_eq!(classify_msg(&OmegaMsg::Alive { counter: 9 }), "ALIVE");
        assert_eq!(classify_msg(&OmegaMsg::Accuse { counter: 9 }), "ACCUSE");
    }

    #[test]
    fn messages_are_value_types() {
        let a = OmegaMsg::Alive { counter: 1 };
        let b = a;
        assert_eq!(a, b);
        assert_ne!(a, OmegaMsg::Accuse { counter: 1 });
        assert_ne!(a, OmegaMsg::Alive { counter: 2 });
    }
}
