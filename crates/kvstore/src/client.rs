//! Client-side session handling.
//!
//! A [`KvClient`] owns one client session: it assigns the strictly
//! increasing sequence numbers that the replicas' session tables key on,
//! and re-issues exact copies for retries — the two things a caller must
//! get right for exactly-once semantics to hold. It is transport-agnostic:
//! it *mints* [`Tagged`] commands; the caller delivers them to a replica by
//! whatever means the deployment uses (`Simulator::schedule_request`,
//! `Cluster::request`, …).

use crate::command::{ClientId, KvCmd, Tagged};

/// A client session: mints tagged commands with correct sequence numbers.
///
/// # Example
///
/// ```
/// use kvstore::{ClientId, KvClient, KvCmd, KvState};
///
/// let mut client = KvClient::new(ClientId(7));
/// let put = client.issue(KvCmd::put("k", "v"));
/// let retry = client.retry_last().expect("just issued");
/// assert_eq!(put, retry); // byte-identical: safe to resubmit
///
/// let mut state = KvState::new();
/// state.apply(&put);
/// state.apply(&retry); // suppressed as a duplicate
/// assert_eq!(state.applied_count(), 1);
///
/// let next = client.issue(KvCmd::delete("k"));
/// assert_eq!(next.seq, put.seq + 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvClient {
    id: ClientId,
    next_seq: u64,
    last: Option<Tagged<KvCmd>>,
}

impl KvClient {
    /// Creates the session for `id`. Sequence numbers start at 1 (replicas
    /// treat 0 as "nothing applied yet").
    pub fn new(id: ClientId) -> Self {
        KvClient {
            id,
            next_seq: 1,
            last: None,
        }
    }

    /// The session identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The sequence number the next [`KvClient::issue`] will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Mints a new tagged command, consuming one sequence number.
    pub fn issue(&mut self, cmd: KvCmd) -> Tagged<KvCmd> {
        let tagged = Tagged {
            client: self.id,
            seq: self.next_seq,
            cmd,
        };
        self.next_seq += 1;
        self.last = Some(tagged.clone());
        tagged
    }

    /// An exact copy of the most recently issued command, for retries after
    /// a timeout or leader change. Returns `None` before the first
    /// [`KvClient::issue`].
    pub fn retry_last(&self) -> Option<Tagged<KvCmd>> {
        self.last.clone()
    }

    /// Resynchronizes the session after reconnecting: if a replica reports
    /// (via [`crate::KvState::session_seq`]) a higher applied sequence than
    /// we remember — e.g. the client process restarted from a stale
    /// checkpoint — fast-forward past it so new commands are not suppressed
    /// as duplicates.
    pub fn resync(&mut self, applied_seq: u64) {
        if applied_seq >= self.next_seq {
            self.next_seq = applied_seq + 1;
            self.last = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_strictly_increasing() {
        let mut c = KvClient::new(ClientId(1));
        let a = c.issue(KvCmd::put("a", "1"));
        let b = c.issue(KvCmd::put("b", "2"));
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_eq!(c.next_seq(), 3);
    }

    #[test]
    fn retry_is_byte_identical_and_does_not_advance() {
        let mut c = KvClient::new(ClientId(1));
        assert_eq!(c.retry_last(), None);
        let a = c.issue(KvCmd::put("a", "1"));
        assert_eq!(c.retry_last(), Some(a.clone()));
        assert_eq!(c.retry_last(), Some(a)); // idempotent
        assert_eq!(c.next_seq(), 2);
    }

    #[test]
    fn resync_fast_forwards_only() {
        let mut c = KvClient::new(ClientId(1));
        c.issue(KvCmd::put("a", "1"));
        // Replica says seq 5 already applied (stale client checkpoint).
        c.resync(5);
        assert_eq!(c.next_seq(), 6);
        assert_eq!(c.retry_last(), None, "stale retry must be dropped");
        // A lower report changes nothing.
        c.resync(2);
        assert_eq!(c.next_seq(), 6);
    }

    #[test]
    fn full_round_trip_with_state() {
        let mut c = KvClient::new(ClientId(9));
        let mut s = crate::KvState::new();
        for i in 0..5u32 {
            let cmd = c.issue(KvCmd::put(format!("k{i}"), "v"));
            s.apply(&cmd);
            // Aggressive double-submit of everything.
            s.apply(&c.retry_last().unwrap());
        }
        assert_eq!(s.applied_count(), 5);
        assert_eq!(s.duplicate_count(), 5);
        assert_eq!(s.session_seq(ClientId(9)), Some(5));
    }
}
