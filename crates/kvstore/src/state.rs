//! The deterministic state machine: a string map plus session table.

use std::collections::{BTreeMap, HashMap};

use lls_primitives::wire::{Wire, WireError, WireReader};

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};

/// The materialized store: key → value plus the per-client session table
/// that makes command application exactly-once.
///
/// Applying the same committed log prefix to two `KvState`s yields equal
/// states — the determinism that state-machine replication rests on.
///
/// # Example
///
/// ```
/// use kvstore::{ClientId, KvCmd, KvResponse, KvState, Tagged};
///
/// let mut s = KvState::new();
/// let tag = |seq, cmd| Tagged { client: ClientId(1), seq, cmd };
/// assert_eq!(
///     s.apply(&tag(1, KvCmd::put("k", "v"))),
///     KvResponse::Applied { previous: None }
/// );
/// // A retried command is a no-op.
/// assert_eq!(s.apply(&tag(1, KvCmd::put("k", "v"))), KvResponse::Duplicate);
/// assert_eq!(s.get("k"), Some("v"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvState {
    data: BTreeMap<String, String>,
    sessions: HashMap<ClientId, u64>,
    applied: u64,
    duplicates: u64,
}

impl KvState {
    /// An empty store.
    pub fn new() -> Self {
        KvState::default()
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.data.get(key).map(String::as_str)
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates over entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.data.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Commands applied (excluding duplicates).
    pub fn applied_count(&self) -> u64 {
        self.applied
    }

    /// Duplicates suppressed by the session table.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// The highest sequence number applied for `client`, if any.
    pub fn session_seq(&self, client: ClientId) -> Option<u64> {
        self.sessions.get(&client).copied()
    }

    /// Applies one tagged command with exactly-once semantics: tags at or
    /// below the client's session high-water mark are suppressed.
    pub fn apply(&mut self, tagged: &Tagged<KvCmd>) -> KvResponse {
        let high = self.sessions.get(&tagged.client).copied().unwrap_or(0);
        if tagged.seq <= high {
            self.duplicates += 1;
            return KvResponse::Duplicate;
        }
        self.sessions.insert(tagged.client, tagged.seq);
        self.applied += 1;
        match &tagged.cmd {
            KvCmd::Put { key, value } => {
                let previous = self.data.insert(key.clone(), value.clone());
                KvResponse::Applied { previous }
            }
            KvCmd::Delete { key } => {
                let previous = self.data.remove(key);
                KvResponse::Applied { previous }
            }
            KvCmd::Cas { key, expect, value } => {
                let actual = self.data.get(key).cloned();
                if actual.as_deref() == expect.as_deref() {
                    let previous = self.data.insert(key.clone(), value.clone());
                    KvResponse::Applied { previous }
                } else {
                    KvResponse::CasFailed { actual }
                }
            }
            // A log-read: the read replicated like a command (the slow
            // baseline the lease path is measured against) and resolves at
            // its slot's position in the apply order.
            KvCmd::Read { key } => KvResponse::Value {
                value: self.data.get(key).cloned(),
            },
        }
    }

    /// Serves a read directly from the materialized store, bypassing the
    /// session table — the fast-path entry point for lease reads and
    /// read-index reads, which never enter the log.
    pub fn read(&self, key: &str) -> KvResponse {
        KvResponse::Value {
            value: self.data.get(key).cloned(),
        }
    }
}

/// Canonical snapshot encoding: the session table is serialized in
/// `ClientId` order so two replicas at the same log prefix produce
/// byte-identical snapshots (the map itself iterates in hash order).
impl Wire for KvState {
    fn encode(&self, out: &mut Vec<u8>) {
        let entries: Vec<(String, String)> = self
            .data
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.encode(out);
        let mut sessions: Vec<(u64, u64)> = self.sessions.iter().map(|(c, s)| (c.0, *s)).collect();
        sessions.sort_unstable();
        sessions.encode(out);
        self.applied.encode(out);
        self.duplicates.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let entries = Vec::<(String, String)>::decode(r)?;
        let sessions = Vec::<(u64, u64)>::decode(r)?;
        Ok(KvState {
            data: entries.into_iter().collect(),
            sessions: sessions
                .into_iter()
                .map(|(c, s)| (ClientId(c), s))
                .collect(),
            applied: u64::decode(r)?,
            duplicates: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(client: u64, seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(client),
            seq,
            cmd,
        }
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut s = KvState::new();
        assert_eq!(
            s.apply(&tag(1, 1, KvCmd::put("a", "1"))),
            KvResponse::Applied { previous: None }
        );
        assert_eq!(
            s.apply(&tag(1, 2, KvCmd::put("a", "2"))),
            KvResponse::Applied {
                previous: Some("1".into())
            }
        );
        assert_eq!(s.get("a"), Some("2"));
        assert_eq!(
            s.apply(&tag(1, 3, KvCmd::delete("a"))),
            KvResponse::Applied {
                previous: Some("2".into())
            }
        );
        assert_eq!(s.get("a"), None);
        assert!(s.is_empty());
        assert_eq!(s.applied_count(), 3);
    }

    #[test]
    fn cas_checks_expectation() {
        let mut s = KvState::new();
        // CAS on an absent key with expect=None succeeds.
        assert_eq!(
            s.apply(&tag(1, 1, KvCmd::cas("k", None, "v1"))),
            KvResponse::Applied { previous: None }
        );
        // Wrong expectation fails and changes nothing.
        assert_eq!(
            s.apply(&tag(1, 2, KvCmd::cas("k", Some("zzz"), "v2"))),
            KvResponse::CasFailed {
                actual: Some("v1".into())
            }
        );
        assert_eq!(s.get("k"), Some("v1"));
        // Right expectation succeeds.
        assert_eq!(
            s.apply(&tag(1, 3, KvCmd::cas("k", Some("v1"), "v2"))),
            KvResponse::Applied {
                previous: Some("v1".into())
            }
        );
        assert_eq!(s.get("k"), Some("v2"));
    }

    #[test]
    fn duplicates_and_stale_seqs_are_suppressed() {
        let mut s = KvState::new();
        s.apply(&tag(1, 5, KvCmd::put("a", "x")));
        // Exact duplicate.
        assert_eq!(
            s.apply(&tag(1, 5, KvCmd::put("a", "y"))),
            KvResponse::Duplicate
        );
        // Older than the high-water mark.
        assert_eq!(
            s.apply(&tag(1, 3, KvCmd::put("a", "z"))),
            KvResponse::Duplicate
        );
        assert_eq!(s.get("a"), Some("x"));
        assert_eq!(s.duplicate_count(), 2);
        assert_eq!(s.session_seq(ClientId(1)), Some(5));
    }

    #[test]
    fn log_reads_resolve_in_apply_order_and_fast_reads_skip_sessions() {
        let mut s = KvState::new();
        s.apply(&tag(1, 1, KvCmd::put("a", "1")));
        // A replicated read sees the value and consumes a session slot.
        assert_eq!(
            s.apply(&tag(1, 2, KvCmd::read("a"))),
            KvResponse::Value {
                value: Some("1".into())
            }
        );
        assert_eq!(s.session_seq(ClientId(1)), Some(2));
        // A retried log-read deduplicates like any command.
        assert_eq!(s.apply(&tag(1, 2, KvCmd::read("a"))), KvResponse::Duplicate);
        // The fast path reads the store without touching sessions.
        assert_eq!(
            s.read("a"),
            KvResponse::Value {
                value: Some("1".into())
            }
        );
        assert_eq!(s.read("missing"), KvResponse::Value { value: None });
        assert_eq!(s.session_seq(ClientId(1)), Some(2));
    }

    #[test]
    fn sessions_are_independent_per_client() {
        let mut s = KvState::new();
        s.apply(&tag(1, 1, KvCmd::put("a", "1")));
        // A different client may reuse seq 1.
        assert_eq!(
            s.apply(&tag(2, 1, KvCmd::put("b", "2"))),
            KvResponse::Applied { previous: None }
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn snapshot_encoding_round_trips_and_is_deterministic() {
        let mut s = KvState::new();
        for client in 1..=8u64 {
            for seq in 1..=4u64 {
                s.apply(&tag(
                    client,
                    seq,
                    KvCmd::put(format!("k{client}"), format!("v{seq}")),
                ));
            }
        }
        s.apply(&tag(1, 2, KvCmd::put("k1", "stale"))); // one duplicate
        let bytes = s.to_bytes();
        let back = KvState::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(back, s);
        assert_eq!(back.duplicate_count(), 1);
        // Two states built from the same history encode identically even
        // though the session table is a hash map.
        let mut t = KvState::new();
        for client in 1..=8u64 {
            for seq in 1..=4u64 {
                t.apply(&tag(
                    client,
                    seq,
                    KvCmd::put(format!("k{client}"), format!("v{seq}")),
                ));
            }
        }
        t.apply(&tag(1, 2, KvCmd::put("k1", "stale")));
        assert_eq!(t.to_bytes(), bytes, "canonical encoding");
    }

    #[test]
    fn identical_command_streams_yield_identical_states() {
        let stream: Vec<Tagged<KvCmd>> = vec![
            tag(1, 1, KvCmd::put("a", "1")),
            tag(2, 1, KvCmd::put("b", "2")),
            tag(1, 2, KvCmd::cas("a", Some("1"), "3")),
            tag(2, 2, KvCmd::delete("b")),
        ];
        let mut s1 = KvState::new();
        let mut s2 = KvState::new();
        for c in &stream {
            s1.apply(c);
        }
        for c in &stream {
            s2.apply(c);
        }
        assert_eq!(s1, s2);
        let entries: Vec<_> = s1.iter().collect();
        assert_eq!(entries, vec![("a", "3")]);
    }
}
