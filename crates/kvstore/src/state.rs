//! The deterministic state machine: a string map plus session table.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use lls_primitives::wire::{put_varint, Wire, WireError, WireReader};

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};

/// The most bytes a [`CompactStr`] holds in place.
const INLINE_CAP: usize = 22;

/// A key or value as [`KvState`] holds it, 24 bytes either way: a string of
/// up to [`INLINE_CAP`] bytes in place, a longer one as one `Box<str>`.
///
/// It is built only from a `str` or from bytes checked as UTF-8 once, on
/// decoding. It compares and orders by its bytes, which is `str`'s order,
/// so the map looks a key up as `[u8]` and no comparison re-checks UTF-8.
#[derive(Clone)]
enum CompactStr {
    /// The string is `bytes[..len]`.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

impl CompactStr {
    fn new(s: &str) -> Self {
        if s.len() <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            CompactStr::Inline {
                len: s.len() as u8,
                bytes,
            }
        } else {
            CompactStr::Heap(s.into())
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            CompactStr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            CompactStr::Heap(s) => s.as_bytes(),
        }
    }

    /// The string. Without `unsafe`, an inline string's (at most 22) bytes
    /// are checked again here; the check cannot fail, since only a `str`
    /// built them.
    fn as_str(&self) -> &str {
        match self {
            CompactStr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("built from a str")
            }
            CompactStr::Heap(s) => s,
        }
    }

    /// The string, owned: a heap string moves out without a copy.
    fn into_string(self) -> String {
        match self {
            CompactStr::Heap(s) => s.into_string(),
            inline => inline.as_str().to_owned(),
        }
    }
}

impl PartialEq for CompactStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for CompactStr {}

impl PartialOrd for CompactStr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompactStr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Borrow<[u8]> for CompactStr {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for CompactStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The same bytes as a `String`'s encoding.
impl Wire for CompactStr {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.as_bytes().len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str().map(CompactStr::new)
    }
}

/// The materialized store: key → value plus the per-client session table
/// that makes command application exactly-once.
///
/// Applying the same committed log prefix to two `KvState`s yields equal
/// states — the determinism that state-machine replication rests on.
///
/// The map holds each key and value as a 24-byte string that keeps up to
/// 22 bytes in place and a longer string as one heap allocation, so an
/// entry with a short key and value costs its map slot and nothing on the
/// heap. The API takes and returns `&str` and `String` all the same.
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
    data: BTreeMap<CompactStr, CompactStr>,
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
        self.data.get(key.as_bytes()).map(CompactStr::as_str)
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

    /// The value at `key`, owned.
    fn value(&self, key: &str) -> Option<String> {
        self.get(key).map(str::to_owned)
    }

    /// Stores `value` at `key` and returns the value it replaced.
    fn insert(&mut self, key: &str, value: &str) -> Option<String> {
        self.data
            .insert(CompactStr::new(key), CompactStr::new(value))
            .map(CompactStr::into_string)
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
            KvCmd::Put { key, value } => KvResponse::Applied {
                previous: self.insert(key, value),
            },
            KvCmd::Delete { key } => KvResponse::Applied {
                previous: self
                    .data
                    .remove(key.as_bytes())
                    .map(CompactStr::into_string),
            },
            KvCmd::Cas { key, expect, value } => {
                if self.get(key) == expect.as_deref() {
                    KvResponse::Applied {
                        previous: self.insert(key, value),
                    }
                } else {
                    KvResponse::CasFailed {
                        actual: self.value(key),
                    }
                }
            }
            // A log-read: the read replicated like a command (the slow
            // baseline the lease path is measured against) and resolves at
            // its slot's position in the apply order.
            KvCmd::Read { key } => KvResponse::Value {
                value: self.value(key),
            },
        }
    }

    /// Serves a read directly from the materialized store, bypassing the
    /// session table — the fast-path entry point for lease reads and
    /// read-index reads, which never enter the log.
    pub fn read(&self, key: &str) -> KvResponse {
        KvResponse::Value {
            value: self.value(key),
        }
    }
}

/// Canonical snapshot encoding: the entries as a `Vec<(String, String)>` in
/// key order, written and read straight from and into the map, then the
/// session table in `ClientId` order, so two replicas at the same log
/// prefix produce byte-identical snapshots (the session table itself
/// iterates in hash order).
impl Wire for KvState {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.data.len() as u64);
        for (key, value) in &self.data {
            key.encode(out);
            value.encode(out);
        }
        let mut sessions: Vec<(u64, u64)> = self.sessions.iter().map(|(c, s)| (c.0, *s)).collect();
        sessions.sort_unstable();
        sessions.encode(out);
        self.applied.encode(out);
        self.duplicates.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Collected, not inserted one by one: `FromIterator` sorts and then
        // builds the tree bottom-up with full leaves, where inserting in key
        // order splits each leaf half full. A key repeated in a malformed
        // snapshot keeps its last value either way.
        let data = (0..r.len_prefix()?)
            .map(|_| Ok((CompactStr::decode(r)?, CompactStr::decode(r)?)))
            .collect::<Result<BTreeMap<_, _>, WireError>>()?;
        let sessions = Vec::<(u64, u64)>::decode(r)?;
        Ok(KvState {
            data,
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn tag(client: u64, seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(client),
            seq,
            cmd,
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Keys of 0, 1, 22, 23 (a 2-byte character across byte 22) and 64
    /// bytes; values inline and on the heap, ASCII, Latin, Cyrillic and
    /// CJK; a replaced, a CAS-updated and a deleted key; three sessions
    /// and one duplicate.
    fn golden_state() -> KvState {
        let cmds = [
            (1, 1, KvCmd::put("", "empty key")),
            (1, 2, KvCmd::put("k", "v")),
            (2, 1, KvCmd::put("k".repeat(22), "é".repeat(11))),
            (
                2,
                2,
                KvCmd::put(format!("{}é", "x".repeat(21)), "中".repeat(8)),
            ),
            (3, 1, KvCmd::put("k".repeat(64), "v".repeat(64))),
            (3, 2, KvCmd::put("ключ", "значение")),
            (3, 3, KvCmd::put("gone", "soon")),
            (1, 3, KvCmd::cas("k", Some("v"), "w")),
            (3, 4, KvCmd::delete("gone")),
            (2, 1, KvCmd::put("k", "duplicate")),
        ];
        let mut s = KvState::new();
        for (client, seq, cmd) in cmds {
            s.apply(&tag(client, seq, cmd));
        }
        s
    }

    /// `golden_state()` as the store encoded it when it held
    /// `BTreeMap<String, String>`: snapshots written then must load now,
    /// and the same state must encode to the same bytes.
    const GOLDEN: &str = concat!(
        "060009656d707479206b6579016b0177166b6b6b6b6b6b6b6b6b6b6b6b6b6b6b",
        "6b6b6b6b6b6b6b16c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9c3a9406b",
        "6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b",
        "6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b6b40",
        "7676767676767676767676767676767676767676767676767676767676767676",
        "7676767676767676767676767676767676767676767676767676767676767676",
        "17787878787878787878787878787878787878787878c3a918e4b8ade4b8ade4",
        "b8ade4b8ade4b8ade4b8ade4b8ade4b8ad08d0bad0bbd18ed18710d0b7d0bdd0",
        "b0d187d0b5d0bdd0b8d0b5030103020203040901",
    );

    #[test]
    fn snapshot_bytes_match_the_golden_encoding() {
        let state = golden_state();
        let bytes = state.to_bytes();
        assert_eq!(hex(&bytes), GOLDEN);
        let loaded = KvState::from_bytes(&bytes).expect("golden snapshot decodes");
        assert_eq!(loaded, state);
    }

    #[test]
    fn compact_str_is_24_bytes_and_inline_up_to_22() {
        assert_eq!(std::mem::size_of::<CompactStr>(), 24);
        let inline = |s: &str| matches!(CompactStr::new(s), CompactStr::Inline { .. });
        // A 2- or 3-byte character that ends at byte 22 stays inline; one
        // that straddles byte 22 moves the string to the heap.
        let cases = [
            (String::new(), true),
            ("a".repeat(22), true),
            ("a".repeat(23), false),
            (format!("{}é", "a".repeat(20)), true),
            (format!("{}é", "a".repeat(21)), false),
            (format!("{}€", "a".repeat(19)), true),
            (format!("{}€", "a".repeat(20)), false),
            ("€".repeat(8), false),
        ];
        for (s, fits) in cases {
            let c = CompactStr::new(&s);
            assert_eq!(inline(&s), fits, "{} bytes", s.len());
            assert_eq!(c.as_str(), s);
            assert_eq!(CompactStr::from_bytes(&c.to_bytes()), Ok(c.clone()));
            assert_eq!(c.into_string(), s);
        }
    }

    /// Strings of 0–40 bytes: ASCII, or a mix of 1- to 4-byte characters.
    fn text() -> impl Strategy<Value = String> {
        const CHARS: [char; 10] = ['a', 'k', 'z', '0', '~', 'é', 'ß', '€', '中', '😀'];
        prop_oneof![
            vec(0u8..128, 0..=40).prop_map(|b| String::from_utf8(b).expect("ASCII")),
            vec(0..CHARS.len(), 0..=40).prop_map(|ix| {
                let mut s = String::new();
                for c in ix.into_iter().map(|i| CHARS[i]) {
                    if s.len() + c.len_utf8() > 40 {
                        break;
                    }
                    s.push(c);
                }
                s
            }),
        ]
    }

    /// A put, delete or CAS of one of a few keys across the inline limit.
    enum Op {
        Put(usize, String),
        Delete(usize),
        /// With `None` the CAS expects the key's current value.
        Cas(usize, Option<Option<String>>, String),
    }

    const KEYS: usize = 6;

    fn key(i: usize) -> String {
        match i {
            0 => String::new(),
            1 => "k".into(),
            2 => "ключ".into(),
            3 => "k".repeat(22),
            4 => format!("{}é", "k".repeat(21)),
            _ => "k".repeat(40),
        }
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..KEYS, text()).prop_map(|(k, v)| Op::Put(k, v)),
            (0..KEYS).prop_map(Op::Delete),
            (
                0..KEYS,
                proptest::option::of(proptest::option::of(text())),
                text()
            )
                .prop_map(|(k, e, v)| Op::Cas(k, e, v)),
        ]
    }

    proptest! {
        #[test]
        fn compact_str_compares_and_round_trips_like_string(
            a in text(),
            b in text(),
            cut in 0..=40usize,
        ) {
            let mut cut = cut.min(a.len());
            while !a.is_char_boundary(cut) {
                cut -= 1;
            }
            let x = CompactStr::new(&a);
            prop_assert_eq!(x.as_str(), a.as_str());
            prop_assert_eq!(x.to_bytes(), a.to_bytes());
            prop_assert_eq!(CompactStr::from_bytes(&a.to_bytes()), Ok(x.clone()));
            for other in [b.as_str(), &a[..cut], a.as_str()] {
                let y = CompactStr::new(other);
                prop_assert_eq!(x == y, a.as_str() == other);
                prop_assert_eq!(x.cmp(&y), a.as_str().cmp(other));
            }
            prop_assert_eq!(x.into_string(), a);
        }

        #[test]
        fn store_matches_a_string_map_model(ops in vec(op(), 0..60)) {
            let mut state = KvState::new();
            let mut model: BTreeMap<String, String> = BTreeMap::new();
            for (seq, op) in (1..).zip(ops) {
                let (cmd, expected) = match op {
                    Op::Put(k, v) => {
                        let previous = model.insert(key(k), v.clone());
                        (KvCmd::put(key(k), v), KvResponse::Applied { previous })
                    }
                    Op::Delete(k) => {
                        let previous = model.remove(&key(k));
                        (KvCmd::delete(key(k)), KvResponse::Applied { previous })
                    }
                    Op::Cas(k, expect, v) => {
                        let actual = model.get(&key(k)).cloned();
                        let expect = expect.unwrap_or_else(|| actual.clone());
                        let cmd = KvCmd::cas(key(k), expect.as_deref(), v.clone());
                        if expect == actual {
                            (cmd, KvResponse::Applied { previous: model.insert(key(k), v) })
                        } else {
                            (cmd, KvResponse::CasFailed { actual })
                        }
                    }
                };
                prop_assert_eq!(state.apply(&tag(1, seq, cmd)), expected);
            }
            let entries: Vec<(String, String)> = model.into_iter().collect();
            let listed: Vec<(&str, &str)> = state.iter().collect();
            let modelled: Vec<(&str, &str)> =
                entries.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            prop_assert_eq!(listed, modelled);
            let mut encoded = entries.to_bytes();
            let applied = state.applied_count();
            let sessions: Vec<(u64, u64)> =
                if applied == 0 { vec![] } else { vec![(1, applied)] };
            sessions.encode(&mut encoded);
            applied.encode(&mut encoded);
            0u64.encode(&mut encoded);
            prop_assert_eq!(state.to_bytes(), encoded);
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
    fn a_key_repeated_in_a_snapshot_keeps_its_last_value() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 3);
        for (key, value) in [("k", "first"), ("a", "1"), ("k", "last")] {
            CompactStr::new(key).encode(&mut bytes);
            CompactStr::new(value).encode(&mut bytes);
        }
        Vec::<(u64, u64)>::new().encode(&mut bytes);
        0u64.encode(&mut bytes);
        0u64.encode(&mut bytes);
        let state = KvState::from_bytes(&bytes).expect("snapshot decodes");
        assert_eq!(state.len(), 2);
        assert_eq!(state.get("k"), Some("last"));
        assert_eq!(state.get("a"), Some("1"));
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
