//! The chosen entries a [`ReplicatedLog`](crate::ReplicatedLog) replica
//! holds, kept as their wire encodings where the log is contiguous.
//!
//! A replica learns slots mostly in order, emits the contiguous run at its
//! emission cursor, and keeps everything from the snapshot watermark on, so
//! its decided entries are most of the memory it holds. The emitted run
//! `[base, cursor)` therefore lives in one byte buffer: the entries'
//! [`Wire`] encodings back to back, plus one end offset per slot. No slot
//! owns a heap allocation.
//!
//! Each entry is encoded once, when the emission cursor reaches it
//! ([`ChosenLog::emit`] moves the owned entry on to the caller), and is
//! decoded again only when an old slot is read: catch-up, promises,
//! compaction and the public accessors. Slots known chosen at or above the
//! cursor — the few learned above a gap, and, inside a handler, those about
//! to be emitted — wait in a `BTreeMap` as entries.
//!
//! Callers see only [`Entry`] values; the buffer's format is private to
//! this module. Its bytes are the log's own encodings, or a recovered WAL
//! record's entry bytes that decoded to the entry passed alongside, so a
//! failed decode here is a bug.

use std::collections::BTreeMap;

use lls_primitives::wire::Wire;

use crate::msg::Entry;

/// Chosen entries from a base slot on: the emitted run as one byte buffer,
/// plus a sparse map of the slots known chosen at or above the cursor.
#[derive(Debug, Clone)]
pub(crate) struct ChosenLog<V> {
    /// First slot held (the snapshot watermark; 0 before any compaction).
    base: u64,
    /// Encodings of slots `[base, cursor())`, back to back.
    bytes: Vec<u8>,
    /// `ends[i]` is where the encoding of slot `base + i` ends in `bytes`
    /// (it starts where the previous one ends, or at 0).
    ends: Vec<usize>,
    /// Entries of chosen slots at or above the cursor, not yet encoded.
    above: BTreeMap<u64, Entry<V>>,
    /// One past the contiguous run: the first slot at or above `base` not
    /// known chosen. Slots `[cursor(), end)` are all in `above`.
    end: u64,
}

impl<V: Wire + Clone> ChosenLog<V> {
    pub(crate) fn new() -> Self {
        ChosenLog {
            base: 0,
            bytes: Vec::new(),
            ends: Vec::new(),
            above: BTreeMap::new(),
            end: 0,
        }
    }

    /// First slot held; everything below was compacted into a snapshot.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// The emission cursor: slots below it are encoded in the buffer.
    pub(crate) fn cursor(&self) -> u64 {
        self.base + self.ends.len() as u64
    }

    /// One past the contiguous run: the first slot at or above `base` not
    /// known chosen. Between handlers it is the cursor.
    #[cfg(test)]
    pub(crate) fn end(&self) -> u64 {
        self.end
    }

    /// The highest slot held, if any.
    pub(crate) fn last(&self) -> Option<u64> {
        let emitted_last = (!self.ends.is_empty()).then(|| self.cursor() - 1);
        self.above.keys().next_back().copied().or(emitted_last)
    }

    /// The entry of `slot`, decoded from the buffer below the cursor.
    pub(crate) fn get(&self, slot: u64) -> Option<Entry<V>> {
        if slot < self.base {
            None
        } else if slot < self.cursor() {
            Some(self.decode(slot))
        } else {
            self.above.get(&slot).cloned()
        }
    }

    pub(crate) fn contains(&self, slot: u64) -> bool {
        slot >= self.base && (slot < self.cursor() || self.above.contains_key(&slot))
    }

    /// Records `slot` as chosen with `entry`, unless the slot is already
    /// known (the first entry stays) or lies below `base`.
    pub(crate) fn insert(&mut self, slot: u64, entry: Entry<V>) {
        if slot < self.cursor() || self.above.contains_key(&slot) {
            return;
        }
        self.above.insert(slot, entry);
        self.extend_end();
    }

    /// Records `slot` as chosen and emitted, keeping `encoding` — the bytes
    /// `entry` decoded from — when the slot is the cursor and nothing waits
    /// to be emitted. Otherwise it is an [`insert`](Self::insert). This is
    /// recovery's path: a replayed `Chosen` record's entry bytes go into the
    /// buffer as they are, with no second encode.
    pub(crate) fn insert_encoded(&mut self, slot: u64, entry: Entry<V>, encoding: &[u8]) {
        if slot != self.cursor() || self.end != slot {
            self.insert(slot, entry);
            return;
        }
        self.bytes.extend_from_slice(encoding);
        self.ends.push(self.bytes.len());
        self.end += 1;
        self.extend_end();
    }

    /// Moves the slot at the cursor into the buffer and hands its entry to
    /// the caller, or returns `None` when the cursor is at the run's end.
    /// This is the one place an entry is encoded.
    pub(crate) fn emit(&mut self) -> Option<(u64, Entry<V>)> {
        let slot = self.cursor();
        if slot == self.end {
            return None;
        }
        let entry = self
            .above
            .remove(&slot)
            .expect("every slot below the run's end is held");
        entry.encode(&mut self.bytes);
        self.ends.push(self.bytes.len());
        Some((slot, entry))
    }

    /// Drops every slot below `base` in one pass over the buffer, decoding
    /// nothing. A base past the cursor empties the buffer and moves the run
    /// there, picking up any slots already known from it on.
    pub(crate) fn truncate_front(&mut self, base: u64) {
        if base <= self.base {
            return;
        }
        if base <= self.cursor() {
            // At most the number of encoded slots, a usize.
            let dropped = (base - self.base) as usize;
            let cut = dropped.checked_sub(1).map_or(0, |i| self.ends[i]);
            self.bytes.drain(..cut);
            self.ends.drain(..dropped);
            for end in &mut self.ends {
                *end -= cut;
            }
        } else {
            self.bytes.clear();
            self.ends.clear();
            self.above = self.above.split_off(&base);
        }
        self.base = base;
        self.end = self.end.max(base);
        self.extend_end();
    }

    /// Moves `end` past the slots already known above it.
    fn extend_end(&mut self) {
        while self.above.contains_key(&self.end) {
            self.end += 1;
        }
    }

    /// Decodes the buffered entry of `slot`, which lies in `[base, cursor)`.
    fn decode(&self, slot: u64) -> Entry<V> {
        // An offset into the buffer is below its slot count, a usize.
        let i = (slot - self.base) as usize;
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        Entry::from_bytes(&self.bytes[start..self.ends[i]])
            .expect("the buffer holds only whole encodings of chosen entries")
    }

    /// The run's entries of slots `[from, to)`, in slot order.
    pub(crate) fn run_range(
        &self,
        from: u64,
        to: u64,
    ) -> impl Iterator<Item = (u64, Entry<V>)> + '_ {
        let to = to.min(self.end);
        self.iter_from(from).take_while(move |(slot, _)| *slot < to)
    }

    /// Every entry held from `from` on, in slot order.
    pub(crate) fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, Entry<V>)> + '_ {
        let cursor = self.cursor();
        let encoded = from.clamp(self.base, cursor)..cursor;
        encoded.map(|slot| (slot, self.decode(slot))).chain(
            self.above
                .range(from.max(cursor)..)
                .map(|(slot, entry)| (*slot, entry.clone())),
        )
    }

    /// Number of slots held.
    pub(crate) fn len(&self) -> usize {
        self.ends.len() + self.above.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Log = ChosenLog<String>;
    type Model = BTreeMap<u64, Entry<String>>;

    /// An entry of every shape, with strings whose lengths vary by slot.
    fn entry(slot: u64, salt: u64) -> Entry<String> {
        match (slot + salt) % 4 {
            0 => Entry::Noop,
            1 => Entry::Batch(vec![format!("b{slot}"), "x".repeat(slot as usize % 7)]),
            _ => Entry::Cmd(format!("c{slot}-{}", "y".repeat(salt as usize % 5))),
        }
    }

    /// Checks the log against a model map of what it should hold, and the
    /// buffer against the encodings of the entries below the cursor.
    fn assert_matches(log: &Log, model: &Model) {
        let mut end = log.base;
        while model.contains_key(&end) {
            end += 1;
        }
        assert_eq!(log.end(), end, "the run ends at the first gap");
        assert!(log.cursor() <= end);
        assert!(
            log.above.keys().all(|s| *s >= log.cursor()),
            "the sparse map holds only slots at or above the cursor"
        );
        let encoded: Vec<u8> = model
            .range(log.base..log.cursor())
            .flat_map(|(_, e)| e.to_bytes())
            .collect();
        assert_eq!(
            log.bytes, encoded,
            "the buffer is exactly the run's encodings"
        );
        let held: Model = log.iter_from(0).collect();
        assert_eq!(&held, model);
        assert_eq!(log.len(), model.len());
        assert_eq!(log.last(), model.keys().next_back().copied());
        for slot in log.base.saturating_sub(2)..end + 3 {
            assert_eq!(log.get(slot), model.get(&slot).cloned(), "slot {slot}");
            assert_eq!(log.contains(slot), model.contains_key(&slot), "slot {slot}");
            let from: Vec<u64> = log.iter_from(slot).map(|(s, _)| s).collect();
            let want: Vec<u64> = model.range(slot..).map(|(s, _)| *s).collect();
            assert_eq!(from, want, "iter_from({slot})");
            for to in slot..end + 2 {
                let run: Model = log.run_range(slot, to).collect();
                let want: Model = model
                    .range(slot..to.clamp(slot, end.max(slot)))
                    .map(|(s, e)| (*s, e.clone()))
                    .collect();
                assert_eq!(run, want, "run_range({slot}, {to})");
            }
        }
    }

    /// Emits everything up to the run's end, checking it is the model's run.
    fn emit_all(log: &mut Log, model: &Model) {
        let from = log.cursor();
        let emitted: Model = std::iter::from_fn(|| log.emit()).collect();
        let want: Model = model
            .range(from..log.end())
            .map(|(s, e)| (*s, e.clone()))
            .collect();
        assert_eq!(emitted, want);
        assert_eq!(log.cursor(), log.end());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        /// Random learning orders (with repeats and slots below the base),
        /// emissions and `truncate_front` points, checked after every step
        /// against a `BTreeMap` model.
        #[test]
        fn the_log_matches_a_map_under_random_learning_and_truncation(
            steps in proptest::collection::vec((0u64..6, 0u64..32, 0u64..5), 1..80),
        ) {
            let mut log = Log::new();
            let mut model = Model::new();
            for (op, slot, salt) in steps {
                match op {
                    0 => {
                        log.truncate_front(slot);
                        model = model.split_off(&log.base());
                    }
                    1 => emit_all(&mut log, &model),
                    _ => {
                        log.insert(slot, entry(slot, salt));
                        if slot >= log.base() {
                            model.entry(slot).or_insert_with(|| entry(slot, salt));
                        }
                    }
                }
                assert_matches(&log, &model);
            }
            emit_all(&mut log, &model);
            assert_matches(&log, &model);
        }
    }

    #[test]
    fn the_run_covers_exactly_the_contiguous_prefix_under_any_learning_order() {
        let order = [5u64, 0, 3, 1, 9, 2, 4, 7, 6, 8, 12];
        let mut log = Log::new();
        let mut model = Model::new();
        for slot in order {
            log.insert(slot, entry(slot, 0));
            model.insert(slot, entry(slot, 0));
            assert_matches(&log, &model);
            log.insert(slot, entry(99, 1));
            assert_matches(&log, &model);
            emit_all(&mut log, &model);
            assert_matches(&log, &model);
        }
        assert_eq!(log.end(), 10);
        assert_eq!(
            log.run_range(3, 6).map(|(s, _)| s).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn truncating_inside_the_run_keeps_the_rest_in_place() {
        let mut log = Log::new();
        let mut model = Model::new();
        for slot in [0u64, 1, 2, 3, 4, 7] {
            log.insert(slot, entry(slot, 3));
            model.insert(slot, entry(slot, 3));
        }
        emit_all(&mut log, &model);
        log.truncate_front(3);
        model = model.split_off(&3);
        assert_eq!(log.base(), 3);
        assert_matches(&log, &model);
        log.insert(1, entry(1, 0));
        assert_matches(&log, &model);
        log.truncate_front(2);
        assert_eq!(log.base(), 3, "the base never moves back");
        assert_matches(&log, &model);
        log.truncate_front(4);
        model = model.split_off(&4);
        assert_matches(&log, &model);
        log.insert(5, entry(5, 1));
        model.insert(5, entry(5, 1));
        emit_all(&mut log, &model);
        assert_matches(&log, &model);
    }

    #[test]
    fn truncating_past_the_run_moves_it_up_and_picks_up_known_slots() {
        let mut log = Log::new();
        let mut model = Model::new();
        for slot in [0u64, 1, 6, 8, 9, 12] {
            log.insert(slot, entry(slot, 2));
            model.insert(slot, entry(slot, 2));
        }
        emit_all(&mut log, &model);
        log.truncate_front(8);
        model = model.split_off(&8);
        assert_eq!((log.base(), log.cursor(), log.end()), (8, 8, 10));
        assert_matches(&log, &model);
        emit_all(&mut log, &model);
        log.truncate_front(11);
        model = model.split_off(&11);
        assert_eq!((log.base(), log.end()), (11, 11));
        assert_matches(&log, &model);
        log.insert(11, entry(11, 0));
        model.insert(11, entry(11, 0));
        assert_eq!(log.end(), 13);
        emit_all(&mut log, &model);
        assert_matches(&log, &model);
    }

    #[test]
    fn recovered_encodings_enter_the_buffer_as_they_are() {
        let mut log = Log::new();
        let mut model = Model::new();
        for slot in [0u64, 1, 3, 2, 4, 6] {
            let e = entry(slot, 1);
            log.insert_encoded(slot, e.clone(), &e.to_bytes());
            model.insert(slot, e);
            assert_matches(&log, &model);
        }
        assert_eq!((log.cursor(), log.end()), (3, 5), "slots 3 and 4 wait");
        emit_all(&mut log, &model);
        assert_matches(&log, &model);
    }

    #[test]
    fn a_slot_near_the_top_of_the_range_stays_sparse() {
        let mut log = Log::new();
        log.insert(0, entry(0, 1));
        log.insert(u64::MAX - 1, entry(1, 0));
        log.insert(u64::MAX, entry(2, 0));
        assert_eq!(log.emit().map(|(s, _)| s), Some(0));
        assert_eq!(log.emit(), None);
        assert_eq!(log.end(), 1);
        assert!(
            log.ends.capacity() < 64,
            "the buffer grows with the contiguous prefix only: {}",
            log.ends.capacity()
        );
        assert_eq!(log.last(), Some(u64::MAX));
        assert_eq!(log.get(u64::MAX - 1), Some(entry(1, 0)));
        assert_eq!(log.iter_from(u64::MAX).count(), 1);
        log.truncate_front(u64::MAX - 2);
        assert_eq!(
            (log.base(), log.end(), log.len()),
            (u64::MAX - 2, u64::MAX - 2, 2)
        );
        assert!(log.bytes.is_empty() && log.ends.capacity() < 64);
        assert_eq!(log.get(u64::MAX), Some(entry(2, 0)));
    }
}
