//! The chosen entries a [`ReplicatedLog`](crate::ReplicatedLog) replica
//! holds, stored densely where the log is contiguous.
//!
//! A replica learns slots mostly in order, applies the contiguous run at its
//! emission cursor, and keeps everything from the snapshot watermark on. So
//! the run `[base, end)` — from the watermark to the first slot not known
//! chosen — lives in a `VecDeque`, one `Entry` per slot, and only the few
//! slots learned above a gap sit in a `BTreeMap` until the gap fills.

use std::collections::{BTreeMap, VecDeque};

use crate::msg::Entry;

/// Chosen entries from a base slot on: a dense contiguous run plus a sparse
/// map of the slots known chosen above its first gap.
#[derive(Debug, Clone)]
pub(crate) struct ChosenLog<V> {
    /// First slot held (the snapshot watermark; 0 before any compaction).
    base: u64,
    /// Entries of slots `[base, base + run.len())`, every one chosen.
    run: VecDeque<Entry<V>>,
    /// Entries of chosen slots above `end()`. Never holds `end()` itself:
    /// that slot would extend the run.
    above: BTreeMap<u64, Entry<V>>,
}

impl<V> ChosenLog<V> {
    pub(crate) fn new() -> Self {
        ChosenLog {
            base: 0,
            run: VecDeque::new(),
            above: BTreeMap::new(),
        }
    }

    /// First slot held; everything below was compacted into a snapshot.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// One past the contiguous run: the first slot at or above `base` not
    /// known chosen.
    pub(crate) fn end(&self) -> u64 {
        self.base + self.run.len() as u64
    }

    /// The highest slot held, if any.
    pub(crate) fn last(&self) -> Option<u64> {
        let run_last = (!self.run.is_empty()).then(|| self.end() - 1);
        self.above.keys().next_back().copied().or(run_last)
    }

    pub(crate) fn get(&self, slot: u64) -> Option<&Entry<V>> {
        if slot < self.base {
            None
        } else if slot < self.end() {
            // An offset into the run is below its length, a usize.
            self.run.get((slot - self.base) as usize)
        } else {
            self.above.get(&slot)
        }
    }

    pub(crate) fn contains(&self, slot: u64) -> bool {
        self.get(slot).is_some()
    }

    /// Records `slot` as chosen with `entry`, unless the slot is already
    /// known (the first entry stays) or lies below `base`.
    pub(crate) fn insert(&mut self, slot: u64, entry: Entry<V>) {
        if slot < self.end() || self.above.contains_key(&slot) {
            return;
        }
        if slot == self.end() {
            self.run.push_back(entry);
            self.absorb_above();
        } else {
            self.above.insert(slot, entry);
        }
    }

    /// Drops every slot below `base`. A base past the run's end also moves
    /// the run there, picking up any slots already known from it on.
    pub(crate) fn truncate_front(&mut self, base: u64) {
        if base <= self.base {
            return;
        }
        if base <= self.end() {
            // At most the run's length, a usize.
            self.run.drain(..(base - self.base) as usize);
        } else {
            self.run.clear();
            self.above = self.above.split_off(&base);
        }
        self.base = base;
        self.absorb_above();
    }

    /// Moves the slots at the run's end out of the sparse map.
    fn absorb_above(&mut self) {
        while let Some(entry) = self.above.remove(&self.end()) {
            self.run.push_back(entry);
        }
    }

    /// The run's entries of slots `[from, to)`, in slot order.
    pub(crate) fn run_range(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, &Entry<V>)> {
        let from = from.clamp(self.base, self.end());
        let to = to.clamp(from, self.end());
        // Both offsets lie within the run, whose length is a usize.
        let offsets = (from - self.base) as usize..(to - self.base) as usize;
        self.run
            .range(offsets)
            .zip(from..)
            .map(|(entry, slot)| (slot, entry))
    }

    /// Every entry held from `from` on, in slot order.
    pub(crate) fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, &Entry<V>)> {
        self.run_range(from, u64::MAX)
            .chain(self.above.range(from..).map(|(slot, entry)| (*slot, entry)))
    }

    /// Number of slots held.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.above.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(slot: u64) -> Entry<u64> {
        Entry::Cmd(slot)
    }

    /// Checks the log against a model map of what it should hold.
    fn assert_matches(log: &ChosenLog<u64>, model: &BTreeMap<u64, Entry<u64>>) {
        let mut end = log.base;
        while model.contains_key(&end) {
            end += 1;
        }
        assert_eq!(log.end(), end, "the run ends at the first gap");
        assert!(
            log.above.keys().all(|s| *s > log.end()),
            "the sparse map holds only slots above the gap: {:?}",
            log.above.keys().collect::<Vec<_>>()
        );
        let held: BTreeMap<u64, Entry<u64>> =
            log.iter_from(0).map(|(s, e)| (s, e.clone())).collect();
        assert_eq!(&held, model);
        assert_eq!(log.len(), model.len());
        assert_eq!(log.last(), model.keys().next_back().copied());
        for slot in log.base.saturating_sub(2)..end + 3 {
            assert_eq!(log.get(slot), model.get(&slot), "slot {slot}");
        }
    }

    #[test]
    fn the_run_covers_exactly_the_contiguous_prefix_under_any_learning_order() {
        let order = [5u64, 0, 3, 1, 9, 2, 4, 7, 6, 8, 12];
        let mut log = ChosenLog::new();
        let mut model = BTreeMap::new();
        for slot in order {
            log.insert(slot, cmd(slot));
            model.insert(slot, cmd(slot));
            assert_matches(&log, &model);
            log.insert(slot, cmd(99));
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
        let mut log = ChosenLog::new();
        let mut model = BTreeMap::new();
        for slot in [0u64, 1, 2, 3, 4, 7] {
            log.insert(slot, cmd(slot));
            model.insert(slot, cmd(slot));
        }
        log.truncate_front(3);
        model = model.split_off(&3);
        assert_eq!(log.base(), 3);
        assert_matches(&log, &model);
        log.insert(1, cmd(1));
        assert_matches(&log, &model);
        log.truncate_front(2);
        assert_eq!(log.base(), 3, "the base never moves back");
        assert_matches(&log, &model);
    }

    #[test]
    fn truncating_past_the_run_moves_it_up_and_picks_up_known_slots() {
        let mut log = ChosenLog::new();
        let mut model = BTreeMap::new();
        for slot in [0u64, 1, 6, 8, 9, 12] {
            log.insert(slot, cmd(slot));
            model.insert(slot, cmd(slot));
        }
        log.truncate_front(8);
        model = model.split_off(&8);
        assert_eq!((log.base(), log.end()), (8, 10));
        assert_matches(&log, &model);
        log.truncate_front(11);
        model = model.split_off(&11);
        assert_eq!((log.base(), log.end()), (11, 11));
        assert_matches(&log, &model);
        log.insert(11, cmd(11));
        model.insert(11, cmd(11));
        assert_eq!(log.end(), 13);
        assert_matches(&log, &model);
    }

    #[test]
    fn a_slot_near_the_top_of_the_range_stays_sparse() {
        let mut log = ChosenLog::new();
        log.insert(0, cmd(0));
        log.insert(u64::MAX - 1, cmd(1));
        log.insert(u64::MAX, cmd(2));
        assert_eq!(log.end(), 1);
        assert!(
            log.run.capacity() < 64,
            "the run grows with the contiguous prefix only: {}",
            log.run.capacity()
        );
        assert_eq!(log.last(), Some(u64::MAX));
        assert_eq!(log.get(u64::MAX - 1), Some(&cmd(1)));
        assert_eq!(log.iter_from(u64::MAX).count(), 1);
        log.truncate_front(u64::MAX - 2);
        assert_eq!(
            (log.base(), log.end(), log.len()),
            (u64::MAX - 2, u64::MAX - 2, 2)
        );
        assert!(log.run.capacity() < 64);
        assert_eq!(log.get(u64::MAX), Some(&cmd(2)));
    }
}
