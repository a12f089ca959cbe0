//! The correctness verdict of a run, computed from what the generator saw
//! and what every replica incarnation applied:
//!
//! * replicas agree on every log slot and on the final store;
//! * no acknowledged put is lost, failover restarts included;
//! * no read returns a value older than the newest put acknowledged before
//!   the read was due.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use kvstore::{ClientId, KvCmd, KvState, Tagged};

use crate::load::{Kind, Op};
use crate::node::{LogEntry, Reply};

/// `(client, seq)` of a command.
type Tag = (u64, u64);
/// `(shard, slot)` of a log position.
type Pos = (u32, u64);

/// What one replica incarnation applied, and its final store if it was
/// alive at the end.
#[derive(Debug, Clone, Default)]
pub struct Replica {
    pub name: String,
    pub applied: Vec<LogEntry>,
    pub store: Option<Vec<(String, String)>>,
}

#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: Vec<String>,
    /// Puts in the agreed log, duplicates included.
    pub committed_puts: u64,
    /// Slots those puts occupied.
    pub slots: u64,
    /// Wall time to replay the agreed log into a fresh `KvState`, per put.
    pub apply_ns_per_cmd: f64,
    /// `KvState::duplicate_count` after the replay.
    pub duplicates: u64,
}

impl Verdict {
    fn flag(&mut self, what: String) {
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }
}

/// Checks one run. `ops` holds every operation, warm-up included.
pub fn check(ops: &[Op], replicas: &[Replica]) -> Verdict {
    let mut v = Verdict::default();
    let by_seq: HashMap<u64, usize> = ops.iter().enumerate().map(|(i, o)| (o.tag.1, i)).collect();
    let is_put = |seq: u64| {
        by_seq
            .get(&seq)
            .is_some_and(|&i| matches!(ops[i].kind, Kind::Put { .. }))
    };

    // 1. Every incarnation that applied a slot applied the same puts there.
    let mut log: BTreeMap<Pos, (Vec<Tag>, &str)> = BTreeMap::new();
    for r in replicas {
        let mut mine: BTreeMap<Pos, Vec<Tag>> = BTreeMap::new();
        for e in r.applied.iter().filter(|e| is_put(e.seq)) {
            mine.entry((e.shard, e.slot))
                .or_default()
                .push((e.client, e.seq));
        }
        for (slot, cmds) in mine {
            match log.get(&slot) {
                None => {
                    log.insert(slot, (cmds, &r.name));
                }
                Some((theirs, who)) if *theirs != cmds => v.flag(format!(
                    "disagreement at shard {} slot {}: {} applied {theirs:?}, {} applied {cmds:?}",
                    slot.0, slot.1, who, r.name
                )),
                Some(_) => {}
            }
        }
    }

    // 2. Replay the agreed log into fresh stores, one per shard (each shard
    //    keeps its own per-client sequence table), in slot order.
    let mut position: HashMap<u64, Pos> = HashMap::new();
    let cmds: Vec<(u32, Tagged<KvCmd>)> = log
        .iter()
        .flat_map(|(slot, (cmds, _))| cmds.iter().map(move |c| (*slot, *c)))
        .filter_map(|(slot, (client, seq))| {
            position.entry(seq).or_insert(slot);
            match &ops[by_seq[&seq]].kind {
                Kind::Put { key, value } => Some((
                    slot.0,
                    Tagged {
                        client: ClientId(client),
                        seq,
                        cmd: KvCmd::put(key.clone(), value.clone()),
                    },
                )),
                Kind::Read { .. } => None,
            }
        })
        .collect();
    let mut states: BTreeMap<u32, KvState> = BTreeMap::new();
    for (shard, _) in &cmds {
        states.entry(*shard).or_default();
    }
    let start = Instant::now();
    for (shard, cmd) in &cmds {
        let state = states.get_mut(shard).expect("one store per shard");
        std::hint::black_box(state.apply(cmd));
    }
    v.apply_ns_per_cmd = start.elapsed().as_nanos() as f64 / cmds.len().max(1) as f64;
    v.committed_puts = cmds.len() as u64;
    v.slots = log.len() as u64;
    v.duplicates = states.values().map(KvState::duplicate_count).sum();
    let mut expected: Vec<(String, String)> = states
        .values()
        .flat_map(|s| s.iter().map(|(k, v)| (k.to_owned(), v.to_owned())))
        .collect();
    expected.sort();
    for r in replicas {
        if let Some(store) = &r.store {
            if *store != expected {
                let diff = store.iter().zip(&expected).find(|(a, b)| a != b);
                v.flag(format!(
                    "{}'s final store differs from the agreed log ({} vs {} keys; first difference {diff:?})",
                    r.name,
                    store.len(),
                    expected.len()
                ));
            }
        }
    }

    // 3. No acknowledged put is missing from the agreed log.
    for op in ops.iter().filter(|o| o.latency().is_some()) {
        if matches!(op.kind, Kind::Put { .. }) && !position.contains_key(&op.tag.1) {
            v.flag(format!(
                "acknowledged put {:?} ({}) is in no replica's log",
                op.tag,
                op.kind.key()
            ));
        }
    }

    // 4. Reads are not stale: per key, the newest (by log position) put
    //    acknowledged before the read was due bounds what it may return.
    let mut acked: HashMap<&str, Vec<(f64, Pos)>> = HashMap::new();
    let mut written: HashMap<&str, Pos> = HashMap::new();
    for op in ops {
        if let Kind::Put { key, value } = &op.kind {
            if let Some(pos) = position.get(&op.tag.1) {
                written.insert(value, *pos);
                if let Some(d) = op.done.as_ref().filter(|d| !d.failed) {
                    acked.entry(key).or_default().push((d.at, *pos));
                }
            }
        }
    }
    for list in acked.values_mut() {
        list.sort_by(|a, b| a.0.total_cmp(&b.0));
        for i in 1..list.len() {
            list[i].1 = list[i].1.max(list[i - 1].1);
        }
    }
    for op in ops {
        let (Kind::Read { key }, Some(d)) = (&op.kind, &op.done) else {
            continue;
        };
        let Reply::Value(got) = &d.reply else {
            continue;
        };
        let floor = acked.get(key.as_str()).and_then(|list| {
            let n = list.partition_point(|(at, _)| *at < op.due);
            n.checked_sub(1).map(|i| list[i].1)
        });
        let seen = got.as_ref().map(|val| written.get(val.as_str()));
        match (floor, seen) {
            (_, Some(None)) => v.flag(format!("read of {key} returned a value never committed: {got:?}")),
            (Some(floor), None) => v.flag(format!(
                "stale read of {key} due at {:.0}: nothing, but a put at {floor:?} was acknowledged before",
                op.due
            )),
            (Some(floor), Some(Some(pos))) if *pos < floor => v.flag(format!(
                "stale read of {key} due at {:.0}: value from {pos:?}, but a put at {floor:?} was acknowledged before",
                op.due
            )),
            _ => {}
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::Done;
    use crate::node::Path;
    use lls_primitives::ProcessId;

    fn op(seq: u64, kind: Kind, due: f64, done: Option<(f64, Reply)>) -> Op {
        Op {
            kind,
            phase: 1,
            due,
            first_sent: due,
            last_sent: due,
            tag: (1, seq),
            target: ProcessId(0),
            attempts: 1,
            stale: false,
            done: done.map(|(at, reply)| Done {
                at,
                slot: 0,
                reply,
                path: Path::Log,
                failed: false,
            }),
        }
    }

    fn put(seq: u64, key: &str, value: &str, acked_at: f64) -> Op {
        let kind = Kind::Put {
            key: key.into(),
            value: value.into(),
        };
        op(seq, kind, acked_at - 1.0, Some((acked_at, Reply::Written)))
    }

    fn read(seq: u64, key: &str, due: f64, got: Option<&str>) -> Op {
        let kind = Kind::Read { key: key.into() };
        let reply = Reply::Value(got.map(str::to_owned));
        op(seq, kind, due, Some((due + 1.0, reply)))
    }

    fn entry(slot: u64, seq: u64) -> LogEntry {
        LogEntry {
            shard: 0,
            slot,
            client: 1,
            seq,
            tick: 0,
        }
    }

    /// Two puts to `a`, both acknowledged, applied by two replicas.
    fn history() -> (Vec<Op>, Vec<Replica>) {
        let ops = vec![put(1, "a", "v1", 10.0), put(2, "a", "v2", 20.0)];
        let replica = |name: &str| Replica {
            name: name.into(),
            applied: vec![entry(0, 1), entry(1, 2)],
            store: Some(vec![("a".into(), "v2".into())]),
        };
        (ops, vec![replica("p0"), replica("p1")])
    }

    #[test]
    fn a_clean_history_passes() {
        let (mut ops, replicas) = history();
        ops.push(read(3, "a", 25.0, Some("v2")));
        ops.push(read(4, "a", 15.0, Some("v1")));
        let v = check(&ops, &replicas);
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert_eq!((v.committed_puts, v.slots), (2, 2));
    }

    #[test]
    fn a_lost_put_is_caught() {
        let (ops, mut replicas) = history();
        // Neither replica applied the second acknowledged put.
        for r in &mut replicas {
            r.applied.pop();
            r.store = Some(vec![("a".into(), "v1".into())]);
        }
        let v = check(&ops, &replicas);
        assert!(
            v.violations
                .iter()
                .any(|s| s.contains("is in no replica's log")),
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn a_stale_read_is_caught() {
        let (mut ops, replicas) = history();
        // Due after v2 was acknowledged, but returns v1.
        ops.push(read(3, "a", 25.0, Some("v1")));
        // Due after v1 was acknowledged, but returns nothing.
        ops.push(read(4, "a", 12.0, None));
        let v = check(&ops, &replicas);
        assert_eq!(
            v.violations
                .iter()
                .filter(|s| s.starts_with("stale read"))
                .count(),
            2,
            "{:?}",
            v.violations
        );
    }

    #[test]
    fn diverging_replicas_are_caught() {
        let (ops, mut replicas) = history();
        replicas[1].applied.swap(0, 1);
        replicas[1].applied[0].slot = 0;
        replicas[1].applied[1].slot = 1;
        replicas[1].store = Some(vec![("a".into(), "v1".into())]);
        let v = check(&ops, &replicas);
        assert!(v.violations.iter().any(|s| s.starts_with("disagreement")));
        assert!(v
            .violations
            .iter()
            .any(|s| s.contains("final store differs")));
    }
}
