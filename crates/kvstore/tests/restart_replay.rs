//! Restarting a durable KV node from its WAL: killed and rebuilt, with and
//! without a snapshot floor under its log, a `KvReplica` and a
//! `ShardedKvNode` (S = 2) each come back holding the same chosen entries
//! and rebuild the same store as before the kill. A WAL whose `Chosen`
//! record carries an entry that does not decode fails the build.

use std::collections::BTreeMap;

use consensus::shard::{PlacementManager, PlacementMap, ShardId, ShardedNode};
use consensus::{BatchParams, ConsensusParams, Entry, ReplicatedLog, RsmRecord};
use kvstore::{ClientId, KvCmd, KvReplica, KvState, LogPlane, ReplicatedKv, ShardedKvNode, Tagged};
use lls_primitives::wire::Wire;
use lls_primitives::{
    Duration, Env, FileWal, Instant, ProcessId, SnapshotHandle, StorageError, StorageHandle,
};
use netsim::{SimBuilder, Simulator, Topology};

const N: usize = 3;
/// Puts per run. Compacting every 40 applied commands (20 per shard at
/// S = 2) leaves the last few above each snapshot floor, so recovery
/// replays a run above it.
const PUTS: u64 = 110;
const COMPACT_EVERY: u64 = 40;

/// Batches of up to four puts, so the log holds batched and plain slots.
fn params() -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 4,
            pipeline_depth: 2,
        },
        ..ConsensusParams::default()
    }
}

fn put(i: u64) -> Tagged<KvCmd> {
    Tagged {
        client: ClientId(i % 3),
        seq: i / 3 + 1,
        cmd: KvCmd::put(format!("key-{}", i % 17), "v".repeat(i as usize % 9)),
    }
}

/// Per group: the watermark, the chosen entries and the store.
type View = Vec<(u64, BTreeMap<u64, Entry<Tagged<KvCmd>>>, KvState)>;

fn replica_view(kv: &KvReplica) -> View {
    let log = kv.log();
    vec![(log.watermark(), log.chosen_entries(), kv.state().clone())]
}

fn sharded_view(kv: &ShardedKvNode) -> View {
    kv.node()
        .groups()
        .map(|(shard, log)| {
            let state = kv.state(shard).expect("attached shard").clone();
            (log.watermark(), log.chosen_entries(), state)
        })
        .collect()
}

/// Commits `count` puts from `first` on through the current leader, in
/// bursts that coalesce into batches.
fn commit<L: LogPlane>(sim: &mut Simulator<ReplicatedKv<L>>, t: &mut u64, first: u64, count: u64) {
    let leader = sim.node(ProcessId(0)).omega().leader();
    for i in first..first + count {
        sim.schedule_request(Instant::from_ticks(*t + 1 + i / 8), leader, put(i));
    }
    *t += 3_000;
    sim.run_until(Instant::from_ticks(*t));
}

/// Kills each node in turn and rebuilds it from its storage: the rebuilt
/// node must hold what the killed one held. With `floor`, every group must
/// sit on a snapshot and still hold a run above it.
fn restarts_keep_the_log_and_the_store<L: LogPlane>(
    build: impl Fn(&Env) -> ReplicatedKv<L>,
    view: impl Fn(&ReplicatedKv<L>) -> View,
    floor: bool,
) {
    let mut sim = SimBuilder::new(N)
        .seed(11)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(&build);
    let mut t = 3_000;
    sim.run_until(Instant::from_ticks(t));
    commit(&mut sim, &mut t, 0, PUTS);
    for p in (0..N as u32).map(ProcessId) {
        let before = view(sim.node(p));
        let applied: usize = before
            .iter()
            .map(|(_, _, s)| s.applied_count() as usize)
            .sum();
        assert_eq!(applied, PUTS as usize, "{p:?} applied every put");
        assert!(
            before
                .iter()
                .any(|(_, entries, _)| entries.values().any(|e| matches!(e, Entry::Batch(_)))),
            "{p:?} holds batched slots"
        );
        for (watermark, entries, _) in &before {
            assert_eq!(*watermark > 0, floor, "{p:?}: snapshot floor");
            assert!(
                entries.keys().any(|s| *s >= *watermark),
                "{p:?} holds a run above its floor"
            );
        }
        sim.kill(p);
        let rebuilt = build(&Env::new(p, N));
        assert_eq!(view(&rebuilt), before, "{p:?} rebuilt from its WAL");
        sim.restart(p, rebuilt);
        t += 3_000;
        sim.run_until(Instant::from_ticks(t));
    }
    // The restarted cluster keeps committing, and every store agrees.
    commit(&mut sim, &mut t, PUTS, 20);
    let stores = |p: u32| -> Vec<KvState> {
        view(sim.node(ProcessId(p)))
            .into_iter()
            .map(|(_, _, s)| s)
            .collect()
    };
    let reference = stores(0);
    let applied: u64 = reference.iter().map(KvState::applied_count).sum();
    assert_eq!(applied, PUTS + 20);
    for p in 1..N as u32 {
        assert_eq!(stores(p), reference, "p{p} diverged after the restarts");
    }
}

fn kv_replica_restarts(floor: bool) {
    let wals: Vec<StorageHandle> = (0..N).map(|_| StorageHandle::in_memory()).collect();
    let snaps: Vec<SnapshotHandle> = (0..N).map(|_| SnapshotHandle::in_memory()).collect();
    let build = |env: &Env| {
        let p = env.id().as_usize();
        let mut log = ReplicatedLog::builder(env, params()).storage(wals[p].clone());
        if floor {
            log = log.snapshots(snaps[p].clone());
        }
        let mut kv = log.build().and_then(KvReplica::from_log).expect("recover");
        kv.set_compact_every(COMPACT_EVERY);
        kv
    };
    restarts_keep_the_log_and_the_store(build, replica_view, floor);
}

fn sharded_node_restarts(floor: bool) {
    let map = PlacementMap::uniform(2, N);
    type Disk = (
        BTreeMap<ShardId, StorageHandle>,
        StorageHandle,
        BTreeMap<ShardId, SnapshotHandle>,
    );
    let disks: Vec<Disk> = (0..N)
        .map(|_| {
            let wals = map.shard_ids().map(|s| (s, StorageHandle::in_memory()));
            let snaps = map.shard_ids().map(|s| (s, SnapshotHandle::in_memory()));
            (wals.collect(), StorageHandle::in_memory(), snaps.collect())
        })
        .collect();
    let build = |env: &Env| {
        let (wals, omega, snaps) = &disks[env.id().as_usize()];
        let placement = PlacementManager::with_all_attached(map.clone());
        let mut node = ShardedNode::builder(env, params(), placement).storage(wals, omega.clone());
        if floor {
            node = node.snapshots(snaps);
        }
        let mut kv = node
            .build()
            .and_then(ShardedKvNode::from_log)
            .expect("recover");
        kv.set_compact_every(COMPACT_EVERY / 2);
        kv
    };
    restarts_keep_the_log_and_the_store(build, sharded_view, floor);
}

#[test]
fn a_kv_replica_restarts_from_its_wal_with_its_log_and_store() {
    kv_replica_restarts(false);
}

#[test]
fn a_kv_replica_restarts_from_a_snapshot_and_the_run_above_it() {
    kv_replica_restarts(true);
}

#[test]
fn a_sharded_node_restarts_from_its_wals_with_every_groups_log_and_store() {
    sharded_node_restarts(false);
}

#[test]
fn a_sharded_node_restarts_from_snapshots_and_the_runs_above_them() {
    sharded_node_restarts(true);
}

/// A `Chosen` record framed with a valid CRC whose entry does not decode
/// fails the build with `StorageError::Decode`, whether its slot would
/// extend the recovered run or sit above a gap.
#[test]
fn a_chosen_entry_that_does_not_decode_fails_the_build() {
    let entry = |i: u64| Entry::Cmd(put(i));
    for bad_slot in [1u64, 5] {
        let path = std::env::temp_dir().join(format!(
            "lls-corrupt-chosen-{}-{bad_slot}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let wal = StorageHandle::new(FileWal::open(&path).expect("open WAL"));
        wal.append_record(&RsmRecord::Chosen {
            slot: 0,
            entry: entry(0),
        })
        .expect("append");
        // The record's tag and slot, then an entry cut one byte short.
        let mut bad = RsmRecord::Chosen {
            slot: bad_slot,
            entry: entry(1),
        }
        .to_bytes();
        bad.pop();
        wal.append(&bad).expect("append");
        drop(wal);
        let reopened = StorageHandle::new(FileWal::open(&path).expect("reopen WAL"));
        let built = KvReplica::with_storage(
            &Env::new(ProcessId(0), N),
            ConsensusParams::default(),
            reopened,
        );
        let _ = std::fs::remove_file(&path);
        match built {
            Err(StorageError::Decode(_)) => {}
            Err(e) => panic!("slot {bad_slot}: wrong error {e}"),
            Ok(_) => panic!("slot {bad_slot}: a Chosen entry that does not decode was accepted"),
        }
    }
}
