//! Property: **replication transparency** — running a random command stream
//! through the full replicated stack yields exactly the state produced by
//! applying the same stream to a single local `KvState`, at every replica.

use std::collections::BTreeMap;

use consensus::shard::{PlacementManager, PlacementMap, ShardId, ShardMsg, ShardedNode};
use consensus::{ConsensusParams, Entry, RsmMsg};
use kvstore::{ClientId, KvCmd, KvReplica, KvState, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_primitives::{Ctx, Effects, Env, Instant, ProcessId, Sm, SnapshotHandle, StorageHandle};
use netsim::{SimBuilder, SystemSParams, Topology};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Cas(u8, Option<u8>, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 0u8..4).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..6).prop_map(Op::Delete),
        (0u8..6, proptest::option::of(0u8..4), 0u8..4).prop_map(|(k, e, v)| Op::Cas(k, e, v)),
    ]
}

fn to_cmd(o: &Op) -> KvCmd {
    match o {
        Op::Put(k, v) => KvCmd::put(format!("k{k}"), format!("v{v}")),
        Op::Delete(k) => KvCmd::delete(format!("k{k}")),
        Op::Cas(k, e, v) => KvCmd::cas(
            format!("k{k}"),
            e.map(|e| format!("v{e}")).as_deref(),
            format!("v{v}"),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn replicated_store_equals_local_application(
        ops in proptest::collection::vec(op(), 1..20),
        seed in any::<u64>(),
        mesh_loss in 0.0f64..0.4,
    ) {
        let n = 3;
        let topo = Topology::system_s(
            n,
            ProcessId(0),
            SystemSParams { mesh_loss, gst: 300, ..SystemSParams::default() },
        );
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .topology(topo)
            .build_with(|env| KvReplica::new(env, ConsensusParams::default()));
        sim.run_until(Instant::from_ticks(10_000));
        let leader = sim.node(ProcessId(0)).omega().leader();
        // Guard against pathological pre-horizon churn: require a stable
        // self-believed leader before submitting.
        prop_assume!(sim.node(leader).omega().is_leader());

        let mut local = KvState::new();
        for (i, o) in ops.iter().enumerate() {
            let tagged = Tagged {
                client: ClientId(1),
                seq: i as u64 + 1,
                cmd: to_cmd(o),
            };
            local.apply(&tagged);
            sim.schedule_request(Instant::from_ticks(10_100 + 250 * i as u64), leader, tagged);
        }
        sim.run_until(Instant::from_ticks(10_100 + 250 * ops.len() as u64 + 60_000));

        let expect: Vec<(String, String)> =
            local.iter().map(|(k, v)| (k.to_owned(), v.to_owned())).collect();
        for p in (0..n as u32).map(ProcessId) {
            // Leadership must not have moved mid-workload for the comparison
            // to be exact; skip the rare cases where it did.
            prop_assume!(sim.node(leader).omega().is_leader());
            let got: Vec<(String, String)> = sim
                .node(p)
                .state()
                .iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            prop_assert_eq!(
                &got, &expect,
                "replica p{} diverged from local application", p.0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Property: **compaction transparency across restarts** — a sharded
    /// node that auto-compacts every `cadence` applied commands and is then
    /// killed at an arbitrary point recovers (snapshot + truncated WAL) to
    /// exactly the state of an identical twin that kept its full WAL, for
    /// arbitrary shard counts and workloads.
    #[test]
    fn sharded_recovery_from_snapshot_equals_full_wal_replay(
        ops in proptest::collection::vec(op(), 1..40),
        shards in 1u32..4,
        cadence in 1u64..8,
        kill_after in 0usize..40,
    ) {
        let n = 3;
        let env = Env::new(ProcessId(1), n);
        let map = PlacementMap::uniform(shards, n);
        let shard_ids: Vec<ShardId> = map.shard_ids().collect();
        let stores_a: BTreeMap<ShardId, StorageHandle> =
            shard_ids.iter().map(|s| (*s, StorageHandle::in_memory())).collect();
        let snaps_a: BTreeMap<ShardId, SnapshotHandle> =
            shard_ids.iter().map(|s| (*s, SnapshotHandle::in_memory())).collect();
        let omega_a = StorageHandle::in_memory();
        let stores_b: BTreeMap<ShardId, StorageHandle> =
            shard_ids.iter().map(|s| (*s, StorageHandle::in_memory())).collect();
        let omega_b = StorageHandle::in_memory();
        let kill = kill_after.min(ops.len());
        {
            let placement = PlacementManager::with_all_attached(map.clone());
            let mut a = ShardedNode::builder(&env, ConsensusParams::default(), placement)
                .storage(&stores_a, omega_a.clone())
                .snapshots(&snaps_a)
                .build()
                .and_then(ShardedKvNode::from_log)
                .unwrap();
            a.set_compact_every(cadence);
            let placement = PlacementManager::with_all_attached(map.clone());
            let mut full = ShardedNode::builder(&env, ConsensusParams::default(), placement)
                .storage(&stores_b, omega_b.clone())
                .build()
                .and_then(ShardedKvNode::from_log)
                .unwrap();
            let mut fx: Effects<_, ShardedKvEvent> = Effects::new();
            let mut next_slot: BTreeMap<ShardId, u64> = BTreeMap::new();
            for (i, o) in ops[..kill].iter().enumerate() {
                let tagged = Tagged {
                    client: ClientId(1),
                    seq: i as u64 + 1,
                    cmd: to_cmd(o),
                };
                let shard = map.shard_of_key(tagged.cmd.key());
                let slot = next_slot.entry(shard).or_default();
                let msg = ShardMsg::Rsm {
                    shard,
                    msg: RsmMsg::Decide { slot: *slot, entry: Entry::Cmd(tagged) },
                };
                *slot += 1;
                for node in [&mut a, &mut full] {
                    let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
                    node.on_message(&mut ctx, ProcessId(0), msg.clone());
                    fx.take();
                }
            }
            // Crash both (drop without further writes).
        }
        let placement = PlacementManager::with_all_attached(map.clone());
        let a2 = ShardedNode::builder(&env, ConsensusParams::default(), placement)
            .storage(&stores_a, omega_a)
            .snapshots(&snaps_a)
            .build()
            .and_then(ShardedKvNode::from_log)
            .unwrap();
        let placement = PlacementManager::with_all_attached(map);
        let full2 = ShardedNode::builder(&env, ConsensusParams::default(), placement)
            .storage(&stores_b, omega_b)
            .build()
            .and_then(ShardedKvNode::from_log)
            .unwrap();
        for shard in &shard_ids {
            prop_assert_eq!(
                a2.state(*shard), full2.state(*shard),
                "shard {:?}: snapshot+tail recovery diverged from full replay", shard
            );
            let ga = a2.node().group(*shard).unwrap();
            let gb = full2.node().group(*shard).unwrap();
            prop_assert_eq!(ga.committed_len(), gb.committed_len());
            prop_assert!(
                ga.wal_stats().live_bytes <= gb.wal_stats().live_bytes,
                "compaction never inflates a shard WAL"
            );
        }
    }
}
