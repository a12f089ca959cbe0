//! The sharded KV path: key-router properties and cross-shard
//! linearizability.
//!
//! Two halves:
//!
//! 1. **Router properties** (proptest): the key → shard router is *total*
//!    (every key maps to a shard in range, for arbitrary shard counts)
//!    and *stable* (the mapping is a pure function of the key bytes and
//!    the shard count — independent of map instance, attach state, or
//!    call order). Stability is what makes client-side routing sound:
//!    any client anywhere computes the same shard for a key.
//! 2. **Cross-shard linearizability** (netsim): three clients write
//!    interleaved unique values to one register *per shard* through a
//!    [`ShardedKvNode`], and the decided per-shard slot sequences are the
//!    linearization witnesses. Each shard's history must satisfy the same
//!    checks as the single-log suite in `batched_linearizability`:
//!    identical witness order on every replica, exactly-once application,
//!    per-client session order, and a register replay in which every
//!    response's `previous` is exactly its predecessor's value. Shards
//!    commit independently, so there is no cross-shard total order to
//!    check — per-shard linearizability plus the total router is the
//!    whole correctness story.

use std::collections::{BTreeMap, BTreeSet};

use consensus::shard::{fnv1a64, PlacementManager, PlacementMap, ShardId};
use consensus::ConsensusParams;
use kvstore::{ClientId, KvCmd, KvResponse, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use proptest::prelude::*;

proptest! {
    /// Totality: for an arbitrary shard count and arbitrary key bytes,
    /// the router produces exactly one shard, and it is in range.
    #[test]
    fn router_is_total(shards in 1u32..=64, key in proptest::collection::vec(any::<u8>(), 0..48)) {
        let key = String::from_utf8_lossy(&key).into_owned();
        let map = PlacementMap::uniform(shards, 3);
        let shard = map.shard_of_key(&key);
        prop_assert!(shard.0 < shards, "key {key:?} routed to {shard} of {shards}");
    }

    /// Stability: the mapping depends only on the key bytes and the shard
    /// count — repeated calls, fresh map instances, different cluster
    /// sizes, and attach/detach churn all agree.
    #[test]
    fn router_is_stable(shards in 1u32..=64, key in proptest::collection::vec(any::<u8>(), 0..48)) {
        let key = String::from_utf8_lossy(&key).into_owned();
        let map = PlacementMap::uniform(shards, 3);
        let first = map.shard_of_key(&key);
        prop_assert_eq!(first, map.shard_of_key(&key));
        prop_assert_eq!(first, PlacementMap::uniform(shards, 5).shard_of_key(&key));
        prop_assert_eq!(first, map.shard_of_hash(fnv1a64(key.as_bytes())));
        let mut manager = PlacementManager::with_all_attached(map);
        manager.detach(first);
        prop_assert_eq!(
            first,
            manager.map().shard_of_key(&key),
            "routing is placement, not attachment"
        );
    }

    /// The shard-count partition: with `S` shards, the ranges of the
    /// router over a key population never leave `0..S`, and for `S = 1`
    /// everything lands on shard 0.
    #[test]
    fn single_shard_routes_everything_to_zero(key in proptest::collection::vec(any::<u8>(), 0..48)) {
        let key = String::from_utf8_lossy(&key).into_owned();
        prop_assert_eq!(PlacementMap::uniform(1, 3).shard_of_key(&key), ShardId(0));
    }
}

const N: usize = 3;
const SHARDS: u32 = 4;
const CLIENTS: u64 = 3;
const OPS_PER_CLIENT: u64 = 16;

/// One applied operation as observed at a replica, in that shard's
/// application order.
type HistoryOp = (ClientId, u64, KvResponse);

/// A key that the router sends to `shard` — found by brute force so the
/// workload can aim a register at every shard.
fn key_for(map: &PlacementMap, shard: ShardId) -> String {
    (0u64..)
        .map(|i| format!("reg{i}"))
        .find(|k| map.shard_of_key(k) == shard)
        .expect("some key hashes to every shard")
}

/// The value client `c` writes at sequence `s` — unique per operation, so
/// each shard's register replay pins that shard's linearization order.
fn value_of(c: ClientId, s: u64) -> String {
    format!("{}:{s}", c.0)
}

/// The mixed-shard workload: each client's ops cycle over the shard
/// registers (client seq keeps increasing across shards), interleaved
/// round-robin across clients.
fn workload(keys: &[String]) -> Vec<Tagged<KvCmd>> {
    let mut ops = Vec::new();
    for s in 1..=OPS_PER_CLIENT {
        for c in 1..=CLIENTS {
            let key = &keys[((s - 1) as usize + c as usize) % keys.len()];
            ops.push(Tagged {
                client: ClientId(c),
                seq: s,
                cmd: KvCmd::put(key, value_of(ClientId(c), s)),
            });
        }
    }
    ops
}

/// The per-shard checker: every replica saw the identical witness order
/// for this shard, each op applied exactly once, client sessions in
/// order, and the register replay consistent with the witness.
fn check_shard_linearizable(shard: ShardId, histories: &[Vec<HistoryOp>]) {
    for (p, h) in histories.iter().enumerate().skip(1) {
        assert_eq!(
            h, &histories[0],
            "replica {p} disagrees with {shard}'s witness order"
        );
    }
    let witness = &histories[0];
    let mut seen = BTreeSet::new();
    let mut last_seq: BTreeMap<ClientId, u64> = BTreeMap::new();
    let mut prev: Option<String> = None;
    for (c, s, resp) in witness {
        assert!(
            seen.insert((*c, *s)),
            "op ({c:?}, {s}) applied twice in {shard}"
        );
        let prior = last_seq.insert(*c, *s);
        assert!(
            prior.is_none_or(|p| p < *s),
            "{c:?} session order violated at seq {s} in {shard}"
        );
        assert_eq!(
            resp,
            &KvResponse::Applied {
                previous: prev.clone()
            },
            "response of ({c:?}, {s}) contradicts {shard}'s witness order"
        );
        prev = Some(value_of(*c, *s));
    }
}

#[test]
fn cross_shard_history_is_linearizable_per_shard() {
    let map = PlacementMap::uniform(SHARDS, N);
    let keys: Vec<String> = map.shard_ids().map(|s| key_for(&map, s)).collect();
    let ops = workload(&keys);

    let placement_map = map.clone();
    let mut sim = SimBuilder::new(N)
        .record_outputs()
        .seed(19)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(move |env| {
            ShardedKvNode::new(
                env,
                ConsensusParams::default(),
                PlacementManager::with_all_attached(placement_map.clone()),
            )
        });
    sim.run_until(Instant::from_ticks(2_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    for (i, op) in ops.iter().enumerate() {
        sim.schedule_request(
            Instant::from_ticks(2_001 + (i as u64) / 2),
            leader,
            op.clone(),
        );
    }
    sim.run_until(Instant::from_ticks(2_000 + ops.len() as u64 * 12 + 10_000));

    // Split every replica's applied stream by shard; each shard's slice is
    // an independent witness.
    let mut histories: BTreeMap<ShardId, Vec<Vec<HistoryOp>>> =
        map.shard_ids().map(|s| (s, vec![Vec::new(); N])).collect();
    for ev in sim.outputs() {
        if let ShardedKvEvent::Applied {
            shard,
            client,
            seq,
            ref response,
            ..
        } = ev.output
        {
            histories.get_mut(&shard).expect("routed shard exists")[ev.process.as_usize()].push((
                client,
                seq,
                response.clone(),
            ));
        }
    }

    let total: usize = histories
        .values()
        .map(|per_replica| per_replica[0].len())
        .sum();
    assert_eq!(
        total,
        ops.len(),
        "every op must commit in exactly one shard"
    );
    for (shard, per_replica) in &histories {
        assert!(
            !per_replica[0].is_empty(),
            "the workload must exercise {shard}"
        );
        check_shard_linearizable(*shard, per_replica);
    }

    // And the replicated states agree per register: each shard's register
    // holds the last value of that shard's witness, on every replica.
    for (shard, per_replica) in &histories {
        let (c, s, _) = per_replica[0].last().expect("non-empty witness");
        let key = &keys[shard.0 as usize];
        let expect = value_of(*c, *s);
        for p in 0..N as u32 {
            let node = sim.node(ProcessId(p));
            assert_eq!(
                node.state(*shard)
                    .expect("attached shard has state")
                    .get(key),
                Some(expect.as_str()),
                "replica {p} register {key} in {shard}"
            );
        }
    }
}
