//! Acceptors keep no vote for a slot they know is chosen (the rule and its
//! safety argument are in `consensus::durable`, "Votes of chosen slots").
//!
//! After a command stream drains on netsim, no replica of a plain
//! `ReplicatedLog`, and no group of any `ShardedNode`, holds a vote for a
//! chosen slot. The streams run across a leader change whose new leader
//! lags: it learns the slots its followers already know are chosen from
//! their promises and re-proposes them to those followers.

use consensus::{
    ConsensusParams, PlacementManager, PlacementMap, ReplicatedLog, ShardId, ShardRequest,
    ShardedNode,
};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{DelayDist, LinkModel, SimBuilder, Simulator, Topology};

const N: usize = 3;

/// Checks that `log` holds no vote for any slot it knows chosen, and
/// returns how many chosen slots it holds.
fn assert_no_vote_for_a_chosen_slot(who: &str, log: &ReplicatedLog<u64>) -> usize {
    let chosen = log.chosen_entries();
    for slot in chosen.keys() {
        assert_eq!(
            log.vote(*slot),
            None,
            "{who} still holds a vote for chosen slot {slot}"
        );
    }
    chosen.len()
}

fn cut() -> LinkModel {
    LinkModel::LossyAsync {
        loss: 1.0,
        delay: DelayDist::Constant(Duration::from_ticks(2)),
    }
}

fn timely() -> LinkModel {
    LinkModel::Timely {
        delay: DelayDist::Constant(Duration::from_ticks(2)),
    }
}

/// Cuts p0 → p1 from `at` for 4000 ticks: p0 keeps committing with p2
/// while p1 falls behind, until p1 suspects p0 and takes over from its
/// lagging cursor. Every link works again afterwards.
fn lag_and_take_over<S: lls_primitives::Sm>(sim: &mut Simulator<S>, at: u64) {
    sim.schedule_link_change(Instant::from_ticks(at), ProcessId(0), ProcessId(1), cut());
    sim.schedule_link_change(
        Instant::from_ticks(at + 4_000),
        ProcessId(0),
        ProcessId(1),
        timely(),
    );
}

#[test]
fn no_replicated_log_replica_keeps_a_vote_for_a_chosen_slot() {
    let mut sim = SimBuilder::new(N)
        .seed(3)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(|env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()));
    sim.run_until(Instant::from_ticks(2_000));
    assert_eq!(sim.node(ProcessId(0)).omega().leader(), ProcessId(0));
    lag_and_take_over(&mut sim, 2_200);
    // Every replica queues each command; whichever leads proposes it.
    for k in 0..200u64 {
        for p in 0..N as u32 {
            sim.schedule_request(Instant::from_ticks(2_001 + 20 * k), ProcessId(p), k);
        }
    }
    sim.run_until(Instant::from_ticks(30_000));

    assert_eq!(
        sim.node(ProcessId(0)).omega().leader(),
        ProcessId(1),
        "the lagging p1 took over"
    );
    let len = sim.node(ProcessId(0)).committed_len();
    for p in (0..N as u32).map(ProcessId) {
        let log = sim.node(p);
        assert_eq!(log.committed_len(), len, "{p} drained");
        assert_eq!(
            assert_no_vote_for_a_chosen_slot(&format!("{p}"), log),
            len as usize
        );
    }
    assert!(len >= 200, "every command committed: {len} slots");
}

#[test]
fn no_sharded_group_replica_keeps_a_vote_for_a_chosen_slot() {
    let shards = 3u32;
    let placement = PlacementManager::with_all_attached(PlacementMap::uniform(shards, N));
    let mut sim = SimBuilder::new(N)
        .seed(4)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(|env| {
            ShardedNode::<u64>::new(env, ConsensusParams::default(), placement.clone())
        });
    sim.run_until(Instant::from_ticks(2_000));
    assert_eq!(sim.node(ProcessId(1)).believed_leader(), Some(ProcessId(0)));
    lag_and_take_over(&mut sim, 2_200);
    for k in 0..300u64 {
        for p in 0..N as u32 {
            let req = ShardRequest {
                shard: ShardId((k % u64::from(shards)) as u32),
                cmd: k,
            };
            sim.schedule_request(Instant::from_ticks(2_001 + 15 * k), ProcessId(p), req);
        }
    }
    sim.run_until(Instant::from_ticks(30_000));

    assert_eq!(
        sim.node(ProcessId(0)).believed_leader(),
        Some(ProcessId(1)),
        "the lagging p1 took over"
    );
    for shard in (0..shards).map(ShardId) {
        let len = sim.node(ProcessId(0)).group(shard).unwrap().committed_len();
        assert!(len >= 100, "{shard}: every command committed: {len} slots");
        for p in (0..N as u32).map(ProcessId) {
            let group = sim.node(p).group(shard).unwrap();
            assert_eq!(group.committed_len(), len, "{p}/{shard} drained");
            assert_eq!(
                assert_no_vote_for_a_chosen_slot(&format!("{p}/{shard}"), group),
                len as usize
            );
        }
    }
}
