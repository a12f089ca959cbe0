//! `pipelined_kv`, upgraded to shards: the same windowed-client workload
//! runs against one replicated KV group and against four, and the only
//! code difference is the [`PlacementMap`] handed to the node.
//!
//! The sharded path, end to end:
//!
//! * a [`PlacementMap`] hashes every key to one of `S` shard groups, each
//!   an independent replicated log with its own slot sequence;
//! * a [`SubmitQueue`] over the same map fans the client's commands out by
//!   key — one flow-control window per shard — and routes each reply back
//!   to the shard that owns it;
//! * a [`ShardedKvNode`] per replica runs **one** shared Ω however many
//!   groups it hosts, so going from one shard to four adds *no* election
//!   traffic — leadership fans out to every co-located group.
//!
//! Each group is pinned to the strict one-command-per-round-trip baseline
//! (`max_batch = 1`, `pipeline_depth = 1`), so the speedup below is pure
//! shard parallelism. Both runs must agree on every key's final value.
//!
//! Run with: `cargo run -p lls-examples --bin sharded_kv`

use consensus::shard::{PlacementManager, PlacementMap};
use consensus::{BatchParams, ConsensusParams};
use kvstore::{ClientId, KvClient, KvCmd, ShardedKvEvent, ShardedKvNode, SubmitQueue};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};

const N: usize = 3;
const COMMANDS: u64 = 120;

/// The workload key of command `i` — many distinct keys, so the hash
/// router actually spreads load when shards are available.
fn key(i: u64) -> String {
    format!("user:{}", i % 24)
}

/// Drives the windowed client protocol against one simulated cluster with
/// `shards` groups: submit everything, drain what each shard's window
/// admits, settle replies per shard, repeat until idle. Returns
/// (ticks-to-idle, decided slots per shard, a state sample).
fn drive(shards: u32) -> (u64, Vec<u64>, Vec<Option<String>>) {
    let params = ConsensusParams {
        batch: BatchParams {
            max_batch: 1,
            pipeline_depth: 1,
        },
        ..ConsensusParams::default()
    };
    let map = PlacementMap::uniform(shards, N);
    let placement_map = map.clone();
    let mut sim = SimBuilder::new(N)
        .record_outputs()
        .seed(7)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(move |env| {
            ShardedKvNode::new(
                env,
                params,
                PlacementManager::with_all_attached(placement_map.clone()),
            )
        });

    // Stabilize, then aim the client at the elected leader — one leader
    // for every group, courtesy of the shared Ω.
    let start = 2_000u64;
    sim.run_until(Instant::from_ticks(start));
    let leader = sim.node(ProcessId(0)).omega().leader();

    // The client mints its whole workload up front; the queue routes each
    // command by key and windows each shard independently.
    let mut client = KvClient::new(ClientId(1));
    let mut queue = SubmitQueue::sharded(map.clone(), 8);
    for i in 0..COMMANDS {
        queue.submit(client.issue(KvCmd::put(key(i), format!("v{i}"))));
    }

    let mut now = start;
    let mut scanned = 0; // outputs consumed so far
    let mut settled = 0u64;
    while !queue.is_idle() && now < start + 60_000 {
        // Release what each shard's window admits. The node routes by key
        // itself, so the wire request is just the tagged command.
        for cmd in queue.drain() {
            sim.schedule_request(Instant::from_ticks(now + 1), leader, cmd);
        }
        now += 20;
        sim.run_until(Instant::from_ticks(now));
        // Route replies back: the queue knows which shard owns each
        // in-flight command and reopens that shard's window.
        let outputs = sim.outputs();
        for ev in &outputs[scanned..] {
            if ev.process != leader {
                continue;
            }
            if let ShardedKvEvent::Applied {
                client,
                seq,
                ref response,
                ..
            } = ev.output
            {
                if queue.settle(client, seq, response).is_some() {
                    settled += 1;
                }
            }
        }
        scanned = outputs.len();
    }
    assert_eq!(settled, COMMANDS, "every command must settle exactly once");

    let slots: Vec<u64> = map
        .shard_ids()
        .map(|s| {
            sim.node(leader)
                .node()
                .group(s)
                .expect("attached")
                .committed_len()
        })
        .collect();
    // Sample the final state at a follower: replicas agree per shard.
    let follower = sim.node(ProcessId(1));
    let sample: Vec<Option<String>> = (0..COMMANDS)
        .map(|i| {
            let k = key(i);
            follower
                .state(map.shard_of_key(&k))
                .expect("attached")
                .get(&k)
                .map(str::to_string)
        })
        .collect();
    (now - start, slots, sample)
}

fn main() {
    println!("workload: {COMMANDS} puts over 24 keys, one windowed client (window 8/shard)\n");

    let (base_ticks, base_slots, base_state) = drive(1);
    println!(
        "1 shard : {base_ticks:>5} ticks to idle, slots per shard {:?}",
        base_slots
    );

    let (fast_ticks, fast_slots, fast_state) = drive(4);
    println!(
        "4 shards: {fast_ticks:>5} ticks to idle, slots per shard {:?}",
        fast_slots
    );

    assert_eq!(
        base_state, fast_state,
        "sharding must not change any key's final value"
    );
    assert_eq!(
        base_slots.iter().sum::<u64>(),
        fast_slots.iter().sum::<u64>(),
        "the same commands decide, just spread over independent logs"
    );
    println!(
        "\nsame state on every key, {:.1}x faster to idle with one shared Ω \
         (no extra election traffic)",
        base_ticks as f64 / fast_ticks as f64,
    );
}
