//! Cross-shard linearizability for the sharded KV node, on the simulator
//! and over TCP. Each key is a monotone register owned by one writer
//! session and routed to whatever shard its hash lands on; reads go down
//! the sharded fast path (lease-read or read-index per shard) and must
//! observe the latest write that real-time-precedes them.
//!
//! The TCP leg uses *quiescence polling* throughout — every
//! wait polls for an observable settlement (unanimous leader view, a
//! specific `(client, seq)` settle) with client-style retries, never a
//! fixed sleep — so it is immune to scheduler jitter.

mod util;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use consensus::shard::{PlacementManager, PlacementMap, ShardId, ShardedNode};
use consensus::{ConsensusParams, LeaseParams};
use kvstore::{ClientId, KvCmd, KvResponse, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_obs::{NodeRecorders, Watchdog, WatchdogConfig};
use lls_primitives::runtime::await_stable_leader;
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use util::Settled;
use wirenet::{BackoffConfig, WireCluster, WireConfig};

/// One register per writer session: writer `1 + i` owns `KEYS[i]`.
const KEYS: [&str; 3] = ["alpha", "beta", "gamma"];

const SHARDS: u32 = 4;

fn lease_params() -> ConsensusParams {
    ConsensusParams {
        lease: LeaseParams::enabled(),
        ..ConsensusParams::default()
    }
}

fn placement(n: usize) -> PlacementManager {
    PlacementManager::with_all_attached(PlacementMap::uniform(SHARDS, n))
}

fn writer_of(key_idx: usize) -> ClientId {
    ClientId(1 + key_idx as u64)
}

fn reader_at(p: ProcessId) -> ClientId {
    ClientId(100 + u64::from(p.0))
}

fn value_of(i: u64) -> String {
    format!("v{i}")
}

fn index_of(value: Option<&str>) -> u64 {
    value
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Netsim: exact per-key real-time witnesses.
// ---------------------------------------------------------------------------

struct IssuedRead {
    node: ProcessId,
    client: ClientId,
    seq: u64,
    key_idx: usize,
    at: u64,
}

#[test]
fn cross_shard_reads_respect_per_key_real_time() {
    let n = 3;
    let writes_per_key = 5u64;
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let params = lease_params();
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(29)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .build_with(|env| {
            ShardedNode::builder(env, params, placement(n))
                .probe(watchdog.probe(recorders.probe_for(env.id())))
                .build()
                .and_then(ShardedKvNode::from_log)
                .unwrap()
        });
    sim.run_until(Instant::from_ticks(3_000));
    let leader = sim.node(ProcessId(0)).omega().leader();

    // Interleave the three writers' streams with reads on every key at
    // every node, at a cadence co-prime with the write cadence so reads
    // race commits in every shard.
    let mut issued: Vec<IssuedRead> = Vec::new();
    let mut read_seqs: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut t = 3_000u64;
    for i in 1..=writes_per_key {
        for (k, key) in KEYS.iter().enumerate() {
            sim.schedule_request(
                Instant::from_ticks(t),
                leader,
                Tagged {
                    client: writer_of(k),
                    seq: i,
                    cmd: KvCmd::put(*key, value_of(i)),
                },
            );
            t += 40;
            for p in (0..n as u32).map(ProcessId) {
                let seq = read_seqs.entry(p).or_insert(0);
                *seq += 1;
                issued.push(IssuedRead {
                    node: p,
                    client: reader_at(p),
                    seq: *seq,
                    key_idx: k,
                    at: t,
                });
                sim.schedule_request(
                    Instant::from_ticks(t),
                    p,
                    Tagged {
                        client: reader_at(p),
                        seq: *seq,
                        cmd: KvCmd::read(*key),
                    },
                );
                t += 7;
            }
        }
    }
    sim.run_until(Instant::from_ticks(t + 10_000));

    // Per-key witness: earliest commit tick of each (key, index) anywhere.
    let outputs = sim.outputs();
    let mut commit_at: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for ev in outputs {
        if let ShardedKvEvent::Applied {
            client,
            seq,
            response: KvResponse::Applied { .. },
            ..
        } = &ev.output
        {
            if (1..=KEYS.len() as u64).contains(&client.0) {
                let k = (client.0 - 1) as usize;
                let at = commit_at.entry((k, *seq)).or_insert(ev.at.ticks());
                *at = (*at).min(ev.at.ticks());
            }
        }
    }
    assert_eq!(
        commit_at.len(),
        KEYS.len() * writes_per_key as usize,
        "every write must commit"
    );
    let mut served = 0u64;
    for read in &issued {
        let serve = outputs.iter().find_map(|ev| match &ev.output {
            ShardedKvEvent::Applied {
                client,
                seq,
                response: KvResponse::Value { value },
                ..
            } if ev.process == read.node && *client == read.client && *seq == read.seq => {
                Some(index_of(value.as_deref()))
            }
            _ => None,
        });
        let Some(observed) = serve else { continue };
        served += 1;
        for i in observed + 1..=writes_per_key {
            if let Some(&committed) = commit_at.get(&(read.key_idx, i)) {
                assert!(
                    committed > read.at,
                    "stale read of {:?} at {}: observed v{observed} at issue t{} \
                     but v{i} committed at t{committed}",
                    KEYS[read.key_idx],
                    read.node,
                    read.at
                );
            }
        }
    }
    assert!(
        served >= issued.len() as u64 / 2,
        "most reads must settle ({served}/{})",
        issued.len()
    );
    assert_eq!(watchdog.alarm_count(), 0, "watchdog must stay quiet");
    // Every shard's store agrees across the replicas.
    for s in 0..SHARDS {
        let shard = ShardId(s);
        let reference: Vec<(String, String)> = sim
            .node(ProcessId(0))
            .state(shard)
            .expect("attached")
            .iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        for p in (1..n as u32).map(ProcessId) {
            let store: Vec<(String, String)> = sim
                .node(p)
                .state(shard)
                .expect("attached")
                .iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            assert_eq!(store, reference, "shard {s} diverged at p{p}");
        }
    }
}

// ---------------------------------------------------------------------------
// Wall clock: quiescence polling, never fixed sleeps.
// ---------------------------------------------------------------------------

/// Per-shard prefix agreement over the stop report: every node's applied
/// command sequence for each shard must equal a prefix of the longest
/// node's sequence (linearizable-prefix agreement, per shard).
type AppliedSeq = Vec<(u64, ClientId, u64)>;

fn assert_prefix_agreement(per_node: &BTreeMap<ProcessId, Vec<(u32, u64, ClientId, u64)>>) {
    let mut per_shard: BTreeMap<u32, Vec<AppliedSeq>> = BTreeMap::new();
    for applied in per_node.values() {
        let mut shards: BTreeMap<u32, AppliedSeq> = BTreeMap::new();
        for &(shard, slot, client, seq) in applied {
            shards.entry(shard).or_default().push((slot, client, seq));
        }
        for (shard, mut seq) in shards {
            seq.sort_unstable();
            per_shard.entry(shard).or_default().push(seq);
        }
    }
    for (shard, sequences) in per_shard {
        let longest = sequences
            .iter()
            .max_by_key(|s| s.len())
            .cloned()
            .unwrap_or_default();
        for seq in &sequences {
            assert_eq!(
                &longest[..seq.len()],
                seq.as_slice(),
                "shard {shard}: a node's applied sequence is not a prefix"
            );
        }
    }
}

/// One round workload over TCP on a cluster of 3: four settled writes per
/// key at the unanimous leader, a read of every key at every node after its
/// final write, then per-shard prefix agreement over the stop report. Skips
/// where no loopback listener can be bound.
#[test]
fn wirenet_cross_shard_settles_by_quiescence_polling() {
    let (n, writes_per_key) = (3, 4);
    let config = WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: None,
        record_outputs: true,
    };
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let spawned = WireCluster::try_spawn_traced(config, recorders.clocks(), |env| {
        ShardedNode::builder(env, lease_params(), placement(n))
            .probe(watchdog.probe(recorders.probe_for(env.id())))
            .build()
            .and_then(ShardedKvNode::from_log)
            .unwrap()
    });
    let Ok(cluster) = spawned else {
        eprintln!("skipping: cannot bind 127.0.0.1 listeners in this sandbox");
        return;
    };
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let hold = StdDuration::from_millis(150);
    let mut settled = Settled::default();
    let leader = await_stable_leader(&cluster, &all, ShardedKvEvent::leader, hold, timeout)
        .expect("a leader must settle");
    for i in 1..=writes_per_key {
        for (k, key) in KEYS.iter().enumerate() {
            let write = Tagged {
                client: writer_of(k),
                seq: i,
                cmd: KvCmd::put(*key, value_of(i)),
            };
            assert!(
                settled.request(&cluster, leader, write, timeout).is_some(),
                "write {i} to {key:?} must settle"
            );
        }
    }
    // Freshness: every node, every key, must now observe the final index.
    for (k, key) in KEYS.iter().enumerate() {
        let rseq = (k + 1) as u64;
        for &node in &all {
            let read = Tagged {
                client: reader_at(node),
                seq: rseq,
                cmd: KvCmd::read(*key),
            };
            match settled.request(&cluster, node, read, timeout) {
                Some(KvResponse::Value { value }) => assert_eq!(
                    index_of(value.as_deref()),
                    writes_per_key,
                    "{key:?} at {node}: must observe the final write"
                ),
                other => panic!("read of {key:?} at {node} did not settle: {other:?} ({k})"),
            }
        }
    }
    let report = cluster.stop();
    let mut per_node: BTreeMap<ProcessId, Vec<(u32, u64, ClientId, u64)>> = BTreeMap::new();
    for o in report.outputs() {
        if let ShardedKvEvent::Applied {
            shard,
            slot,
            client,
            seq,
            ..
        } = &o.output
        {
            if client.0 <= KEYS.len() as u64 {
                per_node
                    .entry(o.process)
                    .or_default()
                    .push((shard.0, *slot, *client, *seq));
            }
        }
    }
    assert_prefix_agreement(&per_node);
    assert_eq!(watchdog.alarm_count(), 0, "watchdog must stay quiet");
}
