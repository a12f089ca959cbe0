//! Linearizability of the batched/pipelined KV path, on both substrates.
//!
//! Three concurrent clients write an interleaved stream of unique values
//! to one register while the log runs with batching and pipelining
//! enabled (`max_batch = 8`, `pipeline_depth = 4`), so many ops ride in
//! multi-command slots. The decided slot sequence is the linearization
//! witness, and the history is linearizable iff:
//!
//! 1. every replica applies the *identical* total order of operations,
//!    each exactly once (batches unfold the same way everywhere);
//! 2. the order respects each client's session order (`seq` increasing);
//! 3. every reported response matches a sequential replay of the witness
//!    order — for a register of unique writes, each op's `previous` must
//!    be exactly the value of its predecessor in the order;
//! 4. the order respects real time: an op that committed before another
//!    was issued must precede it (checked on netsim, where both issue
//!    and commit times are exact ticks).
//!
//! The same workload and checker run on the deterministic simulator and
//! over real TCP sockets.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{BatchParams, ConsensusParams};
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, KvResponse, Tagged};
use lls_primitives::runtime::{await_stable_leader, Cluster as _, OutputCursor};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use wirenet::{BackoffConfig, WireCluster, WireConfig};

const N: usize = 3;
const CLIENTS: u64 = 3;
const OPS_PER_CLIENT: u64 = 20;

/// One applied operation as observed at a replica, in application order.
type HistoryOp = (ClientId, u64, KvResponse);

fn batched_params() -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 8,
            pipeline_depth: 4,
        },
        ..ConsensusParams::default()
    }
}

/// The value client `c` writes at sequence `s` — unique per operation, so
/// a register replay pins the entire linearization order.
fn value_of(c: ClientId, s: u64) -> String {
    format!("{}:{s}", c.0)
}

/// The interleaved workload: round-robin across clients, every op a write
/// to the same register.
fn workload() -> Vec<Tagged<KvCmd>> {
    let mut ops = Vec::new();
    for s in 1..=OPS_PER_CLIENT {
        for c in 1..=CLIENTS {
            ops.push(Tagged {
                client: ClientId(c),
                seq: s,
                cmd: KvCmd::put("x", value_of(ClientId(c), s)),
            });
        }
    }
    ops
}

/// The core checker: identical witness order everywhere, exactly-once,
/// session order, and a register replay of the responses.
fn check_linearizable(histories: &[Vec<HistoryOp>], substrate: &str) {
    let total = (CLIENTS * OPS_PER_CLIENT) as usize;
    for (p, h) in histories.iter().enumerate() {
        assert_eq!(
            h.len(),
            total,
            "{substrate}: replica {p} applied {} of {total} ops",
            h.len()
        );
    }
    for (p, h) in histories.iter().enumerate().skip(1) {
        assert_eq!(
            h, &histories[0],
            "{substrate}: replica {p} disagrees with the witness order"
        );
    }
    let witness = &histories[0];
    let mut seen = BTreeSet::new();
    let mut last_seq: BTreeMap<ClientId, u64> = BTreeMap::new();
    let mut prev: Option<String> = None;
    for (c, s, resp) in witness {
        assert!(
            seen.insert((*c, *s)),
            "{substrate}: op ({c:?}, {s}) applied twice"
        );
        let prior = last_seq.insert(*c, *s);
        assert!(
            prior.is_none_or(|p| p < *s),
            "{substrate}: {c:?} session order violated at seq {s}"
        );
        assert_eq!(
            resp,
            &KvResponse::Applied {
                previous: prev.clone()
            },
            "{substrate}: response of ({c:?}, {s}) contradicts the witness order"
        );
        prev = Some(value_of(*c, *s));
    }
}

#[test]
fn batched_history_is_linearizable_on_netsim() {
    let ops = workload();
    let mut sim = SimBuilder::new(N)
        .record_outputs()
        .seed(13)
        .topology(Topology::all_timely(N, Duration::from_ticks(2)))
        .build_with(|env| KvReplica::new(env, batched_params()));
    sim.run_until(Instant::from_ticks(2_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    // Two ops per tick: faster than the one-slot-per-round-trip rate, so
    // batches really form.
    let issue_tick = |i: usize| 2_001 + (i as u64) / 2;
    for (i, op) in ops.iter().enumerate() {
        sim.schedule_request(Instant::from_ticks(issue_tick(i)), leader, op.clone());
    }
    sim.run_until(Instant::from_ticks(2_000 + ops.len() as u64 * 12 + 10_000));

    let mut histories: Vec<Vec<HistoryOp>> = vec![Vec::new(); N];
    let mut commit_tick: BTreeMap<(ClientId, u64), u64> = BTreeMap::new();
    for ev in sim.outputs() {
        if let KvEvent::Applied {
            client,
            seq,
            ref response,
            ..
        } = ev.output
        {
            histories[ev.process.as_usize()].push((client, seq, response.clone()));
            if ev.process == leader {
                commit_tick.entry((client, seq)).or_insert(ev.at.ticks());
            }
        }
    }
    check_linearizable(&histories, "netsim");

    // Real-time order: an op that committed before another was issued must
    // precede it in the witness.
    let witness = &histories[0];
    let position: BTreeMap<(ClientId, u64), usize> = witness
        .iter()
        .enumerate()
        .map(|(i, (c, s, _))| ((*c, *s), i))
        .collect();
    for a in ops.iter() {
        for (j, b) in ops.iter().enumerate() {
            let (ca, cb) = ((a.client, a.seq), (b.client, b.seq));
            if commit_tick[&ca] < issue_tick(j) {
                assert!(
                    position[&ca] < position[&cb],
                    "netsim: {ca:?} committed at t{} before {cb:?} was issued at t{} \
                     yet follows it in the witness",
                    commit_tick[&ca],
                    issue_tick(j)
                );
            }
        }
    }
}

fn histories_from(outputs: &[(ProcessId, KvEvent)]) -> Vec<Vec<HistoryOp>> {
    let mut histories: Vec<Vec<HistoryOp>> = vec![Vec::new(); N];
    for (p, ev) in outputs {
        if let KvEvent::Applied {
            client,
            seq,
            response,
            ..
        } = ev
        {
            histories[p.as_usize()].push((*client, *seq, response.clone()));
        }
    }
    histories
}

/// The wall-clock leg: the workload is sent to a leader every node has
/// named for 300 ms, every replica must apply all of it (counting each
/// output of the cluster's history once through a cursor), and the stopped
/// report's history must be linearizable.
#[test]
fn batched_history_is_linearizable_on_wirenet() {
    let cluster = WireCluster::try_spawn(
        WireConfig {
            n: N,
            tick: StdDuration::from_millis(1),
            queue_capacity: 1024,
            backoff: BackoffConfig::default(),
            faults: None,
            record_outputs: true,
        },
        |env| KvReplica::new(env, batched_params()),
    )
    .expect("bind 127.0.0.1 listeners");
    let all: Vec<ProcessId> = (0..N as u32).map(ProcessId).collect();
    let (hold, timeout) = (StdDuration::from_millis(300), StdDuration::from_secs(10));
    let leader = await_stable_leader(&cluster, &all, KvEvent::leader, hold, timeout)
        .expect("wirenet: no stable leader");
    let ops = workload();
    for op in &ops {
        cluster.request(leader, op.clone());
    }
    let deadline = StdInstant::now() + StdDuration::from_secs(30);
    let mut cursor = OutputCursor::default();
    let mut applied = [0; N];
    while applied.iter().any(|&a| a < ops.len()) {
        assert!(
            StdInstant::now() < deadline,
            "wirenet: replicas never applied the full workload"
        );
        std::thread::sleep(StdDuration::from_millis(5));
        for t in cluster.outputs_since(&mut cursor) {
            if matches!(t.output, KvEvent::Applied { .. }) {
                applied[t.process.as_usize()] += 1;
            }
        }
    }
    let report = cluster.stop();
    let outputs: Vec<(ProcessId, KvEvent)> = report
        .outputs()
        .iter()
        .map(|t| (t.process, t.output.clone()))
        .collect();
    check_linearizable(&histories_from(&outputs), "wirenet");
}
