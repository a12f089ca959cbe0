//! Lease-read linearizability: three concurrent writer sessions and three
//! reader sessions on both substrates, with *real-time read witnesses* —
//! a read must observe the latest write that real-time-precedes it, no
//! matter which path (lease, read-index, or log) served it.
//!
//! On netsim the witness is exact: the simulator's virtual clock dates
//! every commit and every read issue, so "write `w` committed anywhere
//! before read `r` was issued" is a decidable predicate and any read
//! observing an older register position is convicted as stale. Over TCP
//! the witness is by construction: a round's reads
//! are only issued after the round's write settled at the leader, so
//! observing an earlier round is a real-time violation.

mod util;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration as StdDuration;

use consensus::{ConsensusParams, LeaseParams, ReplicatedLog};
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, KvResponse, Tagged};
use lls_obs::{NodeRecorders, Watchdog, WatchdogConfig};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use util::Settled;
use wirenet::{BackoffConfig, WireCluster, WireConfig};

/// The single register all sessions contend on.
const KEY: &str = "reg";

fn lease_params() -> ConsensusParams {
    ConsensusParams {
        lease: LeaseParams::enabled(),
        ..ConsensusParams::default()
    }
}

/// Reader session for reads served at node `p`.
fn reader_at(p: ProcessId) -> ClientId {
    ClientId(100 + u64::from(p.0))
}

// ---------------------------------------------------------------------------
// Netsim: exact real-time witnesses on the virtual clock.
// ---------------------------------------------------------------------------

/// A read injected into the netsim run: where, who, and when.
struct IssuedRead {
    node: ProcessId,
    client: ClientId,
    seq: u64,
    at: u64,
}

/// Writer `c`'s `i`-th value — unique across the whole history, so an
/// observed value identifies exactly one write.
fn wval(c: u64, i: u64) -> String {
    format!("w{c}s{i}")
}

#[test]
fn concurrent_readers_never_observe_a_stale_register() {
    let n = 5;
    let writers: Vec<ClientId> = (1..=3).map(ClientId).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let params = lease_params();
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(23)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .build_with(|env| {
            ReplicatedLog::builder(env, params)
                .probe(watchdog.probe(recorders.probe_for(env.id())))
                .build()
                .and_then(KvReplica::from_log)
                .unwrap()
        });
    sim.run_until(Instant::from_ticks(3_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    let read_nodes: Vec<ProcessId> = std::iter::once(leader)
        .chain((0..n as u32).map(ProcessId).filter(|&p| p != leader))
        .take(3)
        .collect();

    // Three writer sessions interleave 6 writes each at the leader; after
    // every write round the three reader sessions fire concurrently — at
    // times deliberately *not* aligned with the writes' settle points, so
    // reads race in-flight commits.
    let mut issued: Vec<IssuedRead> = Vec::new();
    let mut read_seqs: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut t = 3_000u64;
    for i in 1..=6u64 {
        for w in &writers {
            sim.schedule_request(
                Instant::from_ticks(t),
                leader,
                Tagged {
                    client: *w,
                    seq: i,
                    cmd: KvCmd::put(KEY, wval(w.0, i)),
                },
            );
            t += 40;
            for &p in &read_nodes {
                let seq = read_seqs.entry(p).or_insert(0);
                *seq += 1;
                issued.push(IssuedRead {
                    node: p,
                    client: reader_at(p),
                    seq: *seq,
                    at: t,
                });
                sim.schedule_request(
                    Instant::from_ticks(t),
                    p,
                    Tagged {
                        client: reader_at(p),
                        seq: *seq,
                        cmd: KvCmd::read(KEY),
                    },
                );
                t += 7; // co-prime with the write cadence: reads drift
                        // across every phase of the commit pipeline
            }
        }
    }
    sim.run_until(Instant::from_ticks(t + 10_000));

    // The witness. Each write's register position is its log slot; its
    // real-time commit point is the earliest tick *any* node applied it.
    let outputs = sim.outputs();
    let mut slot_of: BTreeMap<String, u64> = BTreeMap::new();
    let mut commit_at: BTreeMap<String, u64> = BTreeMap::new();
    for ev in outputs {
        if let KvEvent::Applied {
            client,
            seq,
            slot,
            response: KvResponse::Applied { .. },
        } = &ev.output
        {
            if writers.contains(client) {
                let v = wval(client.0, *seq);
                slot_of.entry(v.clone()).or_insert(*slot);
                let at = commit_at.entry(v).or_insert(ev.at.ticks());
                *at = (*at).min(ev.at.ticks());
            }
        }
    }
    assert_eq!(slot_of.len(), 18, "all 18 writes must commit");

    let mut served = 0u64;
    for read in &issued {
        let serve = outputs.iter().find_map(|ev| match &ev.output {
            KvEvent::Applied {
                client,
                seq,
                response: KvResponse::Value { value },
                ..
            } if ev.process == read.node && *client == read.client && *seq == read.seq => {
                Some(value.clone())
            }
            _ => None,
        });
        let Some(value) = serve else { continue };
        served += 1;
        // Register position the read observed: the slot of the value it
        // returned, or "before every write" for an empty register.
        let observed: Option<u64> = value.as_ref().map(|v| {
            *slot_of
                .get(v)
                .unwrap_or_else(|| panic!("read fabricated a value: {v:?}"))
        });
        // Real-time obligation: no write with a later register position
        // may have committed anywhere before this read was issued.
        for (v, &slot) in &slot_of {
            if observed.is_none_or(|o| slot > o) && commit_at[v] <= read.at {
                panic!(
                    "stale read at {} ({:?} seq {}): observed {:?} (pos {observed:?}) \
                     but {v:?} (slot {slot}) committed at t{} <= issue t{}",
                    read.node, read.client, read.seq, value, commit_at[v], read.at
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
    // And the replicas converge on one final register.
    let reference = sim.node(ProcessId(0)).state().get(KEY).map(str::to_owned);
    assert!(reference.is_some());
    for p in (1..n as u32).map(ProcessId) {
        assert_eq!(
            sim.node(p).state().get(KEY).map(str::to_owned),
            reference,
            "p{p} diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Wall clock: freshness by construction (settle-then-read rounds).
// ---------------------------------------------------------------------------

/// Round `r`'s register value; [`round_of`] is its inverse.
fn rval(r: u64) -> String {
    format!("r{r}")
}

fn round_of(value: Option<&str>) -> u64 {
    value
        .and_then(|v| v.strip_prefix('r'))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One read's verdict against the round-based witness: round `r`'s reads
/// are issued only after write `r` settled, so observing an older round
/// is a real-time violation.
fn judge(round: u64, node: ProcessId, response: Option<KvResponse>) -> bool {
    match response {
        Some(KvResponse::Value { value }) => {
            assert!(
                round_of(value.as_deref()) >= round,
                "stale read at {node}: observed {value:?} after write {round} settled"
            );
            true
        }
        // A deduped retry: settled, but its value is unobservable.
        Some(_) => true,
        None => false,
    }
}

/// Settle-then-read rounds over TCP, with the leader killed halfway
/// through: each round's write (three writer sessions take turns) settles
/// at the leader before the leaseholder and two followers read it. At
/// n = 5 the kill exercises the overlapping-lease window the lease holdoff
/// closes: a deposed leader must not re-elect inside its successor's live
/// lease.
#[test]
fn wirenet_rounds_stay_fresh_across_a_leader_kill() {
    let (n, rounds) = (5, 6);
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
    let mut cluster = WireCluster::try_spawn_traced(config, recorders.clocks(), |env| {
        ReplicatedLog::builder(env, lease_params())
            .probe(watchdog.probe(recorders.probe_for(env.id())))
            .build()
            .and_then(KvReplica::from_log)
            .unwrap()
    })
    .expect("bind 127.0.0.1 listeners");
    let mut alive: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let hold = StdDuration::from_millis(150);
    let mut settled = Settled::default();
    let mut served = 0u64;
    let mut leader = cluster.await_stable_leader(&alive, KvEvent::leader, hold, timeout);
    for round in 1..=rounds {
        if round == rounds / 2 + 1 {
            if let Some(victim) = leader {
                cluster.kill(victim);
                alive.retain(|p| *p != victim);
            }
            leader = cluster.await_stable_leader(&alive, KvEvent::leader, hold, timeout);
        }
        let Some(l) = leader else {
            panic!("no leader settled for round {round}")
        };
        // Rotate the writing session: three writers share the register.
        let write = Tagged {
            client: ClientId(1 + (round - 1) % 3),
            seq: round.div_ceil(3),
            cmd: KvCmd::put(KEY, rval(round)),
        };
        if settled.request(&cluster, l, write, timeout).is_none() {
            continue; // Unsettled write: this round's reads cannot be judged.
        }
        // Three reader sessions: the leaseholder plus two followers.
        for &node in alive
            .iter()
            .filter(|&&p| p == l)
            .chain(alive.iter().filter(|&&p| p != l).take(2))
        {
            let read = Tagged {
                client: reader_at(node),
                seq: round,
                cmd: KvCmd::read(KEY),
            };
            if judge(round, node, settled.request(&cluster, node, read, timeout)) {
                served += 1;
            }
        }
    }
    cluster.stop();
    assert!(served > 0, "some reads must settle");
    assert_eq!(watchdog.alarm_count(), 0, "watchdog must stay quiet");
}
