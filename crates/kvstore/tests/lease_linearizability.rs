//! Lease-read linearizability: three concurrent writer sessions and three
//! reader sessions on every substrate, with *real-time read witnesses* —
//! a read must observe the latest write that real-time-precedes it, no
//! matter which path (lease, read-index, or log) served it.
//!
//! On netsim the witness is exact: the simulator's virtual clock dates
//! every commit and every read issue, so "write `w` committed anywhere
//! before read `r` was issued" is a decidable predicate and any read
//! observing an older register position is convicted as stale. On the
//! wall-clock substrates the witness is by construction: a round's reads
//! are only issued after the round's write settled at the leader, so
//! observing an earlier round is a real-time violation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{ConsensusParams, LeaseParams, ReplicatedLog};
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, KvResponse, Tagged};
use lls_obs::{NodeRecorders, Watchdog, WatchdogConfig};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use threadnet::{Cluster, NetConfig, OutputCursor, TimedOutput};
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

/// Maps a cluster's latest outputs to the per-node leader view
/// [`await_unanimity`] polls.
fn leader_view(latest: Vec<Option<KvEvent>>) -> Vec<Option<ProcessId>> {
    latest
        .into_iter()
        .map(|o| match o {
            Some(KvEvent::Leader(l)) => Some(l),
            _ => None,
        })
        .collect()
}

/// Quiescence polling (no fixed sleeps): waits until every member reports
/// the same leader and that agreement holds for a stability window.
fn await_unanimity(
    latest: impl Fn() -> Vec<Option<ProcessId>>,
    members: &[ProcessId],
    timeout: StdDuration,
) -> Option<ProcessId> {
    let deadline = StdInstant::now() + timeout;
    let mut agreed: Option<(ProcessId, StdInstant)> = None;
    loop {
        let outs = latest();
        let views: Vec<Option<ProcessId>> = members.iter().map(|p| outs[p.as_usize()]).collect();
        let unanimous = views
            .first()
            .and_then(|o| *o)
            .filter(|first| views.iter().all(|o| *o == Some(*first)));
        match (unanimous, agreed) {
            (Some(l), Some((held, since))) if l == held => {
                if since.elapsed() >= StdDuration::from_millis(150) {
                    return Some(l);
                }
            }
            (Some(l), _) => agreed = Some((l, StdInstant::now())),
            (None, _) => agreed = None,
        }
        if StdInstant::now() > deadline {
            return None;
        }
        std::thread::sleep(StdDuration::from_millis(20));
    }
}

/// Polls `poll` until it yields, re-invoking `reissue` on a client-style
/// retry cadence (a forwarded read-index may race a leader change and
/// drop; the retry is the liveness story, exactly as for a real client).
fn await_settle(
    mut poll: impl FnMut() -> Option<KvResponse>,
    reissue: impl Fn(),
    timeout: StdDuration,
) -> Option<KvResponse> {
    let deadline = StdInstant::now() + timeout;
    let mut last_issue = StdInstant::now();
    loop {
        if let Some(r) = poll() {
            return Some(r);
        }
        if StdInstant::now() > deadline {
            return None;
        }
        if last_issue.elapsed() >= StdDuration::from_millis(400) {
            reissue();
            last_issue = StdInstant::now();
        }
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

/// The first settlement of each `(node, client, seq)` a wall-clock
/// cluster has emitted, read once each through a cursor.
#[derive(Default)]
struct Settled {
    cursor: OutputCursor,
    first: BTreeMap<(ProcessId, ClientId, u64), KvResponse>,
}

impl Settled {
    /// Folds in what `outputs_since` returns past the cursor, then looks up
    /// the first settlement of `(client, seq)` observed at `node`.
    fn find(
        &mut self,
        outputs_since: impl FnOnce(&mut OutputCursor) -> Vec<TimedOutput<KvEvent>>,
        node: ProcessId,
        client: ClientId,
        seq: u64,
    ) -> Option<KvResponse> {
        for t in outputs_since(&mut self.cursor) {
            if let KvEvent::Applied {
                client,
                seq,
                response,
                ..
            } = t.output
            {
                self.first
                    .entry((t.process, client, seq))
                    .or_insert(response);
            }
        }
        self.first.get(&(node, client, seq)).cloned()
    }
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

#[test]
fn threadnet_rounds_stay_fresh_across_a_leader_kill() {
    let n = 5;
    let rounds = 6u64;
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let config = NetConfig {
        n,
        loss: 0.0,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(500),
        tick: StdDuration::from_millis(1),
        seed: 23,
    };
    let cluster = Cluster::spawn_traced(config, recorders.clocks(), |env| {
        ReplicatedLog::builder(env, lease_params())
            .probe(watchdog.probe(recorders.probe_for(env.id())))
            .build()
            .and_then(KvReplica::from_log)
            .unwrap()
    });
    let mut alive: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let mut settled = Settled::default();
    let mut served = 0u64;
    let mut leader = await_unanimity(|| leader_view(cluster.latest_outputs()), &alive, timeout);
    for round in 1..=rounds {
        if round == rounds / 2 + 1 {
            if let Some(victim) = leader {
                cluster.kill(victim);
                alive.retain(|p| *p != victim);
            }
            leader = await_unanimity(|| leader_view(cluster.latest_outputs()), &alive, timeout);
        }
        let Some(l) = leader else {
            panic!("no leader settled for round {round}")
        };
        // Rotate the writing session: three writers share the register.
        let writer = ClientId(1 + (round - 1) % 3);
        let wseq = round.div_ceil(3);
        let write = Tagged {
            client: writer,
            seq: wseq,
            cmd: KvCmd::put(KEY, rval(round)),
        };
        cluster.request(l, write.clone());
        if await_settle(
            || settled.find(|c| cluster.outputs_since(c), l, writer, wseq),
            || cluster.request(l, write.clone()),
            timeout,
        )
        .is_none()
        {
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
            cluster.request(node, read.clone());
            let response = await_settle(
                || settled.find(|c| cluster.outputs_since(c), node, reader_at(node), round),
                || cluster.request(node, read.clone()),
                timeout,
            );
            if judge(round, node, response) {
                served += 1;
            }
        }
    }
    cluster.stop();
    assert!(served > 0, "some reads must settle");
    assert_eq!(watchdog.alarm_count(), 0, "watchdog must stay quiet");
}

#[test]
fn wirenet_rounds_stay_fresh_across_a_leader_kill() {
    let n = 3;
    let rounds = 4u64;
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let config = WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: None,
        record_outputs: true,
    };
    let Ok(mut cluster) = WireCluster::try_spawn_traced(config, recorders.clocks(), |env| {
        ReplicatedLog::builder(env, lease_params())
            .probe(watchdog.probe(recorders.probe_for(env.id())))
            .build()
            .and_then(KvReplica::from_log)
            .unwrap()
    }) else {
        eprintln!("skipping: cannot bind 127.0.0.1 listeners in this sandbox");
        return;
    };
    let mut alive: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let mut settled = Settled::default();
    let mut served = 0u64;
    let mut leader = await_unanimity(|| leader_view(cluster.latest_outputs()), &alive, timeout);
    for round in 1..=rounds {
        if round == rounds / 2 + 1 {
            if let Some(victim) = leader {
                cluster.kill(victim);
                alive.retain(|p| *p != victim);
            }
            leader = await_unanimity(|| leader_view(cluster.latest_outputs()), &alive, timeout);
        }
        let Some(l) = leader else {
            panic!("no leader settled for round {round}")
        };
        let writer = ClientId(1 + (round - 1) % 3);
        let wseq = round.div_ceil(3);
        let write = Tagged {
            client: writer,
            seq: wseq,
            cmd: KvCmd::put(KEY, rval(round)),
        };
        cluster.request(l, write.clone());
        if await_settle(
            || settled.find(|c| cluster.outputs_since(c), l, writer, wseq),
            || cluster.request(l, write.clone()),
            timeout,
        )
        .is_none()
        {
            continue;
        }
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
            cluster.request(node, read.clone());
            let response = await_settle(
                || settled.find(|c| cluster.outputs_since(c), node, reader_at(node), round),
                || cluster.request(node, read.clone()),
                timeout,
            );
            if judge(round, node, response) {
                served += 1;
            }
        }
    }
    cluster.stop();
    assert!(served > 0, "some reads must settle");
    assert_eq!(watchdog.alarm_count(), 0, "watchdog must stay quiet");
}
