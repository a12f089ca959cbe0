//! Lease safety properties, proptested over the adversary's knobs:
//! arbitrary clock-skew bounds, lease durations, and kill/restart
//! schedules. Two invariants must hold on *every* execution:
//!
//! 1. **No overlap in adjusted time** — a granted lease never overlaps a
//!    successor's lease: whenever a new holder acquires, every previous
//!    holder's conservative serving window has already closed. Checked
//!    two ways: by the `LeaseOverlap` watchdog and by an independent
//!    replay of the collected `LeaseAcquired` stream.
//! 2. **Restarts never resume** — a leader that crashes and recovers from
//!    its WAL never serves a lease-read on the strength of its pre-crash
//!    lease: its first post-restart lease serve is preceded by a fresh
//!    post-restart quorum acquisition (the boot blackout is what makes
//!    this true even when the process comes back within its old window).
//!
//! Alongside both, the real-time witness from the linearizability suite:
//! no read, on any schedule, observes a register older than the latest
//! write committed before it was issued.
//!
//! Invariant 1 runs on both node types: a [`KvReplica`], and a
//! [`ShardedKvNode`] whose groups renew their leases in one merged round
//! per node, with lease windows checked per shard.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use consensus::{
    ConsensusParams, LeaseParams, PlacementManager, PlacementMap, ReplicatedLog, ShardId,
    ShardedNode,
};
use kvstore::{
    ClientId, KvCmd, KvEvent, KvReplica, KvResponse, ShardedKvEvent, ShardedKvNode, Tagged,
};
use lls_obs::{Probe, ProbeEvent, ReadMode, Watchdog, WatchdogConfig, WatchdogProbe};
use lls_primitives::{Duration, Env, Instant, ProcessId, Sm, StorageHandle};
use netsim::{SimBuilder, Simulator, Topology};
use proptest::prelude::*;

const KEY: &str = "reg";
const WRITER: ClientId = ClientId(9);

/// A probe that appends every event to a shared vector, so properties can
/// replay the lease/read streams independently of the watchdog.
#[derive(Debug, Clone)]
struct Collect(Arc<Mutex<Vec<ProbeEvent>>>);

impl Probe for Collect {
    fn emit(&self, event: ProbeEvent) {
        self.0.lock().expect("collector poisoned").push(event);
    }
}

type Replica = KvReplica<WatchdogProbe<Collect>>;
type ShardedReplica = ShardedKvNode<WatchdogProbe<Collect>>;

/// What the properties read of a node type.
trait KvNode: Sm<Request = Tagged<KvCmd>> {
    /// The node's Ω output.
    fn leader(&self) -> ProcessId;
    /// `(client, seq, response)` of an applied command or a served read.
    fn applied(out: &Self::Output) -> Option<(ClientId, u64, &KvResponse)>;
}

impl KvNode for Replica {
    fn leader(&self) -> ProcessId {
        self.omega().leader()
    }
    fn applied(out: &KvEvent) -> Option<(ClientId, u64, &KvResponse)> {
        match out {
            KvEvent::Applied {
                client,
                seq,
                response,
                ..
            } => Some((*client, *seq, response)),
            _ => None,
        }
    }
}

impl KvNode for ShardedReplica {
    fn leader(&self) -> ProcessId {
        self.omega().leader()
    }
    fn applied(out: &ShardedKvEvent) -> Option<(ClientId, u64, &KvResponse)> {
        match out {
            ShardedKvEvent::Applied {
                client,
                seq,
                response,
                ..
            } => Some((*client, *seq, response)),
            _ => None,
        }
    }
}

fn params_for(duration: u64, skew: u64) -> ConsensusParams {
    ConsensusParams {
        lease: LeaseParams {
            enabled: true,
            duration: Duration::from_ticks(duration),
            skew: Duration::from_ticks(skew),
            unsafe_skew_inversion: false,
        },
        ..ConsensusParams::default()
    }
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

/// Advances the simulation until every live node reports the same leader
/// (or the budget runs out), returning that leader.
fn settle_leader<N: KvNode>(
    sim: &mut Simulator<N>,
    n: usize,
    t: &mut u64,
    budget: u64,
) -> ProcessId {
    let cap = *t + budget;
    loop {
        let views: Vec<ProcessId> = (0..n as u32)
            .map(ProcessId)
            .filter(|&p| sim.is_alive(p))
            .map(|p| sim.node(p).leader())
            .collect();
        let first = views[0];
        if views.iter().all(|&v| v == first) && sim.is_alive(first) {
            return first;
        }
        *t += 200;
        sim.run_until(Instant::from_ticks(*t));
        if *t >= cap {
            return first;
        }
    }
}

/// A read injected into the run: where, who, and when.
struct IssuedRead {
    node: ProcessId,
    client: ClientId,
    seq: u64,
    at: u64,
}

/// Schedules a read at every currently-live node.
fn read_everywhere<N: KvNode>(
    sim: &mut Simulator<N>,
    n: usize,
    t: u64,
    seqs: &mut BTreeMap<ProcessId, u64>,
    issued: &mut Vec<IssuedRead>,
) {
    for p in (0..n as u32).map(ProcessId) {
        if !sim.is_alive(p) {
            continue;
        }
        let seq = seqs.entry(p).or_insert(0);
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
    }
}

/// The real-time witness: a served read observing write `i` is stale iff
/// any later write had committed — anywhere — before the read was issued.
fn assert_no_stale_reads<N: KvNode>(sim: &Simulator<N>, issued: &[IssuedRead]) {
    let outputs = sim.outputs();
    let mut commit_at: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in outputs {
        if let Some((WRITER, seq, KvResponse::Applied { .. })) = N::applied(&ev.output) {
            let at = commit_at.entry(seq).or_insert(ev.at.ticks());
            *at = (*at).min(ev.at.ticks());
        }
    }
    for read in issued {
        let serve = outputs.iter().find_map(|ev| match N::applied(&ev.output) {
            Some((client, seq, KvResponse::Value { value }))
                if ev.process == read.node && client == read.client && seq == read.seq =>
            {
                Some(index_of(value.as_deref()))
            }
            _ => None,
        });
        let Some(observed) = serve else { continue };
        for (&seq, &committed) in &commit_at {
            assert!(
                seq <= observed || committed > read.at,
                "stale read at {}: observed v{observed} at issue t{} but v{seq} \
                 committed at t{committed}",
                read.node,
                read.at
            );
        }
    }
}

/// Replays the collected `LeaseAcquired` stream and asserts no two
/// holders' windows on one shard ever overlap, independently of the
/// watchdog.
fn assert_no_lease_overlap(events: &[ProbeEvent], duration: u64) {
    let mut windows: BTreeMap<(u32, ProcessId), Instant> = BTreeMap::new();
    for ev in events {
        if let ProbeEvent::LeaseAcquired {
            node,
            at,
            until,
            shard,
            ..
        } = ev
        {
            for ((on, holder), end) in &windows {
                assert!(
                    on != shard || *holder == *node || *at >= *end,
                    "{node} acquired shard {shard} at {at:?} while {holder}'s lease \
                     runs to {end:?}"
                );
            }
            // The serving window never extends a full duration past the
            // quorum point: `until` is anchored at the *round start*, which
            // precedes the quorum, minus the skew margin.
            assert!(
                until.ticks() <= at.ticks() + duration,
                "window too generous: acquired {at:?}, until {until:?}, duration {duration}"
            );
            let end = windows.entry((*shard, *node)).or_insert(*until);
            *end = (*end).max(*until);
        }
    }
}

/// The body of invariant 1: a write and reads everywhere under each
/// `(pre, dead)` of `schedule` — the settled leader is killed `pre` ticks
/// after the write, left dead for `dead` ticks, and recovered by `build`
/// from its own storage. Returns the run and the reads it issued.
fn run_kill_restart_schedule<N: KvNode>(
    n: usize,
    seed: u64,
    schedule: &[(u64, u64)],
    build: impl Fn(&Env) -> N,
) -> (Simulator<N>, Vec<IssuedRead>) {
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .build_with(&build);
    let mut t = 3_000u64;
    sim.run_until(Instant::from_ticks(t));
    let mut wseq = 0u64;
    let mut rseqs: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let mut issued: Vec<IssuedRead> = Vec::new();
    for &(pre, dead) in schedule {
        let leader = settle_leader(&mut sim, n, &mut t, 8_000);
        wseq += 1;
        sim.schedule_request(
            Instant::from_ticks(t + 10),
            leader,
            Tagged {
                client: WRITER,
                seq: wseq,
                cmd: KvCmd::put(KEY, value_of(wseq)),
            },
        );
        read_everywhere(&mut sim, n, t + pre / 2, &mut rseqs, &mut issued);
        t += pre;
        sim.run_until(Instant::from_ticks(t));
        let victim = settle_leader(&mut sim, n, &mut t, 8_000);
        sim.kill(victim);
        read_everywhere(&mut sim, n, t + dead / 2, &mut rseqs, &mut issued);
        t += dead;
        sim.run_until(Instant::from_ticks(t));
        sim.restart(victim, build(&Env::new(victim, n)));
        t += 2_500;
        sim.run_until(Instant::from_ticks(t));
        read_everywhere(&mut sim, n, t, &mut rseqs, &mut issued);
    }
    t += 3_000;
    sim.run_until(Instant::from_ticks(t));
    (sim, issued)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Invariant 1 under arbitrary kill/restart schedules: however the
    /// leader is killed, left dead, and recovered, no two lease windows
    /// overlap, the watchdog stays silent, and no read is ever stale.
    #[test]
    fn leases_never_overlap_under_kill_restart_schedules(
        duration in 60u64..=200,
        skew in 0u64..=8,
        seed in any::<u64>(),
        schedule in proptest::collection::vec((300u64..=1_500, 100u64..=1_200), 1..=2),
    ) {
        let n = 3;
        let params = params_for(duration, skew);
        let events = Arc::new(Mutex::new(Vec::new()));
        let watchdog = Watchdog::new(n, WatchdogConfig::default());
        let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
        let (sim, issued) = run_kill_restart_schedule(n, seed, &schedule, |env| {
            ReplicatedLog::builder(env, params)
                .storage(stores[env.id().as_usize()].clone())
                .probe(watchdog.probe(Collect(Arc::clone(&events))))
                .build()
                .and_then(KvReplica::from_log)
                .expect("in-memory store")
        });
        prop_assert_eq!(watchdog.alarm_count(), 0, "watchdog alarms: {:?}", watchdog.alarms());
        assert_no_lease_overlap(&events.lock().expect("collector poisoned"), duration);
        assert_no_stale_reads(&sim, &issued);
    }

    /// Invariant 1 on a sharded node at S = 2: each group recovers from its
    /// own WAL segment and the shared Ω from its own, and no two lease
    /// windows on one shard overlap although every node renews all its
    /// groups' leases in one round.
    #[test]
    fn sharded_leases_never_overlap_under_kill_restart_schedules(
        duration in 60u64..=200,
        skew in 0u64..=8,
        seed in any::<u64>(),
        schedule in proptest::collection::vec((300u64..=1_500, 100u64..=1_200), 1..=2),
    ) {
        let (n, shards) = (3, 2);
        let params = params_for(duration, skew);
        let events = Arc::new(Mutex::new(Vec::new()));
        let watchdog = Watchdog::new(n, WatchdogConfig::default());
        let map = PlacementMap::uniform(shards, n);
        let stores: Vec<(BTreeMap<ShardId, StorageHandle>, StorageHandle)> = (0..n)
            .map(|_| {
                let segments = map.shard_ids().map(|s| (s, StorageHandle::in_memory())).collect();
                (segments, StorageHandle::in_memory())
            })
            .collect();
        let (sim, issued) = run_kill_restart_schedule(n, seed, &schedule, |env| {
            let (segments, omega) = &stores[env.id().as_usize()];
            ShardedNode::builder(env, params, PlacementManager::with_all_attached(map.clone()))
                .storage(segments, omega.clone())
                .probe(watchdog.probe(Collect(Arc::clone(&events))))
                .build()
                .and_then(ShardedReplica::from_log)
                .expect("in-memory segments")
        });
        prop_assert_eq!(watchdog.alarm_count(), 0, "watchdog alarms: {:?}", watchdog.alarms());
        let events = events.lock().expect("collector poisoned");
        for shard in 0..shards {
            prop_assert!(
                events.iter().any(|e| matches!(e, ProbeEvent::LeaseAcquired { shard: s, .. } if *s == shard)),
                "shard {} never held a lease",
                shard
            );
        }
        assert_no_lease_overlap(&events, duration);
        assert_no_stale_reads(&sim, &issued);
    }

    /// Invariant 2: a leaseholder killed mid-lease and restarted after an
    /// arbitrary delay — possibly well inside its old serving window —
    /// never lease-serves again until a fresh quorum re-acquisition.
    #[test]
    fn restarted_leaders_never_resume_an_expired_lease(
        duration in 60u64..=200,
        skew in 0u64..=8,
        dead in 10u64..=400,
        seed in any::<u64>(),
    ) {
        let n = 3;
        let params = params_for(duration, skew);
        let events = Arc::new(Mutex::new(Vec::new()));
        let watchdog = Watchdog::new(n, WatchdogConfig::default());
        let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
        let mut sim = SimBuilder::new(n).record_outputs()
            .seed(seed)
            .topology(Topology::all_timely(n, Duration::from_ticks(2)))
            .build_with(|env| {
                ReplicatedLog::builder(env, params)
                    .storage(stores[env.id().as_usize()].clone())
                    .probe(watchdog.probe(Collect(Arc::clone(&events))))
                    .build()
                    .and_then(KvReplica::from_log)
                    .expect("fresh in-memory store")
            });
        let mut t = 3_000u64;
        sim.run_until(Instant::from_ticks(t));
        let holder = settle_leader(&mut sim, n, &mut t, 8_000);
        sim.schedule_request(
            Instant::from_ticks(t + 10),
            holder,
            Tagged { client: WRITER, seq: 1, cmd: KvCmd::put(KEY, value_of(1)) },
        );
        let mut rseqs: BTreeMap<ProcessId, u64> = BTreeMap::new();
        let mut issued: Vec<IssuedRead> = Vec::new();
        read_everywhere(&mut sim, n, t + 200, &mut rseqs, &mut issued);
        t += 400;
        sim.run_until(Instant::from_ticks(t));
        // The holder must actually be lease-serving before the crash, or
        // the property would pass vacuously.
        {
            let collected = events.lock().expect("collector poisoned");
            prop_assume!(collected.iter().any(|e| matches!(
                e,
                ProbeEvent::ReadServed { node, mode: ReadMode::Lease, .. } if *node == holder
            )));
        }
        sim.kill(holder);
        let restart_at = t + dead;
        t = restart_at;
        sim.run_until(Instant::from_ticks(t));
        let env = Env::new(holder, n);
        let recovered = ReplicatedLog::builder(&env, params)
            .storage(stores[holder.as_usize()].clone())
            .probe(watchdog.probe(Collect(Arc::clone(&events))))
            .build()
            .and_then(KvReplica::from_log)
            .expect("recover from the holder's WAL");
        sim.restart(holder, recovered);
        // Pepper the restarted node with reads across the tail: inside its
        // old window, across the boot blackout, and beyond.
        for k in 0..20u64 {
            read_everywhere(&mut sim, n, t + 50 + k * 150, &mut rseqs, &mut issued);
        }
        t += 50 + 20 * 150 + 3_000;
        sim.run_until(Instant::from_ticks(t));

        // Every post-restart lease serve by the old holder is covered by a
        // *fresh* post-restart acquisition.
        let collected = events.lock().expect("collector poisoned");
        let restart = Instant::from_ticks(restart_at);
        let mut fresh_acquire: Option<Instant> = None;
        for ev in collected.iter() {
            match ev {
                ProbeEvent::LeaseAcquired { node, at, .. }
                    if *node == holder && *at >= restart =>
                {
                    fresh_acquire.get_or_insert(*at);
                }
                ProbeEvent::ReadServed { node, at, mode: ReadMode::Lease, .. }
                    if *node == holder && *at >= restart =>
                {
                    prop_assert!(
                        fresh_acquire.is_some_and(|a| a <= *at),
                        "restarted {holder} lease-served at {at:?} without a fresh \
                         post-restart acquisition (restarted at {restart:?})"
                    );
                }
                _ => {}
            }
        }
        prop_assert_eq!(watchdog.alarm_count(), 0, "watchdog alarms: {:?}", watchdog.alarms());
        assert_no_stale_reads(&sim, &issued);
    }
}
