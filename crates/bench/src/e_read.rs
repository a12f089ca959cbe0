//! Experiment E23: leader leases and the linearizable fast read path.
//!
//! Every prior throughput experiment paid a full replication round trip
//! per *read* — the log-read baseline. E23 measures the lease plane
//! ([`consensus::LeaseParams`]) end to end through the kvstore:
//!
//! 1. **Fast-path speedup** — on netsim, the same offered read load is
//!    drained twice: leases on (the stable leader serves every read from
//!    its local store, zero log traffic) and leases off (each read
//!    replicates through the log). The gate: lease-read throughput must
//!    be ≥ 5× the log-read baseline, with both runs draining completely.
//! 2. **Zero stale reads** — three adversarial safety scenarios on netsim
//!    (lease expiry under a partition, a widened clock-skew bound, the
//!    leader killed mid-lease) plus a kill-the-leader round workload on
//!    wirenet. A *stale* read is one whose observed value
//!    predates a write that committed before the read was issued. The
//!    gate: zero stale reads and zero watchdog alarms
//!    ([`lls_obs::AlarmKind::StaleRead`] / `LeaseOverlap`) everywhere.
//! 3. **Ω traffic unchanged** — lease grants ride the existing retry
//!    cadence as their own message kinds, so netsim's deterministic
//!    `ALIVE` counter must stay flat (±10%) with leases on vs off.
//!
//! The deliberately *broken* counterpart — [`e23_violation`] — inverts
//! the skew margins ([`consensus::LeaseParams::unsafe_skew_inversion`])
//! and drives an E12-style adversary: partition the leaseholder mid-lease
//! so a successor is elected *inside* the sabotaged overlap window, write
//! at the successor, then inject reads at the deposed leader. The stale
//! serves must trip the [`StaleRead`](lls_obs::AlarmKind::StaleRead)
//! watchdog with flight-recorder dumps attached; the CLI's
//! `e23-violation` id runs it and exits non-zero when the alarm fires —
//! and CI asserts exactly that exit, proving the detector catches a real
//! lease violation rather than vacuously staying quiet.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{classify_rsm_msg, BatchParams, ConsensusParams, LeaseParams, ReplicatedLog};
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, KvResponse, Tagged};
use lls_obs::{
    AlarmKind, NodeRecorders, RecordingProbe, Registry, Watchdog, WatchdogConfig, WatchdogProbe,
};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Simulator, Topology};
use wirenet::{OutputCursor, WireCluster};

use crate::json::JsonValue;
use crate::percentile;
use crate::table::Table;
use crate::wall::{all, stable_leader, wire_config};

/// The acceptance threshold: netsim lease-read throughput over the
/// log-read baseline.
const SPEEDUP_GATE: f64 = 5.0;

/// Allowed relative drift of the Ω `ALIVE` counter, leases on vs off.
const OMEGA_FLATNESS: f64 = 0.10;

/// The monotone register every scenario reads and writes.
const KEY: &str = "reg";

/// Client identity of the single writer (its seq *is* the write index).
const WRITER: ClientId = ClientId(1);

/// Client identity of the throughput-run reader.
const READER: ClientId = ClientId(2);

/// The replica type every run spawns: recorded probes routed through the
/// shared watchdog.
type WallReplica = KvReplica<WatchdogProbe<RecordingProbe>>;

/// Reader client identity for reads served at node `p` (one session per
/// serving node keeps sequence numbers independent).
fn reader_at(p: ProcessId) -> ClientId {
    ClientId(100 + u64::from(p.0))
}

/// Lease plane on, batching pinned to the strict one-command-per-round-trip
/// baseline so the only axis under test is the read path.
fn lease_params() -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 1,
            pipeline_depth: 1,
        },
        lease: LeaseParams::enabled(),
        ..ConsensusParams::default()
    }
}

/// The log-read baseline: identical in every respect except the lease
/// plane, so reads replicate through the log.
fn log_params() -> ConsensusParams {
    ConsensusParams {
        lease: LeaseParams {
            enabled: false,
            ..LeaseParams::default()
        },
        ..lease_params()
    }
}

/// Monotone register values: write `i` stores `v{i}`.
fn value_of(i: u64) -> String {
    format!("v{i}")
}

/// Inverse of [`value_of`], tolerating `None` (no write observed yet).
fn index_of(value: Option<&str>) -> u64 {
    value
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One measured row of the E23 table.
struct ReadRow {
    substrate: &'static str,
    /// `lease` / `log` for the throughput runs, the scenario name for the
    /// safety runs.
    mode: String,
    /// Reads offered (whose serves the checker could judge).
    reads: u64,
    /// Reads served before the deadline.
    served: u64,
    /// Served reads per unit of `unit` (0 for pure safety rows).
    throughput: f64,
    unit: &'static str,
    /// Issue-to-serve latency percentiles in `lat_unit`.
    p50: u64,
    p99: u64,
    lat_unit: &'static str,
    /// Served reads whose value predates a write committed before issue.
    stale: u64,
    /// Watchdog alarms raised during the run.
    alarms: u64,
    /// Ω heartbeat messages observed (netsim only; 0 on wall clock).
    omega_alive: u64,
}

fn row_json(row: &ReadRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("mode", JsonValue::str(row.mode.clone())),
        ("reads", JsonValue::U64(row.reads)),
        ("served", JsonValue::U64(row.served)),
        ("throughput", JsonValue::F64(row.throughput)),
        ("throughput_unit", JsonValue::str(row.unit)),
        ("latency_p50", JsonValue::U64(row.p50)),
        ("latency_p99", JsonValue::U64(row.p99)),
        ("latency_unit", JsonValue::str(row.lat_unit)),
        ("stale", JsonValue::U64(row.stale)),
        ("alarms", JsonValue::U64(row.alarms)),
        ("omega_alive", JsonValue::U64(row.omega_alive)),
    ])
}

/// A read injected into a netsim safety scenario: where, who, and when.
struct IssuedRead {
    node: ProcessId,
    client: ClientId,
    seq: u64,
    at: u64,
}

/// Counts served and stale reads from a deterministic run's outputs.
///
/// The freshness witness: a read issued at tick `t` that observed write
/// `i` is stale iff write `i + 1` had already committed — anywhere — at
/// `t`. That is exactly the real-time obligation linearizability puts on
/// a read, and exactly what a correct leader lease upholds.
fn count_stale(
    outputs: &[(ProcessId, u64, KvEvent)],
    issued: &[IssuedRead],
) -> (u64, u64, Vec<u64>) {
    let mut commit_at: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, at, ev) in outputs {
        if let KvEvent::Applied {
            client,
            seq,
            response: KvResponse::Applied { .. },
            ..
        } = ev
        {
            if *client == WRITER {
                let t = commit_at.entry(*seq).or_insert(*at);
                *t = (*t).min(*at);
            }
        }
    }
    let mut served = 0u64;
    let mut stale = 0u64;
    let mut latencies = Vec::new();
    for read in issued {
        let serve = outputs.iter().find_map(|(p, at, ev)| match ev {
            KvEvent::Applied {
                client,
                seq,
                response: KvResponse::Value { value },
                ..
            } if *p == read.node && *client == read.client && *seq == read.seq => {
                Some((*at, index_of(value.as_deref())))
            }
            _ => None,
        });
        let Some((at, observed)) = serve else {
            continue; // Unserved (e.g. addressed to a dead node): not stale.
        };
        served += 1;
        latencies.push(at.saturating_sub(read.at));
        if commit_at
            .get(&(observed + 1))
            .is_some_and(|&commit| commit <= read.at)
        {
            stale += 1;
        }
    }
    (served, stale, latencies)
}

/// Flattens a netsim run's outputs into the triples the checker consumes.
fn sim_outputs(sim: &Simulator<WallReplica>) -> Vec<(ProcessId, u64, KvEvent)> {
    sim.outputs()
        .iter()
        .map(|e| (e.process, e.at.ticks(), e.output.clone()))
        .collect()
}

/// Deterministic throughput run: a warm cluster, one seed write, then
/// `reads` read commands injected at the leader at two per tick. With
/// leases on the leaseholder serves each the tick it arrives; off, each
/// replicates through the log at `(1, 1)` batching — one read per round
/// trip. Both run to the same horizon so the Ω counters are comparable.
fn netsim_throughput_run(
    n: usize,
    reads: u64,
    leases: bool,
    seed: u64,
    registry: &Registry,
) -> ReadRow {
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let params = if leases { lease_params() } else { log_params() };
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_rsm_msg)
        .build_with(|env| {
            ReplicatedLog::builder(env, params)
                .probe(recorders.probe_for(env.id()))
                .build()
                .and_then(KvReplica::from_log)
                .expect("in-memory log")
        });
    let issue_base = 3_000u64;
    sim.run_until(Instant::from_ticks(issue_base));
    let leader = sim.node(ProcessId(0)).omega().leader();
    sim.schedule_request(
        Instant::from_ticks(issue_base),
        leader,
        Tagged {
            client: WRITER,
            seq: 1,
            cmd: KvCmd::put(KEY, value_of(1)),
        },
    );
    let issue_tick = |i: u64| issue_base + 100 + i / 2;
    for i in 0..reads {
        sim.schedule_request(
            Instant::from_ticks(issue_tick(i)),
            leader,
            Tagged {
                client: READER,
                seq: i + 1,
                cmd: KvCmd::read(KEY),
            },
        );
    }
    // Identical horizon for the lease and log runs: the Ω comparison needs
    // equal simulated time, and the slow path needs the slack anyway.
    sim.run_until(Instant::from_ticks(issue_base + 100 + reads * 14 + 4_000));
    let mut serve_at: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in sim.outputs() {
        if ev.process != leader {
            continue;
        }
        if let KvEvent::Applied {
            client,
            seq,
            response: KvResponse::Value { .. },
            ..
        } = &ev.output
        {
            if *client == READER {
                serve_at.entry(*seq).or_insert(ev.at.ticks());
            }
        }
    }
    let served = serve_at.len() as u64;
    let mut latencies: Vec<u64> = serve_at
        .iter()
        .map(|(&seq, &at)| at.saturating_sub(issue_tick(seq - 1)))
        .collect();
    latencies.sort_unstable();
    let span = serve_at
        .values()
        .max()
        .map_or(0, |last| last.saturating_sub(issue_tick(0)));
    let throughput = if span == 0 {
        0.0
    } else {
        served as f64 * 1_000.0 / span as f64
    };
    let mode = if leases { "lease" } else { "log" };
    let name = format!("e23_netsim_{mode}_read_latency_ticks");
    registry.describe(&name, "E23 issue-to-serve read latency");
    let hist = registry.histogram(&name);
    for &l in &latencies {
        hist.record(l);
    }
    let (p50, p99) = if latencies.is_empty() {
        (0, 0)
    } else {
        (percentile(&latencies, 50.0), percentile(&latencies, 99.0))
    };
    ReadRow {
        substrate: "netsim",
        mode: mode.to_owned(),
        reads,
        served,
        throughput,
        unit: "reads/ktick",
        p50,
        p99,
        lat_unit: "ticks",
        stale: 0,
        alarms: 0,
        omega_alive: sim.stats().kind_counts().get("ALIVE").copied().unwrap_or(0),
    }
}

/// One of the three deterministic safety scenarios. Shared skeleton:
/// writes 1–3 at the stable leaseholder, a disruption mid-lease
/// (`expiry`: partition + heal; `skew`: the same under a 3× skew bound;
/// `kill`: crash), writes 4–6 at the successor, and reads injected at
/// every phase on every relevant node — including the cut-off leaseholder,
/// whose conservatively-expiring window is precisely what is under test.
fn netsim_safety_scenario(kind: &'static str, n: usize, seed: u64) -> ReadRow {
    let params = match kind {
        // Triple the skew bound: the serving window shrinks, the granter
        // holdoff grows, and the no-overlap argument must still hold.
        "skew" => ConsensusParams {
            lease: LeaseParams {
                skew: Duration::from_ticks(24),
                ..LeaseParams::enabled()
            },
            ..lease_params()
        },
        _ => lease_params(),
    };
    let base = Topology::all_timely(n, Duration::from_ticks(2));
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(base.clone())
        .classify(classify_rsm_msg)
        .build_with(|env| {
            ReplicatedLog::builder(env, params)
                .probe(watchdog.probe(recorders.probe_for(env.id())))
                .build()
                .and_then(KvReplica::from_log)
                .expect("in-memory log")
        });
    let mut issued: Vec<IssuedRead> = Vec::new();
    let mut seqs: BTreeMap<ProcessId, u64> = BTreeMap::new();
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let mut read_at = |sim: &mut Simulator<WallReplica>, p: ProcessId, t: u64| {
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
    };
    sim.run_until(Instant::from_ticks(3_000));
    let old = sim.node(ProcessId(0)).omega().leader();
    for i in 1..=3u64 {
        sim.schedule_request(
            Instant::from_ticks(3_000 + i * 60),
            old,
            Tagged {
                client: WRITER,
                seq: i,
                cmd: KvCmd::put(KEY, value_of(i)),
            },
        );
    }
    sim.run_until(Instant::from_ticks(3_300));
    // Phase 1: a lease read at the leaseholder, read-index at followers.
    for &p in &all {
        read_at(&mut sim, p, 3_300);
    }
    sim.run_until(Instant::from_ticks(3_400));
    match kind {
        "kill" => sim.crash_now(old),
        _ => sim.partition_now(&[old]),
    }
    // Reads *during* the disruption window. Whatever the cut-off
    // leaseholder still serves inside its conservative window must be
    // fresh (the granter holdoff blocks any new commit meanwhile), and
    // past its local expiry it must serve nothing at all.
    for t in [3_450u64, 3_550, 3_700, 3_900] {
        for &p in &all {
            if kind == "kill" && p == old {
                continue;
            }
            read_at(&mut sim, p, t);
        }
    }
    // Wait out the granter holdoff and the election of a successor.
    let observer = all.iter().copied().find(|&p| p != old).expect("n >= 2");
    let mut t = 4_400u64;
    sim.run_until(Instant::from_ticks(t));
    let mut successor = sim.node(observer).omega().leader();
    while successor == old && t < 12_000 {
        t += 400;
        sim.run_until(Instant::from_ticks(t));
        successor = sim.node(observer).omega().leader();
    }
    for i in 4..=6u64 {
        sim.schedule_request(
            Instant::from_ticks(t + (i - 3) * 60),
            successor,
            Tagged {
                client: WRITER,
                seq: i,
                cmd: KvCmd::put(KEY, value_of(i)),
            },
        );
    }
    sim.run_until(Instant::from_ticks(t + 400));
    for &p in &all {
        if p != old {
            read_at(&mut sim, p, t + 400);
        }
    }
    if kind != "kill" {
        // Heal, then read at the deposed leader: it must abdicate on the
        // successor's higher ballot and serve through the new lease, never
        // from its stale local state.
        sim.schedule_topology_change(Instant::from_ticks(t + 800), base.clone());
        sim.run_until(Instant::from_ticks(t + 1_400));
        read_at(&mut sim, old, t + 1_400);
    }
    sim.run_until(Instant::from_ticks(t + 3_000));
    let outputs = sim_outputs(&sim);
    let (served, stale, mut latencies) = count_stale(&outputs, &issued);
    latencies.sort_unstable();
    let (p50, p99) = if latencies.is_empty() {
        (0, 0)
    } else {
        (percentile(&latencies, 50.0), percentile(&latencies, 99.0))
    };
    ReadRow {
        substrate: "netsim",
        mode: kind.to_owned(),
        reads: issued.len() as u64,
        served,
        throughput: 0.0,
        unit: "-",
        p50,
        p99,
        lat_unit: "ticks",
        stale,
        alarms: watchdog.alarm_count() as u64,
        omega_alive: 0,
    }
}

/// The first settlement of each `(node, client, seq)` a wall-clock
/// cluster has emitted, with its stamp (the offset from the cluster's
/// epoch), read once each through a cursor.
#[derive(Default)]
struct Settled {
    cursor: OutputCursor,
    first: BTreeMap<(ProcessId, ClientId, u64), (StdDuration, KvResponse)>,
}

impl Settled {
    /// Sends `cmd` to `node` and polls until `node` has settled it,
    /// re-sending it every 400 ms as a client retries (a forwarded
    /// read-index may race a leader change and drop; the retry is the
    /// liveness story, exactly as for a real client). Returns the first
    /// settlement's stamp and response, so its timing does not depend on
    /// the poll; `None` after `timeout`.
    fn request(
        &mut self,
        cluster: &WireCluster<WallReplica>,
        node: ProcessId,
        cmd: Tagged<KvCmd>,
        timeout: StdDuration,
    ) -> Option<(StdDuration, KvResponse)> {
        let key = (node, cmd.client, cmd.seq);
        let deadline = StdInstant::now() + timeout;
        let mut last_issue = StdInstant::now();
        cluster.request(node, cmd.clone());
        loop {
            for t in cluster.outputs_since(&mut self.cursor) {
                if let KvEvent::Applied {
                    client,
                    seq,
                    response,
                    ..
                } = t.output
                {
                    self.first
                        .entry((t.process, client, seq))
                        .or_insert((t.at, response));
                }
            }
            if let Some(response) = self.first.get(&key) {
                return Some(response.clone());
            }
            if StdInstant::now() > deadline {
                return None;
            }
            if last_issue.elapsed() >= StdDuration::from_millis(400) {
                cluster.request(node, cmd.clone());
                last_issue = StdInstant::now();
            }
            std::thread::sleep(StdDuration::from_millis(10));
        }
    }
}

/// What the wall-clock run's reads came to.
#[derive(Default)]
struct WallTally {
    reads: u64,
    served: u64,
    stale: u64,
    latencies_us: Vec<u64>,
}

impl WallTally {
    /// Folds one read's outcome in: `round` is the write index the read
    /// must observe (the round's write settled before the read was
    /// issued, so anything older is stale). `issued` and the settlement's
    /// stamp are both offsets from the cluster's epoch.
    fn settle(
        &mut self,
        round: u64,
        issued: StdDuration,
        settled: Option<(StdDuration, KvResponse)>,
    ) {
        self.reads += 1;
        match settled.map(|(at, response)| (at.saturating_sub(issued), response)) {
            Some((latency, KvResponse::Value { value })) => {
                self.served += 1;
                self.latencies_us
                    .push(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
                if index_of(value.as_deref()) < round {
                    self.stale += 1;
                }
            }
            // Any other settlement carries no value to judge: served, not
            // stale.
            Some(_) => self.served += 1,
            None => {}
        }
    }

    fn into_row(mut self, alarms: u64) -> ReadRow {
        self.latencies_us.sort_unstable();
        let (p50, p99) = if self.latencies_us.is_empty() {
            (0, 0)
        } else {
            (
                percentile(&self.latencies_us, 50.0),
                percentile(&self.latencies_us, 99.0),
            )
        };
        ReadRow {
            substrate: "wirenet",
            mode: "kill".to_owned(),
            reads: self.reads,
            served: self.served,
            throughput: 0.0,
            unit: "-",
            p50,
            p99,
            lat_unit: "us",
            stale: self.stale,
            alarms,
            omega_alive: 0,
        }
    }
}

/// Lockstep round workload over TCP: per round, one write settled at the
/// leader, then a lease read at the leader and a read-index read at a
/// follower — with the leader killed halfway through the rounds (its
/// sockets are torn down). Freshness is by construction: round `i`'s reads
/// are only issued after write `i` settled, so observing anything older is
/// stale.
fn wall_safety_run(n: usize, rounds: u64, seed: u64) -> ReadRow {
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let config = wire_config(n, 0.0, seed);
    let mut cluster = WireCluster::try_spawn_traced(config, recorders.clocks(), |env| {
        ReplicatedLog::builder(env, lease_params())
            .probe(watchdog.probe(recorders.probe_for(env.id())))
            .build()
            .and_then(KvReplica::from_log)
            .expect("in-memory log")
    })
    .expect("bind 127.0.0.1 listeners");
    let mut alive = all(n);
    let timeout = StdDuration::from_secs(10);
    let mut tally = WallTally::default();
    let mut settled = Settled::default();
    let mut leader = stable_leader(&cluster, &alive, KvEvent::leader);
    for round in 1..=rounds {
        if round == rounds / 2 + 1 {
            if let Some(victim) = leader {
                cluster.kill(victim);
                alive.retain(|p| *p != victim);
            }
            leader = stable_leader(&cluster, &alive, KvEvent::leader);
        }
        let Some(l) = leader else { break };
        let write = Tagged {
            client: WRITER,
            seq: round,
            cmd: KvCmd::put(KEY, value_of(round)),
        };
        if settled.request(&cluster, l, write, timeout).is_none() {
            continue; // Unsettled write: this round's reads cannot be judged.
        }
        let follower = alive.iter().copied().find(|&p| p != l);
        for node in [Some(l), follower].into_iter().flatten() {
            let read = Tagged {
                client: reader_at(node),
                seq: round,
                cmd: KvCmd::read(KEY),
            };
            let issued = StdInstant::now() - cluster.epoch();
            let response = settled.request(&cluster, node, read, timeout);
            tally.settle(round, issued, response);
        }
    }
    cluster.stop();
    tally.into_row(watchdog.alarm_count() as u64)
}

/// The E12-style lease adversary, parameterized by the sabotage switch.
///
/// Fat margins (duration 2000, skew 600) stretch the windows so the
/// timeline is unambiguous: with `invert` the deposed leader's local
/// window runs *past* the granters' holdoff, so a successor acquires
/// while the old leader still serves — the overlap a correct skew bound
/// makes impossible. Returns `(stale_read_alarms, total_alarms, dump)`.
fn violation_run(invert: bool, seed: u64) -> (usize, usize, String) {
    let n = 3;
    let params = ConsensusParams {
        lease: LeaseParams {
            enabled: true,
            duration: Duration::from_ticks(2_000),
            skew: Duration::from_ticks(600),
            unsafe_skew_inversion: invert,
        },
        ..lease_params()
    };
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let mut sim = SimBuilder::new(n)
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_rsm_msg)
        .build_with(|env| {
            ReplicatedLog::builder(env, params)
                .probe(watchdog.probe(recorders.probe_for(env.id())))
                .build()
                .and_then(KvReplica::from_log)
                .expect("in-memory log")
        });
    sim.run_until(Instant::from_ticks(3_400));
    let old = sim.node(ProcessId(0)).omega().leader();
    sim.schedule_request(
        Instant::from_ticks(3_400),
        old,
        Tagged {
            client: WRITER,
            seq: 1,
            cmd: KvCmd::put(KEY, value_of(1)),
        },
    );
    sim.run_until(Instant::from_ticks(3_800));
    sim.partition_now(&[old]);
    // Walk forward until the majority side's successor holds an *active*
    // lease (under the inverted margins this lands inside the deposed
    // leader's still-open local window; under correct margins it cannot).
    let observer = (0..n as u32)
        .map(ProcessId)
        .find(|&p| p != old)
        .expect("n >= 2");
    let mut t = 3_800u64;
    let successor = loop {
        t += 100;
        sim.run_until(Instant::from_ticks(t));
        let s = sim.node(observer).omega().leader();
        if s != old && sim.node(s).log().lease_read_allowed(Instant::from_ticks(t)) {
            break s;
        }
        if t >= 9_000 {
            break observer;
        }
    };
    // New state the deposed leader has never seen...
    sim.schedule_request(
        Instant::from_ticks(t + 10),
        successor,
        Tagged {
            client: WRITER,
            seq: 2,
            cmd: KvCmd::put(KEY, value_of(2)),
        },
    );
    sim.run_until(Instant::from_ticks(t + 200));
    // ...then reads injected at the deposed leader, dense across the
    // overlap window. With the sabotage on, it happily lease-serves v1.
    for (k, seq) in (1..=4u64).enumerate() {
        sim.schedule_request(
            Instant::from_ticks(t + 200 + k as u64 * 20),
            old,
            Tagged {
                client: reader_at(old),
                seq,
                cmd: KvCmd::read(KEY),
            },
        );
    }
    sim.run_until(Instant::from_ticks(t + 600));
    let alarms = watchdog.alarms();
    let stale = alarms
        .iter()
        .filter(|a| a.kind == AlarmKind::StaleRead)
        .count();
    let mut dump = String::new();
    for alarm in &alarms {
        dump.push_str(&format!(
            "WATCHDOG ALARM {:?} on {}: {}\n{}",
            alarm.kind, alarm.node, alarm.detail, alarm.dump
        ));
    }
    (stale, alarms.len(), dump)
}

/// **E23's induced violation** — the proof the test plane detects real
/// lease violations. Runs the adversary with the skew margins inverted
/// and returns `(stale_read_alarms, total_alarms, flight_dump)`; the
/// stale-read count must be non-zero (the CLI exits non-zero on it, and
/// CI asserts that exit).
pub fn e23_violation(seed: u64) -> (usize, usize, String) {
    violation_run(true, seed)
}

/// **E23** — the fast read path on both substrates. Returns the table,
/// the JSON summary written as `BENCH_E23.json`, and the gate-violation
/// count (non-zero fails the CLI).
pub fn e23_read(n: usize, reads: u64, rounds: u64, seed: u64) -> (Table, JsonValue, usize) {
    let registry = Registry::new();
    let mut rows = vec![
        netsim_throughput_run(n, reads, true, seed, &registry),
        netsim_throughput_run(n, reads, false, seed, &registry),
    ];
    for kind in ["expiry", "skew", "kill"] {
        rows.push(netsim_safety_scenario(kind, n, seed));
    }
    rows.push(wall_safety_run(n, rounds, seed));
    let lease_tp = rows[0].throughput;
    let log_tp = rows[1].throughput;
    let speedup = if log_tp > 0.0 { lease_tp / log_tp } else { 0.0 };
    let complete = rows[0].served == rows[0].reads && rows[1].served == rows[1].reads;
    let alive_drift = {
        let (a, b) = (rows[0].omega_alive as f64, rows[1].omega_alive as f64);
        (a - b).abs() / b.max(1.0)
    };
    let stale: u64 = rows.iter().map(|r| r.stale).sum();
    let alarms: u64 = rows.iter().map(|r| r.alarms).sum();
    let mut violations = 0usize;
    if !(complete && speedup >= SPEEDUP_GATE) {
        violations += 1;
    }
    if alive_drift > OMEGA_FLATNESS {
        violations += 1;
    }
    if stale > 0 || alarms > 0 {
        violations += 1;
    }
    // The wirenet row must complete every round: its write settled and both
    // its reads were served. A round whose write never settles issues no
    // reads, so a row short of rounds would otherwise pass on nothing.
    let wall = rows.last().expect("the wirenet row");
    if wall.reads != 2 * rounds || wall.served != wall.reads {
        violations += 1;
    }
    let mut t = Table::new(vec![
        "substrate",
        "mode",
        "served",
        "throughput",
        "latency p50/p99",
        "stale",
        "alarms",
        "omega alive",
    ]);
    for row in &rows {
        t.row(vec![
            row.substrate.to_owned(),
            row.mode.clone(),
            format!("{}/{}", row.served, row.reads),
            if row.throughput > 0.0 {
                format!("{:.1} {}", row.throughput, row.unit)
            } else {
                "-".to_owned()
            },
            format!("{}/{} {}", row.p50, row.p99, row.lat_unit),
            row.stale.to_string(),
            row.alarms.to_string(),
            row.omega_alive.to_string(),
        ]);
    }
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e23")),
        ("seed", JsonValue::U64(seed)),
        ("n", JsonValue::U64(n as u64)),
        ("reads", JsonValue::U64(reads)),
        ("rounds", JsonValue::U64(rounds)),
        ("speedup_gate", JsonValue::F64(SPEEDUP_GATE)),
        ("speedup", JsonValue::F64(speedup)),
        ("omega_flatness_bound", JsonValue::F64(OMEGA_FLATNESS)),
        ("omega_alive_drift", JsonValue::F64(alive_drift)),
        ("stale_reads", JsonValue::U64(stale)),
        ("watchdog_alarms", JsonValue::U64(alarms)),
        ("pass", JsonValue::Bool(violations == 0)),
        ("rows", JsonValue::Arr(rows.iter().map(row_json).collect())),
        ("metrics", JsonValue::Raw(registry.snapshot_json())),
    ]);
    (t, json, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_bench_summary;

    #[test]
    fn lease_reads_beat_log_reads_five_fold_on_netsim() {
        let registry = Registry::new();
        let lease = netsim_throughput_run(3, 120, true, 7, &registry);
        let log = netsim_throughput_run(3, 120, false, 7, &registry);
        assert_eq!(lease.served, 120, "lease path must drain the full load");
        assert_eq!(log.served, 120, "log path must drain the full load");
        assert!(
            lease.throughput >= SPEEDUP_GATE * log.throughput,
            "speedup gate: lease {:.1} vs log {:.1}",
            lease.throughput,
            log.throughput
        );
        assert!(
            lease.p50 < log.p50,
            "a local serve must beat a round trip: {} vs {}",
            lease.p50,
            log.p50
        );
    }

    #[test]
    fn omega_alive_traffic_is_flat_with_leases_on_vs_off() {
        let registry = Registry::new();
        let lease = netsim_throughput_run(3, 120, true, 11, &registry);
        let log = netsim_throughput_run(3, 120, false, 11, &registry);
        assert!(lease.omega_alive > 0, "heartbeats must flow");
        let drift =
            (lease.omega_alive as f64 - log.omega_alive as f64).abs() / log.omega_alive as f64;
        assert!(
            drift <= OMEGA_FLATNESS,
            "ALIVE drift {drift:.3} exceeds {OMEGA_FLATNESS} (lease: {}, log: {})",
            lease.omega_alive,
            log.omega_alive
        );
    }

    #[test]
    fn safety_scenarios_serve_zero_stale_reads() {
        for kind in ["expiry", "skew", "kill"] {
            let row = netsim_safety_scenario(kind, 3, 7);
            assert!(row.served > 0, "{kind}: some reads must settle");
            assert_eq!(row.stale, 0, "{kind}: stale reads");
            assert_eq!(row.alarms, 0, "{kind}: watchdog alarms");
        }
    }

    #[test]
    fn induced_violation_trips_the_stale_read_watchdog() {
        let (stale, total, dump) = e23_violation(7);
        assert!(stale > 0, "the sabotaged run must trip StaleRead");
        assert!(total >= stale);
        assert!(
            dump.contains("StaleRead"),
            "the dump names the alarm:\n{dump}"
        );
        assert!(
            dump.contains("--- node"),
            "the dump carries a flight recorder:\n{dump}"
        );
        // The same adversary under the *correct* margins is silent: the
        // detector convicts the sabotage, not the scenario.
        let (safe_stale, safe_total, _) = violation_run(false, 7);
        assert_eq!((safe_stale, safe_total), (0, 0));
    }

    #[test]
    fn violation_is_reproducible_seed_for_seed() {
        let a = e23_violation(13);
        let b = e23_violation(13);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn netsim_summary_conforms_to_the_bench_shape() {
        // The wirenet leg runs under the CLI and the integration suites;
        // two rounds here keep the unit test fast.
        let (_, json, violations) = e23_read(3, 120, 2, 7);
        assert_eq!(violations, 0, "reduced E23 must pass its gates");
        validate_bench_summary(&json).expect("E23 summary must validate");
    }
}
