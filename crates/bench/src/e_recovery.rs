//! Experiment E21: bounded recovery under sustained chaos — snapshots,
//! WAL compaction, and snapshot-install catch-up, measured end to end.
//!
//! E16 established that durable state keeps the checkers green across
//! crash–restart compositions. E21 extends that campaign along the axis the
//! paper's "communication-efficient steady state" implies for long
//! deployments: a replica's restart cost must not grow with its uptime.
//! Each netsim scenario is a compressed week of uptime: an E19-style
//! pipelined client workload (a [`SubmitQueue`] keeping a full window in
//! flight, with jittered re-submission after leader changes) runs across
//! repeated leader-biased kill/restart cycles while every replica
//! auto-compacts its segmented on-disk WAL behind KV-state snapshots — so
//! compaction races the pipeline, and snapshot-install races failover.
//!
//! Two netsim modes run the *same* seeded campaign:
//!
//! * **kv+snapshots** — segmented WAL + snapshot store, auto-compaction
//!   every `COMPACT_EVERY` applied commands. Restart replay bytes are
//!   measured at every recovery; the final WAL must stay within
//!   `WAL_BOUND` (snapshot + active segments) no matter how many cycles
//!   ran. One cycle per scenario *wipes* the victim's disk — the fresh
//!   node must catch up by snapshot-install and converge.
//! * **full-WAL** — the control: same workload, same kills, no snapshot
//!   store. Its restart replay bytes grow with uptime; the ratio
//!   `full / snapshots` is the experiment's headline gate.
//!
//! wirenet runs a lighter kill → durable-restart → kill → wipe-restart
//! cycle under injected loss and delay, gating that snapshot-install
//! completes and the wiped node rejoins the session (its re-issued command
//! answers `Duplicate`, proving the snapshot carried the dedup table).
//!
//! Every scenario routes probes through per-node flight recorders and the
//! online [`Watchdog`] (counter monotonicity is enforced throughout; a
//! wiped node gets a *fresh* watchdog context, because a new identity
//! legitimately restarts its accusation counter from zero). Violations
//! gate the CLI exit status exactly like E16.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{ConsensusParams, ReplicatedLog};
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, SubmitQueue, Tagged};
use lls_obs::{NodeRecorders, RecordingProbe, Watchdog, WatchdogConfig, WatchdogProbe};
use lls_primitives::runtime::{Cluster, OutputCursor};
use lls_primitives::{mix64, Env, Instant, LamportClock, ProcessId, SnapshotHandle, StorageHandle};
use netsim::{SimBuilder, SystemSParams, Topology};
use wirenet::WireCluster;

use crate::e_chaos::{gate_on_watchdog, violation_dump, Tally};
use crate::json::{self, JsonValue};
use crate::table::Table;
use crate::wall::{all, wire_config};

/// Segment budget of every on-disk WAL in the campaign.
const SEGMENT_BUDGET: u64 = 8 * 1024;
/// Auto-compaction cadence (applied commands between snapshots).
const COMPACT_EVERY: u64 = 8;
/// The steady-state disk bound under test: snapshot + active segments —
/// one full segment plus the in-progress one.
const WAL_BOUND: u64 = 2 * SEGMENT_BUDGET;
/// The single chaos client.
const CLIENT: ClientId = ClientId(9);

/// Per-scenario on-disk layout, removed on drop (best effort).
struct ScenarioDirs {
    base: PathBuf,
}

impl ScenarioDirs {
    fn new(tag: &str) -> Self {
        let base = std::env::temp_dir().join(format!("lls-e21-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        ScenarioDirs { base }
    }

    fn wal(&self, p: usize) -> PathBuf {
        self.base.join(format!("p{p}-wal"))
    }

    fn snap(&self, p: usize) -> PathBuf {
        self.base.join(format!("p{p}-snap"))
    }
}

impl Drop for ScenarioDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }
}

/// What one netsim scenario measured.
#[derive(Debug, Default)]
struct NetsimStats {
    /// WAL bytes scanned at each durable (non-wipe) restart.
    replay_bytes: Vec<u64>,
    /// Largest per-node WAL live-byte figure at the end of the run.
    wal_max: u64,
    /// `SnapshotInstalled` events observed across the run.
    installs: u64,
    /// `recovery_replay_bytes` from the unified registries.
    replay_counter: u64,
    /// `snapshot_install_total` from the unified registries.
    install_counter: u64,
    /// Registry snapshot (probe counters), for the JSON artifact.
    metrics: String,
}

fn put(seq: u64) -> Tagged<KvCmd> {
    Tagged {
        client: CLIENT,
        seq,
        cmd: KvCmd::put(format!("k{seq}"), format!("v{seq}")),
    }
}

/// Lowest-id live process, skipping `skip` — the driver's observation point
/// for leadership and reference state.
fn alive_probe<S: lls_primitives::Sm>(
    sim: &netsim::Simulator<S>,
    n: usize,
    skip: Option<ProcessId>,
) -> ProcessId {
    (0..n as u32)
        .map(ProcessId)
        .find(|&p| sim.is_alive(p) && Some(p) != skip)
        .expect("a quorum stays alive")
}

/// One seeded netsim campaign: pipelined load, leader-biased kill/restart
/// cycles (the last one a disk wipe in snapshot mode), then convergence,
/// exactly-once, WAL-bound, and watchdog gates.
fn netsim_scenario(
    n: usize,
    seed: u64,
    commands: u64,
    compacted: bool,
    tally: &mut Tally,
) -> NetsimStats {
    let dirs = ScenarioDirs::new(&format!(
        "{}-{}-{}",
        seed,
        if compacted { "snap" } else { "full" },
        n
    ));
    let mut stores: Vec<StorageHandle> = (0..n)
        .map(|p| StorageHandle::segmented_wal(dirs.wal(p), SEGMENT_BUDGET).expect("create WAL"))
        .collect();
    let mut snaps: Vec<SnapshotHandle> = (0..n)
        .map(|p| SnapshotHandle::file(dirs.snap(p)).expect("create snapshot dir"))
        .collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    // A wiped node is a new identity: its accusation counter legitimately
    // restarts at zero, so it reports into a fresh watchdog context instead
    // of tripping the old one's monotonicity invariant.
    let wipe_recorders = Arc::new(NodeRecorders::new(n, 256));
    let wipe_watchdog =
        Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&wipe_recorders));
    let params = ConsensusParams::default();
    let topo = Topology::system_s_multi(
        n,
        &[ProcessId(0), ProcessId(1)],
        SystemSParams {
            gst: 100,
            ..SystemSParams::default()
        },
    );
    let build = |env: &Env,
                 store: StorageHandle,
                 snap: SnapshotHandle,
                 probe: lls_obs::WatchdogProbe<lls_obs::RecordingProbe>| {
        if compacted {
            let mut r = ReplicatedLog::builder(env, params)
                .storage(store)
                .snapshots(snap)
                .probe(probe)
                .build()
                .and_then(KvReplica::from_log)
                .expect("open stores");
            r.set_compact_every(COMPACT_EVERY);
            r
        } else {
            ReplicatedLog::builder(env, params)
                .storage(store)
                .probe(probe)
                .build()
                .and_then(KvReplica::from_log)
                .expect("open store")
        }
    };
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(topo)
        .build_with(|env| {
            build(
                env,
                stores[env.id().as_usize()].clone(),
                snaps[env.id().as_usize()].clone(),
                watchdog.probe(recorders.probe_for(env.id())),
            )
        });
    tally.scenarios += 1;

    let mut now = 8_000u64;
    sim.run_until(Instant::from_ticks(now));

    let mut queue = SubmitQueue::new(8);
    queue.set_retry_backoff(400, seed ^ 0x5eed);
    for i in 0..commands {
        queue.submit(put(i + 1));
    }

    // Kill thresholds in settled commands; the last cycle wipes the victim
    // (snapshot mode only — the control has no install path to exercise).
    let mut plan: Vec<(u64, bool)> = vec![
        (commands / 4, false),
        (commands / 2, false),
        (3 * commands / 4, false),
    ];
    if compacted {
        plan.push((commands * 9 / 10, true));
    }
    let mut next_kill = 0usize;
    let mut down: Option<(ProcessId, u64, bool)> = None;
    let mut settled: BTreeMap<u64, u32> = BTreeMap::new();
    let mut seen = 0usize;
    let mut stats = NetsimStats::default();
    let mut leader = sim.node(alive_probe(&sim, n, None)).omega().leader();
    let horizon = now + commands * 400 + 200_000;
    let slice = 100u64;
    while now < horizon {
        let target = if sim.is_alive(leader) {
            leader
        } else {
            alive_probe(&sim, n, down.map(|(v, _, _)| v))
        };
        for cmd in queue.drain() {
            sim.schedule_request(Instant::from_ticks(now + 1), target, cmd);
        }
        for _ in 0..slice {
            for cmd in queue.on_tick() {
                sim.schedule_request(Instant::from_ticks(now + 1), target, cmd);
            }
        }
        now += slice;
        sim.run_until(Instant::from_ticks(now));

        let outputs = sim.outputs();
        for ev in &outputs[seen..] {
            match &ev.output {
                KvEvent::Applied {
                    client: c,
                    seq,
                    response,
                    ..
                } if *c == CLIENT && queue.settle(*c, *seq, response).is_some() => {
                    *settled.entry(*seq).or_default() += 1;
                }
                KvEvent::SnapshotInstalled { .. } => stats.installs += 1,
                _ => {}
            }
        }
        seen = outputs.len();

        // Restart a due victim: recover from its (possibly wiped) disk.
        if let Some((victim, at, wipe)) = down {
            if now >= at {
                let v = victim.as_usize();
                if wipe {
                    let _ = std::fs::remove_dir_all(dirs.wal(v));
                    let _ = std::fs::remove_dir_all(dirs.snap(v));
                    stores[v] = StorageHandle::segmented_wal(dirs.wal(v), SEGMENT_BUDGET)
                        .expect("recreate WAL");
                    snaps[v] = SnapshotHandle::file(dirs.snap(v)).expect("recreate snapshots");
                }
                let env = Env::new(victim, n);
                let probe = if wipe {
                    wipe_watchdog.probe(wipe_recorders.probe_for(victim))
                } else {
                    watchdog.probe(recorders.probe_for(victim))
                };
                let recovered = build(&env, stores[v].clone(), snaps[v].clone(), probe);
                if !wipe {
                    stats
                        .replay_bytes
                        .push(recovered.log().wal_stats().live_bytes);
                }
                sim.restart(victim, recovered);
                down = None;
            }
        }
        // Fire the next kill once enough commands settled and nobody is
        // down: the victim is whoever currently leads (the most disruptive
        // choice), discovered through a surviving observer.
        if down.is_none() && next_kill < plan.len() && settled.len() as u64 >= plan[next_kill].0 {
            let (_, wipe) = plan[next_kill];
            let victim = if sim.is_alive(leader) {
                leader
            } else {
                alive_probe(&sim, n, None)
            };
            sim.kill(victim);
            tally.kills += 1;
            if wipe {
                tally.wipes += 1;
            }
            down = Some((
                victim,
                now + 6_000 + mix64(seed ^ next_kill as u64) % 2_000,
                wipe,
            ));
            next_kill += 1;
        }
        let probe_node = alive_probe(&sim, n, down.map(|(v, _, _)| v));
        let believed = sim.node(probe_node).omega().leader();
        if believed != leader {
            leader = believed;
            queue.on_leader_change();
        }
        if queue.is_idle() && next_kill == plan.len() && down.is_none() {
            break;
        }
    }
    // Let the tail drain: straggler Decides, catch-ups, final compactions.
    now += 20_000;
    sim.run_until(Instant::from_ticks(now));
    for ev in &sim.outputs()[seen..] {
        match &ev.output {
            KvEvent::Applied {
                client: c,
                seq,
                response,
                ..
            } if *c == CLIENT && queue.settle(*c, *seq, response).is_some() => {
                *settled.entry(*seq).or_default() += 1;
            }
            KvEvent::SnapshotInstalled { .. } => stats.installs += 1,
            _ => {}
        }
    }

    let mut ok = true;
    tally.checks += 1;
    if !(queue.is_idle() && next_kill == plan.len() && down.is_none()) {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump(
                &format!(
                    "netsim seed {seed}: campaign stalled ({} queued, {} in flight, {next_kill}/{} kills)",
                    queue.queued_len(),
                    queue.released_len(),
                    plan.len()
                ),
                &recorders,
                &[alive_probe(&sim, n, None)]
            )
        );
    }
    tally.checks += 1;
    let missing: Vec<u64> = (1..=commands)
        .filter(|s| settled.get(s).copied().unwrap_or(0) != 1)
        .collect();
    if !missing.is_empty() {
        tally.violations += 1;
        ok = false;
        eprintln!("E21 VIOLATION (netsim seed {seed}): seqs not settled exactly once: {missing:?}");
    }
    // Convergence: every replica (the wiped one included) materializes the
    // same store and the full client session.
    tally.checks += 1;
    let reference = alive_probe(&sim, n, None);
    let expect: Vec<(String, String)> = sim
        .node(reference)
        .state()
        .iter()
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    let mut converged = expect.len() as u64 == commands;
    for p in (0..n as u32).map(ProcessId) {
        let state = sim.node(p).state();
        let got: Vec<(String, String)> = state
            .iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        if got != expect || state.session_seq(CLIENT) != Some(commands) {
            converged = false;
            eprintln!(
                "{}",
                violation_dump(
                    &format!(
                        "netsim seed {seed}: replica {p} diverged \
                         ({} keys vs {} expected, session {:?} vs {commands})",
                        got.len(),
                        expect.len(),
                        state.session_seq(CLIENT)
                    ),
                    &recorders,
                    &[p]
                )
            );
        }
    }
    if !converged {
        tally.violations += 1;
        ok = false;
    }
    stats.wal_max = (0..n as u32)
        .map(|p| sim.node(ProcessId(p)).log().wal_stats().live_bytes)
        .max()
        .unwrap_or(0);
    if compacted {
        // The tentpole bound: steady-state disk stays within snapshot +
        // active segments regardless of uptime and kill count.
        tally.checks += 1;
        if stats.wal_max > WAL_BOUND {
            tally.violations += 1;
            ok = false;
            eprintln!(
                "E21 VIOLATION (netsim seed {seed}): WAL {} exceeds bound {WAL_BOUND}",
                stats.wal_max
            );
        }
        // The wiped node (and any far-behind restart) must have caught up
        // by state transfer at least once.
        tally.checks += 1;
        if stats.installs == 0 {
            tally.violations += 1;
            ok = false;
            eprintln!("E21 VIOLATION (netsim seed {seed}): no snapshot-install observed");
        }
        tally.installs += stats.installs;
    }
    gate_on_watchdog(&format!("netsim seed {seed}"), &watchdog, tally);
    gate_on_watchdog(
        &format!("netsim seed {seed} (wiped node)"),
        &wipe_watchdog,
        tally,
    );
    if ok {
        tally.successes += 1;
    }
    let reg = recorders.registry();
    let wipe_reg = wipe_recorders.registry();
    stats.replay_counter = reg.counter_value("recovery_replay_bytes")
        + wipe_reg.counter_value("recovery_replay_bytes");
    stats.install_counter = reg.counter_value("snapshot_install_total")
        + wipe_reg.counter_value("snapshot_install_total");
    stats.metrics = reg.snapshot_json();
    stats
}

/// The kv replica of a wall-clock recovery scenario.
type WallReplica = KvReplica<WatchdogProbe<RecordingProbe>>;

/// The highest `CLIENT` sequence each process of a wall-clock cluster has
/// applied so far, read once each through a cursor.
#[derive(Default)]
struct Applied {
    cursor: OutputCursor,
    done: BTreeMap<ProcessId, u64>,
}

/// One phase of a wall-clock scenario: puts `from..=to` at every member,
/// then polls until every member has applied `to`, re-issuing it each round
/// (replicas answer re-issues with `Duplicate`, so even a fully caught-up
/// cluster keeps emitting evidence). `false` if that takes over 15 s.
fn wall_phase<C: Cluster<Sm = WallReplica>>(
    cluster: &C,
    applied: &mut Applied,
    members: &[ProcessId],
    (from, to): (u64, u64),
) -> bool {
    for s in from..=to {
        for &p in members {
            cluster.request(p, put(s));
        }
    }
    let deadline = StdInstant::now() + StdDuration::from_secs(15);
    loop {
        for &p in members {
            cluster.request(p, put(to));
        }
        for t in cluster.outputs_since(&mut applied.cursor) {
            if let KvEvent::Applied { client, seq, .. } = t.output {
                if client == CLIENT {
                    let entry = applied.done.entry(t.process).or_default();
                    *entry = (*entry).max(seq);
                }
            }
        }
        if members
            .iter()
            .all(|p| applied.done.get(p).copied().unwrap_or(0) >= to)
        {
            return true;
        }
        if StdInstant::now() > deadline {
            return false;
        }
        std::thread::sleep(StdDuration::from_millis(25));
    }
}

/// One wall-clock scenario: in-memory stores with snapshots, loss and delay
/// injected, kill → durable restart → kill → wipe restart, which must
/// finish with a snapshot-install. On wirenet the wiped node's catch-up
/// crosses reconnecting sockets. `spawn` starts the cluster on the
/// recorders' clocks, each process built by `make`.
fn wall_scenario<C: Cluster<Sm = WallReplica>>(
    substrate: &str,
    n: usize,
    seed: u64,
    tally: &mut Tally,
    spawn: impl FnOnce(Vec<LamportClock>, &dyn Fn(&Env) -> WallReplica) -> C,
) {
    let mut stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let mut snaps: Vec<SnapshotHandle> = (0..n).map(|_| SnapshotHandle::in_memory()).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let wipe_recorders = Arc::new(NodeRecorders::new(n, 256));
    let wipe_watchdog =
        Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&wipe_recorders));
    let params = ConsensusParams::default();
    let make = |env: &Env, store: StorageHandle, snap: SnapshotHandle, probe| {
        let mut r = ReplicatedLog::builder(env, params)
            .storage(store)
            .snapshots(snap)
            .probe(probe)
            .build()
            .and_then(KvReplica::from_log)
            .expect("open stores");
        r.set_compact_every(COMPACT_EVERY);
        r
    };
    let node = |env: &Env, stores: &[StorageHandle], snaps: &[SnapshotHandle]| {
        let i = env.id().as_usize();
        let probe = watchdog.probe(recorders.probe_for(env.id()));
        make(env, stores[i].clone(), snaps[i].clone(), probe)
    };
    let mut cluster = spawn(recorders.clocks(), &|env| node(env, &stores, &snaps));
    tally.scenarios += 1;
    let all = all(n);
    let mut ok = true;
    let mut applied = Applied::default();
    let mut phase = |cluster: &C, tally: &mut Tally, members: &[ProcessId], seqs, context| {
        let passed = wall_phase(cluster, &mut applied, members, seqs);
        ok &= tally.check(passed, || {
            violation_dump(&format!("{substrate} {context}"), &recorders, &all)
        });
    };

    phase(&cluster, tally, &all, (1, 16), "warm-up convergence");

    let victim1 = ProcessId((mix64(seed) % n as u64) as u32);
    cluster.kill(victim1);
    tally.kills += 1;
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim1).collect();
    phase(
        &cluster,
        tally,
        &survivors,
        (17, 28),
        "progress during outage",
    );

    cluster.restart(victim1, node(&Env::new(victim1, n), &stores, &snaps));
    phase(&cluster, tally, &all, (29, 29), "durable-restart rejoin");

    let victim2 = ProcessId(((mix64(seed) + 1) % n as u64) as u32);
    cluster.kill(victim2);
    tally.kills += 1;
    tally.wipes += 1;
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim2).collect();
    phase(
        &cluster,
        tally,
        &survivors,
        (30, 40),
        "progress during wipe outage",
    );

    stores[victim2.as_usize()] = StorageHandle::in_memory();
    snaps[victim2.as_usize()] = SnapshotHandle::in_memory();
    let env = Env::new(victim2, n);
    let probe = wipe_watchdog.probe(wipe_recorders.probe_for(victim2));
    let fresh = make(
        &env,
        stores[victim2.as_usize()].clone(),
        snaps[victim2.as_usize()].clone(),
        probe,
    );
    cluster.restart(victim2, fresh);
    phase(&cluster, tally, &all, (41, 41), "wipe-restart catch-up");

    let report = cluster.stop();
    let installs = report
        .outputs()
        .iter()
        .filter(|t| matches!(t.output, KvEvent::SnapshotInstalled { .. }))
        .count() as u64;
    ok &= tally.check(installs > 0, || {
        format!("E21 VIOLATION ({substrate} seed {seed}): no snapshot-install observed")
    });
    tally.installs += installs;
    gate_on_watchdog(&format!("{substrate} monotonicity"), &watchdog, tally);
    gate_on_watchdog(
        &format!("{substrate} monotonicity (wiped node)"),
        &wipe_watchdog,
        tally,
    );
    if ok {
        tally.successes += 1;
    }
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<u64>() as f64 / v.len() as f64
}

fn tally_row(t: &mut Table, substrate: &str, tally: Tally, replay: &str, wal: &str, outcome: &str) {
    t.row(vec![
        substrate.to_owned(),
        tally.scenarios.to_string(),
        tally.kills.to_string(),
        tally.wipes.to_string(),
        tally.installs.to_string(),
        replay.to_owned(),
        wal.to_owned(),
        tally.checks.to_string(),
        tally.violations.to_string(),
        format!("{} {}/{}", outcome, tally.successes, tally.scenarios),
    ]);
}

/// **E21** — the bounded-recovery campaign. Returns the table, the
/// machine-readable summary for `BENCH_E21.json`, and the total violation
/// count so the CLI can gate its exit status.
pub fn e21_recovery(
    scenarios: u64,
    commands: u64,
    wall_seeds: u64,
    ratio_gate: f64,
) -> (Table, JsonValue, usize) {
    let n = 5;
    let wall_n = 3;
    let mut snap_tally = Tally::default();
    let mut snap_replays: Vec<u64> = Vec::new();
    let mut snap_wal_max = 0u64;
    let mut last_metrics = String::from("{}");
    let mut replay_counter = 0u64;
    let mut install_counter = 0u64;
    for seed in 0..scenarios {
        let stats = netsim_scenario(n, seed, commands, true, &mut snap_tally);
        snap_replays.extend(&stats.replay_bytes);
        snap_wal_max = snap_wal_max.max(stats.wal_max);
        replay_counter += stats.replay_counter;
        install_counter += stats.install_counter;
        last_metrics = stats.metrics;
    }
    let mut full_tally = Tally::default();
    let mut full_replays: Vec<u64> = Vec::new();
    let mut full_wal_max = 0u64;
    for seed in 0..scenarios {
        let stats = netsim_scenario(n, seed, commands, false, &mut full_tally);
        full_replays.extend(&stats.replay_bytes);
        full_wal_max = full_wal_max.max(stats.wal_max);
    }
    // The headline gate: restarting from a snapshot replays a fraction of
    // the bytes a full-WAL restart scans, on the same seeded workload.
    let snap_mean = mean(&snap_replays);
    let full_mean = mean(&full_replays);
    let ratio = if snap_mean > 0.0 {
        full_mean / snap_mean
    } else {
        0.0
    };
    snap_tally.checks += 1;
    let ratio_pass = ratio >= ratio_gate;
    if !ratio_pass {
        snap_tally.violations += 1;
        eprintln!(
            "E21 VIOLATION: replay ratio {ratio:.1}x below gate {ratio_gate:.1}x \
             (snapshot mean {snap_mean:.0} B, full-WAL mean {full_mean:.0} B)"
        );
    }

    let mut wire_tally = Tally::default();
    for seed in 0..wall_seeds {
        wall_scenario("wirenet", wall_n, seed, &mut wire_tally, |clocks, make| {
            WireCluster::try_spawn_traced(wire_config(wall_n, 0.02, seed), clocks, make)
                .expect("bind 127.0.0.1 listeners")
        });
    }

    let mut t = Table::new(vec![
        "substrate",
        "scenarios",
        "kills",
        "wipes",
        "installs",
        "replay B/restart",
        "wal max B",
        "checks",
        "violations",
        "outcome",
    ]);
    tally_row(
        &mut t,
        "netsim/kv+snapshots",
        snap_tally,
        &format!("{snap_mean:.0}"),
        &format!("{snap_wal_max} (≤{WAL_BOUND})"),
        "recovered",
    );
    tally_row(
        &mut t,
        "netsim/kv full-WAL",
        full_tally,
        &format!("{full_mean:.0}"),
        &full_wal_max.to_string(),
        &format!("baseline ({ratio:.1}x)"),
    );
    tally_row(&mut t, "wirenet/kv", wire_tally, "-", "-", "agreed");
    let total_violations = snap_tally.violations + full_tally.violations + wire_tally.violations;
    let total_kills = snap_tally.kills + full_tally.kills + wire_tally.kills;
    let total_installs = snap_tally.installs + wire_tally.installs;

    let wal_pass = snap_wal_max <= WAL_BOUND;
    let summary = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e21")),
        (
            "pass",
            JsonValue::Bool(ratio_pass && wal_pass && total_violations == 0),
        ),
        ("rows", json::table_rows_json(&t)),
        (
            "title",
            JsonValue::str(
                "bounded recovery: snapshots, WAL compaction, snapshot-install under chaos",
            ),
        ),
        (
            "config",
            JsonValue::obj(vec![
                ("scenarios", JsonValue::U64(scenarios)),
                ("commands", JsonValue::U64(commands)),
                ("wall_seeds", JsonValue::U64(wall_seeds)),
                ("n", JsonValue::U64(n as u64)),
                ("wall_n", JsonValue::U64(wall_n as u64)),
                ("segment_budget", JsonValue::U64(SEGMENT_BUDGET)),
                ("compact_every", JsonValue::U64(COMPACT_EVERY)),
                ("ratio_gate", JsonValue::F64(ratio_gate)),
            ]),
        ),
        ("kills", JsonValue::U64(total_kills as u64)),
        (
            "wipes",
            JsonValue::U64((snap_tally.wipes + wire_tally.wipes) as u64),
        ),
        ("snapshot_installs", JsonValue::U64(total_installs)),
        (
            "replay_bytes_per_restart",
            JsonValue::obj(vec![
                ("snapshot_mode", JsonValue::F64(snap_mean)),
                ("full_wal_mode", JsonValue::F64(full_mean)),
                ("ratio", JsonValue::F64(ratio)),
                ("gate", JsonValue::F64(ratio_gate)),
                ("pass", JsonValue::Bool(ratio_pass)),
            ]),
        ),
        (
            "wal_live_bytes",
            JsonValue::obj(vec![
                ("snapshot_mode_max", JsonValue::U64(snap_wal_max)),
                ("full_wal_mode_max", JsonValue::U64(full_wal_max)),
                ("bound", JsonValue::U64(WAL_BOUND)),
                ("pass", JsonValue::Bool(snap_wal_max <= WAL_BOUND)),
            ]),
        ),
        (
            "registry",
            JsonValue::obj(vec![
                ("recovery_replay_bytes", JsonValue::U64(replay_counter)),
                ("snapshot_install_total", JsonValue::U64(install_counter)),
            ]),
        ),
        ("violations", JsonValue::U64(total_violations as u64)),
        ("metrics", JsonValue::Raw(last_metrics)),
        ("table", json::table_json(&t)),
    ]);
    (t, summary, total_violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced netsim campaign (both modes, one seed, a small workload)
    /// must come out clean: every gate green, at least one snapshot
    /// install, and a replay advantage for the snapshot mode.
    #[test]
    fn e21_reduced_netsim_campaign_is_clean() {
        let commands = 40;
        let mut snap_tally = Tally::default();
        let stats = netsim_scenario(3, 1, commands, true, &mut snap_tally);
        assert_eq!(snap_tally.violations, 0, "snapshot-mode violations");
        assert!(stats.installs >= 1, "the wiped node must snapshot-install");
        assert!(stats.wal_max <= WAL_BOUND, "WAL bound: {}", stats.wal_max);
        assert!(
            stats.install_counter >= 1,
            "snapshot_install_total must flow through the registry"
        );
        let mut full_tally = Tally::default();
        let full = netsim_scenario(3, 1, commands, false, &mut full_tally);
        assert_eq!(full_tally.violations, 0, "full-WAL-mode violations");
        assert!(
            mean(&full.replay_bytes) > mean(&stats.replay_bytes),
            "full-WAL restarts must replay more: {:?} vs {:?}",
            full.replay_bytes,
            stats.replay_bytes
        );
    }

    /// Full-size campaign reproduction harness (debug aid — run explicitly
    /// with `--ignored` to chase a seed that failed in the CLI campaign).
    #[test]
    #[ignore]
    fn e21_full_size_netsim_seeds() {
        for seed in 0..3 {
            let mut tally = Tally::default();
            let stats = netsim_scenario(5, seed, 400, true, &mut tally);
            eprintln!(
                "seed {seed}: violations={} installs={} wal_max={}",
                tally.violations, stats.installs, stats.wal_max
            );
            assert_eq!(tally.violations, 0, "seed {seed}");
        }
    }
}
