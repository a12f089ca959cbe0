//! Experiment E22: command-lifecycle latency attribution + the timeline
//! telemetry plane, gated end to end.
//!
//! E19/E20 measured *how fast* the batched/pipelined/sharded command path
//! goes; E22 measures *where the time goes*. Every client command is
//! tagged with a [`lls_obs::CmdId`] at the submit queue and the probe plane stamps
//! each stage it crosses — enqueue → shard-route → batch-seal → propose →
//! WAL group-commit → decide → apply → reply. This experiment
//! reconstructs the per-command critical paths from the recorder streams
//! ([`lls_obs::reconstruct_paths`]), attributes latency per stage
//! ([`lls_obs::attribute`]), and gates the whole instrument on three
//! claims:
//!
//! 1. **The attribution adds up.** On every substrate, the sum of
//!    per-stage latencies over all completed commands must land within
//!    `GATE_PCT` of the end-to-end latency the harness measures through
//!    its *own* bookkeeping (sim output log on netsim, unquantized wall
//!    durations on wirenet). This is what catches clock-anchor
//!    drift between the client and replica tick domains.
//! 2. **The dominant stage is identified** per `(batch, pipeline, shard)`
//!    configuration — the evidence the ROADMAP's next optimisations
//!    (async wirenet I/O, leader leases) are bets about.
//! 3. **The timeline plane is live.** The wirenet run serves
//!    [`lls_obs::TimelineSampler`] frames over the `/timeline` scrape
//!    route while the cluster is running; the served body must equal the
//!    in-process sampler's rendering and carry at least
//!    `MIN_LIVE_FRAMES` frames.
//!
//! A fourth check costs nothing and closes the overhead question: the
//! netsim leg is re-run with [`NoopProbe`] and must commit the same
//! commands with the same final-commit tick — in virtual time the traced
//! and untraced runs are *identical*, so the only possible overhead is
//! the wall-clock cost of the (monomorphized-away) `P::ENABLED` branches.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{
    BatchParams, ConsensusParams, PlacementManager, PlacementMap, ReplicatedLog, ShardedNode,
};
use kvstore::{
    ClientId, KvCmd, KvEvent, KvReplica, KvResponse, LogPlane, ReplicatedKv, ShardedKvEvent,
    ShardedKvNode, SubmitQueue, Tagged,
};
use lls_obs::{
    attribute, fold_into_registry, reconstruct_paths, Attribution, CmdPath, NodeRecorders,
    NoopProbe, Probe, Registry, TimelineSampler,
};
use lls_primitives::{Duration, Env, Instant, ProcessId, Sm, StorageHandle};
use netsim::{SimBuilder, Topology};
use wirenet::{scrape, OutputCursor, ScrapeRoutes, ScrapeServer, TimedOutput, WireCluster};

use crate::json::JsonValue;
use crate::table::Table;
use crate::wall::{all, stable_leader, wire_config};

/// The `(max_batch, pipeline_depth, shards)` grid. The sharded
/// configuration runs on netsim only (wirenet reuses E20 for shard
/// scaling; here it carries the clock-anchoring and live-timeline gates on
/// the unsharded path).
const CONFIGS: &[(usize, usize, u32)] = &[(1, 1, 1), (8, 4, 1), (8, 4, 2)];

/// Acceptance: attributed stage sums must land within this percentage of
/// the harness-measured end-to-end latency.
const GATE_PCT: f64 = 15.0;

/// Acceptance: the live `/timeline` scrape must return at least this many
/// frames.
const MIN_LIVE_FRAMES: u64 = 8;

/// The tag every harness-issued command carries.
const CLIENT: ClientId = ClientId(7);

fn put(seq: u64) -> Tagged<KvCmd> {
    Tagged {
        client: CLIENT,
        seq,
        cmd: KvCmd::put(format!("k{seq}"), format!("v{seq}")),
    }
}

fn params(max_batch: usize, depth: usize) -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch,
            pipeline_depth: depth,
        },
        ..ConsensusParams::default()
    }
}

/// One substrate × configuration measurement.
struct LatencyRow {
    substrate: &'static str,
    max_batch: usize,
    depth: usize,
    shards: u32,
    commands: u64,
    /// Paths with both endpoints observed (enqueue *and* reply).
    complete: u64,
    partial: u64,
    /// Sum of per-stage attributed latencies over the complete paths, in
    /// client-domain ticks.
    attributed_ticks: u64,
    /// The same commands' end-to-end latency summed from the harness's own
    /// bookkeeping (fractional on wirenet).
    measured_ticks: f64,
    /// `|attributed - measured| / measured`, in percent.
    gap_pct: f64,
    /// Stage carrying the largest attributed total, e.g. `"decide"`.
    dominant: String,
    /// That stage's share of the attributed total.
    dominant_share: f64,
    pass: bool,
}

/// Attribution + gate arithmetic shared by every run: reconstruct paths
/// from the recorder streams, fold the per-stage histograms into the
/// shared registry under a per-run prefix, and compare against the
/// harness-measured end-to-end sums.
#[allow(clippy::too_many_arguments)]
fn close_row(
    registry: &Registry,
    substrate: &'static str,
    (max_batch, depth, shards): (usize, usize, u32),
    commands: u64,
    recorders: &NodeRecorders,
    submit_at: &BTreeMap<u64, f64>,
    reply_at: &BTreeMap<u64, f64>,
) -> LatencyRow {
    let paths = reconstruct_paths(&recorders.all_events());
    let paths: Vec<CmdPath> = paths
        .into_iter()
        .filter(|p| p.cmd.client == CLIENT.0)
        .collect();
    let attr: Attribution = attribute(&paths);
    let run_reg = Registry::new();
    fold_into_registry(&paths, &run_reg, "ticks");
    registry.absorb_prefixed(
        &format!("e22_{substrate}_b{max_batch}_d{depth}_s{shards}_"),
        &run_reg,
    );
    // The independent side of the gate: sum the harness's own end-to-end
    // measurements over exactly the commands whose paths closed.
    let measured_ticks: f64 = paths
        .iter()
        .filter(|p| p.is_complete())
        .filter_map(|p| {
            let s = submit_at.get(&p.cmd.seq)?;
            let r = reply_at.get(&p.cmd.seq)?;
            Some((r - s).max(0.0))
        })
        .sum();
    let attributed_ticks = attr.attributed_total();
    let gap_pct = if measured_ticks > 0.0 {
        (attributed_ticks as f64 - measured_ticks).abs() * 100.0 / measured_ticks
    } else {
        100.0
    };
    let (dominant, dominant_share) = match attr.dominant() {
        Some((stage, total)) => (
            stage.label().to_owned(),
            total as f64 / attributed_ticks.max(1) as f64,
        ),
        None => ("-".to_owned(), 0.0),
    };
    let complete = attr.complete as u64;
    let pass = complete == commands && gap_pct <= GATE_PCT && dominant != "-";
    LatencyRow {
        substrate,
        max_batch,
        depth,
        shards,
        commands,
        complete,
        partial: attr.partial as u64,
        attributed_ticks,
        measured_ticks,
        gap_pct,
        dominant,
        dominant_share,
        pass,
    }
}

/// What a netsim drive leaves behind (also the NoopProbe parity evidence).
struct NetsimDrive {
    committed: u64,
    last_commit: u64,
    submit_at: BTreeMap<u64, f64>,
    reply_at: BTreeMap<u64, f64>,
}

/// A kv node's event that settles a client command.
trait Settles {
    /// The `(client, seq)` an `Applied` event settles, and its response.
    fn settlement(&self) -> Option<(ClientId, u64, &KvResponse)>;
}

impl Settles for KvEvent {
    fn settlement(&self) -> Option<(ClientId, u64, &KvResponse)> {
        match self {
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

impl Settles for ShardedKvEvent {
    fn settlement(&self) -> Option<(ClientId, u64, &KvResponse)> {
        match self {
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

/// Drives `commands` PUTs through a kv cluster of nodes built by `make` on
/// the deterministic simulator at two commands per tick, submitting them
/// through `queue` at the leader and settling replies off its `Applied`
/// outputs. The same loop produces the traced runs, sharded or not, and the
/// NoopProbe parity run.
fn netsim_drive<L: LogPlane, P: Probe>(
    n: usize,
    commands: u64,
    seed: u64,
    make: impl FnMut(&Env) -> ReplicatedKv<L>,
    mut queue: SubmitQueue<P>,
    mut on_tick: impl FnMut(u64),
) -> NetsimDrive
where
    <ReplicatedKv<L> as Sm>::Output: Settles,
{
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .build_with(make);
    let issue_base = 2_000u64;
    sim.run_until(Instant::from_ticks(issue_base));
    let leader = sim.node(ProcessId(0)).omega().leader();
    let mut now = issue_base;
    let mut submitted = 0u64;
    let mut submit_at = BTreeMap::new();
    let mut reply_at = BTreeMap::new();
    let mut last_commit = 0u64;
    let mut seen = 0usize;
    let horizon = issue_base + commands * 20 + 20_000;
    while now < horizon && (reply_at.len() as u64) < commands {
        now += 1;
        queue.set_now(Instant::from_ticks(now));
        // Offered load: two commands per tick, as in E19.
        for _ in 0..2 {
            if submitted < commands {
                submitted += 1;
                submit_at.insert(submitted, now as f64);
                queue.submit(put(submitted));
            }
        }
        for cmd in queue.drain() {
            sim.schedule_request(Instant::from_ticks(now), leader, cmd);
        }
        for cmd in queue.on_tick() {
            sim.schedule_request(Instant::from_ticks(now), leader, cmd);
        }
        sim.run_until(Instant::from_ticks(now));
        let outputs = sim.outputs();
        for ev in &outputs[seen..] {
            if ev.process != leader {
                continue;
            }
            if let Some((client, seq, response)) = ev.output.settlement() {
                if client == CLIENT && !reply_at.contains_key(&seq) {
                    // Stamp the reply at the tick the response exists, not
                    // at the (coarser) harness observation point.
                    queue.set_now(ev.at);
                    if queue.settle(client, seq, response).is_some() {
                        reply_at.insert(seq, ev.at.ticks() as f64);
                        last_commit = last_commit.max(ev.at.ticks());
                    }
                }
            }
        }
        seen = outputs.len();
        on_tick(now);
    }
    NetsimDrive {
        committed: reply_at.len() as u64,
        last_commit,
        submit_at,
        reply_at,
    }
}

/// An unsharded kv replica at `env` over an in-memory store, probed by
/// `probe`.
fn kv_replica<P: Probe>(env: &Env, p: ConsensusParams, probe: P) -> KvReplica<P> {
    ReplicatedLog::builder(env, p)
        .storage(StorageHandle::in_memory())
        .probe(probe)
        .build()
        .and_then(KvReplica::from_log)
        .expect("open in-memory store")
}

/// Traced netsim run over `shards` groups: one `ReplicatedLog` with its own
/// Ω when 1, else a `ShardedNode` of them under one shared Ω. Recorder
/// probes sit on every node *and* on the client's submit queue, whose
/// `ShardRoute` stage stamps every path with its true group. An unsharded
/// run also samples the timeline every 64 ticks.
fn netsim_run(
    n: usize,
    commands: u64,
    (max_batch, depth, shards): (usize, usize, u32),
    seed: u64,
    registry: &Registry,
    sampler: &mut TimelineSampler,
) -> (LatencyRow, NetsimDrive) {
    let recorders = Arc::new(NodeRecorders::new(n, (commands as usize * 16).max(4_096)));
    let p = params(max_batch, depth);
    let map = PlacementMap::uniform(shards, n);
    let queue = SubmitQueue::with_probe(
        map.clone(),
        commands as usize,
        ProcessId(0),
        recorders.probe_for(ProcessId(0)),
    );
    let drive = if shards == 1 {
        let reg = recorders.registry();
        let node = |env: &Env| kv_replica(env, p, recorders.probe_for(env.id()));
        netsim_drive(n, commands, seed, node, queue, |now| {
            if now % 64 == 0 {
                sampler.sample(&reg, now);
            }
        })
    } else {
        let node = |env: &Env| {
            ShardedNode::builder(env, p, PlacementManager::with_all_attached(map.clone()))
                .probe(recorders.probe_for(env.id()))
                .build()
                .and_then(ShardedKvNode::from_log)
                .expect("in-memory log")
        };
        netsim_drive(n, commands, seed, node, queue, |_| {})
    };
    let row = close_row(
        registry,
        "netsim",
        (max_batch, depth, shards),
        commands,
        &recorders,
        &drive.submit_at,
        &drive.reply_at,
    );
    (row, drive)
}

/// The NoopProbe parity run: identical drive, no instrumentation. In
/// virtual time the two runs must be indistinguishable.
fn netsim_noop_run(
    n: usize,
    commands: u64,
    max_batch: usize,
    depth: usize,
    seed: u64,
) -> NetsimDrive {
    let p = params(max_batch, depth);
    netsim_drive(
        n,
        commands,
        seed,
        |env| kv_replica(env, p, NoopProbe),
        SubmitQueue::new(commands as usize),
        |_| {},
    )
}

/// Maps a wall-clock instant into the cluster's tick domain — the same
/// `(now - epoch) / tick` formula every node applies, so client-side probe
/// events land on the replicas' timeline.
fn to_ticks(epoch: StdInstant, tick: StdDuration, at: StdInstant) -> u64 {
    (at.saturating_duration_since(epoch).as_nanos() / tick.as_nanos().max(1)) as u64
}

/// Post-processes a stopped wall-clock run: finds each command's earliest
/// leader-side `Applied`, settles it through the queue (stamping the
/// `Reply` stage at that tick), and returns the harness's unquantized
/// end-to-end measurements in fractional ticks.
fn settle_wall_outputs<P: Probe>(
    outputs: &[TimedOutput<KvEvent>],
    leader: ProcessId,
    tick: StdDuration,
    submit_wall: &BTreeMap<u64, StdDuration>,
    queue: &mut SubmitQueue<P>,
) -> (BTreeMap<u64, f64>, BTreeMap<u64, f64>) {
    let tick_nanos = tick.as_nanos().max(1);
    let mut applied: BTreeMap<u64, (StdDuration, KvResponse)> = BTreeMap::new();
    for t in outputs.iter().filter(|t| t.process == leader) {
        if let KvEvent::Applied {
            client,
            seq,
            response,
            ..
        } = &t.output
        {
            if *client == CLIENT {
                applied.entry(*seq).or_insert((t.at, response.clone()));
            }
        }
    }
    let mut submit_at = BTreeMap::new();
    let mut reply_at = BTreeMap::new();
    for (seq, (at, response)) in &applied {
        let Some(&sub) = submit_wall.get(seq) else {
            continue;
        };
        queue.set_now(Instant::from_ticks((at.as_nanos() / tick_nanos) as u64));
        if queue.settle(CLIENT, *seq, response).is_some() {
            submit_at.insert(*seq, sub.as_nanos() as f64 / tick_nanos as f64);
            reply_at.insert(*seq, at.as_nanos() as f64 / tick_nanos as f64);
        }
    }
    (submit_at, reply_at)
}

/// What the wirenet leg reports beyond its attribution row.
struct LiveTimeline {
    /// Frames the in-process sampler retained when the run ended.
    frames: u64,
    /// The served `/timeline` body equalled the sampler's own rendering.
    matched: bool,
    /// The sampler's JSON, embedded in BENCH output.
    json: String,
}

/// Wall-clock run over TCP: the commands are tagged through a submit queue
/// stamped on the cluster's tick domain and burst at the elected leader;
/// the recorded outputs are polled, sampling `timeline` every 5 ms, until
/// the leader applied them all; then, while the cluster still runs, the
/// timeline is served live (see [`serve_timeline`]), and the run is settled
/// and attributed from the stopped report, whose socket counters go into
/// `registry` too.
fn wall_run(
    (n, commands): (usize, u64),
    (max_batch, depth): (usize, usize),
    seed: u64,
    registry: &Registry,
    timeline: &Arc<Mutex<TimelineSampler>>,
) -> (LatencyRow, LiveTimeline) {
    let recorders = Arc::new(NodeRecorders::new(n, (commands as usize * 16).max(4_096)));
    let p = params(max_batch, depth);
    let cluster = WireCluster::spawn(wire_config(n, 0.0, seed), |env| {
        ReplicatedLog::builder(env, p)
            .storage(StorageHandle::in_memory())
            .probe(recorders.probe_for(env.id()))
            .build()
            .and_then(KvReplica::from_log)
            .expect("open in-memory store")
    });
    let leader = stable_leader(&cluster, &all(n), KvEvent::leader).unwrap_or(ProcessId(0));
    let (epoch, tick) = (cluster.epoch(), cluster.tick());
    let mut queue = SubmitQueue::with_probe(
        PlacementMap::uniform(1, n),
        commands as usize,
        ProcessId(0),
        recorders.probe_for(ProcessId(0)),
    );
    let mut submit_wall: BTreeMap<u64, StdDuration> = BTreeMap::new();
    for seq in 1..=commands {
        let now = StdInstant::now();
        queue.set_now(Instant::from_ticks(to_ticks(epoch, tick, now)));
        queue.submit(put(seq));
        submit_wall.insert(seq, now.saturating_duration_since(epoch));
    }
    for cmd in queue.drain() {
        cluster.request(leader, cmd);
    }
    let reg = recorders.registry();
    let sample = || {
        timeline
            .lock()
            .expect("sampler lock")
            .sample(&reg, to_ticks(epoch, tick, StdInstant::now()));
    };
    let deadline = StdInstant::now() + StdDuration::from_secs(30);
    let (mut cursor, mut done) = (OutputCursor::default(), 0);
    loop {
        sample();
        done += cluster
            .outputs_since(&mut cursor)
            .iter()
            .filter(|o| {
                o.process == leader
                    && matches!(&o.output, KvEvent::Applied { client, .. } if *client == CLIENT)
            })
            .count() as u64;
        if done >= commands || StdInstant::now() > deadline {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(5));
    }
    let live = serve_timeline(&recorders, timeline, &sample);
    let report = cluster.stop();
    let (submit_at, reply_at) =
        settle_wall_outputs(report.outputs(), leader, tick, &submit_wall, &mut queue);
    let row = close_row(
        registry,
        "wirenet",
        (max_batch, depth, 1),
        commands,
        &recorders,
        &submit_at,
        &reply_at,
    );
    report.export(registry);
    (row, live)
}

/// The live `/timeline` check, once the leader applied every command: tops the sampler up to [`MIN_LIVE_FRAMES`], then serves it over
/// the scrape route and compares the served body with the sampler's own
/// rendering.
fn serve_timeline(
    recorders: &Arc<NodeRecorders>,
    sampler: &Arc<Mutex<TimelineSampler>>,
    sample: &dyn Fn(),
) -> LiveTimeline {
    // Guarantee the live gate has enough frames even on an instant run.
    while sampler.lock().expect("sampler lock").total() < MIN_LIVE_FRAMES {
        sample();
        std::thread::sleep(StdDuration::from_millis(2));
    }
    let server = ScrapeServer::spawn(
        ScrapeRoutes::for_recorders(Arc::clone(recorders)).with_timeline(Arc::clone(sampler)),
    )
    .expect("bind scrape listener");
    // Sampling has stopped; the served body must now be byte-identical to
    // the in-process rendering.
    let local = sampler.lock().expect("sampler lock").to_json();
    let matched = scrape(server.addr(), "/timeline").is_ok_and(|body| body == local);
    let frames = sampler.lock().expect("sampler lock").len() as u64;
    server.stop();
    LiveTimeline {
        frames,
        matched,
        json: local,
    }
}

fn row_json(row: &LatencyRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("max_batch", JsonValue::U64(row.max_batch as u64)),
        ("pipeline_depth", JsonValue::U64(row.depth as u64)),
        ("shards", JsonValue::U64(u64::from(row.shards))),
        ("commands", JsonValue::U64(row.commands)),
        ("complete_paths", JsonValue::U64(row.complete)),
        ("partial_paths", JsonValue::U64(row.partial)),
        ("attributed_ticks", JsonValue::U64(row.attributed_ticks)),
        ("measured_ticks", JsonValue::F64(row.measured_ticks)),
        ("gap_pct", JsonValue::F64(row.gap_pct)),
        ("dominant_stage", JsonValue::str(row.dominant.clone())),
        ("dominant_share", JsonValue::F64(row.dominant_share)),
        ("pass", JsonValue::Bool(row.pass)),
    ])
}

/// **E22** — per-command latency attribution on every substrate plus the
/// live timeline plane. Returns the human table, the JSON summary the CLI
/// writes as `BENCH_E22.json`, and whether every deterministic row passed
/// (the netsim rows and NoopProbe parity) — the part of the verdict the
/// CLI gates on, since whole-tick probe stamps keep the wall-clock rows'
/// gaps noisy.
pub fn e22_latency(n: usize, commands: u64, seed: u64, quick: bool) -> (Table, JsonValue, bool) {
    let registry = Registry::new();
    let mut rows: Vec<LatencyRow> = Vec::new();
    let mut netsim_timeline = TimelineSampler::new(64);

    // netsim: the full grid, including the sharded configuration.
    let mut traced_ref: Option<NetsimDrive> = None;
    for &config in CONFIGS {
        let (row, drive) = netsim_run(n, commands, config, seed, &registry, &mut netsim_timeline);
        if config == (8, 4, 1) {
            traced_ref = Some(drive);
        }
        rows.push(row);
    }
    // NoopProbe parity: the untraced run of the (8,4) config must be
    // tick-for-tick identical to the traced one.
    let noop = netsim_noop_run(n, commands, 8, 4, seed);
    let noop_parity = traced_ref
        .as_ref()
        .is_some_and(|t| t.committed == noop.committed && t.last_commit == noop.last_commit);

    // wirenet: the unsharded configs (all of them on a full run,
    // the batched one only under --quick).
    let wall_configs: Vec<(usize, usize)> = if quick {
        vec![(8, 4)]
    } else {
        vec![(1, 1), (8, 4)]
    };
    let mut live: Option<LiveTimeline> = None;
    for &(b, d) in &wall_configs {
        let sampler = Arc::new(Mutex::new(TimelineSampler::new(64)));
        let (row, timeline) = wall_run((n, commands), (b, d), seed, &registry, &sampler);
        // The last leg's timeline carries the live gate.
        live = Some(timeline);
        rows.push(row);
    }
    let live = live.expect("at least one wirenet leg runs");
    let timeline_live = live.matched && live.frames >= MIN_LIVE_FRAMES;

    let pass = rows.iter().all(|r| r.pass) && noop_parity && timeline_live;
    let deterministic_pass = noop_parity
        && rows
            .iter()
            .filter(|r| r.substrate == "netsim")
            .all(|r| r.pass);
    let mut t = Table::new(vec![
        "substrate",
        "batch x depth x shards",
        "complete",
        "attributed vs measured",
        "gap",
        "dominant stage",
        "verdict",
    ]);
    for row in &rows {
        t.row(vec![
            row.substrate.to_owned(),
            format!("{} x {} x {}", row.max_batch, row.depth, row.shards),
            format!("{}/{}", row.complete, row.commands),
            format!(
                "{} vs {:.0} ticks",
                row.attributed_ticks, row.measured_ticks
            ),
            format!("{:.1}%", row.gap_pct),
            format!("{} ({:.0}%)", row.dominant, row.dominant_share * 100.0),
            if row.pass { "PASS" } else { "FAIL" }.to_owned(),
        ]);
    }
    t.row(vec![
        "netsim".to_owned(),
        "8 x 4 (NoopProbe)".to_owned(),
        format!("{}/{}", noop.committed, commands),
        format!("last commit @{}", noop.last_commit),
        "-".to_owned(),
        "untraced parity".to_owned(),
        if noop_parity { "PASS" } else { "FAIL" }.to_owned(),
    ]);
    t.row(vec![
        "wirenet".to_owned(),
        "/timeline live".to_owned(),
        format!("{} frames", live.frames),
        if live.matched {
            "body == sampler"
        } else {
            "MISMATCH"
        }
        .to_owned(),
        "-".to_owned(),
        format!(">= {MIN_LIVE_FRAMES} frames"),
        if timeline_live { "PASS" } else { "FAIL" }.to_owned(),
    ]);

    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e22")),
        ("seed", JsonValue::U64(seed)),
        ("n", JsonValue::U64(n as u64)),
        ("commands", JsonValue::U64(commands)),
        ("gate_pct", JsonValue::F64(GATE_PCT)),
        ("noop_parity", JsonValue::Bool(noop_parity)),
        (
            "timeline",
            JsonValue::obj(vec![
                ("live_frames", JsonValue::U64(live.frames)),
                ("served_matches", JsonValue::Bool(live.matched)),
                ("min_frames", JsonValue::U64(MIN_LIVE_FRAMES)),
                ("pass", JsonValue::Bool(timeline_live)),
            ]),
        ),
        ("pass", JsonValue::Bool(pass)),
        ("rows", JsonValue::Arr(rows.iter().map(row_json).collect())),
        (
            "timelines",
            JsonValue::obj(vec![
                ("netsim", JsonValue::Raw(netsim_timeline.to_json())),
                ("wirenet", JsonValue::Raw(live.json)),
            ]),
        ),
        ("metrics", JsonValue::Raw(registry.snapshot_json())),
    ]);
    (t, json, deterministic_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance path on the deterministic substrate: every path
    /// closes, the telescoped stage sums match the sim-measured end-to-end
    /// latencies exactly, and a dominant stage is named.
    #[test]
    fn netsim_attribution_telescopes_within_gate() {
        let registry = Registry::new();
        let mut tl = TimelineSampler::new(32);
        let (row, drive) = netsim_run(3, 120, (8, 4, 1), 7, &registry, &mut tl);
        assert_eq!(row.complete, 120, "every path must close");
        assert!(row.pass, "gap {:.2}% exceeds the gate", row.gap_pct);
        assert!(row.gap_pct < 1.0, "netsim clocks are exact");
        assert_ne!(row.dominant, "-");
        assert_eq!(drive.committed, 120);
        assert!(!tl.is_empty(), "the drive must sample the timeline");
        // The folded histograms landed under the per-run prefix.
        assert!(registry
            .snapshot_json()
            .contains("e22_netsim_b8_d4_s1_lifecycle_e2e_ticks"));
    }

    /// The sharded path stamps true shard ids: with 2 groups both shard
    /// histogram families must appear.
    #[test]
    fn netsim_sharded_paths_carry_their_shard() {
        let registry = Registry::new();
        let mut tl = TimelineSampler::new(32);
        let (row, _) = netsim_run(3, 120, (8, 4, 2), 11, &registry, &mut tl);
        assert_eq!(row.complete, 120);
        assert!(row.pass, "gap {:.2}%", row.gap_pct);
        let snap = registry.snapshot_json();
        assert!(snap.contains("e22_netsim_b8_d4_s2_shard0_lifecycle_e2e_ticks"));
        assert!(snap.contains("e22_netsim_b8_d4_s2_shard1_lifecycle_e2e_ticks"));
    }

    /// The untraced (NoopProbe) run is tick-for-tick identical to the
    /// traced one: tracing costs nothing in virtual time, so the only
    /// possible overhead is the monomorphized-away `P::ENABLED` branch.
    #[test]
    fn noop_probe_run_is_tick_identical_to_traced() {
        let registry = Registry::new();
        let mut tl = TimelineSampler::new(32);
        let (_, traced) = netsim_run(3, 120, (8, 4, 1), 7, &registry, &mut tl);
        let noop = netsim_noop_run(3, 120, 8, 4, 7);
        assert_eq!(traced.committed, noop.committed);
        assert_eq!(traced.last_commit, noop.last_commit);
        assert_eq!(traced.reply_at, noop.reply_at);
    }
}
