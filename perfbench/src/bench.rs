//! The four workloads, their phases, and the metrics computed from them.
//!
//! Every run sets the system up several times (the median set-up time is
//! `setup_s`), then measures one untraced phase. With tracing on it
//! measures an untraced phase and then a traced one of the same length
//! against the same system, so the traced end-to-end numbers sit next to
//! untraced ones and their ratio is the tracing overhead.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration as StdDuration, Instant as WallInstant};

use consensus::{BatchParams, ConsensusParams, LeaseParams};
use lls_primitives::ProcessId;

use crate::check::{check, Replica, Verdict};
use crate::load::{self, Arrival, Kind, Plan, ReadTo, Record, Rng};
use crate::node::{KvNode, Path, Span, TraceBuf, SLOT_LINK};
use crate::sim::{Sim, US_PER_TICK};
use crate::stats::{median, peak_rss_mib, percentile, sorted};
use crate::tcp::{Counters, Tcp, TICK_US};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Capacity of the durable write path: closed loop over wirenet.
    TcpPutClosed,
    /// Latency at a fixed 10k ops/s, reads on the lease and read-index paths.
    TcpMixedPaced,
    /// Puts at 2k/s while the leader is killed every ~2 s.
    TcpFailover,
    /// Protocol CPU alone: a deterministic netsim run.
    SimShardedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TcpPutClosed,
        Workload::TcpMixedPaced,
        Workload::TcpFailover,
        Workload::SimShardedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpPutClosed => "tcp-put-closed",
            Workload::TcpMixedPaced => "tcp-mixed-paced",
            Workload::TcpFailover => "tcp-failover",
            Workload::SimShardedRw => "sim-sharded-rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Delay injected into every WAL append (the storage drill).
    pub wal_delay: StdDuration,
    /// Where WAL directories and span files go.
    pub scratch: PathBuf,
}

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What the JSON line carries: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// End-to-end figures of the untraced phase, in both modes.
    pub e2e: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// End-to-end metric names, in `BENCHMARK.json` order.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("commit_p50_us", "us"),
    ("read_p50_us", "us"),
    ("msgs_per_cmd", "msgs"),
    ("peak_rss_mb", "MiB"),
];

/// Handler kinds timed in the traced run: client requests, timers and the
/// message kinds these workloads exchange.
pub const HANDLER_KINDS: [&str; 15] = [
    "request",
    "timer",
    "ALIVE",
    "ACCUSE",
    "PREPARE",
    "PROMISE",
    "ACCEPT",
    "ACCEPTED",
    "DECIDE",
    "DECIDE_ACK",
    "CATCH_UP",
    "LEASE_GRANT",
    "LEASE_ACK",
    "READ_INDEX",
    "READ_INDEX_REPLY",
];

/// Per-layer metric names other than the per-kind families.
pub const LAYERS: [(&str, &str); 26] = [
    ("gen.late_p99_us", "us"),
    ("client.resubmits_per_kcmd", "count"),
    ("kvstore.apply_ns_per_cmd", "ns"),
    ("kvstore.read_lease_frac", "ratio"),
    ("kvstore.read_index_frac", "ratio"),
    ("kvstore.read_log_frac", "ratio"),
    ("kvstore.duplicates_per_kcmd", "count"),
    ("rsm.cmds_per_slot", "cmds"),
    ("node.leader_us_per_cmd", "us"),
    ("node.follower_us_per_cmd", "us"),
    ("node.leader_busy_frac", "ratio"),
    ("omega.leader_changes", "count"),
    ("omega.alive_per_s", "msgs/s"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.bytes_per_msg", "B"),
    ("wal.groups_per_cmd", "count"),
    ("wal.append_us_p50", "us"),
    ("wal.append_us_p99", "us"),
    ("wal.bytes_per_cmd", "B"),
    ("wal.load_ms", "ms"),
    ("wirenet.frames_per_cmd", "frames"),
    ("wirenet.queue_drops", "count"),
    ("wirenet.reconnects", "count"),
    ("wirenet.wait_us_p50", "us"),
    ("netsim.self_ns_per_msg", "ns"),
];

/// End-to-end metrics whose traced/untraced ratio is reported.
pub const OVERHEAD: [&str; 3] = ["throughput_cmds_s", "commit_p50_us", "read_p50_us"];

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
pub fn layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    v.extend(
        HANDLER_KINDS
            .iter()
            .map(|k| (format!("node.handler_ns.{k}"), "ns")),
    );
    v.extend(
        HANDLER_KINDS[2..]
            .iter()
            .map(|k| (format!("msgs_per_cmd.{k}"), "msgs")),
    );
    v.extend(
        OVERHEAD
            .iter()
            .map(|m| (format!("trace.overhead.{m}"), "ratio")),
    );
    v
}

const TCP_SETUPS: usize = 9;
/// Time between leader kills in `tcp-failover`.
const FAILOVER_CYCLE_US: f64 = 4e6;
const SIM_SETUPS: usize = 5;
const WARMUP_OPS: u64 = 500;

fn params(leases: bool) -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 32,
            pipeline_depth: 8,
        },
        lease: if leases {
            LeaseParams::enabled()
        } else {
            LeaseParams::default()
        },
        ..ConsensusParams::default()
    }
}

/// The measured load of one phase of `w`, `duration_us` long.
fn plan(w: Workload, phase: u8, duration_us: f64, rng: &mut Rng) -> Plan {
    let base = Plan {
        arrival: Arrival::Closed { clients: 64 },
        duration_us,
        max_ops: u64::MAX,
        read_share: 0.0,
        read_to: ReadTo::Leader,
        keys: 1024,
        value_len: 64,
        resubmit_us: 300_000.0,
        drain_us: 3_000_000.0,
        kills: Vec::new(),
        phase,
    };
    match w {
        // Reads are 1 in 16 and go through the log (leases are off), so
        // they take the durable write path too.
        Workload::TcpPutClosed => Plan {
            read_share: 1.0 / 16.0,
            ..base
        },
        // Reads go to any replica: a third take the leader's lease path, two
        // thirds read-index, so the read median lies inside one path's
        // distribution rather than in the gap between the two.
        Workload::TcpMixedPaced => Plan {
            arrival: Arrival::Open { per_sec: 10_000.0 },
            read_share: 0.8,
            read_to: ReadTo::Spread,
            ..base
        },
        Workload::TcpFailover => {
            // Kill the leader ~0.5 s into each cycle, restart it ~1 s later,
            // and leave the rest of the cycle for the cluster to settle.
            let mut kills = Vec::new();
            let mut at = 500_000.0;
            while at + 1_300_000.0 < duration_us {
                let k = at + (rng.unit() - 0.5) * 400_000.0;
                let r = k + 1_000_000.0 + (rng.unit() - 0.5) * 200_000.0;
                kills.push((k, r));
                at += FAILOVER_CYCLE_US;
            }
            Plan {
                arrival: Arrival::Open { per_sec: 2_000.0 },
                read_share: 0.1,
                kills,
                ..base
            }
        }
        // Poisson arrivals: due times fall anywhere within a tick, so put
        // latency is not quantised to whole ticks.
        Workload::SimShardedRw => Plan {
            arrival: Arrival::Poisson {
                per_sec: 4.0 * 1e6 / US_PER_TICK,
            },
            duration_us: f64::MAX,
            max_ops: 200_000,
            read_share: 0.75,
            read_to: ReadTo::Spread,
            keys: 65_536,
            value_len: 16,
            resubmit_us: 300.0 * US_PER_TICK,
            drain_us: 20_000.0 * US_PER_TICK,
            ..base
        },
    }
}

fn warmup(w: Workload) -> Plan {
    Plan {
        arrival: Arrival::Closed { clients: 64 },
        duration_us: 10e6,
        max_ops: WARMUP_OPS,
        read_share: 0.0,
        read_to: ReadTo::Leader,
        keys: if w == Workload::SimShardedRw {
            65_536
        } else {
            1024
        },
        value_len: if w == Workload::SimShardedRw { 16 } else { 64 },
        resubmit_us: 300_000.0,
        drain_us: 0.0,
        kills: Vec::new(),
        phase: 0,
    }
}

/// End-to-end numbers of one phase.
#[derive(Debug, Default, Clone)]
struct Phase {
    attempted: u64,
    failed: u64,
    acked: u64,
    /// From the phase's start to its last answer: an open loop that falls
    /// behind its schedule answers later and so reads lower.
    seconds: f64,
    throughput: f64,
    /// Sorted latencies of acknowledged puts and reads, µs.
    commit: Vec<f64>,
    read: Vec<f64>,
    msgs_per_cmd: f64,
    bytes_per_cmd: Option<f64>,
    /// Per kill: ms from the kill to the first answered operation.
    unavail_ms: Vec<f64>,
}

impl Phase {
    fn of(rec: &Record, phase: u8, msgs: u64, bytes: Option<u64>) -> Phase {
        let ops: Vec<&load::Op> = rec.ops.iter().filter(|o| o.phase == phase).collect();
        let acked = ops.iter().filter(|o| o.latency().is_some()).count() as u64;
        let start = rec
            .windows
            .iter()
            .find(|w| w.0 == phase)
            .map_or(0.0, |w| w.1);
        let last = ops
            .iter()
            .filter_map(|o| o.done.as_ref().filter(|d| !d.failed).map(|d| d.at))
            .fold(start, f64::max);
        let seconds = (last - start) / 1e6;
        let lat = |put: bool| {
            sorted(
                ops.iter()
                    .filter(|o| matches!(o.kind, Kind::Put { .. }) == put)
                    .filter_map(|o| o.latency()),
            )
        };
        Phase {
            attempted: ops.len() as u64,
            failed: ops.len() as u64 - acked,
            acked,
            seconds,
            throughput: acked as f64 / seconds.max(1e-9),
            commit: lat(true),
            read: lat(false),
            msgs_per_cmd: msgs as f64 / acked.max(1) as f64,
            bytes_per_cmd: bytes.map(|b| b as f64 / acked.max(1) as f64),
            unavail_ms: rec
                .kills
                .iter()
                .filter(|k| k.phase == phase)
                .map(|k| k.served_at.map_or(f64::NAN, |s| (s - k.at) / 1e3))
                .collect(),
        }
    }

    fn e2e(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("throughput_cmds_s", self.throughput),
            ("commit_p50_us", percentile(&self.commit, 0.5)),
            ("read_p50_us", percentile(&self.read, 0.5)),
            ("msgs_per_cmd", self.msgs_per_cmd),
        ])
    }

    fn lines(&self, label: &str, w: Workload) -> Vec<String> {
        let virt = if w == Workload::SimShardedRw {
            " (virtual time, 1 tick = 1000 us)"
        } else {
            ""
        };
        let mut out = vec![
            format!(
                "{label}: {} attempted, {} acknowledged, {} failed (ops_failed_ratio {:.6}) over {:.3} s",
                self.attempted,
                self.acked,
                self.failed,
                self.failed as f64 / self.attempted.max(1) as f64,
                self.seconds
            ),
            format!(
                "{label}: throughput_cmds_s {:.1} cmds/s; msgs_per_cmd {:.4} msgs",
                self.throughput, self.msgs_per_cmd
            ),
            format!(
                "{label}: commit_p50_us {:.1} us, commit_p99_us {:.1} us (n={}){virt}",
                percentile(&self.commit, 0.5),
                percentile(&self.commit, 0.99),
                self.commit.len()
            ),
            format!(
                "{label}: read_p50_us {:.1} us, read_p99_us {:.1} us (n={}){virt}",
                percentile(&self.read, 0.5),
                percentile(&self.read, 0.99),
                self.read.len()
            ),
        ];
        if let Some(b) = self.bytes_per_cmd {
            out.push(format!(
                "{label}: bytes_per_cmd {b:.1} B (socket bytes written / acknowledged)"
            ));
        }
        if w == Workload::SimShardedRw {
            out.push(format!(
                "{label}: sim_cmds_per_s {:.1} cmds/s; commit_p99_ticks {:.3} ticks",
                self.throughput,
                percentile(&self.commit, 0.99) / US_PER_TICK
            ));
        }
        if !self.unavail_ms.is_empty() {
            out.push(format!(
                "{label}: unavail_ms {:.1} ms (median over {} kills: {:?})",
                median(self.unavail_ms.iter().copied()),
                self.unavail_ms.len(),
                self.unavail_ms
                    .iter()
                    .map(|v| (v * 10.0).round() / 10.0)
                    .collect::<Vec<_>>()
            ));
        }
        out
    }
}

/// Runs one workload as configured.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::SimShardedRw => run_sim(cfg),
        w => run_tcp(cfg, w),
    }
}

fn leases(w: Workload) -> bool {
    matches!(w, Workload::TcpMixedPaced | Workload::SimShardedRw)
}

fn failure(lines: Vec<String>, why: String) -> Outcome {
    let mut out = Outcome {
        lines,
        ..Outcome::default()
    };
    out.lines.push(format!("FAILED: {why}"));
    out
}

/// Spawns a TCP cluster and warms it up; returns it and the set-up time.
fn tcp_setup(
    cfg: &Config,
    w: Workload,
    rng: &mut Rng,
    rec: &mut Record,
) -> Result<(Tcp, f64), String> {
    let start = WallInstant::now();
    let mut tcp = Tcp::start(&cfg.scratch, params(leases(w)), cfg.wal_delay)?;
    load::run(&mut tcp, &warmup(w), rng, rec);
    let unacked = rec.ops.iter().filter(|o| o.latency().is_none()).count();
    if unacked > 0 {
        return Err(format!(
            "warm-up left {unacked} of {WARMUP_OPS} puts unanswered (no settled leader)"
        ));
    }
    Ok((tcp, start.elapsed().as_secs_f64()))
}

fn run_tcp(cfg: &Config, w: Workload) -> Outcome {
    let mut lines = Vec::new();
    let mut setups = Vec::new();
    let mut system = None;
    for i in 0..TCP_SETUPS {
        let mut rng = Rng::new(cfg.seed ^ (0x5E70 + i as u64));
        let mut rec = Record::new(Tcp::N);
        match tcp_setup(cfg, w, &mut rng, &mut rec) {
            Ok((tcp, secs)) => {
                setups.push(secs);
                if i + 1 == TCP_SETUPS {
                    system = Some((tcp, rec));
                }
            }
            Err(e) => return failure(lines, e),
        }
    }
    let (mut tcp, mut rec) = system.expect("last set-up kept");
    let setup_s = median(setups.iter().copied());
    lines.push(format!(
        "setup_s {setup_s:.4} s (median of {} set-ups: {setups:.4?})",
        setups.len()
    ));

    let mut rng = Rng::new(cfg.seed);
    let phases: Vec<(u8, f64)> = if cfg.trace {
        vec![(1, cfg.seconds * 5e5), (2, cfg.seconds * 5e5)]
    } else {
        vec![(1, cfg.seconds * 1e6)]
    };
    let mut deltas: HashMap<u8, Counters> = HashMap::new();
    for &(phase, dur) in &phases {
        let plan = plan(w, phase, dur, &mut rng);
        tcp.tracer.on.store(phase == 2, Ordering::Relaxed);
        let before = tcp.counters();
        load::run(&mut tcp, &plan, &mut rng, &mut rec);
        deltas.insert(phase, tcp.counters().since(&before));
        tcp.tracer.on.store(false, Ordering::Relaxed);
    }
    let peak = peak_rss_mib();
    tcp.collect_stores(StdDuration::from_secs(3));
    let wirenet_epoch_us = tcp.tracer.ns(tcp.cluster().epoch()) as f64 / 1e3;
    tcp.stop();

    let replicas: Vec<Replica> = tcp
        .incarnations
        .iter()
        .enumerate()
        .map(|(i, inc)| {
            let log = inc.log.lock().expect("replica log");
            Replica {
                name: format!("p{}#{i}", inc.node),
                applied: log.applied.clone(),
                store: log.state.as_ref().map(|s| s.1.clone()),
            }
        })
        .collect();
    let verdict = check(&rec.ops, &replicas);
    let mut violations = verdict.violations.clone();
    let live_stores = replicas.iter().filter(|r| r.store.is_some()).count();
    if live_stores < Tcp::N {
        violations.push(format!(
            "only {live_stores} of {} replicas reported a final store",
            Tcp::N
        ));
    }
    violations.extend(tcp.errors.iter().map(|e| format!("cluster error: {e}")));

    let summaries: Vec<(u8, Phase)> = phases
        .iter()
        .map(|&(p, _)| {
            let d = deltas[&p];
            (p, Phase::of(&rec, p, d.msgs, Some(d.links.bytes_sent)))
        })
        .collect();
    let mut out = finish(cfg, w, lines, setup_s, peak, &summaries, violations);
    if cfg.trace {
        let bufs: Vec<(u32, TraceBuf)> = tcp
            .incarnations
            .iter()
            .map(|inc| {
                (
                    inc.node,
                    std::mem::take(&mut *inc.trace.lock().expect("trace")),
                )
            })
            .collect();
        let d = deltas[&2];
        let wal_load = if tcp.load_ms.is_empty() {
            tcp.time_wal_load(0).unwrap_or(0.0)
        } else {
            median(tcp.load_ms.iter().copied())
        };
        let rejoin = rejoin_ms(&rec, &tcp, wirenet_epoch_us);
        if tcp.restarts.is_empty() {
            out.lines.push(
                "note: wal.load_ms: no restart; time to reopen p0's WAL after the run".into(),
            );
        }
        let ctx = LayerCtx {
            rec: &rec,
            bufs: &bufs,
            verdict: &verdict,
            n: Tcp::N,
            links: Some(d),
            wal_load_ms: Some(wal_load),
            rejoin_ms: rejoin,
            sim_wall_ns: None,
        };
        layers(cfg, &ctx, &summaries, &mut out);
    }
    out
}

/// Per restart in the traced phase: ms until the restarted incarnation
/// applies a slot at or past the newest put acknowledged before it came
/// back.
fn rejoin_ms(rec: &Record, tcp: &Tcp, wirenet_epoch_us: f64) -> Option<f64> {
    let traced = rec.windows.iter().find(|w| w.0 == 2)?;
    let times: Vec<f64> = tcp
        .restarts
        .iter()
        .filter(|r| r.0 >= traced.1)
        .filter_map(|&(at, inc)| {
            let newest = rec
                .ops
                .iter()
                .filter(|o| matches!(o.kind, Kind::Put { .. }))
                .filter_map(|o| o.done.as_ref().filter(|d| !d.failed && d.at < at))
                .map(|d| d.slot)
                .max()?;
            let log = tcp.incarnations[inc].log.lock().expect("replica log");
            let e = log.applied.iter().find(|e| e.slot >= newest)?;
            let applied_at = wirenet_epoch_us + (e.tick * TICK_US) as f64;
            Some((applied_at - at).max(0.0) / 1e3)
        })
        .collect();
    (!times.is_empty()).then(|| median(times))
}

fn sim_setup(cfg: &Config, seed_mix: u64, traced: bool) -> Result<(Sim, Record, f64), String> {
    let start = WallInstant::now();
    let mut sim = Sim::build(cfg.seed, params(true), traced);
    let mut rec = Record::new(Sim::N);
    let mut rng = Rng::new(cfg.seed ^ seed_mix);
    load::run(
        &mut sim,
        &warmup(Workload::SimShardedRw),
        &mut rng,
        &mut rec,
    );
    let unacked = rec.ops.iter().filter(|o| o.latency().is_none()).count();
    if unacked > 0 {
        return Err(format!(
            "warm-up left {unacked} of {WARMUP_OPS} puts unanswered"
        ));
    }
    Ok((sim, rec, start.elapsed().as_secs_f64()))
}

/// Spans of each node of a run, by node id.
type Spans = Vec<(u32, TraceBuf)>;

/// One measured simulation: its phase summary, check and wall time, and
/// for the traced one the record, spans and messages delivered.
struct SimRun {
    phase: Phase,
    /// Peak RSS when the simulation ended, before any checking.
    peak: f64,
    verdict: Verdict,
    wall_ns: u64,
    traced: Option<(Record, Spans, u64)>,
}

fn sim_measure(cfg: &Config, phase: u8) -> Result<(SimRun, f64), String> {
    let (mut sim, mut rec, setup) = sim_setup(cfg, 0x51, phase == 2)?;
    let mut rng = Rng::new(cfg.seed);
    let plan = plan(Workload::SimShardedRw, phase, 0.0, &mut rng);
    let sent_before = sim.sim.stats().total_sent();
    let start = WallInstant::now();
    load::run(&mut sim, &plan, &mut rng, &mut rec);
    let wall = start.elapsed();
    let peak = peak_rss_mib();
    let sent = sim.sim.stats().total_sent() - sent_before;
    // Let followers learn the last decisions before their stores are read.
    let settle = sim.sim.now().ticks() + 1_000;
    sim.sim
        .run_until(lls_primitives::Instant::from_ticks(settle));
    let mut phase_sum = Phase::of(&rec, phase, sent, None);
    // Simulated commands per wall-clock second of simulation.
    phase_sum.seconds = wall.as_secs_f64();
    phase_sum.throughput = phase_sum.acked as f64 / phase_sum.seconds.max(1e-9);
    let replicas: Vec<Replica> = (0..Sim::N)
        .map(|p| {
            let node = sim.sim.node(ProcessId(p as u32));
            let log = sim.logs[p].lock().expect("replica log");
            Replica {
                name: format!("p{p}"),
                applied: log.applied.clone(),
                store: Some(node.inner.store().1),
            }
        })
        .collect();
    let verdict = check(&rec.ops, &replicas);
    let traced = (phase == 2).then(|| {
        let bufs = sim
            .traces
            .iter()
            .enumerate()
            .map(|(p, b)| (p as u32, std::mem::take(&mut *b.lock().expect("trace"))))
            .collect();
        (rec, bufs, sim.delivered())
    });
    Ok((
        SimRun {
            phase: phase_sum,
            peak,
            verdict,
            wall_ns: wall.as_nanos() as u64,
            traced,
        },
        setup,
    ))
}

fn run_sim(cfg: &Config) -> Outcome {
    let mut lines = Vec::new();
    let begun = WallInstant::now();
    let mut setups = Vec::new();
    let mut runs: Vec<SimRun> = Vec::new();
    let phases: &[u8] = if cfg.trace { &[1, 2] } else { &[1] };
    let mut traced = None;
    for &phase in phases {
        // Untraced: repeat the (identical) simulation while the run's time
        // lasts and report the median speed. Traced: once.
        loop {
            match sim_measure(cfg, phase) {
                Ok((r, setup)) => {
                    setups.push(setup);
                    if phase == 2 {
                        traced = Some(r);
                        break;
                    }
                    runs.push(r);
                }
                Err(e) => return failure(lines, e),
            }
            let per_run = begun.elapsed().as_secs_f64() / runs.len() as f64;
            let budget = if cfg.trace {
                cfg.seconds / 2.0
            } else {
                cfg.seconds
            };
            if begun.elapsed().as_secs_f64() + per_run > budget {
                break;
            }
        }
    }
    while setups.len() < SIM_SETUPS {
        match sim_setup(cfg, 0x5E70 + setups.len() as u64, false) {
            Ok((_, _, s)) => setups.push(s),
            Err(e) => return failure(lines, e),
        }
    }
    let setup_s = median(setups.iter().copied());
    lines.push(format!(
        "setup_s {setup_s:.5} s (median of {} set-ups)",
        setups.len()
    ));
    let peak = runs[0].peak;

    let mut violations: Vec<String> = runs
        .iter()
        .flat_map(|r| r.verdict.violations.clone())
        .collect();
    // The simulation is deterministic: every repetition must agree exactly.
    let det = |r: &SimRun| {
        (
            r.phase.acked,
            r.phase.msgs_per_cmd.to_bits(),
            percentile(&r.phase.commit, 0.99).to_bits(),
            percentile(&r.phase.read, 0.99).to_bits(),
        )
    };
    if runs.windows(2).any(|w| det(&w[0]) != det(&w[1])) {
        violations
            .push("repetitions of one seed disagree: the simulation is not deterministic".into());
    }
    let mut first = runs[0].phase.clone();
    first.throughput = median(runs.iter().map(|r| r.phase.throughput));
    lines.push(format!(
        "sim: {} repetition(s) of the seed, cmds/s per repetition {:?}",
        runs.len(),
        runs.iter()
            .map(|r| r.phase.throughput.round())
            .collect::<Vec<_>>()
    ));
    let mut summaries = vec![(1u8, first)];
    if let Some(t) = &traced {
        violations.extend(t.verdict.violations.clone());
        summaries.push((2, t.phase.clone()));
    }
    let mut out = finish(
        cfg,
        Workload::SimShardedRw,
        lines,
        setup_s,
        peak,
        &summaries,
        violations,
    );
    if let Some((t, (rec, bufs, delivered))) =
        traced.and_then(|mut t| t.traced.take().map(|x| (t, x)))
    {
        let ctx = LayerCtx {
            rec: &rec,
            bufs: &bufs,
            verdict: &t.verdict,
            n: Sim::N,
            links: None,
            wal_load_ms: None,
            rejoin_ms: None,
            sim_wall_ns: Some((t.wall_ns, delivered)),
        };
        layers(cfg, &ctx, &summaries, &mut out);
    }
    out
}

/// Assembles the verdict, the report lines and the end-to-end metrics.
fn finish(
    cfg: &Config,
    w: Workload,
    mut lines: Vec<String>,
    setup_s: f64,
    peak: f64,
    phases: &[(u8, Phase)],
    violations: Vec<String>,
) -> Outcome {
    for (p, ph) in phases {
        let label = if *p == 2 { "traced" } else { "untraced" };
        lines.extend(ph.lines(label, w));
    }
    lines.push(format!("peak_rss_mb {peak:.1} MiB"));
    let correct = violations.is_empty();
    lines.push(format!(
        "correctness: {} ({} violation(s))",
        if correct { "PASS" } else { "FAIL" },
        violations.len()
    ));
    lines.extend(violations.iter().map(|v| format!("  violation: {v}")));
    let attempted = phases.iter().map(|(_, p)| p.attempted).sum();
    let failed = phases.iter().map(|(_, p)| p.failed).sum();
    let mut e2e = phases[0].1.e2e();
    e2e.insert("setup_s", setup_s);
    e2e.insert("peak_rss_mb", peak);
    let metrics = if cfg.trace {
        Vec::new()
    } else {
        E2E.iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                value: e2e[name],
                unit,
            })
            .collect()
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        lines,
        e2e,
    }
}

/// What the per-layer metrics are computed from (the traced phase, 2).
struct LayerCtx<'a> {
    rec: &'a Record,
    bufs: &'a [(u32, TraceBuf)],
    verdict: &'a Verdict,
    n: usize,
    links: Option<Counters>,
    wal_load_ms: Option<f64>,
    rejoin_ms: Option<f64>,
    /// Wall time of the traced simulation and messages it delivered.
    sim_wall_ns: Option<(u64, u64)>,
}

/// The generator's leader view at time `t` (µs); on netsim, whose spans
/// are on the wall clock, the final view.
fn leader_at(rec: &Record, t: f64, virtual_time: bool) -> Option<u32> {
    if virtual_time {
        return rec.leader_view.last().map(|v| v.1);
    }
    let i = rec.leader_view.partition_point(|(at, _)| *at <= t);
    i.checked_sub(1).map(|i| rec.leader_view[i].1)
}

fn layers(cfg: &Config, c: &LayerCtx<'_>, phases: &[(u8, Phase)], out: &mut Outcome) {
    let rec = c.rec;
    let ph = phases
        .iter()
        .find(|(p, _)| *p == 2)
        .map(|(_, p)| p.clone())
        .unwrap_or_default();
    let acked = ph.acked.max(1) as f64;
    let window = rec
        .windows
        .iter()
        .find(|w| w.0 == 2)
        .map_or((0.0, 0.0), |w| (w.1, w.2));
    let us = |ns: u64| ns as f64 / 1e3;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut notes: Vec<String> = Vec::new();

    // Load generator.
    let late = sorted(rec.lateness.iter().filter(|l| l.0 == 2).map(|l| l.1));
    m.insert("gen.late_p99_us".into(), percentile(&late, 0.99));
    if late.is_empty() {
        notes.push(
            "gen.late_p99_us: closed loop, operations have no schedule to be late for".into(),
        );
    } else if c.sim_wall_ns.is_some() {
        notes.push(
            "gen.late_p99_us: virtual time; an operation due inside a tick is sent at its end"
                .into(),
        );
    }
    let ops: Vec<&load::Op> = rec.ops.iter().filter(|o| o.phase == 2).collect();
    let resubmits: u64 = ops.iter().map(|o| u64::from(o.attempts - 1)).sum();
    m.insert(
        "client.resubmits_per_kcmd".into(),
        resubmits as f64 * 1e3 / ops.len().max(1) as f64,
    );

    // kvstore.
    m.insert(
        "kvstore.apply_ns_per_cmd".into(),
        c.verdict.apply_ns_per_cmd,
    );
    let reads: Vec<Path> = ops
        .iter()
        .filter(|o| matches!(o.kind, Kind::Read { .. }))
        .filter_map(|o| o.done.as_ref().filter(|d| !d.failed).map(|d| d.path))
        .collect();
    for (name, path) in [
        ("kvstore.read_lease_frac", Path::Lease),
        ("kvstore.read_index_frac", Path::Index),
        ("kvstore.read_log_frac", Path::Log),
    ] {
        let k = reads.iter().filter(|p| **p == path).count();
        m.insert(name.into(), k as f64 / reads.len().max(1) as f64);
    }
    m.insert(
        "kvstore.duplicates_per_kcmd".into(),
        c.verdict.duplicates as f64 * 1e3 / c.verdict.committed_puts.max(1) as f64,
    );
    m.insert(
        "rsm.cmds_per_slot".into(),
        c.verdict.committed_puts as f64 / c.verdict.slots.max(1) as f64,
    );

    // Consensus node handlers: self time is span time minus WAL children.
    let mut lead_self = 0u64;
    let mut lead_busy = 0u64;
    let mut follow_self = 0u64;
    let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut sends: BTreeMap<&str, u64> = BTreeMap::new();
    let mut codec = (0u64, 0u64, 0u64, 0u64);
    let mut wal_us = Vec::new();
    let (mut wal_groups, mut wal_bytes) = (0u64, 0u64);
    let mut handler_ns = 0u64;
    for (node, b) in c.bufs {
        for s in &b.spans {
            let dur = s.end.saturating_sub(s.start);
            let own = dur.saturating_sub(s.wal_ns);
            handler_ns += dur;
            let k = kinds.entry(s.kind).or_default();
            k.0 += 1;
            k.1 += own;
            if leader_at(rec, s.start as f64 / 1e3, c.sim_wall_ns.is_some()) == Some(*node) {
                lead_self += own;
                lead_busy += dur;
            } else {
                follow_self += own;
            }
        }
        for (k, v) in &b.sends {
            *sends.entry(k).or_default() += v;
        }
        codec = (
            codec.0 + b.codec.0,
            codec.1 + b.codec.1,
            codec.2 + b.codec.2,
            codec.3 + b.codec.3,
        );
        for wsp in &b.wal {
            wal_groups += 1;
            wal_bytes += wsp.bytes;
            wal_us.push(us(wsp.end.saturating_sub(wsp.start)));
        }
    }
    m.insert("node.leader_us_per_cmd".into(), us(lead_self) / acked);
    m.insert(
        "node.follower_us_per_cmd".into(),
        us(follow_self) / acked / (c.n - 1) as f64,
    );
    let busy_over_us = c
        .sim_wall_ns
        .map_or(window.1 - window.0, |(wall, _)| us(wall));
    m.insert(
        "node.leader_busy_frac".into(),
        us(lead_busy) / busy_over_us.max(1.0),
    );
    for k in HANDLER_KINDS {
        let (count, ns) = kinds.get(k).copied().unwrap_or_default();
        m.insert(
            format!("node.handler_ns.{k}"),
            ns as f64 / count.max(1) as f64,
        );
    }
    for k in &HANDLER_KINDS[2..] {
        m.insert(
            format!("msgs_per_cmd.{k}"),
            *sends.get(k).unwrap_or(&0) as f64 / acked,
        );
    }
    let unlisted: Vec<String> = kinds
        .iter()
        .filter(|(k, _)| !HANDLER_KINDS.contains(k))
        .map(|(k, (count, ns))| {
            format!(
                "{k}: {count} calls, {:.0} ns each",
                *ns as f64 / (*count).max(1) as f64
            )
        })
        .collect();
    if !unlisted.is_empty() {
        notes.push(format!(
            "handler kinds outside the metric list: {}",
            unlisted.join("; ")
        ));
    }

    // Ω.
    let changes = rec
        .leaders
        .iter()
        .filter(|(at, _, _)| *at >= window.0 && *at <= window.1)
        .count();
    m.insert("omega.leader_changes".into(), changes as f64);
    let detect: Vec<f64> = rec
        .kills
        .iter()
        .filter(|k| k.phase == 2)
        .filter_map(|k| k.detected_at.map(|d| (d - k.at) / 1e3))
        .collect();
    // Kill-only figures (tcp-failover) are reported beside the metric list.
    if !detect.is_empty() {
        notes.push(format!(
            "omega.detect_ms {:.1} ms (median over {} kills)",
            median(detect.iter().copied()),
            detect.len()
        ));
    }
    m.insert(
        "omega.alive_per_s".into(),
        *sends.get("ALIVE").unwrap_or(&0) as f64 / ((window.1 - window.0) / 1e6).max(1e-9),
    );

    // Codec.
    m.insert(
        "wire.encode_ns_per_msg".into(),
        codec.1 as f64 / codec.0.max(1) as f64,
    );
    m.insert(
        "wire.decode_ns_per_msg".into(),
        codec.2 as f64 / codec.0.max(1) as f64,
    );
    m.insert(
        "wire.bytes_per_msg".into(),
        codec.3 as f64 / codec.0.max(1) as f64,
    );
    if c.sim_wall_ns.is_some() {
        notes.push(
            "wire.*: netsim never encodes; these time a copy of each message the simulation sent"
                .into(),
        );
    }

    // Storage.
    let wal_sorted = sorted(wal_us);
    m.insert("wal.groups_per_cmd".into(), wal_groups as f64 / acked);
    m.insert("wal.append_us_p50".into(), percentile(&wal_sorted, 0.5));
    m.insert("wal.append_us_p99".into(), percentile(&wal_sorted, 0.99));
    m.insert("wal.bytes_per_cmd".into(), wal_bytes as f64 / acked);
    m.insert("wal.load_ms".into(), c.wal_load_ms.unwrap_or(0.0));
    if c.wal_load_ms.is_none() {
        notes.push("wal.*: the simulated nodes keep no WAL".into());
    }
    if let Some(r) = c.rejoin_ms {
        notes.push(format!(
            "recovery.rejoin_ms {r:.1} ms (median over restarts)"
        ));
    }

    // wirenet.
    let links = c.links.unwrap_or_default().links;
    m.insert(
        "wirenet.frames_per_cmd".into(),
        links.msgs_sent as f64 / acked,
    );
    m.insert("wirenet.queue_drops".into(), links.queue_drops as f64);
    m.insert("wirenet.reconnects".into(), links.reconnects as f64);
    let codec_ns = (codec.1 + codec.2) as f64 / codec.0.max(1) as f64;
    let wait = if c.links.is_some() {
        wait_us(rec, c.bufs, codec_ns)
    } else {
        notes.push("wirenet.*: the simulation has no sockets".into());
        Vec::new()
    };
    m.insert("wirenet.wait_us_p50".into(), percentile(&wait, 0.5));

    // netsim: wall time of the traced run not spent in handlers or codec.
    let self_ns = c.sim_wall_ns.map_or(0.0, |(wall, delivered)| {
        (wall as f64 - handler_ns as f64 - (codec.1 + codec.2) as f64).max(0.0)
            / delivered.max(1) as f64
    });
    m.insert("netsim.self_ns_per_msg".into(), self_ns);
    if c.sim_wall_ns.is_none() {
        notes.push("netsim.self_ns_per_msg: not a simulated workload".into());
    }

    // Tracing overhead: traced over untraced, per end-to-end metric.
    let base = phases
        .iter()
        .find(|(p, _)| *p == 1)
        .map(|(_, p)| p.e2e())
        .unwrap_or_default();
    let traced = ph.e2e();
    for name in OVERHEAD {
        let ratio = traced[name] / base.get(name).copied().unwrap_or(f64::NAN);
        m.insert(format!("trace.overhead.{name}"), ratio);
    }
    out.lines.push(format!(
        "tracing overhead (traced / untraced): {}",
        OVERHEAD
            .iter()
            .map(|n| format!("{n} {:.3}", m[&format!("trace.overhead.{n}")]))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.lines.push(format!(
        "traced spans: {} handlers, {} WAL groups, wait samples {}",
        kinds.values().map(|k| k.0).sum::<u64>(),
        wal_groups,
        wait.len()
    ));
    for n in notes {
        out.lines.push(format!("note: {n}"));
    }
    for (name, unit) in layer_names() {
        let value = m.get(&name).copied().unwrap_or(f64::NAN);
        out.metrics.push(Metric { name, value, unit });
    }
    if let Err(e) = write_spans(cfg, c.bufs) {
        out.lines.push(format!("note: spans not written: {e}"));
    }
}

/// Per traced put: latency not covered by the handler and WAL spans on its
/// path (spans linked to its tag or to its slot's `Accepted`) nor by the
/// codec work of the messages that carried it.
fn wait_us(rec: &Record, bufs: &[(u32, TraceBuf)], codec_ns: f64) -> Vec<f64> {
    let mut by_link: HashMap<(u64, u64), Vec<&Span>> = HashMap::new();
    for (_, b) in bufs {
        for &(span, client, seq) in &b.links {
            by_link
                .entry((client, seq))
                .or_default()
                .push(&b.spans[span as usize]);
        }
    }
    let mut out = Vec::new();
    for op in rec
        .ops
        .iter()
        .filter(|o| o.phase == 2 && matches!(o.kind, Kind::Put { .. }))
    {
        let Some(d) = op.done.as_ref().filter(|d| !d.failed) else {
            continue;
        };
        let from = (op.first_sent * 1e3) as u64;
        let to = (d.at * 1e3) as u64;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut carried = 0usize;
        for key in [op.tag, (SLOT_LINK, d.slot)] {
            for s in by_link.get(&key).into_iter().flatten() {
                if s.end >= from && s.start <= to {
                    spans.push((s.start.max(from), s.end.min(to)));
                    carried += usize::from(s.kind != "request");
                }
            }
        }
        if spans.is_empty() {
            continue;
        }
        spans.sort_unstable();
        let mut covered = 0u64;
        let mut cur = spans[0];
        for &(s, e) in &spans[1..] {
            if s > cur.1 {
                covered += cur.1 - cur.0;
                cur = (s, e);
            } else {
                cur.1 = cur.1.max(e);
            }
        }
        covered += cur.1 - cur.0;
        let covered_us = covered as f64 / 1e3 + carried as f64 * codec_ns / 1e3;
        out.push((d.at - op.first_sent - covered_us).max(0.0));
    }
    sorted(out)
}

/// Writes the traced run's spans, one per line, next to the WAL scratch.
fn write_spans(cfg: &Config, bufs: &[(u32, TraceBuf)]) -> std::io::Result<()> {
    use std::io::Write;
    let path = cfg
        .scratch
        .join(format!("spans-{}.tsv", cfg.workload.name()));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "# span\tnode\tkind\tstart_ns\tend_ns\tparent\trequest")?;
    for (inc, (_, b)) in bufs.iter().enumerate() {
        let mut links: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for &(s, c, q) in &b.links {
            links.entry(s).or_default().push((c, q));
        }
        for (i, s) in b.spans.iter().enumerate() {
            let reqs = links
                .get(&(i as u32))
                .map_or(String::new(), |v| format!("{v:?}"));
            writeln!(
                f,
                "{inc}.{i}\tp{}\t{}\t{}\t{}\t-\t{reqs}",
                s.node, s.kind, s.start, s.end
            )?;
        }
        for (j, w) in b.wal.iter().enumerate() {
            writeln!(
                f,
                "{inc}.w{j}\tp{}\twal\t{}\t{}\t{inc}.{}\t",
                bufs[inc].0, w.start, w.end, w.parent
            )?;
        }
    }
    f.flush()
}
