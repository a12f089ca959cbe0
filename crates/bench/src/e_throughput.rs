//! Experiment E19: the batched/pipelined throughput path, measured.
//!
//! E7 established the steady-state *per-slot* cost (one round trip per
//! command with a stable leader). E19 measures what the throughput path
//! buys on top of it: with [`BatchParams`] enabling command batching
//! (many client commands per decided slot) and slot pipelining (up to
//! `pipeline_depth` proposals in flight), a closed burst of `M` commands
//! must decide at a multiple of the batch-size-1 / depth-1 baseline rate.
//!
//! Each substrate runs the same grid of `(max_batch, pipeline_depth)`
//! configurations — always including the mandatory `(1, 1)` baseline —
//! against the same offered load:
//!
//! * **netsim** — deterministic ticks over an all-timely topology; two
//!   commands are injected per tick at the established leader, so the
//!   baseline is round-trip-bound while the batched path is offered-load
//!   bound. Throughput is reported in committed commands per kilotick and
//!   latencies (issue → leader commit) in ticks, exactly reproducible
//!   from the seed.
//! * **wirenet** — wall clock; the whole burst is fired
//!   at once and the run is timed until the leader has committed every
//!   command. Throughput is commands per second, latencies in
//!   microseconds measured against the burst start.
//!
//! Every run records into the shared [`Registry`]: per-configuration
//! latency histograms, committed-command counters, and the
//! `probe_batch_commit_total` counter bumped by the
//! [`BatchCommit`](lls_obs::ProbeEvent::BatchCommit) probe (surfaced here
//! as the number of multi-command slots the run decided). The registry
//! snapshot is embedded in `BENCH_E19.json` alongside the per-row
//! results, the cross-substrate `max_speedup`, and the ≥ 3× acceptance
//! verdict.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{classify_rsm_msg, BatchParams, ConsensusParams, ReplicatedLog, RsmEvent};
use lls_obs::{NodeRecorders, RecordingProbe, Registry};
use lls_primitives::runtime::{Cluster, Output, OutputCursor};
use lls_primitives::{Duration, Env, Instant, ProcessId, Sm};
use netsim::{SimBuilder, Topology};
use wirenet::WireCluster;

use crate::json::JsonValue;
use crate::percentile;
use crate::table::Table;
use crate::wall::{all, stable_leader, wire_config};

/// The measured grid: the mandatory baseline plus two batched/pipelined
/// configurations.
const CONFIGS: &[(usize, usize)] = &[(1, 1), (8, 4), (32, 8)];

/// The acceptance threshold: best batched throughput over the baseline.
const SPEEDUP_GATE: f64 = 3.0;

/// One substrate × configuration measurement.
struct ThroughputRow {
    substrate: &'static str,
    max_batch: usize,
    depth: usize,
    /// Commands offered in the burst.
    commands: u64,
    /// Commands the leader committed before the deadline.
    committed: u64,
    /// Multi-command slots decided (from `probe_batch_commit_total`).
    batched_slots: u64,
    /// Committed commands per unit of `unit`.
    throughput: f64,
    /// `"cmds/ktick"` on netsim, `"cmds/s"` on wirenet.
    unit: &'static str,
    /// Issue-to-commit latency percentiles, in `lat_unit`.
    p50: u64,
    p99: u64,
    /// `"ticks"` on netsim, `"us"` on wirenet.
    lat_unit: &'static str,
    /// Throughput relative to the same substrate's `(1, 1)` baseline.
    speedup: f64,
}

fn rsm_params(max_batch: usize, depth: usize) -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch,
            pipeline_depth: depth,
        },
        ..ConsensusParams::default()
    }
}

/// Records one run's latency distribution and counters into the shared
/// registry and returns the percentiles.
fn record_run(
    registry: &Registry,
    substrate: &'static str,
    lat_unit: &'static str,
    (max_batch, depth): (usize, usize),
    latencies: &mut [u64],
    committed: u64,
    batched_slots: u64,
) -> (u64, u64) {
    let hist_name = format!("e19_{substrate}_b{max_batch}_d{depth}_latency_{lat_unit}");
    registry.describe(
        &hist_name,
        "E19 issue-to-commit latency for one configuration",
    );
    let hist = registry.histogram(&hist_name);
    for &l in latencies.iter() {
        hist.record(l);
    }
    registry.describe(
        "e19_commands_committed_total",
        "E19 commands committed across all runs",
    );
    registry
        .counter("e19_commands_committed_total")
        .add(committed);
    registry.describe(
        "e19_batched_slots_total",
        "E19 decided slots that carried more than one command",
    );
    registry
        .counter("e19_batched_slots_total")
        .add(batched_slots);
    latencies.sort_unstable();
    if latencies.is_empty() {
        (0, 0)
    } else {
        (percentile(latencies, 50.0), percentile(latencies, 99.0))
    }
}

/// Deterministic run: two commands per tick are injected at the
/// established leader; the decided timeline is read back from the
/// simulator's output log.
fn netsim_run(
    n: usize,
    commands: u64,
    max_batch: usize,
    depth: usize,
    seed: u64,
    registry: &Registry,
) -> ThroughputRow {
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let params = rsm_params(max_batch, depth);
    let rec = Arc::clone(&recorders);
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_rsm_msg)
        .build_with(move |env| {
            ReplicatedLog::<u64>::builder(env, params)
                .probe(rec.probe_for(env.id()))
                .build()
                .expect("in-memory log")
        });
    // Let the initial leader establish its ballot before offering load.
    let issue_base = 2_000u64;
    sim.run_until(Instant::from_ticks(issue_base));
    let leader = sim.node(ProcessId(0)).omega().leader();
    // Offered load: two commands per tick. The baseline (one slot per
    // round trip) cannot keep up; the pipelined path can.
    let issue_tick = |i: u64| issue_base + 1 + i / 2;
    for i in 0..commands {
        sim.schedule_request(Instant::from_ticks(issue_tick(i)), leader, i);
    }
    sim.run_until(Instant::from_ticks(issue_base + commands * 10 + 10_000));
    // Commit times observed at the leader, keyed by command value.
    let mut commit_at: BTreeMap<u64, u64> = BTreeMap::new();
    for ev in sim.outputs() {
        if ev.process != leader {
            continue;
        }
        if let RsmEvent::Committed { cmd: Some(v), .. } = ev.output {
            commit_at.entry(v).or_insert(ev.at.ticks());
        }
    }
    let committed = commit_at.len() as u64;
    let mut latencies: Vec<u64> = commit_at
        .iter()
        .map(|(&v, &at)| at.saturating_sub(issue_tick(v)))
        .collect();
    let span = commit_at
        .values()
        .max()
        .map_or(0, |&last| last.saturating_sub(issue_base));
    let throughput = if span == 0 {
        0.0
    } else {
        committed as f64 * 1_000.0 / span as f64
    };
    let batched_slots = recorders
        .registry()
        .counter_value("probe_batch_commit_total");
    let (p50, p99) = record_run(
        registry,
        "netsim",
        "ticks",
        (max_batch, depth),
        &mut latencies,
        committed,
        batched_slots,
    );
    ThroughputRow {
        substrate: "netsim",
        max_batch,
        depth,
        commands,
        committed,
        batched_slots,
        throughput,
        unit: "cmds/ktick",
        p50,
        p99,
        lat_unit: "ticks",
        speedup: 1.0,
    }
}

/// One timed burst on a wall-clock cluster, as E19 and E20 read it.
pub(crate) struct Burst {
    /// Each committed command's tag (E20's shard) and latency in µs, by
    /// command.
    pub(crate) commits: BTreeMap<u64, (u32, u64)>,
    /// Wall time from the first request until the leader was seen to have
    /// committed them all.
    pub(crate) wall: StdDuration,
}

/// Fires `requests` at once at the stable leader `leader` reads from the
/// processes' latest outputs, polls the recorded outputs until the leader
/// has committed as many commands as it was sent (or 30 s pass), and stops
/// the cluster. `commit` reads a committed command and its tag out of an
/// output. Latencies are measured against the burst start, re-anchored onto
/// the report's since-spawn clock via the last commit (`anchor =
/// last_commit - wall`), which confines the error to the polling
/// granularity.
pub(crate) fn timed_burst<C: Cluster>(
    cluster: C,
    requests: Vec<<C::Sm as Sm>::Request>,
    leader: impl Fn(&Output<C>) -> Option<ProcessId>,
    commit: impl Fn(&Output<C>) -> Option<(u64, u32)>,
) -> (Burst, C::Report) {
    let leader = stable_leader(&cluster, &all(cluster.n()), leader).unwrap_or(ProcessId(0));
    let target = requests.len() as u64;
    let start = StdInstant::now();
    for req in requests {
        cluster.request(leader, req);
    }
    let deadline = StdInstant::now() + StdDuration::from_secs(30);
    let (mut cursor, mut done) = (OutputCursor::default(), 0);
    loop {
        done += cluster
            .outputs_since(&mut cursor)
            .iter()
            .filter(|o| o.process == leader && commit(&o.output).is_some())
            .count() as u64;
        if done >= target || StdInstant::now() > deadline {
            break;
        }
        std::thread::sleep(StdDuration::from_millis(1));
    }
    let wall = start.elapsed();
    let report = cluster.stop();
    let mut commit_at: BTreeMap<u64, (u32, StdDuration)> = BTreeMap::new();
    for o in report.outputs().iter().filter(|o| o.process == leader) {
        if let Some((cmd, tag)) = commit(&o.output) {
            commit_at.entry(cmd).or_insert((tag, o.at));
        }
    }
    let anchor = commit_at
        .values()
        .map(|&(_, at)| at)
        .max()
        .map_or(StdDuration::ZERO, |last| last.saturating_sub(wall));
    let commits = commit_at
        .into_iter()
        .map(|(cmd, (tag, at))| (cmd, (tag, at.saturating_sub(anchor).as_micros() as u64)))
        .collect();
    (Burst { commits, wall }, report)
}

/// Wall-clock run: the whole burst fired at the elected leader at once,
/// timed until the leader has committed every command. `spawn` starts the
/// cluster, each process built by `make`.
fn wall_run<C: Cluster<Sm = ReplicatedLog<u64, RecordingProbe>>>(
    substrate: &'static str,
    (n, commands): (usize, u64),
    (max_batch, depth): (usize, usize),
    registry: &Registry,
    spawn: impl FnOnce(&dyn Fn(&Env) -> ReplicatedLog<u64, RecordingProbe>) -> C,
) -> (ThroughputRow, C::Report) {
    let recorders = NodeRecorders::new(n, 256);
    let params = rsm_params(max_batch, depth);
    let cluster = spawn(&|env| {
        ReplicatedLog::<u64>::builder(env, params)
            .probe(recorders.probe_for(env.id()))
            .build()
            .expect("in-memory log")
    });
    let (burst, report) =
        timed_burst(
            cluster,
            (0..commands).collect(),
            RsmEvent::leader,
            |o| match o {
                RsmEvent::Committed { cmd: Some(v), .. } => Some((*v, 0)),
                _ => None,
            },
        );
    let committed = burst.commits.len() as u64;
    let mut latencies: Vec<u64> = burst.commits.values().map(|&(_, l)| l).collect();
    let throughput = committed as f64 / burst.wall.as_secs_f64().max(f64::EPSILON);
    let batched_slots = recorders
        .registry()
        .counter_value("probe_batch_commit_total");
    let (p50, p99) = record_run(
        registry,
        substrate,
        "us",
        (max_batch, depth),
        &mut latencies,
        committed,
        batched_slots,
    );
    let row = ThroughputRow {
        substrate,
        max_batch,
        depth,
        commands,
        committed,
        batched_slots,
        throughput,
        unit: "cmds/s",
        p50,
        p99,
        lat_unit: "us",
        speedup: 1.0,
    };
    (row, report)
}

/// Fills in per-substrate speedups relative to the `(1, 1)` baseline row
/// and returns the best complete-run speedup across all substrates.
fn compute_speedups(rows: &mut [ThroughputRow]) -> f64 {
    let mut max_speedup = 0.0f64;
    let baselines: Vec<(&'static str, f64, bool)> = rows
        .iter()
        .filter(|r| r.max_batch == 1 && r.depth == 1)
        .map(|r| (r.substrate, r.throughput, r.committed == r.commands))
        .collect();
    for row in rows.iter_mut() {
        let Some(&(_, base, base_ok)) = baselines.iter().find(|(s, _, _)| *s == row.substrate)
        else {
            continue;
        };
        row.speedup = if base > 0.0 {
            row.throughput / base
        } else {
            0.0
        };
        let complete = base_ok && row.committed == row.commands;
        if complete && !(row.max_batch == 1 && row.depth == 1) {
            max_speedup = max_speedup.max(row.speedup);
        }
    }
    max_speedup
}

/// The best speedup and E19's verdict: it reaches the gate, and every row,
/// on every substrate, committed its whole burst.
fn verdict(rows: &mut [ThroughputRow]) -> (f64, bool) {
    let max_speedup = compute_speedups(rows);
    let complete = rows.iter().all(|r| r.committed == r.commands);
    (max_speedup, max_speedup >= SPEEDUP_GATE && complete)
}

fn row_json(row: &ThroughputRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("max_batch", JsonValue::U64(row.max_batch as u64)),
        ("pipeline_depth", JsonValue::U64(row.depth as u64)),
        ("commands", JsonValue::U64(row.commands)),
        ("committed", JsonValue::U64(row.committed)),
        ("batched_slots", JsonValue::U64(row.batched_slots)),
        ("throughput", JsonValue::F64(row.throughput)),
        ("throughput_unit", JsonValue::str(row.unit)),
        ("latency_p50", JsonValue::U64(row.p50)),
        ("latency_p99", JsonValue::U64(row.p99)),
        ("latency_unit", JsonValue::str(row.lat_unit)),
        ("speedup", JsonValue::F64(row.speedup)),
    ])
}

/// **E19** — measure the batched/pipelined throughput path on every
/// substrate: a closed burst of `commands` commands against the
/// `(max_batch, pipeline_depth)` grid (baseline `(1,1)`, `(8,4)`,
/// `(32,8)`), reporting decided-commands/sec (per kilotick on netsim),
/// p50/p99 issue-to-commit latency, multi-command slot counts, the
/// cross-substrate `max_speedup`, and the ≥ 3× verdict. Returns the
/// human table and the JSON summary the CLI writes as `BENCH_E19.json`.
pub fn e19_throughput(n: usize, commands: u64, seed: u64) -> (Table, JsonValue) {
    let registry = Registry::new();
    let mut rows = Vec::new();
    for &(b, d) in CONFIGS {
        rows.push(netsim_run(n, commands, b, d, seed, &registry));
    }
    for &(b, d) in CONFIGS {
        let (row, report) = wall_run("wirenet", (n, commands), (b, d), &registry, |make| {
            WireCluster::try_spawn(wire_config(n, 0.0, seed), make)
                .expect("bind 127.0.0.1 listeners")
        });
        report.export(&registry);
        rows.push(row);
    }
    let (max_speedup, pass) = verdict(&mut rows);
    let mut t = Table::new(vec![
        "substrate",
        "batch x depth",
        "committed",
        "batched slots",
        "throughput",
        "latency p50/p99",
        "speedup",
    ]);
    for row in &rows {
        t.row(vec![
            row.substrate.to_owned(),
            format!("{} x {}", row.max_batch, row.depth),
            format!("{}/{}", row.committed, row.commands),
            row.batched_slots.to_string(),
            format!("{:.1} {}", row.throughput, row.unit),
            format!("{}/{} {}", row.p50, row.p99, row.lat_unit),
            format!("{:.2}x", row.speedup),
        ]);
    }
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e19")),
        ("seed", JsonValue::U64(seed)),
        ("n", JsonValue::U64(n as u64)),
        ("commands", JsonValue::U64(commands)),
        ("speedup_gate", JsonValue::F64(SPEEDUP_GATE)),
        ("max_speedup", JsonValue::F64(max_speedup)),
        ("pass", JsonValue::Bool(pass)),
        ("rows", JsonValue::Arr(rows.iter().map(row_json).collect())),
        ("metrics", JsonValue::Raw(registry.snapshot_json())),
    ]);
    (t, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance path on the deterministic substrate: the batched
    /// configurations commit the full burst and beat the baseline by the
    /// gate margin, reproducibly from the seed.
    #[test]
    fn netsim_batched_beats_baseline_by_3x() {
        let registry = Registry::new();
        let base = netsim_run(3, 240, 1, 1, 7, &registry);
        let fast = netsim_run(3, 240, 32, 8, 7, &registry);
        assert_eq!(base.committed, 240, "baseline must commit the burst");
        assert_eq!(fast.committed, 240, "batched run must commit the burst");
        assert!(
            fast.batched_slots > 0,
            "the batched run must decide multi-command slots"
        );
        assert_eq!(base.batched_slots, 0, "the baseline must never batch");
        assert!(
            fast.throughput >= SPEEDUP_GATE * base.throughput,
            "batched throughput {:.1} must be >= 3x baseline {:.1}",
            fast.throughput,
            base.throughput
        );
    }

    /// The verdict fails when any row leaves part of its burst uncommitted,
    /// however large the speedup.
    #[test]
    fn a_short_row_fails_the_verdict() {
        let registry = Registry::new();
        let mut rows = vec![
            netsim_run(3, 240, 1, 1, 7, &registry),
            netsim_run(3, 240, 32, 8, 7, &registry),
        ];
        assert!(verdict(&mut rows).1, "full bursts pass");
        let mut short = netsim_run(3, 240, 8, 4, 7, &registry);
        short.substrate = "wirenet";
        short.committed = 0;
        rows.push(short);
        let (max_speedup, pass) = verdict(&mut rows);
        assert!(
            max_speedup >= SPEEDUP_GATE,
            "the complete rows keep the gain"
        );
        assert!(!pass, "a row that committed 0 of 240 must fail E19");
    }

    /// Same seed, same configuration, same numbers: the netsim rows are
    /// deterministic.
    #[test]
    fn netsim_rows_are_reproducible() {
        let registry = Registry::new();
        let a = netsim_run(3, 120, 8, 4, 11, &registry);
        let b = netsim_run(3, 120, 8, 4, 11, &registry);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
        assert!((a.throughput - b.throughput).abs() < 1e-9);
    }
}
