//! Experiment E20: sharded multi-group throughput with one shared Ω.
//!
//! E19 scaled the *single* log's steady state with batching and
//! pipelining; E20 removes the last serialization point by partitioning
//! the keyspace into `S` independent shard groups
//! ([`consensus::shard`]) and measures two claims at once:
//!
//! 1. **Near-linear throughput scaling** — every group is pinned to the
//!    strict `(max_batch = 1, pipeline_depth = 1)` baseline, so one group
//!    commits exactly one command per round trip and `S` groups commit
//!    `S` in parallel. The gate: netsim throughput at `S = 4` must be
//!    ≥ 2.5× the `S = 1` baseline.
//! 2. **Election traffic independent of `S`** — each node runs **one**
//!    shared Ω feeding leadership to all co-located groups, so the
//!    per-run `ALIVE`/`ACCUSE` message counts (netsim's deterministic
//!    kind counters) must stay flat (within 10%) as `S` grows 1 → 8. A
//!    naive per-shard Ω would multiply them by `S`.
//! 3. **Lease traffic independent of `S`** — a leases-on netsim sweep of
//!    [`ShardedKvNode`]s under a steady read load: each node renews every
//!    group's lease in one round per retry period, so its `LEASE_GRANT` +
//!    `LEASE_ACK` count must stay within the same 10% of `S = 1`. One
//!    round per group would multiply it by `S`.
//!
//! Commands are routed round-robin over the shards (the kvstore layer
//! routes by key hash; round-robin is the same uniform offered load
//! without dragging the kv dependency into the bench crate). Per-shard
//! commit latencies and decided-slot counts are recorded into one
//! [`Registry`] **per shard** and composed into the shared registry via
//! [`lls_obs::aggregate_shard_registries`] — the same `shard{id}_`-prefix
//! scheme the wirenet scrape endpoint serves — so `BENCH_E20.json`
//! carries the per-shard breakdown next to the cross-shard sums.

use std::collections::BTreeMap;
use std::sync::Arc;

use consensus::shard::{
    classify_shard_msg, PlacementManager, PlacementMap, ShardEvent, ShardId, ShardRequest,
    ShardedNode,
};
use consensus::{BatchParams, ConsensusParams, LeaseParams};
use kvstore::{ClientId, KvCmd, KvResponse, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_obs::{aggregate_shard_registries, NodeRecorders, Registry};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Topology};
use wirenet::WireCluster;

use crate::e_throughput::timed_burst;
use crate::json::JsonValue;
use crate::percentile;
use crate::table::Table;
use crate::wall::wire_config;

/// The measured shard counts, always starting at the unsharded baseline.
const SHARD_COUNTS: &[u32] = &[1, 2, 4, 8];

/// The acceptance threshold: netsim throughput at `S = 4` over `S = 1`.
const SCALING_GATE: f64 = 2.5;

/// Allowed relative drift of the Ω and lease message counters across shard
/// counts.
const OMEGA_FLATNESS: f64 = 0.10;

/// Ticks between two reads of the lease sweep's steady read load.
const READ_GAP: u64 = 5;

/// One substrate × shard-count measurement.
struct ShardRow {
    substrate: &'static str,
    shards: u32,
    /// Commands offered (round-robin over the shards).
    commands: u64,
    /// Commands committed at the leader before the deadline.
    committed: u64,
    /// Decided commands per shard, in shard order.
    per_shard: Vec<u64>,
    /// Committed commands per unit of `unit`.
    throughput: f64,
    /// `"cmds/ktick"` on netsim, `"cmds/s"` on wirenet.
    unit: &'static str,
    /// Issue-to-commit latency percentiles, in `lat_unit`.
    p50: u64,
    p99: u64,
    /// `"ticks"` on netsim, `"us"` on wirenet.
    lat_unit: &'static str,
    /// Throughput relative to the same substrate's `S = 1` baseline.
    scaling: f64,
    /// Ω heartbeat messages observed in the run (netsim only; 0 on wirenet,
    /// whose totals are time- not run-bound).
    omega_alive: u64,
    /// Ω accusation messages observed in the run (netsim only).
    omega_accuse: u64,
}

/// Every group pinned to the strict one-command-per-round-trip baseline:
/// the throughput axis under test is the shard count, nothing else.
fn shard_params() -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch: 1,
            pipeline_depth: 1,
        },
        ..ConsensusParams::default()
    }
}

/// The uniform placement used throughout: every node hosts every shard, so
/// the single shared Ω leader leads all `shards` groups.
fn placement(shards: u32, n: usize) -> PlacementManager {
    PlacementManager::with_all_attached(PlacementMap::uniform(shards, n))
}

/// The round-robin shard of command `i` — E20's stand-in for the kvstore
/// key router (uniform load without the kv dependency).
fn shard_of(i: u64, shards: u32) -> ShardId {
    ShardId((i % u64::from(shards)) as u32)
}

/// Records one run's per-shard latency distributions and decided counts
/// into per-shard registries, composes them with
/// [`aggregate_shard_registries`], folds the result into the shared
/// registry under an `e20_{substrate}_s{S}_` prefix, and returns the
/// overall percentiles.
fn record_sharded_run(
    registry: &Registry,
    substrate: &'static str,
    shards: u32,
    lat_unit: &'static str,
    per_shard_latencies: &BTreeMap<u32, Vec<u64>>,
) -> (u64, u64) {
    let shard_regs: Vec<Registry> = (0..shards).map(|_| Registry::new()).collect();
    let mut all: Vec<u64> = Vec::new();
    for (shard, lats) in per_shard_latencies {
        let reg = &shard_regs[*shard as usize];
        let name = format!("commit_latency_{lat_unit}");
        reg.describe(&name, "E20 issue-to-commit latency within one shard");
        let hist = reg.histogram(&name);
        for &l in lats {
            hist.record(l);
        }
        reg.describe("decided_total", "E20 commands decided by one shard");
        reg.counter("decided_total").add(lats.len() as u64);
        all.extend_from_slice(lats);
    }
    let composed =
        aggregate_shard_registries(shard_regs.iter().enumerate().map(|(i, r)| (i as u32, r)));
    registry.absorb_prefixed(&format!("e20_{substrate}_s{shards}_"), &composed);
    all.sort_unstable();
    if all.is_empty() {
        (0, 0)
    } else {
        (percentile(&all, 50.0), percentile(&all, 99.0))
    }
}

/// Deterministic run: two commands per tick are injected at the
/// established leader, round-robin over the shards; the decided timeline
/// and the Ω message counters are read back from the simulator.
fn netsim_run(n: usize, commands: u64, shards: u32, seed: u64, registry: &Registry) -> ShardRow {
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let params = shard_params();
    let rec = Arc::clone(&recorders);
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_shard_msg)
        .build_with(move |env| {
            ShardedNode::<u64>::builder(env, params, placement(shards, n))
                .probe(rec.probe_for(env.id()))
                .build()
                .expect("in-memory log")
        });
    // Let the shared Ω settle and every group establish its ballot.
    let issue_base = 2_000u64;
    sim.run_until(Instant::from_ticks(issue_base));
    let leader = sim.node(ProcessId(0)).omega().leader();
    // Offered load: two commands per tick, spread round-robin. One group
    // at (1,1) commits ~one command per round trip, so the baseline is
    // round-trip-bound while higher shard counts drain in parallel.
    let issue_tick = |i: u64| issue_base + 1 + i / 2;
    for i in 0..commands {
        sim.schedule_request(
            Instant::from_ticks(issue_tick(i)),
            leader,
            ShardRequest {
                shard: shard_of(i, shards),
                cmd: i,
            },
        );
    }
    sim.run_until(Instant::from_ticks(issue_base + commands * 12 + 10_000));
    // Commit times observed at the leader, keyed by command value.
    let mut commit_at: BTreeMap<u64, (u32, u64)> = BTreeMap::new();
    for ev in sim.outputs() {
        if ev.process != leader {
            continue;
        }
        if let ShardEvent::Committed {
            shard,
            cmd: Some(v),
            ..
        } = ev.output
        {
            commit_at.entry(v).or_insert((shard.0, ev.at.ticks()));
        }
    }
    let committed = commit_at.len() as u64;
    let mut per_shard = vec![0u64; shards as usize];
    let mut per_shard_latencies: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (&v, &(shard, at)) in &commit_at {
        per_shard[shard as usize] += 1;
        per_shard_latencies
            .entry(shard)
            .or_default()
            .push(at.saturating_sub(issue_tick(v)));
    }
    let span = commit_at
        .values()
        .map(|&(_, at)| at)
        .max()
        .map_or(0, |last| last.saturating_sub(issue_base));
    let throughput = if span == 0 {
        0.0
    } else {
        committed as f64 * 1_000.0 / span as f64
    };
    let kinds = sim.stats().kind_counts().clone();
    let (p50, p99) = record_sharded_run(registry, "netsim", shards, "ticks", &per_shard_latencies);
    ShardRow {
        substrate: "netsim",
        shards,
        commands,
        committed,
        per_shard,
        throughput,
        unit: "cmds/ktick",
        p50,
        p99,
        lat_unit: "ticks",
        scaling: 1.0,
        omega_alive: kinds.get("ALIVE").copied().unwrap_or(0),
        omega_accuse: kinds.get("ACCUSE").copied().unwrap_or(0),
    }
}

/// Wall-clock run over TCP: the whole round-robin burst fired at the
/// elected leader at once (E19's timed burst), timed until the leader has
/// committed every command; the socket counters go into `registry` too.
fn wall_run((n, commands, shards): (usize, u64, u32), seed: u64, registry: &Registry) -> ShardRow {
    let params = shard_params();
    let cluster = WireCluster::spawn(wire_config(n, 0.0, seed), |env| {
        ShardedNode::<u64>::new(env, params, placement(shards, n))
    });
    let requests = (0..commands).map(|i| ShardRequest {
        shard: shard_of(i, shards),
        cmd: i,
    });
    let (burst, report) = timed_burst(
        cluster,
        requests.collect(),
        ShardEvent::leader,
        |o| match o {
            ShardEvent::Committed {
                shard,
                cmd: Some(v),
                ..
            } => Some((*v, shard.0)),
            _ => None,
        },
    );
    let committed = burst.commits.len() as u64;
    let mut per_shard = vec![0u64; shards as usize];
    let mut per_shard_latencies: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for &(shard, latency) in burst.commits.values() {
        per_shard[shard as usize] += 1;
        per_shard_latencies.entry(shard).or_default().push(latency);
    }
    let throughput = committed as f64 / burst.wall.as_secs_f64().max(f64::EPSILON);
    report.export(registry);
    let (p50, p99) = record_sharded_run(registry, "wirenet", shards, "us", &per_shard_latencies);
    ShardRow {
        substrate: "wirenet",
        shards,
        commands,
        committed,
        per_shard,
        throughput,
        unit: "cmds/s",
        p50,
        p99,
        lat_unit: "us",
        scaling: 1.0,
        omega_alive: 0,
        omega_accuse: 0,
    }
}

/// Fills in per-substrate scaling ratios relative to the `S = 1` baseline
/// and returns the netsim `S = 4` ratio (the gated one), counting only
/// complete runs.
fn compute_scaling(rows: &mut [ShardRow]) -> f64 {
    let baselines: Vec<(&'static str, f64, bool)> = rows
        .iter()
        .filter(|r| r.shards == 1)
        .map(|r| (r.substrate, r.throughput, r.committed == r.commands))
        .collect();
    let mut gated = 0.0f64;
    for row in rows.iter_mut() {
        let Some(&(_, base, base_ok)) = baselines.iter().find(|(s, _, _)| *s == row.substrate)
        else {
            continue;
        };
        row.scaling = if base > 0.0 {
            row.throughput / base
        } else {
            0.0
        };
        if row.substrate == "netsim" && row.shards == 4 && base_ok && row.committed == row.commands
        {
            gated = row.scaling;
        }
    }
    gated
}

/// Relative distance of `count` from `base`.
fn drift(count: u64, base: u64) -> f64 {
    (count as f64 - base as f64).abs() / (base as f64).max(1.0)
}

/// Checks the shared-Ω claim on the deterministic substrate: every netsim
/// row's `ALIVE` count must sit within [`OMEGA_FLATNESS`] of the `S = 1`
/// baseline's, and accusations must not grow with the shard count.
fn omega_flat(rows: &[ShardRow]) -> bool {
    let Some(base) = rows
        .iter()
        .find(|r| r.substrate == "netsim" && r.shards == 1)
    else {
        return false;
    };
    rows.iter().filter(|r| r.substrate == "netsim").all(|r| {
        drift(r.omega_alive, base.omega_alive) <= OMEGA_FLATNESS
            && r.omega_accuse <= base.omega_accuse
    })
}

/// One run of the lease sweep.
struct LeaseRow {
    shards: u32,
    /// Reads issued, and reads answered with a value.
    reads: u64,
    served: u64,
    /// `LEASE_GRANT` + `LEASE_ACK` messages sent in the run.
    lease_msgs: u64,
}

/// Leases-on netsim run of `ShardedKvNode`s over timely links: after the
/// leader settles, one read every [`READ_GAP`] ticks, at each process in
/// turn, over keys spread across the shards. Counts every lease message
/// sent in the run.
fn lease_run(n: usize, reads: u64, shards: u32, seed: u64) -> LeaseRow {
    let params = ConsensusParams {
        lease: LeaseParams::enabled(),
        ..ConsensusParams::default()
    };
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_shard_msg)
        .build_with(move |env| ShardedKvNode::new(env, params, placement(shards, n)));
    let issue_base = 2_000u64;
    for i in 0..reads {
        let at = Instant::from_ticks(issue_base + READ_GAP * i);
        let read = Tagged {
            client: ClientId(1),
            seq: i,
            cmd: KvCmd::read(format!("k{}", i % 16)),
        };
        sim.schedule_request(at, ProcessId((i % n as u64) as u32), read);
    }
    sim.run_until(Instant::from_ticks(issue_base + READ_GAP * reads + 1_000));
    let served = sim
        .outputs()
        .iter()
        .filter(|o| {
            matches!(
                o.output,
                ShardedKvEvent::Applied {
                    response: KvResponse::Value { .. },
                    ..
                }
            )
        })
        .count() as u64;
    let kinds = sim.stats().kind_counts();
    let count = |kind: &str| kinds.get(kind).copied().unwrap_or(0);
    LeaseRow {
        shards,
        reads,
        served,
        lease_msgs: count("LEASE_GRANT") + count("LEASE_ACK"),
    }
}

/// Checks the per-node lease claim: every sweep row served its whole read
/// load, and its lease message count sits within [`OMEGA_FLATNESS`] of
/// the `S = 1` row's.
fn lease_flat(rows: &[LeaseRow]) -> bool {
    let Some(base) = rows.iter().find(|r| r.shards == 1) else {
        return false;
    };
    base.lease_msgs > 0
        && rows
            .iter()
            .all(|r| r.served == r.reads && drift(r.lease_msgs, base.lease_msgs) <= OMEGA_FLATNESS)
}

fn row_json(row: &ShardRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("shards", JsonValue::U64(u64::from(row.shards))),
        ("commands", JsonValue::U64(row.commands)),
        ("committed", JsonValue::U64(row.committed)),
        (
            "per_shard_decided",
            JsonValue::Arr(row.per_shard.iter().map(|&c| JsonValue::U64(c)).collect()),
        ),
        ("throughput", JsonValue::F64(row.throughput)),
        ("throughput_unit", JsonValue::str(row.unit)),
        ("latency_p50", JsonValue::U64(row.p50)),
        ("latency_p99", JsonValue::U64(row.p99)),
        ("latency_unit", JsonValue::str(row.lat_unit)),
        ("scaling", JsonValue::F64(row.scaling)),
        ("omega_alive", JsonValue::U64(row.omega_alive)),
        ("omega_accuse", JsonValue::U64(row.omega_accuse)),
    ])
}

/// **E20** — sharded multi-group throughput on every substrate: the same
/// round-robin offered load over `S ∈ {1, 2, 4, 8}` shard groups (each
/// pinned to the one-command-per-round-trip baseline), reporting per-shard
/// decided counts, the scaling ratio against `S = 1`, and netsim's Ω
/// message counters across shard counts; then the leases-on netsim sweep
/// over the same shard counts with `commands` reads. PASS requires netsim
/// `S = 4` scaling ≥ 2.5× **and** flat (±10%) Ω traffic 1 → 8 — the
/// shared-Ω multiplexing claim — **and** flat (±10%) lease traffic with
/// every sweep read served. Returns the human table and the JSON summary
/// the CLI writes as `BENCH_E20.json`.
pub fn e20_shard(n: usize, commands: u64, seed: u64) -> (Table, JsonValue) {
    let registry = Registry::new();
    let mut rows = Vec::new();
    for &s in SHARD_COUNTS {
        rows.push(netsim_run(n, commands, s, seed, &registry));
    }
    for &s in SHARD_COUNTS {
        rows.push(wall_run((n, commands, s), seed, &registry));
    }
    let lease_rows: Vec<LeaseRow> = SHARD_COUNTS
        .iter()
        .map(|&s| lease_run(n, commands, s, seed))
        .collect();
    let scaling_s4 = compute_scaling(&mut rows);
    let flat = omega_flat(&rows);
    let leases_flat = lease_flat(&lease_rows);
    let complete = rows.iter().all(|r| r.committed == r.commands);
    let pass = scaling_s4 >= SCALING_GATE && flat && leases_flat && complete;
    let mut t = Table::new(vec![
        "substrate",
        "shards",
        "committed",
        "per-shard",
        "throughput",
        "latency p50/p99",
        "scaling",
        "omega alive",
        "lease msgs (reads)",
    ]);
    for row in &rows {
        // The lease sweep runs on netsim only.
        let lease = lease_rows
            .iter()
            .find(|l| row.substrate == "netsim" && l.shards == row.shards)
            .map_or("-".to_owned(), |l| {
                format!("{} ({}/{})", l.lease_msgs, l.served, l.reads)
            });
        t.row(vec![
            row.substrate.to_owned(),
            row.shards.to_string(),
            format!("{}/{}", row.committed, row.commands),
            row.per_shard
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("/"),
            format!("{:.1} {}", row.throughput, row.unit),
            format!("{}/{} {}", row.p50, row.p99, row.lat_unit),
            format!("{:.2}x", row.scaling),
            row.omega_alive.to_string(),
            lease,
        ]);
    }
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e20")),
        ("seed", JsonValue::U64(seed)),
        ("n", JsonValue::U64(n as u64)),
        ("commands", JsonValue::U64(commands)),
        (
            "shard_counts",
            JsonValue::Arr(
                SHARD_COUNTS
                    .iter()
                    .map(|&s| JsonValue::U64(u64::from(s)))
                    .collect(),
            ),
        ),
        ("scaling_gate", JsonValue::F64(SCALING_GATE)),
        ("netsim_scaling_s4", JsonValue::F64(scaling_s4)),
        ("omega_flatness_bound", JsonValue::F64(OMEGA_FLATNESS)),
        ("omega_flat", JsonValue::Bool(flat)),
        ("lease_flat", JsonValue::Bool(leases_flat)),
        ("pass", JsonValue::Bool(pass)),
        ("rows", JsonValue::Arr(rows.iter().map(row_json).collect())),
        (
            "lease_rows",
            JsonValue::Arr(
                lease_rows
                    .iter()
                    .map(|l| {
                        JsonValue::obj(vec![
                            ("shards", JsonValue::U64(u64::from(l.shards))),
                            ("reads", JsonValue::U64(l.reads)),
                            ("served", JsonValue::U64(l.served)),
                            ("lease_msgs", JsonValue::U64(l.lease_msgs)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", JsonValue::Raw(registry.snapshot_json())),
    ]);
    (t, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance path on the deterministic substrate: four shards
    /// drain the same offered load at ≥ 2.5× the unsharded rate, with
    /// every command committed and spread over all groups.
    #[test]
    fn netsim_four_shards_beat_the_baseline() {
        let registry = Registry::new();
        let base = netsim_run(3, 240, 1, 7, &registry);
        let sharded = netsim_run(3, 240, 4, 7, &registry);
        assert_eq!(base.committed, 240, "baseline must commit the burst");
        assert_eq!(sharded.committed, 240, "sharded run must commit the burst");
        assert!(
            sharded.per_shard.iter().all(|&c| c == 60),
            "round-robin load spreads evenly: {:?}",
            sharded.per_shard
        );
        assert!(
            sharded.throughput >= SCALING_GATE * base.throughput,
            "sharded throughput {:.1} must be >= 2.5x baseline {:.1}",
            sharded.throughput,
            base.throughput
        );
    }

    /// The communication-efficiency half of the claim: eight shard groups
    /// produce the same Ω heartbeat volume as one, because the node runs
    /// one shared detector however many groups it hosts.
    #[test]
    fn omega_traffic_is_flat_across_shard_counts() {
        let registry = Registry::new();
        let one = netsim_run(3, 120, 1, 11, &registry);
        let eight = netsim_run(3, 120, 8, 11, &registry);
        assert!(one.omega_alive > 0, "heartbeats must flow");
        let drift =
            (eight.omega_alive as f64 - one.omega_alive as f64).abs() / one.omega_alive as f64;
        assert!(
            drift <= OMEGA_FLATNESS,
            "ALIVE drift {:.3} exceeds {OMEGA_FLATNESS} (S=1: {}, S=8: {})",
            drift,
            one.omega_alive,
            eight.omega_alive
        );
        assert!(eight.omega_accuse <= one.omega_accuse);
    }

    /// The lease sweep at `--quick` size: a node renews all its groups'
    /// leases in one round, so eight groups send the lease messages one
    /// does, and every read of the steady load is answered.
    #[test]
    fn lease_traffic_is_flat_across_shard_counts() {
        let rows: Vec<LeaseRow> = SHARD_COUNTS
            .iter()
            .map(|&s| lease_run(3, 240, s, 7))
            .collect();
        for row in &rows {
            assert_eq!(row.served, row.reads, "S={}: reads unanswered", row.shards);
        }
        assert!(rows[0].lease_msgs > 0, "leases must be renewed");
        assert!(
            lease_flat(&rows),
            "lease messages by S: {:?}",
            rows.iter()
                .map(|r| (r.shards, r.lease_msgs))
                .collect::<Vec<_>>()
        );
    }

    /// Same seed, same shard count, same numbers: the netsim rows are
    /// deterministic.
    #[test]
    fn netsim_rows_are_reproducible() {
        let registry = Registry::new();
        let a = netsim_run(3, 120, 2, 13, &registry);
        let b = netsim_run(3, 120, 2, 13, &registry);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.per_shard, b.per_shard);
        assert_eq!(a.p50, b.p50);
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.omega_alive, b.omega_alive);
        assert!((a.throughput - b.throughput).abs() < 1e-9);
    }

    /// The per-shard registries compose into the shared one: prefixed
    /// per-shard decided counters plus their cross-shard sum.
    #[test]
    fn per_shard_metrics_land_in_the_shared_registry() {
        let registry = Registry::new();
        let row = netsim_run(3, 120, 2, 17, &registry);
        assert_eq!(
            registry.counter_value("e20_netsim_s2_shard0_decided_total"),
            row.per_shard[0]
        );
        assert_eq!(
            registry.counter_value("e20_netsim_s2_shard1_decided_total"),
            row.per_shard[1]
        );
        assert_eq!(
            registry.counter_value("e20_netsim_s2_decided_total"),
            row.committed,
            "the unprefixed family is the cross-shard sum"
        );
    }
}
