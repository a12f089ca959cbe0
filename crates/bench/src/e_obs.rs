//! Experiment E17: election-stabilization QoS and a live check of the
//! steady-state communication-efficiency claim, measured through the
//! observability layer on all three substrates.
//!
//! Unlike E2/E3/E15 — which infer the sender-set collapse from substrate
//! traffic counters after the fact — E17 drives the measurement through the
//! new probe/metrics pipeline end to end:
//!
//! * **stabilization QoS** is the time of the *last* `LeaderChange` probe
//!   event any node emitted (taken from the per-node flight recorders);
//! * **steady state** is a suffix window starting well after stabilization;
//!   in it the sender set must be exactly `{leader}` and — on wirenet,
//!   where per-link counters exist — exactly `n − 1` directed links may
//!   carry traffic (the leader's heartbeat fan-out);
//! * **accusation flatness** is checked on the unified registry: the
//!   `probe_accusation_sent_total` / `probe_accusation_absorbed_total`
//!   counters must not move during the window.
//!
//! Each run also exports the substrate's own accounting into the same
//! registry, and the whole result — per-substrate verdicts plus the full
//! metrics snapshots — lands in `BENCH_E17.json`.

use std::time::Duration as StdDuration;

use lls_obs::{NodeRecorders, ProbeEvent};
use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};
use omega::{classify_msg, CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};
use wirenet::{BackoffConfig, WireCluster, WireConfig};

use crate::e_chaos::await_unanimity;
use crate::json::JsonValue;
use crate::table::Table;

/// How long a sum of the two accusation counters is at some instant.
fn accusation_total(recorders: &NodeRecorders) -> u64 {
    let registry = recorders.registry();
    registry.counter_value("probe_accusation_sent_total")
        + registry.counter_value("probe_accusation_absorbed_total")
}

/// The time (in driver ticks) of the last `LeaderChange` any node emitted —
/// the stabilization instant as the probes saw it. `0` means no node ever
/// switched away from its initial candidate.
fn last_leader_change(recorders: &NodeRecorders) -> u64 {
    (0..recorders.n() as u32)
        .map(ProcessId)
        .flat_map(|p| recorders.events_of(p))
        .filter_map(|r| match r.event {
            ProbeEvent::LeaderChange { at, .. } => Some(at.ticks()),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// One substrate's measured row.
struct QosRow {
    substrate: &'static str,
    n: usize,
    /// Stabilization instant, with unit ("ticks" on the simulator, "ms" on
    /// the wall-clock substrates whose driver tick is 1 ms).
    stabilization: String,
    stab_value: u64,
    /// The steady-window sender set, rendered.
    senders: String,
    sender_count: usize,
    /// Active directed links in the steady window (only wirenet measures
    /// this directly; the others report the broadcast-implied figure).
    links: String,
    link_count: Option<u64>,
    accusation_delta: u64,
    pass: bool,
    /// The registry snapshot (probe counters + substrate accounting).
    metrics: String,
}

fn render_senders(senders: &[ProcessId]) -> String {
    if senders.is_empty() {
        "{}".to_owned()
    } else {
        let names: Vec<String> = senders.iter().map(|p| p.to_string()).collect();
        format!("{{{}}}", names.join(","))
    }
}

/// Simulator run: deterministic ticks, sender set from `Stats`.
fn netsim_qos(n: usize, horizon: u64, seed: u64) -> QosRow {
    let recorders = NodeRecorders::new(n, 1024);
    // Default system-S params, as in E2: the lossy mesh provokes the
    // accusations that raise every non-source rank, so the election
    // resolves quickly and the second half of the run is genuinely steady.
    let topo = Topology::system_s(
        n,
        ProcessId((seed % n as u64) as u32),
        SystemSParams::default(),
    );
    let mut sim = SimBuilder::new(n)
        .seed(seed)
        .topology(topo)
        .classify(classify_msg)
        .build_with(|env| {
            CommEffOmega::new_with_probe(env, OmegaParams::default(), recorders.probe_for(env.id()))
        });
    // First half: stabilize. Second half: the steady window under test.
    let cut = horizon / 2;
    sim.run_until(Instant::from_ticks(cut));
    let accusations_at_cut = accusation_total(&recorders);
    sim.run_until(Instant::from_ticks(horizon));
    let accusation_delta = accusation_total(&recorders) - accusations_at_cut;

    let leader = sim.node(ProcessId(0)).leader();
    let unanimous = (0..n as u32).all(|p| sim.node(ProcessId(p)).leader() == leader);
    let senders = sim.stats().senders_since(Instant::from_ticks(cut));
    let stab = last_leader_change(&recorders);
    let pass = unanimous && senders == vec![leader] && accusation_delta == 0 && stab < cut;

    sim.stats().export(&recorders.registry());
    QosRow {
        substrate: "netsim",
        n,
        stabilization: format!("{stab} ticks"),
        stab_value: stab,
        senders: render_senders(&senders),
        sender_count: senders.len(),
        links: format!("{} (broadcast)", n - 1),
        link_count: None,
        accusation_delta,
        pass,
        metrics: recorders.registry().snapshot_json(),
    }
}

/// Thread-mesh run: wall clock, sender set from per-process send deltas
/// over the steady window.
fn threadnet_qos(n: usize, seed: u64) -> QosRow {
    let recorders = NodeRecorders::new(n, 1024);
    let config = NetConfig {
        n,
        loss: 0.0,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(900),
        tick: StdDuration::from_millis(1),
        seed,
    };
    let cluster = Cluster::spawn(config, |env| {
        CommEffOmega::new_with_probe(env, OmegaParams::default(), recorders.probe_for(env.id()))
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let leader = await_unanimity(
        || cluster.latest_outputs(),
        &all,
        StdDuration::from_secs(10),
    );
    // Let the election's tail traffic (final accusations in flight) drain
    // before opening the measurement window.
    std::thread::sleep(StdDuration::from_millis(400));
    let (sent_at_cut, _) = cluster.traffic_snapshot();
    let accusations_at_cut = accusation_total(&recorders);
    std::thread::sleep(StdDuration::from_millis(1_000));
    let (sent_at_end, _) = cluster.traffic_snapshot();
    let accusation_delta = accusation_total(&recorders) - accusations_at_cut;
    let report = cluster.stop();
    report.export(&recorders.registry());

    let senders: Vec<ProcessId> = (0..n as u32)
        .map(ProcessId)
        .filter(|p| sent_at_end[p.as_usize()] > sent_at_cut[p.as_usize()])
        .collect();
    let stab = last_leader_change(&recorders);
    let pass = leader.is_some()
        && senders == leader.into_iter().collect::<Vec<_>>()
        && accusation_delta == 0;
    QosRow {
        substrate: "threadnet",
        n,
        stabilization: format!("{stab} ms"),
        stab_value: stab,
        senders: render_senders(&senders),
        sender_count: senders.len(),
        links: format!("{} (broadcast)", n - 1),
        link_count: None,
        accusation_delta,
        pass,
        metrics: recorders.registry().snapshot_json(),
    }
}

/// TCP run: wall clock, and the only substrate where the claim's "exactly
/// n − 1 links" form is measured directly, from per-link frame counters.
fn wirenet_qos(n: usize) -> QosRow {
    let recorders = NodeRecorders::new(n, 1024);
    let config = WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: None,
        ..WireConfig::default()
    };
    let cluster = WireCluster::spawn(config, |env| {
        CommEffOmega::new_with_probe(env, OmegaParams::default(), recorders.probe_for(env.id()))
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let leader = await_unanimity(
        || cluster.latest_outputs(),
        &all,
        StdDuration::from_secs(10),
    );
    std::thread::sleep(StdDuration::from_millis(400));
    let links_at_cut = cluster.link_snapshot();
    let accusations_at_cut = accusation_total(&recorders);
    std::thread::sleep(StdDuration::from_millis(1_000));
    let links_at_end = cluster.link_snapshot();
    let accusation_delta = accusation_total(&recorders) - accusations_at_cut;
    let report = cluster.stop();
    report.export(&recorders.registry());

    // Directed links that carried at least one frame during the window.
    let mut active = 0u64;
    let mut active_sources: Vec<ProcessId> = Vec::new();
    for (i, (cut_row, end_row)) in links_at_cut.iter().zip(&links_at_end).enumerate() {
        for (cut_link, end_link) in cut_row.iter().zip(end_row) {
            if end_link.msgs_sent > cut_link.msgs_sent {
                active += 1;
                let p = ProcessId(i as u32);
                if !active_sources.contains(&p) {
                    active_sources.push(p);
                }
            }
        }
    }
    let stab = last_leader_change(&recorders);
    let pass = leader.is_some()
        && active == (n as u64 - 1)
        && active_sources == leader.into_iter().collect::<Vec<_>>()
        && accusation_delta == 0;
    QosRow {
        substrate: "wirenet",
        n,
        stabilization: format!("{stab} ms"),
        stab_value: stab,
        senders: render_senders(&active_sources),
        sender_count: active_sources.len(),
        links: format!("{active} measured"),
        link_count: Some(active),
        accusation_delta,
        pass,
        metrics: recorders.registry().snapshot_json(),
    }
}

fn row_json(row: &QosRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("n", JsonValue::U64(row.n as u64)),
        ("stabilization", JsonValue::U64(row.stab_value)),
        ("stabilization_rendered", JsonValue::str(&row.stabilization)),
        ("steady_senders", JsonValue::U64(row.sender_count as u64)),
        (
            "active_links",
            match row.link_count {
                Some(l) => JsonValue::U64(l),
                None => JsonValue::Null,
            },
        ),
        ("accusation_delta", JsonValue::U64(row.accusation_delta)),
        ("pass", JsonValue::Bool(row.pass)),
        ("metrics", JsonValue::Raw(row.metrics.clone())),
    ])
}

/// **E17** — election-stabilization QoS plus a live steady-state
/// communication-efficiency check on every substrate, measured through the
/// probe/metrics pipeline. Returns the human table and the full JSON
/// summary (written by the CLI as `BENCH_E17.json`).
pub fn e17_observability(n: usize, horizon: u64, seed: u64) -> (Table, JsonValue) {
    let rows = vec![
        netsim_qos(n, horizon, seed),
        threadnet_qos(n, seed),
        wirenet_qos(n),
    ];
    let mut t = Table::new(vec![
        "substrate",
        "n",
        "stabilized-at",
        "steady senders",
        "active links",
        "accuse Δ",
        "verdict",
    ]);
    for row in &rows {
        t.row(vec![
            row.substrate.to_owned(),
            row.n.to_string(),
            row.stabilization.clone(),
            row.senders.clone(),
            row.links.clone(),
            row.accusation_delta.to_string(),
            if row.pass { "PASS" } else { "FAIL" }.to_owned(),
        ]);
    }
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e17")),
        ("seed", JsonValue::U64(seed)),
        ("n", JsonValue::U64(n as u64)),
        ("horizon_ticks", JsonValue::U64(horizon)),
        ("pass", JsonValue::Bool(rows.iter().all(|r| r.pass))),
        ("rows", JsonValue::Arr(rows.iter().map(row_json).collect())),
    ]);
    (t, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netsim_steady_state_is_communication_efficient() {
        let row = netsim_qos(4, 20_000, 11);
        assert!(
            row.pass,
            "netsim E17 row should pass: senders={} accuse_delta={} stab={}",
            row.senders, row.accusation_delta, row.stabilization
        );
        assert_eq!(row.sender_count, 1);
        assert!(row.metrics.contains("netsim_sent_total_p0"));
        assert!(row.metrics.contains("probe_leader_change_total"));
    }

    #[test]
    fn row_json_shape_is_stable() {
        let row = QosRow {
            substrate: "netsim",
            n: 3,
            stabilization: "5 ticks".into(),
            stab_value: 5,
            senders: "{p1}".into(),
            sender_count: 1,
            links: "2 (broadcast)".into(),
            link_count: None,
            accusation_delta: 0,
            pass: true,
            metrics: "{}".into(),
        };
        let j = row_json(&row).render();
        assert!(j.contains("\"substrate\":\"netsim\""));
        assert!(j.contains("\"active_links\":null"));
        assert!(j.contains("\"pass\":true"));
    }
}
