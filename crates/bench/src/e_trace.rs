//! Experiment E18: the causal tracing plane, end to end, on every
//! substrate.
//!
//! E17 measured the steady state *through* the probe pipeline; E18
//! exercises the plane built on top of it. Each substrate run:
//!
//! 1. boots an Ω cluster whose messages carry the v2 trace envelope
//!    (per-node Lamport clock + trace id), so every recorded probe event
//!    lands with a causal position;
//! 2. stabilizes, **arms** the online [`Watchdog`], and holds a steady
//!    window in which zero alarms must fire (on netsim the harness also
//!    feeds the observed sender set through
//!    [`Watchdog::check_senders`]);
//! 3. induces a link cut against the elected leader (a partition on the
//!    simulator, a kill on the wall-clock substrates) — the watchdog,
//!    still armed, must raise at least one structured alarm *with* a
//!    captured flight-recorder dump;
//! 4. reconstructs cross-node spans (accusation → counter bump → leader
//!    change) from the per-node streams and checks every span is causally
//!    ordered — no hop "receives" before its cause was "sent"
//!    (cross-node hops must strictly increase the Lamport value);
//! 5. reports span causal-depth and latency distributions.
//!
//! On wirenet the run additionally serves a live HTTP scrape endpoint
//! mid-run: `/metrics` must match the in-process registry rendering, and
//! `/flight` + `/spans` must answer while the cluster is re-electing.
//! The whole result lands in `BENCH_E18.json`.

use std::sync::Arc;
use std::time::Duration as StdDuration;

use lls_obs::{
    reconstruct_spans, NodeRecorders, RecordingProbe, SpanKind, SpanRecord, Watchdog,
    WatchdogConfig, WatchdogProbe,
};
use lls_primitives::runtime::Cluster;
use lls_primitives::{Env, Instant, LamportClock, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};
use omega::{classify_msg, CommEffOmega, OmegaParams};
use wirenet::{scrape, ScrapeRoutes, ScrapeServer, WireCluster};

use crate::json::JsonValue;
use crate::percentile;
use crate::table::Table;
use crate::wall::{all, stable_leader, thread_config, wire_config};

/// Distribution summary over the reconstructed spans of one run.
struct SpanStats {
    total: usize,
    election: usize,
    all_ordered: bool,
    depth_p50: u64,
    depth_p99: u64,
    latency_p50: Option<u64>,
    latency_p99: Option<u64>,
}

fn span_stats(spans: &[SpanRecord]) -> SpanStats {
    let election = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Election)
        .count();
    let all_ordered = spans.iter().all(SpanRecord::causally_ordered);
    let mut depths: Vec<u64> = spans.iter().map(SpanRecord::causal_depth).collect();
    depths.sort_unstable();
    let mut latencies: Vec<u64> = spans.iter().filter_map(SpanRecord::latency_ticks).collect();
    latencies.sort_unstable();
    SpanStats {
        total: spans.len(),
        election,
        all_ordered,
        depth_p50: if depths.is_empty() {
            0
        } else {
            percentile(&depths, 50.0)
        },
        depth_p99: if depths.is_empty() {
            0
        } else {
            percentile(&depths, 99.0)
        },
        latency_p50: (!latencies.is_empty()).then(|| percentile(&latencies, 50.0)),
        latency_p99: (!latencies.is_empty()).then(|| percentile(&latencies, 99.0)),
    }
}

/// One substrate's measured row.
struct TraceRow {
    substrate: &'static str,
    n: usize,
    stats: SpanStats,
    /// Alarms raised inside the armed steady window (must be 0).
    alarms_steady: usize,
    /// Alarms raised after the induced cut (must be ≥ 1).
    alarms_after: usize,
    /// Whether the first post-cut alarm carried a flight-recorder dump.
    alarm_has_dump: bool,
    /// Mid-run `/metrics` scrape matched the in-process registry
    /// (wirenet only).
    scrape_ok: Option<bool>,
    pass: bool,
}

fn finish_row(
    substrate: &'static str,
    n: usize,
    recorders: &NodeRecorders,
    watchdog: &Watchdog,
    alarms_steady: usize,
    scrape_ok: Option<bool>,
) -> TraceRow {
    let alarms = watchdog.alarms();
    let alarms_after = alarms.len().saturating_sub(alarms_steady);
    let alarm_has_dump = alarms
        .get(alarms_steady)
        .is_some_and(|a| !a.dump.is_empty());
    let spans = reconstruct_spans(&recorders.all_events());
    let stats = span_stats(&spans);
    let pass = stats.all_ordered
        && stats.election >= 1
        && alarms_steady == 0
        && alarms_after >= 1
        && alarm_has_dump
        && scrape_ok.unwrap_or(true);
    TraceRow {
        substrate,
        n,
        stats,
        alarms_steady,
        alarms_after,
        alarm_has_dump,
        scrape_ok,
        pass,
    }
}

/// Simulator run: deterministic ticks; the cut is a real partition that
/// isolates the elected leader.
fn netsim_trace(n: usize, horizon: u64, seed: u64) -> TraceRow {
    let recorders = Arc::new(NodeRecorders::new(n, 1024));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let topo = Topology::system_s(
        n,
        ProcessId((seed % n as u64) as u32),
        SystemSParams::default(),
    );
    let mut sim = SimBuilder::new(n)
        .seed(seed)
        .topology(topo)
        .classify(classify_msg)
        .trace_clocks(recorders.clocks())
        .build_with(|env| {
            CommEffOmega::new_with_probe(
                env,
                OmegaParams::default(),
                watchdog.probe(recorders.probe_for(env.id())),
            )
        });
    // Stabilize, then arm and hold a steady window.
    let cut = horizon / 2;
    sim.run_until(Instant::from_ticks(cut));
    watchdog.arm();
    let window_end = cut + horizon / 8;
    sim.run_until(Instant::from_ticks(window_end));
    // The traffic-side invariant: only the leader sent inside the window.
    watchdog.check_senders(&sim.stats().senders_since(Instant::from_ticks(cut)));
    let alarms_steady = watchdog.alarm_count();
    // The link cut: isolate the current leader. The survivors must accuse,
    // re-elect, and the armed watchdog must catch the flap.
    let leader = sim.node(ProcessId(0)).leader();
    sim.partition_now(&[leader]);
    sim.run_until(Instant::from_ticks(horizon));
    watchdog.disarm();
    finish_row("netsim", n, &recorders, &watchdog, alarms_steady, None)
}

/// The Ω machine of a traced wall-clock run.
type TracedOmega = CommEffOmega<WatchdogProbe<RecordingProbe>>;

/// Wall-clock run (1 ms ticks, no loss): stabilize, arm the watchdog for a
/// 500 ms steady window, then cut by killing the elected leader and await
/// the survivors' re-election. `spawn` starts the cluster on the recorders'
/// clocks. After the steady window `live` may start a live endpoint over
/// the recorders and check it (wirenet's scrape); `churn` checks it again
/// once the survivors agree. Both verdicts make the row's scrape column.
fn wall_trace<C: Cluster<Sm = TracedOmega>, L>(
    substrate: &'static str,
    n: usize,
    spawn: impl FnOnce(Vec<LamportClock>, &dyn Fn(&Env) -> TracedOmega) -> C,
    live: impl FnOnce(&Arc<NodeRecorders>) -> Option<(L, bool)>,
    churn: impl FnOnce(L) -> bool,
) -> TraceRow {
    let recorders = Arc::new(NodeRecorders::new(n, 1024));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let mut cluster = spawn(recorders.clocks(), &|env| {
        let probe = watchdog.probe(recorders.probe_for(env.id()));
        CommEffOmega::new_with_probe(env, OmegaParams::default(), probe)
    });
    let all = all(n);
    let leader = stable_leader(&cluster, &all, |l| Some(*l));
    // Let the election's tail traffic drain before arming.
    std::thread::sleep(StdDuration::from_millis(400));
    watchdog.arm();
    std::thread::sleep(StdDuration::from_millis(500));
    let alarms_steady = watchdog.alarm_count();
    let endpoint = live(&recorders);
    let victim = leader.unwrap_or(ProcessId(0));
    cluster.kill(victim);
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim).collect();
    let _ = stable_leader(&cluster, &survivors, |l| Some(*l));
    let scrape_ok = endpoint.map(|(endpoint, steady_ok)| churn(endpoint) && steady_ok);
    watchdog.disarm();
    cluster.stop();
    finish_row(
        substrate,
        n,
        &recorders,
        &watchdog,
        alarms_steady,
        scrape_ok,
    )
}

/// Starts the wirenet leg's scrape endpoint over `recorders` and checks,
/// mid-run, that its `/metrics` body is the registry's own rendering. The
/// cluster is live, so counters can move between the scrape and the local
/// snapshot: it retries until one round trip is quiescent.
fn scrape_metrics(recorders: &Arc<NodeRecorders>) -> (ScrapeServer, bool) {
    let server =
        ScrapeServer::spawn(ScrapeRoutes::for_recorders(Arc::clone(recorders))).expect("scrape");
    let matched = (0..5).any(|attempt| {
        if attempt > 0 {
            std::thread::sleep(StdDuration::from_millis(100));
        }
        let local = recorders.registry().render_prometheus();
        scrape(server.addr(), "/metrics").is_ok_and(|body| body == local)
    });
    (server, matched)
}

/// The endpoint must keep answering while the cluster churns.
fn scrape_churn(server: ScrapeServer) -> bool {
    let flight = scrape(server.addr(), "/flight").is_ok_and(|b| b.contains("node p"));
    let spans = scrape(server.addr(), "/spans").is_ok_and(|b| b.starts_with('['));
    server.stop();
    flight && spans
}

fn opt_u64(v: Option<u64>) -> JsonValue {
    v.map_or(JsonValue::Null, JsonValue::U64)
}

fn row_json(row: &TraceRow) -> JsonValue {
    JsonValue::obj(vec![
        ("substrate", JsonValue::str(row.substrate)),
        ("n", JsonValue::U64(row.n as u64)),
        ("spans", JsonValue::U64(row.stats.total as u64)),
        ("election_spans", JsonValue::U64(row.stats.election as u64)),
        ("causally_ordered", JsonValue::Bool(row.stats.all_ordered)),
        ("depth_p50", JsonValue::U64(row.stats.depth_p50)),
        ("depth_p99", JsonValue::U64(row.stats.depth_p99)),
        ("latency_ticks_p50", opt_u64(row.stats.latency_p50)),
        ("latency_ticks_p99", opt_u64(row.stats.latency_p99)),
        ("alarms_steady", JsonValue::U64(row.alarms_steady as u64)),
        ("alarms_after_cut", JsonValue::U64(row.alarms_after as u64)),
        ("alarm_has_dump", JsonValue::Bool(row.alarm_has_dump)),
        (
            "scrape_ok",
            row.scrape_ok.map_or(JsonValue::Null, JsonValue::Bool),
        ),
        ("pass", JsonValue::Bool(row.pass)),
    ])
}

/// **E18** — drive the tracing plane on every substrate: steady window
/// with an armed watchdog (zero alarms), induced link cut (≥ 1 alarm with
/// post-mortem dump), cross-node span reconstruction (all causally
/// ordered), latency/depth distributions, and — on wirenet — a live HTTP
/// scrape that matches the in-process registry. Returns the human table
/// and the JSON summary the CLI writes as `BENCH_E18.json`.
pub fn e18_tracing(n: usize, horizon: u64, seed: u64) -> (Table, JsonValue) {
    let rows = vec![
        netsim_trace(n, horizon, seed),
        wall_trace(
            "threadnet",
            n,
            |clocks, make| {
                threadnet::Cluster::spawn_traced(thread_config(n, 0.0, 900, seed), clocks, make)
            },
            |_| None,
            |()| true,
        ),
        wall_trace(
            "wirenet",
            n,
            |clocks, make| {
                WireCluster::try_spawn_traced(wire_config(n, 0.0, seed), clocks, make)
                    .expect("bind 127.0.0.1 listeners")
            },
            |recorders| Some(scrape_metrics(recorders)),
            scrape_churn,
        ),
    ];
    let mut t = Table::new(vec![
        "substrate",
        "n",
        "spans",
        "ordered",
        "depth p50/p99",
        "latency p50/p99",
        "alarms steady/cut",
        "scrape",
        "verdict",
    ]);
    for row in &rows {
        t.row(vec![
            row.substrate.to_owned(),
            row.n.to_string(),
            format!("{} ({} election)", row.stats.total, row.stats.election),
            if row.stats.all_ordered {
                "all"
            } else {
                "VIOLATED"
            }
            .to_owned(),
            format!("{}/{}", row.stats.depth_p50, row.stats.depth_p99),
            match (row.stats.latency_p50, row.stats.latency_p99) {
                (Some(a), Some(b)) => format!("{a}/{b}"),
                _ => "-".to_owned(),
            },
            format!("{}/{}", row.alarms_steady, row.alarms_after),
            match row.scrape_ok {
                Some(true) => "live".to_owned(),
                Some(false) => "MISMATCH".to_owned(),
                None => "-".to_owned(),
            },
            if row.pass { "PASS" } else { "FAIL" }.to_owned(),
        ]);
    }
    let json = JsonValue::obj(vec![
        ("experiment", JsonValue::str("e18")),
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

    /// The acceptance path on the deterministic substrate: steady window
    /// clean, the partition raises an alarm with a dump, every
    /// reconstructed span is causally ordered.
    #[test]
    fn netsim_trace_row_passes() {
        let row = netsim_trace(4, 24_000, 11);
        assert_eq!(row.alarms_steady, 0, "steady window must be alarm-free");
        assert!(row.alarms_after >= 1, "the cut must raise an alarm");
        assert!(row.alarm_has_dump, "alarms carry the post-mortem dump");
        assert!(row.stats.all_ordered, "no span may receive before send");
        assert!(row.stats.election >= 1, "re-election must leave a span");
        assert!(row.pass);
    }

    #[test]
    fn span_stats_handle_empty_input() {
        let stats = span_stats(&[]);
        assert_eq!(stats.total, 0);
        assert!(stats.all_ordered, "vacuously ordered");
        assert_eq!(stats.latency_p50, None);
    }
}
