//! The replicated key-value store over **real TCP sockets**: the same
//! `KvReplica` state machine that runs in the simulator and on the thread
//! mesh, here wired over localhost connections with the framed wire codec.
//!
//! Three replicas elect a leader, a client aims tagged commands at it, and
//! every replica applies the committed log in order — the example asserts
//! that all three observed the *identical* applied sequence, then prints
//! the socket-level traffic that carried it.
//!
//! The run is observable while it happens: every replica feeds a flight
//! recorder, and a scrape endpoint serves `/metrics`, `/flight`, and
//! `/spans` over plain HTTP (`curl` works). Press Enter at any point — or
//! close stdin, e.g. via Ctrl-D — for an on-demand flight-recorder dump of
//! all replicas, the same post-mortem a crash would produce.
//!
//! Run with: `cargo run -p lls-examples --bin kv_over_tcp`

use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{ConsensusParams, ReplicatedLog};
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, Tagged};
use lls_obs::{NodeRecorders, RecordingProbe};
use lls_primitives::ProcessId;
use wirenet::{scrape, ScrapeRoutes, ScrapeServer, WireCluster, WireConfig};

type Replica = KvReplica<RecordingProbe>;

/// Polls until every replica's latest output is `Leader(l)` for the same
/// `l`, held for 300 ms (momentary agreement during startup churn does not
/// count). Panics after `timeout`.
fn await_leader(cluster: &WireCluster<Replica>, timeout: StdDuration) -> ProcessId {
    let deadline = StdInstant::now() + timeout;
    let mut held: Option<(ProcessId, StdInstant)> = None;
    loop {
        let latest = cluster.latest_outputs();
        let unanimous = latest.first().and_then(|o| match o {
            Some(KvEvent::Leader(l)) if latest.iter().all(|o| *o == Some(KvEvent::Leader(*l))) => {
                Some(*l)
            }
            _ => None,
        });
        match (unanimous, held) {
            (Some(l), Some((h, since))) if l == h => {
                if since.elapsed() >= StdDuration::from_millis(300) {
                    return l;
                }
            }
            (Some(l), _) => held = Some((l, StdInstant::now())),
            (None, _) => held = None,
        }
        assert!(StdInstant::now() < deadline, "no stable leader over TCP");
        std::thread::sleep(StdDuration::from_millis(20));
    }
}

/// Polls until every replica's latest output is an `Applied` with the final
/// client sequence number. Panics after `timeout`.
fn await_applied(cluster: &WireCluster<Replica>, last_seq: u64, timeout: StdDuration) {
    let deadline = StdInstant::now() + timeout;
    loop {
        let done = cluster
            .latest_outputs()
            .iter()
            .all(|o| matches!(o, Some(KvEvent::Applied { seq, .. }) if *seq == last_seq));
        if done {
            return;
        }
        assert!(
            StdInstant::now() < deadline,
            "workload did not finish applying on all replicas"
        );
        std::thread::sleep(StdDuration::from_millis(20));
    }
}

/// Watches stdin from a background thread: every line (just press Enter)
/// triggers an on-demand flight-recorder dump of all replicas, and EOF
/// (Ctrl-D, or a closed pipe) triggers one final dump. This is the same
/// post-mortem the chaos campaign prints when a checker trips — here
/// available at will while the cluster runs.
fn spawn_dump_on_stdin(recorders: Arc<NodeRecorders>) {
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => {
                    eprintln!("--- flight-recorder dump (stdin closed) ---");
                    eprintln!("{}", recorders.dump_all());
                    return;
                }
                Ok(_) => {
                    eprintln!("--- flight-recorder dump (on demand) ---");
                    eprintln!("{}", recorders.dump_all());
                }
            }
        }
    });
}

fn main() {
    let n = 3;
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let cluster = WireCluster::try_spawn_traced(
        WireConfig {
            n,
            tick: StdDuration::from_micros(200),
            ..WireConfig::default()
        },
        recorders.clocks(),
        |env| {
            ReplicatedLog::builder(env, ConsensusParams::default())
                .probe(recorders.probe_for(env.id()))
                .build()
                .and_then(KvReplica::from_log)
                .expect("in-memory log")
        },
    )
    .expect("bind localhost listeners");
    for p in (0..n as u32).map(ProcessId) {
        println!("replica {p} listening on {}", cluster.addr_of(p));
    }
    let server = ScrapeServer::spawn(ScrapeRoutes::for_recorders(Arc::clone(&recorders)))
        .expect("bind scrape endpoint");
    println!(
        "scrape endpoint on http://{0}  (try: curl http://{0}/metrics | /flight | /spans)",
        server.addr()
    );
    spawn_dump_on_stdin(Arc::clone(&recorders));

    let leader = await_leader(&cluster, StdDuration::from_secs(10));
    println!("stable leader over TCP: {leader}\n");

    // One client session; the (client, seq) tag makes the retry idempotent.
    let client = ClientId(1);
    let workload = [
        (1, KvCmd::put("alice", "10")),
        (2, KvCmd::put("bob", "20")),
        (3, KvCmd::cas("alice", Some("10"), "11")),
        (4, KvCmd::cas("bob", Some("99"), "0")), // expectation fails
        (2, KvCmd::put("bob", "20")),            // retry of seq 2 → Duplicate
        (5, KvCmd::delete("alice")),
    ];
    let last_seq = 5;
    for (seq, cmd) in &workload {
        cluster.request(
            leader,
            Tagged {
                client,
                seq: *seq,
                cmd: cmd.clone(),
            },
        );
        std::thread::sleep(StdDuration::from_millis(30));
    }
    await_applied(&cluster, last_seq, StdDuration::from_secs(10));

    // Scrape our own endpoint while the cluster is still live — the same
    // view Prometheus (or curl) would get.
    if let Ok(metrics) = scrape(server.addr(), "/metrics") {
        let decided = metrics
            .lines()
            .filter(|l| l.starts_with("probe_decide_total"))
            .collect::<Vec<_>>()
            .join("\n");
        println!("live /metrics excerpt:\n{decided}\n");
    }

    let report = cluster.stop();
    server.stop();

    // Every replica must have applied the identical sequence.
    let applied_of = |p: ProcessId| -> Vec<(u64, ClientId, u64, kvstore::KvResponse)> {
        report
            .outputs
            .iter()
            .filter(|t| t.process == p)
            .filter_map(|t| match &t.output {
                KvEvent::Applied {
                    slot,
                    client,
                    seq,
                    response,
                } => Some((*slot, *client, *seq, response.clone())),
                KvEvent::Leader(_) | KvEvent::SnapshotInstalled { .. } => None,
            })
            .collect()
    };
    println!("=== applied log (as observed at {leader}) ===");
    for (slot, client, seq, response) in applied_of(leader) {
        println!("  slot {slot}: {client} seq {seq} -> {response:?}");
    }
    let logs: Vec<_> = (0..n as u32).map(|p| applied_of(ProcessId(p))).collect();
    assert!(logs.windows(2).all(|w| w[0] == w[1]), "replicas diverged!");

    println!("\n=== socket traffic ===");
    for p in (0..n as u32).map(ProcessId) {
        let t = report.node_links_total(p);
        println!(
            "  {p}: {} frames / {} bytes out, {} frames in, {} reconnects, {} decode errors",
            t.msgs_sent, t.bytes_sent, t.msgs_recv, t.reconnects, t.decode_errors
        );
    }
    println!("\nall {n} replicas applied the same log over real sockets ✓");
}
