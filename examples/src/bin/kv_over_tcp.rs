//! The replicated key-value store over **real TCP sockets**: the same
//! `KvReplica` state machine that runs in the simulator and on the thread
//! mesh, here wired over localhost connections with the framed wire codec.
//!
//! Three replicas elect a leader, a client aims tagged commands at it (and
//! re-aims any command not yet applied at whichever replica leads now),
//! and every replica applies the committed log in order — the example
//! asserts that all three observed the *identical* applied sequence and
//! that each command took effect exactly once, then prints the
//! socket-level traffic that carried it.
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
use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, KvResponse, Tagged};
use lls_obs::{NodeRecorders, RecordingProbe};
use lls_primitives::ProcessId;
use wirenet::{scrape, OutputCursor, ScrapeRoutes, ScrapeServer, WireCluster, WireConfig};

type Replica = KvReplica<RecordingProbe>;

/// What the replicas have output so far, read through one cursor.
struct Observed {
    cursor: OutputCursor,
    /// The leader each replica last named.
    leaders: Vec<Option<ProcessId>>,
    /// The client sequence numbers each replica applied, in slot order.
    applied: Vec<Vec<u64>>,
}

impl Observed {
    fn new(n: usize) -> Self {
        Observed {
            cursor: OutputCursor::default(),
            leaders: vec![None; n],
            applied: vec![Vec::new(); n],
        }
    }

    fn poll(&mut self, cluster: &WireCluster<Replica>) {
        for t in cluster.outputs_since(&mut self.cursor) {
            let p = t.process.as_usize();
            match t.output {
                KvEvent::Leader(l) => self.leaders[p] = Some(l),
                KvEvent::Applied { seq, .. } => self.applied[p].push(seq),
                KvEvent::SnapshotInstalled { .. } => {}
            }
        }
    }

    /// A replica that names itself leader, if one does.
    fn self_named_leader(&self) -> Option<ProcessId> {
        (0..self.leaders.len() as u32)
            .map(ProcessId)
            .find(|p| self.leaders[p.as_usize()] == Some(*p))
    }
}

/// Submits `cmd` to the replica that names itself leader, and re-submits
/// it every 200 ms to whichever replica then does, until some replica
/// applies it. A leader can move after the stability wait, and a replica
/// that lost leadership never proposes what it queued; the session tag
/// keeps a re-submission exactly-once (a second copy that commits is
/// answered `Duplicate`). Panics after `timeout`.
fn submit_until_applied(
    cluster: &WireCluster<Replica>,
    seen: &mut Observed,
    cmd: &Tagged<KvCmd>,
    timeout: StdDuration,
) {
    let deadline = StdInstant::now() + timeout;
    let marks: Vec<usize> = seen.applied.iter().map(Vec::len).collect();
    let mut resend_at = StdInstant::now();
    loop {
        seen.poll(cluster);
        let applied = seen
            .applied
            .iter()
            .zip(&marks)
            .any(|(log, &mark)| log[mark..].contains(&cmd.seq));
        if applied {
            return;
        }
        if StdInstant::now() >= resend_at {
            if let Some(leader) = seen.self_named_leader() {
                cluster.request(leader, cmd.clone());
                resend_at = StdInstant::now() + StdDuration::from_millis(200);
            }
        }
        assert!(
            StdInstant::now() < deadline,
            "seq {} was never applied",
            cmd.seq
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }
}

/// Polls until all replicas have applied the same number of slots.
/// Panics after `timeout`.
fn await_applied_everywhere(
    cluster: &WireCluster<Replica>,
    seen: &mut Observed,
    timeout: StdDuration,
) {
    let deadline = StdInstant::now() + timeout;
    loop {
        seen.poll(cluster);
        if seen.applied.windows(2).all(|w| w[0].len() == w[1].len()) {
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
            tick: StdDuration::from_millis(2),
            record_outputs: true,
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

    // Momentary agreement during startup churn does not count: the leader
    // must hold for 300 ms.
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let (hold, timeout) = (StdDuration::from_millis(300), StdDuration::from_secs(10));
    let leader = cluster
        .await_stable_leader(&all, KvEvent::leader, hold, timeout)
        .expect("no stable leader over TCP");
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
    let mut seen = Observed::new(n);
    for (seq, cmd) in &workload {
        let cmd = Tagged {
            client,
            seq: *seq,
            cmd: cmd.clone(),
        };
        submit_until_applied(&cluster, &mut seen, &cmd, StdDuration::from_secs(10));
    }
    await_applied_everywhere(&cluster, &mut seen, StdDuration::from_secs(10));

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
    let applied_of = |p: ProcessId| -> Vec<(u64, ClientId, u64, KvResponse)> {
        report
            .outputs()
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
    // Exactly once: each command took effect in one slot; every other copy
    // of it (the deliberate retry, or a re-submission) was a duplicate.
    for seq in 1..=5 {
        let effective = logs[0]
            .iter()
            .filter(|(_, _, s, r)| *s == seq && *r != KvResponse::Duplicate)
            .count();
        assert_eq!(effective, 1, "seq {seq} took effect {effective} times");
    }

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
