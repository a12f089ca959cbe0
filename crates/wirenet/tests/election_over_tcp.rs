//! Socket-level integration: the unchanged Ω state machine elects a leader
//! over real localhost TCP, survives injected loss, and re-elects when the
//! leader's connections are killed mid-run.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use wirenet::{BackoffConfig, FaultConfig, WireCluster, WireConfig};

/// 2 ms ticks, like the other wall-clock suites: Ω's initial timeout (60 ms)
/// then outlasts the scheduler stalls of a loaded host. These tests wait by
/// polling for agreement, not with a fixed sleep.
fn config(n: usize, loss: f64) -> WireConfig {
    WireConfig {
        n,
        tick: StdDuration::from_millis(2),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: (loss > 0.0).then_some(FaultConfig {
            loss,
            min_delay: StdDuration::from_micros(100),
            max_delay: StdDuration::from_micros(800),
            seed: 7,
        }),
        record_outputs: false,
    }
}

/// How long every node must name one leader before a test counts it as
/// elected (momentary agreement during the initial churn does not count),
/// and how long a test waits for that.
const HOLD: StdDuration = StdDuration::from_millis(400);
const TIMEOUT: StdDuration = StdDuration::from_secs(10);

#[test]
fn three_processes_elect_one_leader_over_tcp() {
    let n = 3;
    let cluster = WireCluster::spawn(config(n, 0.05), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let leader = cluster
        .await_stable_leader(&all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no agreement over TCP");
    let report = cluster.stop();
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(
            report.final_output_of(p).copied(),
            Some(leader),
            "{p} disagrees"
        );
    }
    // Real bytes moved through real sockets: the leader's heartbeats,
    // which are all the protocol must send once it is elected, reached
    // every follower.
    for p in (0..n as u32).map(ProcessId).filter(|&p| p != leader) {
        let to_follower = report.links[leader.as_usize()][p.as_usize()];
        assert!(to_follower.msgs_sent > 0, "{leader} wrote no frames to {p}");
        assert!(to_follower.bytes_sent > 0, "{leader} wrote no bytes to {p}");
        assert!(
            report.node_links_total(p).msgs_recv > 0,
            "{p} received no frames"
        );
    }
}

#[test]
fn severed_leader_triggers_reelection_and_reconnect() {
    let n = 3;
    // No injected loss: the only disturbance is the severed connections.
    let config = WireConfig {
        record_outputs: true,
        ..config(n, 0.0)
    };
    let cluster = WireCluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let old_leader = cluster
        .await_stable_leader(&all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no initial agreement");

    // Kill the leader's connections in a tight loop for half a second,
    // about eight of Ω's 60 ms initial timeouts. A single sever heals in a
    // few milliseconds on localhost (the redial succeeds immediately),
    // which can beat the suspicion timeout; flapping the links guarantees
    // the silence the detector needs.
    let sever_at = cluster.epoch().elapsed();
    let storm_start = StdInstant::now();
    let mut severed = 0;
    while storm_start.elapsed() < StdDuration::from_millis(500) {
        severed += cluster.sever(old_leader);
        std::thread::sleep(StdDuration::from_millis(2));
    }
    assert!(severed > 0, "nothing to sever: no live connections");

    // The survivors must have moved off the silent leader during the storm.
    let new_leader = cluster
        .await_stable_leader(&all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no re-agreement after sever storm");
    let report = cluster.stop();
    let reelected = report
        .outputs()
        .iter()
        .any(|t| t.at >= sever_at && t.output != old_leader);
    assert!(
        reelected,
        "no output after the sever ever named a different leader \
         (old {old_leader}, final {new_leader}, outputs {:?})",
        report.outputs()
    );
    assert!(
        report.total_reconnects() > 0,
        "links never reconnected: {:?}",
        report.links
    );
}

#[test]
fn queue_overflow_drops_oldest_but_cluster_stays_live() {
    let n = 2;
    // Queues of 1 with injected delays of 2.5 to 5 heartbeat periods (η is
    // 10 ticks): almost every heartbeat is evicted by its successor, yet no
    // handler ever blocks.
    let cluster = WireCluster::spawn(
        WireConfig {
            n,
            tick: StdDuration::from_millis(2),
            queue_capacity: 1,
            backoff: BackoffConfig::default(),
            faults: Some(FaultConfig {
                loss: 0.0,
                min_delay: StdDuration::from_millis(50),
                max_delay: StdDuration::from_millis(100),
                seed: 3,
            }),
            record_outputs: false,
        },
        |env| CommEffOmega::new(env, OmegaParams::default()),
    );
    std::thread::sleep(StdDuration::from_millis(600));
    let report = cluster.stop();
    let drops: u64 = report.links.iter().flatten().map(|s| s.queue_drops).sum();
    assert!(
        drops > 0,
        "expected overflow evictions, links {:?}",
        report.links
    );
    // Liveness: everyone still produced an output.
    for p in (0..n as u32).map(ProcessId) {
        assert!(report.final_output_of(p).is_some(), "{p} produced nothing");
    }
}
