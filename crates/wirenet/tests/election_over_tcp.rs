//! Socket-level integration: the unchanged Ω state machine elects a leader
//! over real localhost TCP, survives injected loss, and re-elects when the
//! leader's connections are killed mid-run.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use wirenet::{BackoffConfig, FaultConfig, WireCluster, WireConfig};

fn config(n: usize, loss: f64) -> WireConfig {
    WireConfig {
        n,
        tick: StdDuration::from_micros(200),
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

/// Polls until every node's latest output has been the *same* leader for
/// `stable_for` continuously (momentary agreement during the initial churn
/// does not count), or gives up after `timeout`.
fn await_agreement(
    cluster: &WireCluster<CommEffOmega>,
    timeout: StdDuration,
    stable_for: StdDuration,
) -> Option<ProcessId> {
    let deadline = StdInstant::now() + timeout;
    let mut agreed: Option<(ProcessId, StdInstant)> = None;
    loop {
        let latest = cluster.latest_outputs();
        let unanimous = latest
            .first()
            .and_then(|o| *o)
            .filter(|first| latest.iter().all(|o| *o == Some(*first)));
        match (unanimous, agreed) {
            (Some(l), Some((held, since))) if l == held => {
                if since.elapsed() >= stable_for {
                    return Some(l);
                }
            }
            (Some(l), _) => agreed = Some((l, StdInstant::now())),
            (None, _) => agreed = None,
        }
        if StdInstant::now() > deadline {
            return None;
        }
        std::thread::sleep(StdDuration::from_millis(25));
    }
}

#[test]
fn three_processes_elect_one_leader_over_tcp() {
    let n = 3;
    let cluster = WireCluster::spawn(config(n, 0.05), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    let leader = await_agreement(
        &cluster,
        StdDuration::from_secs(10),
        StdDuration::from_millis(400),
    )
    .expect("no agreement over TCP");
    let report = cluster.stop();
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(
            report.final_output_of(p).copied(),
            Some(leader),
            "{p} disagrees"
        );
    }
    // Real bytes moved through real sockets.
    for p in (0..n as u32).map(ProcessId) {
        let total = report.node_links_total(p);
        assert!(total.msgs_sent > 0, "{p} wrote no frames");
        assert!(total.bytes_sent > 0, "{p} wrote no bytes");
        assert!(total.msgs_recv > 0, "{p} received no frames");
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
    let old_leader = await_agreement(
        &cluster,
        StdDuration::from_secs(10),
        StdDuration::from_millis(400),
    )
    .expect("no initial agreement");

    // Kill the leader's connections in a tight loop for half a second. A
    // single sever heals in a few milliseconds on localhost (the redial
    // succeeds immediately), which can beat the 6 ms suspicion timeout;
    // flapping the links guarantees the silence the detector needs.
    let sever_at = cluster.elapsed();
    let storm_start = StdInstant::now();
    let mut severed = 0;
    while storm_start.elapsed() < StdDuration::from_millis(500) {
        severed += cluster.sever(old_leader);
        std::thread::sleep(StdDuration::from_millis(2));
    }
    assert!(severed > 0, "nothing to sever: no live connections");

    // The survivors must have moved off the silent leader during the storm.
    let new_leader = await_agreement(
        &cluster,
        StdDuration::from_secs(10),
        StdDuration::from_millis(400),
    )
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
    // Queues of 1 with heavy injected delay: almost every heartbeat is
    // evicted by its successor, yet no handler ever blocks.
    let cluster = WireCluster::spawn(
        WireConfig {
            n,
            tick: StdDuration::from_micros(200),
            queue_capacity: 1,
            backoff: BackoffConfig::default(),
            faults: Some(FaultConfig {
                loss: 0.0,
                min_delay: StdDuration::from_millis(5),
                max_delay: StdDuration::from_millis(10),
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
