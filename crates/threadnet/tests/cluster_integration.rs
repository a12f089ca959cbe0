//! Thread-runtime integration: the same Ω state machine elects a leader over
//! real threads, real clocks, and an injected-loss mesh.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};

fn config(n: usize, loss: f64) -> NetConfig {
    NetConfig {
        n,
        loss,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(800),
        tick: StdDuration::from_micros(200),
        seed: 7,
    }
}

fn final_leaders(report: &threadnet::Report<ProcessId>, n: usize) -> Vec<Option<ProcessId>> {
    (0..n as u32)
        .map(|p| report.final_output_of(ProcessId(p)).copied())
        .collect()
}

/// Polls until every process's latest output has been the *same* leader for
/// `stable_for` continuously — a fixed sleep is not enough, because
/// scheduler jitter under a loaded test machine can leave a momentary
/// disagreement at whatever instant the cluster happens to be stopped.
fn await_agreement(
    cluster: &Cluster<CommEffOmega>,
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
fn cluster_elects_a_single_leader_under_loss() {
    let n = 5;
    let cluster = Cluster::spawn(config(n, 0.15), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    let leader = await_agreement(
        &cluster,
        StdDuration::from_secs(10),
        StdDuration::from_millis(400),
    )
    .expect("no stable agreement under loss");
    let report = cluster.stop();
    let finals = final_leaders(&report, n);
    for (i, l) in finals.iter().enumerate() {
        assert_eq!(l.as_ref(), Some(&leader), "p{i} disagrees: {finals:?}");
    }
}

#[test]
fn cluster_becomes_communication_efficient() {
    let n = 4;
    // Stabilization is wall-clock dependent: this binary runs several
    // clusters of OS threads concurrently, and scheduler jitter can push the
    // collapse of the sender set past any fixed deadline. The property itself
    // is eventual, so only the timing tolerance is loosened: allow a few
    // attempts with a generous horizon, and require one clean tail window.
    let mut last_diag = String::new();
    for attempt in 0..3 {
        let cluster = Cluster::spawn(config(n, 0.05), |env| {
            CommEffOmega::new(env, OmegaParams::default())
        });
        std::thread::sleep(StdDuration::from_millis(1_800));
        let report = cluster.stop();
        // In the last 300 ms, only the leader should have sent anything.
        let senders = report.senders_since(StdDuration::from_millis(1_500));
        if senders.len() <= 1 {
            return;
        }
        last_diag = format!(
            "attempt {attempt}: tail senders {senders:?} (last_send={:?})",
            report.last_send
        );
    }
    panic!("sender set never collapsed: {last_diag}");
}

#[test]
fn crashed_leader_is_replaced_on_real_threads() {
    let n = 4;
    // Lossless, low-latency mesh: every process is effectively a source, so
    // re-election is guaranteed even after the leader dies.
    let cluster = Cluster::spawn(config(n, 0.0), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    std::thread::sleep(StdDuration::from_millis(400));
    let (_, _) = cluster.traffic_snapshot();
    cluster.kill(ProcessId(0));
    std::thread::sleep(StdDuration::from_millis(1_200));
    let report = cluster.stop();
    for p in 1..n as u32 {
        let leader = report
            .final_output_of(ProcessId(p))
            .copied()
            .expect("survivor must output");
        assert_ne!(leader, ProcessId(0), "p{p} still trusts the dead leader");
    }
}

#[test]
fn traffic_snapshot_counts_progress() {
    let cluster = Cluster::spawn(config(3, 0.0), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    std::thread::sleep(StdDuration::from_millis(300));
    let (sent, _) = cluster.traffic_snapshot();
    let report = cluster.stop();
    assert!(sent.iter().sum::<u64>() > 0, "no traffic at all");
    assert!(report.sent.iter().sum::<u64>() >= sent.iter().sum::<u64>());
    // Loss 0: nothing dropped.
    assert_eq!(report.dropped.iter().sum::<u64>(), 0);
}
