//! Thread-runtime integration: the same Ω state machine elects a leader over
//! real threads, real clocks, and an injected-loss mesh.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};

/// 2 ms ticks: Ω's initial timeout (60 ms) then outlasts the scheduler
/// stalls of a loaded 2-core host. At 200 µs ticks a 6 ms stall forged an
/// accusation, which raised timeouts past a fixed wait or left a second
/// sender in the tail.
fn config(n: usize, loss: f64) -> NetConfig {
    NetConfig {
        n,
        loss,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(800),
        tick: StdDuration::from_millis(2),
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
        StdDuration::from_secs(20),
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
    let config = config(n, 0.05);
    // The property is eventual: wait for one window of 1,500 ticks in which
    // only one process sent anything.
    let window = config.tick * 1_500;
    let cluster = Cluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    let deadline = StdInstant::now() + StdDuration::from_secs(20);
    let (mut start, mut at_start) = (StdInstant::now(), cluster.traffic_snapshot().0);
    let sender = loop {
        std::thread::sleep(StdDuration::from_millis(100));
        let sent = cluster.traffic_snapshot().0;
        let senders: Vec<usize> = (0..n).filter(|&p| sent[p] > at_start[p]).collect();
        match senders[..] {
            [p] if start.elapsed() >= window => break ProcessId(p as u32),
            [_, _, ..] => (start, at_start) = (StdInstant::now(), sent),
            _ => {}
        }
        assert!(
            StdInstant::now() < deadline,
            "no {window:?} window with one sender; last saw {senders:?}"
        );
    };
    let latest = cluster.latest_outputs();
    cluster.stop();
    assert!(
        latest.iter().all(|l| *l == Some(sender)),
        "the lone sender {sender} is not everyone's leader: {latest:?}"
    );
}

#[test]
fn crashed_leader_is_replaced_on_real_threads() {
    let n = 4;
    // Lossless, low-latency mesh: every process is effectively a source, so
    // re-election is guaranteed even after the leader dies.
    let cluster = Cluster::spawn(config(n, 0.0), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    let dead = await_agreement(
        &cluster,
        StdDuration::from_secs(10),
        StdDuration::from_millis(400),
    )
    .expect("no stable leader before the crash");
    cluster.kill(dead);
    // Poll until the survivors have named one live leader for five polls
    // in a row.
    let survivors: Vec<usize> = (0..n).filter(|&p| p != dead.as_usize()).collect();
    let deadline = StdInstant::now() + StdDuration::from_secs(20);
    let (mut named, mut streak) = (None, 0);
    while streak < 5 {
        std::thread::sleep(StdDuration::from_millis(50));
        let latest = cluster.latest_outputs();
        let views: Vec<Option<ProcessId>> = survivors.iter().map(|&p| latest[p]).collect();
        let agreed = views[0].filter(|l| *l != dead && views.iter().all(|v| *v == Some(*l)));
        streak = if agreed.is_some() && agreed == named {
            streak + 1
        } else {
            usize::from(agreed.is_some())
        };
        named = agreed;
        assert!(
            StdInstant::now() < deadline,
            "survivors never settled on a live leader after {dead} died: {views:?}"
        );
    }
    let report = cluster.stop();
    for p in survivors {
        let leader = report
            .final_output_of(ProcessId(p as u32))
            .copied()
            .expect("survivor must output");
        assert_ne!(leader, dead, "p{p} still trusts the dead leader");
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
