//! Cluster-level Ω properties over real sockets: the unchanged Ω state
//! machine elects one leader under heavy injected loss, becomes
//! communication-efficient, replaces a crashed leader, and counts every
//! send it makes.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::{await_stable_leader, Cluster as _};
use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use wirenet::{ClusterReport, FaultConfig, WireCluster, WireConfig};

/// 2 ms ticks: Ω's initial timeout (60 ms) then outlasts the scheduler
/// stalls of a loaded 2-core host. Every frame is delayed by 100 to 800 µs
/// and `loss` of them are dropped at the socket layer.
fn config(n: usize, loss: f64) -> WireConfig {
    WireConfig {
        n,
        tick: StdDuration::from_millis(2),
        faults: Some(FaultConfig {
            loss,
            min_delay: StdDuration::from_micros(100),
            max_delay: StdDuration::from_micros(800),
            seed: 7,
        }),
        ..WireConfig::default()
    }
}

fn final_leaders(report: &ClusterReport<ProcessId>, n: usize) -> Vec<Option<ProcessId>> {
    (0..n as u32)
        .map(|p| report.final_output_of(ProcessId(p)).copied())
        .collect()
}

/// How long every process must name one leader before a test counts it as
/// elected: a fixed sleep is not enough, because scheduler jitter under a
/// loaded test machine can leave a momentary disagreement at whatever
/// instant the cluster happens to be stopped.
const HOLD: StdDuration = StdDuration::from_millis(400);

#[test]
fn cluster_elects_a_single_leader_under_loss() {
    let n = 5;
    let cluster = WireCluster::spawn(config(n, 0.15), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(20);
    let leader = await_stable_leader(&cluster, &all, |l| Some(*l), HOLD, timeout)
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
    let cluster = WireCluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
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
    // Lossless, low-latency links: every process is effectively a source,
    // so re-election is guaranteed even after the leader dies.
    let mut cluster = WireCluster::spawn(config(n, 0.0), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let dead = await_stable_leader(&cluster, &all, |l| Some(*l), HOLD, timeout)
        .expect("no stable leader before the crash");
    cluster.kill(dead);
    // Wait until the survivors have named one live leader for 200 ms.
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|&p| p != dead).collect();
    let live = |l: &ProcessId| (*l != dead).then_some(*l);
    let (hold, timeout) = (StdDuration::from_millis(200), StdDuration::from_secs(20));
    let settled = await_stable_leader(&cluster, &survivors, live, hold, timeout);
    assert!(
        settled.is_some(),
        "survivors never settled on a live leader after {dead} died: {:?}",
        cluster.latest_outputs()
    );
    let report = cluster.stop();
    for p in survivors {
        let leader = report
            .final_output_of(p)
            .copied()
            .expect("survivor must output");
        assert_ne!(leader, dead, "{p} still trusts the dead leader");
    }
}

#[test]
fn traffic_snapshot_counts_progress() {
    let cluster = WireCluster::spawn(config(3, 0.0), |env| {
        CommEffOmega::new(env, OmegaParams::default())
    });
    std::thread::sleep(StdDuration::from_millis(300));
    let (sent, _) = cluster.traffic_snapshot();
    let report = cluster.stop();
    assert!(sent.iter().sum::<u64>() > 0, "no traffic at all");
    assert!(report.sent.iter().sum::<u64>() >= sent.iter().sum::<u64>());
    // Loss 0 and queues far from full: nothing dropped.
    let dropped: u64 = report
        .links
        .iter()
        .flatten()
        .map(|s| s.injected_drops + s.queue_drops)
        .sum();
    assert_eq!(dropped, 0, "links {:?}", report.links);
}
