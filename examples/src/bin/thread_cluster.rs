//! Live demo on real OS threads: the same Ω state machine that runs on the
//! simulator elects a leader over a lossy in-process mesh, and the traffic
//! visibly collapses to a single sender — communication efficiency on a
//! wall clock.
//!
//! Run with: `cargo run -p lls-examples --bin thread_cluster`

use std::time::Duration as StdDuration;

use lls_primitives::runtime::{await_stable_leader, Cluster as _};
use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};

fn main() {
    let n = 6;
    let config = NetConfig {
        n,
        loss: 0.08,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_millis(1),
        tick: StdDuration::from_millis(2),
        seed: 3,
    };
    println!("spawning {n} threads, 8% loss, 0.1–1 ms delay …\n");
    let cluster = Cluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));

    // Sample the sender set every 400 ms. Timeouts grow on every premature
    // suspicion, so the accusation trickle dies out and the sender set
    // collapses to the single leader.
    let mut prev_sent = vec![0u64; n];
    println!("{:>6}  {:>8}  senders in window", "t(ms)", "msgs");
    for step in 1..=10 {
        std::thread::sleep(StdDuration::from_millis(400));
        let (sent, _) = cluster.traffic_snapshot();
        let window: Vec<u64> = sent
            .iter()
            .zip(&prev_sent)
            .map(|(now, before)| now - before)
            .collect();
        let senders: Vec<ProcessId> = window
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, _)| ProcessId(i as u32))
            .collect();
        println!(
            "{:>6}  {:>8}  {:?}",
            step * 400,
            window.iter().sum::<u64>(),
            senders
        );
        prev_sent = sent;
    }

    // Agreement is eventual too: poll until every process names one leader
    // (at sub-millisecond ticks a scheduler stall could still be moving it
    // when a fixed wait ended).
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(20);
    await_stable_leader(&cluster, &all, |l| Some(*l), StdDuration::ZERO, timeout)
        .expect("no agreement");
    let report = cluster.stop();
    let leader = report
        .final_output_of(ProcessId(0))
        .copied()
        .expect("p0 must have output a leader");
    println!("\nfinal leader everywhere: {leader}");
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(report.final_output_of(p), Some(&leader), "{p} disagrees");
    }
    let tail = report.senders_since(StdDuration::from_millis(3_500));
    println!("senders since 3.5 s: {tail:?}");
}
