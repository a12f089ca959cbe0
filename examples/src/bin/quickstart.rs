//! Quickstart: elect a leader among five processes of which only one is a
//! ♦-source, watch the election converge, and see communication efficiency
//! kick in.
//!
//! Run with: `cargo run -p lls-examples --bin quickstart`

use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};
use omega::{classify_msg, CommEffOmega, OmegaParams};

fn main() {
    let n = 5;
    let source = ProcessId(3);
    let horizon = Instant::from_ticks(30_000);

    // System S: a fair-lossy mesh (30% loss, unbounded delays) in which only
    // p3's outgoing links become timely after GST = 500 ticks.
    let topology = Topology::system_s(n, source, SystemSParams::default());

    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(42)
        .topology(topology)
        .classify(classify_msg)
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));

    sim.run_until(horizon);

    println!("=== leader-change timeline ===");
    for e in sim.outputs() {
        println!(
            "  t={:<8} {} now trusts {}",
            e.at.ticks(),
            e.process,
            e.output
        );
    }

    println!("\n=== final state ===");
    for p in (0..n as u32).map(ProcessId) {
        let node = sim.node(p);
        println!(
            "  {p}: leader={} own_counter={} accusations_sent={}",
            node.leader(),
            node.own_counter(),
            node.accusations_sent()
        );
    }

    let stats = sim.stats();
    println!("\n=== message economy ===");
    for (kind, count) in stats.kind_counts() {
        println!("  {kind:<8} {count}");
    }
    match stats.quiescence_time(1) {
        Some(cut) => {
            let senders = stats.senders_since(cut);
            println!(
                "\ncommunication-efficient from t={} on: only {:?} still sends",
                cut.ticks(),
                senders
            );
        }
        None => println!("\nrun did not quiesce to a single sender"),
    }
}
