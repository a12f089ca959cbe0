//! Leader failover: crash the elected leader mid-run and watch the
//! election and the replicated log recover without losing a single commit.
//!
//! Run with: `cargo run -p lls-examples --bin leader_failover`

use consensus::{ConsensusParams, ReplicatedLog, RsmEvent};
use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};

fn main() {
    let n = 5;
    // Two ♦-sources so the system stays admissible after one of them dies.
    let topology = Topology::system_s_multi(
        n,
        &[ProcessId(0), ProcessId(2)],
        SystemSParams {
            gst: 200,
            ..SystemSParams::default()
        },
    );

    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(11)
        .topology(topology)
        .build_with(|env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()));

    // Phase 1: elect, then commit commands 0..5 under the first leader.
    sim.run_until(Instant::from_ticks(8_000));
    let first_leader = sim.node(ProcessId(1)).omega().leader();
    println!("first leader: {first_leader}");
    for k in 0..5u64 {
        sim.schedule_request(Instant::from_ticks(8_100 + 200 * k), first_leader, k);
    }
    sim.run_until(Instant::from_ticks(20_000));
    let committed: Vec<u64> = sim.node(first_leader).committed_commands().collect();
    println!("committed before crash: {committed:?}");

    // Phase 2: kill the leader.
    println!("\n*** crashing {first_leader} at t=20000 ***\n");
    sim.crash_now(first_leader);
    sim.run_until(Instant::from_ticks(60_000));

    let survivor = ProcessId(if first_leader == ProcessId(0) { 2 } else { 0 });
    let second_leader = sim.node(survivor).omega().leader();
    println!("re-elected leader: {second_leader}");
    assert_ne!(second_leader, first_leader, "dead leader must be replaced");

    // Phase 3: keep committing under the new leader.
    for k in 5..8u64 {
        sim.schedule_request(
            Instant::from_ticks(60_100 + 200 * (k - 5)),
            second_leader,
            k,
        );
    }
    sim.run_until(Instant::from_ticks(120_000));

    println!("\n=== leader timeline (as seen by {survivor}) ===");
    for e in sim.outputs().iter().filter(|e| e.process == survivor) {
        if let RsmEvent::Leader(l) = &e.output {
            println!("  t={:<8} trusts {l}", e.at.ticks());
        }
    }

    let final_log: Vec<u64> = sim.node(second_leader).committed_commands().collect();
    println!("\nfinal committed stream at {second_leader}: {final_log:?}");
    assert_eq!(
        final_log,
        (0..8).collect::<Vec<u64>>(),
        "failover must preserve every pre-crash commit, in order"
    );
    println!("no commit lost across failover ✓");
}
