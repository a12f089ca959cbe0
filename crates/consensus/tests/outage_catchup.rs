//! A follower's outage costs catch-up traffic linear in the slots it
//! missed, and it converges within a few round trips of restarting.
//!
//! netsim, n = 3, WAL-backed logs (in-memory WALs), default parameters, p0
//! leading. One command every 5 ticks from tick 2,001; p2 is killed at tick
//! 3,000 and restarted from its WAL after 1,000 / 2,000 / 4,000 / 8,000
//! ticks; the load runs until 1,000 ticks after the restart, then the
//! cluster runs until quiet. Run with `--nocapture` to see the table.

use consensus::{classify_rsm_msg, ConsensusParams, ReplicatedLog, CATCHUP_BURST};
use lls_primitives::{Duration, Env, Instant, ProcessId, StorageHandle};
use netsim::{SimBuilder, Topology};

const KILL_AT: u64 = 3_000;
const FIRST_CMD: u64 = 2_001;
const CMD_EVERY: u64 = 5;
const CONVERGE_WITHIN: u64 = 100;

struct Outcome {
    missed: u64,
    decides: u64,
    commands: u64,
    converged_after: u64,
}

fn run_outage(outage: u64) -> Outcome {
    let n = 3;
    let p0 = ProcessId(0);
    let p2 = ProcessId(2);
    let params = ConsensusParams::default();
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let restart_at = KILL_AT + outage;
    let load_end = restart_at + 1_000;
    let mut sim = SimBuilder::new(n)
        .seed(7)
        .topology(Topology::all_timely(n, Duration::from_ticks(2)))
        .classify(classify_rsm_msg)
        .build_with(|env| {
            ReplicatedLog::<u64>::builder(env, params)
                .storage(stores[env.id().as_usize()].clone())
                .build()
                .expect("fresh WAL")
        });
    let mut commands = 0;
    let mut t = FIRST_CMD;
    while t < load_end {
        sim.schedule_request(Instant::from_ticks(t), p0, commands);
        commands += 1;
        t += CMD_EVERY;
    }
    sim.run_until(Instant::from_ticks(KILL_AT));
    assert!(sim.node(p0).is_established_leader(), "p0 leads");
    let len_at_kill = sim.node(p0).committed_len();
    sim.kill(p2);
    sim.run_until(Instant::from_ticks(restart_at));
    let target = sim.node(p0).committed_len();
    let recovered = ReplicatedLog::builder(&Env::new(p2, n), params)
        .storage(stores[2].clone())
        .build()
        .expect("p2 recovers its WAL");
    sim.restart(p2, recovered);
    while sim.node(p2).committed_len() < target && sim.step() {}
    let converged_after = sim.now().ticks() - restart_at;
    sim.run_until(Instant::from_ticks(load_end + 3_000));

    let leader: Vec<u64> = sim.node(p0).committed_commands().collect();
    let laggard: Vec<u64> = sim.node(p2).committed_commands().collect();
    assert_eq!(leader.len() as u64, commands, "every command commits");
    assert_eq!(laggard, leader, "p2 ends at p0's log");
    Outcome {
        missed: target - len_at_kill,
        decides: sim
            .stats()
            .kind_counts()
            .get("DECIDE")
            .copied()
            .unwrap_or(0),
        commands,
        converged_after,
    }
}

#[test]
fn an_outage_costs_catch_up_linear_in_the_slots_missed() {
    println!("outage_ticks | slots_missed | decides | decides/cmd | converged_after_ticks");
    for outage in [1_000, 2_000, 4_000, 8_000] {
        let o = run_outage(outage);
        println!(
            "{outage} | {} | {} | {:.2} | {}",
            o.missed,
            o.decides,
            o.decides as f64 / o.commands as f64,
            o.converged_after
        );
        assert!(
            o.decides <= 2 * o.missed + 2 * CATCHUP_BURST,
            "outage {outage}: {} Decides for {} missed slots",
            o.decides,
            o.missed
        );
        assert!(
            o.converged_after <= CONVERGE_WITHIN,
            "outage {outage}: p2 took {} ticks to reach p0's length",
            o.converged_after
        );
    }
}
