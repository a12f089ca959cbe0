//! Socket-level crash–restart: the leader is killed (listener and all
//! connections torn down, threads joined), the survivors re-elect, and the
//! old leader restarts from its durable storage — re-binding its original
//! address so the survivors' redial loops find it from the *accepting*
//! side — and rejoins as a follower.

use std::time::Duration as StdDuration;

use lls_primitives::runtime::await_stable_leader;
use lls_primitives::{ProcessId, StorageHandle};
use omega::{CommEffOmega, OmegaParams};
use wirenet::{BackoffConfig, WireCluster, WireConfig};

fn config(n: usize) -> WireConfig {
    // A coarser tick than the election tests: leader-check timeouts get
    // 30ms of wall-clock slack, so scheduler hiccups among the survivors
    // cannot forge accusations that would tie their counters with the
    // restarted process's bumped one.
    WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: None,
        record_outputs: false,
    }
}

/// How long the members must name one leader before the test counts it as
/// elected, and how long it waits for that.
const HOLD: StdDuration = StdDuration::from_millis(400);
const TIMEOUT: StdDuration = StdDuration::from_secs(10);

#[test]
fn killed_leader_restarts_from_wal_and_rejoins_as_follower() {
    let n = 3;
    // One durable store per process, held outside the cluster so a restart
    // can recover from the same store its predecessor wrote.
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let mut cluster = WireCluster::spawn(config(n), |env| {
        CommEffOmega::with_storage(
            env,
            OmegaParams::default(),
            stores[env.id().as_usize()].clone(),
        )
        .expect("fresh in-memory store")
    });
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();

    let old_leader = await_stable_leader(&cluster, &all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no initial agreement");

    // Kill the leader for real: listener gone, sockets severed, threads
    // joined. The survivors' writers fall back to redialling its address.
    cluster.kill(old_leader);
    assert!(!cluster.is_alive(old_leader));

    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != old_leader).collect();
    let interim = await_stable_leader(&cluster, &survivors, |l| Some(*l), HOLD, TIMEOUT)
        .expect("survivors did not re-elect after the kill");
    assert_ne!(interim, old_leader, "survivors still trust the dead leader");

    // Restart from the same durable store. The incarnation bump recovered
    // from the WAL (counter 0 -> 1) ranks the old leader below the
    // incumbents, so it must rejoin as a follower and adopt the new leader.
    let env = lls_primitives::Env::new(old_leader, n);
    let recovered = CommEffOmega::with_storage(
        &env,
        OmegaParams::default(),
        stores[old_leader.as_usize()].clone(),
    )
    .expect("recover from WAL");
    cluster
        .restart(old_leader, recovered)
        .expect("re-bind the old leader's address");
    assert!(cluster.is_alive(old_leader));

    let final_leader = await_stable_leader(&cluster, &all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no full agreement after the restart");
    assert_ne!(
        final_leader, old_leader,
        "the restarted leader must not reclaim leadership"
    );

    let report = cluster.stop();
    assert_eq!(
        report.final_output_of(old_leader).copied(),
        Some(final_leader),
        "the restarted process must follow the new leader"
    );
    assert!(
        report.errors.is_empty(),
        "clean run expected: {:?}",
        report.errors
    );
    // The rejoin really went over fresh sockets: someone reconnected.
    assert!(
        report.total_reconnects() > 0,
        "no link ever reconnected: {:?}",
        report.links
    );
}
