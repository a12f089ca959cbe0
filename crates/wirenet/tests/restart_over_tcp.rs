//! Socket-level crash–restart: the leader is killed (listener and all
//! connections torn down, threads joined), the survivors re-elect, and the
//! old leader restarts from its durable storage — re-binding its original
//! address so the survivors' redial loops find it from the *accepting*
//! side — and rejoins the agreement.
//!
//! Ω trusts the process with the least `(counter, id)`, and a restarted
//! process comes back at its pre-crash counter plus one. So it ranks below
//! any survivor whose counter is at most its pre-crash counter, and only
//! then must it stay a follower. A survivor's counter rises each time
//! another survivor accuses it (during the interim election, say); once
//! every survivor's counter exceeds the old leader's pre-crash counter, the
//! old leader, with the lowest id, may lead again.

use std::time::Duration as StdDuration;

use lls_primitives::{ProcessId, StorageHandle};
use omega::{CommEffOmega, OmegaParams};
use wirenet::{BackoffConfig, WireCluster, WireConfig};

fn config(n: usize) -> WireConfig {
    // Leader-check timeouts get 30 ms of wall-clock slack at 1 ms ticks.
    // Scheduler hiccups can still forge accusations among the survivors,
    // which raise their counters; the assertions allow for that (see the
    // module doc).
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

/// The accusation counter a process's Ω last made durable: the largest
/// record in its store, since Ω writes each bump ahead.
fn own_counter(store: &StorageHandle) -> u64 {
    let records: Vec<u64> = store.load_records().expect("read the store");
    records.into_iter().max().expect("Ω writes a boot record")
}

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

    let old_leader = cluster
        .await_stable_leader(&all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no initial agreement");

    // Kill the leader for real: listener gone, sockets severed, threads
    // joined. The survivors' writers fall back to redialling its address.
    cluster.kill(old_leader);
    assert!(!cluster.is_alive(old_leader));
    let pre_crash = own_counter(&stores[old_leader.as_usize()]);

    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != old_leader).collect();
    let interim = cluster
        .await_stable_leader(&survivors, |l| Some(*l), HOLD, TIMEOUT)
        .expect("survivors did not re-elect after the kill");
    assert_ne!(interim, old_leader, "survivors still trust the dead leader");

    // Restart from the same durable store, at the incarnation bump
    // `pre_crash + 1` recovered from the WAL.
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

    let final_leader = cluster
        .await_stable_leader(&all, |l| Some(*l), HOLD, TIMEOUT)
        .expect("no full agreement after the restart");

    let report = cluster.stop();
    let counters: Vec<u64> = stores.iter().map(own_counter).collect();
    if survivors
        .iter()
        .any(|s| counters[s.as_usize()] <= pre_crash)
    {
        assert_ne!(
            final_leader, old_leader,
            "a survivor outranks the restarted leader, which must not reclaim \
             leadership: counters {counters:?}, pre-crash {pre_crash}"
        );
    }
    assert_eq!(
        report.final_output_of(old_leader).copied(),
        Some(final_leader),
        "the restarted process must follow the agreed leader"
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
