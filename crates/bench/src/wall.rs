//! What the wall-clock legs of the experiments share: the TCP cluster's
//! configuration and the stable-leader wait. Each leg itself is one function
//! generic over [`Cluster`]; only the spawn, and what only sockets have
//! (link counters, scrape routes), stay at the call sites.

use std::time::Duration as StdDuration;

use lls_primitives::runtime::{await_stable_leader, Cluster, Output};
use lls_primitives::ProcessId;
use wirenet::{FaultConfig, WireConfig};

/// A TCP cluster of `n` processes at 1 ms ticks that records its output
/// history. With `loss` positive its sockets drop that share of the frames
/// and delay each by 100 to 900 µs.
pub(crate) fn wire_config(n: usize, loss: f64, seed: u64) -> WireConfig {
    WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        faults: (loss > 0.0).then_some(FaultConfig {
            loss,
            min_delay: StdDuration::from_micros(100),
            max_delay: StdDuration::from_micros(900),
            seed,
        }),
        record_outputs: true,
        ..WireConfig::default()
    }
}

/// The leader every one of `members` has named for 150 ms, if they do so
/// within 10 s; `leader` reads a process's view from its latest output.
pub(crate) fn stable_leader<C: Cluster>(
    cluster: &C,
    members: &[ProcessId],
    leader: impl Fn(&Output<C>) -> Option<ProcessId>,
) -> Option<ProcessId> {
    let (hold, timeout) = (StdDuration::from_millis(150), StdDuration::from_secs(10));
    await_stable_leader(cluster, members, leader, hold, timeout)
}

/// Every process of an `n`-process cluster.
pub(crate) fn all(n: usize) -> Vec<ProcessId> {
    (0..n as u32).map(ProcessId).collect()
}
