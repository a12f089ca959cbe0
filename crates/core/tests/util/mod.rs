//! Shared helpers for the election integration tests.

use lls_primitives::{Env, Instant, ProcessId, Sm};
use netsim::{FaultPlan, SimBuilder, Simulator, Topology};
use omega::spec::LeaderRecord;

/// Builds `LeaderRecord`s from a simulator whose output type is `ProcessId`.
pub fn leader_trace<S>(sim: &Simulator<S>) -> Vec<LeaderRecord>
where
    S: Sm<Output = ProcessId>,
{
    sim.outputs()
        .iter()
        .map(|e| LeaderRecord {
            at: e.at,
            process: e.process,
            leader: e.output,
        })
        .collect()
}

/// Runs an Ω state machine on a topology with a fault plan and returns the
/// simulator after `horizon` ticks.
pub fn run_omega<S, F>(
    n: usize,
    seed: u64,
    topology: Topology,
    faults: FaultPlan,
    horizon: u64,
    make: F,
) -> Simulator<S>
where
    S: Sm<Output = ProcessId, Request = ()>,
    F: FnMut(&Env) -> S,
{
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(topology)
        .faults(faults)
        .build_with(make);
    sim.run_until(Instant::from_ticks(horizon));
    sim
}

/// Ids of processes that survive a fault plan.
#[allow(dead_code)] // used by some, not all, test binaries that include this module
pub fn correct_set(faults: &FaultPlan) -> Vec<ProcessId> {
    faults.correct().collect()
}
