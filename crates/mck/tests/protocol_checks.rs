//! Model-checking the real protocols: safety invariants under *every*
//! message/timer/crash interleaving within the bounds (not just sampled
//! schedules). Single-shot consensus runs the replicated log, so its checks
//! exercise the log the replicated store runs. Bounds are chosen so each
//! check runs in seconds, except the ignored deep check; `complete` tells
//! us whether the bound was exhausted.

use consensus::{Consensus, ConsensusParams};
use lls_primitives::{Env, ProcessId};
use mck::{CheckConfig, CheckOutcome, ModelChecker, World};
use omega::{CommEffOmega, OmegaParams};

/// Each process proposes 100 + its id.
fn proposer(env: &Env) -> Consensus<u64> {
    Consensus::new(
        env,
        ConsensusParams::default(),
        Some(100 + env.id().0 as u64),
    )
}

fn consensus_agreement(world: &World<Consensus<u64>>) -> Result<(), String> {
    let decisions: Vec<&u64> = world.live_nodes().filter_map(|sm| sm.decision()).collect();
    if decisions.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err(format!("agreement violated: {decisions:?}"))
    }
}

fn consensus_validity(world: &World<Consensus<u64>>) -> Result<(), String> {
    // Values are 100 + id, so any decision must be in 100..100+n.
    for sm in world.live_nodes() {
        if let Some(&v) = sm.decision() {
            if !(100..200).contains(&v) {
                return Err(format!("validity violated: decided {v}"));
            }
        }
    }
    Ok(())
}

#[test]
fn consensus_agreement_exhaustive_n2() {
    // n=2 requires both processes for a quorum: every interleaving of a full
    // decision round fits comfortably in the bound.
    let outcome = ModelChecker::new(CheckConfig {
        n: 2,
        max_depth: 10,
        max_states: 300_000,
        max_crashes: 0,
    })
    .check(proposer, |w| {
        consensus_agreement(w).and_then(|_| consensus_validity(w))
    });
    match outcome {
        CheckOutcome::Ok { states, .. } => {
            assert!(states > 1_000, "suspiciously small space: {states}");
        }
        CheckOutcome::Violation { message, trace } => {
            panic!("consensus unsafe: {message}\ntrace:\n{}", trace.join("\n"))
        }
    }
}

#[test]
fn consensus_agreement_with_crashes_n3() {
    // Three processes, one crash allowed anywhere: agreement must survive
    // every placement of the crash relative to every message interleaving.
    let outcome = ModelChecker::new(CheckConfig {
        n: 3,
        max_depth: 8,
        max_states: 150_000,
        max_crashes: 1,
    })
    .check(proposer, consensus_agreement);
    match outcome {
        CheckOutcome::Ok { states, .. } => {
            assert!(
                states > 10_000,
                "space too small to be meaningful: {states}"
            );
        }
        CheckOutcome::Violation { message, trace } => {
            panic!(
                "consensus unsafe under crash: {message}\ntrace:\n{}",
                trace.join("\n")
            )
        }
    }
}

#[test]
#[ignore = "about 100 s in release and 4 min in debug: CI runs it with --release"]
fn consensus_agreement_deep_n3() {
    // Two dueling proposers need ten transitions at n = 3 to choose two
    // values when a proposer keeps leading a ballot below its own promise:
    // p0 prepares, promises p1's higher ballot, still completes its own
    // prepare, and each ballot then gathers a majority. The checks above
    // stop short of that depth.
    let outcome = ModelChecker::new(CheckConfig {
        n: 3,
        max_depth: 10,
        max_states: 1_000_000,
        max_crashes: 0,
    })
    .check(proposer, |w| {
        consensus_agreement(w).and_then(|_| consensus_validity(w))
    });
    match outcome {
        CheckOutcome::Ok { states, complete } => {
            eprintln!("n = 3, depth 10: {states} states, complete: {complete}");
            assert!(states > 100_000, "space too small: {states}");
        }
        CheckOutcome::Violation { message, trace } => {
            panic!("consensus unsafe: {message}\ntrace:\n{}", trace.join("\n"))
        }
    }
}

#[test]
fn omega_counter_provenance_invariant_n2() {
    // Invariant: nobody ever attributes to q a counter larger than q's own
    // (the authoritative counter originates at q and only grows there).
    let outcome = ModelChecker::new(CheckConfig {
        n: 2,
        max_depth: 12,
        max_states: 200_000,
        max_crashes: 0,
    })
    .check(
        |env| CommEffOmega::new(env, OmegaParams::default()),
        |world| {
            for q in 0..2u32 {
                let Some(origin) = world.node(ProcessId(q)) else {
                    continue;
                };
                let own = origin.own_counter();
                for sm in world.live_nodes() {
                    let seen = sm.table().auth(ProcessId(q));
                    if seen > own {
                        return Err(format!(
                            "p{q} is attributed counter {seen}, but owns only {own}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
    match outcome {
        CheckOutcome::Ok { states, .. } => {
            assert!(states > 500, "space too small: {states}");
        }
        CheckOutcome::Violation { message, trace } => {
            panic!(
                "omega invariant broken: {message}\ntrace:\n{}",
                trace.join("\n")
            )
        }
    }
}

#[test]
fn omega_self_leader_never_monitors_itself_n2() {
    // Structural invariant of the election: a process trusting itself must
    // not have an armed leader-check timer (it would debug-assert in the
    // timer handler). The checker reaching the handler without panicking is
    // itself the evidence; here we assert the stronger structural fact.
    let outcome = ModelChecker::new(CheckConfig {
        n: 2,
        max_depth: 10,
        max_states: 100_000,
        max_crashes: 1,
    })
    .check(
        |env| CommEffOmega::new(env, OmegaParams::default()),
        |world| {
            for sm in world.live_nodes() {
                // `is_leader` implies the machine cancelled its monitor; the
                // armed-set bookkeeping lives in the checker, so the proxy
                // here is that leader() is stable under its own table.
                let best = sm.table().best();
                if sm.is_leader() && best != sm.leader() {
                    return Err(format!(
                        "self-leader out of sync with its table: leader={} best={best}",
                        sm.leader()
                    ));
                }
            }
            Ok(())
        },
    );
    assert!(
        matches!(outcome, CheckOutcome::Ok { .. }),
        "unexpected: {outcome:?}"
    );
}
