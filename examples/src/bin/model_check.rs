//! Model-checking demo: exhaustively verify consensus agreement over every
//! message/timer interleaving of a small system, then watch the checker
//! catch a deliberately broken invariant with a counterexample trace.
//! Single-shot consensus runs the replicated log, so the trace shows the
//! log's own messages.
//!
//! Run with: `cargo run --release -p lls-examples --bin model_check`

use consensus::{Consensus, ConsensusParams};
use lls_primitives::Env;
use mck::{CheckConfig, CheckOutcome, ModelChecker};

/// Each process proposes 100 + its id.
fn proposer(env: &Env) -> Consensus<u64> {
    Consensus::new(
        env,
        ConsensusParams::default(),
        Some(100 + env.id().0 as u64),
    )
}

fn main() {
    println!("== exhaustive agreement check: 2 processes, depth 10 ==");
    let outcome = ModelChecker::new(CheckConfig {
        n: 2,
        max_depth: 10,
        max_states: 300_000,
        max_crashes: 0,
    })
    .check(proposer, |world| {
        let decisions: Vec<&u64> = world.live_nodes().filter_map(|sm| sm.decision()).collect();
        if decisions.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(format!("disagreement: {decisions:?}"))
        }
    });
    match &outcome {
        CheckOutcome::Ok { states, complete } => {
            println!("agreement holds across {states} states (complete: {complete})");
        }
        CheckOutcome::Violation { message, trace } => {
            println!("VIOLATION: {message}");
            for step in trace {
                println!("  {step}");
            }
        }
    }
    assert!(matches!(outcome, CheckOutcome::Ok { .. }));

    println!("\n== the checker has teeth: assert the impossible ==");
    // "Nobody ever decides" is false; the checker must produce the shortest
    // path it finds to a decision as a counterexample.
    let outcome = ModelChecker::new(CheckConfig {
        n: 2,
        max_depth: 10,
        max_states: 300_000,
        max_crashes: 0,
    })
    .check(proposer, |world| {
        if world.live_nodes().any(|sm| sm.decision().is_some()) {
            Err("someone decided (as they should!)".to_owned())
        } else {
            Ok(())
        }
    });
    match outcome {
        CheckOutcome::Violation { message, trace } => {
            println!("counterexample found ({message}):");
            for step in &trace {
                println!("  {step}");
            }
            println!("({} steps to the first decision)", trace.len());
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
}
