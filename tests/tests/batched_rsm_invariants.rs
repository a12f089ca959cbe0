//! Property: batching and pipelining preserve the replicated log's
//! invariants for *arbitrary* knob settings.
//!
//! Two properties, mirroring the two halves of the throughput path:
//!
//! 1. **Gap-free identical decided sequence.** For any `(max_batch,
//!    pipeline_depth)` and any request schedule, every replica commits
//!    the same slot sequence with no gaps, the per-command unfold order
//!    equals the submission order, and all replicas agree on the exact
//!    entry (batch boundaries included) of every chosen slot.
//! 2. **Crash–restart mid-pipeline never contradicts a decided batch.**
//!    A batching leader crashed at an arbitrary point of a random
//!    request/ack storm and rebuilt from its WAL still reports every
//!    pre-crash chosen slot with the identical entry — a decided batch
//!    can never change shape or content across a restart (the group
//!    commit's prefix-durability guarantee is strong enough).

use std::collections::BTreeMap;

use consensus::{Ballot, BatchParams, ConsensusParams, ReplicatedLog, RsmEvent, RsmMsg};
use lls_primitives::{Ctx, Duration, Effects, Env, Instant, ProcessId, Sm, StorageHandle};
use netsim::{SimBuilder, Topology};
use proptest::prelude::*;

fn params_with(max_batch: usize, pipeline_depth: usize) -> ConsensusParams {
    ConsensusParams {
        batch: BatchParams {
            max_batch,
            pipeline_depth,
        },
        ..ConsensusParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decided_sequence_is_gap_free_and_identical_for_any_knobs(
        max_batch in 1usize..=33,
        depth in 1usize..=12,
        seed in 0u64..1_000,
        commands in 1u64..=48,
        per_tick in 1u64..=4,
    ) {
        let n = 3;
        let params = params_with(max_batch, depth);
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .topology(Topology::all_timely(n, Duration::from_ticks(2)))
            .build_with(|env| ReplicatedLog::<u64>::new(env, params));
        sim.run_until(Instant::from_ticks(2_000));
        let leader = sim.node(ProcessId(0)).omega().leader();
        for i in 0..commands {
            sim.schedule_request(Instant::from_ticks(2_001 + i / per_tick), leader, i);
        }
        sim.run_until(Instant::from_ticks(2_000 + commands * 16 + 10_000));

        let mut streams: Vec<Vec<(u64, Option<u64>)>> = vec![Vec::new(); n];
        for ev in sim.outputs() {
            if let RsmEvent::Committed { slot, cmd } = ev.output {
                streams[ev.process.as_usize()].push((slot, cmd));
            }
        }
        for (p, stream) in streams.iter().enumerate() {
            // Slots are emitted in order with no gaps, starting at 0
            // (several consecutive events share a slot when it was a batch).
            prop_assert_eq!(
                stream.first().map(|e| e.0), Some(0),
                "replica {} must start committing at slot 0", p
            );
            for w in stream.windows(2) {
                prop_assert!(
                    w[1].0 == w[0].0 || w[1].0 == w[0].0 + 1,
                    "replica {} committed slot {} right after slot {}: gap or reorder",
                    p, w[1].0, w[0].0
                );
            }
            // The per-command unfold order is exactly the submission order.
            let cmds: Vec<u64> = stream.iter().filter_map(|e| e.1).collect();
            let expected: Vec<u64> = (0..commands).collect();
            prop_assert_eq!(
                cmds, expected,
                "replica {} commands diverge from submission order", p
            );
        }
        for p in 1..n {
            prop_assert_eq!(
                &streams[p], &streams[0],
                "replica {} decided a different sequence than replica 0", p
            );
        }
        // Entry-level agreement: batch boundaries are part of the decision.
        let reference = sim.node(ProcessId(0)).chosen_entries();
        for p in 1..n as u32 {
            prop_assert_eq!(
                sim.node(ProcessId(p)).chosen_entries(),
                reference.clone(),
                "replica {} disagrees on chosen entries", p
            );
        }
    }
}

/// One step of the leader-side storm: a client request, or a peer
/// acknowledging its oldest unacknowledged slot.
#[derive(Debug, Clone)]
enum Step {
    Request(u64),
    AckFrom(u32),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..1_000).prop_map(Step::Request),
        prop_oneof![Just(1u32), Just(2u32)].prop_map(Step::AckFrom),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crash_restart_mid_pipeline_never_contradicts_a_decided_batch(
        max_batch in 1usize..=16,
        depth in 1usize..=8,
        script in proptest::collection::vec(step(), 1..40),
        crash_at in any::<usize>(),
    ) {
        let env = Env::new(ProcessId(0), 3);
        let store = StorageHandle::in_memory();
        let params = params_with(max_batch, depth);
        let mut fx = Effects::new();

        let mut sm = ReplicatedLog::<u64>::builder(&env, params).storage(store.clone()).build()
            .expect("fresh in-memory store");
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        // Establish leadership: one peer's promise completes the quorum.
        sm.on_message(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            ProcessId(1),
            RsmMsg::Promise {
                b: Ballot::new(1, ProcessId(0)),
                accepted: vec![],
                low_slot: 0,
            },
        );
        fx.take();
        prop_assert!(sm.is_established_leader());

        // Drive a random prefix of the storm: requests pump batches into
        // the pipeline, acks choose slots (quorum of 2 with the self-ack).
        let cut = crash_at % (script.len() + 1);
        let mut next_ack: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &script[..cut] {
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            match *s {
                Step::Request(v) => sm.on_request(&mut ctx, v),
                Step::AckFrom(peer) => {
                    let slot = next_ack.entry(peer).or_insert(0);
                    sm.on_message(
                        &mut ctx,
                        ProcessId(peer),
                        RsmMsg::Accepted {
                            b: Ballot::new(1, ProcessId(0)),
                            slot: *slot,
                        },
                    );
                    *slot += 1;
                }
            }
            fx.take();
        }
        let chosen_before = sm.chosen_entries();
        drop(sm); // crash mid-pipeline

        let sm = ReplicatedLog::<u64>::builder(&env, params).storage(store).build()
            .expect("recover from WAL");
        let chosen_after = sm.chosen_entries();
        for (slot, entry) in &chosen_before {
            prop_assert_eq!(
                chosen_after.get(slot),
                Some(entry),
                "decided slot {} changed across the restart", slot
            );
        }
    }
}
