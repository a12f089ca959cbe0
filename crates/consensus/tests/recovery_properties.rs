//! Properties of bounded recovery: compaction must be invisible to both
//! the state machine (replay equivalence) and the protocol (an acceptor's
//! promises survive crashes even when the log behind them was compacted).

use consensus::{Ballot, ConsensusParams, Entry, ReplicatedLog, RsmEvent, RsmMsg};
use lls_primitives::wire::Wire;
use lls_primitives::{Ctx, Effects, Env, Instant, ProcessId, Sm, SnapshotHandle, StorageHandle};
use proptest::prelude::*;

type Log = ReplicatedLog<u64>;
type Fx = Effects<RsmMsg<u64>, RsmEvent<u64>>;

fn b(round: u64, leader: u32) -> Ballot {
    Ballot::new(round, ProcessId(leader))
}

fn deliver(env: &Env, sm: &mut Log, from: u32, msg: RsmMsg<u64>) -> Fx {
    let mut fx = Effects::new();
    let mut ctx = Ctx::new(env, Instant::ZERO, &mut fx);
    sm.on_message(&mut ctx, ProcessId(from), msg);
    fx
}

fn decide(env: &Env, sm: &mut Log, slot: u64, value: u64) {
    deliver(
        env,
        sm,
        0,
        RsmMsg::Decide {
            slot,
            entry: Entry::Cmd(value),
        },
    );
}

/// The full materialized command sequence of a recovered log: the commands
/// summarized by its snapshot (we encode exactly the compacted prefix into
/// the snapshot body) followed by the replayed WAL tail.
fn materialized(sm: &Log) -> Vec<u64> {
    let mut all = match sm.recovered_snapshot() {
        Some(snap) => Vec::<u64>::from_bytes(&snap.data).expect("snapshot body decodes"),
        None => Vec::new(),
    };
    all.extend(sm.committed_commands_from(sm.watermark()));
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Replaying `snapshot + truncated WAL` equals replaying the full WAL,
    /// for arbitrary decide counts, compaction cadences, and kill points.
    /// The compacted replica's WAL never holds more live bytes than the
    /// uncompacted twin's.
    #[test]
    fn snapshot_plus_truncated_wal_equals_full_wal_replay(
        decides in 1u64..60,
        cadence in 1u64..12,
        kill_after in 0u64..60,
    ) {
        let env = Env::new(ProcessId(1), 3);
        let store_a = StorageHandle::in_memory();
        let snaps_a = SnapshotHandle::in_memory();
        let store_b = StorageHandle::in_memory();
        let kill = kill_after.min(decides);
        {
            let mut a: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
                .storage(store_a.clone())
                .snapshots(snaps_a.clone())
                .build()
                .unwrap();
            let mut full: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
                .storage(store_b.clone())
                .build()
                .unwrap();
            // The "application state": every command applied so far, in
            // order — what a real state machine materializes and what the
            // snapshot body must therefore summarize (the log itself no
            // longer holds commands below earlier watermarks).
            let mut applied: Vec<u64> = Vec::new();
            for slot in 0..kill {
                decide(&env, &mut a, slot, slot * 10 + 1);
                decide(&env, &mut full, slot, slot * 10 + 1);
                applied.push(slot * 10 + 1);
                if (slot + 1) % cadence == 0 {
                    let watermark = a.committed_len();
                    let body = applied[..watermark as usize].to_vec();
                    a.compact(watermark, body.to_bytes()).unwrap();
                }
            }
            // Crash both at the kill point (drop without further writes).
        }
        let a2: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(store_a)
            .snapshots(snaps_a)
            .build()
            .unwrap();
        let full2: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(store_b)
            .build()
            .unwrap();
        let from_full: Vec<u64> = full2.committed_commands().collect();
        prop_assert_eq!(materialized(&a2), from_full, "replay equivalence");
        prop_assert_eq!(a2.committed_len(), full2.committed_len());
        prop_assert!(
            a2.wal_stats().live_bytes <= full2.wal_stats().live_bytes,
            "compaction never inflates the WAL: {} > {}",
            a2.wal_stats().live_bytes,
            full2.wal_stats().live_bytes
        );
    }

    /// A restarted acceptor whose log tail was compacted still honours its
    /// pre-crash promise: stale Prepares win no Promise, stale Accepts are
    /// nacked, and the accepted suffix above the watermark is revealed to
    /// a genuinely higher ballot together with the compaction horizon.
    #[test]
    fn restarted_acceptor_honours_pre_crash_promises_with_compacted_tail(
        prefix in 1u64..20,
        promised_round in 2u64..10,
        stale_round in 1u64..10,
    ) {
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let snaps = SnapshotHandle::in_memory();
        let promised = b(promised_round, 0);
        {
            let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
                .storage(store.clone())
                .snapshots(snaps.clone())
                .build()
                .unwrap();
            for slot in 0..prefix {
                decide(&env, &mut sm, slot, slot);
            }
            deliver(&env, &mut sm, 0, RsmMsg::Prepare { b: promised, from_slot: 0 });
            // An accepted-but-undecided entry above the prefix, then compact.
            deliver(&env, &mut sm, 0, RsmMsg::Accept {
                b: promised, slot: prefix + 1, entry: Entry::Cmd(777), commit: 0,
            });
            sm.compact(prefix, vec![]).unwrap();
            // Crash.
        }
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(store)
            .snapshots(snaps)
            .build()
            .unwrap();
        prop_assert_eq!(sm.watermark(), prefix);

        let stale = b(stale_round, 2);
        if stale < promised {
            let fx = deliver(&env, &mut sm, 2, RsmMsg::Prepare { b: stale, from_slot: 0 });
            prop_assert!(
                !fx.sends.iter().any(|s| matches!(s.msg, RsmMsg::Promise { .. })),
                "a stale Prepare must not win a promise after recovery"
            );
            let fx = deliver(&env, &mut sm, 2, RsmMsg::Accept {
                b: stale, slot: prefix + 2, entry: Entry::Cmd(666), commit: 0,
            });
            prop_assert!(
                fx.sends.iter().any(|s| matches!(s.msg, RsmMsg::Nack { .. })),
                "a stale Accept must be nacked after recovery"
            );
            prop_assert_eq!(sm.chosen(prefix + 2), None);
        }

        // A genuinely higher ballot learns everything live: the compaction
        // horizon and the accepted suffix above it.
        let higher = b(promised_round + stale_round + 1, 2);
        let fx = deliver(&env, &mut sm, 2, RsmMsg::Prepare { b: higher, from_slot: 0 });
        let (low_slot, accepted) = fx.sends.iter().find_map(|s| match &s.msg {
            RsmMsg::Promise { low_slot, accepted, .. } => Some((*low_slot, accepted.clone())),
            _ => None,
        }).expect("higher ballot wins a promise");
        prop_assert_eq!(low_slot, prefix, "low_slot reports the watermark");
        prop_assert!(
            accepted.contains(&(prefix + 1, promised, Entry::Cmd(777))),
            "the pre-crash accepted suffix survives compaction + crash: {:?}",
            accepted
        );
    }
}
