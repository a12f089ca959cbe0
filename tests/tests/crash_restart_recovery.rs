//! Property: an acceptor killed at an arbitrary point of a ballot storm and
//! restarted from its WAL never votes contrary to its pre-crash promises.
//!
//! The acceptor (a non-proposing `Consensus` instance, which runs the
//! replicated log) absorbs a random prefix of `Prepare`/`Accept` messages
//! for slot 0 with random ballots, crashes (dropped), and is rebuilt from
//! the same [`StorageHandle`]. Afterwards:
//!
//! 1. its promised ballot is at least the pre-crash one (monotone across
//!    the crash);
//! 2. any `Prepare`/`Accept` below the pre-crash promise is `Nack`ed —
//!    restarting must not re-open a closed ballot;
//! 3. a higher `Prepare` reveals exactly the highest-ballot value the
//!    acceptor had acknowledged with `Accepted` before the crash — an
//!    accepted value can survive or be superseded, never silently vanish.
//!
//! The second half covers the sharded node: killing a node that carries
//! *multiple* shard groups and restarting it must bring back **every**
//! attached group from its own WAL segment — file-backed, one segment per
//! group plus one for the shared Ω counter — with no bleed between
//! segments, and the restarted node must keep committing.

use std::collections::BTreeMap;
use std::path::PathBuf;

use consensus::shard::{
    PlacementManager, PlacementMap, ShardEvent, ShardId, ShardMsg, ShardRequest, ShardedNode,
};
use consensus::{Ballot, Consensus, ConsensusEvent, ConsensusParams, Entry, RsmMsg};
use lls_primitives::{Ctx, Effects, Env, Instant, ProcessId, Sm, StorageHandle};
use proptest::prelude::*;

type Msg = RsmMsg<u64>;

fn prepare(b: Ballot) -> Msg {
    Msg::Prepare { b, from_slot: 0 }
}

fn accept(b: Ballot, v: u64) -> Msg {
    Msg::Accept {
        b,
        slot: 0,
        entry: Entry::Cmd(v),
        commit: 0,
    }
}

/// One scripted stimulus for the acceptor.
#[derive(Debug, Clone)]
enum Stim {
    Prepare { b: Ballot },
    Accept { b: Ballot, v: u64 },
}

fn ballot() -> impl Strategy<Value = Ballot> {
    // Rounds stay small so collisions (equal and re-used ballots) are
    // frequent; leaders are the two peers of the 3-process system.
    (0u64..12, prop_oneof![Just(0u32), Just(2u32)])
        .prop_map(|(round, p)| Ballot::new(round, ProcessId(p)))
}

fn stim() -> impl Strategy<Value = Stim> {
    prop_oneof![
        ballot().prop_map(|b| Stim::Prepare { b }),
        (ballot(), 0u64..100).prop_map(|(b, v)| Stim::Accept { b, v }),
    ]
}

/// Delivers `msg` from `from` and returns the effects.
fn deliver(
    env: &Env,
    sm: &mut Consensus<u64>,
    fx: &mut Effects<Msg, ConsensusEvent<u64>>,
    from: ProcessId,
    msg: Msg,
) -> Effects<Msg, ConsensusEvent<u64>> {
    let mut ctx = Ctx::new(env, Instant::ZERO, fx);
    sm.on_message(&mut ctx, from, msg);
    fx.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restarted_acceptor_never_contradicts_its_past(
        script in proptest::collection::vec(stim(), 1..24),
        crash_at in any::<usize>(),
    ) {
        let n = 3;
        let me = ProcessId(1); // pure acceptor: proposes nothing
        let env = Env::new(me, n);
        let store = StorageHandle::in_memory();
        let params = ConsensusParams::default();
        let mut fx = Effects::new();

        let mut sm = Consensus::<u64>::with_storage(&env, params, None, store.clone())
            .expect("fresh in-memory store");
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();

        // Drive a random prefix of the script, tracking what the acceptor
        // acknowledged: the crash point hits anywhere in the storm.
        let cut = crash_at % (script.len() + 1);
        let mut acked: Option<(Ballot, u64)> = None;
        for s in &script[..cut] {
            match *s {
                Stim::Prepare { b } => {
                    deliver(&env, &mut sm, &mut fx, b.leader(), prepare(b));
                }
                Stim::Accept { b, v } => {
                    let out = deliver(&env, &mut sm, &mut fx, b.leader(), accept(b, v));
                    let accepted = out
                        .sends
                        .iter()
                        .any(|s| matches!(s.msg, Msg::Accepted { b: ab, .. } if ab == b));
                    if accepted && acked.as_ref().is_none_or(|(ab, _)| b >= *ab) {
                        acked = Some((b, v));
                    }
                }
            }
        }
        let promised_before = sm.promised();
        drop(sm); // crash

        let mut sm = Consensus::<u64>::with_storage(&env, params, None, store)
            .expect("recover from WAL");
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();

        // (1) The promise is monotone across the crash.
        prop_assert!(
            sm.promised() >= promised_before,
            "promise regressed over restart: {:?} -> {:?}",
            promised_before,
            sm.promised()
        );

        // (2) Ballots below the pre-crash promise stay closed.
        if promised_before > Ballot::ZERO && promised_before.round() > 0 {
            let low = Ballot::new(promised_before.round() - 1, ProcessId(0));
            let out = deliver(&env, &mut sm, &mut fx, ProcessId(0), prepare(low));
            prop_assert!(
                !out.sends.iter().any(|s| matches!(s.msg, Msg::Promise { .. })),
                "restarted acceptor re-promised a stale ballot {low:?}: {out:?}"
            );
            let out = deliver(&env, &mut sm, &mut fx, ProcessId(0), accept(low, 999));
            prop_assert!(
                !out.sends.iter().any(|s| matches!(s.msg, Msg::Accepted { .. })),
                "restarted acceptor voted for a stale ballot {low:?}: {out:?}"
            );
        }

        // (3) A higher Prepare reveals exactly the pre-crash accepted pair.
        let high = Ballot::new(1_000, ProcessId(0));
        let out = deliver(&env, &mut sm, &mut fx, ProcessId(0), prepare(high));
        let revealed = out.sends.iter().find_map(|s| match &s.msg {
            Msg::Promise { accepted, .. } => Some(accepted.clone()),
            _ => None,
        });
        let acked: Vec<(u64, Ballot, Entry<u64>)> =
            acked.into_iter().map(|(b, v)| (0, b, Entry::Cmd(v))).collect();
        prop_assert_eq!(
            revealed,
            Some(acked),
            "recovery lost or invented an accepted value"
        );
    }
}

// ---------------------------------------------------------------------------
// Sharded node: restart recovers every attached group from its own segment.
// ---------------------------------------------------------------------------

type ShardFx = Effects<ShardMsg<u64>, ShardEvent<u64>>;

/// Temp WAL segment files, removed on drop.
struct TempSegments {
    paths: Vec<PathBuf>,
}

impl TempSegments {
    fn new(tags: &[&str]) -> Self {
        let pid = std::process::id();
        TempSegments {
            paths: tags
                .iter()
                .map(|t| std::env::temp_dir().join(format!("lls-shard-restart-{pid}-{t}.wal")))
                .collect(),
        }
    }

    fn handle(&self, i: usize) -> StorageHandle {
        StorageHandle::file_wal(&self.paths[i]).expect("open WAL segment")
    }
}

impl Drop for TempSegments {
    fn drop(&mut self) {
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Minimal quorum driver for a two-shard node at p0 in a 3-replica system:
/// p1's replies (echoing whatever ballot p0 is using) are the quorum.
struct ShardDriver {
    env: Env,
    sm: ShardedNode<u64>,
    fx: ShardFx,
}

impl ShardDriver {
    fn start(&mut self) -> ShardFx {
        let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
        self.sm.on_start(&mut ctx);
        self.fx.take()
    }

    fn deliver(&mut self, msg: ShardMsg<u64>) -> ShardFx {
        let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
        self.sm.on_message(&mut ctx, ProcessId(1), msg);
        self.fx.take()
    }

    fn request(&mut self, shard: u32, cmd: u64) -> ShardFx {
        let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
        self.sm.on_request(
            &mut ctx,
            ShardRequest {
                shard: ShardId(shard),
                cmd,
            },
        );
        self.fx.take()
    }

    /// Extracts the ballot of `shard`'s outgoing Prepares and answers with
    /// one Promise from p1 — a quorum at p0.
    fn establish(&mut self, out: &ShardFx, shard: u32) {
        let b = out
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                ShardMsg::Rsm {
                    shard: sh,
                    msg: RsmMsg::Prepare { b, .. },
                } if sh.0 == shard => Some(*b),
                _ => None,
            })
            .unwrap_or_else(|| panic!("shard{shard} sent no Prepare: {:?}", out.sends));
        self.deliver(ShardMsg::Rsm {
            shard: ShardId(shard),
            msg: RsmMsg::Promise {
                b,
                accepted: vec![],
                low_slot: 0,
            },
        });
        assert!(
            self.sm
                .group(ShardId(shard))
                .expect("attached")
                .is_established_leader(),
            "shard{shard} must be led after a promise quorum"
        );
    }

    /// Issues `cmd` on `shard` and echoes p1's Accepted for the resulting
    /// Accept — committing one slot — and returns that slot.
    fn commit(&mut self, shard: u32, cmd: u64) -> u64 {
        let out = self.request(shard, cmd);
        let (b, slot) = out
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                ShardMsg::Rsm {
                    shard: sh,
                    msg: RsmMsg::Accept { b, slot, .. },
                } if sh.0 == shard => Some((*b, *slot)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("shard{shard} sent no Accept: {:?}", out.sends));
        let out = self.deliver(ShardMsg::Rsm {
            shard: ShardId(shard),
            msg: RsmMsg::Accepted { b, slot },
        });
        assert!(
            out.outputs.iter().any(|o| matches!(
                o,
                ShardEvent::Committed { shard: sh, slot: sl, .. }
                    if sh.0 == shard && *sl == slot
            )),
            "shard{shard} slot {slot} must commit on the quorum ack: {:?}",
            out.outputs
        );
        slot
    }
}

fn committed(sm: &ShardedNode<u64>, shard: u32) -> Vec<u64> {
    sm.group(ShardId(shard))
        .expect("attached")
        .committed_commands()
        .collect()
}

#[test]
fn restart_of_a_two_shard_node_recovers_both_groups_from_their_own_segments() {
    let segments = TempSegments::new(&["shard0", "shard1", "omega"]);
    let placement = PlacementManager::with_all_attached(PlacementMap::uniform(2, 3));
    let mut stores = BTreeMap::new();
    stores.insert(ShardId(0), segments.handle(0));
    stores.insert(ShardId(1), segments.handle(1));
    let params = ConsensusParams::default();
    let env = Env::new(ProcessId(0), 3);

    // Life before the crash: both groups led, asymmetric histories (two
    // commands in group 0, one in group 1).
    {
        let sm = ShardedNode::builder(&env, params, placement.clone())
            .storage(&stores, segments.handle(2))
            .build()
            .expect("fresh segments");
        let mut d = ShardDriver {
            env,
            sm,
            fx: Effects::new(),
        };
        let out = d.start();
        d.establish(&out, 0);
        d.establish(&out, 1);
        d.commit(0, 10);
        d.commit(0, 11);
        d.commit(1, 20);
        assert_eq!(committed(&d.sm, 0), vec![10, 11]);
        assert_eq!(committed(&d.sm, 1), vec![20]);
        // Crash: the whole node drops; only the files survive.
    }

    // Restart from the same file-backed segments (fresh handles, as a real
    // process restart would open them).
    let mut stores = BTreeMap::new();
    stores.insert(ShardId(0), segments.handle(0));
    stores.insert(ShardId(1), segments.handle(1));
    let sm = ShardedNode::builder(&env, params, placement)
        .storage(&stores, segments.handle(2))
        .build()
        .expect("recover every group from its own WAL segment");

    // Every attached group is back, each with exactly its own history.
    assert_eq!(
        committed(&sm, 0),
        vec![10, 11],
        "group 0 recovers its own segment"
    );
    assert_eq!(
        committed(&sm, 1),
        vec![20],
        "group 1 recovers its own segment, not group 0's"
    );
    assert_eq!(
        sm.omega().own_counter(),
        1,
        "the shared Ω rejoins one incarnation above its persisted counter"
    );

    // And the restarted node keeps working. Rejoining one incarnation up,
    // its shared Ω correctly defers to a lower-counter peer — the restart
    // demotes the node to follower in *every* group at once (no Prepares),
    // and both groups keep applying the new leader's decisions right after
    // their own recovered prefixes.
    let mut d = ShardDriver {
        env,
        sm,
        fx: Effects::new(),
    };
    let out = d.start();
    assert!(
        out.outputs
            .iter()
            .any(|o| matches!(o, ShardEvent::Leader(l) if *l != ProcessId(0))),
        "the restarted node must announce the deferred leader: {:?}",
        out.outputs
    );
    assert!(
        out.sends.iter().all(|s| !matches!(
            &s.msg,
            ShardMsg::Rsm {
                msg: RsmMsg::Prepare { .. },
                ..
            }
        )),
        "a follower reboot opens no ballots: {:?}",
        out.sends
    );
    for (shard, slot, cmd, expect) in [
        (0u32, 2u64, 12u64, vec![10, 11, 12]),
        (1, 1, 21, vec![20, 21]),
    ] {
        let out = d.deliver(ShardMsg::Rsm {
            shard: ShardId(shard),
            msg: RsmMsg::Decide {
                slot,
                entry: Entry::Cmd(cmd),
            },
        });
        assert!(
            out.outputs.iter().any(|o| matches!(
                o,
                ShardEvent::Committed { shard: sh, slot: sl, cmd: Some(c) }
                    if sh.0 == shard && *sl == slot && *c == cmd
            )),
            "shard{shard} must apply the new leader's decision: {:?}",
            out.outputs
        );
        assert_eq!(
            committed(&d.sm, shard),
            expect,
            "shard{shard} continues exactly after its recovered prefix"
        );
    }
}
