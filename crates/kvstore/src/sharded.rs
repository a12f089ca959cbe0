//! The client side of the sharded key-value store: a key-routed submit
//! queue over S independent replicated logs.
//!
//! [`ShardedSubmitQueue`] routes commands to their shard by the placement
//! map's stable key hash, gives each shard its own [`SubmitQueue`] window
//! (per-shard pipelines fill independently), and settles replies against
//! the shard that owns the key. The server side is
//! [`ShardedKvNode`](crate::ShardedKvNode).
//!
//! Exactly-once semantics are preserved per shard: a client's `(client,
//! seq)` tags are deduplicated by the session table of the shard that
//! applies them, and a key always routes to the same shard, so a retry can
//! never double-apply on a different group.

use std::collections::BTreeMap;

use lls_obs::{NoopProbe, Probe};
use lls_primitives::{Instant, ProcessId};

use consensus::shard::{PlacementMap, ShardId};

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};
use crate::submit::{Settled, SubmitQueue};

/// Client-side fan-out: one windowed [`SubmitQueue`] per shard, fed by the
/// placement map's key router.
///
/// The caller submits plain tagged commands; the queue decides which shard
/// owns each key, releases up to a per-shard window concurrently (the whole
/// point of sharding: S pipelines fill in parallel), and routes every reply
/// back to the queue of the shard that owns it.
#[derive(Debug, Clone)]
pub struct ShardedSubmitQueue<P: Probe = NoopProbe> {
    map: PlacementMap,
    queues: BTreeMap<ShardId, SubmitQueue<P>>,
    routes: BTreeMap<(ClientId, u64), ShardId>,
}

impl ShardedSubmitQueue {
    /// Creates a queue over `map` with a `window` of in-flight commands
    /// **per shard**.
    pub fn new(map: PlacementMap, window: usize) -> Self {
        ShardedSubmitQueue::with_probe(map, window, ProcessId(0), NoopProbe)
    }
}

impl<P: Probe> ShardedSubmitQueue<P> {
    /// Like [`ShardedSubmitQueue::new`], with a lifecycle probe shared by
    /// every per-shard queue: each submitted command is stamped
    /// `Enqueue` → `ShardRoute` (carrying the owning shard id — the only
    /// place the key→shard decision is visible) and `Reply` on settlement.
    pub fn with_probe(map: PlacementMap, window: usize, node: ProcessId, probe: P) -> Self {
        let queues = map
            .shard_ids()
            .map(|shard| (shard, SubmitQueue::with_probe(window, node, probe.clone())))
            .collect();
        ShardedSubmitQueue {
            map,
            queues,
            routes: BTreeMap::new(),
        }
    }

    /// Sets the timestamp stamped on subsequent lifecycle events, on every
    /// per-shard queue (see [`SubmitQueue::set_now`]).
    pub fn set_now(&mut self, now: Instant) {
        for q in self.queues.values_mut() {
            q.set_now(now);
        }
    }

    /// The shard that owns `cmd`'s key.
    pub fn shard_of(&self, cmd: &Tagged<KvCmd>) -> ShardId {
        self.map.shard_of_key(cmd.cmd.key())
    }

    /// Enqueues a minted command on the queue of the shard owning its key.
    pub fn submit(&mut self, cmd: Tagged<KvCmd>) {
        let shard = self.shard_of(&cmd);
        let (client, seq) = (cmd.client, cmd.seq);
        self.routes.insert((client, seq), shard);
        let q = self
            .queues
            .get_mut(&shard)
            .expect("router is total over the map's shards");
        q.submit(cmd);
        q.note_route(client, seq, shard.0);
    }

    /// Releases queued commands up to each shard's free window and returns
    /// them per shard, for the caller to deliver to that shard's group.
    pub fn drain(&mut self) -> Vec<(ShardId, Vec<Tagged<KvCmd>>)> {
        self.queues
            .iter_mut()
            .filter_map(|(shard, q)| {
                let burst = q.drain();
                (!burst.is_empty()).then_some((*shard, burst))
            })
            .collect()
    }

    /// Routes one applied reply back to the shard that owns the command's
    /// key. Returns the completed pair, or `None` for unknown/duplicate
    /// tags.
    pub fn settle(&mut self, client: ClientId, seq: u64, response: &KvResponse) -> Option<Settled> {
        let shard = self.routes.get(&(client, seq)).copied()?;
        let settled = self.queues.get_mut(&shard)?.settle(client, seq, response);
        if settled.is_some() {
            self.routes.remove(&(client, seq));
        }
        settled
    }

    /// Enables automatic re-submission on every shard queue (see
    /// [`SubmitQueue::set_retry_backoff`]); each shard's jitter stream is
    /// decorrelated by folding the shard id into `seed`, so S queues
    /// recovering from the same leader change don't retry in lockstep.
    pub fn set_retry_backoff(&mut self, base_ticks: u64, seed: u64) {
        for (shard, q) in &mut self.queues {
            q.set_retry_backoff(base_ticks, seed ^ (u64::from(shard.0) << 32));
        }
    }

    /// Notes a leader change on every shard queue (see
    /// [`SubmitQueue::on_leader_change`]): all in-flight commands are
    /// scheduled for re-submission with jittered exponential backoff.
    pub fn on_leader_change(&mut self) {
        for q in self.queues.values_mut() {
            q.on_leader_change();
        }
    }

    /// Advances every shard queue's retry clock by one tick and returns
    /// the commands due for re-delivery, grouped per shard (see
    /// [`SubmitQueue::on_tick`]).
    pub fn on_tick(&mut self) -> Vec<(ShardId, Vec<Tagged<KvCmd>>)> {
        self.queues
            .iter_mut()
            .filter_map(|(shard, q)| {
                let again = q.on_tick();
                (!again.is_empty()).then_some((*shard, again))
            })
            .collect()
    }

    /// Exact copies of every released-but-unsettled command across all
    /// shards, for retry after a timeout or leader change.
    pub fn outstanding(&self) -> Vec<(ShardId, Vec<Tagged<KvCmd>>)> {
        self.queues
            .iter()
            .filter_map(|(shard, q)| {
                let out = q.outstanding();
                (!out.is_empty()).then_some((*shard, out))
            })
            .collect()
    }

    /// Commands waiting locally across all shard queues.
    pub fn queued_len(&self) -> usize {
        self.queues.values().map(SubmitQueue::queued_len).sum()
    }

    /// Commands released to the transport across all shard queues.
    pub fn released_len(&self) -> usize {
        self.queues.values().map(SubmitQueue::released_len).sum()
    }

    /// `true` once every submitted command on every shard has settled.
    pub fn is_idle(&self) -> bool {
        self.queues.values().all(SubmitQueue::is_idle)
    }

    /// The placement map this queue routes with.
    pub fn map(&self) -> &PlacementMap {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedKvEvent, ShardedKvNode};
    use consensus::shard::{PlacementManager, ShardMsg};
    use consensus::{Ballot, ConsensusParams, RsmMsg};
    use lls_primitives::{Ctx, Effects, Env, Sm};

    fn tag(seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(1),
            seq,
            cmd,
        }
    }

    /// A key that the 2-shard uniform map routes to each shard.
    fn key_for(map: &PlacementMap, shard: u32) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| map.shard_of_key(k).0 == shard)
            .unwrap()
    }

    #[test]
    fn submit_queue_fans_out_by_key_and_settles_per_shard() {
        let map = PlacementMap::uniform(2, 3);
        let mut q = ShardedSubmitQueue::new(map.clone(), 1); // window 1 per shard
        let k0 = key_for(&map, 0);
        let k1 = key_for(&map, 1);
        q.submit(tag(1, KvCmd::put(&k0, "a")));
        q.submit(tag(2, KvCmd::put(&k1, "b")));
        q.submit(tag(3, KvCmd::put(&k0, "c"))); // behind seq 1 on shard 0
        let burst = q.drain();
        // Both shards release concurrently despite the 1-wide window.
        assert_eq!(burst.len(), 2);
        assert_eq!(q.released_len(), 2);
        assert_eq!(q.queued_len(), 1);
        for (shard, cmds) in &burst {
            for cmd in cmds {
                assert_eq!(map.shard_of_key(cmd.cmd.key()), *shard);
            }
        }
        // Settling shard 0's command reopens only shard 0's window.
        let done = q
            .settle(ClientId(1), 1, &KvResponse::Applied { previous: None })
            .expect("seq 1 settles");
        assert_eq!(done.cmd.seq, 1);
        let burst = q.drain();
        assert_eq!(burst.len(), 1);
        assert_eq!(burst[0].0, ShardId(0));
        assert_eq!(burst[0].1[0].seq, 3);
        // Unknown tags settle nothing.
        assert!(q
            .settle(ClientId(9), 1, &KvResponse::Applied { previous: None })
            .is_none());
    }

    #[test]
    fn node_routes_requests_by_key_and_applies_per_shard() {
        let env = Env::new(ProcessId(0), 3);
        let map = PlacementMap::uniform(2, 3);
        let k0 = key_for(&map, 0);
        let k1 = key_for(&map, 1);
        let mut node = ShardedKvNode::new(
            &env,
            ConsensusParams::default(),
            PlacementManager::with_all_attached(map),
        );
        let mut fx: Effects<_, ShardedKvEvent> = Effects::new();
        node.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        // Establish p0's ballot in both groups (one promise = quorum at p0).
        for shard in [0u32, 1] {
            node.on_message(
                &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                ProcessId(1),
                ShardMsg::Rsm {
                    shard: ShardId(shard),
                    msg: RsmMsg::Promise {
                        b: Ballot::new(1, ProcessId(0)),
                        accepted: vec![],
                        low_slot: 0,
                    },
                },
            );
            fx.take();
        }
        // A put on each key: the node must route each to its own shard.
        node.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(1, KvCmd::put(&k0, "zero")),
        );
        let out = fx.take();
        assert!(
            out.sends.iter().all(|s| matches!(
                &s.msg,
                ShardMsg::Rsm {
                    shard: ShardId(0),
                    msg: RsmMsg::Accept { .. }
                }
            )),
            "key {k0} must route to shard0: {:?}",
            out.sends
        );
        node.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(2, KvCmd::put(&k1, "one")),
        );
        fx.take();
        // Ack both slots from p1: each shard commits *its own* slot 0.
        for shard in [0u32, 1] {
            node.on_message(
                &mut Ctx::new(&env, Instant::ZERO, &mut fx),
                ProcessId(1),
                ShardMsg::Rsm {
                    shard: ShardId(shard),
                    msg: RsmMsg::Accepted {
                        b: Ballot::new(1, ProcessId(0)),
                        slot: 0,
                    },
                },
            );
            let out = fx.take();
            assert!(
                out.outputs.iter().any(|o| matches!(
                    o,
                    ShardedKvEvent::Applied { shard: s, slot: 0, .. } if s.0 == shard
                )),
                "shard{shard} applies its slot 0: {:?}",
                out.outputs
            );
        }
        assert_eq!(node.state(ShardId(0)).unwrap().get(&k0), Some("zero"));
        assert_eq!(node.state(ShardId(1)).unwrap().get(&k1), Some("one"));
        assert_eq!(
            node.state(ShardId(0)).unwrap().len(),
            1,
            "shard stores are disjoint"
        );
    }
}
