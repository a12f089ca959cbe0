//! Client-side submit queue for the batched and sharded throughput paths.
//!
//! With pipelining and batching enabled in the log
//! ([`BatchParams`](consensus::BatchParams)), a client that fires one
//! command and waits for its reply leaves the whole pipeline idle. A
//! [`SubmitQueue`] is the client-side half of the throughput path: callers
//! [`submit`](SubmitQueue::submit) commands as fast as they are minted, the
//! queue releases up to a `window` of them per shard to the transport
//! ([`drain`](SubmitQueue::drain)) while the rest coalesce locally, and
//! every [`KvEvent::Applied`](crate::KvEvent) coming back — one per command,
//! even when the replica decided them as a single batched slot — is routed
//! to its originating command by `(client, seq)` tag
//! ([`settle`](SubmitQueue::settle)).
//!
//! Over a [`PlacementMap`] of `S` shard groups
//! ([`SubmitQueue::sharded`]), the queue routes each command by its key's
//! stable hash and keeps one window per shard, so the `S` pipelines fill
//! independently; the server side is
//! [`ShardedKvNode`](crate::ShardedKvNode), which routes by key itself.
//! [`SubmitQueue::new`] is the one-shard case. Exactly-once holds per
//! shard: a key always routes to the same shard, whose session table
//! deduplicates the command's `(client, seq)` tag.
//!
//! Like [`KvClient`](crate::KvClient), the queue is transport-agnostic: it
//! never sends anything itself. The caller delivers drained commands by
//! whatever means the deployment uses (`Simulator::schedule_request`,
//! `WireCluster::request`, a socket) and feeds replica events back in.
//! After a leader change or timeout, [`outstanding`](SubmitQueue::outstanding)
//! re-issues exact copies of everything released but unsettled — safe to
//! resubmit because the replicas' session tables suppress duplicates.
//!
//! # Example
//!
//! ```
//! use kvstore::{ClientId, KvClient, KvCmd, KvResponse, SubmitQueue};
//!
//! let mut client = KvClient::new(ClientId(1));
//! let mut queue = SubmitQueue::new(2); // at most 2 released at once
//! for i in 0..5 {
//!     queue.submit(client.issue(KvCmd::put(format!("k{i}"), "v")));
//! }
//! let burst = queue.drain(); // -> transport
//! assert_eq!(burst.len(), 2);
//! assert_eq!(queue.queued_len(), 3); // coalescing locally
//!
//! // A decided batch comes back as per-command Applied events:
//! let done = queue.settle(ClientId(1), 1, &KvResponse::Applied { previous: None });
//! assert!(done.is_some());
//! assert_eq!(queue.drain().len(), 1); // freed window refills
//! ```

use std::collections::{BTreeMap, VecDeque};

use consensus::shard::{PlacementMap, ShardId};
use lls_obs::{CmdId, CmdStage, NoopProbe, Probe, ProbeEvent};
use lls_primitives::{mix64, Instant, ProcessId};

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};

/// One command released to the transport and awaiting its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Settled {
    /// The originating command, returned to the caller on completion.
    pub cmd: Tagged<KvCmd>,
    /// The replica's application outcome.
    pub response: KvResponse,
}

/// A windowed client submit queue with per-command reply routing.
///
/// Commands enter via [`SubmitQueue::submit`], at most `window` of them per
/// shard are released to the transport by [`SubmitQueue::drain`], and each
/// decided command is matched back to its originator by
/// [`SubmitQueue::settle`] — even when many commands ride in one batched
/// slot.
#[derive(Debug, Clone)]
pub struct SubmitQueue<P: Probe = NoopProbe> {
    map: PlacementMap,
    window: usize,
    /// Per shard, the commands waiting for its window, oldest first.
    queued: Vec<VecDeque<Tagged<KvCmd>>>,
    /// Every released-but-unsettled command, with the shard it went to.
    released: BTreeMap<(ClientId, u64), (ShardId, Tagged<KvCmd>)>,
    /// Per shard, how much of its window the released commands hold.
    in_flight: Vec<usize>,
    retry_base: u64,
    retry_seed: u64,
    ticks: u64,
    attempt: u32,
    retry_at: Option<u64>,
    // Lifecycle instrumentation: the queue is where a command's latency
    // story starts (Enqueue, ShardRoute) and ends (Reply), so it stamps
    // those stages through the same probe plane the replicas feed.
    // `NoopProbe` (the default) compiles all of it away.
    probe: P,
    node: ProcessId,
    now: Instant,
}

impl SubmitQueue {
    /// Creates a one-shard queue that keeps at most `window` commands
    /// released to the transport at once (0 is treated as 1: a window that
    /// can never open would deadlock the session).
    pub fn new(window: usize) -> Self {
        SubmitQueue::sharded(PlacementMap::uniform(1, 1), window)
    }

    /// Creates a queue over `map` with a `window` of in-flight commands
    /// **per shard**.
    pub fn sharded(map: PlacementMap, window: usize) -> Self {
        SubmitQueue::with_probe(map, window, ProcessId(0), NoopProbe)
    }
}

impl<P: Probe> SubmitQueue<P> {
    /// Like [`SubmitQueue::sharded`], with a lifecycle probe: the queue
    /// emits [`CmdStage::Enqueue`] and [`CmdStage::ShardRoute`] (carrying
    /// the owning shard) when a command is submitted and
    /// [`CmdStage::Reply`] when its response settles, attributed to `node`
    /// (the process the client session is co-located with). Advance the
    /// event clock with [`SubmitQueue::set_now`].
    pub fn with_probe(map: PlacementMap, window: usize, node: ProcessId, probe: P) -> Self {
        let shards = map.shard_count() as usize;
        SubmitQueue {
            map,
            window: window.max(1),
            queued: vec![VecDeque::new(); shards],
            released: BTreeMap::new(),
            in_flight: vec![0; shards],
            retry_base: 0,
            retry_seed: 0,
            ticks: 0,
            attempt: 0,
            retry_at: None,
            probe,
            node,
            now: Instant::ZERO,
        }
    }

    /// Sets the timestamp stamped on subsequent lifecycle events (the
    /// queue is sans-io and has no clock of its own; the driving harness
    /// owns time).
    pub fn set_now(&mut self, now: Instant) {
        self.now = now;
    }

    fn emit_stage(&self, client: ClientId, seq: u64, stage: CmdStage, shard: ShardId) {
        if !P::ENABLED {
            return;
        }
        self.probe.emit(ProbeEvent::CmdLifecycle {
            node: self.node,
            at: self.now,
            cmd: CmdId {
                client: client.0,
                seq,
            },
            stage,
            shard: shard.0,
        });
    }

    /// Enables automatic re-submission of in-flight commands: after
    /// [`on_leader_change`](SubmitQueue::on_leader_change), each
    /// [`on_tick`](SubmitQueue::on_tick) past the scheduled deadline
    /// re-issues everything outstanding, with jittered exponential backoff
    /// between rounds (base delay `base_ticks`, doubling per attempt, plus
    /// a deterministic jitter derived from `seed` so concurrent clients
    /// don't retry in lockstep). `base_ticks == 0` disables (the default).
    pub fn set_retry_backoff(&mut self, base_ticks: u64, seed: u64) {
        self.retry_base = base_ticks;
        self.retry_seed = seed;
    }

    /// The jittered deadline for retry round `attempt`, measured from now.
    fn backoff(&self, attempt: u32) -> u64 {
        let delay = self.retry_base << attempt.min(6);
        let jitter = mix64(self.retry_seed ^ u64::from(attempt)) % (delay / 2 + 1);
        delay + jitter
    }

    /// Notes a leader change: every released-but-unsettled command is
    /// scheduled for re-submission after the base backoff (retries against
    /// a new leader are safe — replicas deduplicate by `(client, seq)`).
    /// A no-op unless [`set_retry_backoff`](SubmitQueue::set_retry_backoff)
    /// enabled retries; with nothing in flight, any pending schedule is
    /// cancelled.
    pub fn on_leader_change(&mut self) {
        if self.retry_base == 0 || self.released.is_empty() {
            self.retry_at = None;
            return;
        }
        self.attempt = 0;
        self.retry_at = Some(self.ticks + self.backoff(0));
    }

    /// Advances the retry clock by one tick. When a scheduled retry comes
    /// due with commands still in flight, returns exact copies of all of
    /// them (see [`outstanding`](SubmitQueue::outstanding)) for the caller
    /// to re-deliver, and schedules the next round with doubled (jittered)
    /// backoff. Returns an empty vector otherwise.
    pub fn on_tick(&mut self) -> Vec<Tagged<KvCmd>> {
        self.ticks += 1;
        let Some(due) = self.retry_at else {
            return Vec::new();
        };
        if self.ticks < due {
            return Vec::new();
        }
        if self.released.is_empty() {
            self.retry_at = None;
            return Vec::new();
        }
        self.attempt += 1;
        self.retry_at = Some(self.ticks + self.backoff(self.attempt));
        self.outstanding()
    }

    /// The retry round currently being waited out (0 before the first
    /// re-submission).
    pub fn retry_attempt(&self) -> u32 {
        self.attempt
    }

    /// Enqueues a minted command on the shard that owns its key. Nothing
    /// is sent; call [`SubmitQueue::drain`] to obtain the commands the
    /// windows admit.
    pub fn submit(&mut self, cmd: Tagged<KvCmd>) {
        let shard = self.map.shard_of_key(cmd.cmd.key());
        self.emit_stage(cmd.client, cmd.seq, CmdStage::Enqueue, shard);
        self.emit_stage(cmd.client, cmd.seq, CmdStage::ShardRoute, shard);
        self.queued[shard.0 as usize].push_back(cmd);
    }

    /// Releases queued commands up to each shard's free window and returns
    /// them, in shard order, for the caller to deliver. Commands stay
    /// tracked until [`settle`](SubmitQueue::settle)d, so replies can be
    /// routed and retries re-issued.
    pub fn drain(&mut self) -> Vec<Tagged<KvCmd>> {
        let mut out = Vec::new();
        for (i, queued) in self.queued.iter_mut().enumerate() {
            let free = self.window.saturating_sub(self.in_flight[i]);
            let take = queued.len().min(free);
            self.in_flight[i] += take;
            for cmd in queued.drain(..take) {
                let shard = ShardId(i as u32);
                self.released
                    .insert((cmd.client, cmd.seq), (shard, cmd.clone()));
                out.push(cmd);
            }
        }
        out
    }

    /// Routes one replica `Applied` event — one command out of a decided
    /// (possibly batched) slot — back to its originating command and
    /// reopens its shard's window. Returns the completed pair, or `None`
    /// if the tag matches nothing outstanding (another session's command,
    /// or a duplicate completion).
    pub fn settle(&mut self, client: ClientId, seq: u64, response: &KvResponse) -> Option<Settled> {
        let settled = self.released.remove(&(client, seq)).map(|(shard, cmd)| {
            self.in_flight[shard.0 as usize] -= 1;
            self.emit_stage(client, seq, CmdStage::Reply, shard);
            Settled {
                cmd,
                response: response.clone(),
            }
        });
        if self.released.is_empty() {
            // Everything in flight has landed: stand down the retry clock.
            self.retry_at = None;
            self.attempt = 0;
        }
        settled
    }

    /// Exact copies of every released-but-unsettled command, in shard
    /// order and oldest first within a shard — what a caller resubmits
    /// after a timeout or leader change. Safe to deliver repeatedly:
    /// replicas deduplicate by `(client, seq)`.
    pub fn outstanding(&self) -> Vec<Tagged<KvCmd>> {
        let mut out: Vec<&(ShardId, Tagged<KvCmd>)> = self.released.values().collect();
        out.sort_by_key(|(shard, _)| *shard);
        out.into_iter().map(|(_, cmd)| cmd.clone()).collect()
    }

    /// Commands waiting locally for a window to open.
    pub fn queued_len(&self) -> usize {
        self.queued.iter().map(VecDeque::len).sum()
    }

    /// Commands released to the transport and awaiting replies.
    pub fn released_len(&self) -> usize {
        self.released.len()
    }

    /// `true` once every submitted command has been settled.
    pub fn is_idle(&self) -> bool {
        self.queued.iter().all(VecDeque::is_empty) && self.released.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KvClient;

    fn queue_with(n: u64, window: usize) -> (KvClient, SubmitQueue) {
        let mut client = KvClient::new(ClientId(3));
        let mut q = SubmitQueue::new(window);
        for i in 0..n {
            q.submit(client.issue(KvCmd::put(format!("k{i}"), format!("v{i}"))));
        }
        (client, q)
    }

    #[test]
    fn drain_respects_the_window_and_coalesces_the_rest() {
        let (_, mut q) = queue_with(7, 3);
        assert_eq!(q.drain().len(), 3);
        assert_eq!(q.queued_len(), 4);
        assert_eq!(q.released_len(), 3);
        // The window is full: nothing more may leave.
        assert!(q.drain().is_empty());
    }

    #[test]
    fn settle_routes_replies_by_tag_and_reopens_the_window() {
        let (_, mut q) = queue_with(4, 2);
        let burst = q.drain();
        assert_eq!(burst.len(), 2);
        let done = q
            .settle(
                ClientId(3),
                burst[0].seq,
                &KvResponse::Applied { previous: None },
            )
            .expect("first command must settle");
        assert_eq!(done.cmd, burst[0]);
        // One slot freed: exactly one more command releases.
        assert_eq!(q.drain().len(), 1);
        // Unknown or duplicate tags settle nothing.
        assert!(q
            .settle(
                ClientId(3),
                burst[0].seq,
                &KvResponse::Applied { previous: None }
            )
            .is_none());
        assert!(q
            .settle(ClientId(9), 1, &KvResponse::Applied { previous: None })
            .is_none());
    }

    #[test]
    fn outstanding_reissues_unsettled_commands_for_retry() {
        let (_, mut q) = queue_with(3, 2);
        let burst = q.drain();
        q.settle(
            ClientId(3),
            burst[1].seq,
            &KvResponse::Applied { previous: None },
        );
        let retries = q.outstanding();
        assert_eq!(retries, vec![burst[0].clone()]);
    }

    #[test]
    fn session_completes_to_idle() {
        let (_, mut q) = queue_with(5, 2);
        let mut seen = Vec::new();
        while !q.is_idle() {
            for cmd in q.drain() {
                // Echo transport: every delivered command applies at once.
                let s = q
                    .settle(cmd.client, cmd.seq, &KvResponse::Applied { previous: None })
                    .unwrap();
                seen.push(s.cmd.seq);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5], "every command settles in order");
    }

    #[test]
    fn leader_change_schedules_jittered_exponential_resubmission() {
        let (_, mut q) = queue_with(2, 2);
        q.set_retry_backoff(8, 42);
        let burst = q.drain();
        assert_eq!(burst.len(), 2);
        q.on_leader_change();
        // Nothing fires before the (jittered) base deadline.
        let mut first_round = None;
        for tick in 1..=200u64 {
            let again = q.on_tick();
            if !again.is_empty() {
                assert_eq!(again, burst, "retries are exact copies, oldest first");
                first_round = Some(tick);
                break;
            }
        }
        let first = first_round.expect("a retry round must fire");
        assert!(first >= 8, "no retry before the base backoff");
        assert!(first <= 8 + 4, "jitter is bounded by half the delay");
        assert_eq!(q.retry_attempt(), 1);
        // The next round waits out a doubled (jittered) delay.
        let mut second_gap = 0u64;
        loop {
            second_gap += 1;
            if !q.on_tick().is_empty() {
                break;
            }
            assert!(second_gap < 200, "second round must fire");
        }
        assert!(second_gap >= 16, "backoff doubles per attempt");
        // Settling everything stands the retry clock down.
        for cmd in q.outstanding() {
            q.settle(cmd.client, cmd.seq, &KvResponse::Applied { previous: None });
        }
        assert_eq!(q.retry_attempt(), 0);
        for _ in 0..300 {
            assert!(q.on_tick().is_empty(), "no retries after full settlement");
        }
    }

    #[test]
    fn retries_are_disabled_by_default() {
        let (_, mut q) = queue_with(2, 2);
        q.drain();
        q.on_leader_change();
        for _ in 0..1000 {
            assert!(q.on_tick().is_empty());
        }
    }

    #[test]
    fn zero_window_is_promoted_to_one() {
        let (_, mut q) = queue_with(2, 0);
        assert_eq!(q.drain().len(), 1, "a zero window must not deadlock");
    }

    /// A key that `map` routes to `shard`.
    fn key_for(map: &PlacementMap, shard: u32) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| map.shard_of_key(k).0 == shard)
            .unwrap()
    }

    fn tag(seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(1),
            seq,
            cmd,
        }
    }

    #[test]
    fn submit_queue_fans_out_by_key_and_settles_per_shard() {
        let map = PlacementMap::uniform(2, 3);
        let mut q = SubmitQueue::sharded(map.clone(), 1); // window 1 per shard
        let k0 = key_for(&map, 0);
        let k1 = key_for(&map, 1);
        q.submit(tag(1, KvCmd::put(&k0, "a")));
        q.submit(tag(2, KvCmd::put(&k1, "b")));
        q.submit(tag(3, KvCmd::put(&k0, "c"))); // behind seq 1 on shard 0
        let burst = q.drain();
        // Both shards release concurrently despite the 1-wide window, in
        // shard order.
        assert_eq!(burst.len(), 2);
        assert_eq!(q.released_len(), 2);
        assert_eq!(q.queued_len(), 1);
        let shards: Vec<u32> = burst
            .iter()
            .map(|c| map.shard_of_key(c.cmd.key()).0)
            .collect();
        assert_eq!(shards, vec![0, 1]);
        // Settling shard 0's command reopens only shard 0's window.
        let done = q
            .settle(ClientId(1), 1, &KvResponse::Applied { previous: None })
            .expect("seq 1 settles");
        assert_eq!(done.cmd.seq, 1);
        let burst = q.drain();
        assert_eq!(burst.len(), 1);
        assert_eq!(map.shard_of_key(burst[0].cmd.key()), ShardId(0));
        assert_eq!(burst[0].seq, 3);
        // Unknown tags settle nothing.
        assert!(q
            .settle(ClientId(9), 1, &KvResponse::Applied { previous: None })
            .is_none());
    }
}
