//! The replica: one [`KvState`] per shard of a log plane, fed by its
//! committed commands, with a fast read path beside the log.
//!
//! One implementation serves both deployments. The *log plane* is what
//! orders commands: a [`ReplicatedLog`] with its embedded Ω is one group,
//! shard 0 ([`KvReplica`]); a [`ShardedNode`] is S groups under one shared
//! Ω ([`ShardedKvNode`]). The node routes each key to its shard, applies
//! each shard's commits to that shard's store, parks fast-path reads on
//! their shard's apply watermark, and compacts each shard on its own
//! cadence — so an unsharded replica is exactly the `S = 1` case.

use std::collections::BTreeMap;

use lls_obs::{CmdStage, NoopProbe, Probe, ProbeEvent, ReadMode};
use lls_primitives::wire::Wire;
use lls_primitives::{
    Ctx, Effects, Env, ProcessId, Sm, StorageError, StorageHandle, TimerCmd, TimerId,
};

use consensus::shard::{PlacementManager, ShardEvent, ShardId, ShardRequest, ShardedNode};
use consensus::{ConsensusParams, ReplicatedLog, RsmEvent};
use omega::CommEffOmega;

use crate::command::{ClientId, KvCmd, KvResponse, Tagged};
use crate::state::KvState;
use sealed::PlaneCtx;

/// One replicated group of tagged commands.
type Group<P> = ReplicatedLog<Tagged<KvCmd>, P>;

/// Observable events of a [`KvReplica`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvEvent {
    /// The underlying Ω detector changed its output.
    Leader(ProcessId),
    /// A command committed at `slot` and was applied (or suppressed as a
    /// duplicate) with the given response — or a fast-path read resolved.
    Applied {
        /// Log slot of the command. For fast-path reads (lease or
        /// read-index), which never enter the log, this is the serving
        /// replica's apply *watermark* — the slot the next committed
        /// write will occupy — not a unique log position. Correlate
        /// completions by `(client, seq)`, never by `slot` alone.
        slot: u64,
        /// Issuing client.
        client: ClientId,
        /// Client sequence number.
        seq: u64,
        /// The application outcome.
        response: KvResponse,
    },
    /// A peer's snapshot was installed by state transfer: the store now
    /// materializes every command below `watermark` without having seen
    /// the individual `Applied` events.
    SnapshotInstalled {
        /// First slot NOT covered by the installed snapshot.
        watermark: u64,
    },
}

/// Observable events of a [`ShardedKvNode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardedKvEvent {
    /// The node's shared Ω detector changed its output (one event per node,
    /// however many shards it hosts).
    Leader(ProcessId),
    /// A command committed in `shard` at `slot` and was applied (or
    /// suppressed as a duplicate) with the given response — or a
    /// fast-path read resolved against that shard.
    Applied {
        /// The shard group that decided the command.
        shard: ShardId,
        /// Log slot within that shard's sequence. For fast-path reads
        /// (lease or read-index), which never enter the log, this is the
        /// shard's apply *watermark* — the slot its next committed write
        /// will occupy — not a unique log position. Correlate
        /// completions by `(client, seq)`, never by `slot` alone.
        slot: u64,
        /// Issuing client.
        client: ClientId,
        /// Client sequence number.
        seq: u64,
        /// The application outcome.
        response: KvResponse,
    },
    /// A peer's snapshot of one shard was installed by state transfer:
    /// that shard's store now materializes every command below
    /// `watermark` without having seen the individual `Applied` events.
    SnapshotInstalled {
        /// The shard whose group installed the snapshot.
        shard: ShardId,
        /// First slot NOT covered by the installed snapshot.
        watermark: u64,
    },
}

mod sealed {
    use super::*;

    /// A step context of plane `L`.
    pub type PlaneCtx<'a, L> = Ctx<'a, <L as Sm>::Msg, <L as Sm>::Output>;

    /// What differs between the two log planes; everything else lives once
    /// in [`ReplicatedKv`]. The node works in the sharded plane's shapes
    /// ([`ShardEvent`] in, [`ShardedKvEvent`] out); the unsharded plane
    /// maps its own types onto them as shard 0.
    pub trait Plane: Sm + Clone + std::fmt::Debug {
        /// The probe threaded through the plane's groups.
        type Probe: Probe;
        /// The KV node's public event type.
        type Event: Clone + std::fmt::Debug + Send + 'static;
        /// The shard that owns `key`.
        fn shard_of(&self, key: &str) -> ShardId;
        /// Every locally attached group, in shard order.
        fn groups(&self) -> Vec<(ShardId, &Group<Self::Probe>)>;
        /// The group of `shard`, if attached.
        fn group(&self, shard: ShardId) -> Option<&Group<Self::Probe>>;
        /// The Ω detector that elects this node's leader.
        fn omega(&self) -> &CommEffOmega<Self::Probe>;
        /// Replicates `cmd` through `shard`'s log.
        fn submit(&mut self, ctx: &mut PlaneCtx<'_, Self>, shard: ShardId, cmd: Tagged<KvCmd>);
        /// Asks `shard`'s leaseholder for a read index tagged `token`.
        fn read_index(&mut self, ctx: &mut PlaneCtx<'_, Self>, shard: ShardId, token: u64);
        /// Snapshots `state` at `upto` and compacts `shard`'s WAL.
        fn compact(&mut self, shard: ShardId, upto: u64, state: Vec<u8>) -> Compacted;
        /// The plane's output in the node's internal shape.
        fn event(out: Self::Output) -> ShardEvent<Tagged<KvCmd>>;
        /// The node's internal output as its public event.
        fn output(ev: ShardedKvEvent) -> Self::Event;
    }

    /// What a compaction returns (see [`ReplicatedLog::compact`]).
    pub type Compacted = Result<bool, StorageError>;

    impl<P: Probe> Plane for Group<P> {
        type Probe = P;
        type Event = KvEvent;
        fn shard_of(&self, _key: &str) -> ShardId {
            ShardId(0)
        }
        fn groups(&self) -> Vec<(ShardId, &Self)> {
            vec![(ShardId(0), self)]
        }
        fn group(&self, shard: ShardId) -> Option<&Self> {
            (shard == ShardId(0)).then_some(self)
        }
        fn omega(&self) -> &CommEffOmega<P> {
            ReplicatedLog::omega(self)
        }
        fn submit(&mut self, ctx: &mut PlaneCtx<'_, Self>, _: ShardId, cmd: Tagged<KvCmd>) {
            self.on_request(ctx, cmd);
        }
        fn read_index(&mut self, ctx: &mut PlaneCtx<'_, Self>, _: ShardId, token: u64) {
            self.request_read_index(ctx, token);
        }
        fn compact(&mut self, _: ShardId, upto: u64, state: Vec<u8>) -> Compacted {
            ReplicatedLog::compact(self, upto, state)
        }
        fn event(out: RsmEvent<Tagged<KvCmd>>) -> ShardEvent<Tagged<KvCmd>> {
            let shard = ShardId(0);
            match out {
                RsmEvent::Leader(l) => ShardEvent::Leader(l),
                RsmEvent::Committed { slot, cmd } => ShardEvent::Committed { shard, slot, cmd },
                RsmEvent::SnapshotInstalled { watermark, state } => ShardEvent::SnapshotInstalled {
                    shard,
                    watermark,
                    state,
                },
                RsmEvent::ReadIndexAt { req, index } => {
                    ShardEvent::ReadIndexAt { shard, req, index }
                }
            }
        }
        fn output(ev: ShardedKvEvent) -> KvEvent {
            match ev {
                ShardedKvEvent::Leader(l) => KvEvent::Leader(l),
                ShardedKvEvent::Applied {
                    slot,
                    client,
                    seq,
                    response,
                    ..
                } => KvEvent::Applied {
                    slot,
                    client,
                    seq,
                    response,
                },
                ShardedKvEvent::SnapshotInstalled { watermark, .. } => {
                    KvEvent::SnapshotInstalled { watermark }
                }
            }
        }
    }

    impl<P: Probe> Plane for ShardedNode<Tagged<KvCmd>, P> {
        type Probe = P;
        type Event = ShardedKvEvent;
        fn shard_of(&self, key: &str) -> ShardId {
            self.placement().map().shard_of_key(key)
        }
        fn groups(&self) -> Vec<(ShardId, &Group<P>)> {
            ShardedNode::groups(self).collect()
        }
        fn group(&self, shard: ShardId) -> Option<&Group<P>> {
            ShardedNode::group(self, shard)
        }
        fn omega(&self) -> &CommEffOmega<P> {
            ShardedNode::omega(self)
        }
        fn submit(&mut self, ctx: &mut PlaneCtx<'_, Self>, shard: ShardId, cmd: Tagged<KvCmd>) {
            self.on_request(ctx, ShardRequest { shard, cmd });
        }
        fn read_index(&mut self, ctx: &mut PlaneCtx<'_, Self>, shard: ShardId, token: u64) {
            self.request_read_index(ctx, shard, token);
        }
        fn compact(&mut self, shard: ShardId, upto: u64, state: Vec<u8>) -> Compacted {
            self.compact_shard(shard, upto, state)
        }
        fn event(out: ShardEvent<Tagged<KvCmd>>) -> ShardEvent<Tagged<KvCmd>> {
            out
        }
        fn output(ev: ShardedKvEvent) -> ShardedKvEvent {
            ev
        }
    }
}

/// A log plane a [`ReplicatedKv`] runs over: a [`ReplicatedLog`] of tagged
/// commands (one group, shard 0, led by its embedded Ω) or a
/// [`ShardedNode`] of them (S groups under one shared Ω). Sealed: these
/// two are the only implementations.
pub trait LogPlane: sealed::Plane {}

impl<T: sealed::Plane> LogPlane for T {}

/// Per-shard application state.
#[derive(Debug, Clone, Default)]
struct Shard {
    state: KvState,
    /// Contiguous slots folded into `state` (no-op fillers included) — the
    /// apply watermark that read-index reads on this shard wait on.
    applied_upto: u64,
    applied_since_compact: u64,
}

/// A fast-path read parked on one shard: first for the leaseholder's
/// read-index answer, then (if the index is ahead of the shard's apply
/// watermark) for the apply loop to catch up.
#[derive(Debug, Clone)]
struct PendingRead {
    shard: ShardId,
    req: Tagged<KvCmd>,
    /// The decided watermark the read must wait for; `None` until the
    /// leaseholder's read-index answer arrives.
    index: Option<u64>,
}

/// A step context of a [`ReplicatedKv`] over plane `L`.
type KvCtx<'a, L> = Ctx<'a, <L as Sm>::Msg, <L as sealed::Plane>::Event>;

/// One node of the replicated key-value store: a [`LogPlane`] of tagged
/// commands plus one materialized [`KvState`] per locally attached shard,
/// applied in slot order (no-op filler slots are skipped silently).
///
/// Requests are plain tagged commands — the node routes each to the shard
/// owning its key, so callers need no shard awareness at all. Use it
/// through its two aliases, [`KvReplica`] and [`ShardedKvNode`]; see the
/// [crate example](crate).
#[derive(Debug, Clone)]
pub struct ReplicatedKv<L> {
    plane: L,
    shards: BTreeMap<ShardId, Shard>,
    compact_every: u64,
    /// Fast-path reads awaiting a read index and/or their shard's apply
    /// watermark, keyed by read token.
    reads: BTreeMap<u64, PendingRead>,
    next_read_token: u64,
}

/// One replica of the unsharded key-value store: a [`ReplicatedLog`] with
/// its embedded Ω, as shard 0 of a [`ReplicatedKv`].
pub type KvReplica<P = NoopProbe> = ReplicatedKv<ReplicatedLog<Tagged<KvCmd>, P>>;

/// One node of the sharded key-value store: a [`ShardedNode`] of tagged
/// commands, so disjoint keys commit and apply in parallel with no
/// cross-shard ordering (and no cross-shard transactions — by construction
/// a command touches exactly one key, hence one shard).
pub type ShardedKvNode<P = NoopProbe> = ReplicatedKv<ShardedNode<Tagged<KvCmd>, P>>;

impl KvReplica {
    /// Creates an in-memory replica.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn new(env: &Env, params: ConsensusParams) -> Self {
        ReplicatedKv::from_log(ReplicatedLog::new(env, params))
            .expect("a log without snapshots recovers no state")
    }

    /// Creates a replica that recovers its log from `storage` and rebuilds
    /// the store by replaying the recovered committed prefix.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn with_storage(
        env: &Env,
        params: ConsensusParams,
        storage: StorageHandle,
    ) -> Result<Self, StorageError> {
        ReplicatedLog::builder(env, params)
            .storage(storage)
            .build()
            .and_then(ReplicatedKv::from_log)
    }
}

impl ShardedKvNode {
    /// Creates an in-memory node hosting the shards attached in
    /// `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters inside `params` are invalid.
    pub fn new(env: &Env, params: ConsensusParams, placement: PlacementManager) -> Self {
        ReplicatedKv::from_log(ShardedNode::new(env, params, placement))
            .expect("a node without snapshots recovers no state")
    }
}

impl<P: Probe> KvReplica<P> {
    /// The materialized store.
    pub fn state(&self) -> &KvState {
        &self.shards[&ShardId(0)].state
    }

    /// Contiguous slots folded into the store (the local apply watermark).
    pub fn applied_upto(&self) -> u64 {
        self.shards[&ShardId(0)].applied_upto
    }

    /// The underlying replicated log (for instrumentation).
    pub fn log(&self) -> &ReplicatedLog<Tagged<KvCmd>, P> {
        &self.plane
    }

    /// Snapshots the store at the current committed prefix and compacts
    /// the WAL behind it (see [`ReplicatedKv::compact_shard_now`]).
    ///
    /// # Errors
    ///
    /// Propagates a WAL rewrite failure; the log is wedged first.
    pub fn compact_now(&mut self) -> Result<bool, StorageError> {
        self.compact_shard_now(ShardId(0))
    }
}

impl<P: Probe> ShardedKvNode<P> {
    /// The materialized store of `shard`, if attached.
    pub fn state(&self, shard: ShardId) -> Option<&KvState> {
        self.shards.get(&shard).map(|s| &s.state)
    }

    /// Contiguous slots folded into `shard`'s store (its apply watermark).
    pub fn applied_upto(&self, shard: ShardId) -> u64 {
        self.shards.get(&shard).map_or(0, |s| s.applied_upto)
    }

    /// The underlying sharded consensus node (for instrumentation).
    pub fn node(&self) -> &ShardedNode<Tagged<KvCmd>, P> {
        &self.plane
    }

    /// The placement manager (map + local attachments).
    pub fn placement(&self) -> &PlacementManager {
        self.plane.placement()
    }
}

impl<L: LogPlane> ReplicatedKv<L> {
    /// Wraps a built (possibly recovered) log plane. Each shard's store is
    /// seeded from its group's recovered snapshot, if any, and then
    /// replays the committed prefix above the snapshot watermark.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Decode`] if a recovered snapshot does not
    /// decode as a [`KvState`].
    pub fn from_log(plane: L) -> Result<Self, StorageError> {
        let mut shards = BTreeMap::new();
        for (shard, group) in plane.groups() {
            // Seed from the snapshot *before* replaying the tail above its
            // watermark — the reverse order would clobber the replayed
            // suffix with the (older) snapshot state.
            let mut state = match group.recovered_snapshot() {
                Some(snap) => KvState::from_bytes(&snap.data).map_err(StorageError::Decode)?,
                None => KvState::new(),
            };
            for cmd in group.committed_commands_from(group.watermark()) {
                state.apply(&cmd);
            }
            let applied_upto = group.committed_len();
            shards.insert(
                shard,
                Shard {
                    state,
                    applied_upto,
                    applied_since_compact: 0,
                },
            );
        }
        Ok(ReplicatedKv {
            plane,
            shards,
            compact_every: 0,
            reads: BTreeMap::new(),
            next_read_token: 0,
        })
    }

    /// Enables automatic compaction: a shard that applies `every` commands
    /// since its last snapshot is snapshotted at its committed prefix and
    /// its WAL rewritten to live records only. 0 disables (the default). A
    /// no-op for shards without a snapshot store.
    pub fn set_compact_every(&mut self, every: u64) {
        self.compact_every = every;
    }

    /// Snapshots `shard`'s store at its committed prefix and compacts its
    /// WAL. Returns `Ok(false)` when the shard is not attached or its
    /// group declined (no snapshot store, watermark not advancing,
    /// wedged).
    ///
    /// # Errors
    ///
    /// Propagates a WAL rewrite failure; the group is wedged first.
    pub fn compact_shard_now(&mut self, shard: ShardId) -> Result<bool, StorageError> {
        let (Some(s), Some(group)) = (self.shards.get(&shard), self.plane.group(shard)) else {
            return Ok(false);
        };
        let (upto, bytes) = (group.committed_len(), s.state.to_bytes());
        self.plane.compact(shard, upto, bytes)
    }

    /// The Ω detector electing this node's leader (for leader discovery).
    pub fn omega(&self) -> &CommEffOmega<L::Probe> {
        self.plane.omega()
    }

    /// Fast-path reads still waiting on a read index or an apply loop,
    /// across all shards.
    pub fn pending_reads(&self) -> usize {
        self.reads.len()
    }

    fn applied(&self, shard: ShardId) -> u64 {
        self.shards.get(&shard).map_or(0, |s| s.applied_upto)
    }

    /// Answers one read from `shard`'s materialized store and stamps it on
    /// the probe plane — the single exit point of every fast-path read.
    fn serve_read(
        &self,
        ctx: &mut KvCtx<'_, L>,
        shard: ShardId,
        req: &Tagged<KvCmd>,
        mode: ReadMode,
    ) {
        let response = self
            .shards
            .get(&shard)
            .map_or(KvResponse::Value { value: None }, |s| {
                s.state.read(req.cmd.key())
            });
        let watermark = self.applied(shard);
        if <L::Probe as Probe>::ENABLED {
            if let Some(group) = self.plane.group(shard) {
                group.probe().emit(ProbeEvent::ReadServed {
                    node: ctx.id(),
                    at: ctx.now(),
                    shard: shard.0,
                    mode,
                    watermark,
                });
            }
        }
        ctx.output(L::output(ShardedKvEvent::Applied {
            shard,
            slot: watermark,
            client: req.client,
            seq: req.seq,
            response,
        }));
    }

    /// Serves every parked read whose resolved index its shard's apply
    /// watermark has reached.
    fn serve_ready_reads(&mut self, ctx: &mut KvCtx<'_, L>) {
        let ready: Vec<u64> = self
            .reads
            .iter()
            .filter(|(_, r)| r.index.is_some_and(|i| i <= self.applied(r.shard)))
            .map(|(t, _)| *t)
            .collect();
        for token in ready {
            let read = self.reads.remove(&token).expect("token just listed");
            self.serve_read(ctx, read.shard, &read.req, ReadMode::ReadIndex);
        }
    }

    /// The fast read path, per shard group: the group's leaseholder answers
    /// immediately from the local store; a follower runs a read-index round
    /// against the believed leader; a leader *without* an active lease
    /// falls back to replicating the read through the group's log (safe,
    /// merely slow). Reads served here never enter the log.
    fn on_read(&mut self, ctx: &mut KvCtx<'_, L>, shard: ShardId, req: Tagged<KvCmd>) {
        let group = self.plane.group(shard);
        if group.is_some_and(|g| g.lease_read_allowed(ctx.now())) {
            self.serve_read(ctx, shard, &req, ReadMode::Lease);
            return;
        }
        if group.is_some_and(|g| g.is_established_leader()) {
            // Leading but the lease has not (re-)activated: the log path is
            // the only linearizable option left.
            self.drive(ctx, |plane, ictx| plane.submit(ictx, shard, req));
            return;
        }
        // A retry replaces the client's own parked read: under a stable
        // leader the leader-change purge never fires, so tokens of rounds
        // whose ReadIndex (or its reply) was dropped would otherwise
        // accumulate forever, one per retry.
        self.reads
            .retain(|_, r| r.req.client != req.client || r.req.seq != req.seq);
        let token = self.next_read_token;
        self.next_read_token += 1;
        let index = None;
        self.reads.insert(token, PendingRead { shard, req, index });
        self.drive(ctx, |plane, ictx| plane.read_index(ictx, shard, token));
    }

    /// Translates the plane's events into applied KV events, feeding each
    /// committed command to the store of the shard that decided it.
    fn translate(&mut self, ctx: &mut KvCtx<'_, L>, events: Vec<L::Output>) {
        for ev in events {
            match L::event(ev) {
                ShardEvent::Leader(l) => {
                    // A forwarded read-index request may have raced the old
                    // leader's fall; the client's retry cadence re-issues.
                    self.reads.retain(|_, r| r.index.is_some());
                    ctx.output(L::output(ShardedKvEvent::Leader(l)));
                }
                ShardEvent::Committed { shard, slot, cmd } => {
                    let entry = self.shards.entry(shard).or_default();
                    entry.applied_upto = entry.applied_upto.max(slot + 1);
                    let Some(tagged) = cmd else {
                        continue;
                    };
                    let response = entry.state.apply(&tagged);
                    entry.applied_since_compact += 1;
                    let watermark = entry.applied_upto;
                    if <L::Probe as Probe>::ENABLED {
                        if let Some(group) = self.plane.group(shard) {
                            group.probe().emit(ProbeEvent::CmdLifecycle {
                                node: ctx.id(),
                                at: ctx.now(),
                                cmd: lls_obs::CmdId {
                                    client: tagged.client.0,
                                    seq: tagged.seq,
                                },
                                stage: CmdStage::Apply,
                                shard: shard.0,
                            });
                            if tagged.cmd.is_read() {
                                // A read that went through the log: the
                                // slow baseline the lease path replaces.
                                group.probe().emit(ProbeEvent::ReadServed {
                                    node: ctx.id(),
                                    at: ctx.now(),
                                    shard: shard.0,
                                    mode: ReadMode::Log,
                                    watermark,
                                });
                            }
                        }
                    }
                    ctx.output(L::output(ShardedKvEvent::Applied {
                        shard,
                        slot,
                        client: tagged.client,
                        seq: tagged.seq,
                        response,
                    }));
                }
                ShardEvent::SnapshotInstalled {
                    shard,
                    watermark,
                    state,
                } => {
                    // The chunk and total CRCs were verified by the log, so
                    // a decode failure means a sender at an incompatible
                    // version; keeping the old (now unsound) state would
                    // silently diverge, so wedge application instead.
                    let entry = self.shards.entry(shard).or_default();
                    entry.state = KvState::from_bytes(&state)
                        .expect("installed snapshot must decode as a KvState");
                    entry.applied_since_compact = 0;
                    entry.applied_upto = entry.applied_upto.max(watermark);
                    ctx.output(L::output(ShardedKvEvent::SnapshotInstalled {
                        shard,
                        watermark,
                    }));
                }
                ShardEvent::ReadIndexAt { req, index, .. } => {
                    if let Some(read) = self.reads.get_mut(&req) {
                        read.index = Some(index);
                    }
                }
            }
        }
        self.serve_ready_reads(ctx);
        if self.compact_every > 0 {
            let every = self.compact_every;
            let due: Vec<ShardId> = self
                .shards
                .iter_mut()
                .filter(|(_, s)| s.applied_since_compact >= every)
                .map(|(id, s)| {
                    s.applied_since_compact = 0;
                    *id
                })
                .collect();
            for shard in due {
                // On failure the group wedges itself (and refuses further
                // mutation); nothing for the node to unwind.
                let _ = self.compact_shard_now(shard);
            }
        }
    }

    /// Runs one step of the plane and applies its outputs.
    fn drive(&mut self, ctx: &mut KvCtx<'_, L>, step: impl FnOnce(&mut L, &mut PlaneCtx<'_, L>)) {
        let env = Env::new(ctx.id(), ctx.n());
        let mut fx = Effects::new();
        {
            let mut ictx = Ctx::new(&env, ctx.now(), &mut fx);
            step(&mut self.plane, &mut ictx);
        }
        for s in fx.sends {
            ctx.send(s.to, s.msg);
        }
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => ctx.set_timer(timer, after),
                TimerCmd::Cancel { timer } => ctx.cancel_timer(timer),
            }
        }
        self.translate(ctx, fx.outputs);
    }
}

impl<L: LogPlane> Sm for ReplicatedKv<L> {
    type Msg = L::Msg;
    type Output = L::Event;
    /// A plain tagged command: the node routes it to the shard owning its
    /// key, so clients stay shard-oblivious.
    type Request = Tagged<KvCmd>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.drive(ctx, |plane, ictx| plane.on_start(ictx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.drive(ctx, |plane, ictx| plane.on_message(ictx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.drive(ctx, |plane, ictx| plane.on_timer(ictx, timer));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        let shard = self.plane.shard_of(req.cmd.key());
        if req.cmd.is_read() && self.plane.group(shard).is_some_and(|g| g.lease_enabled()) {
            self.on_read(ctx, shard, req);
            return;
        }
        self.drive(ctx, |plane, ictx| plane.submit(ictx, shard, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus::shard::{PlacementMap, ShardMsg};
    use consensus::{Ballot, Entry, LeaseParams, RsmMsg};
    use lls_primitives::{Instant, SnapshotHandle};

    fn tag(seq: u64, cmd: KvCmd) -> Tagged<KvCmd> {
        Tagged {
            client: ClientId(1),
            seq,
            cmd,
        }
    }

    fn lease_params() -> ConsensusParams {
        ConsensusParams {
            lease: LeaseParams::enabled(),
            ..ConsensusParams::default()
        }
    }

    /// One WAL and one snapshot store per shard, plus the shared Ω's
    /// segment (unused by the unsharded plane, whose Ω persists in its
    /// log's WAL).
    struct Stores {
        wals: BTreeMap<ShardId, StorageHandle>,
        snaps: BTreeMap<ShardId, SnapshotHandle>,
        omega: StorageHandle,
    }

    impl Stores {
        fn in_memory(shards: u32) -> Self {
            Stores {
                wals: (0..shards)
                    .map(|s| (ShardId(s), StorageHandle::in_memory()))
                    .collect(),
                snaps: (0..shards)
                    .map(|s| (ShardId(s), SnapshotHandle::in_memory()))
                    .collect(),
                omega: StorageHandle::in_memory(),
            }
        }
    }

    /// The two planes the shared test bodies below run on.
    trait TestPlane: LogPlane + Sized {
        /// A node of `shards` groups at `env`, durable over `stores` if
        /// given.
        fn make(
            env: &Env,
            params: ConsensusParams,
            shards: u32,
            stores: Option<&Stores>,
        ) -> ReplicatedKv<Self>;
        /// `msg` as `shard`'s group traffic.
        fn wrap(shard: ShardId, msg: RsmMsg<Tagged<KvCmd>>) -> Self::Msg;
    }

    impl TestPlane for Group<NoopProbe> {
        fn make(
            env: &Env,
            params: ConsensusParams,
            shards: u32,
            stores: Option<&Stores>,
        ) -> KvReplica {
            assert_eq!(shards, 1, "the unsharded plane is one group");
            let mut log = ReplicatedLog::builder(env, params);
            if let Some(st) = stores {
                log = log
                    .storage(st.wals[&ShardId(0)].clone())
                    .snapshots(st.snaps[&ShardId(0)].clone());
            }
            log.build().and_then(ReplicatedKv::from_log).unwrap()
        }
        fn wrap(_shard: ShardId, msg: RsmMsg<Tagged<KvCmd>>) -> Self::Msg {
            msg
        }
    }

    impl TestPlane for ShardedNode<Tagged<KvCmd>> {
        fn make(
            env: &Env,
            params: ConsensusParams,
            shards: u32,
            stores: Option<&Stores>,
        ) -> ShardedKvNode {
            let placement =
                PlacementManager::with_all_attached(PlacementMap::uniform(shards, env.n()));
            let mut node = ShardedNode::builder(env, params, placement);
            if let Some(st) = stores {
                node = node
                    .storage(&st.wals, st.omega.clone())
                    .snapshots(&st.snaps);
            }
            node.build().and_then(ReplicatedKv::from_log).unwrap()
        }
        fn wrap(shard: ShardId, msg: RsmMsg<Tagged<KvCmd>>) -> Self::Msg {
            ShardMsg::Rsm { shard, msg }
        }
    }

    /// A key the node routes to `shard`.
    fn key_on<L: LogPlane>(node: &ReplicatedKv<L>, shard: ShardId) -> String {
        (0..)
            .map(|i| format!("k{i}"))
            .find(|k| node.plane.shard_of(k) == shard)
            .unwrap()
    }

    fn store_len<L: LogPlane>(node: &ReplicatedKv<L>) -> usize {
        node.shards.values().map(|s| s.state.len()).sum()
    }

    /// Delivers `msg` from `from` and returns what the node emitted.
    fn deliver<L: TestPlane>(
        node: &mut ReplicatedKv<L>,
        env: &Env,
        from: u32,
        msg: L::Msg,
    ) -> Vec<L::Event> {
        let mut fx = Effects::new();
        node.on_message(
            &mut Ctx::new(env, Instant::ZERO, &mut fx),
            ProcessId(from),
            msg,
        );
        fx.outputs
    }

    fn request<L: TestPlane>(node: &mut ReplicatedKv<L>, env: &Env, cmd: Tagged<KvCmd>) {
        let mut fx = Effects::new();
        node.on_request(&mut Ctx::new(env, Instant::ZERO, &mut fx), cmd);
    }

    fn start<L: TestPlane>(node: &mut ReplicatedKv<L>, env: &Env) {
        let mut fx = Effects::new();
        node.on_start(&mut Ctx::new(env, Instant::ZERO, &mut fx));
    }

    /// Teaches a follower that `shard`'s next slot chose `put(key, "v")`.
    fn decide<L: TestPlane>(
        node: &mut ReplicatedKv<L>,
        env: &Env,
        slot: u64,
        seq: u64,
        key: &str,
    ) -> Vec<L::Event> {
        let shard = node.plane.shard_of(key);
        let msg = RsmMsg::Decide {
            slot,
            entry: Entry::Cmd(tag(seq, KvCmd::put(key, "v"))),
        };
        deliver(node, env, 0, L::wrap(shard, msg))
    }

    /// Regression: under a stable leader, a dropped ReadIndex (or its
    /// reply) left the parked read behind forever, and every client retry
    /// parked another one — unbounded growth on fair-lossy links.
    fn retries_reuse_their_slot<L: TestPlane>(shards: u32) {
        let env = Env::new(ProcessId(1), 3);
        let mut node = L::make(&env, lease_params(), shards, None);
        start(&mut node, &env);
        for s in 0..shards {
            let key = key_on(&node, ShardId(s));
            for _ in 0..5 {
                request(&mut node, &env, tag(u64::from(s) + 1, KvCmd::read(&key)));
            }
            assert_eq!(
                node.pending_reads(),
                s as usize + 1,
                "retries of one read reuse its pending slot ({shards} shards)"
            );
        }
        let key = key_on(&node, ShardId(0));
        request(&mut node, &env, tag(99, KvCmd::read(&key)));
        assert_eq!(
            node.pending_reads(),
            shards as usize + 1,
            "distinct reads still park separately"
        );
    }

    #[test]
    fn read_retries_reuse_the_pending_slot() {
        retries_reuse_their_slot::<Group<NoopProbe>>(1);
        retries_reuse_their_slot::<ShardedNode<Tagged<KvCmd>>>(1);
        retries_reuse_their_slot::<ShardedNode<Tagged<KvCmd>>>(2);
    }

    /// Regression: recovery must seed each store from its snapshot and
    /// *then* replay the WAL tail above the watermark — the reverse order
    /// clobbers the suffix and the store silently reverts to the snapshot
    /// (here: losing k4..k6 and the session high-water marks).
    fn recovery_replays_the_tail_over_the_snapshot<L: TestPlane>(shards: u32) {
        let env = Env::new(ProcessId(2), 3);
        let stores = Stores::in_memory(shards);
        let mut next_slot: BTreeMap<ShardId, u64> = BTreeMap::new();
        let (applied, watermarks, sessions) = {
            let mut node = L::make(&env, ConsensusParams::default(), shards, Some(&stores));
            let mut put = |node: &mut ReplicatedKv<L>, i: u64| {
                let key = format!("k{i}");
                let slot = next_slot.entry(node.plane.shard_of(&key)).or_default();
                decide(node, &env, *slot, i + 1, &key);
                *slot += 1;
            };
            for i in 0..4 {
                put(&mut node, i);
            }
            let mut watermarks = BTreeMap::new();
            for s in 0..shards {
                let shard = ShardId(s);
                let upto = node.applied(shard);
                assert_eq!(node.compact_shard_now(shard).unwrap(), upto > 0);
                watermarks.insert(shard, upto);
            }
            for i in 4..7 {
                put(&mut node, i);
            }
            assert_eq!(store_len(&node), 7);
            let applied: Vec<u64> = (0..shards).map(|s| node.applied(ShardId(s))).collect();
            let sessions: Vec<Option<u64>> = node
                .shards
                .values()
                .map(|s| s.state.session_seq(ClientId(1)))
                .collect();
            (applied, watermarks, sessions)
        };
        let recovered = L::make(&env, ConsensusParams::default(), shards, Some(&stores));
        for (shard, watermark) in &watermarks {
            let group = recovered.plane.group(*shard).unwrap();
            assert_eq!(
                group.watermark(),
                *watermark,
                "{shard} recovers its snapshot"
            );
        }
        assert_eq!(
            store_len(&recovered),
            7,
            "the WAL tail above the snapshot watermark survives recovery ({shards} shards)"
        );
        let k6 = recovered.plane.shard_of("k6");
        assert_eq!(recovered.shards[&k6].state.get("k6"), Some("v"));
        let recovered_applied: Vec<u64> =
            (0..shards).map(|s| recovered.applied(ShardId(s))).collect();
        assert_eq!(recovered_applied, applied);
        let recovered_sessions: Vec<Option<u64>> = recovered
            .shards
            .values()
            .map(|s| s.state.session_seq(ClientId(1)))
            .collect();
        assert_eq!(
            recovered_sessions, sessions,
            "session dedup state covers the replayed tail"
        );
    }

    #[test]
    fn recovery_applies_the_wal_tail_on_top_of_the_snapshot() {
        recovery_replays_the_tail_over_the_snapshot::<Group<NoopProbe>>(1);
        recovery_replays_the_tail_over_the_snapshot::<ShardedNode<Tagged<KvCmd>>>(1);
        recovery_replays_the_tail_over_the_snapshot::<ShardedNode<Tagged<KvCmd>>>(2);
    }

    #[test]
    fn a_parked_read_waits_for_its_own_shards_watermark() {
        let env = Env::new(ProcessId(1), 3);
        let mut node =
            <ShardedNode<Tagged<KvCmd>> as TestPlane>::make(&env, lease_params(), 2, None);
        start(&mut node, &env);
        let key = key_on(&node, ShardId(0));
        request(&mut node, &env, tag(1, KvCmd::read(&key)));
        assert_eq!(node.pending_reads(), 1);
        // The leaseholder answers: the read is linearizable once shard 0
        // has applied two slots.
        let reply = RsmMsg::ReadIndexReply {
            req: 0,
            index: 2,
            b: Ballot::new(1, ProcessId(0)),
        };
        deliver(
            &mut node,
            &env,
            0,
            ShardMsg::Rsm {
                shard: ShardId(0),
                msg: reply,
            },
        );
        let served = |out: &[ShardedKvEvent]| {
            out.iter()
                .any(|o| matches!(o, ShardedKvEvent::Applied { seq: 1, .. }))
        };
        // Shard 1 racing ahead releases nothing on shard 0.
        let other = key_on(&node, ShardId(1));
        for slot in 0..3 {
            let out = decide(&mut node, &env, slot, 10 + slot, &other);
            assert!(!served(&out), "shard 1's watermark released a shard 0 read");
        }
        assert_eq!(node.applied(ShardId(1)), 3);
        assert_eq!(node.pending_reads(), 1);
        assert!(!served(&decide(&mut node, &env, 0, 20, &key)));
        assert!(served(&decide(&mut node, &env, 1, 21, &key)));
        assert_eq!(node.pending_reads(), 0);
    }

    #[test]
    fn replica_starts_and_emits_initial_leader() {
        let env = Env::new(ProcessId(0), 3);
        let mut r = KvReplica::new(&env, ConsensusParams::default());
        let mut fx: Effects<_, KvEvent> = Effects::new();
        r.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        assert!(fx
            .outputs
            .iter()
            .any(|o| matches!(o, KvEvent::Leader(l) if *l == ProcessId(0))));
        assert!(r.state().is_empty());
    }

    #[test]
    fn committed_commands_apply_in_order_with_dedup() {
        // Drive the leader replica through a full commit locally by feeding
        // it the peer's protocol messages directly.
        let env = Env::new(ProcessId(0), 3);
        let mut r = KvReplica::new(&env, ConsensusParams::default());
        let mut fx: Effects<_, KvEvent> = Effects::new();
        r.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        // Majority promise → leader established.
        r.on_message(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            ProcessId(1),
            RsmMsg::Promise {
                b: Ballot::new(1, ProcessId(0)),
                accepted: vec![],
                low_slot: 0,
            },
        );
        fx.take();
        assert!(r.log().is_established_leader());
        // Submit a command and ack it from p1: commits at slot 0.
        r.on_request(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            tag(1, KvCmd::put("x", "1")),
        );
        fx.take();
        r.on_message(
            &mut Ctx::new(&env, Instant::ZERO, &mut fx),
            ProcessId(1),
            RsmMsg::Accepted {
                b: Ballot::new(1, ProcessId(0)),
                slot: 0,
            },
        );
        let out = fx.take();
        assert!(out.outputs.iter().any(|o| matches!(
            o,
            KvEvent::Applied {
                slot: 0,
                seq: 1,
                response: KvResponse::Applied { .. },
                ..
            }
        )));
        assert_eq!(r.state().get("x"), Some("1"));
    }
}
