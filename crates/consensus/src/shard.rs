//! Sharded multi-group replication: many independent replicated logs per
//! node, one shared Ω detector feeding leadership to all of them.
//!
//! A single [`ReplicatedLog`] is one serialization
//! point: every command, whatever key it touches, flows through one slot
//! sequence. This module partitions the keyspace into `S` independent RSM
//! *groups* — each with its own slot sequence, WAL segment, and batching
//! parameters — so disjoint keys commit in parallel.
//!
//! The communication-efficiency concern is the heartbeat plane: a naive
//! deployment embeds one Ω per group, multiplying the detector's n−1 timely
//! links by `S`. Here every node runs **one** [`CommEffOmega`] instance and
//! multiplexes its output across all locally attached groups (each group is
//! constructed in external-leadership mode, see
//! [`ReplicatedLog::set_leader`]). Steady-state election traffic is
//! therefore independent of the shard count — the property experiment E20
//! gates on.
//!
//! Pieces:
//!
//! * [`ShardId`] / [`PlacementMap`] — a static-for-now shard map: key →
//!   shard via a stable FNV-1a hash, shard → replica set.
//! * [`PlacementManager`] — which shard groups are attached on this node
//!   (attach/detach).
//! * [`ShardMsg`] — the multiplexed wire envelope: shared-Ω traffic and the
//!   node's merged lease rounds travel untagged; group traffic carries its
//!   [`ShardId`] and is stamped into a version-3 frame by shard-aware
//!   transports (see [`Wire::shard_tag`]).
//! * [`ShardedNode`] — the per-node composite state machine: one shared Ω,
//!   one retry timer, a map of externally-led groups, message
//!   demultiplexing, and per-group WAL recovery on restart.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::marker::PhantomData;

use lls_obs::{NoopProbe, Probe};
use lls_primitives::wire::{Wire, WireError, WireReader};
use lls_primitives::{
    Ctx, Effects, Env, ProcessId, Sm, SnapshotHandle, StorageError, StorageHandle, TimerCmd,
    TimerId,
};
use omega::{CommEffOmega, OmegaMsg};

use crate::ballot::Ballot;
use crate::durable::RsmRecord;
use crate::msg::{classify_rsm_msg, RsmMsg};
use crate::rsm::{LifecycleId, ReplicatedLog, RsmEvent};
use crate::single::{ConsensusParams, OMEGA_TIMER_BASE, RETRY_TIMER};

/// Identifier of one shard group. Shard ids are dense: `0..shard_count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

impl Wire for ShardId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ShardId(u32::decode(r)?))
    }
}

/// Stable 64-bit FNV-1a hash — the key router's hash function. Stability
/// matters: the same key must map to the same shard on every node, every
/// incarnation, every build.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The static shard map: key → shard (stable hash mod `S`) and shard →
/// replica set. Placement is static for now — the map is built once and
/// shared by clients (for routing) and nodes (for attachment decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementMap {
    shards: u32,
    replica_sets: Vec<Vec<ProcessId>>,
}

impl PlacementMap {
    /// A uniform placement: `shards` groups, each replicated on all `n`
    /// processes. This is the layout the E20 experiment and the in-repo
    /// clusters use — every node hosts every group, so the single shared Ω
    /// leader leads them all.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn uniform(shards: u32, n: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        let everyone: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
        PlacementMap {
            shards,
            replica_sets: vec![everyone; shards as usize],
        }
    }

    /// Number of shards in the map.
    pub fn shard_count(&self) -> u32 {
        self.shards
    }

    /// Routes a key to its shard: FNV-1a of the key bytes, mod the shard
    /// count. Total (every key maps to exactly one shard) and stable (the
    /// mapping never depends on node, time, or build).
    pub fn shard_of_key(&self, key: &str) -> ShardId {
        self.shard_of_hash(fnv1a64(key.as_bytes()))
    }

    /// Routes a precomputed 64-bit hash to its shard.
    pub fn shard_of_hash(&self, hash: u64) -> ShardId {
        ShardId((hash % u64::from(self.shards)) as u32)
    }

    /// The replica set of `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn replicas(&self, shard: ShardId) -> &[ProcessId] {
        &self.replica_sets[shard.0 as usize]
    }

    /// All shard ids, in order.
    pub fn shard_ids(&self) -> impl Iterator<Item = ShardId> {
        (0..self.shards).map(ShardId)
    }
}

/// Which shard groups are attached on one node, against a shared
/// [`PlacementMap`]. Attachment is what makes a node host a group's
/// acceptor/learner state; the map alone is just routing metadata.
#[derive(Debug, Clone)]
pub struct PlacementManager {
    map: PlacementMap,
    attached: BTreeSet<ShardId>,
}

impl PlacementManager {
    /// A manager with no groups attached yet.
    pub fn new(map: PlacementMap) -> Self {
        PlacementManager {
            map,
            attached: BTreeSet::new(),
        }
    }

    /// A manager with every shard of `map` attached — the uniform layout
    /// where each node hosts each group.
    pub fn with_all_attached(map: PlacementMap) -> Self {
        let attached = map.shard_ids().collect();
        PlacementManager { map, attached }
    }

    /// The shared shard map.
    pub fn map(&self) -> &PlacementMap {
        &self.map
    }

    /// Marks `shard` attached. Returns `true` if it was newly attached.
    pub fn attach(&mut self, shard: ShardId) -> bool {
        self.attached.insert(shard)
    }

    /// Marks `shard` detached. Returns `true` if it was attached.
    pub fn detach(&mut self, shard: ShardId) -> bool {
        self.attached.remove(&shard)
    }

    /// Whether `shard` is attached on this node.
    pub fn is_attached(&self, shard: ShardId) -> bool {
        self.attached.contains(&shard)
    }

    /// The attached shards, in id order.
    pub fn attached(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.attached.iter().copied()
    }
}

/// The multiplexed wire envelope of a sharded node: one link carries the
/// shared Ω's heartbeats and the node's lease rounds (untagged) interleaved
/// with every co-located group's consensus traffic (tagged with its
/// [`ShardId`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMsg<V> {
    /// Shared per-node leader-election traffic — one Ω however many shards —
    /// carrying `(shard, ballot, chosen prefix)` for every group the sender
    /// leads at an established ballot, so the heartbeat teaches each
    /// group's followers what that group chose (see [`RsmMsg::Omega`]).
    Omega(OmegaMsg, Vec<(ShardId, Ballot, u64)>),
    /// Consensus traffic of one shard group.
    Rsm {
        /// The group this message belongs to.
        shard: ShardId,
        /// The group's consensus message.
        msg: RsmMsg<V>,
    },
    /// One retry step's lease grants to one peer, for every group whose
    /// grant round it started: `(shard, ballot, seq)` per group, each
    /// handed to that group as [`RsmMsg::LeaseGrant`].
    LeaseGrants(Vec<(ShardId, Ballot, u64)>),
    /// The granter's answer to one [`ShardMsg::LeaseGrants`]: `(shard,
    /// ballot, seq)` per group that granted, each handed to the leader's
    /// group as [`RsmMsg::LeaseAck`]. A group that refused answers with
    /// its own `Rsm` `Nack` instead.
    LeaseAcks(Vec<(ShardId, Ballot, u64)>),
}

impl<V: Wire> Wire for ShardMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ShardMsg::Omega(m, prefixes) => {
                out.push(0);
                m.encode(out);
                prefixes.encode(out);
            }
            ShardMsg::Rsm { shard, msg } => {
                out.push(1);
                shard.encode(out);
                msg.encode(out);
            }
            ShardMsg::LeaseGrants(grants) => {
                out.push(2);
                grants.encode(out);
            }
            ShardMsg::LeaseAcks(acks) => {
                out.push(3);
                acks.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(ShardMsg::Omega(OmegaMsg::decode(r)?, Vec::decode(r)?)),
            1 => Ok(ShardMsg::Rsm {
                shard: ShardId::decode(r)?,
                msg: RsmMsg::decode(r)?,
            }),
            2 => Ok(ShardMsg::LeaseGrants(Vec::decode(r)?)),
            3 => Ok(ShardMsg::LeaseAcks(Vec::decode(r)?)),
            tag => Err(WireError::BadTag {
                type_name: "ShardMsg",
                tag,
            }),
        }
    }

    /// Group traffic rides a shard-tagged version-3 frame; the shared Ω's
    /// messages and the merged lease rounds stay untagged (version 2),
    /// since they belong to the node, not to any one group.
    fn shard_tag(&self) -> Option<u32> {
        match self {
            ShardMsg::Omega(..) | ShardMsg::LeaseGrants(_) | ShardMsg::LeaseAcks(_) => None,
            ShardMsg::Rsm { shard, .. } => Some(shard.0),
        }
    }
}

/// Classifier for per-kind message statistics of [`ShardMsg`]: Ω traffic
/// classifies as `ALIVE`/`ACCUSE` exactly like the unsharded stack, group
/// traffic by its consensus kind, and a merged lease round as one
/// `LEASE_GRANT` or `LEASE_ACK` — so flatness comparisons across shard
/// counts read straight off the substrate's kind counters.
pub fn classify_shard_msg<V>(msg: &ShardMsg<V>) -> &'static str {
    match msg {
        ShardMsg::Omega(m, _) => omega::classify_msg(m),
        ShardMsg::Rsm { msg, .. } => classify_rsm_msg(msg),
        ShardMsg::LeaseGrants(_) => "LEASE_GRANT",
        ShardMsg::LeaseAcks(_) => "LEASE_ACK",
    }
}

/// The lease messages of one node step, merged per peer: every group's
/// `LeaseGrant` to a peer leaves in one [`ShardMsg::LeaseGrants`], every
/// `LeaseAck` in one [`ShardMsg::LeaseAcks`].
#[derive(Debug, Default)]
struct LeaseMail {
    grants: BTreeMap<ProcessId, Vec<(ShardId, Ballot, u64)>>,
    acks: BTreeMap<ProcessId, Vec<(ShardId, Ballot, u64)>>,
}

impl LeaseMail {
    fn post<V>(self, ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>) {
        for (to, grants) in self.grants {
            ctx.send(to, ShardMsg::LeaseGrants(grants));
        }
        for (to, acks) in self.acks {
            ctx.send(to, ShardMsg::LeaseAcks(acks));
        }
    }
}

/// Observable events of a [`ShardedNode`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEvent<V> {
    /// The shared Ω detector changed its output (one announcement per node,
    /// however many groups it feeds).
    Leader(ProcessId),
    /// A slot of one shard group committed, in strict slot order per group.
    /// `cmd` is `None` for no-op filler slots.
    Committed {
        /// The group the slot belongs to.
        shard: ShardId,
        /// The slot index within that group's log.
        slot: u64,
        /// The committed command, if not a no-op.
        cmd: Option<V>,
    },
    /// One shard group completed a snapshot-install state transfer: the
    /// application must replace that shard's materialized state with
    /// `state` before consuming its further `Committed` events.
    SnapshotInstalled {
        /// The group whose state was replaced.
        shard: ShardId,
        /// First slot of that group's log not covered by the state.
        watermark: u64,
        /// The application state blob for that shard.
        state: Vec<u8>,
    },
    /// One shard group resolved a read-index request: serving the read is
    /// linearizable once the group's applied state covers slots `< index`.
    ReadIndexAt {
        /// The group the read targets.
        shard: ShardId,
        /// The opaque request token passed to
        /// [`ShardedNode::request_read_index`].
        req: u64,
        /// The decided watermark the read must wait for.
        index: u64,
    },
}

/// A client command addressed to one shard group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest<V> {
    /// The target group.
    pub shard: ShardId,
    /// The command to replicate in that group's log.
    pub cmd: V,
}

/// One node of a sharded deployment: a single shared [`CommEffOmega`]
/// detector plus one externally-led [`ReplicatedLog`] per locally attached
/// shard group, demultiplexed over a single transport.
///
/// Leadership flows in one direction: the shared Ω elects a per-node
/// leader; every attached group whose replica set contains that leader has
/// it injected via [`ReplicatedLog::set_leader`]. The groups themselves
/// never send Ω traffic, so per-node heartbeat volume is the same for one
/// shard as for a hundred.
///
/// Timers: the shared Ω's are offset by `OMEGA_TIMER_BASE` (1000), and the
/// node has **one** retry timer (`TimerId(0)`, every `params.retry`). Each
/// time it fires, every attached group runs its retry step in shard order,
/// and the lease grants those steps start leave as one
/// [`ShardMsg::LeaseGrants`] per peer. A granter hands each entry to its
/// group and answers with one [`ShardMsg::LeaseAcks`], so lease traffic,
/// like leadership, is a node property: one grant and one ack per follower
/// per retry period, however many groups the node leads. Each group's
/// lease state machine sees the same `LeaseGrant`/`LeaseAck` inputs it
/// would see alone.
#[derive(Debug, Clone)]
pub struct ShardedNode<V, P: Probe = NoopProbe> {
    env: Env,
    omega: CommEffOmega<P>,
    placement: PlacementManager,
    groups: BTreeMap<ShardId, ReplicatedLog<V, P>>,
    omega_store: Option<StorageHandle>,
    believed: Option<ProcessId>,
    params: ConsensusParams,
    probe: P,
    wedged: bool,
}

impl<V> ShardedNode<V>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
{
    /// Creates an in-memory node hosting every shard attached in
    /// `placement`, all groups sharing `params`.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new(env: &Env, params: ConsensusParams, placement: PlacementManager) -> Self {
        ShardedNode::builder(env, params, placement)
            .build()
            .expect("a node without storage cannot fail to build")
    }

    /// Starts building a node hosting every shard attached in `placement`,
    /// with any of durable storage, snapshot stores and an observability
    /// probe (see [`ShardedNodeBuilder`]).
    pub fn builder(
        env: &Env,
        params: ConsensusParams,
        placement: PlacementManager,
    ) -> ShardedNodeBuilder<V> {
        ShardedNodeBuilder {
            env: *env,
            params,
            placement,
            storage: None,
            snapshots: BTreeMap::new(),
            probe: NoopProbe,
            _cmds: PhantomData,
        }
    }
}

/// Builds a [`ShardedNode`]; start from [`ShardedNode::builder`]. Each
/// attached group is built with [`ReplicatedLog::builder`] in
/// external-leadership mode, in shard order, before the shared Ω.
#[derive(Debug)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct ShardedNodeBuilder<V, P: Probe = NoopProbe> {
    env: Env,
    params: ConsensusParams,
    placement: PlacementManager,
    storage: Option<(BTreeMap<ShardId, StorageHandle>, StorageHandle)>,
    snapshots: BTreeMap<ShardId, SnapshotHandle>,
    probe: P,
    _cmds: PhantomData<fn() -> V>,
}

impl<V, P> ShardedNodeBuilder<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    /// Makes the node durable: each attached group recovers from its own
    /// WAL segment in `stores`, and the shared Ω counter from its own
    /// dedicated segment `omega_store` — so a restart resumes **every**
    /// co-located group from its own durable state.
    /// [`ShardedNodeBuilder::build`] panics if an attached shard has no
    /// segment in `stores`.
    pub fn storage(
        mut self,
        stores: &BTreeMap<ShardId, StorageHandle>,
        omega_store: StorageHandle,
    ) -> Self {
        self.storage = Some((stores.clone(), omega_store));
        self
    }

    /// Attaches one snapshot store per shard in `snaps` (shards missing
    /// from it run without compaction): those groups recover
    /// snapshot-first, then WAL — see
    /// [`LogBuilder::snapshots`](crate::LogBuilder::snapshots).
    pub fn snapshots(mut self, snaps: &BTreeMap<ShardId, SnapshotHandle>) -> Self {
        self.snapshots = snaps.clone();
        self
    }

    /// Attaches an observability probe shared by the Ω detector and every
    /// group.
    pub fn probe<Q: Probe>(self, probe: Q) -> ShardedNodeBuilder<V, Q> {
        ShardedNodeBuilder {
            env: self.env,
            params: self.params,
            placement: self.placement,
            storage: self.storage,
            snapshots: self.snapshots,
            probe,
            _cmds: PhantomData,
        }
    }

    /// Builds the node.
    ///
    /// # Errors
    ///
    /// Fails if any WAL or snapshot store cannot be read or a boot record
    /// cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid, or if the node is durable
    /// and an attached shard has no WAL segment.
    pub fn build(self) -> Result<ShardedNode<V, P>, StorageError> {
        let ShardedNodeBuilder {
            env,
            params,
            placement,
            storage,
            snapshots,
            probe,
            _cmds,
        } = self;
        let mut groups = BTreeMap::new();
        for shard in placement.attached() {
            let mut group = ReplicatedLog::builder(&env, params)
                .probe(probe.clone())
                .externally_led();
            if let Some((stores, _)) = &storage {
                let store = stores
                    .get(&shard)
                    .unwrap_or_else(|| panic!("no WAL segment for attached {shard}"));
                group = group.storage(store.clone());
            }
            if let Some(snap) = snapshots.get(&shard) {
                group = group.snapshots(snap.clone());
            }
            let mut group = group.build()?;
            group.set_probe_shard(shard.0);
            groups.insert(shard, group);
        }
        let mut omega = CommEffOmega::new_with_probe(&env, params.omega, probe.clone());
        let omega_store = match storage {
            Some((_, omega_store)) => {
                // The shared Ω counter lives in its own segment: recover the
                // highest persisted counter, rejoin one incarnation above it
                // (exactly the single-log recovery rule), and write the boot
                // record ahead of any message that could reveal the new
                // counter.
                let records: Vec<RsmRecord<V>> = omega_store.load_records()?;
                let mut counter = 0u64;
                for rec in &records {
                    if let RsmRecord::OmegaCounter(c) = rec {
                        counter = counter.max(*c);
                    }
                }
                let boot = if records.is_empty() {
                    0
                } else {
                    counter.saturating_add(1)
                };
                omega_store.append_record(&RsmRecord::<V>::OmegaCounter(boot))?;
                omega.restore_own_counter(boot);
                Some(omega_store)
            }
            None => None,
        };
        Ok(ShardedNode {
            env,
            omega,
            placement,
            groups,
            omega_store,
            believed: None,
            params,
            probe,
            wedged: false,
        })
    }
}

impl<V, P> ShardedNode<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    /// The shared Ω detector (for instrumentation).
    pub fn omega(&self) -> &CommEffOmega<P> {
        &self.omega
    }

    /// The placement manager (map + local attachments).
    pub fn placement(&self) -> &PlacementManager {
        &self.placement
    }

    /// The locally attached group of `shard`, if any.
    pub fn group(&self, shard: ShardId) -> Option<&ReplicatedLog<V, P>> {
        self.groups.get(&shard)
    }

    /// All locally attached groups, in shard order.
    pub fn groups(&self) -> impl Iterator<Item = (ShardId, &ReplicatedLog<V, P>)> {
        self.groups.iter().map(|(s, g)| (*s, g))
    }

    /// Compacts one attached group: installs `state` as its durable
    /// snapshot at `watermark` and rewrites its WAL segment to live records
    /// only (see [`ReplicatedLog::compact`]). Returns `Ok(false)` when the
    /// shard is not attached locally or the group declined (no snapshot
    /// store, watermark not advancing, wedged).
    ///
    /// # Errors
    ///
    /// Propagates a WAL rewrite failure; the group is wedged first.
    pub fn compact_shard(
        &mut self,
        shard: ShardId,
        watermark: u64,
        state: Vec<u8>,
    ) -> Result<bool, StorageError> {
        match self.groups.get_mut(&shard) {
            Some(group) => group.compact(watermark, state),
            None => Ok(false),
        }
    }

    /// The leader this node currently believes in (the shared Ω's last
    /// announcement), if any has been made.
    pub fn believed_leader(&self) -> Option<ProcessId> {
        self.believed
    }

    /// Requests a read index for `shard` (see
    /// [`ReplicatedLog::request_read_index`]): the leaseholder answers with
    /// [`ShardEvent::ReadIndexAt`] synchronously, a follower forwards to the
    /// believed leader. Silently dropped when the shard is not attached.
    pub fn request_read_index(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>,
        shard: ShardId,
        req: u64,
    ) {
        if self.wedged {
            return;
        }
        self.drive_group(ctx, shard, |g, gctx| g.request_read_index(gctx, req));
    }

    /// Attaches `shard` at runtime with this node's parameters: a fresh
    /// externally-led group is created, started, and fed the currently
    /// believed leader; the node's retry timer covers it from its next
    /// firing. A no-op if already attached.
    pub fn attach(&mut self, ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>, shard: ShardId) {
        if self.groups.contains_key(&shard) {
            return;
        }
        self.placement.attach(shard);
        let mut group = ReplicatedLog::builder(&self.env, self.params)
            .probe(self.probe.clone())
            .externally_led()
            .build()
            .expect("a log without storage cannot fail to build");
        group.set_probe_shard(shard.0);
        self.groups.insert(shard, group);
        self.drive_group(ctx, shard, |g, gctx| g.on_start(gctx));
        if let Some(leader) = self.believed {
            if self.placement.map().replicas(shard).contains(&leader) {
                self.drive_group(ctx, shard, |g, gctx| g.set_leader(gctx, leader));
            }
        }
    }

    /// Detaches `shard`, dropping its group state (a durable group's WAL
    /// segment survives for a future re-attach). A no-op if not attached.
    pub fn detach(&mut self, shard: ShardId) {
        if self.groups.remove(&shard).is_some() {
            self.placement.detach(shard);
        }
    }

    /// Runs one step of the group of `shard` and posts its lease messages
    /// at once (see [`ShardedNode::step_group`]).
    fn drive_group(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>,
        shard: ShardId,
        step: impl FnOnce(&mut ReplicatedLog<V, P>, &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>),
    ) {
        let mut mail = LeaseMail::default();
        self.step_group(ctx, &mut mail, shard, step);
        mail.post(ctx);
    }

    /// Runs one step of the group of `shard` (silently dropped if not
    /// attached), translating its effects into the sharded envelope: sends
    /// are tagged with the shard, except lease grants and acks, which join
    /// `mail` for the caller to post merged per peer; commits become
    /// [`ShardEvent::Committed`]. Per-group `Leader` events are suppressed
    /// — the shared Ω's announcement is the authoritative one and would
    /// otherwise repeat per shard.
    fn step_group(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>,
        mail: &mut LeaseMail,
        shard: ShardId,
        step: impl FnOnce(&mut ReplicatedLog<V, P>, &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>),
    ) {
        let Some(group) = self.groups.get_mut(&shard) else {
            return;
        };
        let mut fx: Effects<RsmMsg<V>, RsmEvent<V>> = Effects::new();
        {
            let mut gctx = Ctx::new(&self.env, ctx.now(), &mut fx);
            step(group, &mut gctx);
        }
        debug_assert!(fx.timers.is_empty(), "externally led groups arm no timer");
        for s in fx.sends {
            match s.msg {
                RsmMsg::LeaseGrant { b, seq } => {
                    mail.grants.entry(s.to).or_default().push((shard, b, seq));
                }
                RsmMsg::LeaseAck { b, seq } => {
                    mail.acks.entry(s.to).or_default().push((shard, b, seq));
                }
                msg => ctx.send(s.to, ShardMsg::Rsm { shard, msg }),
            }
        }
        for o in fx.outputs {
            match o {
                RsmEvent::Leader(_) => {}
                RsmEvent::Committed { slot, cmd } => {
                    ctx.output(ShardEvent::Committed { shard, slot, cmd });
                }
                RsmEvent::SnapshotInstalled { watermark, state } => {
                    ctx.output(ShardEvent::SnapshotInstalled {
                        shard,
                        watermark,
                        state,
                    });
                }
                RsmEvent::ReadIndexAt { req, index } => {
                    ctx.output(ShardEvent::ReadIndexAt { shard, req, index });
                }
            }
        }
    }

    /// Runs one step of the shared Ω, write-ahead persisting counter bumps
    /// to the dedicated Ω segment, wrapping its sends untagged, offsetting
    /// its timers by `OMEGA_TIMER_BASE`, and fanning each leader output
    /// out to every attached group whose replica set contains the leader.
    fn drive_omega(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>,
        step: impl FnOnce(&mut CommEffOmega<P>, &mut Ctx<'_, OmegaMsg, ProcessId>),
    ) {
        let mut fx: Effects<OmegaMsg, ProcessId> = Effects::new();
        let counter_before = self.omega.own_counter();
        {
            let mut octx = Ctx::new(&self.env, ctx.now(), &mut fx);
            step(&mut self.omega, &mut octx);
        }
        // Write-ahead: a bumped counter must be durable before any message
        // revealing it can leave (effects drain after we return).
        let counter_after = self.omega.own_counter();
        if counter_after != counter_before {
            if let Some(store) = &self.omega_store {
                if store
                    .append_record(&RsmRecord::<V>::OmegaCounter(counter_after))
                    .is_err()
                {
                    // A node that cannot persist must fall silent.
                    self.wedged = true;
                    return;
                }
            }
        }
        let prefixes: Vec<(ShardId, Ballot, u64)> = self
            .groups
            .iter()
            .filter_map(|(s, g)| g.advertised_prefix().map(|(b, c)| (*s, b, c)))
            .collect();
        for s in fx.sends {
            ctx.send(s.to, ShardMsg::Omega(s.msg, prefixes.clone()));
        }
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => {
                    ctx.set_timer(timer.offset(OMEGA_TIMER_BASE), after);
                }
                TimerCmd::Cancel { timer } => {
                    ctx.cancel_timer(timer.offset(OMEGA_TIMER_BASE));
                }
            }
        }
        for leader in fx.outputs {
            self.apply_leadership(ctx, leader);
        }
    }

    /// The node's retry step: every attached group's, in shard order, with
    /// the lease grants they start merged into one message per peer.
    fn retry_round(&mut self, ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>) {
        let mut mail = LeaseMail::default();
        let shards: Vec<ShardId> = self.groups.keys().copied().collect();
        for shard in shards {
            self.step_group(ctx, &mut mail, shard, |g, gctx| g.retry_tick(gctx));
        }
        mail.post(ctx);
    }

    /// One leader announcement from the shared Ω: record it, emit a single
    /// [`ShardEvent::Leader`], and inject it into every attached group it
    /// can lead (its replica set contains the leader).
    fn apply_leadership(
        &mut self,
        ctx: &mut Ctx<'_, ShardMsg<V>, ShardEvent<V>>,
        leader: ProcessId,
    ) {
        self.believed = Some(leader);
        ctx.output(ShardEvent::Leader(leader));
        let shards: Vec<ShardId> = self.groups.keys().copied().collect();
        for shard in shards {
            if self.placement.map().replicas(shard).contains(&leader) {
                self.drive_group(ctx, shard, |g, gctx| g.set_leader(gctx, leader));
            }
        }
    }
}

impl<V, P> Sm for ShardedNode<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    type Msg = ShardMsg<V>;
    type Output = ShardEvent<V>;
    type Request = ShardRequest<V>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        if self.wedged {
            return;
        }
        ctx.set_timer(RETRY_TIMER, self.params.retry);
        let shards: Vec<ShardId> = self.groups.keys().copied().collect();
        for shard in shards {
            self.drive_group(ctx, shard, |g, gctx| g.on_start(gctx));
        }
        self.drive_omega(ctx, |o, octx| o.on_start(octx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        if self.wedged {
            return;
        }
        match msg {
            ShardMsg::Omega(m, prefixes) => {
                for (shard, b, commit) in prefixes {
                    self.drive_group(ctx, shard, |g, gctx| g.learn_prefix(gctx, b, commit));
                }
                self.drive_omega(ctx, |o, octx| o.on_message(octx, from, m));
            }
            ShardMsg::Rsm { shard, msg } => {
                self.drive_group(ctx, shard, |g, gctx| g.on_message(gctx, from, msg));
            }
            ShardMsg::LeaseGrants(grants) => {
                // Each group grants or refuses on its own; the grants come
                // back as one LeaseAcks, the refusals as group Nacks.
                let mut mail = LeaseMail::default();
                for (shard, b, seq) in grants {
                    self.step_group(ctx, &mut mail, shard, |g, gctx| {
                        g.on_message(gctx, from, RsmMsg::LeaseGrant { b, seq });
                    });
                }
                mail.post(ctx);
            }
            ShardMsg::LeaseAcks(acks) => {
                for (shard, b, seq) in acks {
                    self.drive_group(ctx, shard, |g, gctx| {
                        g.on_message(gctx, from, RsmMsg::LeaseAck { b, seq });
                    });
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        if self.wedged {
            return;
        }
        if timer.0 >= OMEGA_TIMER_BASE {
            let inner = TimerId(timer.0 - OMEGA_TIMER_BASE);
            self.drive_omega(ctx, |o, octx| o.on_timer(octx, inner));
        } else if timer == RETRY_TIMER {
            self.retry_round(ctx);
            ctx.set_timer(RETRY_TIMER, self.params.retry);
        } else {
            debug_assert!(false, "unexpected timer {timer}");
        }
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        if self.wedged {
            return;
        }
        let ShardRequest { shard, cmd } = req;
        self.drive_group(ctx, shard, |g, gctx| g.on_request(gctx, cmd));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Entry;
    use lls_primitives::Instant;

    type Node = ShardedNode<u64>;
    type Fx = Effects<ShardMsg<u64>, ShardEvent<u64>>;

    struct Harness {
        env: Env,
        sm: Node,
        fx: Fx,
    }

    impl Harness {
        fn new(me: u32, n: usize, shards: u32) -> Self {
            Harness::with_params(me, n, shards, ConsensusParams::default())
        }

        fn with_params(me: u32, n: usize, shards: u32, params: ConsensusParams) -> Self {
            let env = Env::new(ProcessId(me), n);
            let placement = PlacementManager::with_all_attached(PlacementMap::uniform(shards, n));
            let sm = ShardedNode::new(&env, params, placement);
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn deliver_at(&mut self, now: Instant, from: u32, msg: ShardMsg<u64>) -> Fx {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn retry_at(&mut self, now: Instant) -> Fx {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_timer(&mut ctx, RETRY_TIMER);
            self.fx.take()
        }

        fn start(&mut self) -> Fx {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(&mut self, from: u32, msg: ShardMsg<u64>) -> Fx {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn request(&mut self, shard: u32, cmd: u64) -> Fx {
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

        /// One promise (from `from`) = quorum at p0 in a 3-replica group:
        /// establishes p0's ballot in the group of `shard`.
        fn promise(&mut self, from: u32, shard: u32) -> Fx {
            self.deliver(
                from,
                ShardMsg::Rsm {
                    shard: ShardId(shard),
                    msg: RsmMsg::Promise {
                        b: Ballot::new(1, ProcessId(0)),
                        accepted: vec![],
                        low_slot: 0,
                    },
                },
            )
        }

        /// One accepted (from `from`) = quorum at p0: commits `slot` in the
        /// group of `shard`.
        fn accepted(&mut self, from: u32, shard: u32, slot: u64) -> Fx {
            self.deliver(
                from,
                ShardMsg::Rsm {
                    shard: ShardId(shard),
                    msg: RsmMsg::Accepted {
                        b: Ballot::new(1, ProcessId(0)),
                        slot,
                    },
                },
            )
        }
    }

    #[test]
    fn key_router_is_stable_and_in_range() {
        let map = PlacementMap::uniform(4, 3);
        let a = map.shard_of_key("alpha");
        assert_eq!(map.shard_of_key("alpha"), a, "routing must be stable");
        for key in ["a", "b", "counter", "x:12", ""] {
            assert!(map.shard_of_key(key).0 < 4);
        }
    }

    #[test]
    fn one_omega_however_many_groups() {
        // The heartbeat plane of a 1-shard node and an 8-shard node is
        // identical: on_start emits exactly the shared Ω's sends, untagged.
        let omega_sends = |shards: u32| {
            let mut h = Harness::new(0, 3, shards);
            h.start()
                .sends
                .into_iter()
                .filter(|s| matches!(s.msg, ShardMsg::Omega(..)))
                .count()
        };
        assert_eq!(omega_sends(1), omega_sends(8));
    }

    #[test]
    fn leadership_fans_out_to_every_attached_group() {
        // p0 is the initial Ω leader: one announcement, and every attached
        // group opens its ballot phase at once.
        let mut h = Harness::new(0, 3, 3);
        let out = h.start();
        assert_eq!(
            out.outputs
                .iter()
                .filter(|o| matches!(o, ShardEvent::Leader(l) if *l == ProcessId(0)))
                .count(),
            1,
            "one announcement per node, not per shard: {:?}",
            out.outputs
        );
        for shard in [0u32, 1, 2] {
            assert_eq!(
                out.sends
                    .iter()
                    .filter(|s| matches!(
                        &s.msg,
                        ShardMsg::Rsm { shard: sh, msg: RsmMsg::Prepare { .. } } if sh.0 == shard
                    ))
                    .count(),
                2,
                "shard{shard} must prepare towards both peers"
            );
        }
        for shard in [0u32, 1, 2] {
            h.promise(1, shard);
            assert!(
                h.sm.group(ShardId(shard))
                    .expect("attached")
                    .is_established_leader(),
                "shard{shard} must be led after one promise quorum"
            );
        }
    }

    #[test]
    fn groups_commit_independently() {
        let mut h = Harness::new(0, 3, 2);
        h.start();
        h.promise(1, 0);
        h.promise(1, 1);
        let out = h.request(1, 77);
        assert!(
            out.sends.iter().all(|s| matches!(
                &s.msg,
                ShardMsg::Rsm { shard, msg: RsmMsg::Accept { slot: 0, .. } } if shard.0 == 1
            )),
            "steady state: only shard1 Accepts go out: {:?}",
            out.sends
        );
        let out = h.accepted(1, 1, 0);
        assert!(
            out.outputs.contains(&ShardEvent::Committed {
                shard: ShardId(1),
                slot: 0,
                cmd: Some(77)
            }),
            "{:?}",
            out.outputs
        );
        assert_eq!(h.sm.group(ShardId(1)).unwrap().committed_len(), 1);
        assert_eq!(
            h.sm.group(ShardId(0)).unwrap().committed_len(),
            0,
            "slot sequences are per group"
        );
    }

    /// The prefixes riding the heartbeat `p0` sends `p1` when its Ω
    /// heartbeat timer fires.
    fn heartbeat_prefixes(h: &mut Harness) -> Vec<(ShardId, Ballot, u64)> {
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut h.fx);
        h.sm.on_timer(&mut ctx, TimerId(OMEGA_TIMER_BASE));
        h.fx.take()
            .sends
            .into_iter()
            .find_map(|s| match s.msg {
                ShardMsg::Omega(OmegaMsg::Alive { .. }, prefixes) if s.to == ProcessId(1) => {
                    Some(prefixes)
                }
                _ => None,
            })
            .expect("the leader heartbeats p1")
    }

    #[test]
    fn a_heartbeat_carries_a_prefix_for_exactly_the_groups_led() {
        let mut h = Harness::new(0, 3, 3);
        h.start();
        assert_eq!(heartbeat_prefixes(&mut h), vec![], "no group is led yet");
        // Groups 0 and 2 reach a promise quorum; group 1 stays preparing.
        h.promise(1, 0);
        h.promise(1, 2);
        h.request(2, 40);
        h.accepted(1, 2, 0);
        let b = Ballot::new(1, ProcessId(0));
        assert_eq!(
            heartbeat_prefixes(&mut h),
            vec![(ShardId(0), b, 0), (ShardId(2), b, 1)]
        );
    }

    #[test]
    fn a_heartbeat_prefix_teaches_each_group_its_votes() {
        let mut h = Harness::new(1, 3, 2);
        h.start();
        let b = Ballot::new(1, ProcessId(0));
        h.deliver(
            0,
            ShardMsg::Rsm {
                shard: ShardId(1),
                msg: RsmMsg::Accept {
                    b,
                    slot: 0,
                    entry: Entry::Cmd(5),
                    commit: 0,
                },
            },
        );
        let out = h.deliver(
            0,
            ShardMsg::Omega(OmegaMsg::Alive { counter: 0 }, vec![(ShardId(1), b, 1)]),
        );
        assert!(
            out.outputs.contains(&ShardEvent::Committed {
                shard: ShardId(1),
                slot: 0,
                cmd: Some(5)
            }),
            "{:?}",
            out.outputs
        );
        assert_eq!(h.sm.group(ShardId(0)).unwrap().committed_len(), 0);
    }

    #[test]
    fn rsm_traffic_is_tagged_and_omega_traffic_is_not() {
        // The envelope property shard-aware transports key off: group
        // traffic advertises its shard, the node's own traffic does not.
        let mut h = Harness::new(0, 3, 2);
        let out = h.start();
        for s in &out.sends {
            match &s.msg {
                ShardMsg::Rsm { shard, .. } => assert_eq!(s.msg.shard_tag(), Some(shard.0)),
                _ => assert_eq!(s.msg.shard_tag(), None),
            }
        }
        let b = Ballot::new(1, ProcessId(0));
        assert_eq!(
            ShardMsg::<u64>::LeaseGrants(vec![(ShardId(5), b, 1)]).shard_tag(),
            None
        );
        assert_eq!(
            ShardMsg::<u64>::LeaseAcks(vec![(ShardId(5), b, 1)]).shard_tag(),
            None
        );
        let tagged = ShardMsg::<u64>::Rsm {
            shard: ShardId(5),
            msg: RsmMsg::CatchUp { low_slot: 0 },
        };
        assert_eq!(tagged.shard_tag(), Some(5));
        let untagged = ShardMsg::<u64>::Omega(
            OmegaMsg::Alive { counter: 0 },
            vec![(ShardId(5), Ballot::new(1, ProcessId(0)), 3)],
        );
        assert_eq!(untagged.shard_tag(), None);
    }

    #[test]
    fn shard_msg_roundtrips_on_the_wire() {
        let msgs: Vec<ShardMsg<u64>> = vec![
            ShardMsg::Omega(OmegaMsg::Alive { counter: 3 }, vec![]),
            ShardMsg::Omega(
                OmegaMsg::Alive { counter: 3 },
                vec![
                    (ShardId(0), Ballot::new(1, ProcessId(0)), 7),
                    (ShardId(2), Ballot::new(2, ProcessId(1)), 0),
                ],
            ),
            ShardMsg::Rsm {
                shard: ShardId(2),
                msg: RsmMsg::Accept {
                    b: Ballot::new(1, ProcessId(0)),
                    slot: 4,
                    entry: Entry::Batch(vec![1, 2]),
                    commit: 3,
                },
            },
            ShardMsg::LeaseGrants(vec![
                (ShardId(0), Ballot::new(1, ProcessId(0)), 9),
                (ShardId(3), Ballot::new(4, ProcessId(0)), 2),
            ]),
            ShardMsg::LeaseAcks(vec![(ShardId(3), Ballot::new(4, ProcessId(0)), 2)]),
        ];
        for msg in msgs {
            let decoded = ShardMsg::<u64>::from_bytes(&msg.to_bytes()).expect("roundtrip");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn classify_shard_msg_reuses_the_flat_kinds() {
        assert_eq!(
            classify_shard_msg(&ShardMsg::<u64>::Omega(
                OmegaMsg::Alive { counter: 0 },
                vec![]
            )),
            "ALIVE"
        );
        assert_eq!(
            classify_shard_msg(&ShardMsg::<u64>::Rsm {
                shard: ShardId(0),
                msg: RsmMsg::CatchUp { low_slot: 0 }
            }),
            "CATCH_UP"
        );
        // A merged lease round counts as one message of the flat kind.
        let b = Ballot::new(1, ProcessId(0));
        let entries = vec![(ShardId(0), b, 1), (ShardId(1), b, 1)];
        assert_eq!(
            classify_shard_msg(&ShardMsg::<u64>::LeaseGrants(entries.clone())),
            "LEASE_GRANT"
        );
        assert_eq!(
            classify_shard_msg(&ShardMsg::<u64>::LeaseAcks(entries)),
            "LEASE_ACK"
        );
    }

    #[test]
    fn attach_and_detach_at_runtime() {
        let env = Env::new(ProcessId(0), 3);
        // Start with nothing attached against an 8-shard map.
        let mut sm = ShardedNode::<u64>::new(
            &env,
            ConsensusParams::default(),
            PlacementManager::new(PlacementMap::uniform(8, 3)),
        );
        let mut fx: Effects<ShardMsg<u64>, ShardEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_start(&mut ctx);
        fx.take();
        assert!(sm.group(ShardId(7)).is_none());
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.attach(&mut ctx, ShardId(7));
        let out = fx.take();
        assert!(sm.placement().is_attached(ShardId(7)));
        // A late-attached group inherits the believed leader (p0 is the
        // initial Ω output) and opens its ballot phase at once.
        assert_eq!(
            out.sends
                .iter()
                .filter(|s| matches!(
                    &s.msg,
                    ShardMsg::Rsm { shard, msg: RsmMsg::Prepare { .. } } if shard.0 == 7
                ))
                .count(),
            2,
            "late-attached group starts preparing: {:?}",
            out.sends
        );
        assert!(
            out.timers.is_empty(),
            "a late-attached group arms no timer of its own: {:?}",
            out.timers
        );
        sm.detach(ShardId(7));
        assert!(!sm.placement().is_attached(ShardId(7)));
        assert!(sm.group(ShardId(7)).is_none());
    }

    /// Leases on, three groups: p0 prepares every group after the boot
    /// blackout (tick 200) and p1's promises establish them.
    fn led_lease_node() -> Harness {
        let params = ConsensusParams {
            lease: crate::LeaseParams::enabled(),
            ..ConsensusParams::default()
        };
        let mut h = Harness::with_params(0, 3, 3, params);
        let out = h.start();
        let retry_timers: Vec<&TimerCmd> = out
            .timers
            .iter()
            .filter(|t| matches!(t, TimerCmd::Set { timer, .. } if timer.0 < OMEGA_TIMER_BASE))
            .collect();
        assert_eq!(
            retry_timers,
            vec![&TimerCmd::Set {
                timer: RETRY_TIMER,
                after: params.retry
            }],
            "one retry timer for the node, however many groups"
        );
        h.retry_at(Instant::from_ticks(200));
        for shard in 0..3 {
            h.promise(1, shard);
            assert!(h.sm.group(ShardId(shard)).unwrap().is_established_leader());
        }
        h
    }

    #[test]
    fn one_retry_step_sends_one_lease_grant_per_peer_for_every_group() {
        let mut h = led_lease_node();
        let out = h.retry_at(Instant::from_ticks(240));
        let b = Ballot::new(1, ProcessId(0));
        let every_group = vec![(ShardId(0), b, 1), (ShardId(1), b, 1), (ShardId(2), b, 1)];
        for peer in [1, 2] {
            let grants: Vec<&ShardMsg<u64>> = out
                .sends
                .iter()
                .filter(|s| s.to == ProcessId(peer) && classify_shard_msg(&s.msg) == "LEASE_GRANT")
                .map(|s| &s.msg)
                .collect();
            assert_eq!(
                grants,
                vec![&ShardMsg::LeaseGrants(every_group.clone())],
                "p{peer} gets one grant listing every group"
            );
        }
    }

    #[test]
    fn a_merged_ack_activates_only_the_groups_it_acks_at_their_ballot() {
        let mut h = led_lease_node();
        h.retry_at(Instant::from_ticks(240));
        // Group 0 is acked at its ballot, group 1 not at all, and group 2
        // at another ballot of p0's: only group 0 may activate.
        let (b, other) = (Ballot::new(1, ProcessId(0)), Ballot::new(2, ProcessId(0)));
        h.deliver_at(
            Instant::from_ticks(242),
            1,
            ShardMsg::LeaseAcks(vec![(ShardId(0), b, 1), (ShardId(2), other, 1)]),
        );
        let now = Instant::from_ticks(243);
        let active: Vec<bool> =
            h.sm.groups()
                .map(|(_, g)| g.lease_read_allowed(now))
                .collect();
        assert_eq!(active, vec![true, false, false]);
    }

    #[test]
    fn a_granter_acks_the_groups_it_grants_in_one_message_and_nacks_the_rest() {
        let params = ConsensusParams {
            lease: crate::LeaseParams::enabled(),
            ..ConsensusParams::default()
        };
        let mut h = Harness::with_params(1, 3, 3, params);
        h.start();
        // Past the boot blackout, group 1 promises p2's higher ballot.
        let higher = Ballot::new(2, ProcessId(2));
        h.deliver_at(
            Instant::from_ticks(150),
            2,
            ShardMsg::Rsm {
                shard: ShardId(1),
                msg: RsmMsg::Prepare {
                    b: higher,
                    from_slot: 0,
                },
            },
        );
        let b = Ballot::new(1, ProcessId(0));
        let out = h.deliver_at(
            Instant::from_ticks(200),
            0,
            ShardMsg::LeaseGrants(vec![
                (ShardId(0), b, 4),
                (ShardId(1), b, 4),
                (ShardId(2), b, 4),
            ]),
        );
        let to_p0: Vec<&ShardMsg<u64>> = out
            .sends
            .iter()
            .filter(|s| s.to == ProcessId(0))
            .map(|s| &s.msg)
            .collect();
        assert_eq!(
            to_p0,
            vec![
                &ShardMsg::Rsm {
                    shard: ShardId(1),
                    msg: RsmMsg::Nack { b, higher }
                },
                &ShardMsg::LeaseAcks(vec![(ShardId(0), b, 4), (ShardId(2), b, 4)]),
            ],
            "one merged ack for the groups that grant, a group Nack for the one that refuses"
        );
    }

    #[test]
    fn restart_recovers_every_attached_group_from_its_own_segment() {
        let placement = PlacementManager::with_all_attached(PlacementMap::uniform(2, 3));
        let mut stores = BTreeMap::new();
        stores.insert(ShardId(0), StorageHandle::in_memory());
        stores.insert(ShardId(1), StorageHandle::in_memory());
        let omega_store = StorageHandle::in_memory();
        {
            let env = Env::new(ProcessId(0), 3);
            let sm: Node =
                ShardedNode::builder(&env, ConsensusParams::default(), placement.clone())
                    .storage(&stores, omega_store.clone())
                    .build()
                    .expect("fresh stores");
            let mut h = Harness {
                env,
                sm,
                fx: Effects::new(),
            };
            h.start();
            h.promise(1, 0);
            h.promise(1, 1);
            h.request(0, 10);
            h.request(1, 20);
            h.accepted(1, 0, 0);
            h.accepted(1, 1, 0);
            assert_eq!(h.sm.group(ShardId(0)).unwrap().committed_len(), 1);
            assert_eq!(h.sm.group(ShardId(1)).unwrap().committed_len(), 1);
            // Crash: drop the whole node.
        }
        let env = Env::new(ProcessId(0), 3);
        let sm2: Node = ShardedNode::builder(&env, ConsensusParams::default(), placement)
            .storage(&stores, omega_store)
            .build()
            .expect("recover from WALs");
        assert_eq!(
            sm2.group(ShardId(0))
                .unwrap()
                .committed_commands()
                .collect::<Vec<_>>(),
            vec![10],
            "group 0 recovers its own log"
        );
        assert_eq!(
            sm2.group(ShardId(1))
                .unwrap()
                .committed_commands()
                .collect::<Vec<_>>(),
            vec![20],
            "group 1 recovers its own log"
        );
        assert_eq!(
            sm2.omega().own_counter(),
            1,
            "shared Ω rejoins one incarnation above its persisted counter"
        );
    }
}
