//! Repeated consensus: a replicated log in the Multi-Paxos style, gated by
//! the embedded communication-efficient Ω detector.
//!
//! The point of this module is the paper's *communication-efficient
//! consensus* claim: once Ω stabilizes on a leader `ℓ` after GST, `ℓ` runs
//! the ballot (phase-1) handshake **once** for all future slots, and every
//! subsequent command commits in a single `Accept`/`Accepted` round trip —
//! 2(n−1) messages per decision, all sent by or addressed to `ℓ`.
//! Followers learn the decision from `ℓ`'s chosen prefix on the traffic that
//! flows anyway (the next `Accept`, a `ReadIndexReply`, or `ℓ`'s Ω
//! heartbeat). Experiment E7 measures exactly this steady state.
//!
//! Mechanics:
//!
//! * One [`Ballot`] covers every slot from `from_slot` on; acceptors promise
//!   it once and reveal, for every slot at or above it, their highest vote
//!   or — once they know the slot chosen and have dropped its vote — the
//!   chosen entry at the promised ballot (the rule and its safety argument:
//!   [`crate::durable`], "Votes of chosen slots").
//! * The chosen entries from the snapshot watermark to the emission cursor
//!   are kept as their wire encodings in one byte buffer: each is encoded
//!   once, when the cursor reaches it, and decoded only when an old slot is
//!   read. Only slots learned above a gap wait in a map as entries.
//! * A newly `Led` leader re-proposes inherited entries, plugs the gaps left
//!   by its predecessor with [`Entry::Noop`], then drains its pending command
//!   queue into fresh slots.
//! * Every `Accept`, `ReadIndexReply` and Ω heartbeat of an established
//!   leader carries its ballot and chosen prefix; a follower learns each
//!   slot below the prefix for which it holds a vote at that ballot (the
//!   rule and its safety argument: [`crate::durable`], "Learning from the
//!   leader's prefix"). A slot it cannot learn so raises its known frontier
//!   and is pulled with [`RsmMsg::CatchUp`]. Every process emits
//!   [`RsmEvent::Committed`] in strict slot order.
//! * An `Accept` is repeated only when overdue. At each retry tick the
//!   leader re-sends a slot still in flight, to the peers that have not
//!   acked it, once it has been outstanding for more than twice the
//!   smoothed `Accept` → `Accepted` round trip it measures under its
//!   ballot. Only slots sent once give samples (Karn's rule), and before
//!   the ballot's first sample every unacked slot is re-sent. On timely
//!   links each slot therefore costs one `Accept` and one `Accepted` per
//!   follower, and a lost `Accept` is still repaired at the first retry
//!   tick past the threshold.
//!
//! # Throughput path: batching and pipelining
//!
//! The steady-state fast path scales past one-command-per-round-trip with
//! two knobs in [`BatchParams`](omega::BatchParams)
//! (`ConsensusParams::batch`):
//!
//! * **Batching** — up to `max_batch` queued commands coalesce into one
//!   [`Entry::Batch`], decided atomically in a single slot (one accept
//!   round trip, one WAL record for the whole batch);
//! * **Pipelining** — up to `pipeline_depth` slots may be awaiting their
//!   quorums concurrently; commands arriving while the pipeline is full
//!   queue in `pending` and coalesce into the next batch.
//!
//! All new `Accepted` WAL records minted by one pump of the pipeline are
//! persisted as a *single group* ([`StorageHandle::append_records`]) — one
//! `write(2)` per pump on file-backed WALs, not one per slot — so
//! durability does not serialize the pipeline. Neither knob touches safety:
//! every slot is still chosen by the ordinary ballot/quorum rules, a batch
//! is just one entry whose payload happens to hold several commands, and
//! the write-ahead rule (records durable before the handler returns, hence
//! before any `Accept` leaves) is preserved verbatim. Experiment E19 measures the resulting
//! decided-commands/sec and latency percentiles.
//!
//! # Bounded recovery: snapshots, compaction, and snapshot-install catch-up
//!
//! Without compaction the WAL grows with uptime and a restarted replica
//! replays its whole history. With a [`SnapshotHandle`] attached
//! ([`LogBuilder::snapshots`]), the application may call
//! [`ReplicatedLog::compact`] after applying a prefix: the serialized state
//! at `watermark` is installed durably *first* (atomic tmp-then-rename in
//! the file backend), then the WAL is rewritten to only the live records
//! (latest Ω counter, latest promise, chosen entries and the votes of
//! undecided slots at or above the watermark), then the in-memory maps drop
//! the covered prefix. A crash between the two installs replays a superset
//! — never a subset — of the compacted state, so the durable-prefix safety
//! envelope of [`crate::durable`] is preserved (see row "compaction"
//! there).
//!
//! # Catch-up
//!
//! A replica knows it is behind when its known frontier (the highest
//! prefix any peer advertised) or a slot it learned lies past its emission
//! cursor. It pulls the gap one window of [`CATCHUP_BURST`] slots at a
//! time: a [`RsmMsg::CatchUp`] is answered with `Decide`s, and as soon as
//! the cursor passes the window, with the frontier still ahead, the laggard
//! asks the peer that served it for the next one, so a long gap costs one
//! round trip per window and traffic linear in the slots missed. Retry
//! ticks only repair loss: a laggard with no window outstanding, or whose
//! cursor did not move since the last tick, asks the believed leader. A restarted replica asks every peer once. The leader keeps
//! no per-peer or per-slot state for any of this.
//!
//! A laggard whose gap dips *below* a peer's watermark (it was down long
//! enough for the cluster to compact, or it is a fresh replacement) is
//! served a chunked, CRC-checked snapshot transfer instead
//! (`SnapshotOffer`/`SnapshotChunk`/`SnapshotAck`, retransmitted with
//! jittered exponential backoff), installs it, emits
//! [`RsmEvent::SnapshotInstalled`], and resumes windowed catch-up at the
//! watermark. Symmetrically, a *new leader* never no-op-fills a slot below
//! the highest `low_slot` any promiser reported — those slots are chosen
//! somewhere (possibly compacted away); it fetches them by `CatchUp`
//! instead. Experiment E21 exercises all of this under sustained chaos.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;

use lls_obs::{CmdId, CmdStage, NoopProbe, Probe, ProbeEvent};
use lls_primitives::wire::crc32;
use lls_primitives::{
    mix64, Ctx, Duration, Effects, Env, Instant, ProcessId, Sm, Snapshot, SnapshotHandle,
    StorageError, StorageHandle, StorageStats, TimerCmd, TimerId, Wire,
};
use omega::{CommEffOmega, OmegaMsg};

use crate::ballot::Ballot;
use crate::chosen::ChosenLog;
use crate::durable::RsmRecord;
use crate::msg::{Entry, RsmMsg};
use crate::single::{ConsensusParams, OMEGA_TIMER_BASE, RETRY_TIMER};

/// Extracts a client-visible [`CmdId`] from a command payload, letting the
/// replicated log emit per-command [`CmdStage`] lifecycle events without
/// knowing the application's command shape. Payloads without a meaningful
/// identity return `None` and stay invisible to latency attribution (their
/// slots still decide and commit exactly as before).
pub trait LifecycleId {
    /// The command's lifecycle identity, if it has one.
    fn lifecycle_id(&self) -> Option<CmdId>;
}

/// Bare `u64` payloads (the benches and consensus tests) use the value
/// itself as the sequence number under a synthetic client 0.
impl LifecycleId for u64 {
    fn lifecycle_id(&self) -> Option<CmdId> {
        Some(CmdId {
            client: 0,
            seq: *self,
        })
    }
}

/// Observable events of a [`ReplicatedLog`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmEvent<V> {
    /// The embedded Ω detector changed its output.
    Leader(ProcessId),
    /// Slot `slot` committed (emitted in strict slot order at each process).
    /// `cmd` is `None` for no-op filler slots.
    Committed {
        /// The slot index.
        slot: u64,
        /// The committed command, if not a no-op.
        cmd: Option<V>,
    },
    /// A snapshot transfer completed: the application must replace its
    /// materialized state with `state` (its own serialization at
    /// `watermark`) before consuming any further `Committed` events — the
    /// log prefix below the watermark will never be emitted here.
    SnapshotInstalled {
        /// First slot not covered by the installed state.
        watermark: u64,
        /// The application state blob, exactly as a peer serialized it.
        state: Vec<u8>,
    },
    /// Answer to [`ReplicatedLog::request_read_index`]: the read tagged
    /// `req` is linearizable once this replica has applied `index`
    /// contiguous slots. Produced locally by a leaseholding leader, or on
    /// receipt of the leaseholder's [`RsmMsg::ReadIndexReply`].
    ReadIndexAt {
        /// The request token passed to `request_read_index`.
        req: u64,
        /// The committed length to wait for before serving the read.
        index: u64,
    },
}

impl<V> RsmEvent<V> {
    /// The leader a `Leader` event names; `None` for every other event.
    pub fn leader(&self) -> Option<ProcessId> {
        match self {
            RsmEvent::Leader(l) => Some(*l),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
enum LeaderState<V> {
    Follower,
    Preparing {
        b: Ballot,
        from_slot: u64,
        promised_by: Vec<bool>,
        gathered: BTreeMap<u64, (Ballot, Entry<V>)>,
        /// Each promiser's `low_slot` (first slot it does not know chosen).
        /// Slots below the max over the promising quorum are chosen
        /// *somewhere* and must never be no-op-filled.
        low_slots: Vec<u64>,
    },
    Led {
        b: Ballot,
        next_slot: u64,
        /// Smoothed `Accept` → `Accepted` round trip under `b`, in eighths
        /// of a tick; `None` until the ballot's first sample.
        srtt8: Option<u64>,
    },
}

#[derive(Debug, Clone)]
struct Inflight<V> {
    entry: Entry<V>,
    acks: Vec<bool>,
    /// When the `Accept` last left.
    sent_at: Instant,
    /// Whether it left more than once: its acks then time no round trip
    /// (Karn's rule), since they may answer either copy.
    resent: bool,
}

/// Bytes per [`RsmMsg::SnapshotChunk`] — small enough to stay far below the
/// wire codec's frame cap with envelope overhead, large enough that real
/// state blobs move in few round trips.
const SNAP_CHUNK_BYTES: usize = 32 * 1024;

/// Retransmission rounds before an outgoing snapshot transfer is abandoned
/// (a fresh `CatchUp` from the peer restarts it from scratch).
const SNAP_MAX_ATTEMPTS: u32 = 10;

/// Max `Decide`s served per `CatchUp` request: one catch-up window. The
/// laggard asks for the next window as soon as its cursor passes this one
/// while its known frontier is still ahead, so a long gap streams at one
/// window per round trip and one huge burst never floods a link.
pub const CATCHUP_BURST: u64 = 128;

/// Sender side of one snapshot transfer to one peer.
#[derive(Debug, Clone)]
struct OutgoingSnapshot {
    watermark: u64,
    crc: u32,
    chunks: Vec<Vec<u8>>,
    acked: Vec<bool>,
    attempt: u32,
    cooldown: u32,
}

/// Receiver side of the (single) in-progress snapshot transfer.
#[derive(Debug, Clone)]
struct IncomingSnapshot {
    watermark: u64,
    chunks: u32,
    crc: u32,
    parts: Vec<Option<Vec<u8>>>,
}

/// A replicated log: repeated consensus with a stable-leader fast path.
///
/// # Example
///
/// ```
/// use consensus::{ReplicatedLog, ConsensusParams, RsmEvent};
/// use lls_primitives::{Duration, Instant, ProcessId};
/// use netsim::{SimBuilder, Topology};
///
/// let n = 3;
/// let mut sim = SimBuilder::new(n)
///     .topology(Topology::all_timely(n, Duration::from_ticks(2)))
///     .request_at(Instant::from_ticks(500), ProcessId(0), 7u64)
///     .request_at(Instant::from_ticks(600), ProcessId(0), 8u64)
///     .build_with(|env| ReplicatedLog::new(env, ConsensusParams::default()));
/// sim.run_until(Instant::from_ticks(5_000));
/// let committed: Vec<u64> = sim.node(ProcessId(1)).committed_commands().collect();
/// assert_eq!(committed, vec![7, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedLog<V, P: Probe = NoopProbe> {
    env: Env,
    params: ConsensusParams,
    omega: CommEffOmega<P>,
    // Acceptor state.
    promised: Ballot,
    accepted: BTreeMap<u64, (Ballot, Entry<V>)>,
    // Learner state: chosen entries from the snapshot watermark on. Its
    // cursor is the emission cursor; between handlers it is the end of the
    // chosen log's contiguous run.
    chosen: ChosenLog<V>,
    // Leader state.
    state: LeaderState<V>,
    highest_seen: Ballot,
    pending: VecDeque<V>,
    inflight: BTreeMap<u64, Inflight<V>>,
    /// Highest log frontier overheard from peers: a leader's advertised
    /// chosen prefix, a `CatchUp { low_slot }` (its sender has emitted
    /// everything below `low_slot`), or a snapshot offer's watermark.
    /// Evidence that slots up to the frontier are chosen even when we hold
    /// nothing above our cursor.
    known_frontier: u64,
    /// End of the catch-up window last requested: once the cursor passes
    /// it, a laggard still behind asks for the next window.
    catchup_end: u64,
    /// The emission cursor at the last retry tick; a laggard whose cursor
    /// has not moved since then lost its catch-up and asks again.
    cursor_at_tick: u64,
    // Durability (see `crate::durable` for the safety arguments).
    storage: Option<StorageHandle>,
    wedged: bool,
    // Snapshots + compaction (see the module docs). The snapshot watermark
    // is the base of `chosen`.
    snapshots: Option<SnapshotHandle>,
    /// The snapshot [`LogBuilder::snapshots`] recovered at build time,
    /// for the application to rebuild its state from.
    recovered_snapshot: Option<Snapshot>,
    /// Whether this incarnation recovered non-empty durable state (it then
    /// broadcasts one `CatchUp` on start to find where the log has moved,
    /// and sits out the lease boot blackout).
    recovered: bool,
    outgoing_snaps: BTreeMap<ProcessId, OutgoingSnapshot>,
    incoming_snap: Option<IncomingSnapshot>,
    // External-leadership mode: the embedded Ω is inert and leadership is
    // injected via `set_leader` (one shared Ω per node drives many groups).
    external: bool,
    believed: Option<ProcessId>,
    // Leader leases (see `LeaseParams`). All of this state is *volatile by
    // design*: a restarted replica forgets both sides of every lease, and
    // the boot blackout in `on_start` covers the forgotten promises.
    /// Granter side: until when this replica refuses to promise (or start)
    /// a ballot from anyone but `holdoff_for` on its own clock.
    holdoff_until: Instant,
    /// The leaseholder the current holdoff protects (`None` during the
    /// boot blackout, which protects *whoever* held a lease pre-crash).
    holdoff_for: Option<ProcessId>,
    /// Leader side: conservative local expiry of the active lease.
    lease_until: Option<Instant>,
    /// Grant-round number, monotone within this incarnation and ballot.
    lease_seq: u64,
    /// Start of the in-flight grant round on this (leader) clock — the
    /// anchor the serving window is measured from.
    lease_round_start: Instant,
    /// Per-process acks of the in-flight grant round.
    lease_acks: Vec<bool>,
    /// Shard tag stamped on lease/read probe events (0 when unsharded; a
    /// log embedded in a sharded node doesn't otherwise know its group).
    probe_shard: u32,
    /// Observability sink; `NoopProbe` by default (zero cost).
    probe: P,
    /// Wall of the last stimulus (`ctx.now()` at handler entry) — gives the
    /// persistence path a timestamp without threading `ctx` through it.
    clock: Instant,
}

impl<V> ReplicatedLog<V>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
{
    /// Creates an in-memory replica led by its embedded Ω.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new(env: &Env, params: ConsensusParams) -> Self {
        ReplicatedLog::builder(env, params)
            .build()
            .expect("a log without storage cannot fail to build")
    }

    /// Starts building a replica with any of a durable log, a snapshot
    /// store, an observability probe and external leadership (see
    /// [`LogBuilder`]).
    pub fn builder(env: &Env, params: ConsensusParams) -> LogBuilder<V> {
        LogBuilder {
            env: *env,
            params,
            storage: None,
            snapshots: None,
            probe: NoopProbe,
            externally_led: false,
            _cmds: PhantomData,
        }
    }
}

/// Builds a [`ReplicatedLog`]; start from [`ReplicatedLog::builder`].
/// Every part is optional, and [`LogBuilder::build`] assembles them in one
/// fixed order: the in-memory replica, then WAL recovery, then the
/// snapshot floor, then the leadership mode.
#[derive(Debug)]
#[must_use = "a builder does nothing until `build` is called"]
pub struct LogBuilder<V, P: Probe = NoopProbe> {
    env: Env,
    params: ConsensusParams,
    storage: Option<StorageHandle>,
    snapshots: Option<SnapshotHandle>,
    probe: P,
    externally_led: bool,
    _cmds: PhantomData<fn() -> V>,
}

impl<V, P> LogBuilder<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    /// Backs the replica with a durable log, recovering the promised
    /// ballot, accepted entries, chosen prefix and Ω counter a previous
    /// incarnation persisted.
    ///
    /// Recovery runs synchronously before any stimulus (the "recovering
    /// rejoin mode"). Recovered chosen slots are restored *without*
    /// re-emitting their `Committed` outputs — the pre-crash incarnation
    /// already emitted them; applications rebuilding state after a restart
    /// read [`ReplicatedLog::chosen_log`] /
    /// [`ReplicatedLog::committed_commands`] instead. The recovered Ω
    /// counter is bumped once so the restarted replica rejoins as a
    /// follower. See [`crate::durable`] for the per-field safety arguments.
    pub fn storage(mut self, storage: StorageHandle) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Attaches a snapshot store: any snapshot it holds floors the
    /// replica's watermark (WAL records below it are covered by the
    /// snapshot and ignored), and [`ReplicatedLog::compact`] becomes
    /// available. The recovered snapshot blob is exposed through
    /// [`ReplicatedLog::recovered_snapshot`] for the application to
    /// rebuild its state from.
    pub fn snapshots(mut self, snapshots: SnapshotHandle) -> Self {
        self.snapshots = Some(snapshots);
        self
    }

    /// Attaches an observability probe, shared with the embedded Ω
    /// detector so one sink sees both layers.
    pub fn probe<Q: Probe>(self, probe: Q) -> LogBuilder<V, Q> {
        LogBuilder {
            env: self.env,
            params: self.params,
            storage: self.storage,
            snapshots: self.snapshots,
            probe,
            externally_led: self.externally_led,
            _cmds: PhantomData,
        }
    }

    /// Builds the replica in *external-leadership* mode: the embedded Ω
    /// detector stays inert (no heartbeats, no timers, Ω messages dropped)
    /// and leadership is injected with [`ReplicatedLog::set_leader`]
    /// instead. The log arms no retry timer either: its host runs the
    /// retry step on its own timer. This is how a node hosting many
    /// co-located shard groups shares **one** Ω and one retry timer across
    /// all of them — steady-state election and lease traffic stay
    /// independent of the group count. A durable group recovers its own WAL
    /// segment exactly as usual, then waits for leadership from the shared
    /// detector.
    pub fn externally_led(mut self) -> Self {
        self.externally_led = true;
        self
    }

    /// Builds the replica.
    ///
    /// # Errors
    ///
    /// Fails if the log or snapshot store cannot be read, or the boot
    /// record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn build(self) -> Result<ReplicatedLog<V, P>, StorageError> {
        let env = self.env;
        let mut sm = ReplicatedLog {
            env,
            params: self.params,
            omega: CommEffOmega::new_with_probe(&env, self.params.omega, self.probe.clone()),
            promised: Ballot::ZERO,
            accepted: BTreeMap::new(),
            chosen: ChosenLog::new(),
            state: LeaderState::Follower,
            highest_seen: Ballot::ZERO,
            pending: VecDeque::new(),
            inflight: BTreeMap::new(),
            known_frontier: 0,
            catchup_end: 0,
            cursor_at_tick: 0,
            storage: None,
            wedged: false,
            snapshots: None,
            recovered_snapshot: None,
            recovered: false,
            outgoing_snaps: BTreeMap::new(),
            incoming_snap: None,
            external: false,
            believed: None,
            holdoff_until: Instant::ZERO,
            holdoff_for: None,
            lease_until: None,
            lease_seq: 0,
            lease_round_start: Instant::ZERO,
            lease_acks: vec![false; env.n()],
            probe_shard: 0,
            probe: self.probe,
            clock: Instant::ZERO,
        };
        if let Some(storage) = self.storage {
            sm.recover_wal(storage)?;
        }
        if let Some(snapshots) = self.snapshots {
            sm.attach_snapshots(snapshots)?;
        }
        sm.external = self.externally_led;
        Ok(sm)
    }
}

impl<V, P> ReplicatedLog<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    /// Replays the durable log into a fresh replica, writes the boot
    /// record, and keeps the handle for persistence (see
    /// [`LogBuilder::storage`]).
    fn recover_wal(&mut self, storage: StorageHandle) -> Result<(), StorageError> {
        let records = storage.load()?;
        self.probe.emit(ProbeEvent::WalRecover {
            node: self.me(),
            at: Instant::ZERO,
            records: records.len() as u64,
        });
        // The WAL bytes just replayed are exactly what snapshots exist to
        // bound — surfaced as the `recovery_replay_bytes` counter.
        self.probe.emit(ProbeEvent::RecoveryReplay {
            node: self.me(),
            at: Instant::ZERO,
            bytes: storage.stats().live_bytes,
        });
        let recovering = !records.is_empty();
        self.recovered = recovering;
        let mut omega_counter = 0u64;
        for blob in &records {
            let (rec, encoding) = RsmRecord::decode_stored(blob)?;
            match rec {
                RsmRecord::OmegaCounter(c) => omega_counter = omega_counter.max(c),
                RsmRecord::Promised(b) => self.promised = self.promised.max(b),
                // A chosen slot keeps no vote (see `crate::durable`, "Votes
                // of chosen slots"), whichever of its records comes first.
                RsmRecord::Accepted { slot, b, entry } => {
                    self.promised = self.promised.max(b);
                    let highest = self.accepted.get(&slot).is_none_or(|(prev, _)| *prev <= b);
                    if highest && !self.chosen.contains(slot) {
                        self.accepted.insert(slot, (b, entry));
                    }
                }
                RsmRecord::Chosen { slot, entry } => {
                    self.chosen.insert_encoded(slot, entry, encoding);
                    self.accepted.remove(&slot);
                }
            }
        }
        self.highest_seen = self.promised;
        // Quietly advance past the contiguous recovered prefix: those
        // Committed events were already emitted by the previous incarnation.
        while self.chosen.emit().is_some() {}
        let boot_counter = if recovering {
            omega_counter.saturating_add(1)
        } else {
            0
        };
        storage.append_record(&RsmRecord::<V>::OmegaCounter(boot_counter))?;
        self.omega.restore_own_counter(boot_counter);
        self.storage = Some(storage);
        Ok(())
    }

    /// Loads the snapshot store's current snapshot (if any), floors the
    /// replica at its watermark, and keeps the handle for
    /// [`ReplicatedLog::compact`].
    fn attach_snapshots(&mut self, snapshots: SnapshotHandle) -> Result<(), StorageError> {
        if let Some(snap) = snapshots.load()? {
            self.recovered = true;
            self.apply_watermark(snap.watermark);
            // Quiet advance, as in WAL recovery: the pre-crash incarnation
            // already emitted everything contiguous above the watermark.
            while self.chosen.emit().is_some() {}
            self.recovered_snapshot = Some(snap);
        }
        self.snapshots = Some(snapshots);
        Ok(())
    }

    /// Floors the replica at `watermark`: drops acceptor/learner state below
    /// it (all of it is chosen and covered by a snapshot), which advances
    /// the emission cursor to at least the watermark. Emits nothing —
    /// callers on the live path drain committed events themselves *after*
    /// announcing the snapshot.
    fn apply_watermark(&mut self, watermark: u64) {
        if watermark <= self.watermark() {
            return;
        }
        self.accepted = self.accepted.split_off(&watermark);
        self.chosen.truncate_front(watermark);
    }

    /// The records that must survive a WAL rewrite at the current horizon:
    /// the latest Ω counter and promise, and every accepted/chosen entry at
    /// or above the watermark.
    fn live_records(&self) -> Vec<RsmRecord<V>> {
        let mut live: Vec<RsmRecord<V>> =
            Vec::with_capacity(2 + self.accepted.len() + self.chosen.len());
        live.push(RsmRecord::OmegaCounter(self.omega.own_counter()));
        live.push(RsmRecord::Promised(self.promised));
        for (slot, (b, entry)) in &self.accepted {
            live.push(RsmRecord::Accepted {
                slot: *slot,
                b: *b,
                entry: entry.clone(),
            });
        }
        for (slot, entry) in self.chosen.iter_from(0) {
            live.push(RsmRecord::Chosen { slot, entry });
        }
        live
    }

    /// Durably snapshots the application's serialized `state` at `watermark`
    /// and truncates the WAL behind it, bounding both disk use and future
    /// recovery replay. Ordering is the whole safety argument: the snapshot
    /// is installed durably *first*, then the WAL is rewritten to only the
    /// live records, then the in-memory maps drop the covered prefix — a
    /// crash between any two steps recovers a superset of the compacted
    /// state. `watermark` is clamped to the contiguously committed prefix
    /// (state can only describe applied slots).
    ///
    /// Returns `Ok(false)` (and does nothing) when no snapshot store is
    /// attached, the replica is wedged, or the clamped watermark does not
    /// advance. Call it from the application after applying commands — e.g.
    /// every N applied commands.
    ///
    /// # Errors
    ///
    /// Fails (wedging the replica, on the WAL-rewrite step) if persistence
    /// fails — a replica that cannot compact safely must fall silent rather
    /// than risk serving an uncovered prefix.
    pub fn compact(&mut self, watermark: u64, state: Vec<u8>) -> Result<bool, StorageError> {
        if self.wedged {
            return Ok(false);
        }
        let Some(snaps) = self.snapshots.clone() else {
            return Ok(false);
        };
        let watermark = watermark.min(self.chosen.cursor());
        if watermark <= self.watermark() {
            return Ok(false);
        }
        // 1. Snapshot durable first.
        snaps.install(&Snapshot {
            watermark,
            data: state,
        })?;
        // 2. In-memory horizon defines the live set…
        self.apply_watermark(watermark);
        // 3. …and the WAL is rewritten to exactly that set.
        if let Some(store) = self.storage.clone() {
            if let Err(e) = store.compact_records(&self.live_records()) {
                self.probe.emit(ProbeEvent::WalWedge {
                    node: self.me(),
                    at: self.clock,
                });
                self.wedged = true;
                return Err(e);
            }
        }
        self.probe.emit(ProbeEvent::SnapshotWrite {
            node: self.me(),
            at: self.clock,
            watermark,
            live_bytes: self.wal_stats().live_bytes,
        });
        Ok(true)
    }

    /// First slot not covered by the latest durable snapshot (0 when no
    /// compaction has happened).
    pub fn watermark(&self) -> u64 {
        self.chosen.base()
    }

    /// Live/appended byte counts of the attached WAL (zeros when none) —
    /// what E21 gates its disk-bound claim on.
    pub fn wal_stats(&self) -> StorageStats {
        self.storage
            .as_ref()
            .map(StorageHandle::stats)
            .unwrap_or_default()
    }

    /// The snapshot recovered at construction, if any — the application
    /// rebuilds its state from this blob, then replays
    /// [`ReplicatedLog::committed_commands_from`] the watermark on.
    pub fn recovered_snapshot(&self) -> Option<&Snapshot> {
        self.recovered_snapshot.as_ref()
    }

    /// Appends `rec` to the durable log, if one is attached; wedges the
    /// machine on failure (a replica that cannot persist must fall silent).
    fn persist(&mut self, rec: &RsmRecord<V>) -> bool {
        if self.wedged {
            return false;
        }
        match &self.storage {
            None => true,
            Some(store) => {
                if store.append_record(rec).is_ok() {
                    self.probe.emit(ProbeEvent::WalAppend {
                        node: self.env.id(),
                        at: self.clock,
                    });
                    true
                } else {
                    self.probe.emit(ProbeEvent::WalWedge {
                        node: self.env.id(),
                        at: self.clock,
                    });
                    self.wedged = true;
                    false
                }
            }
        }
    }

    /// Appends `recs` to the durable log as one group commit — a single
    /// `write(2)` on file-backed WALs, however many slots the pipeline pump
    /// minted — if storage is attached; wedges the machine on failure. An
    /// empty group is a no-op.
    fn persist_group(&mut self, recs: &[RsmRecord<V>]) -> bool {
        if self.wedged {
            return false;
        }
        if recs.is_empty() {
            return true;
        }
        match &self.storage {
            None => true,
            Some(store) => {
                if store.append_records(recs).is_ok() {
                    // One probe event per record keeps the wal_append counter
                    // meaning "records persisted", not "flushes issued".
                    for _ in recs {
                        self.probe.emit(ProbeEvent::WalAppend {
                            node: self.env.id(),
                            at: self.clock,
                        });
                    }
                    true
                } else {
                    self.probe.emit(ProbeEvent::WalWedge {
                        node: self.env.id(),
                        at: self.clock,
                    });
                    self.wedged = true;
                    false
                }
            }
        }
    }

    /// Emits one [`CmdStage`] lifecycle event per identifiable command in
    /// `entry`. Guarded by [`Probe::ENABLED`] so `NoopProbe` builds never
    /// walk batch payloads — the command hot path stays exactly as wide as
    /// before this instrumentation existed.
    fn emit_stage(&mut self, at: Instant, entry: &Entry<V>, stage: CmdStage) {
        if !P::ENABLED {
            return;
        }
        match entry {
            Entry::Noop => {}
            Entry::Cmd(v) => self.emit_cmd_stage(at, v, stage),
            Entry::Batch(vs) => {
                for v in vs {
                    self.emit_cmd_stage(at, v, stage);
                }
            }
        }
    }

    fn emit_cmd_stage(&mut self, at: Instant, v: &V, stage: CmdStage) {
        if let Some(cmd) = v.lifecycle_id() {
            self.probe.emit(ProbeEvent::CmdLifecycle {
                node: self.me(),
                at,
                cmd,
                stage,
                // The log is shard-agnostic; the client-side router stamps
                // the true shard on its ShardRoute event and path
                // reconstruction takes the max over a command's events.
                shard: 0,
            });
        }
    }

    /// The attached observability probe — layered emitters (e.g. the KV
    /// replica stamping the `Apply` lifecycle stage) share the log's sink
    /// so one recorder sees a command's whole path.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The embedded Ω detector (for instrumentation).
    pub fn omega(&self) -> &CommEffOmega<P> {
        &self.omega
    }

    /// `true` if this log runs in external-leadership mode (embedded Ω
    /// inert, leadership injected via [`ReplicatedLog::set_leader`]).
    pub fn is_externally_led(&self) -> bool {
        self.external
    }

    /// Injects the current leader from an external detector (the shared
    /// per-node Ω of a sharded deployment). Emits [`RsmEvent::Leader`] and
    /// runs the same prepare/abdicate transition the embedded Ω output
    /// would: becoming leader starts phase 1 once, losing leadership drops
    /// in-flight proposals. Repeated injections of the same leader are
    /// no-ops. Ignored unless the log is in external-leadership mode.
    pub fn set_leader(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, leader: ProcessId) {
        self.clock = ctx.now();
        if !self.external || self.wedged || self.believed == Some(leader) {
            return;
        }
        self.believed = Some(leader);
        ctx.output(RsmEvent::Leader(leader));
        if leader == self.me() {
            if matches!(self.state, LeaderState::Follower) {
                self.start_prepare(ctx);
            }
        } else {
            self.abdicate(ctx.now());
        }
    }

    /// Whether this replica currently believes it should lead: the external
    /// detector's word in external mode, the embedded Ω's otherwise.
    fn believes_leadership(&self) -> bool {
        if self.external {
            self.believed == Some(self.me())
        } else {
            self.omega.is_leader()
        }
    }

    /// Returns `true` if this replica currently leads with an established
    /// ballot (steady-state fast path active).
    pub fn is_established_leader(&self) -> bool {
        matches!(self.state, LeaderState::Led { .. })
    }

    /// Number of contiguously committed slots.
    pub fn committed_len(&self) -> u64 {
        self.chosen.cursor()
    }

    /// Stamps lease/read probe events with `shard`. Sharded nodes call this
    /// once per group at construction; unsharded logs stay at 0.
    pub(crate) fn set_probe_shard(&mut self, shard: u32) {
        self.probe_shard = shard;
    }

    /// Whether the lease plane is configured on at all (see
    /// [`crate::LeaseParams::enabled`]); the fast read path is only wired
    /// up when it is.
    pub fn lease_enabled(&self) -> bool {
        self.params.lease.enabled
    }

    /// Whether this replica may serve a linearizable read locally *right
    /// now*: leases are on, it is an established leader, and its
    /// quorum-acked lease has not reached its conservative local expiry.
    pub fn lease_read_allowed(&self, now: Instant) -> bool {
        self.params.lease.enabled
            && matches!(self.state, LeaderState::Led { .. })
            && self.lease_until.is_some_and(|until| now < until)
    }

    /// Conservative local expiry of the active lease, if one is held.
    pub fn lease_active_until(&self) -> Option<Instant> {
        self.lease_until
    }

    /// Starts (or re-starts) a follower read: asks the believed leader at
    /// what committed length a read issued now is linearizable; the answer
    /// arrives as [`RsmEvent::ReadIndexAt`] (synchronously when this
    /// replica itself holds the lease). A no-op without a believed leader,
    /// and the request travels over fair-lossy links — callers re-issue on
    /// their own retry cadence until the event arrives.
    pub fn request_read_index(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, req: u64) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if self.lease_read_allowed(ctx.now()) {
            let index = self.chosen.cursor();
            ctx.output(RsmEvent::ReadIndexAt { req, index });
            return;
        }
        if let Some(leader) = self.believed_leader() {
            if leader != self.me() {
                ctx.send(leader, RsmMsg::ReadIndex { req });
            }
        }
    }

    /// The leader this replica currently believes in: the external
    /// detector's word in external mode, the embedded Ω's otherwise.
    fn believed_leader(&self) -> Option<ProcessId> {
        if self.external {
            self.believed
        } else {
            Some(self.omega.leader())
        }
    }

    /// The ballot and chosen prefix this replica advertises on its traffic:
    /// only an established leader advertises (see [`crate::durable`],
    /// "Learning from the leader's prefix").
    pub(crate) fn advertised_prefix(&self) -> Option<(Ballot, u64)> {
        match self.state {
            LeaderState::Led { b, .. } => Some((b, self.chosen.cursor())),
            _ => None,
        }
    }

    /// Leader-side serving margin: how far past a grant round's start the
    /// leader may serve lease-reads. Conservative by `skew` — unless the
    /// test-only sabotage switch inverts the margin (see
    /// [`crate::LeaseParams::unsafe_skew_inversion`]).
    fn lease_serve_margin(&self) -> Duration {
        let lease = &self.params.lease;
        if lease.unsafe_skew_inversion {
            lease.duration + lease.skew
        } else {
            lease.duration - lease.skew
        }
    }

    /// Granter-side holdoff margin: how long past a grant's receipt the
    /// granter refuses competing elections. Generous by `skew` (inverted by
    /// the sabotage switch).
    fn lease_grant_margin(&self) -> Duration {
        let lease = &self.params.lease;
        if lease.unsafe_skew_inversion {
            lease.duration - lease.skew
        } else {
            lease.duration + lease.skew
        }
    }

    /// Whether this replica is currently holding off elections on behalf of
    /// a leaseholder other than itself — in which case it must neither
    /// promise a competing ballot nor start one (its own self-promise would
    /// bypass the `Prepare` gate and break quorum intersection).
    fn holding_off_for_other(&self, now: Instant) -> bool {
        now < self.holdoff_until && self.holdoff_for != Some(self.me())
    }

    /// One lease grant/renewal round, riding every retry tick while `Led`:
    /// a fresh `seq`, a fresh ack vector, a fresh expiry anchored at *this*
    /// round's start. Also lets an already-expired lease lapse observably
    /// before the new round begins.
    fn lease_tick(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, b: Ballot) {
        if !self.params.lease.enabled {
            return;
        }
        self.note_lease_lapse(ctx.now());
        // A holdoff owed to another holder (or the boot blackout) outranks
        // our own renewal: flipping `holdoff_for` back to ourselves here
        // would usurp a promise this replica's acceptor already made to a
        // newer leader, and after abdication it could then elect itself
        // inside that holder's live lease window. Skip the whole round —
        // a stale leader learns of the higher ballot from the Nacks its
        // grants (or Accepts) draw and abdicates.
        if self.holding_off_for_other(ctx.now()) {
            return;
        }
        self.lease_seq += 1;
        self.lease_round_start = ctx.now();
        self.lease_acks = vec![false; self.env.n()];
        let me = self.me().as_usize();
        self.lease_acks[me] = true;
        // The leader grants to itself on the same terms as everyone else:
        // its own acceptor must block competing ballots while its lease
        // runs, or a quorum intersecting only at the leader would not
        // intersect the holdoff at all.
        let self_holdoff = ctx.now() + self.lease_grant_margin();
        self.holdoff_until = self.holdoff_until.max(self_holdoff);
        self.holdoff_for = Some(self.me());
        let seq = self.lease_seq;
        for q in self.env.membership().others(self.me()) {
            ctx.send(q, RsmMsg::LeaseGrant { b, seq });
        }
        // n == 1: the self-ack already is a quorum.
        self.try_activate_lease(ctx.now());
    }

    /// Activates (or extends) the lease once the current grant round has a
    /// majority of acks. Emitted once per activating round — every renewal
    /// advances the window, so the watchdog's `until` tracking stays fresh.
    fn try_activate_lease(&mut self, now: Instant) {
        if self.lease_acks.iter().filter(|a| **a).count() < self.majority() {
            return;
        }
        let until = self.lease_round_start + self.lease_serve_margin();
        if self.lease_until.is_none_or(|u| until > u) {
            self.lease_until = Some(until);
            self.probe.emit(ProbeEvent::LeaseAcquired {
                node: self.me(),
                at: now,
                shard: self.probe_shard,
                seq: self.lease_seq,
                until,
            });
        }
    }

    /// Observably drops a lease whose conservative expiry has passed.
    fn note_lease_lapse(&mut self, now: Instant) {
        if self.lease_until.is_some_and(|until| now >= until) {
            self.lease_until = None;
            self.probe.emit(ProbeEvent::LeaseExpired {
                node: self.me(),
                at: now,
                shard: self.probe_shard,
                seq: self.lease_seq,
            });
        }
    }

    /// The chosen entry of `slot`, if this replica learned it.
    pub fn chosen(&self, slot: u64) -> Option<Entry<V>> {
        self.chosen.get(slot)
    }

    /// This acceptor's highest vote for `slot`, if it holds one. A slot
    /// known chosen holds none: its vote is dropped once the slot is learned
    /// (see [`crate::durable`], "Votes of chosen slots").
    pub fn vote(&self, slot: u64) -> Option<(Ballot, &Entry<V>)> {
        self.accepted.get(&slot).map(|(b, e)| (*b, e))
    }

    /// All contiguously committed client commands in slot order (no-ops
    /// skipped; batched slots contribute each of their commands in batch
    /// order).
    pub fn committed_commands(&self) -> impl Iterator<Item = V> + '_ {
        self.committed_commands_from(0)
    }

    /// Contiguously committed client commands from slot `from` on — the
    /// replay iterator for a replica rebuilding state on top of a snapshot
    /// (pass the snapshot's watermark; slots below it were compacted away).
    pub fn committed_commands_from(&self, from: u64) -> impl Iterator<Item = V> + '_ {
        self.chosen
            .run_range(from, self.chosen.cursor())
            .flat_map(|(_, e)| e.into_commands())
    }

    /// Commands queued locally but not yet committed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of slots proposed but not yet chosen (the occupied pipeline
    /// window; only ever non-zero at an established leader).
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The full chosen map (slot → single command), for the log-consistency
    /// checker. Like no-ops, batched slots map to `None` — a batch is not
    /// *one* command; use [`Self::chosen_entries`] for the lossless view.
    pub fn chosen_log(&self) -> BTreeMap<u64, Option<V>> {
        self.chosen
            .iter_from(0)
            .map(|(s, e)| (s, e.command().cloned()))
            .collect()
    }

    /// The full chosen map (slot → entry), lossless: batched slots keep
    /// their whole command vectors. The consistency check for batched runs
    /// compares these maps across replicas.
    pub fn chosen_entries(&self) -> BTreeMap<u64, Entry<V>> {
        self.chosen.iter_from(0).collect()
    }

    fn me(&self) -> ProcessId {
        self.env.id()
    }

    fn majority(&self) -> usize {
        self.env.membership().majority()
    }

    /// What a promise of `b` reveals from `from_slot` on: the highest vote
    /// of every slot not known chosen, and every slot known chosen as its
    /// chosen entry at `b` itself (see `crate::durable`, "Votes of chosen
    /// slots"). Both promise paths — the `Prepare` handler and a new
    /// leader's self-promise — reveal exactly this.
    fn promise_suffix(&self, b: Ballot, from_slot: u64) -> Vec<(u64, Ballot, Entry<V>)> {
        let votes = self
            .accepted
            .range(from_slot..)
            .map(|(s, (ab, e))| (*s, *ab, e.clone()));
        let chosen = self.chosen.iter_from(from_slot).map(|(s, e)| (s, b, e));
        votes.chain(chosen).collect()
    }

    fn drive_omega(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        step: impl FnOnce(&mut CommEffOmega<P>, &mut Ctx<'_, OmegaMsg, ProcessId>),
    ) {
        let mut fx: Effects<OmegaMsg, ProcessId> = Effects::new();
        let counter_before = self.omega.own_counter();
        {
            let mut octx = Ctx::new(&self.env, ctx.now(), &mut fx);
            step(&mut self.omega, &mut octx);
        }
        // Write-ahead: the bumped counter must be durable before any message
        // revealing it can leave (effects are drained after we return).
        let counter_after = self.omega.own_counter();
        if counter_after != counter_before && !self.persist(&RsmRecord::OmegaCounter(counter_after))
        {
            return;
        }
        let prefix = self.advertised_prefix();
        for s in fx.sends {
            ctx.send(s.to, RsmMsg::Omega(s.msg, prefix));
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
            ctx.output(RsmEvent::Leader(leader));
            if leader == self.me() {
                if matches!(self.state, LeaderState::Follower) {
                    self.start_prepare(ctx);
                }
            } else {
                self.abdicate(ctx.now());
            }
        }
    }

    fn abdicate(&mut self, now: Instant) {
        if let LeaderState::Preparing { b, .. } | LeaderState::Led { b, .. } = &self.state {
            self.probe.emit(ProbeEvent::PhaseEnter {
                node: self.me(),
                at: now,
                label: "follower",
                number: b.round(),
            });
        }
        self.state = LeaderState::Follower;
        self.inflight.clear();
        // A deposed leader must stop serving lease-reads immediately — the
        // Nack that deposed it proves a higher ballot exists.
        if self.lease_until.take().is_some() {
            self.probe.emit(ProbeEvent::LeaseExpired {
                node: self.me(),
                at: now,
                shard: self.probe_shard,
                seq: self.lease_seq,
            });
        }
    }

    fn start_prepare(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        // A granter inside someone else's holdoff must not elect itself:
        // its self-promise would bypass the `Prepare` gate below and break
        // the quorum-intersection argument. Retry ticks re-attempt after
        // the holdoff expires.
        if self.holding_off_for_other(self.clock) {
            return;
        }
        let b = self.highest_seen.max(self.promised).next_for(self.me());
        if !self.persist(&RsmRecord::Promised(b)) {
            return;
        }
        self.highest_seen = b;
        let from_slot = self.chosen.cursor();
        // Self-promise, revealing our own suffix like any promiser.
        self.promised = b;
        let mut promised_by = vec![false; self.env.n()];
        promised_by[self.me().as_usize()] = true;
        let gathered: BTreeMap<u64, (Ballot, Entry<V>)> = self
            .promise_suffix(b, from_slot)
            .into_iter()
            .map(|(s, ab, e)| (s, (ab, e)))
            .collect();
        let mut low_slots = vec![0u64; self.env.n()];
        low_slots[self.me().as_usize()] = self.chosen.cursor();
        self.state = LeaderState::Preparing {
            b,
            from_slot,
            promised_by,
            gathered,
            low_slots,
        };
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.me(),
            at: ctx.now(),
            label: "prepare",
            number: b.round(),
        });
        ctx.broadcast(RsmMsg::Prepare { b, from_slot });
        self.try_assume_leadership(ctx);
    }

    /// Preparing → Led once a majority promised: re-propose inherited
    /// entries, plug gaps with no-ops, then drain the pending queue.
    fn try_assume_leadership(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        let LeaderState::Preparing {
            b,
            from_slot,
            promised_by,
            gathered,
            low_slots,
        } = &self.state
        else {
            return;
        };
        if promised_by.iter().filter(|p| **p).count() < self.majority() {
            return;
        }
        let (b, from_slot) = (*b, *from_slot);
        let gathered = gathered.clone();
        // Safety floor: every slot below some promiser's low_slot is chosen
        // *somewhere* — any quorum that chose it intersects our promising
        // quorum, so the choice is either revealed in `gathered` or lies
        // below the revealer's (compacted) low_slot. Never no-op-fill below
        // the floor, and never propose fresh commands there: fetch by
        // CatchUp (answered with Decides or a snapshot transfer) instead.
        let floor = low_slots
            .iter()
            .copied()
            .max()
            .unwrap_or(0)
            .max(self.watermark());
        let horizon = gathered
            .keys()
            .next_back()
            .map(|s| s + 1)
            .unwrap_or(from_slot)
            .max(self.chosen.last().map_or(0, |s| s + 1))
            .max(floor);
        self.state = LeaderState::Led {
            b,
            next_slot: horizon,
            srtt8: None,
        };
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.me(),
            at: ctx.now(),
            label: "led",
            number: b.round(),
        });
        let mut announce: Vec<(u64, Entry<V>)> = Vec::new();
        let mut proposals: Vec<(u64, Entry<V>)> = Vec::new();
        let mut needs_catchup = false;
        for slot in from_slot..horizon {
            if let Some(entry) = self.chosen.get(slot) {
                announce.push((slot, entry));
            } else if let Some((_, entry)) = gathered.get(&slot).cloned() {
                proposals.push((slot, entry));
            } else if slot < floor {
                needs_catchup = true;
            } else {
                proposals.push((slot, Entry::Noop));
            }
        }
        if needs_catchup {
            self.request_window(ctx, None);
        }
        // Group commit: one flush covers every inherited/no-op re-proposal.
        let records: Vec<RsmRecord<V>> = proposals
            .iter()
            .map(|(slot, entry)| RsmRecord::Accepted {
                slot: *slot,
                b,
                entry: entry.clone(),
            })
            .collect();
        if !self.persist_group(&records) {
            return;
        }
        for (slot, entry) in announce {
            // Already chosen here, so no follower can learn it from our
            // prefix: announce it once; a follower that misses it pulls it.
            ctx.broadcast(RsmMsg::Decide { slot, entry });
        }
        for (slot, entry) in proposals {
            self.accept_persisted(ctx, slot, entry);
        }
        self.pump(ctx);
    }

    /// Fills free pipeline slots from the pending queue: coalesces up to
    /// `max_batch` queued commands per slot (a singleton stays [`Entry::Cmd`],
    /// the pre-batching wire shape), persists every new `Accepted` record as
    /// a single WAL group, then self-accepts and broadcasts each slot. A
    /// no-op unless this replica is an established leader with both free
    /// pipeline capacity and queued commands.
    fn pump(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        let LeaderState::Led { b, next_slot, .. } = self.state else {
            return;
        };
        let max_batch = self.params.batch.max_batch.max(1);
        let depth = self.params.batch.pipeline_depth.max(1);
        let mut planned: Vec<(u64, Entry<V>)> = Vec::new();
        let mut slot = next_slot;
        while !self.pending.is_empty() && self.inflight.len() + planned.len() < depth {
            let take = self.pending.len().min(max_batch);
            let mut cmds: Vec<V> = self.pending.drain(..take).collect();
            let entry = if cmds.len() == 1 {
                Entry::Cmd(cmds.pop().expect("len checked"))
            } else {
                Entry::Batch(cmds)
            };
            planned.push((slot, entry));
            slot += 1;
        }
        if planned.is_empty() {
            return;
        }
        if P::ENABLED {
            for (_, entry) in &planned {
                self.emit_stage(ctx.now(), entry, CmdStage::BatchSeal);
            }
        }
        // Write-ahead, once: all records of this pump become durable with a
        // single flush before any Accept can leave.
        let records: Vec<RsmRecord<V>> = planned
            .iter()
            .map(|(s, e)| RsmRecord::Accepted {
                slot: *s,
                b,
                entry: e.clone(),
            })
            .collect();
        let flushed_before = if P::ENABLED {
            self.storage.as_ref().map(StorageHandle::flush_stats)
        } else {
            None
        };
        if !self.persist_group(&records) {
            return;
        }
        if P::ENABLED {
            // One WalFsync per pump: the group commit is the unit the disk
            // saw, and its duration is what the fsync-spike detector and the
            // wal_commit lifecycle stage attribute.
            if let (Some(before), Some(store)) = (flushed_before, &self.storage) {
                let micros = store
                    .flush_stats()
                    .total_micros
                    .saturating_sub(before.total_micros);
                self.probe.emit(ProbeEvent::WalFsync {
                    node: self.env.id(),
                    at: ctx.now(),
                    micros,
                    records: records.len() as u64,
                });
            }
            for (_, entry) in &planned {
                self.emit_stage(ctx.now(), entry, CmdStage::WalCommit);
            }
        }
        if let LeaderState::Led { next_slot, .. } = &mut self.state {
            *next_slot = slot;
        }
        for (s, entry) in planned {
            self.accept_persisted(ctx, s, entry);
        }
    }

    /// Self-accepts `entry` at `slot`, broadcasts the `Accept` (carrying our
    /// chosen prefix), and checks for an (n = 1 or retransmission-fed)
    /// instant quorum. The matching
    /// `Accepted` WAL record must already be durable — callers persist
    /// (individually or as a group) *before* this runs, preserving the
    /// write-ahead rule.
    fn accept_persisted(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        slot: u64,
        entry: Entry<V>,
    ) {
        let LeaderState::Led { b, .. } = self.state else {
            return;
        };
        self.accepted.insert(slot, (b, entry.clone()));
        let mut acks = vec![false; self.env.n()];
        acks[self.me().as_usize()] = true;
        self.inflight.insert(
            slot,
            Inflight {
                entry: entry.clone(),
                acks,
                sent_at: ctx.now(),
                resent: false,
            },
        );
        self.emit_stage(ctx.now(), &entry, CmdStage::Propose);
        let commit = self.chosen.cursor();
        ctx.broadcast(RsmMsg::Accept {
            b,
            slot,
            entry,
            commit,
        });
        self.try_choose(ctx, slot);
    }

    /// Learns `slot` once a majority voted for it. Nothing is sent: the
    /// followers learn it from our prefix on the traffic that follows.
    fn try_choose(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, slot: u64) {
        let Some(inf) = self.inflight.get(&slot) else {
            return;
        };
        if inf.acks.iter().filter(|a| **a).count() < self.majority() {
            return;
        }
        let entry = inf.entry.clone();
        self.inflight.remove(&slot);
        self.learn(ctx, slot, entry);
    }

    fn learn(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, slot: u64, entry: Entry<V>) {
        if slot < self.watermark() {
            // Covered by the installed snapshot: already applied (possibly
            // on a peer's behalf), never re-emitted, never re-grown.
            return;
        }
        if !self.chosen.contains(slot) {
            // Write-ahead: the choice must be durable before the Committed
            // output can be observed.
            if !self.persist(&RsmRecord::Chosen {
                slot,
                entry: entry.clone(),
            }) {
                return;
            }
            self.mark_chosen(ctx.now(), slot, entry);
        }
        self.drain_committed(ctx);
    }

    /// Records `slot` as chosen, whose `Chosen` record is already durable,
    /// and drops its vote. Emits nothing; callers drain committed slots.
    fn mark_chosen(&mut self, now: Instant, slot: u64, entry: Entry<V>) {
        // Prefix honesty (see `crate::durable`): an established leader of
        // `b` learning, from anyone but its own quorum, a slot at or past
        // its proposal horizon or one it proposed under `b` with another
        // entry has met a choice made at a higher ballot. It stops
        // advertising `b` before that slot can enter its prefix.
        if let LeaderState::Led { next_slot, .. } = self.state {
            if slot >= next_slot || self.inflight.get(&slot).is_some_and(|i| i.entry != entry) {
                self.abdicate(now);
            }
        }
        self.emit_stage(now, &entry, CmdStage::Decide);
        self.chosen.insert(slot, entry);
        self.accepted.remove(&slot);
        self.probe.emit(ProbeEvent::Decide {
            node: self.me(),
            at: now,
            slot,
        });
    }

    /// Our votes at ballot `b` for slots below `commit`: what the leader of
    /// `b`, whose chosen prefix is `commit`, teaches us (see
    /// [`crate::durable`], "Learning from the leader's prefix").
    fn prefix_lessons(&self, b: Ballot, commit: u64) -> Vec<(u64, Entry<V>)> {
        self.accepted
            .range(..commit)
            .filter(|(_, (vb, _))| *vb == b)
            .map(|(s, (_, e))| (*s, e.clone()))
            .collect()
    }

    /// Learns every slot the leader of `b`, advertising chosen prefix
    /// `commit`, teaches us: their `Chosen` records go to the WAL as one
    /// group, then the slots are emitted in order.
    pub(crate) fn learn_prefix(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        b: Ballot,
        commit: u64,
    ) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        self.known_frontier = self.known_frontier.max(commit);
        let lessons = self.prefix_lessons(b, commit);
        if lessons.is_empty() {
            return;
        }
        self.commit_lessons(ctx, Vec::new(), lessons);
    }

    /// Persists `head` and the `Chosen` records of `lessons` as one WAL
    /// group, then marks the lessons chosen and emits what became
    /// contiguous. Returns `false` (wedged) if the group could not be
    /// written.
    fn commit_lessons(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        mut head: Vec<RsmRecord<V>>,
        lessons: Vec<(u64, Entry<V>)>,
    ) -> bool {
        head.extend(lessons.iter().map(|(slot, entry)| RsmRecord::Chosen {
            slot: *slot,
            entry: entry.clone(),
        }));
        if !self.persist_group(&head) {
            return false;
        }
        for (slot, entry) in lessons {
            self.mark_chosen(ctx.now(), slot, entry);
        }
        self.drain_committed(ctx);
        true
    }

    /// Emits `Committed` for every contiguously chosen slot at the emission
    /// cursor (one event per command; batches unfold in batch order).
    fn drain_committed(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        while let Some((slot, entry)) = self.chosen.emit() {
            // One Committed event *per command*: a batched slot unfolds into
            // its commands in batch order (same slot index repeated), so
            // downstream appliers never need to know batching exists.
            match entry {
                Entry::Noop => ctx.output(RsmEvent::Committed { slot, cmd: None }),
                Entry::Cmd(v) => ctx.output(RsmEvent::Committed { slot, cmd: Some(v) }),
                Entry::Batch(vs) => {
                    self.probe.emit(ProbeEvent::BatchCommit {
                        node: self.me(),
                        at: ctx.now(),
                        slot,
                        cmds: vs.len() as u64,
                    });
                    for v in vs {
                        ctx.output(RsmEvent::Committed { slot, cmd: Some(v) });
                    }
                }
            }
        }
    }

    /// Answers a peer that declared everything below `low_slot` known: plain
    /// `Decide`s when our log still holds the requested range, a snapshot
    /// transfer when it was compacted away. Any node serves this — catch-up
    /// is not a leader privilege, which matters when the old leader (the
    /// only one retransmitting Decides) is itself the process that died.
    fn serve_catchup(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        peer: ProcessId,
        low_slot: u64,
    ) {
        if peer == self.me() {
            return;
        }
        if low_slot < self.watermark() {
            self.start_snapshot_transfer(ctx, peer);
            return;
        }
        let decides: Vec<(u64, Entry<V>)> = self
            .chosen
            .run_range(low_slot, self.chosen.cursor())
            .take(CATCHUP_BURST as usize)
            .collect();
        for (slot, entry) in decides {
            ctx.send(peer, RsmMsg::Decide { slot, entry });
        }
    }

    /// Begins (or restarts a stalled) chunked snapshot transfer to `peer`
    /// from the latest durable snapshot. A no-op without a loadable
    /// snapshot, or while a transfer to that peer is still making progress.
    fn start_snapshot_transfer(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        peer: ProcessId,
    ) {
        if let Some(out) = self.outgoing_snaps.get(&peer) {
            // Every chunk acked but the peer asks again: its reassembly
            // failed (total-CRC mismatch) or the final ack got lost after a
            // restart — start over. Otherwise let the backoff retransmit.
            if !out.acked.iter().all(|a| *a) {
                return;
            }
            self.outgoing_snaps.remove(&peer);
        }
        let Some(snaps) = &self.snapshots else {
            return;
        };
        let Ok(Some(snap)) = snaps.load() else {
            return;
        };
        let crc = crc32(&snap.data);
        let chunks: Vec<Vec<u8>> = if snap.data.is_empty() {
            vec![Vec::new()]
        } else {
            snap.data
                .chunks(SNAP_CHUNK_BYTES)
                .map(<[u8]>::to_vec)
                .collect()
        };
        let out = OutgoingSnapshot {
            watermark: snap.watermark,
            crc,
            acked: vec![false; chunks.len()],
            chunks,
            attempt: 0,
            cooldown: 0,
        };
        self.send_snapshot_round(ctx, peer, &out);
        self.outgoing_snaps.insert(peer, out);
    }

    /// Sends the offer plus every not-yet-acked chunk of one transfer.
    fn send_snapshot_round(
        &self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        peer: ProcessId,
        out: &OutgoingSnapshot,
    ) {
        let total = out.chunks.len() as u32;
        ctx.send(
            peer,
            RsmMsg::SnapshotOffer {
                watermark: out.watermark,
                chunks: total,
                crc: out.crc,
            },
        );
        for (i, chunk) in out.chunks.iter().enumerate() {
            if out.acked[i] {
                continue;
            }
            ctx.send(
                peer,
                RsmMsg::SnapshotChunk {
                    watermark: out.watermark,
                    index: i as u32,
                    chunks: total,
                    crc: out.crc,
                    chunk_crc: crc32(chunk),
                    data: chunk.clone(),
                },
            );
        }
    }

    /// Retry-timer duty for outgoing transfers: retransmit what the peer has
    /// not acked, spaced by jittered exponential backoff (deterministic —
    /// the jitter hashes `(me, peer, watermark, attempt)`), and abandon the
    /// transfer after [`SNAP_MAX_ATTEMPTS`] rounds.
    fn pump_snapshot_retries(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        let me = self.me().as_usize() as u64;
        let mut abandoned: Vec<ProcessId> = Vec::new();
        let mut rounds: Vec<ProcessId> = Vec::new();
        for (peer, out) in &mut self.outgoing_snaps {
            if out.cooldown > 0 {
                out.cooldown -= 1;
                continue;
            }
            if out.attempt >= SNAP_MAX_ATTEMPTS {
                abandoned.push(*peer);
                continue;
            }
            out.attempt += 1;
            let backoff = 1u32 << out.attempt.min(4);
            let seed = me
                ^ ((peer.as_usize() as u64) << 8)
                ^ out.watermark.rotate_left(17)
                ^ ((u64::from(out.attempt)) << 32);
            let jitter = (mix64(seed) % (u64::from(out.attempt) + 1)) as u32;
            out.cooldown = backoff + jitter;
            rounds.push(*peer);
        }
        for peer in abandoned {
            self.outgoing_snaps.remove(&peer);
        }
        for peer in rounds {
            if let Some(out) = self.outgoing_snaps.get(&peer) {
                let out = out.clone();
                self.send_snapshot_round(ctx, peer, &out);
            }
        }
    }

    /// Registers an announced transfer on the receiver. Returns `false`
    /// when the transfer is stale (already covered locally — acked as
    /// complete so the sender stops) or loses to a further-ahead transfer
    /// already in progress.
    fn note_snapshot_offer(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
        watermark: u64,
        chunks: u32,
        crc: u32,
    ) -> bool {
        if chunks == 0 || chunks as usize > 4096 {
            return false;
        }
        self.known_frontier = self.known_frontier.max(watermark);
        if watermark <= self.chosen.cursor() {
            ctx.send(
                from,
                RsmMsg::SnapshotAck {
                    watermark,
                    index: u32::MAX,
                },
            );
            return false;
        }
        match &self.incoming_snap {
            Some(inc) if inc.watermark > watermark => false,
            Some(inc) if inc.watermark == watermark => inc.chunks == chunks && inc.crc == crc,
            _ => {
                self.incoming_snap = Some(IncomingSnapshot {
                    watermark,
                    chunks,
                    crc,
                    parts: vec![None; chunks as usize],
                });
                true
            }
        }
    }

    /// Accepts one chunk (dropping it silently on a per-chunk CRC mismatch
    /// so the sender retransmits), acks it, and installs the snapshot once
    /// every part is present.
    #[allow(clippy::too_many_arguments)] // mirrors the wire message's fields
    fn on_snapshot_chunk(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
        watermark: u64,
        index: u32,
        chunks: u32,
        crc: u32,
        chunk_crc: u32,
        data: Vec<u8>,
    ) {
        if crc32(&data) != chunk_crc {
            return;
        }
        // Chunks are self-describing, so a lost offer frame cannot stall
        // the transfer: the first surviving chunk recreates the assembly.
        if !self.note_snapshot_offer(ctx, from, watermark, chunks, crc) {
            return;
        }
        let Some(inc) = &mut self.incoming_snap else {
            return;
        };
        if inc.watermark != watermark || inc.chunks != chunks {
            return;
        }
        let Some(part) = inc.parts.get_mut(index as usize) else {
            return;
        };
        *part = Some(data);
        ctx.send(from, RsmMsg::SnapshotAck { watermark, index });
        if self
            .incoming_snap
            .as_ref()
            .is_some_and(|inc| inc.parts.iter().all(Option::is_some))
        {
            self.install_incoming_snapshot(ctx, from);
        }
    }

    /// Reassembles and installs the completed transfer: verify the total
    /// CRC, make the snapshot durable, compact our own WAL behind it, floor
    /// the in-memory maps, announce [`RsmEvent::SnapshotInstalled`], then
    /// emit whatever became contiguous above the watermark and ask the
    /// sender for the catch-up window there.
    fn install_incoming_snapshot(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
    ) {
        let Some(inc) = self.incoming_snap.take() else {
            return;
        };
        let mut data = Vec::new();
        for part in inc.parts {
            data.extend_from_slice(&part.unwrap_or_default());
        }
        if crc32(&data) != inc.crc {
            // Poisoned reassembly: drop it. The gap persists, so the next
            // catch-up round restarts the transfer from scratch (the sender
            // treats a fully-acked-but-unfinished transfer as restartable).
            self.request_window(ctx, Some(from));
            return;
        }
        let watermark = inc.watermark;
        // Prefix honesty (see `mark_chosen`): the snapshot's slots are
        // opaque, so a leader whose horizon or in-flight proposals it covers
        // can no longer vouch for what it would advertise.
        if let LeaderState::Led { next_slot, .. } = self.state {
            if watermark > next_slot || self.inflight.range(..watermark).next().is_some() {
                self.abdicate(ctx.now());
            }
        }
        // Durable snapshot BEFORE compacting the WAL below: a crash between
        // the two must find the snapshot. Without a snapshot store the
        // install is memory-only and the WAL is left alone — a crash then
        // just re-runs the transfer (equivalent to crashing earlier).
        if let Some(snaps) = self.snapshots.clone() {
            if snaps
                .install(&Snapshot {
                    watermark,
                    data: data.clone(),
                })
                .is_err()
            {
                self.probe.emit(ProbeEvent::WalWedge {
                    node: self.me(),
                    at: ctx.now(),
                });
                self.wedged = true;
                return;
            }
            self.apply_watermark(watermark);
            if let Some(store) = self.storage.clone() {
                if store.compact_records(&self.live_records()).is_err() {
                    self.probe.emit(ProbeEvent::WalWedge {
                        node: self.me(),
                        at: ctx.now(),
                    });
                    self.wedged = true;
                    return;
                }
            }
        } else {
            self.apply_watermark(watermark);
        }
        self.probe.emit(ProbeEvent::SnapshotInstall {
            node: self.me(),
            at: ctx.now(),
            watermark,
        });
        ctx.output(RsmEvent::SnapshotInstalled {
            watermark,
            state: data,
        });
        self.drain_committed(ctx);
        ctx.send(
            from,
            RsmMsg::SnapshotAck {
                watermark,
                index: u32::MAX,
            },
        );
        self.request_window(ctx, Some(from));
    }

    /// Asks `to` (every peer when `None`) for the catch-up window at our
    /// emission cursor.
    fn request_window(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>, to: Option<ProcessId>) {
        let low_slot = self.chosen.cursor();
        self.catchup_end = low_slot + CATCHUP_BURST;
        match to {
            Some(q) => ctx.send(q, RsmMsg::CatchUp { low_slot }),
            None => ctx.broadcast(RsmMsg::CatchUp { low_slot }),
        }
    }

    /// One retry step: loss repair, the election or pipeline retries of
    /// the current phase, and (while `Led`) a lease grant round. The
    /// retry timer runs it every `retry`; an externally led log arms no
    /// timer, and its host runs this step for it instead.
    pub(crate) fn retry_tick(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        self.pump_snapshot_retries(ctx);
        // Loss repair. A chosen slot past the cursor, or a frontier some
        // peer advertised past it, means a gap. A laggard with no catch-up
        // window outstanding, or whose cursor has not moved since the last
        // tick, asks the believed leader (everyone, when it believes itself
        // the leader) for the window at its cursor. Windowed catch-up in
        // progress, and a quiet steady state, send nothing here.
        let behind = self
            .chosen
            .last()
            .is_some_and(|s| s >= self.chosen.cursor())
            || self.known_frontier > self.chosen.cursor();
        if behind
            && self.incoming_snap.is_none()
            && (self.chosen.cursor() >= self.catchup_end
                || self.chosen.cursor() == self.cursor_at_tick)
        {
            let to = self.believed_leader().filter(|l| *l != self.me());
            self.request_window(ctx, to);
        }
        self.cursor_at_tick = self.chosen.cursor();
        if !self.believes_leadership() {
            if !matches!(self.state, LeaderState::Follower) {
                self.abdicate(ctx.now());
            }
            return;
        }
        match &self.state {
            LeaderState::Follower => self.start_prepare(ctx),
            LeaderState::Preparing {
                b,
                from_slot,
                promised_by,
                ..
            } => {
                let (b, from_slot) = (*b, *from_slot);
                let missing: Vec<ProcessId> = self
                    .env
                    .membership()
                    .others(self.me())
                    .filter(|q| !promised_by[q.as_usize()])
                    .collect();
                for q in missing {
                    ctx.send(q, RsmMsg::Prepare { b, from_slot });
                }
            }
            LeaderState::Led { b, srtt8, .. } => {
                let (b, srtt8) = (*b, *srtt8);
                let now = ctx.now();
                let commit = self.chosen.cursor();
                let others: Vec<ProcessId> = self.env.membership().others(self.me()).collect();
                for (&slot, inf) in &mut self.inflight {
                    // Re-send only what is overdue: outstanding for more
                    // than twice the smoothed round trip (age > 2·srtt, in
                    // eighths of a tick), or anything before the ballot's
                    // first sample.
                    let age = now.saturating_since(inf.sent_at).ticks();
                    if srtt8.is_some_and(|s| age.saturating_mul(4) <= s) {
                        continue;
                    }
                    inf.sent_at = now;
                    inf.resent = true;
                    for &q in others.iter().filter(|q| !inf.acks[q.as_usize()]) {
                        ctx.send(
                            q,
                            RsmMsg::Accept {
                                b,
                                slot,
                                entry: inf.entry.clone(),
                                commit,
                            },
                        );
                    }
                }
                // Belt and braces: if capacity freed without an Accepted
                // arriving (e.g. acks were satisfied by retransmissions),
                // keep the pipeline full.
                self.pump(ctx);
                // Lease renewal rides the same cadence: one grant round per
                // retry tick keeps the serving window continuously ahead of
                // `now` while the quorum keeps answering.
                self.lease_tick(ctx, b);
            }
        }
    }

    fn on_rsm_msg(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>,
        from: ProcessId,
        msg: RsmMsg<V>,
    ) {
        match msg {
            RsmMsg::Omega(..) => unreachable!("routed by caller"),
            RsmMsg::Prepare { b, from_slot } => {
                self.highest_seen = self.highest_seen.max(b);
                // Lease holdoff: while a granted lease (or the boot
                // blackout) runs, refuse ballots from anyone but the
                // leaseholder — this is the promise a `LeaseAck` made.
                if self.holdoff_until > ctx.now() && self.holdoff_for != Some(b.leader()) {
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                    return;
                }
                if b >= self.promised {
                    // Write-ahead: the promise must be durable before the
                    // Promise reply can leave.
                    if !self.persist(&RsmRecord::Promised(b)) {
                        return;
                    }
                    self.promised = b;
                    ctx.send(
                        from,
                        RsmMsg::Promise {
                            b,
                            accepted: self.promise_suffix(b, from_slot),
                            low_slot: self.chosen.cursor(),
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            RsmMsg::Promise {
                b,
                accepted,
                low_slot,
            } => {
                // Help a lagging promiser catch up on already-chosen slots —
                // by Decides, or by snapshot transfer when our log below its
                // low_slot is compacted away. (The promiser may also be
                // *ahead* of us: empty range, nothing sent.)
                self.serve_catchup(ctx, from, low_slot);
                if let LeaderState::Preparing {
                    b: cur,
                    promised_by,
                    gathered,
                    low_slots,
                    ..
                } = &mut self.state
                {
                    if *cur == b {
                        promised_by[from.as_usize()] = true;
                        low_slots[from.as_usize()] = low_slots[from.as_usize()].max(low_slot);
                        for (slot, ab, entry) in accepted {
                            match gathered.get(&slot) {
                                Some((prev, _)) if *prev >= ab => {}
                                _ => {
                                    gathered.insert(slot, (ab, entry));
                                }
                            }
                        }
                        self.try_assume_leadership(ctx);
                    }
                }
            }
            RsmMsg::Accept {
                b,
                slot,
                entry,
                commit,
            } => {
                self.highest_seen = self.highest_seen.max(b);
                if b < self.promised {
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                    return;
                }
                self.known_frontier = self.known_frontier.max(commit);
                // A re-proposal of a slot this replica already knows chosen
                // (learned, or below the snapshot watermark) carries the
                // chosen entry; the vote adds nothing.
                let fresh = slot >= self.watermark() && !self.chosen.contains(slot);
                // The vote itself and our earlier votes at `b` below the
                // prefix are learned at once.
                let mut lessons = self.prefix_lessons(b, commit);
                lessons.retain(|(s, _)| *s != slot);
                let learned = fresh && slot < commit;
                if learned {
                    lessons.push((slot, entry.clone()));
                }
                // Write-ahead: the vote and what the prefix teaches become
                // durable as one group before the Accepted reply or any
                // Committed output.
                let vote = RsmRecord::Accepted {
                    slot,
                    b,
                    entry: entry.clone(),
                };
                if !self.commit_lessons(ctx, vec![vote], lessons) {
                    return;
                }
                self.promised = b;
                if fresh && !learned {
                    self.accepted.insert(slot, (b, entry));
                }
                ctx.send(from, RsmMsg::Accepted { b, slot });
            }
            RsmMsg::Accepted { b, slot } => {
                if let LeaderState::Led { b: cur, srtt8, .. } = &mut self.state {
                    if *cur == b {
                        if let Some(inf) = self.inflight.get_mut(&slot) {
                            if !inf.resent && !inf.acks[from.as_usize()] {
                                // Smoothed as in RFC 6298, gain 1/8.
                                let sample = ctx.now().saturating_since(inf.sent_at).ticks();
                                *srtt8 = Some(srtt8.map_or(sample.saturating_mul(8), |s| {
                                    (s - s / 8).saturating_add(sample)
                                }));
                            }
                            inf.acks[from.as_usize()] = true;
                            self.try_choose(ctx, slot);
                            // A chosen slot frees pipeline capacity: refill
                            // it from the pending queue.
                            self.pump(ctx);
                        }
                    }
                }
            }
            RsmMsg::Nack { b, higher } => {
                self.highest_seen = self.highest_seen.max(higher);
                let ours = match &self.state {
                    LeaderState::Preparing { b: cur, .. } | LeaderState::Led { b: cur, .. } => {
                        *cur == b
                    }
                    LeaderState::Follower => false,
                };
                if ours {
                    self.abdicate(ctx.now());
                }
            }
            RsmMsg::Decide { slot, entry } => {
                self.learn(ctx, slot, entry);
                // Paced catch-up: once the cursor passes the window and the
                // frontier is still ahead, ask the peer that served it for
                // the next one.
                if self.chosen.cursor() >= self.catchup_end
                    && self.known_frontier > self.chosen.cursor()
                    && self.incoming_snap.is_none()
                {
                    self.request_window(ctx, Some(from));
                }
            }
            RsmMsg::CatchUp { low_slot } => {
                // The asker has emitted everything below `low_slot` — that
                // is frontier evidence for *us* too (we may be the laggard).
                self.known_frontier = self.known_frontier.max(low_slot);
                self.serve_catchup(ctx, from, low_slot);
            }
            RsmMsg::SnapshotOffer {
                watermark,
                chunks,
                crc,
            } => {
                self.note_snapshot_offer(ctx, from, watermark, chunks, crc);
            }
            RsmMsg::SnapshotChunk {
                watermark,
                index,
                chunks,
                crc,
                chunk_crc,
                data,
            } => {
                self.on_snapshot_chunk(ctx, from, watermark, index, chunks, crc, chunk_crc, data);
            }
            RsmMsg::SnapshotAck { watermark, index } => {
                if index == u32::MAX {
                    if self
                        .outgoing_snaps
                        .get(&from)
                        .is_some_and(|o| o.watermark <= watermark)
                    {
                        self.outgoing_snaps.remove(&from);
                    }
                } else if let Some(out) = self.outgoing_snaps.get_mut(&from) {
                    if out.watermark == watermark {
                        if let Some(acked) = out.acked.get_mut(index as usize) {
                            *acked = true;
                        }
                        // Progress proves the link: reset the backoff so the
                        // remainder retransmits promptly if needed.
                        out.attempt = 0;
                        out.cooldown = 0;
                    }
                }
            }
            RsmMsg::LeaseGrant { b, seq } => {
                self.highest_seen = self.highest_seen.max(b);
                if b >= self.promised {
                    // A grant that outranks the ballot this replica leads
                    // (or prepares) under proves a newer leader exists:
                    // depose ourselves *before* promising the holdoff.
                    // Otherwise a stale-but-still-Led leader would both owe
                    // the holdoff to the new holder and keep renewing its
                    // own lease on every retry tick, silently replacing
                    // that promise with a self-grant.
                    if let LeaderState::Preparing { b: cur, .. } | LeaderState::Led { b: cur, .. } =
                        &self.state
                    {
                        if b > *cur {
                            self.abdicate(ctx.now());
                        }
                    }
                    let until = ctx.now() + self.lease_grant_margin();
                    self.holdoff_until = self.holdoff_until.max(until);
                    self.holdoff_for = Some(b.leader());
                    self.probe.emit(ProbeEvent::LeaseGranted {
                        node: self.me(),
                        at: ctx.now(),
                        shard: self.probe_shard,
                        seq,
                        holder: b.leader(),
                    });
                    ctx.send(from, RsmMsg::LeaseAck { b, seq });
                } else {
                    // A deposed leader renewing its lease learns here that
                    // a higher ballot exists and abdicates on the Nack.
                    ctx.send(
                        from,
                        RsmMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            RsmMsg::LeaseAck { b, seq } => {
                if let LeaderState::Led { b: cur, .. } = self.state {
                    if cur == b && seq == self.lease_seq {
                        self.lease_acks[from.as_usize()] = true;
                        self.try_activate_lease(ctx.now());
                    }
                }
            }
            RsmMsg::ReadIndex { req } => {
                // Answer only while holding the lease: without it, this
                // replica's committed length could trail a newer leader's
                // decisions, and the index would certify a stale read.
                if self.lease_read_allowed(ctx.now()) {
                    if let Some((b, index)) = self.advertised_prefix() {
                        ctx.send(from, RsmMsg::ReadIndexReply { req, index, b });
                    }
                }
            }
            RsmMsg::ReadIndexReply { req, index, b } => {
                // Learn first: on FIFO links our votes below `index` are
                // already here, so the read never waits for another message.
                self.learn_prefix(ctx, b, index);
                ctx.output(RsmEvent::ReadIndexAt { req, index });
            }
        }
    }
}

impl<V, P> Sm for ReplicatedLog<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    type Msg = RsmMsg<V>;
    type Output = RsmEvent<V>;
    type Request = V;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if !self.external {
            ctx.set_timer(RETRY_TIMER, self.params.retry);
        }
        // Boot blackout: lease promises are volatile, so a restarted
        // granter no longer remembers a holdoff it may owe. Refusing *all*
        // elections for one full lease + skew after boot conservatively
        // covers any lease a previous incarnation granted — and also
        // guarantees a restarted *leader* can never resume serving an
        // expired lease (it re-elects and re-acquires from scratch). Costs
        // one lease worth of election delay at boot. A first incarnation
        // owes nothing: storage that held no record and no snapshot had no
        // predecessor, since every incarnation writes its boot record
        // before it can send. Without storage there is no such evidence.
        let first_incarnation = self.storage.is_some() && !self.recovered;
        if self.params.lease.enabled && !first_incarnation {
            let blackout = ctx.now() + self.params.lease.duration + self.params.lease.skew;
            self.holdoff_until = self.holdoff_until.max(blackout);
            self.holdoff_for = None;
        }
        // A restarted replica proactively asks where the log has moved: the
        // cluster may have chosen (and compacted) a long prefix while it was
        // down, and nobody may be retransmitting that history anymore.
        if self.recovered {
            self.request_window(ctx, None);
        }
        // In external-leadership mode the embedded Ω never runs: the shared
        // per-node detector injects leadership via `set_leader`.
        if !self.external {
            self.drive_omega(ctx, |omega, octx| omega.on_start(octx));
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        match msg {
            RsmMsg::Omega(m, prefix) => {
                if let Some((b, commit)) = prefix {
                    self.learn_prefix(ctx, b, commit);
                }
                // Ω traffic is not ours in external mode — the shared
                // per-node detector owns it.
                if !self.external {
                    self.drive_omega(ctx, |omega, octx| omega.on_message(octx, from, m));
                }
            }
            other => self.on_rsm_msg(ctx, from, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if timer.0 >= OMEGA_TIMER_BASE {
            if self.external {
                return;
            }
            let inner = TimerId(timer.0 - OMEGA_TIMER_BASE);
            self.drive_omega(ctx, |omega, octx| omega.on_timer(octx, inner));
        } else if timer == RETRY_TIMER {
            self.retry_tick(ctx);
            ctx.set_timer(RETRY_TIMER, self.params.retry);
        } else {
            debug_assert!(false, "unexpected timer {timer}");
        }
    }

    /// Queues a client command; an established leader with free pipeline
    /// capacity proposes immediately (coalescing any queued commands into a
    /// batch of up to `batch.max_batch`), otherwise the command waits — for
    /// leadership, or for a pipeline slot to free up (clients of a real
    /// deployment would resubmit to the actual leader).
    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: V) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        self.pending.push_back(req);
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::Instant;

    type Log = ReplicatedLog<u64>;

    struct Harness {
        env: Env,
        sm: Log,
        fx: Effects<RsmMsg<u64>, RsmEvent<u64>>,
    }

    impl Harness {
        fn new(me: u32, n: usize) -> Self {
            Harness::with_params(me, n, ConsensusParams::default())
        }

        fn with_params(me: u32, n: usize, params: ConsensusParams) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = ReplicatedLog::new(&env, params);
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn start(&mut self) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(&mut self, from: u32, msg: RsmMsg<u64>) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn request(&mut self, v: u64) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            self.request_at(Instant::ZERO, v)
        }

        fn request_at(&mut self, now: Instant, v: u64) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_request(&mut ctx, v);
            self.fx.take()
        }

        /// Like [`Harness::deliver`], at an explicit wall — the lease tests
        /// are all about *when* things happen.
        fn deliver_at(
            &mut self,
            now: Instant,
            from: u32,
            msg: RsmMsg<u64>,
        ) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        /// Fires the retry timer at an explicit wall.
        fn retry_at(&mut self, now: Instant) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, now, &mut self.fx);
            self.sm.on_timer(&mut ctx, RETRY_TIMER);
            self.fx.take()
        }
    }

    fn b(round: u64, leader: u32) -> Ballot {
        Ballot::new(round, ProcessId(leader))
    }

    /// Drives p0 (initial Ω leader) to the Led state in a 3-replica group.
    fn led_leader() -> Harness {
        led_leader_with(ConsensusParams::default())
    }

    /// Like [`led_leader`], with explicit parameters (batching knobs).
    fn led_leader_with(params: ConsensusParams) -> Harness {
        let mut h = Harness::with_params(0, 3, params);
        h.start();
        h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(h.sm.is_established_leader());
        h
    }

    /// Parameters with batching and a shallow pipeline, for throughput-path
    /// tests.
    fn batched_params(max_batch: usize, pipeline_depth: usize) -> ConsensusParams {
        ConsensusParams {
            batch: omega::BatchParams {
                max_batch,
                pipeline_depth,
            },
            ..ConsensusParams::default()
        }
    }

    #[test]
    fn externally_led_log_is_silent_until_leadership_is_injected() {
        let env = Env::new(ProcessId(0), 3);
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .externally_led()
            .build()
            .unwrap();
        assert!(sm.is_externally_led());
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        let out = fx.take();
        assert!(
            out.sends.is_empty(),
            "no Ω heartbeats, no prepares: {:?}",
            out.sends
        );
        // No timer at all: the embedded Ω is inert, and the host runs the
        // retry step on its own timer.
        assert!(out.timers.is_empty(), "{:?}", out.timers);

        // Injecting our own id starts phase 1 exactly like an Ω output.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.set_leader(&mut ctx, ProcessId(0));
        let out = fx.take();
        assert!(out.outputs.contains(&RsmEvent::Leader(ProcessId(0))));
        assert_eq!(
            out.sends
                .iter()
                .filter(|s| matches!(s.msg, RsmMsg::Prepare { .. }))
                .count(),
            2
        );
        // Re-injecting the same leader is a no-op.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.set_leader(&mut ctx, ProcessId(0));
        assert!(fx.take().outputs.is_empty());

        // Losing leadership abdicates.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.set_leader(&mut ctx, ProcessId(2));
        let out = fx.take();
        assert!(out.outputs.contains(&RsmEvent::Leader(ProcessId(2))));
        assert!(!sm.is_established_leader());
    }

    #[test]
    fn externally_led_log_drops_omega_messages_and_timers() {
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .externally_led()
            .build()
            .unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
        fx.take();
        let counter_before = sm.omega().own_counter();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Omega(omega::OmegaMsg::Alive { counter: 9 }, None),
        );
        let out = fx.take();
        assert!(out.sends.is_empty() && out.outputs.is_empty());
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_timer(&mut ctx, TimerId(OMEGA_TIMER_BASE));
        let out = fx.take();
        assert!(out.sends.is_empty() && out.outputs.is_empty());
        assert_eq!(sm.omega().own_counter(), counter_before);
    }

    #[test]
    fn leader_establishes_ballot_with_one_prepare() {
        let mut h = Harness::new(0, 3);
        let fx = h.start();
        let prepares = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RsmMsg::Prepare { from_slot: 0, .. }))
            .count();
        assert_eq!(prepares, 2);
        let _ = led_leader();
    }

    #[test]
    fn steady_state_commits_in_one_round_trip() {
        let mut h = led_leader();
        let fx = h.request(7);
        // Phase 1 is NOT re-run: only Accepts go out.
        assert!(fx
            .sends
            .iter()
            .all(|s| matches!(s.msg, RsmMsg::Accept { slot: 0, .. })));
        assert_eq!(fx.sends.len(), 2);
        // One Accepted (plus self) = majority: commit, and nothing more is
        // sent — the followers learn slot 0 from our prefix later.
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        assert!(fx.outputs.contains(&RsmEvent::Committed {
            slot: 0,
            cmd: Some(7)
        }));
        assert!(fx.sends.is_empty(), "no decide round: {:?}", fx.sends);
        assert_eq!(h.sm.committed_len(), 1);
        // The next Accept carries the prefix.
        let fx = h.request(8);
        assert!(fx.sends.iter().all(|s| matches!(
            s.msg,
            RsmMsg::Accept {
                slot: 1,
                commit: 1,
                ..
            }
        )));
    }

    #[test]
    fn commits_are_emitted_in_slot_order_despite_reordering() {
        let mut h = Harness::new(2, 3);
        h.start();
        // Decide for slot 1 arrives before slot 0 (links are not FIFO).
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 1,
                entry: Entry::Cmd(11),
            },
        );
        assert!(fx
            .outputs
            .iter()
            .all(|o| !matches!(o, RsmEvent::Committed { .. })));
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Cmd(10),
            },
        );
        let committed: Vec<_> = fx
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![(0, Some(10)), (1, Some(11))]);
    }

    #[test]
    fn new_leader_inherits_accepted_entries_and_fills_gaps() {
        let mut h = Harness::new(0, 5);
        h.start();
        // Two promises arrive; one reveals an accepted entry at slot 1 only
        // (slot 0 is a gap the new leader must fill with a no-op).
        h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![(1, b(0, 4), Entry::Cmd(99))],
                low_slot: 0,
            },
        );
        let fx = h.deliver(
            2,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(h.sm.is_established_leader());
        let accepts: Vec<(u64, Entry<u64>)> = fx
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot, entry, .. } => Some((*slot, entry.clone())),
                _ => None,
            })
            .collect();
        assert!(
            accepts.contains(&(0, Entry::Noop)),
            "gap must be filled: {accepts:?}"
        );
        assert!(
            accepts.contains(&(1, Entry::Cmd(99))),
            "inherited entry must be re-proposed"
        );
    }

    #[test]
    fn acceptor_reveals_suffix_on_prepare() {
        let mut h = Harness::new(1, 3);
        h.start();
        h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 0,
                entry: Entry::Cmd(5),
                commit: 0,
            },
        );
        h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 3,
                entry: Entry::Cmd(8),
                commit: 0,
            },
        );
        let fx = h.deliver(
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 2,
            },
        );
        let promise = fx
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                RsmMsg::Promise { accepted, .. } => Some(accepted.clone()),
                _ => None,
            })
            .expect("must promise the higher ballot");
        // Only slots ≥ from_slot are revealed.
        assert_eq!(promise, vec![(3, b(1, 0), Entry::Cmd(8))]);
    }

    #[test]
    fn follower_queues_requests_until_leadership() {
        let mut h = Harness::new(1, 3);
        h.start();
        let fx = h.request(42);
        assert!(fx.sends.is_empty());
        assert_eq!(h.sm.pending_len(), 1);
    }

    #[test]
    fn stale_ballot_accept_is_nacked() {
        let mut h = Harness::new(1, 3);
        h.start();
        h.deliver(
            2,
            RsmMsg::Prepare {
                b: b(5, 2),
                from_slot: 0,
            },
        );
        let fx = h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 0,
                entry: Entry::Cmd(1),
                commit: 0,
            },
        );
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Nack { higher, .. } if higher == b(5, 2))));
    }

    #[test]
    fn nack_abdicates_leadership() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(
            2,
            RsmMsg::Nack {
                b: b(1, 0),
                higher: b(4, 2),
            },
        );
        assert!(!h.sm.is_established_leader());
        assert_eq!(
            h.sm.inflight.len(),
            0,
            "inflight must be dropped on abdication"
        );
    }

    #[test]
    fn promise_triggers_catchup_decides_for_lagging_peer() {
        let mut h = led_leader();
        h.request(7);
        h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        assert_eq!(h.sm.committed_len(), 1);
        // A new prepare from us after re-election would carry catch-up; here
        // simulate a late promise from p2 with low_slot 0.
        let fx = h.deliver(
            2,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Decide { slot: 0, .. })));
    }

    #[test]
    fn promise_from_a_peer_ahead_of_us_is_harmless() {
        // Regression: the catch-up range must not invert when the promiser
        // has committed further than the (new) leader.
        let mut h = Harness::new(0, 3);
        h.start();
        let fx = h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 10, // p1 is way ahead
            },
        );
        assert!(h.sm.is_established_leader());
        assert!(!fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Decide { .. })));
    }

    /// The slots `fx` commits, in emission order.
    fn committed_slots(fx: &Effects<RsmMsg<u64>, RsmEvent<u64>>) -> Vec<u64> {
        fx.outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect()
    }

    /// A follower (p2) holding votes for slot 0 at ballot `b(1, 0)` and for
    /// slot 1 at ballot `b(2, 1)` — the newer leader p1 proposed slot 1
    /// only, having inherited slot 0 as already chosen elsewhere.
    fn follower_with_votes_at_two_ballots() -> Harness {
        let mut h = Harness::new(2, 3);
        h.start();
        let accept = |b, slot, v| RsmMsg::Accept {
            b,
            slot,
            entry: Entry::Cmd(v),
            commit: 0,
        };
        h.deliver(0, accept(b(1, 0), 0, 10));
        h.deliver(1, accept(b(2, 1), 1, 11));
        assert_eq!(h.sm.vote(0).map(|(vb, _)| vb), Some(b(1, 0)));
        assert_eq!(h.sm.vote(1).map(|(vb, _)| vb), Some(b(2, 1)));
        h
    }

    #[test]
    fn an_accept_prefix_teaches_only_votes_at_its_ballot() {
        let mut h = follower_with_votes_at_two_ballots();
        // p1's next Accept says slots 0 and 1 are chosen. Our vote for slot 1
        // is p1's own proposal at b(2, 1): learned. Our vote for slot 0 is
        // at b(1, 0): p1 may have chosen another entry there, so it teaches
        // nothing.
        let fx = h.deliver(
            1,
            RsmMsg::Accept {
                b: b(2, 1),
                slot: 2,
                entry: Entry::Cmd(12),
                commit: 2,
            },
        );
        assert!(committed_slots(&fx).is_empty(), "slot 0 is still a gap");
        assert_eq!(h.sm.chosen(1), Some(Entry::Cmd(11)));
        assert_eq!(h.sm.chosen(0), None);
        assert_eq!(h.sm.committed_len(), 0);
        // The gap is pulled from the believed leader on the next tick.
        let out = h.retry_at(Instant::ZERO);
        assert!(
            out.sends
                .iter()
                .any(|s| s.msg == RsmMsg::CatchUp { low_slot: 0 }),
            "{:?}",
            out.sends
        );
    }

    #[test]
    fn a_read_index_reply_teaches_only_votes_at_its_ballot() {
        let mut h = follower_with_votes_at_two_ballots();
        let fx = h.deliver(
            1,
            RsmMsg::ReadIndexReply {
                req: 4,
                index: 2,
                b: b(2, 1),
            },
        );
        assert!(fx
            .outputs
            .contains(&RsmEvent::ReadIndexAt { req: 4, index: 2 }));
        assert_eq!(h.sm.chosen(1), Some(Entry::Cmd(11)));
        assert_eq!(
            h.sm.chosen(0),
            None,
            "a vote at another ballot is not learned"
        );
        let out = h.retry_at(Instant::ZERO);
        assert!(out
            .sends
            .iter()
            .any(|s| s.msg == RsmMsg::CatchUp { low_slot: 0 }));
    }

    #[test]
    fn a_read_index_reply_is_learned_before_the_read_is_released() {
        let mut h = Harness::new(2, 3);
        h.start();
        h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 0,
                entry: Entry::Cmd(10),
                commit: 0,
            },
        );
        let fx = h.deliver(
            0,
            RsmMsg::ReadIndexReply {
                req: 1,
                index: 1,
                b: b(1, 0),
            },
        );
        assert_eq!(committed_slots(&fx), vec![0]);
        let order: Vec<bool> = fx
            .outputs
            .iter()
            .map(|o| matches!(o, RsmEvent::ReadIndexAt { .. }))
            .collect();
        assert_eq!(order, vec![false, true], "commit first, then the read");
    }

    #[test]
    fn a_leader_learning_a_contradicting_choice_stops_advertising() {
        // p0 leads b(1, 0) and proposes 7 at slot 0. A peer's Decide says
        // slot 0 chose 9: a higher ballot chose it, so p0 must not advertise
        // a prefix covering slot 0 under b(1, 0).
        let mut h = led_leader();
        h.request(7);
        h.deliver(
            1,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Cmd(9),
            },
        );
        assert!(!h.sm.is_established_leader());
        assert_eq!(h.sm.advertised_prefix(), None);
        // A slot past the horizon proves the same.
        let mut h = led_leader();
        h.deliver(
            1,
            RsmMsg::Decide {
                slot: 3,
                entry: Entry::Cmd(9),
            },
        );
        assert!(!h.sm.is_established_leader());
        // So does a snapshot covering an in-flight proposal: its entries
        // are opaque.
        let mut h = led_leader();
        h.request(7);
        let data = vec![1, 2, 3];
        h.deliver(
            1,
            RsmMsg::SnapshotChunk {
                watermark: 1,
                index: 0,
                chunks: 1,
                crc: crc32(&data),
                chunk_crc: crc32(&data),
                data,
            },
        );
        assert_eq!(h.sm.watermark(), 1, "the snapshot is installed");
        assert!(!h.sm.is_established_leader());
    }

    #[test]
    fn pipeline_depth_caps_inflight_slots() {
        let mut h = led_leader_with(batched_params(1, 2));
        for v in 0..5 {
            h.request(v);
        }
        assert_eq!(h.sm.inflight_len(), 2, "pipeline must cap at depth");
        assert_eq!(h.sm.pending_len(), 3, "overflow queues locally");
        // Choosing slot 0 frees capacity; the pump refills to depth.
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        assert_eq!(h.sm.inflight_len(), 2);
        assert_eq!(h.sm.pending_len(), 2);
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Accept { slot: 2, .. })));
    }

    #[test]
    fn queued_commands_coalesce_into_one_batch_slot() {
        // Depth 1: the first command occupies the pipeline, the next three
        // queue up and must ride out together in a single batched slot.
        let mut h = led_leader_with(batched_params(8, 1));
        h.request(10);
        for v in [11, 12, 13] {
            let fx = h.request(v);
            assert!(fx.sends.is_empty(), "pipeline full: nothing may leave");
        }
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        let batched: Vec<Entry<u64>> = fx
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot: 1, entry, .. } => Some(entry.clone()),
                _ => None,
            })
            .collect();
        assert!(
            batched.iter().all(|e| *e == Entry::Batch(vec![11, 12, 13])),
            "queued commands must coalesce: {batched:?}"
        );
        assert_eq!(batched.len(), 2, "one Accept per peer");
        assert_eq!(h.sm.pending_len(), 0);
    }

    #[test]
    fn batched_slot_commits_one_event_per_command_in_order() {
        let mut h = led_leader_with(batched_params(8, 1));
        h.request(10);
        for v in [11, 12, 13] {
            h.request(v);
        }
        h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 1,
            },
        );
        let committed: Vec<(u64, Option<u64>)> = fx
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect();
        assert_eq!(
            committed,
            vec![(1, Some(11)), (1, Some(12)), (1, Some(13))],
            "a batch unfolds into per-command commits at its slot"
        );
        assert_eq!(
            h.sm.committed_commands().collect::<Vec<_>>(),
            vec![10, 11, 12, 13]
        );
        assert_eq!(h.sm.committed_len(), 2, "two slots, four commands");
    }

    #[test]
    fn singleton_batch_stays_a_plain_cmd_on_the_wire() {
        // max_batch > 1 with exactly one queued command must not change the
        // wire shape: peers running older assumptions see Entry::Cmd.
        let mut h = led_leader_with(batched_params(8, 4));
        let fx = h.request(7);
        assert!(fx.sends.iter().all(|s| matches!(
            &s.msg,
            RsmMsg::Accept {
                slot: 0,
                entry: Entry::Cmd(7),
                ..
            }
        )));
    }

    #[test]
    fn learner_unfolds_a_batched_decide_from_the_leader() {
        // A non-leader replica receiving Decide{Batch} emits the same
        // per-command commit stream as the leader did.
        let mut h = Harness::new(2, 3);
        h.start();
        let fx = h.deliver(
            0,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Batch(vec![5, 6]),
            },
        );
        let committed: Vec<(u64, Option<u64>)> = fx
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, cmd } => Some((*slot, *cmd)),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![(0, Some(5)), (0, Some(6))]);
        assert_eq!(
            h.sm.chosen_entries().get(&0),
            Some(&Entry::Batch(vec![5, 6])),
            "the lossless view keeps the batch intact"
        );
        assert_eq!(
            h.sm.chosen_log().get(&0),
            Some(&None),
            "the single-command view maps batches to None"
        );
    }

    #[test]
    fn batched_slots_survive_a_crash_restart() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        {
            let mut sm: Log = ReplicatedLog::builder(&env, batched_params(8, 4))
                .storage(store.clone())
                .build()
                .unwrap();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Decide {
                    slot: 0,
                    entry: Entry::Batch(vec![1, 2, 3]),
                },
            );
            fx.take();
            // Crash.
        }
        let sm2: Log = ReplicatedLog::builder(&env, batched_params(8, 4))
            .storage(store)
            .build()
            .unwrap();
        assert_eq!(
            sm2.chosen(0),
            Some(Entry::Batch(vec![1, 2, 3])),
            "a chosen batch must survive the crash whole"
        );
        assert_eq!(sm2.committed_commands().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn restart_from_wal_preserves_log_and_rejoins_quietly() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        {
            let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
                .storage(store.clone())
                .build()
                .unwrap();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Prepare {
                    b: b(2, 0),
                    from_slot: 0,
                },
            );
            fx.take();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Accept {
                    b: b(2, 0),
                    slot: 1,
                    entry: Entry::Cmd(8),
                    commit: 0,
                },
            );
            fx.take();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Decide {
                    slot: 0,
                    entry: Entry::Cmd(5),
                },
            );
            let out = fx.take();
            assert!(out.outputs.contains(&RsmEvent::Committed {
                slot: 0,
                cmd: Some(5)
            }));
            // Crash: the in-memory replica is dropped, only the WAL survives.
        }
        let mut sm2: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(store)
            .build()
            .unwrap();
        assert_eq!(sm2.promised, b(2, 0), "promise must survive the crash");
        assert_eq!(
            sm2.chosen(0),
            Some(Entry::Cmd(5)),
            "chosen slot must survive the crash"
        );
        assert_eq!(
            sm2.committed_len(),
            1,
            "recovered prefix is advanced past without re-emitting"
        );
        assert_eq!(
            sm2.omega().own_counter(),
            1,
            "incarnation bump: recovered counter 0 + 1"
        );
        // A higher-ballot Prepare reveals the pre-crash accepted suffix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm2.on_message(
            &mut ctx,
            ProcessId(2),
            RsmMsg::Prepare {
                b: b(4, 2),
                from_slot: 0,
            },
        );
        let out = fx.take();
        let revealed = out
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                RsmMsg::Promise { accepted, .. } => Some(accepted.clone()),
                _ => None,
            })
            .expect("restarted acceptor must promise the higher ballot");
        assert!(
            revealed.contains(&(1, b(2, 0), Entry::Cmd(8))),
            "pre-crash accepted entry must be revealed: {revealed:?}"
        );
        // A later Decide for slot 1 commits only slot 1 — slot 0 is not
        // re-emitted after recovery.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm2.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Decide {
                slot: 1,
                entry: Entry::Cmd(8),
            },
        );
        let out = fx.take();
        let committed: Vec<u64> = out
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![1]);
    }

    /// Decides `slots` commands (value = slot) on `sm` by direct Decide
    /// delivery, oldest first.
    fn decide_prefix(env: &Env, sm: &mut Log, slots: u64) {
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        for slot in 0..slots {
            let mut ctx = Ctx::new(env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                RsmMsg::Decide {
                    slot,
                    entry: Entry::Cmd(slot),
                },
            );
            fx.take();
        }
    }

    #[test]
    fn compaction_prunes_the_wal_and_recovery_starts_from_the_snapshot() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let snaps = SnapshotHandle::in_memory();
        {
            let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
                .storage(store.clone())
                .snapshots(snaps.clone())
                .build()
                .unwrap();
            decide_prefix(&env, &mut sm, 10);
            let before = sm.wal_stats().live_bytes;
            assert!(sm.compact(8, vec![0xAB; 4]).unwrap(), "compaction runs");
            assert_eq!(sm.watermark(), 8);
            assert!(
                sm.wal_stats().live_bytes < before,
                "live bytes shrink: {} -> {}",
                before,
                sm.wal_stats().live_bytes
            );
            // Re-compacting at a non-advancing watermark declines.
            assert!(!sm.compact(8, vec![]).unwrap());
            // Crash.
        }
        let sm2: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(store)
            .snapshots(snaps)
            .build()
            .unwrap();
        assert_eq!(sm2.watermark(), 8);
        let snap = sm2.recovered_snapshot().expect("snapshot recovered");
        assert_eq!((snap.watermark, snap.data.clone()), (8, vec![0xAB; 4]));
        assert_eq!(
            sm2.committed_len(),
            10,
            "snapshot watermark + replayed WAL tail"
        );
        assert_eq!(
            sm2.committed_commands_from(sm2.watermark())
                .collect::<Vec<_>>(),
            vec![8, 9],
            "only the post-snapshot tail replays"
        );
    }

    #[test]
    fn compacted_acceptor_still_reveals_its_live_suffix_and_low_slot() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        decide_prefix(&env, &mut sm, 5);
        // An accepted-but-undecided entry above the prefix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 6,
                entry: Entry::Cmd(60),
                commit: 0,
            },
        );
        fx.take();
        sm.compact(5, vec![1]).unwrap();
        // A higher-ballot Prepare from scratch: the promise must carry the
        // compaction horizon as low_slot and still reveal the live suffix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(2),
            RsmMsg::Prepare {
                b: b(9, 2),
                from_slot: 0,
            },
        );
        let out = fx.take();
        let (low_slot, accepted) = out
            .sends
            .iter()
            .find_map(|s| match &s.msg {
                RsmMsg::Promise {
                    low_slot, accepted, ..
                } => Some((*low_slot, accepted.clone())),
                _ => None,
            })
            .expect("acceptor promises");
        assert_eq!(low_slot, 5, "low_slot reports the compacted watermark");
        assert!(
            accepted.contains(&(6, b(1, 0), Entry::Cmd(60))),
            "the live accepted suffix survives compaction: {accepted:?}"
        );
    }

    #[test]
    fn new_leader_floor_never_proposes_below_a_promised_low_slot() {
        // p0 prepares; p1's promise reports low_slot 4 (its slots 0..4 are
        // compacted away). The new leader must not Noop-fill below 4.
        let mut h = Harness::new(0, 3);
        h.start();
        let fx = h.deliver(
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![(5, b(1, 1), Entry::Cmd(50))],
                low_slot: 4,
            },
        );
        assert!(h.sm.is_established_leader());
        let proposed: Vec<u64> = fx
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert!(
            proposed.iter().all(|slot| *slot >= 4),
            "no proposal below the floor: {proposed:?}"
        );
        assert!(
            proposed.contains(&5),
            "the revealed suffix is re-proposed: {proposed:?}"
        );
        // The leader asked the compacted peer nothing, but it *did* ask the
        // cluster to backfill its own gap below the floor.
        assert!(
            fx.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::CatchUp { .. })),
            "leader requests catch-up for slots below its floor"
        );
    }

    #[test]
    fn snapshot_transfer_catches_up_a_far_behind_follower() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env0 = Env::new(ProcessId(0), 3);
        // The sender: a compacted leader-side replica with a snapshot.
        let mut sender: Log = ReplicatedLog::builder(&env0, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        decide_prefix(&env0, &mut sender, 12);
        sender.compact(12, vec![7; 100]).unwrap();
        // A fresh follower asks for slot 0: below the watermark, so the
        // sender must offer a snapshot, not stream Decides.
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_message(&mut ctx, ProcessId(2), RsmMsg::CatchUp { low_slot: 0 });
        let out = fx.take();
        let to_follower: Vec<RsmMsg<u64>> = out
            .sends
            .into_iter()
            .filter(|s| s.to == ProcessId(2))
            .map(|s| s.msg)
            .collect();
        assert!(
            to_follower
                .iter()
                .any(|m| matches!(m, RsmMsg::SnapshotOffer { watermark: 12, .. })),
            "below-watermark catch-up is served by state transfer"
        );
        assert!(
            to_follower
                .iter()
                .any(|m| matches!(m, RsmMsg::SnapshotChunk { .. })),
            "chunks ride along with the offer"
        );

        // The receiver: a fresh replica with its own (empty) stores.
        let env2 = Env::new(ProcessId(2), 3);
        let store2 = StorageHandle::in_memory();
        let snaps2 = SnapshotHandle::in_memory();
        let mut recv: Log = ReplicatedLog::builder(&env2, ConsensusParams::default())
            .storage(store2.clone())
            .snapshots(snaps2.clone())
            .build()
            .unwrap();
        let mut acks = Vec::new();
        let mut installed = Vec::new();
        for msg in to_follower {
            let mut ctx = Ctx::new(&env2, Instant::ZERO, &mut fx);
            recv.on_message(&mut ctx, ProcessId(0), msg);
            let out = fx.take();
            for s in out.sends {
                if let RsmMsg::SnapshotAck { index, .. } = s.msg {
                    acks.push(index);
                }
            }
            for o in out.outputs {
                if let RsmEvent::SnapshotInstalled { watermark, state } = o {
                    installed.push((watermark, state));
                }
            }
        }
        assert_eq!(
            installed,
            vec![(12, vec![7; 100])],
            "the follower installs the sender's exact state"
        );
        assert_eq!(recv.watermark(), 12);
        assert_eq!(recv.committed_len(), 12);
        assert!(
            acks.contains(&u32::MAX),
            "completion is acked so the sender can retire the transfer: {acks:?}"
        );
        // The install is durable: a crash right after recovers from the
        // installed snapshot.
        drop(recv);
        let recv2: Log = ReplicatedLog::builder(&env2, ConsensusParams::default())
            .storage(store2)
            .snapshots(snaps2)
            .build()
            .unwrap();
        assert_eq!(recv2.watermark(), 12, "installed snapshot survives a crash");

        // The completion ack retires the sender's outgoing transfer state.
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_message(
            &mut ctx,
            ProcessId(2),
            RsmMsg::SnapshotAck {
                watermark: 12,
                index: u32::MAX,
            },
        );
        fx.take();
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_timer(&mut ctx, RETRY_TIMER);
        let out = fx.take();
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::SnapshotChunk { .. })),
            "no further chunk retries after completion"
        );
    }

    #[test]
    fn a_quiet_follower_missing_a_compacted_final_slot_pulls_a_snapshot() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        // Regression: a follower that missed the *final* slot, which the
        // leader then compacted away, has no later Accept to learn from.
        // The leader's heartbeat prefix tells it the slot exists; it asks
        // the leader, which can only answer with its snapshot.
        let env = Env::new(ProcessId(0), 3);
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_start(&mut ctx);
        fx.take();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(1),
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        fx.take();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_request(&mut ctx, 7);
        fx.take();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(1),
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        fx.take();
        sm.compact(1, vec![9; 64]).unwrap();
        // The heartbeat carries the prefix.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_timer(&mut ctx, TimerId(OMEGA_TIMER_BASE));
        let alive = fx
            .take()
            .sends
            .into_iter()
            .find(|s| s.to == ProcessId(2))
            .expect("the leader heartbeats p2")
            .msg;
        assert!(
            matches!(alive, RsmMsg::Omega(_, Some((pb, 1))) if pb == b(1, 0)),
            "{alive:?}"
        );
        // p2 never saw slot 0; it learns the frontier and asks on its tick.
        let mut p2 = Harness::new(2, 3);
        p2.start();
        p2.deliver(0, alive);
        let out = p2.retry_at(Instant::ZERO);
        let ask = out
            .sends
            .into_iter()
            .find(|s| s.msg == RsmMsg::CatchUp { low_slot: 0 })
            .expect("a follower behind the advertised prefix asks");
        assert_eq!(ask.to, ProcessId(0), "it asks the believed leader");
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(&mut ctx, ProcessId(2), ask.msg);
        let out = fx.take();
        assert!(
            out.sends.iter().any(|s| s.to == ProcessId(2)
                && matches!(s.msg, RsmMsg::SnapshotOffer { watermark: 1, .. })),
            "below the watermark the answer is a snapshot transfer: {:?}",
            out.sends
        );
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Decide { slot: 0, .. })),
            "the compacted slot itself cannot be resent"
        );
    }

    #[test]
    fn overheard_frontier_triggers_catchup_for_a_silent_gap() {
        // Regression: p2 misses the final suffix of the log; the decider
        // crashed, so nobody retransmits. The decider rejoins and broadcasts
        // CatchUp { low_slot: 5 } (it wants nothing — it *has* everything
        // below 5). That advert is p2's only evidence the suffix exists.
        let mut h = Harness::new(2, 3);
        h.start();
        // Quiet replica with no local evidence: retry ticks stay silent.
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut h.fx);
        h.sm.on_timer(&mut ctx, RETRY_TIMER);
        assert!(
            !h.fx
                .take()
                .sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::CatchUp { .. })),
            "no catch-up without evidence of missing slots"
        );
        h.deliver(0, RsmMsg::CatchUp { low_slot: 5 });
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut h.fx);
        h.sm.on_timer(&mut ctx, RETRY_TIMER);
        let out = h.fx.take();
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::CatchUp { low_slot: 0 })),
            "an overheard frontier above the cursor asks the cluster: {:?}",
            out.sends
        );
    }

    #[test]
    fn corrupt_chunk_is_ignored_and_retried_round_resends_it() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env0 = Env::new(ProcessId(0), 3);
        let mut sender: Log = ReplicatedLog::builder(&env0, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        decide_prefix(&env0, &mut sender, 4);
        // A state large enough for several chunks.
        sender.compact(4, vec![9; 80 * 1024]).unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env0, Instant::ZERO, &mut fx);
        sender.on_message(&mut ctx, ProcessId(2), RsmMsg::CatchUp { low_slot: 0 });
        let out = fx.take();
        let chunks: Vec<RsmMsg<u64>> = out
            .sends
            .into_iter()
            .filter(|s| matches!(s.msg, RsmMsg::SnapshotChunk { .. }))
            .map(|s| s.msg)
            .collect();
        assert!(
            chunks.len() >= 3,
            "32 KiB chunking: {} chunks",
            chunks.len()
        );

        let env2 = Env::new(ProcessId(2), 3);
        let mut recv: Log = ReplicatedLog::builder(&env2, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        // Corrupt the first chunk's payload; its CRC no longer matches.
        let mut corrupted = chunks.clone();
        if let RsmMsg::SnapshotChunk { data, .. } = &mut corrupted[0] {
            data[0] ^= 0xFF;
        }
        for msg in corrupted {
            let mut ctx = Ctx::new(&env2, Instant::ZERO, &mut fx);
            recv.on_message(&mut ctx, ProcessId(0), msg);
            fx.take();
        }
        assert_eq!(
            recv.watermark(),
            0,
            "a transfer with a corrupt chunk must not install"
        );
        // Redelivering the genuine first chunk completes the transfer.
        let mut ctx = Ctx::new(&env2, Instant::ZERO, &mut fx);
        recv.on_message(&mut ctx, ProcessId(0), chunks[0].clone());
        let out = fx.take();
        assert!(
            out.outputs
                .iter()
                .any(|o| matches!(o, RsmEvent::SnapshotInstalled { watermark: 4, .. })),
            "the repaired chunk completes the install"
        );
        assert_eq!(recv.watermark(), 4);
    }

    #[test]
    fn decides_below_the_watermark_are_dropped() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        decide_prefix(&env, &mut sm, 6);
        sm.compact(6, vec![]).unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Decide {
                slot: 2,
                entry: Entry::Cmd(999),
            },
        );
        let out = fx.take();
        assert!(
            out.outputs.is_empty(),
            "a pre-watermark Decide re-emits nothing"
        );
        assert_eq!(sm.chosen(2), None, "and is not re-admitted into the log");
    }

    // ---- Re-sending overdue Accepts ----

    /// Drives p0 to `Led` in a 5-replica group: a quorum is 3, so one
    /// `Accepted` leaves a slot in flight.
    fn led_leader_of_five() -> Harness {
        let mut h = Harness::new(0, 5);
        h.start();
        for p in [1, 2] {
            h.deliver(
                p,
                RsmMsg::Promise {
                    b: b(1, 0),
                    accepted: vec![],
                    low_slot: 0,
                },
            );
        }
        assert!(h.sm.is_established_leader());
        h
    }

    /// The peers an `Accept` of `slot` goes to in `fx`.
    fn accept_targets(fx: &Effects<RsmMsg<u64>, RsmEvent<u64>>, slot: u64) -> Vec<u32> {
        fx.sends
            .iter()
            .filter(|s| matches!(s.msg, RsmMsg::Accept { slot: s2, .. } if s2 == slot))
            .map(|s| s.to.0)
            .collect()
    }

    /// Slot 0 proposed at tick 10 and acked by p1 at tick 14: one 4-tick
    /// sample, so a slot is overdue once outstanding more than 8 ticks.
    fn leader_with_one_sample() -> Harness {
        let mut h = led_leader_of_five();
        h.request_at(t(10), 7);
        h.deliver_at(
            t(14),
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        assert_eq!(h.sm.inflight_len(), 1, "two of five votes choose nothing");
        h
    }

    #[test]
    fn a_slot_younger_than_twice_the_round_trip_is_not_resent() {
        let mut h = leader_with_one_sample();
        let out = h.retry_at(t(18));
        assert_eq!(
            accept_targets(&out, 0),
            Vec::<u32>::new(),
            "age 8 is not overdue"
        );
    }

    #[test]
    fn an_overdue_slot_is_resent_to_unacked_peers_only() {
        let mut h = leader_with_one_sample();
        let out = h.retry_at(t(19));
        assert_eq!(accept_targets(&out, 0), vec![2, 3, 4]);
    }

    #[test]
    fn before_any_sample_every_unacked_slot_is_resent() {
        let mut h = led_leader_of_five();
        h.request_at(t(10), 7);
        let out = h.retry_at(t(11));
        assert_eq!(accept_targets(&out, 0), vec![1, 2, 3, 4]);
    }

    #[test]
    fn acks_of_a_resent_slot_time_no_round_trip() {
        let mut h = leader_with_one_sample();
        h.retry_at(t(19));
        // A late ack of the re-sent slot 0 could answer either copy: were
        // it sampled (81 or 86 ticks), slot 1 would not be overdue at 9.
        h.deliver_at(
            t(100),
            2,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        h.request_at(t(110), 8);
        let out = h.retry_at(t(119));
        assert_eq!(accept_targets(&out, 1), vec![1, 2, 3, 4]);
    }

    // ---- Leader leases and the fast read path ----

    use crate::single::LeaseParams;

    fn t(ticks: u64) -> Instant {
        Instant::from_ticks(ticks)
    }

    /// Defaults with leases on: duration 120, skew 8 — blackout ends at
    /// tick 128, serving margin 112, holdoff margin 128.
    fn lease_params() -> ConsensusParams {
        ConsensusParams {
            lease: LeaseParams::enabled(),
            ..ConsensusParams::default()
        }
    }

    /// Drives p0 to `Led` *after* the boot blackout (leases delay the first
    /// election by one lease + skew): start at 0, retry tick at 200 starts
    /// the prepare, p1's promise completes the quorum.
    fn led_leaseholder() -> Harness {
        let mut h = Harness::with_params(0, 3, lease_params());
        h.start();
        let out = h.retry_at(t(200));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "the blackout has expired; the retry tick starts the prepare"
        );
        h.deliver_at(
            t(201),
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        assert!(h.sm.is_established_leader());
        h
    }

    #[test]
    fn boot_blackout_delays_the_first_election() {
        let mut h = Harness::with_params(0, 3, lease_params());
        let out = h.start();
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "no prepare may start inside the boot blackout"
        );
        let out = h.retry_at(t(40));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "still inside the blackout at tick 40"
        );
        let out = h.retry_at(t(129));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "the first tick past duration+skew may elect"
        );
    }

    /// A lease-configured replica on `store`, started at tick 0.
    fn durable_lease_replica(
        store: &StorageHandle,
    ) -> (Harness, Effects<RsmMsg<u64>, RsmEvent<u64>>) {
        let env = Env::new(ProcessId(0), 3);
        let sm = ReplicatedLog::builder(&env, lease_params())
            .storage(store.clone())
            .build()
            .expect("in-memory store");
        let mut h = Harness {
            env,
            sm,
            fx: Effects::new(),
        };
        let out = h.start();
        (h, out)
    }

    fn prepares(fx: &Effects<RsmMsg<u64>, RsmEvent<u64>>) -> bool {
        fx.sends
            .iter()
            .any(|s| matches!(s.msg, RsmMsg::Prepare { .. }))
    }

    #[test]
    fn a_first_incarnation_owes_no_boot_blackout() {
        // Storage that held no record had no predecessor to owe a holdoff
        // for: the initial Ω leader prepares on start.
        let (_, out) = durable_lease_replica(&StorageHandle::in_memory());
        assert!(prepares(&out), "a fresh durable replica elects at once");
    }

    #[test]
    fn a_restarted_durable_replica_sits_out_the_boot_blackout() {
        let store = StorageHandle::in_memory();
        drop(durable_lease_replica(&store));
        // The first incarnation wrote its boot record: this one recovers it
        // and refuses every ballot until duration + skew (128) has passed.
        let (mut h, out) = durable_lease_replica(&store);
        assert!(!prepares(&out), "no prepare inside the boot blackout");
        let prepare = |round| RsmMsg::Prepare {
            b: b(round, 1),
            from_slot: 0,
        };
        let out = h.deliver_at(t(100), 1, prepare(5));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Nack { .. })),
            "a competing prepare is refused inside the blackout: {:?}",
            out.sends
        );
        let out = h.deliver_at(t(129), 1, prepare(6));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Promise { .. })),
            "and promised once it ends: {:?}",
            out.sends
        );
    }

    #[test]
    fn lease_activates_on_quorum_ack_and_expires_conservatively() {
        let mut h = led_leaseholder();
        assert!(!h.sm.lease_read_allowed(t(201)), "no grant round yet");
        let out = h.retry_at(t(210));
        let grants = out
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RsmMsg::LeaseGrant { seq: 1, .. }))
            .count();
        assert_eq!(grants, 2, "one grant per peer, riding the retry tick");
        assert!(
            !h.sm.lease_read_allowed(t(210)),
            "a self-ack alone is not a quorum at n=3"
        );
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(h.sm.lease_read_allowed(t(211)));
        // Serving window: round_start (210) + duration (120) - skew (8).
        assert_eq!(h.sm.lease_active_until(), Some(t(322)));
        assert!(h.sm.lease_read_allowed(t(321)));
        assert!(
            !h.sm.lease_read_allowed(t(322)),
            "the conservative local expiry is exclusive"
        );
    }

    #[test]
    fn stale_lease_acks_do_not_activate() {
        let mut h = led_leaseholder();
        h.retry_at(t(210));
        h.retry_at(t(250)); // seq 2 supersedes seq 1
        h.deliver_at(t(251), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(
            !h.sm.lease_read_allowed(t(251)),
            "an ack of a superseded round must not activate the lease"
        );
        h.deliver_at(t(252), 2, RsmMsg::LeaseAck { b: b(1, 0), seq: 2 });
        assert!(h.sm.lease_read_allowed(t(252)));
    }

    #[test]
    fn granter_nacks_competing_prepares_until_holdoff_expires() {
        let mut h = Harness::with_params(1, 3, lease_params());
        h.start();
        // p0's established leader grants at tick 200: holdoff until
        // 200 + 120 + 8 = 328 on p1's clock.
        let out = h.deliver_at(t(200), 0, RsmMsg::LeaseGrant { b: b(1, 0), seq: 1 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(0) && matches!(s.msg, RsmMsg::LeaseAck { seq: 1, .. })),
            "the grant is acked"
        );
        // A competing prepare from p2 is refused while the holdoff runs...
        let out = h.deliver_at(
            t(250),
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Nack { .. })),
            "competing prepare must be nacked during the holdoff"
        );
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Promise { .. })),
            "and certainly not promised"
        );
        // ...while the holder itself may re-prepare (e.g. after a view
        // change bumps its round)...
        let out = h.deliver_at(
            t(251),
            0,
            RsmMsg::Prepare {
                b: b(3, 0),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(0) && matches!(s.msg, RsmMsg::Promise { .. })),
            "the leaseholder's own prepare passes the gate"
        );
        // ...and once the holdoff expires, anyone may.
        let out = h.deliver_at(
            t(400),
            2,
            RsmMsg::Prepare {
                b: b(4, 2),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Promise { .. })),
            "after expiry the competing prepare is promised"
        );
    }

    #[test]
    fn deposed_leader_grant_is_nacked_and_abdication_drops_the_lease() {
        // Granter p1 has already promised a higher ballot: the old leader's
        // renewal must be refused so it learns and abdicates.
        let mut h = Harness::with_params(1, 3, lease_params());
        h.start();
        h.deliver_at(
            t(200),
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 0,
            },
        );
        let out = h.deliver_at(t(210), 0, RsmMsg::LeaseGrant { b: b(1, 0), seq: 4 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(0) && matches!(s.msg, RsmMsg::Nack { .. })),
            "a grant under a superseded ballot is nacked"
        );
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseAck { .. })),
            "and never acked"
        );
        // The old leader, holding an active lease, abdicates on that Nack
        // and must stop serving immediately.
        let mut leader = led_leaseholder();
        leader.retry_at(t(210));
        leader.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(leader.sm.lease_read_allowed(t(212)));
        leader.deliver_at(
            t(213),
            1,
            RsmMsg::Nack {
                b: b(1, 0),
                higher: b(2, 2),
            },
        );
        assert!(
            !leader.sm.lease_read_allowed(t(214)),
            "abdication must drop the lease with it"
        );
    }

    #[test]
    fn newer_leaders_grant_deposes_a_stale_leader_and_keeps_its_holdoff() {
        // Regression: a stale leader that acks a newer leader's grant must
        // not usurp the holdoff it now owes. Before the fix, its next
        // retry tick ran lease_tick, flipped `holdoff_for` back to itself
        // while max-extending `holdoff_until`, and after abdicating it
        // could elect itself inside the new holder's live lease window —
        // overlapping leases at n >= 5.
        let mut h = led_leaseholder();
        h.retry_at(t(210)); // p0 self-grants: holdoff_for = p0 until 338
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        assert!(h.sm.lease_read_allowed(t(212)));
        // p1 won ballot (2, 1) elsewhere and now grants its lease to p0.
        let out = h.deliver_at(t(230), 1, RsmMsg::LeaseGrant { b: b(2, 1), seq: 1 });
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(1) && matches!(s.msg, RsmMsg::LeaseAck { seq: 1, .. })),
            "the outranking grant is acked"
        );
        assert!(
            !h.sm.is_established_leader(),
            "the outranking grant deposes the stale leader before the ack"
        );
        assert!(
            !h.sm.lease_read_allowed(t(231)),
            "deposed means no more lease-reads"
        );
        // The next retry tick must neither renew the old lease nor start a
        // competing prepare inside p1's holdoff (230 + 128 = 358).
        let out = h.retry_at(t(240));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseGrant { .. } | RsmMsg::Prepare { .. })),
            "no self-grant and no election while holding off for p1"
        );
        let out = h.retry_at(t(300));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "still holding off for p1 deep into its lease window"
        );
        // Once p1's holdoff expires, p0 may run for election again.
        let out = h.retry_at(t(360));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::Prepare { .. })),
            "liveness: elections resume after the owed holdoff expires"
        );
    }

    #[test]
    fn lease_tick_never_usurps_a_holdoff_owed_to_another() {
        // Belt and braces for the same regression, exercising the
        // lease_tick guard directly (white-box: the deposing LeaseGrant
        // handler makes Led-while-owing unreachable through messages,
        // which is exactly what this guard backstops).
        let mut h = led_leaseholder();
        h.sm.holdoff_for = Some(ProcessId(1));
        h.sm.holdoff_until = t(400);
        let out = h.retry_at(t(210));
        assert!(
            !out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseGrant { .. })),
            "no grant round may start inside an owed holdoff"
        );
        assert_eq!(
            h.sm.holdoff_for,
            Some(ProcessId(1)),
            "the owed holdoff is not replaced by a self-grant"
        );
        // Once the owed holdoff expires, renewals resume.
        let out = h.retry_at(t(410));
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, RsmMsg::LeaseGrant { .. })),
            "renewals resume once the owed holdoff expires"
        );
        assert_eq!(h.sm.holdoff_for, Some(ProcessId(0)));
    }

    #[test]
    fn read_index_is_answered_only_under_an_active_lease() {
        let mut h = led_leaseholder();
        let out = h.deliver_at(t(205), 2, RsmMsg::ReadIndex { req: 7 });
        assert!(
            out.sends.is_empty(),
            "no lease yet: the read-index request is dropped, not answered"
        );
        h.retry_at(t(210));
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        let out = h.deliver_at(t(212), 2, RsmMsg::ReadIndex { req: 7 });
        assert!(
            out.sends.iter().any(|s| s.to == ProcessId(2)
                && s.msg
                    == RsmMsg::ReadIndexReply {
                        req: 7,
                        index: 0,
                        b: b(1, 0)
                    }),
            "a leaseholder answers with its committed length"
        );
        // Past the serving window the same request is dropped again.
        let out = h.deliver_at(t(500), 2, RsmMsg::ReadIndex { req: 8 });
        assert!(
            out.sends.is_empty(),
            "an expired lease must not certify reads"
        );
    }

    #[test]
    fn request_read_index_is_synchronous_on_the_leaseholder() {
        let mut h = led_leaseholder();
        h.retry_at(t(210));
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        let mut ctx = Ctx::new(&h.env, t(212), &mut h.fx);
        h.sm.request_read_index(&mut ctx, 42);
        let out = h.fx.take();
        assert!(
            out.outputs
                .contains(&RsmEvent::ReadIndexAt { req: 42, index: 0 }),
            "the leaseholder certifies its own reads synchronously"
        );
        assert!(out.sends.is_empty());
    }

    #[test]
    fn skew_inversion_widens_the_serving_window_past_the_holdoff() {
        // The sabotage switch recreates the classic broken lease: the
        // leader serves until +skew while granters free themselves at
        // -skew — the E23 violation plane depends on this inversion.
        let params = ConsensusParams {
            lease: LeaseParams {
                unsafe_skew_inversion: true,
                ..LeaseParams::enabled()
            },
            ..ConsensusParams::default()
        };
        let mut h = Harness::with_params(0, 3, params);
        h.start();
        h.retry_at(t(200));
        h.deliver_at(
            t(201),
            1,
            RsmMsg::Promise {
                b: b(1, 0),
                accepted: vec![],
                low_slot: 0,
            },
        );
        h.retry_at(t(210));
        h.deliver_at(t(211), 1, RsmMsg::LeaseAck { b: b(1, 0), seq: 1 });
        // Broken serving window: 210 + 120 + 8 = 338 (safe: 322).
        assert_eq!(h.sm.lease_active_until(), Some(t(338)));
        // Broken granter holdoff, receiving side: a grant at 210 frees the
        // granter at 210 + 120 - 8 = 322 < 338 — the stale-read gap.
        let mut g = Harness::with_params(1, 3, params);
        g.start();
        g.deliver_at(t(210), 0, RsmMsg::LeaseGrant { b: b(1, 0), seq: 1 });
        let out = g.deliver_at(
            t(330),
            2,
            RsmMsg::Prepare {
                b: b(2, 2),
                from_slot: 0,
            },
        );
        assert!(
            out.sends
                .iter()
                .any(|s| s.to == ProcessId(2) && matches!(s.msg, RsmMsg::Promise { .. })),
            "the broken granter frees itself while the leader still serves"
        );
    }

    /// A replica of a 3-replica group in external-leadership mode, so a
    /// test makes it leader with [`Harness::lead`].
    fn externally_led(me: u32) -> Harness {
        let env = Env::new(ProcessId(me), 3);
        Harness {
            env,
            sm: ReplicatedLog::builder(&env, ConsensusParams::default())
                .externally_led()
                .build()
                .unwrap(),
            fx: Effects::new(),
        }
    }

    impl Harness {
        fn lead(&mut self) -> Effects<RsmMsg<u64>, RsmEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.set_leader(&mut ctx, self.env.id());
            self.fx.take()
        }
    }

    /// The entry each `Accept` in `fx` proposes, by slot.
    fn accepts_of(fx: &Effects<RsmMsg<u64>, RsmEvent<u64>>) -> BTreeMap<u64, Entry<u64>> {
        fx.sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Accept { slot, entry, .. } => Some((*slot, entry.clone())),
                _ => None,
            })
            .collect()
    }

    /// Votes for slot 1 under p0's ballot `b(1, 0)`, then learns slot 1
    /// chosen; slot 0 stays unknown.
    fn learn_slot_one_after_voting(h: &mut Harness) {
        h.deliver(
            0,
            RsmMsg::Prepare {
                b: b(1, 0),
                from_slot: 0,
            },
        );
        h.deliver(
            0,
            RsmMsg::Accept {
                b: b(1, 0),
                slot: 1,
                entry: Entry::Cmd(11),
                commit: 0,
            },
        );
        assert_eq!(h.sm.vote(1), Some((b(1, 0), &Entry::Cmd(11))));
        h.deliver(
            0,
            RsmMsg::Decide {
                slot: 1,
                entry: Entry::Cmd(11),
            },
        );
        assert_eq!(h.sm.vote(1), None, "learning the slot drops its vote");
        assert_eq!(h.sm.committed_len(), 0);
    }

    #[test]
    fn a_lagging_leader_re_proposes_exactly_what_a_promiser_knows_chosen() {
        let mut p1 = externally_led(1);
        learn_slot_one_after_voting(&mut p1);
        // p2 promised p0's ballot too, knows nothing chosen, and has a
        // command queued.
        let mut p2 = externally_led(2);
        p2.deliver(
            0,
            RsmMsg::Prepare {
                b: b(1, 0),
                from_slot: 0,
            },
        );
        p2.request(99);
        let prepare = p2
            .lead()
            .sends
            .into_iter()
            .find(|s| s.to == ProcessId(1))
            .expect("p2 prepares")
            .msg;
        let promise = p1
            .deliver(2, prepare)
            .sends
            .into_iter()
            .find(|s| matches!(s.msg, RsmMsg::Promise { .. }))
            .expect("p1 promises")
            .msg;
        let RsmMsg::Promise {
            b: pb, accepted, ..
        } = &promise
        else {
            unreachable!()
        };
        assert_eq!(
            accepted,
            &vec![(1, *pb, Entry::Cmd(11))],
            "the chosen slot is revealed at the promised ballot"
        );
        let out = p2.deliver(1, promise);
        assert!(p2.sm.is_established_leader());
        let accepts = accepts_of(&out);
        assert_eq!(
            accepts.get(&1),
            Some(&Entry::Cmd(11)),
            "slot 1 carries exactly the chosen entry: {accepts:?}"
        );
        assert_eq!(accepts.get(&0), Some(&Entry::Noop), "{accepts:?}");
        assert_eq!(accepts.get(&2), Some(&Entry::Cmd(99)), "{accepts:?}");
    }

    #[test]
    fn a_new_leaders_self_promise_reveals_what_it_knows_chosen() {
        let mut p2 = externally_led(2);
        learn_slot_one_after_voting(&mut p2);
        p2.request(99);
        p2.lead();
        let LeaderState::Preparing {
            b: lb, gathered, ..
        } = &p2.sm.state
        else {
            panic!("p2 prepares: {:?}", p2.sm.state);
        };
        let lb = *lb;
        assert_eq!(
            gathered.get(&1),
            Some(&(lb, Entry::Cmd(11))),
            "the self-promise reveals the chosen slot at its own ballot"
        );
        // p1 reveals an older vote for slot 1 that lost.
        let out = p2.deliver(
            1,
            RsmMsg::Promise {
                b: lb,
                accepted: vec![(1, b(0, 1), Entry::Cmd(55))],
                low_slot: 0,
            },
        );
        assert!(p2.sm.is_established_leader());
        let accepts = accepts_of(&out);
        assert_eq!(accepts.get(&0), Some(&Entry::Noop), "{accepts:?}");
        assert!(
            !accepts.contains_key(&1),
            "a slot the leader knows chosen is announced, never re-proposed: {accepts:?}"
        );
        assert_eq!(accepts.get(&2), Some(&Entry::Cmd(99)), "{accepts:?}");
        let decided: Vec<&Entry<u64>> = out
            .sends
            .iter()
            .filter_map(|s| match &s.msg {
                RsmMsg::Decide { slot: 1, entry } => Some(entry),
                _ => None,
            })
            .collect();
        assert!(
            !decided.is_empty() && decided.iter().all(|e| **e == Entry::Cmd(11)),
            "slot 1 is announced with its chosen entry: {decided:?}"
        );
    }

    #[test]
    fn recovery_keeps_no_vote_for_a_chosen_slot_and_still_reveals_it() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let records: Vec<RsmRecord<u64>> = vec![
            RsmRecord::Promised(b(1, 0)),
            RsmRecord::Accepted {
                slot: 0,
                b: b(1, 0),
                entry: Entry::Cmd(5),
            },
            RsmRecord::Chosen {
                slot: 0,
                entry: Entry::Cmd(5),
            },
            RsmRecord::Chosen {
                slot: 2,
                entry: Entry::Cmd(7),
            },
            // A later leader re-proposed the chosen slot 2.
            RsmRecord::Accepted {
                slot: 2,
                b: b(2, 2),
                entry: Entry::Cmd(7),
            },
            RsmRecord::Accepted {
                slot: 3,
                b: b(2, 2),
                entry: Entry::Cmd(8),
            },
        ];
        store.append_records(&records).unwrap();
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(store)
            .build()
            .unwrap();
        assert_eq!((sm.vote(0), sm.vote(2)), (None, None));
        assert_eq!(sm.vote(3), Some((b(2, 2), &Entry::Cmd(8))));
        assert_eq!(sm.committed_len(), 1);
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm.on_message(
            &mut ctx,
            ProcessId(0),
            RsmMsg::Prepare {
                b: b(5, 0),
                from_slot: 1,
            },
        );
        let mut revealed = fx
            .take()
            .sends
            .into_iter()
            .find_map(|s| match s.msg {
                RsmMsg::Promise { accepted, .. } => Some(accepted),
                _ => None,
            })
            .expect("the recovered acceptor promises");
        revealed.sort_by_key(|(slot, ..)| *slot);
        assert_eq!(
            revealed,
            vec![(2, b(5, 0), Entry::Cmd(7)), (3, b(2, 2), Entry::Cmd(8))]
        );
    }

    #[test]
    fn the_dense_run_covers_exactly_the_watermark_to_the_cursor() {
        use lls_primitives::{SnapshotHandle, StorageHandle};
        let env = Env::new(ProcessId(1), 3);
        let mut sm: Log = ReplicatedLog::builder(&env, ConsensusParams::default())
            .storage(StorageHandle::in_memory())
            .snapshots(SnapshotHandle::in_memory())
            .build()
            .unwrap();
        let mut fx: Effects<RsmMsg<u64>, RsmEvent<u64>> = Effects::new();
        let mut deliver = |sm: &mut Log, msg: RsmMsg<u64>| {
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(&mut ctx, ProcessId(0), msg);
            fx.take()
        };
        let decide = |slot: u64| RsmMsg::Decide {
            slot,
            entry: Entry::Cmd(slot),
        };
        let assert_dense = |sm: &Log, watermark: u64, cursor: u64| {
            assert_eq!((sm.watermark(), sm.committed_len()), (watermark, cursor));
            assert_eq!((sm.chosen.base(), sm.chosen.end()), (watermark, cursor));
        };
        // Learned out of order, above a gap at slot 0.
        for slot in [3, 5, 1] {
            deliver(&mut sm, decide(slot));
            assert_dense(&sm, 0, 0);
        }
        deliver(&mut sm, decide(0));
        assert_dense(&sm, 0, 2);
        deliver(&mut sm, decide(2));
        assert_dense(&sm, 0, 4);
        deliver(&mut sm, decide(4));
        assert_dense(&sm, 0, 6);
        // Compaction inside the run.
        assert!(sm.compact(2, vec![1]).unwrap());
        assert_dense(&sm, 2, 6);
        assert_eq!(
            sm.committed_commands().collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        // A snapshot installed above the run, at a slot already known.
        deliver(&mut sm, decide(9));
        deliver(&mut sm, decide(10));
        deliver(&mut sm, decide(12));
        assert_dense(&sm, 2, 6);
        let data = vec![8u8; 3];
        let out = deliver(
            &mut sm,
            RsmMsg::SnapshotChunk {
                watermark: 9,
                index: 0,
                chunks: 1,
                crc: crc32(&data),
                chunk_crc: crc32(&data),
                data,
            },
        );
        assert_dense(&sm, 9, 11);
        let committed: Vec<u64> = out
            .outputs
            .iter()
            .filter_map(|o| match o {
                RsmEvent::Committed { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![9, 10], "emitted after the install");
        assert_eq!(sm.chosen(8), None);
        assert_eq!(sm.chosen(12), Some(Entry::Cmd(12)));
        deliver(&mut sm, decide(11));
        assert_dense(&sm, 9, 13);
    }

    #[test]
    fn a_decide_near_the_top_of_the_slot_range_stays_sparse() {
        let mut h = Harness::new(1, 3);
        h.deliver(
            0,
            RsmMsg::Decide {
                slot: u64::MAX - 1,
                entry: Entry::Cmd(1),
            },
        );
        assert_eq!(h.sm.chosen(u64::MAX - 1), Some(Entry::Cmd(1)));
        assert_eq!((h.sm.chosen.base(), h.sm.chosen.end()), (0, 0));
        assert_eq!(h.sm.committed_len(), 0);
        h.deliver(
            0,
            RsmMsg::Decide {
                slot: 0,
                entry: Entry::Cmd(0),
            },
        );
        assert_eq!(h.sm.committed_len(), 1);
        assert_eq!((h.sm.chosen.base(), h.sm.chosen.end()), (0, 1));
    }
}
