//! Single-shot leader-driven consensus over fair-lossy links.
//!
//! A Synod-style ballot protocol whose proposer role is gated by the
//! embedded communication-efficient Ω detector: only the process that
//! currently trusts itself drives ballots, so after Ω stabilizes there is a
//! single proposer and decisions complete in one prepare/accept round trip.
//!
//! Fair-lossy links lose messages, so every phase is driven by a
//! retransmission timer and every acceptor reply is idempotent: a proposer
//! re-broadcasts its current phase message to the peers it has not heard
//! from, and re-received `Prepare`/`Accept` messages are re-answered.
//! **Safety never depends on timing or on Ω being right** — ballots and
//! majority quorums alone guarantee agreement; Ω (and a correct majority)
//! only buy liveness, exactly as the paper claims for system `S_maj`.

use std::fmt;

use lls_obs::{NoopProbe, Probe, ProbeEvent};
use lls_primitives::{
    Ctx, Duration, Effects, Env, Instant, ProcessId, Sm, StorageError, StorageHandle, TimerCmd,
    TimerId, Wire,
};
use omega::{BatchParams, CommEffOmega, OmegaMsg, OmegaParams};

use crate::ballot::Ballot;
use crate::durable::AcceptorRecord;
use crate::msg::ConsensusMsg;

/// Timer driving retransmission and proposer restarts.
pub const RETRY_TIMER: TimerId = TimerId(0);

/// Embedded Ω timers are remapped above this base.
pub const OMEGA_TIMER_BASE: u32 = 1_000;

/// Parameters of a [`Consensus`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusParams {
    /// Parameters of the embedded Ω detector.
    pub omega: OmegaParams,
    /// Retransmission / proposer-restart period.
    pub retry: Duration,
    /// Batching/pipelining knobs of the replicated log's leader fast path
    /// (ignored by single-shot consensus, which has exactly one slot).
    pub batch: BatchParams,
    /// Leader-lease knobs of the replicated log's fast read path (ignored
    /// by single-shot consensus; off by default).
    pub lease: LeaseParams,
}

impl Default for ConsensusParams {
    /// Ω defaults plus a 40-tick retry period; batching off, leases off.
    fn default() -> Self {
        ConsensusParams {
            omega: OmegaParams::default(),
            retry: Duration::from_ticks(40),
            batch: BatchParams::default(),
            lease: LeaseParams::default(),
        }
    }
}

/// Leader-lease parameters of the replicated log's fast read path.
///
/// A lease is a *bet on the ♦-timely-source assumption*: the leader asks a
/// quorum to promise not to promise a competing ballot for `duration`, and
/// the grant is only useful if the two clocks advance at comparable rates.
/// The safety margin is asymmetric on purpose — each **granter** holds off
/// elections until `receipt + duration + skew` on its own clock, while the
/// **leader** stops serving lease-reads at `round_start + duration - skew`
/// on its clock — so with per-process clock error bounded by `skew`, the
/// leader's serving window always ends before any granter frees itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseParams {
    /// Master switch. Off by default: with leases disabled the log behaves
    /// exactly as before this feature existed (no grant traffic, no boot
    /// blackout, lease-reads refused).
    pub enabled: bool,
    /// Nominal lease length, granted per renewal round. Renewals ride the
    /// retry timer, so this should comfortably exceed `retry` or the lease
    /// blinks off between ticks.
    pub duration: Duration,
    /// Bound on per-process clock error over one lease. Subtracted from the
    /// leader's serving window and added to the granters' holdoff.
    pub skew: Duration,
    /// **Test-only sabotage switch**: invert the skew margins (leader serves
    /// until `+ skew`, granters free at `- skew`), recreating the classic
    /// broken-lease implementation that trusts clocks exactly. The
    /// induced-violation plane (E23) uses this to prove the `StaleRead`
    /// watchdog catches a real violation. Never enable outside tests.
    pub unsafe_skew_inversion: bool,
}

impl Default for LeaseParams {
    /// Disabled; 120-tick leases with an 8-tick skew bound when enabled.
    fn default() -> Self {
        LeaseParams {
            enabled: false,
            duration: Duration::from_ticks(120),
            skew: Duration::from_ticks(8),
            unsafe_skew_inversion: false,
        }
    }
}

impl LeaseParams {
    /// Enabled lease with the default duration/skew — the common test knob.
    pub fn enabled() -> Self {
        LeaseParams {
            enabled: true,
            ..LeaseParams::default()
        }
    }
}

/// Observable events of a [`Consensus`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusEvent<V> {
    /// The embedded Ω detector changed its output.
    Leader(ProcessId),
    /// This process decided `V` (emitted exactly once per process).
    Decided(V),
}

/// The proposer's current phase.
#[derive(Debug, Clone)]
enum Role<V> {
    Idle,
    Preparing {
        b: Ballot,
        /// Per process: `Some(reply)` once its promise arrived.
        promises: Vec<Option<Option<(Ballot, V)>>>,
    },
    Accepting {
        b: Ballot,
        v: V,
        acks: Vec<bool>,
    },
}

/// Single-shot consensus state machine (acceptor + Ω-gated proposer +
/// learner in one process).
///
/// See the [crate-level example](crate).
///
/// The `P` parameter is an observability [`Probe`] shared with the embedded
/// Ω detector; the default [`NoopProbe`] costs nothing.
#[derive(Debug, Clone)]
pub struct Consensus<V, P: Probe = NoopProbe> {
    env: Env,
    params: ConsensusParams,
    omega: CommEffOmega<P>,
    proposal: Option<V>,
    decided: Option<V>,
    // Acceptor state.
    promised: Ballot,
    accepted: Option<(Ballot, V)>,
    // Proposer state.
    role: Role<V>,
    highest_seen: Ballot,
    // Learner/decider state.
    decide_acks: Vec<bool>,
    retransmit_decide: bool,
    // Durability (see `crate::durable` for the safety arguments).
    storage: Option<StorageHandle>,
    wedged: bool,
    /// Observability sink; `NoopProbe` by default (zero cost).
    probe: P,
    /// Wall of the last stimulus (`ctx.now()` at handler entry) — gives the
    /// persistence path a timestamp without threading `ctx` through it.
    clock: Instant,
}

impl<V> Consensus<V>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + 'static,
{
    /// Creates a consensus instance; `proposal` is this process's initial
    /// value (it may also arrive later as a request).
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new(env: &Env, params: ConsensusParams, proposal: Option<V>) -> Self {
        Consensus::new_with_probe(env, params, proposal, NoopProbe)
    }

    /// Creates a consensus instance backed by a durable log, recovering any
    /// state a previous incarnation persisted.
    ///
    /// Recovery runs here, synchronously, before any stimulus — the
    /// "recovering rejoin mode": the machine stays quiet until its promised
    /// ballot, accepted pair, decision and Ω counter are reloaded, so a
    /// restart can never answer from pre-crash amnesia. A recovered decision
    /// is *not* re-emitted as an output (integrity: decide at most once),
    /// and the recovered Ω counter is bumped once so the restarted process
    /// rejoins as a follower. See [`crate::durable`] for the per-field
    /// safety arguments.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage(
        env: &Env,
        params: ConsensusParams,
        proposal: Option<V>,
        storage: StorageHandle,
    ) -> Result<Self, StorageError> {
        Consensus::with_storage_and_probe(env, params, proposal, storage, NoopProbe)
    }
}

impl<V, P> Consensus<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + 'static,
    P: Probe,
{
    /// Like [`Consensus::new`], with an observability probe (shared with
    /// the embedded Ω detector, so one sink sees both layers).
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn new_with_probe(
        env: &Env,
        params: ConsensusParams,
        proposal: Option<V>,
        probe: P,
    ) -> Self {
        Consensus {
            env: *env,
            params,
            omega: CommEffOmega::new_with_probe(env, params.omega, probe.clone()),
            proposal,
            decided: None,
            promised: Ballot::ZERO,
            accepted: None,
            role: Role::Idle,
            highest_seen: Ballot::ZERO,
            decide_acks: vec![false; env.n()],
            retransmit_decide: false,
            storage: None,
            wedged: false,
            probe,
            clock: Instant::ZERO,
        }
    }

    /// Like [`Consensus::with_storage`], with an observability probe.
    ///
    /// # Errors
    ///
    /// Fails if the log cannot be read or the boot record cannot be written.
    ///
    /// # Panics
    ///
    /// Panics if the Ω parameters are invalid.
    pub fn with_storage_and_probe(
        env: &Env,
        params: ConsensusParams,
        proposal: Option<V>,
        storage: StorageHandle,
        probe: P,
    ) -> Result<Self, StorageError> {
        let mut sm = Consensus::new_with_probe(env, params, proposal, probe);
        let records: Vec<AcceptorRecord<V>> = storage.load_records()?;
        sm.probe.emit(ProbeEvent::WalRecover {
            node: env.id(),
            at: Instant::ZERO,
            records: records.len() as u64,
        });
        let recovering = !records.is_empty();
        let mut omega_counter = 0u64;
        for rec in records {
            match rec {
                AcceptorRecord::OmegaCounter(c) => omega_counter = omega_counter.max(c),
                AcceptorRecord::Promised(b) => sm.promised = sm.promised.max(b),
                AcceptorRecord::Accepted(b, v) => {
                    // An accept implies a promise at the same ballot.
                    sm.promised = sm.promised.max(b);
                    if sm.accepted.as_ref().is_none_or(|(ab, _)| b >= *ab) {
                        sm.accepted = Some((b, v));
                    }
                }
                AcceptorRecord::Decided(v) => sm.decided = Some(v),
            }
        }
        sm.highest_seen = sm.promised;
        let boot_counter = if recovering {
            omega_counter.saturating_add(1)
        } else {
            0
        };
        // Write-ahead even for the boot record: if this fails, the process
        // never joins, so no peer can have heard the new counter.
        storage.append_record(&AcceptorRecord::<V>::OmegaCounter(boot_counter))?;
        sm.omega.restore_own_counter(boot_counter);
        sm.storage = Some(storage);
        Ok(sm)
    }

    /// Appends `rec` to the durable log, if one is attached. Returns `false`
    /// — and wedges the machine — if the append failed: a process that
    /// cannot persist its promises must fall silent (behave as crashed)
    /// rather than make commitments it could forget.
    fn persist(&mut self, rec: &AcceptorRecord<V>) -> bool {
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

    /// The decided value, if this process has learned it.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The embedded Ω detector (for instrumentation).
    pub fn omega(&self) -> &CommEffOmega<P> {
        &self.omega
    }

    /// The value this process proposes, if any.
    pub fn proposal(&self) -> Option<&V> {
        self.proposal.as_ref()
    }

    /// The acceptor's current promise (for instrumentation).
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    fn me(&self) -> ProcessId {
        self.env.id()
    }

    fn majority(&self) -> usize {
        self.env.membership().majority()
    }

    /// Runs one embedded-Ω step and translates its effects: sends are
    /// wrapped, timers are remapped above [`OMEGA_TIMER_BASE`], leader
    /// changes become [`ConsensusEvent::Leader`] and may activate the
    /// proposer.
    fn drive_omega(
        &mut self,
        ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>,
        step: impl FnOnce(&mut CommEffOmega<P>, &mut Ctx<'_, OmegaMsg, ProcessId>),
    ) {
        let mut fx: Effects<OmegaMsg, ProcessId> = Effects::new();
        let counter_before = self.omega.own_counter();
        {
            let mut octx = Ctx::new(&self.env, ctx.now(), &mut fx);
            step(&mut self.omega, &mut octx);
        }
        // Write-ahead for the embedded Ω: a bumped accusation counter must be
        // durable before any effect of this step can carry it out. On
        // failure the machine wedges and the step's effects are discarded.
        let counter_after = self.omega.own_counter();
        if counter_after != counter_before
            && !self.persist(&AcceptorRecord::OmegaCounter(counter_after))
        {
            return;
        }
        for s in fx.sends {
            ctx.send(s.to, ConsensusMsg::Omega(s.msg));
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
            ctx.output(ConsensusEvent::Leader(leader));
            self.on_leader_change(ctx, leader);
        }
    }

    fn on_leader_change(
        &mut self,
        ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>,
        leader: ProcessId,
    ) {
        if leader == self.me() {
            if self.decided.is_none() && matches!(self.role, Role::Idle) && self.proposal.is_some()
            {
                self.start_prepare(ctx);
            }
        } else {
            // Demoted: abandon any in-flight ballot. Safety is unaffected —
            // the ballot simply never reaches a quorum.
            self.role = Role::Idle;
        }
    }

    fn start_prepare(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>) {
        let b = self.highest_seen.max(self.promised).next_for(self.me());
        if !self.persist(&AcceptorRecord::Promised(b)) {
            return;
        }
        self.highest_seen = b;
        let mut promises: Vec<Option<Option<(Ballot, V)>>> = vec![None; self.env.n()];
        // Promise to our own ballot locally.
        self.promised = b;
        promises[self.me().as_usize()] = Some(self.accepted.clone());
        self.role = Role::Preparing { b, promises };
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.env.id(),
            at: ctx.now(),
            label: "prepare",
            number: b.round(),
        });
        ctx.broadcast(ConsensusMsg::Prepare { b });
        self.try_finish_prepare(ctx);
    }

    /// Phase 1 → phase 2 transition once a majority has promised.
    fn try_finish_prepare(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>) {
        let Role::Preparing { b, promises } = &self.role else {
            return;
        };
        let count = promises.iter().filter(|p| p.is_some()).count();
        if count < self.majority() {
            return;
        }
        let b = *b;
        // The classic choice rule: adopt the value of the highest-ballot
        // accepted pair revealed by the quorum, else be free to propose.
        let inherited = promises
            .iter()
            .flatten()
            .flatten()
            .max_by_key(|(ab, _)| *ab)
            .map(|(_, v)| v.clone());
        let v = match inherited.or_else(|| self.proposal.clone()) {
            Some(v) => v,
            None => {
                // Leader without a value: nothing to drive yet.
                self.role = Role::Idle;
                return;
            }
        };
        if !self.persist(&AcceptorRecord::Accepted(b, v.clone())) {
            return;
        }
        let mut acks = vec![false; self.env.n()];
        // Accept our own proposal locally.
        self.promised = b;
        self.accepted = Some((b, v.clone()));
        acks[self.me().as_usize()] = true;
        self.role = Role::Accepting {
            b,
            v: v.clone(),
            acks,
        };
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.env.id(),
            at: ctx.now(),
            label: "accept",
            number: b.round(),
        });
        ctx.broadcast(ConsensusMsg::Accept { b, v });
        self.try_finish_accept(ctx);
    }

    /// Phase 2 → decision once a majority has accepted.
    fn try_finish_accept(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>) {
        let Role::Accepting { v, acks, .. } = &self.role else {
            return;
        };
        if acks.iter().filter(|a| **a).count() < self.majority() {
            return;
        }
        let v = v.clone();
        self.role = Role::Idle;
        self.learn(ctx, v.clone());
        if self.wedged {
            return;
        }
        self.retransmit_decide = true;
        let me = self.me().as_usize();
        self.decide_acks[me] = true;
        ctx.broadcast(ConsensusMsg::Decide { v });
    }

    fn learn(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>, v: V) {
        // Agreement is checked externally by the consensus checker.
        if self.decided.is_none() {
            if !self.persist(&AcceptorRecord::Decided(v.clone())) {
                return;
            }
            self.decided = Some(v.clone());
            self.probe.emit(ProbeEvent::Decide {
                node: self.env.id(),
                at: ctx.now(),
                slot: 0,
            });
            ctx.output(ConsensusEvent::Decided(v));
        }
    }

    fn on_retry(&mut self, ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>) {
        if let Some(v) = self.decided.clone() {
            // Dissemination: the original decider retransmits to peers that
            // have not acknowledged — and so does the current Ω leader, in
            // case the decider crashed before everyone learned (the leader
            // is sending ALIVEs forever anyway, so the steady sender set is
            // unchanged).
            if self.retransmit_decide || self.omega.is_leader() {
                for q in self.env.membership().others(self.me()) {
                    if !self.decide_acks[q.as_usize()] {
                        ctx.send(q, ConsensusMsg::Decide { v: v.clone() });
                    }
                }
            }
            return;
        }
        if !self.omega.is_leader() {
            self.role = Role::Idle;
            return;
        }
        match &self.role {
            Role::Idle => {
                if self.proposal.is_some() || self.accepted.is_some() {
                    self.start_prepare(ctx);
                }
            }
            Role::Preparing { b, promises } => {
                let b = *b;
                let missing: Vec<ProcessId> = self
                    .env
                    .membership()
                    .others(self.me())
                    .filter(|q| promises[q.as_usize()].is_none())
                    .collect();
                for q in missing {
                    ctx.send(q, ConsensusMsg::Prepare { b });
                }
            }
            Role::Accepting { b, v, acks } => {
                let (b, v) = (*b, v.clone());
                let missing: Vec<ProcessId> = self
                    .env
                    .membership()
                    .others(self.me())
                    .filter(|q| !acks[q.as_usize()])
                    .collect();
                for q in missing {
                    ctx.send(q, ConsensusMsg::Accept { b, v: v.clone() });
                }
            }
        }
    }

    fn on_consensus_msg(
        &mut self,
        ctx: &mut Ctx<'_, ConsensusMsg<V>, ConsensusEvent<V>>,
        from: ProcessId,
        msg: ConsensusMsg<V>,
    ) {
        match msg {
            ConsensusMsg::Omega(_) => unreachable!("routed by caller"),
            ConsensusMsg::Prepare { b } => {
                self.highest_seen = self.highest_seen.max(b);
                if b >= self.promised {
                    // Write-ahead: the promise must be durable before the
                    // Promise reply can leave; a failed append drops the
                    // message (as if lost) and wedges the machine.
                    if !self.persist(&AcceptorRecord::Promised(b)) {
                        return;
                    }
                    self.promised = b;
                    ctx.send(
                        from,
                        ConsensusMsg::Promise {
                            b,
                            accepted: self.accepted.clone(),
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        ConsensusMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            ConsensusMsg::Promise { b, accepted } => {
                if let Role::Preparing { b: cur, promises } = &mut self.role {
                    if *cur == b {
                        promises[from.as_usize()] = Some(accepted);
                        self.try_finish_prepare(ctx);
                    }
                }
            }
            ConsensusMsg::Accept { b, v } => {
                self.highest_seen = self.highest_seen.max(b);
                if b >= self.promised {
                    if !self.persist(&AcceptorRecord::Accepted(b, v.clone())) {
                        return;
                    }
                    self.promised = b;
                    self.accepted = Some((b, v));
                    ctx.send(from, ConsensusMsg::Accepted { b });
                } else {
                    ctx.send(
                        from,
                        ConsensusMsg::Nack {
                            b,
                            higher: self.promised,
                        },
                    );
                }
            }
            ConsensusMsg::Accepted { b } => {
                if let Role::Accepting { b: cur, acks, .. } = &mut self.role {
                    if *cur == b {
                        acks[from.as_usize()] = true;
                        self.try_finish_accept(ctx);
                    }
                }
            }
            ConsensusMsg::Nack { b, higher } => {
                self.highest_seen = self.highest_seen.max(higher);
                let ours = match &self.role {
                    Role::Preparing { b: cur, .. } | Role::Accepting { b: cur, .. } => *cur == b,
                    Role::Idle => false,
                };
                if ours {
                    // Our ballot is dead; restart from a higher one at the
                    // next retry tick (immediate restart would duel hotly).
                    self.role = Role::Idle;
                }
            }
            ConsensusMsg::Decide { v } => {
                self.learn(ctx, v);
                ctx.send(from, ConsensusMsg::DecideAck);
            }
            ConsensusMsg::DecideAck => {
                self.decide_acks[from.as_usize()] = true;
            }
        }
    }
}

impl<V, P> Sm for Consensus<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + 'static,
    P: Probe,
{
    type Msg = ConsensusMsg<V>;
    type Output = ConsensusEvent<V>;
    type Request = V;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        ctx.set_timer(RETRY_TIMER, self.params.retry);
        self.drive_omega(ctx, |omega, octx| omega.on_start(octx));
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
            ConsensusMsg::Omega(m) => {
                self.drive_omega(ctx, |omega, octx| omega.on_message(octx, from, m));
            }
            other => self.on_consensus_msg(ctx, from, other),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if timer.0 >= OMEGA_TIMER_BASE {
            let inner = TimerId(timer.0 - OMEGA_TIMER_BASE);
            self.drive_omega(ctx, |omega, octx| omega.on_timer(octx, inner));
        } else if timer == RETRY_TIMER {
            self.on_retry(ctx);
            ctx.set_timer(RETRY_TIMER, self.params.retry);
        } else {
            debug_assert!(false, "unexpected timer {timer}");
        }
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: V) {
        self.clock = ctx.now();
        if self.wedged {
            return;
        }
        if self.proposal.is_none() {
            self.proposal = Some(req);
            if self.omega.is_leader() && self.decided.is_none() && matches!(self.role, Role::Idle) {
                self.start_prepare(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::Instant;

    type C = Consensus<u64>;

    struct Harness {
        env: Env,
        sm: C,
        fx: Effects<ConsensusMsg<u64>, ConsensusEvent<u64>>,
    }

    impl Harness {
        fn new(me: u32, n: usize, proposal: Option<u64>) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = Consensus::new(&env, ConsensusParams::default(), proposal);
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn start(&mut self) -> Effects<ConsensusMsg<u64>, ConsensusEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(
            &mut self,
            from: u32,
            msg: ConsensusMsg<u64>,
        ) -> Effects<ConsensusMsg<u64>, ConsensusEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn fire_retry(&mut self) -> Effects<ConsensusMsg<u64>, ConsensusEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_timer(&mut ctx, RETRY_TIMER);
            self.fx.take()
        }
    }

    fn b(round: u64, leader: u32) -> Ballot {
        Ballot::new(round, ProcessId(leader))
    }

    #[test]
    fn initial_omega_leader_proposes_at_start() {
        let mut h = Harness::new(0, 3, Some(42));
        let fx = h.start();
        // p0 trusts itself at start → sends Prepare to both peers.
        let prepares = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, ConsensusMsg::Prepare { .. }))
            .count();
        assert_eq!(prepares, 2);
    }

    #[test]
    fn followers_do_not_propose() {
        let mut h = Harness::new(1, 3, Some(42));
        let fx = h.start();
        assert!(fx
            .sends
            .iter()
            .all(|s| matches!(s.msg, ConsensusMsg::Omega(_))));
    }

    #[test]
    fn full_round_reaches_decision_with_majority() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start();
        // One promise (plus self) = majority of 3.
        let fx = h.deliver(
            1,
            ConsensusMsg::Promise {
                b: b(1, 0),
                accepted: None,
            },
        );
        let accepts = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, ConsensusMsg::Accept { v: 42, .. }))
            .count();
        assert_eq!(accepts, 2, "phase 2 must broadcast the proposal");
        // One accepted (plus self) = majority → decide.
        let fx = h.deliver(1, ConsensusMsg::Accepted { b: b(1, 0) });
        assert_eq!(h.sm.decision(), Some(&42));
        assert!(fx.outputs.contains(&ConsensusEvent::Decided(42)));
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Decide { v: 42 })));
    }

    #[test]
    fn prepare_quorum_inherits_highest_accepted_value() {
        let mut h = Harness::new(0, 5, Some(42));
        h.start();
        h.deliver(
            1,
            ConsensusMsg::Promise {
                b: b(1, 0),
                accepted: Some((b(0, 3), 7)),
            },
        );
        let fx = h.deliver(
            2,
            ConsensusMsg::Promise {
                b: b(1, 0),
                accepted: Some((b(0, 4), 9)),
            },
        );
        // Majority (3 of 5 incl. self): must propose 9 (higher ballot (0,4)).
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Accept { v: 9, .. })));
    }

    #[test]
    fn acceptor_promises_monotonically_and_nacks_stale() {
        let mut h = Harness::new(1, 3, None);
        h.start();
        let fx = h.deliver(0, ConsensusMsg::Prepare { b: b(5, 0) });
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(0) && matches!(s.msg, ConsensusMsg::Promise { .. })));
        // A stale lower ballot is nacked with the promised ballot.
        let fx = h.deliver(2, ConsensusMsg::Prepare { b: b(2, 2) });
        assert!(fx.sends.iter().any(|s| s.to == ProcessId(2)
            && matches!(s.msg, ConsensusMsg::Nack { higher, .. } if higher == b(5, 0))));
    }

    #[test]
    fn acceptor_rejects_stale_accept() {
        let mut h = Harness::new(1, 3, None);
        h.start();
        h.deliver(0, ConsensusMsg::Prepare { b: b(5, 0) });
        let fx = h.deliver(2, ConsensusMsg::Accept { b: b(2, 2), v: 9 });
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Nack { .. })));
        assert_eq!(h.sm.accepted, None);
    }

    #[test]
    fn reprepare_is_idempotent_for_lost_promises() {
        let mut h = Harness::new(1, 3, None);
        h.start();
        let fx1 = h.deliver(0, ConsensusMsg::Prepare { b: b(5, 0) });
        let fx2 = h.deliver(0, ConsensusMsg::Prepare { b: b(5, 0) });
        // Same promise both times; no state corruption.
        assert_eq!(fx1.sends.len(), fx2.sends.len());
        assert_eq!(h.sm.promised(), b(5, 0));
    }

    #[test]
    fn nack_abandons_ballot_and_retry_uses_higher() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start(); // Preparing at b(1,0)
        h.deliver(
            1,
            ConsensusMsg::Nack {
                b: b(1, 0),
                higher: b(9, 2),
            },
        );
        assert!(matches!(h.sm.role, Role::Idle));
        let fx = h.fire_retry();
        // Restarted with a ballot above (9,2).
        let new_b = fx.sends.iter().find_map(|s| match s.msg {
            ConsensusMsg::Prepare { b } => Some(b),
            _ => None,
        });
        assert_eq!(new_b, Some(b(10, 0)));
    }

    #[test]
    fn learner_adopts_decide_acks_and_decides_once() {
        let mut h = Harness::new(2, 3, None);
        h.start();
        let fx = h.deliver(0, ConsensusMsg::Decide { v: 5 });
        assert_eq!(h.sm.decision(), Some(&5));
        assert!(fx.outputs.contains(&ConsensusEvent::Decided(5)));
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(0) && matches!(s.msg, ConsensusMsg::DecideAck)));
        // Retransmitted Decide: re-ack but no duplicate output.
        let fx = h.deliver(0, ConsensusMsg::Decide { v: 5 });
        assert!(fx.outputs.is_empty());
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::DecideAck)));
    }

    #[test]
    fn decider_retransmits_until_acked() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start();
        h.deliver(
            1,
            ConsensusMsg::Promise {
                b: b(1, 0),
                accepted: None,
            },
        );
        h.deliver(1, ConsensusMsg::Accepted { b: b(1, 0) });
        assert!(h.sm.decision().is_some());
        // Nobody acked yet: retry resends Decide to both peers.
        let fx = h.fire_retry();
        let decides = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, ConsensusMsg::Decide { .. }))
            .count();
        assert_eq!(decides, 2);
        // p1 acks: only p2 is retried.
        h.deliver(1, ConsensusMsg::DecideAck);
        let fx = h.fire_retry();
        let targets: Vec<_> = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, ConsensusMsg::Decide { .. }))
            .map(|s| s.to)
            .collect();
        assert_eq!(targets, vec![ProcessId(2)]);
    }

    #[test]
    fn late_request_triggers_proposal_if_leader() {
        let mut h = Harness::new(0, 3, None);
        let fx = h.start();
        assert!(!fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Prepare { .. })));
        let mut ctx_fx = Effects::new();
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut ctx_fx);
        h.sm.on_request(&mut ctx, 11);
        assert!(ctx_fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, ConsensusMsg::Prepare { .. })));
        // A second proposal is ignored (single-shot).
        let mut ctx = Ctx::new(&h.env, Instant::ZERO, &mut ctx_fx);
        h.sm.on_request(&mut ctx, 99);
        assert_eq!(h.sm.proposal(), Some(&11));
    }

    #[test]
    fn retry_restarts_prepare_for_wedged_leader() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start();
        // No replies at all; the retry tick re-sends Prepare to silent peers.
        let fx = h.fire_retry();
        let prepares = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, ConsensusMsg::Prepare { .. }))
            .count();
        assert_eq!(prepares, 2);
    }

    #[test]
    fn restart_from_wal_preserves_promise_accept_and_decision() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let mut fx: Effects<ConsensusMsg<u64>, ConsensusEvent<u64>> = Effects::new();
        {
            let mut sm: C =
                Consensus::with_storage(&env, ConsensusParams::default(), Some(7), store.clone())
                    .unwrap();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_start(&mut ctx);
            fx.take();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(&mut ctx, ProcessId(0), ConsensusMsg::Prepare { b: b(3, 0) });
            fx.take();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(
                &mut ctx,
                ProcessId(0),
                ConsensusMsg::Accept { b: b(3, 0), v: 99 },
            );
            fx.take();
            // Crash: the in-memory machine is dropped, only the WAL survives.
        }
        let mut sm2: C =
            Consensus::with_storage(&env, ConsensusParams::default(), Some(7), store).unwrap();
        assert_eq!(sm2.promised(), b(3, 0), "promise must survive the crash");
        assert_eq!(
            sm2.omega().own_counter(),
            1,
            "incarnation bump: recovered counter 0 + 1"
        );
        // A stale proposer is still refused after the restart.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm2.on_message(&mut ctx, ProcessId(2), ConsensusMsg::Prepare { b: b(1, 2) });
        let out = fx.take();
        assert!(
            out.sends
                .iter()
                .any(|s| matches!(s.msg, ConsensusMsg::Nack { higher, .. } if higher == b(3, 0))),
            "restart must not forget the promise"
        );
        // A higher-ballot proposer learns of the pre-crash accepted pair.
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        sm2.on_message(&mut ctx, ProcessId(2), ConsensusMsg::Prepare { b: b(5, 2) });
        let out = fx.take();
        assert!(
            out.sends.iter().any(|s| matches!(
                &s.msg,
                ConsensusMsg::Promise { accepted: Some((ab, v)), .. } if *ab == b(3, 0) && *v == 99
            )),
            "restart must reveal the pre-crash accepted value"
        );
    }

    #[test]
    fn restart_restores_decision_without_reemitting_output() {
        use lls_primitives::StorageHandle;
        let env = Env::new(ProcessId(1), 3);
        let store = StorageHandle::in_memory();
        let mut fx: Effects<ConsensusMsg<u64>, ConsensusEvent<u64>> = Effects::new();
        {
            let mut sm: C =
                Consensus::with_storage(&env, ConsensusParams::default(), None, store.clone())
                    .unwrap();
            let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
            sm.on_message(&mut ctx, ProcessId(0), ConsensusMsg::Decide { v: 55 });
            let out = fx.take();
            assert!(out.outputs.contains(&ConsensusEvent::Decided(55)));
        }
        let sm2: C =
            Consensus::with_storage(&env, ConsensusParams::default(), None, store).unwrap();
        assert_eq!(
            sm2.decided, // integrity: restored quietly, decided at most once
            Some(55)
        );
    }
}
