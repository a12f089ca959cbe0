//! Single-shot consensus over fair-lossy links, run on the replicated log.
//!
//! [`Consensus`] is a thin wrapper over a [`ReplicatedLog`] led by its
//! embedded communication-efficient Ω detector. It submits its proposal to
//! the log once and decides the first command the log commits; a no-op
//! filler slot decides nothing. There is no second ballot protocol: the
//! prepare and accept phases, their retransmission, the write-ahead records
//! and the rules that keep them safe are the log's (see [`crate::durable`]),
//! so whatever checks single-shot consensus checks the log the replicated
//! store runs. Followers learn the decision as every log follower learns a
//! slot: from the leader's chosen prefix, or by catch-up.
//!
//! **Safety never depends on timing or on Ω being right** — ballots and
//! majority quorums alone guarantee agreement; Ω (and a correct majority)
//! only buy liveness, exactly as the paper claims for system `S_maj`.

use std::fmt;

use lls_obs::{NoopProbe, Probe};
use lls_primitives::{
    Ctx, Effects, Env, Instant, ProcessId, Sm, StorageError, StorageHandle, TimerCmd, TimerId, Wire,
};
use omega::CommEffOmega;

use crate::ballot::Ballot;
use crate::checker::DecisionRecord;
use crate::msg::RsmMsg;
use crate::params::ConsensusParams;
use crate::rsm::{LifecycleId, ReplicatedLog, RsmEvent};

/// Observable events of a [`Consensus`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusEvent<V> {
    /// The embedded Ω detector changed its output.
    Leader(ProcessId),
    /// This process decided `V` (emitted exactly once per process).
    Decided(V),
}

impl<V: Clone> ConsensusEvent<V> {
    /// The record of a `Decided` event that `process` emitted at `at`, for
    /// the [`checker`](crate::checker); `None` for a `Leader` event.
    pub fn decision(&self, at: Instant, process: ProcessId) -> Option<DecisionRecord<V>> {
        match self {
            ConsensusEvent::Decided(v) => Some(DecisionRecord {
                at,
                process,
                value: v.clone(),
            }),
            ConsensusEvent::Leader(_) => None,
        }
    }
}

/// Single-shot consensus: the first command a [`ReplicatedLog`] commits.
///
/// See the [crate-level example](crate).
///
/// The `P` parameter is an observability [`Probe`] shared with the log and
/// its embedded Ω detector; the default [`NoopProbe`] costs nothing.
#[derive(Debug, Clone)]
pub struct Consensus<V, P: Probe = NoopProbe> {
    log: ReplicatedLog<V, P>,
    proposal: Option<V>,
    decided: Option<V>,
}

impl<V> Consensus<V>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
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
    /// state a previous incarnation persisted (see [`LogBuilder::storage`]).
    /// A decision the log recovered is *not* re-emitted as an output
    /// (integrity: decide at most once).
    ///
    /// [`LogBuilder::storage`]: crate::LogBuilder::storage
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
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    /// Like [`Consensus::new`], with an observability probe.
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
        let log = ReplicatedLog::builder(env, params)
            .probe(probe)
            .build()
            .expect("a log without storage cannot fail to build");
        Consensus {
            log,
            proposal,
            decided: None,
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
        let log = ReplicatedLog::builder(env, params)
            .storage(storage)
            .probe(probe)
            .build()?;
        let decided = log.committed_commands().next();
        Ok(Consensus {
            log,
            proposal,
            decided,
        })
    }

    /// The decided value, if this process has learned it.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The embedded Ω detector (for instrumentation).
    pub fn omega(&self) -> &CommEffOmega<P> {
        self.log.omega()
    }

    /// The value this process proposes, if any.
    pub fn proposal(&self) -> Option<&V> {
        self.proposal.as_ref()
    }

    /// The acceptor's current promise (for instrumentation).
    pub fn promised(&self) -> Ballot {
        self.log.promised()
    }

    /// Hands the proposal to the log, unless this process already decided.
    fn submit(&mut self, ctx: &mut Ctx<'_, RsmMsg<V>, ConsensusEvent<V>>) {
        if let (Some(v), None) = (&self.proposal, &self.decided) {
            let v = v.clone();
            self.drive(ctx, |log, lctx| log.on_request(lctx, v));
        }
    }

    /// Runs one log step: sends and timers pass through, `Leader` events
    /// are relayed, and the first committed command is the decision.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, RsmMsg<V>, ConsensusEvent<V>>,
        step: impl FnOnce(&mut ReplicatedLog<V, P>, &mut Ctx<'_, RsmMsg<V>, RsmEvent<V>>),
    ) {
        let env = Env::new(ctx.id(), ctx.n());
        let mut fx = Effects::new();
        step(&mut self.log, &mut Ctx::new(&env, ctx.now(), &mut fx));
        for s in fx.sends {
            ctx.send(s.to, s.msg);
        }
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => ctx.set_timer(timer, after),
                TimerCmd::Cancel { timer } => ctx.cancel_timer(timer),
            }
        }
        for event in fx.outputs {
            match event {
                RsmEvent::Leader(leader) => ctx.output(ConsensusEvent::Leader(leader)),
                RsmEvent::Committed { cmd: Some(v), .. } if self.decided.is_none() => {
                    self.decided = Some(v.clone());
                    ctx.output(ConsensusEvent::Decided(v));
                }
                _ => {}
            }
        }
    }
}

impl<V, P> Sm for Consensus<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + Wire + LifecycleId + 'static,
    P: Probe,
{
    type Msg = RsmMsg<V>;
    type Output = ConsensusEvent<V>;
    type Request = V;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.drive(ctx, |log, lctx| log.on_start(lctx));
        self.submit(ctx);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        self.drive(ctx, |log, lctx| log.on_message(lctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.drive(ctx, |log, lctx| log.on_timer(lctx, timer));
    }

    /// Adopts `req` as the proposal if this process was built without one;
    /// single-shot, so any later request is ignored.
    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: V) {
        if self.proposal.is_none() {
            self.proposal = Some(req);
            self.submit(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Entry;
    use crate::params::RETRY_TIMER;

    type C = Consensus<u64>;
    type Fx = Effects<RsmMsg<u64>, ConsensusEvent<u64>>;

    struct Harness {
        env: Env,
        sm: C,
    }

    impl Harness {
        fn new(me: u32, n: usize, proposal: Option<u64>) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = Consensus::new(&env, ConsensusParams::default(), proposal);
            Harness { env, sm }
        }

        /// p1 of three, backed by `store`.
        fn durable(store: StorageHandle, proposal: Option<u64>) -> Self {
            let env = Env::new(ProcessId(1), 3);
            let sm = Consensus::with_storage(&env, ConsensusParams::default(), proposal, store)
                .expect("in-memory store");
            Harness { env, sm }
        }

        fn step(
            &mut self,
            f: impl FnOnce(&mut C, &mut Ctx<'_, RsmMsg<u64>, ConsensusEvent<u64>>),
        ) -> Fx {
            let mut fx = Effects::new();
            f(
                &mut self.sm,
                &mut Ctx::new(&self.env, Instant::ZERO, &mut fx),
            );
            fx
        }

        fn start(&mut self) -> Fx {
            self.step(|sm, ctx| sm.on_start(ctx))
        }

        fn deliver(&mut self, from: u32, msg: RsmMsg<u64>) -> Fx {
            self.step(|sm, ctx| sm.on_message(ctx, ProcessId(from), msg))
        }

        fn fire_retry(&mut self) -> Fx {
            self.step(|sm, ctx| sm.on_timer(ctx, RETRY_TIMER))
        }
    }

    fn b(round: u64, leader: u32) -> Ballot {
        Ballot::new(round, ProcessId(leader))
    }

    fn prepare(b: Ballot) -> RsmMsg<u64> {
        RsmMsg::Prepare { b, from_slot: 0 }
    }

    fn promise(b: Ballot, accepted: Vec<(u64, Ballot, Entry<u64>)>) -> RsmMsg<u64> {
        RsmMsg::Promise {
            b,
            accepted,
            low_slot: 0,
        }
    }

    fn accept(b: Ballot, v: u64) -> RsmMsg<u64> {
        RsmMsg::Accept {
            b,
            slot: 0,
            entry: Entry::Cmd(v),
            commit: 0,
        }
    }

    fn count(fx: &Fx, pred: impl Fn(&RsmMsg<u64>) -> bool) -> usize {
        fx.sends.iter().filter(|s| pred(&s.msg)).count()
    }

    /// `Accept`s for slot 0 carrying command `v`.
    fn accepts(fx: &Fx, v: u64) -> usize {
        count(
            fx,
            |m| matches!(m, RsmMsg::Accept { slot: 0, entry, .. } if *entry == Entry::Cmd(v)),
        )
    }

    /// `Nack`s naming `higher` as the acceptor's promise.
    fn nacks(fx: &Fx, higher: Ballot) -> usize {
        count(
            fx,
            |m| matches!(m, RsmMsg::Nack { higher: h, .. } if *h == higher),
        )
    }

    fn prepares(fx: &Fx) -> usize {
        count(fx, |m| matches!(m, RsmMsg::Prepare { .. }))
    }

    #[test]
    fn initial_omega_leader_proposes_at_start() {
        assert_eq!(prepares(&Harness::new(0, 3, Some(42)).start()), 2);
    }

    #[test]
    fn followers_do_not_propose() {
        let fx = Harness::new(1, 3, Some(42)).start();
        assert_eq!(count(&fx, |m| !matches!(m, RsmMsg::Omega(..))), 0);
    }

    #[test]
    fn full_round_reaches_decision_with_majority() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start();
        // One promise (plus self) = majority of 3: 42 goes to slot 0.
        let fx = h.deliver(1, promise(b(1, 0), vec![]));
        assert_eq!(accepts(&fx, 42), 2, "phase 2 must broadcast the proposal");
        // One vote (plus self) = majority: decided, and nothing announced.
        let fx = h.deliver(
            1,
            RsmMsg::Accepted {
                b: b(1, 0),
                slot: 0,
            },
        );
        assert_eq!(h.sm.decision(), Some(&42));
        assert_eq!(fx.outputs, vec![ConsensusEvent::Decided(42)]);
        assert!(fx.sends.is_empty(), "followers learn from the prefix");
    }

    #[test]
    fn prepare_quorum_inherits_highest_accepted_value() {
        let mut h = Harness::new(0, 5, Some(42));
        h.start();
        h.deliver(1, promise(b(1, 0), vec![(0, b(0, 3), Entry::Cmd(7))]));
        let fx = h.deliver(2, promise(b(1, 0), vec![(0, b(0, 4), Entry::Cmd(9))]));
        // Majority (3 of 5 incl. self): slot 0 carries 9, the vote at (0,4).
        assert_eq!(accepts(&fx, 9), 4);
    }

    #[test]
    fn acceptor_promises_monotonically_and_nacks_stale() {
        let mut h = Harness::new(1, 3, None);
        h.start();
        let fx = h.deliver(0, prepare(b(5, 0)));
        assert_eq!(count(&fx, |m| matches!(m, RsmMsg::Promise { .. })), 1);
        // A stale lower ballot is nacked with the promised ballot.
        assert_eq!(nacks(&h.deliver(2, prepare(b(2, 2))), b(5, 0)), 1);
    }

    #[test]
    fn acceptor_rejects_stale_accept() {
        let mut h = Harness::new(1, 3, None);
        h.start();
        h.deliver(0, prepare(b(5, 0)));
        assert_eq!(nacks(&h.deliver(2, accept(b(2, 2), 9)), b(5, 0)), 1);
        assert!(h.sm.log.vote(0).is_none());
    }

    #[test]
    fn reprepare_is_idempotent_for_lost_promises() {
        let mut h = Harness::new(1, 3, None);
        h.start();
        let first = h.deliver(0, prepare(b(5, 0)));
        let again = h.deliver(0, prepare(b(5, 0)));
        assert_eq!(first.sends, again.sends);
        assert_eq!(h.sm.promised(), b(5, 0));
    }

    #[test]
    fn nack_abandons_ballot_and_retry_uses_higher() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start(); // preparing (1,0)
        h.deliver(
            1,
            RsmMsg::Nack {
                b: b(1, 0),
                higher: b(9, 2),
            },
        );
        // Restarted at the next retry tick, above (9,2).
        let fx = h.fire_retry();
        let restart = b(10, 0);
        assert_eq!(count(&fx, |m| *m == prepare(restart)), 2);
    }

    #[test]
    fn late_request_triggers_proposal_if_leader() {
        let mut h = Harness::new(0, 3, None);
        h.start();
        // The log leads without a value and proposes nothing.
        let fx = h.deliver(1, promise(b(1, 0), vec![]));
        assert_eq!(count(&fx, |m| matches!(m, RsmMsg::Accept { .. })), 0);
        assert_eq!(accepts(&h.step(|sm, ctx| sm.on_request(ctx, 11)), 11), 2);
        // A second proposal is ignored (single-shot).
        assert!(h.step(|sm, ctx| sm.on_request(ctx, 99)).sends.is_empty());
        assert_eq!(h.sm.proposal(), Some(&11));
    }

    #[test]
    fn retry_restarts_prepare_for_wedged_leader() {
        let mut h = Harness::new(0, 3, Some(42));
        h.start();
        // No replies at all; the retry tick re-sends Prepare to silent peers.
        assert_eq!(prepares(&h.fire_retry()), 2);
    }

    #[test]
    fn restart_from_wal_preserves_promise_accept_and_decision() {
        let store = StorageHandle::in_memory();
        let mut h = Harness::durable(store.clone(), Some(7));
        h.start();
        h.deliver(0, prepare(b(3, 0)));
        h.deliver(0, accept(b(3, 0), 99));
        // Crash: the in-memory machine is dropped, only the WAL survives.
        let mut h = Harness::durable(store, Some(7));
        assert_eq!(h.sm.promised(), b(3, 0), "promise must survive the crash");
        assert_eq!(h.sm.omega().own_counter(), 1, "incarnation bump: 0 + 1");
        // A stale proposer is still refused after the restart.
        let fx = h.deliver(2, prepare(b(1, 2)));
        assert_eq!(
            nacks(&fx, b(3, 0)),
            1,
            "restart must not forget the promise"
        );
        // A higher-ballot proposer learns of the pre-crash vote.
        let fx = h.deliver(2, prepare(b(5, 2)));
        let revealed = promise(b(5, 2), vec![(0, b(3, 0), Entry::Cmd(99))]);
        assert_eq!(
            count(&fx, |m| *m == revealed),
            1,
            "restart must reveal the vote"
        );
    }

    #[test]
    fn restart_restores_decision_without_reemitting_output() {
        let store = StorageHandle::in_memory();
        let mut h = Harness::durable(store.clone(), None);
        h.start();
        // A no-op filler decides nothing; the first command is the decision,
        // emitted once.
        let decide = |slot, entry| RsmMsg::Decide { slot, entry };
        assert!(h.deliver(0, decide(0, Entry::Noop)).outputs.is_empty());
        let fx = h.deliver(0, decide(1, Entry::Cmd(55)));
        assert_eq!(fx.outputs, vec![ConsensusEvent::Decided(55)]);
        assert!(h.deliver(0, decide(1, Entry::Cmd(55))).outputs.is_empty());
        // Restarted: the decision comes back from the log, quietly.
        let mut h = Harness::durable(store, None);
        assert_eq!(h.sm.decision(), Some(&55));
        let decided = |o: &ConsensusEvent<u64>| matches!(o, ConsensusEvent::Decided(_));
        assert!(!h.start().outputs.iter().any(decided));
    }
}
