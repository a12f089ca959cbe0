//! Baseline: rotating-coordinator consensus (Chandra–Toueg ◇S style).
//!
//! Before Ω-based designs, the standard way to solve consensus under
//! partial synchrony was the rotating coordinator: rounds `r = 0, 1, 2, …`
//! are pre-assigned to coordinators `c(r) = r mod n`, and an eventually
//! strong failure detector (◇S — here emulated with adaptive timeouts on
//! the current coordinator) lets processes abandon a silent coordinator and
//! move on. The paper's contribution is exactly to *replace* this pattern
//! with an Ω-gated single proposer; this module implements the classic
//! pattern so experiment E14 can compare them on equal substrate.
//!
//! Round structure (per Chandra–Toueg):
//!
//! 1. every process sends `ESTIMATE(r, ts, est)` to `c(r)`;
//! 2. `c(r)` adopts the estimate with the largest `ts` from a majority and
//!    broadcasts `PROPOSE(r, v)`;
//! 3. each process either adopts the proposal (`est := v, ts := r`) and
//!    `ACK`s, or — after its ◇S timeout on the coordinator fires — `NACK`s
//!    and moves to round `r+1`;
//! 4. on a majority of `ACK`s the coordinator decides and (reliably, via
//!    retransmission with acknowledgements) broadcasts `DECIDE`.
//!
//! The `(est, ts)` locking rule plus majority intersection gives agreement
//! regardless of timing; ◇S-style suspicion gives liveness once some
//! correct coordinator stops being suspected. All messages are round-tagged
//! and retransmitted on a timer, so fair-lossy links only delay progress.
//! Higher-round messages fast-forward a laggard into that round.

use std::fmt;

use lls_obs::{NoopProbe, Probe, ProbeEvent};
use lls_primitives::{Ctx, Duration, Env, ProcessId, Sm, TimerId};

use crate::single::ConsensusParams;

/// Timer driving retransmission of the current phase's message.
pub const RETRY_TIMER: TimerId = TimerId(0);
/// Timer implementing the ◇S suspicion of the current coordinator.
pub const SUSPECT_TIMER: TimerId = TimerId(1);

/// Messages of [`RotatingConsensus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RotMsg<V> {
    /// Phase 1: a process's current estimate for round `r`.
    Estimate {
        /// Round.
        r: u64,
        /// When the estimate was last locked (0 = initial).
        ts: u64,
        /// The estimate.
        est: V,
    },
    /// Phase 2: the coordinator's proposal for round `r`.
    Propose {
        /// Round.
        r: u64,
        /// The proposed value.
        v: V,
    },
    /// Phase 3 (positive): the sender adopted round `r`'s proposal.
    Ack {
        /// Round.
        r: u64,
    },
    /// Phase 3 (negative): the sender suspected the coordinator of `r`.
    Nack {
        /// Round.
        r: u64,
    },
    /// The decided value (retransmitted until acknowledged).
    Decide {
        /// The decision.
        v: V,
    },
    /// Silences `Decide` retransmission to the sender.
    DecideAck,
}

/// Classifier for per-kind message statistics.
pub fn classify_rot_msg<V>(msg: &RotMsg<V>) -> &'static str {
    match msg {
        RotMsg::Estimate { .. } => "ESTIMATE",
        RotMsg::Propose { .. } => "PROPOSE",
        RotMsg::Ack { .. } => "ACK",
        RotMsg::Nack { .. } => "NACK",
        RotMsg::Decide { .. } => "DECIDE",
        RotMsg::DecideAck => "DECIDE_ACK",
    }
}

/// Where a process is within its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sent `ESTIMATE`, waiting for the coordinator's `PROPOSE`.
    WaitingPropose,
    /// Adopted and `ACK`ed (or `NACK`ed); waiting for the round to resolve.
    Responded,
}

/// Per-round coordinator bookkeeping.
#[derive(Debug, Clone)]
struct CoordState<V> {
    r: u64,
    estimates: Vec<Option<(u64, V)>>,
    proposed: Option<V>,
    acks: Vec<bool>,
    nacks: Vec<bool>,
}

/// The rotating-coordinator consensus state machine.
///
/// # Example
///
/// ```
/// use consensus::{ConsensusParams, RotatingConsensus, RotEvent};
/// use lls_primitives::{Duration, Instant, ProcessId};
/// use netsim::{SimBuilder, Topology};
///
/// let n = 3;
/// let mut sim = SimBuilder::new(n)
///     .topology(Topology::all_timely(n, Duration::from_ticks(2)))
///     .build_with(|env| {
///         RotatingConsensus::new(env, ConsensusParams::default(), 100 + env.id().0 as u64)
///     });
/// sim.run_until(Instant::from_ticks(20_000));
/// let first = sim.node(ProcessId(0)).decision().copied().expect("p0 decides");
/// for p in 1..n as u32 {
///     assert_eq!(sim.node(ProcessId(p)).decision(), Some(&first));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct RotatingConsensus<V, P: Probe = NoopProbe> {
    env: Env,
    params: ConsensusParams,
    r: u64,
    est: V,
    ts: u64,
    phase: Phase,
    suspect_timeout: Duration,
    coord: Option<CoordState<V>>,
    decided: Option<V>,
    decide_acks: Vec<bool>,
    retransmit_decide: bool,
    /// Diagnostics: how many rounds this process has entered.
    rounds_entered: u64,
    /// Observability sink; `NoopProbe` by default (zero cost).
    probe: P,
}

/// Observable events of a [`RotatingConsensus`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RotEvent<V> {
    /// Entered round `r`.
    Round(u64),
    /// Decided `V` (exactly once per process).
    Decided(V),
}

impl<V> RotatingConsensus<V>
where
    V: Clone + Eq + fmt::Debug + Send + 'static,
{
    /// Creates the machine with this process's initial proposal.
    pub fn new(env: &Env, params: ConsensusParams, proposal: V) -> Self {
        RotatingConsensus::new_with_probe(env, params, proposal, NoopProbe)
    }
}

impl<V, P> RotatingConsensus<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + 'static,
    P: Probe,
{
    /// Like [`RotatingConsensus::new`], with an observability probe.
    pub fn new_with_probe(env: &Env, params: ConsensusParams, proposal: V, probe: P) -> Self {
        RotatingConsensus {
            env: *env,
            params,
            r: 0,
            est: proposal,
            ts: 0,
            phase: Phase::WaitingPropose,
            suspect_timeout: params.omega.initial_timeout,
            coord: None,
            decided: None,
            decide_acks: vec![false; env.n()],
            retransmit_decide: false,
            rounds_entered: 0,
            probe,
        }
    }

    /// The decided value, if learned.
    pub fn decision(&self) -> Option<&V> {
        self.decided.as_ref()
    }

    /// The current round (diagnostics).
    pub fn round(&self) -> u64 {
        self.r
    }

    /// Rounds entered so far (diagnostics; measures coordinator churn).
    pub fn rounds_entered(&self) -> u64 {
        self.rounds_entered
    }

    fn me(&self) -> ProcessId {
        self.env.id()
    }

    fn n(&self) -> usize {
        self.env.n()
    }

    fn majority(&self) -> usize {
        self.env.membership().majority()
    }

    fn coordinator(&self, r: u64) -> ProcessId {
        ProcessId((r % self.n() as u64) as u32)
    }

    /// Enters round `r`: send our estimate to its coordinator and arm the
    /// suspicion timer.
    fn enter_round(&mut self, ctx: &mut Ctx<'_, RotMsg<V>, RotEvent<V>>, r: u64) {
        self.r = r;
        self.rounds_entered += 1;
        self.phase = Phase::WaitingPropose;
        self.probe.emit(ProbeEvent::PhaseEnter {
            node: self.me(),
            at: ctx.now(),
            label: "round",
            number: r,
        });
        ctx.output(RotEvent::Round(r));
        let c = self.coordinator(r);
        if c == self.me() {
            let mut cs = CoordState {
                r,
                estimates: vec![None; self.n()],
                proposed: None,
                acks: vec![false; self.n()],
                nacks: vec![false; self.n()],
            };
            cs.estimates[self.me().as_usize()] = Some((self.ts, self.est.clone()));
            self.coord = Some(cs);
            self.try_propose(ctx);
        } else {
            self.coord = None;
            ctx.send(
                c,
                RotMsg::Estimate {
                    r,
                    ts: self.ts,
                    est: self.est.clone(),
                },
            );
        }
        ctx.set_timer(SUSPECT_TIMER, self.suspect_timeout);
    }

    /// Coordinator: once a majority of estimates is in, propose the one with
    /// the largest timestamp (the locking rule that makes this safe).
    fn try_propose(&mut self, ctx: &mut Ctx<'_, RotMsg<V>, RotEvent<V>>) {
        let majority = self.majority();
        let me = self.me().as_usize();
        let Some(cs) = &mut self.coord else { return };
        if cs.proposed.is_some() {
            return;
        }
        if cs.estimates.iter().flatten().count() < majority {
            return;
        }
        let (_, v) = cs
            .estimates
            .iter()
            .flatten()
            .max_by_key(|(ts, _)| *ts)
            .expect("majority is non-empty")
            .clone();
        cs.proposed = Some(v.clone());
        // The coordinator adopts its own proposal.
        cs.acks[me] = true;
        self.est = v.clone();
        self.ts = self.r;
        self.phase = Phase::Responded;
        ctx.broadcast(RotMsg::Propose { r: self.r, v });
    }

    /// Coordinator: resolve the round once every reply is accounted for or a
    /// majority of ACKs arrived.
    fn try_resolve(&mut self, ctx: &mut Ctx<'_, RotMsg<V>, RotEvent<V>>) {
        let Some(cs) = &self.coord else { return };
        if cs.proposed.is_none() {
            return;
        }
        let acks = cs.acks.iter().filter(|a| **a).count();
        let nacks = cs.nacks.iter().filter(|a| **a).count();
        if acks >= self.majority() {
            let v = cs.proposed.clone().expect("checked above");
            self.decide(ctx, v);
        } else if acks + nacks == self.n() {
            // Fully resolved without a quorum of ACKs: move on.
            let next = self.r + 1;
            self.enter_round(ctx, next);
        }
    }

    fn decide(&mut self, ctx: &mut Ctx<'_, RotMsg<V>, RotEvent<V>>, v: V) {
        if self.decided.is_none() {
            self.decided = Some(v.clone());
            self.probe.emit(ProbeEvent::Decide {
                node: self.me(),
                at: ctx.now(),
                slot: 0,
            });
            ctx.output(RotEvent::Decided(v.clone()));
        }
        self.retransmit_decide = true;
        let me = self.me().as_usize();
        self.decide_acks[me] = true;
        ctx.broadcast(RotMsg::Decide { v });
        ctx.cancel_timer(SUSPECT_TIMER);
    }

    /// Fast-forward if `r` is ahead of us.
    fn maybe_catch_up(&mut self, ctx: &mut Ctx<'_, RotMsg<V>, RotEvent<V>>, r: u64) {
        if r > self.r && self.decided.is_none() {
            self.enter_round(ctx, r);
        }
    }

    fn on_retry(&mut self, ctx: &mut Ctx<'_, RotMsg<V>, RotEvent<V>>) {
        if let Some(v) = self.decided.clone() {
            if self.retransmit_decide {
                for q in self.env.membership().others(self.me()) {
                    if !self.decide_acks[q.as_usize()] {
                        ctx.send(q, RotMsg::Decide { v: v.clone() });
                    }
                }
            }
            return;
        }
        // Retransmit the current phase's message (fair-lossy links).
        let c = self.coordinator(self.r);
        if let Some(cs) = &self.coord {
            if let Some(v) = &cs.proposed {
                let (r, v) = (cs.r, v.clone());
                let missing: Vec<ProcessId> = self
                    .env
                    .membership()
                    .others(self.me())
                    .filter(|q| !cs.acks[q.as_usize()] && !cs.nacks[q.as_usize()])
                    .collect();
                for q in missing {
                    ctx.send(q, RotMsg::Propose { r, v: v.clone() });
                }
            }
            // (Estimates are pushed by the others' retry timers.)
        } else if self.phase == Phase::WaitingPropose {
            ctx.send(
                c,
                RotMsg::Estimate {
                    r: self.r,
                    ts: self.ts,
                    est: self.est.clone(),
                },
            );
        }
    }
}

impl<V, P> Sm for RotatingConsensus<V, P>
where
    V: Clone + Eq + fmt::Debug + Send + 'static,
    P: Probe,
{
    type Msg = RotMsg<V>;
    type Output = RotEvent<V>;
    type Request = V;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        ctx.set_timer(RETRY_TIMER, self.params.retry);
        self.enter_round(ctx, 0);
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        match msg {
            RotMsg::Estimate { r, ts, est } => {
                self.maybe_catch_up(ctx, r);
                if let Some(cs) = &mut self.coord {
                    if cs.r == r && cs.estimates[from.as_usize()].is_none() {
                        cs.estimates[from.as_usize()] = Some((ts, est));
                        self.try_propose(ctx);
                        self.try_resolve(ctx);
                    }
                }
            }
            RotMsg::Propose { r, v } => {
                self.maybe_catch_up(ctx, r);
                if r == self.r && self.phase == Phase::WaitingPropose && self.decided.is_none() {
                    // Adopt and lock the proposal.
                    self.est = v;
                    self.ts = r;
                    self.phase = Phase::Responded;
                    ctx.send(from, RotMsg::Ack { r });
                } else if r == self.r && self.phase == Phase::Responded && self.ts == r {
                    // Retransmitted proposal: re-ACK (our ACK may be lost).
                    ctx.send(from, RotMsg::Ack { r });
                }
            }
            RotMsg::Ack { r } => {
                if let Some(cs) = &mut self.coord {
                    if cs.r == r {
                        cs.acks[from.as_usize()] = true;
                        self.try_resolve(ctx);
                    }
                }
            }
            RotMsg::Nack { r } => {
                self.maybe_catch_up(ctx, r.saturating_add(0));
                if let Some(cs) = &mut self.coord {
                    if cs.r == r {
                        cs.nacks[from.as_usize()] = true;
                        self.try_resolve(ctx);
                    }
                }
            }
            RotMsg::Decide { v } => {
                if self.decided.is_none() {
                    self.decided = Some(v.clone());
                    self.probe.emit(ProbeEvent::Decide {
                        node: self.me(),
                        at: ctx.now(),
                        slot: 0,
                    });
                    ctx.output(RotEvent::Decided(v));
                    ctx.cancel_timer(SUSPECT_TIMER);
                }
                ctx.send(from, RotMsg::DecideAck);
            }
            RotMsg::DecideAck => {
                self.decide_acks[from.as_usize()] = true;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        match timer {
            RETRY_TIMER => {
                self.on_retry(ctx);
                ctx.set_timer(RETRY_TIMER, self.params.retry);
            }
            SUSPECT_TIMER => {
                if self.decided.is_some() {
                    return;
                }
                // ◇S emulation: suspect the coordinator, NACK it, grow the
                // timeout so suspicion of a live coordinator dies out, and
                // move to the next round.
                let c = self.coordinator(self.r);
                self.suspect_timeout = self.params.omega.timeout_policy.bump(self.suspect_timeout);
                self.probe.emit(ProbeEvent::TimeoutAdapt {
                    node: self.me(),
                    at: ctx.now(),
                    suspect: c,
                    timeout: self.suspect_timeout,
                });
                if c != self.me() {
                    ctx.send(c, RotMsg::Nack { r: self.r });
                }
                let next = self.r + 1;
                self.enter_round(ctx, next);
            }
            other => debug_assert!(false, "unexpected timer {other}"),
        }
    }

    /// Replaces the estimate if no round has locked one yet (pre-round-0
    /// semantics; mainly useful for tests).
    fn on_request(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: V) {
        if self.ts == 0 && self.decided.is_none() {
            self.est = req;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::{Effects, Instant};

    type R = RotatingConsensus<u64>;

    struct Harness {
        env: Env,
        sm: R,
        fx: Effects<RotMsg<u64>, RotEvent<u64>>,
    }

    impl Harness {
        fn new(me: u32, n: usize, proposal: u64) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = RotatingConsensus::new(&env, ConsensusParams::default(), proposal);
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn start(&mut self) -> Effects<RotMsg<u64>, RotEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(&mut self, from: u32, msg: RotMsg<u64>) -> Effects<RotMsg<u64>, RotEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), msg);
            self.fx.take()
        }

        fn fire(&mut self, t: TimerId) -> Effects<RotMsg<u64>, RotEvent<u64>> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_timer(&mut ctx, t);
            self.fx.take()
        }
    }

    #[test]
    fn round_zero_coordinator_is_p0_and_proposes_on_majority() {
        let mut h = Harness::new(0, 3, 42);
        let fx = h.start();
        // p0 coordinates round 0; non-coordinators would send estimates.
        assert!(fx.sends.is_empty(), "coordinator has its own estimate only");
        let fx = h.deliver(
            1,
            RotMsg::Estimate {
                r: 0,
                ts: 0,
                est: 7,
            },
        );
        // Majority (2 of 3): proposes max-ts estimate; ties by iteration
        // order keep a deterministic value; all estimates have ts 0, the max
        // picks one of them — and proposes it to everyone.
        let proposes = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RotMsg::Propose { r: 0, .. }))
            .count();
        assert_eq!(proposes, 2);
    }

    #[test]
    fn follower_sends_estimate_and_acks_proposal() {
        let mut h = Harness::new(1, 3, 11);
        let fx = h.start();
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(0) && matches!(s.msg, RotMsg::Estimate { r: 0, .. })));
        let fx = h.deliver(0, RotMsg::Propose { r: 0, v: 42 });
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(0) && matches!(s.msg, RotMsg::Ack { r: 0 })));
        // The proposal is locked.
        assert_eq!(h.sm.est, 42);
        assert_eq!(h.sm.ts, 0);
    }

    #[test]
    fn coordinator_decides_on_majority_acks() {
        let mut h = Harness::new(0, 3, 42);
        h.start();
        h.deliver(
            1,
            RotMsg::Estimate {
                r: 0,
                ts: 0,
                est: 7,
            },
        );
        let fx = h.deliver(1, RotMsg::Ack { r: 0 });
        assert!(h.sm.decision().is_some());
        assert!(fx.outputs.iter().any(|o| matches!(o, RotEvent::Decided(_))));
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RotMsg::Decide { .. })));
    }

    #[test]
    fn suspicion_nacks_and_advances_round() {
        let mut h = Harness::new(2, 3, 9);
        h.start();
        assert_eq!(h.sm.round(), 0);
        let t0 = h.sm.suspect_timeout;
        let fx = h.fire(SUSPECT_TIMER);
        assert_eq!(h.sm.round(), 1);
        assert!(h.sm.suspect_timeout > t0, "◇S timeout must grow");
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(0) && matches!(s.msg, RotMsg::Nack { r: 0 })));
        // Round 1's coordinator is p1: a fresh estimate goes there.
        assert!(fx
            .sends
            .iter()
            .any(|s| s.to == ProcessId(1) && matches!(s.msg, RotMsg::Estimate { r: 1, .. })));
    }

    #[test]
    fn coordinator_locking_rule_prefers_highest_ts() {
        // Round 3's coordinator is p0 (3 mod 3 = 0). The locked estimate
        // (ts=2) arrives with the majority-completing message, so the
        // proposal must carry it rather than the coordinator's own ts=0
        // value.
        let mut h = Harness::new(0, 3, 1);
        h.start();
        let fx = h.deliver(
            2,
            RotMsg::Estimate {
                r: 3,
                ts: 2,
                est: 99,
            },
        );
        assert_eq!(h.sm.round(), 3);
        // Majority is 2 (self + p2): the proposal goes out now and must be 99.
        assert!(
            fx.sends
                .iter()
                .any(|s| matches!(s.msg, RotMsg::Propose { r: 3, v: 99 })),
            "locking rule violated: {:?}",
            fx.sends
        );
    }

    #[test]
    fn full_nack_round_moves_coordinator_on() {
        let mut h = Harness::new(0, 3, 42);
        h.start();
        h.deliver(
            1,
            RotMsg::Estimate {
                r: 0,
                ts: 0,
                est: 7,
            },
        );
        // Proposal went out; both peers NACK.
        h.deliver(1, RotMsg::Nack { r: 0 });
        let fx = h.deliver(2, RotMsg::Nack { r: 0 });
        // acks(self)=1 + nacks=2 = n: round resolves without decision.
        assert_eq!(h.sm.round(), 1);
        assert!(h.sm.decision().is_none());
        assert!(fx.outputs.iter().any(|o| matches!(o, RotEvent::Round(1))));
    }

    #[test]
    fn learner_adopts_decide_and_acks() {
        let mut h = Harness::new(1, 3, 11);
        h.start();
        let fx = h.deliver(0, RotMsg::Decide { v: 42 });
        assert_eq!(h.sm.decision(), Some(&42));
        assert!(fx.sends.iter().any(|s| matches!(s.msg, RotMsg::DecideAck)));
        // Duplicate: re-ack, no duplicate output.
        let fx = h.deliver(0, RotMsg::Decide { v: 42 });
        assert!(fx.outputs.is_empty());
        assert!(fx.sends.iter().any(|s| matches!(s.msg, RotMsg::DecideAck)));
    }

    #[test]
    fn retry_retransmits_estimate_or_proposal() {
        // Follower retransmits its estimate.
        let mut h = Harness::new(1, 3, 11);
        h.start();
        let fx = h.fire(RETRY_TIMER);
        assert!(fx
            .sends
            .iter()
            .any(|s| matches!(s.msg, RotMsg::Estimate { r: 0, .. })));
        // Coordinator retransmits its proposal to silent peers.
        let mut h = Harness::new(0, 3, 42);
        h.start();
        h.deliver(
            1,
            RotMsg::Estimate {
                r: 0,
                ts: 0,
                est: 7,
            },
        );
        h.deliver(1, RotMsg::Ack { r: 0 }); // decides
        let mut h2 = Harness::new(0, 3, 42);
        h2.start();
        h2.deliver(
            1,
            RotMsg::Estimate {
                r: 0,
                ts: 0,
                est: 7,
            },
        );
        let fx = h2.fire(RETRY_TIMER);
        let proposes = fx
            .sends
            .iter()
            .filter(|s| matches!(s.msg, RotMsg::Propose { r: 0, .. }))
            .count();
        assert_eq!(proposes, 2, "re-propose to both silent peers");
    }

    #[test]
    fn stale_round_messages_are_ignored() {
        let mut h = Harness::new(0, 3, 42);
        h.start();
        h.fire(SUSPECT_TIMER); // now in round 1, no coord state
        let before = h.sm.round();
        h.deliver(
            1,
            RotMsg::Estimate {
                r: 0,
                ts: 0,
                est: 7,
            },
        );
        h.deliver(1, RotMsg::Ack { r: 0 });
        assert_eq!(h.sm.round(), before);
        assert!(h.sm.decision().is_none());
    }
}
