//! Baseline B: counter gossip in the weak system (PODC'03-style).

use lls_primitives::{Ctx, Duration, Env, ProcessId, Sm, TimerId};

use crate::params::OmegaParams;
use crate::rank::RankTable;

/// Gossip message of [`BroadcastSourceOmega`]: the sender's full view of the
/// accusation-counter vector — Θ(n) words, versus the O(1)-word messages of
/// the communication-efficient algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipMsg {
    /// Sender's accusation-counter vector (index = process id).
    pub counters: Vec<u64>,
}

/// Timer id of the gossip task.
pub const HEARTBEAT_TIMER: TimerId = TimerId(0);

/// Timer id monitoring candidate `q` is `MONITOR_BASE + q`.
pub const MONITOR_BASE: u32 = 1;

/// The non-communication-efficient Ω detector for the weak system:
/// every process gossips the counter vector every η forever; a local timeout
/// on `q` increments `q`'s counter, and the gossip's pointwise-max merge
/// spreads every increment. Leadership is minimum *(counter, id)*.
///
/// Correct under the same assumption as [`crate::CommEffOmega`] (one correct
/// ♦-source, everything else fair lossy): after GST nobody ever times out on
/// the source, so its counter freezes, while chronically untimely candidates
/// keep being incremented. All correct processes converge on the same
/// frozen minimum because the vectors equalize through gossip.
///
/// # Example
///
/// ```
/// use lls_primitives::{Instant, ProcessId};
/// use netsim::{SimBuilder, SystemSParams, Topology};
/// use omega::baseline::BroadcastSourceOmega;
/// use omega::OmegaParams;
///
/// let topo = Topology::system_s(4, ProcessId(2), SystemSParams {
///     gst: 200, ..SystemSParams::default()
/// });
/// let mut sim = SimBuilder::new(4)
///     .seed(3)
///     .topology(topo)
///     .build_with(|env| BroadcastSourceOmega::new(env, OmegaParams::default()));
/// sim.run_until(Instant::from_ticks(60_000));
/// let l0 = sim.node(ProcessId(0)).leader();
/// assert!((0..4).all(|p| sim.node(ProcessId(p)).leader() == l0));
/// ```
#[derive(Debug, Clone)]
pub struct BroadcastSourceOmega {
    me: ProcessId,
    n: usize,
    params: OmegaParams,
    table: RankTable,
    suspected: Vec<bool>,
    timeouts: Vec<Duration>,
    leader: ProcessId,
}

impl BroadcastSourceOmega {
    /// Creates the state machine for the process described by `env`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`OmegaParams::validate`].
    pub fn new(env: &Env, params: OmegaParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid OmegaParams: {e}");
        }
        BroadcastSourceOmega {
            me: env.id(),
            n: env.n(),
            params,
            table: RankTable::new(env.n()),
            suspected: vec![false; env.n()],
            timeouts: vec![params.initial_timeout; env.n()],
            leader: ProcessId(0),
        }
    }

    /// The process this instance currently trusts (the Ω output).
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// The counter table (for instrumentation).
    pub fn table(&self) -> &RankTable {
        &self.table
    }

    /// Current timeout on candidate `q`.
    pub fn timeout_of(&self, q: ProcessId) -> Duration {
        self.timeouts[q.as_usize()]
    }

    fn monitor_timer(&self, q: ProcessId) -> TimerId {
        TimerId(MONITOR_BASE + q.0)
    }

    fn recompute_leader(&mut self, ctx: &mut Ctx<'_, GossipMsg, ProcessId>) {
        let best = self.table.best();
        if best != self.leader {
            self.leader = best;
            ctx.output(best);
        }
    }
}

impl Sm for BroadcastSourceOmega {
    type Msg = GossipMsg;
    type Output = ProcessId;
    type Request = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg, ProcessId>) {
        ctx.output(self.leader);
        ctx.set_timer(HEARTBEAT_TIMER, self.params.eta);
        for q in ctx.membership().others(self.me) {
            ctx.set_timer(self.monitor_timer(q), self.timeouts[q.as_usize()]);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, GossipMsg, ProcessId>,
        from: ProcessId,
        msg: GossipMsg,
    ) {
        self.table.merge_auth(&msg.counters);
        if self.suspected[from.as_usize()] {
            self.suspected[from.as_usize()] = false;
            let t = &mut self.timeouts[from.as_usize()];
            *t = self.params.timeout_policy.bump(*t);
        }
        ctx.set_timer(self.monitor_timer(from), self.timeouts[from.as_usize()]);
        self.recompute_leader(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GossipMsg, ProcessId>, timer: TimerId) {
        if timer == HEARTBEAT_TIMER {
            // Everyone gossips, forever: the message cost the paper removes.
            ctx.broadcast(GossipMsg {
                counters: self.table.auth_vector(),
            });
            ctx.set_timer(HEARTBEAT_TIMER, self.params.eta);
            return;
        }
        let q = ProcessId(timer.0 - MONITOR_BASE);
        debug_assert!(q.as_usize() < self.n && q != self.me, "bad monitor timer");
        self.suspected[q.as_usize()] = true;
        self.table.bump_auth(q);
        self.recompute_leader(ctx);
        // Keep monitoring: a dead process must keep accumulating counter
        // growth so the minimum escapes it at every correct process.
        ctx.set_timer(self.monitor_timer(q), self.timeouts[q.as_usize()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::{Effects, Instant};

    struct Harness {
        env: Env,
        sm: BroadcastSourceOmega,
        fx: Effects<GossipMsg, ProcessId>,
    }

    impl Harness {
        fn new(me: u32, n: usize) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = BroadcastSourceOmega::new(&env, OmegaParams::default());
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn start(&mut self) -> Effects<GossipMsg, ProcessId> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(&mut self, from: u32, counters: Vec<u64>) -> Effects<GossipMsg, ProcessId> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm
                .on_message(&mut ctx, ProcessId(from), GossipMsg { counters });
            self.fx.take()
        }

        fn fire(&mut self, timer: TimerId) -> Effects<GossipMsg, ProcessId> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_timer(&mut ctx, timer);
            self.fx.take()
        }
    }

    #[test]
    fn every_process_gossips_forever() {
        for me in 0..3 {
            let mut h = Harness::new(me, 3);
            h.start();
            let fx = h.fire(HEARTBEAT_TIMER);
            assert_eq!(fx.sends.len(), 2);
            assert!(fx.sends.iter().all(|s| s.msg
                == GossipMsg {
                    counters: vec![0, 0, 0]
                }));
        }
    }

    #[test]
    fn timeout_bumps_counter_and_moves_leader() {
        let mut h = Harness::new(2, 3);
        h.start();
        let _ = h.fire(TimerId(MONITOR_BASE));
        assert_eq!(h.sm.table().auth(ProcessId(0)), 1);
        assert_eq!(h.sm.leader(), ProcessId(1));
    }

    #[test]
    fn gossip_merge_adopts_remote_suspicions() {
        let mut h = Harness::new(2, 3);
        h.start();
        let fx = h.deliver(1, vec![5, 0, 0]);
        assert_eq!(h.sm.table().auth(ProcessId(0)), 5);
        assert_eq!(h.sm.leader(), ProcessId(1));
        assert_eq!(fx.outputs, vec![ProcessId(1)]);
    }

    #[test]
    fn rehabilitation_grows_timeout() {
        let mut h = Harness::new(2, 3);
        h.start();
        h.fire(TimerId(MONITOR_BASE));
        let t0 = h.sm.timeout_of(ProcessId(0));
        h.deliver(0, vec![1, 0, 0]);
        assert!(h.sm.timeout_of(ProcessId(0)) > t0);
    }

    #[test]
    fn dead_candidate_keeps_accumulating() {
        let mut h = Harness::new(1, 2);
        h.start();
        for k in 1..=4 {
            h.fire(TimerId(MONITOR_BASE));
            assert_eq!(h.sm.table().auth(ProcessId(0)), k);
        }
        assert_eq!(h.sm.leader(), ProcessId(1));
    }
}
