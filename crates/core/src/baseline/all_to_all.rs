//! Baseline A: all-to-all heartbeats over fully ♦-timely links.

use lls_primitives::{Ctx, Duration, Env, ProcessId, Sm, TimerId};

use crate::params::OmegaParams;

/// Heartbeat message of [`AllToAllOmega`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllToAllMsg;

/// Timer id of the heartbeat task.
pub const HEARTBEAT_TIMER: TimerId = TimerId(0);

/// Timer id monitoring candidate `q` is `MONITOR_BASE + q`.
pub const MONITOR_BASE: u32 = 1;

/// The classic all-to-all heartbeat Ω detector.
///
/// Every process broadcasts [`AllToAllMsg`] every η, monitors every peer
/// with an adaptive timeout, and trusts the smallest id among the processes
/// it does not currently suspect (itself included). Correct when all links
/// are ♦-timely; used as the state-of-the-art message-cost baseline
/// (Θ(n²) per η forever).
///
/// # Example
///
/// ```
/// use lls_primitives::{Instant, ProcessId, Duration};
/// use netsim::{SimBuilder, Topology};
/// use omega::baseline::AllToAllOmega;
/// use omega::OmegaParams;
///
/// let mut sim = SimBuilder::new(3)
///     .topology(Topology::all_timely(3, Duration::from_ticks(2)))
///     .crash_at(ProcessId(0), Instant::from_ticks(500))
///     .build_with(|env| AllToAllOmega::new(env, OmegaParams::default()));
/// sim.run_until(Instant::from_ticks(2_000));
/// // p0 crashed; survivors elect p1.
/// assert_eq!(sim.node(ProcessId(1)).leader(), ProcessId(1));
/// assert_eq!(sim.node(ProcessId(2)).leader(), ProcessId(1));
/// ```
#[derive(Debug, Clone)]
pub struct AllToAllOmega {
    me: ProcessId,
    n: usize,
    params: OmegaParams,
    suspected: Vec<bool>,
    timeouts: Vec<Duration>,
    leader: ProcessId,
}

impl AllToAllOmega {
    /// Creates the state machine for the process described by `env`.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`OmegaParams::validate`].
    pub fn new(env: &Env, params: OmegaParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid OmegaParams: {e}");
        }
        AllToAllOmega {
            me: env.id(),
            n: env.n(),
            params,
            suspected: vec![false; env.n()],
            timeouts: vec![params.initial_timeout; env.n()],
            leader: ProcessId(0),
        }
    }

    /// The process this instance currently trusts (the Ω output).
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// Returns `true` if `q` is currently suspected.
    pub fn suspects(&self, q: ProcessId) -> bool {
        self.suspected[q.as_usize()]
    }

    /// Current timeout on candidate `q`.
    pub fn timeout_of(&self, q: ProcessId) -> Duration {
        self.timeouts[q.as_usize()]
    }

    fn monitor_timer(&self, q: ProcessId) -> TimerId {
        TimerId(MONITOR_BASE + q.0)
    }

    fn recompute_leader(&mut self, ctx: &mut Ctx<'_, AllToAllMsg, ProcessId>) {
        let best = (0..self.n as u32)
            .map(ProcessId)
            .find(|&q| q == self.me || !self.suspected[q.as_usize()])
            .expect("self is never suspected");
        if best != self.leader {
            self.leader = best;
            ctx.output(best);
        }
    }
}

impl Sm for AllToAllOmega {
    type Msg = AllToAllMsg;
    type Output = ProcessId;
    type Request = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, AllToAllMsg, ProcessId>) {
        ctx.output(self.leader);
        ctx.set_timer(HEARTBEAT_TIMER, self.params.eta);
        for q in ctx.membership().others(self.me) {
            ctx.set_timer(self.monitor_timer(q), self.timeouts[q.as_usize()]);
        }
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, AllToAllMsg, ProcessId>,
        from: ProcessId,
        _msg: AllToAllMsg,
    ) {
        if self.suspected[from.as_usize()] {
            // Premature suspicion: rehabilitate and slow down.
            self.suspected[from.as_usize()] = false;
            let t = &mut self.timeouts[from.as_usize()];
            *t = self.params.timeout_policy.bump(*t);
        }
        ctx.set_timer(self.monitor_timer(from), self.timeouts[from.as_usize()]);
        self.recompute_leader(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AllToAllMsg, ProcessId>, timer: TimerId) {
        if timer == HEARTBEAT_TIMER {
            ctx.broadcast(AllToAllMsg);
            ctx.set_timer(HEARTBEAT_TIMER, self.params.eta);
            return;
        }
        let q = ProcessId(timer.0 - MONITOR_BASE);
        debug_assert!(q.as_usize() < self.n && q != self.me, "bad monitor timer");
        self.suspected[q.as_usize()] = true;
        self.recompute_leader(ctx);
        // No re-arm: the monitor re-arms when q is next heard from.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::{Effects, Instant};

    struct Harness {
        env: Env,
        sm: AllToAllOmega,
        fx: Effects<AllToAllMsg, ProcessId>,
    }

    impl Harness {
        fn new(me: u32, n: usize) -> Self {
            let env = Env::new(ProcessId(me), n);
            let sm = AllToAllOmega::new(&env, OmegaParams::default());
            Harness {
                env,
                sm,
                fx: Effects::new(),
            }
        }

        fn start(&mut self) -> Effects<AllToAllMsg, ProcessId> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_start(&mut ctx);
            self.fx.take()
        }

        fn deliver(&mut self, from: u32) -> Effects<AllToAllMsg, ProcessId> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_message(&mut ctx, ProcessId(from), AllToAllMsg);
            self.fx.take()
        }

        fn fire(&mut self, timer: TimerId) -> Effects<AllToAllMsg, ProcessId> {
            let mut ctx = Ctx::new(&self.env, Instant::ZERO, &mut self.fx);
            self.sm.on_timer(&mut ctx, timer);
            self.fx.take()
        }
    }

    #[test]
    fn everyone_heartbeats_every_period() {
        for me in 0..3 {
            let mut h = Harness::new(me, 3);
            h.start();
            let fx = h.fire(HEARTBEAT_TIMER);
            assert_eq!(fx.sends.len(), 2, "p{me} must broadcast every period");
        }
    }

    #[test]
    fn start_arms_monitor_per_peer() {
        let mut h = Harness::new(1, 4);
        let fx = h.start();
        // 1 heartbeat + 3 monitors.
        let sets = fx
            .timers
            .iter()
            .filter(|c| matches!(c, lls_primitives::TimerCmd::Set { .. }))
            .count();
        assert_eq!(sets, 4);
    }

    #[test]
    fn suspicion_moves_leader_to_next_unsuspected() {
        let mut h = Harness::new(2, 3);
        h.start();
        assert_eq!(h.sm.leader(), ProcessId(0));
        let fx = h.fire(TimerId(MONITOR_BASE)); // suspect p0
        assert_eq!(h.sm.leader(), ProcessId(1));
        assert_eq!(fx.outputs, vec![ProcessId(1)]);
        h.fire(TimerId(MONITOR_BASE + 1)); // suspect p1
        assert_eq!(h.sm.leader(), ProcessId(2));
        assert!(h.sm.suspects(ProcessId(0)));
    }

    #[test]
    fn hearing_again_rehabilitates_and_grows_timeout() {
        let mut h = Harness::new(2, 3);
        h.start();
        h.fire(TimerId(MONITOR_BASE));
        let t0 = h.sm.timeout_of(ProcessId(0));
        let fx = h.deliver(0);
        assert!(!h.sm.suspects(ProcessId(0)));
        assert_eq!(h.sm.leader(), ProcessId(0));
        assert_eq!(fx.outputs, vec![ProcessId(0)]);
        assert!(h.sm.timeout_of(ProcessId(0)) > t0);
    }

    #[test]
    fn self_is_leader_of_last_resort() {
        let mut h = Harness::new(2, 3);
        h.start();
        h.fire(TimerId(MONITOR_BASE));
        h.fire(TimerId(MONITOR_BASE + 1));
        assert_eq!(h.sm.leader(), ProcessId(2));
    }
}
