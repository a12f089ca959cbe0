//! The sans-io state-machine abstraction.
//!
//! A protocol is an [`Sm`]: a pure state machine driven by three stimuli —
//! start, message delivery, timer expiry (plus optional external requests) —
//! that reacts by recording *effects* into a [`Ctx`]: message sends, timer
//! commands and protocol outputs. A runtime (the `netsim` simulator, or the
//! wall-clock driver each `wirenet` node runs) owns the loop that feeds
//! stimuli in and carries effects out.
//!
//! Timers follow *reset semantics*: setting a timer that is already pending
//! re-arms it (the old deadline is discarded), and cancelling or re-arming
//! a timer wins over an expiry that is due but not yet delivered. This
//! matches the pseudocode idiom "reset timer to Timeout\[q\]" pervasive in
//! the failure-detector literature.

use std::fmt;

use crate::{Duration, Instant, Membership, ProcessId};

/// A process-local timer name.
///
/// Protocols declare timer ids as constants. Ids are namespaced per process;
/// two processes using the same `TimerId` own distinct timers. When protocols
/// are *embedded* (e.g. consensus embedding Ω), the outer protocol remaps the
/// inner protocol's timer ids into a reserved range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimerId(pub u32);

impl TimerId {
    /// Returns a timer id offset by `base`, for embedding protocols.
    #[inline]
    pub fn offset(self, base: u32) -> TimerId {
        TimerId(self.0 + base)
    }
}

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer{}", self.0)
    }
}

/// A queued outbound message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Send<M> {
    /// Destination process.
    pub to: ProcessId,
    /// Payload.
    pub msg: M,
}

/// A timer command produced by a state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerCmd {
    /// (Re-)arm `timer` to fire `after` from now.
    Set {
        /// Timer to arm.
        timer: TimerId,
        /// Delay until expiry.
        after: Duration,
    },
    /// Cancel `timer` if pending; no-op otherwise.
    Cancel {
        /// Timer to cancel.
        timer: TimerId,
    },
}

/// The effects emitted by one state-machine step.
///
/// Runtimes drain this after every stimulus. Protocols that embed other
/// protocols allocate a private `Effects` for the inner machine and translate
/// its contents.
#[derive(Debug, Clone)]
pub struct Effects<M, O> {
    /// Outbound messages, in emission order.
    pub sends: Vec<Send<M>>,
    /// Timer set/cancel commands, in emission order.
    pub timers: Vec<TimerCmd>,
    /// Protocol outputs (e.g. leader changes, decisions), in emission order.
    pub outputs: Vec<O>,
}

impl<M, O> Effects<M, O> {
    /// Creates an empty effect buffer.
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Returns `true` if the step produced no effects at all.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.outputs.is_empty()
    }

    /// Removes and returns all effects, leaving the buffer empty.
    pub fn take(&mut self) -> Effects<M, O> {
        Effects {
            sends: std::mem::take(&mut self.sends),
            timers: std::mem::take(&mut self.timers),
            outputs: std::mem::take(&mut self.outputs),
        }
    }
}

impl<M, O> Default for Effects<M, O> {
    fn default() -> Self {
        Effects::new()
    }
}

/// Static per-process environment: who am I, how large is `Π`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Env {
    id: ProcessId,
    membership: Membership,
}

impl Env {
    /// Creates the environment for process `id` in a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `id` is out of range.
    pub fn new(id: ProcessId, n: usize) -> Self {
        let membership = Membership::new(n);
        assert!(membership.contains(id), "{id} out of range for n={n}");
        Env { id, membership }
    }

    /// This process's identity.
    #[inline]
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The process universe.
    #[inline]
    pub fn membership(&self) -> Membership {
        self.membership
    }

    /// System size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.membership.n()
    }
}

/// The per-stimulus context handed to a state machine.
///
/// Carries the static environment, the current time, and the effect buffer
/// the machine writes into. See the crate-level example.
#[derive(Debug)]
pub struct Ctx<'a, M, O> {
    env: &'a Env,
    now: Instant,
    effects: &'a mut Effects<M, O>,
}

impl<'a, M, O> Ctx<'a, M, O> {
    /// Creates a context over `effects` at time `now`.
    pub fn new(env: &'a Env, now: Instant, effects: &'a mut Effects<M, O>) -> Self {
        Ctx { env, now, effects }
    }

    /// This process's identity.
    #[inline]
    pub fn id(&self) -> ProcessId {
        self.env.id()
    }

    /// The process universe.
    #[inline]
    pub fn membership(&self) -> Membership {
        self.env.membership()
    }

    /// System size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.env.n()
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Queues a message to `to`.
    ///
    /// Sending to self is allowed and delivered like any other message by the
    /// runtime (useful for testing), but the algorithms in this workspace
    /// never rely on it.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.sends.push(Send { to, msg });
    }

    /// Queues `msg` to every process except self.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let me = self.id();
        // Collect first: iterating the membership borrows `self.env` which is
        // disjoint from `self.effects`, but the closure would capture `self`.
        let others: Vec<ProcessId> = self.membership().others(me).collect();
        for to in others {
            self.effects.sends.push(Send {
                to,
                msg: msg.clone(),
            });
        }
    }

    /// (Re-)arms `timer` to fire `after` from now.
    pub fn set_timer(&mut self, timer: TimerId, after: Duration) {
        self.effects.timers.push(TimerCmd::Set { timer, after });
    }

    /// Cancels `timer` if pending.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.effects.timers.push(TimerCmd::Cancel { timer });
    }

    /// Records a protocol output.
    pub fn output(&mut self, out: O) {
        self.effects.outputs.push(out);
    }
}

/// A sans-io protocol state machine.
///
/// Runtimes guarantee:
///
/// * [`Sm::on_start`] is called exactly once, before any other stimulus;
/// * stimuli are delivered one at a time (no reentrancy);
/// * a crashed process receives no further stimuli (crash-stop model);
/// * timer expiries respect reset semantics.
pub trait Sm {
    /// Wire message type exchanged between instances of this machine.
    type Msg: Clone + fmt::Debug + std::marker::Send + 'static;
    /// Observable protocol output (leader changes, decisions, …).
    type Output: Clone + fmt::Debug + std::marker::Send + 'static;
    /// External request type (client commands); use `()` if unused.
    type Request: Clone + fmt::Debug + std::marker::Send + 'static;

    /// Called once when the process starts.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>);

    /// Called when a message from `from` is delivered.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    );

    /// Called when `timer` expires (and was not re-armed or cancelled since).
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId);

    /// Called when an external request (client command) arrives. Default: ignore.
    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        let _ = (ctx, req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_targets_everyone_but_self() {
        let env = Env::new(ProcessId(1), 4);
        let mut fx: Effects<u8, ()> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        ctx.broadcast(9);
        let dests: Vec<_> = fx.sends.iter().map(|s| s.to).collect();
        assert_eq!(dests, vec![ProcessId(0), ProcessId(2), ProcessId(3)]);
        assert!(fx.sends.iter().all(|s| s.msg == 9));
    }

    #[test]
    fn effects_take_empties_buffer() {
        let env = Env::new(ProcessId(0), 2);
        let mut fx: Effects<u8, u8> = Effects::new();
        let mut ctx = Ctx::new(&env, Instant::ZERO, &mut fx);
        ctx.send(ProcessId(1), 1);
        ctx.set_timer(TimerId(0), Duration::from_ticks(5));
        ctx.output(7);
        assert!(!fx.is_empty());
        let taken = fx.take();
        assert!(fx.is_empty());
        assert_eq!(taken.sends.len(), 1);
        assert_eq!(taken.timers.len(), 1);
        assert_eq!(taken.outputs, vec![7]);
    }

    #[test]
    fn env_rejects_out_of_range_id() {
        let r = std::panic::catch_unwind(|| Env::new(ProcessId(5), 3));
        assert!(r.is_err());
    }

    #[test]
    fn timer_offset_shifts_namespace() {
        assert_eq!(TimerId(3).offset(100), TimerId(103));
    }

    #[test]
    fn ctx_exposes_environment() {
        let env = Env::new(ProcessId(2), 5);
        let mut fx: Effects<(), ()> = Effects::new();
        let ctx = Ctx::new(&env, Instant::from_ticks(9), &mut fx);
        assert_eq!(ctx.id(), ProcessId(2));
        assert_eq!(ctx.n(), 5);
        assert_eq!(ctx.now(), Instant::from_ticks(9));
    }
}
