//! Message relaying: Ω under eventually timely *paths*.
//!
//! The papers in this line observe (see the discussion sections of the
//! journal versions) that the point-to-point synchrony assumption can be
//! relaxed to *path* synchrony — "for every correct process `p` there is an
//! eventually timely **path** from `p` to every correct process" — by
//! relaying: the first time a process receives a message it forwards it to
//! everyone else before consuming it. Duplicate detection needs unique
//! message identities, realized here as a per-origin sequence number.
//!
//! [`Relay`] implements that transformation *generically*: it wraps any
//! inner [`Sm`] and floods its traffic, so `Relay<CommEffOmega>` is the
//! relayed Ω detector of the discussion section, and the same adapter works
//! for any other protocol in the workspace.
//!
//! The price, as the papers note, is that the stack is no longer
//! communication-efficient *sensu stricto*: relays forward the leader's
//! heartbeats forever. It remains communication-efficient in the weaker
//! sense that only one process keeps **originating** messages — the
//! [`Relay::origination_count`] counter exposes exactly that measure.
//!
//! # Example
//!
//! A topology in which the source's *direct* link to one process is dead,
//! but a two-hop timely path exists — direct Ω cannot reach `p2`, relayed Ω
//! elects a leader everywhere:
//!
//! ```
//! use lls_primitives::{Instant, ProcessId};
//! use netsim::{LinkModel, SimBuilder, Topology};
//! use omega::{CommEffOmega, OmegaParams, Relay};
//!
//! let n = 3;
//! let mut topo = Topology::all_timely(n, lls_primitives::Duration::from_ticks(2));
//! topo.set_link(ProcessId(0), ProcessId(2), LinkModel::Dead);
//! topo.set_link(ProcessId(2), ProcessId(0), LinkModel::Dead);
//!
//! let mut sim = SimBuilder::new(n)
//!     .topology(topo)
//!     .build_with(|env| Relay::new(env, CommEffOmega::new(env, OmegaParams::default())));
//! sim.run_until(Instant::from_ticks(20_000));
//! let leaders: Vec<ProcessId> =
//!     (0..3).map(|p| sim.node(ProcessId(p)).inner().leader()).collect();
//! assert!(leaders.iter().all(|&l| l == leaders[0]), "{leaders:?}");
//! ```

use std::collections::BTreeSet;

use lls_primitives::{Ctx, Effects, Env, ProcessId, Sm, TimerCmd, TimerId};

/// A flooded message: the inner payload plus a unique identity and its
/// intended destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayMsg<M> {
    /// The process that originated the message.
    pub origin: ProcessId,
    /// Origin-assigned sequence number (unique per origin).
    pub seq: u64,
    /// The process the inner protocol addressed.
    pub dest: ProcessId,
    /// The inner payload.
    pub inner: M,
}

/// Per-origin duplicate suppression with bounded memory: remembers a sliding
/// window of sequence numbers. Sequence numbers below the window are treated
/// as duplicates — they are older than `window` more-recent messages from the
/// same origin, so the inner protocol has long since moved on.
#[derive(Debug, Clone)]
struct DupFilter {
    seen: BTreeSet<u64>,
    window: usize,
}

impl DupFilter {
    fn new(window: usize) -> Self {
        DupFilter {
            seen: BTreeSet::new(),
            window,
        }
    }

    /// Returns `true` the first time `seq` is observed.
    fn fresh(&mut self, seq: u64) -> bool {
        if let Some(&min) = self.seen.first() {
            if self.seen.len() >= self.window && seq < min {
                return false; // Below the window: stale.
            }
        }
        let fresh = self.seen.insert(seq);
        while self.seen.len() > self.window {
            self.seen.pop_first();
        }
        fresh
    }
}

/// A generic flooding adapter: wraps an inner protocol and relays every
/// message once, enabling the eventually-timely-*path* assumption.
///
/// See the module-level documentation and the example at the top of
/// `crates/core/src/relay.rs`.
#[derive(Debug, Clone)]
pub struct Relay<S: Sm> {
    env: Env,
    inner: S,
    next_seq: u64,
    filters: Vec<DupFilter>,
    originated: u64,
    forwarded: u64,
}

/// How many sequence numbers per origin the duplicate filter remembers.
const DUP_WINDOW: usize = 1_024;

impl<S: Sm> Relay<S> {
    /// Wraps `inner` for the process described by `env`.
    pub fn new(env: &Env, inner: S) -> Self {
        Relay {
            env: *env,
            inner,
            next_seq: 0,
            filters: (0..env.n()).map(|_| DupFilter::new(DUP_WINDOW)).collect(),
            originated: 0,
            forwarded: 0,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Messages this process *originated* (the relayed notion of
    /// communication efficiency counts these, not forwards).
    pub fn origination_count(&self) -> u64 {
        self.originated
    }

    /// Messages this process forwarded on behalf of others.
    pub fn forward_count(&self) -> u64 {
        self.forwarded
    }

    /// Runs one inner step and floods its sends.
    fn drive(
        &mut self,
        ctx: &mut Ctx<'_, RelayMsg<S::Msg>, S::Output>,
        step: impl FnOnce(&mut S, &mut Ctx<'_, S::Msg, S::Output>),
    ) {
        let mut fx: Effects<S::Msg, S::Output> = Effects::new();
        {
            let mut ictx = Ctx::new(&self.env, ctx.now(), &mut fx);
            step(&mut self.inner, &mut ictx);
        }
        for s in fx.sends {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.originated += 1;
            // Record our own message as seen so an echo is not re-flooded.
            self.filters[self.env.id().as_usize()].fresh(seq);
            ctx.broadcast(RelayMsg {
                origin: self.env.id(),
                seq,
                dest: s.to,
                inner: s.msg,
            });
        }
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => ctx.set_timer(timer, after),
                TimerCmd::Cancel { timer } => ctx.cancel_timer(timer),
            }
        }
        for o in fx.outputs {
            ctx.output(o);
        }
    }
}

impl<S: Sm> Sm for Relay<S>
where
    S::Msg: Clone,
{
    type Msg = RelayMsg<S::Msg>;
    type Output = S::Output;
    type Request = S::Request;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.drive(ctx, |inner, ictx| inner.on_start(ictx));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        _from: ProcessId,
        msg: Self::Msg,
    ) {
        let origin = msg.origin;
        if !self.env.membership().contains(origin) {
            return; // Corrupt origin id: ignore.
        }
        if !self.filters[origin.as_usize()].fresh(msg.seq) {
            return; // Duplicate: already processed and forwarded.
        }
        // Relay first (to everyone except ourselves; the small optimization
        // of skipping the origin is deliberately not applied so the code
        // follows the simplest correct form).
        self.forwarded += 1;
        ctx.broadcast(msg.clone());
        // Deliver to the inner protocol only if we are the addressee.
        if msg.dest == self.env.id() {
            self.drive(ctx, |inner, ictx| inner.on_message(ictx, origin, msg.inner));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.drive(ctx, |inner, ictx| inner.on_timer(ictx, timer));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Self::Request) {
        self.drive(ctx, |inner, ictx| inner.on_request(ictx, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inner test machine: on start, p0 sends one "hello" to p2; any
    /// received message becomes an output.
    #[derive(Debug)]
    struct Hello;
    impl Sm for Hello {
        type Msg = &'static str;
        type Output = &'static str;
        type Request = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, &'static str, &'static str>) {
            if ctx.id() == ProcessId(0) {
                ctx.send(ProcessId(2), "hello");
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, &'static str, &'static str>,
            _from: ProcessId,
            msg: &'static str,
        ) {
            ctx.output(msg);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, &'static str, &'static str>, _t: TimerId) {}
    }

    fn harness(
        me: u32,
    ) -> (
        Env,
        Relay<Hello>,
        Effects<RelayMsg<&'static str>, &'static str>,
    ) {
        let env = Env::new(ProcessId(me), 3);
        (env, Relay::new(&env, Hello), Effects::new())
    }

    #[test]
    fn origin_floods_instead_of_unicasting() {
        let (env, mut r, mut fx) = harness(0);
        r.on_start(&mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx));
        // The single inner send became a broadcast of the wrapped message.
        assert_eq!(fx.sends.len(), 2);
        for s in &fx.sends {
            assert_eq!(
                s.msg,
                RelayMsg {
                    origin: ProcessId(0),
                    seq: 0,
                    dest: ProcessId(2),
                    inner: "hello"
                }
            );
        }
        assert_eq!(r.origination_count(), 1);
    }

    #[test]
    fn intermediate_forwards_but_does_not_consume() {
        let (env, mut r, mut fx) = harness(1);
        let msg = RelayMsg {
            origin: ProcessId(0),
            seq: 0,
            dest: ProcessId(2),
            inner: "hello",
        };
        r.on_message(
            &mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx),
            ProcessId(0),
            msg,
        );
        assert_eq!(fx.sends.len(), 2, "must forward to the other two");
        assert!(fx.outputs.is_empty(), "p1 is not the addressee");
        assert_eq!(r.forward_count(), 1);
    }

    #[test]
    fn addressee_forwards_and_consumes() {
        let (env, mut r, mut fx) = harness(2);
        let msg = RelayMsg {
            origin: ProcessId(0),
            seq: 0,
            dest: ProcessId(2),
            inner: "hello",
        };
        r.on_message(
            &mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx),
            ProcessId(1), // arrived via the relay, not from the origin
            msg,
        );
        assert_eq!(fx.outputs, vec!["hello"]);
        assert_eq!(fx.sends.len(), 2);
    }

    #[test]
    fn duplicates_are_forwarded_and_consumed_once() {
        let (env, mut r, mut fx) = harness(2);
        let msg = RelayMsg {
            origin: ProcessId(0),
            seq: 0,
            dest: ProcessId(2),
            inner: "hello",
        };
        for from in [0u32, 1, 1] {
            r.on_message(
                &mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx),
                ProcessId(from),
                msg.clone(),
            );
        }
        assert_eq!(fx.outputs.len(), 1, "consumed once");
        assert_eq!(fx.sends.len(), 2, "forwarded once");
    }

    #[test]
    fn own_echo_is_not_reflooded() {
        let (env, mut r, mut fx) = harness(0);
        r.on_start(&mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx));
        fx.take();
        // Our own flooded message comes back via a peer.
        let echo = RelayMsg {
            origin: ProcessId(0),
            seq: 0,
            dest: ProcessId(2),
            inner: "hello",
        };
        r.on_message(
            &mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx),
            ProcessId(1),
            echo,
        );
        assert!(fx.sends.is_empty(), "echoes must not multiply");
    }

    #[test]
    fn dup_filter_window_semantics() {
        let mut f = DupFilter::new(3);
        assert!(f.fresh(10));
        assert!(f.fresh(11));
        assert!(f.fresh(12));
        assert!(!f.fresh(11), "repeat within window");
        assert!(f.fresh(13)); // evicts 10
        assert!(!f.fresh(9), "below a full window is stale");
        assert!(f.fresh(14));
    }

    #[test]
    fn corrupt_origin_is_ignored() {
        let (env, mut r, mut fx) = harness(1);
        r.on_message(
            &mut Ctx::new(&env, lls_primitives::Instant::ZERO, &mut fx),
            ProcessId(0),
            RelayMsg {
                origin: ProcessId(99),
                seq: 0,
                dest: ProcessId(1),
                inner: "x",
            },
        );
        assert!(fx.is_empty());
    }
}
