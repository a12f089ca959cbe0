//! The wall-clock node driver every real-time substrate runs.
//!
//! An [`Sm`] is pure, so what a runtime adds exists once, here: the timer
//! table with reset semantics, the wall-clock → tick mapping, dispatch of
//! the stimuli, a per-process log of [`TimedOutput`]s, Lamport stamping of
//! each send attempt, and the protocol-level send counters the
//! communication-efficiency oracle reads. A [`Process`] holds one process's
//! state and is stepped with a send sink passed per call, taking
//! `(to, msg, envelope)`; [`drive`] is the one loop that fires its timers
//! and handles its inbox. `threadnet` runs that loop alone per process
//! ([`run`]) and its router delivers through the inbox. `wirenet` shares
//! the process behind a `Mutex` between the loop, which keeps requests,
//! kill/restart/stop and timers, and its socket reader threads, which call
//! [`Process::deliver`] themselves. Both transports merge the envelope into
//! the receiver's [`LamportClock`] before delivery, so the handler runs
//! causally after the send.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use crate::TraceEnvelope;
use crate::{Ctx, Effects, Env, Instant, LamportClock, ProcessId, Sm, TimerCmd, TimerId};

/// One stimulus queued for a process's driver.
#[derive(Debug)]
pub enum Control<S: Sm> {
    /// A message from `from`, its trace envelope already merged.
    Deliver {
        /// The sender.
        from: ProcessId,
        /// The payload.
        msg: S::Msg,
    },
    /// An external request (client command).
    Request(S::Request),
    /// Crashes the process: its timers are disarmed and every stimulus is
    /// discarded until [`Control::Restart`].
    Kill,
    /// Brings a killed process back with a fresh machine (typically one
    /// recovered from the storage its predecessor wrote) and runs its
    /// `on_start`. Ignored while the process is alive. Boxed so a bounded
    /// inbox's slots stay message-sized, not machine-sized.
    Restart(Box<S>),
    /// Makes the driver re-read its timer table: sent after
    /// [`Process::deliver`] on another thread armed a timer due before the
    /// driver's planned wake-up. Otherwise a no-op.
    Wake,
    /// Ends the driver.
    Stop,
}

/// One timestamped protocol output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedOutput<O> {
    /// Wall-clock offset from the cluster's epoch.
    pub at: StdDuration,
    /// The process that emitted the output.
    pub process: ProcessId,
    /// The output value.
    pub output: O,
}

/// Sentinel for "never sent" in [`NodeTraffic`].
const NEVER: u64 = u64::MAX;

/// Protocol-level send accounting for one process: a send is counted when
/// the state machine emits it, before loss or queueing can interfere. This
/// is what the communication-efficiency oracle (`senders_since`) measures.
#[derive(Debug)]
pub struct NodeTraffic {
    sent: AtomicU64,
    last_send_nanos: AtomicU64,
}

impl Default for NodeTraffic {
    fn default() -> Self {
        NodeTraffic {
            sent: AtomicU64::new(0),
            last_send_nanos: AtomicU64::new(NEVER),
        }
    }
}

impl NodeTraffic {
    /// Counts `sends` sends emitted `at` (an offset from the epoch).
    pub fn record(&self, sends: u64, at: StdDuration) {
        self.sent.fetch_add(sends, Ordering::Relaxed);
        let nanos = at.as_nanos().min(u128::from(NEVER - 1)) as u64;
        self.last_send_nanos.store(nanos, Ordering::Relaxed);
    }

    /// A point-in-time copy of both counters, taken in one call.
    ///
    /// This is the only read API: reading `sent` and `last_send` through
    /// separate getters could tear (a send landing between the two loads
    /// yields a count and timestamp from different instants), which showed
    /// up as off-by-one sender sets in the efficiency oracle. The loads here
    /// are still two relaxed atomics, but every caller now gets both fields
    /// from one named snapshot, so a torn pair can't be split across
    /// decision points.
    pub fn snapshot(&self) -> NodeTrafficStats {
        NodeTrafficStats {
            sent: self.sent.load(Ordering::Relaxed),
            last_send: match self.last_send_nanos.load(Ordering::Relaxed) {
                NEVER => None,
                n => Some(StdDuration::from_nanos(n)),
            },
        }
    }
}

/// A frozen copy of one process's protocol-level send accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTrafficStats {
    /// Total protocol-level sends.
    pub sent: u64,
    /// Offset from the epoch of the most recent send, if any.
    pub last_send: Option<StdDuration>,
}

/// What the drivers of one process leave for its cluster: the outputs and
/// send counts of every incarnation, so a killed process's history stays
/// in live snapshots and in the final report.
#[derive(Debug)]
pub struct NodeLog<O> {
    outputs: Mutex<Vec<TimedOutput<O>>>,
    traffic: NodeTraffic,
}

impl<O> Default for NodeLog<O> {
    fn default() -> Self {
        NodeLog {
            outputs: Mutex::new(Vec::new()),
            traffic: NodeTraffic::default(),
        }
    }
}

impl<O> NodeLog<O> {
    /// The process's send counters.
    pub fn traffic(&self) -> NodeTrafficStats {
        self.traffic.snapshot()
    }

    /// Locks the outputs even if a driver panicked while holding the lock:
    /// the substrate reports a dead driver itself (wirenet as
    /// `NodeError::ThreadPanic` at join), and the outputs it emitted before
    /// dying stay readable. Every update is one `extend`, which leaves the
    /// list valid at every step, so the recovered guard is sound.
    fn lock(&self) -> MutexGuard<'_, Vec<TimedOutput<O>>> {
        self.outputs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<O: Clone> NodeLog<O> {
    /// Every output so far, oldest first.
    pub fn outputs(&self) -> Vec<TimedOutput<O>> {
        self.lock().clone()
    }

    /// The newest output, if any.
    pub fn latest(&self) -> Option<O> {
        self.lock().last().map(|t| t.output.clone())
    }
}

/// Every process's outputs in one list, ordered by emission time.
pub fn merged_outputs<O: Clone>(logs: &[Arc<NodeLog<O>>]) -> Vec<TimedOutput<O>> {
    let mut all: Vec<TimedOutput<O>> = logs.iter().flat_map(|log| log.outputs()).collect();
    all.sort_by_key(|t| t.at);
    all
}

/// Every process's `(sent, last_send)` counters, indexed by process.
pub fn traffic_snapshot<O>(logs: &[Arc<NodeLog<O>>]) -> (Vec<u64>, Vec<Option<StdDuration>>) {
    logs.iter()
        .map(|log| {
            let t = log.traffic();
            (t.sent, t.last_send)
        })
        .unzip()
}

/// What one process's driver runs with, besides its machine and inbox.
#[derive(Debug, Clone)]
pub struct NodeSpec<O> {
    /// The process's identity and system size.
    pub env: Env,
    /// The instant tick 0 starts at, shared by the whole cluster.
    pub epoch: StdInstant,
    /// Wall-clock length of one tick (scales η and timeouts).
    pub tick: StdDuration,
    /// Ticked once per send attempt; the stamp travels in the envelope.
    pub clock: LamportClock,
    /// Where the outputs and send counts go.
    pub log: Arc<NodeLog<O>>,
}

/// Drives one process on the caller's thread until [`Control::Stop`]
/// arrives or every sender of `inbox` is gone: runs `on_start`, then fires
/// due timers and dispatches the inbox, handing each send to `send` with its
/// fresh Lamport stamp. This is [`drive`] over a [`Process`] no other thread
/// touches.
pub fn run<S: Sm>(
    spec: NodeSpec<S::Output>,
    sm: S,
    inbox: Receiver<Control<S>>,
    send: impl FnMut(ProcessId, S::Msg, TraceEnvelope),
) {
    drive(&Mutex::new(Process::new(spec, sm)), &inbox, send);
}

/// The driver loop: runs `on_start`, then fires due timers and handles the
/// inbox until [`Control::Stop`] arrives or every sender of `inbox` is gone.
///
/// The lock is held for one stimulus plus the timer batch after it and
/// released while the loop waits, so other threads may
/// [`deliver`](Process::deliver) messages in between. A poisoned lock means
/// a handler panicked on such a thread; the process is then dead and the
/// loop ends.
pub fn drive<S: Sm>(
    process: &Mutex<Process<S>>,
    inbox: &Receiver<Control<S>>,
    mut send: impl FnMut(ProcessId, S::Msg, TraceEnvelope),
) {
    let mut next = None;
    loop {
        let wake = {
            let Ok(mut p) = process.lock() else { return };
            p.start(&mut send);
            if let Some(control) = next.take() {
                if !p.handle(control, &mut send) {
                    return;
                }
            }
            p.fire_due(StdInstant::now(), &mut send);
            p.plan_wake()
        };
        let received = match wake {
            Some(due) => inbox.recv_timeout(due.saturating_duration_since(StdInstant::now())),
            None => inbox.recv().map_err(RecvTimeoutError::from),
        };
        next = match received {
            Ok(control) => Some(control),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return,
        };
    }
}

/// Where a process is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Life {
    /// Created; `on_start` runs at the first stimulus.
    Unstarted,
    Alive,
    /// Killed: stimuli are dropped until a restart.
    Dead,
    /// Processed [`Control::Stop`]: no handler runs again.
    Stopped,
}

/// One process's driver state: its machine, timer table, life and spec.
/// The send sink is passed per call, so whichever thread holds the process
/// can step it. [`drive`] runs it from an inbox; a transport whose own
/// threads handle messages shares it with the driving thread behind a
/// `Mutex` and calls [`Process::deliver`] from them.
pub struct Process<S: Sm> {
    spec: NodeSpec<S::Output>,
    sm: S,
    timers: HashMap<TimerId, StdInstant>,
    life: Life,
    /// When the driving thread planned, before it last released the lock,
    /// to read the timer table next by itself (`None`: only on a stimulus).
    wake: Option<StdInstant>,
}

impl<S: Sm> std::fmt::Debug for Process<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("id", &self.spec.env.id())
            .field("life", &self.life)
            .field("timers", &self.timers.len())
            .finish_non_exhaustive()
    }
}

impl<S: Sm> Process<S> {
    /// A process whose `on_start` runs at its first stimulus.
    pub fn new(spec: NodeSpec<S::Output>, sm: S) -> Self {
        Process {
            spec,
            sm,
            timers: HashMap::new(),
            life: Life::Unstarted,
            wake: None,
        }
    }

    /// Runs `on_message` for `msg` from `from`; a dead or stopped process
    /// drops it. Returns `true` when the handler armed a timer due before
    /// the driving thread's planned wake-up: the caller must then send
    /// [`Control::Wake`] to the driver's inbox, or that timer fires late.
    pub fn deliver(
        &mut self,
        from: ProcessId,
        msg: S::Msg,
        send: &mut impl FnMut(ProcessId, S::Msg, TraceEnvelope),
    ) -> bool {
        self.start(send);
        if self.life != Life::Alive {
            return false;
        }
        let armed = self.step(StdInstant::now(), send, |sm, ctx| {
            sm.on_message(ctx, from, msg);
        });
        match (armed, self.wake) {
            (Some(due), Some(planned)) if due >= planned => false,
            (Some(due), _) => {
                self.wake = Some(due);
                true
            }
            (None, _) => false,
        }
    }

    /// Handles one inbox stimulus; returns `false` once the process has
    /// stopped.
    fn handle(
        &mut self,
        control: Control<S>,
        send: &mut impl FnMut(ProcessId, S::Msg, TraceEnvelope),
    ) -> bool {
        match control {
            Control::Deliver { from, msg } => {
                self.deliver(from, msg, send);
            }
            Control::Request(req) if self.life == Life::Alive => {
                self.step(StdInstant::now(), send, |sm, ctx| sm.on_request(ctx, req));
            }
            Control::Kill => {
                self.life = Life::Dead;
                self.timers.clear();
            }
            Control::Restart(fresh) if self.life == Life::Dead => {
                self.sm = *fresh;
                self.life = Life::Alive;
                self.step(StdInstant::now(), send, |sm, ctx| sm.on_start(ctx));
            }
            // A dead process drops its stimuli, like the network dropping
            // traffic to a crashed node; a live one ignores restarts.
            Control::Request(_) | Control::Restart(_) | Control::Wake => {}
            Control::Stop => {
                self.life = Life::Stopped;
                self.timers.clear();
                return false;
            }
        }
        true
    }

    /// Runs `on_start` if it has not run yet.
    fn start(&mut self, send: &mut impl FnMut(ProcessId, S::Msg, TraceEnvelope)) {
        if self.life == Life::Unstarted {
            self.life = Life::Alive;
            self.step(StdInstant::now(), send, |sm, ctx| sm.on_start(ctx));
        }
    }

    /// Fires the timers due by `now` one at a time, earliest `(deadline,
    /// id)` first, re-reading the table before each: a handler that cancels
    /// or re-arms another timer of the same batch must win, as the reset
    /// semantics of `Sm` demand.
    fn fire_due(
        &mut self,
        now: StdInstant,
        send: &mut impl FnMut(ProcessId, S::Msg, TraceEnvelope),
    ) {
        while let Some(timer) = self.due(now) {
            self.timers.remove(&timer);
            self.step(now, send, |sm, ctx| sm.on_timer(ctx, timer));
        }
    }

    /// The earliest timer due by `now`, ties broken by id.
    fn due(&self, now: StdInstant) -> Option<TimerId> {
        self.timers
            .iter()
            .filter(|(_, &due)| due <= now)
            .min_by_key(|(&timer, &due)| (due, timer))
            .map(|(&timer, _)| timer)
    }

    /// Records and returns when the driving thread wakes next by itself.
    fn plan_wake(&mut self) -> Option<StdInstant> {
        self.wake = self.timers.values().min().copied();
        self.wake
    }

    /// Runs one handler at wall time `at` and carries its effects out;
    /// returns the earliest deadline it armed, if any.
    fn step(
        &mut self,
        at: StdInstant,
        send: &mut impl FnMut(ProcessId, S::Msg, TraceEnvelope),
        handler: impl FnOnce(&mut S, &mut Ctx<'_, S::Msg, S::Output>),
    ) -> Option<StdInstant> {
        let spec = &self.spec;
        let since = at.saturating_duration_since(spec.epoch);
        let now = Instant::from_ticks((since.as_nanos() / spec.tick.as_nanos().max(1)) as u64);
        let mut fx = Effects::new();
        handler(&mut self.sm, &mut Ctx::new(&spec.env, now, &mut fx));
        if !fx.sends.is_empty() {
            spec.log.traffic.record(fx.sends.len() as u64, since);
        }
        for s in fx.sends {
            // One tick per send attempt: clocks count events, not
            // deliveries, so a message lost later still advances the clock.
            send(s.to, s.msg, spec.clock.stamp());
        }
        let mut armed: Option<StdInstant> = None;
        for cmd in fx.timers {
            match cmd {
                TimerCmd::Set { timer, after } => {
                    let wall = spec
                        .tick
                        .checked_mul(after.ticks().min(u64::from(u32::MAX)) as u32)
                        .unwrap_or(StdDuration::from_secs(3600));
                    let due = at + wall;
                    self.timers.insert(timer, due);
                    armed = Some(armed.map_or(due, |a| a.min(due)));
                }
                TimerCmd::Cancel { timer } => {
                    self.timers.remove(&timer);
                }
            }
        }
        if !fx.outputs.is_empty() {
            let process = spec.env.id();
            spec.log
                .lock()
                .extend(fx.outputs.into_iter().map(|output| TimedOutput {
                    at: since,
                    process,
                    output,
                }));
        }
        armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Duration;
    use std::sync::mpsc::{channel, Sender};
    use std::thread::JoinHandle;

    /// Arms two timers for the same tick; whichever fires first reports
    /// itself and cancels the other.
    struct Race;

    impl Sm for Race {
        type Msg = ();
        type Output = TimerId;
        type Request = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, (), TimerId>) {
            ctx.set_timer(TimerId(1), Duration::from_ticks(10));
            ctx.set_timer(TimerId(2), Duration::from_ticks(10));
        }

        fn on_message(&mut self, _: &mut Ctx<'_, (), TimerId>, _: ProcessId, _: ()) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_, (), TimerId>, timer: TimerId) {
            ctx.output(timer);
            ctx.cancel_timer(TimerId(3 - timer.0));
        }

        fn on_request(&mut self, ctx: &mut Ctx<'_, (), TimerId>, _: ()) {
            ctx.send(ProcessId(1), ());
        }
    }

    /// Starts a `Race` driver with `queued` already in its inbox; the
    /// handle yields the last Lamport stamp it sent.
    fn spawn_race(
        queued: Vec<Control<Race>>,
    ) -> (
        Sender<Control<Race>>,
        Arc<NodeLog<TimerId>>,
        JoinHandle<u64>,
    ) {
        let (tx, rx) = channel();
        for control in queued {
            tx.send(control).expect("inbox open");
        }
        let log: Arc<NodeLog<TimerId>> = Arc::default();
        let spec = NodeSpec {
            env: Env::new(ProcessId(0), 2),
            epoch: StdInstant::now(),
            tick: StdDuration::from_millis(1),
            clock: LamportClock::new(0),
            log: Arc::clone(&log),
        };
        let handle = std::thread::spawn(move || {
            let mut stamps = 0;
            run(spec, Race, rx, |_, _, envelope| stamps = envelope.lamport);
            stamps
        });
        (tx, log, handle)
    }

    fn fired(log: &NodeLog<TimerId>) -> Vec<TimerId> {
        log.outputs().into_iter().map(|t| t.output).collect()
    }

    /// Polls until the driver has fired a timer. Both timers are due in the
    /// same batch, and a batch completes before the inbox is read again, so
    /// any output the batch would still add lands before a later `Stop`.
    fn await_first_fire(log: &NodeLog<TimerId>) {
        let deadline = StdInstant::now() + StdDuration::from_secs(10);
        while log.latest().is_none() {
            assert!(StdInstant::now() < deadline, "no timer fired");
            std::thread::sleep(StdDuration::from_millis(1));
        }
    }

    #[test]
    fn a_timer_cancelled_earlier_in_its_batch_does_not_fire() {
        let (tx, log, handle) = spawn_race(Vec::new());
        await_first_fire(&log);
        tx.send(Control::Stop).expect("driver alive");
        handle.join().expect("driver exits cleanly");
        assert_eq!(fired(&log), vec![TimerId(1)], "earliest id wins the tie");
    }

    #[test]
    fn a_killed_process_drops_stimuli_until_restarted() {
        let (tx, log, handle) = spawn_race(vec![Control::Kill, Control::Request(())]);
        // Absence can only be observed by waiting past the timers' deadline.
        std::thread::sleep(StdDuration::from_millis(50));
        assert_eq!(fired(&log), vec![], "kill disarms the pending timers");
        assert_eq!(log.traffic().sent, 0, "a dead process sends nothing");
        tx.send(Control::Restart(Box::new(Race)))
            .expect("driver alive");
        tx.send(Control::Request(())).expect("driver alive");
        await_first_fire(&log);
        drop(tx);
        assert_eq!(handle.join().expect("driver exits cleanly"), 1);
        assert_eq!(fired(&log), vec![TimerId(1)], "the fresh machine ran");
        assert_eq!(log.traffic().sent, 1);
    }

    /// Process 0 of 2 running `sm`, with 1 ms ticks.
    fn process<S: Sm>(sm: S) -> Process<S> {
        let spec = NodeSpec {
            env: Env::new(ProcessId(0), 2),
            epoch: StdInstant::now(),
            tick: StdDuration::from_millis(1),
            clock: LamportClock::new(0),
            log: Arc::default(),
        };
        Process::new(spec, sm)
    }

    /// Re-arms timer 1 ten ticks out on every message.
    struct Rearm;

    impl Sm for Rearm {
        type Msg = ();
        type Output = ();
        type Request = ();

        fn on_start(&mut self, _: &mut Ctx<'_, (), ()>) {}

        fn on_message(&mut self, ctx: &mut Ctx<'_, (), ()>, _: ProcessId, _: ()) {
            ctx.set_timer(TimerId(1), Duration::from_ticks(10));
        }

        fn on_timer(&mut self, _: &mut Ctx<'_, (), ()>, _: TimerId) {}
    }

    #[test]
    fn no_handler_runs_after_stop() {
        let mut p = process(Race);
        let mut sends = 0;
        let mut sink = |_, _, _| sends += 1;
        p.start(&mut sink);
        assert!(!p.handle(Control::Stop, &mut sink));
        assert!(!p.deliver(ProcessId(1), (), &mut sink));
        assert!(p.handle(Control::Request(()), &mut sink));
        p.fire_due(StdInstant::now() + StdDuration::from_secs(1), &mut sink);
        assert_eq!(sends, 0, "the request handler did not run");
        assert_eq!(p.spec.log.outputs(), vec![], "no timer fired");
    }

    #[test]
    fn deliver_asks_for_a_wake_only_when_it_arms_an_earlier_timer() {
        let mut p = process(Rearm);
        let mut sink = |_, _, _| {};
        p.start(&mut sink);
        assert_eq!(p.plan_wake(), None, "no timer armed yet");
        assert!(
            p.deliver(ProcessId(1), (), &mut sink),
            "the driver sleeps forever"
        );
        assert!(
            !p.deliver(ProcessId(1), (), &mut sink),
            "the first wake already covers a later deadline"
        );
        p.timers
            .insert(TimerId(2), StdInstant::now() + StdDuration::from_secs(60));
        p.timers.remove(&TimerId(1));
        assert!(p.plan_wake().is_some());
        assert!(
            p.deliver(ProcessId(1), (), &mut sink),
            "due before the planned wake"
        );
    }

    #[test]
    fn node_traffic_tracks_last_send() {
        let t = NodeTraffic::default();
        let s = t.snapshot();
        assert_eq!(s.sent, 0);
        assert_eq!(s.last_send, None);
        t.record(2, StdDuration::from_millis(5));
        let s = t.snapshot();
        assert_eq!(s.sent, 2);
        assert_eq!(s.last_send, Some(StdDuration::from_millis(5)));
    }

    #[test]
    fn outputs_survive_a_panicked_holder() {
        let log: Arc<NodeLog<u8>> = Arc::default();
        let holder = Arc::clone(&log);
        let died = std::thread::spawn(move || {
            let _guard = holder.lock();
            panic!("driver dies holding the output lock");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(log.outputs(), vec![]);
        assert_eq!(log.latest(), None);
    }
}
