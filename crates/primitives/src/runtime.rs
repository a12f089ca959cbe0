//! The wall-clock node driver, and the one [`Cluster`] interface a harness
//! drives a wall-clock substrate through.
//!
//! An [`Sm`] is pure, so what a runtime adds exists once, here: the timer
//! table with reset semantics, the wall-clock → tick mapping, dispatch of
//! the stimuli, each process's latest [`TimedOutput`] (plus its whole output
//! history for a harness that asks for it), Lamport stamping of each send
//! attempt, and the protocol-level send counters the
//! communication-efficiency oracle reads. A [`Process`] holds one process's
//! state and is stepped with a send sink passed per call, taking
//! `(to, msg, envelope)`; [`drive`] is the one loop that fires its timers
//! and handles its inbox. `wirenet` shares the process behind a `Mutex`
//! between the loop, which keeps requests, kill/restart/stop and timers,
//! and its socket reader threads, which merge each frame's envelope into
//! the receiver's [`LamportClock`] and then call [`Process::deliver`]
//! themselves, so the handler runs causally after the send.
//!
//! A wall-clock cluster implements [`Cluster`]: spawn is its own, and
//! everything after it (requests, kill and restart, the reads over each
//! process's [`NodeLog`], stop and the shared [`RunReport`]) is written
//! once against the trait. [`await_stable_leader`] is the one wait for a
//! settled election.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use crate::TraceEnvelope;
use crate::{Ctx, Effects, Env, Instant, LamportClock, ProcessId, Sm, TimerCmd, TimerId};

/// One stimulus queued for a process's driver. Messages do not pass through
/// the inbox: the transport's own threads hand them to
/// [`Process::deliver`].
#[derive(Debug)]
pub enum Control<S: Sm> {
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

/// The panic message for reading history a cluster did not record.
const HISTORY_OFF: &str = "output history was not recorded: spawn the cluster with \
     `record_outputs: true` in its config to read it";

/// What a [`NodeLog`] keeps of its process's outputs.
#[derive(Debug)]
enum Kept<O> {
    /// Only the newest output: the default, since a protocol's outputs are
    /// current values (Ω's leader) or answers a harness reads once.
    Latest(Option<TimedOutput<O>>),
    /// Every output, oldest first, for a harness that asked to read history.
    History(Vec<TimedOutput<O>>),
}

impl<O> Kept<O> {
    fn latest(&self) -> Option<&TimedOutput<O>> {
        match self {
            Kept::Latest(latest) => latest.as_ref(),
            Kept::History(history) => history.last(),
        }
    }

    /// The recorded history.
    ///
    /// # Panics
    ///
    /// Panics if history is off: an empty list would let a checker over
    /// outputs pass on nothing.
    fn history(&self) -> &[TimedOutput<O>] {
        match self {
            Kept::History(history) => history,
            Kept::Latest(_) => panic!("{HISTORY_OFF}"),
        }
    }
}

/// What the drivers of one process leave for its cluster: the newest output
/// and the send counts of all its incarnations, so a killed process stays in
/// live snapshots and in the final report. With recording on it also keeps
/// every output, read through [`outputs_since`] and [`RunReport`].
#[derive(Debug)]
pub struct NodeLog<O> {
    outputs: Mutex<Kept<O>>,
    traffic: NodeTraffic,
}

impl<O> Default for NodeLog<O> {
    /// A log that keeps only the latest output.
    fn default() -> Self {
        NodeLog::new(false)
    }
}

impl<O> NodeLog<O> {
    /// A log that keeps the latest output, and every output if `record`.
    pub fn new(record: bool) -> Self {
        NodeLog {
            outputs: Mutex::new(if record {
                Kept::History(Vec::new())
            } else {
                Kept::Latest(None)
            }),
            traffic: NodeTraffic::default(),
        }
    }

    /// The process's send counters.
    pub fn traffic(&self) -> NodeTrafficStats {
        self.traffic.snapshot()
    }

    /// Locks the outputs even if a driver panicked while holding the lock:
    /// the substrate reports a dead driver itself (wirenet as
    /// `NodeError::ThreadPanic` at join), and the outputs it emitted before
    /// dying stay readable. Every update is one assignment or `extend`,
    /// which leaves the outputs valid at every step, so the recovered guard
    /// is sound.
    fn lock(&self) -> MutexGuard<'_, Kept<O>> {
        self.outputs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Keeps what one handler emitted, `at` an offset from the epoch.
    fn push(&self, at: StdDuration, process: ProcessId, outputs: Vec<O>) {
        let timed = outputs.into_iter().map(|output| TimedOutput {
            at,
            process,
            output,
        });
        match &mut *self.lock() {
            Kept::Latest(latest) => {
                if let Some(last) = timed.last() {
                    *latest = Some(last);
                }
            }
            Kept::History(history) => history.extend(timed),
        }
    }
}

impl<O: Clone> NodeLog<O> {
    /// The newest output, if any.
    pub fn latest(&self) -> Option<O> {
        self.lock().latest().map(|t| t.output.clone())
    }
}

/// How far a reader has read each process's recorded outputs; see
/// [`outputs_since`]. A fresh cursor reads from the start of the run.
#[derive(Debug, Clone, Default)]
pub struct OutputCursor {
    read: Vec<usize>,
}

/// What every process emitted since `cursor` last read, advancing it past
/// them: each output once, each process's in emission order, the whole
/// call's result sorted by `at`.
///
/// # Panics
///
/// Panics if the logs keep no history (`record_outputs` off).
pub fn outputs_since<O: Clone>(
    logs: &[Arc<NodeLog<O>>],
    cursor: &mut OutputCursor,
) -> Vec<TimedOutput<O>> {
    cursor.read.resize(logs.len(), 0);
    let mut fresh = Vec::new();
    for (log, read) in logs.iter().zip(&mut cursor.read) {
        let kept = log.lock();
        let history = kept.history();
        fresh.extend_from_slice(&history[*read..]);
        *read = history.len();
    }
    // Stable, and `at` never falls within one process: its handlers run
    // one at a time and stamp `at` under the process lock.
    fresh.sort_by_key(|t| t.at);
    fresh
}

/// What every wall-clock substrate reports when it stops: each process's
/// newest output, its send counters and, when the cluster recorded them,
/// every output of the run. A substrate's report adds its own counters and
/// dereferences to this one.
#[derive(Debug, Clone)]
pub struct RunReport<O> {
    latest: Vec<Option<O>>,
    history: Option<Vec<TimedOutput<O>>>,
    /// Protocol-level sends per process, counted when the state machine
    /// emits them, before any loss or queueing.
    pub sent: Vec<u64>,
    /// Offset from the epoch of each process's last protocol-level send.
    pub last_send: Vec<Option<StdDuration>>,
}

impl<O: Clone> RunReport<O> {
    /// Moves what `logs` kept into one record, history ordered by emission
    /// time. Call it once, after every driver has been joined.
    pub fn collect(logs: &[Arc<NodeLog<O>>]) -> Self {
        let (sent, last_send) = traffic_snapshot(logs);
        let mut latest = Vec::with_capacity(logs.len());
        let mut history = Some(Vec::new());
        for log in logs {
            let mut kept = log.lock();
            latest.push(kept.latest().map(|t| t.output.clone()));
            match (&mut *kept, &mut history) {
                (Kept::History(own), Some(all)) => all.append(own),
                _ => history = None,
            }
        }
        if let Some(all) = &mut history {
            all.sort_by_key(|t| t.at);
        }
        RunReport {
            latest,
            history,
            sent,
            last_send,
        }
    }
}

impl<O> RunReport<O> {
    /// Every output of the run, killed incarnations included, ordered by
    /// emission time.
    ///
    /// # Panics
    ///
    /// Panics if the cluster did not record its history.
    pub fn outputs(&self) -> &[TimedOutput<O>] {
        self.history.as_deref().expect(HISTORY_OFF)
    }

    /// The last output `p` emitted, in whichever incarnation, if any.
    pub fn final_output_of(&self, p: ProcessId) -> Option<&O> {
        self.latest[p.as_usize()].as_ref()
    }

    /// Processes whose last send happened at or after `since` (from the
    /// epoch): the communication-efficiency oracle, as in `netsim`.
    pub fn senders_since(&self, since: StdDuration) -> Vec<ProcessId> {
        self.last_send
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some_and(|t| t >= since))
            .map(|(i, _)| ProcessId(i as u32))
            .collect()
    }
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

/// The output type of cluster `C`'s state machine.
pub type Output<C> = <<C as Cluster>::Sm as Sm>::Output;

/// A running wall-clock cluster, as a harness drives it. `wirenet::WireCluster`
/// implements it; an experiment or a test written against it would run
/// unchanged on another substrate that did.
///
/// The contract an implementation keeps:
///
/// - A request sent to a killed process is dropped, like one sent to a
///   crashed server: it is never handled, not even after a restart.
/// - A killed incarnation's last output stays in
///   [`latest_outputs`](Cluster::latest_outputs) and in the report's
///   [`final_output_of`](RunReport::final_output_of) until the process
///   emits again, and its sends stay counted.
/// - Restarting a live process does nothing: the running incarnation
///   carries on and the fresh machine is dropped.
///
/// The read methods are written once here, over each process's
/// [`NodeLog`].
pub trait Cluster: Sized {
    /// The state machine every process runs.
    type Sm: Sm;
    /// What [`stop`](Cluster::stop) returns: the shared [`RunReport`] plus
    /// the substrate's own counters.
    type Report: std::ops::Deref<Target = RunReport<Output<Self>>>;

    /// Each process's log, indexed by process, written by all its
    /// incarnations.
    fn logs(&self) -> &[Arc<NodeLog<Output<Self>>>];

    /// The wall-clock instant every node's virtual clock counts ticks from.
    /// An external client maps its own timestamps into the same tick domain
    /// with `(now - epoch) / tick`, so client- and replica-side probe events
    /// share one timeline.
    fn epoch(&self) -> StdInstant;

    /// The wall-clock length of one tick.
    fn tick(&self) -> StdDuration;

    /// Hands an external request to `p`; dropped if `p` is dead.
    fn request(&self, p: ProcessId, req: <Self::Sm as Sm>::Request);

    /// Crashes `p`: it handles nothing until [`restart`](Cluster::restart)
    /// brings it back; without a restart this is crash-stop.
    fn kill(&mut self, p: ProcessId);

    /// Brings a killed `p` back with a fresh machine, typically one recovered
    /// from the storage its predecessor wrote, and runs its `on_start`.
    /// Does nothing while `p` is alive.
    ///
    /// # Panics
    ///
    /// A substrate that cannot bring `p` back panics (wirenet: its listen
    /// address cannot be re-bound).
    fn restart(&mut self, p: ProcessId, sm: Self::Sm);

    /// Stops every process, joins every thread, and reports the run.
    fn stop(self) -> Self::Report;

    /// Number of processes.
    fn n(&self) -> usize {
        self.logs().len()
    }

    /// Each process's most recent output, if any; for a dead (or restarted
    /// and still quiet) process, its last incarnation's.
    fn latest_outputs(&self) -> Vec<Option<Output<Self>>> {
        self.logs().iter().map(|log| log.latest()).collect()
    }

    /// Every output emitted since `cursor` last read, killed incarnations
    /// included; see [`outputs_since`].
    ///
    /// # Panics
    ///
    /// Panics unless the cluster records its output history.
    fn outputs_since(&self, cursor: &mut OutputCursor) -> Vec<TimedOutput<Output<Self>>> {
        outputs_since(self.logs(), cursor)
    }

    /// A live snapshot of `(sent, last_send)` per process, killed
    /// incarnations included.
    fn traffic_snapshot(&self) -> (Vec<u64>, Vec<Option<StdDuration>>) {
        traffic_snapshot(self.logs())
    }
}

/// Polls `cluster` every 20 ms until every process in `members` names the
/// same leader through `leader`, and has named it for `hold` without a
/// break; returns that leader, or `None` once `timeout` has passed.
/// Agreement that does not hold for `hold` (start-up churn) does not count.
pub fn await_stable_leader<C: Cluster>(
    cluster: &C,
    members: &[ProcessId],
    leader: impl Fn(&Output<C>) -> Option<ProcessId>,
    hold: StdDuration,
    timeout: StdDuration,
) -> Option<ProcessId> {
    let deadline = StdInstant::now() + timeout;
    let mut agreed: Option<(ProcessId, StdInstant)> = None;
    loop {
        let latest = cluster.latest_outputs();
        let mut views = members
            .iter()
            .map(|p| latest[p.as_usize()].as_ref().and_then(&leader));
        let first = views.next().flatten();
        match (first.filter(|l| views.all(|v| v == Some(*l))), agreed) {
            (Some(l), Some((held, since))) if l == held => {
                if since.elapsed() >= hold {
                    return Some(l);
                }
            }
            (Some(l), _) => agreed = Some((l, StdInstant::now())),
            (None, _) => agreed = None,
        }
        if StdInstant::now() > deadline {
            return None;
        }
        std::thread::sleep(StdDuration::from_millis(20));
    }
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
            spec.log.push(since, spec.env.id(), fx.outputs);
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
        let log = Arc::new(NodeLog::new(true));
        let spec = NodeSpec {
            env: Env::new(ProcessId(0), 2),
            epoch: StdInstant::now(),
            tick: StdDuration::from_millis(1),
            clock: LamportClock::new(0),
            log: Arc::clone(&log),
        };
        let handle = std::thread::spawn(move || {
            let mut stamps = 0;
            let process = Mutex::new(Process::new(spec, Race));
            drive(&process, &rx, |_, _, envelope| stamps = envelope.lamport);
            stamps
        });
        (tx, log, handle)
    }

    fn fired(log: &Arc<NodeLog<TimerId>>) -> Vec<TimerId> {
        outputs_since(std::slice::from_ref(log), &mut OutputCursor::default())
            .into_iter()
            .map(|t| t.output)
            .collect()
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
        assert_eq!(p.spec.log.latest(), None, "no timer fired");
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
        let log = Arc::new(NodeLog::new(true));
        let holder = Arc::clone(&log);
        let died = std::thread::spawn(move || {
            holder.push(StdDuration::ZERO, ProcessId(0), vec![7_u8]);
            let _guard = holder.lock();
            panic!("driver dies holding the output lock");
        })
        .join();
        assert!(died.is_err());
        let all = outputs_since(std::slice::from_ref(&log), &mut OutputCursor::default());
        assert_eq!(all.len(), 1);
        assert_eq!(log.latest(), Some(7));
    }

    #[test]
    fn a_log_without_history_holds_only_the_latest_output() {
        let log = NodeLog::default();
        for v in 0..10_000_u64 {
            log.push(StdDuration::from_micros(v), ProcessId(0), vec![v]);
        }
        match &*log.lock() {
            Kept::Latest(Some(latest)) => assert_eq!(latest.output, 9_999),
            Kept::Latest(None) => panic!("the latest output was lost"),
            Kept::History(all) => panic!("kept all {} outputs", all.len()),
        }
        assert_eq!(log.latest(), Some(9_999));
    }

    #[test]
    fn a_cursor_reads_each_output_once_in_emission_order() {
        let logs: Vec<Arc<NodeLog<u64>>> = (0..2).map(|_| Arc::new(NodeLog::new(true))).collect();
        let mut cursor = OutputCursor::default();
        let at = StdDuration::from_millis;
        logs[1].push(at(1), ProcessId(1), vec![10, 11]);
        logs[0].push(at(2), ProcessId(0), vec![0]);
        let first = outputs_since(&logs, &mut cursor);
        logs[0].push(at(3), ProcessId(0), vec![1, 2]);
        let second = outputs_since(&logs, &mut cursor);
        assert!(outputs_since(&logs, &mut cursor).is_empty(), "nothing new");
        let read = |batch: &[TimedOutput<u64>]| batch.iter().map(|t| t.output).collect::<Vec<_>>();
        assert_eq!(read(&first), vec![10, 11, 0], "sorted by `at`");
        assert_eq!(read(&second), vec![1, 2]);
        let report = RunReport::collect(&logs);
        assert_eq!(read(report.outputs()), vec![10, 11, 0, 1, 2]);
        assert_eq!(report.final_output_of(ProcessId(0)), Some(&2));
        assert_eq!(report.final_output_of(ProcessId(1)), Some(&11));
    }
}
