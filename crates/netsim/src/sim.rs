//! The discrete-event simulator driving [`Sm`] state machines.

use std::collections::HashMap;

use lls_primitives::{
    Ctx, Duration, Effects, Env, Instant, LamportClock, ProcessId, Send, Sm, TimerCmd, TimerId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::link::LinkFate;
use crate::stats::Stats;
use crate::topology::Topology;
use crate::trace::{Trace, TraceKind};

/// One stamped delivery, recorded when the simulator runs with trace
/// clocks: the sender's Lamport stamp and the value the receiver's clock
/// merged to just before the handler ran. `merged > stamp` always — this
/// is the raw material for happens-before property tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalDelivery {
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// Sender's clock at send time.
    pub stamp: u64,
    /// Receiver's clock after the merge.
    pub merged: u64,
}

/// A timestamped protocol output recorded during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputEvent<O> {
    /// When the output was emitted.
    pub at: Instant,
    /// Which process emitted it.
    pub process: ProcessId,
    /// The output value.
    pub output: O,
}

/// Configures and constructs a [`Simulator`].
///
/// # Example
///
/// See the [crate-level example](crate).
pub struct SimBuilder<S: Sm> {
    n: usize,
    seed: u64,
    topology: Option<Topology>,
    faults: FaultPlan,
    requests: Vec<(Instant, ProcessId, S::Request)>,
    net_changes: Vec<(Instant, NetChange)>,
    window: Duration,
    classifier: fn(&S::Msg) -> &'static str,
    output_classifier: fn(&S::Output) -> &'static str,
    trace_capacity: Option<usize>,
    clocks: Option<Vec<LamportClock>>,
    record_outputs: bool,
}

#[derive(Debug, Clone)]
enum NetChange {
    Link(ProcessId, ProcessId, crate::LinkModel),
    Topo(Box<Topology>),
}

impl<S: Sm> std::fmt::Debug for SimBuilder<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("n", &self.n)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

fn default_classifier<M>(_: &M) -> &'static str {
    "msg"
}

fn default_output_classifier<O>(_: &O) -> &'static str {
    "output"
}

impl<S: Sm> SimBuilder<S> {
    /// Starts configuring a system of `n` processes.
    ///
    /// Defaults: seed 0, an all-timely topology with `δ = 1`, no faults, a
    /// stats window of 100 ticks, no output history.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "the model requires n > 1 processes, got {n}");
        SimBuilder {
            n,
            seed: 0,
            topology: None,
            faults: FaultPlan::new(n),
            requests: Vec::new(),
            net_changes: Vec::new(),
            window: Duration::from_ticks(100),
            classifier: default_classifier::<S::Msg>,
            output_classifier: default_output_classifier::<S::Output>,
            trace_capacity: None,
            clocks: None,
            record_outputs: false,
        }
    }

    /// Sets the RNG seed. Runs are a pure function of the full configuration
    /// including this seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the link topology.
    ///
    /// # Panics
    ///
    /// Panics at [`SimBuilder::build_with`] time if the topology size differs
    /// from `n`.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Installs a full fault plan (replacing any crashes set so far).
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Schedules `p` to crash at `t`.
    pub fn crash_at(mut self, p: ProcessId, t: Instant) -> Self {
        self.faults.crash_at(p, t);
        self
    }

    /// Schedules `p` to boot at `t` instead of 0.
    pub fn start_at(mut self, p: ProcessId, t: Instant) -> Self {
        self.faults.start_at(p, t);
        self
    }

    /// Schedules an external request to `p` at `t`.
    pub fn request_at(mut self, t: Instant, p: ProcessId, req: S::Request) -> Self {
        self.requests.push((t, p, req));
        self
    }

    /// Schedules a link-model change at `t` (dynamic network schedule).
    pub fn set_link_at(
        mut self,
        t: Instant,
        from: ProcessId,
        to: ProcessId,
        model: crate::LinkModel,
    ) -> Self {
        self.net_changes.push((t, NetChange::Link(from, to, model)));
        self
    }

    /// Schedules a full topology replacement at `t` (e.g. to heal a
    /// partition by restoring the original matrix).
    pub fn set_topology_at(mut self, t: Instant, topology: Topology) -> Self {
        self.net_changes
            .push((t, NetChange::Topo(Box::new(topology))));
        self
    }

    /// Schedules a partition at `t`: every link between `group` and its
    /// complement (both directions) goes [`crate::LinkModel::Dead`]. Heal it
    /// later with [`SimBuilder::set_topology_at`].
    pub fn partition_at(mut self, t: Instant, group: &[ProcessId]) -> Self {
        for a in 0..self.n as u32 {
            for b in 0..self.n as u32 {
                let (pa, pb) = (ProcessId(a), ProcessId(b));
                if a != b && group.contains(&pa) != group.contains(&pb) {
                    self.net_changes
                        .push((t, NetChange::Link(pa, pb, crate::LinkModel::Dead)));
                }
            }
        }
        self
    }

    /// Installs per-process Lamport clocks (one handle per process, in id
    /// order): every send ticks the sender's clock and carries the stamp;
    /// every delivery merges it into the receiver's clock *before* the
    /// handler runs, and lands in [`Simulator::causal_log`]. Hand in the
    /// clock handles from `lls_obs::NodeRecorders::clocks()` so probe
    /// events share the same causal positions. Off by default (stamps stay
    /// 0, no log).
    ///
    /// # Panics
    ///
    /// Panics at [`SimBuilder::build_with`] time if the clock count differs
    /// from `n`.
    pub fn trace_clocks(mut self, clocks: Vec<LamportClock>) -> Self {
        self.clocks = Some(clocks);
        self
    }

    /// Enables structured trace recording, keeping up to `capacity` records
    /// (see [`crate::Trace`]). Off by default.
    pub fn record_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Keeps every protocol output for [`Simulator::outputs`]. Off by
    /// default: the simulator then keeps no outputs (the trace's
    /// [`TraceKind::Output`] records are kept either way).
    pub fn record_outputs(mut self) -> Self {
        self.record_outputs = true;
        self
    }

    /// Sets the length of the statistics windows.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn stats_window(mut self, window: Duration) -> Self {
        assert!(window.ticks() > 0, "stats window must be positive");
        self.window = window;
        self
    }

    /// Installs a message classifier used for per-kind send counts.
    pub fn classify(mut self, f: fn(&S::Msg) -> &'static str) -> Self {
        self.classifier = f;
        self
    }

    /// Installs an output classifier: protocol outputs are recorded in the
    /// trace as [`TraceKind::Output`] under the label this returns
    /// (`"output"` if never set).
    pub fn classify_output(mut self, f: fn(&S::Output) -> &'static str) -> Self {
        self.output_classifier = f;
        self
    }

    /// Builds the simulator, constructing each process's state machine with
    /// `make` (called with that process's [`Env`], in id order).
    pub fn build_with(self, mut make: impl FnMut(&Env) -> S) -> Simulator<S> {
        let topology = self
            .topology
            .unwrap_or_else(|| Topology::all_timely(self.n, Duration::from_ticks(1)));
        assert_eq!(
            topology.n(),
            self.n,
            "topology size {} does not match n = {}",
            topology.n(),
            self.n
        );
        let mut queue = EventQueue::new();
        let mut nodes = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let p = ProcessId(i as u32);
            let env = Env::new(p, self.n);
            nodes.push(Node {
                env,
                sm: make(&env),
                alive: true,
                started: false,
                timer_gens: HashMap::new(),
            });
            queue.push(self.faults.start_time(p), EventKind::Start(p));
            if let Some(t) = self.faults.crash_time(p) {
                queue.push(t, EventKind::Crash(p));
            }
        }
        for (t, p, req) in self.requests {
            queue.push(t, EventKind::Request { p, req });
        }
        for (t, change) in self.net_changes {
            match change {
                NetChange::Link(from, to, model) => {
                    queue.push(t, EventKind::SetLink { from, to, model });
                }
                NetChange::Topo(topo) => {
                    assert_eq!(topo.n(), self.n, "scheduled topology has wrong size");
                    queue.push(t, EventKind::SetTopology(topo));
                }
            }
        }
        if let Some(clocks) = &self.clocks {
            assert_eq!(
                clocks.len(),
                self.n,
                "trace clock count {} does not match n = {}",
                clocks.len(),
                self.n
            );
        }
        Simulator {
            nodes,
            queue,
            topology,
            rng: StdRng::seed_from_u64(self.seed),
            now: Instant::ZERO,
            stats: Stats::new(self.n, self.window),
            outputs: self.record_outputs.then(Vec::new),
            classifier: self.classifier,
            output_classifier: self.output_classifier,
            fx: Effects::new(),
            trace: self.trace_capacity.map(Trace::new),
            clocks: self.clocks,
            causal_log: Vec::new(),
        }
    }
}

struct Node<S: Sm> {
    env: Env,
    sm: S,
    alive: bool,
    started: bool,
    timer_gens: HashMap<TimerId, u64>,
}

/// A deterministic discrete-event simulation of `n` state machines connected
/// by a [`Topology`] of modelled links.
pub struct Simulator<S: Sm> {
    nodes: Vec<Node<S>>,
    queue: EventQueue<S::Msg, S::Request>,
    topology: Topology,
    rng: StdRng,
    now: Instant,
    stats: Stats,
    /// `None` unless built with [`SimBuilder::record_outputs`].
    outputs: Option<Vec<OutputEvent<S::Output>>>,
    classifier: fn(&S::Msg) -> &'static str,
    output_classifier: fn(&S::Output) -> &'static str,
    fx: Effects<S::Msg, S::Output>,
    trace: Option<Trace>,
    clocks: Option<Vec<LamportClock>>,
    causal_log: Vec<CausalDelivery>,
}

impl<S: Sm> std::fmt::Debug for Simulator<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("n", &self.nodes.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<S: Sm> Simulator<S> {
    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to `p`'s state machine (for inspecting protocol state
    /// in tests and experiments).
    pub fn node(&self, p: ProcessId) -> &S {
        &self.nodes[p.as_usize()].sm
    }

    /// Returns `true` if `p` has not crashed.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.nodes[p.as_usize()].alive
    }

    /// The topology the run uses.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// All protocol outputs recorded so far, in emission order.
    ///
    /// # Panics
    ///
    /// Panics unless the simulator was built with
    /// [`SimBuilder::record_outputs`]: an empty list would let a checker
    /// over outputs pass on nothing.
    pub fn outputs(&self) -> &[OutputEvent<S::Output>] {
        self.outputs.as_deref().expect(
            "output history was not recorded: build the simulator with \
             `SimBuilder::record_outputs()` to read it",
        )
    }

    /// Run statistics. Windows are flushed up to the time of the last
    /// [`Simulator::run_until`] call.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The recorded trace, if [`SimBuilder::record_trace`] was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Every stamped delivery so far (empty unless
    /// [`SimBuilder::trace_clocks`] installed clocks): the send stamp and
    /// the receiver's merged clock, in delivery order.
    pub fn causal_log(&self) -> &[CausalDelivery] {
        &self.causal_log
    }

    /// The Lamport clock handle of `p`, when trace clocks are installed.
    pub fn clock(&self, p: ProcessId) -> Option<&LamportClock> {
        self.clocks.as_ref().map(|c| &c[p.as_usize()])
    }

    /// Crashes `p` immediately (crash-stop).
    pub fn crash_now(&mut self, p: ProcessId) {
        self.nodes[p.as_usize()].alive = false;
    }

    /// Kills `p` immediately, as a crash–*restart* fault: the process can
    /// later come back via [`Simulator::restart`]. All pending timers are
    /// invalidated (a rebooted process does not inherit its predecessor's
    /// alarms); messages in flight to `p` are dropped at delivery time, like
    /// any message to a dead process.
    pub fn kill(&mut self, p: ProcessId) {
        let node = &mut self.nodes[p.as_usize()];
        node.alive = false;
        // Invalidate every armed timer by bumping its generation.
        for gen in node.timer_gens.values_mut() {
            *gen += 1;
        }
        if let Some(tr) = &mut self.trace {
            tr.push(self.now, TraceKind::Crash(p));
        }
    }

    /// Restarts a killed `p` with a fresh state machine `sm` — typically one
    /// recovered from the same durable storage the pre-crash incarnation
    /// wrote (e.g. a replicated log built with `LogBuilder::storage`,
    /// which single-shot `Consensus::with_storage` wraps), which is what makes the
    /// crash–restart fault model interesting. Runs `on_start` immediately at
    /// the current virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `p` is still alive.
    pub fn restart(&mut self, p: ProcessId, sm: S) {
        let node = &mut self.nodes[p.as_usize()];
        assert!(!node.alive, "cannot restart {p}: it is alive");
        node.sm = sm;
        node.alive = true;
        node.started = true;
        if let Some(tr) = &mut self.trace {
            tr.push(self.now, TraceKind::Restart(p));
        }
        let node = &mut self.nodes[p.as_usize()];
        let mut ctx = Ctx::new(&node.env, self.now, &mut self.fx);
        node.sm.on_start(&mut ctx);
        self.drain(p);
    }

    /// Schedules an external request for `p` at `t` (must be ≥ now).
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn schedule_request(&mut self, t: Instant, p: ProcessId, req: S::Request) {
        assert!(t >= self.now, "cannot schedule a request in the past");
        self.queue.push(t, EventKind::Request { p, req });
    }

    /// Schedules a link-model change at `t ≥ now`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn schedule_link_change(
        &mut self,
        t: Instant,
        from: ProcessId,
        to: ProcessId,
        model: crate::LinkModel,
    ) {
        assert!(t >= self.now, "cannot schedule a link change in the past");
        self.queue.push(t, EventKind::SetLink { from, to, model });
    }

    /// Schedules a full topology replacement at `t ≥ now`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past or the topology size differs.
    pub fn schedule_topology_change(&mut self, t: Instant, topology: Topology) {
        assert!(
            t >= self.now,
            "cannot schedule a topology change in the past"
        );
        assert_eq!(topology.n(), self.nodes.len(), "topology size change");
        self.queue
            .push(t, EventKind::SetTopology(Box::new(topology)));
    }

    /// Partitions the network immediately: all links crossing the boundary
    /// between `group` and its complement become [`crate::LinkModel::Dead`].
    /// Messages already in flight still arrive (they left before the cut).
    pub fn partition_now(&mut self, group: &[ProcessId]) {
        let n = self.nodes.len() as u32;
        for a in 0..n {
            for b in 0..n {
                let (pa, pb) = (ProcessId(a), ProcessId(b));
                if a != b && group.contains(&pa) != group.contains(&pb) {
                    self.topology.set_link(pa, pb, crate::LinkModel::Dead);
                }
            }
        }
    }

    /// Processes events until the queue is empty or the next event is after
    /// `deadline`; then advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: Instant) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if deadline > self.now {
            self.now = deadline;
        }
        self.stats.finish(self.now);
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "event queue went backwards");
        self.now = ev.at;
        match ev.kind {
            EventKind::Start(p) => {
                let node = &mut self.nodes[p.as_usize()];
                if node.alive && !node.started {
                    node.started = true;
                    if let Some(tr) = &mut self.trace {
                        tr.push(self.now, TraceKind::Start(p));
                    }
                    let mut ctx = Ctx::new(&node.env, self.now, &mut self.fx);
                    node.sm.on_start(&mut ctx);
                    self.drain(p);
                }
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                stamp,
            } => {
                let node = &mut self.nodes[to.as_usize()];
                if node.alive && node.started {
                    self.stats.record_delivery(to);
                    if let Some(tr) = &mut self.trace {
                        tr.push(self.now, TraceKind::Deliver { from, to });
                    }
                    // Merge the sender's stamp *before* the handler runs,
                    // so every probe event it emits is causally after the
                    // send.
                    if let Some(clocks) = &self.clocks {
                        let merged = clocks[to.as_usize()].observe(stamp);
                        self.causal_log.push(CausalDelivery {
                            from,
                            to,
                            stamp,
                            merged,
                        });
                    }
                    let node = &mut self.nodes[to.as_usize()];
                    let mut ctx = Ctx::new(&node.env, self.now, &mut self.fx);
                    node.sm.on_message(&mut ctx, from, msg);
                    self.drain(to);
                } else {
                    self.stats.record_dead_drop(to);
                    if let Some(tr) = &mut self.trace {
                        tr.push(self.now, TraceKind::DeadDrop { to });
                    }
                }
            }
            EventKind::Timer { p, timer, gen } => {
                let node = &mut self.nodes[p.as_usize()];
                let current = node.timer_gens.get(&timer).copied().unwrap_or(0);
                if node.alive && node.started && gen == current {
                    if let Some(tr) = &mut self.trace {
                        tr.push(self.now, TraceKind::TimerFire { p, timer });
                    }
                    let mut ctx = Ctx::new(&node.env, self.now, &mut self.fx);
                    node.sm.on_timer(&mut ctx, timer);
                    self.drain(p);
                }
            }
            EventKind::Crash(p) => {
                self.nodes[p.as_usize()].alive = false;
                if let Some(tr) = &mut self.trace {
                    tr.push(self.now, TraceKind::Crash(p));
                }
            }
            EventKind::Request { p, req } => {
                let node = &mut self.nodes[p.as_usize()];
                if node.alive && node.started {
                    let mut ctx = Ctx::new(&node.env, self.now, &mut self.fx);
                    node.sm.on_request(&mut ctx, req);
                    self.drain(p);
                }
            }
            EventKind::SetLink { from, to, model } => {
                self.topology.set_link(from, to, model);
                if let Some(tr) = &mut self.trace {
                    tr.push(self.now, TraceKind::NetChange);
                }
            }
            EventKind::SetTopology(topo) => {
                assert_eq!(topo.n(), self.nodes.len(), "topology size change");
                self.topology = *topo;
                if let Some(tr) = &mut self.trace {
                    tr.push(self.now, TraceKind::NetChange);
                }
            }
        }
        true
    }

    /// Applies the effects buffered by the last state-machine step of `p`.
    fn drain(&mut self, p: ProcessId) {
        let fx = self.fx.take();
        for Send { to, msg } in fx.sends {
            let kind = (self.classifier)(&msg);
            self.stats.record_send(p, self.now, kind);
            if let Some(tr) = &mut self.trace {
                tr.push(
                    self.now,
                    TraceKind::Send {
                        from: p,
                        to,
                        msg_kind: kind,
                    },
                );
            }
            // Tick the sender's clock per send attempt: the stamp exists
            // even when the link then drops the message (Lamport clocks
            // count events, not successful deliveries).
            let stamp = self
                .clocks
                .as_ref()
                .map_or(0, |clocks| clocks[p.as_usize()].tick());
            match self.topology.link(p, to).route(self.now, &mut self.rng) {
                LinkFate::DeliverAt(at) => {
                    self.queue.push(
                        at,
                        EventKind::Deliver {
                            from: p,
                            to,
                            msg,
                            stamp,
                        },
                    );
                }
                LinkFate::Drop => {
                    self.stats.record_link_drop(p);
                    if let Some(tr) = &mut self.trace {
                        tr.push(self.now, TraceKind::LinkDrop { from: p, to });
                    }
                }
            }
        }
        for cmd in fx.timers {
            let node = &mut self.nodes[p.as_usize()];
            match cmd {
                TimerCmd::Set { timer, after } => {
                    let gen = node.timer_gens.entry(timer).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    self.queue
                        .push(self.now + after, EventKind::Timer { p, timer, gen });
                }
                TimerCmd::Cancel { timer } => {
                    *node.timer_gens.entry(timer).or_insert(0) += 1;
                }
            }
        }
        for output in fx.outputs {
            if let Some(tr) = &mut self.trace {
                tr.push(
                    self.now,
                    TraceKind::Output {
                        p,
                        label: (self.output_classifier)(&output),
                    },
                );
            }
            if let Some(outputs) = &mut self.outputs {
                outputs.push(OutputEvent {
                    at: self.now,
                    process: p,
                    output,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::Ctx;

    /// Test machine: broadcasts a counter every `PERIOD`, records received
    /// values as outputs.
    #[derive(Debug)]
    struct Beacon {
        count: u64,
    }

    const TICK: TimerId = TimerId(0);
    const PERIOD: Duration = Duration::from_ticks(10);

    impl Sm for Beacon {
        type Msg = u64;
        type Output = u64;
        type Request = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64, u64>) {
            ctx.set_timer(TICK, PERIOD);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64, u64>, _from: ProcessId, msg: u64) {
            ctx.output(msg);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64, u64>, timer: TimerId) {
            assert_eq!(timer, TICK);
            self.count += 1;
            ctx.broadcast(self.count);
            ctx.set_timer(TICK, PERIOD);
        }

        fn on_request(&mut self, ctx: &mut Ctx<'_, u64, u64>, req: u64) {
            ctx.output(req + 1000);
        }
    }

    fn beacon_sim(n: usize) -> SimBuilder<Beacon> {
        SimBuilder::new(n)
    }

    #[test]
    fn timers_fire_periodically() {
        let mut sim = beacon_sim(2).build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(100));
        // Each node ticks at t=10..=100 (10 times); beacons reach the peer
        // one tick later, so the t=100 beacon is still in flight.
        assert_eq!(sim.node(ProcessId(0)).count, 10);
        assert_eq!(sim.stats().sent_by(ProcessId(0)), 10);
        assert_eq!(sim.stats().delivered_to(ProcessId(1)), 9);
    }

    #[test]
    fn trace_clocks_stamp_every_delivery() {
        let clocks: Vec<LamportClock> = (0..2).map(LamportClock::new).collect();
        let mut sim = beacon_sim(2)
            .trace_clocks(clocks.clone())
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(100));
        let log = sim.causal_log();
        assert!(!log.is_empty(), "stamped deliveries were recorded");
        for d in log {
            assert!(
                d.merged > d.stamp,
                "receive clock {} not after send clock {} ({} -> {})",
                d.merged,
                d.stamp,
                d.from,
                d.to
            );
        }
        // Stamps from one sender are strictly monotone (its clock only
        // moves forward).
        for p in [ProcessId(0), ProcessId(1)] {
            let stamps: Vec<u64> = log
                .iter()
                .filter(|d| d.from == p)
                .map(|d| d.stamp)
                .collect();
            assert!(stamps.windows(2).all(|w| w[1] > w[0]), "{p}: {stamps:?}");
            assert!(clocks[p.as_usize()].now() > 0);
        }
        // Without clocks the log stays empty and stamps stay 0.
        let mut plain = beacon_sim(2).build_with(|_| Beacon { count: 0 });
        plain.run_until(Instant::from_ticks(50));
        assert!(plain.causal_log().is_empty());
        assert!(plain.clock(ProcessId(0)).is_none());
    }

    #[test]
    fn crash_stops_all_activity() {
        let mut sim = beacon_sim(2)
            .crash_at(ProcessId(0), Instant::from_ticks(35))
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(200));
        // p0 ticked at 10,20,30 then crashed.
        assert_eq!(sim.stats().sent_by(ProcessId(0)), 3);
        assert!(!sim.is_alive(ProcessId(0)));
        // Messages to the dead p0 are dropped at delivery.
        assert!(sim.stats().dead_drops_to(ProcessId(0)) > 0);
    }

    #[test]
    fn staggered_start_delays_first_tick() {
        let mut sim = beacon_sim(2)
            .start_at(ProcessId(1), Instant::from_ticks(50))
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(100));
        assert_eq!(sim.node(ProcessId(1)).count, 5); // ticks at 60..=100
    }

    #[test]
    fn requests_are_delivered_to_live_started_nodes() {
        let mut sim = beacon_sim(2)
            .record_outputs()
            .request_at(Instant::from_ticks(5), ProcessId(0), 7)
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(20));
        assert!(sim
            .outputs()
            .iter()
            .any(|e| e.process == ProcessId(0) && e.output == 1007));
    }

    #[test]
    fn same_seed_same_trace_different_seed_differs() {
        let run = |seed: u64| {
            let mut sim = SimBuilder::<Beacon>::new(3)
                .seed(seed)
                .record_outputs()
                .topology(crate::Topology::fair_lossy_mesh(3, 0.5, 3))
                .build_with(|_| Beacon { count: 0 });
            sim.run_until(Instant::from_ticks(500));
            let outs: Vec<(u64, u32, u64)> = sim
                .outputs()
                .iter()
                .map(|e| (e.at.ticks(), e.process.0, e.output))
                .collect();
            (outs, sim.stats().total_sent())
        };
        let (a1, s1) = run(7);
        let (a2, s2) = run(7);
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        let (b1, _) = run(8);
        assert_ne!(a1, b1, "different seeds produced identical lossy traces");
    }

    #[test]
    fn timer_reset_semantics_discard_old_deadline() {
        /// Machine: arms timer at 10, re-arms at 5 on first message; expiry
        /// outputs 1.
        #[derive(Debug)]
        struct Rearm;
        impl Sm for Rearm {
            type Msg = ();
            type Output = u64;
            type Request = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), u64>) {
                if ctx.id() == ProcessId(0) {
                    ctx.set_timer(TICK, Duration::from_ticks(10));
                } else {
                    ctx.send(ProcessId(0), ());
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, (), u64>, _f: ProcessId, _m: ()) {
                ctx.set_timer(TICK, Duration::from_ticks(50));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, (), u64>, _t: TimerId) {
                ctx.output(1);
            }
        }
        let mut sim = SimBuilder::<Rearm>::new(2)
            .record_outputs()
            .build_with(|_| Rearm);
        sim.run_until(Instant::from_ticks(30));
        // Message at t=1 re-armed the timer to t=51: no expiry by t=30.
        assert!(sim.outputs().is_empty());
        sim.run_until(Instant::from_ticks(60));
        let fires: Vec<_> = sim.outputs().iter().map(|e| e.at.ticks()).collect();
        assert_eq!(fires, vec![51]);
    }

    #[test]
    fn messages_to_unstarted_nodes_are_dropped() {
        let mut sim = beacon_sim(2)
            .start_at(ProcessId(1), Instant::from_ticks(1000))
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(100));
        assert_eq!(sim.stats().delivered_to(ProcessId(1)), 0);
        assert!(sim.stats().dead_drops_to(ProcessId(1)) > 0);
    }

    #[test]
    fn scheduled_partition_cuts_traffic_and_heal_restores_it() {
        let topo = crate::Topology::all_timely(2, Duration::from_ticks(1));
        let mut sim = SimBuilder::<Beacon>::new(2)
            .topology(topo.clone())
            .partition_at(Instant::from_ticks(50), &[ProcessId(0)])
            .set_topology_at(Instant::from_ticks(150), topo)
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(50));
        let delivered_before = sim.stats().delivered_to(ProcessId(1));
        assert!(delivered_before > 0);
        sim.run_until(Instant::from_ticks(150));
        // During the partition, nothing crosses (in-flight messages from
        // t<=50 may still land at t=51).
        let during = sim.stats().delivered_to(ProcessId(1)) - delivered_before;
        assert!(during <= 1, "partition leaked {during} messages");
        assert!(sim.stats().link_drops_from(ProcessId(0)) > 0);
        sim.run_until(Instant::from_ticks(300));
        assert!(
            sim.stats().delivered_to(ProcessId(1)) > delivered_before + 5,
            "heal did not restore traffic"
        );
    }

    #[test]
    fn runtime_link_change_takes_effect() {
        let mut sim = SimBuilder::<Beacon>::new(2).build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(30));
        sim.schedule_link_change(
            Instant::from_ticks(31),
            ProcessId(0),
            ProcessId(1),
            crate::LinkModel::Dead,
        );
        sim.run_until(Instant::from_ticks(100));
        // p0's beacons stop arriving, p1's keep flowing.
        assert!(sim.stats().link_drops_from(ProcessId(0)) > 0);
        assert_eq!(sim.stats().link_drops_from(ProcessId(1)), 0);
    }

    #[test]
    fn partition_now_is_immediate() {
        let mut sim = SimBuilder::<Beacon>::new(3).build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(20));
        sim.partition_now(&[ProcessId(0)]);
        let before = sim.stats().delivered_to(ProcessId(0));
        sim.run_until(Instant::from_ticks(200));
        // Only in-flight messages may still land.
        assert!(sim.stats().delivered_to(ProcessId(0)) <= before + 2);
    }

    #[test]
    fn trace_recording_captures_the_run() {
        let mut sim = beacon_sim(2)
            .record_trace(1_000)
            .crash_at(ProcessId(1), Instant::from_ticks(25))
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(60));
        let trace = sim.trace().expect("recording enabled");
        let kinds: Vec<&str> = trace
            .records()
            .iter()
            .map(|r| match r.kind {
                crate::TraceKind::Start(_) => "start",
                crate::TraceKind::Crash(_) => "crash",
                crate::TraceKind::Send { .. } => "send",
                crate::TraceKind::Deliver { .. } => "deliver",
                crate::TraceKind::DeadDrop { .. } => "deaddrop",
                crate::TraceKind::TimerFire { .. } => "timer",
                _ => "other",
            })
            .collect();
        for expected in ["start", "crash", "send", "deliver", "deaddrop", "timer"] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
        // Disabled by default.
        let mut quiet = beacon_sim(2).build_with(|_| Beacon { count: 0 });
        quiet.run_until(Instant::from_ticks(10));
        assert!(quiet.trace().is_none());
    }

    #[test]
    fn a_run_without_recording_keeps_no_outputs() {
        let mut sim = beacon_sim(2)
            .record_trace(1_000)
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(100));
        let emitted = sim
            .trace()
            .expect("recording enabled")
            .records()
            .iter()
            .filter(|r| matches!(r.kind, crate::TraceKind::Output { .. }))
            .count();
        assert!(emitted >= 10, "the beacons emitted {emitted} outputs");
        assert_eq!(sim.outputs.as_ref().map(Vec::len), None);
    }

    #[test]
    #[should_panic(expected = "SimBuilder::record_outputs()")]
    fn reading_unrecorded_outputs_panics() {
        let mut sim = beacon_sim(2).build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(100));
        let _ = sim.outputs();
    }

    #[test]
    fn kill_then_restart_resumes_with_fresh_state_and_no_stale_timers() {
        let mut sim = beacon_sim(2).build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(35));
        assert_eq!(sim.node(ProcessId(0)).count, 3);
        sim.kill(ProcessId(0));
        assert!(!sim.is_alive(ProcessId(0)));
        sim.run_until(Instant::from_ticks(100));
        // Dead: no further ticks.
        assert_eq!(sim.stats().sent_by(ProcessId(0)), 3);
        sim.restart(ProcessId(0), Beacon { count: 0 });
        assert!(sim.is_alive(ProcessId(0)));
        sim.run_until(Instant::from_ticks(165));
        // Restarted at t=100 with a fresh machine: ticks at 110..=160.
        assert_eq!(sim.node(ProcessId(0)).count, 6);
        assert_eq!(sim.stats().sent_by(ProcessId(0)), 9);
    }

    #[test]
    fn classifier_buckets_sends() {
        let mut sim = beacon_sim(2)
            .classify(|m| if *m % 2 == 0 { "even" } else { "odd" })
            .build_with(|_| Beacon { count: 0 });
        sim.run_until(Instant::from_ticks(40));
        let k = sim.stats().kind_counts();
        assert_eq!(k["odd"], 4); // counts 1 and 3 from each of 2 nodes
        assert_eq!(k["even"], 4); // counts 2 and 4
    }
}
