//! Cluster lifecycle: spawn, drive, kill, restart, stop, report.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::{self, Control, NodeLog, NodeSpec, TimedOutput};
use lls_primitives::{Env, LamportClock, ProcessId, Sm};

use crate::router::{run_router, Envelope};

/// Configuration of a thread cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Number of processes (threads).
    pub n: usize,
    /// Per-message loss probability in `[0, 1)`.
    pub loss: f64,
    /// Minimum network delay.
    pub min_delay: StdDuration,
    /// Maximum network delay.
    pub max_delay: StdDuration,
    /// Wall-clock length of one virtual tick (scales η and timeouts).
    pub tick: StdDuration,
    /// RNG seed for loss/delay sampling.
    pub seed: u64,
}

impl Default for NetConfig {
    /// 3 processes, 10 % loss, 0.2–1 ms delay, 200 µs ticks.
    fn default() -> Self {
        NetConfig {
            n: 3,
            loss: 0.1,
            min_delay: StdDuration::from_micros(200),
            max_delay: StdDuration::from_millis(1),
            tick: StdDuration::from_micros(200),
            seed: 0,
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct Report<O> {
    /// All outputs, ordered by emission time.
    pub outputs: Vec<TimedOutput<O>>,
    /// Messages sent per process (counted when the state machine emits
    /// them, before the lossy mesh sees them).
    pub sent: Vec<u64>,
    /// Messages dropped by the lossy mesh, per sender.
    pub dropped: Vec<u64>,
    /// Wall-clock offset of each process's last send.
    pub last_send: Vec<Option<StdDuration>>,
}

impl<O> Report<O> {
    /// The last output `p` emitted, if any.
    pub fn final_output_of(&self, p: ProcessId) -> Option<&O> {
        self.outputs
            .iter()
            .rev()
            .find(|t| t.process == p)
            .map(|t| &t.output)
    }

    /// Processes whose last send happened at or after `since` (from cluster
    /// start) — the communication-efficiency oracle, as in `netsim`.
    pub fn senders_since(&self, since: StdDuration) -> Vec<ProcessId> {
        self.last_send
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_some_and(|t| t >= since))
            .map(|(i, _)| ProcessId(i as u32))
            .collect()
    }

    /// Exports the run's traffic accounting into an observability
    /// [`Registry`](lls_obs::Registry): per-process
    /// `threadnet_sent_total_p{i}` plus an aggregate drop counter.
    ///
    /// Counters are monotone: export once per run (or into a fresh
    /// registry).
    pub fn export(&self, registry: &lls_obs::Registry) {
        for (i, sent) in self.sent.iter().enumerate() {
            registry
                .counter(&format!("threadnet_sent_total_p{i}"))
                .add(*sent);
        }
        registry
            .counter("threadnet_dropped_total")
            .add(self.dropped.iter().sum());
    }
}

/// A running cluster of `n` state-machine threads joined by a lossy mesh.
///
/// See the [crate example](crate).
pub struct Cluster<S: Sm> {
    inboxes: Vec<Sender<Control<S>>>,
    logs: Vec<Arc<NodeLog<S::Output>>>,
    handles: Vec<JoinHandle<()>>,
    router: JoinHandle<Vec<u64>>,
    start: StdInstant,
    tick: StdDuration,
}

impl<S: Sm> std::fmt::Debug for Cluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.inboxes.len())
            .finish_non_exhaustive()
    }
}

impl<S: Sm + Send + 'static> Cluster<S> {
    /// Spawns `config.n` threads, each running a state machine produced by
    /// `make`, plus the router thread.
    ///
    /// # Panics
    ///
    /// Panics if `config.n < 2`, `config.tick` is zero, or
    /// `config.min_delay > config.max_delay`.
    pub fn spawn(config: NetConfig, make: impl FnMut(&Env) -> S) -> Self {
        let clocks = (0..config.n).map(|i| LamportClock::new(i as u64)).collect();
        Self::spawn_traced(config, clocks, make)
    }

    /// Like [`Cluster::spawn`], but with caller-supplied Lamport clocks —
    /// one per process, typically the handles from
    /// [`lls_obs::NodeRecorders::clocks`] so that recorded probe events and
    /// message stamps share one causal timeline. Each send ticks the
    /// sender's clock (even when the lossy mesh then drops the message —
    /// clocks count events, not deliveries) and the router merges the
    /// carried stamp into the receiver's clock *before* queueing the
    /// delivery, so the handler runs causally after the send.
    ///
    /// # Panics
    ///
    /// Panics like [`Cluster::spawn`], and additionally if
    /// `clocks.len() != config.n`.
    pub fn spawn_traced(
        config: NetConfig,
        clocks: Vec<LamportClock>,
        mut make: impl FnMut(&Env) -> S,
    ) -> Self {
        assert!(config.n >= 2, "the model requires n > 1 processes");
        assert_eq!(clocks.len(), config.n, "one clock per process");
        assert!(!config.tick.is_zero(), "tick must be positive");
        assert!(
            config.min_delay <= config.max_delay,
            "min_delay must not exceed max_delay"
        );
        let n = config.n;
        let start = StdInstant::now();
        let (router_tx, router_rx) = channel::<Envelope<S::Msg>>();
        let (inboxes, inbox_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let logs: Vec<Arc<NodeLog<S::Output>>> = (0..n).map(|_| Arc::default()).collect();
        let router = std::thread::spawn({
            let inboxes = inboxes.clone();
            let clocks = clocks.clone();
            move || {
                run_router(router_rx, config, |env| {
                    let to = env.to.as_usize();
                    clocks[to].observe(env.stamp);
                    // A stopped destination is a lossy link, not an error.
                    let _ = inboxes[to].send(Control::Deliver {
                        from: env.from,
                        msg: env.msg,
                    });
                })
            }
        });
        let handles = inbox_rxs
            .into_iter()
            .zip(clocks)
            .enumerate()
            .map(|(i, (inbox, clock))| {
                let env = Env::new(ProcessId(i as u32), n);
                let sm = make(&env);
                let spec = NodeSpec {
                    env,
                    epoch: start,
                    tick: config.tick,
                    clock,
                    log: Arc::clone(&logs[i]),
                };
                let router = router_tx.clone();
                std::thread::spawn(move || {
                    runtime::run(spec, sm, inbox, |to, msg, envelope| {
                        let _ = router.send(Envelope {
                            from: env.id(),
                            to,
                            msg,
                            stamp: envelope.lamport,
                        });
                    });
                })
            })
            .collect();
        Cluster {
            inboxes,
            logs,
            handles,
            router,
            start,
            tick: config.tick,
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.inboxes.len()
    }

    /// The wall-clock instant every node's virtual clock counts ticks from.
    /// An external client (e.g. a latency harness's submit queue) maps its
    /// own timestamps into the same tick domain with
    /// `(now - epoch) / tick`, so client- and replica-side probe events
    /// share one timeline.
    pub fn epoch(&self) -> StdInstant {
        self.start
    }

    /// The configured tick length — the granularity of every node's
    /// virtual clock.
    pub fn tick(&self) -> StdDuration {
        self.tick
    }

    /// Kills `p` as a crash fault: the process stops reacting (all timers
    /// disarmed, all traffic to it discarded) until [`Cluster::restart`]
    /// brings it back; without a restart this is crash-stop.
    pub fn kill(&self, p: ProcessId) {
        let _ = self.inboxes[p.as_usize()].send(Control::Kill);
    }

    /// Restarts a killed `p` with a fresh state machine `sm` — typically one
    /// recovered from the same durable storage the pre-crash incarnation
    /// wrote (e.g. `Consensus::with_storage`). The machine's `on_start` runs
    /// on the node thread; if `p` was never killed, the restart request is
    /// ignored.
    pub fn restart(&self, p: ProcessId, sm: S) {
        let _ = self.inboxes[p.as_usize()].send(Control::Restart(Box::new(sm)));
    }

    /// Delivers an external request to `p`.
    pub fn request(&self, p: ProcessId, req: S::Request) {
        let _ = self.inboxes[p.as_usize()].send(Control::Request(req));
    }

    /// A live snapshot of `(sent, last_send)` per process.
    pub fn traffic_snapshot(&self) -> (Vec<u64>, Vec<Option<StdDuration>>) {
        runtime::traffic_snapshot(&self.logs)
    }

    /// A clone of every output emitted so far, ordered by emission time.
    /// Unlike [`Cluster::latest_outputs`] this lets callers await an event
    /// that may be followed by later outputs (e.g. a commit followed by a
    /// leader-change notification).
    pub fn outputs_so_far(&self) -> Vec<TimedOutput<S::Output>> {
        runtime::merged_outputs(&self.logs)
    }

    /// Each process's most recent output so far, if any (mirrors
    /// `wirenet::WireCluster::latest_outputs`).
    pub fn latest_outputs(&self) -> Vec<Option<S::Output>> {
        self.logs.iter().map(|log| log.latest()).collect()
    }

    /// Stops every thread, joins them, and returns the run report.
    pub fn stop(mut self) -> Report<S::Output> {
        for inbox in &self.inboxes {
            let _ = inbox.send(Control::Stop);
        }
        for h in std::mem::take(&mut self.handles) {
            let _ = h.join();
        }
        let (sent, last_send) = self.traffic_snapshot();
        let outputs = self.outputs_so_far();
        // The router exits once every node thread, and with it every sender
        // into the router, is gone.
        let dropped = self.router.join().unwrap_or_else(|_| vec![0; sent.len()]);
        Report {
            outputs,
            sent,
            dropped,
            last_send,
        }
    }
}
