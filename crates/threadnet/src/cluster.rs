//! Cluster lifecycle: spawn, drive, kill, restart, stop, report.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::{self, Control, NodeLog, NodeSpec, RunReport};
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

/// Everything a finished run reports: the shared [`RunReport`] (outputs,
/// send counts, `senders_since`), which it dereferences to, plus the lossy
/// mesh's drops.
#[derive(Debug, Clone)]
pub struct Report<O> {
    run: RunReport<O>,
    /// Messages dropped by the lossy mesh, per sender.
    pub dropped: Vec<u64>,
}

impl<O> std::ops::Deref for Report<O> {
    type Target = RunReport<O>;

    fn deref(&self) -> &RunReport<O> {
        &self.run
    }
}

impl<O> Report<O> {
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
        // Thread clusters run short tests and experiments, which read the
        // output history, so every process keeps all of it.
        let logs: Vec<Arc<NodeLog<S::Output>>> =
            (0..n).map(|_| Arc::new(NodeLog::new(true))).collect();
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
}

impl<S: Sm + Send + 'static> runtime::Cluster for Cluster<S> {
    type Sm = S;
    type Report = Report<S::Output>;

    fn logs(&self) -> &[Arc<NodeLog<S::Output>>] {
        &self.logs
    }

    fn epoch(&self) -> StdInstant {
        self.start
    }

    fn tick(&self) -> StdDuration {
        self.tick
    }

    fn request(&self, p: ProcessId, req: S::Request) {
        let _ = self.inboxes[p.as_usize()].send(Control::Request(req));
    }

    /// Queues the kill in `p`'s inbox: the driver disarms every timer and
    /// drops each later stimulus until a restart.
    fn kill(&mut self, p: ProcessId) {
        let _ = self.inboxes[p.as_usize()].send(Control::Kill);
    }

    /// Queues the fresh machine in `p`'s inbox; the driver runs its
    /// `on_start` on the node thread, or drops it if `p` is alive.
    fn restart(&mut self, p: ProcessId, sm: S) {
        let _ = self.inboxes[p.as_usize()].send(Control::Restart(Box::new(sm)));
    }

    fn stop(mut self) -> Report<S::Output> {
        for inbox in &self.inboxes {
            let _ = inbox.send(Control::Stop);
        }
        for h in std::mem::take(&mut self.handles) {
            let _ = h.join();
        }
        let run = RunReport::collect(&self.logs);
        // The router exits once every node thread, and with it every sender
        // into the router, is gone.
        let dropped = self
            .router
            .join()
            .unwrap_or_else(|_| vec![0; run.sent.len()]);
        Report { run, dropped }
    }
}
