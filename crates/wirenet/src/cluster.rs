//! Cluster lifecycle over real sockets: bind, spawn, drive, sever, stop,
//! report. [`WireCluster`] implements the substrate-generic
//! [`runtime::Cluster`] trait, which wall-clock experiments and tests are
//! written against; what only sockets have (link counters, sever, listen
//! addresses) stays inherent.

use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::{self, NodeLog, NodeSpec, RunReport};
use lls_primitives::wire::Wire;
use lls_primitives::{Env, LamportClock, ProcessId, Sm};

use crate::counters::{LinkCounters, LinkStats};
use crate::link::BackoffConfig;
use crate::node::{Counters, FaultConfig, NodeError, WireNode};

/// Configuration of a TCP cluster on localhost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireConfig {
    /// Number of processes (nodes, each with its own listener and threads).
    pub n: usize,
    /// Wall-clock length of one virtual tick (scales η and timeouts).
    pub tick: StdDuration,
    /// Capacity of each bounded outbound queue (drop-oldest on overflow).
    pub queue_capacity: usize,
    /// Reconnect backoff policy.
    pub backoff: BackoffConfig,
    /// Optional socket-layer loss/delay injection.
    pub faults: Option<FaultConfig>,
    /// Keep every output for [`runtime::Cluster::outputs_since`] and
    /// [`RunReport::outputs`]. Off by default: each process then keeps
    /// only its latest output.
    pub record_outputs: bool,
}

impl Default for WireConfig {
    /// 3 processes, 200 µs ticks, queues of 1024, default backoff, no
    /// injected faults, no output history.
    fn default() -> Self {
        WireConfig {
            n: 3,
            tick: StdDuration::from_micros(200),
            queue_capacity: 1024,
            backoff: BackoffConfig::default(),
            faults: None,
            record_outputs: false,
        }
    }
}

/// Everything a finished run reports: the shared [`RunReport`] (outputs,
/// send counts, `senders_since`), which it dereferences to, plus the
/// per-link socket counters and the plumbing failures.
#[derive(Debug, Clone)]
pub struct ClusterReport<O> {
    run: RunReport<O>,
    /// Socket counters: `links[p][q]` is node `p`'s view of its link to
    /// `q` (bytes/messages both ways, reconnects, drops, decode errors).
    pub links: Vec<Vec<LinkStats>>,
    /// Typed plumbing failures collected over the run — thread panics
    /// discovered at join time, listener failures during restarts.
    pub errors: Vec<NodeError>,
}

impl<O> std::ops::Deref for ClusterReport<O> {
    type Target = RunReport<O>;

    fn deref(&self) -> &RunReport<O> {
        &self.run
    }
}

impl<O> ClusterReport<O> {
    /// All of node `p`'s link counters merged into one total.
    pub fn node_links_total(&self, p: ProcessId) -> LinkStats {
        self.links[p.as_usize()]
            .iter()
            .fold(LinkStats::default(), |acc, s| acc.merge(*s))
    }

    /// Sum of every node's reconnect counters.
    pub fn total_reconnects(&self) -> u64 {
        self.links.iter().flatten().map(|s| s.reconnects).sum()
    }

    /// Sum of every node's decode-error counters.
    pub fn total_decode_errors(&self) -> u64 {
        self.links.iter().flatten().map(|s| s.decode_errors).sum()
    }

    /// Exports the run's socket accounting into an observability
    /// [`Registry`](lls_obs::Registry): per-process protocol-level
    /// `wirenet_sent_total_p{i}`, per-process merged link totals
    /// (`wirenet_link_msgs_sent_total_p{i}`, `…_bytes_sent_…`), and
    /// aggregate reconnect / drop / decode-error counters.
    ///
    /// Counters are monotone: export once per run (or into a fresh
    /// registry).
    pub fn export(&self, registry: &lls_obs::Registry) {
        for (i, sent) in self.sent.iter().enumerate() {
            registry
                .counter(&format!("wirenet_sent_total_p{i}"))
                .add(*sent);
        }
        for i in 0..self.links.len() {
            let total = self.node_links_total(ProcessId(i as u32));
            registry
                .counter(&format!("wirenet_link_msgs_sent_total_p{i}"))
                .add(total.msgs_sent);
            registry
                .counter(&format!("wirenet_link_bytes_sent_total_p{i}"))
                .add(total.bytes_sent);
        }
        registry
            .counter("wirenet_reconnects_total")
            .add(self.total_reconnects());
        registry
            .counter("wirenet_decode_errors_total")
            .add(self.total_decode_errors());
        registry.counter("wirenet_queue_drops_total").add(
            self.links
                .iter()
                .flatten()
                .map(|s| s.queue_drops + s.injected_drops)
                .sum(),
        );
    }
}

/// A running cluster of `n` nodes joined by real TCP connections over
/// localhost. Each node is a listener, its reader and link threads, and a
/// protocol thread running the shared [`runtime`](lls_primitives::runtime)
/// driver. A message's handler runs on the reader thread that read it;
/// requests ([`WireCluster::request`]), timers and kill/restart/stop run on
/// the protocol thread, so a caller never runs protocol code.
///
/// See the [crate example](crate).
pub struct WireCluster<S: Sm> {
    /// `None` marks a killed process (its slot can be revived by
    /// [`WireCluster::restart`]).
    nodes: Vec<Option<WireNode<S>>>,
    /// The fixed listen address of every process — a restarted process
    /// re-binds its original address so peers' redial loops find it.
    addrs: Vec<SocketAddr>,
    /// One Lamport clock per process, surviving kill/restart so a revived
    /// incarnation continues the same causal timeline.
    clocks: Vec<LamportClock>,
    /// Latest outputs (and history, when recorded) and protocol-level send
    /// counts per process, written by every incarnation, so killed ones
    /// stay in snapshots and the report.
    logs: Vec<Arc<NodeLog<S::Output>>>,
    /// Socket counters per process, shared by its incarnations likewise.
    links: Vec<Counters>,
    config: WireConfig,
    start: StdInstant,
    errors: Vec<NodeError>,
}

impl<S: Sm> std::fmt::Debug for WireCluster<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireCluster")
            .field("addrs", &self.addrs)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<S> WireCluster<S>
where
    S: Sm + std::marker::Send + 'static,
    S::Msg: Wire,
{
    /// Binds `config.n` listeners on `127.0.0.1` (OS-assigned ports), then
    /// spawns one node per process, each running a state machine produced
    /// by `make`.
    ///
    /// # Panics
    ///
    /// Panics if `config.n < 2`, a listener cannot be bound, or
    /// `config.tick` is zero. Use [`WireCluster::try_spawn`] to handle
    /// socket failures as errors.
    pub fn spawn(config: WireConfig, make: impl FnMut(&Env) -> S) -> Self {
        Self::try_spawn(config, make).expect("bind 127.0.0.1 listeners")
    }

    /// Like [`spawn`](WireCluster::spawn), but socket failures become typed
    /// [`NodeError`]s instead of panics.
    ///
    /// # Errors
    ///
    /// Fails if a listener cannot be bound or configured.
    ///
    /// # Panics
    ///
    /// Panics if `config.n < 2` or `config.tick` is zero (configuration
    /// bugs, not runtime conditions).
    pub fn try_spawn(config: WireConfig, make: impl FnMut(&Env) -> S) -> Result<Self, NodeError> {
        let clocks = (0..config.n).map(|i| LamportClock::new(i as u64)).collect();
        Self::try_spawn_traced(config, clocks, make)
    }

    /// Like [`try_spawn`](WireCluster::try_spawn), but with caller-supplied
    /// Lamport clocks — one per process, typically the handles from
    /// [`lls_obs::NodeRecorders::clocks`] so message stamps and recorded
    /// probe events share one causal timeline. Each node stamps the clock
    /// into every outbound frame (version-2 trace envelope) and merges the
    /// envelope of every inbound frame; a process [`restart`]ed after
    /// [`kill`] keeps its clock, continuing the same timeline.
    ///
    /// [`restart`]: WireCluster::restart
    /// [`kill`]: WireCluster::kill
    ///
    /// # Errors
    ///
    /// Fails like [`try_spawn`](WireCluster::try_spawn).
    ///
    /// # Panics
    ///
    /// Panics like [`try_spawn`](WireCluster::try_spawn), and additionally
    /// if `clocks.len() != config.n`.
    pub fn try_spawn_traced(
        config: WireConfig,
        clocks: Vec<LamportClock>,
        mut make: impl FnMut(&Env) -> S,
    ) -> Result<Self, NodeError> {
        assert!(config.n >= 2, "the model requires n > 1 processes");
        assert_eq!(clocks.len(), config.n, "one clock per process");
        assert!(!config.tick.is_zero(), "tick must be positive");
        let n = config.n;
        let any = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| {
                TcpListener::bind(any).map_err(|e| NodeError::Bind {
                    addr: any,
                    kind: e.kind(),
                })
            })
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| {
                l.local_addr()
                    .map_err(|e| NodeError::Listener { kind: e.kind() })
            })
            .collect::<Result<_, _>>()?;
        let mut cluster = WireCluster {
            nodes: (0..n).map(|_| None).collect(),
            addrs,
            clocks,
            logs: (0..n)
                .map(|_| Arc::new(NodeLog::new(config.record_outputs)))
                .collect(),
            links: (0..n)
                .map(|_| Arc::new((0..n).map(|_| Arc::new(LinkCounters::default())).collect()))
                .collect(),
            config,
            start: StdInstant::now(),
            errors: Vec::new(),
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let p = ProcessId(i as u32);
            let sm = make(&Env::new(p, n));
            cluster.nodes[i] = Some(cluster.spawn_node(p, listener, sm));
        }
        Ok(cluster)
    }

    /// Starts an incarnation of `p` on `listener`, wired to `p`'s clock,
    /// log and link counters.
    fn spawn_node(&self, p: ProcessId, listener: TcpListener, sm: S) -> WireNode<S> {
        let i = p.as_usize();
        let spec = NodeSpec {
            env: Env::new(p, self.addrs.len()),
            epoch: self.start,
            tick: self.config.tick,
            clock: self.clocks[i].clone(),
            log: Arc::clone(&self.logs[i]),
        };
        WireNode::spawn_at(
            listener,
            sm,
            spec,
            &self.addrs,
            &self.config,
            &self.links[i],
        )
    }

    /// Kills process `p`: tears down its listener and every live TCP
    /// connection it has, and joins all its threads. Peers observe the dead
    /// sockets, fall back to their redial/backoff loops, and keep knocking
    /// until [`WireCluster::restart`] re-binds the same address. Outputs and
    /// counters of the killed incarnation stay in snapshots and the final
    /// report. No-op if `p` is already dead.
    pub fn kill(&mut self, p: ProcessId) {
        if let Some(node) = self.nodes[p.as_usize()].take() {
            self.errors.extend(node.stop_collecting());
        }
    }

    /// Returns `true` if `p` is currently running.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.nodes[p.as_usize()].is_some()
    }

    /// Restarts a killed `p` with a fresh state machine `sm` — typically one
    /// recovered from the durable storage its predecessor wrote. Re-binds
    /// the process's original listen address (retrying briefly while the OS
    /// releases it), so the surviving peers' reconnect loops — which have
    /// been redialling that address since the kill — find the new
    /// incarnation from the *accepting* side.
    ///
    /// Does nothing while `p` is alive: the running incarnation carries on
    /// and `sm` is dropped, as on every [`runtime::Cluster`].
    ///
    /// # Errors
    ///
    /// Fails with [`NodeError::Bind`] if the address cannot be re-bound
    /// within the retry budget.
    pub fn restart(&mut self, p: ProcessId, sm: S) -> Result<(), NodeError> {
        if self.is_alive(p) {
            return Ok(());
        }
        let listener = bind_with_retry(self.addrs[p.as_usize()], StdDuration::from_secs(10))?;
        self.nodes[p.as_usize()] = Some(self.spawn_node(p, listener, sm));
        Ok(())
    }

    /// The listen address of process `p` (fixed for the cluster's lifetime,
    /// even while `p` is dead).
    pub fn addr_of(&self, p: ProcessId) -> SocketAddr {
        self.addrs[p.as_usize()]
    }

    /// The wall-clock instant every node's virtual clock counts ticks from
    /// (the same as [`runtime::Cluster::epoch`]).
    pub fn epoch(&self) -> StdInstant {
        self.start
    }

    /// Delivers an external request to `p`. Dropped if `p` is dead, like a
    /// request sent to a crashed server.
    pub fn request(&self, p: ProcessId, req: S::Request) {
        if let Some(node) = &self.nodes[p.as_usize()] {
            node.request(req);
        }
    }

    /// Force-closes every live TCP connection of node `p` (its link threads
    /// and its peers' redial with backoff). Returns how many died; 0 if
    /// `p` is dead.
    pub fn sever(&self, p: ProcessId) -> usize {
        self.nodes[p.as_usize()].as_ref().map_or(0, |nd| nd.sever())
    }

    /// A live snapshot of `(sent, last_send)` per process, killed
    /// incarnations included (the same as
    /// [`runtime::Cluster::traffic_snapshot`]).
    pub fn traffic_snapshot(&self) -> (Vec<u64>, Vec<Option<StdDuration>>) {
        runtime::traffic_snapshot(&self.logs)
    }

    /// A live snapshot of every node's per-link socket counters, killed
    /// incarnations included.
    pub fn link_snapshot(&self) -> Vec<Vec<LinkStats>> {
        self.links
            .iter()
            .map(|peers| peers.iter().map(|c| c.snapshot()).collect())
            .collect()
    }

    /// Stops every node, joins all threads, and returns the run report
    /// (killed incarnations included).
    pub fn stop(mut self) -> ClusterReport<S::Output> {
        // Halt all protocol threads before joining any node: otherwise the
        // survivors would watch the first node fall silent and re-elect,
        // polluting the report's final outputs.
        for node in self.nodes.iter().flatten() {
            node.begin_stop();
        }
        for node in std::mem::take(&mut self.nodes).into_iter().flatten() {
            self.errors.extend(node.stop_collecting());
        }
        ClusterReport {
            run: RunReport::collect(&self.logs),
            links: self.link_snapshot(),
            errors: self.errors,
        }
    }
}

impl<S> runtime::Cluster for WireCluster<S>
where
    S: Sm + std::marker::Send + 'static,
    S::Msg: Wire,
{
    type Sm = S;
    type Report = ClusterReport<S::Output>;

    fn logs(&self) -> &[Arc<NodeLog<S::Output>>] {
        &self.logs
    }

    fn epoch(&self) -> StdInstant {
        WireCluster::epoch(self)
    }

    fn tick(&self) -> StdDuration {
        self.config.tick
    }

    fn request(&self, p: ProcessId, req: S::Request) {
        WireCluster::request(self, p, req);
    }

    fn kill(&mut self, p: ProcessId) {
        WireCluster::kill(self, p);
    }

    fn restart(&mut self, p: ProcessId, sm: S) {
        if let Err(e) = WireCluster::restart(self, p, sm) {
            panic!("cannot restart {p}: {e}");
        }
    }

    fn stop(self) -> ClusterReport<S::Output> {
        WireCluster::stop(self)
    }
}

/// Binds `addr`, retrying while the OS finishes releasing it from a
/// just-killed predecessor (usually immediate — severing the old sockets
/// RSTs them past TIME_WAIT — but the retry keeps restarts robust on
/// slower kernels).
fn bind_with_retry(addr: SocketAddr, budget: StdDuration) -> Result<TcpListener, NodeError> {
    let deadline = StdInstant::now() + budget;
    loop {
        match TcpListener::bind(addr) {
            Ok(listener) => return Ok(listener),
            Err(e) => {
                if StdInstant::now() >= deadline {
                    return Err(NodeError::Bind {
                        addr,
                        kind: e.kind(),
                    });
                }
                std::thread::sleep(StdDuration::from_millis(25));
            }
        }
    }
}
