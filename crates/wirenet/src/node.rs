//! One wirenet node incarnation: a TCP listener whose acceptor spawns one
//! reader thread per inbound connection, one link thread per peer
//! (outbound), and a protocol thread running the shared
//! [`runtime`](lls_primitives::runtime) driver.
//!
//! The process sits behind a `Mutex`. A reader thread decodes each frame
//! and runs `on_message` itself; the protocol thread keeps requests,
//! kill/restart/stop and timers, and a reader whose handler armed a timer
//! due before the protocol thread's planned wake-up nudges it with
//! [`Control::Wake`]. Every handler, on whichever thread, sends through the
//! same [`Outbound`] sink, which encodes each message with the shared wire
//! codec and writes it straight onto the peer's link when that link is idle.

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use lls_primitives::runtime::{self, Control, NodeSpec, Process};
use lls_primitives::wire::{
    decode_frame, decode_frame_any, encode_frame, encode_frame_sharded, encode_frame_stamped,
    Deframer, Wire,
};
use lls_primitives::{FaultInjector, LamportClock, ProcessId, Sm, TraceEnvelope};

use crate::cluster::WireConfig;
use crate::counters::LinkCounters;
use crate::link::{run_link, PeerLink};

/// A typed failure of a node's socket plumbing, surfaced through the node
/// and cluster APIs instead of panicking — restart logic has to distinguish
/// "the port is still in TIME_WAIT" from "a thread died".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeError {
    /// Binding a listener failed (e.g. the address is still held by a dying
    /// predecessor).
    Bind {
        /// The address that could not be bound.
        addr: SocketAddr,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// Configuring an already-bound listener failed (reading its local
    /// address).
    Listener {
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// A node thread panicked and was discovered at join time.
    ThreadPanic {
        /// The node whose thread died.
        node: ProcessId,
        /// Which thread: `"link"`, `"acceptor"`, `"protocol"`, `"reader"`.
        role: &'static str,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Bind { addr, kind } => write!(f, "cannot bind {addr}: {kind}"),
            NodeError::Listener { kind } => write!(f, "cannot configure listener: {kind}"),
            NodeError::ThreadPanic { node, role } => {
                write!(f, "{role} thread of node {node} panicked")
            }
        }
    }
}

impl std::error::Error for NodeError {}

/// Optional loss/delay injected at the socket layer, applied independently
/// per outbound link (seeds are decorrelated per link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-frame drop probability in `[0, 1]`.
    pub loss: f64,
    /// Minimum injected delay before a frame hits the socket.
    pub min_delay: StdDuration,
    /// Maximum injected delay.
    pub max_delay: StdDuration,
    /// Base seed; each link derives its own stream from it.
    pub seed: u64,
}

/// Live TCP streams of this node, registered so they can be severed (for
/// fault experiments) or shut down (for graceful stop) from outside the
/// threads that own them.
#[derive(Debug, Default)]
pub(crate) struct ConnRegistry {
    next: AtomicU64,
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl ConnRegistry {
    /// Registers a clone of `stream`; returns a token for deregistration.
    pub(crate) fn register(&self, stream: &TcpStream) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            self.conns
                .lock()
                .expect("conn registry poisoned")
                .insert(id, clone);
        }
        id
    }

    pub(crate) fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .expect("conn registry poisoned")
            .remove(&id);
    }

    /// Force-closes every live connection; returns how many were severed.
    pub(crate) fn sever_all(&self) -> usize {
        let conns: Vec<TcpStream> = {
            let mut map = self.conns.lock().expect("conn registry poisoned");
            map.drain().map(|(_, s)| s).collect()
        };
        let count = conns.len();
        for s in &conns {
            let _ = s.shutdown(Shutdown::Both);
        }
        count
    }
}

/// One process's per-peer link counters, indexed by [`ProcessId`] (its own
/// slot stays zero). The cluster keeps them across incarnations.
pub(crate) type Counters = Arc<Vec<Arc<LinkCounters>>>;

/// One incarnation of a process over real TCP: the threads driving its
/// state machine and sockets. Its outputs, send counts and link counters
/// belong to the cluster, so they outlive it.
pub(crate) struct WireNode<S: Sm> {
    me: ProcessId,
    /// This incarnation's listen address, dialed once at stop to wake the
    /// acceptor from its blocking `accept`.
    addr: SocketAddr,
    control: SyncSender<Control<S>>,
    shutdown: Arc<AtomicBool>,
    outbound: Arc<Outbound>,
    conns: Arc<ConnRegistry>,
    handles: Vec<(&'static str, JoinHandle<()>)>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<S> WireNode<S>
where
    S: Sm + std::marker::Send + 'static,
    S::Msg: Wire,
{
    /// Spawns an incarnation on an already-bound listener; `addrs` holds
    /// every process's listen address, this one's included.
    pub(crate) fn spawn_at(
        listener: TcpListener,
        sm: S,
        spec: NodeSpec<S::Output>,
        addrs: &[SocketAddr],
        config: &WireConfig,
        counters: &Counters,
    ) -> Self {
        let me = spec.env.id();
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnRegistry::default());
        let reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (control, inbox) = sync_channel::<Control<S>>(4096);
        let mut handles = Vec::new();

        // Outbound: one link + link thread per remote peer.
        let hello = encode_frame(&me);
        let mut links: Vec<Option<Arc<PeerLink>>> = Vec::with_capacity(addrs.len());
        for (peer, &addr) in addrs.iter().enumerate() {
            if peer == me.as_usize() {
                links.push(None);
                continue;
            }
            let link = Arc::new(PeerLink::new(addr, config.queue_capacity));
            let faults = config.faults.map(|f| {
                FaultInjector::new(
                    f.loss.clamp(0.0, 1.0),
                    f.min_delay,
                    f.max_delay,
                    mix_seed(f.seed, me, peer as u32),
                )
            });
            let jitter_seed = mix_seed(0x6A77_1EED, me, peer as u32);
            handles.push((
                "link",
                spawn_named("wirenet-link", {
                    let link = Arc::clone(&link);
                    let hello = hello.clone();
                    let backoff = config.backoff;
                    let counters = Arc::clone(&counters[peer]);
                    let conns = Arc::clone(&conns);
                    let shutdown = Arc::clone(&shutdown);
                    move || {
                        run_link(
                            link,
                            hello,
                            backoff,
                            faults,
                            counters,
                            conns,
                            shutdown,
                            jitter_seed,
                        )
                    }
                }),
            ));
            links.push(Some(link));
        }
        let outbound = Arc::new(Outbound {
            links,
            counters: Arc::clone(counters),
        });
        let clock = spec.clock.clone();
        let process = Arc::new(Mutex::new(Process::new(spec, sm)));

        // Inbound: the acceptor spawns one reader thread per connection.
        let inbound = Arc::new(Inbound {
            n: addrs.len(),
            process: Arc::clone(&process),
            outbound: Arc::clone(&outbound),
            control: control.clone(),
            conns: Arc::clone(&conns),
            shutdown: Arc::clone(&shutdown),
            clock,
        });
        let readers = Arc::clone(&reader_handles);
        handles.push((
            "acceptor",
            spawn_named("wirenet-acceptor", move || {
                run_acceptor(&listener, &inbound, &readers)
            }),
        ));

        // The protocol thread: requests, kill/restart/stop and timers.
        handles.push((
            "protocol",
            spawn_named("wirenet-protocol", {
                let outbound = Arc::clone(&outbound);
                move || {
                    runtime::drive(&process, &inbox, |to, msg, envelope| {
                        outbound.send(to, &msg, &envelope)
                    });
                }
            }),
        ));

        WireNode {
            me,
            addr: addrs[me.as_usize()],
            control,
            shutdown,
            outbound,
            conns,
            handles,
            reader_handles,
        }
    }

    /// Delivers an external request to the state machine, through the
    /// protocol thread's inbox.
    pub(crate) fn request(&self, req: S::Request) {
        let _ = self.control.send(Control::Request(req));
    }

    /// Force-closes every live TCP connection this node currently has
    /// (inbound and outbound). Link threads redial with backoff; peers see
    /// EOF and their link threads redial too. Returns how many connections
    /// died.
    pub(crate) fn sever(&self) -> usize {
        self.conns.sever_all()
    }

    /// Signals every thread to stop without waiting for them. No handler
    /// runs, and so no output is emitted, after the protocol thread has
    /// processed the stop message. Used by the cluster to halt all nodes
    /// *before* joining any of them — joining one node at a time would
    /// leave the survivors running long enough to notice the silence and
    /// re-elect.
    pub(crate) fn begin_stop(&self) {
        if self.shutdown.swap(true, Ordering::Relaxed) {
            return;
        }
        let _ = self.control.send(Control::Stop);
        for link in self.outbound.links.iter().flatten() {
            link.interrupt();
        }
        // Unblock reader threads stuck in a read, then the acceptor stuck
        // in `accept`: it sees the shutdown flag on the next connection.
        self.conns.sever_all();
        let _ = TcpStream::connect_timeout(&self.addr, StdDuration::from_secs(1));
    }

    /// Stops every thread, joins them, and returns a
    /// [`NodeError::ThreadPanic`] for each thread that died abnormally —
    /// silently swallowing a panicked thread would let a broken node
    /// masquerade as a merely quiet one.
    pub(crate) fn stop_collecting(mut self) -> Vec<NodeError> {
        self.begin_stop();
        let mut errors = Vec::new();
        for (role, h) in self.handles.drain(..) {
            if h.join().is_err() {
                errors.push(NodeError::ThreadPanic {
                    node: self.me,
                    role,
                });
            }
        }
        let readers: Vec<JoinHandle<()>> = {
            let mut g = self
                .reader_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            g.drain(..).collect()
        };
        for h in readers {
            if h.join().is_err() {
                errors.push(NodeError::ThreadPanic {
                    node: self.me,
                    role: "reader",
                });
            }
        }
        errors
    }
}

/// Spawns a thread named after its role, so stack traces and profiles
/// say which of a node's threads ran a handler.
fn spawn_named(name: &str, f: impl FnOnce() + std::marker::Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.into())
        .spawn(f)
        .expect("spawn a wirenet thread")
}

/// The send sink of one incarnation, shared by the protocol thread and
/// every reader thread: encodes each message onto its peer's link. Its
/// counters also take the reader side's receive accounting.
struct Outbound {
    links: Vec<Option<Arc<PeerLink>>>,
    counters: Counters,
}

impl Outbound {
    fn send<M: Wire>(&self, to: ProcessId, msg: &M, envelope: &TraceEnvelope) {
        let to = to.as_usize();
        if let Some(link) = self.links.get(to).and_then(Option::as_ref) {
            // Shard-group traffic rides a version-3 frame tagged with its
            // shard; everything else (including the shared Ω) stays on
            // version 2.
            let frame = match msg.shard_tag() {
                Some(shard) => encode_frame_sharded(msg, shard, envelope),
                None => encode_frame_stamped(msg, envelope),
            };
            link.send(frame, &self.counters[to]);
        }
    }
}

/// What the acceptor and every reader thread of one incarnation share.
struct Inbound<S: Sm> {
    n: usize,
    process: Arc<Mutex<Process<S>>>,
    outbound: Arc<Outbound>,
    /// The protocol thread's inbox, for [`Control::Wake`].
    control: SyncSender<Control<S>>,
    conns: Arc<ConnRegistry>,
    shutdown: Arc<AtomicBool>,
    clock: LamportClock,
}

/// Decorrelates per-link RNG streams from one base seed.
fn mix_seed(base: u64, me: ProcessId, peer: u32) -> u64 {
    base ^ (u64::from(me.0) << 32) ^ (u64::from(peer) << 8) ^ 0x9E37_79B9
}

/// The accept loop: hands each inbound connection to a reader thread.
/// `accept` blocks; [`WireNode::begin_stop`] wakes it with a connection of
/// its own after raising the shutdown flag.
fn run_acceptor<S>(
    listener: &TcpListener,
    inbound: &Arc<Inbound<S>>,
    reader_handles: &Mutex<Vec<JoinHandle<()>>>,
) where
    S: Sm + std::marker::Send + 'static,
    S::Msg: Wire,
{
    loop {
        let accepted = listener.accept();
        if inbound.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let conn_id = inbound.conns.register(&stream);
                let handle = spawn_named("wirenet-reader", {
                    let inbound = Arc::clone(inbound);
                    move || run_reader(stream, conn_id, &inbound)
                });
                reader_handles
                    .lock()
                    .expect("reader handles poisoned")
                    .push(handle);
            }
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => std::thread::sleep(StdDuration::from_millis(10)),
        }
    }
}

/// Reads frames off one inbound connection. The first frame must be the
/// `Hello` handshake carrying the sender's [`ProcessId`]; after that, every
/// well-formed frame is decoded as an `M` and delivered. Frames failing
/// checksum or body decode are counted and *skipped* — the length-prefix
/// framing keeps the stream aligned. Only a corrupt length prefix (framing
/// lost) or a bad handshake tears the connection down.
///
/// The reader then runs the handler itself, holding the process lock; if
/// the handler armed a timer due before the protocol thread's planned
/// wake-up, it nudges the protocol thread. A poisoned lock means a handler
/// panicked on another thread: the node is dead and the reader leaves.
///
/// Version-2 frames carry a trace envelope which is merged into the node's
/// Lamport clock before the handler runs, so the handler runs at a clock
/// value at or above the sender's stamp.
fn run_reader<S>(mut stream: TcpStream, conn_id: u64, inbound: &Inbound<S>)
where
    S: Sm,
    S::Msg: Wire,
{
    let _ = stream.set_read_timeout(Some(StdDuration::from_millis(200)));
    let mut deframer = Deframer::new();
    let mut from: Option<ProcessId> = None;
    let mut buf = [0u8; 8192];
    'conn: while !inbound.shutdown.load(Ordering::Relaxed) {
        let nread = match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(nread) => nread,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        deframer.extend(&buf[..nread]);
        loop {
            match deframer.next_frame() {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    // Account the length prefix too.
                    let frame_bytes = (payload.len() + 4) as u64;
                    match from {
                        None => match decode_frame::<ProcessId>(&payload) {
                            Ok(pid) if pid.as_usize() < inbound.n => from = Some(pid),
                            // A peer that cannot even introduce itself is
                            // not speaking this protocol: drop it.
                            _ => break 'conn,
                        },
                        Some(f) => {
                            let c = &inbound.outbound.counters[f.as_usize()];
                            c.add_recv(frame_bytes);
                            match decode_frame_any::<S::Msg>(&payload) {
                                Ok((envelope, msg)) => {
                                    if let Some(env) = &envelope {
                                        inbound.clock.observe_envelope(env);
                                    }
                                    let Ok(mut process) = inbound.process.lock() else {
                                        break 'conn;
                                    };
                                    let wake = process.deliver(f, msg, &mut |to, m, e| {
                                        inbound.outbound.send(to, &m, &e)
                                    });
                                    drop(process);
                                    if wake {
                                        // A full inbox wakes the driver anyway.
                                        let _ = inbound.control.try_send(Control::Wake);
                                    }
                                }
                                Err(_) => c.add_decode_error(),
                            }
                        }
                    }
                }
                Err(_) => {
                    // The length prefix itself is implausible: alignment is
                    // gone and nothing downstream can be trusted.
                    if let Some(f) = from {
                        inbound.outbound.counters[f.as_usize()].add_decode_error();
                    }
                    break 'conn;
                }
            }
        }
    }
    inbound.conns.deregister(conn_id);
}
