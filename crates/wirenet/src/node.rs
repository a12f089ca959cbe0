//! One wirenet node incarnation: a TCP listener plus reader threads
//! (inbound), one dialer/writer thread per peer (outbound), and a protocol
//! thread running the shared [`runtime`](lls_primitives::runtime) driver,
//! whose send closure encodes each message with the shared wire codec onto
//! the peer's outbound link.

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration as StdDuration;

use lls_primitives::runtime::{self, Control, NodeSpec};
use lls_primitives::wire::{
    decode_frame, decode_frame_any, encode_frame, encode_frame_sharded, encode_frame_stamped,
    Deframer, Wire,
};
use lls_primitives::{FaultInjector, LamportClock, ProcessId, Sm};

use crate::cluster::WireConfig;
use crate::counters::LinkCounters;
use crate::link::{run_writer, PeerLink};

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
    /// address or switching it to non-blocking mode).
    Listener {
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// A node thread panicked and was discovered at join time.
    ThreadPanic {
        /// The node whose thread died.
        node: ProcessId,
        /// Which thread: `"writer"`, `"acceptor"`, `"protocol"`, `"reader"`.
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
    control: SyncSender<Control<S>>,
    shutdown: Arc<AtomicBool>,
    links: Vec<Option<Arc<PeerLink>>>,
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
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot be switched to non-blocking mode.
    pub(crate) fn try_spawn_at(
        listener: TcpListener,
        sm: S,
        spec: NodeSpec<S::Output>,
        addrs: &[SocketAddr],
        config: &WireConfig,
        counters: &Counters,
    ) -> Result<Self, NodeError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| NodeError::Listener { kind: e.kind() })?;
        let me = spec.env.id();
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnRegistry::default());
        let reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let (control, inbox) = sync_channel::<Control<S>>(4096);
        let mut handles = Vec::new();

        // Outbound: one link + writer thread per remote peer.
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
                "writer",
                std::thread::spawn({
                    let link = Arc::clone(&link);
                    let hello = hello.clone();
                    let backoff = config.backoff;
                    let counters = Arc::clone(&counters[peer]);
                    let conns = Arc::clone(&conns);
                    let shutdown = Arc::clone(&shutdown);
                    move || {
                        run_writer(
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

        // Inbound: the acceptor spawns one reader thread per connection.
        let inbound = Arc::new(Inbound {
            n: addrs.len(),
            control: control.clone(),
            counters: Arc::clone(counters),
            conns: Arc::clone(&conns),
            shutdown: Arc::clone(&shutdown),
            clock: spec.clock.clone(),
        });
        let readers = Arc::clone(&reader_handles);
        handles.push((
            "acceptor",
            std::thread::spawn(move || run_acceptor(listener, inbound, &readers)),
        ));

        // The protocol thread: the shared driver, sending onto the links.
        let send_links = links.clone();
        let counters = Arc::clone(counters);
        handles.push((
            "protocol",
            std::thread::spawn(move || {
                runtime::run(spec, sm, inbox, |to, msg: S::Msg, envelope| {
                    let to = to.as_usize();
                    if let Some(link) = send_links.get(to).and_then(Option::as_ref) {
                        // Shard-group traffic rides a version-3 frame tagged
                        // with its shard; everything else (including the
                        // shared Ω) stays on version 2.
                        let frame = match msg.shard_tag() {
                            Some(shard) => encode_frame_sharded(&msg, shard, &envelope),
                            None => encode_frame_stamped(&msg, &envelope),
                        };
                        link.enqueue(frame, &counters[to]);
                    }
                });
            }),
        ));

        Ok(WireNode {
            me,
            control,
            shutdown,
            links,
            conns,
            handles,
            reader_handles,
        })
    }

    /// Delivers an external request to the state machine.
    pub(crate) fn request(&self, req: S::Request) {
        let _ = self.control.send(Control::Request(req));
    }

    /// Force-closes every live TCP connection this node currently has
    /// (inbound and outbound). Writers redial with backoff; peers see EOF
    /// and their writers redial too. Returns how many connections died.
    pub(crate) fn sever(&self) -> usize {
        self.conns.sever_all()
    }

    /// Signals every thread to stop without waiting for them. The protocol
    /// thread emits no further outputs after processing the stop message.
    /// Used by the cluster to halt all nodes *before* joining any of them —
    /// joining one node at a time would leave the survivors running long
    /// enough to notice the silence and re-elect.
    pub(crate) fn begin_stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.control.send(Control::Stop);
        for link in self.links.iter().flatten() {
            link.interrupt();
        }
        // Unblock reader threads stuck in a read.
        self.conns.sever_all();
    }

    /// Stops every thread, joins them, and returns a
    /// [`NodeError::ThreadPanic`] for each thread that died abnormally —
    /// silently swallowing a panicked protocol thread would let a broken
    /// node masquerade as a merely quiet one.
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

/// What the acceptor and every reader thread of one incarnation share.
struct Inbound<S: Sm> {
    n: usize,
    control: SyncSender<Control<S>>,
    counters: Counters,
    conns: Arc<ConnRegistry>,
    shutdown: Arc<AtomicBool>,
    clock: LamportClock,
}

/// Decorrelates per-link RNG streams from one base seed.
fn mix_seed(base: u64, me: ProcessId, peer: u32) -> u64 {
    base ^ (u64::from(me.0) << 32) ^ (u64::from(peer) << 8) ^ 0x9E37_79B9
}

/// The accept loop: hands each inbound connection to a reader thread.
fn run_acceptor<S>(
    listener: TcpListener,
    inbound: Arc<Inbound<S>>,
    reader_handles: &Mutex<Vec<JoinHandle<()>>>,
) where
    S: Sm + std::marker::Send + 'static,
    S::Msg: Wire,
{
    while !inbound.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let conn_id = inbound.conns.register(&stream);
                let handle = std::thread::spawn({
                    let inbound = Arc::clone(&inbound);
                    move || run_reader(stream, conn_id, &inbound)
                });
                reader_handles
                    .lock()
                    .expect("reader handles poisoned")
                    .push(handle);
            }
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
/// Version-2 frames carry a trace envelope which is merged into the node's
/// Lamport clock *here*, on the reader thread, before the message is queued
/// for the protocol thread: the clock is a shared atomic that only grows, so
/// merging early never violates causal order — the handler always runs at a
/// clock value at or above the sender's stamp.
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
                            let c = &inbound.counters[f.as_usize()];
                            c.add_recv(frame_bytes);
                            match decode_frame_any::<S::Msg>(&payload) {
                                Ok((envelope, msg)) => {
                                    if let Some(env) = &envelope {
                                        inbound.clock.observe_envelope(env);
                                    }
                                    let deliver = Control::Deliver { from: f, msg };
                                    if inbound.control.send(deliver).is_err() {
                                        break 'conn;
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
                        inbound.counters[f.as_usize()].add_decode_error();
                    }
                    break 'conn;
                }
            }
        }
    }
    inbound.conns.deregister(conn_id);
}
