//! Outbound peer links: one per remote peer, each a bounded queue, the
//! connection when there is one, and a link thread that dials and drains.
//!
//! A handler never blocks on the network. A frame sent while the link is
//! connected, has nothing queued and injects no faults is written straight
//! onto the peer's non-blocking socket by the thread that ran the handler.
//! Otherwise it joins a bounded queue that evicts its oldest whole frame on
//! overflow (fair-lossy — a slow or dead peer costs messages, not
//! liveness). The link thread owns the connection: it dials, retries with
//! jittered exponential backoff, sends the `Hello` handshake frame, drains
//! the queue with blocking writes (applying the optional injected
//! loss/delay), and lends the socket back for direct writes once the queue
//! is empty. A direct write the kernel takes only in part leaves the rest
//! of its frame at the head of the queue; the link thread finishes it
//! before any other frame, and eviction never touches it.
//!
//! Direct writes need the socket in non-blocking mode and the link thread's
//! writes block; both go through one file description, so the link thread
//! flips the mode when it lends the socket out and when it takes it back.
//! Frames on a link leave in send order: direct writes happen only while
//! the queue is empty and the link thread is waiting, and both sides hold
//! the link's lock for every decision.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

use lls_primitives::{Fate, FaultInjector};

use crate::counters::LinkCounters;
use crate::node::ConnRegistry;

/// Reconnect backoff policy: exponential with full jitter on the upper
/// half (`sleep ∈ [delay/2, delay]`), doubling up to `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First retry delay.
    pub initial: StdDuration,
    /// Cap on the retry delay.
    pub max: StdDuration,
}

impl Default for BackoffConfig {
    /// 50 ms initial, 2 s cap.
    fn default() -> Self {
        BackoffConfig {
            initial: StdDuration::from_millis(50),
            max: StdDuration::from_secs(2),
        }
    }
}

/// What the senders and the link thread of one link share.
#[derive(Debug, Default)]
struct LinkState {
    /// Frames waiting for the link thread, oldest first.
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue[0]` a direct write already put on the socket.
    head_sent: usize,
    /// The connection, while senders may write to it directly.
    direct: Option<TcpStream>,
    /// The link thread's socket is in non-blocking mode (lent out since
    /// the link thread last wrote).
    nonblocking: bool,
    /// A direct write found the connection dead; the link thread redials.
    broken: bool,
}

/// One outbound link, shared between the threads that send on it and its
/// link thread.
#[derive(Debug)]
pub(crate) struct PeerLink {
    addr: SocketAddr,
    capacity: usize,
    state: Mutex<LinkState>,
    available: Condvar,
}

impl PeerLink {
    pub(crate) fn new(addr: SocketAddr, capacity: usize) -> Self {
        PeerLink {
            addr,
            capacity: capacity.max(1),
            state: Mutex::new(LinkState::default()),
            available: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().expect("link state poisoned")
    }

    /// Sends one encoded frame without ever blocking: straight onto the
    /// socket when the link is idle, else into the queue, evicting the
    /// oldest whole frame on overflow.
    pub(crate) fn send(&self, frame: Vec<u8>, counters: &LinkCounters) {
        let mut st = self.lock();
        let mut sent = 0;
        if let Some(mut stream) = st.direct.as_ref() {
            match stream.write(&frame) {
                Ok(n) if n == frame.len() => {
                    counters.add_sent(n as u64);
                    return;
                }
                Ok(n) => sent = n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {
                    // The frame is lost with the connection: fair-lossy.
                    st.direct = None;
                    st.broken = true;
                    drop(st);
                    self.available.notify_one();
                    return;
                }
            }
            // The socket buffer is full: the link thread takes over until
            // the queue is empty again.
            st.direct = None;
        }
        let started = usize::from(st.head_sent > 0);
        if st.queue.len() - started >= self.capacity {
            st.queue.remove(started);
            counters.add_queue_drop();
        }
        if sent > 0 {
            // The queue was empty, so the rest of this frame is its head.
            st.head_sent = sent;
        }
        st.queue.push_back(frame);
        drop(st);
        self.available.notify_one();
    }

    /// Blocks until the queue holds a frame, lending `conn` (when given) to
    /// direct senders meanwhile. Returns the frame and how many of its
    /// bytes are already on the socket, or `None` on shutdown or when a
    /// direct write found the connection broken.
    fn pop(&self, conn: Option<&TcpStream>, shutdown: &AtomicBool) -> Option<(Vec<u8>, usize)> {
        let mut st = self.lock();
        loop {
            if shutdown.load(Ordering::Relaxed) || std::mem::take(&mut st.broken) {
                st.direct = None;
                st.nonblocking = false;
                return None;
            }
            if let Some(frame) = st.queue.pop_front() {
                if std::mem::take(&mut st.nonblocking) {
                    if let Some(conn) = conn {
                        // A failure surfaces as a write error: redial.
                        let _ = conn.set_nonblocking(false);
                    }
                }
                return Some((frame, std::mem::take(&mut st.head_sent)));
            }
            if let (Some(conn), None) = (conn, &st.direct) {
                if conn.set_nonblocking(true).is_ok() {
                    st.nonblocking = true;
                    st.direct = conn.try_clone().ok();
                }
            }
            st = self
                .available
                .wait_timeout(st, StdDuration::from_millis(100))
                .expect("link state poisoned")
                .0;
        }
    }

    /// Wakes the link thread so it can observe a shutdown request.
    pub(crate) fn interrupt(&self) {
        self.available.notify_one();
    }
}

/// Runs the dialer/drainer loop for one outbound link until shutdown.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_link(
    link: Arc<PeerLink>,
    hello: Vec<u8>,
    backoff: BackoffConfig,
    mut faults: Option<FaultInjector>,
    counters: Arc<LinkCounters>,
    conns: Arc<ConnRegistry>,
    shutdown: Arc<AtomicBool>,
    jitter_seed: u64,
) {
    let mut jitter = FaultInjector::new(0.0, StdDuration::ZERO, StdDuration::ZERO, jitter_seed);
    let mut delay = backoff.initial;
    let mut had_connection = false;
    'dial: while !shutdown.load(Ordering::Relaxed) {
        let stream = match TcpStream::connect_timeout(&link.addr, StdDuration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => {
                // Jittered exponential backoff: sleep in [delay/2, delay],
                // in small slices so shutdown stays responsive.
                let sleep = jitter.sample_between(delay / 2, delay);
                sleep_interruptibly(sleep, &shutdown);
                delay = (delay * 2).min(backoff.max);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        if had_connection {
            counters.add_reconnect();
        }
        had_connection = true;
        delay = backoff.initial;
        let conn_id = conns.register(&stream);
        let broken = write_connected(&link, &stream, &hello, &mut faults, &counters, &shutdown);
        conns.deregister(conn_id);
        if !broken {
            // Clean shutdown, not a connection failure.
            break 'dial;
        }
    }
}

/// Serves one live connection: the handshake, then the queue, lending the
/// socket to direct senders whenever the queue is empty and no faults are
/// injected. Returns `true` when the connection broke (caller should
/// redial), `false` on shutdown.
fn write_connected(
    link: &PeerLink,
    mut stream: &TcpStream,
    hello: &[u8],
    faults: &mut Option<FaultInjector>,
    counters: &LinkCounters,
    shutdown: &AtomicBool,
) -> bool {
    if stream.write_all(hello).is_err() {
        return true;
    }
    counters.add_sent(hello.len() as u64);
    let lend = faults.is_none().then_some(stream);
    while let Some((frame, sent)) = link.pop(lend, shutdown) {
        if let Some(inj) = faults.as_mut() {
            match inj.fate() {
                Fate::Drop => {
                    counters.add_injected_drop();
                    continue;
                }
                Fate::DeliverAfter(d) if !d.is_zero() => {
                    // Socket-layer delay: holds back this link only, which
                    // is exactly a slow network path. Handlers are
                    // unaffected — their sends keep landing in the queue.
                    std::thread::sleep(d);
                }
                Fate::DeliverAfter(_) => {}
            }
        }
        if stream.write_all(&frame[sent..]).is_err() {
            // The frame is lost with the connection: fair-lossy semantics.
            return true;
        }
        counters.add_sent(frame.len() as u64);
    }
    !shutdown.load(Ordering::Relaxed)
}

/// Sleeps up to `total`, checking the shutdown flag every 50 ms.
fn sleep_interruptibly(total: StdDuration, shutdown: &AtomicBool) {
    let slice = StdDuration::from_millis(50);
    let mut remaining = total;
    while !remaining.is_zero() && !shutdown.load(Ordering::Relaxed) {
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::Instant as StdInstant;

    use lls_primitives::wire::{decode_frame, encode_frame, Deframer};
    use lls_primitives::ProcessId;

    fn mk_link(cap: usize) -> PeerLink {
        PeerLink::new("127.0.0.1:1".parse().expect("addr"), cap)
    }

    fn queued(link: &PeerLink) -> Vec<Vec<u8>> {
        link.lock().queue.iter().cloned().collect()
    }

    #[test]
    fn queue_drops_oldest_on_overflow() {
        let link = mk_link(2);
        let counters = LinkCounters::default();
        link.send(vec![1], &counters);
        link.send(vec![2], &counters);
        link.send(vec![3], &counters);
        assert_eq!(counters.snapshot().queue_drops, 1);
        let shutdown = AtomicBool::new(false);
        assert_eq!(
            link.pop(None, &shutdown),
            Some((vec![2], 0)),
            "oldest evicted"
        );
        assert_eq!(link.pop(None, &shutdown), Some((vec![3], 0)));
    }

    #[test]
    fn a_partly_sent_frame_is_never_evicted() {
        let link = mk_link(2);
        let counters = LinkCounters::default();
        link.send(vec![1, 1, 1], &counters);
        // As a direct write the kernel took two bytes of would leave it.
        link.lock().head_sent = 2;
        for v in 2..6 {
            link.send(vec![v], &counters);
        }
        assert_eq!(counters.snapshot().queue_drops, 2);
        assert_eq!(queued(&link), vec![vec![1, 1, 1], vec![4], vec![5]]);
        let shutdown = AtomicBool::new(false);
        assert_eq!(
            link.pop(None, &shutdown),
            Some((vec![1, 1, 1], 2)),
            "the partial frame is finished first"
        );
        assert_eq!(link.pop(None, &shutdown), Some((vec![4], 0)));
    }

    #[test]
    fn pop_returns_none_on_shutdown() {
        let link = mk_link(4);
        let shutdown = AtomicBool::new(true);
        assert_eq!(link.pop(None, &shutdown), None);
    }

    #[test]
    fn enqueue_never_blocks_even_when_full() {
        let link = mk_link(1);
        let counters = LinkCounters::default();
        for i in 0..100u8 {
            link.send(vec![i], &counters);
        }
        assert_eq!(counters.snapshot().queue_drops, 99);
    }

    /// Against a peer that accepts but does not read: the first frames go
    /// straight onto the socket until its buffers fill, later ones queue
    /// and overflow, and no send ever waits for the peer. Once the peer
    /// drains the socket, every frame that was not evicted arrives whole
    /// and in send order — a torn frame (a partly written one evicted or
    /// interleaved) would fail to decode.
    #[test]
    fn sends_to_a_peer_that_does_not_read_never_block_and_arrive_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let link = Arc::new(PeerLink::new(listener.local_addr().expect("addr"), 16));
        let counters = Arc::new(LinkCounters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = std::thread::spawn({
            let (link, counters, shutdown) = (link.clone(), counters.clone(), shutdown.clone());
            move || {
                run_link(
                    link,
                    encode_frame(&ProcessId(0)),
                    BackoffConfig::default(),
                    None,
                    counters,
                    Arc::default(),
                    shutdown,
                    1,
                )
            }
        });
        let (mut peer, _) = listener.accept().expect("accept");
        let deadline = StdInstant::now() + StdDuration::from_secs(10);
        while link.lock().direct.is_none() {
            assert!(
                StdInstant::now() < deadline,
                "the link never lent its socket"
            );
            std::thread::sleep(StdDuration::from_millis(1));
        }

        // 4000 frames of ~10 KiB: far more than loopback socket buffers
        // hold, and not a divisor of them, so a direct write ends mid-frame.
        let total = 4000u64;
        let body = vec![7u8; 10_007];
        let mut slowest = StdDuration::ZERO;
        for seq in 0..total {
            let frame = encode_frame(&(seq, body.clone()));
            let t = StdInstant::now();
            link.send(frame, &counters);
            slowest = slowest.max(t.elapsed());
        }
        assert!(
            slowest < StdDuration::from_millis(500),
            "a send blocked: {slowest:?}"
        );
        let drops = counters.snapshot().queue_drops;
        assert!(drops > 0, "the queue never overflowed");

        let mut deframer = Deframer::new();
        let hello = loop {
            if let Some(p) = deframer.next_frame().expect("aligned") {
                break p;
            }
            let mut buf = [0u8; 65536];
            let n = peer.read(&mut buf).expect("read");
            deframer.extend(&buf[..n]);
        };
        assert_eq!(decode_frame::<ProcessId>(&hello), Ok(ProcessId(0)));
        let (mut got, mut decode_errors) = (Vec::new(), 0);
        let mut buf = vec![0u8; 1 << 16];
        while (got.len() + decode_errors) as u64 + drops < total {
            while let Some(p) = deframer.next_frame().expect("aligned") {
                match decode_frame::<(u64, Vec<u8>)>(&p) {
                    Ok((seq, b)) if b == body => got.push(seq),
                    _ => decode_errors += 1,
                }
            }
            if (got.len() + decode_errors) as u64 + drops < total {
                let n = peer.read(&mut buf).expect("read");
                assert!(n > 0, "link closed early after {} frames", got.len());
                deframer.extend(&buf[..n]);
            }
        }
        assert_eq!(decode_errors, 0, "every frame arrives whole");
        assert!(got.windows(2).all(|w| w[0] < w[1]), "send order kept");
        assert_eq!(got.last(), Some(&(total - 1)), "the newest frame survives");
        // The link thread counts a frame just after the kernel took it.
        while counters.snapshot().msgs_sent < 1 + total - drops {
            assert!(StdInstant::now() < deadline + StdDuration::from_secs(20));
            std::thread::sleep(StdDuration::from_millis(1));
        }
        assert_eq!(counters.snapshot().msgs_sent, 1 + total - drops);

        shutdown.store(true, Ordering::Relaxed);
        link.interrupt();
        thread.join().expect("link thread exits");
    }

    #[test]
    fn backoff_default_is_sane() {
        let b = BackoffConfig::default();
        assert!(b.initial <= b.max);
    }
}
