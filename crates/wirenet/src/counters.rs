//! Per-link socket counters. (Protocol-level send counts live in the
//! shared driver's [`NodeLog`](lls_primitives::runtime::NodeLog).)
//!
//! All counters are atomics so the link, reader and protocol threads (any
//! of which may write a frame, since handlers send on whichever thread they
//! run) can bump them without sharing a lock; snapshots are taken with
//! relaxed loads (exact consistency across counters is not needed for
//! reporting).

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for the link between this node and one remote peer
/// (both directions combined).
#[derive(Debug, Default)]
pub struct LinkCounters {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    bytes_recv: AtomicU64,
    reconnects: AtomicU64,
    queue_drops: AtomicU64,
    injected_drops: AtomicU64,
    decode_errors: AtomicU64,
}

impl LinkCounters {
    pub(crate) fn add_sent(&self, bytes: u64) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_recv(&self, bytes: u64) {
        self.msgs_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_queue_drop(&self) {
        self.queue_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_injected_drop(&self) {
        self.injected_drops.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> LinkStats {
        LinkStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            queue_drops: self.queue_drops.load(Ordering::Relaxed),
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of one link's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frames written to the socket.
    pub msgs_sent: u64,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Frames received and checksum-verified.
    pub msgs_recv: u64,
    /// Frame bytes received (length prefixes included).
    pub bytes_recv: u64,
    /// Successful re-establishments after a connection was lost.
    pub reconnects: u64,
    /// Frames evicted from the bounded outbound queue (drop-oldest).
    pub queue_drops: u64,
    /// Frames dropped by the injected loss model.
    pub injected_drops: u64,
    /// Frames rejected by checksum/decode (counted, then skipped).
    pub decode_errors: u64,
}

impl LinkStats {
    /// Element-wise sum with another snapshot.
    pub fn merge(self, other: LinkStats) -> LinkStats {
        LinkStats {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            bytes_recv: self.bytes_recv + other.bytes_recv,
            reconnects: self.reconnects + other.reconnects,
            queue_drops: self.queue_drops + other.queue_drops,
            injected_drops: self.injected_drops + other.injected_drops,
            decode_errors: self.decode_errors + other.decode_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_counters_snapshot_counts() {
        let c = LinkCounters::default();
        c.add_sent(10);
        c.add_sent(5);
        c.add_recv(7);
        c.add_reconnect();
        c.add_queue_drop();
        c.add_injected_drop();
        c.add_decode_error();
        let s = c.snapshot();
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 15);
        assert_eq!(s.msgs_recv, 1);
        assert_eq!(s.bytes_recv, 7);
        assert_eq!(s.reconnects, 1);
        assert_eq!(s.queue_drops, 1);
        assert_eq!(s.injected_drops, 1);
        assert_eq!(s.decode_errors, 1);
    }

    #[test]
    fn merge_adds_elementwise() {
        let a = LinkStats {
            msgs_sent: 1,
            bytes_sent: 2,
            msgs_recv: 3,
            bytes_recv: 4,
            reconnects: 5,
            queue_drops: 6,
            injected_drops: 7,
            decode_errors: 8,
        };
        let b = a;
        let m = a.merge(b);
        assert_eq!(m.msgs_sent, 2);
        assert_eq!(m.decode_errors, 16);
    }
}
