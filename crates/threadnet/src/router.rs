//! The router thread: a fair-lossy mesh over wall-clock time.

use std::collections::BinaryHeap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Instant as StdInstant;

use lls_primitives::{Fate, FaultInjector, ProcessId};

use crate::cluster::NetConfig;

/// A message in transit.
pub(crate) struct Envelope<M> {
    pub from: ProcessId,
    pub to: ProcessId,
    pub msg: M,
    /// Sender's Lamport clock at send time. Carried through the router
    /// untouched; the delivery hook merges it into the receiver's clock.
    pub stamp: u64,
}

struct Delayed<M> {
    due: StdInstant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Delayed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for Delayed<M> {}
impl<M> PartialOrd for Delayed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Delayed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Runs until the ingress channel disconnects: applies `config`'s loss,
/// holds each surviving message for its sampled delay, then hands it to
/// `deliver`. Returns how many messages the loss model dropped, per sender.
pub(crate) fn run_router<M>(
    ingress: Receiver<Envelope<M>>,
    config: NetConfig,
    mut deliver: impl FnMut(Envelope<M>),
) -> Vec<u64> {
    let mut faults = FaultInjector::new(
        config.loss.clamp(0.0, 1.0),
        config.min_delay,
        config.max_delay,
        config.seed,
    );
    let mut dropped = vec![0; config.n];
    let mut heap: BinaryHeap<Delayed<M>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Flush everything that is due.
        let now = StdInstant::now();
        while heap.peek().is_some_and(|d| d.due <= now) {
            deliver(heap.pop().expect("peeked").env);
        }
        let next = match heap.peek() {
            Some(d) => ingress.recv_timeout(d.due.saturating_duration_since(StdInstant::now())),
            None => ingress.recv().map_err(RecvTimeoutError::from),
        };
        match next {
            Ok(env) => match faults.fate() {
                Fate::Drop => dropped[env.from.as_usize()] += 1,
                Fate::DeliverAfter(delay) => {
                    seq += 1;
                    let due = StdInstant::now() + delay;
                    heap.push(Delayed { due, seq, env });
                }
            },
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Ingress closed: flush what is still in flight (waiting out each
    // remaining delay, bounded by max_delay) so a shutdown does not silently
    // swallow messages the loss model already admitted.
    while let Some(d) = heap.pop() {
        std::thread::sleep(d.due.saturating_duration_since(StdInstant::now()));
        deliver(d.env);
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration as StdDuration;

    #[test]
    fn delayed_heap_pops_earliest_due_first() {
        let base = StdInstant::now();
        let mk = |offset_ms: u64, seq: u64| Delayed {
            due: base + StdDuration::from_millis(offset_ms),
            seq,
            env: Envelope {
                from: ProcessId(0),
                to: ProcessId(1),
                msg: offset_ms,
                stamp: 0,
            },
        };
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(mk(30, 0));
        heap.push(mk(10, 1));
        heap.push(mk(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop())
            .map(|d| d.env.msg)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn delayed_heap_breaks_ties_by_sequence() {
        let due = StdInstant::now() + StdDuration::from_millis(5);
        let mk = |seq: u64| Delayed {
            due,
            seq,
            env: Envelope {
                from: ProcessId(0),
                to: ProcessId(1),
                msg: seq,
                stamp: 0,
            },
        };
        let mut heap = std::collections::BinaryHeap::new();
        for seq in [5u64, 1, 3] {
            heap.push(mk(seq));
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|d| d.seq).collect();
        assert_eq!(order, vec![1, 3, 5], "equal deadlines must pop FIFO");
    }

    /// Pushes `count` messages from `from` through a router with `loss`
    /// and returns `(delivered payloads, dropped per sender)`.
    fn route(from: u32, count: u8, loss: f64, max_delay: StdDuration) -> (Vec<u8>, Vec<u64>) {
        let (tx, rx) = channel::<Envelope<u8>>();
        for i in 0..count {
            tx.send(Envelope {
                from: ProcessId(from),
                to: ProcessId(1 - from),
                msg: i,
                stamp: 0,
            })
            .unwrap();
        }
        drop(tx);
        let config = NetConfig {
            n: 2,
            loss,
            min_delay: StdDuration::ZERO,
            max_delay,
            seed: 1,
            ..NetConfig::default()
        };
        let mut delivered = Vec::new();
        let dropped = run_router(rx, config, |env| delivered.push(env.msg));
        (delivered, dropped)
    }

    #[test]
    fn router_counts_and_drops_deterministically() {
        let (delivered, dropped) = route(0, 200, 0.5, StdDuration::from_micros(100));
        assert_eq!(delivered.len() as u64 + dropped[0], 200, "conservation");
        assert!(
            dropped[0] > 50 && dropped[0] < 150,
            "~50% loss, got {dropped:?}"
        );
        assert_eq!(dropped[1], 0, "drops are charged to the sender");
    }

    #[test]
    fn router_with_zero_loss_delivers_everything() {
        let (delivered, dropped) = route(1, 50, 0.0, StdDuration::ZERO);
        assert_eq!(delivered, (0..50).collect::<Vec<u8>>());
        assert_eq!(dropped, vec![0, 0]);
    }
}
