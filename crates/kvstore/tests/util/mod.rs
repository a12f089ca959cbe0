//! What the wall-clock legs of the kvstore linearizability suites share:
//! settling a client command on a `WireCluster`.

use std::collections::BTreeMap;
use std::time::{Duration as StdDuration, Instant as StdInstant};

use kvstore::{ClientId, KvCmd, KvEvent, KvResponse, ShardedKvEvent, Tagged};
use lls_primitives::{ProcessId, Sm};
use wirenet::{OutputCursor, WireCluster};

/// A replica event that settles a client command.
pub trait Settles {
    /// The `(client, seq)` an `Applied` event settles, and its response.
    fn settlement(self) -> Option<(ClientId, u64, KvResponse)>;
}

impl Settles for KvEvent {
    fn settlement(self) -> Option<(ClientId, u64, KvResponse)> {
        match self {
            KvEvent::Applied {
                client,
                seq,
                response,
                ..
            } => Some((client, seq, response)),
            _ => None,
        }
    }
}

impl Settles for ShardedKvEvent {
    fn settlement(self) -> Option<(ClientId, u64, KvResponse)> {
        match self {
            ShardedKvEvent::Applied {
                client,
                seq,
                response,
                ..
            } => Some((client, seq, response)),
            _ => None,
        }
    }
}

/// The first settlement of each `(node, client, seq)` a wall-clock
/// cluster has emitted, read once each through a cursor.
#[derive(Default)]
pub struct Settled {
    cursor: OutputCursor,
    first: BTreeMap<(ProcessId, ClientId, u64), KvResponse>,
}

impl Settled {
    /// Sends `cmd` to `node` and polls until `node` has settled it,
    /// re-sending it every 400 ms as a client retries (a forwarded
    /// read-index may race a leader change and drop; the retry is the
    /// liveness story, exactly as for a real client). `None` after
    /// `timeout`.
    pub fn request<S>(
        &mut self,
        cluster: &WireCluster<S>,
        node: ProcessId,
        cmd: Tagged<KvCmd>,
        timeout: StdDuration,
    ) -> Option<KvResponse>
    where
        S: Sm<Request = Tagged<KvCmd>>,
        S::Output: Settles,
    {
        let key = (node, cmd.client, cmd.seq);
        let deadline = StdInstant::now() + timeout;
        let mut last_issue = StdInstant::now();
        cluster.request(node, cmd.clone());
        loop {
            for t in cluster.outputs_since(&mut self.cursor) {
                if let Some((client, seq, response)) = t.output.settlement() {
                    self.first
                        .entry((t.process, client, seq))
                        .or_insert(response);
                }
            }
            if let Some(response) = self.first.get(&key) {
                return Some(response.clone());
            }
            if StdInstant::now() > deadline {
                return None;
            }
            if last_issue.elapsed() >= StdDuration::from_millis(400) {
                cluster.request(node, cmd.clone());
                last_issue = StdInstant::now();
            }
            std::thread::sleep(StdDuration::from_millis(10));
        }
    }
}
