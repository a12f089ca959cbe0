//! Real TCP transport substrate: the wall-clock runtime for the *same*
//! sans-io state machines the simulator runs.
//!
//! The workspace's algorithms ([`CommEffOmega`], the consensus machines,
//! the replicated KV store) are pure [`Sm`] state machines. `netsim` runs
//! them on a deterministic discrete-event simulator; this crate runs them
//! over **real TCP sockets** on a wall clock with zero changes to the
//! algorithm code:
//!
//! * every process is one listener, one reader thread per inbound
//!   connection, one link thread per peer, and one protocol thread running
//!   the node driver (timers, tick mapping, dispatch, outputs, send
//!   counters; a private module of this crate). The process sits behind a
//!   lock: a reader thread runs `on_message` for each frame it decodes,
//!   while the protocol thread keeps requests, stop and timers. A handler's sends are encoded on its own thread and written
//!   straight onto the peer's socket when that link is idle, so a message
//!   costs two thread hand-offs (sender to kernel, kernel to reader), not
//!   four;
//! * messages travel as versioned, CRC-checked frames (the shared
//!   [`lls_primitives::wire`] codec) — corrupted frames are counted and
//!   skipped, never panics;
//! * each ordered pair of processes has one TCP connection, dialed by the
//!   sender side; lost connections are redialed with jittered exponential
//!   backoff ([`BackoffConfig`]);
//! * a frame that cannot go straight onto the socket (link down or busy,
//!   kernel buffer full, faults injected) joins a bounded queue the link
//!   thread drains, which evicts its oldest whole frame on overflow, so a
//!   dead peer costs messages (fair-lossy), never liveness, and no handler
//!   ever blocks on a socket;
//! * loss and delay can be injected at the socket layer
//!   ([`FaultConfig`], backed by the shared
//!   [`FaultInjector`](lls_primitives::FaultInjector));
//! * [`WireCluster`] is the one wall-clock cluster: requests, kill and
//!   restart, each process's latest output or recorded history
//!   ([`OutputCursor`]), send counters and the stable-leader wait
//!   ([`WireCluster::await_stable_leader`]);
//! * per-link counters (bytes/messages both ways, reconnects, queue drops,
//!   decode failures) surface in the [`ClusterReport`] beside each
//!   process's outputs and send count;
//! * every frame carries a version-2 trace envelope (the sender's Lamport
//!   clock), merged on receive, so recorded probe events line up on one
//!   causal timeline across nodes;
//! * a dependency-free HTTP [`ScrapeServer`] serves live `/metrics`
//!   (Prometheus text), `/flight` (flight-recorder dump), and `/spans`
//!   (reconstructed causal spans) for any recorder bundle.
//!
//! [`CommEffOmega`]: https://docs.rs/omega
//! [`Sm`]: lls_primitives::Sm
//!
//! # Example
//!
//! Elect a leader over real sockets:
//!
//! ```no_run
//! use std::time::Duration;
//! use wirenet::{WireCluster, WireConfig};
//! # use lls_primitives::{Ctx, ProcessId, Sm, TimerId};
//! # #[derive(Debug)] struct Noop;
//! # impl Sm for Noop {
//! #     type Msg = u64; type Output = ProcessId; type Request = ();
//! #     fn on_start(&mut self, _ctx: &mut Ctx<'_, u64, ProcessId>) {}
//! #     fn on_message(&mut self, _ctx: &mut Ctx<'_, u64, ProcessId>, _f: ProcessId, _m: u64) {}
//! #     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64, ProcessId>, _t: TimerId) {}
//! # }
//!
//! let cluster = WireCluster::spawn(WireConfig::default(), |_env| Noop);
//! std::thread::sleep(Duration::from_millis(500));
//! let report = cluster.stop();
//! let leader = report.final_output_of(ProcessId(0));
//! # let _ = leader;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod counters;
mod link;
mod node;
mod runtime;
pub mod scrape;

pub use cluster::{ClusterReport, WireCluster, WireConfig};
pub use counters::{LinkCounters, LinkStats};
pub use link::BackoffConfig;
pub use node::{FaultConfig, NodeError};
pub use runtime::{OutputCursor, TimedOutput};
pub use scrape::{scrape, ScrapeRoutes, ScrapeServer};
