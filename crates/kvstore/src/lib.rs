//! A replicated key-value store on the limited-link-synchrony consensus
//! stack — the kind of application the paper's consensus result exists to
//! serve, packaged as a library a downstream user can adopt.
//!
//! Architecture (bottom to top):
//!
//! 1. [`omega`]'s communication-efficient Ω elects and maintains the leader;
//! 2. [`consensus`]'s [`ReplicatedLog`](consensus::ReplicatedLog) orders
//!    [`Tagged`] commands into slots with Multi-Paxos-style steady state;
//! 3. this crate's [`KvState`] applies committed commands deterministically,
//!    with **exactly-once** semantics per client session: every command
//!    carries a `(client, seq)` tag, and a command whose tag was already
//!    applied is skipped (clients retry safely — e.g. after a leader change
//!    — without double-applying).
//!
//! There is one node type, [`ReplicatedKv`], generic over its
//! [`LogPlane`]: a [`ShardedNode`](consensus::ShardedNode) of `S` groups
//! under one shared Ω ([`ShardedKvNode`]), or a single
//! [`ReplicatedLog`](consensus::ReplicatedLog) with its own Ω
//! ([`KvReplica`]) — the unsharded store is the `S = 1` case. Build the log
//! with its builder (storage, snapshots, probe) and wrap it with
//! [`ReplicatedKv::from_log`], which seeds each shard's store from its
//! recovered snapshot and replays the tail above it.
//!
//! # Example
//!
//! ```
//! use kvstore::{ClientId, KvCmd, KvEvent, KvReplica, Tagged};
//! use consensus::ConsensusParams;
//! use lls_primitives::{Duration, Instant, ProcessId};
//! use netsim::{SimBuilder, Topology};
//!
//! let n = 3;
//! let cmd = |seq, k: &str, v: &str| Tagged {
//!     client: ClientId(1),
//!     seq,
//!     cmd: KvCmd::put(k, v),
//! };
//! let mut sim = SimBuilder::new(n)
//!     .topology(Topology::all_timely(n, Duration::from_ticks(2)))
//!     .request_at(Instant::from_ticks(500), ProcessId(0), cmd(1, "k", "v1"))
//!     .request_at(Instant::from_ticks(600), ProcessId(0), cmd(1, "k", "v1")) // dup!
//!     .request_at(Instant::from_ticks(700), ProcessId(0), cmd(2, "k", "v2"))
//!     .build_with(|env| KvReplica::new(env, ConsensusParams::default()));
//! sim.run_until(Instant::from_ticks(10_000));
//!
//! // All replicas hold the same state; the duplicate was applied once.
//! for p in 0..n as u32 {
//!     let replica = sim.node(ProcessId(p));
//!     assert_eq!(replica.state().get("k"), Some("v2"));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod client;
mod command;
mod replica;
mod state;
mod submit;

pub use client::KvClient;
pub use command::{ClientId, KvCmd, KvResponse, Tagged};
pub use replica::{KvEvent, KvReplica, LogPlane, ReplicatedKv, ShardedKvEvent, ShardedKvNode};
pub use state::KvState;
pub use submit::{Settled, SubmitQueue};
