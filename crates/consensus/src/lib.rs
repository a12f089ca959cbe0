//! Consensus and state-machine replication with **limited link synchrony**,
//! the second contribution of the PODC 2004 paper.
//!
//! The paper shows that in the weak system **S_maj** — all links fair lossy,
//! one unknown correct ♦-source, plus a *majority of correct processes* —
//! consensus is solvable, and solvable *communication-efficiently*: once the
//! Ω leader stabilizes, a decision costs one round trip and Θ(n) messages,
//! all sent or solicited by the single leader.
//!
//! This crate provides:
//!
//! * [`Consensus`] — single-shot, ballot-based, leader-driven consensus
//!   (Synod-style) coordinated by the embedded communication-efficient Ω
//!   detector. Retransmission timers defeat fair-lossy links; safety never
//!   depends on timing, only liveness does.
//! * [`ReplicatedLog`] — repeated consensus (Multi-Paxos style): the stable
//!   leader runs the ballot phase *once* and then commits a stream of
//!   commands at one round trip each — the steady state measured by
//!   experiment E7.
//! * [`RotatingConsensus`] — the pre-Ω state of the art (Chandra–Toueg ◇S
//!   rotating coordinator), implemented as the baseline experiment E14
//!   compares against.
//! * [`shard`] — sharded multi-group replication: S independent replicated
//!   logs per cluster, one **shared** Ω per node feeding leadership to all
//!   co-located groups so election traffic stays independent of S
//!   (experiment E20).
//! * [`checker`] — safety oracles (agreement, validity, integrity, log
//!   prefix consistency) applied to run traces by tests and experiments.
//!
//! # Example
//!
//! ```
//! use consensus::{Consensus, ConsensusEvent, ConsensusParams};
//! use lls_primitives::{Instant, ProcessId};
//! use netsim::{SimBuilder, SystemSParams, Topology};
//!
//! let n = 5;
//! let topo = Topology::system_s(n, ProcessId(1), SystemSParams::default());
//! let mut sim = SimBuilder::new(n)
//!     .seed(4)
//!     .topology(topo)
//!     .build_with(|env| {
//!         // Every process proposes its own id as the value.
//!         Consensus::new(env, ConsensusParams::default(), Some(env.id().0 as u64))
//!     });
//! sim.run_until(Instant::from_ticks(60_000));
//!
//! let mut decisions = sim.outputs().iter().filter_map(|e| match &e.output {
//!     ConsensusEvent::Decided(v) => Some(*v),
//!     _ => None,
//! });
//! let first = decisions.next().expect("someone must decide");
//! assert!(decisions.all(|v| v == first), "agreement violated");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod ballot;
pub mod checker;
mod chosen;
pub mod durable;
mod msg;
mod rotating;
mod rsm;
pub mod shard;
mod single;

pub use ballot::Ballot;
pub use durable::{AcceptorRecord, RsmRecord};
pub use msg::{classify_consensus_msg, classify_rsm_msg, ConsensusMsg, Entry, RsmMsg};
pub use rotating::{classify_rot_msg, RotEvent, RotMsg, RotatingConsensus};
pub use rsm::{LifecycleId, LogBuilder, ReplicatedLog, RsmEvent, CATCHUP_BURST};
pub use shard::{
    classify_shard_msg, PlacementManager, PlacementMap, ShardEvent, ShardId, ShardMsg,
    ShardRequest, ShardedNode, ShardedNodeBuilder,
};
pub use single::{Consensus, ConsensusEvent, ConsensusParams, LeaseParams};
// Re-exported so callers can tune the log's throughput path without
// depending on the Ω crate directly.
pub use omega::BatchParams;
