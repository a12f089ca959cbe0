//! A real-time, thread-per-process runtime for the same [`Sm`](lls_primitives::Sm)
//! state machines that run on the `netsim` simulator.
//!
//! Each process is an OS thread running the shared wall-clock driver
//! ([`lls_primitives::runtime`]) over a `std::sync::mpsc` inbox; links are
//! modelled by a router thread that applies per-message loss and uniformly
//! distributed delay, then delivers straight into the destination's inbox —
//! a fair-lossy mesh over real wall-clock time. Virtual ticks are mapped to
//! wall time (`tick`), so protocol parameters like η keep their meaning.
//!
//! [`Cluster`] implements the substrate-generic
//! [`lls_primitives::runtime::Cluster`] trait, so a harness drives it
//! exactly as it drives `wirenet`'s TCP cluster: only the spawn and its
//! [`NetConfig`] are this crate's own. Bring the trait into scope to call
//! `request`, `kill`, `restart`, the output reads and `stop`.
//!
//! The runtime exists to show the algorithms are not simulator-bound
//! (experiment E10 reruns the communication-efficiency measurement here) and
//! to serve as a deployment-shaped integration harness. It is intentionally
//! *not* deterministic — determinism lives in `netsim`.
//!
//! # Example
//!
//! ```
//! use std::time::Duration as StdDuration;
//! use lls_primitives::runtime::{await_stable_leader, Cluster as _};
//! use lls_primitives::ProcessId;
//! use omega::{CommEffOmega, OmegaParams};
//! use threadnet::{Cluster, NetConfig};
//!
//! let config = NetConfig {
//!     n: 3,
//!     loss: 0.05,
//!     tick: StdDuration::from_millis(2),
//!     ..NetConfig::default()
//! };
//! let cluster = Cluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
//! // Agreement is eventual: wait until all three have named one leader for
//! // 250 ms without a break.
//! let all: Vec<ProcessId> = (0..3).map(ProcessId).collect();
//! let hold = StdDuration::from_millis(250);
//! await_stable_leader(&cluster, &all, |l| Some(*l), hold, StdDuration::from_secs(20))
//!     .expect("no agreement");
//! let report = cluster.stop();
//! // All three processes ended up trusting the same leader.
//! let finals: Vec<ProcessId> = all
//!     .iter()
//!     .map(|&p| report.final_output_of(p).copied().expect("leader output"))
//!     .collect();
//! assert!(finals.iter().all(|&l| l == finals[0]), "disagreement: {finals:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod router;

pub use cluster::{Cluster, NetConfig, Report};
pub use lls_primitives::runtime::{OutputCursor, TimedOutput};
