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
//! The runtime exists to show the algorithms are not simulator-bound
//! (experiment E10 reruns the communication-efficiency measurement here) and
//! to serve as a deployment-shaped integration harness. It is intentionally
//! *not* deterministic — determinism lives in `netsim`.
//!
//! # Example
//!
//! ```
//! use std::time::{Duration as StdDuration, Instant as StdInstant};
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
//! // Agreement is eventual: poll until all three have named one leader for
//! // five polls in a row.
//! let deadline = StdInstant::now() + StdDuration::from_secs(20);
//! let (mut named, mut streak) = (None, 0);
//! while streak < 5 {
//!     std::thread::sleep(StdDuration::from_millis(50));
//!     let latest = cluster.latest_outputs();
//!     let agreed = latest[0].filter(|l| latest.iter().all(|v| *v == Some(*l)));
//!     streak = if agreed.is_some() && agreed == named { streak + 1 } else { 0 };
//!     named = agreed;
//!     assert!(StdInstant::now() < deadline, "no agreement: {latest:?}");
//! }
//! let report = cluster.stop();
//! // All three processes ended up trusting the same leader.
//! let finals: Vec<ProcessId> = (0..3)
//!     .map(|p| report.final_output_of(ProcessId(p)).copied().expect("leader output"))
//!     .collect();
//! assert!(finals.iter().all(|&l| l == finals[0]), "disagreement: {finals:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
mod router;

pub use cluster::{Cluster, NetConfig, Report};
pub use lls_primitives::runtime::{OutputCursor, TimedOutput};
