//! Deterministic discrete-event network simulator for partially synchronous,
//! crash-prone message-passing systems.
//!
//! This is the substrate every experiment in the workspace runs on. The
//! paper's system model — fair-lossy links, an unknown global stabilization
//! time (GST), unknown delay bounds `δ`, crash failures — is adversarial, and
//! its theorems quantify over all admissible schedules ("there is a time after
//! which …"). The only way to *test* such claims is to run the identical
//! protocol code under many concrete adversarial schedules, deterministically,
//! and inspect full traces. This crate provides exactly that:
//!
//! * **Link models** ([`LinkModel`]): timely, eventually timely (with a GST
//!   before which messages are delayed or lost), fair lossy, lossy
//!   asynchronous, and dead links — per ordered process pair
//!   ([`Topology`]).
//! * **Fault injection** ([`FaultPlan`]): crash-stop schedules per process.
//! * **Determinism**: one seed drives every random choice; equal-time events
//!   tie-break by insertion order, so a run is a pure function of
//!   `(protocol, topology, faults, seed)`.
//! * **Instrumentation** ([`Stats`], [`OutputEvent`]): per-process and
//!   per-kind message counts, per-window sender sets (for the paper's
//!   *communication efficiency* property), last-send times, and, for a
//!   harness that asks with [`SimBuilder::record_outputs`], a timestamped
//!   history of protocol outputs (leader changes, decisions).
//!
//! # Example: two processes ping-pong over a timely mesh
//!
//! ```
//! use lls_primitives::{Ctx, ProcessId, Sm, TimerId, Instant, Duration};
//! use netsim::{SimBuilder, Topology};
//!
//! #[derive(Debug)]
//! struct Echo;
//! impl Sm for Echo {
//!     type Msg = u64;
//!     type Output = u64;
//!     type Request = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u64, u64>) {
//!         if ctx.id() == ProcessId(0) {
//!             ctx.send(ProcessId(1), 1);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u64, u64>, from: ProcessId, msg: u64) {
//!         ctx.output(msg);
//!         if msg < 3 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64, u64>, _t: TimerId) {}
//! }
//!
//! let mut sim = SimBuilder::new(2)
//!     .topology(Topology::all_timely(2, Duration::from_ticks(1)))
//!     .record_outputs()
//!     .build_with(|_env| Echo);
//! sim.run_until(Instant::from_ticks(100));
//! let seen: Vec<u64> = sim.outputs().iter().map(|e| e.output).collect();
//! assert_eq!(seen, vec![1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod delay;
mod event;
mod fault;
mod link;
mod sim;
mod stats;
mod topology;
mod trace;

pub use delay::DelayDist;
pub use fault::FaultPlan;
pub use link::{LinkFate, LinkModel};
pub use sim::{CausalDelivery, OutputEvent, SimBuilder, Simulator};
pub use stats::{Stats, WindowStats};
pub use topology::{SystemSParams, Topology};
pub use trace::{Trace, TraceKind, TraceRecord};
