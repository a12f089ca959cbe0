//! Shared kernel for the *limited link synchrony* reproduction.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! workspace:
//!
//! * [`ProcessId`] and [`Membership`] — the process universe `Π` of the paper's
//!   model (a finite, totally ordered, known set of `n > 1` processes),
//! * [`Instant`] and [`Duration`] — discrete virtual time,
//! * the *sans-io* state-machine abstraction ([`Sm`], [`Ctx`], [`Effects`]) —
//!   algorithms are written as pure state machines that react to messages and
//!   timers by emitting *effects* (sends, timer commands, outputs). The same
//!   algorithm code then runs unchanged on the deterministic discrete-event
//!   simulator (`netsim`) and over real TCP sockets (`wirenet`),
//! * the [`wire`] codec — a versioned, checksummed binary framing shared by
//!   every transport that serialises messages onto a byte stream,
//! * the [`FaultInjector`] — the seeded loss/delay model `wirenet` applies
//!   to frames in flight,
//! * the [`clock`] module — per-process [`LamportClock`]s the substrates
//!   advance on every send and receive, giving each observability event a
//!   causal (happens-before) position for cross-node trace reconstruction,
//! * the [`storage`] module — durable per-process state ([`Storage`],
//!   [`StorageHandle`], in-memory and file-WAL backends) through which
//!   protocols persist crash-critical state so a killed process can restart
//!   without violating promises made before the crash.
//!
//! # Why sans-io?
//!
//! The paper's claims are of the form "there is a time after which …": they
//! quantify over *all* admissible schedules of an adversarial network. Testing
//! such claims requires running the identical algorithm under many adversarial
//! schedules, deterministically, and inspecting complete traces. Decoupling
//! the algorithm (pure state machine) from the environment (runtime) is what
//! makes that possible, and is standard practice for production protocol
//! implementations in Rust.
//!
//! # Example
//!
//! A trivial state machine that broadcasts a ping on start and reports who
//! answered:
//!
//! ```
//! use lls_primitives::{Ctx, Duration, Effects, Env, Instant, ProcessId, Sm, TimerId};
//!
//! struct Ping { heard: Vec<ProcessId> }
//!
//! impl Sm for Ping {
//!     type Msg = &'static str;
//!     type Output = ProcessId;
//!     type Request = ();
//!
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
//!         ctx.broadcast("ping");
//!     }
//!
//!     fn on_message(
//!         &mut self,
//!         ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
//!         from: ProcessId,
//!         msg: &'static str,
//!     ) {
//!         match msg {
//!             "ping" => ctx.send(from, "pong"),
//!             "pong" => {
//!                 self.heard.push(from);
//!                 ctx.output(from);
//!             }
//!             _ => {}
//!         }
//!     }
//!
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Output>, _t: TimerId) {}
//! }
//!
//! let env = Env::new(ProcessId(0), 3);
//! let mut fx = Effects::new();
//! let mut sm = Ping { heard: Vec::new() };
//! sm.on_start(&mut Ctx::new(&env, Instant::ZERO, &mut fx));
//! assert_eq!(fx.sends.len(), 2); // broadcast to the other two processes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod clock;
pub mod fault;
mod id;
mod sm;
pub mod storage;
mod time;
pub mod wire;

pub use clock::LamportClock;
pub use fault::{Fate, FaultInjector};
pub use id::{Membership, ProcessId};
pub use sm::{Ctx, Effects, Env, Send, Sm, TimerCmd, TimerId};
pub use storage::{
    FileSnapshotStore, FileWal, FlushStats, MemSnapshotStore, MemStorage, SegmentedWal, Snapshot,
    SnapshotHandle, SnapshotStore, Storage, StorageError, StorageHandle, StorageStats,
};
pub use time::{Duration, Instant};
pub use wire::{TraceEnvelope, Wire, WireError};

/// splitmix64: a cheap deterministic bit mixer. Retry jitter and seeded
/// schedule choices derive from it instead of an RNG, so the same seeds
/// always give the same schedule and simulated runs stay reproducible.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
