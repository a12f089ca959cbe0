//! Flight-recorder observability for the limited-link-synchrony protocols.
//!
//! The paper's headline claims are *observational*: after stabilization
//! only the leader's n−1 links carry traffic, accusation counters stop
//! climbing, and elections settle inside a bounded window. This crate turns
//! those claims into live signals, with three pieces:
//!
//! * **[`Probe`]** — a typed event sink every protocol state machine
//!   accepts as a type parameter (defaulting to [`NoopProbe`], which
//!   monomorphizes to nothing). Machines emit [`ProbeEvent`]s at exactly
//!   the paper-meaningful transitions: leader changes, accusations sent and
//!   absorbed, incarnation bumps, timeout adaptations, ballot phase
//!   transitions, decisions, and WAL append/recover/wedge.
//! * **[`Registry`]** — a lock-light metrics registry (atomic
//!   [`Counter`]s, [`Gauge`]s, fixed-bucket log-scale [`Histogram`]s) with
//!   Prometheus text exposition and a JSON snapshot. Substrate accounting
//!   (`netsim` stats, `wirenet` socket counters)
//!   exports into the same table, so one scrape shows protocol events next
//!   to wire traffic.
//! * **[`FlightRecorder`]** — a bounded per-node ring of recent events,
//!   fed by [`RecordingProbe`] and bundled per-cluster by
//!   [`NodeRecorders`]. When a checker trips, the ring *is* the
//!   post-mortem: the last things each node did before the property broke.
//! * **[`trace`]** — cross-node span reconstruction: every recorded event
//!   carries the node's Lamport clock (advanced by the substrates on each
//!   send/receive), and [`reconstruct_spans`] stitches the per-node streams
//!   into accusation→counter-bump→leader-change and phase→quorum-decide
//!   chains with causal depth and tick latency.
//! * **[`Watchdog`]** — an online invariant monitor over the live probe
//!   stream: once armed (stabilization declared) it raises structured
//!   [`Alarm`]s — flight dump attached — the moment a steady-state property
//!   (no flaps, flat accusation counters, leader-only senders) degrades,
//!   plus stage-stall detectors over the command path (fsync p99 spikes,
//!   batch-seal stalls, catch-up stalls).
//! * **[`lifecycle`]** — per-command latency attribution: reconstructs each
//!   client command's critical path from its [`probe::CmdStage`] events
//!   (enqueue → … → reply) and folds the telescoping per-stage deltas into
//!   per-shard log2 histograms; E22 gates on the attribution summing to the
//!   independently measured end-to-end latency.
//! * **[`timeline`]** — a bounded-ring time-series sampler: periodic
//!   registry snapshots diffed into frames of per-window counter rates and
//!   interpolated p50/p99, served live by wirenet's `/timeline` route and
//!   embedded in `BENCH_E*.json`.
//!
//! # Example
//!
//! ```
//! use lls_obs::{NodeRecorders, Probe, ProbeEvent};
//! use lls_primitives::{Instant, ProcessId};
//!
//! let bundle = NodeRecorders::new(3, 64);
//! let probe = bundle.probe_for(ProcessId(0));
//! probe.emit(ProbeEvent::LeaderChange {
//!     node: ProcessId(0),
//!     at: Instant::from_ticks(42),
//!     leader: ProcessId(2),
//! });
//! assert_eq!(bundle.registry().counter_value("probe_leader_change_total"), 1);
//! println!("{}", bundle.dump(ProcessId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod lifecycle;
pub mod metrics;
pub mod probe;
pub mod recorder;
pub mod timeline;
pub mod trace;
pub mod watchdog;

pub use lifecycle::{attribute, fold_into_registry, reconstruct_paths, Attribution, CmdPath};
pub use metrics::{
    aggregate_shard_registries, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, HISTOGRAM_BUCKETS,
};
pub use probe::{CmdId, CmdStage, NoopProbe, Probe, ProbeEvent, ReadMode};
pub use recorder::{FlightRecorder, NodeRecorders, RecordedEvent, RecordingProbe};
pub use timeline::{TimelineFrame, TimelineSampler, WindowQuantiles};
pub use trace::{reconstruct_spans, spans_json, SpanHop, SpanKind, SpanRecord};
pub use watchdog::{Alarm, AlarmKind, Watchdog, WatchdogConfig, WatchdogProbe};
