//! Parameters and timer names shared by every consensus machine in this
//! crate: the replicated log, the sharded node, single-shot consensus and
//! the rotating-coordinator baseline.

use lls_primitives::{Duration, TimerId};
use omega::{BatchParams, OmegaParams};

/// Timer driving retransmission and proposer restarts.
pub const RETRY_TIMER: TimerId = TimerId(0);

/// Embedded Ω timers are remapped above this base.
pub const OMEGA_TIMER_BASE: u32 = 1_000;

/// Parameters of a consensus instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsensusParams {
    /// Parameters of the embedded Ω detector.
    pub omega: OmegaParams,
    /// Retransmission / proposer-restart period.
    pub retry: Duration,
    /// Batching/pipelining knobs of the replicated log's leader fast path
    /// (single-shot consensus proposes one command, so never batches).
    pub batch: BatchParams,
    /// Leader-lease knobs of the replicated log's fast read path (off by
    /// default).
    pub lease: LeaseParams,
}

impl Default for ConsensusParams {
    /// Ω defaults plus a 40-tick retry period; batching off, leases off.
    fn default() -> Self {
        ConsensusParams {
            omega: OmegaParams::default(),
            retry: Duration::from_ticks(40),
            batch: BatchParams::default(),
            lease: LeaseParams::default(),
        }
    }
}

/// Leader-lease parameters of the replicated log's fast read path.
///
/// A lease is a *bet on the ♦-timely-source assumption*: the leader asks a
/// quorum to promise not to promise a competing ballot for `duration`, and
/// the grant is only useful if the two clocks advance at comparable rates.
/// The safety margin is asymmetric on purpose — each **granter** holds off
/// elections until `receipt + duration + skew` on its own clock, while the
/// **leader** stops serving lease-reads at `round_start + duration - skew`
/// on its clock — so with per-process clock error bounded by `skew`, the
/// leader's serving window always ends before any granter frees itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseParams {
    /// Master switch. Off by default: with leases disabled the log behaves
    /// exactly as before this feature existed (no grant traffic, no boot
    /// blackout, lease-reads refused).
    pub enabled: bool,
    /// Nominal lease length, granted per renewal round. Renewals ride the
    /// retry timer, so this should comfortably exceed `retry` or the lease
    /// blinks off between ticks.
    pub duration: Duration,
    /// Bound on per-process clock error over one lease. Subtracted from the
    /// leader's serving window and added to the granters' holdoff.
    pub skew: Duration,
    /// **Test-only sabotage switch**: invert the skew margins (leader serves
    /// until `+ skew`, granters free at `- skew`), recreating the classic
    /// broken-lease implementation that trusts clocks exactly. The
    /// induced-violation plane (E23) uses this to prove the `StaleRead`
    /// watchdog catches a real violation. Never enable outside tests.
    pub unsafe_skew_inversion: bool,
}

impl Default for LeaseParams {
    /// Disabled; 120-tick leases with an 8-tick skew bound when enabled.
    fn default() -> Self {
        LeaseParams {
            enabled: false,
            duration: Duration::from_ticks(120),
            skew: Duration::from_ticks(8),
            unsafe_skew_inversion: false,
        }
    }
}

impl LeaseParams {
    /// Enabled lease with the default duration/skew — the common test knob.
    pub fn enabled() -> Self {
        LeaseParams {
            enabled: true,
            ..LeaseParams::default()
        }
    }
}
