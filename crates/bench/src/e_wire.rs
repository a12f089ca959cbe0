//! Experiment E15: the communication-efficiency shape over real TCP
//! sockets.

use std::time::Duration as StdDuration;

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use wirenet::{FaultConfig, LinkStats, WireCluster, WireConfig};

use crate::e_thread::sender_series;
use crate::table::Table;

/// **E15** — E10's election over real localhost TCP connections (framed
/// wire codec, per-peer sockets, injected loss at the socket layer). The
/// final rows add socket-level totals the other substrates cannot measure:
/// real bytes on the wire, reconnects, and decode failures.
pub fn e15_wirenet(n: usize, loss: f64, windows: usize, window_ms: u64) -> Table {
    // A generous tick (η = 5 ms, suspicion timeout = 15 ms): on a loaded
    // machine, millisecond-scale scheduler jitter must stay well inside the
    // timeout or false accusations keep the sender set churning.
    let config = WireConfig {
        n,
        tick: StdDuration::from_micros(500),
        faults: (loss > 0.0).then_some(FaultConfig {
            loss,
            min_delay: StdDuration::from_micros(100),
            max_delay: StdDuration::from_micros(900),
            seed: 9,
        }),
        ..WireConfig::default()
    };
    let cluster = WireCluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    let (mut t, report) = sender_series(cluster, windows, window_ms);
    // Socket-level totals: what actually crossed the wire.
    let totals = (0..n as u32)
        .map(|p| report.node_links_total(ProcessId(p)))
        .fold(LinkStats::default(), LinkStats::merge);
    t.row(vec![
        "wire".into(),
        format!("bytes_sent={}", totals.bytes_sent),
        format!("frames={}", totals.msgs_sent),
    ]);
    t.row(vec![
        "faults".into(),
        format!(
            "injected_drops={} queue_drops={}",
            totals.injected_drops, totals.queue_drops
        ),
        format!(
            "reconnects={} decode_errors={}",
            totals.reconnects, totals.decode_errors
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_produces_series_and_agreement() {
        let t = e15_wirenet(3, 0.02, 3, 150);
        let s = t.render();
        assert!(s.contains("agreement=true"), "{s}");
        assert!(s.contains("bytes_sent="), "{s}");
    }
}
