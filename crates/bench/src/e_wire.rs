//! Experiment E15: the communication-efficiency shape over real TCP
//! sockets.

use std::time::Duration as StdDuration;

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use wirenet::{BackoffConfig, FaultConfig, WireCluster, WireConfig};

use crate::table::Table;

/// **E15** — run the election over real localhost TCP connections (framed
/// wire codec, per-peer sockets, injected loss at the socket layer) and
/// sample the sender set every `window_ms`: the series must collapse toward
/// a single sender, matching E2 (simulator) and E10 (thread mesh). The
/// final rows add socket-level totals the other substrates cannot measure:
/// real bytes on the wire, reconnects, and decode failures.
pub fn e15_wirenet(n: usize, loss: f64, windows: usize, window_ms: u64) -> Table {
    // A generous tick (η = 5 ms, suspicion timeout = 15 ms): on a loaded
    // machine, millisecond-scale scheduler jitter must stay well inside the
    // timeout or false accusations keep the sender set churning.
    let config = WireConfig {
        n,
        tick: StdDuration::from_micros(500),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: (loss > 0.0).then_some(FaultConfig {
            loss,
            min_delay: StdDuration::from_micros(100),
            max_delay: StdDuration::from_micros(900),
            seed: 9,
        }),
        ..WireConfig::default()
    };
    let cluster = WireCluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    let mut t = Table::new(vec!["t(ms)", "msgs_in_window", "senders"]);
    let mut prev = vec![0u64; n];
    for step in 1..=windows {
        std::thread::sleep(StdDuration::from_millis(window_ms));
        let (sent, _) = cluster.traffic_snapshot();
        let window: Vec<u64> = sent.iter().zip(&prev).map(|(a, b)| a - b).collect();
        let senders = window.iter().filter(|c| **c > 0).count();
        t.row(vec![
            (step as u64 * window_ms).to_string(),
            window.iter().sum::<u64>().to_string(),
            senders.to_string(),
        ]);
        prev = sent;
    }
    let report = cluster.stop();
    // Final agreement across all processes, as in E10.
    let leader = report.final_output_of(ProcessId(0)).copied();
    let agreed = (0..n as u32)
        .map(ProcessId)
        .all(|p| report.final_output_of(p).copied() == leader);
    t.row(vec![
        "final".into(),
        format!(
            "leader={}",
            leader.map(|l| l.to_string()).unwrap_or("-".into())
        ),
        format!("agreement={agreed}"),
    ]);
    // Socket-level totals: what actually crossed the wire.
    let totals = (0..n as u32)
        .map(|p| report.node_links_total(ProcessId(p)))
        .fold(wirenet::LinkStats::default(), |acc, s| acc.merge(s));
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
