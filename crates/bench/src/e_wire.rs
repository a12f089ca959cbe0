//! Experiment E15: the communication-efficiency shape over real TCP
//! sockets.

use std::time::Duration as StdDuration;

use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use wirenet::{ClusterReport, FaultConfig, LinkStats, WireCluster, WireConfig};

use crate::table::Table;
use crate::wall::all;

/// Samples the sender set every `window_ms` while the election runs, then
/// waits up to 10 s for every process to name one leader for five heartbeat
/// periods, stops the cluster, and adds a row saying whether they did. The
/// series must collapse toward a single sender, matching the simulator's E2
/// shape on a wall clock.
fn sender_series(
    cluster: WireCluster<CommEffOmega>,
    windows: usize,
    window_ms: u64,
) -> (Table, ClusterReport<ProcessId>) {
    let n = cluster.n();
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
    // A late accusation can split the processes' views at any one instant,
    // so agreement is read off an election that has held still.
    let hold = cluster.tick() * OmegaParams::default().eta.ticks() as u32 * 5;
    let timeout = StdDuration::from_secs(10);
    let settled = cluster.await_stable_leader(&all(n), |l| Some(*l), hold, timeout);
    let report = cluster.stop();
    let agreed = settled.is_some();
    let leader = settled.or_else(|| report.final_output_of(ProcessId(0)).copied());
    t.row(vec![
        "final".into(),
        format!(
            "leader={}",
            leader.map(|l| l.to_string()).unwrap_or("-".into())
        ),
        format!("agreement={agreed}"),
    ]);
    (t, report)
}

/// **E15** — the election over real localhost TCP connections (framed wire
/// codec, per-peer sockets, injected loss at the socket layer), its sender
/// set sampled every `window_ms`. The final rows add socket-level totals:
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
