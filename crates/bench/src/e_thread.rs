//! Experiment E10: the communication-efficiency shape on real threads,
//! measured by the body E15 shares over real TCP sockets.

use std::time::Duration as StdDuration;

use lls_primitives::runtime::Cluster;
use lls_primitives::ProcessId;
use omega::{CommEffOmega, OmegaParams};
use threadnet::NetConfig;

use crate::table::Table;

/// Samples the sender set every `window_ms` while the election runs, then
/// stops the cluster and adds a row saying whether every process ended up
/// trusting one leader. The series must collapse toward a single sender,
/// matching the simulator's E2 shape on a wall clock.
pub(crate) fn sender_series<C: Cluster<Sm = CommEffOmega>>(
    cluster: C,
    windows: usize,
    window_ms: u64,
) -> (Table, C::Report) {
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
    let report = cluster.stop();
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
    (t, report)
}

/// **E10** — the election on the thread runtime with injected loss, its
/// sender set sampled every `window_ms`.
pub fn e10_threadnet(n: usize, loss: f64, windows: usize, window_ms: u64) -> Table {
    let config = NetConfig {
        n,
        loss,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(900),
        tick: StdDuration::from_micros(250),
        seed: 9,
    };
    let cluster =
        threadnet::Cluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    sender_series(cluster, windows, window_ms).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_produces_series_and_agreement() {
        let t = e10_threadnet(3, 0.02, 3, 150);
        let s = t.render();
        assert!(s.contains("agreement=true"), "{s}");
    }
}
