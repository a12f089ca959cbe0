//! Experiment harness for the limited-link-synchrony reproduction.
//!
//! PODC 2004 is a theory paper — its "evaluation" is a set of theorems and
//! complexity claims. Each experiment here (E1–E16, indexed in `DESIGN.md`
//! and reported in `EXPERIMENTS.md`) turns one claim into a measurement and
//! regenerates the corresponding table or series:
//!
//! | Id  | Claim |
//! |-----|-------|
//! | E1  | Ω holds in system S (one ♦-source, fair-lossy mesh) |
//! | E2  | Communication efficiency: the sender set collapses to 1 |
//! | E3  | Steady-state message complexity Θ(n) vs Θ(n²) baselines |
//! | E4  | Robustness: stabilization vs loss rate × GST |
//! | E5  | The final leader's accusation counter is bounded |
//! | E6  | Consensus is safe and live in S_maj |
//! | E7  | Consensus steady state is communication-efficient |
//! | E8  | Synchrony crossover: one ♦-source suffices; all-to-all needs more |
//! | E9  | Ablation: accusation dedup and timeout growth both matter |
//! | E10 | The communication-efficiency shape survives on real threads |
//! | E11 | Relaying extends Ω to eventually-timely *paths* |
//! | E12 | Timeout adaptation is necessary (deterministic blink adversary) |
//! | E13 | QoS: detection time vs timeout after a leader crash |
//! | E14 | Ω-gated consensus vs rotating-coordinator (◇S) baseline |
//! | E15 | The communication-efficiency shape survives on real TCP sockets |
//! | E16 | Crash–restart chaos: durable state keeps both checkers green on all substrates |
//! | E17 | Steady-state efficiency live-checked through the probe/metrics pipeline |
//! | E18 | Causal tracing plane: spans, watchdog alarms, live scrape |
//! | E19 | Batching + pipelining multiply steady-state throughput (≥ 3× baseline) |
//! | E20 | Sharded multi-group RSM scales near-linearly with one shared Ω per node |
//! | E21 | Bounded recovery: snapshots + WAL compaction keep restart cost flat under chaos |
//! | E22 | Per-command latency attribution adds up; the timeline plane serves live frames |
//! | E23 | Leader leases: lease/read-index reads are fast, never stale, and Ω-traffic-neutral |
//!
//! Run everything with `cargo run -p omega-bench --release --bin experiments -- all`,
//! or one experiment by id (`-- e3`). Alongside each human table the CLI
//! writes a machine-readable `BENCH_E*.json` summary (see [`json`]).

#![forbid(unsafe_code)]

pub mod e_chaos;
pub mod e_consensus;
pub mod e_latency;
pub mod e_obs;
pub mod e_omega;
pub mod e_read;
pub mod e_recovery;
pub mod e_shard;
pub mod e_thread;
pub mod e_throughput;
pub mod e_trace;
pub mod e_wire;
pub mod json;
pub mod table;
mod wall;

/// Quantile helper used by several experiments (nearest-rank).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1, 2, 3, 4, 100];
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 50.0), 3);
        assert_eq!(percentile(&v, 100.0), 100);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }
}
