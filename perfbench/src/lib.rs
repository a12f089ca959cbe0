//! End-to-end and per-layer benchmark of the limited-link-synchrony KV
//! stack. See `perfbench/README.md` for the workloads, the metrics and how
//! they relate.

pub mod bench;
pub mod check;
pub mod load;
pub mod node;
pub mod sim;
pub mod stats;
pub mod tcp;

use bench::{layer_names, Outcome, E2E};

/// The result line: one JSON object with the verdict, the operation counts
/// and every metric of the mode (end-to-end untraced, per-layer traced).
/// A metric the run could not produce reads 0, with `correct` false.
pub fn json_line(out: &Outcome, trace: bool) -> String {
    let names: Vec<(String, &str)> = if trace {
        layer_names()
    } else {
        E2E.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.metric(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        if out.attempted == 0 { 1 } else { out.failed },
        metrics.join(", ")
    )
}
