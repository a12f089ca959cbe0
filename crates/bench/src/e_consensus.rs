//! Experiments E6–E7: the consensus claims.

use consensus::checker::{check_consensus_safety, DecisionRecord};
use consensus::{classify_rsm_msg, Consensus, ConsensusParams, ReplicatedLog};
use lls_obs::Probe;
use lls_primitives::{Env, Instant, ProcessId, Sm};
use netsim::{SimBuilder, Simulator, SystemSParams, Topology};

use crate::percentile;
use crate::table::Table;

/// Every `Decided` output of a single-shot consensus run (E6, E14, E16).
pub(crate) fn decisions<P: Probe>(sim: &Simulator<Consensus<u64, P>>) -> Vec<DecisionRecord<u64>> {
    let outputs = sim.outputs().iter();
    outputs
        .filter_map(|e| e.output.decision(e.at, e.process))
        .collect()
}

/// Single-shot consensus at `env`, proposing 100 + its id (E6, E14).
fn proposer(env: &Env) -> Consensus<u64> {
    Consensus::new(
        env,
        ConsensusParams::default(),
        Some(100 + env.id().0 as u64),
    )
}

/// The `q`-th percentile of the sorted `values`, or `-` when there are none.
fn percentile_cell(values: &[u64], q: f64) -> String {
    if values.is_empty() {
        "-".into()
    } else {
        percentile(values, q).to_string()
    }
}

/// **E6** — consensus safety (always) and liveness (with a correct majority)
/// across sizes, loss rates and minority-crash schedules.
pub fn e6_consensus(seeds: u64, horizon: u64) -> Table {
    let mut t = Table::new(vec![
        "n",
        "mesh_loss",
        "crashes",
        "safety_violations",
        "all_correct_decided",
        "decide_t(p50)",
        "decide_t(p95)",
    ]);
    for &n in &[3usize, 5, 7] {
        for &loss in &[0.1, 0.4] {
            for crash_minority in [false, true] {
                let crashes = if crash_minority { (n - 1) / 2 } else { 0 };
                let mut violations = 0usize;
                let mut all_decided = 0usize;
                let mut decide_times = Vec::new();
                for seed in 0..seeds {
                    let source = (seed % n as u64) as u32;
                    let topo = Topology::system_s(
                        n,
                        ProcessId(source),
                        SystemSParams {
                            mesh_loss: loss,
                            ..SystemSParams::default()
                        },
                    );
                    let mut builder = SimBuilder::new(n)
                        .record_outputs()
                        .seed(seed)
                        .topology(topo);
                    let mut crashed = vec![false; n];
                    let mut scheduled = 0usize;
                    for p in 0..n as u32 {
                        if scheduled == crashes {
                            break;
                        }
                        if p != source {
                            crashed[p as usize] = true;
                            scheduled += 1;
                            // Crash early — before typical decision times —
                            // so the crash arm genuinely stresses liveness.
                            builder = builder
                                .crash_at(ProcessId(p), Instant::from_ticks(40 * (p as u64 + 1)));
                        }
                    }
                    let mut sim = builder.build_with(proposer);
                    sim.run_until(Instant::from_ticks(horizon));
                    let ds = decisions(&sim);
                    let proposals: Vec<u64> = (0..n as u64).map(|p| 100 + p).collect();
                    if check_consensus_safety(&ds, &proposals).is_err() {
                        violations += 1;
                    }
                    let correct_decided = (0..n as u32)
                        .filter(|&p| !crashed[p as usize])
                        .all(|p| ds.iter().any(|d| d.process == ProcessId(p)));
                    if correct_decided {
                        all_decided += 1;
                    }
                    decide_times.extend(ds.iter().map(|d| d.at.ticks()));
                }
                decide_times.sort_unstable();
                t.row(vec![
                    n.to_string(),
                    format!("{loss:.1}"),
                    crashes.to_string(),
                    violations.to_string(),
                    format!("{all_decided}/{seeds}"),
                    percentile_cell(&decide_times, 50.0),
                    percentile_cell(&decide_times, 95.0),
                ]);
            }
        }
    }
    t
}

/// How far above the theoretical 2(n−1) — one `Accept` to and one
/// `Accepted` from each follower; the followers learn the decision from
/// the leader's prefix on traffic that flows anyway — the zero-loss row of
/// E7 may read before the experiment fails.
const E7_MSGS_SLACK: f64 = 0.5;

/// **E7** — replicated-log steady state: messages per committed command by
/// kind, and the size of the sender set, once the leader is established.
///
/// Returns the table and the number of gate violations, each reported on
/// stderr: a row that commits fewer than all its commands or re-prepares in
/// steady state, and a zero-loss row whose msgs/cmd exceeds 2(n−1) by more
/// than 0.5 or whose last senders are not exactly the leader.
pub fn e7_steady_state(n: usize, commands: u64, horizon_pad: u64) -> (Table, usize) {
    let mut t = Table::new(vec![
        "mesh_loss",
        "committed",
        "prepares(steady)",
        "msgs/cmd",
        "theory 2(n-1)",
        "senders",
    ]);
    let theory = 2 * (n as u64 - 1);
    let mut violations = 0;
    for &loss in &[0.0, 0.2] {
        let topo = if loss == 0.0 {
            Topology::all_timely(n, lls_primitives::Duration::from_ticks(2))
        } else {
            Topology::system_s(
                n,
                ProcessId(0),
                SystemSParams {
                    mesh_loss: loss,
                    gst: 200,
                    ..SystemSParams::default()
                },
            )
        };
        let mut sim = SimBuilder::new(n)
            .seed(5)
            .topology(topo)
            .classify(classify_rsm_msg)
            .build_with(|env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()));
        // Establish the leader.
        sim.run_until(Instant::from_ticks(10_000));
        let leader = sim.node(ProcessId(0)).omega().leader();
        let prepares_before = sim
            .stats()
            .kind_counts()
            .get("PREPARE")
            .copied()
            .unwrap_or(0);
        let total_before = sim.stats().total_sent();
        for k in 0..commands {
            sim.schedule_request(Instant::from_ticks(10_001 + 150 * k), leader, k);
        }
        let end = 10_000 + 150 * commands + horizon_pad;
        sim.run_until(Instant::from_ticks(end));
        let prepares_after = sim
            .stats()
            .kind_counts()
            .get("PREPARE")
            .copied()
            .unwrap_or(0);
        let committed = sim.node(leader).committed_len();
        // Subtract the constant Ω heartbeat background from the marginal
        // message cost.
        let eta = ConsensusParams::default().omega.eta.ticks();
        let alive_background = ((end - 10_000) / eta) * (n as u64 - 1);
        let marginal = sim
            .stats()
            .total_sent()
            .saturating_sub(total_before)
            .saturating_sub(alive_background);
        let senders = sim
            .stats()
            .senders_since(Instant::from_ticks(end.saturating_sub(2_000)));
        let prepares = prepares_after - prepares_before;
        let msgs_per_cmd = marginal as f64 / commands as f64;
        let mut failures = Vec::new();
        if committed < commands {
            failures.push(format!("committed {committed}/{commands}"));
        }
        if prepares > 0 {
            failures.push(format!("{prepares} prepare(s) in steady state"));
        }
        if loss == 0.0 {
            if msgs_per_cmd > theory as f64 + E7_MSGS_SLACK {
                failures.push(format!("{msgs_per_cmd:.1} msgs/cmd > 2(n-1) = {theory}"));
            }
            if senders != [leader] {
                failures.push(format!("last senders {senders:?}, not only {leader}"));
            }
        }
        for failure in &failures {
            eprintln!("E7 (mesh_loss {loss:.1}): {failure}");
        }
        violations += failures.len();
        t.row(vec![
            format!("{loss:.1}"),
            format!("{committed}/{commands}"),
            prepares.to_string(),
            format!("{msgs_per_cmd:.1}"),
            theory.to_string(),
            format!("{senders:?}"),
        ]);
    }
    (t, violations)
}

/// Messages sent up to (and including) the stats window containing `t` —
/// so post-decision background traffic does not distort the comparison.
fn msgs_until(stats: &netsim::Stats, t: u64) -> u64 {
    let w = stats.window_len().ticks();
    stats
        .windows()
        .iter()
        .enumerate()
        .take_while(|(i, _)| (*i as u64) * w <= t)
        .map(|(_, win)| win.messages)
        .sum()
}

/// One E14 row: `seeds` runs of the arm `build` makes, to `horizon`. A run
/// counts once every process decided (`decided` lists the decision ticks).
/// Its messages and its churn are both read at its last decision: messages
/// from the stats windows, churn (`churn` of the final state) by running
/// the same seed again to that tick, since the Ω-gated log keeps electing
/// after its decision when its leader changes.
#[allow(clippy::too_many_arguments)]
fn e14_row<S: Sm>(
    algorithm: &str,
    loss: f64,
    gst: u64,
    seeds: u64,
    horizon: u64,
    build: impl Fn(u64) -> Simulator<S>,
    decided: impl Fn(&Simulator<S>) -> Vec<u64>,
    churn: impl Fn(&Simulator<S>) -> u64,
) -> Vec<String> {
    let mut times = Vec::new();
    let mut msgs = 0u64;
    let mut churned = 0u64;
    let mut decided_runs = 0usize;
    for seed in 0..seeds {
        let mut sim = build(seed);
        sim.run_until(Instant::from_ticks(horizon));
        let ds = decided(&sim);
        if ds.len() == sim.n() {
            decided_runs += 1;
            let last = *ds.iter().max().unwrap();
            times.push(last);
            msgs += msgs_until(sim.stats(), last);
            let mut rerun = build(seed);
            rerun.run_until(Instant::from_ticks(last));
            churned += churn(&rerun);
        }
    }
    times.sort_unstable();
    vec![
        algorithm.to_owned(),
        format!("{loss:.1}"),
        gst.to_string(),
        format!("{decided_runs}/{seeds}"),
        percentile_cell(&times, 50.0),
        percentile_cell(&times, 95.0),
        format!("{:.0}", msgs as f64 / decided_runs.max(1) as f64),
        format!("{:.1}", churned as f64 / decided_runs.max(1) as f64),
    ]
}

/// **E14** — Ω-gated consensus vs the rotating-coordinator baseline
/// (Chandra–Toueg ◇S style), same substrate and adversary: decision
/// latency, total messages until everyone has decided, and churn until
/// everyone has decided (the highest ballot round any process promised, or
/// the most rounds any process entered). The comparison the paper's
/// consensus section implies: Ω-gating removes coordinator roulette.
pub fn e14_vs_rotating(n: usize, seeds: u64, horizon: u64) -> Table {
    use consensus::{RotEvent, RotatingConsensus};
    let mut t = Table::new(vec![
        "algorithm",
        "mesh_loss",
        "gst",
        "all_decided",
        "decide_t(p50)",
        "decide_t(p95)",
        "msgs_to_decide(mean)",
        "churn(mean)",
    ]);
    let max_over = |f: &dyn Fn(ProcessId) -> u64| (0..n as u32).map(|p| f(ProcessId(p))).max();
    for &(loss, gst) in &[(0.1, 200u64), (0.4, 2_000)] {
        let topo = |seed: u64| {
            Topology::system_s(
                n,
                ProcessId((seed % n as u64) as u32),
                SystemSParams {
                    mesh_loss: loss,
                    gst,
                    ..SystemSParams::default()
                },
            )
        };
        t.row(e14_row(
            "omega-gated",
            loss,
            gst,
            seeds,
            horizon,
            |seed| {
                let sim = SimBuilder::new(n).record_outputs().seed(seed);
                sim.topology(topo(seed)).build_with(proposer)
            },
            |sim| decisions(sim).iter().map(|d| d.at.ticks()).collect(),
            |sim| max_over(&|p| sim.node(p).promised().round()).unwrap(),
        ));
        t.row(e14_row(
            "rotating-coord",
            loss,
            gst,
            seeds,
            horizon,
            |seed| {
                let sim = SimBuilder::new(n).record_outputs().seed(seed);
                sim.topology(topo(seed)).build_with(|env| {
                    RotatingConsensus::new(env, ConsensusParams::default(), 100 + env.id().0 as u64)
                })
            },
            |sim| {
                let decided = sim.outputs().iter().filter_map(|e| match e.output {
                    RotEvent::Decided(_) => Some(e.at.ticks()),
                    _ => None,
                });
                decided.collect()
            },
            |sim| max_over(&|p| sim.node(p).rounds_entered()).unwrap(),
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_small_run_has_no_violations() {
        let t = e6_consensus(1, 60_000);
        let s = t.render();
        for line in s.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[3], "0", "safety violation reported:\n{s}");
        }
    }

    #[test]
    fn e7_steady_state_runs_no_prepares() {
        let (t, violations) = e7_steady_state(3, 10, 5_000);
        let s = t.render();
        assert_eq!(violations, 0, "E7 gates:\n{s}");
        let loss0 = s.lines().nth(2).unwrap();
        let cols: Vec<&str> = loss0.split_whitespace().collect();
        assert_eq!(cols[1], "10/10", "all commands must commit:\n{s}");
        assert_eq!(cols[2], "0", "steady state must not re-prepare:\n{s}");
    }
}
