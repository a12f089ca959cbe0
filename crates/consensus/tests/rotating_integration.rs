//! The rotating-coordinator baseline end-to-end: safe always, live in
//! `S_maj`, and measurably more round-churny than the Ω-gated design.

use consensus::checker::{check_consensus_safety, DecisionRecord};
use consensus::{ConsensusParams, RotEvent, RotatingConsensus};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Simulator, SystemSParams, Topology};

fn decisions(sim: &Simulator<RotatingConsensus<u64>>) -> Vec<DecisionRecord<u64>> {
    sim.outputs()
        .iter()
        .filter_map(|e| match &e.output {
            RotEvent::Decided(v) => Some(DecisionRecord {
                at: e.at,
                process: e.process,
                value: *v,
            }),
            _ => None,
        })
        .collect()
}

fn run(
    n: usize,
    seed: u64,
    topo: Topology,
    horizon: u64,
    crashes: &[(u32, u64)],
) -> Simulator<RotatingConsensus<u64>> {
    let mut builder = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(topo);
    for &(p, t) in crashes {
        builder = builder.crash_at(ProcessId(p), Instant::from_ticks(t));
    }
    let mut sim = builder.build_with(|env| {
        RotatingConsensus::new(env, ConsensusParams::default(), 100 + env.id().0 as u64)
    });
    sim.run_until(Instant::from_ticks(horizon));
    sim
}

fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|p| 100 + p).collect()
}

#[test]
fn decides_on_timely_links_in_round_zero() {
    let n = 5;
    let sim = run(
        n,
        1,
        Topology::all_timely(n, Duration::from_ticks(2)),
        20_000,
        &[],
    );
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    assert_eq!(ds.len(), n);
    // With perfect links nobody should ever leave round 0.
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(sim.node(p).rounds_entered(), 1, "{p} churned rounds");
    }
}

#[test]
fn decides_in_system_s_despite_loss() {
    for seed in 0..4u64 {
        let n = 5;
        let topo = Topology::system_s(n, ProcessId((seed % 5) as u32), SystemSParams::default());
        let sim = run(n, seed, topo, 150_000, &[]);
        let ds = decisions(&sim);
        check_consensus_safety(&ds, &proposals(n)).unwrap();
        assert_eq!(ds.len(), n, "seed {seed}: all must decide");
    }
}

#[test]
fn survives_coordinator_crashes_while_majority_lives() {
    let n = 5;
    // Crash p0 and p1 — the coordinators of rounds 0 and 1 — immediately.
    let topo = Topology::system_s(n, ProcessId(3), SystemSParams::default());
    let sim = run(n, 9, topo, 200_000, &[(0, 10), (1, 10)]);
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    for p in [2u32, 3, 4] {
        assert!(
            ds.iter().any(|d| d.process == ProcessId(p)),
            "survivor p{p} did not decide"
        );
    }
    // The survivors necessarily churned past the dead coordinators.
    assert!(sim.node(ProcessId(2)).rounds_entered() > 1);
}

#[test]
fn no_majority_means_no_decision_but_no_unsafety() {
    let n = 4;
    let topo = Topology::system_s(n, ProcessId(3), SystemSParams::default());
    let sim = run(n, 2, topo, 60_000, &[(0, 5), (1, 5), (2, 5)]);
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    assert!(ds.is_empty(), "no quorum should form: {ds:?}");
}

#[test]
fn round_churn_is_the_price_of_rotation() {
    // Under a late GST the rotating design burns through rounds while the
    // coordinators are unreachable — the instability Ω-gating removes.
    let n = 5;
    let topo = Topology::system_s(
        n,
        ProcessId(2),
        SystemSParams {
            gst: 5_000,
            pre_gst_loss: 0.9,
            mesh_loss: 0.5,
            ..SystemSParams::default()
        },
    );
    let sim = run(n, 7, topo, 200_000, &[]);
    let ds = decisions(&sim);
    check_consensus_safety(&ds, &proposals(n)).unwrap();
    assert_eq!(ds.len(), n);
    let max_rounds = (0..n as u32)
        .map(|p| sim.node(ProcessId(p)).rounds_entered())
        .max()
        .unwrap();
    assert!(
        max_rounds > 2,
        "expected round churn under a hostile prefix, got {max_rounds}"
    );
}
