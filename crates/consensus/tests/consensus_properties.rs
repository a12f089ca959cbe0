//! Property-based tests: consensus safety in *every* run (even without a
//! correct majority or a ♦-source) and liveness in admissible runs.

use std::collections::BTreeMap;

use consensus::checker::{check_consensus_safety, check_log_consistency, DecisionRecord};
use consensus::{Consensus, ConsensusEvent, ConsensusParams, ReplicatedLog};
use lls_primitives::{Env, Instant, ProcessId, StorageHandle};
use netsim::{SimBuilder, SystemSParams, Topology};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Adversary {
    n: usize,
    source: u32,
    seed: u64,
    gst: u64,
    mesh_loss: f64,
    crashes: Vec<(u32, u64)>,
}

/// Arbitrary adversaries — *including* ones that crash a majority or the
/// source. Safety must hold regardless; liveness is only asserted for
/// admissible ones.
fn adversary() -> impl Strategy<Value = Adversary> {
    (3usize..=6, any::<u64>(), 0u64..4_000, 0.0f64..0.6)
        .prop_flat_map(|(n, seed, gst, mesh_loss)| {
            (
                Just(n),
                0..n as u32,
                Just(seed),
                Just(gst),
                Just(mesh_loss),
                proptest::collection::vec((0..n as u32, 0u64..30_000), 0..n),
            )
        })
        .prop_map(|(n, source, seed, gst, mesh_loss, crashes)| Adversary {
            n,
            source,
            seed,
            gst,
            mesh_loss,
            crashes,
        })
}

fn run(adv: &Adversary, horizon: u64) -> netsim::Simulator<Consensus<u64>> {
    let topo = Topology::system_s(
        adv.n,
        ProcessId(adv.source),
        SystemSParams {
            gst: adv.gst,
            mesh_loss: adv.mesh_loss,
            ..SystemSParams::default()
        },
    );
    let mut builder = SimBuilder::new(adv.n).seed(adv.seed).topology(topo);
    let mut crashed = vec![false; adv.n];
    for &(p, t) in &adv.crashes {
        if !crashed[p as usize] {
            crashed[p as usize] = true;
            builder = builder.crash_at(ProcessId(p), Instant::from_ticks(t));
        }
    }
    let mut sim = builder.build_with(|env| {
        Consensus::new(
            env,
            ConsensusParams::default(),
            Some(100 + env.id().0 as u64),
        )
    });
    sim.run_until(Instant::from_ticks(horizon));
    sim
}

fn decisions(sim: &netsim::Simulator<Consensus<u64>>) -> Vec<DecisionRecord<u64>> {
    sim.outputs()
        .iter()
        .filter_map(|e| match &e.output {
            ConsensusEvent::Decided(v) => Some(DecisionRecord {
                at: e.at,
                process: e.process,
                value: *v,
            }),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Safety is unconditional: agreement, integrity and validity hold in
    /// every run, however hostile.
    #[test]
    fn safety_holds_under_arbitrary_adversaries(adv in adversary()) {
        let sim = run(&adv, 60_000);
        let ds = decisions(&sim);
        let proposals: Vec<u64> = (0..adv.n as u64).map(|p| 100 + p).collect();
        if let Err(e) = check_consensus_safety(&ds, &proposals) {
            prop_assert!(false, "{e} under {adv:?}");
        }
    }

    /// Liveness holds in admissible runs: source correct, majority correct.
    #[test]
    fn liveness_holds_in_admissible_runs(mut adv in adversary()) {
        // Make the adversary admissible: spare the source, keep a majority.
        adv.crashes.retain(|&(p, _)| p != adv.source);
        let allowed = (adv.n - 1) / 2; // crashes strictly below half
        adv.crashes.truncate(allowed);
        let sim = run(&adv, 120_000);
        let ds = decisions(&sim);
        let mut crashed = vec![false; adv.n];
        for &(p, _) in &adv.crashes {
            crashed[p as usize] = true;
        }
        for p in 0..adv.n as u32 {
            if !crashed[p as usize] {
                prop_assert!(
                    ds.iter().any(|d| d.process == ProcessId(p)),
                    "correct p{p} did not decide under {adv:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Replicated-log slot agreement under random command interleavings,
    /// loss and (optionally) the leader killed and restarted from its WAL
    /// mid-stream: no two replicas ever commit different entries at a slot,
    /// however followers learned them (leader prefixes, catch-up, or
    /// snapshot-free WAL recovery).
    #[test]
    fn log_consistency_under_random_workloads(
        seed in any::<u64>(),
        mesh_loss in 0.0f64..0.5,
        cmds in 1usize..30,
        kill in proptest::option::of((0u64..9_000, 200u64..6_000)),
    ) {
        let n = 5;
        let topo = Topology::system_s(
            n,
            ProcessId(0),
            SystemSParams { mesh_loss, gst: 500, ..SystemSParams::default() },
        );
        // Ω only promises *some* correct process leads — not the source — so
        // submit every command to every replica: whichever replica is the
        // stable leader commits its copy of the whole stream.
        let mut builder = SimBuilder::new(n).seed(seed).topology(topo);
        for k in 0..cmds as u64 {
            for p in 0..n as u32 {
                builder = builder.request_at(
                    Instant::from_ticks(8_000 + 300 * k),
                    ProcessId(p),
                    k,
                );
            }
        }
        let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
        let params = ConsensusParams::default();
        let mut sim = builder.build_with(|env| {
            ReplicatedLog::<u64>::builder(env, params)
                .storage(stores[env.id().as_usize()].clone())
                .build()
                .expect("fresh WAL")
        });
        if let Some((at, down)) = kill {
            sim.run_until(Instant::from_ticks(8_000 + at));
            let leader = (0..n as u32)
                .map(ProcessId)
                .find(|p| sim.node(*p).is_established_leader());
            if let Some(victim) = leader {
                sim.kill(victim);
                sim.run_until(Instant::from_ticks(8_000 + at + down));
                let env = Env::new(victim, n);
                let store = stores[victim.as_usize()].clone();
                let log = ReplicatedLog::builder(&env, params).storage(store).build();
                sim.restart(victim, log.expect("WAL"));
            }
        }
        sim.run_until(Instant::from_ticks(8_000 + 300 * cmds as u64 + 80_000));
        let logs: Vec<BTreeMap<u64, Option<u64>>> = (0..n as u32)
            .map(|p| sim.node(ProcessId(p)).chosen_log())
            .collect();
        if let Err(e) = check_log_consistency(&logs) {
            prop_assert!(false, "{e} (seed={seed}, loss={mesh_loss}, cmds={cmds}, kill={kill:?})");
        }
        // Liveness: every command is committed somewhere in the shared log
        // (duplicates across leader changes are allowed; loss is not).
        let union: std::collections::BTreeSet<u64> = logs
            .iter()
            .flat_map(|log| log.values().flatten().copied())
            .collect();
        for k in 0..cmds as u64 {
            prop_assert!(
                union.contains(&k),
                "command {k} lost (seed={seed}, loss={mesh_loss}, cmds={cmds}, kill={kill:?}; union={union:?})"
            );
        }
    }
}
