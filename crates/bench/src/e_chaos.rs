//! Experiment E16: a deterministic, seed-driven chaos campaign of
//! crash–restart scenarios on the simulator and over TCP.
//!
//! Every scenario boots a cluster whose processes carry durable storage
//! (`StorageHandle`), then composes kill/restart cycles with the existing
//! adversity injectors (mesh loss, a transient partition, link delay). The
//! victim is biased toward the *current leader* — the most disruptive
//! choice. After every recovery the relevant spec checker runs:
//!
//! * **netsim / Ω** — [`omega::spec::stabilization`] over the output trace
//!   (all correct processes trust the same correct process);
//! * **netsim / consensus** — [`check_consensus_safety`] over every decision
//!   emitted so far (agreement, integrity, validity survive the restart);
//! * **wirenet / Ω** — the wall-clock analogue of the Ω checker:
//!   unanimity of the latest outputs, held stable, within a deadline.
//!
//! All schedules derive from the scenario seed (splitmix64), so a campaign
//! is reproducible run-to-run on the simulator and statistically stable on
//! the wall clock.
//!
//! Every scenario's machines carry a [`lls_obs::RecordingProbe`] into a per-node
//! flight recorder; when a checker trips, the campaign prints the relevant
//! nodes' recorders to stderr — the post-mortem is produced at the moment
//! of the violation, not reconstructed afterwards.
//!
//! Every scenario also routes its probe stream through the online
//! [`Watchdog`]: counter monotonicity is enforced live throughout the chaos
//! (a regression anywhere is a violation), and on the deterministic
//! simulator each Ω scenario ends with an *armed* steady tail — after the
//! final re-stabilization the watchdog's flap/accusation-flatness invariants
//! must hold for a quiet window. Watchdog alarms count as checker
//! violations, so they gate the campaign (and CI) exactly like the post-hoc
//! checkers.

use std::sync::Arc;

use consensus::checker::{check_consensus_safety, DecisionRecord};
use consensus::{Consensus, ConsensusEvent, ConsensusParams};
use lls_obs::{NodeRecorders, Probe, RecordingProbe, Watchdog, WatchdogConfig, WatchdogProbe};
use lls_primitives::runtime::Cluster;
use lls_primitives::{mix64, Env, Instant, LamportClock, ProcessId, StorageHandle};
use netsim::{SimBuilder, Simulator, SystemSParams, Topology};
use omega::spec::{stabilization, LeaderRecord};
use omega::{CommEffOmega, OmegaParams};
use wirenet::WireCluster;

use crate::table::Table;
use crate::wall::{all, stable_leader, wire_config};

/// Per-configuration tally of a chaos campaign slice (E16's, E21's).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) scenarios: usize,
    pub(crate) kills: usize,
    /// Restarts from an empty disk (E21).
    pub(crate) wipes: usize,
    /// Snapshot installs observed (E21).
    pub(crate) installs: u64,
    pub(crate) checks: usize,
    pub(crate) violations: usize,
    pub(crate) successes: usize,
}

impl Tally {
    /// Counts one checked invariant; a failed one is a violation, reported
    /// on stderr with `dump()`. Returns `passed`.
    pub(crate) fn check(&mut self, passed: bool, dump: impl FnOnce() -> String) -> bool {
        self.checks += 1;
        if !passed {
            self.violations += 1;
            eprintln!("{}", dump());
        }
        passed
    }
}

/// The post-mortem artifact: the flight-recorder contents of the nodes
/// implicated in a checker violation, oldest event first. E16 and E21 print
/// this to stderr the moment a checker trips.
pub(crate) fn violation_dump(
    context: &str,
    recorders: &NodeRecorders,
    nodes: &[ProcessId],
) -> String {
    let mut out = format!("CHECKER VIOLATION ({context}) — flight-recorder post-mortem:\n");
    for &p in nodes {
        out.push_str(&recorders.dump(p));
    }
    out
}

/// Counts "the watchdog raised no alarm" into the tally as one checked
/// invariant, printing each alarm (its captured flight dump included) to
/// stderr.
pub(crate) fn gate_on_watchdog(context: &str, watchdog: &Watchdog, tally: &mut Tally) {
    let alarms = watchdog.alarms();
    tally.check(alarms.is_empty(), || {
        let dumps = alarms.iter().map(|alarm| {
            format!(
                "WATCHDOG ALARM ({context}) {:?} on {}: {}\n{}",
                alarm.kind, alarm.node, alarm.detail, alarm.dump
            )
        });
        dumps.collect::<Vec<_>>().join("\n")
    });
}

fn omega_records<P: Probe>(sim: &Simulator<CommEffOmega<P>>) -> Vec<LeaderRecord> {
    sim.outputs()
        .iter()
        .map(|e| LeaderRecord {
            at: e.at,
            process: e.process,
            leader: e.output,
        })
        .collect()
}

fn consensus_decisions<P: Probe>(sim: &Simulator<Consensus<u64, P>>) -> Vec<DecisionRecord<u64>> {
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

fn alive_set<S: lls_primitives::Sm>(sim: &Simulator<S>, n: usize) -> Vec<ProcessId> {
    (0..n as u32)
        .map(ProcessId)
        .filter(|&p| sim.is_alive(p))
        .collect()
}

/// One seeded Ω scenario on the simulator: two kill/restart cycles against
/// the current leader, under seed-chosen mesh loss and (on odd seeds) a
/// transient partition that heals before the first kill window closes.
fn netsim_omega_scenario(n: usize, seed: u64, tally: &mut Tally) {
    let source = ProcessId((mix64(seed) % n as u64) as u32);
    let mesh_loss = if seed.is_multiple_of(2) { 0.05 } else { 0.2 };
    let base = Topology::system_s(
        n,
        source,
        SystemSParams {
            mesh_loss,
            gst: 200,
            ..SystemSParams::default()
        },
    );
    let mut builder = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(base.clone());
    if seed % 2 == 1 {
        // Compose with the partition injector: isolate the highest id for a
        // while, then heal by restoring the base topology.
        builder = builder
            .partition_at(Instant::from_ticks(2_000), &[ProcessId(n as u32 - 1)])
            .set_topology_at(Instant::from_ticks(5_000), base.clone());
    }
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let mut sim = builder.build_with(|env| {
        CommEffOmega::with_storage_and_probe(
            env,
            OmegaParams::default(),
            stores[env.id().as_usize()].clone(),
            watchdog.probe(recorders.probe_for(env.id())),
        )
        .expect("fresh in-memory store")
    });
    tally.scenarios += 1;
    let mut now = 8_000u64;
    sim.run_until(Instant::from_ticks(now));
    let mut stabilized = true;
    for cycle in 0..2u64 {
        // The most disruptive victim: whoever p0 currently trusts (all
        // processes are alive at the top of each cycle).
        let victim = sim.node(ProcessId(0)).leader();
        sim.kill(victim);
        tally.kills += 1;
        now += 6_000 + mix64(seed ^ cycle) % 2_000;
        sim.run_until(Instant::from_ticks(now));
        // Survivors must have stabilized on a live leader.
        stabilized &= tally.check(
            stabilization(&omega_records(&sim), &alive_set(&sim, n)).is_some(),
            || {
                violation_dump(
                    "netsim/omega post-kill stabilization",
                    &recorders,
                    &[victim],
                )
            },
        );
        let env = Env::new(victim, n);
        let recovered = CommEffOmega::with_storage_and_probe(
            &env,
            OmegaParams::default(),
            stores[victim.as_usize()].clone(),
            watchdog.probe(recorders.probe_for(victim)),
        )
        .expect("recover from the victim's log");
        sim.restart(victim, recovered);
        now += 10_000;
        sim.run_until(Instant::from_ticks(now));
        // After the recovery, the full membership must re-stabilize.
        stabilized &= tally.check(
            stabilization(&omega_records(&sim), &alive_set(&sim, n)).is_some(),
            || {
                violation_dump(
                    "netsim/omega post-restart stabilization",
                    &recorders,
                    &[victim],
                )
            },
        );
    }
    // Armed steady tail: after the last recovery the watchdog's full
    // steady-state invariants (no flaps, flat accusation counters) must
    // hold for a quiet window — and the always-on monotonicity invariant
    // must not have tripped at any point during the chaos. The simulator
    // is deterministic, so this gate is reproducible seed-for-seed.
    watchdog.arm();
    sim.run_until(Instant::from_ticks(now + 2_000));
    gate_on_watchdog("netsim/omega armed tail", &watchdog, tally);
    watchdog.disarm();
    if stabilized {
        tally.successes += 1;
    }
}

/// One seeded consensus scenario on the simulator: kill an acceptor (or the
/// coordinator) *mid-protocol*, check safety over everything decided so
/// far, restart it from its WAL, and repeat against a second victim. The
/// scenario succeeds when safety never broke and all `n` processes decided.
fn netsim_consensus_scenario(n: usize, seed: u64, tally: &mut Tally) {
    let source = ProcessId((seed % n as u64) as u32);
    let mesh_loss = if seed.is_multiple_of(2) { 0.1 } else { 0.3 };
    let topo = Topology::system_s(
        n,
        source,
        SystemSParams {
            mesh_loss,
            ..SystemSParams::default()
        },
    );
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let params = ConsensusParams::default();
    let proposals: Vec<u64> = (0..n as u64).map(|p| 100 + p).collect();
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(seed)
        .topology(topo)
        .build_with(|env| {
            Consensus::with_storage_and_probe(
                env,
                params,
                Some(100 + env.id().0 as u64),
                stores[env.id().as_usize()].clone(),
                watchdog.probe(recorders.probe_for(env.id())),
            )
            .expect("fresh in-memory store")
        });
    tally.scenarios += 1;
    // Crash inside the protocol's critical window, at a seed-chosen point.
    let mut now = 80 + mix64(seed) % 240;
    sim.run_until(Instant::from_ticks(now));
    let mut safe = true;
    for cycle in 0..2u64 {
        let victim = if cycle == 0 {
            sim.node(ProcessId(0)).omega().leader()
        } else {
            // Second cycle: a different process, so both leader and
            // follower recovery paths are exercised.
            ProcessId((mix64(seed ^ 0xC0FFEE) % n as u64) as u32)
        };
        sim.kill(victim);
        tally.kills += 1;
        now += 4_000;
        sim.run_until(Instant::from_ticks(now));
        safe &= tally.check(
            check_consensus_safety(&consensus_decisions(&sim), &proposals).is_ok(),
            || violation_dump("netsim/consensus post-kill safety", &recorders, &[victim]),
        );
        let env = Env::new(victim, n);
        let recovered = Consensus::with_storage_and_probe(
            &env,
            params,
            Some(100 + victim.0 as u64),
            stores[victim.as_usize()].clone(),
            watchdog.probe(recorders.probe_for(victim)),
        )
        .expect("recover from the victim's log");
        sim.restart(victim, recovered);
        now += 10_000;
        sim.run_until(Instant::from_ticks(now));
        safe &= tally.check(
            check_consensus_safety(&consensus_decisions(&sim), &proposals).is_ok(),
            || {
                violation_dump(
                    "netsim/consensus post-restart safety",
                    &recorders,
                    &[victim],
                )
            },
        );
    }
    // The always-on monotonicity invariant must have held throughout.
    gate_on_watchdog("netsim/consensus monotonicity", &watchdog, tally);
    // Liveness across the chaos: every process (restarted ones included)
    // decided at some point.
    let ds = consensus_decisions(&sim);
    let all_decided = (0..n as u32).all(|p| ds.iter().any(|d| d.process == ProcessId(p)));
    if safe && all_decided {
        tally.successes += 1;
    }
}

/// The Ω machine of a chaos scenario: durable state in an in-memory store,
/// probes into the flight recorders through the watchdog.
type ChaosOmega = CommEffOmega<WatchdogProbe<RecordingProbe>>;

/// One Ω kill/restart cycle on a wall-clock substrate, under injected loss
/// and delay: the elected leader is killed, then restarted from its store.
/// On wirenet its listener and sockets are torn down and re-bound, so the
/// survivors' reconnect path runs from the accepting side. `spawn` starts
/// the cluster on the recorders' clocks, each process built by `make`.
fn wall_scenario<C: Cluster<Sm = ChaosOmega>>(
    substrate: &str,
    n: usize,
    tally: &mut Tally,
    spawn: impl FnOnce(Vec<LamportClock>, &dyn Fn(&Env) -> ChaosOmega) -> C,
) {
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let make = |env: &Env| {
        let store = stores[env.id().as_usize()].clone();
        let probe = watchdog.probe(recorders.probe_for(env.id()));
        CommEffOmega::with_storage_and_probe(env, OmegaParams::default(), store, probe)
            .expect("open the in-memory store")
    };
    let mut cluster = spawn(recorders.clocks(), &make);
    tally.scenarios += 1;
    let dump = |context: &str, nodes: &[ProcessId]| {
        violation_dump(&format!("{substrate} {context}"), &recorders, nodes)
    };
    let all = all(n);
    let leader = stable_leader(&cluster, &all, |l| Some(*l));
    let mut ok = tally.check(leader.is_some(), || dump("initial unanimity", &all));
    let victim = leader.unwrap_or(ProcessId(0));
    cluster.kill(victim);
    tally.kills += 1;
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim).collect();
    let agreed = stable_leader(&cluster, &survivors, |l| Some(*l)).is_some();
    ok &= tally.check(agreed, || dump("post-kill unanimity", &[victim]));
    cluster.restart(victim, make(&Env::new(victim, n)));
    let agreed = stable_leader(&cluster, &all, |l| Some(*l)).is_some();
    ok &= tally.check(agreed, || dump("post-restart unanimity", &[victim]));
    cluster.stop();
    // Wall-clock runs keep the watchdog disarmed (steady windows are not
    // deterministic here), but the always-on counter-monotonicity invariant
    // gates the scenario.
    gate_on_watchdog(&format!("{substrate} monotonicity"), &watchdog, tally);
    if ok {
        tally.successes += 1;
    }
}

fn tally_row(t: &mut Table, substrate: &str, n: String, tally: Tally, outcome_label: &str) {
    t.row(vec![
        substrate.to_owned(),
        n,
        tally.scenarios.to_string(),
        tally.kills.to_string(),
        tally.checks.to_string(),
        tally.violations.to_string(),
        format!("{} {}/{}", outcome_label, tally.successes, tally.scenarios),
    ]);
}

/// **E16** — the chaos campaign. `seeds_per_config` seeded scenarios per
/// (substrate, n) cell on the simulator, `wall_seeds` on wirenet. The
/// claim under test: durable state plus the recovering rejoin mode keep
/// both theorems' checkers green across every crash–restart composition —
/// zero violations. Returns the table and the campaign's total violation
/// count (watchdog alarms included), so the CLI can gate its exit status
/// on it.
pub fn e16_chaos(seeds_per_config: u64, sizes: &[usize], wall_seeds: u64) -> (Table, usize) {
    let mut t = Table::new(vec![
        "substrate",
        "n",
        "scenarios",
        "kills",
        "checks",
        "violations",
        "outcome",
    ]);
    let mut total = Tally::default();
    let mut add = |t: &mut Table, substrate: &str, n: String, tally: Tally, label: &str| {
        total.scenarios += tally.scenarios;
        total.kills += tally.kills;
        total.checks += tally.checks;
        total.violations += tally.violations;
        total.successes += tally.successes;
        tally_row(t, substrate, n, tally, label);
    };
    for &n in sizes {
        let mut tally = Tally::default();
        for seed in 0..seeds_per_config {
            netsim_omega_scenario(n, seed, &mut tally);
        }
        add(&mut t, "netsim/omega", n.to_string(), tally, "stabilized");
    }
    for &n in sizes {
        let mut tally = Tally::default();
        for seed in 0..seeds_per_config {
            netsim_consensus_scenario(n, seed, &mut tally);
        }
        add(
            &mut t,
            "netsim/consensus",
            n.to_string(),
            tally,
            "safe+decided",
        );
    }
    let wall_n = sizes.first().copied().unwrap_or(3);
    let mut tally = Tally::default();
    for seed in 0..wall_seeds {
        wall_scenario("wirenet", wall_n, &mut tally, |clocks, make| {
            WireCluster::try_spawn_traced(wire_config(wall_n, 0.02, seed), clocks, make)
                .expect("bind 127.0.0.1 listeners")
        });
    }
    add(&mut t, "wirenet/omega", wall_n.to_string(), tally, "agreed");
    tally_row(&mut t, "TOTAL", "-".into(), total, "ok");
    (t, total.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance path for the flight recorder: force the same
    /// violation E16's Ω checker would report — kill the leader and run the
    /// stabilization check immediately, long before the survivors can have
    /// re-elected — and check the post-mortem dump carries the offending
    /// node's recent probe events.
    #[test]
    fn induced_violation_dumps_the_victims_probe_events() {
        let n = 3;
        let recorders = NodeRecorders::new(n, 64);
        // Source at p1: every node starts trusting p0, so stabilizing on the
        // ♦-source forces at least one LeaderChange into every ring.
        let topo = Topology::system_s(
            n,
            ProcessId(1),
            SystemSParams {
                mesh_loss: 0.05,
                gst: 200,
                ..SystemSParams::default()
            },
        );
        let mut sim = SimBuilder::new(n)
            .record_outputs()
            .seed(7)
            .topology(topo)
            .build_with(|env| {
                CommEffOmega::new_with_probe(
                    env,
                    OmegaParams::default(),
                    recorders.probe_for(env.id()),
                )
            });
        sim.run_until(Instant::from_ticks(8_000));
        let victim = sim.node(ProcessId(0)).leader();
        sim.kill(victim);
        sim.run_until(Instant::from_ticks(8_010));
        assert!(
            stabilization(&omega_records(&sim), &alive_set(&sim, n)).is_none(),
            "ten ticks after the leader died the survivors cannot have re-stabilized"
        );
        let dump = violation_dump("induced", &recorders, &[victim]);
        assert!(dump.contains("CHECKER VIOLATION (induced)"));
        assert!(dump.contains(&format!("--- node {victim} ---")));
        assert!(
            dump.contains("LEADER"),
            "the victim's ring should retain its leader-change events:\n{dump}"
        );
        assert!(dump.contains("events retained of"));
    }

    #[test]
    fn e16_reduced_campaign_has_no_violations() {
        let (t, violations) = e16_chaos(1, &[3], 1);
        assert_eq!(violations, 0);
        let s = t.render();
        for line in s.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[5], "0", "checker violation reported:\n{s}");
        }
    }
}
