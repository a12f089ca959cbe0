//! Experiment E16: a deterministic, seed-driven chaos campaign of
//! crash–restart scenarios across all three substrates.
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
//! * **threadnet, wirenet / Ω** — the wall-clock analogue of the Ω checker:
//!   unanimity of the latest outputs, held stable, within a deadline.
//!
//! All schedules derive from the scenario seed (splitmix64), so a campaign
//! is reproducible run-to-run on the simulator and statistically stable on
//! the wall-clock substrates.
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

use std::time::{Duration as StdDuration, Instant as StdInstant};

use std::sync::Arc;

use consensus::checker::{check_consensus_safety, DecisionRecord};
use consensus::{Consensus, ConsensusEvent, ConsensusParams};
use lls_obs::{NodeRecorders, Probe, Watchdog, WatchdogConfig};
use lls_primitives::runtime::{OutputCursor, TimedOutput};
use lls_primitives::{Env, Instant, ProcessId, StorageHandle};
use netsim::{SimBuilder, Simulator, SystemSParams, Topology};
use omega::spec::{stabilization, LeaderRecord};
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};
use wirenet::{BackoffConfig, FaultConfig, WireCluster, WireConfig};

use crate::table::Table;

/// splitmix64: all per-scenario schedule choices derive from this, so the
/// campaign is a pure function of its seeds.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-configuration tally of a chaos campaign slice.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    scenarios: usize,
    kills: usize,
    checks: usize,
    violations: usize,
    successes: usize,
}

/// The post-mortem artifact: the flight-recorder contents of the nodes
/// implicated in a checker violation, oldest event first. E16 prints this
/// to stderr the moment a checker trips.
fn violation_dump(context: &str, recorders: &NodeRecorders, nodes: &[ProcessId]) -> String {
    let mut out = format!("CHECKER VIOLATION ({context}) — flight-recorder post-mortem:\n");
    for &p in nodes {
        out.push_str(&recorders.dump(p));
    }
    out
}

/// Counts the watchdog's alarms raised since `seen` into the tally as one
/// checked invariant, printing each alarm (its captured flight dump
/// included) to stderr. Returns the new alarm count.
fn gate_on_watchdog(context: &str, watchdog: &Watchdog, seen: usize, tally: &mut Tally) -> usize {
    let alarms = watchdog.alarms();
    tally.checks += 1;
    if alarms.len() > seen {
        tally.violations += 1;
        for alarm in &alarms[seen..] {
            eprintln!(
                "WATCHDOG ALARM ({context}) {:?} on {}: {}\n{}",
                alarm.kind, alarm.node, alarm.detail, alarm.dump
            );
        }
    }
    alarms.len()
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
    let source = ProcessId((mix(seed) % n as u64) as u32);
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
        now += 6_000 + mix(seed ^ cycle) % 2_000;
        sim.run_until(Instant::from_ticks(now));
        // Survivors must have stabilized on a live leader.
        tally.checks += 1;
        if stabilization(&omega_records(&sim), &alive_set(&sim, n)).is_none() {
            tally.violations += 1;
            stabilized = false;
            eprintln!(
                "{}",
                violation_dump(
                    "netsim/omega post-kill stabilization",
                    &recorders,
                    &[victim]
                )
            );
        }
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
        tally.checks += 1;
        if stabilization(&omega_records(&sim), &alive_set(&sim, n)).is_none() {
            tally.violations += 1;
            stabilized = false;
            eprintln!(
                "{}",
                violation_dump(
                    "netsim/omega post-restart stabilization",
                    &recorders,
                    &[victim]
                )
            );
        }
    }
    // Armed steady tail: after the last recovery the watchdog's full
    // steady-state invariants (no flaps, flat accusation counters) must
    // hold for a quiet window — and the always-on monotonicity invariant
    // must not have tripped at any point during the chaos. The simulator
    // is deterministic, so this gate is reproducible seed-for-seed.
    watchdog.arm();
    sim.run_until(Instant::from_ticks(now + 2_000));
    gate_on_watchdog("netsim/omega armed tail", &watchdog, 0, tally);
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
    let mut now = 80 + mix(seed) % 240;
    sim.run_until(Instant::from_ticks(now));
    let mut safe = true;
    for cycle in 0..2u64 {
        let victim = if cycle == 0 {
            sim.node(ProcessId(0)).omega().leader()
        } else {
            // Second cycle: a different process, so both leader and
            // follower recovery paths are exercised.
            ProcessId((mix(seed ^ 0xC0FFEE) % n as u64) as u32)
        };
        sim.kill(victim);
        tally.kills += 1;
        now += 4_000;
        sim.run_until(Instant::from_ticks(now));
        tally.checks += 1;
        if check_consensus_safety(&consensus_decisions(&sim), &proposals).is_err() {
            tally.violations += 1;
            safe = false;
            eprintln!(
                "{}",
                violation_dump("netsim/consensus post-kill safety", &recorders, &[victim])
            );
        }
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
        tally.checks += 1;
        if check_consensus_safety(&consensus_decisions(&sim), &proposals).is_err() {
            tally.violations += 1;
            safe = false;
            eprintln!(
                "{}",
                violation_dump(
                    "netsim/consensus post-restart safety",
                    &recorders,
                    &[victim]
                )
            );
        }
    }
    // The always-on monotonicity invariant must have held throughout.
    gate_on_watchdog("netsim/consensus monotonicity", &watchdog, 0, tally);
    // Liveness across the chaos: every process (restarted ones included)
    // decided at some point.
    let ds = consensus_decisions(&sim);
    let all_decided = (0..n as u32).all(|p| ds.iter().any(|d| d.process == ProcessId(p)));
    if safe && all_decided {
        tally.successes += 1;
    }
}

/// Polls `latest` until the members' outputs are unanimous and stay so for
/// 150 ms, or `timeout` elapses.
pub(crate) fn await_unanimity(
    latest: impl Fn() -> Vec<Option<ProcessId>>,
    members: &[ProcessId],
    timeout: StdDuration,
) -> Option<ProcessId> {
    let deadline = StdInstant::now() + timeout;
    let mut agreed: Option<(ProcessId, StdInstant)> = None;
    loop {
        let outs = latest();
        let views: Vec<Option<ProcessId>> = members.iter().map(|p| outs[p.as_usize()]).collect();
        let unanimous = views
            .first()
            .and_then(|o| *o)
            .filter(|first| views.iter().all(|o| *o == Some(*first)));
        match (unanimous, agreed) {
            (Some(l), Some((held, since))) if l == held => {
                if since.elapsed() >= StdDuration::from_millis(150) {
                    return Some(l);
                }
            }
            (Some(l), _) => agreed = Some((l, StdInstant::now())),
            (None, _) => agreed = None,
        }
        if StdInstant::now() > deadline {
            return None;
        }
        std::thread::sleep(StdDuration::from_millis(20));
    }
}

/// Polls a wall-clock cluster's recorded outputs, reading each once through
/// `outputs_since`, until `leader` has emitted `target` outputs matching
/// `counts`, or 30 s pass.
pub(crate) fn await_leader_outputs<O>(
    outputs_since: impl Fn(&mut OutputCursor) -> Vec<TimedOutput<O>>,
    leader: ProcessId,
    target: u64,
    counts: impl Fn(&O) -> bool,
) {
    let deadline = StdInstant::now() + StdDuration::from_secs(30);
    let mut cursor = OutputCursor::default();
    let mut done = 0;
    loop {
        done += outputs_since(&mut cursor)
            .iter()
            .filter(|o| o.process == leader && counts(&o.output))
            .count() as u64;
        if done >= target || StdInstant::now() > deadline {
            return;
        }
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

/// One Ω kill/restart cycle on the thread mesh (wall clock, injected loss
/// and delay).
fn threadnet_scenario(n: usize, seed: u64, tally: &mut Tally) {
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let config = NetConfig {
        n,
        loss: 0.02,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(900),
        tick: StdDuration::from_millis(1),
        seed,
    };
    let cluster = Cluster::spawn_traced(config, recorders.clocks(), |env| {
        CommEffOmega::with_storage_and_probe(
            env,
            OmegaParams::default(),
            stores[env.id().as_usize()].clone(),
            watchdog.probe(recorders.probe_for(env.id())),
        )
        .expect("fresh in-memory store")
    });
    tally.scenarios += 1;
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let mut ok = true;

    tally.checks += 1;
    let leader = await_unanimity(|| cluster.latest_outputs(), &all, timeout);
    if leader.is_none() {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump("threadnet initial unanimity", &recorders, &all)
        );
    }
    let victim = leader.unwrap_or(ProcessId(0));
    cluster.kill(victim);
    tally.kills += 1;
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim).collect();
    tally.checks += 1;
    if await_unanimity(|| cluster.latest_outputs(), &survivors, timeout).is_none() {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump("threadnet post-kill unanimity", &recorders, &[victim])
        );
    }
    let env = Env::new(victim, n);
    let recovered = CommEffOmega::with_storage_and_probe(
        &env,
        OmegaParams::default(),
        stores[victim.as_usize()].clone(),
        watchdog.probe(recorders.probe_for(victim)),
    )
    .expect("recover from the victim's log");
    cluster.restart(victim, recovered);
    tally.checks += 1;
    if await_unanimity(|| cluster.latest_outputs(), &all, timeout).is_none() {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump("threadnet post-restart unanimity", &recorders, &[victim])
        );
    }
    cluster.stop();
    // Wall-clock runs keep the watchdog disarmed (steady windows are not
    // deterministic here), but the always-on counter-monotonicity invariant
    // gates the scenario.
    gate_on_watchdog("threadnet monotonicity", &watchdog, 0, tally);
    if ok {
        tally.successes += 1;
    }
}

/// One Ω kill/restart cycle over real TCP: the victim's listener and
/// sockets are torn down, then re-bound, so the survivors' reconnect path
/// is exercised from the accepting side.
fn wirenet_scenario(n: usize, seed: u64, tally: &mut Tally) {
    let stores: Vec<StorageHandle> = (0..n).map(|_| StorageHandle::in_memory()).collect();
    let recorders = Arc::new(NodeRecorders::new(n, 256));
    let watchdog = Watchdog::with_recorders(WatchdogConfig::default(), Arc::clone(&recorders));
    let config = WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        queue_capacity: 1024,
        backoff: BackoffConfig::default(),
        faults: Some(FaultConfig {
            loss: 0.02,
            min_delay: StdDuration::from_micros(100),
            max_delay: StdDuration::from_micros(900),
            seed,
        }),
        ..WireConfig::default()
    };
    let mut cluster = WireCluster::try_spawn_traced(config, recorders.clocks(), |env| {
        CommEffOmega::with_storage_and_probe(
            env,
            OmegaParams::default(),
            stores[env.id().as_usize()].clone(),
            watchdog.probe(recorders.probe_for(env.id())),
        )
        .expect("fresh in-memory store")
    })
    .expect("bind 127.0.0.1 listeners");
    tally.scenarios += 1;
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(10);
    let mut ok = true;

    tally.checks += 1;
    let leader = await_unanimity(|| cluster.latest_outputs(), &all, timeout);
    if leader.is_none() {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump("wirenet initial unanimity", &recorders, &all)
        );
    }
    let victim = leader.unwrap_or(ProcessId(0));
    cluster.kill(victim);
    tally.kills += 1;
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|p| *p != victim).collect();
    tally.checks += 1;
    if await_unanimity(|| cluster.latest_outputs(), &survivors, timeout).is_none() {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump("wirenet post-kill unanimity", &recorders, &[victim])
        );
    }
    let env = Env::new(victim, n);
    let recovered = CommEffOmega::with_storage_and_probe(
        &env,
        OmegaParams::default(),
        stores[victim.as_usize()].clone(),
        watchdog.probe(recorders.probe_for(victim)),
    )
    .expect("recover from the victim's log");
    if cluster.restart(victim, recovered).is_err() {
        tally.violations += 1;
        ok = false;
        eprintln!(
            "{}",
            violation_dump("wirenet restart rebind", &recorders, &[victim])
        );
    } else {
        tally.checks += 1;
        if await_unanimity(|| cluster.latest_outputs(), &all, timeout).is_none() {
            tally.violations += 1;
            ok = false;
            eprintln!(
                "{}",
                violation_dump("wirenet post-restart unanimity", &recorders, &[victim])
            );
        }
    }
    cluster.stop();
    gate_on_watchdog("wirenet monotonicity", &watchdog, 0, tally);
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
/// (substrate, n) cell on the simulator, `wall_seeds` per wall-clock
/// substrate. The claim under test: durable state plus the recovering
/// rejoin mode keep both theorems' checkers green across every
/// crash–restart composition — zero violations. Returns the table and the
/// campaign's total violation count (watchdog alarms included), so the CLI
/// can gate its exit status on it.
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
        threadnet_scenario(wall_n, seed, &mut tally);
    }
    add(
        &mut t,
        "threadnet/omega",
        wall_n.to_string(),
        tally,
        "agreed",
    );
    let mut tally = Tally::default();
    for seed in 0..wall_seeds {
        wirenet_scenario(wall_n, seed, &mut tally);
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
