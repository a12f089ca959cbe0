//! Substrate parity: the same state-machine code produces the same
//! *qualitative* behaviour on the deterministic simulator and on the
//! real-thread runtime — the property that makes simulator results
//! transferable.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::{await_stable_leader, Cluster as _};
use lls_primitives::{Ctx, Duration, Instant, ProcessId, Sm, TimerId};
use netsim::{SimBuilder, Topology};
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig, OutputCursor};
use wirenet::{WireCluster, WireConfig};

/// Five heartbeat periods at `tick`: how long a wall-clock election must
/// name one leader before these tests count it as settled.
fn hold(tick: StdDuration) -> StdDuration {
    tick * OmegaParams::default().eta.ticks() as u32 * 5
}

/// On a lossless, low-latency network, both substrates elect p0 (the initial
/// default) and never change leaders after stabilization.
#[test]
fn both_substrates_elect_p0_on_perfect_links() {
    let n = 4;

    // Simulator.
    let mut sim = SimBuilder::new(n)
        .topology(Topology::all_timely(
            n,
            lls_primitives::Duration::from_ticks(1),
        ))
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    sim.run_until(Instant::from_ticks(10_000));
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(sim.node(p).leader(), ProcessId(0), "sim: {p} disagrees");
    }

    // Threads, at 2 ms ticks: p0 is suspected only after its initial
    // 60 ms timeout passes without an ALIVE, longer than the scheduler
    // stalls of a loaded 2-core host (at 200 µs ticks a 6 ms stall was
    // enough to get p0 accused, and everyone then named p1).
    let tick = StdDuration::from_millis(2);
    let cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.0,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(200),
            tick,
            seed: 0,
        },
        |env| CommEffOmega::new(env, OmegaParams::default()),
    );
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(20);
    let settled = await_stable_leader(&cluster, &all, |l| Some(*l), hold(tick), timeout);
    let report = cluster.stop();
    assert_eq!(settled, Some(ProcessId(0)), "threads: no stable p0");
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(
            report.final_output_of(p),
            Some(&ProcessId(0)),
            "threads: {p} disagrees"
        );
    }
}

/// Crash-stop failover works identically in shape on both substrates: the
/// dead leader is replaced by another process on which everyone agrees.
#[test]
fn failover_shape_matches_across_substrates() {
    let n = 4;

    // Simulator run.
    let mut sim = SimBuilder::new(n)
        .topology(Topology::all_timely(
            n,
            lls_primitives::Duration::from_ticks(1),
        ))
        .crash_at(ProcessId(0), Instant::from_ticks(2_000))
        .build_with(|env| CommEffOmega::new(env, OmegaParams::default()));
    sim.run_until(Instant::from_ticks(20_000));
    let sim_final: Vec<ProcessId> = (1..n as u32)
        .map(|p| sim.node(ProcessId(p)).leader())
        .collect();
    assert!(sim_final
        .iter()
        .all(|&l| l == sim_final[0] && l != ProcessId(0)));

    // Thread run, at the same 2 ms ticks as the election test above (at
    // 200 µs ticks and fixed sleeps a scheduler stall could leave the
    // survivors undecided when the run was cut). Whichever process the
    // stable election names is killed (a scheduler stall can get p0 accused
    // first); then the survivors must name one other leader for five
    // heartbeat periods.
    let tick = StdDuration::from_millis(2);
    let mut cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.0,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(200),
            tick,
            seed: 1,
        },
        |env| CommEffOmega::new(env, OmegaParams::default()),
    );
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(20);
    let victim = await_stable_leader(&cluster, &all, |l| Some(*l), hold(tick), timeout)
        .expect("threads: no stable leader");
    cluster.kill(victim);
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|&p| p != victim).collect();
    // A survivor still naming the victim counts as undecided.
    let live = |l: &ProcessId| (*l != victim).then_some(*l);
    let after = await_stable_leader(&cluster, &survivors, live, hold(tick), timeout);
    assert!(after.is_some(), "threads: the survivors never settled");
    let report = cluster.stop();
    let thread_final: Vec<ProcessId> = survivors
        .iter()
        .map(|&p| report.final_output_of(p).copied().expect("survivor output"))
        .collect();
    assert!(
        thread_final
            .iter()
            .all(|&l| l == thread_final[0] && l != victim),
        "thread failover disagrees after killing {victim}: {thread_final:?}"
    );
}

/// The full consensus stack (replicated log + embedded Ω) also runs on the
/// thread runtime: commands submitted to the leader commit at every replica.
#[test]
fn replicated_log_commits_on_real_threads() {
    use consensus::{ConsensusParams, ReplicatedLog};

    let n = 3;
    // A generous tick (suspicion timeout = 15 ms) keeps scheduler jitter on
    // a loaded machine from churning the leadership mid-workload.
    let cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.05,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(400),
            tick: StdDuration::from_micros(500),
            seed: 5,
        },
        |env| ReplicatedLog::<u64>::new(env, ConsensusParams::default()),
    );
    // Await a leader that is not merely unanimous but *stays* unanimous for
    // a while: submitting during a momentary agreement risks the commands
    // landing on a leader that is still running (or about to rerun) its
    // prepare phase, and the workload cannot be resubmitted without
    // breaking the exact-log assertion below.
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let (hold, timeout) = (StdDuration::from_millis(400), StdDuration::from_secs(10));
    let leader = await_stable_leader(&cluster, &all, consensus::RsmEvent::leader, hold, timeout)
        .expect("no stable leader on threads");
    for k in 0..5u64 {
        cluster.request(leader, k);
        std::thread::sleep(StdDuration::from_millis(30));
    }
    // Wait until every replica has committed the final command. Read the
    // output history, not just the newest output: a leader-change
    // notification emitted after the commit must not mask completion.
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    let mut cursor = OutputCursor::default();
    let mut done = vec![false; n];
    loop {
        for t in cluster.outputs_since(&mut cursor) {
            if matches!(
                t.output,
                consensus::RsmEvent::Committed { cmd: Some(4), .. }
            ) {
                done[t.process.as_usize()] = true;
            }
        }
        if done.iter().all(|d| *d) {
            break;
        }
        assert!(
            StdInstant::now() < deadline,
            "replicas never committed the full workload: {:?}",
            cluster.latest_outputs()
        );
        std::thread::sleep(StdDuration::from_millis(25));
    }
    let report = cluster.stop();
    // Every replica committed the same prefix, in order.
    for p in (0..n as u32).map(ProcessId) {
        let committed: Vec<u64> = report
            .outputs()
            .iter()
            .filter(|t| t.process == p)
            .filter_map(|t| match &t.output {
                consensus::RsmEvent::Committed { cmd, .. } => *cmd,
                _ => None,
            })
            .collect();
        assert_eq!(committed, vec![0, 1, 2, 3, 4], "{p} log: {committed:?}");
    }
}

/// Arms two timers for the same tick; each handler reports its timer and
/// cancels the other, so only the first of the pair may ever fire.
#[derive(Debug)]
struct TimerRace;

impl Sm for TimerRace {
    type Msg = u8;
    type Output = TimerId;
    type Request = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u8, TimerId>) {
        ctx.set_timer(TimerId(1), Duration::from_ticks(5));
        ctx.set_timer(TimerId(2), Duration::from_ticks(5));
    }

    fn on_message(&mut self, _: &mut Ctx<'_, u8, TimerId>, _: ProcessId, _: u8) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8, TimerId>, timer: TimerId) {
        ctx.output(timer);
        ctx.cancel_timer(TimerId(3 - timer.0));
    }
}

/// How many outputs each of `n` processes emitted.
fn outputs_per_process(n: usize, emitters: impl Iterator<Item = ProcessId>) -> Vec<usize> {
    let mut counts = vec![0; n];
    for p in emitters {
        counts[p.as_usize()] += 1;
    }
    counts
}

/// How many timers each process fired: polls until every process has fired
/// one, reading each output once, then stops the cluster. A firing batch
/// completes before the driver reads its inbox again, so whatever else the
/// batch emits lands before the stop.
fn fired_per_process(cluster: impl lls_primitives::runtime::Cluster<Sm = TimerRace>) -> Vec<usize> {
    let n = cluster.n();
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    let mut cursor = OutputCursor::default();
    let mut fired = vec![false; n];
    while !fired.iter().all(|f| *f) {
        assert!(StdInstant::now() < deadline, "a process never fired");
        std::thread::sleep(StdDuration::from_millis(1));
        for t in cluster.outputs_since(&mut cursor) {
            fired[t.process.as_usize()] = true;
        }
    }
    let report = cluster.stop();
    outputs_per_process(n, report.outputs().iter().map(|t| t.process))
}

/// Timer reset semantics hold inside one firing batch: a timer cancelled by
/// a handler that ran earlier in the same batch does not fire, on the
/// simulator and on both wall-clock substrates.
#[test]
fn a_timer_cancelled_within_its_firing_batch_never_fires() {
    let n = 3;
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .build_with(|_| TimerRace);
    sim.run_until(Instant::from_ticks(100));
    let netsim = outputs_per_process(n, sim.outputs().iter().map(|o| o.process));
    assert_eq!(netsim, vec![1; n], "netsim");

    let tick = StdDuration::from_millis(1);
    let config = NetConfig {
        n,
        loss: 0.0,
        tick,
        ..NetConfig::default()
    };
    let threadnet = fired_per_process(Cluster::spawn(config, |_| TimerRace));
    assert_eq!(threadnet, vec![1; n], "threadnet");

    let config = WireConfig {
        n,
        tick,
        record_outputs: true,
        ..WireConfig::default()
    };
    let wirenet = fired_per_process(WireCluster::spawn(config, |_| TimerRace));
    assert_eq!(wirenet, vec![1; n], "wirenet");
}
