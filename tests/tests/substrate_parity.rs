//! Substrate parity: the same state-machine code produces the same
//! *qualitative* behaviour on the deterministic simulator and over real
//! TCP sockets — the property that makes simulator results transferable.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::{Ctx, Duration, Instant, ProcessId, Sm, TimerId};
use netsim::{SimBuilder, Topology};
use omega::{CommEffOmega, OmegaParams};
use wirenet::{FaultConfig, OutputCursor, WireCluster, WireConfig};

/// A TCP cluster of `n` at 2 ms ticks whose sockets drop `loss` of the
/// frames and delay each by 50 µs to `max_delay_us`. At 2 ms ticks Ω's
/// initial timeout (60 ms) outlasts the scheduler stalls of a loaded 2-core
/// host; at shorter ticks a stall could forge an accusation, get p0
/// suspected, or move the leadership in the middle of a workload.
fn config(n: usize, loss: f64, max_delay_us: u64, seed: u64) -> WireConfig {
    WireConfig {
        n,
        tick: StdDuration::from_millis(2),
        faults: Some(FaultConfig {
            loss,
            min_delay: StdDuration::from_micros(50),
            max_delay: StdDuration::from_micros(max_delay_us),
            seed,
        }),
        record_outputs: true,
        ..WireConfig::default()
    }
}

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

    // TCP: p0 is suspected only after its initial 60 ms timeout passes
    // without an ALIVE.
    let config = config(n, 0.0, 200, 0);
    let cluster = WireCluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let timeout = StdDuration::from_secs(20);
    let settled = cluster.await_stable_leader(&all, |l| Some(*l), hold(config.tick), timeout);
    let report = cluster.stop();
    assert_eq!(settled, Some(ProcessId(0)), "tcp: no stable p0");
    for p in (0..n as u32).map(ProcessId) {
        assert_eq!(
            report.final_output_of(p),
            Some(&ProcessId(0)),
            "tcp: {p} disagrees"
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

    // TCP run. Whichever process the stable election names is killed (a
    // scheduler stall can get p0 accused first); then the survivors must
    // name one other leader for five heartbeat periods.
    let config = config(n, 0.0, 200, 1);
    let mut cluster =
        WireCluster::spawn(config, |env| CommEffOmega::new(env, OmegaParams::default()));
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let (hold, timeout) = (hold(config.tick), StdDuration::from_secs(20));
    let victim = cluster
        .await_stable_leader(&all, |l| Some(*l), hold, timeout)
        .expect("tcp: no stable leader");
    cluster.kill(victim);
    let survivors: Vec<ProcessId> = all.iter().copied().filter(|&p| p != victim).collect();
    // A survivor still naming the victim counts as undecided.
    let live = |l: &ProcessId| (*l != victim).then_some(*l);
    let after = cluster.await_stable_leader(&survivors, live, hold, timeout);
    assert!(after.is_some(), "tcp: the survivors never settled");
    let report = cluster.stop();
    let tcp_final: Vec<ProcessId> = survivors
        .iter()
        .map(|&p| report.final_output_of(p).copied().expect("survivor output"))
        .collect();
    assert!(
        tcp_final.iter().all(|&l| l == tcp_final[0] && l != victim),
        "tcp failover disagrees after killing {victim}: {tcp_final:?}"
    );
}

/// The full consensus stack (replicated log + embedded Ω) also runs off the
/// simulator, on each node's real threads: commands submitted to the leader
/// commit at every replica.
#[test]
fn replicated_log_commits_on_real_threads() {
    use consensus::{ConsensusParams, ReplicatedLog};

    let n = 3;
    let cluster = WireCluster::spawn(config(n, 0.05, 400, 5), |env| {
        ReplicatedLog::<u64>::new(env, ConsensusParams::default())
    });
    // Await a leader that is not merely unanimous but *stays* unanimous for
    // a while: submitting during a momentary agreement risks the commands
    // landing on a leader that is still running (or about to rerun) its
    // prepare phase. The workload cannot be resubmitted: `ReplicatedLog`
    // keeps no client sessions, so a resubmitted value would commit twice
    // and break the exact-log assertion below.
    let all: Vec<ProcessId> = (0..n as u32).map(ProcessId).collect();
    let (hold, timeout) = (StdDuration::from_millis(400), StdDuration::from_secs(10));
    let leader = cluster
        .await_stable_leader(&all, consensus::RsmEvent::leader, hold, timeout)
        .expect("no stable leader over TCP");
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

/// Timer reset semantics hold inside one firing batch: a timer cancelled by
/// a handler that ran earlier in the same batch does not fire, on the
/// simulator and over TCP.
#[test]
fn a_timer_cancelled_within_its_firing_batch_never_fires() {
    let n = 3;
    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .build_with(|_| TimerRace);
    sim.run_until(Instant::from_ticks(100));
    let netsim = outputs_per_process(n, sim.outputs().iter().map(|o| o.process));
    assert_eq!(netsim, vec![1; n], "netsim");

    let config = WireConfig {
        n,
        tick: StdDuration::from_millis(1),
        record_outputs: true,
        ..WireConfig::default()
    };
    let cluster = WireCluster::spawn(config, |_| TimerRace);
    // Poll until every process has fired one timer, reading each output
    // once. A firing batch completes before the driver reads its inbox
    // again, so whatever else the batch emits lands before the stop.
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
    let wirenet = outputs_per_process(n, report.outputs().iter().map(|t| t.process));
    assert_eq!(wirenet, vec![1; n], "wirenet");
}
