//! Substrate parity: the same state-machine code produces the same
//! *qualitative* behaviour on the deterministic simulator and on the
//! real-thread runtime — the property that makes simulator results
//! transferable.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::{Ctx, Duration, Instant, ProcessId, Sm, TimerId};
use netsim::{SimBuilder, Topology};
use omega::{CommEffOmega, OmegaParams};
use threadnet::{Cluster, NetConfig};
use wirenet::{WireCluster, WireConfig};

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
    let eta = tick * OmegaParams::default().eta.ticks() as u32;
    let settled = await_stable_leader(|| cluster.latest_outputs(), eta, 5);
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

/// Polls the processes' latest leader outputs once per `eta` until all of
/// them have named the same leader for `rounds` polls in a row, and returns
/// that leader; `None` if that has not happened within 20 s.
fn await_stable_leader(
    latest_outputs: impl Fn() -> Vec<Option<ProcessId>>,
    eta: StdDuration,
    rounds: usize,
) -> Option<ProcessId> {
    let deadline = StdInstant::now() + StdDuration::from_secs(20);
    let mut streak: Option<(ProcessId, usize)> = None;
    while StdInstant::now() < deadline {
        let outputs = latest_outputs();
        let agreed = outputs[0].filter(|l| outputs.iter().all(|o| *o == Some(*l)));
        streak = match (agreed, streak) {
            (Some(l), Some((prev, k))) if prev == l => Some((l, k + 1)),
            (Some(l), _) => Some((l, 1)),
            (None, _) => None,
        };
        if let Some((l, k)) = streak {
            if k >= rounds {
                return Some(l);
            }
        }
        std::thread::sleep(eta);
    }
    None
}

/// Crash-stop failover works identically in shape on both substrates: the
/// dead initial leader is replaced by another process on which everyone
/// agrees.
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
    // survivors undecided when the run was cut). p0 must be the stable
    // leader before it is killed; then the survivors must name one other
    // leader for five polls in a row.
    let tick = StdDuration::from_millis(2);
    let cluster = Cluster::spawn(
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
    let eta = tick * OmegaParams::default().eta.ticks() as u32;
    let before = await_stable_leader(|| cluster.latest_outputs(), eta, 5);
    assert_eq!(before, Some(ProcessId(0)), "threads: no stable p0");
    cluster.kill(ProcessId(0));
    // A survivor still naming p0 counts as undecided.
    let survivors = || -> Vec<Option<ProcessId>> {
        cluster.latest_outputs()[1..]
            .iter()
            .map(|o| o.filter(|l| *l != ProcessId(0)))
            .collect()
    };
    let after = await_stable_leader(survivors, eta, 5);
    assert!(after.is_some(), "threads: the survivors never settled");
    let report = cluster.stop();
    let thread_final: Vec<ProcessId> = (1..n as u32)
        .map(|p| {
            report
                .final_output_of(ProcessId(p))
                .copied()
                .expect("survivor output")
        })
        .collect();
    assert!(
        thread_final
            .iter()
            .all(|&l| l == thread_final[0] && l != ProcessId(0)),
        "thread failover disagrees: {thread_final:?}"
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
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    let stable_for = StdDuration::from_millis(400);
    let mut held_since: Option<(ProcessId, StdInstant)> = None;
    let leader = loop {
        let latest = cluster.latest_outputs();
        let unanimous = latest.first().and_then(|o| match o {
            Some(consensus::RsmEvent::Leader(l))
                if latest
                    .iter()
                    .all(|o| matches!(o, Some(consensus::RsmEvent::Leader(x)) if x == l)) =>
            {
                Some(*l)
            }
            _ => None,
        });
        match (unanimous, held_since) {
            (Some(l), Some((h, since))) if l == h => {
                if since.elapsed() >= stable_for {
                    break l;
                }
            }
            (Some(l), _) => held_since = Some((l, StdInstant::now())),
            (None, _) => held_since = None,
        }
        assert!(StdInstant::now() < deadline, "no stable leader on threads");
        std::thread::sleep(StdDuration::from_millis(25));
    };
    for k in 0..5u64 {
        cluster.request(leader, k);
        std::thread::sleep(StdDuration::from_millis(30));
    }
    // Wait until every replica has committed the final command. Scan the
    // full output history, not just the newest output: a leader-change
    // notification emitted after the commit must not mask completion.
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    loop {
        let outputs = cluster.outputs_so_far();
        let done = (0..n as u32).map(ProcessId).all(|p| {
            outputs.iter().any(|t| {
                t.process == p
                    && matches!(
                        t.output,
                        consensus::RsmEvent::Committed { cmd: Some(4), .. }
                    )
            })
        });
        if done {
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
            .outputs
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

/// Polls until every process has fired a timer. A firing batch completes
/// before the driver reads its inbox again, so whatever else the batch
/// emits lands before the stop that follows.
fn await_every_fire(n: usize, outputs_so_far: impl Fn() -> Vec<ProcessId>) {
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    while outputs_per_process(n, outputs_so_far().into_iter()).contains(&0) {
        assert!(StdInstant::now() < deadline, "a process never fired");
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

/// Timer reset semantics hold inside one firing batch: a timer cancelled by
/// a handler that ran earlier in the same batch does not fire, on the
/// simulator and on both wall-clock substrates.
#[test]
fn a_timer_cancelled_within_its_firing_batch_never_fires() {
    let n = 3;
    let mut sim = SimBuilder::new(n).build_with(|_| TimerRace);
    sim.run_until(Instant::from_ticks(100));
    let netsim = outputs_per_process(n, sim.outputs().iter().map(|o| o.process));
    assert_eq!(netsim, vec![1; n], "netsim");

    let tick = StdDuration::from_millis(1);
    let cluster = Cluster::spawn(
        NetConfig {
            n,
            loss: 0.0,
            tick,
            ..NetConfig::default()
        },
        |_| TimerRace,
    );
    await_every_fire(n, || {
        cluster.outputs_so_far().iter().map(|t| t.process).collect()
    });
    let report = cluster.stop();
    let threadnet = outputs_per_process(n, report.outputs.iter().map(|t| t.process));
    assert_eq!(threadnet, vec![1; n], "threadnet");

    let cluster = WireCluster::try_spawn(
        WireConfig {
            n,
            tick,
            ..WireConfig::default()
        },
        |_| TimerRace,
    )
    .expect("bind 127.0.0.1 listeners");
    await_every_fire(n, || {
        cluster.outputs_so_far().iter().map(|t| t.process).collect()
    });
    let report = cluster.stop();
    let wirenet = outputs_per_process(n, report.outputs.iter().map(|t| t.process));
    assert_eq!(wirenet, vec![1; n], "wirenet");
}
