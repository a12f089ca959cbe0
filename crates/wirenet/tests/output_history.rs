//! What a TCP cluster keeps of its processes' outputs: by default each
//! process's latest output, across incarnations; with `record_outputs`,
//! every output of every incarnation, read once each through a cursor
//! while reader threads keep emitting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::{Ctx, ProcessId, Sm, TimerId};
use wirenet::{OutputCursor, TimedOutput, WireCluster, WireConfig};

/// A request `(first, count)` makes process 0 send `first..first + count`
/// to process 1, which outputs each value as its reader thread handles it
/// and echoes it back; process 0 outputs each echo.
#[derive(Debug)]
struct Relay;

impl Sm for Relay {
    type Msg = u64;
    type Output = u64;
    type Request = (u64, u64);

    fn on_start(&mut self, _: &mut Ctx<'_, u64, u64>) {}

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64, u64>, from: ProcessId, v: u64) {
        ctx.output(v);
        if ctx.id() == ProcessId(1) {
            ctx.send(from, v);
        }
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, u64, u64>, _: TimerId) {}

    fn on_request(&mut self, ctx: &mut Ctx<'_, u64, u64>, (first, count): (u64, u64)) {
        for v in first..first + count {
            ctx.send(ProcessId(1), v);
        }
    }
}

fn spawn(record_outputs: bool) -> WireCluster<Relay> {
    let config = WireConfig {
        n: 2,
        tick: StdDuration::from_millis(1),
        record_outputs,
        ..WireConfig::default()
    };
    WireCluster::try_spawn(config, |_| Relay).expect("bind 127.0.0.1 listeners")
}

/// Reads outputs through `cursor` into `read` until process 0 has output
/// the echo of `last`; `false` if it has not within 2 s.
fn await_echo(
    cluster: &WireCluster<Relay>,
    cursor: &mut OutputCursor,
    read: &mut Vec<TimedOutput<u64>>,
    last: u64,
) -> bool {
    let deadline = StdInstant::now() + StdDuration::from_secs(2);
    loop {
        let fresh = cluster.outputs_since(cursor);
        let echoed = fresh
            .iter()
            .any(|t| t.process == ProcessId(0) && t.output == last);
        read.extend(fresh);
        if echoed {
            return true;
        }
        if StdInstant::now() > deadline {
            return false;
        }
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

/// Each process's outputs, in the order given.
fn per_process(outputs: &[TimedOutput<u64>]) -> [Vec<u64>; 2] {
    let mut per = [Vec::new(), Vec::new()];
    for t in outputs {
        per[t.process.as_usize()].push(t.output);
    }
    per
}

#[test]
fn a_cursor_reads_each_output_once_across_a_restart() {
    let mut cluster = spawn(true);
    let p1 = ProcessId(1);
    let (mut cursor, mut read) = (OutputCursor::default(), Vec::new());
    cluster.request(ProcessId(0), (0, 200));
    assert!(
        await_echo(&cluster, &mut cursor, &mut read, 199),
        "the first incarnation never echoed"
    );
    cluster.kill(p1);
    cluster.restart(p1, Relay).expect("rebind process 1");
    // Frames process 0 writes into the dead incarnation's socket are lost,
    // so send batches until one comes back whole from the new incarnation.
    let mut batch = 0;
    loop {
        batch += 1;
        cluster.request(ProcessId(0), (1_000 * batch, 200));
        if await_echo(&cluster, &mut cursor, &mut read, 1_000 * batch + 199) {
            break;
        }
        assert!(batch < 10, "the new incarnation never echoed");
    }
    let report = cluster.stop();
    let ours = per_process(&read);
    assert_eq!(ours, per_process(report.outputs()), "each output once");
    for values in &ours {
        // Links are FIFO and every batch's values exceed the last one's.
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "out of emission order: {values:?}"
        );
    }
    assert!(ours[1].contains(&199) && ours[1].contains(&(1_000 * batch + 199)));
    assert_eq!(report.final_output_of(p1), ours[1].last());
}

/// Requests batches of `count` values from process 0 until process 0's
/// latest output is the echo of a batch's last value, which it returns.
fn echo_a_batch(cluster: &WireCluster<Relay>, first: u64, count: u64) -> u64 {
    for batch in 0..10 {
        let last = first + batch * count + count - 1;
        cluster.request(ProcessId(0), (first + batch * count, count));
        let deadline = StdInstant::now() + StdDuration::from_secs(2);
        while StdInstant::now() < deadline {
            if cluster.latest_outputs()[0] == Some(last) {
                return last;
            }
            std::thread::sleep(StdDuration::from_millis(1));
        }
    }
    panic!("no batch from {first} came back whole");
}

#[test]
fn the_final_output_survives_a_restart_without_history() {
    let mut cluster = spawn(false);
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    echo_a_batch(&cluster, 0, 10);
    cluster.kill(p0);
    cluster.restart(p0, Relay).expect("rebind process 0");
    // Echoes process 1 writes into the dead incarnation's socket are lost.
    let last = echo_a_batch(&cluster, 1_000, 10);
    cluster.kill(p1);
    cluster.restart(p1, Relay).expect("rebind process 1");
    let report = cluster.stop();
    assert_eq!(
        report.final_output_of(p0),
        Some(&last),
        "the new incarnation's"
    );
    assert_eq!(
        report.final_output_of(p1),
        Some(&last),
        "the killed incarnation's"
    );
}

#[test]
#[should_panic(expected = "record_outputs")]
fn reading_unrecorded_history_panics() {
    let cluster = spawn(false);
    let live = catch_unwind(AssertUnwindSafe(|| {
        cluster.outputs_since(&mut OutputCursor::default())
    }));
    let report = cluster.stop();
    assert!(live.is_err(), "a live read returned {live:?}");
    let _ = report.outputs();
}
