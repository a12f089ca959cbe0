//! A thread cluster keeps every output of its processes, and a cursor reads
//! each one once, across a kill and a restart.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::Cluster as _;
use lls_primitives::{Ctx, ProcessId, Sm, TimerId};
use threadnet::{Cluster, NetConfig, OutputCursor, TimedOutput};

/// Outputs every request it is handed.
#[derive(Debug)]
struct Echo;

impl Sm for Echo {
    type Msg = ();
    type Output = u64;
    type Request = u64;

    fn on_start(&mut self, _: &mut Ctx<'_, (), u64>) {}

    fn on_message(&mut self, _: &mut Ctx<'_, (), u64>, _: ProcessId, _: ()) {}

    fn on_timer(&mut self, _: &mut Ctx<'_, (), u64>, _: TimerId) {}

    fn on_request(&mut self, ctx: &mut Ctx<'_, (), u64>, v: u64) {
        ctx.output(v);
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
    let config = NetConfig {
        n: 2,
        loss: 0.0,
        tick: StdDuration::from_millis(1),
        ..NetConfig::default()
    };
    let mut cluster = Cluster::spawn(config, |_| Echo);
    let (mut cursor, mut read) = (OutputCursor::default(), Vec::new());
    let mut requested = [Vec::new(), Vec::new()];
    let mut next = 0;
    for round in 0..4 {
        for (p, sent) in requested.iter_mut().enumerate() {
            for _ in 0..50 {
                cluster.request(ProcessId(p as u32), next);
                sent.push(next);
                next += 1;
            }
        }
        if round == 1 {
            // Queued behind this round's requests: incarnation 1 handles
            // them all, incarnation 2 the rest.
            cluster.kill(ProcessId(1));
            cluster.restart(ProcessId(1), Echo);
        }
        // Read until both processes' last output of the round has come, so
        // every later read starts in the middle of the history.
        let last = [requested[0].last().copied(), requested[1].last().copied()];
        let mut seen = [None, None];
        let deadline = StdInstant::now() + StdDuration::from_secs(10);
        while seen != last {
            assert!(StdInstant::now() < deadline, "round {round} read {seen:?}");
            std::thread::sleep(StdDuration::from_millis(1));
            for t in cluster.outputs_since(&mut cursor) {
                seen[t.process.as_usize()] = Some(t.output);
                read.push(t);
            }
        }
    }
    let report = cluster.stop();
    assert_eq!(per_process(&read), requested, "each output once, in order");
    assert_eq!(per_process(report.outputs()), requested);
}
