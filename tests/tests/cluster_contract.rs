//! The `runtime::Cluster` contract, checked through the trait on wirenet's
//! TCP cluster: a request sent to a killed process is never handled, a
//! killed incarnation's last output stays readable, and restarting a live
//! process does nothing.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::runtime::Cluster;
use lls_primitives::{Ctx, ProcessId, Sm, TimerId};
use wirenet::{WireCluster, WireConfig};

/// Incarnation `i` outputs `(i, 0)` when it starts and `(i, r)` for each
/// request `r`.
#[derive(Debug)]
struct Tagger(u64);

impl Sm for Tagger {
    type Msg = u64;
    type Output = (u64, u64);
    type Request = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, (u64, u64)>) {
        ctx.output((self.0, 0));
    }

    fn on_message(&mut self, _: &mut Ctx<'_, u64, (u64, u64)>, _: ProcessId, _: u64) {}

    fn on_timer(&mut self, _: &mut Ctx<'_, u64, (u64, u64)>, _: TimerId) {}

    fn on_request(&mut self, ctx: &mut Ctx<'_, u64, (u64, u64)>, r: u64) {
        ctx.output((self.0, r));
    }
}

/// Polls until `p`'s latest output is `want`. A process handles its
/// requests and restarts in the order they were sent, so once `want` shows,
/// everything sent before it has been handled or dropped.
fn await_latest(cluster: &impl Cluster<Sm = Tagger>, p: ProcessId, want: (u64, u64)) {
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    while cluster.latest_outputs()[p.as_usize()] != Some(want) {
        let latest = cluster.latest_outputs();
        assert!(
            StdInstant::now() < deadline,
            "{p} never output {want:?}: {latest:?}"
        );
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

fn keeps_the_contract(mut cluster: impl Cluster<Sm = Tagger>) {
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    cluster.request(p1, 1);
    await_latest(&cluster, p1, (1, 1));
    cluster.kill(p1);
    cluster.request(p1, 2);
    assert_eq!(
        cluster.latest_outputs()[1],
        Some((1, 1)),
        "killed p1's output"
    );
    cluster.restart(p1, Tagger(2));
    await_latest(&cluster, p1, (2, 0));
    cluster.request(p1, 3);
    await_latest(&cluster, p1, (2, 3));
    cluster.restart(p0, Tagger(9));
    cluster.request(p0, 4);
    await_latest(&cluster, p0, (1, 4));
    cluster.kill(p0);
    let report = cluster.stop();
    assert_eq!(
        report.final_output_of(p0),
        Some(&(1, 4)),
        "killed p0's output"
    );
    assert_eq!(report.final_output_of(p1), Some(&(2, 3)));
    let history: Vec<(ProcessId, (u64, u64))> = report
        .outputs()
        .iter()
        .map(|t| (t.process, t.output))
        .collect();
    assert!(
        history.iter().all(|&(_, (i, r))| r != 2 && i != 9),
        "a request to a dead process or a live restart ran: {history:?}"
    );
}

#[test]
fn wirenet_keeps_the_cluster_contract() {
    let config = WireConfig {
        n: 2,
        tick: StdDuration::from_millis(1),
        record_outputs: true,
        ..WireConfig::default()
    };
    keeps_the_contract(WireCluster::spawn(config, |_| Tagger(1)));
}
