//! Where wirenet runs each handler: a message on the reader thread that
//! read its frame, a request or a timer on the node's protocol thread. These
//! tests pin the invariants that split relies on: requests still go through
//! the protocol thread's inbox, frames on a link arrive in send order in
//! both directions, a timer armed from a reader thread fires on time rather
//! than at the protocol thread's earlier planned wake-up, and a handler that
//! panics on a reader thread is reported when the cluster stops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration as StdDuration, Instant as StdInstant};

use lls_primitives::{Ctx, Duration, ProcessId, Sm, TimerId};
use wirenet::{NodeError, WireCluster, WireConfig};

/// What a [`Probe`] handler reports: which stimulus ran, on which thread.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Request(String),
    Message(u64, String),
    Timer(String),
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string()
}

/// Requests carry a count `k`: send `0..k` to process 1. Process 1 echoes
/// every message back. The request and message [`ARM`] instead make
/// process 1 arm timer 2 in five ticks. On start, every process arms timer
/// 1 far out, so the protocol thread plans to sleep for a long time.
#[derive(Debug)]
struct Probe;

const FAR: Duration = Duration::from_ticks(60_000);
const ARM: u64 = u64::MAX;

impl Sm for Probe {
    type Msg = u64;
    type Output = Seen;
    type Request = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, Seen>) {
        ctx.set_timer(TimerId(1), FAR);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64, Seen>, from: ProcessId, msg: u64) {
        ctx.output(Seen::Message(msg, thread_name()));
        if msg == ARM {
            ctx.set_timer(TimerId(2), Duration::from_ticks(5));
        } else if ctx.id() == ProcessId(1) {
            ctx.send(from, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64, Seen>, _: TimerId) {
        ctx.output(Seen::Timer(thread_name()));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, u64, Seen>, k: u64) {
        ctx.output(Seen::Request(thread_name()));
        if k == ARM {
            ctx.send(ProcessId(1), ARM);
            return;
        }
        for i in 0..k {
            ctx.send(ProcessId(1), i);
        }
    }
}

fn config() -> WireConfig {
    WireConfig {
        n: 2,
        tick: StdDuration::from_millis(1),
        ..WireConfig::default()
    }
}

/// Polls `p`'s outputs until `done` holds for them.
fn await_outputs(
    cluster: &WireCluster<Probe>,
    p: ProcessId,
    done: impl Fn(&[Seen]) -> bool,
) -> Vec<Seen> {
    let deadline = StdInstant::now() + StdDuration::from_secs(20);
    loop {
        let seen: Vec<Seen> = cluster
            .outputs_so_far()
            .into_iter()
            .filter(|t| t.process == p)
            .map(|t| t.output)
            .collect();
        if done(&seen) {
            return seen;
        }
        assert!(StdInstant::now() < deadline, "{p} stalled at {seen:?}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

fn messages(seen: &[Seen]) -> Vec<(u64, String)> {
    seen.iter()
        .filter_map(|s| match s {
            Seen::Message(m, t) => Some((*m, t.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn frames_arrive_in_send_order_and_each_handler_runs_on_its_thread() {
    let cluster = WireCluster::try_spawn(config(), |_| Probe).expect("bind listeners");
    let (p0, p1) = (ProcessId(0), ProcessId(1));
    // One message first, so both links are connected before the burst.
    cluster.request(p0, 1);
    await_outputs(&cluster, p0, |s| !messages(s).is_empty());
    let k = 500;
    cluster.request(p0, k);
    let back = await_outputs(&cluster, p0, |s| messages(s).len() as u64 > k);
    let report = cluster.stop();
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    // Process 1 saw 0, then 0..k, in send order, each on a reader thread.
    let there: Vec<(u64, String)> = report
        .outputs
        .iter()
        .filter(|t| t.process == p1)
        .filter_map(|t| match &t.output {
            Seen::Message(m, th) => Some((*m, th.clone())),
            _ => None,
        })
        .collect();
    let order: Vec<u64> = std::iter::once(0).chain(0..k).collect();
    assert_eq!(there.iter().map(|m| m.0).collect::<Vec<_>>(), order);
    assert!(there.iter().all(|m| m.1 == "wirenet-reader"), "{there:?}");
    // Its echoes, sent from reader threads, came back in the same order.
    let echoes = messages(&back);
    assert_eq!(echoes.iter().map(|m| m.0).collect::<Vec<_>>(), order);
    assert!(echoes.iter().all(|m| m.1 == "wirenet-reader"));
    // Requests still go through the protocol thread's inbox.
    let requests: Vec<&Seen> = back
        .iter()
        .filter(|s| matches!(s, Seen::Request(_)))
        .collect();
    assert_eq!(requests.len(), 2);
    assert!(requests
        .iter()
        .all(|s| **s == Seen::Request("wirenet-protocol".into())));
}

#[test]
fn a_timer_armed_by_a_message_handler_fires_on_time() {
    let cluster = WireCluster::try_spawn(config(), |_| Probe).expect("bind listeners");
    let p1 = ProcessId(1);
    let asked = StdInstant::now();
    cluster.request(ProcessId(0), ARM);
    // Process 1's protocol thread planned to wake at its 60 s timer; the
    // reader that armed timer 2 must have woken it.
    let seen = await_outputs(&cluster, p1, |s| {
        s.iter().any(|o| matches!(o, Seen::Timer(_)))
    });
    let waited = asked.elapsed();
    cluster.stop();
    assert!(
        waited < StdDuration::from_secs(5),
        "a 5-tick timer fired after {waited:?}"
    );
    assert_eq!(
        seen,
        vec![
            Seen::Message(ARM, "wirenet-reader".into()),
            Seen::Timer("wirenet-protocol".into())
        ]
    );
}

/// Panics in `on_message` on process 1, after raising [`PANICKED`].
#[derive(Debug)]
struct PanicsOnMessage;

static PANICKED: AtomicBool = AtomicBool::new(false);

impl Sm for PanicsOnMessage {
    type Msg = u64;
    type Output = ();
    type Request = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64, ()>) {
        ctx.set_timer(TimerId(0), Duration::from_ticks(5));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64, ()>, _: ProcessId, _: u64) {
        if ctx.id() == ProcessId(1) {
            PANICKED.store(true, Ordering::SeqCst);
            panic!("a handler bug on a reader thread");
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64, ()>, timer: TimerId) {
        ctx.broadcast(0);
        ctx.set_timer(timer, Duration::from_ticks(5));
    }
}

#[test]
fn a_handler_panic_on_a_reader_thread_is_reported_at_stop() {
    let cluster = WireCluster::try_spawn(config(), |_| PanicsOnMessage).expect("bind listeners");
    let deadline = StdInstant::now() + StdDuration::from_secs(20);
    while !PANICKED.load(Ordering::SeqCst) {
        assert!(StdInstant::now() < deadline, "no message reached process 1");
        std::thread::sleep(StdDuration::from_millis(2));
    }
    // stop() returning at all means the poisoned node did not hang it.
    let report = cluster.stop();
    assert!(
        report.errors.contains(&NodeError::ThreadPanic {
            node: ProcessId(1),
            role: "reader"
        }),
        "{:?}",
        report.errors
    );
    assert!(
        report
            .errors
            .iter()
            .all(|e| matches!(e, NodeError::ThreadPanic { node, .. } if *node == ProcessId(1))),
        "only process 1 failed: {:?}",
        report.errors
    );
}
