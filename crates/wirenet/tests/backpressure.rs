//! Backpressure under a pipelined burst: a deliberately tiny bounded
//! outbound queue is flooded by the batched/pipelined leader path, and the
//! substrate must degrade by dropping the *oldest* frames — never by
//! blocking a handler. One follower is killed first, so the leader's link
//! to it is down and every frame for it queues: an idle, connected link
//! writes straight to the socket, whose kernel buffer would absorb the
//! whole burst. The surviving majority keeps committing, and the drops are
//! accounted in the metrics registry as `wirenet_queue_drops_total`.

use std::time::{Duration as StdDuration, Instant as StdInstant};

use consensus::{BatchParams, ConsensusParams, ReplicatedLog, RsmEvent};
use lls_obs::Registry;
use lls_primitives::ProcessId;
use wirenet::{BackoffConfig, WireCluster, WireConfig};

#[test]
fn pipelined_burst_overflows_queue_without_deadlock_and_counts_drops() {
    let n = 3;
    let mut cluster = WireCluster::try_spawn(
        WireConfig {
            n,
            tick: StdDuration::from_millis(1),
            // Small enough that one pipelined burst (every Accept and
            // Decide fans out to both peers) must overflow it.
            queue_capacity: 4,
            backoff: BackoffConfig::default(),
            faults: None,
        },
        |env| {
            ReplicatedLog::<u64, _>::new(
                env,
                ConsensusParams {
                    batch: BatchParams {
                        max_batch: 8,
                        pipeline_depth: 8,
                    },
                    ..ConsensusParams::default()
                },
            )
        },
    )
    .expect("bind 127.0.0.1 listeners");

    // Await a unanimous stable leader before flooding it.
    let deadline = StdInstant::now() + StdDuration::from_secs(10);
    let stable_for = StdDuration::from_millis(300);
    let mut held: Option<(ProcessId, StdInstant)> = None;
    let leader = loop {
        let view: Vec<Option<ProcessId>> = cluster
            .latest_outputs()
            .into_iter()
            .map(|o| match o {
                Some(RsmEvent::Leader(l)) => Some(l),
                _ => None,
            })
            .collect();
        let unanimous = match view.first() {
            Some(&Some(l)) if view.iter().all(|v| *v == Some(l)) => Some(l),
            _ => None,
        };
        match (unanimous, held) {
            (Some(l), Some((h, since))) if l == h && since.elapsed() >= stable_for => break l,
            (Some(l), Some((h, _))) if l == h => {}
            (Some(l), _) => held = Some((l, StdInstant::now())),
            (None, _) => held = None,
        }
        assert!(StdInstant::now() < deadline, "no stable leader over TCP");
        std::thread::sleep(StdDuration::from_millis(20));
    };

    // Take one follower down, so the leader's link to it must queue.
    let follower = (0..n as u32)
        .map(ProcessId)
        .find(|&p| p != leader)
        .expect("n > 1");
    cluster.kill(follower);

    // The pipelined burst: far more traffic than 4-deep queues can hold.
    let burst = 400u64;
    for v in 0..burst {
        cluster.request(leader, v);
    }

    // Liveness despite overflow: the surviving majority keeps committing.
    // Wait for real progress — a deadlocked node would freeze the newest
    // outputs instead.
    let deadline = StdInstant::now() + StdDuration::from_secs(20);
    loop {
        let progressed = cluster
            .latest_outputs()
            .into_iter()
            .any(|o| matches!(o, Some(RsmEvent::Committed { cmd: Some(v), .. }) if v >= 50));
        if progressed {
            break;
        }
        assert!(
            StdInstant::now() < deadline,
            "no commit progress under backpressure: {:?}",
            cluster.latest_outputs()
        );
        std::thread::sleep(StdDuration::from_millis(10));
    }

    // stop() joins every node and I/O thread — it returning at all is the
    // no-deadlock half of the property.
    let report = cluster.stop();

    // The drop accounting surfaces in the metrics registry.
    let registry = Registry::new();
    report.export(&registry);
    let drops = registry.counter_value("wirenet_queue_drops_total");
    assert!(
        drops > 0,
        "a {burst}-command pipelined burst against 4-deep queues must drop frames"
    );
}
