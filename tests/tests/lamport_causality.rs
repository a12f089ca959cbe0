//! Properties of the causal tracing plane over seeded runs:
//!
//! 1. **Happens-before on deliveries** — for every message the simulator
//!    actually delivered, the receiver's clock after the merge is strictly
//!    greater than the sender's stamp (`merged > stamp`): no receive is
//!    ever causally before its send.
//! 2. **Per-node monotonicity** — each node's recorded probe events carry
//!    non-decreasing Lamport values (a node's clock never runs backwards),
//!    on the deterministic simulator and on the thread mesh alike.
//! 3. **Reconstruction soundness** — every span reconstructed from those
//!    streams is causally ordered (cross-node hops strictly increase the
//!    clock), for any seed.

use std::sync::Arc;
use std::time::Duration as StdDuration;

use lls_obs::{reconstruct_spans, NodeRecorders, SpanRecord};
use lls_primitives::runtime::Cluster as _;
use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};
use omega::{classify_msg, CommEffOmega, OmegaParams};
use proptest::prelude::*;
use threadnet::{Cluster, NetConfig};

/// Runs a seeded Ω election on the simulator with trace clocks attached
/// and returns (per-delivery causal log, per-node event streams).
fn traced_netsim_run(
    n: usize,
    seed: u64,
    horizon: u64,
) -> (Vec<netsim::CausalDelivery>, Arc<NodeRecorders>) {
    let recorders = Arc::new(NodeRecorders::new(n, 4096));
    let topo = Topology::system_s(
        n,
        ProcessId((seed % n as u64) as u32),
        SystemSParams::default(),
    );
    let mut sim = SimBuilder::new(n)
        .seed(seed)
        .topology(topo)
        .classify(classify_msg)
        .trace_clocks(recorders.clocks())
        .build_with(|env| {
            CommEffOmega::new_with_probe(env, OmegaParams::default(), recorders.probe_for(env.id()))
        });
    sim.run_until(Instant::from_ticks(horizon / 2));
    // A mid-run leader kill forces accusations and a re-election, so the
    // streams exercise cross-node chains, not just heartbeats.
    let victim = sim.node(ProcessId(0)).leader();
    sim.kill(victim);
    sim.run_until(Instant::from_ticks(horizon));
    let log = sim.causal_log().to_vec();
    (log, recorders)
}

fn assert_streams_monotone(recorders: &NodeRecorders) {
    for (i, stream) in recorders.all_events().iter().enumerate() {
        for w in stream.windows(2) {
            assert!(
                w[1].lamport >= w[0].lamport,
                "node p{i}: lamport regressed {} -> {} (seq {} -> {})",
                w[0].lamport,
                w[1].lamport,
                w[0].seq,
                w[1].seq
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deliveries respect happens-before and reconstruction never emits a
    /// receive-before-send span, for any seed.
    #[test]
    fn netsim_lamport_stamps_respect_happens_before(seed in 0u64..500) {
        let n = 4;
        let (log, recorders) = traced_netsim_run(n, seed, 20_000);
        prop_assert!(!log.is_empty(), "a 20k-tick run must deliver messages");
        for d in &log {
            prop_assert!(
                d.merged > d.stamp,
                "delivery {} -> {}: merged clock {} not past the stamp {}",
                d.from, d.to, d.merged, d.stamp
            );
        }
        assert_streams_monotone(&recorders);
        for span in reconstruct_spans(&recorders.all_events()) {
            prop_assert!(
                span.causally_ordered(),
                "reconstructed span violates happens-before: {span:?}"
            );
        }
    }
}

/// The deterministic simulator replays the same seed to the same causal
/// log — stamps included — so traces are diffable run-to-run.
#[test]
fn netsim_causal_log_is_deterministic() {
    let (a, _) = traced_netsim_run(4, 7, 12_000);
    let (b, _) = traced_netsim_run(4, 7, 12_000);
    assert_eq!(a, b);
}

/// The same monotonicity and soundness properties hold on the thread mesh,
/// where clock ticks and merges race with real scheduling.
#[test]
fn threadnet_streams_are_monotone_and_spans_ordered() {
    let n = 4;
    let recorders = Arc::new(NodeRecorders::new(n, 4096));
    let config = NetConfig {
        n,
        loss: 0.05,
        min_delay: StdDuration::from_micros(100),
        max_delay: StdDuration::from_micros(900),
        tick: StdDuration::from_millis(1),
        seed: 3,
    };
    let mut cluster = Cluster::spawn_traced(config, recorders.clocks(), |env| {
        CommEffOmega::new_with_probe(env, OmegaParams::default(), recorders.probe_for(env.id()))
    });
    std::thread::sleep(StdDuration::from_millis(800));
    cluster.kill(ProcessId(0));
    std::thread::sleep(StdDuration::from_millis(800));
    cluster.stop();
    assert_streams_monotone(&recorders);
    let spans = reconstruct_spans(&recorders.all_events());
    assert!(
        spans.iter().all(SpanRecord::causally_ordered),
        "threadnet spans must be causally ordered: {spans:?}"
    );
}
