//! A replicated key-value store on top of the [`ReplicatedLog`]: the
//! workload the paper's consensus result exists to serve.
//!
//! Five replicas run over system S (one ♦-source, fair-lossy mesh). Clients
//! submit `PUT` commands to the stable leader; every replica applies the
//! committed log in order and all end with the same store contents.
//!
//! Run with: `cargo run -p lls-examples --bin replicated_kv`

use std::collections::BTreeMap;

use consensus::{ConsensusParams, LifecycleId, ReplicatedLog, RsmEvent};
use lls_primitives::wire::{Wire, WireError, WireReader};
use lls_primitives::{Instant, ProcessId};
use netsim::{SimBuilder, SystemSParams, Topology};

/// A client command: put `key = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Put {
    key: String,
    value: u64,
}

impl Put {
    fn new(key: &str, value: u64) -> Self {
        Put {
            key: key.to_string(),
            value,
        }
    }
}

// The example's commands have no client session; they stay invisible to
// latency attribution.
impl LifecycleId for Put {
    fn lifecycle_id(&self) -> Option<lls_obs::CmdId> {
        None
    }
}

impl Wire for Put {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.value.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Put {
            key: String::decode(r)?,
            value: u64::decode(r)?,
        })
    }
}

/// Applies a committed command stream to an in-memory store.
fn materialize(cmds: impl Iterator<Item = Put>) -> BTreeMap<String, u64> {
    let mut store = BTreeMap::new();
    for cmd in cmds {
        store.insert(cmd.key, cmd.value);
    }
    store
}

fn main() {
    let n = 5;
    let source = ProcessId(0);
    let topology = Topology::system_s(n, source, SystemSParams::default());

    let workload = [
        Put::new("alice", 10),
        Put::new("bob", 20),
        Put::new("alice", 11),
        Put::new("carol", 30),
        Put::new("bob", 21),
        Put::new("dave", 40),
    ];

    let mut sim = SimBuilder::new(n)
        .record_outputs()
        .seed(7)
        .topology(topology)
        .build_with(|env| ReplicatedLog::<Put>::new(env, ConsensusParams::default()));

    // Let the election stabilize, then find the actual leader and aim the
    // client traffic at it (a real client would discover the leader the same
    // way: ask any replica for its Ω output).
    sim.run_until(Instant::from_ticks(15_000));
    let leader = sim.node(ProcessId(0)).omega().leader();
    println!("stable leader after 15k ticks: {leader}");

    for (i, cmd) in workload.iter().enumerate() {
        sim.schedule_request(
            Instant::from_ticks(15_100 + 400 * i as u64),
            leader,
            cmd.clone(),
        );
    }
    sim.run_until(Instant::from_ticks(60_000));

    println!("\n=== commit log (as observed at {leader}) ===");
    for e in sim.outputs().iter().filter(|e| e.process == leader) {
        if let RsmEvent::Committed { slot, cmd } = &e.output {
            println!("  t={:<7} slot {slot}: {cmd:?}", e.at.ticks());
        }
    }

    println!("\n=== materialized stores ===");
    let mut stores = Vec::new();
    for p in (0..n as u32).map(ProcessId) {
        let store = materialize(sim.node(p).committed_commands().cloned());
        println!("  {p}: {store:?}");
        stores.push(store);
    }
    assert!(
        stores.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged!"
    );
    println!("\nall {n} replicas converged to the same store ✓");
}
