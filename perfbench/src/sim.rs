//! The simulated system under test: an `n = 5` netsim cluster of
//! `ShardedKvNode`s with S = 4 shards over all-timely links of 2 ticks. No
//! sockets, threads or disk: what it times is protocol CPU.

use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Instant as WallInstant;

use consensus::{classify_shard_msg, ConsensusParams, PlacementManager, PlacementMap};
use kvstore::{KvCmd, ShardedKvNode, Tagged};
use lls_primitives::{Duration, Instant, ProcessId};
use netsim::{SimBuilder, Simulator, Topology};

use crate::load::Sys;
use crate::node::{Completion, Event, Probe, ReplicaLog, Req, TraceBuf, Tracer};

/// Virtual µs per tick: the tick length the TCP clusters run at.
pub const US_PER_TICK: f64 = 1000.0;

pub struct Sim {
    pub sim: Simulator<Probe<ShardedKvNode>>,
    rx: Receiver<Completion>,
    pub logs: Vec<Arc<Mutex<ReplicaLog>>>,
    pub traces: Vec<Arc<Mutex<TraceBuf>>>,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim").field("now", &self.sim.now()).finish()
    }
}

impl Sim {
    pub const N: usize = 5;
    pub const SHARDS: u32 = 4;

    pub fn build(seed: u64, params: ConsensusParams, traced: bool) -> Sim {
        let (tx, rx) = channel();
        let tracer = Tracer::new(WallInstant::now());
        tracer
            .on
            .store(traced, std::sync::atomic::Ordering::Relaxed);
        let map = PlacementMap::uniform(Self::SHARDS, Self::N);
        let logs: Vec<Arc<Mutex<ReplicaLog>>> = (0..Self::N).map(|_| Arc::default()).collect();
        let traces: Vec<Arc<Mutex<TraceBuf>>> = (0..Self::N).map(|_| Arc::default()).collect();
        let sim = SimBuilder::new(Self::N)
            .seed(seed)
            .topology(Topology::all_timely(Self::N, Duration::from_ticks(2)))
            .classify(classify_shard_msg)
            .build_with(|env| {
                let p = env.id().as_usize();
                let node = ShardedKvNode::new(
                    env,
                    params,
                    PlacementManager::with_all_attached(map.clone()),
                );
                Probe::new(
                    node,
                    env,
                    tx.clone(),
                    Arc::clone(&logs[p]),
                    Arc::clone(&tracer),
                    Arc::clone(&traces[p]),
                )
            });
        Sim {
            sim,
            rx,
            logs,
            traces,
        }
    }

    /// Messages delivered to all replicas so far.
    pub fn delivered(&self) -> u64 {
        let stats = self.sim.stats();
        (0..Self::N as u32)
            .map(|p| stats.delivered_to(ProcessId(p)))
            .sum()
    }
}

impl Sys for Sim {
    fn now(&mut self) -> f64 {
        self.sim.now().ticks() as f64 * US_PER_TICK
    }

    fn n(&self) -> usize {
        Self::N
    }

    fn send(&mut self, to: ProcessId, op: Tagged<KvCmd>) {
        let now = self.sim.now();
        self.sim.schedule_request(now, to, Req::Op(op));
    }

    fn next(&mut self, until: f64) -> Option<(f64, ProcessId, Event)> {
        loop {
            if let Ok(c) = self.rx.try_recv() {
                return Some((c.tick as f64 * US_PER_TICK, c.node, c.event));
            }
            let now = self.sim.now();
            if now.ticks() as f64 * US_PER_TICK >= until {
                return None;
            }
            self.sim.run_until(Instant::from_ticks(now.ticks() + 1));
        }
    }

    fn kill(&mut self, p: ProcessId) {
        self.sim.kill(p);
    }

    fn restart(&mut self, _p: ProcessId) {}
}
