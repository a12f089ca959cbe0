//! The TCP system under test: an `n = 3` wirenet cluster of `KvReplica`s,
//! each with a `FileWal` in a fresh directory inside the benchmark's build
//! directory, driven through the cluster's public API.

use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant as WallInstant};

use consensus::ConsensusParams;
use kvstore::{KvCmd, KvReplica, Tagged};
use lls_primitives::{Env, FileWal, ProcessId, StorageHandle};
use wirenet::{LinkStats, WireCluster, WireConfig};

use crate::load::Sys;
use crate::node::{Completion, Event, Probe, ReplicaLog, Req, TimedWal, TraceBuf, Tracer};

/// A WAL directory removed when dropped, panics included.
#[derive(Debug)]
pub struct WalDir(pub PathBuf);

impl WalDir {
    /// A fresh directory under `root`.
    pub fn create(root: &FsPath) -> std::io::Result<Self> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("wal-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WalDir(dir))
    }
}

impl Drop for WalDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Counters of the whole cluster at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Protocol-level sends of all replicas.
    pub msgs: u64,
    pub links: LinkStats,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        let l = &self.links;
        let e = &earlier.links;
        Counters {
            msgs: self.msgs - earlier.msgs,
            links: LinkStats {
                msgs_sent: l.msgs_sent - e.msgs_sent,
                bytes_sent: l.bytes_sent - e.bytes_sent,
                msgs_recv: l.msgs_recv - e.msgs_recv,
                bytes_recv: l.bytes_recv - e.bytes_recv,
                reconnects: l.reconnects - e.reconnects,
                queue_drops: l.queue_drops - e.queue_drops,
                injected_drops: l.injected_drops - e.injected_drops,
                decode_errors: l.decode_errors - e.decode_errors,
            },
        }
    }
}

type Node = Probe<KvReplica>;

/// Wall-clock length of one protocol tick.
pub const TICK_US: u64 = 2_000;

/// One replica incarnation's shared records.
#[derive(Debug)]
pub struct Incarnation {
    pub node: u32,
    pub log: Arc<Mutex<ReplicaLog>>,
    pub trace: Arc<Mutex<TraceBuf>>,
}

/// A running TCP cluster plus the channel its replicas report on.
pub struct Tcp {
    cluster: Option<WireCluster<Node>>,
    rx: Receiver<Completion>,
    tx: Sender<Completion>,
    pub tracer: Arc<Tracer>,
    params: ConsensusParams,
    wal_delay: StdDuration,
    pub dir: WalDir,
    pub incarnations: Vec<Incarnation>,
    current: Vec<usize>,
    /// Wall time to reopen a WAL and rebuild the replica from it, per restart.
    pub load_ms: Vec<f64>,
    /// `(restart at µs, incarnation index)` of every restart.
    pub restarts: Vec<(f64, usize)>,
    pub errors: Vec<String>,
}

impl std::fmt::Debug for Tcp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcp").field("dir", &self.dir).finish()
    }
}

fn wal_path(dir: &FsPath, p: u32) -> PathBuf {
    dir.join(format!("p{p}.wal"))
}

impl Tcp {
    pub const N: usize = 3;

    /// Opens fresh WALs and spawns the cluster on OS-assigned ports.
    pub fn start(
        root: &FsPath,
        params: ConsensusParams,
        wal_delay: StdDuration,
    ) -> Result<Tcp, String> {
        let dir = WalDir::create(root).map_err(|e| format!("WAL directory: {e}"))?;
        let (tx, rx) = channel();
        let mut tcp = Tcp {
            cluster: None,
            rx,
            tx,
            tracer: Tracer::new(WallInstant::now()),
            params,
            wal_delay,
            dir,
            incarnations: Vec::new(),
            current: vec![0; Self::N],
            load_ms: Vec::new(),
            restarts: Vec::new(),
            errors: Vec::new(),
        };
        let mut nodes = Vec::new();
        for p in 0..Self::N as u32 {
            nodes.push(Some(tcp.incarnate(p)?));
        }
        let config = WireConfig {
            n: Self::N,
            tick: StdDuration::from_micros(TICK_US),
            ..WireConfig::default()
        };
        let cluster = WireCluster::try_spawn(config, |env| {
            nodes[env.id().as_usize()]
                .take()
                .expect("one node per process")
        })
        .map_err(|e| format!("spawn: {e}"))?;
        tcp.cluster = Some(cluster);
        Ok(tcp)
    }

    /// Builds node `p`'s next incarnation from its WAL.
    fn incarnate(&mut self, p: u32) -> Result<Node, String> {
        let env = Env::new(ProcessId(p), Self::N);
        let wal = FileWal::open(wal_path(&self.dir.0, p)).map_err(|e| format!("open WAL: {e}"))?;
        let storage = StorageHandle::new(TimedWal::new(wal, self.wal_delay));
        let replica = KvReplica::with_storage(&env, self.params, storage)
            .map_err(|e| format!("recover p{p}: {e}"))?;
        let inc = Incarnation {
            node: p,
            log: Arc::default(),
            trace: Arc::default(),
        };
        let node = Probe::new(
            replica,
            &env,
            self.tx.clone(),
            Arc::clone(&inc.log),
            Arc::clone(&self.tracer),
            Arc::clone(&inc.trace),
        );
        self.current[p as usize] = self.incarnations.len();
        self.incarnations.push(inc);
        Ok(node)
    }

    pub fn cluster(&self) -> &WireCluster<Node> {
        self.cluster.as_ref().expect("cluster is running")
    }

    fn us(&self, at: WallInstant) -> f64 {
        at.saturating_duration_since(self.tracer.epoch).as_nanos() as f64 / 1e3
    }

    pub fn counters(&self) -> Counters {
        let c = self.cluster();
        Counters {
            msgs: c.traffic_snapshot().0.iter().sum(),
            links: c
                .link_snapshot()
                .into_iter()
                .flatten()
                .fold(LinkStats::default(), LinkStats::merge),
        }
    }

    /// Asks every live replica for its store until all have applied the
    /// same number of slots, or `patience` runs out.
    pub fn collect_stores(&mut self, patience: StdDuration) {
        let deadline = WallInstant::now() + patience;
        loop {
            let live: Vec<usize> = (0..Self::N)
                .filter(|&p| self.cluster().is_alive(ProcessId(p as u32)))
                .collect();
            for &p in &live {
                self.incarnations[self.current[p]]
                    .log
                    .lock()
                    .expect("log")
                    .state = None;
                self.cluster().request(ProcessId(p as u32), Req::Snapshot);
            }
            std::thread::sleep(StdDuration::from_millis(20));
            let uptos: Vec<Option<u64>> = live
                .iter()
                .map(|&p| {
                    let log = self.incarnations[self.current[p]].log.lock().expect("log");
                    log.state.as_ref().map(|s| s.0)
                })
                .collect();
            let settled =
                uptos.iter().all(Option::is_some) && uptos.windows(2).all(|w| w[0] == w[1]);
            if settled || WallInstant::now() >= deadline {
                return;
            }
            std::thread::sleep(StdDuration::from_millis(30));
        }
    }

    /// Stops the cluster and joins its threads.
    pub fn stop(&mut self) {
        if let Some(c) = self.cluster.take() {
            let report = c.stop();
            self.errors
                .extend(report.errors.iter().map(|e| e.to_string()));
        }
    }

    /// Time to open `p`'s WAL and rebuild a replica from it, in ms.
    pub fn time_wal_load(&self, p: u32) -> Option<f64> {
        let start = WallInstant::now();
        let env = Env::new(ProcessId(p), Self::N);
        let wal = FileWal::open(wal_path(&self.dir.0, p)).ok()?;
        let replica = KvReplica::with_storage(&env, self.params, StorageHandle::new(wal)).ok()?;
        std::hint::black_box(&replica);
        Some(start.elapsed().as_secs_f64() * 1e3)
    }
}

impl Drop for Tcp {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Sys for Tcp {
    fn now(&mut self) -> f64 {
        self.us(WallInstant::now())
    }

    fn n(&self) -> usize {
        Self::N
    }

    fn send(&mut self, to: ProcessId, op: Tagged<KvCmd>) {
        self.cluster().request(to, Req::Op(op));
    }

    fn next(&mut self, until: f64) -> Option<(f64, ProcessId, Event)> {
        let wait = (until - self.now()).max(0.0);
        let got = if wait == 0.0 {
            self.rx.try_recv().ok()
        } else {
            self.rx
                .recv_timeout(StdDuration::from_nanos((wait * 1e3) as u64))
                .ok()
        };
        got.map(|c| (self.us(c.wall), c.node, c.event))
    }

    fn kill(&mut self, p: ProcessId) {
        if let Some(c) = self.cluster.as_mut() {
            c.kill(p);
        }
    }

    fn restart(&mut self, p: ProcessId) {
        let start = WallInstant::now();
        match self.incarnate(p.0) {
            Ok(node) => {
                self.load_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let at = self.now();
                self.restarts.push((at, self.incarnations.len() - 1));
                if let Some(Err(e)) = self.cluster.as_mut().map(|c| c.restart(p, node)) {
                    self.errors.push(format!("restart {p}: {e}"));
                }
            }
            Err(e) => self.errors.push(e),
        }
    }
}
