//! The load generator: one thread that sends operations on a schedule
//! (open loop) or as earlier ones complete (closed loop), follows the
//! replicas' `Leader` outputs, resubmits what a failure swallowed, and
//! records when every operation was due and when it was answered.
//!
//! Client hygiene: a client id never has two commands outstanding. A put is
//! resubmitted under its own `(client, seq)`, so the store's per-client sequence table
//! turns a second commit into `Duplicate`. A read is resubmitted under a
//! fresh client id, and the old id is retired, because a read that went
//! through the log and is answered `Duplicate` carries no value.

use std::collections::{BTreeSet, HashMap};

use kvstore::{ClientId, KvCmd, Tagged};
use lls_primitives::ProcessId;

use crate::node::{Event, Path, Reply};

/// The system under load, as the generator sees it. Times are µs since the
/// run's epoch: wall-clock on TCP, virtual (one tick = 1000 µs) on netsim.
pub trait Sys {
    fn now(&mut self) -> f64;
    fn n(&self) -> usize;
    fn send(&mut self, to: ProcessId, op: Tagged<KvCmd>);
    /// The next completion emitted no later than `until`, waiting for it if
    /// needed; `None` once `until` has passed without one.
    fn next(&mut self, until: f64) -> Option<(f64, ProcessId, Event)>;
    /// Crashes `p`.
    fn kill(&mut self, p: ProcessId);
    /// Restarts `p` from its durable state.
    fn restart(&mut self, p: ProcessId);
}

/// A small deterministic generator (splitmix64): the workload's inputs are
/// a function of the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_BE4C_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where reads go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadTo {
    /// Every read to the leader.
    Leader,
    /// Uniformly over the live replicas.
    Spread,
}

/// How operations arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// `clients` callers, each sending its next operation when the last one
    /// is answered.
    Closed { clients: usize },
    /// Operations due at a fixed rate per second, sent when due whatever is
    /// outstanding.
    Open { per_sec: f64 },
    /// Like `Open`, with exponentially distributed gaps (a Poisson stream of
    /// the same mean rate) drawn from the seed.
    Poisson { per_sec: f64 },
}

/// One phase of load.
#[derive(Debug, Clone)]
pub struct Plan {
    pub arrival: Arrival,
    /// Stop sending after this long (µs) ...
    pub duration_us: f64,
    /// ... or after this many operations.
    pub max_ops: u64,
    pub read_share: f64,
    pub read_to: ReadTo,
    pub keys: u64,
    pub value_len: usize,
    /// Resubmit an operation unanswered for this long (µs).
    pub resubmit_us: f64,
    /// After sending stops, wait this long (µs) for outstanding answers.
    pub drain_us: f64,
    /// `(kill at, restart at)` offsets (µs) from the phase start: the then
    /// current leader is killed and later restarted.
    pub kills: Vec<(f64, f64)>,
    /// Label of the phase; 0 is warm-up, which counts toward no metric.
    pub phase: u8,
}

/// What an operation does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Kind {
    Put { key: String, value: String },
    Read { key: String },
}

impl Kind {
    pub fn key(&self) -> &str {
        match self {
            Kind::Put { key, .. } | Kind::Read { key } => key,
        }
    }
}

/// How an operation ended.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    pub at: f64,
    /// Log slot of a put (the apply watermark for a fast read).
    pub slot: u64,
    pub reply: Reply,
    pub path: Path,
    /// Answered `Duplicate` on its first attempt.
    pub failed: bool,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub phase: u8,
    /// When it was due (open loop) or first sent (closed loop).
    pub due: f64,
    pub first_sent: f64,
    pub last_sent: f64,
    pub tag: (u64, u64),
    pub target: ProcessId,
    pub attempts: u32,
    /// Sent where a leader change has since made it unlikely to be served.
    pub stale: bool,
    pub done: Option<Done>,
}

impl Op {
    pub fn latency(&self) -> Option<f64> {
        self.done
            .as_ref()
            .filter(|d| !d.failed)
            .map(|d| d.at - self.due)
    }
}

/// A kill and what followed it.
#[derive(Debug, Clone, Default)]
pub struct Kill {
    pub phase: u8,
    pub node: u32,
    pub at: f64,
    /// First `Leader` output of a survivor naming someone else.
    pub detected_at: Option<f64>,
    /// First operation answered afterwards.
    pub served_at: Option<f64>,
}

/// Everything the generator saw.
#[derive(Debug, Default)]
pub struct Record {
    pub ops: Vec<Op>,
    by_seq: HashMap<u64, usize>,
    free: Vec<u64>,
    next_client: u64,
    next_seq: u64,
    outstanding: BTreeSet<usize>,
    /// `(phase, send time minus due time)` of each open-loop operation.
    pub lateness: Vec<(u8, f64)>,
    /// `(at, node, leader)` of every `Leader` output.
    pub leaders: Vec<(f64, u32, u32)>,
    /// `(from, leader)`: the generator's leader view over time.
    pub leader_view: Vec<(f64, u32)>,
    pub kills: Vec<Kill>,
    /// `(phase, start, end)` of each phase's sending window.
    pub windows: Vec<(u8, f64, f64)>,
    views: Vec<Option<(u32, u64)>>,
    alive: Vec<bool>,
    announcements: u64,
}

impl Record {
    pub fn new(n: usize) -> Self {
        Record {
            next_client: 1,
            next_seq: 1,
            views: vec![None; n],
            alive: vec![true; n],
            ..Record::default()
        }
    }

    /// The generator's view of the leader: the candidate most live replicas
    /// name, ties going to the most recent announcement.
    pub fn leader(&self) -> Option<ProcessId> {
        let live_views = || {
            self.views
                .iter()
                .zip(&self.alive)
                .filter_map(|(v, alive)| v.filter(|_| *alive))
        };
        live_views()
            .map(|(l, _)| l)
            .filter(|l| self.alive.get(*l as usize).copied().unwrap_or(false))
            .max_by_key(|l| {
                live_views()
                    .filter(|(c, _)| c == l)
                    .fold((0usize, 0u64), |(n, o), (_, order)| (n + 1, o.max(order)))
            })
            .map(ProcessId)
    }

    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    fn mint_tag(&mut self) -> (u64, u64) {
        let client = self.free.pop().unwrap_or_else(|| {
            self.next_client += 1;
            self.next_client - 1
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        (client, seq)
    }

    fn tagged(&self, i: usize) -> Tagged<KvCmd> {
        let op = &self.ops[i];
        let cmd = match &op.kind {
            Kind::Put { key, value } => KvCmd::put(key.clone(), value.clone()),
            Kind::Read { key } => KvCmd::read(key.clone()),
        };
        Tagged {
            client: ClientId(op.tag.0),
            seq: op.tag.1,
            cmd,
        }
    }

    /// Registers a new operation under a fresh tag and returns its index
    /// and command.
    pub fn submit(
        &mut self,
        kind: Kind,
        due: f64,
        now: f64,
        target: ProcessId,
        phase: u8,
    ) -> (usize, Tagged<KvCmd>) {
        let tag = self.mint_tag();
        let i = self.ops.len();
        self.ops.push(Op {
            kind,
            phase,
            due,
            first_sent: now,
            last_sent: now,
            tag,
            target,
            attempts: 1,
            stale: false,
            done: None,
        });
        self.by_seq.insert(tag.1, i);
        self.outstanding.insert(i);
        (i, self.tagged(i))
    }

    /// Sends operation `i` again: a put under its own tag, a read under a
    /// fresh one (its old client id is retired).
    pub fn resubmit(&mut self, i: usize, now: f64, target: ProcessId) -> Tagged<KvCmd> {
        if matches!(self.ops[i].kind, Kind::Read { .. }) {
            let tag = self.mint_tag();
            self.ops[i].tag = tag;
            self.by_seq.insert(tag.1, i);
        }
        let op = &mut self.ops[i];
        op.attempts += 1;
        op.last_sent = now;
        op.target = target;
        op.stale = false;
        self.tagged(i)
    }

    /// Applies one completion. Returns the operation it finished, if any.
    pub fn complete(&mut self, at: f64, node: ProcessId, event: Event) -> Option<usize> {
        match event {
            Event::Leader(l) => {
                self.announcements += 1;
                self.views[node.as_usize()] = Some((l.0, self.announcements));
                self.leaders.push((at, node.0, l.0));
                for k in &mut self.kills {
                    if k.detected_at.is_none() && at >= k.at && node.0 != k.node && l.0 != k.node {
                        k.detected_at = Some(at);
                    }
                }
                None
            }
            Event::Applied {
                client,
                seq,
                reply,
                path,
                slot,
            } => {
                let i = *self.by_seq.get(&seq)?;
                let op = &mut self.ops[i];
                if op.done.is_some() {
                    return None;
                }
                debug_assert!(op.tag.1 != seq || op.tag.0 == client);
                let failed = reply == Reply::Duplicate && op.attempts == 1;
                op.done = Some(Done {
                    at,
                    slot,
                    reply,
                    path,
                    failed,
                });
                self.outstanding.remove(&i);
                // A client id goes back to the pool only when no other copy
                // of a different command can still be pending under it: any
                // leftover copy of a put carries the same, now committed, tag.
                if op.attempts == 1 || matches!(op.kind, Kind::Put { .. }) {
                    self.free.push(op.tag.0);
                }
                if !failed {
                    for k in &mut self.kills {
                        if k.served_at.is_none() && at >= k.at {
                            k.served_at = Some(at);
                        }
                    }
                }
                Some(i)
            }
        }
    }

    fn note_view(&mut self, at: f64) -> Option<ProcessId> {
        let now = self.leader();
        if let Some(l) = now {
            if self.leader_view.last().map(|v| v.1) != Some(l.0) {
                self.leader_view.push((at, l.0));
            }
        }
        now
    }

    fn pick_target(&self, kind: &Kind, plan: &Plan, rng: &mut Rng, n: usize) -> ProcessId {
        let leader = self.leader().unwrap_or(ProcessId(0));
        if matches!(kind, Kind::Put { .. }) {
            return leader;
        }
        let live: Vec<ProcessId> = (0..n as u32)
            .map(ProcessId)
            .filter(|p| self.alive[p.as_usize()])
            .collect();
        match plan.read_to {
            ReadTo::Leader => leader,
            ReadTo::Spread => live[rng.below(live.len() as u64) as usize],
        }
    }
}

/// Draws the next operation's input from the seeded stream.
fn make_kind(plan: &Plan, rng: &mut Rng, seq_hint: u64) -> Kind {
    let key = format!("k{:06}", rng.below(plan.keys));
    if rng.unit() < plan.read_share {
        return Kind::Read { key };
    }
    // Values are unique (they start with the op's sequence hint), so the
    // checker can tell which put a read observed.
    let mut value = format!("v{seq_hint}-");
    while value.len() < plan.value_len {
        for b in rng.next_u64().to_le_bytes() {
            if value.len() < plan.value_len {
                value.push((b'a' + b % 26) as char);
            }
        }
    }
    Kind::Put { key, value }
}

/// Runs one phase of `plan` against `sys`, recording into `rec`.
pub fn run(sys: &mut impl Sys, plan: &Plan, rng: &mut Rng, rec: &mut Record) {
    let n = sys.n();
    let start = sys.now();
    let stop_sending = start + plan.duration_us;
    let hard_end = stop_sending + plan.drain_us;
    let mut sent_count = 0u64;
    let mut next_due = start;
    let mut kills = plan
        .kills
        .iter()
        .map(|(k, r)| (start + k, start + r))
        .peekable();
    let mut down: Option<(ProcessId, f64)> = None;
    let mut next_scan = start;
    let mut leader = rec.note_view(start);
    // Replicas that announced a leader change since the last scan.
    let mut shaken: Vec<ProcessId> = Vec::new();
    loop {
        let now = sys.now();
        // Fault schedule: kill the current leader, later restart it.
        if let Some((p, restart_at)) = down {
            if now >= restart_at {
                sys.restart(p);
                rec.alive[p.as_usize()] = true;
                rec.views[p.as_usize()] = None;
                down = None;
            }
        }
        if down.is_none() && kills.peek().is_some_and(|(k, _)| now >= *k) {
            let (_, restart_at) = kills.next().expect("peeked");
            if let Some(p) = rec.leader() {
                let at = sys.now();
                sys.kill(p);
                rec.alive[p.as_usize()] = false;
                rec.views[p.as_usize()] = None;
                rec.kills.push(Kill {
                    phase: plan.phase,
                    node: p.0,
                    at,
                    ..Kill::default()
                });
                down = Some((p, restart_at));
            }
        }
        // Issue whatever is due.
        let sending = now < stop_sending && sent_count < plan.max_ops;
        if sending {
            match plan.arrival {
                Arrival::Open { per_sec } | Arrival::Poisson { per_sec } => {
                    let poisson = matches!(plan.arrival, Arrival::Poisson { .. });
                    while next_due <= now && next_due < stop_sending && sent_count < plan.max_ops {
                        let kind = make_kind(plan, rng, rec.next_seq);
                        let to = rec.pick_target(&kind, plan, rng, n);
                        let sent = sys.now();
                        let (_, cmd) = rec.submit(kind, next_due, sent, to, plan.phase);
                        rec.lateness.push((plan.phase, sent - next_due));
                        sys.send(to, cmd);
                        sent_count += 1;
                        let gap = 1e6 / per_sec;
                        next_due += if poisson {
                            -(1.0 - rng.unit()).ln() * gap
                        } else {
                            gap
                        };
                    }
                }
                Arrival::Closed { clients } => {
                    while rec.outstanding() < clients && sent_count < plan.max_ops {
                        let kind = make_kind(plan, rng, rec.next_seq);
                        let to = rec.pick_target(&kind, plan, rng, n);
                        let (_, cmd) = rec.submit(kind, now, now, to, plan.phase);
                        sys.send(to, cmd);
                        sent_count += 1;
                    }
                }
            }
        } else if rec.outstanding() == 0 || now >= hard_end {
            break;
        }
        // Resubmit what a leader change or a timeout left unanswered.
        let view = rec.note_view(now);
        let changed = view.is_some() && view != leader;
        if changed || !shaken.is_empty() || now >= next_scan {
            next_scan = now + plan.resubmit_us / 4.0;
            let mut due = Vec::new();
            for &i in &rec.outstanding {
                let op = &mut rec.ops[i];
                let read = matches!(op.kind, Kind::Read { .. });
                // A replica whose own Ω output changed drops the reads it
                // holds without a read index and stops proposing unless it
                // still names itself.
                let shook = shaken.contains(&op.target)
                    && (read || rec.views[op.target.as_usize()].map(|v| v.0) != Some(op.target.0));
                op.stale |= shook || changed && (read || Some(op.target) != view);
                // Exponential backoff per operation, so a flapping leader
                // cannot turn the client into a retry storm.
                let backoff = f64::from(1u32 << (op.attempts - 1).min(4));
                let timeout = op.last_sent + plan.resubmit_us * backoff;
                let guard = op.last_sent + plan.resubmit_us / 16.0 * backoff;
                if now >= timeout || op.stale && now >= guard {
                    due.push(i);
                } else if op.stale {
                    next_scan = next_scan.min(guard);
                }
            }
            shaken.clear();
            for i in due {
                let kind = rec.ops[i].kind.clone();
                let mut to = rec.pick_target(&kind, plan, rng, n);
                if matches!(kind, Kind::Read { .. })
                    && rec.alive[rec.ops[i].target.as_usize()]
                    && plan.read_to != ReadTo::Leader
                {
                    to = rec.ops[i].target;
                }
                let cmd = rec.resubmit(i, now, to);
                sys.send(to, cmd);
            }
        }
        if view.is_some() {
            leader = view;
        }
        // Wait for the next completion, due time, scan or fault.
        let mut until = hard_end.min(next_scan);
        if sending {
            match plan.arrival {
                Arrival::Open { .. } | Arrival::Poisson { .. } => until = until.min(next_due),
                Arrival::Closed { clients } if rec.outstanding() < clients => until = now,
                Arrival::Closed { .. } => {}
            }
        }
        if let Some((k, _)) = kills.peek() {
            until = until.min(*k);
        }
        if let Some((_, r)) = down {
            until = until.min(r);
        }
        if let Some((at, node, event)) = sys.next(until) {
            if matches!(event, Event::Leader(_)) {
                shaken.push(node);
            }
            rec.complete(at, node, event);
        }
    }
    let end = sys.now().min(stop_sending);
    rec.windows.push((plan.phase, start, end));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A fake system on a virtual clock: every request is answered by node 0
    /// `service_us` after it arrives, except that nothing is answered while
    /// the system is stalled; requests waiting then are answered when the
    /// stall ends.
    struct Fake {
        now: f64,
        service_us: f64,
        stall: (f64, f64),
        dup_first: bool,
        lose_all: bool,
        queue: VecDeque<(f64, Tagged<KvCmd>)>,
    }

    impl Fake {
        fn new(service_us: f64) -> Self {
            Fake {
                now: 0.0,
                service_us,
                stall: (f64::MAX, f64::MAX),
                dup_first: false,
                lose_all: false,
                queue: VecDeque::new(),
            }
        }
    }

    impl Sys for Fake {
        fn now(&mut self) -> f64 {
            self.now
        }
        fn n(&self) -> usize {
            1
        }
        fn send(&mut self, _to: ProcessId, op: Tagged<KvCmd>) {
            if self.lose_all {
                return;
            }
            let mut at = self.now + self.service_us;
            if at >= self.stall.0 && self.now < self.stall.1 {
                at = at.max(self.stall.1);
            }
            self.queue.push_back((at, op));
        }
        fn next(&mut self, until: f64) -> Option<(f64, ProcessId, Event)> {
            let first = self
                .queue
                .iter()
                .enumerate()
                .min_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
                .map(|(i, (at, _))| (i, *at));
            match first {
                Some((i, at)) if at <= until => {
                    let (at, op) = self.queue.remove(i).expect("index from iter");
                    self.now = self.now.max(at);
                    let reply = if self.dup_first {
                        Reply::Duplicate
                    } else if op.cmd.is_read() {
                        Reply::Value(None)
                    } else {
                        Reply::Written
                    };
                    Some((
                        at,
                        ProcessId(0),
                        Event::Applied {
                            client: op.client.0,
                            seq: op.seq,
                            reply,
                            path: Path::Log,
                            slot: 0,
                        },
                    ))
                }
                _ => {
                    self.now = self.now.max(until);
                    None
                }
            }
        }
        fn kill(&mut self, _p: ProcessId) {}
        fn restart(&mut self, _p: ProcessId) {}
    }

    fn plan(arrival: Arrival, duration_us: f64) -> Plan {
        Plan {
            arrival,
            duration_us,
            max_ops: u64::MAX,
            read_share: 0.0,
            read_to: ReadTo::Leader,
            keys: 16,
            value_len: 8,
            resubmit_us: 1e9,
            drain_us: 1e6,
            kills: Vec::new(),
            phase: 1,
        }
    }

    fn started(rec: &mut Record) {
        rec.complete(0.0, ProcessId(0), Event::Leader(ProcessId(0)));
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_through_a_stall() {
        // 1000 ops/s for one second, 100 µs service, stalled 300..500 ms.
        let mut sys = Fake::new(100.0);
        sys.stall = (300_000.0, 500_000.0);
        let mut rec = Record::new(1);
        started(&mut rec);
        run(
            &mut sys,
            &plan(Arrival::Open { per_sec: 1000.0 }, 1e6),
            &mut Rng::new(1),
            &mut rec,
        );
        assert_eq!(rec.ops.len(), 1000);
        for op in &rec.ops {
            let lat = op.latency().expect("every op answered");
            if op.due >= 300_000.0 && op.due < 500_000.0 {
                // Answered when the stall ends, timed from when it was due.
                assert!(
                    (lat - (500_000.0 - op.due)).abs() < 1e-6,
                    "{lat} {}",
                    op.due
                );
            } else if op.due < 299_900.0 || op.due >= 500_000.0 {
                assert!((lat - 100.0).abs() < 1e-6, "{lat}");
            }
        }
        // The op due right at the stall's start waited the full 200 ms.
        let worst = rec.ops.iter().filter_map(Op::latency).fold(0.0, f64::max);
        assert!(worst >= 199_900.0, "{worst}");
    }

    #[test]
    fn closed_loop_keeps_one_op_per_client() {
        let mut sys = Fake::new(1_000.0);
        let mut rec = Record::new(1);
        started(&mut rec);
        run(
            &mut sys,
            &plan(Arrival::Closed { clients: 4 }, 100_000.0),
            &mut Rng::new(2),
            &mut rec,
        );
        // 4 callers, 1 ms each, 100 ms: 400 operations, four client ids.
        assert_eq!(rec.ops.len(), 400);
        let clients: BTreeSet<u64> = rec.ops.iter().map(|o| o.tag.0).collect();
        assert_eq!(clients.len(), 4);
        assert!(rec.ops.iter().all(|o| o.latency() == Some(1_000.0)));
    }

    #[test]
    fn unanswered_and_first_attempt_duplicates_are_failures() {
        let mut sys = Fake::new(100.0);
        sys.dup_first = true;
        let mut rec = Record::new(1);
        started(&mut rec);
        run(
            &mut sys,
            &plan(Arrival::Open { per_sec: 1000.0 }, 10_000.0),
            &mut Rng::new(3),
            &mut rec,
        );
        assert_eq!(rec.ops.len(), 10);
        assert!(rec.ops.iter().all(|o| o.done.as_ref().unwrap().failed));
        assert!(rec.ops.iter().all(|o| o.latency().is_none()));

        let mut sys = Fake::new(100.0);
        sys.lose_all = true;
        let mut rec = Record::new(1);
        started(&mut rec);
        let mut p = plan(Arrival::Open { per_sec: 1000.0 }, 10_000.0);
        p.drain_us = 50_000.0;
        p.resubmit_us = 20_000.0;
        run(&mut sys, &p, &mut Rng::new(3), &mut rec);
        assert_eq!(rec.ops.len(), 10);
        assert!(rec.ops.iter().all(|o| o.done.is_none()));
        assert!(
            rec.ops.iter().all(|o| o.attempts >= 2),
            "timed-out ops are resubmitted"
        );
    }

    #[test]
    fn resubmitted_put_answered_duplicate_counts_as_acknowledged() {
        let mut rec = Record::new(1);
        started(&mut rec);
        let kind = Kind::Put {
            key: "k".into(),
            value: "v".into(),
        };
        let (i, cmd) = rec.submit(kind, 0.0, 0.0, ProcessId(0), 1);
        let again = rec.resubmit(i, 5.0, ProcessId(0));
        assert_eq!((again.client, again.seq), (cmd.client, cmd.seq));
        let ev = Event::Applied {
            client: cmd.client.0,
            seq: cmd.seq,
            reply: Reply::Duplicate,
            path: Path::Log,
            slot: 3,
        };
        assert_eq!(rec.complete(9.0, ProcessId(0), ev), Some(i));
        assert_eq!(rec.ops[i].latency(), Some(9.0));
    }

    #[test]
    fn the_leader_view_follows_the_majority_of_live_replicas() {
        let mut rec = Record::new(3);
        rec.complete(0.0, ProcessId(0), Event::Leader(ProcessId(0)));
        rec.complete(0.0, ProcessId(1), Event::Leader(ProcessId(1)));
        rec.complete(0.0, ProcessId(2), Event::Leader(ProcessId(1)));
        assert_eq!(rec.leader(), Some(ProcessId(1)));
        rec.alive[1] = false;
        rec.views[1] = None;
        // Node 2 still names the dead node 1; node 0 names itself.
        assert_eq!(rec.leader(), Some(ProcessId(0)));
    }
}
