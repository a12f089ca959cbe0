//! What the benchmark puts between the runtime and the KV node: a wrapper
//! [`Sm`] that forwards every stimulus and reports completions on a
//! channel, and a [`Storage`] wrapper around [`FileWal`]. Both also record
//! the traced run's spans, timed from outside the library's code.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant as WallInstant};

use consensus::{classify_rsm_msg, classify_shard_msg, Entry, RsmMsg, ShardId, ShardMsg};
use kvstore::{KvCmd, KvEvent, KvReplica, KvResponse, ShardedKvEvent, ShardedKvNode, Tagged};
use lls_primitives::wire::{decode_frame_any, encode_frame_sharded, encode_frame_stamped, Wire};
use lls_primitives::{
    Ctx, Effects, Env, FileWal, ProcessId, Sm, Storage, StorageError, StorageStats, TimerCmd,
    TimerId, TraceEnvelope,
};

/// How a replica answered an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A put was applied.
    Written,
    /// A read returned this value.
    Value(Option<String>),
    /// The `(client, seq)` tag had already been applied.
    Duplicate,
}

/// Which path served a read (puts always take the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Answered inside the request handler: a leader-lease read.
    Lease,
    /// Answered later by a replica that does not lead the shard: read-index.
    Index,
    /// Answered by the shard's leader after the command went through the log.
    Log,
}

/// Something a replica told the load generator.
#[derive(Debug, Clone)]
pub enum Event {
    /// The replica's Ω output changed.
    Leader(ProcessId),
    /// A command this replica received as a request was answered.
    Applied {
        client: u64,
        seq: u64,
        reply: Reply,
        path: Path,
        /// Log slot (the apply watermark for a fast read).
        slot: u64,
    },
}

/// One event, stamped where it was emitted.
#[derive(Debug, Clone)]
pub struct Completion {
    pub node: ProcessId,
    pub wall: WallInstant,
    pub tick: u64,
    pub event: Event,
}

/// A request to the wrapper.
#[derive(Debug, Clone)]
pub enum Req {
    /// A client command, forwarded to the KV node.
    Op(Tagged<KvCmd>),
    /// Copy the node's store into its [`ReplicaLog`].
    Snapshot,
}

/// One command a replica applied from its log, and the tick it did so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    pub shard: u32,
    pub slot: u64,
    pub client: u64,
    pub seq: u64,
    pub tick: u64,
}

/// Everything one replica incarnation applied, shared with the load generator so it
/// survives a kill: the commands it applied from its log and, on request,
/// its final store.
#[derive(Debug, Default)]
pub struct ReplicaLog {
    pub applied: Vec<LogEntry>,
    pub state: Option<(u64, Vec<(String, String)>)>,
}

/// A KV node output the benchmark cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    Leader(ProcessId),
    Applied {
        shard: u32,
        slot: u64,
        client: u64,
        seq: u64,
        reply: Reply,
    },
}

/// The KV node types the benchmark drives.
pub trait KvNode: Sm<Request = Tagged<KvCmd>, Msg: Wire> + std::marker::Send + 'static {
    /// The `Leader` or `Applied` output `out` is, if either.
    fn output(out: &Self::Output) -> Option<Output>;
    /// Message kind, from the library's classifier.
    fn classify(msg: &Self::Msg) -> &'static str;
    /// `(client, seq)` of every command the message carries.
    fn carried(msg: &Self::Msg, out: &mut Vec<(u64, u64)>);
    /// Whether this node leads `shard`'s log.
    fn leads(&self, shard: u32) -> bool;
    /// Total applied slots and the whole store, sorted by key.
    fn store(&self) -> (u64, Vec<(String, String)>);
    /// Shard tag of a message, for the frame function wirenet would use.
    fn frame(msg: &Self::Msg) -> Vec<u8> {
        let env = TraceEnvelope {
            lamport: 1,
            trace_id: 0,
        };
        match msg.shard_tag() {
            Some(shard) => encode_frame_sharded(msg, shard, &env),
            None => encode_frame_stamped(msg, &env),
        }
    }
}

fn reply_of(r: &KvResponse) -> Reply {
    match r {
        KvResponse::Value { value } => Reply::Value(value.clone()),
        KvResponse::Duplicate => Reply::Duplicate,
        KvResponse::Applied { .. } | KvResponse::CasFailed { .. } => Reply::Written,
    }
}

fn carried_entry(e: &Entry<Tagged<KvCmd>>, out: &mut Vec<(u64, u64)>) {
    out.extend(e.commands().iter().map(|t| (t.client.0, t.seq)));
}

/// Client id under which a span links to a log slot rather than a request:
/// `(SLOT_LINK - shard, slot)`.
pub const SLOT_LINK: u64 = u64::MAX;

fn carried_rsm(shard: u32, m: &RsmMsg<Tagged<KvCmd>>, out: &mut Vec<(u64, u64)>) {
    match m {
        RsmMsg::Accept { entry, .. } => carried_entry(entry, out),
        RsmMsg::Accepted { slot, .. } => out.push((SLOT_LINK - u64::from(shard), *slot)),
        RsmMsg::Promise { accepted, .. } => {
            for (_, _, e) in accepted {
                carried_entry(e, out);
            }
        }
        _ => {}
    }
}

impl KvNode for KvReplica {
    fn output(out: &KvEvent) -> Option<Output> {
        match out {
            KvEvent::Leader(l) => Some(Output::Leader(*l)),
            KvEvent::Applied {
                slot,
                client,
                seq,
                response,
            } => Some(Output::Applied {
                shard: 0,
                slot: *slot,
                client: client.0,
                seq: *seq,
                reply: reply_of(response),
            }),
            KvEvent::SnapshotInstalled { .. } => None,
        }
    }
    fn classify(msg: &Self::Msg) -> &'static str {
        classify_rsm_msg(msg)
    }
    fn carried(msg: &Self::Msg, out: &mut Vec<(u64, u64)>) {
        carried_rsm(0, msg, out);
    }
    fn leads(&self, _shard: u32) -> bool {
        self.log().is_established_leader()
    }
    fn store(&self) -> (u64, Vec<(String, String)>) {
        let s = self.state();
        (
            self.applied_upto(),
            s.iter()
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        )
    }
}

impl KvNode for ShardedKvNode {
    fn output(out: &ShardedKvEvent) -> Option<Output> {
        match out {
            ShardedKvEvent::Leader(l) => Some(Output::Leader(*l)),
            ShardedKvEvent::Applied {
                shard,
                slot,
                client,
                seq,
                response,
            } => Some(Output::Applied {
                shard: shard.0,
                slot: *slot,
                client: client.0,
                seq: *seq,
                reply: reply_of(response),
            }),
            ShardedKvEvent::SnapshotInstalled { .. } => None,
        }
    }
    fn classify(msg: &Self::Msg) -> &'static str {
        classify_shard_msg(msg)
    }
    fn carried(msg: &Self::Msg, out: &mut Vec<(u64, u64)>) {
        if let ShardMsg::Rsm { shard, msg } = msg {
            carried_rsm(shard.0, msg, out);
        }
    }
    fn leads(&self, shard: u32) -> bool {
        self.node()
            .group(ShardId(shard))
            .is_some_and(|g| g.is_established_leader())
    }
    fn store(&self) -> (u64, Vec<(String, String)>) {
        let shards: Vec<ShardId> = self.placement().attached().collect();
        let mut data: Vec<(String, String)> = shards
            .iter()
            .filter_map(|s| self.state(*s))
            .flat_map(|st| st.iter().map(|(k, v)| (k.to_owned(), v.to_owned())))
            .collect();
        data.sort();
        let upto = shards.iter().map(|s| self.applied_upto(*s)).sum();
        (upto, data)
    }
}

/// One handler call in the traced run. Times are nanoseconds since the
/// run's epoch; `wal_ns` is the time its WAL child spans cover.
#[derive(Debug, Clone)]
pub struct Span {
    pub node: u32,
    pub kind: &'static str,
    pub start: u64,
    pub end: u64,
    pub wal_ns: u64,
}

/// One WAL append (a group commit) made inside a handler.
#[derive(Debug, Clone, Copy)]
pub struct WalSpan {
    /// Index of the parent handler span in the node's span list.
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    pub records: u32,
    pub bytes: u64,
}

/// A node incarnation's traced-run record, written by its protocol thread.
#[derive(Debug, Default)]
pub struct TraceBuf {
    pub spans: Vec<Span>,
    pub wal: Vec<WalSpan>,
    /// `(span index, client, seq)`: the handler's stimulus carried that
    /// request (an `Accept` links every entry of its batch).
    pub links: Vec<(u32, u64, u64)>,
    /// Sends by message kind.
    pub sends: BTreeMap<&'static str, u64>,
    /// Encode/decode of a copy of each sent message: count, ns, ns, bytes.
    pub codec: (u64, u64, u64, u64),
}

/// Tracing switch and epoch shared by every node of a run.
#[derive(Debug)]
pub struct Tracer {
    pub on: AtomicBool,
    pub epoch: WallInstant,
}

impl Tracer {
    pub fn new(epoch: WallInstant) -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            epoch,
        })
    }

    pub fn ns(&self, at: WallInstant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// `(start, end, records, bytes)` of one WAL append.
type WalRec = (WallInstant, WallInstant, u32, u64);

thread_local! {
    /// WAL appends made by the handler running on this thread, while traced.
    static WAL_SPANS: RefCell<Option<Vec<WalRec>>> = const { RefCell::new(None) };
}

/// [`FileWal`] plus an optional injected delay per append, and WAL spans
/// for the traced run.
#[derive(Debug)]
pub struct TimedWal {
    inner: FileWal,
    delay: StdDuration,
}

impl TimedWal {
    pub fn new(inner: FileWal, delay: StdDuration) -> Self {
        TimedWal { inner, delay }
    }

    fn timed<T>(&mut self, records: u32, bytes: u64, f: impl FnOnce(&mut FileWal) -> T) -> T {
        let start = WallInstant::now();
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        let out = f(&mut self.inner);
        WAL_SPANS.with(|w| {
            if let Some(spans) = w.borrow_mut().as_mut() {
                spans.push((start, WallInstant::now(), records, bytes));
            }
        });
        out
    }
}

impl Storage for TimedWal {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.timed(1, record.len() as u64, |w| w.append(record))
    }
    fn append_group(&mut self, records: &[Vec<u8>]) -> Result<(), StorageError> {
        let bytes = records.iter().map(|r| r.len() as u64).sum();
        self.timed(records.len() as u32, bytes, |w| w.append_group(records))
    }
    fn load(&mut self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.inner.load()
    }
    fn compact_to(&mut self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        self.inner.compact_to(live)
    }
    fn stats(&self) -> StorageStats {
        self.inner.stats()
    }
}

/// The wrapper state machine: forwards every stimulus to the KV node `S`,
/// passes its effects through unchanged, and sends each answer to a request
/// this node received, and each `Leader` output, on the completion channel.
pub struct Probe<S: KvNode> {
    pub inner: S,
    env: Env,
    tx: Sender<Completion>,
    log: Arc<Mutex<ReplicaLog>>,
    tracer: Arc<Tracer>,
    trace: Arc<Mutex<TraceBuf>>,
    fx: Effects<S::Msg, S::Output>,
    /// Tags received as requests here and not yet answered.
    asked: HashSet<(u64, u64)>,
    carried: Vec<(u64, u64)>,
}

impl<S: KvNode> std::fmt::Debug for Probe<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Probe").field("env", &self.env).finish()
    }
}

impl<S: KvNode> Probe<S> {
    pub fn new(
        inner: S,
        env: &Env,
        tx: Sender<Completion>,
        log: Arc<Mutex<ReplicaLog>>,
        tracer: Arc<Tracer>,
        trace: Arc<Mutex<TraceBuf>>,
    ) -> Self {
        Probe {
            inner,
            env: *env,
            tx,
            log,
            tracer,
            trace,
            fx: Effects::new(),
            asked: HashSet::new(),
            carried: Vec::new(),
        }
    }

    fn step(
        &mut self,
        ctx: &mut Ctx<'_, S::Msg, S::Output>,
        kind: &'static str,
        request: Option<(u64, u64)>,
        f: impl FnOnce(&mut S, &mut Ctx<'_, S::Msg, S::Output>),
    ) {
        let traced = self.tracer.on.load(Ordering::Relaxed);
        if traced {
            WAL_SPANS.with(|w| *w.borrow_mut() = Some(Vec::new()));
        }
        let start = traced.then(WallInstant::now);
        f(
            &mut self.inner,
            &mut Ctx::new(&self.env, ctx.now(), &mut self.fx),
        );
        let end = WallInstant::now();
        if let Some(start) = start {
            self.record(kind, start, end, request);
        }
        for s in self.fx.sends.drain(..) {
            ctx.send(s.to, s.msg);
        }
        for t in self.fx.timers.drain(..) {
            match t {
                TimerCmd::Set { timer, after } => ctx.set_timer(timer, after),
                TimerCmd::Cancel { timer } => ctx.cancel_timer(timer),
            }
        }
        let outputs = std::mem::take(&mut self.fx.outputs);
        for out in outputs {
            self.report(&out, request, ctx.now().ticks(), end);
            ctx.output(out);
        }
    }

    fn report(
        &mut self,
        out: &S::Output,
        request: Option<(u64, u64)>,
        tick: u64,
        wall: WallInstant,
    ) {
        let event = match S::output(out) {
            None => return,
            Some(Output::Leader(leader)) => Event::Leader(leader),
            Some(Output::Applied {
                shard,
                slot,
                client,
                seq,
                reply,
            }) => {
                let asked = self.asked.remove(&(client, seq));
                let path = if request == Some((client, seq)) {
                    Path::Lease
                } else if !asked || self.inner.leads(shard) || !matches!(reply, Reply::Value(_)) {
                    Path::Log
                } else {
                    Path::Index
                };
                if path == Path::Log {
                    let mut log = self.log.lock().expect("replica log poisoned");
                    log.applied.push(LogEntry {
                        shard,
                        slot,
                        client,
                        seq,
                        tick,
                    });
                }
                if !asked {
                    return;
                }
                Event::Applied {
                    client,
                    seq,
                    reply,
                    path,
                    slot,
                }
            }
        };
        let _ = self.tx.send(Completion {
            node: self.env.id(),
            wall,
            tick,
            event,
        });
    }

    fn record(
        &mut self,
        kind: &'static str,
        start: WallInstant,
        end: WallInstant,
        request: Option<(u64, u64)>,
    ) {
        let wal = WAL_SPANS
            .with(|w| w.borrow_mut().take())
            .unwrap_or_default();
        let mut buf = self.trace.lock().expect("trace buffer poisoned");
        let id = buf.spans.len() as u32;
        let mut wal_ns = 0;
        for (s, e, records, bytes) in wal {
            wal_ns += e.saturating_duration_since(s).as_nanos() as u64;
            buf.wal.push(WalSpan {
                parent: id,
                start: self.tracer.ns(s),
                end: self.tracer.ns(e),
                records,
                bytes,
            });
        }
        buf.spans.push(Span {
            node: self.env.id().0,
            kind,
            start: self.tracer.ns(start),
            end: self.tracer.ns(end),
            wal_ns,
        });
        if let Some((c, s)) = request {
            buf.links.push((id, c, s));
        }
        for (c, s) in self.carried.drain(..) {
            buf.links.push((id, c, s));
        }
        // Encode and decode a copy of every send with the frame functions
        // wirenet uses; this is outside the handler span on purpose.
        for s in &self.fx.sends {
            *buf.sends.entry(S::classify(&s.msg)).or_default() += 1;
            let t0 = WallInstant::now();
            let frame = std::hint::black_box(S::frame(&s.msg));
            let t1 = WallInstant::now();
            let decoded = decode_frame_any::<S::Msg>(&frame[4..]);
            let t2 = WallInstant::now();
            assert!(decoded.is_ok(), "a frame the codec wrote must decode");
            buf.codec.0 += 1;
            buf.codec.1 += t1.saturating_duration_since(t0).as_nanos() as u64;
            buf.codec.2 += t2.saturating_duration_since(t1).as_nanos() as u64;
            buf.codec.3 += frame.len() as u64;
        }
    }
}

impl<S: KvNode> Sm for Probe<S> {
    type Msg = S::Msg;
    type Output = S::Output;
    type Request = Req;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>) {
        self.step(ctx, "start", None, |s, c| s.on_start(c));
    }

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Output>,
        from: ProcessId,
        msg: Self::Msg,
    ) {
        let kind = S::classify(&msg);
        if self.tracer.on.load(Ordering::Relaxed) {
            S::carried(&msg, &mut self.carried);
        }
        self.step(ctx, kind, None, |s, c| s.on_message(c, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, timer: TimerId) {
        self.step(ctx, "timer", None, |s, c| s.on_timer(c, timer));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Output>, req: Req) {
        match req {
            Req::Op(op) => {
                let tag = (op.client.0, op.seq);
                self.asked.insert(tag);
                self.step(ctx, "request", Some(tag), |s, c| s.on_request(c, op));
            }
            Req::Snapshot => {
                let store = self.inner.store();
                self.log.lock().expect("replica log poisoned").state = Some(store);
            }
        }
    }
}
