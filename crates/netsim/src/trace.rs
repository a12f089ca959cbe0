//! Structured run traces: a bounded, serializable log of what the network
//! and the fault injector did, for debugging protocols and for archiving
//! experiment evidence.
//!
//! Recording is off by default (hot runs stay allocation-light); enable it
//! with [`crate::SimBuilder::record_trace`]. Message payloads are recorded
//! by their *classifier label*, not by value, so traces stay compact and the
//! trace type needs no knowledge of the protocol's message type.

use std::fmt;

use lls_primitives::{Instant, ProcessId, TimerId};

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A process booted.
    Start(ProcessId),
    /// A process crashed (crash-stop).
    Crash(ProcessId),
    /// A message was handed to the link.
    Send {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
        /// Classifier label of the payload.
        msg_kind: &'static str,
    },
    /// A message reached its destination and was processed.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// The link lost a message.
    LinkDrop {
        /// Sender.
        from: ProcessId,
        /// Destination.
        to: ProcessId,
    },
    /// A message reached a crashed or unstarted process.
    DeadDrop {
        /// Destination.
        to: ProcessId,
    },
    /// A timer fired at a process.
    TimerFire {
        /// Owner.
        p: ProcessId,
        /// Which timer.
        timer: TimerId,
    },
    /// A crashed process restarted with a fresh state machine.
    Restart(ProcessId),
    /// The network schedule changed a link or the topology.
    NetChange,
    /// A process emitted a protocol output (recorded by classifier label).
    Output {
        /// Emitter.
        p: ProcessId,
        /// Classifier label of the output value.
        label: &'static str,
    },
}

/// One timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When it happened.
    pub at: Instant,
    /// What happened.
    pub kind: TraceKind,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:<8} ", self.at.ticks())?;
        match self.kind {
            TraceKind::Start(p) => write!(f, "START     {p}"),
            TraceKind::Crash(p) => write!(f, "CRASH     {p}"),
            TraceKind::Send { from, to, msg_kind } => {
                write!(f, "SEND      {from} -> {to} [{msg_kind}]")
            }
            TraceKind::Deliver { from, to } => write!(f, "DELIVER   {from} -> {to}"),
            TraceKind::LinkDrop { from, to } => write!(f, "LINKDROP  {from} -> {to}"),
            TraceKind::DeadDrop { to } => write!(f, "DEADDROP  -> {to}"),
            TraceKind::TimerFire { p, timer } => write!(f, "TIMER     {p} {timer}"),
            TraceKind::Restart(p) => write!(f, "RESTART   {p}"),
            TraceKind::NetChange => write!(f, "NETCHANGE"),
            TraceKind::Output { p, label } => write!(f, "OUTPUT    {p} [{label}]"),
        }
    }
}

/// A bounded trace buffer. When full, further records are counted but not
/// stored (truncation is explicit, never silent).
#[derive(Debug, Clone)]
pub struct Trace {
    records: Vec<TraceRecord>,
    capacity: usize,
    overflow: u64,
}

impl Trace {
    /// Creates a trace buffer holding up to `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Trace {
            records: Vec::new(),
            capacity,
            overflow: 0,
        }
    }

    /// Appends a record, or counts it as overflow when full.
    pub fn push(&mut self, at: Instant, kind: TraceKind) {
        if self.records.len() < self.capacity {
            self.records.push(TraceRecord { at, kind });
        } else {
            self.overflow += 1;
        }
    }

    /// The stored records, in order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// How many records were discarded because the buffer was full.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Renders the trace as text, one record per line, with an explicit
    /// truncation marker if the buffer overflowed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        if self.overflow > 0 {
            out.push_str(&format!("… {} further records truncated\n", self.overflow));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(k: u64) -> Instant {
        Instant::from_ticks(k)
    }

    #[test]
    fn records_accumulate_in_order() {
        let mut tr = Trace::new(10);
        tr.push(t(1), TraceKind::Start(ProcessId(0)));
        tr.push(
            t(2),
            TraceKind::Send {
                from: ProcessId(0),
                to: ProcessId(1),
                msg_kind: "ALIVE",
            },
        );
        assert_eq!(tr.records().len(), 2);
        assert_eq!(tr.records()[0].at, t(1));
        assert_eq!(tr.overflow(), 0);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let mut tr = Trace::new(2);
        for i in 0..5 {
            tr.push(t(i), TraceKind::Crash(ProcessId(0)));
        }
        assert_eq!(tr.records().len(), 2);
        assert_eq!(tr.overflow(), 3);
        assert!(tr.render().contains("3 further records truncated"));
    }

    #[test]
    fn rendering_is_line_per_record() {
        let mut tr = Trace::new(10);
        tr.push(t(7), TraceKind::DeadDrop { to: ProcessId(2) });
        tr.push(
            t(9),
            TraceKind::TimerFire {
                p: ProcessId(1),
                timer: TimerId(3),
            },
        );
        let s = tr.render();
        assert!(s.contains("DEADDROP"), "{s}");
        assert!(s.contains("TIMER"), "{s}");
        assert_eq!(s.lines().count(), 2);
    }
}
