//! Cross-node span reconstruction from Lamport-stamped probe streams.
//!
//! Each node's flight recorder yields a stream of [`RecordedEvent`]s whose
//! `lamport` field is the node's Lamport clock at emission time (advanced
//! by the substrate on every send and receive). Because the clocks respect
//! happens-before, events connected by a message chain have strictly
//! increasing Lamport values — which is exactly what lets a post-hoc pass
//! stitch per-node streams into *cross-node spans*:
//!
//! * **election spans** — accusation (`ACCUSE` at the accuser) → counter
//!   bump (`ACCUSED` at the suspect, when it was reachable) → leader change
//!   (at each observer),
//! * **decide spans** — ballot/round phase entry at the proposer → the
//!   `DECIDE` events of one slot across the quorum.
//!
//! Reconstruction is heuristic in one honest way: Lamport order is a
//! *superset* of causality (`a → b ⇒ L(a) < L(b)`, not the converse), so a
//! reconstructed chain is causally **consistent** — no hop happens-after a
//! later hop — but a hop pair with increasing clocks is not proof that a
//! message traveled between them. The paper's claims are about eventual
//! global properties, not individual packets; span latencies here are an
//! observability aid, not a verified causal proof. See DESIGN.md row 20.

use lls_primitives::{Instant, ProcessId};
use std::fmt;

use crate::probe::ProbeEvent;
use crate::recorder::RecordedEvent;

/// What kind of cross-node chain a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Accusation → counter bump → leader change.
    Election,
    /// Phase entry → quorum decide.
    Decide,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpanKind::Election => "election",
            SpanKind::Decide => "decide",
        })
    }
}

/// One event participating in a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHop {
    /// The node the event was recorded on.
    pub node: ProcessId,
    /// The node's Lamport clock at emission.
    pub lamport: u64,
    /// Virtual/substrate time of the event, when the emitting handler had a
    /// clock.
    pub at: Option<Instant>,
    /// Role of this hop in the chain (`accuse`, `counter_bump`,
    /// `leader_change`, `phase`, `decide`).
    pub label: &'static str,
}

/// A reconstructed cross-node chain, hops in causal (Lamport) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What chain this is.
    pub kind: SpanKind,
    /// The participating events, root first.
    pub hops: Vec<SpanHop>,
}

impl SpanRecord {
    /// The root hop (the cause end of the chain).
    pub fn start(&self) -> &SpanHop {
        &self.hops[0]
    }

    /// The final hop (the effect end of the chain).
    pub fn end(&self) -> &SpanHop {
        self.hops.last().expect("spans have at least one hop")
    }

    /// Lamport distance from root to final hop — how many causal steps the
    /// chain spans (lower bound on messages + local events in between).
    pub fn causal_depth(&self) -> u64 {
        self.end().lamport.saturating_sub(self.start().lamport)
    }

    /// Tick latency from root to final hop, when both carry a time.
    /// On netsim these are virtual ticks; on wirenet whatever the harness
    /// mapped real time onto.
    pub fn latency_ticks(&self) -> Option<u64> {
        match (self.start().at, self.end().at) {
            (Some(a), Some(b)) => Some(b.ticks().saturating_sub(a.ticks())),
            _ => None,
        }
    }

    /// Whether the chain respects happens-before: Lamport values never
    /// decrease along the chain and strictly increase whenever consecutive
    /// hops sit on different nodes (a cross-node step needs a message, and
    /// the receive merge makes the receiver's clock strictly larger). This
    /// is E18's "no span with receive before send" acceptance check.
    pub fn causally_ordered(&self) -> bool {
        self.hops.windows(2).all(|w| {
            if w[0].node == w[1].node {
                w[1].lamport >= w[0].lamport
            } else {
                w[1].lamport > w[0].lamport
            }
        })
    }

    /// The span as one JSON object (hand-rolled; labels are static
    /// identifiers, nothing needs escaping).
    pub fn render_json(&self) -> String {
        let hops: Vec<String> = self
            .hops
            .iter()
            .map(|h| {
                format!(
                    "{{\"node\": {}, \"lamport\": {}, \"at\": {}, \"label\": \"{}\"}}",
                    h.node.0,
                    h.lamport,
                    h.at.map_or_else(|| "null".to_owned(), |t| t.ticks().to_string()),
                    h.label
                )
            })
            .collect();
        format!(
            "{{\"kind\": \"{}\", \"causal_depth\": {}, \"latency_ticks\": {}, \"hops\": [{}]}}",
            self.kind,
            self.causal_depth(),
            self.latency_ticks()
                .map_or_else(|| "null".to_owned(), |t| t.to_string()),
            hops.join(", ")
        )
    }
}

/// Renders a batch of spans as one JSON array (the `/spans` endpoint body).
pub fn spans_json(spans: &[SpanRecord]) -> String {
    let items: Vec<String> = spans.iter().map(SpanRecord::render_json).collect();
    format!("[{}]", items.join(", "))
}

/// Reconstructs election and decide spans from the per-node event streams
/// (index = process id, events oldest first, as returned by
/// [`NodeRecorders::all_events`](crate::recorder::NodeRecorders::all_events)).
pub fn reconstruct_spans(events_by_node: &[Vec<RecordedEvent>]) -> Vec<SpanRecord> {
    let mut spans = election_spans(events_by_node);
    spans.extend(decide_spans(events_by_node));
    spans
}

fn hop(node: ProcessId, rec: &RecordedEvent, label: &'static str) -> SpanHop {
    SpanHop {
        node,
        lamport: rec.lamport,
        at: rec.event.at(),
        label,
    }
}

/// One span per observed leader *change* (a node replacing a previously
/// trusted leader): root = the earliest accusation against the old leader
/// that could have caused it, middle = the old leader's counter bump when
/// one sits causally between, end = the observer's switch.
fn election_spans(events_by_node: &[Vec<RecordedEvent>]) -> Vec<SpanRecord> {
    // Flatten accusations and bumps once; both are searched per change.
    let mut accusations: Vec<(ProcessId, RecordedEvent, ProcessId)> = Vec::new();
    let mut bumps: Vec<(ProcessId, RecordedEvent)> = Vec::new();
    for (p, stream) in events_by_node.iter().enumerate() {
        let node = ProcessId(p as u32);
        for rec in stream {
            match rec.event {
                ProbeEvent::AccusationSent { suspect, .. } => {
                    accusations.push((node, *rec, suspect));
                }
                ProbeEvent::AccusationAbsorbed { .. } => bumps.push((node, *rec)),
                _ => {}
            }
        }
    }

    let mut spans = Vec::new();
    for (p, stream) in events_by_node.iter().enumerate() {
        let observer = ProcessId(p as u32);
        let mut prev: Option<(ProcessId, u64)> = None; // (leader, lamport)
        for rec in stream {
            let ProbeEvent::LeaderChange { leader, .. } = rec.event else {
                continue;
            };
            let Some((old, prev_lamport)) = prev.replace((leader, rec.lamport)) else {
                // The first LeaderChange establishes the initial leader —
                // nothing was demoted, so there is no chain to trace.
                continue;
            };
            if old == leader {
                continue;
            }
            // Root: earliest accusation against the demoted leader that is
            // causally inside this observer's (previous change, change]
            // window. Strictly before the observer's switch: a cross-node
            // cause needs a message, so equality would break causality.
            let root = accusations
                .iter()
                .filter(|(_, arec, suspect)| {
                    *suspect == old && arec.lamport < rec.lamport && arec.lamport > prev_lamport
                })
                .min_by_key(|(_, arec, _)| arec.lamport);
            let Some((accuser, accuse_rec, _)) = root else {
                continue; // spontaneous switch (e.g. startup churn): no span
            };
            let mut hops = vec![hop(*accuser, accuse_rec, "accuse")];
            // Middle: the demoted leader's counter bump, when one sits
            // causally between the accusation and the switch.
            let bump = bumps
                .iter()
                .filter(|(bn, brec)| {
                    *bn == old && brec.lamport > accuse_rec.lamport && brec.lamport < rec.lamport
                })
                .min_by_key(|(_, brec)| brec.lamport);
            if let Some((bn, brec)) = bump {
                hops.push(hop(*bn, brec, "counter_bump"));
            }
            hops.push(hop(observer, rec, "leader_change"));
            spans.push(SpanRecord {
                kind: SpanKind::Election,
                hops,
            });
        }
    }
    spans
}

/// One span per decided slot: root = the latest phase entry that
/// happens-before the slot's first decide, then every node's decide for
/// that slot in Lamport order.
fn decide_spans(events_by_node: &[Vec<RecordedEvent>]) -> Vec<SpanRecord> {
    let mut phases: Vec<(ProcessId, RecordedEvent)> = Vec::new();
    let mut decides: std::collections::BTreeMap<u64, Vec<(ProcessId, RecordedEvent)>> =
        std::collections::BTreeMap::new();
    for (p, stream) in events_by_node.iter().enumerate() {
        let node = ProcessId(p as u32);
        for rec in stream {
            match rec.event {
                ProbeEvent::PhaseEnter { .. } => phases.push((node, *rec)),
                ProbeEvent::Decide { slot, .. } => {
                    decides.entry(slot).or_default().push((node, *rec));
                }
                _ => {}
            }
        }
    }

    let mut spans = Vec::new();
    for (_slot, mut slot_decides) in decides {
        slot_decides.sort_by_key(|(_, rec)| rec.lamport);
        let first = &slot_decides[0];
        // The proposal phase that led here: the latest phase entry still
        // strictly happens-before the first decide (on another node), or
        // at/below it on the decider itself (a self-deciding proposer logs
        // the phase and the decide in one handler, same clock value).
        let root = phases
            .iter()
            .filter(|(pn, prec)| {
                prec.lamport < first.1.lamport
                    || (*pn == first.0 && prec.lamport == first.1.lamport && prec.seq < first.1.seq)
            })
            .max_by_key(|(_, prec)| (prec.lamport, prec.seq));
        let mut hops = Vec::new();
        if let Some((pn, prec)) = root {
            hops.push(hop(*pn, prec, "phase"));
        }
        for (dn, drec) in &slot_decides {
            hops.push(hop(*dn, drec, "decide"));
        }
        spans.push(SpanRecord {
            kind: SpanKind::Decide,
            hops,
        });
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, lamport: u64, event: ProbeEvent) -> RecordedEvent {
        RecordedEvent {
            seq,
            lamport,
            event,
        }
    }

    fn t(ticks: u64) -> Instant {
        Instant::from_ticks(ticks)
    }

    /// Hand-built three-node election: p1 accuses p0, p0 bumps its counter,
    /// p1 and p2 switch to p1.
    #[test]
    fn election_span_is_reconstructed_across_nodes() {
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let p2 = ProcessId(2);
        let streams = vec![
            // p0: initial leader self-view, then absorbs the accusation.
            vec![
                rec(
                    0,
                    1,
                    ProbeEvent::LeaderChange {
                        node: p0,
                        at: t(0),
                        leader: p0,
                    },
                ),
                rec(
                    1,
                    12,
                    ProbeEvent::AccusationAbsorbed {
                        node: p0,
                        at: t(30),
                        new_counter: 1,
                    },
                ),
            ],
            // p1: trusts p0, times out, accuses, switches to itself.
            vec![
                rec(
                    0,
                    2,
                    ProbeEvent::LeaderChange {
                        node: p1,
                        at: t(0),
                        leader: p0,
                    },
                ),
                rec(
                    1,
                    10,
                    ProbeEvent::AccusationSent {
                        node: p1,
                        at: t(25),
                        suspect: p0,
                        phase: 0,
                    },
                ),
                rec(
                    2,
                    20,
                    ProbeEvent::LeaderChange {
                        node: p1,
                        at: t(40),
                        leader: p1,
                    },
                ),
            ],
            // p2: trusts p0, then learns and follows p1.
            vec![
                rec(
                    0,
                    2,
                    ProbeEvent::LeaderChange {
                        node: p2,
                        at: t(0),
                        leader: p0,
                    },
                ),
                rec(
                    1,
                    25,
                    ProbeEvent::LeaderChange {
                        node: p2,
                        at: t(45),
                        leader: p1,
                    },
                ),
            ],
        ];
        let spans = election_spans(&streams);
        assert_eq!(spans.len(), 2, "one span per observer that switched");
        for s in &spans {
            assert!(s.causally_ordered(), "bad span {s:?}");
            assert_eq!(s.start().label, "accuse");
            assert_eq!(s.start().node, p1);
            assert_eq!(s.end().label, "leader_change");
            assert_eq!(s.hops[1].label, "counter_bump");
            assert_eq!(s.hops[1].node, p0);
        }
        // p2's view: accuse@10 → bump@12 → change@25, depth 15, 20 ticks.
        let s2 = spans.iter().find(|s| s.end().node == p2).expect("p2 span");
        assert_eq!(s2.causal_depth(), 15);
        assert_eq!(s2.latency_ticks(), Some(20));
        let json = spans_json(&spans);
        assert!(json.starts_with('[') && json.contains("\"kind\": \"election\""));
    }

    #[test]
    fn initial_election_without_accusations_yields_no_span() {
        let p0 = ProcessId(0);
        let streams = vec![vec![
            rec(
                0,
                1,
                ProbeEvent::LeaderChange {
                    node: p0,
                    at: t(0),
                    leader: p0,
                },
            ),
            rec(
                1,
                2,
                ProbeEvent::LeaderChange {
                    node: p0,
                    at: t(1),
                    leader: ProcessId(1),
                },
            ),
        ]];
        assert!(election_spans(&streams).is_empty());
    }

    #[test]
    fn decide_span_groups_one_slot_across_the_quorum() {
        let p0 = ProcessId(0);
        let p1 = ProcessId(1);
        let streams = vec![
            vec![
                rec(
                    0,
                    5,
                    ProbeEvent::PhaseEnter {
                        node: p0,
                        at: t(10),
                        label: "accept",
                        number: 1,
                    },
                ),
                rec(
                    1,
                    9,
                    ProbeEvent::Decide {
                        node: p0,
                        at: t(14),
                        slot: 0,
                    },
                ),
            ],
            vec![rec(
                0,
                8,
                ProbeEvent::Decide {
                    node: p1,
                    at: t(13),
                    slot: 0,
                },
            )],
        ];
        let spans = decide_spans(&streams);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert!(s.causally_ordered(), "bad span {s:?}");
        assert_eq!(s.start().label, "phase");
        assert_eq!(s.hops.len(), 3);
        assert_eq!(s.end().node, p0, "latest decide ends the span");
        assert_eq!(s.causal_depth(), 4);
    }

    #[test]
    fn causal_order_check_rejects_receive_before_send() {
        let bad = SpanRecord {
            kind: SpanKind::Election,
            hops: vec![
                SpanHop {
                    node: ProcessId(0),
                    lamport: 10,
                    at: None,
                    label: "accuse",
                },
                SpanHop {
                    node: ProcessId(1),
                    lamport: 10, // equal across nodes = impossible causality
                    at: None,
                    label: "leader_change",
                },
            ],
        };
        assert!(!bad.causally_ordered());
    }
}
