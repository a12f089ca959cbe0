//! Durable records for crash–restart survival, with per-field safety
//! arguments.
//!
//! A process that can be killed and restarted is only safe if everything it
//! *told the rest of the system* survives the restart. For the protocols in
//! this crate, that is exactly four kinds of state, each appended to the
//! process's [`StorageHandle`](lls_primitives::StorageHandle) *before* the
//! message that exposes it can leave the process (the runtimes drain effects
//! only after a handler returns, so an append inside the handler is durable
//! first — the write-ahead rule):
//!
//! | field | record | why it must survive |
//! |---|---|---|
//! | Ω own counter | `OmegaCounter` | Peers adopt the largest counter heard from us and accusations only count when they match it (the counter *is* the phase). Regressing it would let a demoted candidate re-claim leadership it lost — breaking eventual agreement — and desynchronise the accusation phase forever. |
//! | promised ballot | `Promised` | A `Promise(b)` tells a proposer "no ballot `< b` can succeed through me". Forgetting it would let a restarted acceptor promise/accept an older ballot, producing two quorums for different values — the classic Paxos split brain. |
//! | accepted ballot/value | `Accepted` | A `Accepted(b)` vote may already be part of a quorum that chose the value. A restarted acceptor must reveal it in future promises, or a later proposer could choose a conflicting value. A replicated-log acceptor keeps a slot's vote only until it learns the slot chosen, and reveals the chosen entry in its place (see *Votes of chosen slots*). |
//! | decided value / chosen slot | `Decided` / `Chosen` | Decisions are irrevocable and observable: the local application sees them, a single-shot decider announces its decision, a replicated-log leader advertises its chosen prefix (see *Learning from the leader's prefix*), and any replica serves chosen slots to laggards. A restarted process must not re-decide differently, and must not re-emit its decision output (integrity: decide at most once). |
//!
//! # Recovery ("recovering rejoin mode")
//!
//! Recovery is performed synchronously inside `with_storage` constructors,
//! **before** `on_start` delivers the first stimulus — the machine is never
//! observable in a half-recovered state, so a restart cannot answer a
//! `Prepare`/`Accept` from pre-crash amnesia. Recovered decisions are
//! restored *without* re-emitting their outputs (the trace checkers require
//! each process to decide at most once); and the recovered Ω counter is
//! bumped by one (the incarnation bump), so the restarted process rejoins
//! as a follower and defers to whoever was elected while it was down.
//!
//! If an append fails at runtime, the machine *wedges*: it stops reacting to
//! all stimuli. A process whose durable storage is broken cannot safely keep
//! promises, so it must behave like a crashed process — which the protocols
//! already tolerate.
//!
//! # Lease holdoffs across restarts
//!
//! A lease granter's holdoff is volatile by design: no record persists it.
//! A restarted [`ReplicatedLog`](crate::ReplicatedLog) with leases on
//! therefore sits out a *boot blackout* of one lease duration plus skew,
//! refusing every ballot, which outlasts any holdoff a previous incarnation
//! granted. A first incarnation owes none and skips it: when the WAL held
//! no record and the snapshot store no snapshot (nothing was recovered),
//! there was no predecessor, because every incarnation appends its boot
//! `OmegaCounter` record, which survives a process crash, before it can
//! send anything. A replica without storage has no such evidence and keeps
//! the blackout, as does one that recovered anything.
//!
//! The rule reads an empty disk as "never ran". A node whose disk is lost
//! has forgotten its promised ballot and its votes as well as its
//! holdoffs, so it must rejoin as a new member, never as its old self —
//! the way experiment E21 treats a wiped node.
//!
//! # Votes of chosen slots
//!
//! For each slot, a promise needs either the acceptor's highest vote or the
//! knowledge that the slot is chosen, never both. So a
//! [`ReplicatedLog`](crate::ReplicatedLog) acceptor holds a slot's vote only
//! while it does not know the slot chosen: learning the slot drops the
//! vote, WAL recovery drops the vote of every recovered chosen slot, and an
//! `Accept` for a slot already known chosen is persisted and acknowledged
//! but not kept as a vote. In exchange, both promise paths — the `Prepare`
//! handler and a new leader's self-promise — report every slot at or above
//! `from_slot` that the promiser knows chosen as its chosen entry at the
//! ballot `b` being promised.
//!
//! Why that is safe: let `v` be chosen at slot `s` under ballot `bc`. By
//! the Paxos invariant every proposal at a ballot `≥ bc` for `s` carries `v`
//! (see Aspnes, *Notes on Theory of Distributed Systems*, the Paxos
//! chapter), so `v` reported at `b > bc` is a value a correct acceptor
//! could have voted for at `b`. No vote at `b` exists while its leader is
//! still gathering promises, so the report wins the new leader's per-slot
//! maximum over every real vote, and the leader re-proposes `v` — the only
//! value `s` can take. Promisers that report the same slot chosen report
//! the same `v`. Nothing in the WAL changes: the same records are appended
//! as before, and recovery simply prefers `Chosen` over `Accepted` for a
//! slot holding both.
//!
//! # Learning from the leader's prefix
//!
//! A [`ReplicatedLog`](crate::ReplicatedLog) leader does not announce its
//! decisions. Its *chosen prefix* — the number of contiguous slots it knows
//! chosen — rides, with its ballot, on every `Accept`, on `ReadIndexReply`
//! and on the Ω ALIVEs it sends every η anyway, and followers learn from it.
//!
//! *Premise:* a leader proposes at most one entry per slot per ballot.
//! Fresh commands go only to `next_slot`, which only grows; the takeover
//! proposes each slot of its re-proposal range once (the entry it gathered,
//! or a no-op) and skips the slots it already knows chosen; and
//! `start_prepare` always picks a ballot above everything promised or seen
//! (the promise survives restarts in the WAL), so no process leads the
//! same ballot twice.
//!
//! *Rule:* a replica holds a vote `(b, e)` for slot `s`, and the leader of
//! `b` advertises a chosen prefix above `s`. Then the replica learns `e` at
//! `s`. A vote at any other ballot — or no vote — teaches nothing: the
//! replica raises its known frontier and pulls the slot with `CatchUp`.
//!
//! Why that is safe: by the premise, `e` is the only entry the leader of
//! `b` proposed at `s` under `b`, and it advertises only slots it knows
//! chosen. It also keeps its prefix *honest*: while it leads `b`, every
//! slot below the prefix that it proposed under `b` is chosen with the
//! entry it proposed. A slot it chose itself was chosen by a majority of
//! votes for that entry. A slot it learns any other way (a `Decide`,
//! another leader's prefix) carries the chosen entry `v`; by the Paxos
//! invariant a value chosen at a ballot `≤ b` is what every ballot-`b`
//! proposal carries, so `v` differs from its own proposal only if a higher
//! ballot chose it. A chosen slot at or past `next_slot`, where it would
//! propose next, proves the same: slots chosen below `b` lie below the
//! horizon its promise quorum revealed, and its own choices lie below
//! `next_slot`. On either sign the leader abdicates before the slot enters
//! its prefix, and never advertises `b` again; a snapshot install covering
//! one of its in-flight proposals, or reaching past `next_slot`, abdicates
//! likewise, since the snapshot's entries are opaque. So when the replica
//! learns `e`, `e` is the chosen entry.
//!
//! What is persisted: nothing new. A learned slot is a `Chosen` record, as
//! before. On an `Accept`, the vote and the `Chosen` records its prefix
//! teaches go to the WAL as one group, written before the `Accepted` reply
//! and before any `Committed` output; a prefix on a `ReadIndexReply` or an
//! ALIVE writes the records it teaches as one group before the slots are
//! emitted. Recovery is unchanged.
//!
//! # Compaction (the "durable prefix" envelope)
//!
//! Snapshots and WAL compaction
//! ([`ReplicatedLog::compact`](crate::ReplicatedLog::compact)) *remove*
//! records, so they need their own safety argument on top of the table
//! above. The invariant is an ordering: **the snapshot is durable first**
//! (CRC-checked, tmp-then-rename, directory fsync), then the WAL is
//! rewritten to its *live* records — the latest `OmegaCounter`, the latest
//! `Promised`, every `Chosen` at slots ≥ the snapshot watermark and the
//! `Accepted` vote of every such slot not known chosen — and only then is
//! in-memory state pruned. A crash between any
//! two steps therefore recovers a *superset* of the required state (the
//! "durable prefix" envelope): old snapshot + full WAL, new snapshot + full
//! WAL, or new snapshot + compacted WAL, each of which replays to the same
//! observable state. Nothing an acceptor ever *told the rest of the system*
//! is dropped: the promise and the live votes stay in the rewritten WAL
//! verbatim, a vote of a chosen slot is covered by its `Chosen` record (see
//! *Votes of chosen slots*), and the chosen prefix below the watermark is
//! summarized by
//! the snapshot, whose watermark floors the replica (`low_slot` in
//! `Promise`) so no peer is ever answered from compacted amnesia. A new
//! leader treats the maximum promised `low_slot` as its proposal *floor*:
//! any slot chosen below it had a quorum that intersects the promising
//! quorum, so the choice is either revealed in a promise or lies below some
//! reported `low_slot` — never silently contradicted by a fresh proposal.

use lls_primitives::wire::{Wire, WireError, WireReader};

use crate::ballot::Ballot;
use crate::msg::Entry;

/// One durable record of a single-shot [`Consensus`](crate::Consensus)
/// process. See the module docs for the per-field safety argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptorRecord<V> {
    /// The embedded Ω detector's own accusation counter reached this value.
    OmegaCounter(u64),
    /// The acceptor promised this ballot.
    Promised(Ballot),
    /// The acceptor accepted this (ballot, value) pair.
    Accepted(Ballot, V),
    /// This process decided this value.
    Decided(V),
}

impl<V: Wire> Wire for AcceptorRecord<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AcceptorRecord::OmegaCounter(c) => {
                out.push(0);
                c.encode(out);
            }
            AcceptorRecord::Promised(b) => {
                out.push(1);
                b.encode(out);
            }
            AcceptorRecord::Accepted(b, v) => {
                out.push(2);
                b.encode(out);
                v.encode(out);
            }
            AcceptorRecord::Decided(v) => {
                out.push(3);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(AcceptorRecord::OmegaCounter(u64::decode(r)?)),
            1 => Ok(AcceptorRecord::Promised(Ballot::decode(r)?)),
            2 => Ok(AcceptorRecord::Accepted(Ballot::decode(r)?, V::decode(r)?)),
            3 => Ok(AcceptorRecord::Decided(V::decode(r)?)),
            tag => Err(WireError::BadTag {
                type_name: "AcceptorRecord",
                tag,
            }),
        }
    }
}

/// One durable record of a [`ReplicatedLog`](crate::ReplicatedLog) replica.
/// Same safety arguments as [`AcceptorRecord`], per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsmRecord<V> {
    /// The embedded Ω detector's own accusation counter reached this value.
    OmegaCounter(u64),
    /// The acceptor promised this ballot (covering all slots).
    Promised(Ballot),
    /// The acceptor accepted `entry` at `slot` under ballot `b`.
    Accepted {
        /// The slot written.
        slot: u64,
        /// The ballot under which it was written.
        b: Ballot,
        /// The accepted entry.
        entry: Entry<V>,
    },
    /// This replica learned that `slot` chose `entry`.
    Chosen {
        /// The decided slot.
        slot: u64,
        /// The chosen entry.
        entry: Entry<V>,
    },
}

impl<V: Wire> Wire for RsmRecord<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RsmRecord::OmegaCounter(c) => {
                out.push(0);
                c.encode(out);
            }
            RsmRecord::Promised(b) => {
                out.push(1);
                b.encode(out);
            }
            RsmRecord::Accepted { slot, b, entry } => {
                out.push(2);
                slot.encode(out);
                b.encode(out);
                entry.encode(out);
            }
            RsmRecord::Chosen { slot, entry } => {
                out.push(3);
                slot.encode(out);
                entry.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(RsmRecord::OmegaCounter(u64::decode(r)?)),
            1 => Ok(RsmRecord::Promised(Ballot::decode(r)?)),
            2 => Ok(RsmRecord::Accepted {
                slot: u64::decode(r)?,
                b: Ballot::decode(r)?,
                entry: Entry::decode(r)?,
            }),
            3 => Ok(RsmRecord::Chosen {
                slot: u64::decode(r)?,
                entry: Entry::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                type_name: "RsmRecord",
                tag,
            }),
        }
    }
}

impl<V: Wire> RsmRecord<V> {
    /// Decodes one stored record. A `Chosen` record is its tag and its slot
    /// followed by exactly its entry's encoding, which comes back too (empty
    /// for every other record), so recovery can keep those bytes as they
    /// are. The entry is decoded all the same: a record that does not
    /// decode fails here, before any of its bytes are kept.
    pub(crate) fn decode_stored(blob: &[u8]) -> Result<(Self, &[u8]), WireError> {
        let rec = Self::from_bytes(blob)?;
        let mut encoding: &[u8] = &[];
        if let RsmRecord::Chosen { .. } = rec {
            // Skip the tag and the slot.
            let mut r = WireReader::new(blob);
            r.u8()?;
            r.varint()?;
            encoding = &blob[blob.len() - r.remaining()..];
        }
        Ok((rec, encoding))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lls_primitives::ProcessId;

    #[test]
    fn acceptor_records_round_trip() {
        let b = Ballot::new(3, ProcessId(1));
        let records: Vec<AcceptorRecord<u64>> = vec![
            AcceptorRecord::OmegaCounter(7),
            AcceptorRecord::Promised(b),
            AcceptorRecord::Accepted(b, 42),
            AcceptorRecord::Decided(42),
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            assert_eq!(AcceptorRecord::<u64>::from_bytes(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn rsm_records_round_trip() {
        let b = Ballot::new(2, ProcessId(0));
        let records: Vec<RsmRecord<u64>> = vec![
            RsmRecord::OmegaCounter(1),
            RsmRecord::Promised(b),
            RsmRecord::Accepted {
                slot: 5,
                b,
                entry: Entry::Cmd(9),
            },
            RsmRecord::Chosen {
                slot: 5,
                entry: Entry::Noop,
            },
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            assert_eq!(RsmRecord::<u64>::from_bytes(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        assert!(matches!(
            AcceptorRecord::<u64>::from_bytes(&[9]),
            Err(WireError::BadTag { .. })
        ));
    }
}
