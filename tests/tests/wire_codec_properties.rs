//! Properties of the wire codec shared by every message type that crosses a
//! TCP connection in `wirenet`:
//!
//! 1. **Roundtrip** — encoding any Ω, consensus, RSM, or KV message into a
//!    frame and deframing + decoding it yields the original value.
//! 2. **Corruption is detected** — flipping any single bit of a frame's
//!    payload (version, body, or checksum) makes decoding fail with an
//!    error; it never panics and never misparses.
//! 3. **Truncation is detected** — a frame cut short decodes to an error.
//! 4. **Resync** — after a corrupted frame, the deframer stays on frame
//!    boundaries and the following good frames decode intact.
//! 5. **No panic on garbage** — arbitrary bytes fed to the deframer in
//!    arbitrary chunkings produce values or errors, never a panic.
//! 6. **Retired tags stay retired** — an RSM frame with the retired tag 7
//!    (the former decide acknowledgement) decodes to `BadTag`.

use consensus::{Ballot, ConsensusMsg, Entry, RsmMsg, ShardId, ShardMsg};
use kvstore::{ClientId, KvCmd, KvResponse, Tagged};
use lls_primitives::wire::{decode_frame, encode_frame, Deframer, Wire, WireError, WireReader};
use lls_primitives::ProcessId;
use omega::OmegaMsg;
use proptest::prelude::*;

/// The frame's 4-byte length prefix (everything before the checksummed
/// region).
const LEN_PREFIX: usize = 4;

fn omega_msg() -> impl Strategy<Value = OmegaMsg> {
    prop_oneof![
        any::<u64>().prop_map(|counter| OmegaMsg::Alive { counter }),
        any::<u64>().prop_map(|counter| OmegaMsg::Accuse { counter }),
    ]
}

fn ballot() -> impl Strategy<Value = Ballot> {
    (any::<u64>(), 0u32..16).prop_map(|(round, p)| Ballot::new(round, ProcessId(p)))
}

/// Short ASCII strings, empty included (the codec must not care what the
/// bytes spell).
fn small_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(b'a'..=b'z', 0..5).prop_map(|v| String::from_utf8(v).expect("ascii"))
}

fn kv_cmd() -> impl Strategy<Value = KvCmd> {
    prop_oneof![
        (small_string(), small_string()).prop_map(|(k, v)| KvCmd::put(k, v)),
        small_string().prop_map(KvCmd::delete),
        (
            small_string(),
            proptest::option::of(small_string()),
            small_string()
        )
            .prop_map(|(k, e, v)| KvCmd::cas(k, e.as_deref(), v)),
    ]
}

fn tagged() -> impl Strategy<Value = Tagged<KvCmd>> {
    (any::<u64>(), any::<u64>(), kv_cmd()).prop_map(|(client, seq, cmd)| Tagged {
        client: ClientId(client),
        seq,
        cmd,
    })
}

fn kv_response() -> impl Strategy<Value = KvResponse> {
    prop_oneof![
        proptest::option::of(small_string()).prop_map(|previous| KvResponse::Applied { previous }),
        proptest::option::of(small_string()).prop_map(|actual| KvResponse::CasFailed { actual }),
        Just(KvResponse::Duplicate),
    ]
}

fn entry() -> impl Strategy<Value = Entry<Tagged<KvCmd>>> {
    prop_oneof![Just(Entry::Noop), tagged().prop_map(Entry::Cmd)]
}

fn consensus_msg() -> impl Strategy<Value = ConsensusMsg<Tagged<KvCmd>>> {
    prop_oneof![
        omega_msg().prop_map(ConsensusMsg::Omega),
        ballot().prop_map(|b| ConsensusMsg::Prepare { b }),
        (ballot(), proptest::option::of((ballot(), tagged())))
            .prop_map(|(b, accepted)| ConsensusMsg::Promise { b, accepted }),
        (ballot(), tagged()).prop_map(|(b, v)| ConsensusMsg::Accept { b, v }),
        ballot().prop_map(|b| ConsensusMsg::Accepted { b }),
        (ballot(), ballot()).prop_map(|(b, higher)| ConsensusMsg::Nack { b, higher }),
        tagged().prop_map(|v| ConsensusMsg::Decide { v }),
        Just(ConsensusMsg::DecideAck),
    ]
}

/// A leader's advertised `(ballot, chosen prefix)`, or none.
fn prefix() -> impl Strategy<Value = Option<(Ballot, u64)>> {
    proptest::option::of((ballot(), any::<u64>()))
}

fn rsm_msg() -> impl Strategy<Value = RsmMsg<Tagged<KvCmd>>> {
    prop_oneof![
        (omega_msg(), prefix()).prop_map(|(m, prefix)| RsmMsg::Omega(m, prefix)),
        (ballot(), any::<u64>()).prop_map(|(b, from_slot)| RsmMsg::Prepare { b, from_slot }),
        (
            ballot(),
            proptest::collection::vec((any::<u64>(), ballot(), entry()), 0..4),
            any::<u64>(),
        )
            .prop_map(|(b, accepted, low_slot)| RsmMsg::Promise {
                b,
                accepted,
                low_slot
            }),
        (ballot(), any::<u64>(), entry(), any::<u64>()).prop_map(|(b, slot, entry, commit)| {
            RsmMsg::Accept {
                b,
                slot,
                entry,
                commit,
            }
        }),
        (ballot(), any::<u64>()).prop_map(|(b, slot)| RsmMsg::Accepted { b, slot }),
        (ballot(), ballot()).prop_map(|(b, higher)| RsmMsg::Nack { b, higher }),
        (any::<u64>(), entry()).prop_map(|(slot, entry)| RsmMsg::Decide { slot, entry }),
        (any::<u64>(), any::<u64>(), ballot()).prop_map(|(req, index, b)| RsmMsg::ReadIndexReply {
            req,
            index,
            b
        }),
    ]
}

fn shard_msg() -> impl Strategy<Value = ShardMsg<Tagged<KvCmd>>> {
    prop_oneof![
        (
            omega_msg(),
            proptest::collection::vec((any::<u32>(), ballot(), any::<u64>()), 0..4),
        )
            .prop_map(|(m, prefixes)| ShardMsg::Omega(
                m,
                prefixes
                    .into_iter()
                    .map(|(s, b, c)| (ShardId(s), b, c))
                    .collect()
            )),
        (any::<u32>(), rsm_msg()).prop_map(|(s, msg)| ShardMsg::Rsm {
            shard: ShardId(s),
            msg
        }),
    ]
}

/// Raw body bytes, framed as they are: lets a test put any tag on the wire.
#[derive(Debug)]
struct RawBody(Vec<u8>);

impl Wire for RawBody {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn decode(_: &mut WireReader<'_>) -> Result<Self, WireError> {
        unreachable!("only ever encoded")
    }
}

/// Frame → deframe → decode must reproduce the original exactly.
fn assert_roundtrip<M: Wire + PartialEq + std::fmt::Debug>(msg: &M) -> Result<(), TestCaseError> {
    let frame = encode_frame(msg);
    let mut d = Deframer::new();
    d.extend(&frame);
    let payload = d
        .next_frame()
        .expect("well-formed frame")
        .expect("complete frame");
    prop_assert_eq!(&decode_frame::<M>(&payload).expect("valid payload"), msg);
    prop_assert_eq!(d.buffered(), 0);
    // The raw body codec agrees with the framed path.
    prop_assert_eq!(&M::from_bytes(&msg.to_bytes()).expect("raw roundtrip"), msg);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn omega_messages_roundtrip(msg in omega_msg()) {
        assert_roundtrip(&msg)?;
    }

    #[test]
    fn consensus_messages_roundtrip(msg in consensus_msg()) {
        assert_roundtrip(&msg)?;
    }

    #[test]
    fn rsm_messages_roundtrip(msg in rsm_msg()) {
        assert_roundtrip(&msg)?;
    }

    #[test]
    fn shard_messages_roundtrip(msg in shard_msg()) {
        assert_roundtrip(&msg)?;
    }

    #[test]
    fn retired_decide_ack_tag_decodes_to_bad_tag(
        tail in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut body = vec![7u8];
        body.extend_from_slice(&tail);
        let frame = encode_frame(&RawBody(body));
        let mut d = Deframer::new();
        d.extend(&frame);
        let payload = d.next_frame().expect("well-formed frame").expect("complete frame");
        let decoded = decode_frame::<RsmMsg<Tagged<KvCmd>>>(&payload);
        prop_assert!(
            matches!(decoded, Err(WireError::BadTag { tag: 7, .. })),
            "tag 7 must be a bad tag: {:?}",
            decoded
        );
    }

    #[test]
    fn kv_payloads_roundtrip(t in tagged(), r in kv_response()) {
        assert_roundtrip(&t)?;
        assert_roundtrip(&r)?;
    }

    #[test]
    fn single_bit_flip_is_always_detected(msg in rsm_msg(), pick in any::<u64>()) {
        // Flip one bit anywhere in the checksummed region (version byte,
        // body, or the CRC itself): CRC32 detects every single-bit error.
        let frame = encode_frame(&msg);
        let payload_len = frame.len() - LEN_PREFIX;
        let bit = pick as usize % (payload_len * 8);
        let mut payload = frame[LEN_PREFIX..].to_vec();
        payload[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(decode_frame::<RsmMsg<Tagged<KvCmd>>>(&payload).is_err());
    }

    #[test]
    fn truncated_frames_are_rejected(msg in rsm_msg(), pick in any::<u64>()) {
        let frame = encode_frame(&msg);
        let payload = &frame[LEN_PREFIX..];
        let cut = pick as usize % payload.len();
        prop_assert!(decode_frame::<RsmMsg<Tagged<KvCmd>>>(&payload[..cut]).is_err());
    }

    #[test]
    fn deframer_resyncs_after_a_corrupted_frame(
        a in rsm_msg(),
        b in rsm_msg(),
        c in rsm_msg(),
        pick in any::<u64>(),
    ) {
        // Corrupt one payload byte of the middle frame (not its length
        // prefix, which is what keeps the stream alignable).
        let mut bad = encode_frame(&b);
        let i = LEN_PREFIX + pick as usize % (bad.len() - LEN_PREFIX);
        bad[i] ^= 0xFF;

        let mut stream = encode_frame(&a);
        stream.extend_from_slice(&bad);
        stream.extend_from_slice(&encode_frame(&c));

        let mut d = Deframer::new();
        d.extend(&stream);
        let first = d.next_frame().expect("frame 1").expect("complete");
        prop_assert_eq!(decode_frame::<RsmMsg<Tagged<KvCmd>>>(&first).expect("frame 1 intact"), a);
        let middle = d.next_frame().expect("length prefix intact").expect("complete");
        prop_assert!(decode_frame::<RsmMsg<Tagged<KvCmd>>>(&middle).is_err());
        let last = d.next_frame().expect("frame 3").expect("complete");
        prop_assert_eq!(decode_frame::<RsmMsg<Tagged<KvCmd>>>(&last).expect("frame 3 intact"), c);
        prop_assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        chunk in 1usize..32,
    ) {
        // Feed garbage through the full receive path in arbitrary chunkings:
        // every outcome is a value or an error, never a panic or a hang.
        let mut d = Deframer::new();
        for piece in bytes.chunks(chunk) {
            d.extend(piece);
            loop {
                match d.next_frame() {
                    Ok(Some(payload)) => {
                        let _ = decode_frame::<RsmMsg<Tagged<KvCmd>>>(&payload);
                    }
                    Ok(None) => break,
                    Err(_) => break, // fatal framing error: a real reader drops the connection
                }
            }
        }
    }
}
