//! Hand-rolled, versioned binary wire codec shared by every transport that
//! moves protocol messages across a real byte stream (today: `wirenet`).
//!
//! # Frame format
//!
//! Every message travels in one *frame*:
//!
//! ```text
//! +----------------+---------+----------------+----------------+
//! | len: u32 LE    | ver: u8 | body: [u8]     | crc: u32 LE    |
//! +----------------+---------+----------------+----------------+
//! ```
//!
//! `len` counts everything after itself (`1 + body.len() + 4`). `crc` is the
//! IEEE CRC-32 of the version byte plus the body. Because the length prefix
//! frames the stream independently of the payload, a frame whose checksum or
//! body fails to decode can be *skipped* — the reader stays aligned on the
//! next frame boundary (resynchronisation), which is what lets a transport
//! count a corrupted frame and move on instead of tearing the connection
//! down.
//!
//! # Value encoding
//!
//! * `u8` — one raw byte.
//! * `u16`/`u32`/`u64`/`usize` — LEB128 varint (small counters stay small).
//! * `bool` — one byte, `0` or `1`; anything else is a decode error.
//! * `String` — varint byte length, then UTF-8 bytes.
//! * `Option<T>` — presence byte then the value.
//! * `Vec<T>` — varint element count, then elements. The count is validated
//!   against the bytes actually remaining, so a forged length cannot trigger
//!   a huge allocation.
//! * enums — one tag byte, then the variant's fields in declaration order.
//!
//! Decoding never panics on malformed input: every failure is a
//! [`WireError`].

use std::fmt;

use crate::id::ProcessId;

/// Protocol version stamped into every frame. Bump on any incompatible
/// change to the value encoding of an existing message type.
pub const PROTOCOL_VERSION: u8 = 1;

/// Protocol version for frames that carry a [`TraceEnvelope`] between the
/// version byte and the body. Version 1 frames (no envelope) remain
/// decodable — see [`decode_frame_any`].
pub const PROTOCOL_VERSION_STAMPED: u8 = 2;

/// Protocol version for frames that carry a shard tag (varint) *and* a
/// [`TraceEnvelope`] between the version byte and the body. The tag lets a
/// transport demultiplex co-located shard groups without decoding the body.
/// Version 1 and 2 frames remain decodable — see [`decode_frame_any`].
pub const PROTOCOL_VERSION_SHARDED: u8 = 3;

/// Upper bound on `len` accepted by the deframer. A peer announcing a larger
/// frame is corrupt or hostile; the connection should be dropped because the
/// stream can no longer be trusted to be aligned.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Size of the `len` prefix.
const LEN_PREFIX: usize = 4;
/// Bytes of frame overhead beyond the body: version byte + CRC-32.
const FRAME_OVERHEAD: usize = 5;

/// Everything that can go wrong while decoding.
///
/// Decoders return errors — they never panic on malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended in the middle of a value.
    Truncated,
    /// A varint ran past 10 bytes (cannot be a `u64`).
    VarintOverflow,
    /// A boolean byte was neither 0 nor 1.
    BadBool(u8),
    /// An enum tag byte matched no variant.
    BadTag {
        /// The type being decoded.
        type_name: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// String bytes were not valid UTF-8.
    BadUtf8,
    /// A collection announced more elements than the remaining bytes could
    /// possibly hold.
    BadLength {
        /// The announced element count.
        announced: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A frame announced a length of zero or above [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// The announced frame length.
        len: usize,
    },
    /// The frame's version byte matched no supported protocol version.
    BadVersion {
        /// The version byte found.
        got: u8,
    },
    /// The frame's CRC-32 did not match its contents.
    BadChecksum {
        /// Checksum carried by the frame.
        got: u32,
        /// Checksum computed over the frame.
        want: u32,
    },
    /// A frame body decoded successfully but left bytes unconsumed.
    TrailingBytes {
        /// Number of leftover bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-value"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::BadBool(b) => write!(f, "invalid boolean byte {b:#04x}"),
            WireError::BadTag { type_name, tag } => {
                write!(f, "invalid tag {tag:#04x} for {type_name}")
            }
            WireError::BadUtf8 => write!(f, "string bytes are not valid UTF-8"),
            WireError::BadLength {
                announced,
                remaining,
            } => write!(
                f,
                "collection announces {announced} elements but only {remaining} bytes remain"
            ),
            WireError::FrameTooLong { len } => {
                write!(f, "frame length {len} outside (0, {MAX_FRAME_LEN}]")
            }
            WireError::BadVersion { got } => {
                write!(
                    f,
                    "protocol version {got} (supported: {PROTOCOL_VERSION}, \
                     {PROTOCOL_VERSION_STAMPED}, {PROTOCOL_VERSION_SHARDED})"
                )
            }
            WireError::BadChecksum { got, want } => {
                write!(
                    f,
                    "checksum mismatch: frame says {got:#010x}, computed {want:#010x}"
                )
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length prefix: the count of the bytes or elements that
    /// follow. Each takes at least one byte, so a count beyond the
    /// remaining bytes is provably corrupt and is rejected before anyone
    /// allocates for it.
    pub fn len_prefix(&mut self) -> Result<usize, WireError> {
        let len = usize::decode(self)?;
        if len > self.remaining() {
            return Err(WireError::BadLength {
                announced: len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.len_prefix()?;
        std::str::from_utf8(self.bytes(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    /// Fails with [`WireError::TrailingBytes`] unless everything was
    /// consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.remaining(),
            })
        }
    }
}

/// Appends a LEB128 varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A type with a hand-rolled binary encoding.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, consuming
/// exactly the bytes `encode` produced.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformation found.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: the encoding as a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes a value that must span all of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input or trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// The shard tag a sharded transport should stamp into this message's
    /// frame, or `None` to send an unsharded (version-2) frame. Messages
    /// that belong to one shard group override this; everything else —
    /// including the shared per-node Ω traffic — keeps the default and
    /// travels untagged.
    fn shard_tag(&self) -> Option<u32> {
        None
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

macro_rules! wire_varint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let v = r.varint()?;
                <$t>::try_from(v).map_err(|_| WireError::VarintOverflow)
            }
        }
    )*};
}
wire_varint!(u16, u32, u64, usize);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str().map(str::to_owned)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.len_prefix()?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);

impl Wire for ProcessId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ProcessId(u32::decode(r)?))
    }
}

/// Compact causal-position stamp carried by version-2 frames, between the
/// version byte and the message body.
///
/// `lamport` is the sender's Lamport clock *after* ticking for this send;
/// `trace_id` is the sender's 64-bit trace/epoch id (constant per run or
/// per incarnation — it groups frames belonging to one causal experiment).
/// Both are varint-encoded, so a young clock costs two bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEnvelope {
    /// Sender's Lamport clock value at send time.
    pub lamport: u64,
    /// Sender's trace/epoch id.
    pub trace_id: u64,
}

impl Wire for TraceEnvelope {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lamport.encode(out);
        self.trace_id.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TraceEnvelope {
            lamport: u64::decode(r)?,
            trace_id: u64::decode(r)?,
        })
    }
}

/// IEEE CRC-32 lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Encodes `msg` as one complete frame (length prefix included).
pub fn encode_frame<M: Wire>(msg: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    out.push(PROTOCOL_VERSION);
    msg.encode(&mut out);
    let crc = crc32(&out[LEN_PREFIX..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = (out.len() - LEN_PREFIX) as u32;
    out[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    out
}

/// Frames each record as `encode_frame(&record.to_vec())` would — a
/// version-1 frame whose body is the length-prefixed byte string — back to
/// back into one buffer, without copying a record into a `Vec` first or
/// encoding its bytes one at a time.
pub(crate) fn encode_byte_frames<R: AsRef<[u8]>>(records: &[R]) -> Vec<u8> {
    // Per record: length prefix, version, a varint of at most 10 bytes, CRC.
    let framing = LEN_PREFIX + FRAME_OVERHEAD + 10;
    let total = records.iter().map(|r| r.as_ref().len() + framing).sum();
    let mut out = Vec::with_capacity(total);
    for record in records {
        let bytes = record.as_ref();
        let start = out.len();
        out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
        out.push(PROTOCOL_VERSION);
        put_varint(&mut out, bytes.len() as u64);
        out.extend_from_slice(bytes);
        let crc = crc32(&out[start + LEN_PREFIX..]);
        out.extend_from_slice(&crc.to_le_bytes());
        let len = (out.len() - start - LEN_PREFIX) as u32;
        out[start..start + LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    }
    out
}

/// Decodes a frame *payload* — the bytes after the length prefix, i.e.
/// `version | body | crc` — as produced by [`Deframer::next_frame`].
///
/// # Errors
///
/// Returns [`WireError::BadVersion`], [`WireError::BadChecksum`], or any
/// body decode error. None of these desynchronise the stream: the caller
/// already holds a complete, well-delimited frame and can simply skip it.
pub fn decode_frame<M: Wire>(payload: &[u8]) -> Result<M, WireError> {
    if payload.len() < FRAME_OVERHEAD {
        return Err(WireError::Truncated);
    }
    let (content, crc_bytes) = payload.split_at(payload.len() - 4);
    let got = u32::from_le_bytes(crc_bytes.try_into().expect("split at len-4"));
    let want = crc32(content);
    if got != want {
        return Err(WireError::BadChecksum { got, want });
    }
    let version = content[0];
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    M::from_bytes(&content[1..])
}

/// Encodes `msg` as one complete version-2 frame carrying a
/// [`TraceEnvelope`] between the version byte and the body.
pub fn encode_frame_stamped<M: Wire>(msg: &M, env: &TraceEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    out.push(PROTOCOL_VERSION_STAMPED);
    env.encode(&mut out);
    msg.encode(&mut out);
    let crc = crc32(&out[LEN_PREFIX..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = (out.len() - LEN_PREFIX) as u32;
    out[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encodes `msg` as one complete version-3 frame carrying a shard tag
/// (varint) and a [`TraceEnvelope`] between the version byte and the body.
pub fn encode_frame_sharded<M: Wire>(msg: &M, shard: u32, env: &TraceEnvelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    out.push(PROTOCOL_VERSION_SHARDED);
    put_varint(&mut out, u64::from(shard));
    env.encode(&mut out);
    msg.encode(&mut out);
    let crc = crc32(&out[LEN_PREFIX..]);
    out.extend_from_slice(&crc.to_le_bytes());
    let len = (out.len() - LEN_PREFIX) as u32;
    out[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    out
}

/// Transport-level metadata recovered from one frame, alongside the decoded
/// message: the causal stamp (versions 2 and 3) and the shard tag
/// (version 3 only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// The causal stamp, if the frame carried one.
    pub envelope: Option<TraceEnvelope>,
    /// The shard tag, if the frame was shard-routed.
    pub shard: Option<u32>,
}

/// Decodes a frame payload of *any* supported version, returning the full
/// [`FrameMeta`]: version 1 yields neither stamp nor tag, version 2 a stamp
/// only, version 3 both.
///
/// # Errors
///
/// Returns [`WireError::BadVersion`] for any other version byte,
/// [`WireError::BadChecksum`] on corruption, or any body decode error.
pub fn decode_frame_tagged<M: Wire>(payload: &[u8]) -> Result<(FrameMeta, M), WireError> {
    if payload.len() < FRAME_OVERHEAD {
        return Err(WireError::Truncated);
    }
    let (content, crc_bytes) = payload.split_at(payload.len() - 4);
    let got = u32::from_le_bytes(crc_bytes.try_into().expect("split at len-4"));
    let want = crc32(content);
    if got != want {
        return Err(WireError::BadChecksum { got, want });
    }
    match content[0] {
        v if v == PROTOCOL_VERSION => Ok((FrameMeta::default(), M::from_bytes(&content[1..])?)),
        v if v == PROTOCOL_VERSION_STAMPED => {
            let mut r = WireReader::new(&content[1..]);
            let env = TraceEnvelope::decode(&mut r)?;
            let msg = M::decode(&mut r)?;
            r.finish()?;
            Ok((
                FrameMeta {
                    envelope: Some(env),
                    shard: None,
                },
                msg,
            ))
        }
        v if v == PROTOCOL_VERSION_SHARDED => {
            let mut r = WireReader::new(&content[1..]);
            let shard = u32::decode(&mut r)?;
            let env = TraceEnvelope::decode(&mut r)?;
            let msg = M::decode(&mut r)?;
            r.finish()?;
            Ok((
                FrameMeta {
                    envelope: Some(env),
                    shard: Some(shard),
                },
                msg,
            ))
        }
        got => Err(WireError::BadVersion { got }),
    }
}

/// Decodes a frame payload of *any* supported version: a bare version-1
/// frame yields `(None, msg)`; stamped version-2 and sharded version-3
/// frames yield `(Some(envelope), msg)` (the shard tag, redundant with the
/// message body, is dropped — use [`decode_frame_tagged`] to keep it).
///
/// This is the receive path every stamped transport should use — it keeps a
/// stamping node wire-compatible with an unstamped (pre-upgrade) peer.
///
/// # Errors
///
/// Returns [`WireError::BadVersion`] for any other version byte,
/// [`WireError::BadChecksum`] on corruption, or any body decode error.
pub fn decode_frame_any<M: Wire>(payload: &[u8]) -> Result<(Option<TraceEnvelope>, M), WireError> {
    let (meta, msg) = decode_frame_tagged(payload)?;
    Ok((meta.envelope, msg))
}

/// Incremental frame extractor for a byte stream.
///
/// Feed raw bytes with [`extend`](Deframer::extend); pull complete frame
/// payloads with [`next_frame`](Deframer::next_frame). Only an oversized (or
/// zero) length prefix is fatal — checksum and decode errors are per-frame
/// and leave the stream aligned. Popping a frame only advances a read
/// offset; the consumed prefix is dropped once per `extend`, so a read
/// carrying k frames costs one shift of the leftover bytes, not k.
#[derive(Debug, Default)]
pub struct Deframer {
    buf: Vec<u8>,
    /// Start of the bytes not yet returned as frames.
    start: usize,
}

impl Deframer {
    /// An empty deframer.
    pub fn new() -> Self {
        Deframer::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload (`version | body | crc`), or
    /// `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::FrameTooLong`] when the length prefix is zero,
    /// below the frame overhead, or above [`MAX_FRAME_LEN`] — the stream is
    /// then unrecoverable and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let rest = &self.buf[self.start..];
        if rest.len() < LEN_PREFIX {
            return Ok(None);
        }
        let len = u32::from_le_bytes(rest[..LEN_PREFIX].try_into().expect("4 bytes")) as usize;
        if !(FRAME_OVERHEAD..=MAX_FRAME_LEN).contains(&len) {
            return Err(WireError::FrameTooLong { len });
        }
        if rest.len() < LEN_PREFIX + len {
            return Ok(None);
        }
        let payload = rest[LEN_PREFIX..LEN_PREFIX + len].to_vec();
        self.start += LEN_PREFIX + len;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: Wire + PartialEq + std::fmt::Debug>(msg: M) {
        let bytes = msg.to_bytes();
        assert_eq!(M::from_bytes(&bytes).expect("roundtrip"), msg);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(300u16);
        roundtrip(70_000u32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
        roundtrip(Option::<u64>::None);
        roundtrip(Some(42u64));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip((7u64, String::from("x")));
        roundtrip((1u64, 2u64, 3u64));
        roundtrip(ProcessId(17));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            roundtrip(v);
        }
        // 127 fits one byte, 128 needs two.
        assert_eq!(127u64.to_bytes().len(), 1);
        assert_eq!(128u64.to_bytes().len(), 2);
        assert_eq!(u64::MAX.to_bytes().len(), 10);
    }

    #[test]
    fn varint_overflow_is_an_error() {
        // 11 continuation bytes can never terminate a u64.
        let bytes = [0xffu8; 11];
        assert_eq!(u64::from_bytes(&bytes), Err(WireError::VarintOverflow));
        // 10 bytes whose top byte overflows bit 63.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x02;
        assert_eq!(u64::from_bytes(&bytes), Err(WireError::VarintOverflow));
    }

    #[test]
    fn bad_bool_and_bad_option_tag() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::BadBool(2)));
        assert!(matches!(
            Option::<u64>::from_bytes(&[9]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn forged_vec_length_is_rejected_without_allocating() {
        // Announces u64::MAX/2 elements with two bytes of data.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX / 2);
        bytes.extend_from_slice(&[1, 2]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn truncated_string_is_rejected() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 10);
        bytes.extend_from_slice(b"abc");
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&bytes), Err(WireError::BadUtf8));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips() {
        let frame = encode_frame(&(7u64, String::from("leader")));
        let mut d = Deframer::new();
        d.extend(&frame);
        let payload = d.next_frame().expect("aligned").expect("complete");
        let msg: (u64, String) = decode_frame(&payload).expect("valid");
        assert_eq!(msg, (7, String::from("leader")));
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn deframer_handles_split_and_coalesced_frames() {
        let f1 = encode_frame(&1u64);
        let f2 = encode_frame(&2u64);
        let mut joined = f1.clone();
        joined.extend_from_slice(&f2);
        // Feed one byte at a time: frames appear exactly at their boundary.
        let mut d = Deframer::new();
        let mut got = Vec::new();
        for &b in &joined {
            d.extend(&[b]);
            while let Some(p) = d.next_frame().expect("aligned") {
                got.push(decode_frame::<u64>(&p).expect("valid"));
            }
        }
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn deframer_recovers_many_frames_split_at_arbitrary_boundaries() {
        let frames: Vec<Vec<u8>> = (0..500u64)
            .map(|i| encode_frame(&(i, "x".repeat((i * 37 % 300) as usize))))
            .collect();
        let stream: Vec<u8> = frames.concat();
        // Chunks of 1..=1500 bytes from a fixed xorshift sequence, so reads
        // end mid-prefix, mid-body and exactly on boundaries, and one read
        // often carries several whole frames.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut d = Deframer::new();
        let mut got = Vec::new();
        let mut fed = 0;
        while fed < stream.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let take = (1 + state % 1500) as usize;
            let chunk = &stream[fed..(fed + take).min(stream.len())];
            fed += chunk.len();
            d.extend(chunk);
            while let Some(p) = d.next_frame().expect("aligned") {
                got.push(decode_frame::<(u64, String)>(&p).expect("valid").0);
            }
            let popped: usize = frames[..got.len()].iter().map(Vec::len).sum();
            assert_eq!(d.buffered(), fed - popped);
        }
        assert_eq!(got, (0..500).collect::<Vec<_>>());
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn corrupted_frame_is_skipped_and_stream_resyncs() {
        let mut f1 = encode_frame(&1u64);
        let f2 = encode_frame(&2u64);
        // Flip a bit inside frame 1's body (after the length prefix).
        let mid = LEN_PREFIX + 2;
        f1[mid] ^= 0x40;
        let mut d = Deframer::new();
        d.extend(&f1);
        d.extend(&f2);
        let p1 = d.next_frame().expect("aligned").expect("complete");
        assert!(matches!(
            decode_frame::<u64>(&p1),
            Err(WireError::BadChecksum { .. })
        ));
        // The stream stays aligned: the next frame decodes fine.
        let p2 = d.next_frame().expect("aligned").expect("complete");
        assert_eq!(decode_frame::<u64>(&p2).expect("valid"), 2);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut frame = encode_frame(&1u64);
        frame[LEN_PREFIX] = PROTOCOL_VERSION + 1;
        // Fix up the checksum so only the version differs.
        let end = frame.len() - 4;
        let crc = crc32(&frame[LEN_PREFIX..end]).to_le_bytes();
        frame[end..].copy_from_slice(&crc);
        let mut d = Deframer::new();
        d.extend(&frame);
        let p = d.next_frame().expect("aligned").expect("complete");
        assert!(matches!(
            decode_frame::<u64>(&p),
            Err(WireError::BadVersion { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut d = Deframer::new();
        d.extend(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            d.next_frame(),
            Err(WireError::FrameTooLong { .. })
        ));
        let mut d = Deframer::new();
        d.extend(&0u32.to_le_bytes());
        assert!(matches!(
            d.next_frame(),
            Err(WireError::FrameTooLong { .. })
        ));
    }

    #[test]
    fn stamped_frame_roundtrips() {
        let env = TraceEnvelope {
            lamport: 42,
            trace_id: 0xfeed_beef,
        };
        let frame = encode_frame_stamped(&(7u64, String::from("leader")), &env);
        let mut d = Deframer::new();
        d.extend(&frame);
        let payload = d.next_frame().expect("aligned").expect("complete");
        let (got_env, msg): (Option<TraceEnvelope>, (u64, String)) =
            decode_frame_any(&payload).expect("valid");
        assert_eq!(got_env, Some(env));
        assert_eq!(msg, (7, String::from("leader")));
    }

    #[test]
    fn decode_frame_any_accepts_unstamped_v1_frames() {
        let frame = encode_frame(&99u64);
        let mut d = Deframer::new();
        d.extend(&frame);
        let payload = d.next_frame().expect("aligned").expect("complete");
        let (env, msg): (Option<TraceEnvelope>, u64) =
            decode_frame_any(&payload).expect("v1 stays decodable");
        assert_eq!(env, None);
        assert_eq!(msg, 99);
    }

    #[test]
    fn strict_v1_decoder_rejects_stamped_frames() {
        // decode_frame is the strict v1 path (handshakes); a v2 frame must
        // surface as BadVersion there, not as garbage.
        let env = TraceEnvelope {
            lamport: 1,
            trace_id: 2,
        };
        let frame = encode_frame_stamped(&1u64, &env);
        let payload = frame[LEN_PREFIX..].to_vec();
        assert_eq!(
            decode_frame::<u64>(&payload),
            Err(WireError::BadVersion {
                got: PROTOCOL_VERSION_STAMPED
            })
        );
    }

    #[test]
    fn decode_frame_any_rejects_unknown_versions_and_corruption() {
        let mut frame = encode_frame(&1u64);
        frame[LEN_PREFIX] = 77;
        let end = frame.len() - 4;
        let crc = crc32(&frame[LEN_PREFIX..end]).to_le_bytes();
        frame[end..].copy_from_slice(&crc);
        assert_eq!(
            decode_frame_any::<u64>(&frame[LEN_PREFIX..]),
            Err(WireError::BadVersion { got: 77 })
        );
        let mut corrupt = encode_frame_stamped(
            &5u64,
            &TraceEnvelope {
                lamport: 9,
                trace_id: 9,
            },
        );
        let mid = LEN_PREFIX + 3;
        corrupt[mid] ^= 0x10;
        assert!(matches!(
            decode_frame_any::<u64>(&corrupt[LEN_PREFIX..]),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn sharded_frame_roundtrips_with_tag() {
        let env = TraceEnvelope {
            lamport: 11,
            trace_id: 0xdead_cafe,
        };
        let frame = encode_frame_sharded(&(3u64, String::from("group")), 5, &env);
        let mut d = Deframer::new();
        d.extend(&frame);
        let payload = d.next_frame().expect("aligned").expect("complete");
        let (meta, msg): (FrameMeta, (u64, String)) = decode_frame_tagged(&payload).expect("valid");
        assert_eq!(meta.envelope, Some(env));
        assert_eq!(meta.shard, Some(5));
        assert_eq!(msg, (3, String::from("group")));
    }

    #[test]
    fn decode_frame_any_accepts_sharded_v3_frames() {
        let env = TraceEnvelope {
            lamport: 1,
            trace_id: 2,
        };
        let frame = encode_frame_sharded(&77u64, 3, &env);
        let payload = frame[LEN_PREFIX..].to_vec();
        let (got_env, msg): (Option<TraceEnvelope>, u64) =
            decode_frame_any(&payload).expect("v3 decodable on the any-path");
        assert_eq!(got_env, Some(env));
        assert_eq!(msg, 77);
    }

    #[test]
    fn decode_frame_tagged_reports_no_tag_on_v1_and_v2() {
        let payload = encode_frame(&9u64)[LEN_PREFIX..].to_vec();
        let (meta, msg): (FrameMeta, u64) = decode_frame_tagged(&payload).expect("v1");
        assert_eq!(meta, FrameMeta::default());
        assert_eq!(msg, 9);

        let env = TraceEnvelope {
            lamport: 4,
            trace_id: 8,
        };
        let payload = encode_frame_stamped(&9u64, &env)[LEN_PREFIX..].to_vec();
        let (meta, _): (FrameMeta, u64) = decode_frame_tagged(&payload).expect("v2");
        assert_eq!(meta.envelope, Some(env));
        assert_eq!(meta.shard, None);
    }

    #[test]
    fn strict_v1_decoder_rejects_sharded_frames() {
        let env = TraceEnvelope {
            lamport: 1,
            trace_id: 2,
        };
        let frame = encode_frame_sharded(&1u64, 0, &env);
        let payload = frame[LEN_PREFIX..].to_vec();
        assert_eq!(
            decode_frame::<u64>(&payload),
            Err(WireError::BadVersion {
                got: PROTOCOL_VERSION_SHARDED
            })
        );
    }

    #[test]
    fn corrupted_sharded_frame_is_a_checksum_error() {
        let mut frame = encode_frame_sharded(
            &5u64,
            7,
            &TraceEnvelope {
                lamport: 9,
                trace_id: 9,
            },
        );
        let mid = LEN_PREFIX + 3;
        frame[mid] ^= 0x10;
        assert!(matches!(
            decode_frame_tagged::<u64>(&frame[LEN_PREFIX..]),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn shard_tag_defaults_to_none() {
        assert_eq!(7u64.shard_tag(), None);
        assert_eq!(String::from("x").shard_tag(), None);
    }

    #[test]
    fn byte_frames_match_the_generic_frame_encoding() {
        let big: Vec<u8> = (0..5 * 1024).map(|i| (i % 251) as u8).collect();
        let records: [&[u8]; 4] = [b"", b"x", b"a short record", &big];
        for record in records {
            assert_eq!(
                encode_byte_frames(&[record]),
                encode_frame(&record.to_vec()),
                "{} bytes",
                record.len()
            );
        }
        let joined: Vec<u8> = records
            .iter()
            .flat_map(|r| encode_frame(&r.to_vec()))
            .collect();
        assert_eq!(encode_byte_frames(&records), joined, "frames back to back");
        assert!(encode_byte_frames::<Vec<u8>>(&[]).is_empty());
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = 1u64.to_bytes();
        bytes.push(0);
        assert_eq!(
            u64::from_bytes(&bytes),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }
}
