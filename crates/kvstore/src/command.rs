//! Commands, client tags, and responses.

use std::fmt;

use consensus::LifecycleId;
use lls_obs::CmdId;
use lls_primitives::wire::{Wire, WireError, WireReader};

/// A client session identity. Each client numbers its commands with a
/// strictly increasing sequence; the pair `(ClientId, seq)` makes retries
/// idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// A key-value command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvCmd {
    /// Set `key` to `value`.
    Put {
        /// The key.
        key: String,
        /// The new value.
        value: String,
    },
    /// Remove `key`.
    Delete {
        /// The key.
        key: String,
    },
    /// Compare-and-swap: set `key` to `value` only if its current value is
    /// `expect` (`None` = key must be absent).
    Cas {
        /// The key.
        key: String,
        /// Required current value.
        expect: Option<String>,
        /// The new value.
        value: String,
    },
    /// Read `key`. With leases off this replicates through the log like any
    /// command (the slow *log-read* baseline); with leases on the store
    /// serves it on the fast path — locally under an active leader lease,
    /// or via a read-index round on a follower — and it never enters the
    /// log.
    Read {
        /// The key.
        key: String,
    },
}

impl KvCmd {
    /// Convenience `Put` constructor.
    pub fn put(key: impl Into<String>, value: impl Into<String>) -> Self {
        KvCmd::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Convenience `Delete` constructor.
    pub fn delete(key: impl Into<String>) -> Self {
        KvCmd::Delete { key: key.into() }
    }

    /// Convenience `Cas` constructor.
    pub fn cas(key: impl Into<String>, expect: Option<&str>, value: impl Into<String>) -> Self {
        KvCmd::Cas {
            key: key.into(),
            expect: expect.map(str::to_owned),
            value: value.into(),
        }
    }

    /// Convenience `Read` constructor.
    pub fn read(key: impl Into<String>) -> Self {
        KvCmd::Read { key: key.into() }
    }

    /// The key this command touches.
    pub fn key(&self) -> &str {
        match self {
            KvCmd::Put { key, .. }
            | KvCmd::Delete { key }
            | KvCmd::Cas { key, .. }
            | KvCmd::Read { key } => key,
        }
    }

    /// `true` for commands that never mutate the store.
    pub fn is_read(&self) -> bool {
        matches!(self, KvCmd::Read { .. })
    }
}

/// A command tagged with its client session identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tagged<C> {
    /// The issuing client.
    pub client: ClientId,
    /// The client's sequence number for this command (strictly increasing
    /// per client).
    pub seq: u64,
    /// The command.
    pub cmd: C,
}

/// Every tagged command is lifecycle-visible: the `(client, seq)` session
/// tag *is* its identity across the latency-attribution plane, so the same
/// pair that deduplicates retries also threads a command's probe events
/// from `Enqueue` to `Reply`.
impl<C> LifecycleId for Tagged<C> {
    fn lifecycle_id(&self) -> Option<CmdId> {
        Some(CmdId {
            client: self.client.0,
            seq: self.seq,
        })
    }
}

/// The outcome of applying one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResponse {
    /// The command executed; `previous` is the value the key held before.
    Applied {
        /// Prior value of the key, if any.
        previous: Option<String>,
    },
    /// A `Cas` whose expectation failed; nothing changed.
    CasFailed {
        /// The actual current value that did not match.
        actual: Option<String>,
    },
    /// The `(client, seq)` tag was already applied earlier; nothing changed.
    Duplicate,
    /// A `Read` resolved; `value` is what the key held at the read point.
    Value {
        /// Current value of the key, if present.
        value: Option<String>,
    },
}

impl Wire for ClientId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ClientId(u64::decode(r)?))
    }
}

impl Wire for KvCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KvCmd::Put { key, value } => {
                out.push(0);
                key.encode(out);
                value.encode(out);
            }
            KvCmd::Delete { key } => {
                out.push(1);
                key.encode(out);
            }
            KvCmd::Cas { key, expect, value } => {
                out.push(2);
                key.encode(out);
                expect.encode(out);
                value.encode(out);
            }
            KvCmd::Read { key } => {
                out.push(3);
                key.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(KvCmd::Put {
                key: String::decode(r)?,
                value: String::decode(r)?,
            }),
            1 => Ok(KvCmd::Delete {
                key: String::decode(r)?,
            }),
            2 => Ok(KvCmd::Cas {
                key: String::decode(r)?,
                expect: Option::decode(r)?,
                value: String::decode(r)?,
            }),
            3 => Ok(KvCmd::Read {
                key: String::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                type_name: "KvCmd",
                tag,
            }),
        }
    }
}

impl<C: Wire> Wire for Tagged<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.seq.encode(out);
        self.cmd.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Tagged {
            client: ClientId::decode(r)?,
            seq: u64::decode(r)?,
            cmd: C::decode(r)?,
        })
    }
}

impl Wire for KvResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            KvResponse::Applied { previous } => {
                out.push(0);
                previous.encode(out);
            }
            KvResponse::CasFailed { actual } => {
                out.push(1);
                actual.encode(out);
            }
            KvResponse::Duplicate => out.push(2),
            KvResponse::Value { value } => {
                out.push(3);
                value.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(KvResponse::Applied {
                previous: Option::decode(r)?,
            }),
            1 => Ok(KvResponse::CasFailed {
                actual: Option::decode(r)?,
            }),
            2 => Ok(KvResponse::Duplicate),
            3 => Ok(KvResponse::Value {
                value: Option::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                type_name: "KvResponse",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_variants() {
        assert_eq!(
            KvCmd::put("a", "1"),
            KvCmd::Put {
                key: "a".into(),
                value: "1".into()
            }
        );
        assert_eq!(KvCmd::delete("a"), KvCmd::Delete { key: "a".into() });
        assert_eq!(
            KvCmd::cas("a", Some("1"), "2"),
            KvCmd::Cas {
                key: "a".into(),
                expect: Some("1".into()),
                value: "2".into()
            }
        );
    }

    #[test]
    fn key_projection() {
        assert_eq!(KvCmd::put("k", "v").key(), "k");
        assert_eq!(KvCmd::delete("d").key(), "d");
        assert_eq!(KvCmd::cas("c", None, "v").key(), "c");
        assert_eq!(KvCmd::read("r").key(), "r");
        assert!(KvCmd::read("r").is_read());
        assert!(!KvCmd::put("k", "v").is_read());
    }

    #[test]
    fn read_command_and_value_response_round_trip_on_the_wire() {
        for cmd in [KvCmd::read("k"), KvCmd::put("k", "v")] {
            let bytes = cmd.to_bytes();
            assert_eq!(KvCmd::from_bytes(&bytes).unwrap(), cmd);
        }
        for resp in [
            KvResponse::Value { value: None },
            KvResponse::Value {
                value: Some("v".into()),
            },
        ] {
            let bytes = resp.to_bytes();
            assert_eq!(KvResponse::from_bytes(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn client_display() {
        assert_eq!(ClientId(3).to_string(), "client3");
    }
}
