//! Durable per-process storage for crash–restart survival.
//!
//! The paper's model is crash-stop, but the follow-up crash-recovery work
//! (Larrea/Martín/Soraluze, JSS 2011) makes precise what a process must
//! persist so that a restart cannot un-say anything it said before the
//! crash: the Ω accusation counter, and the consensus acceptor state
//! (promised ballot, accepted ballot/value, decided prefix). This module
//! provides the substrate-independent storage those protocols write through:
//!
//! * [`Storage`] — the minimal append/load contract: an ordered log of
//!   opaque byte records;
//! * [`MemStorage`] — an in-memory log that survives a *simulated* restart
//!   (the handle outlives the state machine) but not the host process; the
//!   deterministic backend used by `netsim` and wall-clock chaos campaigns;
//! * [`FileWal`] — an append-only file WAL whose records are framed with the
//!   [`wire`](crate::wire) codec (length prefix, protocol version, CRC-32).
//!   Recovery scans from the front and truncates at the first torn or
//!   corrupt frame, keeping the longest valid prefix;
//! * [`SegmentedWal`] — the same framing split across numbered segment
//!   files that rotate at a byte budget, so [`Storage::compact_to`] can
//!   rewrite the live tail into a fresh segment and delete everything
//!   behind the snapshot horizon — steady-state disk use is bounded by
//!   `snapshot + active segments` regardless of uptime;
//! * [`Snapshot`] / [`SnapshotStore`] / [`SnapshotHandle`] — durable
//!   application-state snapshots at a log watermark, installed atomically
//!   (tmp → fsync → rename → parent-dir fsync) behind a CRC-checked
//!   `MANIFEST`, with a directory-scan fallback when the manifest is lost
//!   between the rename and the directory sync;
//! * [`StorageHandle`] — a cloneable, thread-safe handle shared between the
//!   harness (which keeps it across kill/restart) and the state machine
//!   incarnations (which write through it).
//!
//! # Write-ahead discipline
//!
//! State machines append a record *inside* the handler that mutates the
//! crash-critical state, before the handler returns. Because every runtime
//! in this workspace drains effects only after the handler returns, the
//! record is durable before any message reflecting the new state can reach
//! the network — the classic write-ahead rule.
//!
//! # Example
//!
//! ```
//! use lls_primitives::storage::StorageHandle;
//!
//! let store = StorageHandle::in_memory();
//! store.append(b"promise 3").unwrap();
//! store.append(b"accept 3 v").unwrap();
//! // ... the process is killed; a new incarnation reloads:
//! let records = store.load().unwrap();
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0], b"promise 3");
//! ```

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use crate::wire::{decode_frame, encode_byte_frames, Wire, WireError, MAX_FRAME_LEN};

/// Bytes of the little-endian length prefix in front of every WAL frame
/// (same framing as the stream transports; see [`crate::wire::encode_frame`]).
const LEN_PREFIX: usize = 4;

/// Why a storage operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An I/O operation on the backing medium failed.
    Io {
        /// Which operation failed (`"open"`, `"append"`, `"load"`, ...).
        op: &'static str,
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// Human-readable detail (path, OS message).
        detail: String,
    },
    /// A record loaded from storage failed typed decoding. Distinct from
    /// recovery-time frame corruption, which is silently truncated: a frame
    /// with a *valid* checksum but an undecodable body means the caller is
    /// reading the log with the wrong record type.
    Decode(WireError),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, kind, detail } => {
                write!(f, "storage {op} failed ({kind:?}): {detail}")
            }
            StorageError::Decode(e) => write!(f, "stored record failed to decode: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<WireError> for StorageError {
    fn from(e: WireError) -> Self {
        StorageError::Decode(e)
    }
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Io {
        op,
        kind: e.kind(),
        detail: format!("{}: {e}", path.display()),
    }
}

/// Fsyncs a directory so a just-created, just-renamed, or just-removed
/// entry inside it survives power loss. Opening a directory read-only and
/// calling `sync_all` is the POSIX idiom; platforms that cannot fsync a
/// directory handle surface the error to the caller.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    let handle = File::open(dir).map_err(|e| io_err("dir-sync", dir, &e))?;
    handle.sync_all().map_err(|e| io_err("dir-sync", dir, &e))
}

/// Size/volume accounting for a [`Storage`] backend, feeding the
/// `wal_live_bytes` / `recovery_replay_bytes` observability metrics and the
/// E21 disk-bound gates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Bytes currently held live by the backend (what a restart replays).
    pub live_bytes: u64,
    /// Cumulative bytes ever appended, across compactions (what a restart
    /// would have replayed had the log never been compacted).
    pub appended_bytes: u64,
    /// Number of segment files currently on disk (1 for unsegmented
    /// backends).
    pub segments: u64,
}

/// An ordered, durable log of opaque byte records.
///
/// `append` must make the record durable (to the backend's fault model)
/// before returning; `load` returns every durable record in append order.
pub trait Storage: Send + fmt::Debug {
    /// Appends one record after all existing records.
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError>;

    /// Appends several records as one *group commit*: all records become
    /// durable with a single flush of the backing medium (where the backend
    /// supports it), in the given order, after all existing records. An
    /// empty group is a no-op. The default implementation appends one by
    /// one — correct for any backend, with per-record flush cost.
    ///
    /// Atomicity is **not** promised across the group: a crash mid-group may
    /// leave a durable *prefix* of it (never a torn individual record, and
    /// never a record out of order). Write-ahead callers must therefore
    /// order records so that any prefix is safe — which slot-ordered
    /// `Accepted` records are.
    fn append_group(&mut self, records: &[Vec<u8>]) -> Result<(), StorageError> {
        for record in records {
            self.append(record)?;
        }
        Ok(())
    }

    /// Returns all records in append order.
    fn load(&mut self) -> Result<Vec<Vec<u8>>, StorageError>;

    /// Atomically replaces the whole log with `live` (the records that are
    /// still needed after a snapshot made everything before the horizon
    /// redundant). After a successful return, `load` yields exactly `live`;
    /// a crash mid-compaction must leave either the old log or the new one,
    /// never a mix. Backends that cannot compact return an `Unsupported`
    /// I/O error, and callers must treat that as "keep the full log".
    fn compact_to(&mut self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        let _ = live;
        Err(StorageError::Io {
            op: "compact",
            kind: std::io::ErrorKind::Unsupported,
            detail: "backend does not support compaction".to_owned(),
        })
    }

    /// Current size accounting. Backends that do not track volume return
    /// zeros.
    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }
}

/// In-memory [`Storage`]: survives a simulated process restart (the handle
/// outlives the state machine) but not the host process. Deterministic and
/// infallible — the backend used by `netsim` and `wirenet` chaos campaigns.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    records: Vec<Vec<u8>>,
    appended_bytes: u64,
}

impl MemStorage {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemStorage::default()
    }
}

impl Storage for MemStorage {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.appended_bytes += record.len() as u64;
        self.records.push(record.to_vec());
        Ok(())
    }

    fn load(&mut self) -> Result<Vec<Vec<u8>>, StorageError> {
        Ok(self.records.clone())
    }

    fn compact_to(&mut self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        self.records = live.to_vec();
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_bytes: self.records.iter().map(|r| r.len() as u64).sum(),
            appended_bytes: self.appended_bytes,
            segments: 1,
        }
    }
}

/// Append-only file WAL with CRC-checked, length-prefixed records.
///
/// Every record is wrapped in a [`wire`](crate::wire) frame:
/// `len:u32 LE | version:u8 | body | crc32 LE`, where the body is the
/// record's bytes. On open, the file is scanned from the front and
/// truncated at the first frame that is torn (fewer bytes than the length
/// prefix promises), has an invalid length, fails its checksum, or carries
/// the wrong protocol version — everything from that point on is a casualty
/// of the crash and is discarded, keeping the longest valid prefix.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: File,
    appended_bytes: u64,
}

impl FileWal {
    /// Opens (creating if absent) the WAL at `path` and runs recovery:
    /// truncates any torn or corrupt tail so the file holds only valid
    /// frames. An empty file recovers to an empty log. If the file is
    /// newly created, the parent directory is fsynced so the creation
    /// itself survives power loss.
    pub fn open(path: impl Into<PathBuf>) -> Result<FileWal, StorageError> {
        let path = path.into();
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        if created {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                sync_dir(dir)?;
            }
        }
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| io_err("open", &path, &e))?;
        let (_, valid_end) = scan(&buf);
        if valid_end < buf.len() {
            file.set_len(valid_end as u64)
                .map_err(|e| io_err("open", &path, &e))?;
        }
        file.seek(SeekFrom::Start(valid_end as u64))
            .map_err(|e| io_err("open", &path, &e))?;
        Ok(FileWal {
            path,
            file,
            appended_bytes: valid_end as u64,
        })
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Storage for FileWal {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        let frame = encode_byte_frames(&[record]);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.file
            .flush()
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.appended_bytes += frame.len() as u64;
        Ok(())
    }

    /// Group commit: every frame of the group is encoded into one buffer and
    /// written with a single `write_all`, so the whole group costs one
    /// `write(2)` instead of one per record. (`File::flush` does nothing.)
    /// That survives a process crash but not power loss: nothing on the
    /// append path calls `sync_data` yet. A crash mid-write leaves at most a
    /// torn frame at the tail, which recovery truncates — yielding a durable
    /// prefix of whole records, exactly the [`Storage`] group-commit
    /// contract.
    fn append_group(&mut self, records: &[Vec<u8>]) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let buf = encode_byte_frames(records);
        self.file
            .write_all(&buf)
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.file
            .flush()
            .map_err(|e| io_err("append", &self.path, &e))?;
        self.appended_bytes += buf.len() as u64;
        Ok(())
    }

    fn load(&mut self) -> Result<Vec<Vec<u8>>, StorageError> {
        let end = self
            .file
            .stream_position()
            .map_err(|e| io_err("load", &self.path, &e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("load", &self.path, &e))?;
        let mut buf = Vec::new();
        self.file
            .read_to_end(&mut buf)
            .map_err(|e| io_err("load", &self.path, &e))?;
        self.file
            .seek(SeekFrom::Start(end))
            .map_err(|e| io_err("load", &self.path, &e))?;
        let (records, _) = scan(&buf);
        Ok(records)
    }

    /// Atomic whole-log replacement: the live records are framed into a
    /// sibling temp file, fsynced, renamed over the WAL, and the parent
    /// directory is fsynced — so a crash at any point leaves either the
    /// full old log or the full new one.
    fn compact_to(&mut self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        let tmp = self.path.with_extension("wal.tmp");
        let buf = encode_byte_frames(live);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("compact", &tmp, &e))?;
            f.write_all(&buf).map_err(|e| io_err("compact", &tmp, &e))?;
            f.sync_all().map_err(|e| io_err("compact", &tmp, &e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("compact", &self.path, &e))?;
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            sync_dir(dir)?;
        }
        // Reopen so the handle points at the new inode, positioned at its
        // end for further appends.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("compact", &self.path, &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("compact", &self.path, &e))?;
        self.file = file;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            live_bytes: std::fs::metadata(&self.path).map_or(0, |m| m.len()),
            appended_bytes: self.appended_bytes,
            segments: 1,
        }
    }
}

/// Scans `buf` for consecutive valid frames; returns the decoded records and
/// the byte offset just past the last valid frame (the longest valid
/// prefix). Unlike a network stream — where a bad checksum on one frame is
/// skippable because framing stays synchronised — a WAL is written
/// sequentially, so the first invalid frame marks the crash point and
/// nothing after it can be trusted.
fn scan(buf: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= LEN_PREFIX {
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            break; // length prefix itself corrupt: framing is lost
        }
        if buf.len() - pos - LEN_PREFIX < len {
            break; // torn tail: the final append did not complete
        }
        let payload = &buf[pos + LEN_PREFIX..pos + LEN_PREFIX + len];
        match decode_frame::<Vec<u8>>(payload) {
            Ok(record) => {
                records.push(record);
                pos += LEN_PREFIX + len;
            }
            Err(_) => break, // checksum/version failure: crash point found
        }
    }
    (records, pos)
}

/// Parses `wal-<seq>.seg` back into its sequence number.
fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let body = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    body.parse().ok()
}

/// A multi-file WAL: the same CRC-checked framing as [`FileWal`], split
/// across numbered segment files (`wal-<seq>.seg`) that rotate once the
/// active segment exceeds a byte budget.
///
/// Rotation is what makes compaction cheap and atomic:
/// [`Storage::compact_to`] writes the live tail into a *fresh* segment
/// (tmp → fsync → rename → directory fsync) and then deletes every older
/// segment, so steady-state disk use is bounded by `snapshot + active
/// segments` however long the process has been running. Recovery scans
/// segments in sequence order and truncates at the first torn or corrupt
/// frame — every later segment is a casualty of the crash and is removed.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    segment_budget: u64,
    /// Sequence numbers of the on-disk segments, ascending; the last one is
    /// active.
    seqs: Vec<u64>,
    active: File,
    active_len: u64,
    appended_bytes: u64,
}

impl SegmentedWal {
    /// Opens (creating if absent) a segmented WAL in `dir`, rotating new
    /// segments once the active one exceeds `segment_budget` bytes. Runs
    /// recovery across all segments: the first torn or corrupt frame marks
    /// the crash point; that segment is truncated there and all later
    /// segments are deleted.
    pub fn open(
        dir: impl Into<PathBuf>,
        segment_budget: u64,
    ) -> Result<SegmentedWal, StorageError> {
        let dir = dir.into();
        let created = !dir.exists();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("open", &dir, &e))?;
        if created {
            if let Some(parent) = dir.parent().filter(|d| !d.as_os_str().is_empty()) {
                sync_dir(parent)?;
            }
        }
        let mut seqs: Vec<u64> = std::fs::read_dir(&dir)
            .map_err(|e| io_err("open", &dir, &e))?
            .filter_map(|entry| entry.ok().and_then(|e| segment_seq(&e.path())))
            .collect();
        seqs.sort_unstable();
        // Recovery: scan each segment in order; on the first invalid frame,
        // truncate that segment and drop everything after it.
        let mut crash_at: Option<usize> = None;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = dir.join(format!("wal-{seq:08}.seg"));
            let buf = std::fs::read(&path).map_err(|e| io_err("open", &path, &e))?;
            let (_, valid_end) = scan(&buf);
            if valid_end < buf.len() {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err("open", &path, &e))?;
                f.set_len(valid_end as u64)
                    .map_err(|e| io_err("open", &path, &e))?;
                crash_at = Some(i);
                break;
            }
        }
        if let Some(i) = crash_at {
            for &seq in &seqs[i + 1..] {
                let path = dir.join(format!("wal-{seq:08}.seg"));
                std::fs::remove_file(&path).map_err(|e| io_err("open", &path, &e))?;
            }
            seqs.truncate(i + 1);
        }
        if seqs.is_empty() {
            seqs.push(0);
            let path = dir.join(format!("wal-{:08}.seg", 0));
            File::create(&path).map_err(|e| io_err("open", &path, &e))?;
            sync_dir(&dir)?;
        }
        let active_seq = *seqs.last().expect("at least one segment");
        let active_path = dir.join(format!("wal-{active_seq:08}.seg"));
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&active_path)
            .map_err(|e| io_err("open", &active_path, &e))?;
        let active_len = active
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("open", &active_path, &e))?;
        let appended_bytes = seqs
            .iter()
            .map(|&seq| {
                std::fs::metadata(dir.join(format!("wal-{seq:08}.seg"))).map_or(0, |m| m.len())
            })
            .sum();
        Ok(SegmentedWal {
            dir,
            segment_budget,
            seqs,
            active,
            active_len,
            appended_bytes,
        })
    }

    /// The directory holding the segments.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("wal-{seq:08}.seg"))
    }

    /// Starts a fresh active segment (creation fsynced through the
    /// directory, per the power-loss rule for segment create).
    fn rotate(&mut self) -> Result<(), StorageError> {
        let next = self.seqs.last().copied().unwrap_or(0) + 1;
        let path = self.segment_path(next);
        let file = File::create(&path).map_err(|e| io_err("rotate", &path, &e))?;
        sync_dir(&self.dir)?;
        self.seqs.push(next);
        self.active = file;
        self.active_len = 0;
        Ok(())
    }

    fn write_frames(&mut self, buf: &[u8]) -> Result<(), StorageError> {
        if self.active_len >= self.segment_budget && self.active_len > 0 {
            self.rotate()?;
        }
        let path = self.segment_path(*self.seqs.last().expect("active segment"));
        self.active
            .write_all(buf)
            .map_err(|e| io_err("append", &path, &e))?;
        self.active
            .flush()
            .map_err(|e| io_err("append", &path, &e))?;
        self.active_len += buf.len() as u64;
        self.appended_bytes += buf.len() as u64;
        Ok(())
    }
}

impl Storage for SegmentedWal {
    fn append(&mut self, record: &[u8]) -> Result<(), StorageError> {
        self.write_frames(&encode_byte_frames(&[record]))
    }

    fn append_group(&mut self, records: &[Vec<u8>]) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let buf = encode_byte_frames(records);
        self.write_frames(&buf)
    }

    fn load(&mut self) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut records = Vec::new();
        for &seq in &self.seqs {
            let path = self.segment_path(seq);
            let buf = std::fs::read(&path).map_err(|e| io_err("load", &path, &e))?;
            let (mut segment_records, _) = scan(&buf);
            records.append(&mut segment_records);
        }
        Ok(records)
    }

    /// Writes the live records into a fresh segment via tmp-then-rename
    /// (fsync before and after), then deletes every older segment — the
    /// atomic horizon cut. A crash before the rename keeps the old
    /// segments; a crash after it leaves the new segment plus possibly
    /// some stale older segments, which the *next* compaction or recovery
    /// load will simply replay in front (they contain only records that
    /// are re-covered by the snapshot, making the replay idempotent) —
    /// callers always install the snapshot durably *before* compacting.
    fn compact_to(&mut self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        let next = self.seqs.last().copied().unwrap_or(0) + 1;
        let path = self.segment_path(next);
        let tmp = self.dir.join(format!("wal-{next:08}.seg.tmp"));
        let buf = encode_byte_frames(live);
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("compact", &tmp, &e))?;
            f.write_all(&buf).map_err(|e| io_err("compact", &tmp, &e))?;
            f.sync_all().map_err(|e| io_err("compact", &tmp, &e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err("compact", &path, &e))?;
        sync_dir(&self.dir)?;
        let old = std::mem::replace(&mut self.seqs, vec![next]);
        for seq in old {
            let stale = self.segment_path(seq);
            std::fs::remove_file(&stale).map_err(|e| io_err("compact", &stale, &e))?;
        }
        sync_dir(&self.dir)?;
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("compact", &path, &e))?;
        self.active_len = active
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err("compact", &path, &e))?;
        self.active = active;
        Ok(())
    }

    fn stats(&self) -> StorageStats {
        let live_bytes = self
            .seqs
            .iter()
            .map(|&seq| std::fs::metadata(self.segment_path(seq)).map_or(0, |m| m.len()))
            .sum();
        StorageStats {
            live_bytes,
            appended_bytes: self.appended_bytes,
            segments: self.seqs.len() as u64,
        }
    }
}

/// A durable application-state snapshot: the serialized state after
/// applying every log slot below `watermark`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// First log slot *not* covered by this snapshot: replay resumes here.
    pub watermark: u64,
    /// Opaque serialized application state at the watermark.
    pub data: Vec<u8>,
}

impl Wire for Snapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.watermark.encode(out);
        self.data.encode(out);
    }

    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, WireError> {
        Ok(Snapshot {
            watermark: u64::decode(r)?,
            data: Vec::<u8>::decode(r)?,
        })
    }
}

/// Durable storage for at most one current [`Snapshot`]. `install` must be
/// atomic against crashes: after a crash, `load` returns either the old
/// snapshot or the new one, never a torn mix.
pub trait SnapshotStore: Send + fmt::Debug {
    /// Durably replaces the current snapshot.
    fn install(&mut self, snap: &Snapshot) -> Result<(), StorageError>;

    /// Returns the current snapshot, if any.
    fn load(&mut self) -> Result<Option<Snapshot>, StorageError>;
}

/// In-memory [`SnapshotStore`] — the deterministic backend for `netsim`
/// and `wirenet` campaigns, surviving simulated restarts through the shared
/// handle.
#[derive(Debug, Clone, Default)]
pub struct MemSnapshotStore {
    snap: Option<Snapshot>,
}

impl MemSnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        MemSnapshotStore::default()
    }
}

impl SnapshotStore for MemSnapshotStore {
    fn install(&mut self, snap: &Snapshot) -> Result<(), StorageError> {
        self.snap = Some(snap.clone());
        Ok(())
    }

    fn load(&mut self) -> Result<Option<Snapshot>, StorageError> {
        Ok(self.snap.clone())
    }
}

/// Parses `snap-<watermark>.snap` back into its watermark.
fn snapshot_watermark(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let body = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    body.parse().ok()
}

/// File-backed [`SnapshotStore`]: one directory holding CRC-framed
/// `snap-<watermark>.snap` blobs plus a CRC-framed `MANIFEST` naming the
/// current one.
///
/// Install order makes every crash point recoverable: the blob is written
/// to a temp file, fsynced, renamed, and the directory fsynced *before*
/// the manifest is rewritten the same way; only after the manifest points
/// at the new blob are older blobs deleted. If a crash loses the manifest
/// (or tears it — impossible through rename, but a disk may still corrupt
/// it), `load` falls back to scanning the directory for the
/// highest-watermark blob that passes its checksum.
#[derive(Debug)]
pub struct FileSnapshotStore {
    dir: PathBuf,
}

impl FileSnapshotStore {
    /// Opens (creating if absent) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FileSnapshotStore, StorageError> {
        let dir = dir.into();
        let created = !dir.exists();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("open", &dir, &e))?;
        if created {
            if let Some(parent) = dir.parent().filter(|d| !d.as_os_str().is_empty()) {
                sync_dir(parent)?;
            }
        }
        Ok(FileSnapshotStore { dir })
    }

    /// The directory holding the snapshots.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    /// Writes `bytes` to `path` atomically: temp sibling, fsync, rename,
    /// directory fsync.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("install", &tmp, &e))?;
            f.write_all(bytes)
                .map_err(|e| io_err("install", &tmp, &e))?;
            f.sync_all().map_err(|e| io_err("install", &tmp, &e))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err("install", path, &e))?;
        sync_dir(&self.dir)
    }

    /// Decodes one CRC-framed snapshot blob file; `None` when torn or
    /// corrupt.
    fn read_blob(path: &Path) -> Option<Snapshot> {
        let buf = std::fs::read(path).ok()?;
        let (mut records, _) = scan(&buf);
        if records.len() != 1 {
            return None;
        }
        Snapshot::from_bytes(&records.pop()?).ok()
    }

    /// The manifest's current blob name, if the manifest exists and passes
    /// its checksum.
    fn manifest_target(&self) -> Option<String> {
        let buf = std::fs::read(self.manifest_path()).ok()?;
        let (mut records, _) = scan(&buf);
        if records.len() != 1 {
            return None;
        }
        String::from_utf8(records.pop()?).ok()
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn install(&mut self, snap: &Snapshot) -> Result<(), StorageError> {
        let blob_name = format!("snap-{:020}.snap", snap.watermark);
        let blob_path = self.dir.join(&blob_name);
        self.write_atomic(&blob_path, &encode_byte_frames(&[snap.to_bytes()]))?;
        self.write_atomic(&self.manifest_path(), &encode_byte_frames(&[blob_name]))?;
        // Only now is it safe to drop older blobs: the manifest durably
        // points at the new one. Removal failures are not fatal to the
        // install (the stale blob just lingers until the next install).
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if let Some(w) = snapshot_watermark(&path) {
                    if w != snap.watermark {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        Ok(())
    }

    fn load(&mut self) -> Result<Option<Snapshot>, StorageError> {
        if let Some(name) = self.manifest_target() {
            if let Some(snap) = Self::read_blob(&self.dir.join(name)) {
                return Ok(Some(snap));
            }
        }
        // Manifest missing, stale, or corrupt: fall back to the best blob
        // on disk (highest watermark that passes its checksum). This is
        // the crash window between blob rename and manifest update.
        let mut best: Option<Snapshot> = None;
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if snapshot_watermark(&path).is_some() {
                    if let Some(snap) = Self::read_blob(&path) {
                        if best.as_ref().is_none_or(|b| snap.watermark > b.watermark) {
                            best = Some(snap);
                        }
                    }
                }
            }
        }
        Ok(best)
    }
}

/// A cloneable, thread-safe handle to a [`SnapshotStore`] backend — the
/// snapshot analogue of [`StorageHandle`], kept by the harness across
/// kill/restart.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    inner: Arc<Mutex<dyn SnapshotStore>>,
}

impl SnapshotHandle {
    /// Wraps any [`SnapshotStore`] backend in a shared handle.
    pub fn new(backend: impl SnapshotStore + 'static) -> Self {
        SnapshotHandle {
            inner: Arc::new(Mutex::new(backend)),
        }
    }

    /// A handle over a fresh [`MemSnapshotStore`].
    pub fn in_memory() -> Self {
        SnapshotHandle::new(MemSnapshotStore::new())
    }

    /// A handle over a [`FileSnapshotStore`] in `dir`.
    pub fn file(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        Ok(SnapshotHandle::new(FileSnapshotStore::open(dir)?))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, dyn SnapshotStore + 'static> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Durably replaces the current snapshot.
    pub fn install(&self, snap: &Snapshot) -> Result<(), StorageError> {
        self.lock().install(snap)
    }

    /// Returns the current snapshot, if any.
    pub fn load(&self) -> Result<Option<Snapshot>, StorageError> {
        self.lock().load()
    }
}

/// Wall-clock accounting of a handle's durable appends: how many flushes
/// ran and how long they took. A "flush" here is one [`Storage::append`] or
/// [`Storage::append_group`] call — on the file backends that is exactly
/// one `write_all` into the page cache (no `sync_data`, so not an fsync
/// despite the probe's name); on the in-memory backends it is effectively
/// zero.
///
/// The consensus layer reads the delta around each group commit to emit
/// `WalFsync` probe events, which feed the `wal_fsync_micros` histogram and
/// the watchdog's fsync-spike detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Durable append calls completed (successful or not).
    pub flushes: u64,
    /// Total wall-clock microseconds spent inside those calls.
    pub total_micros: u64,
    /// Duration of the most recent call, in microseconds.
    pub last_micros: u64,
}

/// Shared atomic backing for [`FlushStats`] (lives in the handle's `Arc`,
/// so clones and restarted incarnations accumulate into one account).
#[derive(Debug, Default)]
struct FlushTiming {
    flushes: AtomicU64,
    total_micros: AtomicU64,
    last_micros: AtomicU64,
}

impl FlushTiming {
    fn note(&self, micros: u64) {
        self.flushes.fetch_add(1, AtomicOrdering::Relaxed);
        self.total_micros.fetch_add(micros, AtomicOrdering::Relaxed);
        self.last_micros.store(micros, AtomicOrdering::Relaxed);
    }

    fn snapshot(&self) -> FlushStats {
        FlushStats {
            flushes: self.flushes.load(AtomicOrdering::Relaxed),
            total_micros: self.total_micros.load(AtomicOrdering::Relaxed),
            last_micros: self.last_micros.load(AtomicOrdering::Relaxed),
        }
    }
}

/// A cloneable, thread-safe handle to a [`Storage`] backend.
///
/// The harness creates one handle per process and keeps it across
/// kill/restart; each state-machine incarnation receives a clone and writes
/// through it, so a restarted incarnation reloads exactly what its
/// predecessor persisted.
#[derive(Debug, Clone)]
pub struct StorageHandle {
    inner: Arc<Mutex<dyn Storage>>,
    timing: Arc<FlushTiming>,
}

impl StorageHandle {
    /// Wraps any [`Storage`] backend in a shared handle.
    pub fn new(backend: impl Storage + 'static) -> Self {
        StorageHandle {
            inner: Arc::new(Mutex::new(backend)),
            timing: Arc::new(FlushTiming::default()),
        }
    }

    /// A handle over a fresh [`MemStorage`].
    pub fn in_memory() -> Self {
        StorageHandle::new(MemStorage::new())
    }

    /// A handle over a [`FileWal`] at `path` (recovery runs on open).
    pub fn file_wal(path: impl Into<PathBuf>) -> Result<Self, StorageError> {
        Ok(StorageHandle::new(FileWal::open(path)?))
    }

    /// A handle over a [`SegmentedWal`] in `dir`, rotating at
    /// `segment_budget` bytes (recovery runs on open).
    pub fn segmented_wal(
        dir: impl Into<PathBuf>,
        segment_budget: u64,
    ) -> Result<Self, StorageError> {
        Ok(StorageHandle::new(SegmentedWal::open(dir, segment_budget)?))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, dyn Storage + 'static> {
        // A poisoned mutex means another incarnation panicked mid-append; the
        // backend's own recovery (frame checksums) handles partial state, so
        // continuing is safe.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one opaque record.
    pub fn append(&self, record: &[u8]) -> Result<(), StorageError> {
        let start = std::time::Instant::now();
        let result = self.lock().append(record);
        self.timing.note(start.elapsed().as_micros() as u64);
        result
    }

    /// Returns all records in append order.
    pub fn load(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        self.lock().load()
    }

    /// Appends several opaque records as one group commit (one flush; see
    /// [`Storage::append_group`]).
    pub fn append_group(&self, records: &[Vec<u8>]) -> Result<(), StorageError> {
        if records.is_empty() {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let result = self.lock().append_group(records);
        self.timing.note(start.elapsed().as_micros() as u64);
        result
    }

    /// Appends a typed record, serialised with its [`Wire`] encoding.
    pub fn append_record<R: Wire>(&self, record: &R) -> Result<(), StorageError> {
        self.append(&record.to_bytes())
    }

    /// Appends several typed records as one group commit: serialises each
    /// with its [`Wire`] encoding and makes them all durable with a single
    /// flush ([`Storage::append_group`]).
    pub fn append_records<R: Wire>(&self, records: &[R]) -> Result<(), StorageError> {
        let blobs: Vec<Vec<u8>> = records.iter().map(Wire::to_bytes).collect();
        self.append_group(&blobs)
    }

    /// Loads and decodes all records as type `R`.
    pub fn load_records<R: Wire>(&self) -> Result<Vec<R>, StorageError> {
        self.load()?
            .iter()
            .map(|blob| R::from_bytes(blob).map_err(StorageError::from))
            .collect()
    }

    /// Atomically replaces the whole log with `live` (see
    /// [`Storage::compact_to`]).
    pub fn compact_to(&self, live: &[Vec<u8>]) -> Result<(), StorageError> {
        self.lock().compact_to(live)
    }

    /// Typed form of [`StorageHandle::compact_to`]: serialises each live
    /// record with its [`Wire`] encoding.
    pub fn compact_records<R: Wire>(&self, live: &[R]) -> Result<(), StorageError> {
        let blobs: Vec<Vec<u8>> = live.iter().map(Wire::to_bytes).collect();
        self.compact_to(&blobs)
    }

    /// Current size accounting of the backend (see [`Storage::stats`]).
    pub fn stats(&self) -> StorageStats {
        self.lock().stats()
    }

    /// Cumulative flush-timing account of this handle (shared across
    /// clones; see [`FlushStats`]).
    pub fn flush_stats(&self) -> FlushStats {
        self.timing.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("lls-wal-{}-{tag}-{seq}.wal", std::process::id()))
    }

    struct TempWal {
        path: PathBuf,
    }

    impl TempWal {
        fn new(tag: &str) -> Self {
            TempWal {
                path: temp_path(tag),
            }
        }
    }

    impl Drop for TempWal {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }

    #[test]
    fn mem_storage_round_trips() {
        let store = StorageHandle::in_memory();
        store.append(b"a").unwrap();
        store.append(b"bb").unwrap();
        assert_eq!(store.load().unwrap(), vec![b"a".to_vec(), b"bb".to_vec()]);
    }

    #[test]
    fn handle_is_shared_across_clones() {
        let store = StorageHandle::in_memory();
        let incarnation_one = store.clone();
        incarnation_one.append(b"promise").unwrap();
        drop(incarnation_one); // the process "crashes"
        let incarnation_two = store.clone();
        assert_eq!(incarnation_two.load().unwrap(), vec![b"promise".to_vec()]);
    }

    #[test]
    fn typed_records_round_trip() {
        let store = StorageHandle::in_memory();
        store.append_record(&7u64).unwrap();
        store.append_record(&9u64).unwrap();
        assert_eq!(store.load_records::<u64>().unwrap(), vec![7, 9]);
    }

    #[test]
    fn typed_decode_mismatch_is_an_error() {
        let store = StorageHandle::in_memory();
        store.append_record(&String::from("not a bool")).unwrap();
        assert!(matches!(
            store.load_records::<bool>(),
            Err(StorageError::Decode(_))
        ));
    }

    #[test]
    fn group_append_preserves_order_and_interleaves_with_singles() {
        let store = StorageHandle::in_memory();
        store.append(b"solo").unwrap();
        store
            .append_group(&[b"g1".to_vec(), b"g2".to_vec(), b"g3".to_vec()])
            .unwrap();
        store.append(b"tail").unwrap();
        assert_eq!(
            store.load().unwrap(),
            vec![
                b"solo".to_vec(),
                b"g1".to_vec(),
                b"g2".to_vec(),
                b"g3".to_vec(),
                b"tail".to_vec()
            ]
        );
    }

    #[test]
    fn typed_group_round_trips() {
        let store = StorageHandle::in_memory();
        store.append_records(&[1u64, 2, 3]).unwrap();
        store.append_record(&4u64).unwrap();
        assert_eq!(store.load_records::<u64>().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_group_flush_is_a_noop() {
        let tmp = TempWal::new("empty-group");
        let mut wal = FileWal::open(&tmp.path).unwrap();
        wal.append(b"only").unwrap();
        let len_before = std::fs::metadata(&tmp.path).unwrap().len();
        wal.append_group(&[]).unwrap();
        assert_eq!(
            std::fs::metadata(&tmp.path).unwrap().len(),
            len_before,
            "an empty group must not touch the file"
        );
        assert_eq!(wal.load().unwrap(), vec![b"only".to_vec()]);
    }

    #[test]
    fn file_wal_group_survives_reopen() {
        let tmp = TempWal::new("group");
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append_group(&[b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()])
                .unwrap();
        }
        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(
            wal.load().unwrap(),
            vec![b"a".to_vec(), b"bb".to_vec(), b"ccc".to_vec()]
        );
    }

    #[test]
    fn torn_tail_inside_a_group_recovers_whole_record_prefix() {
        // A crash mid-group-write must never surface a partial record: the
        // torn frame is truncated and every *whole* record before it — from
        // the same group — survives.
        let tmp = TempWal::new("group-torn");
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append_group(&[b"first".to_vec(), b"second".to_vec(), b"third".to_vec()])
                .unwrap();
        }
        // Tear into the middle of the group's final record.
        let len = std::fs::metadata(&tmp.path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&tmp.path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(
            wal.load().unwrap(),
            vec![b"first".to_vec(), b"second".to_vec()],
            "recovery keeps the whole-record prefix of the torn group"
        );
        // The truncated WAL accepts further groups cleanly.
        wal.append_group(&[b"fourth".to_vec()]).unwrap();
        assert_eq!(wal.load().unwrap().len(), 3);
    }

    #[test]
    fn tear_at_group_flush_boundary_loses_only_the_unflushed_group() {
        // Two group commits; the crash wipes exactly the second flush. The
        // first group — one flush, three records — survives in full.
        let tmp = TempWal::new("group-boundary");
        let boundary;
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append_group(&[b"g1a".to_vec(), b"g1b".to_vec(), b"g1c".to_vec()])
                .unwrap();
            boundary = std::fs::metadata(&tmp.path).unwrap().len();
            wal.append_group(&[b"g2a".to_vec(), b"g2b".to_vec()])
                .unwrap();
        }
        let file = OpenOptions::new().write(true).open(&tmp.path).unwrap();
        file.set_len(boundary).unwrap();
        drop(file);

        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(
            wal.load().unwrap(),
            vec![b"g1a".to_vec(), b"g1b".to_vec(), b"g1c".to_vec()]
        );
    }

    #[test]
    fn file_wal_round_trips_across_reopen() {
        let tmp = TempWal::new("roundtrip");
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
        }
        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(wal.load().unwrap(), vec![b"one".to_vec(), b"two".to_vec()]);
        wal.append(b"three").unwrap();
        assert_eq!(wal.load().unwrap().len(), 3);
    }

    #[test]
    fn empty_file_recovers_to_empty_log() {
        let tmp = TempWal::new("empty");
        std::fs::write(&tmp.path, b"").unwrap();
        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(wal.load().unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn truncated_tail_record_recovers_to_valid_prefix() {
        let tmp = TempWal::new("torn");
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
            wal.append(b"third-will-be-torn").unwrap();
        }
        // Tear the final record: chop off its last 3 bytes (simulating a
        // crash mid-append).
        let len = std::fs::metadata(&tmp.path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&tmp.path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(
            wal.load().unwrap(),
            vec![b"first".to_vec(), b"second".to_vec()]
        );
        // Recovery truncated the torn bytes, so a new append lands cleanly.
        wal.append(b"fourth").unwrap();
        drop(wal);
        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(wal.load().unwrap().len(), 3);
    }

    #[test]
    fn corrupted_crc_mid_log_truncates_from_crash_point() {
        let tmp = TempWal::new("crc");
        let second_start;
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append(b"good").unwrap();
            second_start = std::fs::metadata(&tmp.path).unwrap().len();
            wal.append(b"corrupt-me").unwrap();
            wal.append(b"unreachable").unwrap();
        }
        // Flip one byte inside the second record's body: its CRC no longer
        // matches, and everything from there on is untrusted.
        let mut bytes = std::fs::read(&tmp.path).unwrap();
        let flip_at = second_start as usize + LEN_PREFIX + 2;
        bytes[flip_at] ^= 0xff;
        std::fs::write(&tmp.path, &bytes).unwrap();

        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(wal.load().unwrap(), vec![b"good".to_vec()]);
        assert_eq!(
            std::fs::metadata(&tmp.path).unwrap().len(),
            second_start,
            "recovery truncates at the first corrupt frame"
        );
    }

    struct TempDir {
        path: PathBuf,
    }

    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("lls-dir-{}-{tag}-{seq}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir { path }
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    #[test]
    fn mem_storage_compacts_and_tracks_stats() {
        let store = StorageHandle::in_memory();
        store.append(b"aaaa").unwrap();
        store.append(b"bb").unwrap();
        assert_eq!(store.stats().appended_bytes, 6);
        assert_eq!(store.stats().live_bytes, 6);
        store.compact_to(&[b"bb".to_vec()]).unwrap();
        assert_eq!(store.load().unwrap(), vec![b"bb".to_vec()]);
        assert_eq!(store.stats().live_bytes, 2);
        assert_eq!(
            store.stats().appended_bytes,
            6,
            "cumulative volume survives compaction"
        );
    }

    #[test]
    fn file_wal_compaction_is_atomic_and_appendable() {
        let tmp = TempWal::new("compact");
        let mut wal = FileWal::open(&tmp.path).unwrap();
        for i in 0..10u64 {
            wal.append(format!("record-{i}").as_bytes()).unwrap();
        }
        let full = std::fs::metadata(&tmp.path).unwrap().len();
        wal.compact_to(&[b"record-8".to_vec(), b"record-9".to_vec()])
            .unwrap();
        assert!(std::fs::metadata(&tmp.path).unwrap().len() < full);
        wal.append(b"record-10").unwrap();
        drop(wal);
        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(
            wal.load().unwrap(),
            vec![
                b"record-8".to_vec(),
                b"record-9".to_vec(),
                b"record-10".to_vec()
            ]
        );
    }

    /// WAL bytes as earlier builds framed them: one generic `Vec<u8>` frame
    /// per record.
    fn generic_frames(records: &[&[u8]]) -> Vec<u8> {
        records
            .iter()
            .flat_map(|r| crate::wire::encode_frame(&r.to_vec()))
            .collect()
    }

    #[test]
    fn wals_framed_record_by_record_still_open_and_recover() {
        let big = vec![7u8; 3000];
        let old: [&[u8]; 3] = [b"promise", b"", &big];
        let tmp = TempWal::new("generic-frames");
        std::fs::write(&tmp.path, generic_frames(&old)).unwrap();
        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(wal.load().unwrap(), old.map(<[u8]>::to_vec));
        wal.append(b"new").unwrap();
        wal.append_group(&[b"g1".to_vec(), b"g2".to_vec()]).unwrap();
        drop(wal);
        assert_eq!(
            std::fs::read(&tmp.path).unwrap(),
            generic_frames(&[b"promise", b"", &big, b"new", b"g1", b"g2"]),
            "new appends frame byte for byte as before"
        );

        let dir = TempDir::new("generic-frames-seg");
        std::fs::create_dir_all(&dir.path).unwrap();
        std::fs::write(dir.path.join("wal-00000001.seg"), generic_frames(&old)).unwrap();
        let mut wal = SegmentedWal::open(&dir.path, 1 << 20).unwrap();
        assert_eq!(wal.load().unwrap(), old.map(<[u8]>::to_vec));
        wal.append(b"new").unwrap();
        drop(wal);
        let mut wal = SegmentedWal::open(&dir.path, 1 << 20).unwrap();
        assert_eq!(wal.load().unwrap().last().unwrap(), b"new");
    }

    #[test]
    fn segmented_wal_rotates_at_the_byte_budget() {
        let dir = TempDir::new("seg-rotate");
        let mut wal = SegmentedWal::open(&dir.path, 64).unwrap();
        for i in 0..20u64 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        let stats = wal.stats();
        assert!(
            stats.segments > 1,
            "64-byte budget must force rotation: {stats:?}"
        );
        assert_eq!(wal.load().unwrap().len(), 20);
        // Reopen: same records, same segment layout.
        drop(wal);
        let mut wal = SegmentedWal::open(&dir.path, 64).unwrap();
        assert_eq!(wal.load().unwrap().len(), 20);
        assert_eq!(wal.stats().segments, stats.segments);
    }

    #[test]
    fn segmented_wal_compaction_bounds_disk_and_survives_reopen() {
        let dir = TempDir::new("seg-compact");
        let mut wal = SegmentedWal::open(&dir.path, 64).unwrap();
        for i in 0..50u64 {
            wal.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        let before = wal.stats();
        wal.compact_to(&[b"live-1".to_vec(), b"live-2".to_vec()])
            .unwrap();
        let after = wal.stats();
        assert_eq!(after.segments, 1, "compaction leaves one fresh segment");
        assert!(after.live_bytes < before.live_bytes / 5);
        assert_eq!(
            after.appended_bytes, before.appended_bytes,
            "cumulative volume is not reset by compaction"
        );
        wal.append(b"live-3").unwrap();
        drop(wal);
        let mut wal = SegmentedWal::open(&dir.path, 64).unwrap();
        assert_eq!(
            wal.load().unwrap(),
            vec![b"live-1".to_vec(), b"live-2".to_vec(), b"live-3".to_vec()]
        );
    }

    #[test]
    fn segmented_wal_truncates_crash_point_and_drops_later_segments() {
        let dir = TempDir::new("seg-torn");
        {
            let mut wal = SegmentedWal::open(&dir.path, 48).unwrap();
            for i in 0..30u64 {
                wal.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
            assert!(wal.stats().segments >= 3);
        }
        // Corrupt a frame in the *middle* segment: everything from that
        // point on — including whole later segments — is untrusted.
        let mut seqs: Vec<u64> = std::fs::read_dir(&dir.path)
            .unwrap()
            .filter_map(|e| segment_seq(&e.unwrap().path()))
            .collect();
        seqs.sort_unstable();
        let victim = dir.path.join(format!("wal-{:08}.seg", seqs[1]));
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&victim, &bytes).unwrap();

        let mut wal = SegmentedWal::open(&dir.path, 48).unwrap();
        let recovered = wal.load().unwrap();
        assert!(recovered.len() < 30, "the tail after the flip is gone");
        assert!(
            !recovered.is_empty(),
            "the valid prefix before the flip survives"
        );
        for (i, rec) in recovered.iter().enumerate() {
            assert_eq!(rec, format!("record-{i:04}").as_bytes(), "prefix intact");
        }
        assert_eq!(
            wal.stats().segments,
            2,
            "segments after the crash point are deleted"
        );
        // The recovered WAL accepts appends cleanly.
        wal.append(b"fresh").unwrap();
        assert_eq!(wal.load().unwrap().len(), recovered.len() + 1);
    }

    #[test]
    fn snapshot_store_round_trips_and_replaces() {
        let dir = TempDir::new("snap");
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        assert_eq!(store.load().unwrap(), None);
        let first = Snapshot {
            watermark: 10,
            data: b"state@10".to_vec(),
        };
        store.install(&first).unwrap();
        assert_eq!(store.load().unwrap(), Some(first));
        let second = Snapshot {
            watermark: 25,
            data: b"state@25".to_vec(),
        };
        store.install(&second).unwrap();
        // Reopen: only the newest snapshot remains, found via MANIFEST.
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        assert_eq!(store.load().unwrap(), Some(second));
        let blobs = std::fs::read_dir(&dir.path)
            .unwrap()
            .filter(|e| snapshot_watermark(&e.as_ref().unwrap().path()).is_some())
            .count();
        assert_eq!(blobs, 1, "older blobs are deleted after manifest update");
    }

    /// The satellite crash-window case: the blob rename landed but the
    /// manifest update was lost (crash between rename and directory sync).
    /// Recovery must still find the newest valid blob by directory scan.
    #[test]
    fn lost_manifest_falls_back_to_directory_scan() {
        let dir = TempDir::new("snap-lost-manifest");
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        let snap = Snapshot {
            watermark: 42,
            data: b"state@42".to_vec(),
        };
        store.install(&snap).unwrap();
        std::fs::remove_file(dir.path.join("MANIFEST")).unwrap();
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        assert_eq!(store.load().unwrap(), Some(snap));
    }

    /// A corrupt manifest (bad checksum) must not poison recovery: the
    /// directory scan fallback still yields the newest valid blob.
    #[test]
    fn corrupt_manifest_falls_back_to_directory_scan() {
        let dir = TempDir::new("snap-corrupt-manifest");
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        let snap = Snapshot {
            watermark: 7,
            data: b"state@7".to_vec(),
        };
        store.install(&snap).unwrap();
        let manifest = dir.path.join("MANIFEST");
        let mut bytes = std::fs::read(&manifest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&manifest, &bytes).unwrap();
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        assert_eq!(store.load().unwrap(), Some(snap));
    }

    #[test]
    fn corrupt_blob_is_skipped_by_the_fallback() {
        let dir = TempDir::new("snap-corrupt-blob");
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        let good = Snapshot {
            watermark: 5,
            data: b"good".to_vec(),
        };
        store.install(&good).unwrap();
        // A later blob that never completed (torn write before rename
        // would normally prevent this, but defend against byte rot too).
        std::fs::write(dir.path.join("snap-00000000000000000009.snap"), b"junk").unwrap();
        std::fs::remove_file(dir.path.join("MANIFEST")).unwrap();
        let mut store = FileSnapshotStore::open(&dir.path).unwrap();
        assert_eq!(store.load().unwrap(), Some(good));
    }

    #[test]
    fn snapshot_handle_is_shared_across_clones() {
        let handle = SnapshotHandle::in_memory();
        let incarnation_one = handle.clone();
        incarnation_one
            .install(&Snapshot {
                watermark: 3,
                data: b"s".to_vec(),
            })
            .unwrap();
        drop(incarnation_one);
        assert_eq!(handle.load().unwrap().unwrap().watermark, 3);
    }

    #[test]
    fn garbage_length_prefix_truncates() {
        let tmp = TempWal::new("garbage");
        {
            let mut wal = FileWal::open(&tmp.path).unwrap();
            wal.append(b"keep").unwrap();
        }
        // Append garbage that claims an absurd frame length.
        let mut bytes = std::fs::read(&tmp.path).unwrap();
        let keep_len = bytes.len();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"junk");
        std::fs::write(&tmp.path, &bytes).unwrap();

        let mut wal = FileWal::open(&tmp.path).unwrap();
        assert_eq!(wal.load().unwrap(), vec![b"keep".to_vec()]);
        assert_eq!(
            std::fs::metadata(&tmp.path).unwrap().len() as usize,
            keep_len
        );
    }

    #[test]
    fn flush_stats_account_for_durable_appends() {
        let h = StorageHandle::in_memory();
        assert_eq!(h.flush_stats(), FlushStats::default());
        h.append(b"one").unwrap();
        h.append_group(&[b"two".to_vec(), b"three".to_vec()])
            .unwrap();
        h.append_group(&[]).unwrap();
        let fs = h.flush_stats();
        assert_eq!(fs.flushes, 2, "empty groups are not flushes");
        assert!(fs.total_micros >= fs.last_micros);
        // Clones share one account — a restarted incarnation writing
        // through its clone keeps accumulating into the same history.
        let clone = h.clone();
        clone.append(b"four").unwrap();
        assert_eq!(h.flush_stats().flushes, 3);
    }
}
