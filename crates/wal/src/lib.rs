//! `anno-wal`: write-ahead-log durability for the serving layer.
//!
//! The paper's premise is a database that evolves continuously; a serving
//! layer over it is only production-shaped if a process restart does not
//! lose the drained updates. This crate is that durability subsystem: an
//! **append-only, segmented, CRC-framed binary log** of opaque payload
//! records (the serving layer writes one record per coalesced write
//! drain — group commit), plus **checkpoint compaction** (an atomically
//! replaced checkpoint file binds a state blob to a log position and
//! deletes the sealed segments behind it) and **crash recovery** (replay
//! the tail after the checkpoint, tolerating a torn or bit-rotted tail by
//! truncating to the last intact record and reporting the damage instead
//! of failing). Recovery reads the directory with the same walk a
//! replication follower tails it with ([`tail`]): [`Wal::open`] is a
//! fresh [`TailCursor`] that takes the log over at once.
//!
//! The crate is deliberately payload-agnostic — records are `&[u8]` — so
//! the log layer can be tested by crash injection independently of the
//! serving layer's update encoding, and future subsystems (replication by
//! log shipping, shard movement) can reuse it unchanged.
//!
//! # Lifecycle
//!
//! ```
//! use anno_wal::{Wal, WalOptions};
//! let dir = std::env::temp_dir().join(format!("anno-wal-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // First open: nothing to recover.
//! let (mut wal, recovery) = Wal::open(&dir, WalOptions::default()).unwrap();
//! assert!(recovery.checkpoint.is_none() && recovery.tail.is_empty());
//! wal.append(b"drain 1").unwrap();
//! wal.append(b"drain 2").unwrap();
//! wal.checkpoint(b"state after 2 drains").unwrap();
//! wal.append(b"drain 3").unwrap();
//! drop(wal);
//!
//! // Restart: checkpoint blob + only the tail after it.
//! let (_wal, recovery) = Wal::open(&dir, WalOptions::default()).unwrap();
//! assert_eq!(recovery.checkpoint.unwrap().payload, b"state after 2 drains");
//! assert_eq!(recovery.tail, vec![b"drain 3".to_vec()]);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
// The serving threads must not panic: library code returns typed errors,
// and each deliberate panic carries `#[expect(…, reason = "…")]`. A stale
// or reasonless suppression fails the build.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod checkpoint;
pub mod observe;
pub mod record;
pub mod segment;
pub mod sync;
pub mod tail;

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use checkpoint::Checkpoint;
pub use observe::WalObserver;
pub use record::{crc32, ScanDamage};
pub use sync::{CheckpointPolicy, GroupCommitStats, GroupCommitter, SyncPolicy, SyncTicket};
pub use tail::{TailCursor, TailPoll};

use segment::{segment_header, segment_path, SEGMENT_HEADER_BYTES};

/// Anything that can go wrong in the log layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem failure.
    Io(std::io::Error),
    /// On-disk state that must never occur under this crate's own write
    /// protocol (e.g. a torn checkpoint, which is only produced whole).
    Corrupt(String),
    /// Another live `Wal` holds this directory (its lock file names the
    /// owning process).
    Locked(String),
    /// An earlier append failed mid-write, so the file may end in torn
    /// bytes the in-memory position does not account for. The log fences
    /// itself: further appends are refused until a fresh [`Wal::open`]
    /// truncates back to the last intact record.
    Fenced,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            WalError::Locked(msg) => write!(f, "wal locked: {msg}"),
            WalError::Fenced => write!(
                f,
                "wal fenced after a failed write; reopen the directory to recover"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// A position in the log: `(segment, byte offset within that segment)`.
/// Ordered lexicographically, so "everything before position P" is
/// well-defined across segment boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogPosition {
    /// Segment sequence number.
    pub segment: u64,
    /// Byte offset within the segment file (header included).
    pub offset: u64,
}

impl std::fmt::Display for LogPosition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.segment, self.offset)
    }
}

/// Where and why recovery stopped early. Reported, never fatal: the log
/// behind the damage is intact and the damaged bytes are truncated away
/// so appending can resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamagedTail {
    /// Segment in which the damage was found.
    pub segment: u64,
    /// Byte offset of the first damaged byte (= the truncation point).
    pub offset: u64,
    /// Human-readable cause (torn record, CRC mismatch, bad header, …).
    pub reason: String,
}

impl std::fmt::Display for DamagedTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "damaged log tail at {}/{}: {}",
            self.segment, self.offset, self.reason
        )
    }
}

/// Everything [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// The latest checkpoint, if one was ever taken.
    pub checkpoint: Option<Checkpoint>,
    /// Intact record payloads after the checkpoint position, in log order.
    pub tail: Vec<Vec<u8>>,
    /// Damage report if the log did not end cleanly. Records before the
    /// damage are in `tail`; bytes at and after it were truncated.
    pub damaged: Option<DamagedTail>,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Roll to a new segment once the active one exceeds this many bytes.
    /// (A single record larger than the threshold still fits: segments
    /// roll before a write, never mid-record.)
    pub segment_bytes: u64,
    /// When an append becomes durable: fsync inline per append (the
    /// default), never, or batched through a shared [`GroupCommitter`]
    /// ([`SyncPolicy::Grouped`]) that amortizes one fsync per file over
    /// every append landing in the same sync window.
    pub sync: SyncPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 8 * 1024 * 1024,
            sync: SyncPolicy::PerAppend,
        }
    }
}

/// Point-in-time counters of one log's activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub appends: u64,
    /// Framed bytes appended (payload + record headers).
    pub appended_bytes: u64,
    /// `fsync` calls issued for appends and segment seals.
    pub syncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Records between the checkpoint and the end of the log when this
    /// `Wal` took it over: what [`Wal::open`] replayed.
    pub replayed_records: u64,
    /// Damaged tails repaired at open (0 or 1).
    pub damaged_tails: u64,
    /// Live segment files (sealed survivors + the active one).
    pub segments: u64,
    /// Current end-of-log position (next append lands here).
    pub position: LogPosition,
    /// Records that would replay if the process died now: everything
    /// appended (or replayed at open) since the last checkpoint. The
    /// replay-time input to [`CheckpointPolicy::due`].
    pub since_checkpoint_records: u64,
    /// Framed log bytes accumulated since the last checkpoint — the disk
    /// footprint a checkpoint would reclaim.
    pub since_checkpoint_bytes: u64,
    /// Wall time since the last checkpoint (or since open, when none has
    /// been taken by this `Wal` value).
    pub since_checkpoint_age: Duration,
}

/// A pinned checkpoint position from [`Wal::prepare_checkpoint`],
/// consumed by [`Wal::finish_checkpoint`] once the payload is durably
/// written at it. Also snapshots the since-checkpoint accounting at
/// prepare time, so appends racing the payload write are not forgotten.
#[derive(Debug, Clone, Copy)]
pub struct PreparedCheckpoint {
    position: LogPosition,
    records: u64,
    bytes: u64,
}

impl PreparedCheckpoint {
    /// The position the checkpoint payload must be written at
    /// (see [`checkpoint::write_checkpoint`]).
    pub fn position(&self) -> LogPosition {
        self.position
    }
}

/// Name of the per-directory lock file guarding against two live `Wal`s.
pub const LOCK_FILE: &str = "wal.lock";

/// Distinguishes multiple `Wal` instances within one process in the lock
/// file, so a same-pid second open is still refused.
static LOCK_TOKEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Name of the guard file that serialises reclaimers of a stale lock.
const RECLAIM_GUARD: &str = "wal.lock.reclaim";

/// Exclusive ownership of a log directory, released on drop. The lock
/// file records `pid:token`; a lock whose pid provably no longer runs
/// (checked via `/proc`) is reclaimed, so a crashed process never wedges
/// its directory. Where `/proc` does not exist (non-Linux) liveness is
/// unknowable without platform calls, so every existing lock is treated
/// as held — the conservative failure mode (remove `wal.lock` by hand
/// after a crash) rather than the corrupting one (two live writers).
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
    token: String,
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<DirLock, WalError> {
        let path = dir.join(LOCK_FILE);
        let token = format!(
            "{}:{}",
            std::process::id(),
            LOCK_TOKEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        if !create_new(&path, &token)? {
            refuse_if_held(&path)?;
            // Stale lock from a dead process. `remove_file` acts on
            // whatever holds the *name* by then — maybe a faster
            // reclaimer's live lock — so reclaimers take turns on a guard
            // file and judge again under it: while it is held the name can
            // only go from the stale lock to none. Finding the guard taken
            // is losing. (A process killed holding it leaves it behind,
            // refusing reclaims until it is deleted by hand — the
            // conservative failure again.)
            let guard = dir.join(RECLAIM_GUARD);
            let lost = |how: &str| WalError::Locked(format!("{} {how}", path.display()));
            if !create_new(&guard, "")? {
                return Err(lost("is being reclaimed by another opener"));
            }
            let reclaimed = refuse_if_held(&path).and_then(|()| {
                std::fs::remove_file(&path)?;
                if !create_new(&path, &token)? {
                    return Err(lost("went to a first-time opener during the reclaim"));
                }
                Ok(())
            });
            let _ = std::fs::remove_file(&guard);
            reclaimed?;
        }
        Ok(DirLock { path, token })
    }
}

/// Create `path` holding `content`, durably; `false` if the name is taken.
fn create_new(path: &Path, content: &str) -> Result<bool, WalError> {
    match OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(mut file) => {
            file.write_all(content.as_bytes())?;
            file.sync_data()?;
            Ok(true)
        }
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e.into()),
    }
}

/// `Err(Locked)` unless the lock file at `path` names an owner that
/// provably no longer runs.
fn refuse_if_held(path: &Path) -> Result<(), WalError> {
    let held = std::fs::read_to_string(path).unwrap_or_default();
    let holder_alive = match held
        .split(':')
        .next()
        .and_then(|pid| pid.parse::<u32>().ok())
    {
        // No /proc → liveness unknowable → assume held.
        Some(pid) if Path::new("/proc").exists() => Path::new(&format!("/proc/{pid}")).exists(),
        Some(_) => true,
        // Unparseable lock content: someone else's mid-write moment, or
        // junk; don't steal it.
        None => true,
    };
    if !holder_alive {
        return Ok(());
    }
    Err(WalError::Locked(format!(
        "{} is held by a live owner ({held:?}); two logs must not share a directory",
        path.display()
    )))
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Only remove a lock that is still ours — never a successor's
        // (possible if ours was wrongly reclaimed as stale).
        if std::fs::read_to_string(&self.path).is_ok_and(|content| content == self.token) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// An open write-ahead log rooted at one directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    seq: u64,
    offset: u64,
    live_segments: u64,
    appends: u64,
    appended_bytes: u64,
    syncs: u64,
    checkpoints: u64,
    replayed_records: u64,
    damaged_tails: u64,
    /// Records accumulated past the last checkpoint (seeded with the
    /// replayed tail at open — that *is* the outstanding replay burden).
    since_ckpt_records: u64,
    /// Framed bytes accumulated past the last checkpoint.
    since_ckpt_bytes: u64,
    /// When the last checkpoint finished (open time when none has).
    last_checkpoint: Instant,
    /// Process-unique id distinguishing this log's files inside a shared
    /// [`GroupCommitter`].
    log_id: u64,
    /// Set when a failed append may have left torn bytes past `offset`
    /// that could not be truncated away; all further writes are refused.
    poisoned: bool,
    /// Telemetry hook for fsync latency (see [`observe`]).
    observer: observe::ObserverSlot,
    /// Held for the life of the `Wal`; dropping releases the directory.
    _lock: DirLock,
}

impl Wal {
    /// Open (creating if absent) the log at `dir` and recover its state:
    /// the latest checkpoint, the intact record tail after it, and a
    /// damage report if the tail was torn or corrupted. Damaged bytes are
    /// truncated (and any segments after the damage deleted) so that the
    /// returned `Wal` appends strictly after the recovered prefix.
    ///
    /// This is [`Wal::take_over`] by a cursor that has read nothing yet.
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> Result<(Wal, Recovery), WalError> {
        let (wal, poll, damaged) = Wal::take_over(&mut TailCursor::new(dir), opts)?;
        let recovery = Recovery {
            checkpoint: poll.restart,
            tail: poll.records,
            damaged,
        };
        Ok((wal, recovery))
    }

    /// Turn a reader of the log into its writer: take the directory lock
    /// (the fence — nothing can append after the poll that follows), poll
    /// `cursor` to the end of the intact prefix, repair whatever lies
    /// past it, and open the log for append where the cursor stands.
    ///
    /// The returned [`TailPoll`] is what the caller has not seen yet: the
    /// suffix past the cursor, preceded by the on-disk checkpoint unless
    /// it is the one the cursor last restarted from. Bytes and segments
    /// past the cursor — under the lock they cannot be a write still in
    /// flight — are removed and reported as the [`DamagedTail`].
    ///
    /// On `Err` the lock is released again. A caller that may yet reject
    /// what the take-over returns — and then wants its cursor where it
    /// was — passes a clone.
    pub fn take_over(
        cursor: &mut TailCursor,
        opts: WalOptions,
    ) -> Result<(Wal, TailPoll, Option<DamagedTail>), WalError> {
        let dir = cursor.dir.clone();
        std::fs::create_dir_all(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        checkpoint::remove_stale_tmp(&dir);
        // `keep`: the cursor's own segment stays the active one.
        let (poll, keep, mut damaged) = cursor.walk(true)?;
        let pos = cursor.position();
        let (replayed_records, replayed_bytes) = cursor.since_restart;
        if !keep && replayed_records > 0 {
            // Retiring the file would drop records the caller already
            // holds from the log it is about to append to.
            return Err(WalError::Corrupt(format!(
                "segment {} no longer holds the {} bytes replayed from it",
                pos.segment, pos.offset
            )));
        }
        let seqs = segment::list_segments(&dir)?;
        // Highest sequence number ever observed — fresh segments created
        // after damage must not reuse a deleted segment's number, or a
        // stale checkpoint position could outrank live records.
        let max_seen = pos.segment.max(seqs.last().copied().unwrap_or(0));
        let chain_start = cursor.adopted.map_or(0, |ck| ck.segment);
        for &seq in &seqs {
            // Compacted leftovers strictly behind the checkpoint: a crash
            // between the checkpoint rename and the segment deletions
            // leaves them around; finish the job now.
            let behind = seq < chain_start;
            // Everything past the intact prefix would break prefix
            // semantics if a later open replayed it.
            let past = seq > pos.segment || (seq == pos.segment && !keep);
            if behind || past {
                std::fs::remove_file(segment_path(&dir, seq))?;
            }
            if past && damaged.is_none() {
                let missing = pos.segment + u64::from(keep);
                damaged = Some(DamagedTail {
                    segment: missing,
                    offset: SEGMENT_HEADER_BYTES,
                    reason: format!("segment {missing} missing (next on disk is {seq})"),
                });
            }
        }

        let (seq, offset, file) = if keep {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(segment_path(&dir, pos.segment))?;
            if file.metadata()?.len() > pos.offset {
                // Truncate the damage away; this segment stays active.
                file.set_len(pos.offset)?;
                file.sync_data()?;
            }
            file.seek(SeekFrom::Start(pos.offset))?;
            (pos.segment, pos.offset, file)
        } else {
            // Fresh log, or the cursor's segment was retired unread. With
            // a checkpoint, recreate its own segment number: checkpoint
            // positions always point at a fresh segment's header
            // (checkpoint seals-and-rolls first), so an empty recreated
            // segment lines up exactly with the replay start — a higher
            // number would read as a gap (lost records) on the next open.
            // Without one, the next open derives its start from the first
            // file present, so any unused number works; take one past the
            // highest ever seen.
            let seq = if damaged.is_some() && cursor.adopted.is_none() {
                max_seen + 1
            } else {
                pos.segment
            };
            let file = create_segment(&dir, seq, 0)?;
            (seq, SEGMENT_HEADER_BYTES, file)
        };
        checkpoint::sync_dir(&dir);

        let live_segments = segment::list_segments(&dir)?.len() as u64;
        let wal = Wal {
            dir,
            opts,
            file,
            seq,
            offset,
            live_segments,
            appends: 0,
            appended_bytes: 0,
            syncs: 0,
            checkpoints: 0,
            replayed_records,
            damaged_tails: u64::from(damaged.is_some()),
            since_ckpt_records: replayed_records,
            since_ckpt_bytes: replayed_bytes,
            last_checkpoint: Instant::now(),
            log_id: sync::next_log_id(),
            poisoned: false,
            observer: observe::ObserverSlot::default(),
            _lock: lock,
        };
        Ok((wal, poll, damaged))
    }

    /// The position the next append will land at.
    pub fn position(&self) -> LogPosition {
        LogPosition {
            segment: self.seq,
            offset: self.offset,
        }
    }

    /// Append one record (a serving-layer drain), blocking until it is
    /// durable under the configured [`SyncPolicy`] (a grouped append
    /// waits for its sync window here). Returns the end-of-log position
    /// after the record: once this returns, the record is recovered by
    /// every future [`Wal::open`] (absent tail damage at exactly these
    /// bytes, or a [`SyncPolicy::Never`] log losing its page cache).
    pub fn append(&mut self, payload: &[u8]) -> Result<LogPosition, WalError> {
        let (pos, ticket) = self.append_async(payload)?;
        if let Some(ticket) = ticket {
            ticket.wait()?;
        }
        Ok(pos)
    }

    /// Append one record as a single buffered write, flushed before
    /// returning, with durability acknowledged per the [`SyncPolicy`]:
    ///
    /// * `PerAppend` — synced inline; the returned ticket is `None`.
    /// * `Never` — no sync; the ticket is `None`.
    /// * `Grouped` — the append is submitted to the shared committer and
    ///   the returned [`SyncTicket`] completes when its sync window does.
    ///   The caller may keep appending (pipelined group commit) and ack
    ///   its own clients only when the ticket resolves; tickets complete
    ///   in append order.
    pub fn append_async(
        &mut self,
        payload: &[u8],
    ) -> Result<(LogPosition, Option<SyncTicket>), WalError> {
        if self.poisoned {
            return Err(WalError::Fenced);
        }
        let frame = record::frame(payload);
        if self.offset > SEGMENT_HEADER_BYTES
            && self.offset + frame.len() as u64 > self.opts.segment_bytes
        {
            // Roll failure leaves the old segment active and the cursor
            // untouched (roll is transactional), so it needs no fencing.
            self.roll()?;
        }
        let policy = self.opts.sync.clone();
        let mut wrote: Result<Option<SyncTicket>, std::io::Error> =
            self.file.write_all(&frame).map(|()| None);
        if wrote.is_ok() {
            match policy {
                SyncPolicy::Never => {}
                SyncPolicy::PerAppend => match self.sync_active() {
                    Ok(()) => self.syncs += 1,
                    Err(e) => wrote = Err(e),
                },
                SyncPolicy::Grouped(committer) => match self.file.try_clone() {
                    Ok(handle) => {
                        wrote = Ok(Some(committer.submit((self.log_id, self.seq), handle)));
                    }
                    // A failed handle clone must not weaken durability:
                    // fall back to an inline sync.
                    Err(_) => match self.sync_active() {
                        Ok(()) => self.syncs += 1,
                        Err(e) => wrote = Err(e),
                    },
                },
            }
        }
        let ticket = match wrote {
            Ok(ticket) => ticket,
            Err(e) => {
                // The file may now end in torn bytes past `offset` (or in
                // a full frame whose durability is unknown). Cut it back
                // so the next append cannot build on a frame recovery
                // would discard; if even that fails, fence the log — only
                // a fresh open's scan-and-truncate can re-establish the
                // invariant.
                let restored = self
                    .file
                    .set_len(self.offset)
                    .and_then(|()| self.file.seek(SeekFrom::Start(self.offset)).map(|_| ()));
                if restored.is_err() {
                    self.poisoned = true;
                }
                return Err(e.into());
            }
        };
        self.offset += frame.len() as u64;
        self.appends += 1;
        self.appended_bytes += frame.len() as u64;
        self.since_ckpt_records += 1;
        self.since_ckpt_bytes += frame.len() as u64;
        Ok((self.position(), ticket))
    }

    /// Take a checkpoint: seal the active segment, durably record
    /// `payload` at the current end-of-log position, then delete every
    /// sealed segment behind it. After this returns, recovery restores
    /// `payload` and replays only records appended after this call —
    /// log size is once again proportional to the post-checkpoint delta.
    ///
    /// This convenience form holds the `&mut Wal` across the payload
    /// write. When the payload is large and appenders must not wait, use
    /// the split form: [`Wal::prepare_checkpoint`] (cheap, under
    /// whatever lock serializes state capture), then
    /// [`checkpoint::write_checkpoint`] at the prepared position with no
    /// `Wal` lock held at all, then [`Wal::finish_checkpoint`].
    pub fn checkpoint(&mut self, payload: &[u8]) -> Result<LogPosition, WalError> {
        let prepared = self.prepare_checkpoint()?;
        checkpoint::write_checkpoint(&self.dir, prepared.position, payload)?;
        self.finish_checkpoint(&prepared);
        Ok(prepared.position)
    }

    /// Phase 1 of a split checkpoint: seal and roll the active segment
    /// (bounded cost — one fsync plus a file create, never proportional
    /// to state size) and pin the position the checkpoint payload must be
    /// written at. Records appended after this call land strictly after
    /// the pinned position and will replay on top of the checkpoint.
    pub fn prepare_checkpoint(&mut self) -> Result<PreparedCheckpoint, WalError> {
        if self.poisoned {
            return Err(WalError::Fenced);
        }
        if self.offset > SEGMENT_HEADER_BYTES {
            self.roll()?;
        }
        Ok(PreparedCheckpoint {
            position: self.position(),
            records: self.since_ckpt_records,
            bytes: self.since_ckpt_bytes,
        })
    }

    /// Phase 3 of a split checkpoint, after
    /// [`checkpoint::write_checkpoint`] has durably bound the payload to
    /// the prepared position: compact the sealed segments behind it and
    /// reset the since-checkpoint accounting (appends that raced the
    /// payload write stay counted — they are past the pinned position).
    ///
    /// Compaction is best-effort once the checkpoint is durable: a
    /// straggler segment left by a failed delete is cleaned up by the
    /// next open, and must not fail an already-successful checkpoint.
    pub fn finish_checkpoint(&mut self, prepared: &PreparedCheckpoint) {
        self.checkpoints += 1;
        self.since_ckpt_records = self.since_ckpt_records.saturating_sub(prepared.records);
        self.since_ckpt_bytes = self.since_ckpt_bytes.saturating_sub(prepared.bytes);
        self.last_checkpoint = Instant::now();
        for seq in segment::list_segments(&self.dir).unwrap_or_default() {
            if seq < prepared.position.segment
                && std::fs::remove_file(segment_path(&self.dir, seq)).is_ok()
            {
                self.live_segments = self.live_segments.saturating_sub(1);
            }
        }
        checkpoint::sync_dir(&self.dir);
    }

    /// Counters since open, plus the current position.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends,
            appended_bytes: self.appended_bytes,
            syncs: self.syncs,
            checkpoints: self.checkpoints,
            replayed_records: self.replayed_records,
            damaged_tails: self.damaged_tails,
            segments: self.live_segments,
            position: self.position(),
            since_checkpoint_records: self.since_ckpt_records,
            since_checkpoint_bytes: self.since_ckpt_bytes,
            since_checkpoint_age: self.last_checkpoint.elapsed(),
        }
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options this log was opened with (segment size, sync policy).
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// Install an observer that hears about this log's fsyncs (grouped
    /// appends report through the shared committer's observer instead —
    /// see [`GroupCommitter::set_observer`]).
    pub fn set_observer(&mut self, observer: std::sync::Arc<dyn WalObserver>) {
        self.observer.install(observer);
    }

    /// `sync_data` the active segment, reporting the latency to the
    /// observer whether or not the sync succeeded (a slow failure is
    /// still a latency the operator wants to see).
    fn sync_active(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let out = self.file.sync_data();
        self.observer
            .fsync(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }

    /// Seal the active segment and open the next one. Transactional: on
    /// any error the old segment stays active with its cursor unmoved, so
    /// callers can simply propagate.
    fn roll(&mut self) -> Result<(), WalError> {
        // Seal the full segment durably before any record lands in the
        // next one, so recovery never sees segment N+1 outlive bytes of N.
        self.sync_active()?;
        self.syncs += 1;
        let file = create_segment(&self.dir, self.seq + 1, self.offset)?;
        self.seq += 1;
        self.file = file;
        self.offset = SEGMENT_HEADER_BYTES;
        self.live_segments += 1;
        Ok(())
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // Appends are already flushed per call; this is belt-and-braces
        // for the unsynced mode.
        let _ = self.file.sync_data();
    }
}

fn create_segment(dir: &Path, seq: u64, prev_len: u64) -> Result<File, WalError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(segment_path(dir, seq))?;
    file.write_all(&segment_header(seq, prev_len))?;
    file.sync_data()?;
    checkpoint::sync_dir(dir);
    Ok(file)
}

#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anno-wal-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            sync: SyncPolicy::Never,
        }
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

    #[test]
    fn append_reopen_replays_everything() {
        let dir = test_dir("roundtrip");
        let committed = payloads(10);
        {
            let (mut wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
            assert!(rec.checkpoint.is_none() && rec.tail.is_empty() && rec.damaged.is_none());
            let mut last = wal.position();
            for p in &committed {
                let pos = wal.append(p).unwrap();
                assert!(pos > last, "positions are strictly monotone");
                last = pos;
            }
            assert_eq!(wal.stats().appends, 10);
        }
        let (wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.tail, committed);
        assert!(rec.damaged.is_none());
        assert_eq!(wal.stats().replayed_records, 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_and_replay_across_files() {
        let dir = test_dir("rolling");
        let committed = payloads(50);
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for p in &committed {
                wal.append(p).unwrap();
            }
            assert!(wal.stats().segments > 1, "tiny threshold must roll");
        }
        let (_, rec) = Wal::open(&dir, opts(64)).unwrap();
        assert_eq!(rec.tail, committed);
        assert!(rec.damaged.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_bounds_replay() {
        let dir = test_dir("compact");
        let committed = payloads(30);
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for p in &committed[..20] {
                wal.append(p).unwrap();
            }
            let before = segment::list_segments(&dir).unwrap().len();
            assert!(before > 1);
            wal.checkpoint(b"state@20").unwrap();
            assert_eq!(
                segment::list_segments(&dir).unwrap().len(),
                1,
                "all sealed segments behind the checkpoint are deleted"
            );
            for p in &committed[20..] {
                wal.append(p).unwrap();
            }
        }
        let (_, rec) = Wal::open(&dir, opts(64)).unwrap();
        assert_eq!(rec.checkpoint.unwrap().payload, b"state@20");
        assert_eq!(rec.tail, committed[20..].to_vec(), "only the tail replays");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_checkpoint_then_reopen() {
        let dir = test_dir("ckpt-empty");
        {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.checkpoint(b"empty state").unwrap();
            // Checkpoint on a record-free log must not roll or leave junk.
            wal.checkpoint(b"still empty").unwrap();
        }
        let (_, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.checkpoint.unwrap().payload, b"still empty");
        assert!(rec.tail.is_empty() && rec.damaged.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_prefix_and_appends_resume() {
        let dir = test_dir("torn");
        let committed = payloads(5);
        {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            for p in &committed {
                wal.append(p).unwrap();
            }
        }
        // Tear 3 bytes off the active segment: the last record is torn.
        let seqs = segment::list_segments(&dir).unwrap();
        let path = segment_path(&dir, *seqs.last().unwrap());
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let (mut wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.tail, committed[..4].to_vec());
        let damage = rec.damaged.expect("tear must be reported");
        assert!(damage.reason.contains("torn"), "{damage}");
        assert_eq!(wal.stats().damaged_tails, 1);

        // The damaged bytes are gone: appending and reopening is clean.
        wal.append(b"after-damage").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        let mut expect = committed[..4].to_vec();
        expect.push(b"after-damage".to_vec());
        assert_eq!(rec.tail, expect);
        assert!(rec.damaged.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_middle_segment_drops_later_segments_too() {
        let dir = test_dir("mid-damage");
        let committed = payloads(50);
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for p in &committed {
                wal.append(p).unwrap();
            }
        }
        let seqs = segment::list_segments(&dir).unwrap();
        assert!(seqs.len() >= 3, "need a middle segment to damage");
        let victim = seqs[1];
        // Flip a byte in the middle segment's first record.
        let path = segment_path(&dir, victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = SEGMENT_HEADER_BYTES as usize + 9;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (mut wal, rec) = Wal::open(&dir, opts(64)).unwrap();
        let damage = rec.damaged.expect("flip must be reported");
        assert_eq!(damage.segment, victim);
        assert!(
            committed.starts_with(&rec.tail),
            "recovered records are an exact prefix"
        );
        assert!(
            segment::list_segments(&dir).unwrap().len() <= 2,
            "segments after the damage are deleted"
        );
        // New appends land strictly after the recovered prefix.
        wal.append(b"resume").unwrap();
        drop(wal);
        let (_, rec2) = Wal::open(&dir, opts(64)).unwrap();
        assert_eq!(rec2.tail.last().unwrap(), b"resume");
        assert!(rec2.damaged.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_directories_cannot_be_double_opened() {
        let dir = test_dir("lock");
        let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
        // A second open — same process, same pid — must be refused: two
        // writers on one segment file would interleave frames.
        assert!(matches!(
            Wal::open(&dir, opts(1 << 20)),
            Err(WalError::Locked(_))
        ));
        drop(wal);
        // Released on drop: reopening now succeeds.
        let (_wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_locks_from_dead_processes_are_reclaimed() {
        if !Path::new("/proc").exists() {
            // Without /proc, liveness is unknowable and locks are
            // conservatively treated as held; nothing to reclaim here.
            return;
        }
        let dir = test_dir("stale-lock");
        {
            let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(b"pre-crash").unwrap();
        }
        // Fake a crashed owner: a lock file naming a pid that cannot be
        // running (pid_max is far below u32::MAX).
        std::fs::write(dir.join(LOCK_FILE), format!("{}:0", u32::MAX)).unwrap();
        let (_wal, rec) = Wal::open(&dir, opts(1 << 20)).expect("stale lock reclaimed");
        assert_eq!(rec.tail, vec![b"pre-crash".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn take_over_by_a_parked_cursor_returns_only_the_suffix_and_repairs_past_it() {
        let dir = test_dir("takeover-suffix");
        let committed = payloads(12);
        let mut cursor = TailCursor::new(&dir);
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for p in &committed[..7] {
                wal.append(p).unwrap();
            }
            assert_eq!(cursor.poll().unwrap().records, committed[..7].to_vec());
            for p in &committed[7..] {
                wal.append(p).unwrap();
            }
        }
        // The leader died mid-append: the last record is torn.
        let seqs = segment::list_segments(&dir).unwrap();
        let path = segment_path(&dir, *seqs.last().unwrap());
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();

        let (mut wal, poll, damaged) = Wal::take_over(&mut cursor, opts(64)).unwrap();
        assert!(poll.restart.is_none());
        assert_eq!(poll.records, committed[7..11].to_vec(), "only the suffix");
        let damage = damaged.expect("the tear past the cursor must be reported");
        assert!(damage.reason.contains("torn"), "{damage}");
        assert_eq!(wal.position(), cursor.position());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            cursor.position().offset
        );
        // What a restart would replay counts from the start of the log,
        // not from where this cursor happened to be parked.
        assert_eq!(wal.stats().replayed_records, 11);
        assert_eq!(wal.stats().since_checkpoint_records, 11);

        wal.append(b"resume").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, opts(64)).unwrap();
        let mut expect = committed[..11].to_vec();
        expect.push(b"resume".to_vec());
        assert_eq!(rec.tail, expect);
        assert!(rec.damaged.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_or_discarded_take_over_leaves_the_callers_cursor_alone() {
        let dir = test_dir("takeover-backout");
        let (mut leader, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
        for p in payloads(5) {
            leader.append(&p).unwrap();
        }
        let mut cursor = TailCursor::new(&dir);
        assert_eq!(cursor.poll().unwrap().records.len(), 5);
        leader.append(b"not polled yet").unwrap();
        let seen = |c: &TailCursor| (c.position(), c.records_read(), c.restarts());
        let before = seen(&cursor);

        // Refused by a live lock: the fence comes before the walk.
        let refused = Wal::take_over(&mut cursor, opts(1 << 20));
        assert!(matches!(refused, Err(WalError::Locked(_))), "{refused:?}");
        assert_eq!(seen(&cursor), before);

        // The leader dies leaving a checkpoint the caller will turn out
        // unable to restore. The take-over itself succeeds — on a clone,
        // which the caller drops together with the `Wal`.
        leader
            .checkpoint(b"a payload the caller cannot decode")
            .unwrap();
        drop(leader);
        let mut attempt = cursor.clone();
        let (wal, poll, _) = Wal::take_over(&mut attempt, opts(1 << 20)).unwrap();
        assert!(poll.restart.is_some() && attempt.restarts() == 1);
        drop(wal);
        assert_eq!(seen(&cursor), before);

        // The lock went with the `Wal`, and the cursor that was left
        // alone finds the same thing a second time.
        let (_wal, again, _) = Wal::take_over(&mut cursor.clone(), opts(1 << 20)).unwrap();
        assert_eq!(again.restart, poll.restart);
        assert_eq!(again.records, poll.records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_segment_after_total_loss_never_reuses_numbers() {
        let dir = test_dir("total-loss");
        {
            let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for p in payloads(40) {
                wal.append(&p).unwrap();
            }
        }
        // Corrupt the header of the *first* segment: nothing survives.
        let seqs = segment::list_segments(&dir).unwrap();
        let max = *seqs.last().unwrap();
        let path = segment_path(&dir, seqs[0]);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let (wal, rec) = Wal::open(&dir, opts(64)).unwrap();
        assert!(rec.tail.is_empty());
        assert!(rec.damaged.is_some());
        assert!(
            wal.position().segment > max,
            "fresh segment must not reuse a retired number"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
