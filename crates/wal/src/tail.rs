//! The log walk: the one piece of code that reads a log directory.
//!
//! A [`TailCursor`] walks a log directory **without taking the directory
//! lock** and without ever writing. Each [`TailCursor::poll`] returns the
//! cleanly framed records that appeared past the cursor since the last
//! poll, in log order, plus the watermarks a replication-lag gauge needs.
//! A follower polls a live leader's directory (or a streamed copy of one)
//! this way; recovery is the same walk run once under the lock
//! ([`Wal::take_over`](crate::Wal::take_over), which
//! [`Wal::open`](crate::Wal::open) runs on a fresh cursor). So a follower
//! and a recovery of the same bytes cannot disagree about the prefix:
//! there is no second reader to disagree with.
//!
//! The cursor tolerates everything a concurrently appending leader can
//! legitimately do to the directory:
//!
//! * **In-flight appends.** The highest segment grows under the reader;
//!   only whole CRC-valid frames are consumed. A torn frame at the tip is
//!   "not yet written", never an error — the next poll re-reads from the
//!   same offset.
//! * **Segment rolls.** The cursor advances into segment `N+1` only once
//!   `N+1`'s header exists *and* records exactly the sealed length of `N`
//!   the cursor has consumed, so a sealed segment that lost a
//!   whole-record tail stops the cursor instead of replaying past a gap.
//! * **Checkpoint compaction.** When the leader checkpoints past the
//!   cursor, the sealed segments behind the checkpoint are deleted and
//!   the bytes the cursor still needed are gone. The poll reports the new
//!   [`Checkpoint`] in [`TailPoll::restart`]: the follower rebuilds its
//!   state from the payload and the cursor resumes at the checkpoint
//!   position.
//!
//! Real damage (a CRC mismatch mid-log, a chain break) is
//! indistinguishable *from this side* from a leader that has simply not
//! finished writing — so the cursor never fails on it; it stops at the
//! last intact prefix and stays there. A take-over resolves the
//! ambiguity: under the lock nothing is still being written, so whatever
//! the walk refused is damage, and is truncated and reported.
//!
//! A poll costs what is new, not what is there: the checkpoint's header
//! (its payload only on a restart), the cursor's segment from its header
//! to the bytes past the cursor, and a successor's header.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::checkpoint::{self, Checkpoint};
use crate::record;
use crate::segment::{self, segment_path, SEGMENT_HEADER_BYTES};
use crate::{DamagedTail, LogPosition, WalError};

/// What one [`TailCursor::poll`] found.
#[derive(Debug, Clone)]
pub struct TailPoll {
    /// Set when the cursor (re)started from a checkpoint: on the first
    /// poll of a checkpointed log, or after the leader compacted the
    /// segments the cursor still needed. The follower must rebuild its
    /// state from this payload **before** applying `records`, which
    /// resume at the checkpoint position.
    pub restart: Option<Checkpoint>,
    /// Cleanly framed record payloads past the cursor, in log order.
    pub records: Vec<Vec<u8>>,
    /// End-of-log position on disk at poll time (start of the highest
    /// segment's first unwritten byte). Equals [`TailCursor::position`]
    /// when the follower is caught up.
    pub leader_position: LogPosition,
    /// On-disk log bytes past the cursor after this poll: the lag a
    /// follower would report. Includes bytes of any torn or damaged tail
    /// the cursor refuses to consume.
    pub bytes_behind: u64,
}

/// A read-only cursor over a log directory owned by someone else. See the
/// module docs for the tolerance contract.
#[derive(Debug, Clone)]
pub struct TailCursor {
    pub(crate) dir: PathBuf,
    /// Next byte to consume; `None` until the first poll picks a start.
    pos: Option<LogPosition>,
    records_read: u64,
    restarts: u64,
    /// Position of the checkpoint the cursor last restarted from.
    pub(crate) adopted: Option<LogPosition>,
    /// Records and framed bytes delivered since that restart (since the
    /// start of the log when there was none): what a restart of the
    /// process would have to replay.
    pub(crate) since_restart: (u64, u64),
}

impl TailCursor {
    /// A cursor at the logical start of the log in `dir`. The directory
    /// may be empty or not yet exist — polls report no records until a
    /// leader populates it.
    pub fn new(dir: impl AsRef<Path>) -> TailCursor {
        TailCursor {
            dir: dir.as_ref().to_path_buf(),
            pos: None,
            records_read: 0,
            restarts: 0,
            adopted: None,
            since_restart: (0, 0),
        }
    }

    /// The position of the next record the cursor would consume (the
    /// follower's applied watermark once it has applied every record
    /// returned so far). Zero until the first poll.
    pub fn position(&self) -> LogPosition {
        self.pos.unwrap_or_default()
    }

    /// Records ever returned across all polls (post-restart records only
    /// — a restart's checkpoint payload subsumes the ones before it).
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Checkpoint restarts performed (first-poll adoption included).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Read everything new past the cursor. Errors are real I/O failures
    /// or a corrupt checkpoint file; a mid-write leader never causes one.
    pub fn poll(&mut self) -> Result<TailPoll, WalError> {
        self.walk(false).map(|(poll, ..)| poll)
    }

    /// The walk behind [`TailCursor::poll`], also reporting where it
    /// stopped, for a take-over's repair to act on: whether the cursor's
    /// own segment is there and intact up to the cursor (`false`: missing,
    /// unreadable header, or shorter than the cursor), and what the walk
    /// refused to go past, if it did not simply run out of log. `fenced`
    /// says the caller holds the directory lock, which changes one
    /// decision — see the restart rule below.
    pub(crate) fn walk(
        &mut self,
        fenced: bool,
    ) -> Result<(TailPoll, bool, Option<DamagedTail>), WalError> {
        // On a working copy, so an I/O error half-way leaves the cursor
        // where it was and the next poll finds the same things again.
        let mut cur = self.clone();
        let on_disk = checkpoint::read_position(&cur.dir)?;
        // Restart when the leader checkpointed past us: the records
        // between the cursor and the checkpoint are compacted (or about
        // to be), and the payload covers them. The first poll of a
        // checkpointed log adopts it the same way. Under the lock the
        // rule is stricter — any checkpoint but the one last adopted —
        // because whoever takes over will depend on that file at its own
        // next restart, so this process must have decoded it, and the
        // since-checkpoint accounting must count from it.
        let due = on_disk.is_some_and(|ck| match cur.pos {
            None => true,
            Some(pos) => ck > pos || (fenced && cur.adopted != Some(ck)),
        });
        let mut restart = None;
        if due {
            restart = checkpoint::read_checkpoint(&cur.dir)?;
            if let Some(ck) = &restart {
                cur.pos = Some(ck.position);
                cur.adopted = Some(ck.position);
                cur.since_restart = (0, 0);
                cur.restarts += 1;
            }
        } else if on_disk.is_none() && cur.records_read == 0 {
            // No checkpoint yet and nothing consumed: (re-)derive the
            // start from the first segment on disk each poll, so a log
            // whose first segment number is not 0 (a leader that
            // recovered from total loss) still gets tailed.
            let segments = segment::list_segments(&cur.dir).unwrap_or_default();
            cur.pos = Some(first_record(segments.first().copied().unwrap_or(0)));
        }
        let mut pos = cur.pos.unwrap_or(first_record(0));

        let mut records = Vec::new();
        let damage = |segment, offset, reason| {
            Some(DamagedTail {
                segment,
                offset,
                reason,
            })
        };
        // At the start of the chain the predecessor was compacted or
        // never existed, so the length this header records is not checked.
        let mut opened = open_segment(&cur.dir, pos.segment)?;
        let (in_segment, refused) = loop {
            let mut file = match opened {
                Ok((file, _)) => file,
                // Not there (yet, or anymore): a leader that has not
                // created it, or a compaction that raced this poll — the
                // next poll's checkpoint check restarts past it. An
                // unparseable header is a segment mid-creation.
                Err(reason) => break (false, reason.and_then(|r| damage(pos.segment, 0, r))),
            };
            let len = file.metadata()?.len();
            if pos.offset > len {
                // Shorter than bytes we already consumed: the file shrank
                // under us (a leader recovery truncated its tail). Stay —
                // the intact prefix we delivered is still a true prefix.
                let reason = format!("segment is {len} bytes, {} were replayed", pos.offset);
                break (false, damage(pos.segment, len, reason));
            }
            file.seek(SeekFrom::Start(pos.offset))?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let scan = record::scan(&bytes, 0);
            let delivered = scan.payloads.len() as u64;
            cur.records_read += delivered;
            cur.since_restart.0 += delivered;
            cur.since_restart.1 += scan.good_end as u64;
            records.extend(scan.payloads);
            pos.offset += scan.good_end as u64;
            if let Some(kind) = scan.damage {
                // Torn tip of a live append, or real damage — from this
                // side they look identical; stop at the intact prefix.
                break (true, damage(pos.segment, pos.offset, kind.to_string()));
            }
            // Clean to end of file. Advance only if the successor proves
            // this segment was sealed at exactly the length we consumed.
            let next = pos.segment + 1;
            opened = match open_segment(&cur.dir, next)? {
                Err(None) => break (true, None),
                Err(Some(reason)) => break (true, damage(next, 0, reason)),
                // Sealed longer than our view: the read above was stale;
                // re-read next poll. Sealed shorter: the segment lost a
                // whole-record tail — what we scanned is still a true
                // prefix, everything from the successor on is past the gap.
                Ok((_, sealed)) if sealed != pos.offset => {
                    let reason = format!(
                        "sealed segment is {} bytes but successor records {sealed}",
                        pos.offset
                    );
                    break (true, damage(pos.segment, pos.offset.min(sealed), reason));
                }
                ok => ok,
            };
            pos = first_record(next);
        };
        cur.pos = Some(pos);
        *self = cur;

        // Lag watermarks: everything on disk past the cursor.
        let mut bytes_behind = 0u64;
        let mut leader_position = pos;
        for seq in segment::list_segments(&self.dir).unwrap_or_default() {
            if seq < pos.segment {
                continue;
            }
            let Ok(meta) = std::fs::metadata(segment_path(&self.dir, seq)) else {
                continue;
            };
            let len = meta.len();
            let consumed = if seq == pos.segment {
                pos.offset
            } else {
                SEGMENT_HEADER_BYTES
            };
            bytes_behind += len.saturating_sub(consumed);
            leader_position = leader_position.max(LogPosition {
                segment: seq,
                offset: len.max(SEGMENT_HEADER_BYTES),
            });
        }
        let poll = TailPoll {
            restart,
            records,
            leader_position,
            bytes_behind,
        };
        Ok((poll, in_segment, refused))
    }
}

/// Where segment `segment`'s first record starts.
fn first_record(segment: u64) -> LogPosition {
    LogPosition {
        segment,
        offset: SEGMENT_HEADER_BYTES,
    }
}

/// Open segment `seq` and check its header: the file, left just past the
/// header, with the sealed length of the predecessor it records — or why
/// there is nothing to read (`None`: no such file).
fn open_segment(dir: &Path, seq: u64) -> Result<Result<(File, u64), Option<String>>, WalError> {
    let mut file = match File::open(segment_path(dir, seq)) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Err(None)),
        Err(e) => return Err(e.into()),
    };
    let mut header = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
    (&mut file)
        .take(SEGMENT_HEADER_BYTES)
        .read_to_end(&mut header)?;
    Ok(segment::parse_header(&header, seq)
        .map(|sealed| (file, sealed))
        .map_err(Some))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_dir, SyncPolicy, Wal, WalOptions};

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            sync: SyncPolicy::Never,
        }
    }

    #[test]
    fn tails_appends_across_rolls() {
        let dir = test_dir("tail-rolls");
        let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
        let mut cursor = TailCursor::new(&dir);
        assert!(cursor.poll().unwrap().records.is_empty());

        let mut shipped = Vec::new();
        for i in 0..30 {
            wal.append(format!("rec-{i}").as_bytes()).unwrap();
            if i % 7 == 0 {
                shipped.extend(cursor.poll().unwrap().records);
            }
        }
        shipped.extend(cursor.poll().unwrap().records);
        let expect: Vec<Vec<u8>> = (0..30).map(|i| format!("rec-{i}").into_bytes()).collect();
        assert_eq!(shipped, expect);
        assert!(wal.stats().segments > 1, "the workload must roll");
        let poll = cursor.poll().unwrap();
        assert!(poll.records.is_empty());
        assert_eq!(poll.bytes_behind, 0);
        assert_eq!(poll.leader_position, cursor.position());
        assert_eq!(cursor.records_read(), 30);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tip_is_waited_out_not_consumed() {
        let dir = test_dir("tail-torn");
        let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
        wal.append(b"whole").unwrap();
        // Simulate an in-flight append: a torn frame at the tip.
        let seqs = segment::list_segments(&dir).unwrap();
        let path = segment_path(&dir, *seqs.last().unwrap());
        let frame = record::frame(b"half-written record");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&frame[..frame.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let mut cursor = TailCursor::new(&dir);
        let poll = cursor.poll().unwrap();
        assert_eq!(poll.records, vec![b"whole".to_vec()]);
        assert!(poll.bytes_behind > 0, "the torn bytes count as lag");

        // The append completes: the next poll picks the record up whole.
        std::fs::write(&path, {
            let mut full = std::fs::read(&path).unwrap();
            full.truncate(full.len() - frame.len() / 2);
            full.extend_from_slice(&frame);
            full
        })
        .unwrap();
        let poll = cursor.poll().unwrap();
        assert_eq!(poll.records, vec![b"half-written record".to_vec()]);
        assert_eq!(poll.bytes_behind, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_past_the_cursor_restarts_from_the_checkpoint() {
        let dir = test_dir("tail-ckpt");
        let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
        let mut cursor = TailCursor::new(&dir);
        for i in 0..10 {
            wal.append(format!("early-{i}").as_bytes()).unwrap();
        }
        // The cursor reads a little, then stalls while the leader runs
        // far ahead and compacts.
        assert_eq!(cursor.poll().unwrap().records.len(), 10);
        for i in 0..10 {
            wal.append(format!("mid-{i}").as_bytes()).unwrap();
        }
        wal.checkpoint(b"state@20").unwrap();
        wal.append(b"post-ckpt").unwrap();

        let poll = cursor.poll().unwrap();
        let ck = poll.restart.expect("compaction must force a restart");
        assert_eq!(ck.payload, b"state@20");
        assert_eq!(poll.records, vec![b"post-ckpt".to_vec()]);
        assert_eq!(cursor.restarts(), 1);
        assert_eq!(cursor.poll().unwrap().bytes_behind, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_poll_of_a_checkpointed_log_adopts_the_checkpoint() {
        let dir = test_dir("tail-adopt");
        let (mut wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
        wal.append(b"compacted-away").unwrap();
        wal.checkpoint(b"base state").unwrap();
        wal.append(b"tail-1").unwrap();
        wal.append(b"tail-2").unwrap();

        let mut cursor = TailCursor::new(&dir);
        let poll = cursor.poll().unwrap();
        assert_eq!(poll.restart.expect("adopted").payload, b"base state");
        assert_eq!(poll.records, vec![b"tail-1".to_vec(), b"tail-2".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_directories_poll_idle() {
        let dir = test_dir("tail-empty");
        let mut cursor = TailCursor::new(dir.join("not-created-yet"));
        let poll = cursor.poll().unwrap();
        assert!(poll.restart.is_none() && poll.records.is_empty());
        assert_eq!(poll.bytes_behind, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_damage_stops_at_the_prefix_forever() {
        let dir = test_dir("tail-damage");
        let (mut wal, _) = Wal::open(&dir, opts(64)).unwrap();
        for i in 0..20 {
            wal.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        drop(wal);
        let seqs = segment::list_segments(&dir).unwrap();
        assert!(seqs.len() >= 3);
        let path = segment_path(&dir, seqs[1]);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = SEGMENT_HEADER_BYTES as usize + 9;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut cursor = TailCursor::new(&dir);
        let first = cursor.poll().unwrap();
        let committed: Vec<Vec<u8>> = (0..20).map(|i| format!("rec-{i}").into_bytes()).collect();
        assert!(committed.starts_with(&first.records));
        assert!(first.records.len() < committed.len());
        // Re-polling neither advances past the damage nor duplicates.
        let again = cursor.poll().unwrap();
        assert!(again.records.is_empty());
        assert!(again.bytes_behind > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
