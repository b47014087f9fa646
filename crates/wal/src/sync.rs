//! Sync policies and the cross-dataset group committer.
//!
//! A [`Wal`](crate::Wal) decides *when* an appended record becomes
//! durable through its [`SyncPolicy`]:
//!
//! * [`SyncPolicy::PerAppend`] — `fsync` on the appending thread before
//!   `append` returns: one sync per record, the strongest and simplest
//!   contract (the pre-existing `sync: true`).
//! * [`SyncPolicy::Never`] — no fsync; the OS page cache is durability
//!   enough (benchmarks, tests, rebuildable caches).
//! * [`SyncPolicy::Grouped`] — the append is written and flushed, then a
//!   **sync request** is submitted to a shared [`GroupCommitter`] and the
//!   caller receives a [`SyncTicket`]. The committer batches every
//!   request that arrives while its previous batch is syncing — one
//!   *sync window* — and issues **one `fsync` per distinct file** for
//!   the whole window, however many records landed in it. K datasets committing concurrently — and any
//!   one dataset pipelining several drains — amortize their syncs into
//!   the same window, so durable throughput stops paying one fsync per
//!   drain per tenant.
//!
//! The committer is deliberately WAL-agnostic: it syncs `File`s it is
//! handed. One committer per process (the serving layer's `Service` owns
//! one) is the intended shape, but nothing prevents finer pools.
//!
//! # Ordering contract
//!
//! Requests complete in submission order: the committer drains its queue
//! whole, syncs, and only then completes the batch. A completed
//! [`SyncTicket`] therefore guarantees *every earlier append to the same
//! log* is durable too — the property the serving layer's in-order ack
//! pipeline relies on.
//!
//! No lock here is taken while another is held, and the observer is
//! called with none held; the serving layer's crate docs (`anno-service`,
//! "Lock order") list the nestings of the whole serving path.

// An out-of-bounds panic while a guard is live would poison the lock.
#![deny(clippy::indexing_slicing)]

use std::collections::HashMap;
use std::fs::File;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::observe::ObserverSlot;
use crate::{WalError, WalObserver, WalStats};

/// Hands out process-unique ids so the committer can tell two logs'
/// files apart without platform inode calls.
static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) fn next_log_id() -> u64 {
    NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed)
}

/// Poison propagation, stated once for the crate: a lock that another
/// thread panicked while holding is not read from.
trait Unpoisoned<G> {
    /// The guard, or a panic naming `lock`.
    fn unpoisoned(self, lock: &str) -> G;
}

impl<G> Unpoisoned<G> for std::sync::LockResult<G> {
    #[track_caller]
    #[expect(
        clippy::expect_used,
        reason = "a poisoned lock means another thread panicked mid-update; propagate the panic rather than serve from that state"
    )]
    fn unpoisoned(self, lock: &str) -> G {
        self.expect(lock)
    }
}

/// When an appended record becomes durable. See the module docs.
#[derive(Debug, Clone, Default)]
pub enum SyncPolicy {
    /// `fsync` inline on every append (one sync per record).
    #[default]
    PerAppend,
    /// Never fsync appends; flush to the page cache only.
    Never,
    /// Submit appends to a shared [`GroupCommitter`]; durability is
    /// acknowledged through a [`SyncTicket`].
    Grouped(Arc<GroupCommitter>),
}

impl SyncPolicy {
    /// Short label for stats lines: `per_append`, `none`, or `grouped`.
    pub fn label(&self) -> &'static str {
        match self {
            SyncPolicy::PerAppend => "per_append",
            SyncPolicy::Never => "none",
            SyncPolicy::Grouped(_) => "grouped",
        }
    }

    /// The shared committer, when the policy is grouped.
    pub fn committer(&self) -> Option<&Arc<GroupCommitter>> {
        match self {
            SyncPolicy::Grouped(c) => Some(c),
            _ => None,
        }
    }
}

/// When a dataset should checkpoint *by itself*. Every threshold is
/// measured against the log's accumulation since its last checkpoint
/// (replayed records at open count too — they are exactly the replay
/// burden a checkpoint exists to bound). A policy with no threshold set
/// is disabled; with several, the first one exceeded triggers.
///
/// The policy never fires on an empty delta: a checkpoint of unchanged
/// state would cost an O(|D|) encode for nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once this many log bytes accumulate past the last
    /// checkpoint (bounds disk footprint).
    pub log_bytes: Option<u64>,
    /// Checkpoint once this many records would replay on recovery
    /// (bounds replay time).
    pub replayed_records: Option<u64>,
    /// Checkpoint at the first drain after this much wall time since the
    /// last checkpoint (bounds staleness under trickle writes).
    pub interval: Option<Duration>,
}

impl CheckpointPolicy {
    /// `true` if any threshold is set.
    pub fn is_enabled(&self) -> bool {
        self.log_bytes.is_some() || self.replayed_records.is_some() || self.interval.is_some()
    }

    /// `true` when `stats` says the log has accumulated past a threshold.
    pub fn due(&self, stats: &WalStats) -> bool {
        if stats.since_checkpoint_records == 0 {
            return false;
        }
        self.log_bytes
            .is_some_and(|b| stats.since_checkpoint_bytes >= b)
            || self
                .replayed_records
                .is_some_and(|r| stats.since_checkpoint_records >= r)
            || self
                .interval
                .is_some_and(|i| stats.since_checkpoint_age >= i)
    }
}

/// Counters of one committer's activity since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCommitStats {
    /// Sync requests ever submitted.
    pub submitted: u64,
    /// `fsync` calls actually issued (≤ submitted: the saving).
    pub syncs: u64,
    /// Sync windows completed (each syncs every distinct dirty file once).
    pub windows: u64,
}

/// Result slot one waiter blocks on. `None` = still pending.
#[derive(Debug)]
struct TicketShared {
    state: Mutex<Option<Result<(), String>>>,
    cv: Condvar,
}

/// A pending durability acknowledgement for one grouped append. Waiting
/// on it blocks until the committer's sync window covering the append
/// completes (or fails).
#[derive(Debug, Clone)]
pub struct SyncTicket {
    shared: Arc<TicketShared>,
}

impl SyncTicket {
    /// Block until the covering sync window completes. Idempotent.
    pub fn wait(&self) -> Result<(), WalError> {
        let mut state = self.shared.state.lock().unpoisoned("ticket lock");
        loop {
            match state.as_ref() {
                Some(Ok(())) => return Ok(()),
                Some(Err(msg)) => return Err(WalError::Io(std::io::Error::other(msg.clone()))),
                None => state = self.shared.cv.wait(state).unpoisoned("ticket lock"),
            }
        }
    }

    /// Non-blocking peek: `None` while the sync window is still open,
    /// `Some(result)` once it closed. Lets a pipelined appender retire
    /// completed acks without ever parking on an open window.
    pub fn try_ready(&self) -> Option<Result<(), WalError>> {
        let state = self.shared.state.lock().unpoisoned("ticket lock");
        state.as_ref().map(|outcome| match outcome {
            Ok(()) => Ok(()),
            Err(msg) => Err(WalError::Io(std::io::Error::other(msg.clone()))),
        })
    }
}

/// One queued sync request: which log + segment the bytes are in, a
/// handle to sync through, and the waiter to complete.
struct SyncRequest {
    /// `(log id, segment seq)`: the dedupe key — all requests against the
    /// same physical file share one fsync per window.
    key: (u64, u64),
    file: File,
    ticket: Arc<TicketShared>,
}

#[derive(Default)]
struct CommitterState {
    queue: Vec<SyncRequest>,
    shutdown: bool,
    submitted: u64,
    syncs: u64,
    windows: u64,
}

struct CommitterShared {
    state: Mutex<CommitterState>,
    /// Wakes the sync thread when requests arrive or shutdown is set.
    work_cv: Condvar,
    /// Telemetry hook: hears each fsync and each closed window. Behind
    /// its own mutex so installing one never contends with submitters.
    observer: Mutex<ObserverSlot>,
}

/// A shared fsync batcher: submit files, get tickets, pay one fsync per
/// distinct file per sync window. See the module docs for the contract.
#[derive(Debug)]
pub struct GroupCommitter {
    shared: Arc<CommitterShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for CommitterShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitterShared").finish_non_exhaustive()
    }
}

impl Default for GroupCommitter {
    fn default() -> Self {
        GroupCommitter::new()
    }
}

impl GroupCommitter {
    /// A committer that syncs as soon as its thread is scheduled (no
    /// artificial delay). Batching happens whenever requests arrive
    /// faster than fsyncs complete.
    pub fn new() -> GroupCommitter {
        let shared = Arc::new(CommitterShared {
            state: Mutex::new(CommitterState::default()),
            work_cv: Condvar::new(),
            observer: Mutex::new(ObserverSlot::default()),
        });
        let worker = Arc::clone(&shared);
        #[expect(
            clippy::expect_used,
            reason = "the constructor is infallible by signature, and without its thread no grouped append could ever be acknowledged"
        )]
        let thread = std::thread::Builder::new()
            .name("anno-wal-group-commit".to_string())
            .spawn(move || committer_loop(&worker))
            .expect("spawn group-commit thread");
        GroupCommitter {
            shared,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Queue `file` (holding bytes of `(log id, segment)` = `key`) for
    /// the next sync window.
    pub(crate) fn submit(&self, key: (u64, u64), file: File) -> SyncTicket {
        let shared = Arc::new(TicketShared {
            state: Mutex::new(None),
            cv: Condvar::new(),
        });
        let mut state = self.shared.state.lock().unpoisoned("committer lock");
        state.submitted += 1;
        state.queue.push(SyncRequest {
            key,
            file,
            ticket: Arc::clone(&shared),
        });
        self.shared.work_cv.notify_one();
        drop(state);
        SyncTicket { shared }
    }

    /// Install an observer that hears each fsync (with latency) and
    /// each closed sync window; replaces any previous one.
    pub fn set_observer(&self, observer: Arc<dyn WalObserver>) {
        self.shared
            .observer
            .lock()
            .unpoisoned("observer lock")
            .install(observer);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> GroupCommitStats {
        let state = self.shared.state.lock().unpoisoned("committer lock");
        GroupCommitStats {
            submitted: state.submitted,
            syncs: state.syncs,
            windows: state.windows,
        }
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unpoisoned("committer lock");
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        if let Some(handle) = self.thread.lock().unpoisoned("thread lock").take() {
            // The loop drains (and completes) everything still queued
            // before exiting, so no ticket is ever abandoned.
            let _ = handle.join();
        }
    }
}

fn committer_loop(shared: &CommitterShared) {
    loop {
        let batch = {
            let mut state = shared.state.lock().unpoisoned("committer lock");
            while state.queue.is_empty() && !state.shutdown {
                state = shared.work_cv.wait(state).unpoisoned("committer lock");
            }
            if state.queue.is_empty() {
                debug_assert!(state.shutdown);
                return;
            }
            std::mem::take(&mut state.queue)
        };

        // Sync outside the lock: submissions for the *next* window are
        // never blocked behind this one's fsyncs.
        let observer = shared.observer.lock().unpoisoned("observer lock").clone();
        let window_start = Instant::now();
        let mut results: HashMap<(u64, u64), Result<(), String>> = HashMap::new();
        let mut syncs = 0u64;
        for req in &batch {
            results.entry(req.key).or_insert_with(|| {
                syncs += 1;
                let start = Instant::now();
                let outcome = req.file.sync_data().map_err(|e| e.to_string());
                observer.fsync(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                outcome
            });
        }
        observer.window_closed(
            batch.len() as u64,
            syncs,
            u64::try_from(window_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        for req in &batch {
            // Every key was inserted by the sync pass above; if that
            // invariant ever breaks, fail the ticket instead of the
            // committer thread.
            let outcome = results
                .get(&req.key)
                .cloned()
                .unwrap_or_else(|| Err("internal: sync result missing for ticket".to_string()));
            let mut slot = req.ticket.state.lock().unpoisoned("ticket lock");
            *slot = Some(outcome);
            req.ticket.cv.notify_all();
        }

        let mut state = shared.state.lock().unpoisoned("committer lock");
        state.syncs += syncs;
        state.windows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    #[test]
    fn policy_due_thresholds() {
        let stats = |records: u64, bytes: u64, secs: u64| WalStats {
            since_checkpoint_records: records,
            since_checkpoint_bytes: bytes,
            since_checkpoint_age: Duration::from_secs(secs),
            ..WalStats::default()
        };
        let disabled = CheckpointPolicy::default();
        assert!(!disabled.is_enabled());
        assert!(!disabled.due(&stats(1_000_000, u64::MAX, u64::MAX)));

        let by_records = CheckpointPolicy {
            replayed_records: Some(8),
            ..Default::default()
        };
        assert!(by_records.is_enabled());
        assert!(!by_records.due(&stats(7, u64::MAX, 0)));
        assert!(by_records.due(&stats(8, 0, 0)));

        let by_bytes = CheckpointPolicy {
            log_bytes: Some(1024),
            ..Default::default()
        };
        assert!(!by_bytes.due(&stats(5, 1023, 0)));
        assert!(by_bytes.due(&stats(5, 1024, 0)));

        let by_age = CheckpointPolicy {
            interval: Some(Duration::from_secs(60)),
            ..Default::default()
        };
        assert!(!by_age.due(&stats(5, 0, 59)));
        assert!(by_age.due(&stats(5, 0, 61)));
        // An empty delta never fires, whatever the clock says.
        assert!(!by_age.due(&stats(0, 0, 10_000)));
    }

    #[test]
    fn grouped_appends_ack_and_batch_fsyncs() {
        use crate::{Wal, WalOptions};
        let committer = Arc::new(GroupCommitter::new());
        let dirs: Vec<_> = (0..4).map(|i| test_dir(&format!("grouped-{i}"))).collect();
        let mut wals: Vec<Wal> = dirs
            .iter()
            .map(|d| {
                Wal::open(
                    d,
                    WalOptions {
                        sync: SyncPolicy::Grouped(Arc::clone(&committer)),
                        ..WalOptions::default()
                    },
                )
                .unwrap()
                .0
            })
            .collect();

        // Several unacked appends per log: every ticket completes, and
        // the committer never issues more fsyncs than it got requests
        // (fewer whenever appends outrun an fsync in progress).
        let mut tickets = Vec::new();
        for round in 0..8 {
            for (i, wal) in wals.iter_mut().enumerate() {
                let (_, ticket) = wal
                    .append_async(format!("log-{i}-rec-{round}").as_bytes())
                    .unwrap();
                tickets.push(ticket.expect("grouped append returns a ticket"));
            }
        }
        for t in &tickets {
            t.wait().unwrap();
        }
        let stats = committer.stats();
        assert_eq!(stats.submitted, 32);
        assert!(
            stats.syncs <= stats.submitted,
            "windows must dedupe per-file syncs: {stats:?}"
        );
        assert!(stats.windows >= 1);

        // Every record is on disk for a fresh (per-append) open.
        drop(wals);
        for (i, dir) in dirs.iter().enumerate() {
            let (_, rec) = Wal::open(dir, WalOptions::default()).unwrap();
            assert_eq!(rec.tail.len(), 8, "log {i} lost records");
            assert!(rec.damaged.is_none());
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn committer_drop_completes_stragglers() {
        use crate::{Wal, WalOptions};
        let committer = Arc::new(GroupCommitter::new());
        let dir = test_dir("committer-drop");
        let (mut wal, _) = Wal::open(
            &dir,
            WalOptions {
                sync: SyncPolicy::Grouped(Arc::clone(&committer)),
                ..WalOptions::default()
            },
        )
        .unwrap();
        let (_, ticket) = wal.append_async(b"last words").unwrap();
        let ticket = ticket.unwrap();
        drop(committer);
        drop(wal);
        // The wal's own Arc keeps the committer's *shared state* alive,
        // but the owning handle above was the thread owner: its drop must
        // have flushed the queue before joining.
        ticket.wait().unwrap();
        let (_, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
        assert_eq!(rec.tail, vec![b"last words".to_vec()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
