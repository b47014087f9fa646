//! The one long-lived thread of a dataset: sole owner of the
//! [`WriteState`], the [`Wal`], the mining configuration, the
//! auto-checkpoint policy and — on a follower — the [`TailCursor`].
//!
//! The loop drains the dataset's mailbox in two modes:
//!
//! * **Leader**: take everything queued, coalesce, *encode + append +
//!   [`WriteState::apply`]*, publish, ack — then answer the control
//!   requests that arrived with it.
//! * **Follower**: wait on the same mailbox with the poll interval as the
//!   timeout, poll the [`TailCursor`], fold what arrived into the state
//!   ([`WriteState::replay`]) record by record, publishing at each
//!   boundary — so every snapshot is a drain prefix of the leader's.
//!
//! Leadership of a log directory has one way in, [`Owner::take_over`]:
//! one more poll that takes the log over where the cursor stands
//! ([`Wal::take_over`], the fence), folds the suffix it had not seen yet,
//! and switches mode — or, if the lock or the directory's checkpoint
//! refuses, drops the `Wal` again and keeps tailing as if nothing had been
//! tried. `promote` is a request that runs it on the owner thread; opening
//! a durable dataset runs it on a fresh cursor before the thread starts.
//!
//! Checkpoints follow one protocol, manual or automatic: the owner
//! captures the state and pins the log position, a transient encoder
//! thread does the O(|D|) encode and the payload write, and a
//! [`Request::CheckpointEncoded`] message brings the owner back to
//! [`Wal::finish_checkpoint`]. At most one checkpoint is between capture
//! and finish; a second request parks (the owner keeps draining), so
//! positions finish in capture order.

// An out-of-bounds panic while a guard is live would poison the lock.
#![deny(clippy::indexing_slicing)]

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anno_mine::{IncrementalConfig, IncrementalMiner};
use anno_store::AnnotatedRelation;
use anno_wal::{
    checkpoint as wal_checkpoint, Checkpoint, CheckpointPolicy, DamagedTail, LogPosition,
    PreparedCheckpoint, SyncTicket, TailCursor, TailPoll, Wal, WalError, WalObserver,
};

use crate::apply::{canonicalize_batch, ApplyPanicked, WriteState, MAX_PIPELINED_ACKS};
use crate::dataset::{
    CheckpointResult, DurabilityOptions, Inner, Published, ReplicationStatus, Reply, Request,
    Status, WalStatus, DISCOVERY_TOPK_CAP,
};
use crate::error::ServiceError;
use crate::metrics::{timed, Metrics};
use crate::queue::{coalesce, UpdateOp};
use crate::snapshot::RuleSnapshot;
use crate::walcodec::{self, WalRecord};
use crate::Unpoisoned;

/// How long the owner parks between ticket polls when it has unacked
/// grouped drains but no fresh work. Bounds the extra flush latency a
/// quiet moment adds on top of the committer's sync window.
const ACK_POLL: Duration = Duration::from_micros(200);

/// Feeds the log's fsync reports into the owning dataset's metrics.
struct FsyncObserver(Arc<Metrics>);

impl WalObserver for FsyncObserver {
    fn fsync(&self, nanos: u64) {
        self.0.record_fsync(nanos);
    }
}

/// Which side of replication the owner is running.
pub(crate) enum Mode {
    /// Accepts writes, logging each effective drain first when a log is
    /// attached (`None` for a memory-only dataset).
    Leader(Option<Wal>),
    /// Replays a leader's shipped log; holds no `wal.lock`.
    Follower(Tail),
}

/// A follower's attachment to its leader's log directory.
pub(crate) struct Tail {
    cursor: TailCursor,
    poll: Duration,
    next_poll: Instant,
    status: ReplicationStatus,
}

impl Tail {
    pub(crate) fn new(dir: &Path, poll: Duration) -> Tail {
        Tail {
            cursor: TailCursor::new(dir),
            poll,
            next_poll: Instant::now(),
            status: ReplicationStatus::default(),
        }
    }
}

/// The cheap half of a checkpoint: a clone of the state to persist (a
/// persistent relation clone is O(#segments) pointer copies, the miner
/// clone O(rule table) — never O(|D|); the discovery index is derived and
/// not persisted) plus the pinned log position. Owning everything lets
/// the encode run while the owner keeps draining.
struct CapturedCheckpoint {
    relation: AnnotatedRelation,
    miner: Option<IncrementalMiner>,
    publish_seq: u64,
    dir: PathBuf,
    position: LogPosition,
    /// See [`DurabilityOptions::encode_stall_for_tests`].
    stall: Option<Duration>,
}

/// The O(|D|) half, on the encoder thread: encode the captured state and
/// durably bind the payload to the pinned position. Returns the payload
/// size in bytes.
fn commit_checkpoint(metrics: &Metrics, cap: CapturedCheckpoint) -> Result<usize, ServiceError> {
    let (payload, encode_nanos) = timed(|| {
        if let Some(stall) = cap.stall {
            std::thread::sleep(stall);
        }
        walcodec::encode_checkpoint(&cap.relation, cap.miner.as_ref(), cap.publish_seq)
    });
    metrics.record_checkpoint_encode(encode_nanos);
    wal_checkpoint::write_checkpoint(&cap.dir, cap.position, &payload)
        .map_err(|e| ServiceError::Durability(e.to_string()))?;
    Ok(payload.len())
}

/// The checkpoint between capture and finish.
struct InFlightCheckpoint {
    encoder: JoinHandle<Result<usize, ServiceError>>,
    prepared: PreparedCheckpoint,
    /// The `checkpoint` caller waiting on it; `None` for an automatic one.
    reply: Option<Reply<CheckpointResult>>,
}

/// One batch of mail: everything that was queued when the owner looked.
struct Mail {
    ops: Vec<UpdateOp>,
    /// Sequence number of the last op in `ops` (or before it).
    drained_to: u64,
    requests: VecDeque<Request>,
    shutdown: bool,
}

/// Closes the mailbox however the owner exits — clean shutdown, a fence,
/// or a panic — so no caller is left waiting on a thread that is gone:
/// dropping the parked requests hangs up their reply channels.
struct CloseMailbox<'a>(&'a Inner);

impl Drop for CloseMailbox<'_> {
    fn drop(&mut self) {
        let Ok(mut q) = self.0.queue.lock() else {
            return;
        };
        if std::thread::panicking() {
            self.0
                .journal
                .record("fenced", "owner thread panicked".to_string());
            q.shutdown = true;
            q.writer_dead = true;
        }
        q.requests.clear();
        self.0.queue_cv.notify_all();
    }
}

pub(crate) struct Owner {
    inner: Arc<Inner>,
    state: WriteState,
    config: IncrementalConfig,
    mode: Mode,
    /// Epoch of the latest rule snapshot handed out.
    publish_seq: u64,
    /// What readers see right now.
    current: Arc<Published>,
    auto_checkpoint: CheckpointPolicy,
    encode_stall: Option<Duration>,
    /// Drains whose effects are applied and published but whose group-
    /// commit sync window has not yet closed, oldest first. Empty unless
    /// the WAL runs `SyncPolicy::Grouped`.
    unacked: VecDeque<(u64, SyncTicket)>,
    checkpoint: Option<InFlightCheckpoint>,
    /// `checkpoint`/`quiesce` requests waiting for the in-flight one.
    parked: VecDeque<Request>,
    /// Set by [`Owner::fence`]; the loop exits at the next turn.
    fenced: bool,
}

impl Owner {
    /// An owner over an empty state, published at once so the dataset's
    /// getters answer before the thread runs.
    pub(crate) fn new(inner: Arc<Inner>, config: IncrementalConfig, mode: Mode) -> Owner {
        let mut owner = Owner {
            current: Arc::default(),
            state: WriteState::empty(&inner.name),
            inner,
            config,
            mode,
            publish_seq: 0,
            auto_checkpoint: CheckpointPolicy::default(),
            encode_stall: None,
            unacked: VecDeque::new(),
            checkpoint: None,
            parked: VecDeque::new(),
            fenced: false,
        };
        owner.publish(true);
        owner
    }

    /// Start the thread. A configuration the miner would refuse is
    /// refused here, before there is a thread for a later `mine` to panic.
    pub(crate) fn start(self) -> Result<JoinHandle<()>, ServiceError> {
        self.config.validate().map_err(ServiceError::BadCommand)?;
        std::thread::Builder::new()
            .name(format!("annod-writer-{}", self.inner.name))
            .spawn(move || self.owner_loop())
            .map_err(|e| ServiceError::Io(format!("cannot spawn writer thread: {e}")))
    }

    /// The thread body: serve the mailbox until shutdown or a fence.
    fn owner_loop(mut self) {
        let inner = Arc::clone(&self.inner);
        let _close = CloseMailbox(&inner);
        while !self.fenced {
            if let Some(mail) = self.next_mail() {
                if !mail.ops.is_empty() {
                    self.drain(mail.ops, mail.drained_to);
                }
                if mail.shutdown {
                    // Queued ops were drained above; control requests are
                    // not served past a shutdown — dropping them answers
                    // every parked caller with `ShutDown`.
                    drop(mail.requests);
                    self.parked.clear();
                    self.retire(0);
                    break;
                }
                for request in mail.requests {
                    self.serve(request);
                }
            }
            self.poll_if_due();
        }
        // An in-flight checkpoint commit lands before the thread exits,
        // so a reopen of the directory sees it.
        self.finish_checkpoint();
    }

    /// Block until there is mail, a follower poll is due, or an unacked
    /// drain's sync window may have closed. `None` means "look again".
    fn next_mail(&mut self) -> Option<Mail> {
        // Never park on an open sync window while work could arrive:
        // release the acks that are already resolved first.
        self.retire(usize::MAX);
        if self.fenced {
            return None;
        }
        let inner = &self.inner;
        let mut q = inner.queue.lock().unpoisoned("queue lock");
        q.unacked = self.unacked.len();
        let has_mail = !(q.pending.is_empty() && q.requests.is_empty());
        if q.shutdown || (has_mail && !q.paused) {
            if !q.pending.is_empty() {
                q.pending_updates = 0;
                q.drains += 1;
                // Wake enqueuers blocked on backpressure now that the
                // queue is empty again; they need not wait for the apply.
                inner.queue_cv.notify_all();
            }
            return Some(Mail {
                ops: std::mem::take(&mut q.pending),
                drained_to: q.enqueued,
                requests: std::mem::take(&mut q.requests),
                shutdown: q.shutdown,
            });
        }
        let timeout = match self.next_poll_in() {
            Some(left) if left.is_zero() => return None,
            Some(left) => Some(left),
            None if !self.unacked.is_empty() => Some(ACK_POLL),
            None => None,
        };
        match timeout {
            Some(t) => drop(inner.queue_cv.wait_timeout(q, t).unpoisoned("queue lock")),
            None => drop(inner.queue_cv.wait(q).unpoisoned("queue lock")),
        }
        None
    }

    /// Fence the dataset: reject new work, fail waiting clients fast. The
    /// single failure policy for every unloggable mutation (drain, mine,
    /// or a grouped sync that never became durable) and for apply panics
    /// — serving on would let served state diverge from what a restart
    /// recovers.
    fn fence(&mut self, why: &str) {
        eprintln!(
            "annod: writer for dataset {:?}: {why}; dataset disabled",
            self.inner.name
        );
        self.inner
            .journal
            .record("fenced", format!("{why}; dataset disabled"));
        self.fenced = true;
        let mut q = self.inner.queue.lock().unpoisoned("queue lock");
        q.shutdown = true;
        q.writer_dead = true;
        self.inner.queue_cv.notify_all();
    }

    // ---- leader: drain / log / apply / publish / ack ------------------

    fn drain(&mut self, ops: Vec<UpdateOp>, drained_to: u64) {
        let updates = ops.iter().map(|op| op.len() as u64).sum();
        self.inner.metrics.record_drain_size(updates);
        let (mut batches, folded) = coalesce(ops);
        // Canonicalize before the log sees the drain: segment-locality
        // sort plus within-batch dedupe. Coalescing can merge two
        // clients' updates to the same (tuple, annotation) into one
        // batch; only the first can have an effect, and logging the echo
        // would waste log bytes and replay work on every recovery.
        for batch in &mut batches {
            canonicalize_batch(batch);
        }
        let (pass, nanos) = timed(|| -> Result<(u64, Option<SyncTicket>), String> {
            if !self.state.has_effect(&batches) {
                return Ok((0, None));
            }
            // Log before apply: the coalesced drain is written (and,
            // under per-append sync, durable) before any of its effects
            // can be published, so a crash between the two replays the
            // drain instead of losing acknowledged-and-served state.
            // Under grouped sync the returned ticket gates the client-
            // visible ack instead: flush barriers release only once the
            // sync window closes.
            let ticket = self
                .log(&walcodec::encode_drain(&batches))
                .map_err(|e| format!("cannot log a drain ({e})"))?;
            let applied = self.apply(WalRecord::Drain(batches))?;
            Ok((applied, ticket))
        });
        let (applied, ticket) = match pass {
            Ok(done) => done,
            Err(why) => return self.fence(&why),
        };
        self.inner.metrics.record_write_pass(applied, folded, nanos);
        // Policy check *before* the ack: a flush that observes this
        // drain also observes any checkpoint it triggered, which keeps
        // recovery-size guarantees deterministic for clients that pace
        // themselves with flush barriers.
        self.maybe_auto_checkpoint();
        match ticket {
            Some(ticket) => {
                self.unacked.push_back((drained_to, ticket));
                self.retire(MAX_PIPELINED_ACKS);
            }
            None => self.ack(drained_to),
        }
    }

    /// Append one record to the log, if the dataset has one.
    fn log(&mut self, payload: &[u8]) -> Result<Option<SyncTicket>, WalError> {
        let Mode::Leader(Some(wal)) = &mut self.mode else {
            return Ok(None);
        };
        Ok(wal.append_async(payload)?.1)
    }

    /// [`WriteState::apply`] one record and publish what it changed.
    /// Returns the batches applied. A `mine` record replaces the rule set
    /// (a republish is due even though the relation epoch did not move).
    fn apply(&mut self, record: WalRecord) -> Result<u64, String> {
        let mined = matches!(record, WalRecord::Mine(_));
        let batches = self
            .state
            .apply(record)
            .map_err(|ApplyPanicked| "apply panicked".to_string())?;
        self.publish(mined);
        Ok(batches)
    }

    /// Bring the discovery index up to date and swap in a fresh
    /// [`Published`]. The status half is rebuilt every time; the rule
    /// and discovery snapshots only when the relation actually moved
    /// (prefiltered no-op batches leave the epoch untouched) or `force`
    /// says the rule set itself was replaced — snapshot builds clone the
    /// rule set and rebuild the recommendation index, so skipping them
    /// keeps ineffective drains cheap. Both snapshots carry the same
    /// epoch by construction.
    fn publish(&mut self, force: bool) {
        let refreshed = self.state.sync_discovery();
        if let Some(nanos) = refreshed {
            self.inner.metrics.record_discover_update(nanos);
        }
        let inner = &self.inner;
        let relation = &self.state.relation;
        let (mut rules, mut discovery) =
            (self.current.rules.clone(), self.current.discovery.clone());
        let stale = force || rules.as_ref().map(|s| s.relation_epoch()) != Some(relation.epoch());
        if let Some(miner) = self.state.miner.as_ref().filter(|_| stale) {
            self.publish_seq += 1;
            let snap = RuleSnapshot::build(&inner.name, self.publish_seq, relation, miner);
            // Drain-boundary epoch contract: published relation epochs
            // only move forward. A regression would mean a reader could
            // observe time running backwards across two snapshot reads.
            let prev = rules.as_ref().map_or(0, |s| s.relation_epoch());
            assert!(
                snap.relation_epoch() >= prev,
                "published relation epoch regressed: {prev} -> {}",
                snap.relation_epoch()
            );
            let disco = self.state.discovery.snapshot(
                self.publish_seq,
                relation.len() as u64,
                DISCOVERY_TOPK_CAP,
                relation.vocab(),
            );
            inner.metrics.record_publish();
            (rules, discovery) = (Some(Arc::new(snap)), Some(Arc::new(disco)));
        }
        let status = self.status(refreshed);
        self.current = Arc::new(Published {
            rules,
            discovery,
            status,
        });
        *inner.published.write().unpoisoned("published lock") = Arc::clone(&self.current);
    }

    /// The status block as of now; `refreshed` is what this publish's
    /// discovery refresh cost, if it ran one.
    fn status(&self, refreshed: Option<u64>) -> Status {
        let (wal, replication) = match &self.mode {
            Mode::Leader(wal) => (
                wal.as_ref().map(|wal| WalStatus {
                    stats: wal.stats(),
                    sync: wal.options().sync.clone(),
                }),
                None,
            ),
            Mode::Follower(tail) => (None, Some(tail.status.clone())),
        };
        Status {
            config: self.config,
            tuples: self.state.relation.len(),
            segments: self.state.relation.segments().len(),
            vocab_chunks: self.state.relation.vocab_chunk_count(),
            discover_last_update_ns: refreshed
                .unwrap_or(self.current.status.discover_last_update_ns),
            wal,
            auto_checkpoint: self.auto_checkpoint,
            replication,
        }
    }

    /// Mark the ops up to `drained_to` as applied-and-durable, releasing
    /// their `flush` barriers.
    fn ack(&self, drained_to: u64) {
        let mut q = self.inner.queue.lock().unpoisoned("queue lock");
        q.applied = q.applied.max(drained_to);
        q.unacked = self.unacked.len();
        self.inner.queue_cv.notify_all();
    }

    /// Release flush barriers, oldest first: every ticket whose sync
    /// window has already closed — pipelined acks flow out while fresh
    /// work keeps flowing in — and then, *blocking*, as many more as it
    /// takes to leave at most `keep` unacked. Tickets resolve in append
    /// order, so waiting on the front covers everything behind it.
    /// `retire(0)` is what `flush` means to a caller, done on the owner's
    /// side before a request that observes state.
    fn retire(&mut self, keep: usize) {
        while let Some((drained_to, ticket)) = self.unacked.front() {
            let synced = if self.unacked.len() > keep {
                ticket.wait()
            } else {
                match ticket.try_ready() {
                    Some(synced) => synced,
                    None => break,
                }
            };
            let drained_to = *drained_to;
            self.unacked.pop_front();
            match synced {
                Ok(()) => self.ack(drained_to),
                Err(e) => return self.fence(&format!("grouped sync failed ({e})")),
            }
        }
    }

    // ---- control requests ---------------------------------------------

    /// Answer one request. A reply whose caller has gone away is dropped;
    /// a request a fenced dataset drops reads as `ShutDown` to its caller.
    fn serve(&mut self, request: Request) {
        if matches!(
            request,
            Request::Mine(_) | Request::Verify(_) | Request::Checkpoint(_)
        ) {
            // These still mean "flush, then …": what they observe must be
            // what a flush barrier would have made durable.
            self.retire(0);
        }
        if self.fenced {
            return;
        }
        if self.checkpoint.is_some()
            && matches!(request, Request::Checkpoint(_) | Request::Quiesce(_))
        {
            // At most one checkpoint between capture and finish: these
            // wait their turn while the owner keeps draining.
            return self.parked.push_back(request);
        }
        match request {
            Request::Mine(reply) => {
                let _ = reply.send(self.mine());
            }
            Request::Verify(reply) => {
                let _ = reply.send(self.verify());
            }
            Request::Checkpoint(reply) => self.start_checkpoint(Some(reply)),
            Request::Quiesce(reply) => {
                let _ = reply.send(());
            }
            Request::CheckpointEncoded => {
                self.finish_checkpoint();
                // Requests that waited on it go again, in arrival order.
                for request in std::mem::take(&mut self.parked) {
                    self.serve(request);
                }
            }
            Request::Catchup(reply) => {
                let _ = reply.send(self.catchup());
            }
            Request::Promote(options, reply) => {
                let _ = reply.send(self.take_over("promote", options));
            }
        }
    }

    fn read_only(&self) -> ServiceError {
        ServiceError::ReadOnlyRole(self.inner.name.clone())
    }

    /// See [`Dataset::mine`](crate::dataset::Dataset::mine): log the
    /// mine event, then mine from scratch and publish.
    fn mine(&mut self) -> Result<Arc<RuleSnapshot>, ServiceError> {
        if matches!(self.mode, Mode::Follower(_)) {
            return Err(self.read_only());
        }
        let logged = self
            .log(&walcodec::encode_mine(&self.config))
            .and_then(|ticket| ticket.map_or(Ok(()), |t| t.wait()));
        if let Err(e) = logged {
            self.fence(&format!("cannot log a mine event ({e})"));
            return Err(ServiceError::Durability(e.to_string()));
        }
        let shut_down = ServiceError::ShutDown(self.inner.name.clone());
        if let Err(why) = self.apply(WalRecord::Mine(self.config)) {
            self.fence(&why);
            return Err(shut_down);
        }
        // A mine that did not panic always published.
        self.current.rules.clone().ok_or(shut_down)
    }

    /// See [`Dataset::verify`](crate::dataset::Dataset::verify).
    fn verify(&self) -> Result<bool, ServiceError> {
        match &self.state.miner {
            Some(miner) => Ok(miner.verify_against_remine(&self.state.relation)
                && self.state.discovery.verify_against_rescan(miner.table())),
            None => Err(ServiceError::NotMined(self.inner.name.clone())),
        }
    }

    // ---- checkpoints ---------------------------------------------------

    /// Begin a checkpoint for `reply`'s caller (`None`: the automatic
    /// policy). One that cannot even start is reported like one that
    /// failed later.
    fn start_checkpoint(&mut self, reply: Option<Reply<CheckpointResult>>) {
        match self.capture_checkpoint() {
            Ok(flight) => self.checkpoint = Some(InFlightCheckpoint { reply, ..flight }),
            Err(e) => self.report_checkpoint(reply, Err(e)),
        }
    }

    /// Capture the state, pin the log position, and hand the encode to a
    /// transient thread.
    fn capture_checkpoint(&mut self) -> Result<InFlightCheckpoint, ServiceError> {
        let wal = match &mut self.mode {
            Mode::Follower(_) => return Err(self.read_only()),
            Mode::Leader(None) => {
                return Err(ServiceError::Durability(format!(
                    "dataset {:?} has no durability directory; reopen it with one",
                    self.inner.name
                )))
            }
            Mode::Leader(Some(wal)) => wal,
        };
        let prepared = wal
            .prepare_checkpoint()
            .map_err(|e| ServiceError::Durability(e.to_string()))?;
        let cap = CapturedCheckpoint {
            relation: self.state.relation.clone(),
            miner: self.state.miner.clone(),
            publish_seq: self.publish_seq,
            dir: wal.dir().to_path_buf(),
            position: prepared.position(),
            stall: self.encode_stall,
        };
        let inner = Arc::clone(&self.inner);
        let encoder = std::thread::Builder::new()
            .name(format!("annod-ckpt-{}", inner.name))
            .spawn(move || {
                let outcome = commit_checkpoint(&inner.metrics, cap);
                let mut q = inner.queue.lock().unpoisoned("queue lock");
                q.requests.push_back(Request::CheckpointEncoded);
                inner.queue_cv.notify_all();
                outcome
            })
            .map_err(|e| ServiceError::Io(format!("cannot spawn checkpoint encoder: {e}")))?;
        Ok(InFlightCheckpoint {
            encoder,
            prepared,
            reply: None,
        })
    }

    /// Join the encoder and, if the payload landed, compact the log
    /// behind the pinned position and reset the policy accounting.
    fn finish_checkpoint(&mut self) {
        let Some(flight) = self.checkpoint.take() else {
            return;
        };
        let encoded = flight
            .encoder
            .join()
            .unwrap_or_else(|_| Err(ServiceError::Io("checkpoint encoder panicked".into())));
        let outcome = encoded.map(|bytes| {
            if let Mode::Leader(Some(wal)) = &mut self.mode {
                wal.finish_checkpoint(&flight.prepared);
            }
            self.inner.metrics.record_checkpoint();
            (flight.prepared.position(), bytes)
        });
        // Publish first: a caller that has its answer must also find the
        // log counters it implies.
        self.publish(false);
        self.report_checkpoint(flight.reply, outcome);
    }

    /// Tell a finished checkpoint's caller, the counters and the journal
    /// how it went. An automatic one has no caller to tell, so its
    /// failure is journaled too; it is retried after the next drain (the
    /// log keeps growing but stays correct).
    fn report_checkpoint(&self, reply: Option<Reply<CheckpointResult>>, outcome: CheckpointResult) {
        let Inner {
            name,
            journal,
            metrics,
            ..
        } = &*self.inner;
        match (&outcome, &reply) {
            (Ok((position, bytes)), caller) => {
                let event = format!("position={position} payload_bytes={bytes}");
                if caller.is_some() {
                    journal.record("checkpoint", event);
                } else {
                    metrics.record_auto_checkpoint();
                    journal.record("auto_checkpoint", event);
                }
            }
            (Err(e), None) => {
                eprintln!(
                    "annod: dataset {name:?}: auto-checkpoint failed ({e}); \
                     retrying after the next drain"
                );
                journal.record("auto_checkpoint_failed", e.to_string());
            }
            (Err(_), Some(_)) => {}
        }
        if let Some(reply) = reply {
            let _ = reply.send(outcome);
        }
    }

    /// The automatic-checkpoint check the owner runs after each drain:
    /// fire when the policy says the log has accumulated past a
    /// threshold. While any checkpoint is in flight the check is skipped
    /// — its finish resets the same accounting.
    fn maybe_auto_checkpoint(&mut self) {
        let Mode::Leader(Some(wal)) = &self.mode else {
            return;
        };
        if self.checkpoint.is_some() || !self.auto_checkpoint.due(&wal.stats()) {
            return;
        }
        self.start_checkpoint(None);
    }

    // ---- follower: poll / apply / publish ------------------------------

    fn tail_status(&self) -> Option<&ReplicationStatus> {
        match &self.mode {
            Mode::Follower(tail) => Some(&tail.status),
            Mode::Leader(_) => None,
        }
    }

    /// Time left until the next tail poll; `None` when nothing tails (a
    /// leader, or a follower whose tailing failed).
    fn next_poll_in(&self) -> Option<Duration> {
        match &self.mode {
            Mode::Follower(tail) if tail.status.failed.is_none() => {
                Some(tail.next_poll.saturating_duration_since(Instant::now()))
            }
            _ => None,
        }
    }

    fn poll_if_due(&mut self) {
        if self.next_poll_in().is_some_and(|left| left.is_zero()) {
            self.poll();
        }
    }

    /// `catchup`: a poll that starts after the request, by construction —
    /// the owner only sees the request between polls.
    fn catchup(&mut self) -> Result<ReplicationStatus, ServiceError> {
        if self.next_poll_in().is_some() {
            self.poll();
        }
        let name = &self.inner.name;
        match self.tail_status() {
            None => Err(ServiceError::Durability(format!(
                "dataset {name:?} is not a follower; nothing to catch up"
            ))),
            Some(ReplicationStatus {
                failed: Some(why), ..
            }) => Err(ServiceError::Durability(format!(
                "dataset {name:?} follower failed: {why}"
            ))),
            Some(status) => Ok(status.clone()),
        }
    }

    /// One tail poll: walk, fold, bookkeeping, publish. I/O trouble
    /// against a directory mid-change (the leader rolling a segment,
    /// compaction deleting behind the cursor) is retried at the next
    /// poll; undecodable or unappliable shipped state stops the tailing —
    /// the follower keeps serving its last good prefix, and `catchup`
    /// reports the failure.
    fn poll(&mut self) {
        let Mode::Follower(tail) = &mut self.mode else {
            return;
        };
        let outcome = match tail.cursor.poll() {
            Ok(polled) => self
                .replay_poll(&polled)
                .map(|()| Some((polled.leader_position.segment, polled.bytes_behind))),
            Err(WalError::Io(e)) => {
                self.inner.journal.record("follower_retry", e.to_string());
                Ok(None)
            }
            Err(e) => Err(e.to_string()),
        };
        self.polled(outcome);
        self.publish(false);
    }

    /// Fold a poll into the state, publishing after the restart and each
    /// record — where the leader did: a long catch-up serves growing prefixes.
    fn replay_poll(&mut self, polled: &TailPoll) -> Result<(), String> {
        self.replay(polled.restart.as_ref(), &[])?;
        if let Some(ck) = &polled.restart {
            let event = format!("position={}", ck.position);
            self.inner.journal.record("follower_restart", event);
        }
        self.publish(polled.restart.is_some());
        polled.records.chunks(1).try_for_each(|one| {
            self.replay(None, one)?;
            self.publish(true);
            Ok(())
        })
    }

    /// [`WriteState::replay`], plus what the owner keeps beside the
    /// state. Callers pass the restart and the records in separate
    /// calls, so an `Err` from the first means nothing changed.
    fn replay(&mut self, restart: Option<&Checkpoint>, records: &[Vec<u8>]) -> Result<(), String> {
        let payload = restart.map(|ck| ck.payload.as_slice());
        let replayed = self.state.replay(payload, records);
        // A restored miner, like a replayed `mine`, carries the
        // configuration the leader's table is exact under.
        self.config = self.state.mined_config().unwrap_or(self.config);
        if let Some(seq) = replayed? {
            // Keep handed-out snapshot epochs monotone past the leader's
            // checkpointed publish counter.
            self.publish_seq = self.publish_seq.max(seq);
        }
        Ok(())
    }

    /// Bookkeeping after a walk: progress numbers, the journal, and the
    /// next deadline. `outcome` is the walk's
    /// `(leader_seq, bytes_behind)`, `None` for one that will be retried,
    /// or why the tailing stops.
    fn polled(&mut self, outcome: Result<Option<(u64, u64)>, String>) {
        let Mode::Follower(tail) = &mut self.mode else {
            return;
        };
        let st = &mut tail.status;
        st.polls += 1;
        st.applied_seq = tail.cursor.position().segment;
        st.records_applied = tail.cursor.records_read();
        st.restarts = tail.cursor.restarts();
        match outcome {
            Ok(Some((leader_seq, bytes_behind))) => {
                st.leader_seq = leader_seq;
                st.bytes_behind = bytes_behind;
            }
            Ok(None) => {}
            Err(msg) => {
                eprintln!(
                    "annod: follower for dataset {:?}: {msg}; tailing stopped \
                     (last good prefix still served)",
                    self.inner.name
                );
                self.inner.journal.record("follower_failed", msg.clone());
                st.failed = Some(msg);
            }
        }
        tail.next_poll = Instant::now() + tail.poll;
    }

    /// Take the log over and become its leader: a promotion (`kind` is
    /// `promote`, see
    /// [`Dataset::promote_with`](crate::dataset::Dataset::promote_with)),
    /// or the recovery a durable open runs on a fresh cursor before the
    /// thread starts (`recovery`, see
    /// [`Dataset::open_with`](crate::dataset::Dataset::open_with)).
    ///
    /// The take-over runs on a copy of the cursor, committed once the
    /// lock, the walk, the repair and the restore of a checkpoint this
    /// follower had not adopted have all succeeded. A failure before
    /// that drops the `Wal` again (releasing `wal.lock`) with cursor,
    /// state and status as they were; after it, a record that cannot be
    /// applied, or a folded state that fails the resume screen, stops the
    /// tailing just as it would in a poll.
    pub(crate) fn take_over(
        &mut self,
        kind: &'static str,
        options: DurabilityOptions,
    ) -> Result<(), ServiceError> {
        let inner = Arc::clone(&self.inner);
        let dur = |msg: String| ServiceError::Durability(format!("dataset {:?} {msg}", inner.name));
        let Mode::Follower(tail) = &self.mode else {
            return Err(dur("is already the leader".to_string()));
        };
        if let Some(why) = &tail.status.failed {
            // The cursor is past a record the state never took in.
            return Err(dur(format!("follower failed: {why}")));
        }
        let mut cursor = tail.cursor.clone();
        let (mut wal, polled, damaged) = Wal::take_over(&mut cursor, options.wal)
            .map_err(|e| ServiceError::Durability(format!("cannot take over the log: {e}")))?;
        self.replay(polled.restart.as_ref(), &[]).map_err(dur)?;
        if let Mode::Follower(tail) = &mut self.mode {
            tail.cursor = cursor;
        }
        let folded = self.replay(None, &polled.records).and_then(|()| {
            // Cheap resume screen over what this take-over folded in (a
            // caught-up promote folded nothing and pays nothing); the
            // exhaustive check stays on demand (`Dataset::verify`).
            let moved = polled.restart.is_some() || !polled.records.is_empty();
            match &self.state.miner {
                Some(m) if moved => m
                    .validate_against(&self.state.relation)
                    .map_err(|m| format!("post-replay validation: {m}")),
                _ => Ok(()),
            }
        });
        if let Err(why) = folded {
            self.polled(Err(why.clone()));
            self.publish(true);
            return Err(dur(why));
        }
        // Point the log's own fsync reports (per-append syncs, segment
        // seals) at this dataset's histograms; grouped-sync fsyncs belong
        // to the shared committer and are observed at the service level.
        wal.set_observer(Arc::new(FsyncObserver(Arc::clone(&inner.metrics))));
        record_takeover(&inner, kind, &polled, damaged);
        // Publish epochs must never regress across a take-over. Move the
        // counter (already at or past the restored checkpoint's) past
        // anything the dead leader can have handed out: every record it
        // logged after that checkpoint published at most one snapshot.
        // Under grouped sync a pipelined drain can be published *before*
        // its record is durable, so a power loss (page cache gone, unlike
        // the process-kill case where the OS still has the bytes) may
        // recover fewer records than were published — the owner caps
        // that overhang at its ack pipeline depth plus the one drain in
        // flight, so that slack is added unconditionally.
        self.publish_seq += wal.stats().since_checkpoint_records + MAX_PIPELINED_ACKS as u64 + 1;
        self.auto_checkpoint = options.auto_checkpoint;
        self.encode_stall = options.encode_stall_for_tests;
        self.mode = Mode::Leader(Some(wal));
        self.publish(true);
        Ok(())
    }
}

/// Journal what taking a log over found (`kind` is `recovery` for an
/// open, `promote` for a promotion): whether a checkpoint was restored,
/// how many records were replayed on top, and any damage repaired.
fn record_takeover(
    inner: &Inner,
    kind: &'static str,
    replayed: &TailPoll,
    damaged: Option<DamagedTail>,
) {
    let (checkpoint, records) = (replayed.restart.is_some(), replayed.records.len());
    let found = format!("checkpoint={checkpoint} replayed_records={records}");
    inner.journal.record(kind, found);
    if let Some(damage) = damaged {
        eprintln!(
            "annod: dataset {:?}: {damage}; recovered to the last intact record",
            inner.name
        );
        inner.journal.record("truncated_tail", damage.to_string());
    }
}
