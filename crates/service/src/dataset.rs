//! One served dataset: an [`AnnotatedRelation`](anno_store::AnnotatedRelation)
//! and its [`IncrementalMiner`](anno_mine::IncrementalMiner), behind a
//! coalescing mailbox and an atomically published snapshot.
//!
//! # Concurrency contract
//!
//! * **One owner.** The write state, the write-ahead log, the mining
//!   configuration, the auto-checkpoint policy and a follower's tail
//!   cursor belong to the dataset's one long-lived thread (`owner.rs`)
//!   and to nothing else — no lock guards them because no other thread
//!   can name them. Everything that needs that state is a message in
//!   the mailbox the thread drains: queued [`UpdateOp`]s, and the
//!   [`Request`]s behind `mine`, `verify`, `checkpoint`,
//!   `quiesce_maintenance`, `catchup_now` and `promote`. Requests are
//!   served after the ops queued before them, so each still means
//!   "flush, then …".
//! * **Readers never block on the owner.** The owner swaps one
//!   `Arc<Published>` — rule snapshot, discovery top-k and a status
//!   block, all from the same instant — once per drain.
//!   [`Dataset::snapshot`], [`Dataset::discovery`] and every `stats`-side
//!   getter take the `published` read lock only long enough to clone
//!   that `Arc`; none of them waits on a drain, a mine or an fsync.
//! * **In-place mutation, cheap publish.** The relation is a persistent
//!   segment store, so a mutation copy-on-writes at most the one segment
//!   (and posting bitset) a published snapshot still shares, and
//!   publishing clones the relation at O(#segments) pointer cost.
//! * **Epochs.** The relation's mutation epoch advances many times inside
//!   one drain, but snapshots are built only at drain boundaries: the
//!   owner asserts the published relation epoch never regresses, and a
//!   reader can only ever observe a pre- or post-drain epoch, never an
//!   intermediate one (the concurrency suite pins this down).
//! * **Exactness.** The owner applies each coalesced batch through the
//!   miner's §4.3 incremental maintenance, so every published snapshot's
//!   rules are exactly what a from-scratch mine would produce
//!   ([`Dataset::verify`] checks this on demand).
//!
//! The locks that remain on [`Inner`] are the mailbox (`queue` +
//! `queue_cv`), `published`, and the `name_cache`. The crate docs'
//! "Lock order" lists every place one is held while another is taken.

// An out-of-bounds panic while a guard is live would poison the lock.
#![deny(clippy::indexing_slicing)]

use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use anno_discover::DiscoverySnapshot;
use anno_metrics::{Event, EventJournal};
use anno_mine::IncrementalConfig;
use anno_store::ItemKind;
use anno_wal::{CheckpointPolicy, LogPosition, SyncPolicy, WalOptions, WalStats};

use crate::apply::MAX_PIPELINED_ACKS;
use crate::error::ServiceError;
use crate::metrics::{DatasetObs, Metrics, MetricsReport};
use crate::owner::{Mode, Owner, Tail};
use crate::queue::{QosClass, QueueState, UpdateOp};
use crate::snapshot::RuleSnapshot;
use crate::Unpoisoned;

/// How a durable dataset runs its write-ahead log: the log's own tuning
/// (segment size, [sync policy](anno_wal::SyncPolicy) — pass
/// `SyncPolicy::Grouped` to share one fsync window across tenants) plus
/// the [`CheckpointPolicy`] under which the writer checkpoints by itself.
/// The default is the PR-3 behavior: per-append fsync, no auto
/// checkpoints.
#[derive(Debug, Clone, Default)]
pub struct DurabilityOptions {
    /// Write-ahead-log tuning, including the sync policy.
    pub wal: WalOptions,
    /// When the writer should checkpoint without being asked. Disabled
    /// by default (all thresholds `None`).
    pub auto_checkpoint: CheckpointPolicy,
    /// Test hook: sleep this long inside the checkpoint *encode* step.
    /// Lets the offload regression test hold a checkpoint's encoder
    /// thread mid-encode and prove concurrent drains do not block on it.
    /// `None` (no stall) in production.
    pub encode_stall_for_tests: Option<Duration>,
}

/// Which side of replication a dataset is on. A **leader** owns its log
/// directory (it holds `wal.lock`) and accepts writes; a **follower**
/// tails another process's directory read-only, replays its records, and
/// fences every mutation with [`ServiceError::ReadOnlyRole`] until
/// [`Dataset::promote`] turns it into the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes; owns the log directory.
    Leader,
    /// Read-only replica replaying a leader's shipped log.
    Follower,
}

impl Role {
    /// Short label for stats lines: `leader` or `follower`.
    pub fn label(&self) -> &'static str {
        match self {
            Role::Leader => "leader",
            Role::Follower => "follower",
        }
    }
}

/// Point-in-time progress of a follower's tailing — the lag a
/// replication dashboard watches. Sequence numbers are log *segment*
/// numbers (the WAL's coarse clock); `bytes_behind` is the exact byte lag.
#[derive(Debug, Clone, Default)]
pub struct ReplicationStatus {
    /// Leader log segment the follower has applied up to.
    pub applied_seq: u64,
    /// Highest segment present in the leader's directory at the last poll.
    pub leader_seq: u64,
    /// On-disk log bytes not yet applied.
    pub bytes_behind: u64,
    /// Shipped records applied since attach.
    pub records_applied: u64,
    /// Checkpoint restarts the tail cursor performed.
    pub restarts: u64,
    /// Tail polls completed since attach.
    pub polls: u64,
    /// Set when tailing stopped on undecodable or unappliable shipped
    /// state; reads keep serving the last good prefix.
    pub failed: Option<String>,
}

/// Maintenance events each dataset retains (oldest evicted first).
const JOURNAL_CAPACITY: usize = 256;

/// Ranked discovery pairs a snapshot materializes per side (cross- and
/// within-namespace). Bounds snapshot build cost per publish; `discover`
/// queries clamp `top=K` to it.
pub const DISCOVERY_TOPK_CAP: usize = 64;

/// What readers see: swapped as one pointer by the owner, so the rule
/// snapshot, the discovery top-k (same epoch — a reader pairing the two
/// verbs sees one instant) and the status block can never disagree.
#[derive(Default)]
pub(crate) struct Published {
    pub rules: Option<Arc<RuleSnapshot>>,
    pub discovery: Option<Arc<DiscoverySnapshot>>,
    pub status: Status,
}

/// The small facts the `stats`-side getters report, copied out of the
/// owner's state at publish time.
#[derive(Default)]
pub(crate) struct Status {
    pub config: IncrementalConfig,
    /// Live tuple count.
    pub tuples: usize,
    /// Relation segments.
    pub segments: usize,
    /// Vocabulary chunks.
    pub vocab_chunks: usize,
    /// Cost of the most recent incremental discovery refresh (ns; 0
    /// until the first one).
    pub discover_last_update_ns: u64,
    /// The write-ahead log, when this dataset owns one. `None` for
    /// memory-only datasets *and* for followers — a follower replays
    /// somebody else's log.
    pub wal: Option<WalStatus>,
    pub auto_checkpoint: CheckpointPolicy,
    /// Tailing progress; `Some` exactly while the dataset is a follower.
    pub replication: Option<ReplicationStatus>,
}

pub(crate) struct WalStatus {
    pub stats: WalStats,
    pub sync: SyncPolicy,
}

/// Where the owner sends a request's answer. A hung-up channel (the
/// owner dropped the request: shutdown, fence, or panic) reads as
/// [`ServiceError::ShutDown`] on the caller's side.
pub(crate) type Reply<T> = mpsc::Sender<T>;

pub(crate) type CheckpointResult = Result<(LogPosition, usize), ServiceError>;

/// A control message to the owner thread.
pub(crate) enum Request {
    Mine(Reply<Result<Arc<RuleSnapshot>, ServiceError>>),
    Verify(Reply<Result<bool, ServiceError>>),
    Checkpoint(Reply<CheckpointResult>),
    /// Answered once no checkpoint is in flight.
    Quiesce(Reply<()>),
    Catchup(Reply<Result<ReplicationStatus, ServiceError>>),
    Promote(DurabilityOptions, Reply<Result<(), ServiceError>>),
    /// From a checkpoint's encoder thread: the payload write is over and
    /// the owner should finish (or fail) the in-flight checkpoint.
    CheckpointEncoded,
}

pub(crate) struct Inner {
    pub name: String,
    /// The mailbox: queued ops and control requests, plus the admission
    /// and flush-barrier accounting the owner keeps under the same lock.
    pub queue: Mutex<QueueState>,
    pub queue_cv: Condvar,
    pub published: RwLock<Arc<Published>>,
    /// Positive-only lookaside over the vocabulary HAMT for protocol-side
    /// name resolution, one map per [`ItemKind`] namespace (indexed by the
    /// kind's discriminant). Interning is append-only, so a cached hit can
    /// never go stale; misses are *never* cached — a later drain may
    /// intern the name.
    name_cache: [RwLock<anno_store::fxhash::FxHashMap<String, anno_store::Item>>; 3],
    /// Shared (`Arc`) so the WAL observer can record fsync latencies
    /// into the same histograms.
    pub metrics: Arc<Metrics>,
    /// Bounded journal of maintenance events (recovery, checkpoints,
    /// fencing) — the `events` verb reads it.
    pub journal: Arc<EventJournal>,
}

/// A served dataset handle. Cheap to clone via `Arc` (the [`Service`]
/// registry hands out `Arc<Dataset>`); all methods take `&self`.
///
/// [`Service`]: crate::service::Service
pub struct Dataset {
    inner: Arc<Inner>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Dataset {
    /// Create an empty, purely in-memory dataset and start its owner
    /// thread. Errs (instead of panicking) if the OS refuses a new
    /// thread, so a registry survives resource exhaustion.
    pub fn spawn(name: &str, config: IncrementalConfig) -> Result<Dataset, ServiceError> {
        Dataset::boot(name, config, Mode::Leader(None), None)
    }

    /// Open a **durable** dataset rooted at directory `dir`: a fresh
    /// follower of the directory that takes over at once — the same
    /// take-over [`Dataset::promote`] runs, on the caller's thread before
    /// the owner thread starts. It takes `wal.lock`, restores the latest
    /// checkpoint (relation + miner; the discovery index is rebuilt from
    /// the miner's table), replays the log tail through the fold a
    /// follower's poll uses, screens the result with
    /// [`IncrementalMiner::validate_against`](anno_mine::IncrementalMiner::validate_against),
    /// then starts the owner with every future drain logged before it is
    /// applied.
    ///
    /// A torn or bit-rotted log tail is recovered to the last intact
    /// record and reported to stderr, never fatal. `config` only applies
    /// when the directory holds no mined state; a restored miner keeps the
    /// configuration it was checkpointed with (and any replayed `mine`
    /// record carries its own).
    pub fn open(
        name: &str,
        config: IncrementalConfig,
        dir: &Path,
    ) -> Result<Dataset, ServiceError> {
        Dataset::open_with(name, config, dir, DurabilityOptions::default())
    }

    /// [`Dataset::open`] with explicit [`DurabilityOptions`]: WAL tuning
    /// (segment size, per-append vs. grouped sync) and the automatic
    /// checkpoint policy the owner enforces after each drain.
    pub fn open_with(
        name: &str,
        config: IncrementalConfig,
        dir: &Path,
        options: DurabilityOptions,
    ) -> Result<Dataset, ServiceError> {
        // The tail is never polled: the take-over reads the whole log.
        let mode = Mode::Follower(Tail::new(dir, Duration::ZERO));
        Dataset::boot(name, config, mode, Some(options))
    }

    /// Shared constructor: an owner in `mode`, taken over onto its log
    /// first when `take_over` says how to run it, then its thread.
    fn boot(
        name: &str,
        config: IncrementalConfig,
        mode: Mode,
        take_over: Option<DurabilityOptions>,
    ) -> Result<Dataset, ServiceError> {
        let inner = Arc::new(Inner {
            name: name.to_string(),
            queue: Mutex::new(QueueState::default()),
            queue_cv: Condvar::new(),
            published: RwLock::default(),
            name_cache: Default::default(),
            metrics: Arc::new(Metrics::new()),
            journal: Arc::new(EventJournal::new(JOURNAL_CAPACITY)),
        });
        let mut owner = Owner::new(Arc::clone(&inner), config, mode);
        if let Some(options) = take_over {
            owner.take_over("recovery", options)?;
        }
        Ok(Dataset {
            inner,
            worker: Mutex::new(Some(owner.start()?)),
        })
    }

    /// The dataset's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// What the owner last published. A poisoned lock is read through:
    /// the only write is a pointer swap, which leaves the value valid at
    /// every step.
    fn published(&self) -> Arc<Published> {
        let guard = self.inner.published.read();
        Arc::clone(&guard.unwrap_or_else(PoisonError::into_inner))
    }

    fn shut_down(&self) -> ServiceError {
        ServiceError::ShutDown(self.inner.name.clone())
    }

    fn not_mined(&self) -> ServiceError {
        ServiceError::NotMined(self.inner.name.clone())
    }

    /// Post a control request to the owner and wait for its answer.
    fn request<T>(&self, make: impl FnOnce(Reply<T>) -> Request) -> Result<T, ServiceError> {
        let (reply, answer) = mpsc::channel();
        {
            let mut q = self.inner.queue.lock().unpoisoned("queue lock");
            if q.shutdown {
                return Err(self.shut_down());
            }
            q.requests.push_back(make(reply));
            self.inner.queue_cv.notify_all();
        }
        answer.recv().map_err(|_| self.shut_down())
    }

    /// The mining configuration this dataset currently runs under. For a
    /// follower this tracks the leader: replayed `mine` records and
    /// restored checkpoints carry the leader's configuration with them.
    pub fn config(&self) -> IncrementalConfig {
        self.published().status.config
    }

    /// Queue one mutation. Returns the op's sequence number (pass it to
    /// nothing — [`Dataset::flush`] waits for everything queued so far).
    ///
    /// Applies backpressure: past the queue's high-water mark of pending
    /// individual updates, this blocks until the owner drains, so a fast
    /// client cannot grow the daemon's memory without bound. An op larger
    /// than the whole cap is still accepted once the queue is empty.
    pub fn enqueue(&self, op: UpdateOp) -> Result<u64, ServiceError> {
        self.submit(op, false).0
    }

    /// Queue one mutation without ever blocking: the admission path for
    /// the sharded front end, whose shard loops must not park on a
    /// tenant's backpressure condvar. When the bounded queue (or the
    /// grouped-sync unacked-drain window) is full the op is refused with
    /// the typed [`ServiceError::Overloaded`] soft error — nothing is
    /// enqueued, and the shed is counted in `anno_admission_shed_ops`.
    /// Like [`Dataset::enqueue`], an op larger than the whole cap is
    /// still admitted once the queue is empty.
    pub fn try_enqueue(&self, op: UpdateOp) -> Result<u64, ServiceError> {
        self.submit(op, true).0
    }

    /// [`Dataset::try_enqueue`] when `shed`, else [`Dataset::enqueue`].
    /// Also returns the tenant's QoS class as it stood under the queue
    /// lock the admission decision took (`None` if the role fence
    /// refused the op before the lock), so the front end's per-class
    /// bookkeeping costs a queued write no second lookup and no second
    /// lock.
    pub(crate) fn submit(
        &self,
        op: UpdateOp,
        shed: bool,
    ) -> (Result<u64, ServiceError>, Option<QosClass>) {
        if let Err(fenced) = self.check_writable() {
            return (Err(fenced), None);
        }
        let mut q = self.inner.queue.lock().unpoisoned("queue lock");
        loop {
            // A fence sets both flags and notifies, so a blocked client
            // fails fast instead of hanging on the condvar.
            if q.shutdown {
                return (Err(self.shut_down()), Some(q.class));
            }
            // A full unacked-drain window sheds; it never blocks.
            let full = !q.pending.is_empty()
                && (q.pending_updates + op.len() > q.cap_updates
                    || (shed && q.unacked >= MAX_PIPELINED_ACKS));
            if !full {
                break;
            }
            if shed {
                self.inner.metrics.record_admission_shed();
                let overloaded = ServiceError::Overloaded {
                    dataset: self.inner.name.clone(),
                    pending: q.pending_updates as u64,
                    cap: q.cap_updates as u64,
                };
                return (Err(overloaded), Some(q.class));
            }
            q = self.inner.queue_cv.wait(q).unpoisoned("queue lock");
        }
        let class = q.class;
        (Ok(self.admit(&mut q, op)), Some(class))
    }

    /// Put an admitted op in the mailbox and wake the owner.
    fn admit(&self, q: &mut QueueState, op: UpdateOp) -> u64 {
        self.inner.metrics.record_enqueue(op.len() as u64);
        q.pending_updates += op.len();
        q.pending.push(op);
        q.enqueued += 1;
        self.inner.queue_cv.notify_all();
        q.enqueued
    }

    /// `true` while [`Dataset::try_enqueue`] would shed a one-update op:
    /// the bounded queue is at its cap or the unacked-drain window is
    /// full. The sharded front end polls this to decide when to suspend
    /// a flooding connection's reads.
    pub fn overloaded(&self) -> bool {
        let q = self.inner.queue.lock().unpoisoned("queue lock");
        !q.pending.is_empty()
            && (q.pending_updates >= q.cap_updates || q.unacked >= MAX_PIPELINED_ACKS)
    }

    /// `true` once the owner has drained back below half the cap (and
    /// the unacked-drain window has room): the hysteresis point at which
    /// a suspended connection's reads are resumed, so a tenant does not
    /// flap between suspended and resumed at the cap boundary.
    pub fn admission_ready(&self) -> bool {
        let q = self.inner.queue.lock().unpoisoned("queue lock");
        q.pending_updates <= q.cap_updates / 2 && q.unacked < MAX_PIPELINED_ACKS
    }

    /// The admission cap on pending individual updates.
    pub fn queue_cap(&self) -> usize {
        self.inner.queue.lock().unpoisoned("queue lock").cap_updates
    }

    /// Set the admission cap on pending individual updates (min 1).
    /// Shrinking the cap never drops queued work — it only gates new
    /// admissions; blocked [`Dataset::enqueue`] callers re-check on the
    /// next drain.
    pub fn set_queue_cap(&self, cap: usize) {
        let mut q = self.inner.queue.lock().unpoisoned("queue lock");
        q.cap_updates = cap.max(1);
    }

    /// The tenant's QoS class.
    pub fn qos_class(&self) -> QosClass {
        self.inner.queue.lock().unpoisoned("queue lock").class
    }

    /// Reclassify the tenant (protocol verb `class <ds>
    /// interactive|bulk`); `anno_admission_bulk_class` reports it, so
    /// dashboards can slice queue depth by class.
    pub fn set_qos_class(&self, class: QosClass) {
        self.inner.queue.lock().unpoisoned("queue lock").class = class;
    }

    /// Test hook: while paused the owner leaves its mailbox untouched, so
    /// admission tests can fill the bounded queue deterministically.
    /// Cleared automatically at shutdown so the final drain still runs.
    #[doc(hidden)]
    pub fn pause_writer_for_tests(&self, paused: bool) {
        let mut q = self.inner.queue.lock().unpoisoned("queue lock");
        q.paused = paused;
        self.inner.queue_cv.notify_all();
    }

    /// Block until every op enqueued before this call has been applied and
    /// its snapshot published — however long a legitimate pass takes (a
    /// budget-triggered full re-mine can run minutes on large relations;
    /// an arbitrary timeout here would misreport still-queued work as
    /// failed and invite duplicate re-submission). Errs only when the
    /// owner actually died with the work undone.
    pub fn flush(&self) -> Result<(), ServiceError> {
        self.inner.metrics.record_flush();
        let mut q = self.inner.queue.lock().unpoisoned("queue lock");
        let target = q.enqueued;
        while q.applied < target {
            if q.writer_dead {
                return Err(self.shut_down());
            }
            q = self.inner.queue_cv.wait(q).unpoisoned("queue lock");
        }
        Ok(())
    }

    /// Role fence for the queueing paths: a follower rejects writes with
    /// a *typed* error a client can distinguish from a dead owner
    /// ([`ServiceError::ShutDown`]) — a follower is healthy, just not the
    /// leader. (`mine` and `checkpoint` are fenced by the owner itself.)
    fn check_writable(&self) -> Result<(), ServiceError> {
        match self.role() {
            Role::Leader => Ok(()),
            Role::Follower => Err(ServiceError::ReadOnlyRole(self.inner.name.clone())),
        }
    }

    /// Drain the queue, then mine the relation from scratch and publish
    /// the first snapshot (or re-mine and re-publish if already mined).
    /// On a durable dataset the mine event is logged first, so recovery
    /// re-derives the rule set at the same point in the op stream even
    /// before any checkpoint exists.
    ///
    /// An unloggable mine **disables the dataset** — the same fencing the
    /// owner applies to an unloggable drain. Serving a freshly mined
    /// snapshot the log never heard of would let served state diverge
    /// from what a restart recovers; one failure policy covers both
    /// mutation paths. A fenced dataset refuses further mines outright.
    pub fn mine(&self) -> Result<Arc<RuleSnapshot>, ServiceError> {
        self.request(Request::Mine)?
    }

    /// The latest published snapshot. Never blocks on the write path.
    pub fn snapshot(&self) -> Result<Arc<RuleSnapshot>, ServiceError> {
        self.try_snapshot().ok_or_else(|| self.not_mined())
    }

    /// The latest snapshot, if one has been published.
    pub fn try_snapshot(&self) -> Option<Arc<RuleSnapshot>> {
        self.inner.metrics.record_snapshot_read();
        self.published().rules.clone()
    }

    /// The latest published discovery top-k. Published in lock-step with
    /// the rule snapshot (same epoch), so pairing the two verbs reads one
    /// consistent instant. Never blocks on the write path.
    pub fn discovery(&self) -> Result<Arc<DiscoverySnapshot>, ServiceError> {
        self.try_discovery().ok_or_else(|| self.not_mined())
    }

    /// The latest discovery top-k, if one has been published.
    pub fn try_discovery(&self) -> Option<Arc<DiscoverySnapshot>> {
        self.published().discovery.clone()
    }

    /// Resolve `name` in namespace `kind` through the per-dataset
    /// lookaside cache, falling back to the published snapshot's
    /// vocabulary HAMT on a miss. Only **positive** results are cached:
    /// interning is append-only, so a hit can never go stale, while an
    /// absent name may be interned by the very next drain.
    pub fn resolve_cached(
        &self,
        vocab: &anno_store::Vocabulary,
        kind: ItemKind,
        name: &str,
    ) -> Option<anno_store::Item> {
        let cache = self.inner.name_cache.get(kind as usize)?;
        if let Some(item) = cache.read().unpoisoned("name cache lock").get(name) {
            self.inner.metrics.record_name_cache(true);
            return Some(*item);
        }
        let item = vocab.get(kind, name)?;
        self.inner.metrics.record_name_cache(false);
        cache
            .write()
            .unpoisoned("name cache lock")
            .insert(name.to_string(), item);
        Some(item)
    }

    /// `true` once [`Dataset::mine`] has published a snapshot.
    pub fn is_mined(&self) -> bool {
        self.published().rules.is_some()
    }

    /// The paper's validation check: drain the queue, then compare the
    /// maintained rules against a from-scratch mine of the live relation
    /// — and the incrementally maintained discovery index against a full
    /// rescan of the miner's itemset table.
    pub fn verify(&self) -> Result<bool, ServiceError> {
        self.request(Request::Verify)?
    }

    /// `true` iff this dataset logs its drains to a write-ahead log.
    /// Followers are not durable in this sense: they replay somebody
    /// else's log and own none.
    pub fn is_durable(&self) -> bool {
        self.published().status.wal.is_some()
    }

    /// Write-ahead-log counters, if the dataset is durable, as of the
    /// last drain, mine, or checkpoint.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.published().status.wal.as_ref().map(|wal| wal.stats)
    }

    /// Short label of the WAL's sync policy (`per_append`, `none`,
    /// `grouped`), if the dataset is durable.
    pub fn sync_policy_label(&self) -> Option<&'static str> {
        let published = self.published();
        published.status.wal.as_ref().map(|wal| wal.sync.label())
    }

    /// Take a durability checkpoint: drain the queue, persist the
    /// relation and miner state at the current log
    /// position, and truncate the sealed log segments behind it. Returns
    /// the checkpoint's log position and payload size in bytes.
    ///
    /// After this, recovery restores the checkpoint and replays only
    /// drains logged after it — recovery time (and disk footprint) is
    /// once again proportional to the post-checkpoint delta, not the
    /// dataset's full history.
    ///
    /// The owner only *captures* the state (a persistent relation clone
    /// plus a miner clone — pointer-and-rule-table cost, never O(|D|))
    /// and pins the log position; the O(|D|) encode and the payload
    /// write happen on a transient encoder thread, so a checkpoint of a
    /// large dataset stalls neither drains nor other clients. (This is
    /// what makes the automatic policy safe to fire on the write path.)
    /// A checkpoint requested while another is still encoding waits its
    /// turn: positions commit in capture order.
    pub fn checkpoint(&self) -> Result<(LogPosition, usize), ServiceError> {
        self.request(Request::Checkpoint)?
    }

    /// Wait for any in-flight checkpoint commit to land.
    ///
    /// Checkpoint encodes run off the owner thread, so counters and
    /// durable artifacts trail the drain that tripped the policy. Tests
    /// and operational tooling call this to observe a settled state
    /// without forcing an extra checkpoint of their own.
    pub fn quiesce_maintenance(&self) {
        // A dataset that is shut down has nothing in flight either.
        let _ = self.request(Request::Quiesce);
    }

    /// Point-in-time operation counters.
    pub fn metrics(&self) -> MetricsReport {
        self.inner.metrics.report()
    }

    /// Everything this dataset reports, frozen once: the queue's levels
    /// (one lock, released before anything else is touched), what the
    /// owner last published (one pointer clone), then the counters and
    /// histogram snapshots. `stats`, `metrics` and `GET /metrics` are
    /// renderings of this value.
    pub fn observability(&self) -> DatasetObs {
        self.freeze().0
    }

    /// [`Dataset::observability`], plus the publication its levels were
    /// read from — for `stats <ds>`, which also prints facts that are
    /// not metrics (thresholds, miner cases, the log position) and must
    /// print them from the same instant.
    pub(crate) fn freeze(&self) -> (DatasetObs, Arc<Published>) {
        let (queue_depth, unacked_drains, queue_cap, class) = {
            let q = self.inner.queue.lock().unpoisoned("queue lock");
            (q.pending_updates, q.unacked, q.cap_updates, q.class)
        };
        let published = self.published();
        let status = &published.status;
        let wal_backlog_bytes = (status.wal.as_ref()).map_or(0, |w| w.stats.since_checkpoint_bytes);
        // A leader has no tailing progress, whatever it was before.
        let lag = status.replication.as_ref();
        let discovery = published.discovery.as_deref();
        let obs = DatasetObs {
            events_total: self.events_total(),
            queue_depth: queue_depth as u64,
            unacked_drains: unacked_drains as u64,
            queue_cap: queue_cap as u64,
            qos_bulk: class == QosClass::Bulk,
            mined: published.rules.is_some(),
            live_tuples: status.tuples as u64,
            segments: status.segments as u64,
            vocab_chunks: status.vocab_chunks as u64,
            wal_backlog_bytes,
            discover_pairs_tracked: discovery.map_or(0, |d| d.pairs_tracked),
            discover_topk_cross: discovery.map_or(0, |d| d.cross.len() as u64),
            discover_topk_within: discovery.map_or(0, |d| d.within.len() as u64),
            discover_last_update_ns: status.discover_last_update_ns,
            follower: lag.is_some(),
            repl_applied_seq: lag.map_or(0, |r| r.applied_seq),
            repl_leader_seq: lag.map_or(0, |r| r.leader_seq),
            repl_bytes_behind: lag.map_or(0, |r| r.bytes_behind),
            repl_records_applied: lag.map_or(0, |r| r.records_applied),
            repl_restarts: lag.map_or(0, |r| r.restarts),
            ..self.inner.metrics.observe()
        };
        (obs, published)
    }

    /// The most recent `n` maintenance events, oldest first.
    pub fn events(&self, n: usize) -> Vec<Event> {
        self.inner.journal.recent(n)
    }

    /// Maintenance events ever recorded, including evicted ones.
    pub fn events_total(&self) -> u64 {
        self.inner.journal.total()
    }

    /// Live counters, for in-crate layers that record query latencies.
    pub(crate) fn raw_metrics(&self) -> &Metrics {
        self.inner.metrics.as_ref()
    }

    /// Live tuple count as of the last completed write pass. Does not
    /// wait on an in-flight drain (prefer [`RuleSnapshot::db_size`] once
    /// mined).
    pub fn live_tuples(&self) -> usize {
        self.published().status.tuples
    }

    /// Number of coalesced drains the owner has taken off the queue — the
    /// `M` the publish-cost model amortizes over (stress suites pin
    /// readers across a minimum drain count with this).
    pub fn drains(&self) -> u64 {
        self.inner.queue.lock().unpoisoned("queue lock").drains
    }

    /// Which side of replication this dataset is on right now.
    pub fn role(&self) -> Role {
        match self.published().status.replication {
            Some(_) => Role::Follower,
            None => Role::Leader,
        }
    }

    /// The follower's tailing progress, as of its last poll. `None` for
    /// leaders (including freshly promoted ones).
    pub fn replication_status(&self) -> Option<ReplicationStatus> {
        self.published().status.replication.clone()
    }

    /// Attach a **follower** replica to a leader's log directory `dir`:
    /// the owner thread polls the directory every `poll`, replays shipped
    /// checkpoints and records through the same apply path recovery
    /// uses, and publishes read-only snapshots as the leader's drains
    /// arrive. The directory is never locked or written — the leader may
    /// be live in another process (or another thread) the whole time.
    ///
    /// Every mutation verb on the returned dataset fails with
    /// [`ServiceError::ReadOnlyRole`] until [`Dataset::promote`] turns it
    /// into the leader. `config` only seeds the pre-mine phase; replayed
    /// `mine` records and checkpoints carry the leader's configuration.
    pub fn follow(
        name: &str,
        config: IncrementalConfig,
        dir: &Path,
        poll: Duration,
    ) -> Result<Dataset, ServiceError> {
        let ds = Dataset::boot(name, config, Mode::Follower(Tail::new(dir, poll)), None)?;
        ds.inner
            .journal
            .record("attach", format!("dir={}", dir.display()));
        Ok(ds)
    }

    /// Force a tail poll now and wait for it to finish, returning the
    /// post-poll progress — `catchup` for clients that just wrote to the
    /// leader and want the follower to reflect it. The poll starts after
    /// this request, so it sees every write that preceded the call. Errs
    /// if this dataset is not a follower or its tailing has failed.
    pub fn catchup_now(&self) -> Result<ReplicationStatus, ServiceError> {
        self.request(Request::Catchup)?
    }

    /// Promote this follower to leader with default [`DurabilityOptions`].
    /// See [`Dataset::promote_with`].
    pub fn promote(&self) -> Result<(), ServiceError> {
        self.promote_with(DurabilityOptions::default())
    }

    /// Promote a follower to **leader**: acquire the log directory's
    /// `wal.lock` (the fencing point — a still-live leader refuses the
    /// takeover with a lock error; a dead leader's stale lock is
    /// reclaimed), poll once more under it, repair what lies past the
    /// cursor (this resolves what a tailing follower never can: whether a
    /// torn tip was a mid-write or real damage), and start accepting
    /// writes on top of the state the follower already has. A caught-up
    /// follower replays nothing; only if the dead leader left a
    /// checkpoint other than the one this follower last adopted does it
    /// restart from that checkpoint, as a cold open would. It is the
    /// take-over [`Dataset::open`] runs on a fresh cursor, resume screen
    /// included: whatever the promotion folded in is checked with
    /// [`IncrementalMiner::validate_against`](anno_mine::IncrementalMiner::validate_against).
    ///
    /// A promotion refused by the lock or by an undecodable checkpoint
    /// releases the lock again and leaves the dataset a follower, still
    /// tailing and still serving its last prefix; a shipped record that
    /// cannot be applied stops the tailing as it would in any poll.
    ///
    /// Publish epochs stay monotone across the role flip.
    pub fn promote_with(&self, options: DurabilityOptions) -> Result<(), ServiceError> {
        self.request(|reply| Request::Promote(options, reply))?
    }

    /// Stop the owner thread, draining anything already queued. Further
    /// enqueues — and control requests still waiting — fail with
    /// [`ServiceError::ShutDown`]. An in-flight checkpoint commit lands
    /// before this returns. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().unpoisoned("queue lock");
            q.shutdown = true;
            // A paused owner (test hook) must still run its final drain.
            q.paused = false;
            self.inner.queue_cv.notify_all();
        }
        if let Some(handle) = self.worker.lock().unpoisoned("worker lock").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Dataset {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.inner.name)
            .field("mined", &self.is_mined())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::canonicalize_batch;
    use crate::queue::coalesce;
    use anno_mine::Thresholds;
    use anno_store::{snapshot_to_string, AnnotationUpdate, TupleId};

    fn config() -> IncrementalConfig {
        IncrementalConfig {
            thresholds: Thresholds::new(0.4, 0.7),
            ..Default::default()
        }
    }

    const FIG4: [&str; 5] = [
        "28 85 Annot_1",
        "28 85 Annot_1",
        "28 85 Annot_1",
        "28 85",
        "17 99",
    ];

    fn loaded() -> Dataset {
        let ds = Dataset::spawn("db", config()).unwrap();
        ds.enqueue(UpdateOp::InsertRows(
            FIG4.iter().map(|s| s.to_string()).collect(),
        ))
        .unwrap();
        ds
    }

    #[test]
    fn spawn_refuses_a_retention_the_miner_would_assert_on() {
        let zero = IncrementalConfig {
            retention: 0.0,
            ..config()
        };
        match Dataset::spawn("db", zero) {
            Err(ServiceError::BadCommand(msg)) => assert!(msg.contains("(0, 1]"), "{msg}"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    #[test]
    fn pre_mine_loading_then_mine_publishes() {
        let ds = loaded();
        assert!(!ds.is_mined());
        assert!(matches!(ds.snapshot(), Err(ServiceError::NotMined(_))));
        let snap = ds.mine().unwrap();
        assert_eq!(snap.db_size(), 5);
        assert_eq!(snap.rules().len(), 3);
        assert_eq!(snap.epoch(), 1);
    }

    #[test]
    fn queued_updates_republish_and_stay_exact() {
        let ds = loaded();
        let first = ds.mine().unwrap();
        ds.enqueue(UpdateOp::AnnotateNamed(vec![(
            TupleId(3),
            "Annot_1".into(),
        )]))
        .unwrap();
        ds.enqueue(UpdateOp::InsertRows(vec!["17 99 Annot_2".into()]))
            .unwrap();
        ds.flush().unwrap();
        let snap = ds.snapshot().unwrap();
        assert!(snap.epoch() > first.epoch());
        assert_eq!(snap.db_size(), 6);
        // The pre-update snapshot is untouched (copy-on-write relation).
        assert_eq!(first.db_size(), 5);
        assert!(ds.verify().unwrap());
        let m = ds.metrics();
        assert!(m.batches_applied >= 2);
        assert!(m.snapshots_published >= 2);
    }

    #[test]
    fn deletion_ops_flow_through_the_miner() {
        let ds = loaded();
        ds.mine().unwrap();
        ds.enqueue(UpdateOp::RemoveNamed(vec![
            (TupleId(0), "Annot_1".into()),
            (TupleId(0), "NoSuchAnnotation".into()),
        ]))
        .unwrap();
        ds.enqueue(UpdateOp::DeleteTuples(vec![TupleId(4)]))
            .unwrap();
        ds.flush().unwrap();
        let snap = ds.snapshot().unwrap();
        assert_eq!(snap.db_size(), 4);
        assert!(ds.verify().unwrap());
        assert!(snap.stats().deletion_batches >= 2);
    }

    #[test]
    fn ineffective_drains_neither_republish_nor_pollute_the_vocab() {
        let ds = loaded();
        let snap = ds.mine().unwrap();
        // Dead target, duplicate annotation, unknown removal, dead delete:
        // all no-ops; none may cost a republish or intern a stray name.
        ds.enqueue(UpdateOp::AnnotateNamed(vec![(
            TupleId(999),
            "StrayName".into(),
        )]))
        .unwrap();
        ds.enqueue(UpdateOp::AnnotateNamed(vec![(
            TupleId(0),
            "Annot_1".into(),
        )]))
        .unwrap();
        ds.enqueue(UpdateOp::RemoveNamed(vec![(TupleId(0), "NoSuch".into())]))
            .unwrap();
        ds.enqueue(UpdateOp::DeleteTuples(vec![TupleId(999)]))
            .unwrap();
        let batches_before = ds.metrics().batches_applied;
        ds.flush().unwrap();
        let after = ds.snapshot().unwrap();
        assert_eq!(
            after.epoch(),
            snap.epoch(),
            "no-op drain must not republish"
        );
        assert_eq!(
            ds.metrics().batches_applied,
            batches_before,
            "prefiltered batches must not count as applied"
        );
        assert!(
            after
                .relation()
                .vocab()
                .get(anno_store::ItemKind::Annotation, "StrayName")
                .is_none(),
            "dead-target annotate must not intern its name"
        );
        // An effective op afterwards still publishes normally.
        ds.enqueue(UpdateOp::AnnotateNamed(vec![(
            TupleId(3),
            "Annot_1".into(),
        )]))
        .unwrap();
        ds.flush().unwrap();
        assert!(ds.snapshot().unwrap().epoch() > snap.epoch());
        assert!(ds.verify().unwrap());
    }

    #[test]
    fn annotating_known_names_never_copies_the_vocabulary() {
        let ds = loaded();
        let before = ds.mine().unwrap();
        // Every name below is already interned: the apply path must
        // resolve them read-only, so the published snapshot keeps sharing
        // the vocabulary `Arc` across the drain.
        ds.enqueue(UpdateOp::AnnotateNamed(vec![
            (TupleId(3), "Annot_1".into()),
            (TupleId(4), "Annot_1".into()),
        ]))
        .unwrap();
        ds.flush().unwrap();
        let after = ds.snapshot().unwrap();
        assert!(after.epoch() > before.epoch(), "drain was effective");
        assert!(
            after.relation().shares_vocab_with(before.relation()),
            "annotate-only drain over known names must not copy the interner"
        );
        // A genuinely new name still interns (and unshares) as intended.
        ds.enqueue(UpdateOp::InsertRows(vec!["55 66 Fresh_Ann".into()]))
            .unwrap();
        ds.flush().unwrap();
        let third = ds.snapshot().unwrap();
        assert!(!third.relation().shares_vocab_with(after.relation()));
        assert!(third
            .relation()
            .vocab()
            .get(anno_store::ItemKind::Annotation, "Fresh_Ann")
            .is_some());
    }

    #[test]
    fn insert_heavy_drains_share_all_non_tail_vocab_chunks() {
        use anno_store::{ItemKind, VOCAB_CHUNK_CAP};
        // Seed enough distinct data values that the data namespace spans
        // several full arena chunks before the drain under test.
        let ds = Dataset::spawn("db", config()).unwrap();
        let rows: Vec<String> = (0..(VOCAB_CHUNK_CAP * 2 + 40))
            .map(|i| format!("{} {}", 10_000 + i, 90_000 + i))
            .collect();
        ds.enqueue(UpdateOp::InsertRows(rows)).unwrap();
        let before = ds.mine().unwrap();
        let pre_data_count = before.relation().vocab().count(ItemKind::Data);
        let pre_chunks = before.relation().vocab_chunk_count();

        // Insert-heavy drain: fresh data values AND fresh annotation
        // names, the worst case for a monolithic interner.
        ds.enqueue(UpdateOp::InsertRows(
            (0..64)
                .map(|i| format!("{} New_Ann_{i}", 500_000 + i))
                .collect(),
        ))
        .unwrap();
        ds.flush().unwrap();
        let after = ds.snapshot().unwrap();
        assert!(
            !after.relation().shares_vocab_with(before.relation()),
            "fresh names must unshare the outer vocabulary"
        );
        // Chunk-level sharing is exact: only the partial data tail chunk
        // is copied (the annotation namespace had no full chunks; its
        // pre-drain tail — Annot-free here — was empty or partial).
        let shared = after.relation().vocab_shared_chunks_with(before.relation());
        let data_tail_partial = usize::from(pre_data_count % VOCAB_CHUNK_CAP != 0);
        assert_eq!(
            shared,
            pre_chunks - data_tail_partial,
            "insert-heavy drain must keep all non-tail chunks shared \
             (pre-drain {pre_chunks} chunks)"
        );
        assert!(
            shared >= pre_data_count / VOCAB_CHUNK_CAP,
            "every full data chunk stays shared"
        );
        assert!(ds.verify().unwrap());
    }

    #[test]
    fn mis_kinded_annotate_is_dropped_not_fatal() {
        // A data-kind Item in an annotation op would panic the store's
        // annotate path inside the writer; prefilter must screen it out so
        // the dataset survives (previously: dead writer + 120s flush hang).
        let ds = loaded();
        ds.mine().unwrap();
        ds.enqueue(UpdateOp::Annotate(vec![AnnotationUpdate {
            tuple: TupleId(0),
            annotation: anno_store::Item::data(42),
        }]))
        .unwrap();
        ds.enqueue(UpdateOp::RemoveAnnotations(vec![AnnotationUpdate {
            tuple: TupleId(0),
            annotation: anno_store::Item::data(42),
        }]))
        .unwrap();
        ds.flush().unwrap();
        assert!(ds.verify().unwrap(), "dataset still serving and exact");
    }

    #[test]
    fn backpressure_blocks_enqueue_without_deadlock_or_loss() {
        let ds = loaded();
        ds.mine().unwrap();
        // Tiny high-water mark: every enqueue below must ride through the
        // wait path at least once and still land exactly once.
        ds.inner.queue.lock().unwrap().cap_updates = 2;
        for round in 0..20u32 {
            ds.enqueue(UpdateOp::InsertRows(vec![
                format!("{} {}", 1_000 + round, 2_000 + round),
                format!("{} {}", 3_000 + round, 4_000 + round),
            ]))
            .unwrap();
        }
        ds.flush().unwrap();
        let snap = ds.snapshot().unwrap();
        assert_eq!(
            snap.db_size(),
            5 + 40,
            "no queued row lost under backpressure"
        );
        assert!(ds.verify().unwrap());
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("anno-dataset-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn scattered_batches_apply_in_segment_order_and_stay_exact() {
        // Two datasets, identical updates, opposite within-batch orders:
        // the writer's segment-locality sort must make them converge to
        // byte-identical state (same interning order included), and the
        // maintained rules must stay exact under the reordering.
        let rows: Vec<String> = (0..40).map(|i| format!("{} {}", i % 7, 100 + i)).collect();
        let mut batch: Vec<(TupleId, String)> = (0..40)
            .map(|i| (TupleId(i), format!("Ann_{}", i % 5)))
            .collect();
        let make = |batch: &[(TupleId, String)]| {
            let ds = Dataset::spawn("db", config()).unwrap();
            ds.enqueue(UpdateOp::InsertRows(rows.clone())).unwrap();
            ds.mine().unwrap();
            ds.enqueue(UpdateOp::AnnotateNamed(batch.to_vec())).unwrap();
            ds.enqueue(UpdateOp::DeleteTuples(vec![
                TupleId(33),
                TupleId(2),
                TupleId(17),
            ]))
            .unwrap();
            ds.flush().unwrap();
            assert!(ds.verify().unwrap());
            snapshot_to_string(ds.snapshot().unwrap().relation())
        };
        let forward = make(&batch);
        batch.reverse();
        let reversed = make(&batch);
        assert_eq!(forward, reversed, "apply order is canonical per batch");
    }

    #[test]
    fn open_refuses_a_text_checkpoint_and_leaves_the_directory_untouched() {
        use anno_store::codec::{put_str, put_u64};
        let dir = test_dir("text-checkpoint");
        let snapshot_text;
        {
            let ds = Dataset::open("db", config(), &dir).unwrap();
            ds.enqueue(UpdateOp::InsertRows(
                FIG4.iter().map(|s| s.to_string()).collect(),
            ))
            .unwrap();
            ds.mine().unwrap();
            ds.checkpoint().unwrap();
            snapshot_text = snapshot_to_string(ds.snapshot().unwrap().relation());
            ds.enqueue(UpdateOp::AnnotateNamed(vec![(
                TupleId(3),
                "Annot_1".into(),
            )]))
            .unwrap();
            ds.flush().unwrap();
        }
        // The payload older builds framed: the snapshot text, the miner's
        // checkpoint text, the publish sequence, the discovery text.
        let position = anno_wal::checkpoint::read_checkpoint(&dir)
            .unwrap()
            .unwrap()
            .position;
        let mut old = Vec::new();
        put_str(&mut old, &snapshot_text);
        old.push(1);
        put_str(
            &mut old,
            "annomine-checkpoint v1\nthresholds 0.4 0.7\nretention 0.5\nbase_size 5\n\
             added_since 0\ndb_size 5\nstats 1 0 0 0 0 0\nitemset 4 0\nend\n",
        );
        put_u64(&mut old, 3);
        old.push(1);
        put_str(&mut old, "anno-discover v1\nstats 0 1 0\nend\n");
        anno_wal::checkpoint::write_checkpoint(&dir, position, &old).unwrap();

        let files = || {
            let mut files = std::collections::BTreeMap::new();
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.file_name().unwrap() != anno_wal::LOCK_FILE {
                    files.insert(path.clone(), std::fs::read(&path).unwrap());
                }
            }
            files
        };
        let before = files();
        assert!(before.keys().any(|p| p.extension().unwrap() == "seg"));
        match Dataset::open("db", config(), &dir) {
            Err(ServiceError::Durability(msg)) => {
                assert!(msg.contains("text format"), "{msg}");
                assert!(msg.contains("annodb-snapshot v1"), "{msg}");
            }
            other => panic!("expected a durability error, got {:?}", other.err()),
        }
        assert_eq!(files(), before, "a refused open changes no file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_dataset_round_trips_across_reopen() {
        let dir = test_dir("roundtrip");
        let epoch_before;
        let snap_epoch_before;
        let text_before;
        {
            let ds = Dataset::open("db", config(), &dir).unwrap();
            ds.enqueue(UpdateOp::InsertRows(
                FIG4.iter().map(|s| s.to_string()).collect(),
            ))
            .unwrap();
            ds.mine().unwrap();
            ds.enqueue(UpdateOp::AnnotateNamed(vec![(
                TupleId(3),
                "Annot_1".into(),
            )]))
            .unwrap();
            ds.flush().unwrap();
            assert!(ds.is_durable());
            let stats = ds.wal_stats().unwrap();
            assert!(stats.appends >= 2, "drains + mine are logged: {stats:?}");
            let snap = ds.snapshot().unwrap();
            epoch_before = snap.relation_epoch();
            snap_epoch_before = snap.epoch();
            text_before = snapshot_to_string(snap.relation());
        }
        let ds = Dataset::open("db", config(), &dir).unwrap();
        assert!(ds.is_mined(), "mine event replays from the log");
        let snap = ds.snapshot().unwrap();
        assert_eq!(snap.relation_epoch(), epoch_before, "epoch survives");
        assert_eq!(snapshot_to_string(snap.relation()), text_before);
        // Snapshot (publish) epochs are monotone across the reopen: the
        // recovered publish counter is seeded past anything the previous
        // process handed out, so no client ever sees time run backwards.
        assert!(
            snap.epoch() > snap_epoch_before,
            "snapshot epoch regressed across reopen: {} -> {}",
            snap_epoch_before,
            snap.epoch()
        );
        assert!(ds.verify().unwrap());
        // And the recovered dataset keeps serving writes durably, with
        // epochs still advancing.
        ds.enqueue(UpdateOp::InsertRows(vec!["28 85 Annot_1".into()]))
            .unwrap();
        ds.flush().unwrap();
        let after = ds.snapshot().unwrap();
        assert!(after.relation_epoch() > epoch_before);
        assert!(after.epoch() > snap.epoch());
        drop(ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesced_duplicate_pairs_from_two_clients_dedupe_to_one_update() {
        // Two clients annotate the same (tuple, annotation) in one drain
        // window: coalesce folds the ops into one batch in which both
        // updates pass the pre-batch effectiveness screen. The canonical
        // form must carry the pair once (keep-first), for every
        // duplicate-prone op kind.
        let two = |a: UpdateOp, b: UpdateOp| {
            let (mut batches, folded) = coalesce(vec![a, b]);
            assert_eq!(batches.len(), 1, "same-kind ops coalesce");
            assert_eq!(folded, 1);
            canonicalize_batch(&mut batches[0]);
            batches.remove(0)
        };
        let named = |tid: u32| UpdateOp::AnnotateNamed(vec![(TupleId(tid), "A".into())]);
        assert_eq!(two(named(3), named(3)).len(), 1);
        let update = AnnotationUpdate {
            tuple: TupleId(3),
            annotation: anno_store::Item::annotation(1),
        };
        assert_eq!(
            two(
                UpdateOp::Annotate(vec![update]),
                UpdateOp::Annotate(vec![update]),
            )
            .len(),
            1
        );
        assert_eq!(
            two(
                UpdateOp::RemoveNamed(vec![(TupleId(3), "A".into())]),
                UpdateOp::RemoveNamed(vec![(TupleId(3), "A".into())]),
            )
            .len(),
            1
        );
        assert_eq!(
            two(
                UpdateOp::DeleteTuples(vec![TupleId(3)]),
                UpdateOp::DeleteTuples(vec![TupleId(3)]),
            )
            .len(),
            1
        );
        // Distinct updates survive; keep-first preserves client order
        // within a tuple.
        let mixed = two(
            UpdateOp::AnnotateNamed(vec![(TupleId(3), "A".into()), (TupleId(2), "B".into())]),
            UpdateOp::AnnotateNamed(vec![(TupleId(3), "B".into()), (TupleId(3), "A".into())]),
        );
        match mixed {
            UpdateOp::AnnotateNamed(named) => {
                assert_eq!(
                    named,
                    vec![
                        (TupleId(2), "B".to_string()),
                        (TupleId(3), "A".to_string()),
                        (TupleId(3), "B".to_string()),
                    ]
                );
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Repeated rows are distinct inserts — never deduped.
        let rows = two(
            UpdateOp::InsertRows(vec!["1 2 X".into()]),
            UpdateOp::InsertRows(vec!["1 2 X".into()]),
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_prefers_it() {
        let dir = test_dir("checkpoint");
        {
            let ds = Dataset::open("db", config(), &dir).unwrap();
            ds.enqueue(UpdateOp::InsertRows(
                FIG4.iter().map(|s| s.to_string()).collect(),
            ))
            .unwrap();
            ds.mine().unwrap();
            let (pos, bytes) = ds.checkpoint().unwrap();
            assert!(bytes > 0);
            assert!(pos.segment >= 1, "checkpoint seals the active segment");
            // Post-checkpoint drain: must replay on top of the restored
            // checkpoint.
            ds.enqueue(UpdateOp::AnnotateNamed(vec![(
                TupleId(3),
                "Annot_1".into(),
            )]))
            .unwrap();
            ds.flush().unwrap();
            assert_eq!(ds.metrics().checkpoints, 1);
        }
        let ds = Dataset::open("db", config(), &dir).unwrap();
        let stats = ds.wal_stats().unwrap();
        assert_eq!(
            stats.replayed_records, 1,
            "only the post-checkpoint drain replays: {stats:?}"
        );
        let snap = ds.snapshot().unwrap();
        assert_eq!(snap.db_size(), 5);
        assert_eq!(
            snap.relation()
                .tuple(TupleId(3))
                .unwrap()
                .annotations()
                .len(),
            1,
            "post-checkpoint annotate recovered"
        );
        assert!(ds.verify().unwrap());
        drop(ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_on_a_memory_only_dataset_is_refused() {
        let ds = loaded();
        assert!(matches!(ds.checkpoint(), Err(ServiceError::Durability(_))));
        assert!(ds.wal_stats().is_none());
        assert!(!ds.is_durable());
    }

    #[test]
    fn ineffective_drains_are_not_logged() {
        let dir = test_dir("noop-drains");
        {
            let ds = Dataset::open("db", config(), &dir).unwrap();
            ds.enqueue(UpdateOp::InsertRows(
                FIG4.iter().map(|s| s.to_string()).collect(),
            ))
            .unwrap();
            ds.mine().unwrap();
            let appends_before = ds.wal_stats().unwrap().appends;
            // Dead target + duplicate + dead delete: all ineffective.
            ds.enqueue(UpdateOp::AnnotateNamed(vec![(
                TupleId(999),
                "Stray".into(),
            )]))
            .unwrap();
            ds.enqueue(UpdateOp::AnnotateNamed(vec![(
                TupleId(0),
                "Annot_1".into(),
            )]))
            .unwrap();
            ds.enqueue(UpdateOp::DeleteTuples(vec![TupleId(999)]))
                .unwrap();
            ds.flush().unwrap();
            assert_eq!(
                ds.wal_stats().unwrap().appends,
                appends_before,
                "a no-op drain must not cost a log append"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_rejects_new_work_but_drains_old() {
        let ds = loaded();
        ds.mine().unwrap();
        ds.enqueue(UpdateOp::AnnotateNamed(vec![(
            TupleId(3),
            "Annot_1".into(),
        )]))
        .unwrap();
        ds.shutdown();
        assert!(matches!(
            ds.enqueue(UpdateOp::DeleteTuples(vec![TupleId(0)])),
            Err(ServiceError::ShutDown(_))
        ));
        // The queued annotate was drained before the writer exited.
        let snap = ds.try_snapshot().unwrap();
        assert_eq!(
            snap.relation()
                .tuple(TupleId(3))
                .unwrap()
                .annotations()
                .len(),
            1
        );
    }

    #[test]
    fn discovery_publishes_in_lock_step_with_rules() {
        let ds = Dataset::spawn("db", config()).unwrap();
        ds.enqueue(UpdateOp::InsertRows(vec![
            "28 85 Annot_1 Annot_2".into(),
            "28 85 Annot_1 Annot_2".into(),
            "28 85 Annot_1".into(),
            "28 85".into(),
            "17 99".into(),
        ]))
        .unwrap();
        assert!(matches!(ds.discovery(), Err(ServiceError::NotMined(_))));
        assert!(ds.try_discovery().is_none());
        ds.mine().unwrap();
        let disco = ds.discovery().unwrap();
        let snap = ds.snapshot().unwrap();
        assert_eq!(disco.epoch, snap.epoch(), "published at the same instant");
        assert_eq!(disco.db_size, 5);
        assert!(
            disco.pairs_tracked >= 1,
            "the Annot_1×Annot_2 co-occurrence must be tracked: {disco:?}"
        );
        // An effective drain republishes both, still in lock-step.
        ds.enqueue(UpdateOp::InsertRows(vec!["17 99 Annot_2".into()]))
            .unwrap();
        ds.flush().unwrap();
        let disco2 = ds.discovery().unwrap();
        let snap2 = ds.snapshot().unwrap();
        assert!(disco2.epoch > disco.epoch, "drain refreshed discovery");
        assert_eq!(disco2.epoch, snap2.epoch());
        assert_eq!(disco2.db_size, 6);
        assert!(disco2.stats.updates >= 1 || disco2.stats.rebuilds >= 1);
    }

    #[test]
    fn name_cache_serves_hits_and_picks_up_names_interned_by_later_drains() {
        let ds = loaded();
        ds.mine().unwrap();
        let snap = ds.snapshot().unwrap();
        let vocab = snap.relation().vocab();
        let kind = anno_store::ItemKind::Annotation;

        // First resolve walks the HAMT and fills the cache; the second is
        // a pure lookaside hit.
        let item = ds.resolve_cached(vocab, kind, "Annot_1").unwrap();
        let m = ds.metrics();
        assert_eq!((m.name_cache_hits, m.name_cache_misses), (0, 1));
        assert_eq!(ds.resolve_cached(vocab, kind, "Annot_1"), Some(item));
        let m = ds.metrics();
        assert_eq!((m.name_cache_hits, m.name_cache_misses), (1, 1));

        // Negative results are never cached — the very next drain may
        // intern the name (and neither counter moves for an absence).
        assert_eq!(ds.resolve_cached(vocab, kind, "Late_Ann"), None);
        let m = ds.metrics();
        assert_eq!((m.name_cache_hits, m.name_cache_misses), (1, 1));

        ds.enqueue(UpdateOp::InsertRows(vec!["55 66 Late_Ann".into()]))
            .unwrap();
        ds.flush().unwrap();
        let snap2 = ds.snapshot().unwrap();
        let vocab2 = snap2.relation().vocab();
        let late = ds.resolve_cached(vocab2, kind, "Late_Ann").unwrap();
        assert_eq!(vocab2.get(kind, "Late_Ann"), Some(late));
        let m = ds.metrics();
        assert_eq!((m.name_cache_hits, m.name_cache_misses), (1, 2));
        assert_eq!(ds.resolve_cached(vocab2, kind, "Late_Ann"), Some(late));
        // Old entries stay valid across the drain: interning is
        // append-only, so the cached item still names the same string.
        assert_eq!(ds.resolve_cached(vocab2, kind, "Annot_1"), Some(item));
        let m = ds.metrics();
        assert_eq!((m.name_cache_hits, m.name_cache_misses), (3, 2));
    }
}
