//! What a dataset and the service report, declared once.
//!
//! * **Counters and histograms** are the only state this module owns:
//!   relaxed atomics ([`Metrics`]) bumped through the typed `record_*`
//!   methods on the hot paths. They are telemetry, not synchronization,
//!   so the cheapest ordering is correct and recording never blocks.
//! * **Levels** (queue depth, store shape, WAL backlog, replication lag,
//!   discovery shape, the rule set's size, the miner's cases) are not
//!   mirrored here. They are read where they already live — the queue,
//!   the published snapshots and status — when
//!   [`Dataset::observability`](crate::dataset::Dataset::observability)
//!   freezes a [`DatasetObs`], which keeps the publication it read.
//! * **The tables** (`COUNTERS`, `LEVELS`, `HISTOGRAMS` and `RATES` per
//!   dataset, `SERVICE` and `SERVICE_HISTOGRAMS` for the service) hold
//!   every reported number once: its `stats` key and line, its
//!   exposition family, and where in the frozen view it is read. Three
//!   writers walk them: the exposition (`expose.rs`), `stats` with or
//!   without a dataset and the `datasets` listing (below), and the role
//!   line `attach` and `catchup` print. None of them knows a metric by
//!   name; `stats` adds only the facts that are not numbers.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use anno_discover::DiscoverySnapshot;
use anno_metrics::{Histogram, HistogramSnapshot};
use anno_mine::MaintenanceStats;
use anno_wal::{CheckpointPolicy, GroupCommitStats, WalStats};

use crate::dataset::{Published, ReplicationStatus, Role};
use crate::queue::QosClass;
use crate::service::{ServiceView, WindowedRates};
use crate::snapshot::RuleSnapshot;

/// The one list of counters. Each line is a field of the live atomics, a
/// field of [`MetricsReport`] (documented by the help text), its `stats`
/// key (the field's name) and its row in `COUNTERS`, exported when it
/// names a family (the two nanosecond sums are `stats`-only).
macro_rules! counters {
    (@family $help:literal) => { None };
    (@family $help:literal $family:literal) => {
        Some(Family { name: $family, help: $help, by_class: false })
    };
    ($($field:ident $(=> $family:literal)?, $help:literal;)*) => {
        /// The live counters of one dataset.
        #[derive(Debug, Default)]
        struct Counters {
            $($field: AtomicU64,)*
        }

        impl Counters {
            fn report(&self) -> MetricsReport {
                MetricsReport {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }

        /// A frozen copy of one dataset's counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsReport {
            $(#[doc = $help] pub $field: u64,)*
        }

        /// Every counter, in `stats` and exposition order.
        pub(crate) const COUNTERS: &[Row] = &[
            $(Row {
                key: Some(stringify!($field)),
                family: counters!(@family $help $($family)?),
                read: Counter(|r| r.$field),
            },)*
        ];
    };
}

counters! {
    rule_queries => "anno_rule_queries_total", "Rule-listing/filtering queries served.";
    recommend_queries => "anno_recommend_queries_total", "Recommendation queries served.";
    discover_queries => "anno_discover_queries_total", "Discovery (correlation top-k) queries served.";
    snapshot_reads => "anno_snapshot_reads_total", "Snapshot pointer clones handed to readers.";
    ops_enqueued => "anno_ops_enqueued_total", "Ops accepted by the write queue.";
    updates_enqueued => "anno_updates_enqueued_total", "Individual updates accepted by the write queue.";
    batches_applied => "anno_batches_applied_total", "Maintenance batches actually applied.";
    ops_coalesced => "anno_ops_coalesced_total", "Ops folded into a neighbouring batch.";
    snapshots_published => "anno_snapshots_published_total", "Snapshots atomically published.";
    flushes => "anno_flushes_total", "Flush barriers awaited.";
    checkpoints => "anno_checkpoints_total", "Durability checkpoints taken.";
    auto_checkpoints => "anno_auto_checkpoints_total", "Checkpoints the maintenance policy fired by itself.";
    drains => "anno_drains_total", "Coalesced write passes the writer completed.";
    wal_fsyncs => "anno_wal_fsyncs_total", "fsyncs issued by the dataset's own log.";
    name_cache_hits => "anno_name_cache_hits_total", "Protocol name resolutions answered by the lookaside cache.";
    name_cache_misses => "anno_name_cache_misses_total", "Protocol name resolutions that fell through to the vocabulary.";
    admission_shed => "anno_admission_shed_ops_total", "Writes refused with the Overloaded soft error by admission control.";
    backpressure_stalls => "anno_admission_backpressure_stalls_total", "Connection read suspensions the sharded front end applied.";
    read_nanos, "Total nanoseconds spent inside read-path query evaluation.";
    write_nanos, "Total nanoseconds of writer time (apply + snapshot build).";
}

/// Live counters and histograms for one dataset.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Counters,
    /// Rule + recommend + discover query latency (ns).
    query_latency: Histogram,
    drain_latency: Histogram,
    drain_batch: Histogram,
    fsync_latency: Histogram,
    checkpoint_encode: Histogram,
    /// Incremental discovery-index refresh cost per drain (ns).
    discover_update: Histogram,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// One served query of any kind: its count is the caller's, its time
    /// goes to `read_nanos` and the query latency histogram.
    fn record_query(&self, kind: &AtomicU64, nanos: u64) {
        bump(kind, 1);
        bump(&self.counters.read_nanos, nanos);
        self.query_latency.record(nanos);
    }

    /// Record one snapshot pointer clone.
    pub fn record_snapshot_read(&self) {
        bump(&self.counters.snapshot_reads, 1);
    }

    /// Record a rule-listing/filtering query taking `nanos`.
    pub fn record_rule_query(&self, nanos: u64) {
        self.record_query(&self.counters.rule_queries, nanos);
    }

    /// Record a recommendation query taking `nanos`.
    pub fn record_recommend_query(&self, nanos: u64) {
        self.record_query(&self.counters.recommend_queries, nanos);
    }

    /// Record a `discover` query taking `nanos`.
    pub fn record_discover_query(&self, nanos: u64) {
        self.record_query(&self.counters.discover_queries, nanos);
    }

    /// Record an enqueue of one op carrying `updates` individual updates.
    pub fn record_enqueue(&self, updates: u64) {
        bump(&self.counters.ops_enqueued, 1);
        bump(&self.counters.updates_enqueued, updates);
    }

    /// Record one drained write pass: `batches` maintenance batches after
    /// folding away `coalesced` ops, taking `nanos` of writer time
    /// (apply + publish — the drain latency distribution).
    pub fn record_write_pass(&self, batches: u64, coalesced: u64, nanos: u64) {
        bump(&self.counters.batches_applied, batches);
        bump(&self.counters.ops_coalesced, coalesced);
        bump(&self.counters.write_nanos, nanos);
        bump(&self.counters.drains, 1);
        self.drain_latency.record(nanos);
    }

    /// Record the size (individual updates) of one drained batch.
    pub fn record_drain_size(&self, updates: u64) {
        self.drain_batch.record(updates);
    }

    /// Record one fsync of this dataset's log taking `nanos`.
    pub fn record_fsync(&self, nanos: u64) {
        bump(&self.counters.wal_fsyncs, 1);
        self.fsync_latency.record(nanos);
    }

    /// Record one checkpoint state encode taking `nanos`.
    pub fn record_checkpoint_encode(&self, nanos: u64) {
        self.checkpoint_encode.record(nanos);
    }

    /// Record one lookaside name resolution (`hit` = answered from the
    /// cache without touching the vocabulary).
    pub fn record_name_cache(&self, hit: bool) {
        let c = &self.counters;
        bump(
            if hit {
                &c.name_cache_hits
            } else {
                &c.name_cache_misses
            },
            1,
        );
    }

    /// Record one write shed by admission control.
    pub fn record_admission_shed(&self) {
        bump(&self.counters.admission_shed, 1);
    }

    /// Record one read-suspension backpressure stall.
    pub fn record_backpressure_stall(&self) {
        bump(&self.counters.backpressure_stalls, 1);
    }

    /// Record one incremental discovery-index refresh taking `nanos`.
    pub fn record_discover_update(&self, nanos: u64) {
        self.discover_update.record(nanos);
    }

    /// Record one snapshot publication.
    pub fn record_publish(&self) {
        bump(&self.counters.snapshots_published, 1);
    }

    /// Record one `flush` barrier.
    pub fn record_flush(&self) {
        bump(&self.counters.flushes, 1);
    }

    /// Record one durability checkpoint taken.
    pub fn record_checkpoint(&self) {
        bump(&self.counters.checkpoints, 1);
    }

    /// Record one checkpoint the maintenance policy triggered by itself
    /// (also counted by [`Metrics::record_checkpoint`]).
    pub fn record_auto_checkpoint(&self) {
        bump(&self.counters.auto_checkpoints, 1);
    }

    /// Point-in-time copy of all counters.
    pub fn report(&self) -> MetricsReport {
        self.counters.report()
    }

    /// Freeze the half of a [`DatasetObs`] these atomics hold: the
    /// counters and the histograms. Every level is left at zero for
    /// [`Dataset::observability`](crate::dataset::Dataset::observability)
    /// to fill in from where it lives.
    pub fn observe(&self) -> DatasetObs {
        DatasetObs {
            report: self.report(),
            query_latency: self.query_latency.snapshot(),
            drain_latency: self.drain_latency.snapshot(),
            drain_batch: self.drain_batch.snapshot(),
            fsync_latency: self.fsync_latency.snapshot(),
            checkpoint_encode: self.checkpoint_encode.snapshot(),
            discover_update: self.discover_update.snapshot(),
            ..DatasetObs::default()
        }
    }
}

/// Time `f`, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (
        out,
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    )
}

/// Everything one dataset reports, frozen at one instant: the counters
/// and histograms from its [`Metrics`], the levels from the queue and
/// from the owner's last publish. `stats`, `metrics` and `GET /metrics`
/// all read this and nothing else.
#[derive(Debug, Clone, Default)]
pub struct DatasetObs {
    /// The plain counters.
    pub report: MetricsReport,
    /// Rule + recommend + discover query latency (ns).
    pub query_latency: HistogramSnapshot,
    /// Drain apply+publish latency (ns).
    pub drain_latency: HistogramSnapshot,
    /// Drain batch size (individual updates per drain).
    pub drain_batch: HistogramSnapshot,
    /// This log's own fsync latency (ns; per-append syncs and seals).
    pub fsync_latency: HistogramSnapshot,
    /// Checkpoint state-encode latency (ns).
    pub checkpoint_encode: HistogramSnapshot,
    /// Incremental discovery-index refresh cost per drain (ns).
    pub discover_update: HistogramSnapshot,
    /// Maintenance journal events ever recorded.
    pub events_total: u64,
    /// Pending updates in the write queue (read under the queue lock).
    pub queue_depth: u64,
    /// Applied-but-unacked pipelined drains (same lock).
    pub unacked_drains: u64,
    /// Admission cap on pending updates (same lock).
    pub queue_cap: u64,
    /// The tenant's QoS class (same lock).
    pub qos_class: QosClass,
    /// Relation segments as of the last publish.
    pub segments: u64,
    /// Vocabulary chunks as of the last publish.
    pub vocab_chunks: u64,
    /// Log bytes accumulated since the last checkpoint (0 without a log).
    pub wal_backlog_bytes: u64,
    /// The publication the levels were read from. The rows that read the
    /// rule set, discovery, the log or a follower's progress read it here.
    pub(crate) published: Arc<Published>,
    /// The dataset's windowed rates, when frozen into a service view.
    pub(crate) windowed: Option<WindowedRates>,
}

/// Where in the frozen view a row's number lives, which is also the
/// `stats` line it prints on: a level names its line, every other
/// section has one. Every section but the levels and the service's own
/// block can be absent — no rule set before the first mine, no discovery
/// snapshot, no tailing progress on a leader, no log on a memory dataset,
/// no committer without grouped sync, no window before two samples.
/// `stats` skips an absent section; the exposition reads it as 0 for a
/// dataset and leaves a service family out.
#[derive(Clone, Copy)]
pub(crate) enum Read {
    Counter(fn(&MetricsReport) -> u64),
    Level(Line, fn(&DatasetObs) -> u64),
    Mined(fn(&RuleSnapshot) -> u64),
    Cases(fn(&MaintenanceStats) -> u64),
    Discovery(fn(&DiscoverySnapshot) -> u64),
    Follower(fn(&ReplicationStatus) -> u64),
    Wal(fn(&WalStats) -> u64),
    Committer(fn(&GroupCommitStats) -> u64),
    Service(fn(&ServiceView) -> u64),
    Window(fn(&WindowedRates) -> u64),
    Rate(fn(&WindowedRates) -> f64),
}
use Read::{
    Cases, Committer, Counter, Discovery, Follower, Level, Mined, Rate, Service, Wal, Window,
};

impl Read {
    /// The `stats` line a number read here prints on.
    fn line(self) -> Line {
        match self {
            Level(line, _) => line,
            Counter(_) => Line::Counters,
            Mined(_) => Line::Shape,
            Cases(_) => Line::Cases,
            Discovery(_) => Line::Discovery,
            Follower(_) => Line::Role,
            Wal(_) => Line::Wal,
            Committer(_) => Line::Committer,
            Service(_) => Line::Fsync,
            Window(_) | Rate(_) => Line::Window,
        }
    }
}

/// A number a row read: a count, or a rate (`stats` prints it to two
/// places, the exposition as it is).
#[derive(Clone, Copy)]
pub(crate) enum Num {
    Count(u64),
    Rate(f64),
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Num::Count(n) => n.fmt(f),
            Num::Rate(x) => x.fmt(f),
        }
    }
}

/// The `stats` lines a number prints on, in print order: `stats <ds>`'s
/// eight, then the two bare `stats` adds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Line {
    /// `tuples=`, then the rule set's shape once mined.
    Shape,
    /// The miner's §4.3 per-case batch counts.
    Cases,
    Discovery,
    /// After `qos_class=`.
    Queue,
    /// The store's shape, then the counters.
    Counters,
    /// After `role=`: a follower's tailing progress.
    Role,
    /// After `wal_position=`.
    Wal,
    Committer,
    /// The shared committer's fsyncs and the service journal.
    Fsync,
    /// Service-wide rates.
    Window,
}

/// An exposition family.
#[derive(Clone, Copy)]
pub(crate) struct Family {
    pub name: &'static str,
    pub help: &'static str,
    /// Label the series by the tenant's QoS class as well.
    pub by_class: bool,
}

impl Family {
    /// Exposition type: a counter's name ends in `_total`, by the
    /// format's convention; every other family is a gauge.
    pub fn typ(&self) -> &'static str {
        if self.name.ends_with("_total") {
            "counter"
        } else {
            "gauge"
        }
    }
}

/// One reported number.
pub(crate) struct Row {
    /// Its `stats` key. `None` only for the numbers the exposition alone
    /// prints.
    pub key: Option<&'static str>,
    /// Its exposition family. `None` for a `stats`-only number.
    pub family: Option<Family>,
    pub read: Read,
}

/// A number `stats` prints under `key`.
const fn stat(key: &'static str, read: Read) -> Row {
    Row {
        key: Some(key),
        family: None,
        read,
    }
}

/// A number only the exposition prints.
const fn unlisted(read: Read) -> Row {
    Row {
        key: None,
        family: None,
        read,
    }
}

impl Row {
    /// Export the number as the family `name`.
    const fn family(self, name: &'static str, help: &'static str) -> Row {
        Row {
            family: Some(Family {
                name,
                help,
                by_class: false,
            }),
            ..self
        }
    }
}

/// Every per-dataset level, in exposition order; the `stats`-only rows
/// sit where their line prints them.
pub(crate) const LEVELS: &[Row] = &[
    unlisted(Level(Line::Counters, |o| o.events_total))
        .family("anno_events_total", "Maintenance journal events recorded."),
    stat("queue_cap", Level(Line::Queue, |o| o.queue_cap)),
    stat("queue_depth", Level(Line::Queue, |o| o.queue_depth)).family(
        "anno_write_queue_depth",
        "Pending individual updates in the write queue.",
    ),
    stat(
        "unacked_drains",
        Level(Line::Counters, |o| o.unacked_drains),
    )
    .family(
        "anno_unacked_drains",
        "Applied-but-unacked pipelined drains.",
    ),
    stat("store_segments", Level(Line::Counters, |o| o.segments)).family(
        "anno_store_segments",
        "Relation segments as of the last drain.",
    ),
    stat("vocab_chunks", Level(Line::Counters, |o| o.vocab_chunks)).family(
        "anno_vocab_chunks",
        "Vocabulary chunks as of the last drain.",
    ),
    stat("wal_segments", Wal(|w| w.segments)),
    stat("wal_appends", Wal(|w| w.appends)),
    stat("wal_appended_bytes", Wal(|w| w.appended_bytes)),
    stat("wal_syncs", Wal(|w| w.syncs)),
    stat("wal_checkpoints", Wal(|w| w.checkpoints)),
    stat("wal_replayed", Wal(|w| w.replayed_records)),
    stat("wal_damaged_tails", Wal(|w| w.damaged_tails)),
    stat(
        "wal_since_ckpt_records",
        Wal(|w| w.since_checkpoint_records),
    ),
    stat("wal_since_ckpt_bytes", Wal(|w| w.since_checkpoint_bytes)).family(
        "anno_wal_since_checkpoint_bytes",
        "Log bytes accumulated since the last checkpoint.",
    ),
    stat(
        "tuples",
        Level(Line::Shape, |o| o.published.status.tuples as u64),
    )
    .family("anno_live_tuples", "Live tuples as of the last drain."),
    stat("rules", Mined(|s| s.rules().len() as u64)),
    stat("candidates", Mined(|s| s.candidate_count() as u64)),
    stat("epoch", Mined(|s| s.epoch())),
    stat("relation_epoch", Mined(|s| s.relation_epoch())),
    stat("full_remines", Cases(|c| c.full_remines)),
    stat("case1_batches", Cases(|c| c.case1_batches)),
    stat("case2_batches", Cases(|c| c.case2_batches)),
    stat("case3_batches", Cases(|c| c.case3_batches)),
    stat("deletion_batches", Cases(|c| c.deletion_batches)),
    stat("discovered_itemsets", Cases(|c| c.discovered_itemsets)),
    unlisted(Level(Line::Role, |o| u64::from(o.role() == Role::Follower))).family(
        "anno_replication_follower",
        "1 while the dataset is a read-only follower replica.",
    ),
    stat("applied_seq", Follower(|r| r.applied_seq)).family(
        "anno_replication_applied_seq",
        "Leader log segment the follower has applied up to.",
    ),
    stat("leader_seq", Follower(|r| r.leader_seq)).family(
        "anno_replication_leader_seq",
        "Highest segment seen in the leader's log directory.",
    ),
    stat("bytes_behind", Follower(|r| r.bytes_behind)).family(
        "anno_replication_bytes_behind",
        "On-disk leader log bytes not yet applied by the follower.",
    ),
    stat("records_applied", Follower(|r| r.records_applied)).family(
        "anno_replication_records_applied",
        "Shipped log records the follower has applied since attach.",
    ),
    stat("restarts", Follower(|r| r.restarts)).family(
        "anno_replication_restarts",
        "Checkpoint restarts the follower's tail cursor performed.",
    ),
    stat("polls", Follower(|r| r.polls)),
    stat("discovery_epoch", Discovery(|d| d.epoch)),
    stat("discovery_pairs", Discovery(|d| d.pairs_tracked)).family(
        "anno_discover_pairs_tracked",
        "Annotation pairs the discovery index tracks.",
    ),
    stat("discovery_topk_cross", Discovery(|d| d.cross.len() as u64)).family(
        "anno_discover_topk_cross",
        "Entries in the published cross-namespace discovery top-k.",
    ),
    stat(
        "discovery_topk_within",
        Discovery(|d| d.within.len() as u64),
    )
    .family(
        "anno_discover_topk_within",
        "Entries in the published within-namespace discovery top-k.",
    ),
    stat("discovery_updates", Discovery(|d| d.stats.updates)),
    stat("discovery_rebuilds", Discovery(|d| d.stats.rebuilds)),
    stat("discovery_rescored", Discovery(|d| d.stats.rescored)),
    stat(
        "discover_last_update_ns",
        Level(Line::Counters, |o| {
            o.published.status.discover_last_update_ns
        }),
    )
    .family(
        "anno_discover_last_update_ns",
        "Cost of the most recent incremental discovery refresh.",
    ),
    // Queue depth again, labelled by the tenant's QoS class, so dashboards
    // can tell interactive saturation from bulk saturation without
    // joining against the class gauge.
    Row {
        family: Some(Family {
            by_class: true,
            name: "anno_admission_queue_depth",
            help: "Pending individual updates, labelled by the tenant's QoS class.",
        }),
        ..unlisted(Level(Line::Queue, |o| o.queue_depth))
    },
    unlisted(Level(Line::Queue, |o| {
        u64::from(o.qos_class == QosClass::Bulk)
    }))
    .family(
        "anno_admission_bulk_class",
        "1 while the tenant's QoS class is bulk.",
    ),
];

/// Every per-dataset windowed rate, in exposition order (0 until two
/// samples of the dataset are in the ring's window).
pub(crate) const RATES: &[Row] = &[
    unlisted(Rate(|w| w.drains_per_sec)).family(
        "anno_drains_per_sec",
        "Drains per second over the ring's window.",
    ),
    unlisted(Rate(|w| w.queries_per_sec)).family(
        "anno_queries_per_sec",
        "Queries per second over the ring's window.",
    ),
    unlisted(Rate(|w| w.fsyncs_per_drain)).family(
        "anno_fsyncs_per_drain",
        "Own-log fsyncs per drain over the ring's window.",
    ),
];

/// Every service-level number, in exposition order: the registry, the
/// shared committer's fsyncs, the service journal, the committer and the
/// service-wide rates.
pub(crate) const SERVICE: &[Row] = &[
    unlisted(Service(|v| v.datasets.len() as u64)).family("anno_datasets", "Registered datasets."),
    stat("service_fsyncs", Service(|v| v.fsync_latency.count())),
    stat("fsync_p50_ns", Service(|v| v.fsync_latency.quantile(0.50))),
    stat("fsync_p99_ns", Service(|v| v.fsync_latency.quantile(0.99))),
    stat("service_events", Service(|v| v.events_total)).family(
        "anno_service_events_total",
        "Service-level journal events recorded (group-commit windows).",
    ),
    stat("grouped_submitted", Committer(|c| c.submitted)).family(
        "anno_grouped_submitted_total",
        "Appends submitted to the shared group committer.",
    ),
    stat("grouped_syncs", Committer(|c| c.syncs)).family(
        "anno_grouped_syncs_total",
        "fsyncs the shared committer issued.",
    ),
    stat("grouped_windows", Committer(|c| c.windows)).family(
        "anno_grouped_windows_total",
        "Sync windows the shared committer closed.",
    ),
    stat("drains_per_sec", Rate(|w| w.drains_per_sec)).family(
        "anno_service_drains_per_sec",
        "Drains per second across all datasets.",
    ),
    stat("queries_per_sec", Rate(|w| w.queries_per_sec)).family(
        "anno_service_queries_per_sec",
        "Queries per second across all datasets.",
    ),
    stat("fsyncs_per_drain", Rate(|w| w.fsyncs_per_drain)).family(
        "anno_service_fsyncs_per_drain",
        "All fsyncs (committer + per-dataset) per drain.",
    ),
    stat("window_samples", Window(|w| w.samples as u64)),
];

/// One histogram family. The exposition writer derives its `_bucket` /
/// `_sum` / `_count` series and the `_quantile` companion family.
pub(crate) struct HistogramRow<T> {
    pub family: &'static str,
    pub help: &'static str,
    pub get: fn(&T) -> &HistogramSnapshot,
}

/// Every per-dataset histogram, in exposition order.
pub(crate) const HISTOGRAMS: &[HistogramRow<DatasetObs>] = &[
    HistogramRow {
        family: "anno_query_latency_ns",
        help: "Rule + recommend + discover query latency.",
        get: |o| &o.query_latency,
    },
    HistogramRow {
        family: "anno_drain_latency_ns",
        help: "Drain apply+publish latency.",
        get: |o| &o.drain_latency,
    },
    HistogramRow {
        family: "anno_drain_batch_updates",
        help: "Individual updates per drained batch.",
        get: |o| &o.drain_batch,
    },
    HistogramRow {
        family: "anno_fsync_latency_ns",
        help: "The dataset's own log fsync latency.",
        get: |o| &o.fsync_latency,
    },
    HistogramRow {
        family: "anno_checkpoint_encode_ns",
        help: "Checkpoint state-encode latency.",
        get: |o| &o.checkpoint_encode,
    },
    HistogramRow {
        family: "anno_discover_update_ns",
        help: "Incremental discovery-index refresh cost per drain.",
        get: |o| &o.discover_update,
    },
];

/// The service's histogram, after its numbers.
pub(crate) const SERVICE_HISTOGRAMS: &[HistogramRow<ServiceView>] = &[HistogramRow {
    family: "anno_service_fsync_latency_ns",
    help: "Shared group committer fsync latency.",
    get: |v| &v.fsync_latency,
}];

/// `key=value` for every row of `rows` on `line` whose section `read`
/// finds, space-separated.
fn numbers(rows: &[Row], line: Line, read: impl Fn(Read) -> Option<Num>) -> String {
    let pairs: Vec<String> = (rows.iter())
        .filter(|row| row.read.line() == line)
        .filter_map(|row| Some((row.key?, read(row.read)?)))
        .map(|(key, value)| match value {
            Num::Rate(x) => format!("{key}={x:.2}"),
            count => format!("{key}={count}"),
        })
        .collect();
    pairs.join(" ")
}

/// The role line `stats <ds>`, `attach` and `catchup` print: `role=`,
/// then a follower's tailing progress and why it stopped, if it did.
pub(crate) fn role_line(role: Role, lag: Option<&ReplicationStatus>) -> String {
    let mut line = format!("role={}", role.label());
    if let Some(rs) = lag {
        let progress = numbers(LEVELS, Line::Role, |read| match read {
            Follower(get) => Some(Num::Count(get(rs))),
            _ => None,
        });
        let _ = write!(line, " {progress}");
        if let Some(why) = &rs.failed {
            let _ = write!(line, " failed={why:?}");
        }
    }
    line
}

/// Render a checkpoint policy for reply/stats lines: `off`, or the set
/// thresholds joined with `+` (e.g. `records=64+bytes=1048576`).
pub(crate) fn render_policy(policy: &CheckpointPolicy) -> String {
    let mut parts = Vec::new();
    if let Some(b) = policy.log_bytes {
        parts.push(format!("bytes={b}"));
    }
    if let Some(r) = policy.replayed_records {
        parts.push(format!("records={r}"));
    }
    if let Some(i) = policy.interval {
        parts.push(format!("secs={}", i.as_secs()));
    }
    if parts.is_empty() {
        "off".to_string()
    } else {
        parts.join("+")
    }
}

impl DatasetObs {
    /// Which side of replication the dataset was on.
    pub fn role(&self) -> Role {
        match self.published.status.replication {
            Some(_) => Role::Follower,
            None => Role::Leader,
        }
    }

    /// What `read` finds in this view; `None` when its section is absent.
    pub(crate) fn read(&self, read: Read) -> Option<Num> {
        let p = &*self.published;
        let count = match read {
            Counter(get) => get(&self.report),
            Level(_, get) => get(self),
            Mined(get) => get(p.rules.as_deref()?),
            Cases(get) => get(&p.rules.as_deref()?.stats()),
            Discovery(get) => get(p.discovery.as_deref()?),
            Follower(get) => get(p.status.replication.as_ref()?),
            Wal(get) => get(&p.status.wal.as_ref()?.stats),
            Rate(get) => return Some(Num::Rate(get(self.windowed.as_ref()?))),
            Committer(_) | Service(_) | Window(_) => return None,
        };
        Some(Num::Count(count))
    }

    /// `key=value` for the level under `key`, 0 when its section is
    /// absent: what the listings' one-line summaries print.
    fn keyed(&self, key: &str) -> String {
        let row = LEVELS.iter().find(|row| row.key == Some(key));
        let value = row.and_then(|row| self.read(row.read));
        format!("{key}={}", value.unwrap_or(Num::Count(0)))
    }

    /// The counters line: the store's shape, then every counter and the
    /// derived ratios ([`MetricsReport::render`]).
    fn counters_line(&self) -> String {
        let levels = numbers(LEVELS, Line::Counters, |read| self.read(read));
        format!("{levels} {}", self.report.render())
    }

    /// `stats <ds>`: each line whose section is present, its numbers
    /// beside the facts that are not numbers — thresholds, the QoS
    /// class, the role, the log's position, sync mode and policy. The
    /// committer line reads one snapshot of the dataset's committer.
    pub(crate) fn stats(&self) -> Vec<String> {
        let p = &*self.published;
        let line = |line| numbers(LEVELS, line, |read| self.read(read));
        let mut out = Vec::new();
        match &p.rules {
            Some(snap) => {
                let cfg = snap.config();
                let t = cfg.thresholds;
                out.push(line(Line::Shape));
                out.push(format!(
                    "alpha={} beta={} retention={}",
                    t.min_support, t.min_confidence, cfg.retention
                ));
                out.push(line(Line::Cases));
            }
            None => out.push(format!("{} (not mined)", line(Line::Shape))),
        }
        if p.discovery.is_some() {
            out.push(line(Line::Discovery));
        }
        let queue = line(Line::Queue);
        out.push(format!("qos_class={} {queue}", self.qos_class.label()));
        out.push(self.counters_line());
        out.push(role_line(self.role(), p.status.replication.as_ref()));
        if let Some(wal) = &p.status.wal {
            let (position, log) = (wal.stats.position, line(Line::Wal));
            out.push(format!("wal_position={position} {log}"));
            out.push(format!(
                "wal_sync={} auto_checkpoint={}",
                wal.sync.label(),
                render_policy(&p.status.auto_checkpoint),
            ));
            if let Some(c) = wal.sync.committer().map(|c| c.stats()) {
                out.push(numbers(SERVICE, Line::Committer, |read| match read {
                    Committer(get) => Some(Num::Count(get(&c))),
                    _ => None,
                }));
            }
        }
        out
    }
}

impl ServiceView {
    /// What `read` finds in the service block; `None` when its section
    /// is absent.
    pub(crate) fn read(&self, read: Read) -> Option<Num> {
        Some(match read {
            Service(get) => Num::Count(get(self)),
            Committer(get) => Num::Count(get(self.committer.as_ref()?)),
            Window(get) => Num::Count(get(self.windowed.as_ref()?)),
            Rate(get) => Num::Rate(get(self.windowed.as_ref()?)),
            _ => return None,
        })
    }

    /// Bare `stats`: one summary line per dataset, then the committer,
    /// fsync and window lines whose sections are present.
    pub(crate) fn stats(&self) -> Vec<String> {
        let mut out: Vec<String> = (self.datasets.iter())
            .map(|(name, obs)| {
                let mined = obs.published.rules.is_some();
                let (tuples, depth) = (obs.keyed("tuples"), obs.keyed("queue_depth"));
                format!(
                    "{name} {tuples} mined={mined} {depth} {}",
                    obs.counters_line()
                )
            })
            .collect();
        let lines = [Line::Committer, Line::Fsync, Line::Window];
        let lines = lines.map(|line| numbers(SERVICE, line, |read| self.read(read)));
        out.extend(lines.into_iter().filter(|numbers| !numbers.is_empty()));
        out
    }

    /// `datasets`: one line per dataset.
    pub(crate) fn listing(&self) -> Vec<String> {
        (self.datasets.iter())
            .map(|(name, obs)| {
                let mined = obs.published.rules.is_some();
                let (tuples, rules, epoch) =
                    (obs.keyed("tuples"), obs.keyed("rules"), obs.keyed("epoch"));
                format!("{name} {tuples} {rules} {epoch} mined={mined}")
            })
            .collect()
    }
}

impl MetricsReport {
    /// Queries of every kind served: rule, recommend and discover — the
    /// one definition behind `mean_read_ns`, the windowed `queries/s` and
    /// the query latency histogram.
    pub fn queries(&self) -> u64 {
        self.rule_queries + self.recommend_queries + self.discover_queries
    }

    /// Mean read-path latency in nanoseconds, if any reads happened.
    pub fn mean_read_nanos(&self) -> Option<u64> {
        self.read_nanos.checked_div(self.queries())
    }

    /// Mean writer time per drain in nanoseconds, if any drains ran.
    pub fn mean_write_nanos(&self) -> Option<u64> {
        self.write_nanos.checked_div(self.drains)
    }

    /// fsyncs this dataset's log issued per completed drain (0 when no
    /// drain has run; ~0 under grouped sync, where the shared committer
    /// issues the fsyncs instead).
    pub fn fsyncs_per_drain(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.wal_fsyncs as f64 / self.drains as f64
        }
    }

    /// Render as `key=value` pairs, as the `stats` counters line ends:
    /// every counter under its field name, then the derived ratios.
    pub fn render(&self) -> String {
        let counters = numbers(COUNTERS, Line::Counters, |read| match read {
            Counter(get) => Some(Num::Count(get(self))),
            _ => None,
        });
        format!(
            "{counters} mean_read_ns={} mean_write_ns={} fsyncs_per_drain={:.2}",
            self.mean_read_nanos().unwrap_or(0),
            self.mean_write_nanos().unwrap_or(0),
            self.fsyncs_per_drain(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_report() {
        let m = Metrics::new();
        m.record_snapshot_read();
        m.record_rule_query(100);
        m.record_recommend_query(300);
        m.record_enqueue(5);
        m.record_write_pass(2, 3, 1_000);
        m.record_publish();
        m.record_flush();
        m.record_checkpoint();
        m.record_auto_checkpoint();
        m.record_fsync(2_000);
        let r = m.report();
        assert_eq!(r.snapshot_reads, 1);
        assert_eq!(r.rule_queries, 1);
        assert_eq!(r.recommend_queries, 1);
        assert_eq!(r.mean_read_nanos(), Some(200));
        assert_eq!(r.ops_enqueued, 1);
        assert_eq!(r.updates_enqueued, 5);
        assert_eq!(r.batches_applied, 2);
        assert_eq!(r.ops_coalesced, 3);
        assert_eq!(r.snapshots_published, 1);
        assert_eq!(r.flushes, 1);
        assert_eq!(r.checkpoints, 1);
        assert_eq!(r.auto_checkpoints, 1);
        assert_eq!(r.drains, 1);
        assert_eq!(r.wal_fsyncs, 1);
        assert!(r.render().contains("updates_enqueued=5"));
        assert!(r.render().contains("checkpoints=1"));
        assert!(r.render().contains("auto_checkpoints=1"));
    }

    #[test]
    fn derived_ratios_render_in_stats_lines() {
        let m = Metrics::new();
        m.record_rule_query(100);
        m.record_recommend_query(300);
        m.record_write_pass(1, 0, 4_000);
        m.record_write_pass(1, 0, 2_000);
        m.record_fsync(500);
        m.record_fsync(500);
        m.record_fsync(500);
        let r = m.report();
        assert_eq!(r.mean_write_nanos(), Some(3_000));
        assert!((r.fsyncs_per_drain() - 1.5).abs() < 1e-9);
        let line = r.render();
        assert!(line.contains("mean_read_ns=200"), "{line}");
        assert!(line.contains("mean_write_ns=3000"), "{line}");
        assert!(line.contains("fsyncs_per_drain=1.50"), "{line}");
    }

    #[test]
    fn empty_report_renders_zero_ratios() {
        let r = Metrics::new().report();
        let line = r.render();
        assert!(line.contains("mean_read_ns=0"), "{line}");
        assert!(line.contains("mean_write_ns=0"), "{line}");
        assert!(line.contains("fsyncs_per_drain=0.00"), "{line}");
    }

    #[test]
    fn histograms_and_gauges_freeze_into_observe() {
        let m = Metrics::new();
        m.record_rule_query(1_000);
        m.record_rule_query(100_000);
        m.record_write_pass(1, 0, 5_000);
        m.record_drain_size(128);
        m.record_checkpoint_encode(9_000);
        let obs = m.observe();
        assert_eq!(obs.query_latency.count(), 2);
        assert!(obs.query_latency.quantile(0.99) >= 100_000);
        assert_eq!(obs.drain_latency.count(), 1);
        assert_eq!(obs.drain_batch.count(), 1);
        assert_eq!(obs.checkpoint_encode.count(), 1);
    }
}
