//! What a dataset reports, declared once.
//!
//! * **Counters and histograms** are the only state this module owns:
//!   relaxed atomics ([`Metrics`]) bumped through the typed `record_*`
//!   methods on the hot paths. They are telemetry, not synchronization,
//!   so the cheapest ordering is correct and recording never blocks.
//! * **Levels** (queue depth, store shape, WAL backlog, replication lag,
//!   discovery shape) are not mirrored here. They are read where they
//!   already live — the queue, the published status — when
//!   [`Dataset::observability`](crate::dataset::Dataset::observability)
//!   freezes a [`DatasetObs`].
//! * **The table** ([`COUNTERS`], [`LEVELS`], [`HISTOGRAMS`], [`RATES`])
//!   names every per-dataset family once: exposition name, help, type,
//!   `stats` key and how to read it off the frozen view. The exposition
//!   writer (`expose.rs`) and the `key=value` writer
//!   ([`DatasetObs::stats_line`]) walk it; neither knows a metric by name.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use anno_metrics::{Histogram, HistogramSnapshot};

use crate::dataset::Role;
use crate::queue::QosClass;
use crate::service::WindowedRates;

/// One counter family: `stats` prints it under `key`; `/metrics` under
/// `family` when it has one (the two nanosecond sums are `stats`-only).
pub(crate) struct CounterRow {
    pub key: &'static str,
    pub family: Option<&'static str>,
    pub help: &'static str,
    pub get: fn(&MetricsReport) -> u64,
}

/// The one list of counters. Each line is a field of the live atomics, a
/// field of [`MetricsReport`] (documented by the help text), its `stats`
/// key (the field's name) and its row in [`COUNTERS`].
macro_rules! counters {
    (@family) => { None };
    (@family $family:literal) => { Some($family) };
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
        pub(crate) const COUNTERS: &[CounterRow] = &[
            $(CounterRow {
                key: stringify!($field),
                family: counters!(@family $($family)?),
                help: $help,
                get: |r| r.$field,
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
/// and histograms from its [`Metrics`], the levels from the owner's last
/// publish and from the queue. `stats`, `metrics` and `GET /metrics` all
/// read this and nothing else.
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
    /// `true` when the tenant's QoS class is bulk (same lock).
    pub qos_bulk: bool,
    /// `true` once a rule snapshot is published.
    pub mined: bool,
    /// Live tuples as of the last publish.
    pub live_tuples: u64,
    /// Relation segments as of the last publish.
    pub segments: u64,
    /// Vocabulary chunks as of the last publish.
    pub vocab_chunks: u64,
    /// Log bytes accumulated since the last checkpoint (0 without a log).
    pub wal_backlog_bytes: u64,
    /// Annotation pairs the published discovery index tracks (0 pre-mine).
    pub discover_pairs_tracked: u64,
    /// Entries in the published cross-namespace discovery top-k.
    pub discover_topk_cross: u64,
    /// Entries in the published within-namespace discovery top-k.
    pub discover_topk_within: u64,
    /// Cost of the most recent incremental discovery refresh (ns).
    pub discover_last_update_ns: u64,
    /// `true` while the dataset is a read-only follower replica. The five
    /// replication numbers below are the follower's tailing progress as
    /// of its last poll, and 0 on a leader — a promoted one included.
    pub follower: bool,
    /// Leader log segment the follower has applied up to.
    pub repl_applied_seq: u64,
    /// Highest segment in the tailed leader directory.
    pub repl_leader_seq: u64,
    /// On-disk log bytes not yet applied by the follower.
    pub repl_bytes_behind: u64,
    /// Shipped records the follower has applied since attach.
    pub repl_records_applied: u64,
    /// Checkpoint restarts the follower performed.
    pub repl_restarts: u64,
}

/// One level family: a gauge — or a counter something other than
/// [`Metrics`] keeps — read off the frozen view.
pub(crate) struct LevelRow {
    pub family: &'static str,
    pub help: &'static str,
    /// Exposition type: `counter` or `gauge`.
    pub typ: &'static str,
    /// Key in the `stats` counters line. `None` for a level `stats`
    /// already prints on a line of its own, beside facts that are not
    /// metrics (`queue_depth=` by `qos_class=`, `applied_seq=` by `role=`).
    pub stats: Option<&'static str>,
    /// Label the series by the tenant's QoS class as well.
    pub by_class: bool,
    pub get: fn(&DatasetObs) -> u64,
}

const fn gauge(family: &'static str, help: &'static str, get: fn(&DatasetObs) -> u64) -> LevelRow {
    LevelRow {
        family,
        help,
        typ: "gauge",
        stats: None,
        by_class: false,
        get,
    }
}

impl LevelRow {
    const fn stats(self, key: &'static str) -> LevelRow {
        LevelRow {
            stats: Some(key),
            ..self
        }
    }
}

/// Every level, in `stats` and exposition order.
pub(crate) const LEVELS: &[LevelRow] = &[
    LevelRow {
        typ: "counter",
        ..gauge(
            "anno_events_total",
            "Maintenance journal events recorded.",
            |o| o.events_total,
        )
    },
    gauge(
        "anno_write_queue_depth",
        "Pending individual updates in the write queue.",
        |o| o.queue_depth,
    ),
    gauge(
        "anno_unacked_drains",
        "Applied-but-unacked pipelined drains.",
        |o| o.unacked_drains,
    )
    .stats("unacked_drains"),
    gauge(
        "anno_store_segments",
        "Relation segments as of the last drain.",
        |o| o.segments,
    )
    .stats("store_segments"),
    gauge(
        "anno_vocab_chunks",
        "Vocabulary chunks as of the last drain.",
        |o| o.vocab_chunks,
    )
    .stats("vocab_chunks"),
    gauge(
        "anno_wal_since_checkpoint_bytes",
        "Log bytes accumulated since the last checkpoint.",
        |o| o.wal_backlog_bytes,
    ),
    gauge(
        "anno_live_tuples",
        "Live tuples as of the last drain.",
        |o| o.live_tuples,
    ),
    gauge(
        "anno_replication_follower",
        "1 while the dataset is a read-only follower replica.",
        |o| u64::from(o.follower),
    ),
    gauge(
        "anno_replication_applied_seq",
        "Leader log segment the follower has applied up to.",
        |o| o.repl_applied_seq,
    ),
    gauge(
        "anno_replication_leader_seq",
        "Highest segment seen in the leader's log directory.",
        |o| o.repl_leader_seq,
    ),
    gauge(
        "anno_replication_bytes_behind",
        "On-disk leader log bytes not yet applied by the follower.",
        |o| o.repl_bytes_behind,
    ),
    gauge(
        "anno_replication_records_applied",
        "Shipped log records the follower has applied since attach.",
        |o| o.repl_records_applied,
    ),
    gauge(
        "anno_replication_restarts",
        "Checkpoint restarts the follower's tail cursor performed.",
        |o| o.repl_restarts,
    ),
    gauge(
        "anno_discover_pairs_tracked",
        "Annotation pairs the discovery index tracks.",
        |o| o.discover_pairs_tracked,
    )
    .stats("discover_pairs"),
    gauge(
        "anno_discover_topk_cross",
        "Entries in the published cross-namespace discovery top-k.",
        |o| o.discover_topk_cross,
    ),
    gauge(
        "anno_discover_topk_within",
        "Entries in the published within-namespace discovery top-k.",
        |o| o.discover_topk_within,
    ),
    gauge(
        "anno_discover_last_update_ns",
        "Cost of the most recent incremental discovery refresh.",
        |o| o.discover_last_update_ns,
    )
    .stats("discover_last_update_ns"),
    // Queue depth again, labelled by the tenant's QoS class, so dashboards
    // can tell interactive saturation from bulk saturation without
    // joining against the class gauge.
    LevelRow {
        by_class: true,
        ..gauge(
            "anno_admission_queue_depth",
            "Pending individual updates, labelled by the tenant's QoS class.",
            |o| o.queue_depth,
        )
    },
    gauge(
        "anno_admission_bulk_class",
        "1 while the tenant's QoS class is bulk.",
        |o| u64::from(o.qos_bulk),
    ),
];

/// One histogram family. The exposition writer derives its `_bucket` /
/// `_sum` / `_count` series and the `_quantile` companion family.
pub(crate) struct HistogramRow {
    pub family: &'static str,
    pub help: &'static str,
    pub get: fn(&DatasetObs) -> &HistogramSnapshot,
}

/// Every per-dataset histogram, in exposition order.
pub(crate) const HISTOGRAMS: &[HistogramRow] = &[
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

/// One windowed-rate family, read off the ring's
/// [`WindowedRates`] (0 until two samples of the dataset are in the
/// window).
pub(crate) struct RateRow {
    pub family: &'static str,
    pub help: &'static str,
    pub get: fn(&WindowedRates) -> f64,
}

/// Every per-dataset windowed rate, in exposition order.
pub(crate) const RATES: &[RateRow] = &[
    RateRow {
        family: "anno_drains_per_sec",
        help: "Drains per second over the ring's window.",
        get: |w| w.drains_per_sec,
    },
    RateRow {
        family: "anno_queries_per_sec",
        help: "Queries per second over the ring's window.",
        get: |w| w.queries_per_sec,
    },
    RateRow {
        family: "anno_fsyncs_per_drain",
        help: "Own-log fsyncs per drain over the ring's window.",
        get: |w| w.fsyncs_per_drain,
    },
];

impl DatasetObs {
    /// Which side of replication the dataset was on.
    pub fn role(&self) -> Role {
        if self.follower {
            Role::Follower
        } else {
            Role::Leader
        }
    }

    /// The tenant's QoS class.
    pub fn qos_class(&self) -> QosClass {
        if self.qos_bulk {
            QosClass::Bulk
        } else {
            QosClass::Interactive
        }
    }

    /// The `stats` counters line: every level with a `stats` key, then
    /// the counters ([`MetricsReport::render`]).
    pub fn stats_line(&self) -> String {
        let mut line = String::new();
        for (key, get) in LEVELS.iter().filter_map(|l| Some((l.stats?, l.get))) {
            let _ = write!(line, "{key}={} ", get(self));
        }
        let _ = write!(
            line,
            "discover_topk={} {}",
            self.discover_topk_cross + self.discover_topk_within,
            self.report.render()
        );
        line
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

    /// Render as `key=value` pairs for the protocol's `stats` command:
    /// every counter under its field name, then the derived ratios.
    pub fn render(&self) -> String {
        let mut line = String::new();
        for row in COUNTERS {
            let _ = write!(line, "{}={} ", row.key, (row.get)(self));
        }
        let _ = write!(
            line,
            "mean_read_ns={} mean_write_ns={} fsyncs_per_drain={:.2}",
            self.mean_read_nanos().unwrap_or(0),
            self.mean_write_nanos().unwrap_or(0),
            self.fsyncs_per_drain(),
        );
        line
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
