//! `anno-service`: a concurrent, multi-tenant correlation-serving engine.
//!
//! The paper's promise — association rules over annotated data that are
//! *maintained incrementally* as the database evolves (§4.3) and
//! *exploited online* to recommend missing annotations (§5) — only pays
//! off inside a long-lived serving layer that answers queries while
//! updates stream in. This crate is that layer, wrapping `anno-store` +
//! `anno-mine`:
//!
//! * [`Service`] — a registry of named datasets, each an
//!   [`AnnotatedRelation`](anno_store::AnnotatedRelation) +
//!   [`IncrementalMiner`](anno_mine::IncrementalMiner) pair with its own
//!   write-behind worker thread ([`Dataset`]);
//! * **snapshot reads** — queries run against an immutable
//!   [`RuleSnapshot`] behind an `Arc`; readers
//!   clone the `Arc` and never block on an in-flight write batch (the
//!   relation inside each snapshot is a persistent clone of the
//!   segment-store database, sharing all storage with the live relation
//!   at publish time);
//! * **batched writes** — a coalescing [`queue`] folds streams of
//!   [`UpdateOp`]s into single incremental-maintenance
//!   passes (cases 1–3 of §4.3, plus the deletion cases) and atomically
//!   publishes one fresh snapshot per drain;
//! * a **query layer** ([`query`]) — rule listing/filtering by antecedent,
//!   top-k missing-annotation recommendations, stats — and per-op
//!   [`metrics`];
//! * a **line protocol** ([`protocol`]) served over TCP or a stdin REPL
//!   ([`server`]) by the `annod` binary;
//! * **durability** — a dataset opened with a directory
//!   ([`Dataset::open`], protocol `open <ds> … dir <path>`) logs every
//!   coalesced drain to an `anno-wal` write-ahead log *before* applying
//!   it, takes checkpoint/compaction cycles on demand (`checkpoint`) or
//!   **by itself** under a [`CheckpointPolicy`] (protocol
//!   `auto_checkpoint bytes=N records=N secs=N`), and recovers across
//!   process restarts by restoring the latest checkpoint and replaying
//!   the log tail. Concurrent durable tenants share one
//!   [`GroupCommitter`]'s sync windows ([`SyncPolicy::Grouped`], the
//!   [`Service::open_durable`](service::Service::open_durable) default
//!   and what the protocol's `promote` promotes with), paying amortized
//!   fsyncs instead of one each per drain.
//!
//! See the workspace `README.md` for the `annod` protocol reference and
//! `examples/annod_session.rs` for an end-to-end walkthrough.
//!
//! # Lock order
//!
//! The serving path has 14 locks: `Service::{opening, datasets}`, the
//! sampler's stop flag and join handle, each dataset's `queue`,
//! `published`, `name_cache` and `worker`, the group committer's four
//! (`anno-wal`), and the `Ring` and `EventJournal` guards
//! (`anno-metrics`). These are every place a thread takes one while it
//! holds another:
//!
//! | held | then taken | where |
//! |---|---|---|
//! | `opening` | `datasets` | `Service::register` (behind `create`, `open_durable_with` and `attach_follower`): the name check and the insert |
//! | `datasets` | a dataset's `published` | `Service`'s `Debug` |
//! | `datasets` | a dataset's `queue`, then its `worker` | `Service`'s `Drop`, through `Dataset::shutdown` |
//! | a dataset's `queue` | its journal | the owner thread's exit guard (`owner.rs`), after a panic |
//!
//! All of them keep one order: `opening`, then `datasets`, then one
//! dataset's locks, its `queue` before its journal. None can run
//! backwards, so no cycle is possible: a dataset cannot name the
//! registry, and every other lock (`published`, `name_cache`, `worker`,
//! the journal, the ring, the sampler's and the committer's) is held
//! only to read or write its own value. Three guards are held across a
//! thread join: a dataset's `worker` (its owner thread), the sampler's
//! handle and the committer's handle; no joined thread takes the lock
//! its joiner holds. `annod`'s REPL holds the stdin lock for its whole
//! session, and nothing else in the process reads stdin.
//!
//! # Quickstart
//!
//! ```
//! use anno_service::{Service, ServiceConfig};
//! use anno_service::queue::UpdateOp;
//!
//! let service = Service::new();
//! let config = ServiceConfig {
//!     thresholds: anno_mine::Thresholds::new(0.4, 0.7),
//!     ..Default::default()
//! };
//! let ds = service.create("db", config).unwrap();
//! ds.enqueue(UpdateOp::InsertRows(vec![
//!     "28 85 Annot_1".into(),
//!     "28 85 Annot_1".into(),
//!     "28 85 Annot_1".into(),
//!     "28 85".into(),
//!     "17 99".into(),
//! ])).unwrap();
//! ds.flush().unwrap();
//! let snap = ds.mine().unwrap();
//! assert_eq!(snap.rules().len(), 3); // {28}⇒A, {85}⇒A, {28,85}⇒A
//!
//! // Stream an update; the queue applies it incrementally and publishes
//! // a new snapshot. The old snapshot stays valid for ongoing readers.
//! ds.enqueue(UpdateOp::AnnotateNamed(vec![(anno_store::TupleId(3), "Annot_1".into())])).unwrap();
//! ds.flush().unwrap();
//! assert!(ds.snapshot().unwrap().epoch() > snap.epoch());
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

mod apply;
pub mod dataset;
pub mod error;
pub mod expose;
pub mod metrics;
mod owner;
pub mod protocol;
pub mod query;
pub mod queue;
pub mod reactor;
pub mod server;
pub mod service;
pub mod snapshot;
mod walcodec;

pub use anno_discover::{DiscoveredPair, DiscoverySnapshot, DiscoveryStats};
pub use anno_wal::{CheckpointPolicy, GroupCommitStats, GroupCommitter, SyncPolicy, WalOptions};
pub use dataset::{Dataset, DurabilityOptions, ReplicationStatus, Role};
pub use error::ServiceError;
pub use expose::render_prometheus;
pub use metrics::{DatasetObs, MetricsReport};
pub use protocol::{Engine, Reply};
pub use query::{RuleFilter, RuleOrder, TopRecommendation};
pub use queue::{QosClass, UpdateOp};
pub use service::WindowedRates;
pub use service::{Service, ServiceConfig};
pub use snapshot::RuleSnapshot;

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
