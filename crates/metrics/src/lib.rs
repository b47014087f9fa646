//! `anno-metrics`: observability primitives for the serving layer.
//!
//! The design follows the agent/viewer split of fleet telemetry systems:
//! recording must be cheap enough to leave on in every hot path (a
//! handful of relaxed atomic adds, no locks, no allocation), while the
//! *reading* side — snapshots, quantiles, windowed rates, exposition
//! text — pays its costs on the rare scrape, never on the recording
//! thread. Three primitives cover the serving layer's needs:
//!
//! * [`Histogram`] — a fixed array of relaxed `AtomicU64` buckets with
//!   log-linear widths: exact below 16, then 8 sub-buckets per power of
//!   two (≤ 12.5 % relative error) up to `u64::MAX`. Recording is two
//!   relaxed `fetch_add`s; p50/p90/p99/max come from a frozen
//!   [`HistogramSnapshot`].
//! * [`Ring`] — a fixed-capacity time-series ring a sampler thread
//!   pushes counter snapshots into every N ms, turning lifetime sums
//!   into windowed rates ("drains/s over the last minute"); a reader
//!   walks the window once under the ring's lock ([`Ring::scan`]) and
//!   keeps only what it needs — the endpoints, for a rate.
//! * [`EventJournal`] — a bounded journal of rare maintenance events
//!   (auto-checkpoint fired, recovery truncated a tail, …), each with a
//!   monotonic sequence number and coarse wall-clock timestamp.
//!
//! Levels (queue depth, segment count, replication lag) are not a
//! primitive here: the serving layer reads them where they already live
//! — the queue, the published status — instead of mirroring them.
//!
//! The crate is dependency-free and knows nothing about datasets, WALs,
//! or wire formats; the serving layer composes these into its metric
//! table and renders them for exposition.

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

pub mod hist;
pub mod journal;
pub mod ring;

pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use journal::{Event, EventJournal};
pub use ring::{windowed_rate, Ring};

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
