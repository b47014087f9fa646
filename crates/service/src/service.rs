//! The multi-tenant registry: named datasets, each with its own writer —
//! plus the service-level observability spine: a background sampler that
//! snapshots every dataset's counters into a time-series ring (windowed
//! rates like drains/s fall out of it), a service event journal, and the
//! shared group committer's fsync latency histogram.

// An out-of-bounds panic while a guard is live would poison the lock.
#![deny(clippy::indexing_slicing)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use anno_metrics::{windowed_rate, Event, EventJournal, Histogram, HistogramSnapshot, Ring};
use anno_wal::{GroupCommitStats, GroupCommitter, SyncPolicy, WalObserver, WalOptions};

use crate::dataset::{Dataset, DurabilityOptions};
use crate::error::ServiceError;
use crate::metrics::DatasetObs;
use crate::Unpoisoned;

/// The registry proper: datasets by name, in name order. Names are
/// shared (`Arc<str>`) so the sampler's ring entries point at them
/// instead of copying one `String` per dataset per tick.
type Registry = RwLock<BTreeMap<Arc<str>, Arc<Dataset>>>;

/// How often the background sampler snapshots every dataset's counters.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(100);

/// Ring capacity: at the sampling interval this retains roughly the last
/// minute of samples, which is also the window the rates are quoted over.
const RING_CAPACITY: usize = 600;

/// The window (milliseconds of ring history) rates are computed over.
const WINDOW_MS: u64 = 60_000;

/// Service maintenance events retained (group-commit windows, lifecycle).
const SERVICE_JOURNAL_CAPACITY: usize = 512;

/// Per-dataset mining configuration: the miner's own, under the name the
/// serving API has always used (defaults: the paper's α = 0.4, β = 0.8,
/// retention 0.5).
pub type ServiceConfig = anno_mine::IncrementalConfig;

/// The concurrent, multi-tenant correlation-serving engine.
///
/// Thread-safe: share it behind an `Arc` between protocol handlers,
/// background writers, and embedding applications.
#[derive(Debug, Default)]
pub struct Service {
    /// `Arc`-shared with the background sampler thread, which walks the
    /// registry on its own schedule without borrowing from `Service`.
    datasets: Arc<Registry>,
    /// Names with a registration in flight. Recovery (checkpoint restore
    /// plus log replay) can take seconds; reserving the name here lets
    /// every registration build its dataset *without* holding the
    /// registry lock, so reads against other datasets never stall behind
    /// it. Lock order: `opening` before `datasets`, never the reverse (the
    /// crate docs' "Lock order" lists every nesting).
    opening: Mutex<BTreeSet<String>>,
    /// One group committer shared by every durable tenant this registry
    /// opens (created on first use): K datasets committing concurrently
    /// amortize their fsyncs into shared sync windows instead of paying
    /// one fsync per drain each.
    committer: OnceLock<Arc<GroupCommitter>>,
    /// Service-level observability state, shared with the sampler thread
    /// and the committer's observer.
    obs: Arc<ServiceObs>,
    /// The background sampler, started lazily with the first dataset.
    sampler: OnceLock<SamplerHandle>,
}

/// Service-level observability state: the event journal, the shared
/// committer's fsync latency distribution, and the sample ring windowed
/// rates are computed from.
#[derive(Debug)]
struct ServiceObs {
    journal: EventJournal,
    fsync_latency: Histogram,
    /// Shared-committer fsyncs, counted separately from the histogram so
    /// sampling needs one relaxed load, not a 496-bucket snapshot.
    fsyncs: AtomicU64,
    ring: Ring<ServiceSample>,
}

impl Default for ServiceObs {
    fn default() -> Self {
        ServiceObs {
            journal: EventJournal::new(SERVICE_JOURNAL_CAPACITY),
            fsync_latency: Histogram::new(),
            fsyncs: AtomicU64::new(0),
            ring: Ring::new(RING_CAPACITY),
        }
    }
}

/// Feeds the shared group committer's reports into the service-level
/// histogram and journal.
struct ServiceWalObserver {
    obs: Arc<ServiceObs>,
}

impl WalObserver for ServiceWalObserver {
    fn fsync(&self, nanos: u64) {
        self.obs.fsync_latency.record(nanos);
        self.obs.fsyncs.fetch_add(1, Ordering::Relaxed);
    }

    fn window_closed(&self, submitted: u64, files_synced: u64, nanos: u64) {
        self.obs.journal.record(
            "group_commit_window",
            format!("submitted={submitted} files_synced={files_synced} nanos={nanos}"),
        );
    }
}

/// One ring entry: every dataset's rate-relevant counters at one instant.
#[derive(Debug, Clone)]
struct ServiceSample {
    /// Sums over `per_dataset`, with the shared committer's fsyncs added
    /// to `fsyncs` — the number group commit exists to push below one
    /// per drain.
    total: SampledCounters,
    per_dataset: Vec<(Arc<str>, SampledCounters)>,
}

/// The counters the sampler records (cheap relaxed loads).
#[derive(Debug, Clone, Copy, Default)]
struct SampledCounters {
    drains: u64,
    /// Rule + recommend + discover.
    queries: u64,
    fsyncs: u64,
}

/// The first and last sample of one series inside the window, and how
/// many samples it had — all a windowed rate ever looks at.
#[derive(Debug, Clone, Copy)]
struct WindowEnds {
    first: (u64, SampledCounters),
    last: (u64, SampledCounters),
    samples: usize,
}

impl WindowEnds {
    /// A series' first sample in the window.
    fn new(at: u64, counters: SampledCounters) -> WindowEnds {
        WindowEnds {
            first: (at, counters),
            last: (at, counters),
            samples: 1,
        }
    }

    /// Its next one.
    fn extend_to(&mut self, at: u64, counters: SampledCounters) {
        self.last = (at, counters);
        self.samples += 1;
    }

    /// The rates between the endpoints; `None` until two samples exist.
    fn rates(&self) -> Option<WindowedRates> {
        let ((t0, first), (t1, last)) = (self.first, self.last);
        let per_sec = |v0, v1| windowed_rate(&[(t0, v0), (t1, v1)]).unwrap_or(0.0);
        (self.samples >= 2).then(|| WindowedRates {
            drains_per_sec: per_sec(first.drains, last.drains),
            queries_per_sec: per_sec(first.queries, last.queries),
            fsyncs_per_drain: per_unit((first.fsyncs, last.fsyncs), (first.drains, last.drains)),
            samples: self.samples,
        })
    }
}

/// Windowed rates derived from the sample ring — `None`-free: a window
/// too short to rate over yields no [`WindowedRates`] at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedRates {
    /// Coalesced drains per second over the window.
    pub drains_per_sec: f64,
    /// Rule + recommend + discover queries per second over the window.
    pub queries_per_sec: f64,
    /// fsyncs per drain over the window (0 when no drain ran). For the
    /// service-wide view this counts shared-committer fsyncs too — the
    /// number group commit exists to push below 1.0.
    pub fsyncs_per_drain: f64,
    /// Ring samples the window was computed from.
    pub samples: usize,
}

/// The sampler thread: stop flag + condvar (for prompt shutdown) and the
/// joinable handle.
#[derive(Debug)]
struct SamplerHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// Take one sample of every dataset's counters into the ring.
fn take_sample(datasets: &Registry, obs: &ServiceObs) {
    let mut total = SampledCounters {
        fsyncs: obs.fsyncs.load(Ordering::Relaxed),
        ..SampledCounters::default()
    };
    let per_dataset = datasets
        .read()
        .unpoisoned("registry lock")
        .iter()
        .map(|(name, ds)| {
            let r = ds.metrics();
            let sampled = SampledCounters {
                drains: r.drains,
                queries: r.queries(),
                fsyncs: r.wal_fsyncs,
            };
            total.drains += sampled.drains;
            total.queries += sampled.queries;
            total.fsyncs += sampled.fsyncs;
            (Arc::clone(name), sampled)
        })
        .collect();
    obs.ring.push(ServiceSample { total, per_dataset });
}

/// Everything the service reports, frozen once per `stats`, `datasets`
/// or scrape: each dataset's [`DatasetObs`] with its windowed rates, and
/// the service-level block. The `SERVICE` rows of `metrics.rs` read it.
pub(crate) struct ServiceView {
    /// Every registered dataset and its name, in name order.
    pub datasets: Vec<(Arc<str>, DatasetObs)>,
    /// The shared group committer's counters, once it exists.
    pub committer: Option<GroupCommitStats>,
    /// The shared group committer's fsync latency.
    pub fsync_latency: HistogramSnapshot,
    /// Service-level journal events ever recorded.
    pub events_total: u64,
    /// Rates over the totals of every dataset.
    pub windowed: Option<WindowedRates>,
}

/// Δlater − Δearlier of `numer` per Δ of `denom` across the window's
/// endpoints; 0.0 when the denominator did not advance.
fn per_unit(numer: (u64, u64), denom: (u64, u64)) -> f64 {
    let dn = numer.1.saturating_sub(numer.0);
    let dd = denom.1.saturating_sub(denom.0);
    if dd == 0 {
        0.0
    } else {
        dn as f64 / dd as f64
    }
}

impl Service {
    /// An empty registry.
    pub fn new() -> Service {
        Service::default()
    }

    /// Register a new dataset and start its writer thread.
    pub fn create(&self, name: &str, config: ServiceConfig) -> Result<Arc<Dataset>, ServiceError> {
        self.register(name, || Dataset::spawn(name, config))
    }

    /// The one way a dataset joins the registry: reserve `name`, `build`
    /// the dataset with no registry lock held, then release the
    /// reservation and (on success) insert it — atomically with respect
    /// to every other registration of the name. Two sessions racing on
    /// one name cannot both build it (and two names over one directory
    /// are refused by the wal's own lock file).
    fn register(
        &self,
        name: &str,
        build: impl FnOnce() -> Result<Dataset, ServiceError>,
    ) -> Result<Arc<Dataset>, ServiceError> {
        {
            let mut opening = self.opening.lock().unpoisoned("opening lock");
            if opening.contains(name)
                || self
                    .datasets
                    .read()
                    .unpoisoned("registry lock")
                    .contains_key(name)
            {
                return Err(ServiceError::DatasetExists(name.to_string()));
            }
            opening.insert(name.to_string());
        }
        let built = build();
        let mut opening = self.opening.lock().unpoisoned("opening lock");
        opening.remove(name);
        let ds = Arc::new(built?);
        self.datasets
            .write()
            .unpoisoned("registry lock")
            .insert(name.into(), Arc::clone(&ds));
        drop(opening);
        self.ensure_sampler();
        Ok(ds)
    }

    /// The registry's shared group committer (created on first call).
    /// [`Service::open_durable`] threads it through every durable open;
    /// embedders wiring up [`Dataset::open_with`] themselves can clone it
    /// from here to join the same sync windows.
    pub fn group_committer(&self) -> Arc<GroupCommitter> {
        Arc::clone(self.committer.get_or_init(|| {
            let committer = Arc::new(GroupCommitter::new());
            // The committer reports every fsync and closed window into
            // the service-level histogram and journal.
            committer.set_observer(Arc::new(ServiceWalObserver {
                obs: Arc::clone(&self.obs),
            }));
            committer
        }))
    }

    /// What every durable leader this registry makes runs with: syncs
    /// through the shared [group committer](Service::group_committer),
    /// automatic checkpoints off. [`Service::open_durable`] opens with it,
    /// and the protocol's `promote` promotes with it.
    pub(crate) fn grouped_durability(&self) -> DurabilityOptions {
        DurabilityOptions {
            wal: WalOptions {
                sync: SyncPolicy::Grouped(self.group_committer()),
                ..WalOptions::default()
            },
            ..DurabilityOptions::default()
        }
    }

    /// Register a **durable** dataset rooted at `dir`, recovering any
    /// state already persisted there (checkpoint restore + write-ahead-log
    /// tail replay) before serving. `config` applies only if the
    /// directory holds no mined state — see [`Dataset::open`].
    ///
    /// The dataset's log syncs through the registry's shared
    /// [group committer](Service::group_committer): its drains are acked
    /// once their shared sync window closes, so concurrent durable
    /// tenants pay amortized fsyncs instead of one each per drain.
    /// Automatic checkpoints are off; use [`Service::open_durable_with`]
    /// to set a [`anno_wal::CheckpointPolicy`].
    ///
    /// Recovery can take a while on a large directory, so it runs with
    /// only the *name* reserved — never the registry lock — and queries
    /// against other datasets proceed undisturbed.
    pub fn open_durable(
        &self,
        name: &str,
        config: ServiceConfig,
        dir: &std::path::Path,
    ) -> Result<Arc<Dataset>, ServiceError> {
        self.open_durable_with(name, config, dir, self.grouped_durability())
    }

    /// [`Service::open_durable`] with explicit [`DurabilityOptions`]
    /// (sync policy, segment size, automatic checkpoint policy).
    pub fn open_durable_with(
        &self,
        name: &str,
        config: ServiceConfig,
        dir: &std::path::Path,
        options: DurabilityOptions,
    ) -> Result<Arc<Dataset>, ServiceError> {
        self.register(name, || Dataset::open_with(name, config, dir, options))
    }

    /// Register a **follower** replica of the leader log directory `dir`
    /// (see [`Dataset::follow`]): read-only, tailing the directory every
    /// `poll`, promotable with [`Dataset::promote`]. The name is reserved
    /// like any other registration, so a racing `open` or `attach` on it
    /// is refused.
    pub fn attach_follower(
        &self,
        name: &str,
        config: ServiceConfig,
        dir: &std::path::Path,
        poll: Duration,
    ) -> Result<Arc<Dataset>, ServiceError> {
        self.register(name, || Dataset::follow(name, config, dir, poll))
    }

    /// Look up a dataset by name.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, ServiceError> {
        self.datasets
            .read()
            .unpoisoned("registry lock")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    }

    /// Unregister a dataset, stopping its writer (queued work is drained).
    pub fn remove(&self, name: &str) -> Result<(), ServiceError> {
        let ds = self
            .datasets
            .write()
            .unpoisoned("registry lock")
            .remove(name)
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))?;
        ds.shutdown();
        Ok(())
    }

    /// Take one counter sample into the time-series ring immediately,
    /// without waiting for the background sampler's next tick. Tests and
    /// embedders use this for deterministic windowed rates.
    pub fn sample_now(&self) {
        take_sample(&self.datasets, &self.obs);
    }

    /// One pass over the ring's window, under its lock: the endpoints of
    /// the service totals and of the series of each dataset `wanted`. A
    /// dataset created mid-window rates from its own first appearance.
    fn window_ends(
        &self,
        wanted: impl Fn(&str) -> bool,
    ) -> (Option<WindowEnds>, HashMap<Arc<str>, WindowEnds>) {
        let mut total: Option<WindowEnds> = None;
        let mut per_dataset: HashMap<Arc<str>, WindowEnds> = HashMap::new();
        self.obs.ring.scan(WINDOW_MS, |at, sample| {
            match &mut total {
                Some(ends) => ends.extend_to(at, sample.total),
                None => total = Some(WindowEnds::new(at, sample.total)),
            }
            for (name, counters) in sample.per_dataset.iter().filter(|(n, _)| wanted(n)) {
                match per_dataset.get_mut(name) {
                    Some(ends) => ends.extend_to(at, *counters),
                    None => {
                        per_dataset.insert(Arc::clone(name), WindowEnds::new(at, *counters));
                    }
                }
            }
        });
        (total, per_dataset)
    }

    /// Windowed rates for one dataset over the ring's last minute, or
    /// `None` until two samples covering it exist (the sampler starts
    /// with the first dataset; call [`Service::sample_now`] to force).
    pub fn windowed(&self, name: &str) -> Option<WindowedRates> {
        let (_, mut per_dataset) = self.window_ends(|n| n == name);
        per_dataset.remove(name)?.rates()
    }

    /// Service-wide windowed rates: totals across every dataset, with
    /// shared-committer fsyncs included in `fsyncs_per_drain`.
    pub fn service_windowed(&self) -> Option<WindowedRates> {
        self.window_ends(|_| false).0?.rates()
    }

    /// Freeze everything `stats`, `datasets` and the exposition report:
    /// one registry read, one ring pass, one [`Dataset::observability`]
    /// per dataset.
    pub(crate) fn observe(&self) -> ServiceView {
        let (total, per_dataset) = self.window_ends(|_| true);
        let registry = self.datasets.read().unpoisoned("registry lock").clone();
        ServiceView {
            datasets: registry
                .into_iter()
                .map(|(name, ds)| {
                    let windowed = per_dataset.get(&name).and_then(WindowEnds::rates);
                    let obs = DatasetObs {
                        windowed,
                        ..ds.observability()
                    };
                    (name, obs)
                })
                .collect(),
            committer: self.committer_stats(),
            fsync_latency: self.fsync_latency(),
            events_total: self.events_total(),
            windowed: total.and_then(|ends| ends.rates()),
        }
    }

    /// The most recent `n` service-level events (group-commit windows),
    /// oldest first. Per-dataset events live on [`Dataset::events`].
    pub fn events(&self, n: usize) -> Vec<Event> {
        self.obs.journal.recent(n)
    }

    /// Service-level events ever recorded, including evicted ones.
    pub fn events_total(&self) -> u64 {
        self.obs.journal.total()
    }

    /// Latency distribution of the shared group committer's fsyncs.
    pub fn fsync_latency(&self) -> HistogramSnapshot {
        self.obs.fsync_latency.snapshot()
    }

    /// Counters of the shared group committer, if it was ever created
    /// (i.e. at least one grouped-sync dataset opened).
    pub fn committer_stats(&self) -> Option<GroupCommitStats> {
        self.committer.get().map(|c| c.stats())
    }

    /// Start the background sampler if it is not running yet. Sampling
    /// is best-effort: if the OS refuses the thread, windowed rates stay
    /// empty (datasets still serve) until [`Service::sample_now`].
    fn ensure_sampler(&self) {
        self.sampler.get_or_init(|| {
            let datasets = Arc::clone(&self.datasets);
            let obs = Arc::clone(&self.obs);
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let thread_stop = Arc::clone(&stop);
            let thread = std::thread::Builder::new()
                .name("annod-sampler".to_string())
                .spawn(move || {
                    let (flag, cv) = &*thread_stop;
                    loop {
                        take_sample(&datasets, &obs);
                        let stopped = flag.lock().unpoisoned("sampler stop lock");
                        let (stopped, _) = cv
                            .wait_timeout(stopped, SAMPLE_INTERVAL)
                            .unpoisoned("sampler stop lock");
                        if *stopped {
                            return;
                        }
                    }
                })
                .ok();
            SamplerHandle {
                stop,
                thread: Mutex::new(thread),
            }
        });
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Stop the sampler first (condvar makes this prompt, not a full
        // sample interval), then every writer. Dataset::drop would stop
        // writers too, but only once the last outside Arc is gone.
        if let Some(sampler) = self.sampler.get() {
            let (flag, cv) = &*sampler.stop;
            *flag.lock().unpoisoned("sampler stop lock") = true;
            cv.notify_all();
            if let Some(handle) = sampler.thread.lock().unpoisoned("sampler join lock").take() {
                let _ = handle.join();
            }
        }
        for ds in self.datasets.read().unpoisoned("registry lock").values() {
            ds.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::UpdateOp;

    #[test]
    fn registry_create_get_list_remove() {
        let service = Service::new();
        let ds = service.create("a", ServiceConfig::default()).unwrap();
        assert!(matches!(
            service.create("a", ServiceConfig::default()),
            Err(ServiceError::DatasetExists(_))
        ));
        service.create("b", ServiceConfig::default()).unwrap();

        ds.enqueue(UpdateOp::InsertRows(vec!["1 2 X".into()]))
            .unwrap();
        ds.flush().unwrap();

        let listing = service.observe().listing();
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0], "a tuples=1 rules=0 epoch=0 mined=false");

        assert!(service.get("a").is_ok());
        service.remove("a").unwrap();
        assert!(matches!(
            service.get("a"),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.remove("a"),
            Err(ServiceError::UnknownDataset(_))
        ));
    }

    #[test]
    fn tenants_are_isolated() {
        let service = Service::new();
        let a = service.create("a", ServiceConfig::default()).unwrap();
        let b = service.create("b", ServiceConfig::default()).unwrap();
        a.enqueue(UpdateOp::InsertRows(vec!["1 2 X".into(), "1 2 X".into()]))
            .unwrap();
        b.enqueue(UpdateOp::InsertRows(vec!["9 Z".into()])).unwrap();
        a.mine().unwrap();
        b.mine().unwrap();
        let sa = a.snapshot().unwrap();
        let sb = b.snapshot().unwrap();
        assert_eq!(sa.db_size(), 2);
        assert_eq!(sb.db_size(), 1);
        assert_eq!(sa.dataset(), "a");
        assert_eq!(sb.dataset(), "b");
    }
}
