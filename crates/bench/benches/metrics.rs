//! Observability-cost benchmarks: what instrumentation charges the hot
//! path, and what a scrape charges the service.
//!
//! Three questions (recorded in `BENCH_metrics.json` at the workspace
//! root):
//!
//! * **Recording overhead** — one `Histogram::record` (two relaxed
//!   `fetch_add`s after a log-linear bucket index) in a tight loop
//!   (batches of 64 per timed iteration, so the clock read does not
//!   drown the operation), single-threaded and with 4 contending
//!   threads. The acceptance bar is <30 ns per record: cheap
//!   enough to leave on in every writer drain and query.
//! * **Snapshot cost** — freezing one 496-bucket histogram into a
//!   [`HistogramSnapshot`], the unit of work a scrape pays per series.
//! * **Scrape cost** — `render_prometheus` against a service holding 8,
//!   then 50, mined datasets with recorded traffic and a **full** sample
//!   ring (the state a daemon is in a minute after boot): the full text
//!   exposition a `GET /metrics` poll renders, per-dataset histograms,
//!   quantiles and windowed rates included. The two sizes together show
//!   whether a scrape is linear in datasets.
//!
//! Set `ANNO_BENCH_QUICK=1` (the CI bench smoke gate does) to shrink
//! sizes so every group still runs end to end in seconds.

use std::sync::Arc;

use anno_metrics::Histogram;
use anno_mine::Thresholds;
use anno_service::{render_prometheus, Engine, Service, ServiceConfig, UpdateOp};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn quick() -> bool {
    std::env::var_os("ANNO_BENCH_QUICK").is_some()
}

fn record_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_record");
    group.sample_size(if quick() { 10 } else { 50 });

    // The harness reads the clock once per iteration, which alone costs
    // more than one record; batching 64 records per iteration amortizes
    // that away, so divide the reported value by 64 for the per-record
    // cost (BENCH_metrics.json records both).
    let hist = Histogram::new();
    let mut value = 1u64;
    group.bench_function("histogram_record_x64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                // Walk a spread of magnitudes so bucket indexing is not
                // branch-predicted into a single bucket.
                value = value.wrapping_mul(6364136223846793005).wrapping_add(1);
                hist.record(black_box(value >> 40));
            }
        })
    });

    // 4 contending threads hammer one histogram; the measured routine is
    // one record from the calling thread under that contention — the
    // worst case a drain pays while queries record on other cores.
    let contended = Arc::new(Histogram::new());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writers: Vec<_> = (0..3)
        .map(|t| {
            let hist = Arc::clone(&contended);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 1u64 + t;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(t);
                    hist.record(v >> 40);
                }
            })
        })
        .collect();
    let mut v = 99u64;
    group.bench_function("histogram_record_contended_4t_x64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                v = v.wrapping_mul(6364136223846793005).wrapping_add(99);
                contended.record(black_box(v >> 40));
            }
        })
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    group.bench_function("histogram_snapshot", |b| {
        b.iter(|| black_box(hist.snapshot().count()))
    });
    group.finish();
}

/// Fig. 4-style rows: two data values, every tenth row annotated.
fn row(i: usize) -> String {
    if i % 10 == 0 {
        format!("{} {} Seed", i % 97, (i * 7 + 1) % 97)
    } else {
        format!("{} {}", i % 97, (i * 7 + 1) % 97)
    }
}

/// The sample ring's capacity: a scrape walks the whole window, so the
/// bench fills it before timing.
const RING_SAMPLES: usize = 600;

/// A service holding `datasets` mined datasets with recorded query
/// traffic and a full sample ring.
fn loaded_service(datasets: usize, tuples: usize) -> Arc<Service> {
    let service = Arc::new(Service::new());
    let engine = Engine::new(Arc::clone(&service));
    for d in 0..datasets {
        let ds = service
            .create(
                &format!("ds{d}"),
                ServiceConfig {
                    thresholds: Thresholds::new(0.3, 0.8),
                    ..Default::default()
                },
            )
            .unwrap();
        ds.enqueue(UpdateOp::InsertRows((0..tuples).map(row).collect()))
            .unwrap();
        ds.flush().unwrap();
        ds.mine().unwrap();
        // Populate the query/drain histograms so the scrape renders
        // realistic series.
        for _ in 0..32 {
            let reply = engine.execute(&format!("rules ds{d} top 5"));
            assert!(reply.lines[0].starts_with("OK"), "{:?}", reply.lines);
        }
    }
    for _ in 0..RING_SAMPLES {
        service.sample_now();
    }
    service
}

fn scrape_cost(c: &mut Criterion) {
    let tuples = if quick() { 200 } else { 2000 };
    let mut group = c.benchmark_group("metrics_scrape");
    group.sample_size(if quick() { 10 } else { 30 });
    for datasets in [8, 50] {
        let service = loaded_service(datasets, tuples);
        group.bench_function(format!("render_prometheus_{datasets}ds"), |b| {
            b.iter(|| black_box(render_prometheus(&service).len()))
        });
        let text = render_prometheus(&service);
        eprintln!(
            "metrics_scrape: exposition is {} bytes, {} lines at {datasets} datasets",
            text.len(),
            text.lines().count()
        );
    }
    group.finish();
}

criterion_group!(benches, record_overhead, scrape_cost);
criterion_main!(benches);
