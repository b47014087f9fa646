//! Write-ahead-log benchmarks: what durability costs per drain, and what
//! recovery costs per tuple.
//!
//! Four questions, alongside the publish numbers in `benches/publish.rs`
//! (recorded in `BENCH_wal.json` at the workspace root):
//!
//! * **Raw append latency** — one framed record + flush (and fsync, in
//!   the sync variant) per drain, the group-commit unit. Periodic
//!   checkpoints inside the loop keep the disk footprint bounded; their
//!   amortized cost rides along, as it does in production.
//! * **Drain latency, memory vs. durable** — the same effective
//!   256-update annotate/remove drain through a mined 10k-tuple dataset
//!   with and without the WAL in the writer path: the end-to-end price
//!   of durability per drain, miner maintenance and publish included.
//! * **Multi-tenant durable throughput** — 8 concurrent durable tenants
//!   streaming paced effective drains, per-dataset fsync vs. one shared
//!   [`GroupCommitter`]: the fsyncs-per-drain number that motivates
//!   cross-dataset group commit (each mode also prints its measured
//!   `fsyncs_per_drain`).
//! * **Recovery throughput** — `Dataset::open` against a directory
//!   holding 10k/100k/1M tuples, once as pure log-tail replay (every
//!   insert drain re-parsed and re-applied) and once from a checkpoint
//!   (snapshot restore, empty tail) — the number that justifies
//!   checkpoint compaction.
//!
//! Set `ANNO_BENCH_QUICK=1` (the CI bench smoke gate does) to shrink
//! sizes so every group still runs end to end in seconds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use anno_mine::{IncrementalConfig, Thresholds};
use anno_service::{Dataset, DurabilityOptions, GroupCommitter, SyncPolicy, UpdateOp};
use anno_store::TupleId;
use anno_wal::{Wal, WalOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn quick() -> bool {
    std::env::var_os("ANNO_BENCH_QUICK").is_some()
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anno-wal-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IncrementalConfig {
    IncrementalConfig {
        thresholds: Thresholds::new(0.4, 0.8),
        ..Default::default()
    }
}

/// Fig. 4-style rows: two data values from a ~1000-name space, every
/// tenth row carrying an annotation, so logs and snapshots have
/// realistic shape.
fn row(i: usize) -> String {
    if i % 10 == 0 {
        format!("{} {} Seed", i % 997, (i * 7 + 1) % 997)
    } else {
        format!("{} {}", i % 997, (i * 7 + 1) % 997)
    }
}

/// Load `n` tuples into `ds` in coalescible chunks and wait for publish.
fn load(ds: &Dataset, n: usize) {
    for chunk_start in (0..n).step_by(8192) {
        let lines: Vec<String> = (chunk_start..(chunk_start + 8192).min(n))
            .map(row)
            .collect();
        ds.enqueue(UpdateOp::InsertRows(lines)).unwrap();
    }
    ds.flush().unwrap();
}

fn append_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    // ≈ the encoded size of a 256-update annotate drain.
    let payload = vec![0xA5u8; 4096];
    for (label, sync) in [
        ("sync", SyncPolicy::PerAppend),
        ("nosync", SyncPolicy::Never),
    ] {
        let dir = bench_dir(&format!("append-{label}"));
        let (mut wal, _) = Wal::open(
            &dir,
            WalOptions {
                sync,
                ..WalOptions::default()
            },
        )
        .unwrap();
        let mut appended = 0u64;
        group.bench_function(BenchmarkId::new("drain_4KiB", label), |b| {
            b.iter(|| {
                wal.append(&payload).unwrap();
                appended += 1;
                // Compact periodically so an unbounded iteration count
                // cannot grow the log without bound.
                if appended % 8192 == 0 {
                    wal.checkpoint(b"bench state").unwrap();
                }
            })
        });
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn durable_drain_latency(c: &mut Criterion) {
    // The dataset size is in the group name: quick-mode runs measure a
    // smaller workload and must not compare against full-size claims.
    let n: usize = if quick() { 2_000 } else { 10_000 };
    let mut group = c.benchmark_group(format!("wal_drain/{n}"));
    for durable in [false, true] {
        let label = if durable { "durable_sync" } else { "memory" };
        let dir = bench_dir("drain");
        let ds = if durable {
            Dataset::open("bench", config(), &dir).unwrap()
        } else {
            Dataset::spawn("bench", config()).unwrap()
        };
        load(&ds, n);
        ds.mine().unwrap();
        // 256 scattered tuples, none Seed-annotated; toggling one known
        // annotation keeps every drain effective without growing state
        // or the vocabulary.
        let targets: Vec<TupleId> = (0..256u32).map(|i| TupleId(i * 39 + 1)).collect();
        let mut attach = true;
        group.bench_function(BenchmarkId::new("annotate_256", label), |b| {
            b.iter(|| {
                let named: Vec<(TupleId, String)> =
                    targets.iter().map(|&t| (t, "Seed".to_string())).collect();
                let op = if attach {
                    UpdateOp::AnnotateNamed(named)
                } else {
                    UpdateOp::RemoveNamed(named)
                };
                attach = !attach;
                ds.enqueue(op).unwrap();
                ds.flush().unwrap();
            })
        });
        drop(ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// 8 concurrent durable tenants, each streaming paced effective
/// single-annotation drains, then one flush barrier per tenant — once
/// with per-dataset fsync (every drain pays its own), once through one
/// shared `GroupCommitter`, the committer `Service::group_committer`
/// runs (drains pipeline behind the fsync in progress and every dirty
/// file is synced once per window).
/// Alongside the criterion wall time per round, each mode prints its
/// measured `fsyncs_per_drain` — the number `BENCH_wal.json` records.
fn group_commit_throughput(c: &mut Criterion) {
    let tenants: usize = if quick() { 4 } else { 8 };
    let ops_per_round: u32 = if quick() { 8 } else { 16 };
    let pace = Duration::from_micros(150);
    // Workload shape in the group name, for the same quick-vs-claims
    // honesty as above.
    let mut group = c.benchmark_group(format!("wal_group_commit/{tenants}x{ops_per_round}"));
    group.sample_size(10);
    for mode in ["per_dataset", "grouped"] {
        // Declared before the datasets so it outlives their WALs.
        let committer = Arc::new(GroupCommitter::new());
        let dirs: Vec<PathBuf> = (0..tenants)
            .map(|i| bench_dir(&format!("group-{mode}-{i}")))
            .collect();
        let datasets: Vec<Dataset> = dirs
            .iter()
            .map(|dir| {
                let sync = match mode {
                    "grouped" => SyncPolicy::Grouped(Arc::clone(&committer)),
                    _ => SyncPolicy::PerAppend,
                };
                let options = DurabilityOptions {
                    wal: WalOptions {
                        sync,
                        ..WalOptions::default()
                    },
                    ..DurabilityOptions::default()
                };
                let ds = Dataset::open_with("bench", config(), dir, options).unwrap();
                load(&ds, 2_000);
                ds.mine().unwrap();
                ds
            })
            .collect();
        // Unannotated targets (load() seeds every 10th tuple), so an
        // attach round is always effective and so is the remove after it.
        let targets: Vec<TupleId> = (0..)
            .map(|i| TupleId(i * 3 + 1))
            .filter(|t| t.0 % 10 != 0)
            .take(ops_per_round as usize)
            .collect();
        let round = AtomicU64::new(0);
        let (drains0, syncs0) = tally(&datasets, &committer);
        group.bench_function(BenchmarkId::new("round", mode), |b| {
            b.iter(|| {
                let attach = round.fetch_add(1, Ordering::Relaxed) % 2 == 0;
                std::thread::scope(|s| {
                    for ds in &datasets {
                        let targets = &targets;
                        s.spawn(move || {
                            for &t in targets {
                                let named = vec![(t, "Seed".to_string())];
                                let op = if attach {
                                    UpdateOp::AnnotateNamed(named)
                                } else {
                                    UpdateOp::RemoveNamed(named)
                                };
                                ds.enqueue(op).unwrap();
                                // Pace the stream so the writer takes
                                // several passes (= several log records)
                                // per round instead of coalescing the
                                // whole round into one batch.
                                std::thread::sleep(pace);
                            }
                            ds.flush().unwrap();
                        });
                    }
                });
            })
        });
        let (drains1, syncs1) = tally(&datasets, &committer);
        let (drains, syncs) = (drains1 - drains0, syncs1 - syncs0);
        println!(
            "wal_group_commit/fsyncs_per_drain/{mode}: {:.3} (fsyncs={syncs} drains={drains}, \
             {tenants} tenants)",
            syncs as f64 / drains.max(1) as f64
        );
        drop(datasets);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    group.finish();
}

/// Total logged drains and fsyncs across `datasets`: inline WAL syncs
/// (per-append fsyncs + segment seals) plus the shared committer's.
fn tally(datasets: &[Dataset], committer: &GroupCommitter) -> (u64, u64) {
    let mut drains = 0u64;
    let mut syncs = committer.stats().syncs;
    for ds in datasets {
        let ws = ds.wal_stats().unwrap();
        drains += ws.appends;
        syncs += ws.syncs;
    }
    (drains, syncs)
}

fn recovery_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_recovery");
    group.sample_size(10);
    let sizes: &[usize] = if quick() {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    for &n in sizes {
        let dir = bench_dir(&format!("recovery-{n}"));
        {
            let ds = Dataset::open("bench", config(), &dir).unwrap();
            load(&ds, n);
        }
        // Pure log-tail replay: every insert drain is re-parsed and
        // re-applied on open.
        group.bench_function(BenchmarkId::new("replay", n), |b| {
            b.iter(|| {
                let ds = Dataset::open("bench", config(), &dir).unwrap();
                assert_eq!(ds.live_tuples(), n);
                drop(ds);
            })
        });
        // Checkpoint restore: same state, snapshot-restored, empty tail.
        {
            let ds = Dataset::open("bench", config(), &dir).unwrap();
            ds.checkpoint().unwrap();
        }
        group.bench_function(BenchmarkId::new("checkpoint_restore", n), |b| {
            b.iter(|| {
                let ds = Dataset::open("bench", config(), &dir).unwrap();
                assert_eq!(ds.live_tuples(), n);
                drop(ds);
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The case checkpoints exist for: a *mined* dataset whose log holds a
    // mine event plus a stream of maintenance drains. Replay re-runs the
    // full initial mine and every incremental batch; a checkpoint restores
    // the miner's table directly.
    let mined_config = IncrementalConfig {
        thresholds: Thresholds::new(0.08, 0.5),
        ..Default::default()
    };
    let dir = bench_dir("recovery-mined");
    let mined_drains: u32 = if quick() { 32 } else { 128 };
    {
        let ds = Dataset::open("bench", mined_config, &dir).unwrap();
        load(&ds, if quick() { 2_000 } else { 10_000 });
        ds.mine().unwrap();
        let targets: Vec<TupleId> = (0..64u32).map(|i| TupleId(i * 39 + 1)).collect();
        for round in 0..mined_drains {
            let named: Vec<(TupleId, String)> =
                targets.iter().map(|&t| (t, "Seed".to_string())).collect();
            let op = if round % 2 == 0 {
                UpdateOp::AnnotateNamed(named)
            } else {
                UpdateOp::RemoveNamed(named)
            };
            ds.enqueue(op).unwrap();
            ds.flush().unwrap();
        }
    }
    group.bench_function(BenchmarkId::new("replay_mined_drains", mined_drains), |b| {
        b.iter(|| {
            let ds = Dataset::open("bench", mined_config, &dir).unwrap();
            assert!(ds.is_mined());
            drop(ds);
        })
    });
    {
        let ds = Dataset::open("bench", mined_config, &dir).unwrap();
        ds.checkpoint().unwrap();
    }
    group.bench_function(
        BenchmarkId::new("checkpoint_restore_mined_drains", mined_drains),
        |b| {
            b.iter(|| {
                let ds = Dataset::open("bench", mined_config, &dir).unwrap();
                assert!(ds.is_mined());
                drop(ds);
            })
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    append_latency,
    durable_drain_latency,
    group_commit_throughput,
    recovery_throughput
);
criterion_main!(benches);
