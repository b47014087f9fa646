//! Concurrency suite: reader threads hammer snapshot queries while a
//! writer streams batched updates. Readers must never observe torn state
//! (rules and relation from different versions), and the final maintained
//! rule set must be exactly what a from-scratch mine produces
//! (`IncrementalMiner::verify_against_remine`, via `Dataset::verify`).
//!
//! With the persistent segment store beneath `AnnotatedRelation`, the
//! suite also stresses the publish-cost contract: snapshots pinned across
//! 100+ coalesced drains stay frozen and keep physically sharing the
//! segments the writer never touched, and a snapshot taken mid-drain
//! carries the pre- or post-drain relation epoch, never an intermediate
//! one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use anno_mine::Thresholds;
use anno_service::query::top_k_for_tuple;
use anno_service::{Service, ServiceConfig, UpdateOp};
use anno_store::{dataset_to_string, generate, random_annotation_batch, GeneratorConfig, TupleId};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WRITER_ROUNDS: usize = 30;
const BATCH_SIZE: usize = 8;
const READERS: usize = 4;

#[test]
fn readers_never_block_or_see_torn_state_while_writer_streams() {
    // Seeded synthetic workload, shipped to the service as Fig. 4 text so
    // the dataset interns its own vocabulary.
    let seed_ds = generate(&GeneratorConfig::tiny(33));
    let text = dataset_to_string(&seed_ds.relation);

    let service = Arc::new(Service::new());
    let ds = service
        .create(
            "smoke",
            ServiceConfig {
                thresholds: Thresholds::new(0.2, 0.6),
                ..Default::default()
            },
        )
        .expect("fresh dataset");
    ds.enqueue(UpdateOp::InsertRows(
        text.lines().map(str::to_string).collect(),
    ))
    .expect("load");
    let first = ds.mine().expect("initial mine");
    assert!(!first.rules().is_empty(), "workload must yield rules");

    // Pre-generate annotation batches against a scratch copy (by *name*,
    // since the service's vocabulary is its own), exactly like a client
    // that decided on updates ahead of time.
    let mut scratch = seed_ds.relation.clone();
    let mut rng = StdRng::seed_from_u64(7);
    let mut batches: Vec<Vec<(TupleId, String)>> = Vec::new();
    for _ in 0..WRITER_ROUNDS {
        let batch = random_annotation_batch(&scratch, &mut rng, BATCH_SIZE);
        scratch.apply_annotation_batch(batch.iter().copied());
        batches.push(
            batch
                .iter()
                .map(|u| (u.tuple, scratch.vocab().name(u.annotation).to_string()))
                .collect(),
        );
    }

    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));

    let writer = {
        let ds = Arc::clone(&ds);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for (round, batch) in batches.into_iter().enumerate() {
                ds.enqueue(UpdateOp::AnnotateNamed(batch))
                    .expect("annotate");
                if round % 5 == 0 {
                    // Mix in Case 1/2 inserts so support denominators move.
                    ds.enqueue(UpdateOp::InsertRows(vec![
                        format!("{} {}", 20_000 + round, 30_000 + round),
                        format!("{} {} Annot_1", 20_000 + round, 30_000 + round),
                    ]))
                    .expect("insert");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            ds.flush().expect("drain");
            done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let ds = Arc::clone(&ds);
            let done = Arc::clone(&done);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let snap = ds.snapshot().expect("published snapshot");
                    // Publishes are atomic pointer swaps: epochs can only
                    // move forward under a reader.
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} then {}",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();
                    // Torn-state check: every rule was derived over exactly
                    // the relation this snapshot carries.
                    let db_size = snap.db_size() as u64;
                    for rule in snap.rules().rules() {
                        assert_eq!(
                            rule.db_size, db_size,
                            "rule derived against a different relation version"
                        );
                        assert!(rule.meets(&snap.thresholds()));
                    }
                    snap.relation()
                        .check_consistency()
                        .expect("frozen relation consistent");
                    // Exercise the read API itself.
                    let listed = snap.index().rules_with_antecedent(&[]).len();
                    assert_eq!(listed, snap.rules().len());
                    if let Some((tid, tuple)) = snap.relation().iter().next() {
                        let k = tuple.items().len().min(3);
                        let _ = snap.index().recommend(&tuple.items()[..k], 5);
                        let _ = top_k_for_tuple(&snap, tid, 5);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    writer.join().expect("writer thread");
    for r in readers {
        r.join().expect("reader thread");
    }

    // The paper's validation criterion, after the full concurrent run.
    assert!(
        ds.verify().expect("mined"),
        "maintained rules diverged from re-mine"
    );

    let m = ds.metrics();
    assert!(reads.load(Ordering::Relaxed) > 0, "readers actually ran");
    assert!(
        m.snapshots_published >= 2,
        "writer published during the run: {m:?}"
    );
    assert!(
        m.batches_applied <= m.ops_enqueued,
        "coalescing cannot invent batches"
    );
    // Old snapshots stay fully usable after the run (copy-on-write).
    assert!(first.relation().check_consistency().is_ok());
    assert!(!first.rules().is_empty());
}

/// Satellite stress test: N readers pin snapshots while the writer runs
/// 100+ coalesced drains. Pinned snapshots must stay frozen (tuple-count
/// and rule invariants unchanged), epochs must be monotone under every
/// reader, and segments the writer never touched must remain physically
/// shared between the oldest pins and the final published relation.
#[test]
fn readers_pinned_across_hundred_drains_never_see_torn_state() {
    const SEED_TUPLES: usize = 3_000; // three segments at SEGMENT_CAP=1024
    const ROUNDS: usize = 120;

    let service = Arc::new(Service::new());
    let ds = service
        .create(
            "stress",
            ServiceConfig {
                thresholds: Thresholds::new(0.3, 0.8),
                ..Default::default()
            },
        )
        .expect("fresh dataset");
    // Seed: a frequent data pattern in every tuple region, low annotation
    // density so rounds stay effective.
    let rows: Vec<String> = (0..SEED_TUPLES)
        .map(|i| format!("{} {}", 10_000 + (i % 40), 20_000 + (i % 7)))
        .collect();
    ds.enqueue(UpdateOp::InsertRows(rows)).expect("seed");
    ds.mine().expect("initial mine");

    let done = Arc::new(AtomicBool::new(false));

    let writer = {
        let ds = Arc::clone(&ds);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                // Four distinct effective annotations per round, confined
                // to segment 0 (tuple ids < 512)...
                let batch: Vec<(TupleId, String)> = (0..4)
                    .map(|k| (TupleId((round * 4 + k) as u32), format!("S{}", round % 8)))
                    .collect();
                ds.enqueue(UpdateOp::AnnotateNamed(batch))
                    .expect("annotate");
                // ...plus occasional inserts so the tail segment moves too.
                if round % 3 == 0 {
                    ds.enqueue(UpdateOp::InsertRows(vec![
                        format!("{} {}", 30_000 + round, 20_000 + (round % 7)),
                        format!("{} {}", 31_000 + round, 20_000 + (round % 7)),
                    ]))
                    .expect("insert");
                }
                // A flush per round forces a drain boundary: every round is
                // at least one coalesced drain.
                ds.flush().expect("drain");
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    type Pin = (Arc<anno_service::RuleSnapshot>, u64, u64, usize, usize);
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let ds = Arc::clone(&ds);
            let done = Arc::clone(&done);
            std::thread::spawn(move || -> Vec<Pin> {
                let mut pins: Vec<Pin> = Vec::new();
                let mut last_epoch = 0u64;
                let mut last_rel_epoch = 0u64;
                let mut polls = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let snap = ds.snapshot().expect("published snapshot");
                    // Epoch monotonicity under a pinned reader.
                    assert!(snap.epoch() >= last_epoch, "publish epoch regressed");
                    assert!(
                        snap.relation_epoch() >= last_rel_epoch,
                        "relation epoch regressed: {} then {}",
                        last_rel_epoch,
                        snap.relation_epoch()
                    );
                    last_epoch = snap.epoch();
                    last_rel_epoch = snap.relation_epoch();
                    // Tuple-count invariants: the snapshot is one frozen
                    // moment, not a mix of two.
                    assert_eq!(snap.db_size(), snap.relation().len());
                    assert_eq!(snap.relation_epoch(), snap.relation().epoch());
                    for rule in snap.rules().rules() {
                        assert_eq!(rule.db_size, snap.db_size() as u64);
                    }
                    // Pin a bounded sample of observations for the whole
                    // run (unbounded pinning would turn the final
                    // verification pass into the bottleneck).
                    if polls % 64 == 0 && pins.len() < 128 {
                        pins.push((
                            Arc::clone(&snap),
                            snap.epoch(),
                            snap.relation_epoch(),
                            snap.db_size(),
                            snap.rules().len(),
                        ));
                    }
                    polls += 1;
                    // Hammering the read path is the point, but an
                    // unyielding spin starves the writer's publish lock on
                    // small CI machines.
                    std::thread::yield_now();
                }
                pins
            })
        })
        .collect();

    writer.join().expect("writer thread");
    let all_pins: Vec<Pin> = readers
        .into_iter()
        .flat_map(|r| r.join().expect("reader thread"))
        .collect();

    assert!(
        ds.drains() >= 100,
        "writer must have run 100+ coalesced drains, got {}",
        ds.drains()
    );
    assert!(ds.verify().expect("mined"), "maintained rules stayed exact");
    assert!(!all_pins.is_empty(), "readers actually pinned snapshots");

    // Every pinned snapshot is still exactly what it was at pin time.
    let final_snap = ds.snapshot().expect("final snapshot");
    for (snap, epoch, rel_epoch, db_size, rules_len) in &all_pins {
        assert_eq!(snap.epoch(), *epoch);
        assert_eq!(snap.relation_epoch(), *rel_epoch);
        assert_eq!(snap.db_size(), *db_size);
        assert_eq!(snap.rules().len(), *rules_len);
        snap.relation()
            .check_consistency()
            .expect("pinned relation consistent");
        // Structural sharing survived the run: segment 1 (tuple ids
        // 1024..2048) was never written, so every pin — however old —
        // still physically shares storage with the live relation.
        assert!(
            snap.relation().shared_segments_with(final_snap.relation()) >= 1,
            "pinned snapshot lost all shared segments (epoch {epoch})"
        );
    }
}

/// Satellite epoch fix test: the relation's mutation epoch advances many
/// times *inside* one coalesced drain, but snapshots are published only at
/// drain boundaries — a concurrent reader must only ever observe the
/// pre-drain or post-drain epoch, never an intermediate one.
#[test]
fn mid_drain_snapshots_see_pre_or_post_epoch_only() {
    const BATCH: u32 = 500;

    let service = Arc::new(Service::new());
    let ds = service
        .create(
            "epochs",
            ServiceConfig {
                thresholds: Thresholds::new(0.3, 0.8),
                ..Default::default()
            },
        )
        .expect("fresh dataset");
    let rows: Vec<String> = (0..BATCH).map(|i| format!("{} {}", 100 + i, 7)).collect();
    ds.enqueue(UpdateOp::InsertRows(rows)).expect("seed");
    ds.mine().expect("initial mine");

    let pre = ds.snapshot().expect("pre-drain snapshot").relation_epoch();

    let done = Arc::new(AtomicBool::new(false));
    let observer = {
        let ds = Arc::clone(&ds);
        let done = Arc::clone(&done);
        std::thread::spawn(move || -> Vec<u64> {
            let mut seen = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let e = ds.snapshot().expect("snapshot").relation_epoch();
                if seen.last() != Some(&e) {
                    seen.push(e);
                }
            }
            seen
        })
    };

    // One op = one drain = BATCH effective epoch bumps inside a single
    // maintenance pass, published exactly once at the boundary.
    let batch: Vec<(TupleId, String)> = (0..BATCH).map(|i| (TupleId(i), "Bulk".into())).collect();
    ds.enqueue(UpdateOp::AnnotateNamed(batch))
        .expect("annotate");
    ds.flush().expect("drain");
    done.store(true, Ordering::SeqCst);
    let seen = observer.join().expect("observer thread");

    let post = ds.snapshot().expect("post-drain snapshot").relation_epoch();
    assert_eq!(
        post,
        pre + u64::from(BATCH),
        "every update in the batch bumps the epoch exactly once"
    );
    for e in &seen {
        assert!(
            *e == pre || *e == post,
            "observed intermediate mid-drain epoch {e} (pre {pre}, post {post})"
        );
    }
    assert!(ds.verify().expect("mined"));
}

/// Observability satellite: the queue-depth and unacked-drain gauges
/// mirror the writer's actual state under concurrent enqueue pressure —
/// nonzero while clients race ops in, and exactly zero once `flush`
/// returns (a flush barrier means applied *and* acked, so both levels
/// must have drained with it).
#[test]
fn queue_gauges_return_to_zero_after_flush() {
    const CLIENTS: usize = 4;
    const OPS_PER_CLIENT: u32 = 25;

    let service = Arc::new(Service::new());
    let ds = service
        .create(
            "gauges",
            ServiceConfig {
                thresholds: Thresholds::new(0.3, 0.8),
                ..Default::default()
            },
        )
        .expect("fresh dataset");
    let rows: Vec<String> = (0..200).map(|i| format!("{} 7", 100 + i)).collect();
    ds.enqueue(UpdateOp::InsertRows(rows)).expect("seed");
    ds.mine().expect("initial mine");

    let saw_depth = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ds = Arc::clone(&ds);
            let saw_depth = Arc::clone(&saw_depth);
            std::thread::spawn(move || {
                for i in 0..OPS_PER_CLIENT {
                    let tid = TupleId((c as u32 * OPS_PER_CLIENT + i) % 200);
                    ds.enqueue(UpdateOp::AnnotateNamed(vec![(tid, format!("Ann_{c}_{i}"))]))
                        .expect("enqueue");
                    // The gauge is set under the queue lock in the same
                    // critical section as the enqueue, so right after at
                    // least this thread's op was once reflected in it.
                    saw_depth.fetch_max(ds.observability().queue_depth, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    assert!(
        saw_depth.load(Ordering::SeqCst) > 0,
        "racing clients never observed their own pending updates in the gauge"
    );

    ds.flush().expect("flush barrier");
    let obs = ds.observability();
    assert_eq!(
        obs.queue_depth, 0,
        "flush returned with updates still pending in the queue gauge"
    );
    assert_eq!(
        obs.unacked_drains, 0,
        "memory-only datasets never pipeline acks"
    );
    assert_eq!(
        obs.drain_batch.sum(),
        ds.metrics().updates_enqueued,
        "every enqueued update passed through exactly one drained batch"
    );
    assert!(obs.drain_latency.count() > 0, "drains recorded latencies");
    assert!(ds.verify().expect("mined"));
}
