//! WAL maintenance-layer suite (ISSUE 5): automatic checkpoint policy,
//! cross-dataset group commit, and the write-path fixes that make the
//! policy safe to run unattended.
//!
//! The contracts under test:
//!
//! * an auto-checkpoint firing at *any* drain index is recovery-
//!   transparent — recovered state (snapshot text, epoch, exactness) is
//!   identical to a dataset that never checkpointed, and byte-identical
//!   to one that checkpointed manually at the same index — including
//!   when a crash lands mid-checkpoint;
//! * K durable datasets sharing one [`GroupCommitter`] each recover
//!   their full flush-acknowledged prefix after kill/restart;
//! * a within-batch duplicate `(tuple, annotation)` pair is logged once,
//!   not twice (the regression the batch dedupe fixes);
//! * an unloggable `mine` fences the dataset exactly like an unloggable
//!   drain does;
//! * a served `recommend` answer equals the offline §5 scan's, for every
//!   tuple after maintenance drains and for the tuples an insert adds.
//!
//! Property cases respect the `PROPTEST_CASES` cap for CI bounding.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use anno_mine::{
    mine_rules, recommend_for_tuples, recommend_missing, IncrementalConfig, Recommendation,
    Thresholds,
};
use anno_service::query::top_k_for_tuple;
use anno_service::{
    CheckpointPolicy, Dataset, DurabilityOptions, GroupCommitter, RuleSnapshot, ServiceError,
    SyncPolicy, UpdateOp,
};
use anno_store::{
    dataset_to_string, generate, hide_annotations, snapshot_to_string, GeneratorConfig, Item,
    TupleId,
};
use anno_wal::WalOptions;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("anno-maintenance-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IncrementalConfig {
    IncrementalConfig {
        thresholds: Thresholds::new(0.3, 0.6),
        ..Default::default()
    }
}

fn drain(ds: &Dataset, op: UpdateOp) {
    ds.enqueue(op).unwrap();
    ds.flush().unwrap();
}

fn rows(specs: &[&str]) -> UpdateOp {
    UpdateOp::InsertRows(specs.iter().map(|s| s.to_string()).collect())
}

fn annotate(pairs: &[(u32, &str)]) -> UpdateOp {
    UpdateOp::AnnotateNamed(
        pairs
            .iter()
            .map(|&(tid, name)| (TupleId(tid), name.to_string()))
            .collect(),
    )
}

fn policy_records(n: u64) -> DurabilityOptions {
    DurabilityOptions {
        auto_checkpoint: CheckpointPolicy {
            replayed_records: Some(n),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The same mixed drain script against any dataset, so policy-on,
/// policy-off, and manual-checkpoint runs are byte-comparable.
fn run_script(ds: &Dataset) {
    drain(
        ds,
        rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3", "2 4 A1", "5 6"]),
    );
    ds.mine().unwrap();
    drain(ds, annotate(&[(3, "A0"), (5, "A1")]));
    drain(ds, rows(&["2 3 A0", "7 8"]));
    drain(ds, UpdateOp::RemoveNamed(vec![(TupleId(4), "A1".into())]));
    drain(ds, UpdateOp::DeleteTuples(vec![TupleId(1)]));
    drain(ds, annotate(&[(6, "A1")]));
}

#[test]
fn auto_checkpoint_fires_bounds_replay_and_survives_reopen() {
    let dir = test_dir("auto-fires");
    let text_before;
    let epoch_before;
    {
        // Fire once the log holds 4 records. The script appends
        // 1 (mine) + 6 drains; the policy triggers at the 4th append and
        // accumulates 3 more records afterwards.
        let ds = Dataset::open_with("db", config(), &dir, policy_records(4)).unwrap();
        run_script(&ds);
        ds.quiesce_maintenance();
        let m = ds.metrics();
        assert_eq!(m.auto_checkpoints, 1, "policy fired exactly once: {m:?}");
        assert_eq!(m.checkpoints, 1, "auto checkpoints count as checkpoints");
        let ws = ds.wal_stats().unwrap();
        assert_eq!(
            ws.since_checkpoint_records, 3,
            "post-checkpoint accumulation restarts: {ws:?}"
        );
        assert_eq!(ws.checkpoints, 1);
        let snap = ds.snapshot().unwrap();
        text_before = snapshot_to_string(snap.relation());
        epoch_before = snap.relation_epoch();
    }
    // Recovery replays only what the policy left uncompacted.
    let ds = Dataset::open_with("db", config(), &dir, policy_records(4)).unwrap();
    let ws = ds.wal_stats().unwrap();
    assert_eq!(
        ws.replayed_records, 3,
        "replay bounded by the policy: {ws:?}"
    );
    let snap = ds.snapshot().unwrap();
    assert_eq!(snapshot_to_string(snap.relation()), text_before);
    assert_eq!(snap.relation_epoch(), epoch_before);
    assert!(ds.verify().unwrap());
    drop(ds);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The acceptance pin: an auto-checkpoint and a manual checkpoint at the
/// same drain index leave byte-identical durable state — same
/// `checkpoint.bin`, same recovered snapshot — and a crash landing in
/// the middle of the *next* checkpoint attempt (a torn `checkpoint.tmp`,
/// exactly what a mid-rename kill leaves) recovers both the same way.
#[test]
fn crash_mid_auto_checkpoint_recovers_byte_identically_to_manual() {
    let auto_dir = test_dir("mid-ckpt-auto");
    let manual_dir = test_dir("mid-ckpt-manual");
    {
        // Policy fires at the 4th append: mine + 3 drains.
        let ds = Dataset::open_with("db", config(), &auto_dir, policy_records(4)).unwrap();
        drain(
            &ds,
            rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3", "2 4 A1", "5 6"]),
        );
        ds.mine().unwrap();
        drain(&ds, annotate(&[(3, "A0"), (5, "A1")]));
        drain(&ds, rows(&["2 3 A0", "7 8"]));
        ds.quiesce_maintenance();
        assert_eq!(ds.metrics().auto_checkpoints, 1);
        // One more drain past the checkpoint, then "crash".
        drain(&ds, annotate(&[(6, "A1")]));
    }
    {
        // Same script; the operator checkpoints by hand at the same index.
        let ds =
            Dataset::open_with("db", config(), &manual_dir, DurabilityOptions::default()).unwrap();
        drain(
            &ds,
            rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3", "2 4 A1", "5 6"]),
        );
        ds.mine().unwrap();
        drain(&ds, annotate(&[(3, "A0"), (5, "A1")]));
        drain(&ds, rows(&["2 3 A0", "7 8"]));
        ds.checkpoint().unwrap();
        assert_eq!(ds.metrics().auto_checkpoints, 0);
        drain(&ds, annotate(&[(6, "A1")]));
    }
    // Both paths funnel through the same checkpoint writer; the durable
    // artifact must be byte-identical (same payload, same log position,
    // same persisted publish sequence).
    let auto_ckpt = std::fs::read(auto_dir.join("checkpoint.bin")).unwrap();
    let manual_ckpt = std::fs::read(manual_dir.join("checkpoint.bin")).unwrap();
    assert_eq!(
        auto_ckpt, manual_ckpt,
        "auto and manual checkpoints at the same index must be byte-identical"
    );
    // Crash mid-checkpoint: the staging file was being written when the
    // process died. Inject the same torn tmp into both directories.
    std::fs::write(auto_dir.join("checkpoint.tmp"), b"torn half-written ch").unwrap();
    std::fs::write(manual_dir.join("checkpoint.tmp"), b"torn half-written ch").unwrap();

    let auto = Dataset::open("db", config(), &auto_dir).unwrap();
    let manual = Dataset::open("db", config(), &manual_dir).unwrap();
    let snap_auto = auto.snapshot().unwrap();
    let snap_manual = manual.snapshot().unwrap();
    assert_eq!(
        snapshot_to_string(snap_auto.relation()),
        snapshot_to_string(snap_manual.relation()),
        "recovery after a mid-checkpoint crash is identical for both"
    );
    assert_eq!(snap_auto.relation_epoch(), snap_manual.relation_epoch());
    assert_eq!(snap_auto.epoch(), snap_manual.epoch(), "publish epochs too");
    assert_eq!(
        auto.wal_stats().unwrap().replayed_records,
        manual.wal_stats().unwrap().replayed_records,
    );
    assert!(auto.verify().unwrap() && manual.verify().unwrap());
    drop((auto, manual));
    std::fs::remove_dir_all(&auto_dir).unwrap();
    std::fs::remove_dir_all(&manual_dir).unwrap();
}

/// K durable tenants over one shared committer, written concurrently,
/// killed, reopened: every dataset recovers exactly its acknowledged
/// writes (flush barriers release only after the shared sync window
/// closes, so "flushed" must always mean "recoverable").
#[test]
fn grouped_tenants_each_recover_their_committed_prefix_after_kill() {
    const TENANTS: usize = 4;
    const ROUNDS: u32 = 8;
    let committer = Arc::new(GroupCommitter::new());
    let dirs: Vec<PathBuf> = (0..TENANTS)
        .map(|i| test_dir(&format!("grouped-{i}")))
        .collect();
    let mut expected: Vec<(String, u64)> = Vec::new();
    {
        let datasets: Vec<Dataset> = dirs
            .iter()
            .map(|dir| {
                let options = DurabilityOptions {
                    wal: WalOptions {
                        sync: SyncPolicy::Grouped(Arc::clone(&committer)),
                        ..WalOptions::default()
                    },
                    ..Default::default()
                };
                Dataset::open_with("db", config(), dir, options).unwrap()
            })
            .collect();
        std::thread::scope(|s| {
            for (t, ds) in datasets.iter().enumerate() {
                s.spawn(move || {
                    drain(ds, rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3", "5 6"]));
                    ds.mine().unwrap();
                    for round in 0..ROUNDS {
                        // Tenant-distinct streams: fresh rows and toggled
                        // annotations, every drain effective.
                        let op = if round % 2 == 0 {
                            rows(&[&format!("{} {} A{}", t + 3, round + 10, t)])
                        } else {
                            annotate(&[(round, "A0")])
                        };
                        drain(ds, op);
                    }
                });
            }
        });
        // Every effective append (seed drain, mine, and at least the four
        // fresh-row drains per tenant) went through the shared committer;
        // odd rounds may fold to no-ops and are rightly never logged.
        let stats = committer.stats();
        assert!(
            stats.submitted >= (TENANTS as u64) * 6,
            "effective drains must flow through the committer: {stats:?}"
        );
        for ds in &datasets {
            assert!(ds.verify().unwrap());
            let snap = ds.snapshot().unwrap();
            expected.push((snapshot_to_string(snap.relation()), snap.relation_epoch()));
        }
        // Dropped here: all four writers stop — the "kill".
    }
    for (dir, (text, epoch)) in dirs.iter().zip(&expected) {
        let ds = Dataset::open("db", config(), dir).unwrap();
        let snap = ds.snapshot().unwrap();
        assert_eq!(&snapshot_to_string(snap.relation()), text);
        assert_eq!(snap.relation_epoch(), *epoch);
        assert!(ds.verify().unwrap());
        drop(ds);
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The dedupe regression (ISSUE 5 satellite): a duplicated
/// `(tuple, annotation)` pair inside one coalesced drain — what two
/// clients annotating the same thing in the same drain window produce —
/// must reach the log exactly once. Pre-dedupe, the echo was logged,
/// replayed, and pushed through maintenance on every recovery; the two
/// datasets below diverged by the duplicate's log bytes.
#[test]
fn duplicated_annotate_pair_in_one_drain_is_logged_once() {
    let dup_dir = test_dir("dup-pair");
    let single_dir = test_dir("single-pair");
    let seed = ["1 2 A0", "1 2 A0", "1 3", "2 4"];
    let open = |dir: &PathBuf| {
        let ds = Dataset::open("db", config(), dir).unwrap();
        drain(&ds, rows(&seed));
        ds.mine().unwrap();
        ds
    };
    let dup = open(&dup_dir);
    let single = open(&single_dir);
    // One coalesced drain whose batch carries the pair twice vs. once.
    drain(&dup, annotate(&[(2, "A0"), (2, "A0")]));
    drain(&single, annotate(&[(2, "A0")]));

    let dup_ws = dup.wal_stats().unwrap();
    let single_ws = single.wal_stats().unwrap();
    assert_eq!(dup_ws.appends, single_ws.appends);
    assert_eq!(
        dup_ws.appended_bytes, single_ws.appended_bytes,
        "the duplicate update must not reach the log: {dup_ws:?} vs {single_ws:?}"
    );
    let snap = dup.snapshot().unwrap();
    assert_eq!(
        snap.relation()
            .tuple(TupleId(2))
            .unwrap()
            .annotations()
            .len(),
        1,
        "exactly one annotation lands"
    );
    assert_eq!(
        snapshot_to_string(snap.relation()),
        snapshot_to_string(single.snapshot().unwrap().relation()),
    );
    assert!(dup.verify().unwrap());
    // And the deduped log replays to the same state.
    drop((dup, single));
    let dup = Dataset::open("db", config(), &dup_dir).unwrap();
    assert_eq!(
        dup.snapshot()
            .unwrap()
            .relation()
            .tuple(TupleId(2))
            .unwrap()
            .annotations()
            .len(),
        1
    );
    assert!(dup.verify().unwrap());
    drop(dup);
    std::fs::remove_dir_all(&dup_dir).unwrap();
    std::fs::remove_dir_all(&single_dir).unwrap();
}

/// Unified failure policy (ISSUE 5 satellite): a `mine` whose WAL append
/// fails must fence the dataset — exactly what the writer does to an
/// unloggable drain — not return an error and keep serving, or the served
/// rule set would diverge from what a restart recovers.
#[test]
fn unloggable_mine_fences_the_dataset_like_an_unloggable_drain() {
    let dir = test_dir("mine-fence");
    // Tiny segments so the mine record's append must roll into a fresh
    // segment file — which fails once the directory is gone.
    let options = DurabilityOptions {
        wal: WalOptions {
            segment_bytes: 64,
            ..WalOptions::default()
        },
        ..Default::default()
    };
    let ds = Dataset::open_with("db", config(), &dir, options).unwrap();
    drain(&ds, rows(&["1 2 A0", "1 2 A0", "1 3"]));
    std::fs::remove_dir_all(&dir).unwrap();
    match ds.mine() {
        Err(ServiceError::Durability(_)) => {}
        other => panic!("unloggable mine must fail as a durability error, got {other:?}"),
    }
    assert!(
        matches!(ds.enqueue(rows(&["9 9"])), Err(ServiceError::ShutDown(_))),
        "the dataset must be fenced after an unloggable mine"
    );
    // No accepted work is outstanding, so the flush barrier is vacuously
    // satisfied — but re-mining a fenced dataset is refused outright.
    assert!(ds.flush().is_ok());
    assert!(matches!(ds.mine(), Err(ServiceError::ShutDown(_))));
}

/// The message path under load: while a bulk loader floods a durable
/// tenant (with the auto-checkpoint policy firing underneath), concurrent
/// `mine`, `checkpoint`, `verify` and `wal_stats` callers are all served
/// by the one owner thread between drains — every call returns, and the
/// maintained state is still exact at the end.
#[test]
fn control_requests_are_served_while_a_bulk_flood_runs() {
    const ROUNDS: usize = 6;
    let dir = test_dir("flood-control");
    let ds = Dataset::open_with("db", config(), &dir, policy_records(8)).unwrap();
    drain(&ds, rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3", "2 4 A1"]));
    ds.mine().unwrap();
    // Backpressure paces the loader at the drain rate, which bounds how
    // large the relation (and each re-mine below) can grow.
    ds.set_queue_cap(16);

    let flooding = std::sync::atomic::AtomicBool::new(true);
    let start = std::sync::Barrier::new(5);
    std::thread::scope(|s| {
        // The flood runs for as long as any control caller does.
        let flood = s.spawn(|| {
            start.wait();
            let mut sent = 0u32;
            while flooding.load(Ordering::SeqCst) {
                let op = rows(&[&format!("{} {} A{}", sent % 9, sent % 7, sent % 3)]);
                ds.enqueue(op).unwrap();
                sent += 1;
            }
            sent
        });
        let callers = [
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    ds.mine().unwrap();
                }
            }),
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    ds.checkpoint().unwrap();
                }
            }),
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    assert!(ds.verify().unwrap());
                }
            }),
            s.spawn(|| {
                start.wait();
                let mut last = 0;
                for _ in 0..ROUNDS * 50 {
                    let appends = ds.wal_stats().unwrap().appends;
                    assert!(appends >= last, "log counters ran backwards");
                    last = appends;
                }
            }),
        ];
        for caller in callers {
            caller.join().unwrap();
        }
        flooding.store(false, Ordering::SeqCst);
        assert!(flood.join().unwrap() > 0);
    });
    ds.quiesce_maintenance();
    assert!(ds.verify().unwrap(), "exact after the flood");
    let m = ds.metrics();
    assert!(m.checkpoints >= ROUNDS as u64, "{m:?}");

    // And everything acknowledged is what a restart recovers.
    ds.flush().unwrap();
    let text = snapshot_to_string(ds.snapshot().unwrap().relation());
    drop(ds);
    let ds = Dataset::open("db", config(), &dir).unwrap();
    assert_eq!(snapshot_to_string(ds.snapshot().unwrap().relation()), text);
    assert!(ds.verify().unwrap());
    drop(ds);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `shutdown()` answers every control request still waiting on the owner
/// with `ShutDown` — a `checkpoint` parked behind an in-flight (stalled)
/// encode, and `mine`/`verify` sitting in a paused owner's mailbox — and
/// never leaves a caller blocked. Queued ops are still drained, and the
/// in-flight checkpoint still lands.
#[test]
fn shutdown_fails_parked_control_requests_instead_of_blocking() {
    const STALL: Duration = Duration::from_millis(1000);
    let dir = test_dir("shutdown-parked");
    let options = DurabilityOptions {
        encode_stall_for_tests: Some(STALL),
        ..policy_records(2)
    };
    let ds = Dataset::open_with("db", config(), &dir, options).unwrap();
    drain(&ds, rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3"]));
    ds.mine().unwrap();
    // Second record: the policy fires before this flush returns, and the
    // encoder now sleeps out the stall with the checkpoint in flight.
    drain(&ds, annotate(&[(3, "A0")]));
    ds.pause_writer_for_tests(true);
    ds.enqueue(rows(&["5 6 A1"])).unwrap();

    let posting = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        let parked = [
            s.spawn(|| {
                posting.wait();
                ds.checkpoint().map(|_| ())
            }),
            s.spawn(|| {
                posting.wait();
                ds.mine().map(|_| ())
            }),
            s.spawn(|| {
                posting.wait();
                ds.verify().map(|_| ())
            }),
        ];
        posting.wait();
        ds.shutdown();
        for caller in parked {
            let answer = caller.join().expect("a parked caller must return");
            assert!(
                matches!(answer, Err(ServiceError::ShutDown(_))),
                "parked request answered {answer:?}"
            );
        }
    });
    assert!(matches!(ds.mine(), Err(ServiceError::ShutDown(_))));
    let m = ds.metrics();
    assert_eq!(m.auto_checkpoints, 1, "in-flight commit landed: {m:?}");
    drop(ds);

    // The op queued before shutdown was drained and logged.
    let ds = Dataset::open("db", config(), &dir).unwrap();
    assert_eq!(ds.snapshot().unwrap().db_size(), 5);
    assert_eq!(ds.wal_stats().unwrap().replayed_records, 1);
    drop(ds);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// (annotation, confidence, support) per recommendation, as served.
fn served(snap: &RuleSnapshot, tid: TupleId) -> Vec<(Item, f64, f64)> {
    top_k_for_tuple(snap, tid, usize::MAX)
        .unwrap()
        .into_iter()
        .map(|r| (r.annotation, r.confidence, r.support))
        .collect()
}

/// The same triples for `tid`'s entries of an offline recommendation list.
fn offline(recs: &[Recommendation], tid: TupleId) -> Vec<(Item, f64, f64)> {
    recs.iter()
        .filter(|r| r.tuple == tid)
        .map(|r| (r.annotation, r.rule.confidence(), r.rule.support()))
        .collect()
}

/// §5 served from the snapshot's rule index equals the offline scan over
/// a from-scratch re-mine: for every live tuple after Case 1, Case 3 and
/// deletion drains, and for the tuples a later insert adds (the insert
/// trigger of Fig. 17, answered from the maintained rules).
#[test]
fn served_recommendations_equal_offline_ones() {
    let config = IncrementalConfig {
        thresholds: Thresholds::new(0.1, 0.5),
        ..Default::default()
    };
    for seed in 1..=3 {
        let truth = generate(&GeneratorConfig::tiny(seed)).relation;
        let (damaged, hidden) = hide_annotations(&truth, &mut StdRng::seed_from_u64(seed), 0.2);
        let lines: Vec<String> = dataset_to_string(&damaged)
            .lines()
            .map(str::to_string)
            .collect();
        // Rows load in order, so tuple ids agree with `truth`'s.
        let name = |item| truth.vocab().name(item).to_string();
        let ds = Dataset::spawn("served", config).unwrap();
        drain(&ds, UpdateOp::InsertRows(lines[..150].to_vec()));
        ds.mine().unwrap();
        drain(&ds, UpdateOp::InsertRows(lines[150..].to_vec()));
        let restored = hidden.iter().step_by(2);
        drain(
            &ds,
            UpdateOp::AnnotateNamed(restored.map(|u| (u.tuple, name(u.annotation))).collect()),
        );
        let removed = damaged.iter().step_by(7).filter_map(|(tid, t)| {
            let &ann = t.annotations().first()?;
            Some((tid, name(ann)))
        });
        drain(&ds, UpdateOp::RemoveNamed(removed.collect()));
        drain(&ds, UpdateOp::DeleteTuples(vec![TupleId(5), TupleId(77)]));

        let snap = ds.snapshot().unwrap();
        let rel = snap.relation();
        let scan = recommend_missing(rel, &mine_rules(rel, &config.thresholds));
        assert!(
            !scan.is_empty(),
            "seed {seed}: the scan recommends something"
        );
        for (tid, _) in rel.iter() {
            assert_eq!(
                served(&snap, tid),
                offline(&scan, tid),
                "seed {seed}, {tid}"
            );
        }

        // The insert trigger: annotated tuples' data arrives bare.
        let before = rel.slot_count() as u32;
        let bare = truth
            .iter()
            .filter(|(_, t)| !t.is_unannotated())
            .take(10)
            .map(|(_, t)| {
                t.data()
                    .iter()
                    .map(|&d| name(d))
                    .collect::<Vec<_>>()
                    .join(" ")
            });
        drain(&ds, UpdateOp::InsertRows(bare.collect()));
        let snap = ds.snapshot().unwrap();
        let added: Vec<TupleId> = (before..snap.relation().slot_count() as u32)
            .map(TupleId)
            .collect();
        assert_eq!(added.len(), 10);
        let trigger = recommend_for_tuples(snap.relation(), snap.rules(), added.iter().copied());
        assert!(!trigger.is_empty(), "seed {seed}: the trigger fires");
        for &tid in &added {
            assert_eq!(
                served(&snap, tid),
                offline(&trigger, tid),
                "seed {seed}, {tid}"
            );
        }
        assert!(ds.verify().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Recovery transparency: a policy firing at an arbitrary drain index
    /// never changes what a kill/restart recovers. The policy-driven
    /// dataset and a never-checkpointing twin run the same drain script;
    /// after reopen both must hold byte-identical snapshots, matching
    /// epochs, and pass `verify_against_remine`.
    #[test]
    fn auto_checkpoint_at_any_drain_index_is_recovery_transparent(
        trigger in 1u64..10,
        drain_specs in proptest::collection::vec((0u8..4, 0u32..24, 0u32..6), 1..8),
    ) {
        let auto_dir = test_dir("transparent-auto");
        let plain_dir = test_dir("transparent-plain");
        let script = |ds: &Dataset| {
            drain(ds, rows(&["1 2 A0", "1 2 A0", "1 3 A1", "2 3", "2 4 A1", "5 6"]));
            ds.mine().unwrap();
            for &(kind, a, b) in &drain_specs {
                let op = match kind {
                    0 => rows(&[&format!("{} {} A{b}", a % 9, a % 7)]),
                    1 => annotate(&[(a, "A0"), (a / 2, &format!("A{b}"))]),
                    2 => UpdateOp::RemoveNamed(vec![(TupleId(a), format!("A{b}"))]),
                    _ => UpdateOp::DeleteTuples(vec![TupleId(a)]),
                };
                drain(ds, op);
            }
        };
        let fired = {
            let ds = Dataset::open_with("db", config(), &auto_dir, policy_records(trigger)).unwrap();
            script(&ds);
            ds.quiesce_maintenance();
            ds.metrics().auto_checkpoints
        };
        {
            let ds = Dataset::open_with("db", config(), &plain_dir, DurabilityOptions::default())
                .unwrap();
            script(&ds);
        }
        let auto = Dataset::open("db", config(), &auto_dir).unwrap();
        let plain = Dataset::open("db", config(), &plain_dir).unwrap();
        let snap_auto = auto.snapshot().unwrap();
        let snap_plain = plain.snapshot().unwrap();
        prop_assert_eq!(
            snapshot_to_string(snap_auto.relation()),
            snapshot_to_string(snap_plain.relation()),
            "checkpointing must never change recovered state"
        );
        prop_assert_eq!(snap_auto.relation_epoch(), snap_plain.relation_epoch());
        prop_assert!(auto.verify().unwrap());
        prop_assert!(plain.verify().unwrap());
        // The lowest trigger always fires on the seed drain: transparency
        // above is never vacuous.
        if trigger == 1 {
            prop_assert!(fired >= 1, "policy at trigger=1 must have fired");
        }
        drop((auto, plain));
        std::fs::remove_dir_all(&auto_dir).ok();
        std::fs::remove_dir_all(&plain_dir).ok();
    }
}
