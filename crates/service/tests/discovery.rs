//! Discovery subsystem suite (ISSUE 8): the incrementally maintained
//! correlation top-k across the durability and replication layers, plus
//! the offloaded auto-checkpoint encode that ships alongside it.
//!
//! The contracts under test:
//!
//! * **`discover` answers survive a restart.** Reopening a durable
//!   dataset — from the WAL alone or from a checkpoint plus log tail —
//!   republishes the same discovery snapshot at the same epoch, and the
//!   rebuilt index matches a full rescan (`Dataset::verify` checks both
//!   the rule set and the discovery index).
//! * **A follower's `discover` matches the leader's committed prefix.**
//!   Catch-up, compaction restarts, and promotion all converge the
//!   follower's discovery snapshot onto the leader's, published in
//!   lock-step with its rule snapshot.
//! * **A stalled auto-checkpoint encode blocks nothing.** With the
//!   O(|D|) encode pinned slow on the helper thread, drains, flushes,
//!   and discovery reads all proceed; a manual checkpoint joins the
//!   helper before committing its own (position order holds).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use anno_mine::{IncrementalConfig, Thresholds};
use anno_service::{CheckpointPolicy, Dataset, DiscoverySnapshot, DurabilityOptions, UpdateOp};
use anno_store::{snapshot_to_string, TupleId};
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("anno-discovery-{tag}-{}-{n}", std::process::id()));
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

/// Rows whose annotation families co-fire: `Annot_1`×`Annot_2` on three
/// tuples, `Annot_1` alone on one — enough pairs for a non-empty top-k.
const SEED: [&str; 6] = [
    "28 85 Annot_1 Annot_2",
    "28 85 Annot_1 Annot_2",
    "28 85 Annot_1 Annot_2",
    "28 85 Annot_1",
    "17 99 Annot_3",
    "17 99",
];

/// The content identity a `discover` reader can observe: every ranked
/// pair's names and scores, plus the denominator they were scored at.
/// Epoch is deliberately excluded — leader and follower publish on
/// their own counters.
fn disco_content(snap: &DiscoverySnapshot) -> (u64, u64, Vec<String>) {
    let fmt = |p: &anno_service::DiscoveredPair| {
        format!(
            "{} ~ {} count={} support={:.6} lift={:.6} significant={} cross={}",
            p.a_name, p.b_name, p.count, p.support, p.lift, p.significant, p.cross
        )
    };
    (
        snap.db_size,
        snap.pairs_tracked,
        snap.cross.iter().chain(&snap.within).map(fmt).collect(),
    )
}

/// Published-in-lock-step pin: the discovery snapshot and the rule
/// snapshot a reader pairs must carry the same epoch.
fn assert_lock_step(ds: &Dataset) {
    let disco = ds.try_discovery().expect("discovery published");
    let snap = ds.try_snapshot().expect("rules published");
    assert_eq!(
        disco.epoch,
        snap.epoch(),
        "discovery and rule snapshots must publish at the same instant"
    );
}

/// A mixed drain script that moves every pair-maintenance path:
/// annotate-new, annotate-known, remove, delete, fresh co-fired rows.
fn churn(ds: &Dataset) {
    drain(ds, annotate(&[(4, "Annot_2"), (5, "Annot_1")]));
    drain(
        ds,
        rows(&["40 50 Annot_2 Annot_3", "40 51 Annot_2 Annot_3"]),
    );
    drain(
        ds,
        UpdateOp::RemoveNamed(vec![(TupleId(1), "Annot_2".into())]),
    );
    drain(ds, UpdateOp::DeleteTuples(vec![TupleId(2)]));
    drain(ds, annotate(&[(6, "Annot_3")]));
}

/// Durable reopen, WAL replay alone: the recovered dataset republishes
/// the same discovery content at the same epoch, and the rebuilt index
/// matches a rescan.
#[test]
fn discover_answers_survive_reopen_from_the_wal() {
    let dir = test_dir("reopen-wal");
    let content = {
        let ds = Dataset::open("db", config(), &dir).unwrap();
        drain(&ds, rows(&SEED));
        ds.mine().unwrap();
        churn(&ds);
        assert_lock_step(&ds);
        assert!(ds.verify().unwrap(), "live index matches a rescan");
        let disco = ds.discovery().unwrap();
        assert!(!disco.within.is_empty() || !disco.cross.is_empty());
        disco_content(&disco)
    };
    let ds = Dataset::open("db", config(), &dir).unwrap();
    let disco = ds.discovery().unwrap();
    assert_eq!(disco_content(&disco), content, "replay rebuilds the top-k");
    assert_lock_step(&ds);
    assert!(ds.verify().unwrap());
    drop(ds);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Durable reopen through a checkpoint: the index is rebuilt from the
/// restored miner's table, the replayed tail re-applies on top, and the
/// answers match the pre-restart snapshot.
#[test]
fn discover_answers_survive_reopen_from_a_checkpoint_plus_tail() {
    let dir = test_dir("reopen-ckpt");
    let content = {
        let ds = Dataset::open("db", config(), &dir).unwrap();
        drain(&ds, rows(&SEED));
        ds.mine().unwrap();
        drain(&ds, annotate(&[(4, "Annot_2"), (5, "Annot_1")]));
        ds.checkpoint().unwrap();
        // Tail past the checkpoint: these drains exist only in the log.
        drain(
            &ds,
            rows(&["40 50 Annot_2 Annot_3", "40 51 Annot_2 Annot_3"]),
        );
        drain(
            &ds,
            UpdateOp::RemoveNamed(vec![(TupleId(1), "Annot_2".into())]),
        );
        disco_content(&ds.discovery().unwrap())
    };
    let ds = Dataset::open("db", config(), &dir).unwrap();
    let ws = ds.wal_stats().unwrap();
    assert!(
        ws.replayed_records < 5,
        "recovery must start from the checkpoint, not a full replay: {ws:?}"
    );
    assert_eq!(disco_content(&ds.discovery().unwrap()), content);
    assert_lock_step(&ds);
    assert!(ds.verify().unwrap());
    drop(ds);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A poll interval long enough that the tail thread never fires on its
/// own — every advance below is an explicit `catchup_now`.
const MANUAL: Duration = Duration::from_secs(3600);

/// Follower replication: at every catch-up point — including across a
/// compaction restart and after promotion — the follower's `discover`
/// content equals the leader's committed prefix, published in lock-step
/// with its own rule snapshot.
#[test]
fn follower_discover_matches_the_leader_committed_prefix_and_survives_promotion() {
    let dir = test_dir("follower");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(&leader, rows(&SEED));
    leader.mine().unwrap();

    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    follower.catchup_now().unwrap();
    assert_eq!(
        disco_content(&follower.try_discovery().unwrap()),
        disco_content(&leader.try_discovery().unwrap()),
        "caught-up follower serves the leader's top-k"
    );
    assert_lock_step(&follower);

    // Stream churn with the follower trailing by explicit polls.
    churn(&leader);
    follower.catchup_now().unwrap();
    assert_eq!(
        disco_content(&follower.try_discovery().unwrap()),
        disco_content(&leader.try_discovery().unwrap()),
    );
    assert_lock_step(&follower);

    // Leader checkpoints and compacts; the follower's cursor restarts
    // from the shipped checkpoint, rebuilding discovery from its miner.
    for i in 0..10u32 {
        drain(
            &leader,
            rows(&[&format!("{} {} Annot_1 Annot_2", 100 + i, 200 + i)]),
        );
    }
    leader.checkpoint().unwrap();
    drain(&leader, annotate(&[(3, "Annot_3")]));
    let st = follower.catchup_now().unwrap();
    assert_eq!(st.failed, None);
    assert!(
        st.restarts >= 1,
        "compaction must restart the cursor: {st:?}"
    );
    assert_eq!(
        disco_content(&follower.try_discovery().unwrap()),
        disco_content(&leader.try_discovery().unwrap()),
        "discovery converges across the compaction restart"
    );
    assert_lock_step(&follower);

    // Kill the leader; the promoted follower keeps the same answers and
    // maintains them through new writes.
    let committed = disco_content(&leader.try_discovery().unwrap());
    drop(leader);
    follower.catchup_now().unwrap();
    follower.promote().unwrap();
    assert_eq!(
        disco_content(&follower.try_discovery().unwrap()),
        committed,
        "promotion serves exactly the committed top-k"
    );
    assert!(
        follower.verify().unwrap(),
        "index matches a rescan post-promote"
    );
    drain(&follower, rows(&["77 88 Annot_1 Annot_3"]));
    assert_lock_step(&follower);
    assert!(follower.verify().unwrap());
    drop(follower);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The satellite regression pin: with the auto-checkpoint encode stalled
/// on the helper thread, drains/flushes/reads all complete long before
/// the stall elapses — the writer is never blocked on the O(|D|) encode
/// — and a manual checkpoint afterwards joins the helper before
/// committing its own, newer position.
#[test]
fn drains_proceed_while_an_auto_checkpoint_encode_is_stalled() {
    const STALL: Duration = Duration::from_millis(1500);
    let dir = test_dir("stalled-encode");
    let options = DurabilityOptions {
        auto_checkpoint: CheckpointPolicy {
            replayed_records: Some(2),
            ..Default::default()
        },
        encode_stall_for_tests: Some(STALL),
        ..Default::default()
    };
    let ds = Dataset::open_with("db", config(), &dir, options).unwrap();
    drain(&ds, rows(&SEED));
    ds.mine().unwrap();
    // This drain crosses the 2-record threshold: the writer captures and
    // hands the encode to the helper, which now sleeps out the stall.
    drain(&ds, annotate(&[(4, "Annot_2")]));

    let t0 = Instant::now();
    for i in 0..3u32 {
        drain(
            &ds,
            rows(&[&format!("{} {} Annot_1 Annot_2", 300 + i, 400 + i)]),
        );
        assert!(ds.discovery().unwrap().pairs_tracked >= 1);
        assert!(ds.try_snapshot().is_some());
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < STALL,
        "drains concurrent with a stalled encode must not wait it out: \
         3 drains took {elapsed:?} against a {STALL:?} stall"
    );

    // A manual checkpoint must first join the stalled helper (commit
    // order = capture order), then write its own, newer position.
    ds.checkpoint().unwrap();
    let m = ds.metrics();
    assert!(m.auto_checkpoints >= 1, "the policy's commit landed: {m:?}");
    assert!(
        m.checkpoints > m.auto_checkpoints,
        "the manual commit landed after it: {m:?}"
    );
    let ws = ds.wal_stats().unwrap();
    assert_eq!(
        ws.since_checkpoint_records, 0,
        "the newest position wins: {ws:?}"
    );

    // And the stalled-then-committed chain recovers cleanly.
    let content = disco_content(&ds.discovery().unwrap());
    let text = snapshot_to_string(ds.snapshot().unwrap().relation());
    drop(ds);
    let ds = Dataset::open("db", config(), &dir).unwrap();
    assert_eq!(
        ds.wal_stats().unwrap().replayed_records,
        0,
        "manual checkpoint covered the log"
    );
    assert_eq!(snapshot_to_string(ds.snapshot().unwrap().relation()), text);
    assert_eq!(disco_content(&ds.discovery().unwrap()), content);
    assert!(ds.verify().unwrap());
    drop(ds);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Restart transparency at any cut: run a random drain script, kill,
    /// reopen — the republished discovery top-k equals the pre-kill one
    /// and matches a rescan, with or without a mid-script checkpoint.
    #[test]
    fn discover_reopen_is_transparent_at_any_drain_cut(
        drain_specs in proptest::collection::vec((0u8..4, 0u32..24, 0u32..4), 1..8),
        checkpoint_pick in 0usize..9,
    ) {
        // 0 means "no mid-script checkpoint".
        let checkpoint_at = (checkpoint_pick > 0).then(|| checkpoint_pick - 1);
        let dir = test_dir("prop-reopen");
        let content = {
            let ds = Dataset::open("db", config(), &dir).unwrap();
            drain(&ds, rows(&SEED));
            ds.mine().unwrap();
            for (i, &(kind, a, b)) in drain_specs.iter().enumerate() {
                if checkpoint_at == Some(i) {
                    ds.checkpoint().unwrap();
                }
                let op = match kind {
                    0 => rows(&[&format!("{} {} Annot_{b}", a % 9, a % 7)]),
                    1 => annotate(&[(a % 8, &format!("Annot_{b}"))]),
                    2 => UpdateOp::RemoveNamed(vec![(TupleId(a % 8), format!("Annot_{b}"))]),
                    _ => UpdateOp::DeleteTuples(vec![TupleId(a % 8)]),
                };
                drain(&ds, op);
            }
            prop_assert!(ds.verify().unwrap());
            disco_content(&ds.discovery().unwrap())
        };
        let ds = Dataset::open("db", config(), &dir).unwrap();
        prop_assert_eq!(disco_content(&ds.discovery().unwrap()), content);
        assert_lock_step(&ds);
        prop_assert!(ds.verify().unwrap());
        drop(ds);
        std::fs::remove_dir_all(&dir).ok();
    }
}
