//! Replication suite (ISSUE 7 acceptance): leader/follower log shipping
//! over the WAL, kill-the-leader failover, crash injection, checkpoint
//! races, and a live-tail soak.
//!
//! The contract under test:
//!
//! * **Failover serves exactly the committed prefix.** Kill the leader
//!   (drop it, then tear the last log frame the way a power loss would),
//!   promote the follower: it serves exactly the state a fresh recovery
//!   of that directory reports, `verify_against_remine` holds, publish
//!   epochs never regress across the role flip, and new writes flow.
//! * **Follower replay and leader recovery agree.** Damage the log at an
//!   arbitrary byte: the prefix a tailing follower converges to is the
//!   same exact prefix `Wal::open` recovery reports.
//! * **Compactions don't strand followers.** A follower whose cursor is
//!   behind a checkpoint's compaction restarts from the shipped
//!   checkpoint and converges.
//! * **Every published follower snapshot is a drain-prefix.** Under a
//!   live concurrent tail, a reader sampling the follower only ever
//!   observes snapshots equal to some drain boundary of the leader's
//!   history — never a partial batch.
//!
//! Property cases respect the `PROPTEST_CASES` cap for CI bounding.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use anno_mine::{IncrementalConfig, Thresholds};
use anno_service::{Dataset, ServiceError, UpdateOp};
use anno_store::{snapshot_to_string, TupleId};
use anno_wal::segment::{list_segments, segment_path};
use anno_wal::LOCK_FILE;
use proptest::prelude::*;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("anno-replication-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> IncrementalConfig {
    IncrementalConfig {
        thresholds: Thresholds::new(0.3, 0.6),
        ..Default::default()
    }
}

/// Enqueue one op and wait until it is applied — one drain per call.
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

/// The state identity tests compare: the relation's exact text form plus
/// the rule count. Two datasets with equal fingerprints applied the same
/// drain prefix (interning order included — replay determinism).
fn fingerprint(ds: &Dataset) -> Option<(String, usize)> {
    ds.try_snapshot()
        .map(|s| (snapshot_to_string(s.relation()), s.rules().len()))
}

/// Copy a log directory for a reference recovery, skipping `wal.lock`:
/// the copy must look like a dead leader's directory, not like one still
/// held by this (live) process.
fn copy_log_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name.to_str() == Some(LOCK_FILE) {
            continue;
        }
        std::fs::copy(entry.path(), to.join(&name)).unwrap();
    }
}

/// A poll interval long enough that the tail thread never fires on its
/// own — every poll in these tests is an explicit `catchup_now`, so the
/// follower's view advances only when the test says so.
const MANUAL: Duration = Duration::from_secs(3600);

/// Kill-the-leader failover: stream drains to a live leader with a
/// follower catching up mid-stream, kill the leader and tear the last
/// log frame (the torn-write shape a power loss leaves), promote — the
/// promoted follower serves exactly the committed prefix a reference
/// recovery reports, stays exact, keeps publish epochs monotone, and
/// accepts new writes.
#[test]
fn kill_the_leader_promote_serves_the_committed_prefix_and_accepts_writes() {
    let dir = test_dir("failover");
    let follower = {
        let leader = Dataset::open("db", config(), &dir).unwrap();
        drain(
            &leader,
            rows(&[
                "28 85 Annot_1",
                "28 85 Annot_1",
                "28 85 Annot_1",
                "28 85",
                "17 99",
                "17 85 Annot_2",
            ]),
        );
        leader.mine().unwrap();

        let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
        let st = follower.catchup_now().unwrap();
        assert_eq!(st.failed, None);
        assert_eq!(
            fingerprint(&follower),
            fingerprint(&leader),
            "caught-up follower mirrors the leader"
        );
        // While the leader lives, its wal.lock fences promotion and the
        // follower stays a follower, still serving.
        assert!(matches!(
            follower.promote(),
            Err(ServiceError::Durability(_))
        ));
        assert!(follower.try_snapshot().is_some());

        // More committed drains, follower trailing via catchup.
        drain(&leader, annotate(&[(3, "Annot_1"), (4, "Annot_2")]));
        follower.catchup_now().unwrap();
        drain(&leader, rows(&["28 85 Annot_1", "17 99 Annot_2"]));
        drain(&leader, UpdateOp::DeleteTuples(vec![TupleId(5)]));
        // The follower has NOT polled these last two drains when the
        // leader dies — failover must replay them from the log alone.
        follower
    };
    // Leader is dead (dropped above). Simulate the torn final write a
    // power loss leaves: cut the last segment mid-frame.
    let seqs = list_segments(&dir).unwrap();
    let last = segment_path(&dir, *seqs.last().unwrap());
    let len = std::fs::metadata(&last).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&last)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    // Reference: what a fresh recovery of this directory commits to.
    let ref_dir = test_dir("failover-ref");
    copy_log_dir(&dir, &ref_dir);
    let reference = Dataset::open("db", config(), &ref_dir).unwrap();
    assert!(reference.verify().unwrap());

    // A catchup over the torn tip is damage-tolerant: the follower stops
    // at the intact prefix and keeps serving.
    let st = follower.catchup_now().unwrap();
    assert_eq!(st.failed, None);
    let epoch_pre_promote = follower.try_snapshot().unwrap().epoch();

    follower.promote().unwrap();
    assert_eq!(follower.role(), anno_service::Role::Leader);
    assert!(follower.replication_status().is_none(), "tail loop is gone");
    assert_eq!(
        fingerprint(&follower),
        fingerprint(&reference),
        "promoted follower serves exactly the committed prefix"
    );
    assert!(follower.verify().unwrap(), "exact after failover");
    let promoted_snap = follower.try_snapshot().unwrap();
    assert!(
        promoted_snap.epoch() >= epoch_pre_promote,
        "publish epochs must not regress across promotion: {} -> {}",
        epoch_pre_promote,
        promoted_snap.epoch()
    );

    // The new leader accepts writes, durably.
    drain(&follower, annotate(&[(4, "Annot_1")]));
    let after = follower.try_snapshot().unwrap();
    assert!(after.epoch() > promoted_snap.epoch());
    assert!(follower.verify().unwrap());
    assert!(follower.is_durable());
    assert!(follower.wal_stats().unwrap().appends >= 1);

    // And the promoted state itself survives a restart.
    let final_fp = fingerprint(&follower);
    drop(follower);
    let reopened = Dataset::open("db", config(), &dir).unwrap();
    assert_eq!(fingerprint(&reopened), final_fp);
    assert!(reopened.verify().unwrap());
    drop(reopened);
    drop(reference);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&ref_dir).unwrap();
}

/// Checkpoint race: a follower whose cursor is behind a compaction
/// restarts from the shipped checkpoint and converges — and its restart
/// counter says so.
#[test]
fn follower_behind_a_compaction_restarts_from_the_checkpoint() {
    let dir = test_dir("ckpt-race");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
    leader.mine().unwrap();

    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    follower.catchup_now().unwrap();
    assert_eq!(fingerprint(&follower), fingerprint(&leader));

    // The leader powers ahead and checkpoints: compaction deletes the
    // sealed segments the follower's cursor sits in.
    for i in 0..12u32 {
        drain(
            &leader,
            rows(&[&format!("{} {} Annot_1", 100 + i, 200 + i)]),
        );
    }
    leader.checkpoint().unwrap();
    drain(&leader, annotate(&[(3, "Annot_1")]));

    let st = follower.catchup_now().unwrap();
    assert_eq!(st.failed, None);
    assert!(
        st.restarts >= 1,
        "cursor must have restarted from the checkpoint: {st:?}"
    );
    assert_eq!(
        fingerprint(&follower),
        fingerprint(&leader),
        "follower converges across the compaction"
    );
    assert_eq!(st.bytes_behind, 0, "fully caught up: {st:?}");

    // A second compaction cycle converges again (restart is not a
    // one-shot).
    drain(&leader, rows(&["77 88 Annot_2", "77 88 Annot_2"]));
    leader.checkpoint().unwrap();
    drain(&leader, annotate(&[(4, "Annot_1")]));
    let st = follower.catchup_now().unwrap();
    assert!(st.restarts >= 2, "{st:?}");
    assert_eq!(fingerprint(&follower), fingerprint(&leader));

    drop(leader);
    drop(follower);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A promotion that fails *after* taking `wal.lock` — here the directory's
/// checkpoint turns out undecodable — must leave a healthy follower
/// behind, not a zombie: still a follower, still attached, still tailing
/// and serving its last prefix, the lock released, and a retry failing
/// the same typed way.
#[test]
fn failed_promote_leaves_a_tailing_follower_not_a_zombie() {
    let dir = test_dir("promote-fails");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
    leader.mine().unwrap();
    drain(&leader, annotate(&[(2, "Annot_1")]));

    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    follower.catchup_now().unwrap();
    let served = fingerprint(&follower);
    assert_eq!(served, fingerprint(&leader));

    // The leader dies, and the checkpoint recovery would restore is a
    // cleanly framed payload of garbage, bound to the end of the log
    // (where the caught-up follower's cursor already is).
    let end = leader.wal_stats().unwrap().position;
    drop(leader);
    anno_wal::checkpoint::write_checkpoint(&dir, end, b"not a checkpoint payload").unwrap();

    let first = follower.promote().unwrap_err();
    assert!(matches!(first, ServiceError::Durability(_)), "{first:?}");
    assert_eq!(follower.role(), anno_service::Role::Follower);
    assert!(
        follower.replication_status().is_some(),
        "the attachment must survive a failed promotion"
    );
    assert_eq!(
        fingerprint(&follower),
        served,
        "reads serve the last prefix"
    );
    assert!(matches!(
        follower.enqueue(rows(&["1 2"])),
        Err(ServiceError::ReadOnlyRole(_))
    ));
    let st = follower.catchup_now().expect("still tailing");
    assert_eq!(st.failed, None);

    // Same cause, same typed answer — not "no replication attachment".
    let second = follower.promote().unwrap_err();
    assert_eq!(second.to_string(), first.to_string());

    // The failed takeover released `wal.lock`.
    let reopened = anno_wal::Wal::open(&dir, anno_wal::WalOptions::default());
    assert!(reopened.is_ok(), "lock must be free: {:?}", reopened.err());

    drop(reopened);
    drop(follower);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal line a promotion leaves: what the take-over restored and
/// replayed on top of the state the follower already had.
fn promote_event(ds: &Dataset) -> String {
    let events = ds.events(32);
    let event = events.iter().rev().find(|e| e.kind == "promote");
    event.expect("a promotion is journaled").detail.clone()
}

/// Promotion keeps what the follower has: caught up on a dead leader's
/// log it replays nothing, serves the leader's last state, and writes on
/// top of it durably.
#[test]
fn caught_up_promote_replays_nothing_and_writes_on_top() {
    let dir = test_dir("promote-caught-up");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
    leader.mine().unwrap();
    for i in 0..6u32 {
        drain(
            &leader,
            rows(&[&format!("{} {} Annot_1", 100 + i, 200 + i)]),
        );
    }
    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    let st = follower.catchup_now().unwrap();
    assert_eq!((st.failed, st.bytes_behind), (None, 0));
    let last = fingerprint(&leader);
    drop(leader);

    follower.promote().unwrap();
    let event = promote_event(&follower);
    assert!(
        event.contains("checkpoint=false") && event.contains("replayed_records=0"),
        "a caught-up follower has nothing left to replay: {event}"
    );
    assert_eq!(fingerprint(&follower), last);
    assert!(follower.verify().unwrap());

    drain(&follower, annotate(&[(2, "Annot_1")]));
    let written = fingerprint(&follower);
    assert_ne!(written, last, "the new leader's write took effect");
    drop(follower);
    let reopened = Dataset::open("db", config(), &dir).unwrap();
    assert_eq!(fingerprint(&reopened), written);
    assert!(reopened.verify().unwrap());

    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A follower publishes where its leader did — after every record — not
/// once per poll: a long catch-up serves growing prefixes, and one catchup
/// over five drains hands out five snapshot epochs.
#[test]
fn a_poll_publishes_at_every_record_boundary() {
    let dir = test_dir("per-record-publish");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
    leader.mine().unwrap();
    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    follower.catchup_now().unwrap();
    let before = follower.try_snapshot().unwrap().epoch();

    for i in 0..5u32 {
        drain(
            &leader,
            rows(&[&format!("{} {} Annot_1", 100 + i, 200 + i)]),
        );
    }
    let st = follower.catchup_now().unwrap();
    assert_eq!((st.failed, st.bytes_behind), (None, 0));
    assert_eq!(follower.try_snapshot().unwrap().epoch(), before + 5);
    assert_eq!(fingerprint(&follower), fingerprint(&leader));

    drop((leader, follower));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The one case where a promotion does not keep what it has: the dead
/// leader's directory holds a checkpoint the follower never adopted,
/// *behind* its cursor, where no ordinary poll would look at it. The new
/// leader will depend on that file at its own next restart, so the
/// take-over restarts from it — and lands where a cold open of the same
/// directory does.
///
/// The follower tails a streamed copy of the leader's directory, so the
/// test decides what arrives when: the segments first, the checkpoint
/// that was taken in between last.
#[test]
fn promote_restarts_from_a_checkpoint_behind_the_cursor() {
    let leader_dir = test_dir("ckpt-behind-leader");
    let dir = test_dir("ckpt-behind-copy");
    let leader = Dataset::open("db", config(), &leader_dir).unwrap();
    drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
    leader.mine().unwrap();
    drain(&leader, annotate(&[(2, "Annot_1")]));
    copy_log_dir(&leader_dir, &dir);
    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    follower.catchup_now().unwrap();

    // The leader checkpoints (sealing its segment and compacting it
    // away) and writes on; only the new segment is shipped.
    let (ckpt_at, _) = leader.checkpoint().unwrap();
    drain(&leader, rows(&["17 99 Annot_2", "17 99 Annot_2"]));
    drain(&leader, annotate(&[(0, "Annot_2")]));
    let shipped = anno_wal::segment::segment_file_name(ckpt_at.segment);
    std::fs::copy(leader_dir.join(&shipped), dir.join(&shipped)).unwrap();
    let st = follower.catchup_now().unwrap();
    assert_eq!((st.failed, st.restarts, st.bytes_behind), (None, 0, 0));
    assert_eq!(fingerprint(&follower), fingerprint(&leader));

    // The leader dies; its checkpoint arrives last, behind the cursor.
    drop(leader);
    let ckpt = anno_wal::checkpoint::CHECKPOINT_FILE;
    std::fs::copy(leader_dir.join(ckpt), dir.join(ckpt)).unwrap();
    let st = follower.catchup_now().unwrap();
    assert_eq!(st.restarts, 0, "an ordinary poll has no use for it");
    let served = fingerprint(&follower);

    let ref_dir = test_dir("ckpt-behind-ref");
    copy_log_dir(&dir, &ref_dir);
    let reference = Dataset::open("db", config(), &ref_dir).unwrap();

    follower.promote().unwrap();
    let event = promote_event(&follower);
    assert!(
        event.contains("checkpoint=true") && event.contains("replayed_records=2"),
        "the take-over must restart from the unadopted checkpoint: {event}"
    );
    assert_eq!(fingerprint(&follower), served);
    assert_eq!(fingerprint(&follower), fingerprint(&reference));
    assert!(follower.verify().unwrap());
    assert_eq!(
        follower.wal_stats().unwrap().since_checkpoint_records,
        reference.wal_stats().unwrap().since_checkpoint_records,
        "the checkpoint policy counts from the checkpoint on disk"
    );
    drain(&follower, rows(&["7 8 Annot_1"]));
    assert!(follower.verify().unwrap());

    drop(follower);
    drop(reference);
    for d in [&leader_dir, &dir, &ref_dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A follower that stopped on a shipped record it cannot apply has a
/// cursor past that record and a state short of it. Promoting it would
/// append on top of a log its state does not reflect, so the promotion
/// is refused — as a cold open of the same directory is — and the
/// follower keeps serving its last good prefix.
#[test]
fn a_follower_stopped_on_a_bad_record_refuses_promotion() {
    let dir = test_dir("promote-after-failure");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
    leader.mine().unwrap();
    let good = fingerprint(&leader);
    drop(leader);
    {
        // A cleanly framed record that is not one of ours.
        let (mut log, _) = anno_wal::Wal::open(&dir, anno_wal::WalOptions::default()).unwrap();
        log.append(b"\xffnot a drain").unwrap();
    }
    let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
    let stopped = follower.catchup_now().unwrap_err();
    assert!(stopped.to_string().contains("follower failed"), "{stopped}");
    assert_eq!(fingerprint(&follower), good);

    let refused = follower.promote().unwrap_err();
    assert!(refused.to_string().contains("follower failed"), "{refused}");
    assert_eq!(follower.role(), anno_service::Role::Follower);
    assert_eq!(fingerprint(&follower), good);
    assert!(Dataset::open("db", config(), &dir).is_err());

    drop(follower);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `catchup` and `promote` are both messages to the one owner thread, so
/// racing them from two threads can interleave any way at all and still
/// neither hangs: every call comes back `Ok` or with a typed error.
#[test]
fn catchup_racing_promote_never_hangs() {
    const CATCHUPS: usize = 50;
    let dir = test_dir("catchup-vs-promote");
    {
        let leader = Dataset::open("db", config(), &dir).unwrap();
        drain(&leader, rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85"]));
        leader.mine().unwrap();
        for i in 0..8u32 {
            drain(
                &leader,
                rows(&[&format!("{} {} Annot_1", 100 + i, 200 + i)]),
            );
        }
    }
    let follower = Dataset::follow("db", config(), &dir, Duration::from_millis(1)).unwrap();
    let start = std::sync::Barrier::new(2);
    let (caught_up, refused) = std::thread::scope(|s| {
        let catchups = s.spawn(|| {
            start.wait();
            let (mut ok, mut refused) = (0, 0);
            for _ in 0..CATCHUPS {
                match follower.catchup_now() {
                    Ok(st) => {
                        assert_eq!(st.failed, None);
                        ok += 1;
                    }
                    // Once the promotion lands there is no tail to poll.
                    Err(ServiceError::Durability(_)) => refused += 1,
                    Err(other) => panic!("untyped catchup failure: {other:?}"),
                }
            }
            (ok, refused)
        });
        start.wait();
        follower
            .promote()
            .expect("the leader is dead; takeover succeeds");
        catchups.join().unwrap()
    });
    assert_eq!(caught_up + refused, CATCHUPS);
    assert_eq!(follower.role(), anno_service::Role::Leader);
    assert!(follower.replication_status().is_none());
    assert!(matches!(
        follower.catchup_now(),
        Err(ServiceError::Durability(_))
    ));
    assert!(follower.verify().unwrap());
    drain(&follower, rows(&["7 8 Annot_1"]));
    assert!(follower.verify().unwrap());

    drop(follower);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Live-tail soak: with the follower polling on a short timer while the
/// leader streams drains, every snapshot a sampling reader ever observes
/// on the follower equals some drain-prefix of the leader's history.
#[test]
fn live_tail_soak_every_follower_snapshot_is_a_drain_prefix() {
    let dir = test_dir("soak");
    let leader = Dataset::open("db", config(), &dir).unwrap();
    drain(
        &leader,
        rows(&["28 85 Annot_1", "28 85 Annot_1", "28 85", "17 99"]),
    );
    leader.mine().unwrap();

    let follower = std::sync::Arc::new(
        Dataset::follow("db", config(), &dir, Duration::from_millis(1)).unwrap(),
    );

    // Sampler thread: hammer the follower's published snapshot while the
    // leader streams, collecting every distinct state observed.
    let sampler_ds = std::sync::Arc::clone(&follower);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler_stop = std::sync::Arc::clone(&stop);
    let sampler = std::thread::spawn(move || {
        let mut seen: Vec<(u64, (String, usize))> = Vec::new();
        while !sampler_stop.load(Ordering::Relaxed) {
            if let Some(snap) = sampler_ds.try_snapshot() {
                let key = snap.epoch();
                if seen.last().map(|(e, _)| *e) != Some(key) {
                    seen.push((
                        key,
                        (snapshot_to_string(snap.relation()), snap.rules().len()),
                    ));
                }
            }
            std::thread::yield_now();
        }
        seen
    });

    // Stream drains; the leader's own post-flush snapshots are exactly
    // the legal drain-prefixes.
    let mut prefixes: Vec<(String, usize)> = Vec::new();
    prefixes.push(fingerprint(&leader).unwrap());
    for i in 0..40u32 {
        let op = match i % 4 {
            0 => rows(&[&format!("{} {} Annot_1", 300 + i, 400 + i)]),
            1 => annotate(&[(i % 4, "Annot_1")]),
            2 => rows(&[&format!("{} {}", 500 + i, 600 + i)]),
            _ => annotate(&[(i % 6, "Annot_2")]),
        };
        drain(&leader, op);
        prefixes.push(fingerprint(&leader).unwrap());
        if i % 8 == 0 {
            // Give the 1ms tail a moment to interleave mid-stream.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Let the tail drain fully, then stop sampling.
    let st = follower.catchup_now().unwrap();
    assert_eq!(st.failed, None);
    assert_eq!(st.bytes_behind, 0, "{st:?}");
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().unwrap();

    assert!(
        !samples.is_empty(),
        "the sampler must have observed at least one published snapshot"
    );
    for (epoch, state) in &samples {
        assert!(
            prefixes.contains(state),
            "follower snapshot at epoch {epoch} is not any drain-prefix of the leader \
             ({} prefixes, {} samples)",
            prefixes.len(),
            samples.len()
        );
    }
    // Sampled epochs are strictly monotone — published time never runs
    // backwards under the live tail.
    for pair in samples.windows(2) {
        assert!(pair[0].0 < pair[1].0, "epoch regressed: {pair:?}");
    }
    assert_eq!(fingerprint(&follower), fingerprint(&leader));

    drop(leader);
    drop(follower);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash injection: damage the leader's log at an arbitrary byte
    /// (bit flip or truncation). The prefix a tailing follower converges
    /// to is the same exact prefix `Wal::open` recovery reports — and
    /// promotion of that follower lands on it too.
    #[test]
    fn follower_and_recovery_agree_on_the_damaged_prefix(
        drain_specs in proptest::collection::vec(0u32..64, 2..10),
        mine_at in 0usize..4,
        checkpoint_pick in 0usize..9,
        damage_seed in 0u64..u64::MAX,
        flip in any::<bool>(),
    ) {
        let dir = test_dir("crash");
        let mine_at = mine_at.min(drain_specs.len() - 1);
        // 0 means "no mid-stream checkpoint".
        let checkpoint_at = (checkpoint_pick > 0).then_some(checkpoint_pick);
        // Build the committed log: flushed single-op drains, a mine
        // mid-stream, an optional checkpoint (compaction) mid-stream.
        {
            let leader = Dataset::open("db", config(), &dir).unwrap();
            for (i, &spec) in drain_specs.iter().enumerate() {
                if i == mine_at {
                    leader.mine().unwrap();
                }
                if checkpoint_at == Some(i) && i > mine_at {
                    leader.checkpoint().unwrap();
                }
                let op = match spec % 3 {
                    0 => rows(&[&format!("{} {} Annot_1", 10 + spec, 90 + spec)]),
                    1 => rows(&[&format!("{} {}", 10 + spec, 90 + spec)]),
                    _ => annotate(&[(spec % 4, "Annot_1")]),
                };
                drain(&leader, op);
            }
        }
        // Damage one arbitrary byte across the segment files.
        let seqs = list_segments(&dir).unwrap();
        let sizes: Vec<u64> = seqs
            .iter()
            .map(|&s| std::fs::metadata(segment_path(&dir, s)).unwrap().len())
            .collect();
        let total: u64 = sizes.iter().sum();
        let mut at = damage_seed % total;
        let mut victim = 0usize;
        while at >= sizes[victim] {
            at -= sizes[victim];
            victim += 1;
        }
        let path = segment_path(&dir, seqs[victim]);
        if flip {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[at as usize] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
        } else {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(at)
                .unwrap();
        }

        // Reference: the exact prefix leader-side recovery commits to.
        let ref_dir = test_dir("crash-ref");
        copy_log_dir(&dir, &ref_dir);
        let reference = Dataset::open("db", config(), &ref_dir).unwrap();

        // Follower: tail the damaged directory from scratch.
        let follower = Dataset::follow("db", config(), &dir, MANUAL).unwrap();
        let st = follower.catchup_now().unwrap();
        prop_assert!(st.failed.is_none(), "damage must read as lag, not failure: {:?}", st);
        prop_assert_eq!(
            follower.is_mined(),
            reference.is_mined(),
            "mine visibility must match recovery's prefix"
        );
        prop_assert_eq!(
            fingerprint(&follower),
            fingerprint(&reference),
            "follower replay and leader recovery must agree on the exact prefix"
        );
        if reference.is_mined() {
            prop_assert!(reference.verify().unwrap());
        }

        // Promotion re-recovers the same directory: same prefix again,
        // now writable.
        follower.promote().unwrap();
        prop_assert_eq!(fingerprint(&follower), fingerprint(&reference));
        if follower.is_mined() {
            prop_assert!(follower.verify().unwrap());
            drain(&follower, rows(&["7777 8888 Annot_1"]));
            prop_assert!(follower.verify().unwrap());
        }

        drop(follower);
        drop(reference);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}
