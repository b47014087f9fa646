//! The `restart` section: recovery, replica rebuild, failover.
//!
//! Built once: a durable leader — load, mine, `checkpoint`, then a tail
//! of single-annotation drains — shut down cleanly, its directory kept as
//! a template. Each cycle then works on fresh copies of the template:
//! `Dataset::open` to the first served snapshot; `Dataset::checkpoint` on
//! the reopened leader; a cold `Dataset::follow` caught up over the whole
//! log; `promote` of that follower. Only `wal` (scan, tail), decode and
//! `mine` replay work; nothing on the live request path runs.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use anno_service::{Dataset, UpdateOp};
use anno_store::TupleId;

use crate::curate::load_rows;
use crate::gen::{Corpus, Shape};
use crate::maintain::mining_config;
use crate::stats::as_ms;
use crate::trace::{Tracer, NO_SPAN};
use crate::Report;

/// Poll interval of the cold follower: only `catchup_now` ever polls.
const MANUAL_POLL: Duration = Duration::from_secs(3600);

/// Annotation the tail drains attach: new to the vocabulary and far too
/// rare to enter the itemset table, so the tail costs the same per record
/// on every seed.
const TAIL_MARK: &str = "Reviewed";

pub struct Fixture {
    /// The dead leader's directory: checkpoint + `tail` log records.
    pub template: PathBuf,
    /// A copy taken right after the checkpoint, before any tail record.
    pub checkpoint_only: PathBuf,
    pub scratch: PathBuf,
    pub tail: usize,
    pub tuples: usize,
    pub checkpoint_bytes: usize,
    /// `rules`-equivalent text served just before shutdown.
    pub rule_text: String,
    cycles: u64,
}

#[derive(Default)]
pub struct Samples {
    pub recover_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub catchup_s: Vec<f64>,
    pub catchup_records: Vec<u64>,
    pub promote_ms: Vec<f64>,
}

/// Every rule the dataset serves, as text.
pub fn rule_text(ds: &Dataset) -> Result<String, String> {
    let snap = ds.snapshot().map_err(|e| e.to_string())?;
    Ok(snap.rules().render(snap.relation().vocab()))
}

/// Copy a log directory, file by file, into the fresh directory `to`. The
/// owner's `wal.lock` is left behind: the copy is a dead leader's
/// directory.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {} -> {}: {e}", from.display(), to.display());
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        if entry.file_name() != anno_wal::LOCK_FILE {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
        }
    }
    Ok(())
}

/// Build the template directory: load, mine, checkpoint, tail, shut down.
pub fn setup(
    root: &Path,
    seed: u64,
    shape: Shape,
    tail: usize,
    tag: &str,
) -> Result<Fixture, String> {
    let err = |e: anno_service::ServiceError| format!("restart setup: {e}");
    let scratch = root.join(format!("rst{tag}"));
    let template = scratch.join("template");
    let checkpoint_only = scratch.join("checkpoint-only");
    let corpus = Corpus::new(seed, shape, 0);
    let tuples = corpus.live_tuples();

    let leader = Dataset::open("rst", mining_config(), &template).map_err(err)?;
    load_rows(&leader, &corpus.rows())?;
    leader.mine().map_err(err)?;
    let (_, checkpoint_bytes) = leader.checkpoint().map_err(err)?;
    copy_dir(&template, &checkpoint_only)?;
    // One drain — one log record — per annotation, on distinct tuples.
    let stride = (tuples / tail.max(1)).max(1);
    for i in 0..tail {
        let tid = TupleId((i * stride % tuples) as u32);
        leader
            .enqueue(UpdateOp::AnnotateNamed(vec![(tid, TAIL_MARK.into())]))
            .map_err(err)?;
        leader.flush().map_err(err)?;
    }
    let rule_text = rule_text(&leader)?;
    drop(leader);

    Ok(Fixture {
        template,
        checkpoint_only,
        scratch,
        tail,
        tuples,
        checkpoint_bytes,
        rule_text,
        cycles: 0,
    })
}

/// One recovery + checkpoint + follow + promote cycle per iteration, for
/// `budget` (at least `min_cycles`).
pub fn run(
    fx: &mut Fixture,
    budget: Duration,
    min_cycles: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    samples: &mut Samples,
) -> Result<(), String> {
    let err = |e: anno_service::ServiceError| format!("restart cycle: {e}");
    let start = Instant::now();
    let mut done = 0;
    while done < min_cycles || start.elapsed() < budget {
        let op = fx.cycles;
        fx.cycles += 1;
        done += 1;
        report.attempted += 4;

        // Recovery: open → first snapshot served.
        let dir = fx.scratch.join("recover");
        copy_dir(&fx.template, &dir)?;
        let t = Instant::now();
        let leader = Dataset::open("rst", mining_config(), &dir).map_err(err)?;
        leader.snapshot().map_err(err)?;
        let opened = Instant::now();
        samples.recover_ms.push(as_ms(opened - t));
        tracer.span("dataset.open", NO_SPAN, op, t, opened);
        let replayed = leader.wal_stats().map_or(0, |s| s.replayed_records);
        report.check(
            replayed == fx.tail as u64,
            &format!(
                "restart: replayed {replayed} records, the tail has {}",
                fx.tail
            ),
        );
        report.check(
            rule_text(&leader)? == fx.rule_text,
            "restart: recovered dataset serves different rules than before shutdown",
        );

        // Checkpoint of the reopened leader: capture + encode + write.
        let t = Instant::now();
        leader.checkpoint().map_err(err)?;
        let written = Instant::now();
        samples.checkpoint_ms.push(as_ms(written - t));
        tracer.span("dataset.checkpoint", NO_SPAN, op, t, written);
        drop(leader);

        // Replica rebuild: cold follower over the whole log.
        let dir = fx.scratch.join("follow");
        copy_dir(&fx.template, &dir)?;
        let t = Instant::now();
        let follower = Dataset::follow("rst", mining_config(), &dir, MANUAL_POLL).map_err(err)?;
        let status = follower.catchup_now().map_err(err)?;
        let caught = Instant::now();
        samples.catchup_s.push((caught - t).as_secs_f64());
        samples.catchup_records.push(status.records_applied);
        tracer.span("dataset.follow_catchup", NO_SPAN, op, t, caught);
        report.check(
            status.bytes_behind == 0 && status.records_applied == fx.tail as u64,
            &format!("restart: cold follower ended at {status:?}"),
        );

        // Failover: caught-up follower → writable leader.
        let t = Instant::now();
        follower.promote().map_err(err)?;
        let promoted = Instant::now();
        samples.promote_ms.push(as_ms(promoted - t));
        tracer.span("dataset.promote", NO_SPAN, op, t, promoted);
        report.check(
            follower.is_durable() && rule_text(&follower)? == fx.rule_text,
            "restart: promoted dataset serves different rules than before shutdown",
        );
        if done == 1 {
            // Both oracles, once: every cycle restores the same bytes.
            report.check(
                follower.verify().map_err(err)?,
                "restart: promoted dataset failed verify",
            );
        }
        drop(follower);
    }
    Ok(())
}
