//! The `paper_maintain` section: the paper's own experiment (§4.3,
//! Fig. 16 — incremental maintenance against a full re-mine) through the
//! serving writer. No socket and no WAL: a memory [`Dataset`], a few full
//! `mine()`s, then a **closed loop** of `enqueue`+`flush` per batch of the
//! Fig. 16 mix. `mine`, `discover` and `snapshot` do nearly all the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anno_mine::{IncrementalConfig, Thresholds};
use anno_service::{Dataset, RuleSnapshot, UpdateOp};

use crate::curate::load_rows;
use crate::gen::{maintain_hold_back, Case, Corpus, RoundGen, Shape, ALPHA, BETA};
use crate::stats::{as_ms, median};
use crate::trace::{Tracer, NO_SPAN};
use crate::Report;

pub fn mining_config() -> IncrementalConfig {
    IncrementalConfig {
        thresholds: Thresholds::new(ALPHA, BETA),
        ..Default::default()
    }
}

pub struct Fixture {
    pub dataset: Dataset,
    rounds: RoundGen,
}

/// One applied batch: how many updates it carried, how long
/// `enqueue`+`flush` took.
pub struct BatchSample {
    pub updates: usize,
    pub elapsed: Duration,
}

/// One whole re-mine cycle: the rounds from just after one budget-fallback
/// re-mine up to and including the next.
#[derive(Default)]
pub struct CycleSample {
    pub updates: usize,
    pub elapsed: Duration,
}

#[derive(Default)]
pub struct Samples {
    pub mine_ms: Vec<f64>,
    pub batches: Vec<BatchSample>,
    pub cycles: Vec<CycleSample>,
    /// Budget-fallback full re-mines the loop triggered.
    pub fallback_remines: u64,
    /// Relation segments / vocabulary chunks not shared between
    /// consecutive published snapshots, summed over drains.
    pub segments_copied: u64,
    pub vocab_chunks_copied: u64,
    /// The batches, for the layer ladder to replay (traced runs only).
    pub replay: Vec<(Case, UpdateOp)>,
}

impl Samples {
    pub fn updates(&self) -> usize {
        self.batches.iter().map(|b| b.updates).sum()
    }

    pub fn elapsed(&self) -> Duration {
        self.batches.iter().map(|b| b.elapsed).sum()
    }

    /// Updates maintained per second, as the median over whole re-mine
    /// cycles: a stall of the sandbox lands in one cycle and moves a mean
    /// over the section, but not the median of its cycles. The section's
    /// mean when it closed fewer than three cycles.
    pub fn updates_per_s(&self) -> f64 {
        if self.cycles.len() < 3 {
            return self.updates() as f64 / self.elapsed().as_secs_f64();
        }
        let rates: Vec<f64> = self
            .cycles
            .iter()
            .map(|c| c.updates as f64 / c.elapsed.as_secs_f64())
            .collect();
        median(&rates)
    }
}

/// Generate and load; mining is part of the measured section.
pub fn setup(seed: u64, shape: Shape, tag: &str) -> Result<Fixture, String> {
    let corpus = Corpus::new(seed, shape, maintain_hold_back(shape));
    let dataset =
        Dataset::spawn(&format!("mnt{tag}"), mining_config()).map_err(|e| e.to_string())?;
    load_rows(&dataset, &corpus.rows())?;
    Ok(Fixture {
        dataset,
        rounds: RoundGen::new(corpus, shape),
    })
}

/// `mines` full mines, then maintenance rounds for `budget`. The loop
/// ends at the first fallback re-mine after the budget has elapsed, so a
/// run always covers whole re-mine cycles: the fallback's share of the
/// time is then the same in every cycle instead of depending on where in
/// a cycle the clock ran out.
pub fn run(
    fx: &mut Fixture,
    mines: usize,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
    samples: &mut Samples,
) -> Result<(), String> {
    let ds = &fx.dataset;
    // Untimed: the first mine, which also warms whatever an idle spell
    // before this section let go cold.
    let mut published: Arc<RuleSnapshot> = ds.mine().map_err(|e| e.to_string())?;
    for i in 0..mines {
        let t = Instant::now();
        published = ds.mine().map_err(|e| e.to_string())?;
        let done = Instant::now();
        samples.mine_ms.push(as_ms(done - t));
        tracer.span("dataset.mine", NO_SPAN, i as u64, t, done);
        report.attempted += 1;
    }

    let remines_at_start = published.stats().full_remines;
    let mut remines = remines_at_start;
    let start = Instant::now();
    // Whole cycles only, but never more than one budget of overtime.
    let hard_stop = start + 2 * budget;
    let mut cycle = CycleSample::default();
    for round in 0u64.. {
        let round_start = Instant::now();
        for (case, op) in fx.rounds.next_round() {
            let updates = op.len();
            if tracer.enabled() {
                samples.replay.push((case, op.clone()));
            }
            report.attempted += 1;
            let t = Instant::now();
            ds.enqueue(op).map_err(|e| e.to_string())?;
            ds.flush().map_err(|e| e.to_string())?;
            let done = Instant::now();
            samples.batches.push(BatchSample {
                updates,
                elapsed: done - t,
            });
            cycle.updates += updates;
            cycle.elapsed += done - t;
            tracer.span("dataset.enqueue_flush", NO_SPAN, round, t, done);
            let now = ds.snapshot().map_err(|e| e.to_string())?;
            let (rel, prev) = (now.relation(), published.relation());
            samples.segments_copied +=
                (rel.segments().len() - rel.shared_segments_with(prev)) as u64;
            samples.vocab_chunks_copied +=
                (rel.vocab_chunk_count() - rel.vocab_shared_chunks_with(prev)) as u64;
            published = now;
        }
        let remined = published.stats().full_remines > remines;
        remines = published.stats().full_remines;
        if remined {
            samples.cycles.push(std::mem::take(&mut cycle));
        }
        let now = Instant::now();
        tracer.span("maintain.round", NO_SPAN, round, round_start, now);
        if now >= hard_stop || (now >= start + budget && remined) {
            break;
        }
    }
    samples.fallback_remines = remines - remines_at_start;
    Ok(())
}

/// The paper's validation: incremental == re-mine, discovery == rescan;
/// and the served relation is the one the generator's model describes.
pub fn finish(fx: &Fixture, report: &mut Report) -> Result<(), String> {
    let exact = fx.dataset.verify().map_err(|e| e.to_string())?;
    report.check(
        exact,
        "paper_maintain: dataset failed verify (incremental == re-mine, discovery == rescan)",
    );
    let (model, served) = (fx.rounds.corpus().live_tuples(), fx.dataset.live_tuples());
    report.check(
        model == served,
        &format!("paper_maintain: serves {served} tuples, the generator's model has {model}"),
    );
    Ok(())
}
