//! Shared workloads and measurement helpers for the benchmark harness.
//!
//! The `experiments` binary, `profile_case3` and the `service` bench build
//! their inputs here so that they measure the same thing. All workloads
//! are seeded and deterministic.

use anno_mine::{IncrementalConfig, IncrementalMiner, Thresholds};
use anno_store::{
    generate, random_annotation_batch, AnnotatedRelation, AnnotationUpdate, GeneratorConfig,
    SyntheticDataset,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's evaluation configuration: ≈8000 tuples, α = 0.4, β = 0.8.
pub fn paper_workload() -> SyntheticDataset {
    generate(&GeneratorConfig::paper_scale(0xED87))
}

/// The paper's thresholds (§4.3 Results).
pub fn paper_thresholds() -> Thresholds {
    Thresholds::paper()
}

/// A scaled copy of the paper workload with `tuples` tuples.
pub fn sized_workload(tuples: usize) -> SyntheticDataset {
    let mut cfg = GeneratorConfig::paper_scale(0xED87);
    cfg.tuples = tuples;
    generate(&cfg)
}

/// A relation plus a prepared miner and a sequence of Case-3 batches, the
/// Fig. 16 measurement setup.
pub struct Fig16Setup {
    /// The evolving relation.
    pub relation: AnnotatedRelation,
    /// Miner primed on the initial relation.
    pub miner: IncrementalMiner,
    /// Pre-generated annotation batches to apply.
    pub batches: Vec<Vec<AnnotationUpdate>>,
}

/// Build the Fig. 16 setup: a paper-scale database, a primed miner, and
/// `batch_count` annotation batches of `batch_size` updates each.
pub fn fig16_setup(batch_count: usize, batch_size: usize) -> Fig16Setup {
    let ds = paper_workload();
    let relation = ds.relation;
    let miner = IncrementalMiner::mine_initial(
        &relation,
        IncrementalConfig {
            thresholds: paper_thresholds(),
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut batches = Vec::with_capacity(batch_count);
    let mut scratch = relation.clone();
    for _ in 0..batch_count {
        let batch = random_annotation_batch(&scratch, &mut rng, batch_size);
        // Keep successive batches disjoint by applying them to a scratch
        // copy, mirroring a live database receiving updates over time.
        scratch.apply_annotation_batch(batch.iter().copied());
        batches.push(batch);
    }
    Fig16Setup {
        relation,
        miner,
        batches,
    }
}

/// Milliseconds spent in `f`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}
