//! Shared workloads and measurement helpers for the benchmark harness.
//!
//! The `experiments` binary and the `service` bench build their inputs
//! here so that they measure the same thing. All workloads
//! are seeded and deterministic.

use anno_mine::Thresholds;
use anno_store::{generate, GeneratorConfig, SyntheticDataset};

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

/// Milliseconds spent in `f`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}
