//! Serving-layer benchmarks: snapshot read path vs. batched write path.
//!
//! Measures what the `anno-service` architecture is for: cheap reads off a
//! published snapshot (rule filtering, top-k recommendations) and the
//! throughput of the coalescing write path folding annotation streams into
//! single incremental-maintenance passes.

use anno_bench::{paper_thresholds, paper_workload};
use anno_service::query::top_k_for_tuple;
use anno_service::queue::UpdateOp;
use anno_service::{Service, ServiceConfig};
use anno_store::{dataset_to_string, random_annotation_batch, AnnotationUpdate};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn service_paths(c: &mut Criterion) {
    let ds = paper_workload();
    let text = dataset_to_string(&ds.relation);
    let service = Service::new();
    let dataset = service
        .create(
            "bench",
            ServiceConfig {
                thresholds: paper_thresholds(),
                ..Default::default()
            },
        )
        .expect("fresh dataset");
    dataset
        .enqueue(UpdateOp::InsertRows(
            text.lines().map(str::to_string).collect(),
        ))
        .expect("load workload");
    dataset.flush().expect("loaded");
    let snap = dataset.mine().expect("mined");

    // A tuple with annotations missing, for the recommendation path.
    let probe = snap
        .relation()
        .iter()
        .map(|(tid, _)| tid)
        .next()
        .expect("non-empty workload");

    let mut group = c.benchmark_group("service");
    group.sample_size(20);
    group.bench_function("snapshot_clone", |b| {
        b.iter(|| dataset.snapshot().expect("published"))
    });
    group.bench_function("rules_unfiltered", |b| {
        b.iter(|| snap.index().rules_with_antecedent(&[]).len())
    });
    group.bench_function("recommend_tuple_top10", |b| {
        b.iter(|| top_k_for_tuple(&snap, probe, 10))
    });

    let mut rng = StdRng::seed_from_u64(0x5EEE);
    group.bench_function("write_annotation_batch_100", |b| {
        b.iter_batched(
            || -> Vec<AnnotationUpdate> {
                // Bind the snapshot so the relation is borrowed, not
                // deep-cloned, per sample.
                let snap = dataset.snapshot().expect("published");
                random_annotation_batch(snap.relation(), &mut rng, 100)
            },
            |batch| {
                dataset.enqueue(UpdateOp::Annotate(batch)).expect("enqueue");
                dataset.flush().expect("applied");
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, service_paths);
criterion_main!(benches);
