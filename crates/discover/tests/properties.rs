//! Property test: after an arbitrary sequence of drains (tuple inserts,
//! annotations, removals, deletions) driven through the incremental
//! miner, the incrementally-refreshed [`DiscoveryIndex`] equals a
//! from-scratch rescan of the miner's itemset table — the discovery
//! analogue of `verify_against_remine`.

use anno_discover::DiscoveryIndex;
use anno_mine::{IncrementalConfig, IncrementalMiner, Thresholds};
use anno_store::{AnnotatedRelation, AnnotationUpdate, Item, Tuple, TupleId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum WorkloadOp {
    AddAnnotated(Vec<(Vec<u8>, Vec<u8>)>),
    AddPlain(Vec<Vec<u8>>),
    Annotate(Vec<(u8, u8)>),
    RemoveAnnotations(Vec<(u8, u8)>),
    DeleteTuples(Vec<u8>),
}

fn arb_op() -> impl Strategy<Value = WorkloadOp> {
    let tuple = (
        proptest::collection::vec(0u8..10, 1..4),
        proptest::collection::vec(0u8..5, 0..4),
    );
    prop_oneof![
        proptest::collection::vec(tuple, 1..5).prop_map(WorkloadOp::AddAnnotated),
        proptest::collection::vec(proptest::collection::vec(0u8..10, 1..4), 1..5)
            .prop_map(WorkloadOp::AddPlain),
        proptest::collection::vec((any::<u8>(), 0u8..5), 1..10).prop_map(WorkloadOp::Annotate),
        proptest::collection::vec((any::<u8>(), 0u8..5), 1..10)
            .prop_map(WorkloadOp::RemoveAnnotations),
        proptest::collection::vec(any::<u8>(), 1..4).prop_map(WorkloadOp::DeleteTuples),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn incremental_topk_equals_rescan_for_any_workload(
        initial in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..10, 1..4),
                proptest::collection::vec(0u8..5, 0..4),
            ),
            4..16,
        ),
        ops in proptest::collection::vec(arb_op(), 1..10),
        alpha in 0.15f64..0.5,
        retention in 0.3f64..1.0,
    ) {
        let mut rel = AnnotatedRelation::new("w");
        let data: Vec<Item> = (0..10).map(|i| rel.vocab_mut().data(&format!("{i}"))).collect();
        let anns: Vec<Item> =
            (0..5).map(|i| rel.vocab_mut().annotation(&format!("A{i}"))).collect();
        let build = |d: &[u8], a: &[u8]| {
            Tuple::new(
                d.iter().map(|&i| data[i as usize]),
                a.iter().map(|&i| anns[i as usize]),
            )
        };
        for (d, a) in &initial {
            rel.insert(build(d, a));
        }
        let mut miner = IncrementalMiner::mine_initial(
            &rel,
            IncrementalConfig {
                thresholds: Thresholds::new(alpha, 0.6),
                retention,
            },
        );
        let mut index = DiscoveryIndex::new();
        let touches = miner.take_touches();
            index.refresh(miner.table(), &touches);
        prop_assert!(index.verify_against_rescan(miner.table()), "post-initial-mine");

        for (round, op) in ops.into_iter().enumerate() {
            match op {
                WorkloadOp::AddAnnotated(tuples) => {
                    let tuples: Vec<Tuple> =
                        tuples.iter().map(|(d, a)| build(d, a)).collect();
                    miner.add_annotated_tuples(&mut rel, tuples);
                }
                WorkloadOp::AddPlain(tuples) => {
                    let tuples: Vec<Tuple> = tuples.iter().map(|d| build(d, &[])).collect();
                    miner.add_unannotated_tuples(&mut rel, tuples);
                }
                WorkloadOp::Annotate(pairs) => {
                    let slots = rel.slot_count() as u32;
                    let updates: Vec<AnnotationUpdate> = pairs
                        .iter()
                        .map(|&(slot, ann)| AnnotationUpdate {
                            tuple: TupleId(u32::from(slot) % slots.max(1)),
                            annotation: anns[ann as usize],
                        })
                        .collect();
                    miner.apply_annotations(&mut rel, updates);
                }
                WorkloadOp::RemoveAnnotations(pairs) => {
                    let slots = rel.slot_count() as u32;
                    let updates: Vec<AnnotationUpdate> = pairs
                        .iter()
                        .map(|&(slot, ann)| AnnotationUpdate {
                            tuple: TupleId(u32::from(slot) % slots.max(1)),
                            annotation: anns[ann as usize],
                        })
                        .collect();
                    miner.remove_annotations(&mut rel, &updates);
                }
                WorkloadOp::DeleteTuples(slots_raw) => {
                    let slots = rel.slot_count() as u32;
                    let victims: Vec<TupleId> = slots_raw
                        .iter()
                        .map(|&s| TupleId(u32::from(s) % slots.max(1)))
                        .collect();
                    miner.delete_tuples(&mut rel, &victims);
                }
            }
            let touches = miner.take_touches();
            index.refresh(miner.table(), &touches);
            prop_assert!(
                index.verify_against_rescan(miner.table()),
                "incrementally maintained top-k diverged from rescan at round {} \
                 ({} pairs tracked)",
                round,
                index.pairs_tracked(),
            );
        }

        // The touch log is drained: one more refresh is a no-op.
        let before = index.stats();
        let touches = miner.take_touches();
            index.refresh(miner.table(), &touches);
        prop_assert_eq!(index.stats(), before);
    }
}
