//! Property-based tests for the mining layer: Apriori and its Eclat
//! cross-check against a brute-force model, rule derivation against
//! definitional recomputation, hash-tree counting against naive counting,
//! and incremental maintenance against re-mining over arbitrary operation
//! sequences.

use anno_mine::{
    apriori, derive_rules, eclat, mine_rules, HashTree, IncrementalConfig, IncrementalMiner,
    ItemSet, MiningMode, Thresholds, Transaction,
};
use anno_store::{AnnotatedRelation, AnnotationUpdate, Item, Tuple, TupleId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Random transaction databases.
// ---------------------------------------------------------------------

fn arb_transaction() -> impl Strategy<Value = Vec<Item>> {
    (
        proptest::collection::btree_set(0u32..12, 0..5),
        proptest::collection::btree_set(0u32..4, 0..3),
    )
        .prop_map(|(data, anns)| {
            data.into_iter()
                .map(Item::data)
                .chain(anns.into_iter().map(Item::annotation))
                .collect()
        })
}

fn arb_db() -> impl Strategy<Value = Vec<Transaction>> {
    proptest::collection::vec(arb_transaction().prop_map(|v| v.into_boxed_slice()), 1..24)
}

/// Brute force: all frequent itemsets under `mode`, by enumerating every
/// subset of every transaction.
fn brute_force(
    transactions: &[Transaction],
    min_support: f64,
    mode: MiningMode,
) -> Vec<(ItemSet, u64)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<ItemSet, u64> = BTreeMap::new();
    let mut all: std::collections::BTreeSet<ItemSet> = Default::default();
    for t in transactions {
        let items: Vec<Item> = if mode.annotations_only() {
            t.iter()
                .copied()
                .filter(|i| i.is_annotation_like())
                .collect()
        } else {
            t.to_vec()
        };
        let n = items.len();
        for mask in 1u32..(1 << n) {
            let subset: Vec<Item> = (0..n)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| items[b])
                .collect();
            all.insert(ItemSet::from_unsorted(subset));
        }
    }
    let min_count = anno_mine::support_count_threshold(min_support, transactions.len() as u64);
    for s in all {
        if !s.admitted_by(mode) {
            continue;
        }
        let projected = |t: &Transaction| -> bool {
            if mode.annotations_only() {
                s.items().iter().all(|i| t.contains(i))
            } else {
                s.is_subset_of(t)
            }
        };
        let c = transactions.iter().filter(|t| projected(t)).count() as u64;
        if c >= min_count {
            counts.insert(s, c);
        }
    }
    counts.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn all_miners_match_brute_force(db in arb_db(), alpha in 0.1f64..0.9) {
        for mode in [
            MiningMode::Unrestricted,
            MiningMode::Annotated,
            MiningMode::DataToAnnotation,
            MiningMode::AnnotationToAnnotation,
        ] {
            let expected = brute_force(&db, alpha, mode);
            let ap = apriori(&db, alpha, mode);
            prop_assert_eq!(ap.sorted(), expected.clone(), "apriori/hashtree, {:?}", mode);
            let ec = eclat(&db, alpha, mode);
            prop_assert_eq!(ec.sorted(), expected, "eclat, {:?}", mode);
        }
    }

    #[test]
    fn hash_tree_counts_match_naive(db in arb_db(), k in 1usize..4) {
        // Candidates: every k-subset occurring in the db (deduplicated).
        let mut candidates: std::collections::BTreeSet<ItemSet> = Default::default();
        for t in &db {
            let n = t.len();
            if n < k { continue; }
            for mask in 1u32..(1 << n) {
                if mask.count_ones() as usize != k { continue; }
                let subset: Vec<Item> =
                    (0..n).filter(|b| mask & (1 << b) != 0).map(|b| t[b]).collect();
                candidates.insert(ItemSet::from_unsorted(subset));
            }
        }
        let candidates: Vec<ItemSet> = candidates.into_iter().collect();
        if candidates.is_empty() {
            return Ok(());
        }
        let mut tree = HashTree::new(candidates.clone(), k);
        for t in &db {
            tree.count_transaction(t);
        }
        for (s, count) in tree.into_counts() {
            let naive = db.iter().filter(|t| s.is_subset_of(t)).count() as u64;
            prop_assert_eq!(count, naive, "hash tree miscounted {:?}", s);
        }
        let _ = candidates;
    }

    #[test]
    fn derived_rules_match_definitions(db in arb_db(), alpha in 0.1f64..0.6, beta in 0.3f64..0.95) {
        let table = apriori(&db, alpha, MiningMode::Annotated);
        let rules = derive_rules(&table, &Thresholds::new(alpha, beta));
        let n = db.len() as u64;
        for rule in rules.rules() {
            // Counts must match definitional recounting.
            let union = rule.union_itemset();
            let union_count = db.iter().filter(|t| union.is_subset_of(t)).count() as u64;
            let lhs_count = db.iter().filter(|t| rule.lhs.is_subset_of(t)).count() as u64;
            prop_assert_eq!(rule.union_count, union_count);
            prop_assert_eq!(rule.lhs_count, lhs_count);
            prop_assert_eq!(rule.db_size, n);
            // Thresholds hold, RHS is an annotation, shape is one of the
            // paper's two.
            prop_assert!(rule.rhs.is_annotation_like());
            prop_assert!(rule.meets(&Thresholds::new(alpha, beta)));
            prop_assert!(
                rule.lhs.annotation_count() == 0 || rule.lhs.data_count() == 0
            );
        }
        // Completeness: every admissible frequent itemset that encodes a
        // rule meeting the thresholds appears.
        let min_count = anno_mine::support_count_threshold(alpha, n);
        for (s, c) in table.iter() {
            if c < min_count || s.len() < 2 {
                continue;
            }
            let rhs_choices: Vec<Item> = if s.data_count() == 0 {
                s.items().to_vec()
            } else if s.annotation_count() == 1 {
                vec![s.items()[s.len() - 1]]
            } else {
                continue;
            };
            for rhs in rhs_choices {
                let lhs = s.without(rhs);
                let lhs_count = db.iter().filter(|t| lhs.is_subset_of(t)).count() as u64;
                if c as f64 / lhs_count as f64 >= beta - 1e-12 {
                    prop_assert!(
                        rules.get(&lhs, rhs).is_some(),
                        "missing rule {:?} => {:?}", lhs, rhs
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Incremental maintenance vs re-mining over arbitrary op sequences.
// ---------------------------------------------------------------------

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
        proptest::collection::vec(0u8..4, 0..3),
    );
    prop_oneof![
        proptest::collection::vec(tuple, 1..5).prop_map(WorkloadOp::AddAnnotated),
        proptest::collection::vec(proptest::collection::vec(0u8..10, 1..4), 1..5)
            .prop_map(WorkloadOp::AddPlain),
        proptest::collection::vec((any::<u8>(), 0u8..4), 1..8).prop_map(WorkloadOp::Annotate),
        proptest::collection::vec((any::<u8>(), 0u8..4), 1..8)
            .prop_map(WorkloadOp::RemoveAnnotations),
        proptest::collection::vec(any::<u8>(), 1..4).prop_map(WorkloadOp::DeleteTuples),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn incremental_equals_remine_for_any_workload(
        initial in proptest::collection::vec(
            (
                proptest::collection::vec(0u8..10, 1..4),
                proptest::collection::vec(0u8..4, 0..3),
            ),
            4..16,
        ),
        ops in proptest::collection::vec(arb_op(), 1..8),
        alpha in 0.15f64..0.5,
        beta in 0.4f64..0.9,
        retention in 0.3f64..1.0,
    ) {
        let mut rel = AnnotatedRelation::new("w");
        let data: Vec<Item> = (0..10).map(|i| rel.vocab_mut().data(&format!("{i}"))).collect();
        let anns: Vec<Item> =
            (0..4).map(|i| rel.vocab_mut().annotation(&format!("A{i}"))).collect();
        let build = |d: &[u8], a: &[u8], data: &[Item], anns: &[Item]| {
            Tuple::new(
                d.iter().map(|&i| data[i as usize]),
                a.iter().map(|&i| anns[i as usize]),
            )
        };
        for (d, a) in &initial {
            rel.insert(build(d, a, &data, &anns));
        }
        let mut miner = IncrementalMiner::mine_initial(
            &rel,
            IncrementalConfig {
                thresholds: Thresholds::new(alpha, beta),
                retention,
            },
        );
        // Pinned snapshots: after every batch the relation is cloned (an
        // O(#segments) persistent snapshot of the segment store) together
        // with the rule set a from-scratch mine produced at that moment.
        // All pins are re-checked after the full workload — later batches
        // must never bleed into an earlier snapshot's view.
        let mut pinned: Vec<(anno_store::AnnotatedRelation, anno_mine::RuleSet)> = Vec::new();
        for op in ops {
            match op {
                WorkloadOp::AddAnnotated(tuples) => {
                    let tuples: Vec<Tuple> = tuples
                        .iter()
                        .map(|(d, a)| build(d, a, &data, &anns))
                        .collect();
                    // Mixed batches may contain un-annotated tuples; route
                    // through Case 1 which accepts both.
                    miner.add_annotated_tuples(&mut rel, tuples);
                }
                WorkloadOp::AddPlain(tuples) => {
                    let tuples: Vec<Tuple> =
                        tuples.iter().map(|d| build(d, &[], &data, &anns)).collect();
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
            rel.check_consistency().map_err(TestCaseError::fail)?;
            let fresh = mine_rules(&rel, &Thresholds::new(alpha, beta));
            prop_assert!(
                miner.rules().identical_to(&fresh),
                "incremental diverged: {} maintained vs {} fresh rules",
                miner.rules().len(),
                fresh.len()
            );
            // The rules never look below α; the table's exactness contract
            // covers every stored entry, so recount each one.
            prop_assert_eq!(miner.table().db_size(), rel.len() as u64);
            for (itemset, count) in miner.table().iter() {
                let recount = rel.iter().filter(|(_, t)| itemset.matches(t)).count() as u64;
                prop_assert_eq!(count, recount, "table miscounts {:?}", itemset);
            }
            pinned.push((rel.clone(), fresh));
        }
        // Persistence: every pinned snapshot is still exactly the relation
        // it was cloned from — same epoch-frozen contents, still
        // internally consistent, and re-mining it from scratch still
        // yields the rule set recorded at pin time.
        for (round, (snap, rules_then)) in pinned.iter().enumerate() {
            snap.check_consistency().map_err(TestCaseError::fail)?;
            let remined = mine_rules(snap, &Thresholds::new(alpha, beta));
            prop_assert!(
                remined.identical_to(rules_then),
                "snapshot pinned at round {} drifted: {} rules then, {} now",
                round,
                rules_then.len(),
                remined.len()
            );
        }
    }
}
