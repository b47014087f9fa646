//! The Apriori algorithm (paper §3, Fig. 3) with annotation-aware pruning.
//!
//! Classic levelwise mining: frequent `k`-itemsets are joined into `(k+1)`-
//! candidates, candidates whose sub-itemsets are not all frequent are
//! pruned, and survivors are counted against the transaction list with a
//! hash tree, as Fig. 3 prescribes.
//!
//! The paper's modification — "early elimination of any candidate patterns
//! that didn't include at least one annotation" — is applied through
//! [`MiningMode`]: candidates that cannot participate in any Definition
//! 4.2/4.3 rule are dropped *before counting*, while pure-data itemsets are
//! retained because rule confidence needs them as denominators: read
//! literally, the paper's pruning would drop `{x1 … xk}` and leave
//! `x1 … xk ⇒ a` with no antecedent count to divide by.

use anno_store::fxhash::FxHashSet;

use crate::frequent::{support_count_threshold, FrequentItemsets};
use crate::hashtree::HashTree;
use crate::itemset::{ItemSet, MiningMode, Transaction};

/// Mine all admissible itemsets with support ≥ `min_support` from
/// `transactions` (each transaction sorted + deduplicated).
pub fn apriori(
    transactions: &[Transaction],
    min_support: f64,
    mode: MiningMode,
) -> FrequentItemsets {
    let db_size = transactions.len() as u64;
    let mut result = FrequentItemsets::new(db_size);
    if db_size == 0 {
        return result;
    }
    let min_count = support_count_threshold(min_support, db_size);

    // Level 1: count singletons with a flat map.
    let mut singleton_counts: anno_store::fxhash::FxHashMap<anno_store::Item, u64> =
        Default::default();
    for t in transactions {
        for &item in t.iter() {
            *singleton_counts.entry(item).or_insert(0) += 1;
        }
    }
    let mut level: Vec<ItemSet> = singleton_counts
        .iter()
        .filter(|&(&item, &c)| {
            let (dc, ac) = if item.is_data() { (1, 0) } else { (0, 1) };
            c >= min_count && mode.admits(dc, ac)
        })
        .map(|(&item, _)| ItemSet::single(item))
        .collect();
    level.sort_unstable();
    for s in &level {
        result.insert(s.clone(), singleton_counts[&s.items()[0]]);
    }

    let mut k = 1usize;
    while !level.is_empty() {
        k += 1;
        let candidates = generate_candidates(&level, mode, &result);
        if candidates.is_empty() {
            break;
        }
        let counted = count_hash_tree(candidates, k, transactions);
        level = counted
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .map(|(s, c)| {
                result.insert(s.clone(), c);
                s
            })
            .collect();
        level.sort_unstable();
    }
    result
}

/// Join + prune step: candidates of length `k+1` from the sorted frequent
/// `k`-itemsets, dropping those with an infrequent sub-itemset or an
/// inadmissible shape.
pub fn generate_candidates(
    level: &[ItemSet],
    mode: MiningMode,
    frequent: &FrequentItemsets,
) -> Vec<ItemSet> {
    let level_set: FxHashSet<&ItemSet> = level.iter().collect();
    let mut out = Vec::new();
    // Groups sharing a (k-1)-prefix are contiguous because `level` is
    // sorted; join every ordered pair inside a group.
    let mut group_start = 0usize;
    for i in 0..level.len() {
        let k = level[i].len();
        let same_group = level[group_start].items()[..k - 1] == level[i].items()[..k - 1];
        if !same_group {
            group_start = i;
        }
        for a in &level[group_start..i] {
            let Some(candidate) = a.join_prefix(&level[i]) else {
                continue;
            };
            if !candidate.admitted_by(mode) {
                continue;
            }
            // Downward closure: every k-subset must be frequent. Skip
            // subsets that are inadmissible under `mode` — they were never
            // counted, and admissibility is downward-closed so an
            // inadmissible subset of an admissible candidate cannot occur;
            // the check is kept for Unrestricted completeness.
            let all_frequent = candidate
                .sub_itemsets()
                .all(|sub| level_set.contains(&sub) || frequent.contains(&sub));
            if all_frequent {
                out.push(candidate);
            }
        }
    }
    out
}

fn count_hash_tree(
    candidates: Vec<ItemSet>,
    k: usize,
    transactions: &[Transaction],
) -> Vec<(ItemSet, u64)> {
    let mut tree = HashTree::new(candidates, k);
    for t in transactions {
        tree.count_transaction(t);
    }
    tree.into_counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_store::Item;

    fn d(i: u32) -> Item {
        Item::data(i)
    }
    fn a(i: u32) -> Item {
        Item::annotation(i)
    }

    fn tx(items: &[Item]) -> Transaction {
        let mut v = items.to_vec();
        v.sort_unstable();
        v.dedup();
        v.into_boxed_slice()
    }

    fn classic_db() -> Vec<Transaction> {
        // The textbook example: {1,3,4} {2,3,5} {1,2,3,5} {2,5}.
        vec![
            tx(&[d(1), d(3), d(4)]),
            tx(&[d(2), d(3), d(5)]),
            tx(&[d(1), d(2), d(3), d(5)]),
            tx(&[d(2), d(5)]),
        ]
    }

    #[test]
    fn textbook_example_unrestricted() {
        let f = apriori(&classic_db(), 0.5, MiningMode::Unrestricted);
        // Known frequent itemsets at minsup 50% (count ≥ 2):
        // {1}:2 {2}:3 {3}:3 {5}:3 {1,3}:2 {2,3}:2 {2,5}:3 {3,5}:2 {2,3,5}:2
        assert_eq!(f.len(), 9);
        assert_eq!(f.count(&ItemSet::from_unsorted(vec![d(2), d(5)])), Some(3));
        assert_eq!(
            f.count(&ItemSet::from_unsorted(vec![d(2), d(3), d(5)])),
            Some(2)
        );
        assert_eq!(f.count(&ItemSet::from_unsorted(vec![d(1), d(2)])), None);
    }

    #[test]
    fn annotated_mode_prunes_mixed_multi_annotation_itemsets() {
        // Every transaction has data 1,2 and annotations A,B.
        let db: Vec<Transaction> = (0..4).map(|_| tx(&[d(1), d(2), a(1), a(2)])).collect();
        let f = apriori(&db, 0.5, MiningMode::Annotated);
        // Pure data: kept. Data + 1 annotation: kept. Pure annotations: kept.
        assert!(f.contains(&ItemSet::from_unsorted(vec![d(1), d(2)])));
        assert!(f.contains(&ItemSet::from_unsorted(vec![d(1), a(1)])));
        assert!(f.contains(&ItemSet::from_unsorted(vec![a(1), a(2)])));
        // Mixed with ≥2 annotations: pruned.
        assert!(!f.contains(&ItemSet::from_unsorted(vec![d(1), a(1), a(2)])));
        let unrestricted = apriori(&db, 0.5, MiningMode::Unrestricted);
        assert!(unrestricted.contains(&ItemSet::from_unsorted(vec![d(1), a(1), a(2)])));
    }

    #[test]
    fn data_to_annotation_mode_keeps_pure_data_denominators() {
        let db: Vec<Transaction> = (0..4).map(|_| tx(&[d(1), d(2), a(1), a(2)])).collect();
        let f = apriori(&db, 0.5, MiningMode::DataToAnnotation);
        assert!(f.contains(&ItemSet::from_unsorted(vec![d(1), d(2)])));
        assert!(f.contains(&ItemSet::from_unsorted(vec![d(1), d(2), a(1)])));
        assert!(!f.contains(&ItemSet::from_unsorted(vec![a(1), a(2)])));
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let f = apriori(&[], 0.5, MiningMode::Annotated);
        assert!(f.is_empty());
        assert_eq!(f.db_size(), 0);
    }

    #[test]
    fn min_support_one_requires_every_transaction() {
        let db = classic_db();
        let f = apriori(&db, 1.0, MiningMode::Unrestricted);
        assert!(f.is_empty(), "no item occurs in all four transactions");
    }
}
