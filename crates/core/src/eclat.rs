//! Eclat: depth-first vertical mining over tid-bitsets.
//!
//! The independent cross-check for [`apriori`](crate::apriori::apriori):
//! nothing serves from it; the differential tests and `experiments` E8
//! call it. It shares no counting code with the levelwise path — each item
//! maps to the bitset of transaction ids containing it, a pattern's
//! support is the cardinality of the intersection of its items' bitsets,
//! and the search extends patterns depth-first with lexicographically
//! larger items, pruning branches [`MiningMode`] can no longer admit.

use anno_store::fxhash::FxHashMap;
use anno_store::{BitSet, Item};

use crate::frequent::{support_count_threshold, FrequentItemsets};
use crate::itemset::{ItemSet, MiningMode, Transaction};

/// Mine all admissible itemsets with support ≥ `min_support` using Eclat.
pub fn eclat(transactions: &[Transaction], min_support: f64, mode: MiningMode) -> FrequentItemsets {
    let db_size = transactions.len() as u64;
    let mut result = FrequentItemsets::new(db_size);
    if db_size == 0 {
        return result;
    }
    let min_count = support_count_threshold(min_support, db_size);

    // Vertical layout: item → tid bitset.
    let mut tidsets: FxHashMap<Item, BitSet> = FxHashMap::default();
    for (tid, t) in transactions.iter().enumerate() {
        for &item in t.iter() {
            tidsets.entry(item).or_default().insert(tid as u32);
        }
    }
    let mut items: Vec<(Item, BitSet)> = tidsets
        .into_iter()
        .filter(|(_, bits)| bits.len() as u64 >= min_count)
        .collect();
    items.sort_unstable_by_key(|&(item, _)| item);

    // Frequent singletons (mode-admissible ones).
    let frontier: Vec<(Item, BitSet)> = items;
    for (item, bits) in &frontier {
        let single = ItemSet::single(*item);
        if single.admitted_by(mode) {
            result.insert(single, bits.len() as u64);
        }
    }
    let prefix = ItemSet::empty();
    extend(&prefix, &frontier, min_count, mode, &mut result);
    result
}

/// Depth-first extension: for each item in the frontier, intersect with
/// every later item, recursing on the surviving extensions.
fn extend(
    prefix: &ItemSet,
    frontier: &[(Item, BitSet)],
    min_count: u64,
    mode: MiningMode,
    result: &mut FrequentItemsets,
) {
    for (i, (item, bits)) in frontier.iter().enumerate() {
        let pattern = prefix.with(*item);
        if !branch_viable(&pattern, mode) {
            continue;
        }
        let mut next: Vec<(Item, BitSet)> = Vec::new();
        for (other, other_bits) in &frontier[i + 1..] {
            let joined = bits.intersection(other_bits);
            if joined.len() as u64 >= min_count {
                let extended = pattern.with(*other);
                if extended.admitted_by(mode) {
                    result.insert(extended, joined.len() as u64);
                }
                next.push((*other, joined));
            }
        }
        if !next.is_empty() {
            extend(&pattern, &next, min_count, mode, result);
        }
    }
}

/// Can this branch still produce admissible patterns?
///
/// Items are explored in ascending order, and [`Item`]'s namespace tag sorts
/// data before annotations — so once a pattern holds annotations, all
/// further extensions are annotations too. A pattern that is inadmissible
/// now can only gain more annotation items, which never restores
/// admissibility for the modes here.
fn branch_viable(pattern: &ItemSet, mode: MiningMode) -> bool {
    match mode {
        MiningMode::Unrestricted => true,
        MiningMode::DataToAnnotation => pattern.annotation_count() <= 1,
        MiningMode::AnnotationToAnnotation => pattern.data_count() == 0,
        MiningMode::Annotated => pattern.data_count() == 0 || pattern.annotation_count() <= 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::apriori;

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

    #[test]
    fn all_three_miners_agree() {
        let db: Vec<Transaction> = vec![
            tx(&[d(1), d(3), d(4), a(1)]),
            tx(&[d(2), d(3), d(5)]),
            tx(&[d(1), d(2), d(3), d(5), a(1)]),
            tx(&[d(2), d(5), a(2)]),
            tx(&[d(1), d(3), a(1), a(2)]),
        ];
        for mode in [
            MiningMode::Unrestricted,
            MiningMode::Annotated,
            MiningMode::DataToAnnotation,
            MiningMode::AnnotationToAnnotation,
        ] {
            let e = eclat(&db, 0.4, mode);
            let ap = apriori(&db, 0.4, mode);
            assert_eq!(e.sorted(), ap.sorted(), "eclat vs apriori, mode {mode:?}");
        }
    }

    #[test]
    fn eclat_counts_are_exact() {
        let db: Vec<Transaction> = vec![tx(&[d(1), d(2)]), tx(&[d(1), d(2)]), tx(&[d(1)])];
        let e = eclat(&db, 0.3, MiningMode::Unrestricted);
        assert_eq!(e.count(&ItemSet::from_unsorted(vec![d(1)])), Some(3));
        assert_eq!(e.count(&ItemSet::from_unsorted(vec![d(1), d(2)])), Some(2));
    }

    #[test]
    fn empty_database() {
        assert!(eclat(&[], 0.5, MiningMode::Unrestricted).is_empty());
    }
}
