//! Itemsets and transaction encoding.
//!
//! A mining *transaction* is a tuple viewed as its flat sorted item slice
//! (data values + annotation-like items). An [`ItemSet`] is a sorted,
//! deduplicated, immutable set of items — the unit of frequent-pattern
//! mining and the LHS of association rules. Because [`Item`]'s namespace
//! tag sorts data values before annotations before labels, an itemset's
//! data part is a prefix and its annotation part a suffix, and classifying
//! an itemset for the paper's rule shapes (Definitions 4.2/4.3) is O(1)
//! after a partition-point.

use anno_store::{AnnotatedRelation, Item, Tuple};

/// How tuples are projected into transactions and which itemsets are
/// admissible, encoding the paper's "early elimination" pruning soundly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MiningMode {
    /// Mine data-to-annotation correlations (Definition 4.2).
    ///
    /// Transactions carry data and annotations; itemsets with more than one
    /// annotation-like item are pruned — they can never produce a
    /// `x1 … xk ⇒ a` rule, while pure-data itemsets must be **kept** (they
    /// are the confidence denominators).
    DataToAnnotation,
    /// Mine annotation-to-annotation correlations (Definition 4.3).
    ///
    /// Transactions are projected onto annotation-like items only.
    AnnotationToAnnotation,
    /// Mine both rule shapes in one pass (the incremental miner's mode).
    ///
    /// Transactions carry everything; itemsets mixing data values with two
    /// or more annotations are pruned — they serve neither rule shape.
    Annotated,
    /// Plain Apriori with no pruning (baseline / cross-check).
    Unrestricted,
}

impl MiningMode {
    /// Is an itemset with `data_count` data items and `ann_count`
    /// annotation-like items admissible under this mode?
    pub fn admits(self, data_count: usize, ann_count: usize) -> bool {
        match self {
            MiningMode::DataToAnnotation => ann_count <= 1,
            MiningMode::AnnotationToAnnotation => data_count == 0,
            MiningMode::Annotated => data_count == 0 || ann_count <= 1,
            MiningMode::Unrestricted => true,
        }
    }

    /// Does this mode project transactions onto annotations only?
    pub fn annotations_only(self) -> bool {
        self == MiningMode::AnnotationToAnnotation
    }
}

/// A sorted, deduplicated, immutable set of items.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemSet(Box<[Item]>);

impl ItemSet {
    /// The empty itemset.
    pub fn empty() -> ItemSet {
        ItemSet(Box::from([]))
    }

    /// A single-item set.
    pub fn single(item: Item) -> ItemSet {
        ItemSet(Box::from([item]))
    }

    /// Build from arbitrary items (sorts and deduplicates).
    pub fn from_unsorted(mut items: Vec<Item>) -> ItemSet {
        items.sort_unstable();
        items.dedup();
        ItemSet(items.into_boxed_slice())
    }

    /// The items, sorted ascending.
    pub fn items(&self) -> &[Item] {
        &self.0
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, item: Item) -> bool {
        self.0.binary_search(&item).is_ok()
    }

    /// Index of the first annotation-like item (== number of data items).
    pub fn data_count(&self) -> usize {
        self.0.partition_point(|i| i.is_data())
    }

    /// Number of annotation-like items.
    pub fn annotation_count(&self) -> usize {
        self.len() - self.data_count()
    }

    /// The data-value prefix.
    pub fn data_part(&self) -> &[Item] {
        &self.0[..self.data_count()]
    }

    /// The annotation-like suffix.
    pub fn annotation_part(&self) -> &[Item] {
        &self.0[self.data_count()..]
    }

    /// `true` iff every item of `self` occurs in the sorted slice `other`
    /// (merge-walk).
    pub fn is_subset_of(&self, other: &[Item]) -> bool {
        let mut theirs = other.iter();
        'outer: for want in self.0.iter() {
            for have in theirs.by_ref() {
                match have.cmp(want) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// `true` iff the tuple contains every item of `self`.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.is_subset_of(tuple.items())
    }

    /// The set with `item` removed (no-op clone if absent).
    pub fn without(&self, item: Item) -> ItemSet {
        match self.0.binary_search(&item) {
            Ok(pos) => {
                let mut v = self.0.to_vec();
                v.remove(pos);
                ItemSet(v.into_boxed_slice())
            }
            Err(_) => self.clone(),
        }
    }

    /// The set with `item` inserted (no-op clone if present).
    pub fn with(&self, item: Item) -> ItemSet {
        match self.0.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut v = self.0.to_vec();
                v.insert(pos, item);
                ItemSet(v.into_boxed_slice())
            }
        }
    }

    /// Apriori candidate join: if `self` and `other` are equal-length sets
    /// sharing all but the last item, and `self`'s last < `other`'s last,
    /// return their union of length `k+1`.
    pub fn join_prefix(&self, other: &ItemSet) -> Option<ItemSet> {
        let k = self.len();
        if k == 0 || other.len() != k {
            return None;
        }
        if self.0[..k - 1] != other.0[..k - 1] || self.0[k - 1] >= other.0[k - 1] {
            return None;
        }
        let mut v = self.0.to_vec();
        v.push(other.0[k - 1]);
        Some(ItemSet(v.into_boxed_slice()))
    }

    /// Iterate all `(k-1)`-subsets (each obtained by dropping one item).
    pub fn sub_itemsets(&self) -> impl Iterator<Item = ItemSet> + '_ {
        (0..self.len()).map(move |drop| {
            let mut v = Vec::with_capacity(self.len() - 1);
            v.extend_from_slice(&self.0[..drop]);
            v.extend_from_slice(&self.0[drop + 1..]);
            ItemSet(v.into_boxed_slice())
        })
    }

    /// Is this itemset admissible under `mode`?
    pub fn admitted_by(&self, mode: MiningMode) -> bool {
        mode.admits(self.data_count(), self.annotation_count())
    }
}

impl FromIterator<Item> for ItemSet {
    fn from_iter<I: IntoIterator<Item = Item>>(iter: I) -> Self {
        ItemSet::from_unsorted(iter.into_iter().collect())
    }
}

/// A transaction: one tuple's projected item slice.
pub type Transaction = Box<[Item]>;

/// Project the live tuples of a relation into transactions under `mode`.
///
/// Walks the relation segment-at-a-time: each segment is an independent
/// `Arc`-shared block, so a full-mine projection over a published
/// snapshot touches exactly the blocks the snapshot holds — no flat-slice
/// assumption, and a natural unit for future per-segment parallelism.
pub fn transactions_of(relation: &AnnotatedRelation, mode: MiningMode) -> Vec<Transaction> {
    let mut out: Vec<Transaction> = Vec::with_capacity(relation.len());
    for segment in relation.segments() {
        out.extend(segment.iter_live().map(|(_, tuple)| {
            if mode.annotations_only() {
                Box::from(tuple.annotations())
            } else {
                Box::from(tuple.items())
            }
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> Item {
        Item::data(i)
    }
    fn a(i: u32) -> Item {
        Item::annotation(i)
    }

    #[test]
    fn from_unsorted_normalises() {
        let s = ItemSet::from_unsorted(vec![a(1), d(5), d(2), d(5)]);
        assert_eq!(s.items(), &[d(2), d(5), a(1)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn partition_accessors() {
        let s = ItemSet::from_unsorted(vec![d(1), a(2), a(7), d(3)]);
        assert_eq!(s.data_count(), 2);
        assert_eq!(s.annotation_count(), 2);
        assert_eq!(s.data_part(), &[d(1), d(3)]);
        assert_eq!(s.annotation_part(), &[a(2), a(7)]);
    }

    #[test]
    fn subset_merge_walk() {
        let s = ItemSet::from_unsorted(vec![d(1), d(5)]);
        assert!(s.is_subset_of(&[d(1), d(3), d(5), a(0)]));
        assert!(!s.is_subset_of(&[d(1), d(3)]));
        assert!(ItemSet::empty().is_subset_of(&[]));
        assert!(!s.is_subset_of(&[d(5)]));
    }

    #[test]
    fn with_and_without() {
        let s = ItemSet::from_unsorted(vec![d(1), d(3)]);
        assert_eq!(s.with(d(2)).items(), &[d(1), d(2), d(3)]);
        assert_eq!(s.with(d(1)), s);
        assert_eq!(s.without(d(1)).items(), &[d(3)]);
        assert_eq!(s.without(d(9)), s);
    }

    #[test]
    fn join_prefix_follows_apriori_rules() {
        let ab = ItemSet::from_unsorted(vec![d(1), d(2)]);
        let ac = ItemSet::from_unsorted(vec![d(1), d(3)]);
        let bc = ItemSet::from_unsorted(vec![d(2), d(3)]);
        assert_eq!(ab.join_prefix(&ac).unwrap().items(), &[d(1), d(2), d(3)]);
        assert!(ac.join_prefix(&ab).is_none(), "wrong order");
        assert!(ab.join_prefix(&bc).is_none(), "prefix differs");
        assert!(ab.join_prefix(&ab).is_none(), "equal last items");
    }

    #[test]
    fn sub_itemsets_enumerates_all_k_minus_1() {
        let s = ItemSet::from_unsorted(vec![d(1), d(2), d(3)]);
        let subs: Vec<ItemSet> = s.sub_itemsets().collect();
        assert_eq!(subs.len(), 3);
        assert!(subs.contains(&ItemSet::from_unsorted(vec![d(2), d(3)])));
        assert!(subs.contains(&ItemSet::from_unsorted(vec![d(1), d(3)])));
        assert!(subs.contains(&ItemSet::from_unsorted(vec![d(1), d(2)])));
    }

    #[test]
    fn mode_admission_rules() {
        use MiningMode::*;
        // pure data
        assert!(DataToAnnotation.admits(3, 0));
        assert!(Annotated.admits(3, 0));
        assert!(!AnnotationToAnnotation.admits(3, 0));
        // data + one annotation
        assert!(DataToAnnotation.admits(3, 1));
        assert!(Annotated.admits(3, 1));
        // data + two annotations
        assert!(!DataToAnnotation.admits(3, 2));
        assert!(!Annotated.admits(3, 2));
        assert!(Unrestricted.admits(3, 2));
        // pure annotations
        assert!(AnnotationToAnnotation.admits(0, 4));
        assert!(Annotated.admits(0, 4));
        assert!(!DataToAnnotation.admits(0, 4));
    }

    #[test]
    fn transactions_respect_mode_projection() {
        let mut rel = AnnotatedRelation::new("R");
        let x = rel.vocab_mut().data("1");
        let an = rel.vocab_mut().annotation("A");
        rel.insert(Tuple::new([x], [an]));
        let full = transactions_of(&rel, MiningMode::Annotated);
        assert_eq!(&*full[0], &[x, an]);
        let anns = transactions_of(&rel, MiningMode::AnnotationToAnnotation);
        assert_eq!(&*anns[0], &[an]);
    }
}
