//! The frequent-itemset table: counted itemsets plus the support math.
//!
//! Support thresholds arrive as fractions (`α`, paper §2.2) but all
//! bookkeeping is exact integer counts: `support(S) = count(S) / |D|`, so
//! `support ≥ α ⟺ count ≥ ⌈α·|D|⌉` (with an epsilon guard against float
//! representation of products like `0.4 × 8000`). Keeping raw counts is what
//! makes incremental maintenance exact — counts add and subtract; fractions
//! do not.

use anno_store::fxhash::FxHashMap;

use crate::itemset::ItemSet;

/// The number of occurrences required for a fraction-`alpha` support over
/// `db_size` transactions (at least 1 — an itemset occurring zero times is
/// never frequent).
pub fn support_count_threshold(alpha: f64, db_size: u64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "support fraction out of range"
    );
    let exact = alpha * db_size as f64;
    // Guard against float error pushing e.g. 3200.0000000004 up to 3201.
    let count = (exact - 1e-9).ceil().max(0.0) as u64;
    count.max(1)
}

/// A set of itemsets with exact occurrence counts over a database of
/// `db_size` transactions.
#[derive(Debug, Clone, Default)]
pub struct FrequentItemsets {
    counts: FxHashMap<ItemSet, u64>,
    db_size: u64,
}

impl FrequentItemsets {
    /// An empty table over a database of `db_size` transactions.
    pub fn new(db_size: u64) -> Self {
        FrequentItemsets {
            counts: FxHashMap::default(),
            db_size,
        }
    }

    /// Number of transactions (the support denominator).
    pub fn db_size(&self) -> u64 {
        self.db_size
    }

    /// Set the support denominator (used by incremental maintenance when
    /// tuples are added or deleted).
    pub fn set_db_size(&mut self, db_size: u64) {
        self.db_size = db_size;
    }

    /// Number of stored itemsets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` iff no itemsets are stored.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Exact occurrence count of `s`, if stored.
    pub fn count(&self, s: &ItemSet) -> Option<u64> {
        self.counts.get(s).copied()
    }

    /// `true` iff `s` is stored.
    pub fn contains(&self, s: &ItemSet) -> bool {
        self.counts.contains_key(s)
    }

    /// Support fraction of `s` (`None` if not stored).
    pub fn support(&self, s: &ItemSet) -> Option<f64> {
        self.count(s).map(|c| c as f64 / self.db_size.max(1) as f64)
    }

    /// Insert or overwrite the count of `s`.
    pub fn insert(&mut self, s: ItemSet, count: u64) {
        self.counts.insert(s, count);
    }

    /// Add `delta` occurrences to `s` (which must be stored).
    pub fn add_count(&mut self, s: &ItemSet, delta: u64) {
        #[expect(
            clippy::panic,
            reason = "documented contract: callers only count itemsets they inserted; a miss is table corruption"
        )]
        let slot = self
            .counts
            .get_mut(s)
            .unwrap_or_else(|| panic!("itemset not stored: {s:?}"));
        *slot += delta;
    }

    /// Subtract `delta` occurrences from `s` (which must be stored and have
    /// at least `delta` occurrences).
    pub fn sub_count(&mut self, s: &ItemSet, delta: u64) {
        #[expect(
            clippy::panic,
            reason = "documented contract: callers only count itemsets they inserted; a miss is table corruption"
        )]
        let slot = self
            .counts
            .get_mut(s)
            .unwrap_or_else(|| panic!("itemset not stored: {s:?}"));
        #[expect(
            clippy::expect_used,
            reason = "documented contract: deletions never exceed prior insertions; underflow is table corruption"
        )]
        let left = slot.checked_sub(delta).expect("count underflow");
        *slot = left;
    }

    /// Remove every itemset with count below `min_count`.
    pub fn prune_below(&mut self, min_count: u64) {
        self.counts.retain(|_, &mut c| c >= min_count);
    }

    /// Iterate `(itemset, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&ItemSet, u64)> + '_ {
        self.counts.iter().map(|(s, &c)| (s, c))
    }

    /// A canonical sorted snapshot, for equality assertions in tests.
    pub fn sorted(&self) -> Vec<(ItemSet, u64)> {
        let mut v: Vec<(ItemSet, u64)> = self.iter().map(|(s, c)| (s.clone(), c)).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_store::Item;

    fn set(items: &[u32]) -> ItemSet {
        ItemSet::from_unsorted(items.iter().map(|&i| Item::data(i)).collect())
    }

    #[test]
    fn threshold_handles_exact_products() {
        assert_eq!(support_count_threshold(0.4, 8000), 3200);
        assert_eq!(support_count_threshold(0.5, 7), 4); // ceil(3.5)
        assert_eq!(support_count_threshold(0.0, 100), 1); // never zero
        assert_eq!(support_count_threshold(1.0, 100), 100);
    }

    #[test]
    fn threshold_is_at_least_one_on_empty_db() {
        assert_eq!(support_count_threshold(0.4, 0), 1);
    }

    #[test]
    fn insert_count_add_sub() {
        let mut f = FrequentItemsets::new(10);
        f.insert(set(&[1]), 4);
        assert_eq!(f.count(&set(&[1])), Some(4));
        assert_eq!(f.support(&set(&[1])), Some(0.4));
        f.add_count(&set(&[1]), 2);
        f.sub_count(&set(&[1]), 1);
        assert_eq!(f.count(&set(&[1])), Some(5));
        assert_eq!(f.count(&set(&[2])), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_count_underflow_panics() {
        let mut f = FrequentItemsets::new(10);
        f.insert(set(&[1]), 1);
        f.sub_count(&set(&[1]), 2);
    }

    #[test]
    fn prune_and_frequent_at() {
        let mut f = FrequentItemsets::new(10);
        f.insert(set(&[1]), 6);
        f.insert(set(&[2]), 3);
        f.insert(set(&[3]), 1);
        f.prune_below(3);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn sorted_snapshot_is_deterministic() {
        let mut f = FrequentItemsets::new(10);
        f.insert(set(&[2]), 1);
        f.insert(set(&[1]), 2);
        let snap = f.sorted();
        assert_eq!(snap[0].0, set(&[1]));
        assert_eq!(snap[1].0, set(&[2]));
    }
}
