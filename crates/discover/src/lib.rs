//! `anno-discover`: incrementally maintained top-k correlation discovery.
//!
//! The miner (`anno-mine`) answers *point* queries — "does `{28, 85} ⇒ A`
//! hold?" — but the paper's motivating question is open-ended: *what
//! correlates with what?* This crate answers it as a ranked report, the
//! shape rezolus serves for cross-subsystem metric correlations: the K
//! most interesting co-occurring annotation pairs, ranked by lift, with
//! leverage and a statistical-significance screen alongside, and
//! cross-namespace pairs (raw annotation × concept label) called out the
//! way rezolus calls out cross-category pairs.
//!
//! The expensive way to serve that is an O(#pairs) rescan of the miner's
//! itemset table per query. [`DiscoveryIndex`] instead *mirrors* the
//! table's annotation-pair counts and keeps them in a rank structure
//! (ordered set over scores), maintained **incrementally per drain** from
//! the miner's [`DiscoveryTouch`] log: only pairs whose supports a drain
//! actually touched are rescored. A query is then O(k); publishing a
//! bounded [`DiscoverySnapshot`] is O(cap·log #pairs).
//!
//! # Why the rank key is `count(ab) / (count(a)·count(b))`
//!
//! Lift is `n·c(ab) / (c(a)·c(b))` — but `n` (the support denominator) is
//! uniform across all pairs, so ordering by the n-free key
//! `L = c(ab)/(c(a)·c(b))` *is* ordering by lift. That invariance is what
//! makes incremental maintenance sound: a drain that only adds tuples
//! changes `n` for every pair, but untouched pairs keep their relative
//! order, so only pairs whose own counts changed need rescoring. Lift and
//! leverage values themselves are materialized from the raw counts at
//! snapshot time, where `n` is known.

#![warn(missing_docs)]
// The serving threads must not panic: library code returns typed errors,
// and each deliberate panic carries `#[expect(…, reason = "…")]`. A stale
// or reasonless suppression fails the build.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::collections::BTreeSet;

use anno_mine::{DiscoveryTouch, FrequentItemsets, ItemSet};
use anno_store::fxhash::{FxHashMap, FxHashSet};
use anno_store::{Item, Vocabulary};

/// Pairs observed fewer times than this are kept in the mirror but not
/// ranked — the absolute half of the significance screen (Chanda et al.:
/// a pair seen once proves nothing). Count-based, hence n-invariant.
pub const MIN_RANKED_COUNT: u64 = 2;

/// z-score above which a pair's leverage is deemed statistically
/// significant under the independence binomial (|c(ab) − E| ≥ z·σ).
pub const SIGNIFICANCE_Z: f64 = 1.96;

/// A pair of annotation-like items, stored sorted (`low < high`).
pub type Pair = (Item, Item);

fn ordered(a: Item, b: Item) -> Pair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// `true` iff the pair spans two namespaces (annotation × label) — the
/// discovery report's priority class.
pub fn is_cross(pair: &Pair) -> bool {
    pair.0.kind() != pair.1.kind()
}

/// The n-invariant rank key: `c(ab) / (c(a)·c(b))`, 0 when undefined.
fn rank_key(pair_count: u64, count_a: u64, count_b: u64) -> f64 {
    let denom = (count_a as f64) * (count_b as f64);
    if denom == 0.0 || pair_count == 0 {
        0.0
    } else {
        pair_count as f64 / denom
    }
}

/// One entry of the ordered rank structure. `Ord` sorts by key
/// *descending*, then by pair ascending, so set iteration is best-first
/// and deterministic across machines (u64 counts → IEEE division).
#[derive(Debug, Clone, Copy)]
struct RankEntry {
    key: f64,
    pair: Pair,
}

impl PartialEq for RankEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for RankEntry {}
impl PartialOrd for RankEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RankEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| self.pair.cmp(&other.pair))
    }
}

#[derive(Debug, Clone, Copy)]
struct PairState {
    count: u64,
    /// The rank key currently stored in the rank set (needed to remove
    /// the old entry before inserting the rescored one), or `None` while
    /// the pair is below [`MIN_RANKED_COUNT`].
    ranked_key: Option<f64>,
}

/// Running counters of how the index has been maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryStats {
    /// Incremental refreshes applied (one per drained touch log).
    pub updates: u64,
    /// Full rebuilds (initial mine, budget re-mines, and every checkpoint
    /// restore — the index is derived state and is never persisted).
    pub rebuilds: u64,
    /// Items + pairs rescored across all incremental refreshes.
    pub rescored: u64,
}

/// The incrementally maintained score index over co-occurring
/// annotation pairs. Mirrors the pure-annotation singletons and pairs of
/// an [`IncrementalMiner`](anno_mine::IncrementalMiner)'s table; apply
/// the miner's drained [`DiscoveryTouch`] after every batch via
/// [`DiscoveryIndex::refresh`] to keep the mirror exact.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryIndex {
    singles: FxHashMap<Item, u64>,
    pairs: FxHashMap<Pair, PairState>,
    /// Partners of each item across all tracked pairs — the fan-out an
    /// incremental rescore walks for a touched item.
    adjacency: FxHashMap<Item, Vec<Item>>,
    rank_cross: BTreeSet<RankEntry>,
    rank_within: BTreeSet<RankEntry>,
    stats: DiscoveryStats,
}

impl DiscoveryIndex {
    /// An empty index (no pairs tracked).
    pub fn new() -> Self {
        DiscoveryIndex::default()
    }

    /// Build an index by scanning `table` from scratch — the reference
    /// the incremental path must match (`tests/properties.rs` pins it).
    pub fn rebuilt_from(table: &FrequentItemsets) -> Self {
        let mut index = DiscoveryIndex::new();
        index.rebuild(table);
        index
    }

    /// Number of annotation pairs mirrored (ranked or not).
    pub fn pairs_tracked(&self) -> usize {
        self.pairs.len()
    }

    /// Ranked pair counts: `(cross-namespace, within-namespace)`.
    pub fn ranked_len(&self) -> (usize, usize) {
        (self.rank_cross.len(), self.rank_within.len())
    }

    /// Maintenance counters.
    pub fn stats(&self) -> DiscoveryStats {
        self.stats
    }

    /// Apply one drained touch log against the miner's current `table`.
    /// `touch.all` (re-mine) falls back to a full rebuild; otherwise only
    /// the touched items' singletons, their adjacent pairs, and the newly
    /// stored pairs are rescored — work proportional to the drain's item
    /// footprint, not the table.
    pub fn refresh(&mut self, table: &FrequentItemsets, touch: &DiscoveryTouch) {
        if touch.all {
            self.rebuild(table);
            return;
        }
        if touch.items.is_empty() && touch.new_pairs.is_empty() {
            return;
        }
        for &(a, b) in &touch.new_pairs {
            let pair = ordered(a, b);
            if self.pairs.contains_key(&pair) {
                continue;
            }
            let count = table
                .count(&ItemSet::from_unsorted(vec![pair.0, pair.1]))
                .unwrap_or(0);
            self.ensure_single(table, pair.0);
            self.ensure_single(table, pair.1);
            self.adjacency.entry(pair.0).or_default().push(pair.1);
            self.adjacency.entry(pair.1).or_default().push(pair.0);
            self.pairs.insert(
                pair,
                PairState {
                    count,
                    ranked_key: None,
                },
            );
            self.rescore(pair);
            self.stats.rescored += 1;
        }
        let mut to_rescore: FxHashSet<Pair> = FxHashSet::default();
        for &item in &touch.items {
            self.ensure_single(table, item);
            if let Some(partners) = self.adjacency.get(&item) {
                to_rescore.extend(partners.iter().map(|&p| ordered(item, p)));
            }
        }
        for pair in to_rescore {
            if let Some(count) = table.count(&ItemSet::from_unsorted(vec![pair.0, pair.1])) {
                if let Some(state) = self.pairs.get_mut(&pair) {
                    state.count = count;
                }
            }
            self.rescore(pair);
            self.stats.rescored += 1;
        }
        self.stats.updates += 1;
    }

    /// Mirror one singleton from the table: present → stored count,
    /// absent (below retention, hence pruned or never memoized) → no
    /// entry, exactly as a rescan would leave it.
    fn ensure_single(&mut self, table: &FrequentItemsets, item: Item) {
        match table.count(&ItemSet::single(item)) {
            Some(count) => {
                self.singles.insert(item, count);
            }
            None => {
                self.singles.remove(&item);
            }
        }
    }

    /// Recompute one pair's rank key from the mirrored counts and move it
    /// within (or in/out of) its rank set.
    fn rescore(&mut self, pair: Pair) {
        let Some(state) = self.pairs.get(&pair) else {
            return;
        };
        let count = state.count;
        let old_key = state.ranked_key;
        let rank = if is_cross(&pair) {
            &mut self.rank_cross
        } else {
            &mut self.rank_within
        };
        if let Some(key) = old_key {
            rank.remove(&RankEntry { key, pair });
        }
        let ca = self.singles.get(&pair.0).copied().unwrap_or(0);
        let cb = self.singles.get(&pair.1).copied().unwrap_or(0);
        let new_key = if count >= MIN_RANKED_COUNT {
            let key = rank_key(count, ca, cb);
            rank.insert(RankEntry { key, pair });
            Some(key)
        } else {
            None
        };
        if let Some(state) = self.pairs.get_mut(&pair) {
            state.ranked_key = new_key;
        }
    }

    /// Discard everything and rescan `table`: singletons are the
    /// annotation-like 1-itemsets, pairs the pure-annotation 2-itemsets.
    pub fn rebuild(&mut self, table: &FrequentItemsets) {
        self.singles.clear();
        self.pairs.clear();
        self.adjacency.clear();
        self.rank_cross.clear();
        self.rank_within.clear();
        let mut found: Vec<(Pair, u64)> = Vec::new();
        for (s, count) in table.iter() {
            if s.data_count() != 0 {
                continue;
            }
            match *s.items() {
                [single] => {
                    self.singles.insert(single, count);
                }
                [a, b] => found.push(((a, b), count)),
                _ => {}
            }
        }
        for (pair, count) in found {
            self.adjacency.entry(pair.0).or_default().push(pair.1);
            self.adjacency.entry(pair.1).or_default().push(pair.0);
            self.pairs.insert(
                pair,
                PairState {
                    count,
                    ranked_key: None,
                },
            );
            self.rescore(pair);
        }
        self.stats.rebuilds += 1;
    }

    /// The ranked pairs of one class, best-first: `(pair, count, key)`.
    /// O(len) — meant for tests and rebuild comparisons, not serving;
    /// serving goes through [`DiscoveryIndex::snapshot`].
    pub fn ranked_pairs(&self, cross: bool) -> Vec<(Pair, u64, f64)> {
        let rank = if cross {
            &self.rank_cross
        } else {
            &self.rank_within
        };
        rank.iter()
            .map(|e| {
                let count = self.pairs.get(&e.pair).map_or(0, |s| s.count);
                (e.pair, count, e.key)
            })
            .collect()
    }

    /// `true` iff this index's mirrored counts and rank order equal a
    /// from-scratch rescan of `table` — the discovery analogue of
    /// `verify_against_remine`.
    pub fn verify_against_rescan(&self, table: &FrequentItemsets) -> bool {
        let fresh = DiscoveryIndex::rebuilt_from(table);
        self.singles == fresh.singles
            && self.pairs.len() == fresh.pairs.len()
            && self
                .pairs
                .iter()
                .all(|(p, s)| fresh.pairs.get(p).is_some_and(|f| f.count == s.count))
            && self.ranked_pairs(true) == fresh.ranked_pairs(true)
            && self.ranked_pairs(false) == fresh.ranked_pairs(false)
    }

    /// Materialize a bounded, immutable [`DiscoverySnapshot`] for
    /// lock-free serving: the top `cap` entries per class with lift /
    /// leverage / significance computed at the current denominator `n`,
    /// and names resolved through `vocab`.
    pub fn snapshot(
        &self,
        epoch: u64,
        n: u64,
        cap: usize,
        vocab: &Vocabulary,
    ) -> DiscoverySnapshot {
        let materialize = |rank: &BTreeSet<RankEntry>| -> Vec<DiscoveredPair> {
            rank.iter()
                .take(cap)
                .map(|e| {
                    let count = self.pairs.get(&e.pair).map_or(0, |s| s.count);
                    let count_a = self.singles.get(&e.pair.0).copied().unwrap_or(0);
                    let count_b = self.singles.get(&e.pair.1).copied().unwrap_or(0);
                    DiscoveredPair::compute(e.pair, count, count_a, count_b, n, vocab)
                })
                .collect()
        };
        DiscoverySnapshot {
            epoch,
            db_size: n,
            cross: materialize(&self.rank_cross),
            within: materialize(&self.rank_within),
            pairs_tracked: self.pairs.len() as u64,
            stats: self.stats,
        }
    }
}

/// One scored correlation in a published snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredPair {
    /// The pair, sorted.
    pub a: Item,
    /// Second item of the pair.
    pub b: Item,
    /// Resolved name of `a`.
    pub a_name: String,
    /// Resolved name of `b`.
    pub b_name: String,
    /// Co-occurrence count `c(ab)`.
    pub count: u64,
    /// Singleton count `c(a)`.
    pub count_a: u64,
    /// Singleton count `c(b)`.
    pub count_b: u64,
    /// Support fraction `c(ab)/n`.
    pub support: f64,
    /// Lift `n·c(ab) / (c(a)·c(b))`; > 1 means positive correlation.
    pub lift: f64,
    /// Leverage `c(ab)/n − c(a)·c(b)/n²`.
    pub leverage: f64,
    /// `true` iff the observed co-occurrence deviates from independence
    /// by at least [`SIGNIFICANCE_Z`] binomial standard deviations.
    pub significant: bool,
    /// `true` iff the pair spans namespaces (annotation × label).
    pub cross: bool,
}

impl DiscoveredPair {
    fn compute(pair: Pair, count: u64, count_a: u64, count_b: u64, n: u64, v: &Vocabulary) -> Self {
        let nf = n.max(1) as f64;
        let expected = (count_a as f64) * (count_b as f64) / nf;
        let p = (count_a as f64 / nf) * (count_b as f64 / nf);
        let sigma = (nf * p * (1.0 - p)).sqrt();
        let denom = (count_a as f64) * (count_b as f64);
        DiscoveredPair {
            a: pair.0,
            b: pair.1,
            a_name: v.name(pair.0).to_string(),
            b_name: v.name(pair.1).to_string(),
            count,
            count_a,
            count_b,
            support: count as f64 / nf,
            lift: if denom == 0.0 {
                0.0
            } else {
                nf * count as f64 / denom
            },
            leverage: (count as f64 - expected) / nf,
            significant: count >= MIN_RANKED_COUNT
                && (sigma == 0.0 || (count as f64 - expected).abs() >= SIGNIFICANCE_Z * sigma),
            cross: is_cross(&pair),
        }
    }
}

/// An immutable, bounded materialization of a [`DiscoveryIndex`],
/// published behind an `Arc` with the same discipline as rule snapshots:
/// readers never lock, never scan, never see a half-updated rank.
#[derive(Debug, Clone, Default)]
pub struct DiscoverySnapshot {
    /// Publish epoch (shared with the rule snapshot published alongside).
    pub epoch: u64,
    /// Support denominator the scores were materialized at.
    pub db_size: u64,
    /// Cross-namespace pairs, best-first — the priority class.
    pub cross: Vec<DiscoveredPair>,
    /// Within-namespace pairs, best-first.
    pub within: Vec<DiscoveredPair>,
    /// Total pairs the index mirrors (beyond the materialized caps).
    pub pairs_tracked: u64,
    /// Maintenance counters at publish time.
    pub stats: DiscoveryStats,
}

impl DiscoverySnapshot {
    /// Answer `discover top=k [min_support=s] [cross_only]`: cross pairs
    /// first (the rezolus-style priority), then within-namespace pairs,
    /// filtered and truncated to `k`.
    pub fn query(&self, k: usize, min_support: f64, cross_only: bool) -> Vec<&DiscoveredPair> {
        let within: &[DiscoveredPair] = if cross_only { &[] } else { &self.within };
        self.cross
            .iter()
            .chain(within)
            .filter(|p| p.support >= min_support)
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(i: u32) -> Item {
        Item::annotation(i)
    }
    fn lab(i: u32) -> Item {
        Item::label(i)
    }
    fn set(items: &[Item]) -> ItemSet {
        ItemSet::from_unsorted(items.to_vec())
    }

    /// A small table: n=10, three annotations + one label with assorted
    /// pair counts.
    fn demo_table() -> FrequentItemsets {
        let mut t = FrequentItemsets::new(10);
        t.insert(set(&[ann(0)]), 6);
        t.insert(set(&[ann(1)]), 5);
        t.insert(set(&[ann(2)]), 2);
        t.insert(set(&[lab(0)]), 4);
        t.insert(set(&[ann(0), ann(1)]), 4);
        t.insert(set(&[ann(0), ann(2)]), 2);
        t.insert(set(&[ann(1), lab(0)]), 4);
        t.insert(set(&[ann(0), ann(1), ann(2)]), 1); // len 3: ignored
        t
    }

    #[test]
    fn rebuild_mirrors_pairs_and_ranks_by_lift() {
        let index = DiscoveryIndex::rebuilt_from(&demo_table());
        assert_eq!(index.pairs_tracked(), 3);
        let (cross, within) = index.ranked_len();
        assert_eq!(cross, 1, "ann1×lab0 is the only cross pair");
        assert_eq!(within, 2);
        let ranked = index.ranked_pairs(false);
        // L(a0,a1) = 4/30 ≈ 0.133; L(a0,a2) = 2/12 ≈ 0.167 → a0a2 first.
        assert_eq!(ranked[0].0, (ann(0), ann(2)));
        assert_eq!(ranked[1].0, (ann(0), ann(1)));
    }

    #[test]
    fn min_count_screen_keeps_singletons_out_of_rank() {
        let mut t = demo_table();
        t.insert(set(&[ann(1), ann(2)]), 1); // seen once: tracked, unranked
        let index = DiscoveryIndex::rebuilt_from(&t);
        assert_eq!(index.pairs_tracked(), 4);
        assert_eq!(index.ranked_len().1, 2);
    }

    #[test]
    fn refresh_tracks_count_changes_and_new_pairs() {
        let mut t = demo_table();
        let mut index = DiscoveryIndex::rebuilt_from(&t);

        // A drain bumps a0 and the a0a1 pair, and discovers a1a2.
        t.add_count(&set(&[ann(0)]), 1);
        t.add_count(&set(&[ann(0), ann(1)]), 2);
        t.insert(set(&[ann(1), ann(2)]), 3);
        t.set_db_size(12);
        let mut touch = DiscoveryTouch::default();
        touch.items.insert(ann(0));
        touch.items.insert(ann(1));
        touch.new_pairs.push((ann(1), ann(2)));
        index.refresh(&t, &touch);

        assert!(index.verify_against_rescan(&t), "incremental == rescan");
        assert_eq!(index.stats().updates, 1);
        assert!(index.stats().rescored > 0);
    }

    #[test]
    fn refresh_all_falls_back_to_rebuild() {
        let t = demo_table();
        let mut index = DiscoveryIndex::new();
        let touch = DiscoveryTouch {
            all: true,
            ..Default::default()
        };
        index.refresh(&t, &touch);
        assert!(index.verify_against_rescan(&t));
        assert_eq!(index.stats().rebuilds, 1);
    }

    #[test]
    fn snapshot_scores_and_prioritizes_cross_pairs() {
        let mut vocab = Vocabulary::new();
        for i in 0..3 {
            vocab.annotation(&format!("A{i}"));
        }
        vocab.label("L0");
        let index = DiscoveryIndex::rebuilt_from(&demo_table());
        let snap = index.snapshot(7, 10, 16, &vocab);
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.cross.len(), 1);
        assert_eq!(snap.within.len(), 2);

        // Lift of (A1, L0): 10·4 / (5·4) = 2.0; leverage 4/10 − 20/100.
        let c = &snap.cross[0];
        assert_eq!((c.a_name.as_str(), c.b_name.as_str()), ("A1", "L0"));
        assert!((c.lift - 2.0).abs() < 1e-12);
        assert!((c.leverage - 0.2).abs() < 1e-12);
        assert!(c.cross);

        // Query interleaving: cross first, then within, truncated.
        let all = snap.query(2, 0.0, false);
        assert_eq!(all.len(), 2);
        assert!(all[0].cross && !all[1].cross);
        let cross_only = snap.query(10, 0.0, true);
        assert_eq!(cross_only.len(), 1);
        // min_support filters: pair support 0.2 < 0.3 drops (a0,a2).
        let filtered = snap.query(10, 0.3, false);
        assert!(filtered.iter().all(|p| p.support >= 0.3));
    }

    #[test]
    fn significance_screen_flags_strong_pairs_only() {
        // 100 tuples; a pair matching independence exactly is not
        // significant, a heavily lopsided one is.
        let mut t = FrequentItemsets::new(100);
        t.insert(set(&[ann(0)]), 50);
        t.insert(set(&[ann(1)]), 50);
        t.insert(set(&[ann(0), ann(1)]), 25); // E = 25: independent
        t.insert(set(&[ann(2)]), 40);
        t.insert(set(&[ann(3)]), 40);
        t.insert(set(&[ann(2), ann(3)]), 40); // E = 16: far above
        let mut vocab = Vocabulary::new();
        for i in 0..4 {
            vocab.annotation(&format!("A{i}"));
        }
        let snap = DiscoveryIndex::rebuilt_from(&t).snapshot(1, 100, 16, &vocab);
        let by_name = |n: &str| {
            snap.within
                .iter()
                .find(|p| p.a_name == n)
                .expect("pair present")
        };
        assert!(!by_name("A0").significant, "independent pair not flagged");
        assert!(by_name("A2").significant, "lopsided pair flagged");
    }

    #[test]
    fn zero_count_singletons_rank_at_zero_without_panicking() {
        let mut t = FrequentItemsets::new(4);
        t.insert(set(&[ann(0)]), 0);
        t.insert(set(&[ann(1)]), 3);
        t.insert(set(&[ann(0), ann(1)]), 2);
        let index = DiscoveryIndex::rebuilt_from(&t);
        let ranked = index.ranked_pairs(false);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].2, 0.0, "undefined lift ranks at zero");
    }
}
