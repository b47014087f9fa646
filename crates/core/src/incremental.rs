//! Incremental maintenance of association rules (paper §4.3).
//!
//! Re-running Apriori after every database change is what the paper sets
//! out to avoid. [`IncrementalMiner`] keeps three pieces of state between
//! changes:
//!
//! * a **frequent-itemset table** with *exact* occurrence counts, mined at
//!   a *retention* level below the user's α (the paper's "candidate rules
//!   slightly below the minimum support and confidence requirements");
//! * the **valid rule set** and the **near-threshold candidate rule set**,
//!   both *derived* from the table (`rules::derive_rules_partitioned`), so
//!   maintaining the table maintains the rules;
//! * the **evolution budget**: the database size at the last full mine and
//!   the tuples added/deleted since. An itemset that was below the
//!   retention level can only become frequent after enough tuple churn; the
//!   budget check detects exactly when that becomes possible and falls back
//!   to one full re-mine, making every operation **exact** — the paper's
//!   own validation criterion ("the association rules resulting from both
//!   processes were identical") holds unconditionally, not just for small
//!   batches.
//!
//! The three cases of §4.3 map to [`IncrementalMiner::add_annotated_tuples`]
//! (Case 1), [`IncrementalMiner::add_unannotated_tuples`] (Case 2) and
//! [`IncrementalMiner::apply_annotations`] (Case 3, Figs. 12–13). Case 3
//! touches only delta tuples for count updates and only `index(a)` postings
//! for discovery — never the full database — and needs *no* budget: every
//! itemset whose count can change contains one of the batch's annotations,
//! and those are all either updated exactly (retained ones) or discovered
//! exactly (via the inverted index), as the module tests verify against
//! from-scratch mining.
//!
//! Deletion — the paper's future work (§6) — is implemented by
//! [`IncrementalMiner::remove_annotations`] and
//! [`IncrementalMiner::delete_tuples`] with the same exactness contract.
//!
//! All five entry points move the table's counts through one fold
//! (`fold_delta`): a stored itemset gains or loses one occurrence on a
//! touched tuple iff it is contained in the tuple's items on the side of
//! the change that holds the changed items, and contains one of them.

use anno_store::fxhash::{FxHashMap, FxHashSet};
use anno_store::{AnnotatedRelation, AnnotationDelta, AnnotationUpdate, Item, Tuple, TupleId};

use crate::apriori::apriori;
use crate::frequent::{support_count_threshold, FrequentItemsets};
use crate::itemset::{transactions_of, ItemSet, MiningMode, Transaction};
use crate::mine::mine_rules;
use crate::rules::{derive_rules_partitioned, RuleSet, Thresholds};

/// Configuration of the incremental miner.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalConfig {
    /// The user-facing thresholds (α, β).
    pub thresholds: Thresholds,
    /// Retention factor in `(0, 1]`: the itemset table and candidate rules
    /// are kept down to `retention · α` support (and `retention · β`
    /// confidence for candidate rules). Lower retention = bigger table =
    /// larger evolution budget before a fallback re-mine.
    pub retention: f64,
}

impl Default for IncrementalConfig {
    fn default() -> Self {
        IncrementalConfig {
            thresholds: Thresholds::paper(),
            retention: 0.5,
        }
    }
}

impl IncrementalConfig {
    /// Check `retention` is in `(0, 1]`. Every place a configuration
    /// enters from outside — a client's `open`, a logged `mine` record, a
    /// checkpoint — calls this, so a bad value is a typed error there and
    /// never reaches [`IncrementalMiner::mine_initial`]'s assertion.
    pub fn validate(&self) -> Result<(), String> {
        if self.retention > 0.0 && self.retention <= 1.0 {
            Ok(())
        } else {
            Err(format!(
                "retention must be in (0, 1], got {}",
                self.retention
            ))
        }
    }
}

/// The footprint of recent maintenance operations, for consumers that
/// mirror the miner's counts (e.g. a discovery index): which
/// annotation-like items may have changed support, and which
/// pure-annotation pairs were newly stored. Drained with
/// [`IncrementalMiner::take_touches`]; a full re-mine (or any operation
/// whose footprint is not itemised) sets `all` instead.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryTouch {
    /// Everything may have changed (full re-mine / initial mine): rescan
    /// the whole table instead of applying `items`/`new_pairs`.
    pub all: bool,
    /// Annotation-like items whose singleton count — or the count of any
    /// stored itemset containing them — may have changed.
    pub items: FxHashSet<Item>,
    /// Pure-annotation 2-itemsets newly inserted into the table (Fig. 13
    /// discovery), as sorted `(low, high)` item pairs.
    pub new_pairs: Vec<(Item, Item)>,
}

impl DiscoveryTouch {
    /// `true` iff no maintenance happened since the last drain.
    pub fn is_empty(&self) -> bool {
        !self.all && self.items.is_empty() && self.new_pairs.is_empty()
    }

    /// Record the annotation-like items among `items`.
    fn note_items(&mut self, items: &[Item]) {
        self.items
            .extend(items.iter().copied().filter(|i| i.is_annotation_like()));
    }

    /// Record a newly stored itemset if it is a pure-annotation pair.
    fn note_inserted(&mut self, s: &ItemSet) {
        if s.len() == 2 && s.data_count() == 0 {
            self.new_pairs.push((s.items()[0], s.items()[1]));
        }
    }

    /// Fold another touch record into this one.
    pub fn merge(&mut self, other: DiscoveryTouch) {
        self.all |= other.all;
        self.items.extend(other.items);
        self.new_pairs.extend(other.new_pairs);
    }
}

/// Counters describing how the miner has been maintaining its state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Full Apriori re-mines (the initial one plus budget fallbacks).
    pub full_remines: u64,
    /// Case 1 batches processed incrementally.
    pub case1_batches: u64,
    /// Case 2 batches processed incrementally.
    pub case2_batches: u64,
    /// Case 3 batches processed incrementally.
    pub case3_batches: u64,
    /// Deletion batches (annotations or tuples) processed incrementally.
    pub deletion_batches: u64,
    /// Itemsets newly discovered by the Fig. 13 index-assisted pass.
    pub discovered_itemsets: u64,
}

/// Incrementally maintained association rules over one annotated relation.
///
/// The miner does not own the relation; instead, every mutation goes
/// through the miner (`add_*`, `apply_annotations`, `remove_*`,
/// `delete_tuples`), which applies it to the relation *and* maintains the
/// rule state. Mutating the relation behind the miner's back voids the
/// exactness contract.
#[derive(Debug, Clone)]
pub struct IncrementalMiner {
    pub(crate) config: IncrementalConfig,
    pub(crate) table: FrequentItemsets,
    pub(crate) valid: RuleSet,
    pub(crate) near: RuleSet,
    /// Database size at the last full mine.
    pub(crate) base_size: u64,
    /// Tuples added since the last full mine.
    pub(crate) added_since: u64,
    pub(crate) stats: MaintenanceStats,
    /// Accumulated maintenance footprint since the last
    /// [`IncrementalMiner::take_touches`] drain. Not persisted: a restored
    /// miner starts with an empty log and consumers rebuild from the table.
    pub(crate) touches: DiscoveryTouch,
}

impl IncrementalMiner {
    /// Mine `relation` from scratch and set up incremental state. Panics
    /// if `config` fails [`IncrementalConfig::validate`].
    pub fn mine_initial(relation: &AnnotatedRelation, config: IncrementalConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "documented contract: the configuration is validated first (the serving layer refuses one that fails)"
        )]
        if let Err(msg) = config.validate() {
            panic!("{msg}");
        }
        let mut miner = IncrementalMiner {
            config,
            table: FrequentItemsets::new(0),
            valid: RuleSet::new(),
            near: RuleSet::new(),
            base_size: 0,
            added_since: 0,
            stats: MaintenanceStats::default(),
            touches: DiscoveryTouch::default(),
        };
        miner.full_remine(relation);
        miner
    }

    /// The currently valid rules (support ≥ α, confidence ≥ β). Exact.
    pub fn rules(&self) -> &RuleSet {
        &self.valid
    }

    /// The retained near-threshold candidate rules (best-effort; used to
    /// explain how close a almost-rule is, and refreshed on every re-mine).
    pub fn candidate_rules(&self) -> &RuleSet {
        &self.near
    }

    /// The maintained frequent-itemset table.
    pub fn table(&self) -> &FrequentItemsets {
        &self.table
    }

    /// Maintenance statistics.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// Drain the accumulated maintenance footprint (see
    /// [`DiscoveryTouch`]), leaving an empty log. Consumers mirroring the
    /// table (e.g. `anno-discover`) call this after each batch and apply
    /// the touches to their own state.
    pub fn take_touches(&mut self) -> DiscoveryTouch {
        std::mem::take(&mut self.touches)
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.config.thresholds
    }

    /// The full incremental configuration (thresholds, retention) — used
    /// by serving layers that re-publish the miner's state alongside its
    /// parameters.
    pub fn config(&self) -> IncrementalConfig {
        self.config
    }

    /// Remaining Case-1/Case-2 tuple-addition budget before the next
    /// operation triggers a fallback re-mine.
    pub fn remaining_tuple_budget(&self) -> u64 {
        let mut lo = 0u64;
        let mut hi = self.base_size.max(1) * 2 + 1_000_000;
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.budget_ok_with(self.added_since + mid, self.table.db_size() + mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    // ------------------------------------------------------------------
    // Case 1 (§4.3): adding annotated tuples.
    // ------------------------------------------------------------------

    /// Insert annotated tuples and maintain the rules. Returns the assigned
    /// tuple ids.
    pub fn add_annotated_tuples(
        &mut self,
        relation: &mut AnnotatedRelation,
        tuples: Vec<Tuple>,
    ) -> Vec<TupleId> {
        self.stats.case1_batches += 1;
        self.add_tuples_common(relation, tuples)
    }

    // ------------------------------------------------------------------
    // Case 2 (§4.3): adding un-annotated tuples.
    // ------------------------------------------------------------------

    /// Insert un-annotated tuples and maintain the rules. Panics if a tuple
    /// carries annotations (that would be Case 1).
    pub fn add_unannotated_tuples(
        &mut self,
        relation: &mut AnnotatedRelation,
        tuples: Vec<Tuple>,
    ) -> Vec<TupleId> {
        assert!(
            tuples.iter().all(Tuple::is_unannotated),
            "Case 2 requires un-annotated tuples; use add_annotated_tuples"
        );
        self.stats.case2_batches += 1;
        self.add_tuples_common(relation, tuples)
    }

    fn add_tuples_common(
        &mut self,
        relation: &mut AnnotatedRelation,
        tuples: Vec<Tuple>,
    ) -> Vec<TupleId> {
        let transactions: Vec<Transaction> = tuples.iter().map(|t| Box::from(t.items())).collect();
        let tids = relation.extend(tuples);
        self.added_since += tids.len() as u64;
        let new_size = relation.len() as u64;
        if !self.budget_ok_with(self.added_since, new_size) {
            self.full_remine(relation);
            return tids;
        }
        // Each retained itemset gains exactly its occurrences among the
        // new tuples.
        self.fold_delta(Sign::Gain, transactions.iter().map(|t| (&t[..], &t[..])));
        self.table.set_db_size(new_size);
        self.rederive();
        tids
    }

    // ------------------------------------------------------------------
    // Case 3 (§4.3, Figs. 12–13): adding annotations to existing tuples.
    // ------------------------------------------------------------------

    /// Apply an annotation batch (Fig. 14) and maintain the rules. Returns
    /// the effective delta. Always exact, never re-mines, and touches only
    /// delta tuples plus the inverted-index postings of the batch's
    /// annotations.
    pub fn apply_annotations(
        &mut self,
        relation: &mut AnnotatedRelation,
        updates: impl IntoIterator<Item = AnnotationUpdate>,
    ) -> AnnotationDelta {
        let delta = relation.apply_annotation_batch(updates);
        if delta.is_empty() {
            return delta;
        }
        self.stats.case3_batches += 1;

        let mut added_per_tuple: Vec<(TupleId, Vec<Item>)> = {
            let mut map: FxHashMap<TupleId, Vec<Item>> = FxHashMap::default();
            for u in &delta.added {
                map.entry(u.tuple).or_default().push(u.annotation);
            }
            map.into_iter().collect()
        };
        added_per_tuple.sort_unstable_by_key(|&(tid, _)| tid);

        // Fig. 12 — update retained itemsets by scanning only the newly
        // annotated tuples: an itemset's count grew iff it matches the
        // tuple now and contains one of the tuple's fresh annotations.
        let touched: Vec<(&[Item], &[Item])> = added_per_tuple
            .iter()
            .filter_map(|(tid, fresh)| Some((relation.tuple(*tid)?.items(), &fresh[..])))
            .collect();
        self.fold_delta(Sign::Gain, touched.iter().copied());

        // Fig. 13 Step 1 precondition — the per-annotation frequency table:
        // singleton counts come exactly from the inverted index.
        let retention_min = self.retention_min_count();
        let mut anns_sorted: Vec<Item> = delta.distinct_annotations();
        anns_sorted.sort_unstable();
        for &a in &anns_sorted {
            let freq = relation.index().frequency(a) as u64;
            let single = ItemSet::single(a);
            if freq >= retention_min {
                debug_assert!(
                    self.table.count(&single).is_none_or(|c| c == freq),
                    "incremental singleton count diverged from index"
                );
                self.table.insert(single, freq);
            }
        }

        // Fig. 13 — discover newly frequent itemsets containing an added
        // annotation, counting over index(a) postings only. Per the paper,
        // seeds are the already-frequent patterns extracted *from the newly
        // annotated tuples*: a candidate can only have crossed the
        // retention level if its count grew, i.e. if it matches a touched
        // tuple that gained one of its annotations — so patterns absent
        // from every gained tuple need no re-evaluation. Seeds are
        // processed shortest-first so a candidate's sub-itemsets are
        // already in the table (levelwise closure); the outer loop sweeps
        // to a fixpoint because a candidate in annotation `a`'s pass may
        // need a seed that only a *later* annotation's pass (or an ensured
        // singleton) makes available.
        loop {
            // Per sweep: one bucketed pass over the touched tuples collects
            // the seed itemsets relevant to each added annotation.
            let keys: Vec<ItemSet> = self
                .table
                .iter()
                .filter(|(s, _)| s.annotation_count() == 0 || s.data_count() == 0)
                .map(|(s, _)| s.clone())
                .collect();
            let by_first = bucket_by_first_item(&keys);
            let mut seeds_per_ann: FxHashMap<Item, FxHashSet<usize>> = FxHashMap::default();
            for &(items, fresh) in &touched {
                for idx in matching_indices(&keys, &by_first, items) {
                    for &a in fresh {
                        if !keys[idx].contains(a) {
                            seeds_per_ann.entry(a).or_default().insert(idx);
                        }
                    }
                }
            }

            let mut discovered_this_sweep = 0u64;
            for &a in &anns_sorted {
                let single = ItemSet::single(a);
                let Some(freq) = self.table.count(&single) else {
                    continue;
                };
                if freq < retention_min {
                    continue;
                }
                let Some(seed_ids) = seeds_per_ann.get(&a) else {
                    continue;
                };
                let mut seeds: Vec<&ItemSet> = seed_ids.iter().map(|&idx| &keys[idx]).collect();
                seeds.sort_unstable_by(|x, y| x.len().cmp(&y.len()).then(x.cmp(y)));
                let postings: Vec<TupleId> = relation.index().tuples_with(a).collect();
                for seed in seeds {
                    let candidate = seed.with(a);
                    if self.table.contains(&candidate) {
                        continue;
                    }
                    debug_assert!(candidate.admitted_by(MiningMode::Annotated));
                    // Levelwise prune: every k-subset must be stored with a
                    // count at the retention level. (Count-based, not mere
                    // presence: the table memoizes evaluated-but-infrequent
                    // candidates, and those must not admit supersets.)
                    let closed = candidate
                        .sub_itemsets()
                        .all(|sub| self.table.count(&sub).is_some_and(|c| c >= retention_min));
                    if !closed {
                        continue;
                    }
                    // Pure-annotation candidates count by posting-bitset
                    // intersection; mixed candidates scan index(a) postings
                    // and test their data part per tuple (Fig. 13's "check
                    // the data tuples annotated with the added annotation").
                    let count = if candidate.data_count() == 0 {
                        relation.index().co_occurrence(candidate.items()) as u64
                    } else {
                        let mut c = 0u64;
                        for &tid in &postings {
                            if relation.tuple(tid).is_some_and(|t| seed.matches(t)) {
                                c += 1;
                            }
                        }
                        c
                    };
                    // Memoize the exact count either way: below-retention
                    // candidates would otherwise be re-scanned on every
                    // future batch, and their counts stay exact under the
                    // Fig. 12 delta updates like any other stored itemset.
                    self.touches.note_inserted(&candidate);
                    self.table.insert(candidate, count);
                    if count >= retention_min {
                        self.stats.discovered_itemsets += 1;
                        discovered_this_sweep += 1;
                    }
                }
            }
            if discovered_this_sweep == 0 {
                break;
            }
        }

        self.rederive();
        delta
    }

    // ------------------------------------------------------------------
    // Deletion support — the paper's §6 future work.
    // ------------------------------------------------------------------

    /// Remove annotations from tuples and maintain the rules. Returns the
    /// number of effective removals. Exact; never re-mines (counts only
    /// decrease and the support denominator is unchanged).
    pub fn remove_annotations(
        &mut self,
        relation: &mut AnnotatedRelation,
        updates: &[AnnotationUpdate],
    ) -> usize {
        let mut removed_per_tuple: FxHashMap<TupleId, Vec<Item>> = FxHashMap::default();
        let mut effective = 0usize;
        for u in updates {
            if relation.remove_annotation(u.tuple, u.annotation) {
                removed_per_tuple
                    .entry(u.tuple)
                    .or_default()
                    .push(u.annotation);
                effective += 1;
            }
        }
        if effective == 0 {
            return 0;
        }
        self.stats.deletion_batches += 1;

        // Mirror image of the Fig. 12 update: an itemset lost a match on a
        // touched tuple iff it matched the tuple's pre-removal state
        // (current items ∪ removed items) and contains a removed annotation.
        let touched: Vec<(Vec<Item>, &[Item])> = removed_per_tuple
            .iter()
            .filter_map(|(&tid, removed)| {
                let mut before = [relation.tuple(tid)?.items(), removed].concat();
                before.sort_unstable();
                Some((before, &removed[..]))
            })
            .collect();
        self.fold_delta(Sign::Loss, touched.iter().map(|(b, r)| (&b[..], *r)));
        self.rederive();
        effective
    }

    /// Delete whole tuples and maintain the rules. Returns the number of
    /// tuples actually deleted. Exact: the shrinking support denominator can
    /// promote below-retention itemsets, so the budget check may trigger a
    /// fallback re-mine.
    pub fn delete_tuples(&mut self, relation: &mut AnnotatedRelation, tids: &[TupleId]) -> usize {
        let mut deleted_transactions: Vec<Transaction> = Vec::new();
        for &tid in tids {
            let Some(tuple) = relation.tuple(tid) else {
                continue;
            };
            let transaction: Transaction = Box::from(tuple.items());
            if relation.delete_tuple(tid) {
                deleted_transactions.push(transaction);
            }
        }
        if deleted_transactions.is_empty() {
            return 0;
        }
        self.stats.deletion_batches += 1;
        let new_size = relation.len() as u64;
        if !self.budget_ok_with(self.added_since, new_size) {
            let n = deleted_transactions.len();
            self.full_remine(relation);
            return n;
        }
        self.fold_delta(
            Sign::Loss,
            deleted_transactions.iter().map(|t| (&t[..], &t[..])),
        );
        self.table.set_db_size(new_size);
        self.rederive();
        deleted_transactions.len()
    }

    // ------------------------------------------------------------------
    // Verification and internals.
    // ------------------------------------------------------------------

    /// The paper's validation methodology: compare the maintained rules
    /// against a from-scratch mine of the current relation.
    pub fn verify_against_remine(&self, relation: &AnnotatedRelation) -> bool {
        let fresh = mine_rules(relation, &self.config.thresholds);
        self.valid.identical_to(&fresh)
    }

    fn retention_min_count(&self) -> u64 {
        support_count_threshold(
            self.config.thresholds.min_support * self.config.retention,
            self.table.db_size(),
        )
    }

    /// Exactness condition: an itemset that was below the retention level
    /// at the last full mine (count ≤ retained_min_then − 1) has gained at
    /// most `added` occurrences since, so it cannot reach the current
    /// α-threshold as long as
    /// `retained_min_then − 1 + added < support_count_threshold(α, n_now)`.
    fn budget_ok_with(&self, added: u64, db_size_now: u64) -> bool {
        let retained_min_then = support_count_threshold(
            self.config.thresholds.min_support * self.config.retention,
            self.base_size,
        );
        let current_min = support_count_threshold(self.config.thresholds.min_support, db_size_now);
        retained_min_then - 1 + added < current_min
    }

    /// §4.3's count update, written once for all five entry points. Each
    /// touched tuple arrives as `(side, changed)`: `changed` are the items
    /// the batch gave to or took from it, `side` its sorted items on the
    /// side of the change that holds them (after a gain, before a loss; a
    /// whole inserted or deleted tuple is both). A stored itemset moves by
    /// one occurrence on that tuple iff it is contained in `side` and
    /// contains one of `changed`. The whole batch has one `sign`.
    fn fold_delta<'a>(
        &mut self,
        sign: Sign,
        touched: impl Iterator<Item = (&'a [Item], &'a [Item])>,
    ) {
        let keys: Vec<ItemSet> = self.table.iter().map(|(s, _)| s.clone()).collect();
        let by_first = bucket_by_first_item(&keys);
        let mut moved = vec![0u64; keys.len()];
        for (side, changed) in touched {
            self.touches.note_items(changed);
            for idx in matching_indices(&keys, &by_first, side) {
                if keys[idx].items().iter().any(|i| changed.contains(i)) {
                    moved[idx] += 1;
                }
            }
        }
        for (s, n) in keys.iter().zip(moved).filter(|&(_, n)| n > 0) {
            match sign {
                Sign::Gain => self.table.add_count(s, n),
                Sign::Loss => self.table.sub_count(s, n),
            }
        }
    }

    fn full_remine(&mut self, relation: &AnnotatedRelation) {
        let transactions = transactions_of(relation, MiningMode::Annotated);
        let retained_support = self.config.thresholds.min_support * self.config.retention;
        self.table = apriori(&transactions, retained_support, MiningMode::Annotated);
        self.base_size = relation.len() as u64;
        self.added_since = 0;
        self.stats.full_remines += 1;
        self.touches.all = true;
        self.rederive();
    }

    pub(crate) fn rederive(&mut self) {
        let strict = self.config.thresholds;
        let loose = strict.scaled(self.config.retention);
        let (valid, near) = derive_rules_partitioned(&self.table, &strict, &loose);
        self.valid = valid;
        self.near = near;
    }
}

/// Which way a maintenance batch moves the counts it touches.
enum Sign {
    Gain,
    Loss,
}

/// Group itemset indices by their first item, for prefix-probed matching.
fn bucket_by_first_item(keys: &[ItemSet]) -> FxHashMap<Item, Vec<usize>> {
    let mut by_first: FxHashMap<Item, Vec<usize>> = FxHashMap::default();
    for (i, s) in keys.iter().enumerate() {
        if let Some(&first) = s.items().first() {
            by_first.entry(first).or_default().push(i);
        }
    }
    by_first
}

/// Indices of the itemsets contained in the sorted `transaction`, probing
/// only the buckets of items the transaction actually holds.
fn matching_indices(
    keys: &[ItemSet],
    by_first: &FxHashMap<Item, Vec<usize>>,
    transaction: &[Item],
) -> Vec<usize> {
    let mut out = Vec::new();
    for (pos, item) in transaction.iter().enumerate() {
        let Some(bucket) = by_first.get(item) else {
            continue;
        };
        for &ci in bucket {
            if keys[ci].is_subset_of(&transaction[pos..]) {
                out.push(ci);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_store::{generate, random_annotation_batch, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(alpha: f64, beta: f64, retention: f64) -> IncrementalConfig {
        IncrementalConfig {
            thresholds: Thresholds::new(alpha, beta),
            retention,
        }
    }

    fn demo() -> (AnnotatedRelation, IncrementalMiner) {
        let ds = generate(&GeneratorConfig::tiny(21));
        let rel = ds.relation;
        let miner = IncrementalMiner::mine_initial(&rel, config(0.2, 0.6, 0.5));
        (rel, miner)
    }

    #[test]
    fn initial_mine_matches_batch_mining() {
        let (rel, miner) = demo();
        assert!(miner.verify_against_remine(&rel));
        assert_eq!(miner.stats().full_remines, 1);
        assert!(!miner.rules().is_empty(), "tiny dataset should yield rules");
    }

    #[test]
    fn case1_annotated_tuples_stay_exact() {
        let (mut rel, mut miner) = demo();
        let mut rng = StdRng::seed_from_u64(5);
        let batch = anno_store::random_annotated_tuples(&mut rel, &mut rng, 15, 4);
        miner.add_annotated_tuples(&mut rel, batch);
        assert!(miner.verify_against_remine(&rel));
        assert_eq!(miner.stats().case1_batches, 1);
        assert_eq!(miner.stats().full_remines, 1, "within budget: no re-mine");
    }

    #[test]
    fn case2_unannotated_tuples_stay_exact() {
        let (mut rel, mut miner) = demo();
        let mut rng = StdRng::seed_from_u64(6);
        let batch = anno_store::random_unannotated_tuples(&mut rel, &mut rng, 15, 4);
        let before = miner.rules().len();
        miner.add_unannotated_tuples(&mut rel, batch);
        assert!(miner.verify_against_remine(&rel));
        // Supports only fall in Case 2: the rule set can only shrink.
        assert!(miner.rules().len() <= before);
    }

    #[test]
    #[should_panic(expected = "Case 2 requires un-annotated tuples")]
    fn case2_rejects_annotated_tuples() {
        let (mut rel, mut miner) = demo();
        let a = rel.vocab_mut().annotation("sneaky");
        let x = rel.vocab_mut().data("1");
        miner.add_unannotated_tuples(&mut rel, vec![Tuple::new([x], [a])]);
    }

    #[test]
    fn case3_annotation_batches_stay_exact() {
        let (mut rel, mut miner) = demo();
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..5 {
            let batch = random_annotation_batch(&rel, &mut rng, 20);
            miner.apply_annotations(&mut rel, batch);
            assert!(
                miner.verify_against_remine(&rel),
                "diverged from re-mine at round {round}"
            );
        }
        assert_eq!(miner.stats().case3_batches, 5);
        assert_eq!(miner.stats().full_remines, 1, "Case 3 never re-mines");
    }

    #[test]
    fn case3_discovers_rules_for_brand_new_annotations() {
        // Build a relation where data pattern {x,y} is frequent but carries
        // no annotation; then annotate most {x,y} tuples with a brand-new
        // annotation in one batch. The miner must discover {x,y} ⇒ NEW.
        let mut rel = AnnotatedRelation::new("R");
        let x = rel.vocab_mut().data("10");
        let y = rel.vocab_mut().data("20");
        let z = rel.vocab_mut().data("30");
        for _ in 0..8 {
            rel.insert(Tuple::new([x, y], []));
        }
        for _ in 0..2 {
            rel.insert(Tuple::new([z], []));
        }
        let mut miner = IncrementalMiner::mine_initial(&rel, config(0.4, 0.8, 0.5));
        assert!(miner.rules().is_empty());

        let fresh = rel.vocab_mut().annotation("NEW");
        let updates: Vec<AnnotationUpdate> = (0..7)
            .map(|i| AnnotationUpdate {
                tuple: TupleId(i),
                annotation: fresh,
            })
            .collect();
        miner.apply_annotations(&mut rel, updates);
        assert!(miner.verify_against_remine(&rel));
        let rule = miner
            .rules()
            .get(&ItemSet::from_unsorted(vec![x, y]), fresh)
            .expect("discovered {x,y} ⇒ NEW");
        assert_eq!(rule.union_count, 7);
        assert_eq!(rule.lhs_count, 8);
        assert!(miner.stats().discovered_itemsets > 0);
    }

    #[test]
    fn budget_exhaustion_triggers_fallback_remine() {
        let (mut rel, mut miner) = demo();
        let budget = miner.remaining_tuple_budget();
        assert!(budget > 0);
        let mut rng = StdRng::seed_from_u64(9);
        // One batch larger than the budget must force a re-mine and still
        // be exact.
        let batch = anno_store::random_annotated_tuples(&mut rel, &mut rng, budget as usize + 1, 4);
        miner.add_annotated_tuples(&mut rel, batch);
        assert_eq!(miner.stats().full_remines, 2);
        assert!(miner.verify_against_remine(&rel));
    }

    #[test]
    fn remove_annotations_is_exact_and_can_create_rules() {
        // {x} ⇒ A holds at 6/8 = 0.75 < 0.8; removing A-free x-tuples'
        // *other* annotation cannot help, but deleting annotation B from
        // tuples where B dilutes {B} ⇒ A confidence can create that rule.
        let (mut rel, mut miner) = demo();
        let mut rng = StdRng::seed_from_u64(11);
        // Remove a random slice of existing annotation occurrences.
        let occurrences: Vec<AnnotationUpdate> = rel
            .iter()
            .flat_map(|(tid, t)| {
                t.annotations()
                    .iter()
                    .map(move |&a| AnnotationUpdate {
                        tuple: tid,
                        annotation: a,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let sample: Vec<AnnotationUpdate> = occurrences
            .into_iter()
            .filter(|_| rand::Rng::gen_bool(&mut rng, 0.1))
            .collect();
        let removed = miner.remove_annotations(&mut rel, &sample);
        assert_eq!(removed, sample.len());
        assert!(miner.verify_against_remine(&rel));
        assert_eq!(miner.stats().full_remines, 1, "removals never re-mine");
    }

    #[test]
    fn delete_tuples_is_exact() {
        let (mut rel, mut miner) = demo();
        let victims: Vec<TupleId> = rel.iter().map(|(tid, _)| tid).take(10).collect();
        let n = miner.delete_tuples(&mut rel, &victims);
        assert_eq!(n, 10);
        assert!(miner.verify_against_remine(&rel));
        // Double-deletion is a no-op.
        assert_eq!(miner.delete_tuples(&mut rel, &victims), 0);
    }

    #[test]
    fn mixed_workload_maintains_exactness() {
        let (mut rel, mut miner) = demo();
        let mut rng = StdRng::seed_from_u64(13);
        for round in 0..4 {
            let ann_batch = random_annotation_batch(&rel, &mut rng, 10);
            miner.apply_annotations(&mut rel, ann_batch);
            let tup_batch = anno_store::random_annotated_tuples(&mut rel, &mut rng, 5, 4);
            miner.add_annotated_tuples(&mut rel, tup_batch);
            let plain = anno_store::random_unannotated_tuples(&mut rel, &mut rng, 5, 4);
            miner.add_unannotated_tuples(&mut rel, plain);
            let victims: Vec<TupleId> = rel.iter().map(|(tid, _)| tid).take(2).collect();
            miner.delete_tuples(&mut rel, &victims);
            assert!(
                miner.verify_against_remine(&rel),
                "mixed workload diverged at round {round}"
            );
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let (mut rel, mut miner) = demo();
        let stats_before = miner.stats();
        let rules_before = miner.rules().clone();
        miner.apply_annotations(&mut rel, Vec::new());
        miner.remove_annotations(&mut rel, &[]);
        miner.delete_tuples(&mut rel, &[]);
        assert_eq!(miner.stats(), stats_before);
        assert!(miner.rules().identical_to(&rules_before));
    }

    #[test]
    #[should_panic(expected = "retention must be in")]
    fn zero_retention_is_rejected() {
        let ds = generate(&GeneratorConfig::tiny(1));
        let _ = IncrementalMiner::mine_initial(&ds.relation, config(0.4, 0.8, 0.0));
    }
}
