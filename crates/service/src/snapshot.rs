//! Immutable published state: what every read-path query runs against.
//!
//! A [`RuleSnapshot`] is built by the writer after each drained batch and
//! swapped in atomically behind an `Arc`. Readers clone the `Arc` and keep
//! querying their copy for as long as they like — a long-running scan is
//! never invalidated and never blocks (or is blocked by) the writer. The
//! relation rides along as a *persistent clone*: `AnnotatedRelation` is a
//! segment store, so [`RuleSnapshot::build`] freezes the database with
//! O(#segments) pointer copies, the snapshot physically shares every
//! segment with the live relation at publish time, and later writes
//! copy-on-write only the segments they touch. Publishing costs
//! delta-scale work, never O(|D|).

use anno_mine::{
    AssociationRule, IncrementalConfig, IncrementalMiner, MaintenanceStats, RuleSet, Thresholds,
};
use anno_store::fxhash::{FxHashMap, FxHashSet};
use anno_store::{AnnotatedRelation, Item, TupleId};

/// One published, immutable view of a dataset's rules and data.
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    dataset: String,
    epoch: u64,
    relation: AnnotatedRelation,
    relation_epoch: u64,
    rules: RuleSet,
    candidates: RuleSet,
    stats: MaintenanceStats,
    config: IncrementalConfig,
    /// LHS item → indices into `rules.rules()`, the recommendation index:
    /// a rule can only fire for a tuple/item-set that holds one of its
    /// antecedent items, so queries probe only these buckets.
    by_lhs_item: FxHashMap<Item, Vec<u32>>,
}

impl RuleSnapshot {
    /// Freeze the miner's current state into a snapshot. The relation is
    /// captured by persistent clone — O(#segments + #annotations) pointer
    /// copies that share all storage with `relation` — so building a
    /// snapshot never deep-copies the database.
    pub fn build(
        dataset: &str,
        epoch: u64,
        relation: &AnnotatedRelation,
        miner: &IncrementalMiner,
    ) -> RuleSnapshot {
        let rules = miner.rules().clone();
        let mut by_lhs_item: FxHashMap<Item, Vec<u32>> = FxHashMap::default();
        for (idx, rule) in (0u32..).zip(rules.rules()) {
            for &item in rule.lhs.items() {
                by_lhs_item.entry(item).or_default().push(idx);
            }
        }
        let relation_epoch = relation.epoch();
        RuleSnapshot {
            dataset: dataset.to_string(),
            epoch,
            relation: relation.clone(),
            relation_epoch,
            rules,
            candidates: miner.candidate_rules().clone(),
            stats: miner.stats(),
            config: miner.config(),
            by_lhs_item,
        }
    }

    /// The dataset this snapshot belongs to.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Monotonic publish sequence number (per dataset).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The relation's mutation epoch when this snapshot was published.
    pub fn relation_epoch(&self) -> u64 {
        self.relation_epoch
    }

    /// The frozen relation (tuples, vocabulary, index).
    pub fn relation(&self) -> &AnnotatedRelation {
        &self.relation
    }

    /// Number of live tuples at publish time.
    pub fn db_size(&self) -> usize {
        self.relation.len()
    }

    /// The valid rules (support ≥ α, confidence ≥ β).
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The near-threshold candidate rules retained by the miner.
    pub fn candidates(&self) -> &RuleSet {
        &self.candidates
    }

    /// Maintenance counters at publish time.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// The full mining configuration the publishing miner ran with
    /// (thresholds, retention) — the parameters a client needs to
    /// interpret [`RuleSnapshot::candidates`].
    pub fn config(&self) -> IncrementalConfig {
        self.config
    }

    /// The mining thresholds (α, β).
    pub fn thresholds(&self) -> Thresholds {
        self.config.thresholds
    }

    /// Rules whose antecedent contains **all** of `items`. `items` need
    /// not be sorted. An empty slice returns every rule.
    pub fn rules_with_antecedent(&self, items: &[Item]) -> Vec<&AssociationRule> {
        let all = self.rules.rules();
        let Some((&probe, rest)) = items.split_first() else {
            return all.iter().collect();
        };
        // Probe the smallest bucket, then verify the full containment.
        let mut bucket_item = probe;
        let mut bucket_len = self.bucket_len(probe);
        for &item in rest {
            let len = self.bucket_len(item);
            if len < bucket_len {
                bucket_item = item;
                bucket_len = len;
            }
        }
        let Some(bucket) = self.by_lhs_item.get(&bucket_item) else {
            return Vec::new();
        };
        bucket
            .iter()
            .map(|&idx| &all[idx as usize])
            .filter(|r| items.iter().all(|&i| r.lhs.contains(i)))
            .collect()
    }

    fn bucket_len(&self, item: Item) -> usize {
        self.by_lhs_item.get(&item).map_or(0, Vec::len)
    }

    /// Missing-annotation recommendations for an explicit item set (§5,
    /// served entirely from the snapshot): every rule whose antecedent is
    /// contained in `present` and whose consequent is absent fires; per
    /// consequent the highest-confidence rule wins; results are ordered by
    /// descending confidence, then support. `present` need not be sorted.
    pub fn recommend_for_items(&self, present: &[Item], k: usize) -> Vec<(Item, &AssociationRule)> {
        let mut sorted: Vec<Item> = present.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        let all = self.rules.rules();
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut best: FxHashMap<Item, &AssociationRule> = FxHashMap::default();
        for &item in &sorted {
            let Some(bucket) = self.by_lhs_item.get(&item) else {
                continue;
            };
            for &idx in bucket {
                if !seen.insert(idx) {
                    continue;
                }
                let rule = &all[idx as usize];
                if sorted.binary_search(&rule.rhs).is_ok() || !rule.lhs.is_subset_of(&sorted) {
                    continue;
                }
                let replace = best.get(&rule.rhs).is_none_or(|cur| {
                    (rule.confidence(), rule.support()) > (cur.confidence(), cur.support())
                });
                if replace {
                    best.insert(rule.rhs, rule);
                }
            }
        }
        let mut out: Vec<(Item, &AssociationRule)> = best.into_iter().collect();
        out.sort_by(|(ann_a, a), (ann_b, b)| {
            b.confidence()
                .total_cmp(&a.confidence())
                .then(b.support().total_cmp(&a.support()))
                .then(ann_a.cmp(ann_b))
        });
        out.truncate(k);
        out
    }

    /// Missing-annotation recommendations for a live tuple, served from
    /// the snapshot's frozen relation. `None` if the tuple is dead or out
    /// of range *in this snapshot*.
    pub fn recommend_for_tuple(
        &self,
        tid: TupleId,
        k: usize,
    ) -> Option<Vec<(Item, &AssociationRule)>> {
        let tuple = self.relation.tuple(tid)?;
        Some(self.recommend_for_items(tuple.items(), k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_mine::IncrementalConfig;
    use anno_store::parse_dataset;

    fn snapshot() -> RuleSnapshot {
        let rel = parse_dataset(
            "db",
            "28 85 Annot_1\n28 85 Annot_1\n28 85 Annot_1\n28 85\n17 99\n",
        )
        .unwrap();
        let miner = IncrementalMiner::mine_initial(
            &rel,
            IncrementalConfig {
                thresholds: Thresholds::new(0.4, 0.7),
                ..Default::default()
            },
        );
        RuleSnapshot::build("db", 1, &rel, &miner)
    }

    #[test]
    fn build_shares_storage_with_the_live_relation() {
        let rel = parse_dataset("db", "28 85 Annot_1\n17 99\n").unwrap();
        let miner = IncrementalMiner::mine_initial(&rel, IncrementalConfig::default());
        let snap = RuleSnapshot::build("db", 1, &rel, &miner);
        assert_eq!(
            snap.relation().shared_segments_with(&rel),
            rel.segments().len(),
            "publish must not deep-copy the tuple store"
        );
    }

    #[test]
    fn antecedent_filter_probes_the_index() {
        let snap = snapshot();
        assert_eq!(snap.rules().len(), 3);
        let v28 = snap
            .relation()
            .vocab()
            .get(anno_store::ItemKind::Data, "28")
            .unwrap();
        let v85 = snap
            .relation()
            .vocab()
            .get(anno_store::ItemKind::Data, "85")
            .unwrap();
        assert_eq!(snap.rules_with_antecedent(&[]).len(), 3);
        assert_eq!(snap.rules_with_antecedent(&[v28]).len(), 2); // {28}⇒A, {28,85}⇒A
        assert_eq!(snap.rules_with_antecedent(&[v28, v85]).len(), 1);
        let bogus = Item::data(9_999);
        assert!(snap.rules_with_antecedent(&[bogus]).is_empty());
    }

    #[test]
    fn recommendations_come_from_snapshot_only() {
        let snap = snapshot();
        // Tuple 3 = {28, 85} without the annotation: all three rules fire,
        // deduped to one recommendation for Annot_1.
        let recs = snap.recommend_for_tuple(TupleId(3), 5).unwrap();
        assert_eq!(recs.len(), 1);
        let ann = snap
            .relation()
            .vocab()
            .get(anno_store::ItemKind::Annotation, "Annot_1")
            .unwrap();
        assert_eq!(recs[0].0, ann);
        // The winning rule is the most confident one: {28,85} ⇒ A at 3/4.
        assert!(recs[0].1.confidence() >= 0.74);
        // Fully annotated tuple: nothing to recommend.
        assert!(snap.recommend_for_tuple(TupleId(0), 5).unwrap().is_empty());
        // k = 0 truncates everything.
        assert!(snap.recommend_for_tuple(TupleId(3), 0).unwrap().is_empty());
        // Out-of-range tuple.
        assert!(snap.recommend_for_tuple(TupleId(99), 5).is_none());
    }
}
