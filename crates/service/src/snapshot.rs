//! Immutable published state: what every read-path query runs against.
//!
//! A [`RuleSnapshot`] is built by the writer after each drained batch and
//! swapped in atomically behind an `Arc`. Readers clone the `Arc` and keep
//! querying their copy for as long as they like — a long-running scan is
//! never invalidated and never blocks (or is blocked by) the writer. The
//! rules ride in a [`RuleIndex`], bucketed by antecedent item, which the
//! queries in [`crate::query`] read. The relation rides along as a
//! *persistent clone*: `AnnotatedRelation` is a segment store, so
//! [`RuleSnapshot::build`] freezes the database with O(#segments) pointer
//! copies, the snapshot physically shares every segment with the live
//! relation at publish time, and later writes copy-on-write only the
//! segments they touch. Publishing costs delta-scale work, never O(|D|).

use anno_mine::{
    IncrementalConfig, IncrementalMiner, MaintenanceStats, RuleIndex, RuleSet, Thresholds,
};
use anno_store::AnnotatedRelation;

/// One published, immutable view of a dataset's rules and data.
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    dataset: String,
    epoch: u64,
    relation: AnnotatedRelation,
    relation_epoch: u64,
    index: RuleIndex,
    candidate_count: usize,
    stats: MaintenanceStats,
    config: IncrementalConfig,
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
        RuleSnapshot {
            dataset: dataset.to_string(),
            epoch,
            relation: relation.clone(),
            relation_epoch: relation.epoch(),
            index: RuleIndex::new(miner.rules().clone()),
            candidate_count: miner.candidate_rules().len(),
            stats: miner.stats(),
            config: miner.config(),
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
        self.index.rules()
    }

    /// The valid rules bucketed by antecedent item (§5 lookups).
    pub fn index(&self) -> &RuleIndex {
        &self.index
    }

    /// How many near-threshold candidate rules the miner retained.
    pub fn candidate_count(&self) -> usize {
        self.candidate_count
    }

    /// Maintenance counters at publish time.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats
    }

    /// The full mining configuration the publishing miner ran with
    /// (thresholds, retention) — the parameters a client needs to
    /// interpret [`RuleSnapshot::candidate_count`].
    pub fn config(&self) -> IncrementalConfig {
        self.config
    }

    /// The mining thresholds (α, β).
    pub fn thresholds(&self) -> Thresholds {
        self.config.thresholds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::top_k_for_tuple;
    use anno_store::{parse_dataset, Item, TupleId};

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
        let index = snap.index();
        assert_eq!(index.rules_with_antecedent(&[]).len(), 3);
        assert_eq!(index.rules_with_antecedent(&[v28]).len(), 2); // {28}⇒A, {28,85}⇒A
        assert_eq!(index.rules_with_antecedent(&[v28, v85]).len(), 1);
        let bogus = Item::data(9_999);
        assert!(index.rules_with_antecedent(&[bogus]).is_empty());
    }

    #[test]
    fn recommendations_come_from_snapshot_only() {
        let snap = snapshot();
        // Tuple 3 = {28, 85} without the annotation: all three rules fire,
        // deduped to one recommendation for Annot_1.
        let recs = top_k_for_tuple(&snap, TupleId(3), 5).unwrap();
        assert_eq!(recs.len(), 1);
        let ann = snap
            .relation()
            .vocab()
            .get(anno_store::ItemKind::Annotation, "Annot_1")
            .unwrap();
        assert_eq!(recs[0].annotation, ann);
        // The winning rule is the most confident one: {28,85} ⇒ A at 3/4.
        assert!(recs[0].confidence >= 0.74);
        // Fully annotated tuple: nothing to recommend.
        assert!(top_k_for_tuple(&snap, TupleId(0), 5).unwrap().is_empty());
        // k = 0 truncates everything.
        assert!(top_k_for_tuple(&snap, TupleId(3), 0).unwrap().is_empty());
        // Out-of-range tuple.
        assert!(top_k_for_tuple(&snap, TupleId(99), 5).is_none());
    }
}
