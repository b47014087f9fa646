//! Structured read-path queries over a [`RuleSnapshot`].
//!
//! The protocol layer parses commands into these types; library users can
//! build them directly. Everything here borrows from a snapshot the caller
//! already holds and asks its [`RuleIndex`](anno_mine::RuleIndex), so
//! queries are pure functions — no locks, no I/O.

use anno_mine::{AssociationRule, RuleKind};
use anno_store::Item;

use crate::snapshot::RuleSnapshot;

/// Sort orders for rule listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuleOrder {
    /// Descending confidence (ties: support). The default.
    #[default]
    Confidence,
    /// Descending support (ties: confidence).
    Support,
    /// Descending lift.
    Lift,
}

impl RuleOrder {
    fn key(self, rule: &AssociationRule) -> (f64, f64) {
        match self {
            RuleOrder::Confidence => (rule.confidence(), rule.support()),
            RuleOrder::Support => (rule.support(), rule.confidence()),
            RuleOrder::Lift => (rule.lift(), rule.confidence()),
        }
    }
}

/// A rule-listing query: conjunctive filters plus ordering/limit.
#[derive(Debug, Clone, Default)]
pub struct RuleFilter {
    /// Keep rules whose antecedent contains **all** of these items.
    pub antecedent: Vec<Item>,
    /// Keep rules of this shape only.
    pub kind: Option<RuleKind>,
    /// Keep rules at or above this confidence.
    pub min_confidence: Option<f64>,
    /// Sort order for the listing.
    pub order: RuleOrder,
    /// Keep only the first `top` rules after sorting.
    pub top: Option<usize>,
}

impl RuleFilter {
    /// Run the filter against a snapshot.
    pub fn apply<'s>(&self, snapshot: &'s RuleSnapshot) -> Vec<&'s AssociationRule> {
        let mut out: Vec<&AssociationRule> = snapshot
            .index()
            .rules_with_antecedent(&self.antecedent)
            .into_iter()
            .filter(|r| self.kind.is_none_or(|k| r.kind() == k))
            .filter(|r| self.min_confidence.is_none_or(|c| r.confidence() >= c))
            .collect();
        out.sort_by(|a, b| {
            let (ka, kb) = (self.order.key(a), self.order.key(b));
            kb.0.total_cmp(&ka.0)
                .then(kb.1.total_cmp(&ka.1))
                .then_with(|| (a.lhs.items(), a.rhs).cmp(&(b.lhs.items(), b.rhs)))
        });
        if let Some(top) = self.top {
            out.truncate(top);
        }
        out
    }
}

/// One scored recommendation, self-contained for rendering/serialising.
#[derive(Debug, Clone, PartialEq)]
pub struct TopRecommendation {
    /// The recommended (missing) annotation.
    pub annotation: Item,
    /// Its display name.
    pub name: String,
    /// Confidence of the winning supporting rule.
    pub confidence: f64,
    /// Support of the winning supporting rule.
    pub support: f64,
    /// The winning rule, rendered for the curator (per paper Fig. 17 the
    /// justification ships with the recommendation).
    pub rule: String,
}

/// Top-k recommendations for an explicit item set, fully rendered.
pub fn top_k_for_items(
    snapshot: &RuleSnapshot,
    present: &[Item],
    k: usize,
) -> Vec<TopRecommendation> {
    render(snapshot, snapshot.index().recommend(present, k))
}

/// Top-k recommendations for a live tuple; `None` if the tuple is dead in
/// this snapshot.
pub fn top_k_for_tuple(
    snapshot: &RuleSnapshot,
    tid: anno_store::TupleId,
    k: usize,
) -> Option<Vec<TopRecommendation>> {
    let tuple = snapshot.relation().tuple(tid)?;
    Some(render(
        snapshot,
        snapshot.index().recommend(tuple.items(), k),
    ))
}

fn render(snapshot: &RuleSnapshot, picks: Vec<(Item, &AssociationRule)>) -> Vec<TopRecommendation> {
    let vocab = snapshot.relation().vocab();
    picks
        .into_iter()
        .map(|(annotation, rule)| TopRecommendation {
            annotation,
            name: vocab.name(annotation).to_string(),
            confidence: rule.confidence(),
            support: rule.support(),
            rule: rule.render(vocab),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_mine::{IncrementalConfig, IncrementalMiner, Thresholds};
    use anno_store::parse_dataset;

    fn snap() -> RuleSnapshot {
        let rel = parse_dataset(
            "db",
            "28 85 Annot_1\n28 85 Annot_1\n28 85 Annot_1\n28 85\n17 99 Annot_2\n17 99 Annot_2\n",
        )
        .unwrap();
        let miner = IncrementalMiner::mine_initial(
            &rel,
            IncrementalConfig {
                thresholds: Thresholds::new(0.3, 0.7),
                ..Default::default()
            },
        );
        RuleSnapshot::build("db", 1, &rel, &miner)
    }

    #[test]
    fn filter_combines_antecedent_kind_confidence_and_top() {
        let snap = snap();
        let all = RuleFilter::default().apply(&snap);
        assert!(all.len() >= 6, "got {}", all.len());
        // Confidence ordering is non-increasing.
        assert!(all
            .windows(2)
            .all(|w| w[0].confidence() >= w[1].confidence()));

        let v17 = snap
            .relation()
            .vocab()
            .get(anno_store::ItemKind::Data, "17")
            .unwrap();
        let only_17 = RuleFilter {
            antecedent: vec![v17],
            ..Default::default()
        };
        let hits = only_17.apply(&snap);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|r| r.lhs.contains(v17)));

        let d2a = RuleFilter {
            kind: Some(RuleKind::DataToAnnotation),
            min_confidence: Some(0.99),
            top: Some(2),
            ..Default::default()
        };
        let strict = d2a.apply(&snap);
        assert!(strict.len() <= 2);
        assert!(strict.iter().all(|r| r.confidence() >= 0.99));
    }

    #[test]
    fn rendered_recommendations_carry_their_rule() {
        let snap = snap();
        let recs = top_k_for_tuple(&snap, anno_store::TupleId(3), 3).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].name, "Annot_1");
        assert!(recs[0].rule.contains("conf="), "{}", recs[0].rule);
    }
}
