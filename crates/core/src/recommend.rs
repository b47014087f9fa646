//! Exploitation of correlations (paper §5, Fig. 17).
//!
//! Both of the paper's curation aids run through one [`RuleIndex`]: the
//! discovered rules bucketed by antecedent item, so a tuple probes only the
//! rules that hold one of its items.
//!
//! 1. **Missing-annotation discovery** — [`recommend_missing`] scans the
//!    database; wherever a rule's LHS pattern is present in a tuple but its
//!    RHS annotation is not, the RHS is recommended for that tuple,
//!    together with the supporting rule and its support/confidence (the
//!    paper insists recommendations stay recommendations: "it is up to the
//!    curators to make the final decision").
//! 2. **New-tuple prediction** — the insert trigger: the same lookup over
//!    the tuples an insert returned, [`recommend_for_tuples`]. The serving
//!    layer answers its `recommend` verb from the same index.
//!
//! [`score_recommendations`] evaluates prediction quality against hidden
//! ground truth (precision / recall / F1), which EXPERIMENTS.md reports as
//! experiment E7.

use anno_store::fxhash::{FxHashMap, FxHashSet};
use anno_store::{AnnotatedRelation, AnnotationUpdate, Item, TupleId, Vocabulary};

use crate::rules::{AssociationRule, RuleSet};

/// A recommendation: attach `annotation` to `tuple`, justified by `rule`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The tuple the annotation is predicted for.
    pub tuple: TupleId,
    /// The predicted annotation (the supporting rule's RHS).
    pub annotation: Item,
    /// The rule justifying the prediction (shown to the curator with its
    /// support and confidence, per Fig. 17).
    pub rule: AssociationRule,
}

impl Recommendation {
    /// Render for a curator: tuple, annotation, and the supporting rule.
    pub fn render(&self, vocab: &Vocabulary) -> String {
        format!(
            "{}: add {} [{}]",
            self.tuple,
            vocab.name(self.annotation),
            self.rule.render(vocab)
        )
    }
}

/// A rule set bucketed by antecedent item: a rule can only fire for an
/// item set that holds one of its antecedent items, so lookups probe only
/// those buckets.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    rules: RuleSet,
    /// LHS item → indices into `rules.rules()`.
    by_lhs_item: FxHashMap<Item, Vec<u32>>,
}

impl RuleIndex {
    /// Index `rules` by antecedent item.
    pub fn new(rules: RuleSet) -> RuleIndex {
        let mut by_lhs_item: FxHashMap<Item, Vec<u32>> = FxHashMap::default();
        for (idx, rule) in (0u32..).zip(rules.rules()) {
            for &item in rule.lhs.items() {
                by_lhs_item.entry(item).or_default().push(idx);
            }
        }
        RuleIndex { rules, by_lhs_item }
    }

    /// The indexed rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    fn bucket(&self, item: Item) -> &[u32] {
        self.by_lhs_item.get(&item).map_or(&[], Vec::as_slice)
    }

    /// Rules whose antecedent contains **all** of `items`. `items` need
    /// not be sorted. An empty slice returns every rule.
    pub fn rules_with_antecedent(&self, items: &[Item]) -> Vec<&AssociationRule> {
        let all = self.rules.rules();
        // Probe the smallest bucket, then verify the full containment.
        let Some(bucket) = items
            .iter()
            .map(|&i| self.bucket(i))
            .min_by_key(|b| b.len())
        else {
            return all.iter().collect();
        };
        bucket
            .iter()
            .map(|&idx| &all[idx as usize])
            .filter(|r| items.iter().all(|&i| r.lhs.contains(i)))
            .collect()
    }

    /// Missing-annotation recommendations for the item set `present`
    /// (need not be sorted): every rule whose antecedent is contained in
    /// `present` and whose consequent is absent fires. Per consequent the
    /// rule with the largest (confidence, support) wins, the first seen on
    /// ties; the winners are ordered by descending confidence, then
    /// support, then annotation, and the first `k` returned.
    pub fn recommend(&self, present: &[Item], k: usize) -> Vec<(Item, &AssociationRule)> {
        let mut sorted: Vec<Item> = present.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        let all = self.rules.rules();
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut best: FxHashMap<Item, &AssociationRule> = FxHashMap::default();
        for &item in &sorted {
            for &idx in self.bucket(item) {
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
}

/// Recommendations for specific tuples (the insert trigger; the scanner
/// passes every tuple). Dead tuples are skipped, repeated ones answered
/// once. Ordered by descending confidence, then support, then
/// `(tuple, annotation)`.
pub fn recommend_for_tuples<'a>(
    relation: &AnnotatedRelation,
    rules: &RuleSet,
    tuples: impl IntoIterator<Item = TupleId> + 'a,
) -> Vec<Recommendation> {
    let index = RuleIndex::new(rules.clone());
    let mut tids: Vec<TupleId> = tuples.into_iter().collect();
    tids.sort_unstable();
    tids.dedup();
    let mut out = Vec::new();
    for tid in tids {
        let Some(tuple) = relation.tuple(tid) else {
            continue;
        };
        for (annotation, rule) in index.recommend(tuple.items(), usize::MAX) {
            out.push(Recommendation {
                tuple: tid,
                annotation,
                rule: rule.clone(),
            });
        }
    }
    out.sort_by(|a, b| {
        b.rule
            .confidence()
            .total_cmp(&a.rule.confidence())
            .then(b.rule.support().total_cmp(&a.rule.support()))
            .then((a.tuple, a.annotation).cmp(&(b.tuple, b.annotation)))
    });
    out
}

/// §5 Case 1: scan the whole database for missing annotations.
pub fn recommend_missing(relation: &AnnotatedRelation, rules: &RuleSet) -> Vec<Recommendation> {
    recommend_for_tuples(relation, rules, relation.iter().map(|(tid, _)| tid))
}

/// Prediction quality against hidden ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionQuality {
    /// Predictions that match a hidden annotation.
    pub true_positives: usize,
    /// Predictions that do not.
    pub false_positives: usize,
    /// Hidden annotations that were not predicted.
    pub false_negatives: usize,
}

impl PredictionQuality {
    /// `tp / (tp + fp)`; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// `tp / (tp + fn)`; 1.0 when nothing was hidden.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Score recommendations against the hidden annotations they should
/// recover (experiment E7).
pub fn score_recommendations(
    recommendations: &[Recommendation],
    hidden: &[AnnotationUpdate],
) -> PredictionQuality {
    let truth: std::collections::BTreeSet<(TupleId, Item)> =
        hidden.iter().map(|u| (u.tuple, u.annotation)).collect();
    let predicted: std::collections::BTreeSet<(TupleId, Item)> = recommendations
        .iter()
        .map(|r| (r.tuple, r.annotation))
        .collect();
    let true_positives = predicted.intersection(&truth).count();
    PredictionQuality {
        true_positives,
        false_positives: predicted.len() - true_positives,
        false_negatives: truth.len() - true_positives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::mine_rules;
    use crate::rules::Thresholds;
    use anno_store::Tuple;

    /// 9 of 10 {x,y} tuples carry A; one is missing it.
    fn setup() -> (AnnotatedRelation, RuleSet, Item, TupleId) {
        let mut rel = AnnotatedRelation::new("R");
        let x = rel.vocab_mut().data("10");
        let y = rel.vocab_mut().data("20");
        let z = rel.vocab_mut().data("30");
        let a = rel.vocab_mut().annotation("A");
        for _ in 0..9 {
            rel.insert(Tuple::new([x, y], [a]));
        }
        let gap = rel.insert(Tuple::new([x, y], []));
        for _ in 0..2 {
            rel.insert(Tuple::new([z], []));
        }
        let rules = mine_rules(&rel, &Thresholds::new(0.3, 0.8));
        (rel, rules, a, gap)
    }

    #[test]
    fn finds_the_missing_annotation() {
        let (rel, rules, a, gap) = setup();
        let recs = recommend_missing(&rel, &rules);
        assert_eq!(recs.len(), 1, "exactly the gap tuple is flagged");
        assert_eq!(recs[0].tuple, gap);
        assert_eq!(recs[0].annotation, a);
        assert!(recs[0].rule.confidence() >= 0.8);
    }

    #[test]
    fn recommendations_carry_their_supporting_rule() {
        let (rel, rules, _, _) = setup();
        let recs = recommend_missing(&rel, &rules);
        let text = recs[0].render(rel.vocab());
        assert!(text.contains("add A"), "{text}");
        assert!(text.contains("conf="), "{text}");
    }

    #[test]
    fn duplicate_predictions_keep_best_rule() {
        let (rel, rules, a, gap) = setup();
        // Scanning the gap tuple twice must not duplicate recommendations.
        let recs = recommend_for_tuples(&rel, &rules, [gap, gap]);
        let hits: Vec<_> = recs
            .iter()
            .filter(|r| r.tuple == gap && r.annotation == a)
            .collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn scoring_computes_precision_recall_f1() {
        let (rel, rules, a, gap) = setup();
        let recs = recommend_missing(&rel, &rules);
        let hidden = vec![AnnotationUpdate {
            tuple: gap,
            annotation: a,
        }];
        let q = score_recommendations(&recs, &hidden);
        assert_eq!(q.true_positives, 1);
        assert_eq!(q.false_positives, 0);
        assert_eq!(q.false_negatives, 0);
        assert_eq!(q.precision(), 1.0);
        assert_eq!(q.recall(), 1.0);
        assert_eq!(q.f1(), 1.0);
    }

    #[test]
    fn scoring_counts_misses_and_spurious_predictions() {
        let q = score_recommendations(
            &[],
            &[AnnotationUpdate {
                tuple: TupleId(0),
                annotation: Item::annotation(0),
            }],
        );
        assert_eq!(q.recall(), 0.0);
        assert_eq!(q.precision(), 1.0, "no predictions, vacuous precision");
        assert_eq!(q.f1(), 0.0);
    }

    #[test]
    fn no_rules_yields_no_recommendations() {
        let (rel, ..) = setup();
        assert!(recommend_missing(&rel, &RuleSet::new()).is_empty());
    }
}
