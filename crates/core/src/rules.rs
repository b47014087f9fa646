//! Association rules over annotated databases (paper Definitions 4.2/4.3).
//!
//! A rule `LHS ⇒ a` keeps its raw integer counts (`union_count` =
//! occurrences of `LHS ∪ {a}`, `lhs_count` = occurrences of `LHS`,
//! `db_size` = transactions), from which support and confidence are derived
//! on demand. Counts are what incremental maintenance updates (Fig. 12's
//! "numerator"/"de-numerator" bookkeeping), and they make the direction-of-
//! change semantics of Fig. 11 mechanically checkable.
//!
//! Rules are *derived data*: [`derive_rules`] reconstructs the exact rule
//! set from a [`FrequentItemsets`] table, so maintaining the table
//! incrementally maintains the rules.

use anno_store::{Item, Vocabulary};

use crate::frequent::{support_count_threshold, FrequentItemsets};
use crate::itemset::ItemSet;

/// Minimum support (α) and minimum confidence (β), both fractions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Minimum support α.
    pub min_support: f64,
    /// Minimum confidence β.
    pub min_confidence: f64,
}

impl Thresholds {
    /// Construct, validating both fractions.
    pub fn new(min_support: f64, min_confidence: f64) -> Thresholds {
        assert!((0.0..=1.0).contains(&min_support), "support out of range");
        assert!(
            (0.0..=1.0).contains(&min_confidence),
            "confidence out of range"
        );
        Thresholds {
            min_support,
            min_confidence,
        }
    }

    /// The paper's running configuration: α = 0.4, β = 0.8 (§4.3 Results).
    pub fn paper() -> Thresholds {
        Thresholds::new(0.4, 0.8)
    }

    /// Scale both thresholds by `retention` (for the near-threshold
    /// candidate store of §4.3: "rules slightly below the minimum support
    /// and confidence requirements").
    pub fn scaled(&self, retention: f64) -> Thresholds {
        assert!((0.0..=1.0).contains(&retention));
        Thresholds {
            min_support: self.min_support * retention,
            min_confidence: self.min_confidence * retention,
        }
    }
}

/// The paper's two target rule shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// `x1 x2 … xk ⇒ a` — data values imply an annotation (Def. 4.2).
    DataToAnnotation,
    /// `a1 a2 … ak ⇒ a` — annotations imply an annotation (Def. 4.3).
    AnnotationToAnnotation,
}

/// An association rule with exact counts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AssociationRule {
    /// The antecedent itemset (pure data or pure annotations).
    pub lhs: ItemSet,
    /// The consequent: always a single annotation-like item.
    pub rhs: Item,
    /// Occurrences of `LHS ∪ {rhs}` (the support numerator and confidence
    /// numerator).
    pub union_count: u64,
    /// Occurrences of `LHS` (the confidence denominator).
    pub lhs_count: u64,
    /// Occurrences of the consequent annotation alone (for the
    /// interestingness measures: lift, leverage, conviction).
    pub rhs_count: u64,
    /// Number of transactions (the support denominator).
    pub db_size: u64,
}

impl AssociationRule {
    /// `support = |LHS ∪ {a}| / |D|`.
    pub fn support(&self) -> f64 {
        self.union_count as f64 / self.db_size.max(1) as f64
    }

    /// `confidence = |LHS ∪ {a}| / |LHS|`.
    pub fn confidence(&self) -> f64 {
        self.union_count as f64 / self.lhs_count.max(1) as f64
    }

    /// Support of the consequent alone, `|{a}| / |D|`.
    pub fn rhs_support(&self) -> f64 {
        self.rhs_count as f64 / self.db_size.max(1) as f64
    }

    /// Lift: `confidence / support(rhs)` — how much more likely the
    /// annotation is given the antecedent than at random. 1.0 means
    /// independent; > 1 positively correlated.
    pub fn lift(&self) -> f64 {
        let rhs = self.rhs_support();
        if rhs == 0.0 {
            f64::INFINITY
        } else {
            self.confidence() / rhs
        }
    }

    /// Leverage: `support(LHS ∪ {a}) − support(LHS)·support(a)` — the
    /// absolute co-occurrence surplus over independence.
    pub fn leverage(&self) -> f64 {
        let n = self.db_size.max(1) as f64;
        self.union_count as f64 / n - (self.lhs_count as f64 / n) * (self.rhs_count as f64 / n)
    }

    /// Conviction: `(1 − support(a)) / (1 − confidence)` — the degree to
    /// which the rule would be wrong by chance relative to how often it is
    /// actually wrong. ∞ for exact rules.
    pub fn conviction(&self) -> f64 {
        let denom = 1.0 - self.confidence();
        if denom <= 0.0 {
            f64::INFINITY
        } else {
            (1.0 - self.rhs_support()) / denom
        }
    }

    /// Which of the paper's shapes this rule has.
    pub fn kind(&self) -> RuleKind {
        debug_assert!(self.rhs.is_annotation_like());
        if self.lhs.annotation_count() == 0 {
            RuleKind::DataToAnnotation
        } else {
            RuleKind::AnnotationToAnnotation
        }
    }

    /// The full itemset `LHS ∪ {rhs}`.
    pub fn union_itemset(&self) -> ItemSet {
        self.lhs.with(self.rhs)
    }

    /// Does the rule meet `thresholds`?
    pub fn meets(&self, thresholds: &Thresholds) -> bool {
        self.union_count >= support_count_threshold(thresholds.min_support, self.db_size)
            && self.confidence() >= thresholds.min_confidence - 1e-12
    }

    /// Render in the paper's Fig. 7 output format:
    /// `28, 85 -> Annot_1 (conf=0.9659, sup=0.4194)`.
    pub fn render(&self, vocab: &Vocabulary) -> String {
        format!(
            "{} -> {} (conf={:.4}, sup={:.4})",
            vocab.render(self.lhs.items()),
            vocab.name(self.rhs),
            self.confidence(),
            self.support()
        )
    }
}

/// An ordered collection of rules with canonical form for comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<AssociationRule>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Build from rules, normalising order (by LHS then RHS).
    pub fn from_rules(mut rules: Vec<AssociationRule>) -> RuleSet {
        rules.sort_unstable_by(|a, b| (&a.lhs, a.rhs).cmp(&(&b.lhs, b.rhs)));
        rules.dedup_by(|a, b| a.lhs == b.lhs && a.rhs == b.rhs);
        RuleSet { rules }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` iff empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, ordered by LHS then RHS.
    pub fn rules(&self) -> &[AssociationRule] {
        &self.rules
    }

    /// Iterate rules of one kind.
    pub fn of_kind(&self, kind: RuleKind) -> impl Iterator<Item = &AssociationRule> + '_ {
        self.rules.iter().filter(move |r| r.kind() == kind)
    }

    /// Look up the rule with exactly this LHS and RHS.
    pub fn get(&self, lhs: &ItemSet, rhs: Item) -> Option<&AssociationRule> {
        self.rules
            .binary_search_by(|r| (&r.lhs, r.rhs).cmp(&(lhs, rhs)))
            .ok()
            .map(|i| &self.rules[i])
    }

    /// The `(LHS, RHS)` identities, for set comparison in tests.
    pub fn identities(&self) -> Vec<(ItemSet, Item)> {
        self.rules.iter().map(|r| (r.lhs.clone(), r.rhs)).collect()
    }

    /// Structural equality including counts — the paper's verification
    /// criterion ("the association rules resulting from both processes were
    /// identical").
    pub fn identical_to(&self, other: &RuleSet) -> bool {
        self.rules.len() == other.rules.len()
            && self.rules.iter().zip(&other.rules).all(|(a, b)| {
                a.lhs == b.lhs
                    && a.rhs == b.rhs
                    && a.union_count == b.union_count
                    && a.lhs_count == b.lhs_count
                    && a.rhs_count == b.rhs_count
                    && a.db_size == b.db_size
            })
    }

    /// Drop *redundant* rules: a rule is redundant if another rule with the
    /// same consequent and a strict subset of its antecedent has confidence
    /// at least as high (the specialisation adds no predictive power).
    ///
    /// The paper's own Fig. 7 output shows the phenomenon — `28 ⇒ Annot_1`,
    /// `85 ⇒ Annot_1`, and `28, 85 ⇒ Annot_1` all at the same confidence;
    /// only the minimal antecedents inform a curator.
    pub fn without_redundant(&self) -> RuleSet {
        let kept: Vec<AssociationRule> = self
            .rules
            .iter()
            .filter(|rule| {
                !self.rules.iter().any(|other| {
                    other.rhs == rule.rhs
                        && other.lhs.len() < rule.lhs.len()
                        && other.lhs.items().iter().all(|i| rule.lhs.contains(*i))
                        && other.confidence() >= rule.confidence() - 1e-12
                })
            })
            .cloned()
            .collect();
        RuleSet::from_rules(kept)
    }

    /// Render every rule in Fig. 7 format, one per line, sorted by
    /// descending confidence then support (ties by identity order).
    pub fn render(&self, vocab: &Vocabulary) -> String {
        let mut order: Vec<&AssociationRule> = self.rules.iter().collect();
        order.sort_by(|a, b| {
            b.confidence()
                .total_cmp(&a.confidence())
                .then(b.support().total_cmp(&a.support()))
                .then_with(|| (&a.lhs, a.rhs).cmp(&(&b.lhs, b.rhs)))
        });
        let mut out = String::new();
        for r in order {
            out.push_str(&r.render(vocab));
            out.push('\n');
        }
        out
    }
}

/// Derive every rule meeting `thresholds` from an exact itemset table.
///
/// For each stored itemset `S` with support ≥ α:
/// * pure-annotation `S` (|S| ≥ 2) yields, per member `b`, the rule
///   `S∖{b} ⇒ b` (Def. 4.3);
/// * `S` with exactly one annotation `b` and ≥ 1 data value yields
///   `S∖{b} ⇒ b` (Def. 4.2);
/// * all other shapes yield nothing (no annotation on the R.H.S.).
///
/// The LHS count is read from the table; levelwise mining guarantees it is
/// present for any frequent `S` (downward closure).
pub fn derive_rules(table: &FrequentItemsets, thresholds: &Thresholds) -> RuleSet {
    let (valid, _) = derive_rules_partitioned(table, thresholds, thresholds);
    valid
}

/// Derive rules at `loose` thresholds and partition them into those meeting
/// `strict` (the valid set) and the rest (the retained candidate set).
pub fn derive_rules_partitioned(
    table: &FrequentItemsets,
    strict: &Thresholds,
    loose: &Thresholds,
) -> (RuleSet, RuleSet) {
    let db_size = table.db_size();
    let loose_min_count = support_count_threshold(loose.min_support, db_size);
    let mut valid = Vec::new();
    let mut near = Vec::new();
    for (s, union_count) in table.iter() {
        if union_count < loose_min_count || s.len() < 2 {
            continue;
        }
        let ann_count = s.annotation_count();
        let data_count = s.data_count();
        let rhs_choices: &[Item] = if data_count == 0 && ann_count >= 2 {
            s.items() // annotation-to-annotation: any member can be RHS
        } else if data_count >= 1 && ann_count == 1 {
            &s.items()[data_count..] // the single annotation is the RHS
        } else {
            continue;
        };
        for &rhs in rhs_choices {
            let lhs = s.without(rhs);
            let rhs_count = table.count(&ItemSet::single(rhs)).unwrap_or(0);
            let Some(lhs_count) = table.count(&lhs) else {
                // LHS below the table's retention level: the rule's
                // confidence would be below the loose threshold anyway
                // (lhs_count ≥ union_count ≥ loose support count), so this
                // only happens for non-closed tables; skip defensively.
                continue;
            };
            let rule = AssociationRule {
                lhs,
                rhs,
                union_count,
                lhs_count,
                rhs_count,
                db_size,
            };
            if rule.confidence() < loose.min_confidence - 1e-12 {
                continue;
            }
            if rule.meets(strict) {
                valid.push(rule);
            } else {
                near.push(rule);
            }
        }
    }
    (RuleSet::from_rules(valid), RuleSet::from_rules(near))
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
    fn set(items: &[Item]) -> ItemSet {
        ItemSet::from_unsorted(items.to_vec())
    }

    fn demo_table() -> FrequentItemsets {
        // 10 transactions; {1,2}: 6, {1,2,A}: 5, A: 6, B: 5, {A,B}: 4.
        let mut t = FrequentItemsets::new(10);
        t.insert(set(&[d(1), d(2)]), 6);
        t.insert(set(&[d(1)]), 7);
        t.insert(set(&[d(2)]), 6);
        t.insert(set(&[d(1), d(2), a(1)]), 5);
        t.insert(set(&[d(1), a(1)]), 5);
        t.insert(set(&[d(2), a(1)]), 5);
        t.insert(set(&[a(1)]), 6);
        t.insert(set(&[a(2)]), 5);
        t.insert(set(&[a(1), a(2)]), 4);
        t
    }

    #[test]
    fn derives_both_rule_shapes() {
        let rules = derive_rules(&demo_table(), &Thresholds::new(0.4, 0.8));
        // {1,2} ⇒ A: sup 0.5, conf 5/6 ≈ 0.83 ✓
        let d2a = rules.get(&set(&[d(1), d(2)]), a(1)).expect("d2a rule");
        assert_eq!(d2a.kind(), RuleKind::DataToAnnotation);
        assert!((d2a.confidence() - 5.0 / 6.0).abs() < 1e-12);
        assert!((d2a.support() - 0.5).abs() < 1e-12);
        // {B} ⇒ A: sup 0.4, conf 4/5 = 0.8 ✓ ; {A} ⇒ B: conf 4/6 ✗.
        let a2a = rules.get(&set(&[a(2)]), a(1)).expect("a2a rule");
        assert_eq!(a2a.kind(), RuleKind::AnnotationToAnnotation);
        assert!(rules.get(&set(&[a(1)]), a(2)).is_none());
        // {1} ⇒ A: conf 5/7 < 0.8 ✗ ; {2} ⇒ A: conf 5/6 ✓.
        assert!(rules.get(&set(&[d(1)]), a(1)).is_none());
        assert!(rules.get(&set(&[d(2)]), a(1)).is_some());
    }

    #[test]
    fn pure_data_itemsets_never_become_rules() {
        let rules = derive_rules(&demo_table(), &Thresholds::new(0.1, 0.0));
        assert!(rules.rules().iter().all(|r| r.rhs.is_annotation_like()));
    }

    #[test]
    fn partition_splits_valid_from_near_threshold() {
        let strict = Thresholds::new(0.4, 0.8);
        let loose = strict.scaled(0.5);
        let (valid, near) = derive_rules_partitioned(&demo_table(), &strict, &loose);
        assert!(!valid.is_empty());
        // {A} ⇒ B has conf 4/6 ≈ 0.67: below 0.8, above 0.4 ⇒ near.
        assert!(near.get(&set(&[a(1)]), a(2)).is_some());
        // Nothing in `near` meets strict.
        assert!(near.rules().iter().all(|r| !r.meets(&strict)));
        assert!(valid.rules().iter().all(|r| r.meets(&strict)));
    }

    #[test]
    fn identical_to_compares_counts_not_just_identity() {
        let rules = derive_rules(&demo_table(), &Thresholds::paper());
        let mut tweaked_table = demo_table();
        tweaked_table.add_count(&set(&[d(1), d(2), a(1)]), 1);
        let tweaked = derive_rules(&tweaked_table, &Thresholds::paper());
        assert!(!rules.identical_to(&tweaked));
        assert!(rules.identical_to(&rules.clone()));
    }

    #[test]
    fn render_matches_fig7_shape() {
        let mut vocab = Vocabulary::new();
        let x28 = vocab.data("28");
        let x85 = vocab.data("85");
        let annot1 = vocab.annotation("Annot_1");
        let rule = AssociationRule {
            lhs: set(&[x28, x85]),
            rhs: annot1,
            union_count: 4194,
            lhs_count: 4342,
            rhs_count: 5000,
            db_size: 10000,
        };
        assert_eq!(
            rule.render(&vocab),
            "28, 85 -> Annot_1 (conf=0.9659, sup=0.4194)"
        );
    }

    #[test]
    fn ruleset_ordering_and_lookup() {
        let rules = derive_rules(&demo_table(), &Thresholds::new(0.3, 0.5));
        for w in rules.rules().windows(2) {
            assert!((&w[0].lhs, w[0].rhs) < (&w[1].lhs, w[1].rhs));
        }
        for r in rules.rules() {
            assert_eq!(rules.get(&r.lhs, r.rhs).unwrap(), r);
        }
    }

    #[test]
    fn interestingness_measures_match_hand_computation() {
        // 10 transactions: union 4, lhs 5, rhs 6.
        let rule = AssociationRule {
            lhs: set(&[d(1)]),
            rhs: a(1),
            union_count: 4,
            lhs_count: 5,
            rhs_count: 6,
            db_size: 10,
        };
        assert!((rule.confidence() - 0.8).abs() < 1e-12);
        assert!((rule.rhs_support() - 0.6).abs() < 1e-12);
        assert!((rule.lift() - 0.8 / 0.6).abs() < 1e-12);
        assert!((rule.leverage() - (0.4 - 0.5 * 0.6)).abs() < 1e-12);
        assert!((rule.conviction() - (1.0 - 0.6) / (1.0 - 0.8)).abs() < 1e-9);
    }

    #[test]
    fn exact_rules_have_infinite_conviction() {
        let rule = AssociationRule {
            lhs: set(&[d(1)]),
            rhs: a(1),
            union_count: 5,
            lhs_count: 5,
            rhs_count: 5,
            db_size: 10,
        };
        assert!(rule.conviction().is_infinite());
        assert!((rule.lift() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn derived_rules_carry_rhs_counts() {
        let rules = derive_rules(&demo_table(), &Thresholds::new(0.4, 0.8));
        let r = rules.get(&set(&[d(1), d(2)]), a(1)).unwrap();
        assert_eq!(r.rhs_count, 6); // count({A}) in demo_table
        assert!(r.lift() > 1.0, "planted correlation must lift above 1");
    }

    #[test]
    fn redundant_specialisations_are_pruned() {
        // {1} ⇒ A at conf 0.9; {1,2} ⇒ A at conf 0.9 (redundant);
        // {1,3} ⇒ A at conf 1.0 (kept: strictly better than its subset).
        let mk = |lhs: &[Item], union: u64, lhs_count: u64| AssociationRule {
            lhs: set(lhs),
            rhs: a(1),
            union_count: union,
            lhs_count,
            rhs_count: 12,
            db_size: 20,
        };
        let rules = RuleSet::from_rules(vec![
            mk(&[d(1)], 9, 10),
            mk(&[d(1), d(2)], 9, 10),
            mk(&[d(1), d(3)], 5, 5),
        ]);
        let pruned = rules.without_redundant();
        assert_eq!(pruned.len(), 2);
        assert!(pruned.get(&set(&[d(1)]), a(1)).is_some());
        assert!(pruned.get(&set(&[d(1), d(2)]), a(1)).is_none());
        assert!(pruned.get(&set(&[d(1), d(3)]), a(1)).is_some());
    }

    #[test]
    fn pruning_is_idempotent_and_preserves_distinct_consequents() {
        let rules = derive_rules(&demo_table(), &Thresholds::new(0.3, 0.5));
        let once = rules.without_redundant();
        let twice = once.without_redundant();
        assert!(once.identical_to(&twice));
        // Every surviving rule is minimal for its consequent.
        for rule in once.rules() {
            for other in once.rules() {
                if other.rhs == rule.rhs && other.lhs.len() < rule.lhs.len() {
                    let subset = other.lhs.items().iter().all(|i| rule.lhs.contains(*i));
                    assert!(!(subset && other.confidence() >= rule.confidence()));
                }
            }
        }
    }

    #[test]
    fn thresholds_validation_and_scaling() {
        let t = Thresholds::paper();
        assert_eq!(t.min_support, 0.4);
        let s = t.scaled(0.5);
        assert!((s.min_support - 0.2).abs() < 1e-12);
        assert!((s.min_confidence - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_threshold_rejected() {
        let _ = Thresholds::new(1.5, 0.5);
    }
}
