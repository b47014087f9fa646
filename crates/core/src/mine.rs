//! Top-level batch mining entry points (the paper's menu options 1 and 2).
//!
//! These wrap transaction projection, Apriori, and rule derivation into
//! the operations the paper's application exposes: discovering
//! data-to-annotation rules, annotation-to-annotation rules, or both,
//! optionally through a generalization taxonomy (§4.1) with multi-level
//! hierarchies.

use anno_store::{AnnotatedRelation, Taxonomy};

use crate::apriori::apriori;
use crate::frequent::FrequentItemsets;
use crate::itemset::{transactions_of, MiningMode};
use crate::rules::{derive_rules, RuleKind, RuleSet, Thresholds};

/// The result of a batch mine: the itemset table and the derived rules.
#[derive(Debug, Clone)]
pub struct MineResult {
    /// All admissible frequent itemsets with exact counts.
    pub itemsets: FrequentItemsets,
    /// The rules meeting the thresholds.
    pub rules: RuleSet,
}

/// Mine `relation` under `mode` with the paper's Apriori.
pub fn mine_with(
    relation: &AnnotatedRelation,
    thresholds: &Thresholds,
    mode: MiningMode,
) -> MineResult {
    let transactions = transactions_of(relation, mode);
    let itemsets = apriori(&transactions, thresholds.min_support, mode);
    let rules = derive_rules(&itemsets, thresholds);
    MineResult { itemsets, rules }
}

/// Discover both rule shapes with the paper's Apriori (menu options 1+2).
pub fn mine_rules(relation: &AnnotatedRelation, thresholds: &Thresholds) -> RuleSet {
    mine_with(relation, thresholds, MiningMode::Annotated).rules
}

/// Discover only data-to-annotation rules (Definition 4.2; menu option 1).
pub fn mine_data_to_annotation(relation: &AnnotatedRelation, thresholds: &Thresholds) -> RuleSet {
    let r = mine_with(relation, thresholds, MiningMode::DataToAnnotation);
    RuleSet::from_rules(
        r.rules
            .of_kind(RuleKind::DataToAnnotation)
            .cloned()
            .collect(),
    )
}

/// Discover only annotation-to-annotation rules (Definition 4.3; menu
/// option 2).
pub fn mine_annotation_to_annotation(
    relation: &AnnotatedRelation,
    thresholds: &Thresholds,
) -> RuleSet {
    mine_with(relation, thresholds, MiningMode::AnnotationToAnnotation).rules
}

/// Generalization-based correlation discovery (§4.1): extend the relation
/// with the taxonomy's concept labels (Fig. 10), mine the extended database,
/// and drop *hierarchical tautologies* — rules whose consequent is a
/// taxonomy ancestor of one of their own antecedent items (those hold with
/// confidence 1 by construction and carry no information).
pub fn mine_generalized(
    relation: &AnnotatedRelation,
    taxonomy: &Taxonomy,
    thresholds: &Thresholds,
) -> (AnnotatedRelation, RuleSet) {
    let extended = taxonomy.extend_relation(relation);
    let rules = mine_rules(&extended, thresholds);
    let informative: Vec<_> = rules
        .rules()
        .iter()
        .filter(|r| {
            !r.lhs
                .items()
                .iter()
                .any(|&l| taxonomy.is_ancestor(r.rhs, l))
        })
        .cloned()
        .collect();
    (extended, RuleSet::from_rules(informative))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_store::{taxonomy_from_rules, Tuple};

    /// A relation where {x, y} ⇒ A holds strongly and A ⇒ B holds strongly.
    fn demo_relation() -> AnnotatedRelation {
        let mut rel = AnnotatedRelation::new("demo");
        let x = rel.vocab_mut().data("10");
        let y = rel.vocab_mut().data("20");
        let z = rel.vocab_mut().data("30");
        let a = rel.vocab_mut().annotation("A");
        let b = rel.vocab_mut().annotation("B");
        for _ in 0..8 {
            rel.insert(Tuple::new([x, y], [a, b]));
        }
        rel.insert(Tuple::new([x, y], [a]));
        rel.insert(Tuple::new([x, y], []));
        for _ in 0..2 {
            rel.insert(Tuple::new([z], []));
        }
        rel
    }

    #[test]
    fn mine_rules_finds_both_shapes() {
        let rel = demo_relation();
        let rules = mine_rules(&rel, &Thresholds::new(0.3, 0.8));
        let a = rel
            .vocab()
            .get(anno_store::ItemKind::Annotation, "A")
            .unwrap();
        let b = rel
            .vocab()
            .get(anno_store::ItemKind::Annotation, "B")
            .unwrap();
        let x = rel.vocab().get(anno_store::ItemKind::Data, "10").unwrap();
        let y = rel.vocab().get(anno_store::ItemKind::Data, "20").unwrap();
        // {x, y} ⇒ A: 9/10 tuples with {x,y} carry A; support 9/12.
        let d2a = rules
            .get(&crate::itemset::ItemSet::from_unsorted(vec![x, y]), a)
            .expect("d2a rule");
        assert_eq!(d2a.union_count, 9);
        assert_eq!(d2a.lhs_count, 10);
        // {A} ⇒ B: 8/9.
        let a2a = rules
            .get(&crate::itemset::ItemSet::single(a), b)
            .expect("a2a rule");
        assert_eq!(a2a.union_count, 8);
        assert_eq!(a2a.lhs_count, 9);
    }

    #[test]
    fn single_shape_entry_points_are_consistent_with_joint_mining() {
        let rel = demo_relation();
        let thresholds = Thresholds::new(0.3, 0.8);
        let joint = mine_rules(&rel, &thresholds);
        let d2a = mine_data_to_annotation(&rel, &thresholds);
        let a2a = mine_annotation_to_annotation(&rel, &thresholds);
        let joint_d2a: Vec<_> = joint.of_kind(RuleKind::DataToAnnotation).cloned().collect();
        let joint_a2a: Vec<_> = joint
            .of_kind(RuleKind::AnnotationToAnnotation)
            .cloned()
            .collect();
        assert!(RuleSet::from_rules(joint_d2a).identical_to(&d2a));
        assert!(RuleSet::from_rules(joint_a2a).identical_to(&a2a));
    }

    #[test]
    fn generalized_mining_surfaces_concept_rules_and_drops_tautologies() {
        // Annotations A1 and A2 each appear on half the pattern tuples:
        // individually below a 0.6-confidence bar, but their common concept
        // covers all of them.
        let mut rel = AnnotatedRelation::new("gen");
        let x = rel.vocab_mut().data("10");
        let a1 = rel.vocab_mut().annotation("wrong value");
        let a2 = rel.vocab_mut().annotation("invalid entry");
        for i in 0..10 {
            let ann = if i % 2 == 0 { a1 } else { a2 };
            rel.insert(Tuple::new([x], [ann]));
        }
        let tax = taxonomy_from_rules(
            "wrong value, invalid entry -> Invalidation",
            rel.vocab_mut(),
        )
        .unwrap();
        let thresholds = Thresholds::new(0.4, 0.9);
        let raw_rules = mine_rules(&rel, &thresholds);
        let inv = rel
            .vocab()
            .get(anno_store::ItemKind::Label, "Invalidation")
            .unwrap();
        // Raw mining cannot find {x} ⇒ anything at 0.9 confidence.
        assert!(raw_rules.is_empty());
        let (_, gen_rules) = mine_generalized(&rel, &tax, &thresholds);
        let rule = gen_rules
            .get(&crate::itemset::ItemSet::single(x), inv)
            .expect("generalized rule {x} ⇒ Invalidation");
        assert_eq!(rule.union_count, 10);
        // The tautology {wrong value} ⇒ Invalidation (conf 1.0) is dropped.
        assert!(gen_rules
            .get(&crate::itemset::ItemSet::single(a1), inv)
            .is_none());
    }
}
