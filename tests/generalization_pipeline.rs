//! Integration test: generalization across the store and the miner —
//! taxonomy application on relations, multi-level mining, and tautology
//! filtering.

use annomine::mine::{mine_generalized, mine_rules, ItemSet, Thresholds};
use annomine::store::{taxonomy_from_rules, AnnotatedRelation, ItemKind, Tuple};

/// Curators flag tuples with three phrasings; a two-level taxonomy maps
/// them to `Broken` and then to `QualityIssue`.
fn setup() -> (AnnotatedRelation, annomine::store::Taxonomy) {
    let mut rel = AnnotatedRelation::new("R");
    let x = rel.vocab_mut().data("7");
    let y = rel.vocab_mut().data("8");
    let phr = ["bad_a", "bad_b", "bad_c"];
    for i in 0..12 {
        let ann = rel.vocab_mut().annotation(phr[i % 3]);
        rel.insert(Tuple::new([x, y], [ann]));
    }
    for _ in 0..4 {
        rel.insert(Tuple::new([y], []));
    }
    let tax = taxonomy_from_rules(
        "bad_a, bad_b, bad_c -> Broken\nBroken -> QualityIssue",
        rel.vocab_mut(),
    )
    .unwrap();
    (rel, tax)
}

#[test]
fn multi_level_labels_reach_every_ancestor() {
    let (rel, tax) = setup();
    let extended = tax.extend_relation(&rel);
    let broken = extended.vocab().get(ItemKind::Label, "Broken").unwrap();
    let quality = extended
        .vocab()
        .get(ItemKind::Label, "QualityIssue")
        .unwrap();
    assert_eq!(extended.index().frequency(broken), 12);
    assert_eq!(extended.index().frequency(quality), 12);
    extended.check_consistency().unwrap();
    // Original relation is untouched.
    assert_eq!(rel.index().frequency(broken), 0);
}

#[test]
fn generalized_rules_exist_at_every_level() {
    let (rel, tax) = setup();
    let thresholds = Thresholds::new(0.3, 0.9);
    assert!(
        mine_rules(&rel, &thresholds).is_empty(),
        "raw phrasings fragment"
    );
    let (extended, rules) = mine_generalized(&rel, &tax, &thresholds);
    let x = extended.vocab().get(ItemKind::Data, "7").unwrap();
    let broken = extended.vocab().get(ItemKind::Label, "Broken").unwrap();
    let quality = extended
        .vocab()
        .get(ItemKind::Label, "QualityIssue")
        .unwrap();
    assert!(
        rules.get(&ItemSet::single(x), broken).is_some(),
        "level-1 rule"
    );
    assert!(
        rules.get(&ItemSet::single(x), quality).is_some(),
        "level-2 rule"
    );
}

#[test]
fn hierarchical_tautologies_are_filtered() {
    let (rel, tax) = setup();
    let (extended, rules) = mine_generalized(&rel, &tax, &Thresholds::new(0.2, 0.9));
    let broken = extended.vocab().get(ItemKind::Label, "Broken").unwrap();
    let quality = extended
        .vocab()
        .get(ItemKind::Label, "QualityIssue")
        .unwrap();
    // {Broken} ⇒ QualityIssue holds with confidence 1.0 *by construction*
    // and must be filtered as uninformative.
    assert!(rules.get(&ItemSet::single(broken), quality).is_none());
    // No surviving rule has its RHS as an ancestor of an LHS item.
    for rule in rules.rules() {
        assert!(!rule
            .lhs
            .items()
            .iter()
            .any(|&l| tax.is_ancestor(rule.rhs, l)));
    }
}
