//! Integration test: the provenance algebra and the miner must agree on
//! counts — `support` as computed by frequent-itemset mining equals the
//! bag-semantics annotation computed by the K-relation algebra, and
//! polynomial provenance factors through every concrete semiring.

use annomine::mine::{mine_with, ItemSet, MiningMode, Thresholds};
use annomine::semiring::prelude::*;
use annomine::store::{generate, GeneratorConfig, Item, KRelation};

#[test]
fn miner_counts_match_bag_semantics_queries() {
    let ds = generate(&GeneratorConfig::tiny(9));
    let rel = &ds.relation;
    let result = mine_with(rel, &Thresholds::new(0.1, 0.0), MiningMode::Annotated);

    // For each frequent singleton data value, the miner's count must equal
    // the multiplicity computed by a bag-semantics selection query.
    let mut checked = 0;
    for (itemset, count) in result.itemsets.iter() {
        if itemset.len() != 1 || !itemset.items()[0].is_data() {
            continue;
        }
        let v = itemset.items()[0];
        let algebra_count: u64 = rel
            .iter()
            .filter(|(_, t)| t.contains(v))
            .map(|_| 1u64)
            .sum();
        assert_eq!(count, algebra_count, "miner vs scan disagree on {v:?}");
        checked += 1;
    }
    assert!(checked > 0, "no singleton data values were frequent");
}

#[test]
fn annotation_support_equals_boolean_query_cardinality() {
    let ds = generate(&GeneratorConfig::tiny(10));
    let rel = &ds.relation;
    // Bool2-annotated unary relation over the first data column: a tuple
    // appears iff it exists — cardinality equals distinct first values.
    let k: KRelation<Bool2> = KRelation::from_annotated(rel, 1, &|_| Bool2::one());
    let distinct_firsts: std::collections::BTreeSet<Item> = rel
        .iter()
        .filter_map(|(_, t)| t.data().first().copied())
        .collect();
    assert_eq!(k.len(), distinct_firsts.len());
}

#[test]
fn polynomial_provenance_factors_through_concrete_semirings() {
    let ds = generate(&GeneratorConfig::tiny(11));
    let rel = &ds.relation;
    let poly: KRelation<Polynomial> = KRelation::from_annotated(rel, 2, &Polynomial::var);
    let merged = poly.project(&[0]);

    // eval ∘ query == query ∘ eval for three different targets.
    let into_nat = merged.map_annotations(&|p: &Polynomial| p.eval(&|_| Natural::one()));
    let direct_nat: KRelation<Natural> =
        KRelation::from_annotated(rel, 2, &|_| Natural::one()).project(&[0]);
    assert_eq!(into_nat, direct_nat, "ℕ factorisation");

    let into_bool = merged.map_annotations(&|p: &Polynomial| p.eval(&|_| Bool2::one()));
    let direct_bool: KRelation<Bool2> =
        KRelation::from_annotated(rel, 2, &|_| Bool2::one()).project(&[0]);
    assert_eq!(into_bool, direct_bool, "B factorisation");

    let val = |v: Var| Tropical::finite(u64::from(v.0 % 13));
    let into_trop = merged.map_annotations(&|p: &Polynomial| p.eval(&val));
    let direct_trop: KRelation<Tropical> = KRelation::from_annotated(rel, 2, &val).project(&[0]);
    assert_eq!(into_trop, direct_trop, "tropical factorisation");
}

#[test]
fn mining_the_same_relation_is_stable_across_algebra_views() {
    // Building K-relations from an annotated relation must not disturb it.
    let ds = generate(&GeneratorConfig::tiny(12));
    let rel = ds.relation;
    let before = mine_with(&rel, &Thresholds::new(0.2, 0.6), MiningMode::Annotated);
    let _k: KRelation<Lineage> = KRelation::from_annotated(&rel, 2, &|v| Lineage::var(v));
    let after = mine_with(&rel, &Thresholds::new(0.2, 0.6), MiningMode::Annotated);
    assert!(before.rules.identical_to(&after.rules));
    let _ = ItemSet::empty();
}
