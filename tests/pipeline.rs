//! Integration test: the full synthetic pipeline — generation, mining,
//! evolution under a mixed workload, exploitation — across all three
//! crates, verifying the planted ground truth is recovered and the
//! incremental state never diverges.

use annomine::mine::{
    derive_rules, eclat, mine_rules, mine_with, recommend_missing, score_recommendations,
    transactions_of, IncrementalConfig, IncrementalMiner, ItemSet, MiningMode, Thresholds,
};
use annomine::store::{
    generate, hide_annotations, random_annotation_batch, GeneratorConfig, TupleId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn planted_rules_are_recovered_by_mining() {
    let ds = generate(&GeneratorConfig::tiny(123));
    let thresholds = Thresholds::new(0.15, 0.6);
    let rules = mine_rules(&ds.relation, &thresholds);
    for planted in &ds.planted {
        let lhs = ItemSet::from_unsorted(planted.lhs.clone());
        let rule = rules.get(&lhs, planted.rhs);
        assert!(
            rule.is_some(),
            "planted rule {:?} ⇒ {:?} was not recovered",
            planted.lhs,
            planted.rhs
        );
        let rule = rule.unwrap();
        assert!(
            rule.confidence() > planted.confidence - 0.15,
            "recovered confidence {} too low",
            rule.confidence()
        );
    }
}

#[test]
fn all_four_miners_agree_on_generated_data() {
    // Apriori, the one full-mine path, against Eclat, its cross-check.
    let ds = generate(&GeneratorConfig::tiny(77));
    let thresholds = Thresholds::new(0.2, 0.6);
    let reference = mine_with(&ds.relation, &thresholds, MiningMode::Annotated);
    let transactions = transactions_of(&ds.relation, MiningMode::Annotated);
    let other = eclat(&transactions, thresholds.min_support, MiningMode::Annotated);
    assert_eq!(reference.itemsets.sorted(), other.sorted());
    assert!(reference
        .rules
        .identical_to(&derive_rules(&other, &thresholds)));
}

#[test]
fn long_mixed_workload_never_diverges() {
    let ds = generate(&GeneratorConfig::tiny(31));
    let mut rel = ds.relation;
    let mut miner = IncrementalMiner::mine_initial(
        &rel,
        IncrementalConfig {
            thresholds: Thresholds::new(0.2, 0.6),
            retention: 0.5,
        },
    );
    let mut rng = StdRng::seed_from_u64(404);
    for round in 0..10 {
        match round % 4 {
            0 => {
                let batch = random_annotation_batch(&rel, &mut rng, 12);
                miner.apply_annotations(&mut rel, batch);
            }
            1 => {
                let tuples = annomine::store::random_annotated_tuples(&mut rel, &mut rng, 6, 4);
                miner.add_annotated_tuples(&mut rel, tuples);
            }
            2 => {
                let tuples = annomine::store::random_unannotated_tuples(&mut rel, &mut rng, 6, 4);
                miner.add_unannotated_tuples(&mut rel, tuples);
            }
            _ => {
                let victims: Vec<TupleId> = rel.iter().map(|(tid, _)| tid).take(3).collect();
                miner.delete_tuples(&mut rel, &victims);
            }
        }
        rel.check_consistency().expect("store consistency");
        assert!(
            miner.verify_against_remine(&rel),
            "diverged from re-mining at round {round}"
        );
    }
    // The workload ran incrementally, not by re-mining every step.
    assert!(
        miner.stats().full_remines <= 2,
        "too many fallback re-mines"
    );
}

#[test]
fn hidden_annotation_recovery_beats_chance() {
    let ds = generate(&GeneratorConfig::tiny(55));
    let mut rng = StdRng::seed_from_u64(808);
    let (damaged, hidden) = hide_annotations(&ds.relation, &mut rng, 0.2);
    assert!(!hidden.is_empty());
    let rules = mine_rules(&damaged, &Thresholds::new(0.1, 0.5));
    let recs = recommend_missing(&damaged, &rules);
    let quality = score_recommendations(&recs, &hidden);
    // Planted implications at ~0.95 confidence: recall should be solid and
    // precision far above the ~2% density of random (tuple, annotation)
    // pairs.
    assert!(
        quality.recall() > 0.5,
        "recall {} too low",
        quality.recall()
    );
    assert!(
        quality.precision() > 0.3,
        "precision {} too low",
        quality.precision()
    );
}

#[test]
fn candidate_rules_sit_strictly_between_thresholds() {
    let ds = generate(&GeneratorConfig::tiny(66));
    let thresholds = Thresholds::new(0.3, 0.8);
    let miner = IncrementalMiner::mine_initial(
        &ds.relation,
        IncrementalConfig {
            thresholds,
            retention: 0.5,
        },
    );
    for rule in miner.candidate_rules().rules() {
        assert!(
            !rule.meets(&thresholds),
            "candidate rule meets the strict thresholds"
        );
    }
    for rule in miner.rules().rules() {
        assert!(
            rule.meets(&thresholds),
            "valid rule misses the strict thresholds"
        );
    }
}
