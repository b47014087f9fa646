//! Integration test: replay the paper's application workflow end-to-end
//! through the text formats — load a Fig. 4 dataset, mine rules (menu
//! options 1/2), write a Fig. 7 rule file, apply a Fig. 14 annotation
//! batch, and verify incremental maintenance against re-mining.

use annomine::mine::{
    mine_annotation_to_annotation, mine_data_to_annotation, mine_rules, parse_rules_file,
    IncrementalConfig, IncrementalMiner, RuleKind, Thresholds,
};
use annomine::store::{
    dataset_to_string, format_annotation_batch, parse_annotation_batch, parse_dataset,
};

/// A dataset shaped like Fig. 4, engineered so that both rule kinds exist:
/// {28, 85} ⇒ Annot_1 (9/10) and {Annot_1} ⇒ Annot_5 (8/9).
fn paper_like_dataset() -> String {
    let mut lines = Vec::new();
    for i in 0..8 {
        lines.push(format!("28 85 {} Annot_1 Annot_5", 100 + i));
    }
    lines.push("28 85 200 Annot_1".to_string());
    lines.push("28 85 201".to_string());
    lines.push("40 41 202".to_string());
    lines.push("40 41 203".to_string());
    lines.join("\n")
}

#[test]
fn menu_option_1_and_2_discover_both_rule_kinds() {
    let rel = parse_dataset("db", &paper_like_dataset()).unwrap();
    let thresholds = Thresholds::new(0.3, 0.8);

    let d2a = mine_data_to_annotation(&rel, &thresholds);
    assert!(d2a
        .rules()
        .iter()
        .all(|r| r.kind() == RuleKind::DataToAnnotation));
    let annot1 = rel
        .vocab()
        .get(annomine::store::ItemKind::Annotation, "Annot_1")
        .unwrap();
    let x28 = rel
        .vocab()
        .get(annomine::store::ItemKind::Data, "28")
        .unwrap();
    let x85 = rel
        .vocab()
        .get(annomine::store::ItemKind::Data, "85")
        .unwrap();
    let headline = d2a
        .get(
            &annomine::mine::ItemSet::from_unsorted(vec![x28, x85]),
            annot1,
        )
        .expect("{28,85} ⇒ Annot_1");
    assert_eq!(headline.union_count, 9);
    assert_eq!(headline.lhs_count, 10);

    let a2a = mine_annotation_to_annotation(&rel, &thresholds);
    assert!(a2a
        .rules()
        .iter()
        .all(|r| r.kind() == RuleKind::AnnotationToAnnotation));
    let annot5 = rel
        .vocab()
        .get(annomine::store::ItemKind::Annotation, "Annot_5")
        .unwrap();
    let chain = a2a
        .get(&annomine::mine::ItemSet::single(annot1), annot5)
        .expect("{Annot_1} ⇒ Annot_5");
    assert_eq!(chain.union_count, 8);
    assert_eq!(chain.lhs_count, 9);
}

#[test]
fn rule_file_roundtrips_through_fig7_format() {
    let rel = parse_dataset("db", &paper_like_dataset()).unwrap();
    let rules = mine_rules(&rel, &Thresholds::new(0.3, 0.8));
    assert!(!rules.is_empty());
    let text = rules.render(rel.vocab());
    let mut vocab = rel.vocab().clone();
    let parsed = parse_rules_file(&mut vocab, &text).unwrap();
    assert_eq!(parsed.len(), rules.len());
    for p in &parsed {
        let original = rules.get(&p.lhs, p.rhs).expect("parsed rule exists");
        assert!((p.confidence - original.confidence()).abs() < 1e-3);
        assert!((p.support - original.support()).abs() < 1e-3);
    }
}

#[test]
fn dataset_files_roundtrip() {
    let text = paper_like_dataset();
    let rel = parse_dataset("db", &text).unwrap();
    let rel2 = parse_dataset("db", &dataset_to_string(&rel)).unwrap();
    assert_eq!(rel.len(), rel2.len());
    // Mining results must be identical across the round-trip.
    let t = Thresholds::new(0.3, 0.8);
    assert_eq!(mine_rules(&rel, &t).len(), mine_rules(&rel2, &t).len());
}

#[test]
fn fig14_batch_drives_incremental_maintenance() {
    let mut rel = parse_dataset("db", &paper_like_dataset()).unwrap();
    let thresholds = Thresholds::new(0.3, 0.8);
    let mut miner = IncrementalMiner::mine_initial(
        &rel,
        IncrementalConfig {
            thresholds,
            ..Default::default()
        },
    );

    // Fig. 14 format: "tuple: annotation". Annotate the gap tuple (id 9)
    // and the two outsiders.
    let batch_text = "9: Annot_1\n10: Annot_9\n11: Annot_9\n";
    let updates = parse_annotation_batch(rel.vocab_mut(), batch_text).unwrap();
    // Round-trip the batch through its own format first.
    let rendered = format_annotation_batch(rel.vocab(), &updates);
    assert_eq!(rendered, batch_text);

    let delta = miner.apply_annotations(&mut rel, updates);
    assert_eq!(delta.len(), 3);
    assert!(miner.verify_against_remine(&rel), "incremental ≡ re-mine");

    // {28,85} ⇒ Annot_1 is now exact 10/10.
    let annot1 = rel
        .vocab()
        .get(annomine::store::ItemKind::Annotation, "Annot_1")
        .unwrap();
    let x28 = rel
        .vocab()
        .get(annomine::store::ItemKind::Data, "28")
        .unwrap();
    let x85 = rel
        .vocab()
        .get(annomine::store::ItemKind::Data, "85")
        .unwrap();
    let rule = miner
        .rules()
        .get(
            &annomine::mine::ItemSet::from_unsorted(vec![x28, x85]),
            annot1,
        )
        .unwrap();
    assert_eq!(rule.union_count, 10);
    assert_eq!(rule.lhs_count, 10);
}

#[test]
fn all_three_cases_compose_through_text_formats() {
    let mut rel = parse_dataset("db", &paper_like_dataset()).unwrap();
    let thresholds = Thresholds::new(0.25, 0.7);
    let mut miner = IncrementalMiner::mine_initial(
        &rel,
        IncrementalConfig {
            thresholds,
            ..Default::default()
        },
    );

    // Case 1: annotated tuples arrive as dataset lines.
    let case1 = "28 85 300 Annot_1 Annot_5\n28 85 301 Annot_1\n";
    let mut tuples = Vec::new();
    for line in case1.lines() {
        if let Some(t) = annomine::store::parse_tuple_line(rel.vocab_mut(), line) {
            tuples.push(t);
        }
    }
    miner.add_annotated_tuples(&mut rel, tuples);
    assert!(miner.verify_against_remine(&rel));

    // Case 2: un-annotated tuples.
    let case2 = "50 51 400\n50 51 401\n";
    let mut tuples = Vec::new();
    for line in case2.lines() {
        if let Some(t) = annomine::store::parse_tuple_line(rel.vocab_mut(), line) {
            tuples.push(t);
        }
    }
    miner.add_unannotated_tuples(&mut rel, tuples);
    assert!(miner.verify_against_remine(&rel));

    // Case 3: a Fig. 14 batch.
    let updates = parse_annotation_batch(rel.vocab_mut(), "14: Annot_1\n15: Annot_1\n").unwrap();
    miner.apply_annotations(&mut rel, updates);
    assert!(miner.verify_against_remine(&rel));
}
