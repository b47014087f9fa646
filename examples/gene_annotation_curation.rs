//! A realistic curation scenario (the paper's §1 motivation): a gene table
//! whose curators attach free-text annotations in inconsistent formats.
//!
//! Walks the full pipeline:
//! 1. keyword-based generalization rules collapse free-text annotations
//!    onto concepts (Fig. 8: "Invalid"/"wrong"/"incorrect" ⇒ Invalidation);
//! 2. generalized mining surfaces correlations invisible at the raw level
//!    (§4.1);
//! 3. a fraction of annotations is hidden and the recommendation engine
//!    (§5) is scored on recovering them;
//! 4. the insert trigger (Fig. 17): new tuples are maintained into the
//!    rules and checked against them.
//!
//! ```text
//! cargo run --example gene_annotation_curation
//! ```

use annomine::mine::{
    mine_generalized, mine_rules, recommend_for_tuples, recommend_missing, score_recommendations,
    IncrementalConfig, IncrementalMiner, Thresholds,
};
use annomine::store::{
    hide_annotations, keyword_rule, AnnotatedRelation, AnnotationUpdate, ItemKind, Taxonomy, Tuple,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build the gene table: pathway-P53 genes get flagged by three curators
/// in three different phrasings; housekeeping genes rarely get flagged.
fn build_gene_table() -> AnnotatedRelation {
    let mut rel = AnnotatedRelation::new("genes");
    let flags = [
        "Invalid expression profile",
        "value looks wrong",
        "incorrect strand reported",
    ];
    let reviews = ["reviewed by curator A", "reviewed by curator B"];
    for i in 0..120 {
        let pathway = if i % 3 == 0 {
            "pathway:p53"
        } else {
            "pathway:other"
        };
        let assay = if i % 2 == 0 {
            "assay:rnaseq"
        } else {
            "assay:microarray"
        };
        let p = rel.vocab_mut().data(pathway);
        let a = rel.vocab_mut().data(assay);
        let mut anns = Vec::new();
        // p53-pathway RNA-seq rows get invalidation flags (each curator
        // phrases the flag differently) and usually a review stamp. The
        // flag index must vary independently of the row periodicity.
        if pathway == "pathway:p53" && assay == "assay:rnaseq" {
            let k = i / 6; // dense index over the flagged rows
            let flag = rel.vocab_mut().annotation(flags[k % flags.len()]);
            anns.push(flag);
            if k % 5 != 0 {
                let review = rel.vocab_mut().annotation(reviews[k % reviews.len()]);
                anns.push(review);
            }
        }
        rel.insert(Tuple::new([p, a], anns));
    }
    rel
}

fn main() {
    let mut rel = build_gene_table();
    let thresholds = Thresholds::new(0.1, 0.85);

    // --- Step 1: raw mining misses the correlation (three phrasings split
    // the support/confidence three ways).
    let raw = mine_rules(&rel, &thresholds);
    println!(
        "raw mining: {} rules (free-text flags are too fragmented)",
        raw.len()
    );

    // --- Step 2: keyword generalization (Fig. 8) + multi-level concepts.
    let mut tax = Taxonomy::new();
    let invalidation = keyword_rule(
        rel.vocab_mut(),
        &["invalid", "wrong", "incorrect"],
        "Invalidation",
    );
    let reviewed = keyword_rule(rel.vocab_mut(), &["reviewed by"], "Reviewed");
    tax.add_rule(&invalidation);
    tax.add_rule(&reviewed);
    println!(
        "taxonomy: {} raw annotations generalize into 2 concepts",
        tax.edge_count()
    );

    let (extended, gen_rules) = mine_generalized(&rel, &tax, &thresholds);
    println!("generalized mining: {} rules, e.g.:", gen_rules.len());
    for line in gen_rules.render(extended.vocab()).lines().take(4) {
        println!("    {line}");
    }

    // --- Step 3: hide 25% of annotation occurrences and try to recover
    // them with rule-based recommendations (§5 + E7 scoring). Because the
    // curators' phrasings are interchangeable, recovery is scored at the
    // *concept* level: a hidden "value looks wrong" counts as recovered if
    // the system recommends the Invalidation concept for that tuple.
    let mut rng = StdRng::seed_from_u64(1234);
    let (damaged, hidden) = hide_annotations(&rel, &mut rng, 0.25);
    let damaged_ext = tax.extend_relation(&damaged);
    let recovery_thresholds = Thresholds::new(0.05, 0.6);
    let rules = mine_rules(&damaged_ext, &recovery_thresholds);
    let recs = recommend_missing(&damaged_ext, &rules);
    // Lift the hidden raw annotations to their concepts, keeping only the
    // ones whose concept really disappeared from the damaged tuple.
    let hidden_concepts: Vec<AnnotationUpdate> = hidden
        .iter()
        .flat_map(|u| {
            tax.ancestors(u.annotation)
                .into_iter()
                .map(move |label| AnnotationUpdate {
                    tuple: u.tuple,
                    annotation: label,
                })
        })
        .filter(|u| {
            !damaged_ext
                .tuple(u.tuple)
                .is_some_and(|t| t.contains(u.annotation))
        })
        .collect();
    let concept_recs: Vec<_> = recs
        .iter()
        .filter(|r| r.annotation.kind() == ItemKind::Label)
        .cloned()
        .collect();
    let quality = score_recommendations(&concept_recs, &hidden_concepts);
    println!(
        "\nconcept-level recovery of hidden annotations: precision {:.2}, recall {:.2}, F1 {:.2} \
         ({} concept gaps, {} predicted)",
        quality.precision(),
        quality.recall(),
        quality.f1(),
        hidden_concepts.len(),
        concept_recs.len()
    );

    // --- Step 4: the insert trigger (Fig. 17). New p53/rnaseq genes arrive
    // un-flagged; the trigger predicts the concept annotations they are
    // probably missing, and the curator accepts the first suggestion.
    let mut curated = extended;
    let mut miner = IncrementalMiner::mine_initial(
        &curated,
        IncrementalConfig {
            thresholds,
            ..Default::default()
        },
    );
    let p = curated.vocab().get(ItemKind::Data, "pathway:p53");
    let a = curated.vocab().get(ItemKind::Data, "assay:rnaseq");
    let (p, a) = (p.unwrap(), a.unwrap());
    let tids = miner.add_unannotated_tuples(
        &mut curated,
        vec![Tuple::new([p, a], []), Tuple::new([p, a], [])],
    );
    let pending = recommend_for_tuples(&curated, miner.rules(), tids);
    println!(
        "\ninsert trigger queued {} predictions for 2 new genes:",
        pending.len()
    );
    for rec in pending.iter().take(4) {
        println!("    {}", rec.render(curated.vocab()));
    }
    let accepted = pending.first().is_some_and(|top| {
        let update = AnnotationUpdate {
            tuple: top.tuple,
            annotation: top.annotation,
        };
        !miner.apply_annotations(&mut curated, [update]).is_empty()
    });
    println!(
        "curator accepted the top suggestion (applied through Case-3 maintenance): {accepted}"
    );
    assert!(miner.verify_against_remine(&curated));
    println!("rule state verified identical to a from-scratch mine. Done.");
}
