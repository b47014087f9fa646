//! Quickstart: load a Fig. 4-style dataset, mine both kinds of
//! annotation correlations, and print a Fig. 7-style rule file.
//!
//! ```text
//! cargo run --example quickstart [min_support] [min_confidence]
//! ```

use annomine::mine::{mine_rules, RuleKind, Thresholds};
use annomine::store::parse_dataset;

/// A miniature of the paper's running dataset (Fig. 4): numeric data-value
/// ids plus `Annot_k` annotation tokens, one tuple per line.
const DATASET: &str = "\
28 85 102 Annot_4 Annot_5
28 85 17 Annot_1
28 85 63 Annot_1
28 85 102 Annot_1 Annot_4
28 85 99 Annot_1
17 63 99
28 85 41 Annot_1 Annot_5
63 99 41 Annot_2
28 85 77 Annot_1
17 99 102 Annot_2 Annot_4
28 85 63 Annot_1 Annot_4
63 99 77
";

fn main() {
    let mut args = std::env::args().skip(1);
    let min_support: f64 = args
        .next()
        .map(|s| s.parse().expect("min_support must be a fraction"))
        .unwrap_or(0.25);
    let min_confidence: f64 = args
        .next()
        .map(|s| s.parse().expect("min_confidence must be a fraction"))
        .unwrap_or(0.8);

    let relation = parse_dataset("quickstart", DATASET).expect("embedded dataset parses");
    println!(
        "Loaded {} tuples over {} data values and {} annotations.",
        relation.len(),
        relation.vocab().count(annomine::store::ItemKind::Data),
        relation
            .vocab()
            .count(annomine::store::ItemKind::Annotation),
    );

    // Discover all data-to-annotation and annotation-to-annotation rules
    // (the paper's menu options 1 and 2) in one pass.
    let thresholds = Thresholds::new(min_support, min_confidence);
    let rules = mine_rules(&relation, &thresholds);

    let d2a = rules.of_kind(RuleKind::DataToAnnotation).count();
    let a2a = rules.of_kind(RuleKind::AnnotationToAnnotation).count();
    println!(
        "\nDiscovered {} rules at support ≥ {min_support}, confidence ≥ {min_confidence}:",
        rules.len()
    );
    println!("  {d2a} data-to-annotation, {a2a} annotation-to-annotation\n");

    // The Fig. 7 output format, sorted by confidence.
    print!("{}", rules.render(relation.vocab()));
}
