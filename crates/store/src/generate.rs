//! Synthetic annotated-database workloads.
//!
//! The paper evaluates on a private dataset of "approximately 8000 entries"
//! (Fig. 4 shows its shape: a handful of data-value ids plus `Annot_k`
//! tokens per tuple). The dataset itself was never published, so we generate
//! statistically comparable ones: planted frequent data patterns, planted
//! `pattern ⇒ annotation` and `annotation ⇒ annotation` implications with
//! configurable confidence, plus uniform noise. Every evaluated quantity in
//! the paper (runtime ratios, rule recovery, incremental-vs-batch
//! equivalence) depends only on transaction shape, item frequencies, and the
//! planted correlation structure — all controlled here, all reproducible
//! from a fixed seed.
//!
//! The generator also produces the *ground truth* of planted rules so the
//! exploitation experiments (§5) can score recommendation precision/recall.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::item::Item;
use crate::relation::{AnnotatedRelation, AnnotationUpdate};
use crate::tuple::{Tuple, TupleId};

/// Parameters of the synthetic workload.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of tuples (the paper's DB is ≈ 8000).
    pub tuples: usize,
    /// Distinct data values to draw from.
    pub data_universe: u32,
    /// Data values per tuple, before pattern injection.
    pub tuple_width: usize,
    /// Number of planted frequent data patterns.
    pub pattern_count: usize,
    /// Items per planted pattern.
    pub pattern_width: usize,
    /// Probability that a tuple embeds a given planted pattern.
    pub pattern_prob: f64,
    /// Planted data-to-annotation rules (each consumes one pattern,
    /// cycling if more rules than patterns).
    pub d2a_rules: usize,
    /// Planted annotation-to-annotation rules (chained off d2a annotations).
    pub a2a_rules: usize,
    /// Confidence with which a planted implication fires.
    pub rule_confidence: f64,
    /// Distinct noise annotations.
    pub noise_annotations: u32,
    /// Probability of each noise annotation appearing on a tuple.
    pub noise_prob: f64,
    /// RNG seed; equal configs with equal seeds generate equal datasets.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            tuples: 2000,
            data_universe: 200,
            tuple_width: 6,
            pattern_count: 8,
            pattern_width: 2,
            pattern_prob: 0.45,
            d2a_rules: 6,
            a2a_rules: 3,
            rule_confidence: 0.9,
            noise_annotations: 10,
            noise_prob: 0.02,
            seed: 0xA0_70_7E,
        }
    }
}

impl GeneratorConfig {
    /// A configuration sized like the paper's evaluation database
    /// ("approximately 8000 entries", §4.3 Results).
    pub fn paper_scale(seed: u64) -> Self {
        GeneratorConfig {
            tuples: 8000,
            data_universe: 400,
            tuple_width: 8,
            pattern_count: 12,
            pattern_width: 2,
            pattern_prob: 0.45,
            d2a_rules: 8,
            a2a_rules: 4,
            rule_confidence: 0.9,
            noise_annotations: 16,
            noise_prob: 0.02,
            seed,
        }
    }

    /// A small configuration for unit tests (fast to mine exhaustively).
    pub fn tiny(seed: u64) -> Self {
        GeneratorConfig {
            tuples: 200,
            data_universe: 40,
            tuple_width: 4,
            pattern_count: 3,
            pattern_width: 2,
            pattern_prob: 0.5,
            d2a_rules: 2,
            a2a_rules: 1,
            rule_confidence: 0.95,
            noise_annotations: 4,
            noise_prob: 0.02,
            seed,
        }
    }
}

/// A rule planted by the generator — the ground truth for evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedRule {
    /// Sorted LHS items (data values for d2a rules, annotations for a2a).
    pub lhs: Vec<Item>,
    /// The implied annotation.
    pub rhs: Item,
    /// The confidence the implication was planted with.
    pub confidence: f64,
}

/// A generated workload: the relation plus its planted ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The generated annotated relation.
    pub relation: AnnotatedRelation,
    /// Rules that were planted (d2a first, then a2a).
    pub planted: Vec<PlantedRule>,
}

/// Generate a synthetic annotated database from `config`.
pub fn generate(config: &GeneratorConfig) -> SyntheticDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut rel = AnnotatedRelation::new("synthetic");

    // Interned universes. Data values are named after their index so the
    // Fig. 4 text format round-trips them as numerics.
    let data_items: Vec<Item> = (0..config.data_universe)
        .map(|i| rel.vocab_mut().data(&i.to_string()))
        .collect();
    assert!(
        (config.pattern_width as u32) * (config.pattern_count as u32) <= config.data_universe,
        "data universe too small for the requested patterns"
    );

    // Planted patterns use disjoint reserved values so their frequency is
    // controlled purely by pattern_prob.
    let patterns: Vec<Vec<Item>> = (0..config.pattern_count)
        .map(|p| {
            let start = p * config.pattern_width;
            data_items[start..start + config.pattern_width].to_vec()
        })
        .collect();

    let d2a_anns: Vec<Item> = (0..config.d2a_rules)
        .map(|i| rel.vocab_mut().annotation(&format!("Annot_{}", i + 1)))
        .collect();
    let a2a_anns: Vec<Item> = (0..config.a2a_rules)
        .map(|i| {
            rel.vocab_mut()
                .annotation(&format!("Annot_{}", config.d2a_rules + i + 1))
        })
        .collect();
    let noise_anns: Vec<Item> = (0..config.noise_annotations)
        .map(|i| rel.vocab_mut().annotation(&format!("Noise_{i}")))
        .collect();

    let free_values = &data_items[config.pattern_count * config.pattern_width..];
    let mut planted = Vec::new();
    for (i, ann) in d2a_anns.iter().enumerate() {
        planted.push(PlantedRule {
            lhs: patterns[i % patterns.len()].clone(),
            rhs: *ann,
            confidence: config.rule_confidence,
        });
    }
    for (i, ann) in a2a_anns.iter().enumerate() {
        planted.push(PlantedRule {
            lhs: vec![d2a_anns[i % d2a_anns.len()]],
            rhs: *ann,
            confidence: config.rule_confidence,
        });
    }

    for _ in 0..config.tuples {
        let mut data: Vec<Item> = Vec::with_capacity(config.tuple_width + 2);
        let mut anns: Vec<Item> = Vec::new();

        // Background filler values (uniform over the non-reserved range).
        if !free_values.is_empty() {
            for _ in 0..config.tuple_width {
                data.extend(free_values.choose(&mut rng));
            }
        }

        // Pattern injection and the d2a implications hanging off them.
        for (p, pattern) in patterns.iter().enumerate() {
            if rng.gen_bool(config.pattern_prob) {
                data.extend_from_slice(pattern);
                for (r, rule) in planted[..d2a_anns.len()].iter().enumerate() {
                    if r % patterns.len() == p && rng.gen_bool(rule.confidence) {
                        anns.push(rule.rhs);
                    }
                }
            }
        }

        // a2a implications chain off the annotations present so far.
        for rule in &planted[d2a_anns.len()..] {
            if anns.contains(&rule.lhs[0]) && rng.gen_bool(rule.confidence) {
                anns.push(rule.rhs);
            }
        }

        // Uniform annotation noise.
        for &noise in &noise_anns {
            if rng.gen_bool(config.noise_prob) {
                anns.push(noise);
            }
        }

        rel.insert(Tuple::new(data, anns));
    }

    for rule in &mut planted {
        rule.lhs.sort_unstable();
    }

    SyntheticDataset {
        relation: rel,
        planted,
    }
}

/// Build a random Case-3 annotation batch: `size` additions of existing
/// annotations to tuples that do not yet carry them.
///
/// Returns fewer than `size` updates only if the relation is saturated.
pub fn random_annotation_batch(
    rel: &AnnotatedRelation,
    rng: &mut StdRng,
    size: usize,
) -> Vec<AnnotationUpdate> {
    let anns: Vec<Item> = rel.index().annotations().collect();
    let mut out = Vec::with_capacity(size);
    if anns.is_empty() || rel.is_empty() {
        return out;
    }
    let slots = rel.slot_count() as u32;
    let mut attempts = 0usize;
    while out.len() < size && attempts < size * 50 {
        attempts += 1;
        let tid = TupleId(rng.gen_range(0..slots));
        let ann = anns[rng.gen_range(0..anns.len())];
        let fresh = rel.tuple(tid).is_some_and(|t| !t.contains(ann));
        if fresh
            && !out
                .iter()
                .any(|u: &AnnotationUpdate| u.tuple == tid && u.annotation == ann)
        {
            out.push(AnnotationUpdate {
                tuple: tid,
                annotation: ann,
            });
        }
    }
    out
}

/// Build a batch of random annotated tuples (Case 1) shaped like `rel`'s
/// existing tuples.
pub fn random_annotated_tuples(
    rel: &mut AnnotatedRelation,
    rng: &mut StdRng,
    count: usize,
    width: usize,
) -> Vec<Tuple> {
    let data: Vec<Item> = rel.vocab().items(crate::item::ItemKind::Data).collect();
    let anns: Vec<Item> = rel
        .vocab()
        .items(crate::item::ItemKind::Annotation)
        .collect();
    (0..count)
        .map(|_| {
            let d: Vec<Item> = (0..width)
                .map(|_| data[rng.gen_range(0..data.len())])
                .collect();
            let ann_count = rng.gen_range(1..=2);
            let a: Vec<Item> = (0..ann_count)
                .map(|_| anns[rng.gen_range(0..anns.len())])
                .collect();
            Tuple::new(d, a)
        })
        .collect()
}

/// Build a batch of random un-annotated tuples (Case 2).
pub fn random_unannotated_tuples(
    rel: &mut AnnotatedRelation,
    rng: &mut StdRng,
    count: usize,
    width: usize,
) -> Vec<Tuple> {
    let data: Vec<Item> = rel.vocab().items(crate::item::ItemKind::Data).collect();
    (0..count)
        .map(|_| {
            let d = (0..width).map(|_| data[rng.gen_range(0..data.len())]);
            Tuple::new(d, [])
        })
        .collect()
}

/// Hide a random fraction of annotation occurrences, returning the modified
/// relation and the hidden ground truth — the §5 exploitation benchmark's
/// input (predict the hidden annotations, score against truth).
pub fn hide_annotations(
    rel: &AnnotatedRelation,
    rng: &mut StdRng,
    fraction: f64,
) -> (AnnotatedRelation, Vec<AnnotationUpdate>) {
    assert!((0.0..=1.0).contains(&fraction));
    let mut out = rel.clone();
    let mut hidden = Vec::new();
    let occurrences: Vec<(TupleId, Item)> = rel
        .iter()
        .flat_map(|(tid, t)| t.annotations().iter().map(move |&a| (tid, a)))
        .collect();
    for (tid, ann) in occurrences {
        if rng.gen_bool(fraction) {
            out.remove_annotation(tid, ann);
            hidden.push(AnnotationUpdate {
                tuple: tid,
                annotation: ann,
            });
        }
    }
    (out, hidden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::tiny(7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.relation.len(), b.relation.len());
        let ta = crate::textio::dataset_to_string(&a.relation);
        let tb = crate::textio::dataset_to_string(&b.relation);
        assert_eq!(ta, tb);
        let c = generate(&GeneratorConfig::tiny(8));
        assert_ne!(ta, crate::textio::dataset_to_string(&c.relation));
    }

    #[test]
    fn planted_rules_have_high_empirical_confidence() {
        let ds = generate(&GeneratorConfig::tiny(42));
        for rule in &ds.planted {
            let mut lhs_count = 0usize;
            let mut both = 0usize;
            for (_, t) in ds.relation.iter() {
                if t.contains_all(&rule.lhs) {
                    lhs_count += 1;
                    if t.contains(rule.rhs) {
                        both += 1;
                    }
                }
            }
            assert!(lhs_count > 0, "planted LHS never occurs");
            let conf = both as f64 / lhs_count as f64;
            assert!(
                conf > rule.confidence - 0.15,
                "planted rule confidence {conf} too far below {}",
                rule.confidence
            );
        }
    }

    #[test]
    fn paper_scale_config_matches_reported_size() {
        let cfg = GeneratorConfig::paper_scale(1);
        assert_eq!(cfg.tuples, 8000);
    }

    #[test]
    fn annotation_batches_only_touch_fresh_pairs() {
        let ds = generate(&GeneratorConfig::tiny(3));
        let mut rng = StdRng::seed_from_u64(99);
        let batch = random_annotation_batch(&ds.relation, &mut rng, 50);
        assert!(!batch.is_empty());
        for u in &batch {
            let t = ds.relation.tuple(u.tuple).unwrap();
            assert!(
                !t.contains(u.annotation),
                "batch re-adds existing annotation"
            );
        }
        // No duplicate (tuple, annotation) pairs inside the batch.
        let mut seen = std::collections::BTreeSet::new();
        for u in &batch {
            assert!(seen.insert((u.tuple, u.annotation)));
        }
    }

    #[test]
    fn tuple_batches_have_requested_shape() {
        let ds = generate(&GeneratorConfig::tiny(5));
        let mut rel = ds.relation;
        let mut rng = StdRng::seed_from_u64(1);
        let annotated = random_annotated_tuples(&mut rel, &mut rng, 10, 4);
        assert_eq!(annotated.len(), 10);
        assert!(annotated.iter().all(|t| !t.is_unannotated()));
        let plain = random_unannotated_tuples(&mut rel, &mut rng, 10, 4);
        assert!(plain.iter().all(Tuple::is_unannotated));
    }

    #[test]
    fn hide_annotations_returns_exact_complement() {
        let ds = generate(&GeneratorConfig::tiny(11));
        let mut rng = StdRng::seed_from_u64(2);
        let total: usize = ds.relation.iter().map(|(_, t)| t.annotations().len()).sum();
        let (hidden_rel, hidden) = hide_annotations(&ds.relation, &mut rng, 0.3);
        let remaining: usize = hidden_rel.iter().map(|(_, t)| t.annotations().len()).sum();
        assert_eq!(remaining + hidden.len(), total);
        for u in &hidden {
            assert!(!hidden_rel.tuple(u.tuple).unwrap().contains(u.annotation));
            assert!(ds.relation.tuple(u.tuple).unwrap().contains(u.annotation));
        }
        hidden_rel.check_consistency().unwrap();
    }
}
