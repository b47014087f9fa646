//! Annotation generalization (paper §4.1, Figs. 8–10).
//!
//! Raw annotations come in many formats — free text, flags, timestamps — so
//! correlations on raw values are brittle. A [`Taxonomy`] maps annotations
//! onto *concept labels* ("Invalid", "wrong", "incorrect" ⇒ `Invalidation`)
//! and labels onto higher labels (multi-level hierarchies à la Han & Fu,
//! the paper's reference [1]). Applying a taxonomy to a relation appends
//! each implied label to the carrying tuples — at most once per tuple —
//! producing the *extended annotated database* on which ordinary mining
//! then discovers generalization-based correlations.
//!
//! Formally the taxonomy induces a map on provenance variables, so
//! generalization is a semiring homomorphism on tuple lineage
//! ([`Taxonomy::lineage_hom`]); the property tests in `anno-semiring`
//! cover the homomorphism laws, and the tests here cover the database side.

use crate::fxhash::FxHashMap;
use crate::item::{Item, ItemKind};
use crate::relation::AnnotatedRelation;
use crate::vocab::Vocabulary;
use anno_semiring::Var;

/// A generalization taxonomy: direct parent labels per annotation-like item.
///
/// The structure is a DAG: raw annotations and labels may each have multiple
/// direct parents, and labels may generalize further (multi-level). Cycles
/// are rejected at rule-insertion time.
#[derive(Debug, Clone, Default)]
pub struct Taxonomy {
    parents: FxHashMap<Item, Vec<Item>>,
}

/// A single generalization rule as parsed from a Fig. 9 rules file:
/// each source generalizes to the label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralizationRule {
    /// The annotations or labels being generalized.
    pub sources: Vec<Item>,
    /// The concept label they generalize to.
    pub label: Item,
}

impl Taxonomy {
    /// An empty taxonomy.
    pub fn new() -> Self {
        Taxonomy::default()
    }

    /// Add one edge `source → label`. Returns `false` (and ignores the
    /// edge) if it would create a cycle or is a self-loop.
    pub fn add_edge(&mut self, source: Item, label: Item) -> bool {
        assert!(source.is_annotation_like(), "only annotations generalize");
        assert!(
            label.kind() == ItemKind::Label,
            "generalization target must be a label"
        );
        if source == label || self.ancestors(label).contains(&source) {
            return false;
        }
        let parents = self.parents.entry(source).or_default();
        if parents.contains(&label) {
            return false;
        }
        parents.push(label);
        true
    }

    /// Add a parsed rule: every source gains the label as a parent.
    pub fn add_rule(&mut self, rule: &GeneralizationRule) {
        for &src in &rule.sources {
            self.add_edge(src, rule.label);
        }
    }

    /// Direct parents of `item` (empty slice if none).
    pub fn parents(&self, item: Item) -> &[Item] {
        self.parents.get(&item).map_or(&[], Vec::as_slice)
    }

    /// All (transitive) ancestor labels of `item`, deduplicated, in BFS
    /// order from the item.
    pub fn ancestors(&self, item: Item) -> Vec<Item> {
        let mut out: Vec<Item> = Vec::new();
        let mut frontier = vec![item];
        while let Some(cur) = frontier.pop() {
            for &p in self.parents(cur) {
                if !out.contains(&p) {
                    out.push(p);
                    frontier.push(p);
                }
            }
        }
        out
    }

    /// `true` iff `ancestor` is a strict ancestor of `item`.
    pub fn is_ancestor(&self, ancestor: Item, item: Item) -> bool {
        self.ancestors(item).contains(&ancestor)
    }

    /// Number of edges in the taxonomy.
    pub fn edge_count(&self) -> usize {
        self.parents.values().map(Vec::len).sum()
    }

    /// Build the *extended annotated database* (paper Fig. 10): a copy of
    /// `relation` where every tuple additionally carries the ancestor labels
    /// of each of its annotations, each at most once.
    pub fn extend_relation(&self, relation: &AnnotatedRelation) -> AnnotatedRelation {
        let mut out = relation.clone();
        self.extend_in_place(&mut out);
        out
    }

    /// In-place variant of [`Taxonomy::extend_relation`].
    pub fn extend_in_place(&self, relation: &mut AnnotatedRelation) {
        let tids: Vec<_> = relation.iter().map(|(tid, _)| tid).collect();
        for tid in tids {
            // Collect first: we cannot mutate while borrowing the tuple.
            let mut labels: Vec<Item> = Vec::new();
            let Some(tuple) = relation.tuple(tid) else {
                continue;
            };
            for &ann in tuple.annotations() {
                for anc in self.ancestors(ann) {
                    if !labels.contains(&anc) {
                        labels.push(anc);
                    }
                }
            }
            for label in labels {
                relation.add_annotation(tid, label);
            }
        }
    }

    /// The labels a fresh annotation implies on a tuple, given the tuple's
    /// current annotation set — used by incremental maintenance to extend
    /// Case-3 deltas with generalization labels.
    pub fn implied_labels(&self, ann: Item, already_present: &[Item]) -> Vec<Item> {
        self.ancestors(ann)
            .into_iter()
            .filter(|l| !already_present.contains(l))
            .collect()
    }

    /// The semiring-homomorphism view: a variable map sending each
    /// annotation to its *first-level* concept (or itself if ungeneralized).
    ///
    /// Applying this through [`anno_semiring::rename`] on tuple lineage is
    /// the formal counterpart of [`Taxonomy::extend_relation`] restricted to
    /// one level.
    pub fn lineage_hom(&self) -> impl Fn(Var) -> Var + '_ {
        move |v: Var| {
            let item = Item::from_var(v);
            match self.parents(item).first() {
                Some(&label) => label.as_var(),
                None => v,
            }
        }
    }
}

/// Parse a Fig. 9-style rules file into rules against `vocab`.
///
/// Line grammar (one rule per line, `#` comments, blank lines ignored):
///
/// ```text
/// Annot_1, Annot_5 -> Annot_X
/// Annot_4 => Annot_Y
/// Annot_X -> Annot_TOP          # multi-level: label to parent label
/// ```
///
/// Sources name raw annotations unless already interned as labels (which is
/// how multi-level chains are expressed: a label defined on an earlier line
/// can be generalized further on a later line). Targets are always labels.
pub fn parse_rules(text: &str, vocab: &mut Vocabulary) -> Result<Vec<GeneralizationRule>, String> {
    let mut rules = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (lhs, rhs) = line
            .split_once("=>")
            .or_else(|| line.split_once("->"))
            .ok_or_else(|| format!("line {}: missing '->' in {line:?}", lineno + 1))?;
        let label_name = rhs.trim();
        if label_name.is_empty() {
            return Err(format!("line {}: empty label", lineno + 1));
        }
        let label = vocab.label(label_name);
        let mut sources = Vec::new();
        // Sources are comma-separated (annotation names may contain spaces).
        for tok in lhs.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            // A source that was already defined as a label refers to that
            // label (multi-level chain); otherwise it is a raw annotation.
            let item = vocab
                .get(ItemKind::Label, tok)
                .unwrap_or_else(|| vocab.annotation(tok));
            sources.push(item);
        }
        if sources.is_empty() {
            return Err(format!("line {}: no sources", lineno + 1));
        }
        rules.push(GeneralizationRule { sources, label });
    }
    Ok(rules)
}

/// Build a taxonomy directly from rules text (see [`parse_rules`]).
pub fn taxonomy_from_rules(text: &str, vocab: &mut Vocabulary) -> Result<Taxonomy, String> {
    let rules = parse_rules(text, vocab)?;
    let mut tax = Taxonomy::new();
    for rule in &rules {
        tax.add_rule(rule);
    }
    Ok(tax)
}

/// Build generalization rules by keyword: every annotation whose *name*
/// contains one of the keywords (case-insensitive) generalizes to `label`.
///
/// This captures the paper's motivating example (Fig. 8): free-text
/// annotations containing "Invalid", "wrong", or "incorrect" all generalize
/// to the `Invalidation` concept.
pub fn keyword_rule(
    vocab: &mut Vocabulary,
    keywords: &[&str],
    label_name: &str,
) -> GeneralizationRule {
    let label = vocab.label(label_name);
    let lowered: Vec<String> = keywords.iter().map(|k| k.to_lowercase()).collect();
    let sources: Vec<Item> = vocab
        .items(ItemKind::Annotation)
        .filter(|&a| {
            let name = vocab.name(a).to_lowercase();
            lowered.iter().any(|k| name.contains(k.as_str()))
        })
        .collect();
    GeneralizationRule { sources, label }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn setup() -> (AnnotatedRelation, Item, Item, Item) {
        let mut rel = AnnotatedRelation::new("R");
        let a1 = rel.vocab_mut().annotation("Annot_1");
        let a4 = rel.vocab_mut().annotation("Annot_4");
        let a5 = rel.vocab_mut().annotation("Annot_5");
        let d = rel.vocab_mut().data("10");
        rel.insert(Tuple::new([d], [a1, a5]));
        rel.insert(Tuple::new([d], [a4]));
        rel.insert(Tuple::new([d], []));
        (rel, a1, a4, a5)
    }

    #[test]
    fn parse_rules_supports_both_arrows_and_comments() {
        let mut vocab = Vocabulary::new();
        let rules = parse_rules(
            "# comment\nAnnot_1, Annot_5 -> Annot_X\nAnnot_4 => Annot_Y\n\n",
            &mut vocab,
        )
        .unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].sources.len(), 2);
        assert_eq!(vocab.name(rules[0].label), "Annot_X");
        assert_eq!(rules[1].sources.len(), 1);
    }

    #[test]
    fn parse_rules_rejects_malformed_lines() {
        let mut vocab = Vocabulary::new();
        assert!(parse_rules("Annot_1 Annot_X", &mut vocab).is_err());
        assert!(parse_rules("-> Annot_X", &mut vocab).is_err());
        assert!(parse_rules("Annot_1 ->   ", &mut vocab).is_err());
    }

    #[test]
    fn extend_relation_appends_labels_once() {
        let (mut rel, ..) = setup();
        let tax = taxonomy_from_rules(
            "Annot_1, Annot_5 -> Annot_X\nAnnot_4 -> Annot_Y",
            rel.vocab_mut(),
        )
        .unwrap();
        tax.extend_in_place(&mut rel);
        let x = rel.vocab().get(ItemKind::Label, "Annot_X").unwrap();
        let y = rel.vocab().get(ItemKind::Label, "Annot_Y").unwrap();
        // Tuple 0 had both Annot_1 and Annot_5: the label applies once.
        let t0 = rel.tuple(crate::tuple::TupleId(0)).unwrap();
        assert_eq!(t0.annotations().iter().filter(|&&a| a == x).count(), 1);
        // Tuple 1 had Annot_4 → Annot_Y.
        assert!(rel.tuple(crate::tuple::TupleId(1)).unwrap().contains(y));
        // Tuple 2 was unannotated → untouched.
        assert!(rel
            .tuple(crate::tuple::TupleId(2))
            .unwrap()
            .is_unannotated());
        assert_eq!(rel.index().frequency(x), 1);
        rel.check_consistency().unwrap();
    }

    #[test]
    fn multi_level_chains_reach_all_ancestors() {
        let mut vocab = Vocabulary::new();
        let tax = taxonomy_from_rules("Annot_1 -> Mid\nMid -> Top", &mut vocab).unwrap();
        let a1 = vocab.get(ItemKind::Annotation, "Annot_1").unwrap();
        let mid = vocab.get(ItemKind::Label, "Mid").unwrap();
        let top = vocab.get(ItemKind::Label, "Top").unwrap();
        assert_eq!(tax.ancestors(a1), vec![mid, top]);
        assert!(tax.is_ancestor(top, a1));
        assert!(!tax.is_ancestor(a1, a1));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut vocab = Vocabulary::new();
        let mut tax = Taxonomy::new();
        let a = vocab.label("A");
        let b = vocab.label("B");
        assert!(tax.add_edge(a, b));
        assert!(!tax.add_edge(b, a), "cycle must be rejected");
        assert!(!tax.add_edge(a, a), "self-loop must be rejected");
        assert!(!tax.add_edge(a, b), "duplicate edge must be rejected");
        assert_eq!(tax.edge_count(), 1);
    }

    #[test]
    fn implied_labels_skip_present_ones() {
        let mut vocab = Vocabulary::new();
        let tax = taxonomy_from_rules("Annot_1 -> X\nAnnot_1 -> Y", &mut vocab).unwrap();
        let a1 = vocab.get(ItemKind::Annotation, "Annot_1").unwrap();
        let x = vocab.get(ItemKind::Label, "X").unwrap();
        let y = vocab.get(ItemKind::Label, "Y").unwrap();
        assert_eq!(tax.implied_labels(a1, &[x]), vec![y]);
    }

    #[test]
    fn keyword_rule_matches_substrings_case_insensitively() {
        let mut vocab = Vocabulary::new();
        let bad = vocab.annotation("flagged: INVALID entry");
        let wrong = vocab.annotation("this looks wrong");
        let fine = vocab.annotation("verified by curator");
        let rule = keyword_rule(&mut vocab, &["invalid", "wrong"], "Invalidation");
        assert!(rule.sources.contains(&bad));
        assert!(rule.sources.contains(&wrong));
        assert!(!rule.sources.contains(&fine));
        assert_eq!(vocab.name(rule.label), "Invalidation");
    }

    #[test]
    fn lineage_hom_maps_generalized_annotations() {
        let mut vocab = Vocabulary::new();
        let tax = taxonomy_from_rules("Annot_1 -> X", &mut vocab).unwrap();
        let a1 = vocab.get(ItemKind::Annotation, "Annot_1").unwrap();
        let a2 = vocab.annotation("Annot_2");
        let x = vocab.get(ItemKind::Label, "X").unwrap();
        let h = tax.lineage_hom();
        assert_eq!(h(a1.as_var()), x.as_var());
        assert_eq!(h(a2.as_var()), a2.as_var());
    }
}
