//! Rule-file output (paper Fig. 7) and its parser.
//!
//! The application of the paper writes discovered rules to a text file,
//! one rule per line:
//!
//! ```text
//! 28, 85 -> Annot_1 (conf=0.9659, sup=0.4194)
//! ```
//!
//! [`RuleSet::render`](crate::rules::RuleSet::render) writes that format
//! (rules sorted by descending confidence, as in the figure);
//! [`parse_rules_file`] reads it back for round-trip tests and external
//! tooling. Parsed rules reconstruct fractional support/confidence only —
//! the text format does not carry raw counts — so round-trips compare
//! identities and fractions, not counts.

use anno_store::{ItemKind, Vocabulary};

use crate::itemset::ItemSet;

/// A rule as recovered from a Fig. 7 file: identity plus fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRule {
    /// The antecedent.
    pub lhs: ItemSet,
    /// The consequent annotation.
    pub rhs: anno_store::Item,
    /// The printed confidence.
    pub confidence: f64,
    /// The printed support.
    pub support: f64,
}

/// Parse a Fig. 7 rules file. Tokens are resolved against `vocab` exactly
/// like dataset tokens: all-digit names are data values, everything else is
/// an annotation (concept labels must already be interned to be recognised
/// as labels).
pub fn parse_rules_file(vocab: &mut Vocabulary, text: &str) -> Result<Vec<ParsedRule>, String> {
    let mut out = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let (body, metrics) = line
            .rsplit_once('(')
            .ok_or_else(|| err("missing '(conf=…, sup=…)'"))?;
        let metrics = metrics.trim_end_matches(')');
        let mut conf = None;
        let mut sup = None;
        for part in metrics.split(',') {
            let part = part.trim();
            if let Some(v) = part.strip_prefix("conf=") {
                conf = v.parse::<f64>().ok();
            } else if let Some(v) = part.strip_prefix("sup=") {
                sup = v.parse::<f64>().ok();
            }
        }
        let (confidence, support) = match (conf, sup) {
            (Some(c), Some(s)) => (c, s),
            _ => return Err(err("malformed metrics")),
        };
        let (lhs_text, rhs_text) = body.rsplit_once("->").ok_or_else(|| err("missing '->'"))?;
        let rhs_name = rhs_text.trim();
        if rhs_name.is_empty() {
            return Err(err("empty consequent"));
        }
        let rhs = vocab
            .get(ItemKind::Label, rhs_name)
            .unwrap_or_else(|| vocab.annotation(rhs_name));
        let mut lhs_items = Vec::new();
        for tok in lhs_text.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let item = if tok.bytes().all(|b| b.is_ascii_digit()) {
                vocab.data(tok)
            } else {
                vocab
                    .get(ItemKind::Label, tok)
                    .unwrap_or_else(|| vocab.annotation(tok))
            };
            lhs_items.push(item);
        }
        if lhs_items.is_empty() {
            return Err(err("empty antecedent"));
        }
        out.push(ParsedRule {
            lhs: ItemSet::from_unsorted(lhs_items),
            rhs,
            confidence,
            support,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{AssociationRule, RuleSet};

    #[test]
    fn writes_sorted_by_confidence_desc() {
        let mut vocab = Vocabulary::new();
        let x = vocab.data("28");
        let y = vocab.data("85");
        let a1 = vocab.annotation("Annot_1");
        let a2 = vocab.annotation("Annot_2");
        let strong = AssociationRule {
            lhs: ItemSet::from_unsorted(vec![x, y]),
            rhs: a1,
            union_count: 4194,
            lhs_count: 4342,
            rhs_count: 5000,
            db_size: 10000,
        };
        let weak = AssociationRule {
            lhs: ItemSet::single(x),
            rhs: a2,
            union_count: 5000,
            lhs_count: 9000,
            rhs_count: 6000,
            db_size: 10000,
        };
        let rules = RuleSet::from_rules(vec![weak, strong]);
        let text = rules.render(&vocab);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "28, 85 -> Annot_1 (conf=0.9659, sup=0.4194)");
        assert!(lines[1].starts_with("28 -> Annot_2"));
    }

    #[test]
    fn roundtrip_preserves_identity_and_fractions() {
        let mut vocab = Vocabulary::new();
        let x = vocab.data("28");
        let a1 = vocab.annotation("Annot_1");
        let rule = AssociationRule {
            lhs: ItemSet::single(x),
            rhs: a1,
            union_count: 3,
            lhs_count: 4,
            rhs_count: 5,
            db_size: 10,
        };
        let rules = RuleSet::from_rules(vec![rule.clone()]);
        let text = rules.render(&vocab);
        let parsed = parse_rules_file(&mut vocab, &text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].lhs, rule.lhs);
        assert_eq!(parsed[0].rhs, rule.rhs);
        assert!((parsed[0].confidence - 0.75).abs() < 1e-4);
        assert!((parsed[0].support - 0.3).abs() < 1e-4);
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        let mut vocab = Vocabulary::new();
        assert!(parse_rules_file(&mut vocab, "28 -> A").is_err());
        assert!(parse_rules_file(&mut vocab, "28 A (conf=0.5, sup=0.1)").is_err());
        assert!(parse_rules_file(&mut vocab, "-> A (conf=0.5, sup=0.1)").is_err());
        assert!(parse_rules_file(&mut vocab, "28 -> (conf=0.5, sup=0.1)").is_err());
        assert!(parse_rules_file(&mut vocab, "28 -> A (conf=x, sup=0.1)").is_err());
        let err = parse_rules_file(&mut vocab, "28 -> A (conf=0.5, sup=0.1)\nbad").unwrap_err();
        assert!(err.contains("line 2"));
    }
}
