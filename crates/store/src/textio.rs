//! The paper's line-oriented text formats.
//!
//! Three formats appear in the report and are reproduced byte-compatibly:
//!
//! * **Dataset files** (Fig. 4): one tuple per line; whitespace/comma
//!   separated tokens; all-digit tokens are data-value ids, everything else
//!   is an annotation (`28 85 102 Annot_4 Annot_5`). The same format carries
//!   annotated and un-annotated tuple batches (Cases 1–2).
//! * **Annotation batches** (Fig. 14): `150: Annot_3` — attach `Annot_3` to
//!   the tuple at 0-based position 150 (Case 3).
//! * **Generalization rules** (Fig. 9) — parsed in
//!   [`crate::generalize::parse_rules`].
//!
//! Parsers take `&str` and a [`Vocabulary`]; writers emit deterministic,
//! diff-friendly output.

use crate::item::{Item, ItemKind};
use crate::relation::{AnnotatedRelation, AnnotationUpdate};
use crate::tuple::{Tuple, TupleId};
use crate::vocab::Vocabulary;

/// A parse failure, with the 1-based line number where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The Fig. 4 token-kind convention: digit-only tokens are data values,
/// anything else is an annotation. The single classification both the
/// dataset parser and name-resolving layers (e.g. the serving protocol)
/// must share — re-implementing it risks write/read-side divergence.
pub fn token_kind(tok: &str) -> ItemKind {
    if !tok.is_empty() && tok.bytes().all(|b| b.is_ascii_digit()) {
        ItemKind::Data
    } else {
        ItemKind::Annotation
    }
}

fn parse_token(vocab: &mut Vocabulary, tok: &str) -> Item {
    match token_kind(tok) {
        ItemKind::Data => vocab.data(tok),
        _ => vocab.annotation(tok),
    }
}

/// The line with any `#` comment stripped and whitespace trimmed — the
/// single source of truth for what the Fig. 4 parsers look at.
fn comment_stripped(line: &str) -> &str {
    line.split('#').next().unwrap_or("").trim()
}

/// `true` iff `line` holds at least one item token — i.e.
/// [`parse_tuple_line`] would return `Some`. The single predicate layers
/// use to pre-validate rows (serving protocol, write-queue prefilter)
/// without re-implementing the skip rule: blank lines, `#` comments, and
/// separator-only lines (`","`) all fail it.
pub fn line_has_items(line: &str) -> bool {
    comment_stripped(line)
        .split([',', ' ', '\t'])
        .any(|t| !t.trim().is_empty())
}

/// Parse one Fig. 4 dataset line into a tuple. Returns `None` for lines
/// with no items: blank, comment (`#`), or separator-only (e.g. `","`) —
/// an empty tuple must never be inserted, since it would silently grow
/// every support denominator.
pub fn parse_tuple_line(vocab: &mut Vocabulary, line: &str) -> Option<Tuple> {
    let body = comment_stripped(line);
    let items: Vec<Item> = body
        .split([',', ' ', '\t'])
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| parse_token(vocab, t))
        .collect();
    if items.is_empty() {
        return None;
    }
    Some(Tuple::from_items(items))
}

/// Parse a whole Fig. 4 dataset into a fresh relation named `name`.
pub fn parse_dataset(name: &str, text: &str) -> Result<AnnotatedRelation, ParseError> {
    let mut rel = AnnotatedRelation::new(name);
    for line in text.lines() {
        if let Some(tuple) = parse_tuple_line(rel.vocab_mut(), line) {
            rel.insert(tuple);
        }
    }
    Ok(rel)
}

/// Render one tuple as a Fig. 4 dataset line.
pub fn format_tuple(vocab: &Vocabulary, tuple: &Tuple) -> String {
    let mut out = String::new();
    for (i, &item) in tuple.items().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(vocab.name(item));
    }
    out
}

/// Render a whole relation in Fig. 4 dataset format (live tuples only, in
/// id order), one line per tuple.
pub fn dataset_to_string(rel: &AnnotatedRelation) -> String {
    let mut out = String::new();
    for (_, tuple) in rel.iter() {
        out.push_str(&format_tuple(rel.vocab(), tuple));
        out.push('\n');
    }
    out
}

/// Parse a Fig. 14 annotation batch (`150: Annot_3` per line) against a
/// vocabulary. Tuple positions are 0-based ids into the target relation.
pub fn parse_annotation_batch(
    vocab: &mut Vocabulary,
    text: &str,
) -> Result<Vec<AnnotationUpdate>, ParseError> {
    let mut updates = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (pos, ann) = line.split_once(':').ok_or_else(|| ParseError {
            line: lineno + 1,
            message: format!("expected 'tuple: annotation', got {line:?}"),
        })?;
        let tid: u32 = pos.trim().parse().map_err(|_| ParseError {
            line: lineno + 1,
            message: format!("invalid tuple id {:?}", pos.trim()),
        })?;
        let ann = ann.trim();
        if ann.is_empty() {
            return Err(ParseError {
                line: lineno + 1,
                message: "empty annotation".into(),
            });
        }
        updates.push(AnnotationUpdate {
            tuple: TupleId(tid),
            annotation: vocab.annotation(ann),
        });
    }
    Ok(updates)
}

/// Render an annotation batch in Fig. 14 format.
pub fn format_annotation_batch(vocab: &Vocabulary, updates: &[AnnotationUpdate]) -> String {
    let mut out = String::new();
    for u in updates {
        out.push_str(&format!("{}: {}\n", u.tuple.0, vocab.name(u.annotation)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::ItemKind;

    const SAMPLE: &str = "\
28 85 102 Annot_4 Annot_5
17 85 Annot_1
99 3 17
";

    #[test]
    fn parse_dataset_distinguishes_values_from_annotations() {
        let rel = parse_dataset("R", SAMPLE).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.vocab().count(ItemKind::Data), 6); // 28 85 102 17 99 3
        assert_eq!(rel.vocab().count(ItemKind::Annotation), 3);
        let t0 = rel.tuple(TupleId(0)).unwrap();
        assert_eq!(t0.data().len(), 3);
        assert_eq!(t0.annotations().len(), 2);
        let t2 = rel.tuple(TupleId(2)).unwrap();
        assert!(t2.is_unannotated());
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        let rel = parse_dataset("R", "# header\n\n1 2 Annot_1 # trailing\n").unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuple(TupleId(0)).unwrap().annotations().len(), 1);
    }

    #[test]
    fn commas_and_tabs_are_separators() {
        let rel = parse_dataset("R", "1, 2,\tAnnot_1\n").unwrap();
        let t = rel.tuple(TupleId(0)).unwrap();
        assert_eq!(t.data().len(), 2);
        assert_eq!(t.annotations().len(), 1);
    }

    #[test]
    fn dataset_roundtrips() {
        let rel = parse_dataset("R", SAMPLE).unwrap();
        let text = dataset_to_string(&rel);
        let rel2 = parse_dataset("R", &text).unwrap();
        assert_eq!(rel.len(), rel2.len());
        for (tid, tuple) in rel.iter() {
            let names: Vec<&str> = tuple.items().iter().map(|&i| rel.vocab().name(i)).collect();
            let tuple2 = rel2.tuple(tid).unwrap();
            let names2: Vec<&str> = tuple2
                .items()
                .iter()
                .map(|&i| rel2.vocab().name(i))
                .collect();
            let mut a = names.clone();
            let mut b = names2.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "tuple {tid} differs after round-trip");
        }
    }

    #[test]
    fn annotation_batch_parses_fig14_lines() {
        let mut vocab = Vocabulary::new();
        let updates =
            parse_annotation_batch(&mut vocab, "150: Annot_3\n7: Annot_1 # why\n").unwrap();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].tuple, TupleId(150));
        assert_eq!(vocab.name(updates[0].annotation), "Annot_3");
    }

    #[test]
    fn annotation_batch_rejects_malformed_lines() {
        let mut vocab = Vocabulary::new();
        assert!(parse_annotation_batch(&mut vocab, "no colon here").is_err());
        assert!(parse_annotation_batch(&mut vocab, "x: Annot_1").is_err());
        assert!(parse_annotation_batch(&mut vocab, "5:").is_err());
        let err = parse_annotation_batch(&mut vocab, "1: A\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn annotation_batch_roundtrips() {
        let mut vocab = Vocabulary::new();
        let updates = parse_annotation_batch(&mut vocab, "1: A\n2: B\n").unwrap();
        let text = format_annotation_batch(&vocab, &updates);
        let again = parse_annotation_batch(&mut vocab, &text).unwrap();
        assert_eq!(updates, again);
    }
}
