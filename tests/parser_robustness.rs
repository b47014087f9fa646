//! Robustness: every parser and decoder in the workspace must return
//! `Err`/skip on arbitrary input — never panic — and accept its own
//! writers' output. The text parsers are exercised with random strings;
//! the binary relation and miner decoders with random bytes, valid
//! encodings cut at every length, and valid encodings with one byte
//! changed. A decoded relation must pass `check_consistency`.

use annomine::mine::{IncrementalConfig, IncrementalMiner, Thresholds};
use annomine::store::codec::Cursor;
use annomine::store::{
    parse_annotation_batch, parse_dataset, parse_rules, parse_tuple_line, AnnotatedRelation,
    TupleId, Vocabulary,
};
use proptest::prelude::*;

/// Decode a whole relation encoding.
fn relation_from(bytes: &[u8]) -> Result<AnnotatedRelation, String> {
    let mut cur = Cursor::new(bytes);
    let rel = AnnotatedRelation::decode(&mut cur)?;
    cur.finish()?;
    Ok(rel)
}

/// What any input must give: an `Err`, or a consistent relation.
fn err_or_consistent(bytes: &[u8]) -> Result<(), TestCaseError> {
    match relation_from(bytes) {
        Ok(rel) => rel.check_consistency().map_err(TestCaseError::fail),
        Err(_) => Ok(()),
    }
}

/// Decode a whole miner encoding.
fn miner_from(bytes: &[u8]) -> Result<IncrementalMiner, String> {
    let mut cur = Cursor::new(bytes);
    let miner = IncrementalMiner::decode(&mut cur)?;
    cur.finish()?;
    Ok(miner)
}

/// Valid encodings to mutate: Fig. 4's rows plus a label, a spaced name
/// and a tombstone, and the miner mined over them.
fn valid_encodings() -> (Vec<u8>, Vec<u8>) {
    let mut rel = AnnotatedRelation::new("fig 4");
    for line in [
        "28 85 Annot_1",
        "28 85 Annot_1",
        "28 85 Annot_1",
        "28 85",
        "17 99",
    ] {
        let tuple = parse_tuple_line(rel.vocab_mut(), line).unwrap();
        rel.insert(tuple);
    }
    let label = rel.vocab_mut().label("looks wrong");
    rel.add_annotation(TupleId(0), label);
    rel.delete_tuple(TupleId(3));
    let config = IncrementalConfig {
        thresholds: Thresholds::new(0.4, 0.7),
        retention: 0.5,
    };
    let miner = IncrementalMiner::mine_initial(&rel, config);
    let (mut rel_bytes, mut miner_bytes) = (Vec::new(), Vec::new());
    rel.encode(&mut rel_bytes);
    miner.encode(&mut miner_bytes);
    (rel_bytes, miner_bytes)
}

#[test]
fn binary_decoders_accept_their_own_encodings() {
    let (rel, miner) = valid_encodings();
    let decoded = relation_from(&rel).unwrap();
    assert_eq!(decoded.len(), 4);
    miner_from(&miner)
        .unwrap()
        .validate_against(&decoded)
        .unwrap();
}

#[test]
fn binary_decoders_survive_every_truncation() {
    let (rel, miner) = valid_encodings();
    for len in 0..rel.len() {
        assert!(relation_from(&rel[..len]).is_err(), "relation cut at {len}");
    }
    for len in 0..miner.len() {
        assert!(miner_from(&miner[..len]).is_err(), "miner cut at {len}");
    }
}

#[test]
fn binary_decoders_survive_every_single_byte_change() {
    let (rel, miner) = valid_encodings();
    let decoded = relation_from(&rel).unwrap();
    for at in 0..rel.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bytes = rel.clone();
            bytes[at] ^= flip;
            err_or_consistent(&bytes).unwrap();
        }
    }
    for at in 0..miner.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bytes = miner.clone();
            bytes[at] ^= flip;
            if let Ok(m) = miner_from(&bytes) {
                let _ = m.validate_against(&decoded);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dataset_parser_never_panics(text in "\\PC*") {
        let _ = parse_dataset("r", &text);
    }

    #[test]
    fn dataset_parser_accepts_token_lines(
        lines in proptest::collection::vec("[ -~]{0,40}", 0..10),
    ) {
        // Printable-ASCII lines: parsing must not panic and every parsed
        // tuple must be internally consistent.
        let text = lines.join("\n");
        if let Ok(rel) = parse_dataset("r", &text) {
            rel.check_consistency().map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn annotation_batch_parser_never_panics(text in "\\PC*") {
        let mut vocab = Vocabulary::new();
        let _ = parse_annotation_batch(&mut vocab, &text);
    }

    #[test]
    fn generalization_rules_parser_never_panics(text in "\\PC*") {
        let mut vocab = Vocabulary::new();
        let _ = parse_rules(&text, &mut vocab);
    }

    #[test]
    fn rules_file_parser_never_panics(text in "\\PC*") {
        let mut vocab = Vocabulary::new();
        let _ = annomine::mine::parse_rules_file(&mut vocab, &text);
    }

    #[test]
    fn snapshot_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        err_or_consistent(&bytes)?;
    }

    #[test]
    fn snapshot_parser_survives_header_plus_junk(
        cut in 0usize..4096,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // A valid encoding's first bytes, then anything.
        let (rel, _) = valid_encodings();
        let mut bytes = rel[..cut % rel.len()].to_vec();
        bytes.extend(junk);
        err_or_consistent(&bytes)?;
    }

    #[test]
    fn checkpoint_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = miner_from(&bytes);
    }

    #[test]
    fn checkpoint_parser_survives_header_plus_junk(
        cut in 0usize..4096,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let (_, miner) = valid_encodings();
        let mut bytes = miner[..cut % miner.len()].to_vec();
        bytes.extend(junk);
        let _ = miner_from(&bytes);
    }
}
