//! Binary codec between serving-layer state and `anno-wal` payloads.
//!
//! The log crate is payload-agnostic; this module defines what `annod`
//! actually writes into it:
//!
//! * a **drain record** — the coalesced [`UpdateOp`] batches of one
//!   writer pass, logged *before* they are applied (group commit: one
//!   record, one flush per drain);
//! * a **mine record** — the `mine` command with its configuration, so a
//!   recovered dataset re-derives its first rule set at the same point in
//!   the op stream;
//! * a **checkpoint payload** — a magic and format version, the relation
//!   (`AnnotatedRelation::encode`), the miner once mined
//!   (`IncrementalMiner::encode`) and the publish sequence. The discovery
//!   index is derived state: restore rebuilds it from the miner's table.
//!
//! Replay determinism: raw item ids are stable across recovery because
//! the relation encoding re-interns names in stored order, and every post-
//! checkpoint interning happens inside a logged op that replays in the
//! same order (the writer sorts within-batch updates identically on the
//! live and replay paths — see `dataset::sort_for_segment_locality`).
//!
//! Everything is written with `anno_store::codec`, so decoding is
//! defensive — a hostile or bit-rotted payload yields an `Err`, never a
//! panic or an unbounded allocation.

use anno_mine::{IncrementalConfig, IncrementalMiner};
use anno_store::codec::{put_count, put_str, put_u32, put_u64, Cursor};
use anno_store::{AnnotatedRelation, AnnotationUpdate, Tuple, TupleId};

use crate::queue::UpdateOp;

/// One logged record of the serving layer.
#[derive(Debug, Clone)]
pub(crate) enum WalRecord {
    /// The coalesced batches of one writer drain, in application order.
    Drain(Vec<UpdateOp>),
    /// A `mine` with this configuration happened at this log position.
    Mine(IncrementalConfig),
}

const KIND_DRAIN: u8 = 0;
const KIND_MINE: u8 = 1;

const TAG_INSERT_ROWS: u8 = 0;
const TAG_INSERT_TUPLES: u8 = 1;
const TAG_ANNOTATE: u8 = 2;
const TAG_ANNOTATE_NAMED: u8 = 3;
const TAG_REMOVE_ANNOTATIONS: u8 = 4;
const TAG_REMOVE_NAMED: u8 = 5;
const TAG_DELETE_TUPLES: u8 = 6;

/// Serialize one drain record from the writer's coalesced batches.
pub(crate) fn encode_drain(ops: &[UpdateOp]) -> Vec<u8> {
    let mut out = vec![KIND_DRAIN];
    put_count(&mut out, ops.len());
    for op in ops {
        encode_op(&mut out, op);
    }
    out
}

/// Serialize one mine record. The trailing byte is reserved: builds
/// before PR 19 wrote a counting-strategy tag there (0, 1 or 2) and refuse
/// a record without it, so it stays, as `0`.
pub(crate) fn encode_mine(config: &IncrementalConfig) -> Vec<u8> {
    let mut out = vec![KIND_MINE];
    config.encode(&mut out);
    out.push(0);
    out
}

/// Deserialize one record.
pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord, String> {
    let mut cur = Cursor::new(bytes);
    let record = match cur.u8()? {
        // An op is at least its tag and its element count.
        KIND_DRAIN => WalRecord::Drain(cur.list(5, decode_op)?),
        KIND_MINE => {
            let config =
                IncrementalConfig::decode(&mut cur).map_err(|m| format!("mine record {m}"))?;
            // The reserved byte: the three strategies old builds tagged
            // here produced identical tables, so the value is not kept.
            match cur.u8()? {
                0..=2 => {}
                other => return Err(format!("unknown counting strategy tag {other}")),
            }
            WalRecord::Mine(config)
        }
        other => return Err(format!("unknown wal record kind {other}")),
    };
    cur.finish()?;
    Ok(record)
}

/// What a checkpoint payload starts with. The text-inside-frame payloads
/// older builds wrote begin with a u32 length and `annodb-snapshot v1`.
const CHECKPOINT_MAGIC: &[u8; 8] = b"annockpt";
const CHECKPOINT_VERSION: u32 = 2;
const TEXT_CHECKPOINT: &[u8] = b"annodb-snapshot v1";

/// Serialize a checkpoint payload: the relation, the miner once mined,
/// and the dataset's publish sequence number at capture time — recovery
/// seeds its own publish counter from it so a client comparing snapshot
/// epochs never sees time run backwards across a restart.
pub(crate) fn encode_checkpoint(
    relation: &AnnotatedRelation,
    miner: Option<&IncrementalMiner>,
    publish_seq: u64,
) -> Vec<u8> {
    let mut out = CHECKPOINT_MAGIC.to_vec();
    put_u32(&mut out, CHECKPOINT_VERSION);
    relation.encode(&mut out);
    match miner {
        Some(miner) => {
            out.push(1);
            miner.encode(&mut out);
        }
        None => out.push(0),
    }
    put_u64(&mut out, publish_seq);
    out
}

/// Deserialize a checkpoint payload into the relation, the miner (`None`
/// before the first `mine`) and the captured publish sequence. Every
/// field [`encode_checkpoint`] writes is required, and nothing may follow
/// them. A payload in the retired text format is refused by name.
pub(crate) fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(AnnotatedRelation, Option<IncrementalMiner>, u64), String> {
    if bytes
        .get(4..)
        .is_some_and(|text| text.starts_with(TEXT_CHECKPOINT))
    {
        return Err("written in the retired text format (annodb-snapshot v1 + \
                    annomine-checkpoint v1), which this build no longer reads"
            .to_string());
    }
    let mut cur = Cursor::new(bytes);
    if cur.take(CHECKPOINT_MAGIC.len())? != CHECKPOINT_MAGIC {
        return Err("not a checkpoint payload".to_string());
    }
    match cur.u32()? {
        CHECKPOINT_VERSION => {}
        other => return Err(format!("unknown checkpoint format version {other}")),
    }
    let relation = AnnotatedRelation::decode(&mut cur).map_err(|m| format!("relation: {m}"))?;
    let miner = match cur.u8()? {
        0 => None,
        1 => Some(IncrementalMiner::decode(&mut cur).map_err(|m| format!("miner: {m}"))?),
        other => return Err(format!("bad miner-presence flag {other}")),
    };
    let publish_seq = cur.u64()?;
    cur.finish()?;
    Ok((relation, miner, publish_seq))
}

fn encode_op(out: &mut Vec<u8>, op: &UpdateOp) {
    match op {
        UpdateOp::InsertRows(lines) => {
            out.push(TAG_INSERT_ROWS);
            put_count(out, lines.len());
            for line in lines {
                put_str(out, line);
            }
        }
        UpdateOp::InsertTuples(tuples) => {
            out.push(TAG_INSERT_TUPLES);
            put_count(out, tuples.len());
            for tuple in tuples {
                put_count(out, tuple.items().len());
                for item in tuple.items() {
                    put_u32(out, item.raw());
                }
            }
        }
        UpdateOp::Annotate(updates) => {
            out.push(TAG_ANNOTATE);
            encode_updates(out, updates);
        }
        UpdateOp::AnnotateNamed(named) => {
            out.push(TAG_ANNOTATE_NAMED);
            encode_named(out, named);
        }
        UpdateOp::RemoveAnnotations(updates) => {
            out.push(TAG_REMOVE_ANNOTATIONS);
            encode_updates(out, updates);
        }
        UpdateOp::RemoveNamed(named) => {
            out.push(TAG_REMOVE_NAMED);
            encode_named(out, named);
        }
        UpdateOp::DeleteTuples(tids) => {
            out.push(TAG_DELETE_TUPLES);
            put_count(out, tids.len());
            for tid in tids {
                put_u32(out, tid.0);
            }
        }
    }
}

fn decode_op(cur: &mut Cursor<'_>) -> Result<UpdateOp, String> {
    // Every element an op counts takes at least four bytes.
    const MIN: usize = 4;
    Ok(match cur.u8()? {
        TAG_INSERT_ROWS => UpdateOp::InsertRows(cur.list(MIN, Cursor::str)?),
        TAG_INSERT_TUPLES => UpdateOp::InsertTuples(cur.list(MIN, |cur| {
            Ok(Tuple::from_items(cur.list(MIN, Cursor::item)?))
        })?),
        TAG_ANNOTATE => UpdateOp::Annotate(cur.list(MIN, decode_update)?),
        TAG_ANNOTATE_NAMED => UpdateOp::AnnotateNamed(cur.list(MIN, decode_named)?),
        TAG_REMOVE_ANNOTATIONS => UpdateOp::RemoveAnnotations(cur.list(MIN, decode_update)?),
        TAG_REMOVE_NAMED => UpdateOp::RemoveNamed(cur.list(MIN, decode_named)?),
        TAG_DELETE_TUPLES => UpdateOp::DeleteTuples(cur.list(MIN, |cur| cur.u32().map(TupleId))?),
        other => return Err(format!("unknown update-op tag {other}")),
    })
}

fn encode_updates(out: &mut Vec<u8>, updates: &[AnnotationUpdate]) {
    put_count(out, updates.len());
    for u in updates {
        put_u32(out, u.tuple.0);
        put_u32(out, u.annotation.raw());
    }
}

fn decode_update(cur: &mut Cursor<'_>) -> Result<AnnotationUpdate, String> {
    let tuple = TupleId(cur.u32()?);
    let annotation = cur.item()?;
    Ok(AnnotationUpdate { tuple, annotation })
}

fn encode_named(out: &mut Vec<u8>, named: &[(TupleId, String)]) {
    put_count(out, named.len());
    for (tid, name) in named {
        put_u32(out, tid.0);
        put_str(out, name);
    }
}

fn decode_named(cur: &mut Cursor<'_>) -> Result<(TupleId, String), String> {
    let tid = TupleId(cur.u32()?);
    Ok((tid, cur.str()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_mine::Thresholds;
    use anno_store::{snapshot_to_string, Item};

    fn sample_ops() -> Vec<UpdateOp> {
        vec![
            UpdateOp::InsertRows(vec!["28 85 Annot_1".into(), "17 99".into()]),
            UpdateOp::InsertTuples(vec![
                Tuple::from_items(vec![Item::data(3), Item::annotation(1)]),
                Tuple::from_items(vec![]),
            ]),
            UpdateOp::Annotate(vec![AnnotationUpdate {
                tuple: TupleId(7),
                annotation: Item::annotation(2),
            }]),
            UpdateOp::AnnotateNamed(vec![(TupleId(0), "weird name %".into())]),
            UpdateOp::RemoveAnnotations(vec![AnnotationUpdate {
                tuple: TupleId(1),
                annotation: Item::annotation(2),
            }]),
            UpdateOp::RemoveNamed(vec![(TupleId(2), "Annot_1".into())]),
            UpdateOp::DeleteTuples(vec![TupleId(4), TupleId(5)]),
        ]
    }

    fn op_eq(a: &UpdateOp, b: &UpdateOp) -> bool {
        // UpdateOp has no PartialEq; compare through the codec's own
        // canonical bytes (injective by construction).
        let mut ba = Vec::new();
        let mut bb = Vec::new();
        encode_op(&mut ba, a);
        encode_op(&mut bb, b);
        ba == bb
    }

    #[test]
    fn drain_records_roundtrip() {
        let ops = sample_ops();
        let bytes = encode_drain(&ops);
        match decode(&bytes).unwrap() {
            WalRecord::Drain(back) => {
                assert_eq!(back.len(), ops.len());
                for (a, b) in ops.iter().zip(&back) {
                    assert!(op_eq(a, b), "{a:?} != {b:?}");
                }
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn mine_records_roundtrip_config_bit_exactly() {
        let config = IncrementalConfig {
            thresholds: Thresholds::new(1.0 / 3.0, 0.755),
            retention: 0.61803,
        };
        let bytes = encode_mine(&config);
        match decode(&bytes).unwrap() {
            WalRecord::Mine(back) => {
                assert_eq!(back.thresholds.min_support, 1.0 / 3.0);
                assert_eq!(back.thresholds.min_confidence, 0.755);
                assert_eq!(back.retention, 0.61803);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn mine_record_bytes_are_the_ones_every_build_wrote() {
        // Copied from the encoder before the counting knob left the
        // config (kind, α, β, retention bits, strategy tag 0 = hash tree,
        // the only value serving ever wrote).
        let parent: &[u8] = b"\x01\x9a\x99\x99\x99\x99\x99\xd9\x3f\x9a\x99\x99\x99\x99\x99\xe9\x3f\
                              \x00\x00\x00\x00\x00\x00\xe0\x3f\x00";
        assert_eq!(encode_mine(&IncrementalConfig::default()), parent);
    }

    #[test]
    fn mine_records_decode_whatever_an_old_build_tagged() {
        let written = encode_mine(&IncrementalConfig::default());
        let tag = written.len() - 1;
        for old in [0u8, 1, 2] {
            let mut bytes = written.clone();
            bytes[tag] = old;
            match decode(&bytes).unwrap() {
                WalRecord::Mine(back) => assert_eq!(encode_mine(&back), written),
                other => panic!("wrong kind: {other:?}"),
            }
        }
        let mut bytes = written;
        bytes[tag] = 3;
        assert!(decode(&bytes).unwrap_err().contains("counting strategy"));
    }

    /// Fig. 4's rows with one tuple deleted, mined at α = 0.4, β = 0.7.
    fn mined_fig4() -> (AnnotatedRelation, IncrementalMiner) {
        let mut rel = AnnotatedRelation::new("db");
        for line in [
            "28 85 Annot_1",
            "28 85 Annot_1",
            "28 85 Annot_1",
            "28 85",
            "17 99",
        ] {
            let tuple = anno_store::parse_tuple_line(rel.vocab_mut(), line).unwrap();
            rel.insert(tuple);
        }
        rel.delete_tuple(TupleId(4));
        let config = IncrementalConfig {
            thresholds: Thresholds::new(0.4, 0.7),
            retention: 0.5,
        };
        let miner = IncrementalMiner::mine_initial(&rel, config);
        (rel, miner)
    }

    #[test]
    fn checkpoint_payloads_roundtrip() {
        let (rel, miner) = mined_fig4();
        let bytes = encode_checkpoint(&rel, Some(&miner), 17);
        let (back, back_miner, seq) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(snapshot_to_string(&back), snapshot_to_string(&rel));
        let back_miner = back_miner.expect("mined");
        assert_eq!(back_miner.table().sorted(), miner.table().sorted());
        assert!(back_miner.rules().identical_to(miner.rules()));
        assert_eq!(seq, 17);
        assert_eq!(encode_checkpoint(&back, Some(&back_miner), 17), bytes);
        let (back, back_miner, seq) = decode_checkpoint(&encode_checkpoint(&rel, None, 0)).unwrap();
        assert_eq!(snapshot_to_string(&back), snapshot_to_string(&rel));
        assert!(back_miner.is_none());
        assert_eq!(seq, 0);
    }

    #[test]
    fn short_checkpoint_payloads_are_typed_errors() {
        // Every field is required: a payload cut anywhere is an error,
        // whichever field it ends in.
        let (rel, miner) = mined_fig4();
        for bytes in [
            encode_checkpoint(&rel, Some(&miner), 7),
            encode_checkpoint(&rel, None, 7),
        ] {
            for len in 0..bytes.len() {
                assert!(decode_checkpoint(&bytes[..len]).is_err(), "cut at {len}");
            }
        }
        let good = encode_checkpoint(&rel, None, 7);
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_checkpoint(&trailing).is_err());
        let mut version = good.clone();
        version[CHECKPOINT_MAGIC.len()] = 9;
        let err = decode_checkpoint(&version).unwrap_err();
        assert!(err.contains("format version 9"), "{err}");
        let mut flag = good;
        let at = flag.len() - 9;
        flag[at] = 2;
        let err = decode_checkpoint(&flag).unwrap_err();
        assert!(err.contains("miner-presence flag"), "{err}");
    }

    #[test]
    fn text_checkpoint_payloads_are_refused_by_name() {
        // The frame older builds wrote: the snapshot text, the miner
        // checkpoint text, the publish sequence, the discovery text.
        let (rel, _) = mined_fig4();
        let mut old = Vec::new();
        put_str(&mut old, &snapshot_to_string(&rel));
        old.push(1);
        put_str(
            &mut old,
            "annomine-checkpoint v1\nthresholds 0.4 0.7\nend\n",
        );
        put_u64(&mut old, 3);
        old.push(1);
        put_str(&mut old, "anno-discover v1\nend\n");
        let err = decode_checkpoint(&old).unwrap_err();
        assert!(err.contains("text format"), "{err}");
        let err = decode_checkpoint(b"not a checkpoint payload").unwrap_err();
        assert!(err.contains("not a checkpoint payload"), "{err}");
    }

    #[test]
    fn hostile_payloads_error_instead_of_panicking() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[9]).is_err(), "unknown kind");
        assert!(decode(&[KIND_DRAIN, 1, 0, 0, 0]).is_err(), "truncated op");
        // A length field pointing past the end must not allocate or panic.
        let mut bytes = encode_drain(&[UpdateOp::InsertRows(vec!["abc".into()])]);
        let len = bytes.len();
        bytes[len - 4] = 0xFF; // grow the string's recorded length
        assert!(decode(&bytes).is_err());
        // Trailing garbage is rejected, not silently ignored.
        let mut ok = encode_drain(&[]);
        ok.push(0);
        assert!(decode(&ok).is_err());
        assert!(decode_checkpoint(&[2]).is_err());
        // An item id with the fourth namespace tag is an Err, not a panic.
        let mut tuples = encode_drain(&[UpdateOp::InsertTuples(vec![Tuple::from_items(vec![
            Item::data(1),
        ])])]);
        let len = tuples.len();
        tuples[len - 1] = 0xC0;
        assert!(decode(&tuples).unwrap_err().contains("item tag"));
        // A mine record with out-of-range threshold bits (NaN here) must
        // be an Err, not an assert inside Thresholds::new.
        let mut mine = encode_mine(&IncrementalConfig::default());
        mine[1..9].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode(&mine).is_err());
        let mut mine = encode_mine(&IncrementalConfig::default());
        mine[17..25].copy_from_slice(&2.5f64.to_bits().to_le_bytes());
        assert!(decode(&mine).is_err());
    }

    #[test]
    fn mine_record_with_zero_retention_is_an_error() {
        // 0.0 is a fraction but not a retention: the miner would assert
        // on it when the record is re-applied.
        let mut mine = encode_mine(&IncrementalConfig::default());
        mine[17..25].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        assert!(decode(&mine).unwrap_err().contains("(0, 1]"));
    }
}
