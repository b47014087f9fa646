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
//! * a **checkpoint payload** — the `annodb-snapshot` text plus the
//!   miner's checkpoint text, reusing the existing exact persistence
//!   formats of `anno_store::snapshot` and `anno_mine::checkpoint`.
//!
//! Replay determinism: raw item ids are stable across recovery because
//! the snapshot format preserves interning order, and every post-
//! checkpoint interning happens inside a logged op that replays in the
//! same order (the writer sorts within-batch updates identically on the
//! live and replay paths — see `dataset::sort_for_segment_locality`).
//!
//! All integers are little-endian; strings are u32-length-prefixed UTF-8.
//! Decoding is defensive — a hostile or bit-rotted payload yields an
//! `Err`, never a panic or an unbounded allocation.

use anno_mine::{IncrementalConfig, Thresholds};
use anno_store::{AnnotationUpdate, Item, Tuple, TupleId};

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
    let mut out = Vec::new();
    out.push(KIND_DRAIN);
    put_u32(&mut out, ops.len() as u32);
    for op in ops {
        encode_op(&mut out, op);
    }
    out
}

/// Serialize one mine record. The trailing byte is reserved: builds
/// before PR 19 wrote a counting-strategy tag there (0, 1 or 2) and refuse
/// a record without it, so it stays, as `0`.
pub(crate) fn encode_mine(config: &IncrementalConfig) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(KIND_MINE);
    put_u64(&mut out, config.thresholds.min_support.to_bits());
    put_u64(&mut out, config.thresholds.min_confidence.to_bits());
    put_u64(&mut out, config.retention.to_bits());
    out.push(0);
    out
}

/// Deserialize one record.
pub(crate) fn decode(bytes: &[u8]) -> Result<WalRecord, String> {
    let mut cur = Cursor::new(bytes);
    let record = match cur.u8()? {
        KIND_DRAIN => {
            let count = cur.u32()? as usize;
            let mut ops = Vec::new();
            for _ in 0..count {
                ops.push(decode_op(&mut cur)?);
            }
            WalRecord::Drain(ops)
        }
        KIND_MINE => {
            // Range-check before constructing: `Thresholds::new` asserts
            // its fractions and the miner its retention, so an
            // out-of-range (or NaN) value from a CRC-coincident corruption
            // or crafted file must surface as `Err`, never a panic.
            let fraction = |x: f64, what: &str| {
                if x.is_finite() && (0.0..=1.0).contains(&x) {
                    Ok(x)
                } else {
                    Err(format!("mine record {what} out of range: {x}"))
                }
            };
            let min_support = fraction(f64::from_bits(cur.u64()?), "min_support")?;
            let min_confidence = fraction(f64::from_bits(cur.u64()?), "min_confidence")?;
            let retention = f64::from_bits(cur.u64()?);
            // The reserved byte: the three strategies old builds tagged
            // here produced identical tables, so the value is not kept.
            match cur.u8()? {
                0..=2 => {}
                other => return Err(format!("unknown counting strategy tag {other}")),
            }
            let config = IncrementalConfig {
                thresholds: Thresholds::new(min_support, min_confidence),
                retention,
            };
            config.validate()?;
            WalRecord::Mine(config)
        }
        other => return Err(format!("unknown wal record kind {other}")),
    };
    cur.finish()?;
    Ok(record)
}

/// Serialize a checkpoint payload: the relation snapshot text, the miner
/// checkpoint text once mined, the dataset's publish sequence number at
/// capture time — recovery seeds its own publish counter from it so a
/// client comparing snapshot epochs never sees time run backwards across
/// a restart — and the discovery-index text, so the incrementally
/// maintained top-k recovers (and replicates) without a rescan.
pub(crate) fn encode_checkpoint(
    snapshot: &str,
    miner: Option<&str>,
    publish_seq: u64,
    discovery: Option<&str>,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, snapshot);
    match miner {
        Some(text) => {
            out.push(1);
            put_str(&mut out, text);
        }
        None => out.push(0),
    }
    put_u64(&mut out, publish_seq);
    match discovery {
        Some(text) => {
            out.push(1);
            put_str(&mut out, text);
        }
        None => out.push(0),
    }
    out
}

/// A decoded checkpoint payload. `miner` and `discovery` are `None`
/// together, for a dataset checkpointed before its first `mine`.
pub(crate) struct CheckpointParts {
    pub snapshot: String,
    pub miner: Option<String>,
    pub publish_seq: u64,
    pub discovery: Option<String>,
}

/// Deserialize a checkpoint payload back into its text documents and the
/// captured publish sequence. Every field [`encode_checkpoint`] writes is
/// required: a payload that ends early is an error, whichever field it
/// ends in.
pub(crate) fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointParts, String> {
    let mut cur = Cursor::new(bytes);
    let snapshot = cur.str()?;
    let miner = cur.optional_str("miner")?;
    let publish_seq = cur.u64()?;
    let discovery = cur.optional_str("discovery")?;
    cur.finish()?;
    if miner.is_some() != discovery.is_some() {
        return Err("miner and discovery index must be checkpointed together".to_string());
    }
    Ok(CheckpointParts {
        snapshot,
        miner,
        publish_seq,
        discovery,
    })
}

fn encode_op(out: &mut Vec<u8>, op: &UpdateOp) {
    match op {
        UpdateOp::InsertRows(lines) => {
            out.push(TAG_INSERT_ROWS);
            put_u32(out, lines.len() as u32);
            for line in lines {
                put_str(out, line);
            }
        }
        UpdateOp::InsertTuples(tuples) => {
            out.push(TAG_INSERT_TUPLES);
            put_u32(out, tuples.len() as u32);
            for tuple in tuples {
                put_u32(out, tuple.items().len() as u32);
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
            put_u32(out, tids.len() as u32);
            for tid in tids {
                put_u32(out, tid.0);
            }
        }
    }
}

fn decode_op(cur: &mut Cursor<'_>) -> Result<UpdateOp, String> {
    let tag = cur.u8()?;
    let count = cur.u32()? as usize;
    Ok(match tag {
        TAG_INSERT_ROWS => {
            let mut lines = Vec::new();
            for _ in 0..count {
                lines.push(cur.str()?);
            }
            UpdateOp::InsertRows(lines)
        }
        TAG_INSERT_TUPLES => {
            let mut tuples = Vec::new();
            for _ in 0..count {
                let items = cur.u32()? as usize;
                let mut raw = Vec::new();
                for _ in 0..items {
                    raw.push(Item::from_raw(cur.u32()?));
                }
                tuples.push(Tuple::from_items(raw));
            }
            UpdateOp::InsertTuples(tuples)
        }
        TAG_ANNOTATE => UpdateOp::Annotate(decode_updates(cur, count)?),
        TAG_ANNOTATE_NAMED => UpdateOp::AnnotateNamed(decode_named(cur, count)?),
        TAG_REMOVE_ANNOTATIONS => UpdateOp::RemoveAnnotations(decode_updates(cur, count)?),
        TAG_REMOVE_NAMED => UpdateOp::RemoveNamed(decode_named(cur, count)?),
        TAG_DELETE_TUPLES => {
            let mut tids = Vec::new();
            for _ in 0..count {
                tids.push(TupleId(cur.u32()?));
            }
            UpdateOp::DeleteTuples(tids)
        }
        other => return Err(format!("unknown update-op tag {other}")),
    })
}

fn encode_updates(out: &mut Vec<u8>, updates: &[AnnotationUpdate]) {
    put_u32(out, updates.len() as u32);
    for u in updates {
        put_u32(out, u.tuple.0);
        put_u32(out, u.annotation.raw());
    }
}

fn decode_updates(cur: &mut Cursor<'_>, count: usize) -> Result<Vec<AnnotationUpdate>, String> {
    let mut updates = Vec::new();
    for _ in 0..count {
        let tuple = TupleId(cur.u32()?);
        let annotation = Item::from_raw(cur.u32()?);
        updates.push(AnnotationUpdate { tuple, annotation });
    }
    Ok(updates)
}

fn encode_named(out: &mut Vec<u8>, named: &[(TupleId, String)]) {
    put_u32(out, named.len() as u32);
    for (tid, name) in named {
        put_u32(out, tid.0);
        put_str(out, name);
    }
}

fn decode_named(cur: &mut Cursor<'_>, count: usize) -> Result<Vec<(TupleId, String)>, String> {
    let mut named = Vec::new();
    for _ in 0..count {
        let tid = TupleId(cur.u32()?);
        named.push((tid, cur.str()?));
    }
    Ok(named)
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a payload slice. Lengths are validated
/// against the remaining bytes before any allocation, so a corrupted
/// length cannot request gigabytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "payload truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let bytes: [u8; 4] = self
            .take(4)?
            .try_into()
            .map_err(|_| "short u32 field".to_string())?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let bytes: [u8; 8] = self
            .take(8)?
            .try_into()
            .map_err(|_| "short u64 field".to_string())?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("bad utf-8 in payload: {e}"))
    }

    /// A presence byte, then the string it announces.
    fn optional_str(&mut self, what: &str) -> Result<Option<String>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => self.str().map(Some),
            other => Err(format!("bad {what}-presence flag {other}")),
        }
    }

    fn finish(self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "{} trailing bytes after record",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn checkpoint_payloads_roundtrip() {
        let parts = decode_checkpoint(&encode_checkpoint(
            "snapshot text",
            Some("miner text"),
            17,
            Some("discovery text"),
        ))
        .unwrap();
        assert_eq!(parts.snapshot, "snapshot text");
        assert_eq!(parts.miner.as_deref(), Some("miner text"));
        assert_eq!(parts.publish_seq, 17);
        assert_eq!(parts.discovery.as_deref(), Some("discovery text"));
        let parts = decode_checkpoint(&encode_checkpoint("pre-mine", None, 0, None)).unwrap();
        assert_eq!(parts.snapshot, "pre-mine");
        assert_eq!(parts.miner, None);
        assert_eq!(parts.publish_seq, 0);
        assert_eq!(parts.discovery, None);
    }

    #[test]
    fn short_checkpoint_payloads_are_typed_errors() {
        // Nothing writes the two shapes older builds did — ending right
        // after the miner field, or right after the publish sequence —
        // so both are truncation like any other.
        let mut after_miner = Vec::new();
        put_str(&mut after_miner, "old snapshot");
        after_miner.push(1);
        put_str(&mut after_miner, "old miner");
        let err = decode_checkpoint(&after_miner).err().expect("short");
        assert!(err.contains("truncated"), "{err}");
        let mut after_sequence = Vec::new();
        put_str(&mut after_sequence, "mid snapshot");
        after_sequence.push(0);
        put_u64(&mut after_sequence, 42);
        let err = decode_checkpoint(&after_sequence).err().expect("short");
        assert!(err.contains("truncated"), "{err}");
        // A payload cut inside a field is the same error.
        let mut torn = encode_checkpoint("s", None, 7, None);
        torn.truncate(torn.len() - 3);
        assert!(decode_checkpoint(&torn).is_err());
        let mut torn = encode_checkpoint("s", Some("m"), 7, Some("d"));
        torn.truncate(torn.len() - 1);
        assert!(decode_checkpoint(&torn).is_err());
        // A miner without its discovery index is no shape at all.
        assert!(decode_checkpoint(&encode_checkpoint("s", Some("m"), 7, None)).is_err());
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
