//! Exact relation persistence: the binary encoding a checkpoint stores,
//! and a readable text dump of the same state.
//!
//! The paper's Fig. 4 text format is lossy for a *live* system: it drops
//! tuple-id stability (tombstones), the label namespace, and interning
//! order. [`AnnotatedRelation::encode`] keeps all three, so a decoded
//! relation is the same relation — one half of the paper's "integrate
//! into an actual DBMS" future work (the other half, the miner's state,
//! lives in `anno-mine`). Written with [`crate::codec`]:
//!
//! ```text
//! name   str
//! epoch  u64                               mutation counter
//! vocab  3 × [count u32, count × str]      data, annotation, label; intern order
//! slots  count u32, then per slot:         0 = tombstone,
//!                                          1, item count u32, raw items u32…
//! ```
//!
//! Ids are dense per namespace in intern order, so re-interning the names
//! in stored order reproduces every raw item id — and the interner's chunk
//! boundaries — and stored tuples need no translation. The epoch is stored
//! explicitly: decoding replays inserts and tombstone deletes, which would
//! otherwise fabricate one, and serving layers key snapshot staleness off
//! that counter.
//!
//! [`snapshot_to_string`] renders the same state as text, names
//! percent-escaped so they may contain whitespace and `#`. Nothing reads
//! it back: it is the readable oracle tests compare states with.
//!
//! ```text
//! annodb-snapshot v1
//! name <escaped>
//! epoch <mutation-counter>
//! vocab <d|a|l> <escaped-name>     # one per interned name, intern order
//! slots <total-slot-count>
//! tuple <tid> <raw-item> ...       # live tuples only, ascending tid
//! end
//! ```

use std::fmt::{self, Write};

use crate::codec::{put_count, put_str, put_u32, put_u64, Cursor};
use crate::item::ItemKind;
use crate::relation::AnnotatedRelation;
use crate::tuple::{Tuple, TupleId};

/// Percent-escape a name for single-token storage.
pub fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'%' | b' ' | b'\t' | b'\n' | b'\r' | b'#' => {
                out.push('%');
                out.push_str(&format!("{b:02X}"));
            }
            _ => out.push(b as char),
        }
    }
    out
}

fn kind_tag(kind: ItemKind) -> char {
    match kind {
        ItemKind::Data => 'd',
        ItemKind::Annotation => 'a',
        ItemKind::Label => 'l',
    }
}

/// Render `rel` as readable text (module docs). Nothing reads it back.
pub fn snapshot_to_string(rel: &AnnotatedRelation) -> String {
    let mut out = String::new();
    // `fmt::Write` for `String` cannot fail.
    let _ = write_text(rel, &mut out);
    out
}

fn write_text(rel: &AnnotatedRelation, out: &mut String) -> fmt::Result {
    writeln!(out, "annodb-snapshot v1")?;
    writeln!(out, "name {}", escape_name(rel.name()))?;
    writeln!(out, "epoch {}", rel.epoch())?;
    for kind in ItemKind::ALL {
        for item in rel.vocab().items(kind) {
            let name = escape_name(rel.vocab().name(item));
            writeln!(out, "vocab {} {name}", kind_tag(kind))?;
        }
    }
    writeln!(out, "slots {}", rel.slot_count())?;
    for (tid, tuple) in rel.iter() {
        write!(out, "tuple {}", tid.0)?;
        for item in tuple.items() {
            write!(out, " {}", item.raw())?;
        }
        writeln!(out)?;
    }
    writeln!(out, "end")
}

impl AnnotatedRelation {
    /// Append this relation's binary encoding (module docs) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self.name());
        put_u64(out, self.epoch());
        for kind in ItemKind::ALL {
            put_count(out, self.vocab().count(kind));
            for item in self.vocab().items(kind) {
                put_str(out, self.vocab().name(item));
            }
        }
        put_count(out, self.slot_count());
        for slot in 0..self.slot_count() as u32 {
            match self.tuple(TupleId(slot)) {
                None => out.push(0),
                Some(tuple) => {
                    out.push(1);
                    put_count(out, tuple.items().len());
                    for item in tuple.items() {
                        put_u32(out, item.raw());
                    }
                }
            }
        }
    }

    /// Read back what [`AnnotatedRelation::encode`] wrote: the same names
    /// at the same ids, live tuples at their ids, tombstones between.
    /// A name interned twice, or a tuple item the vocabulary never
    /// interned, is an `Err` — either would break id stability or a later
    /// name lookup.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<AnnotatedRelation, String> {
        let mut rel = AnnotatedRelation::new(cur.str()?);
        let epoch = cur.u64()?;
        for kind in ItemKind::ALL {
            for (index, name) in cur.list(4, Cursor::str)?.iter().enumerate() {
                if rel.vocab_mut().intern(kind, name).index() as usize != index {
                    return Err(format!("vocabulary interns {kind:?} {name:?} twice"));
                }
            }
        }
        for slot in 0..cur.count(1)? {
            match cur.u8()? {
                0 => {
                    let tid = rel.insert(Tuple::default());
                    rel.delete_tuple(tid);
                }
                1 => {
                    let items = cur.list(4, Cursor::item)?;
                    if let Some(item) = items.iter().find(|&&i| !rel.vocab().contains(i)) {
                        return Err(format!(
                            "tuple {slot} holds {item:?}, which the vocabulary never interned"
                        ));
                    }
                    rel.insert(Tuple::from_items(items));
                }
                flag => return Err(format!("bad liveness flag {flag} for slot {slot}")),
            }
        }
        rel.set_epoch(epoch);
        Ok(rel)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    fn sample() -> AnnotatedRelation {
        let mut rel = AnnotatedRelation::new("weird name # with % tricks");
        let x = rel.vocab_mut().data("28");
        let spaced = rel.vocab_mut().annotation("looks wrong to me");
        let label = rel.vocab_mut().label("Invalidation");
        rel.insert(Tuple::new([x], [spaced, label]));
        let dead = rel.insert(Tuple::new([x], []));
        rel.insert(Tuple::new([x], [spaced]));
        rel.delete_tuple(dead);
        rel
    }

    fn encoded(rel: &AnnotatedRelation) -> Vec<u8> {
        let mut out = Vec::new();
        rel.encode(&mut out);
        out
    }

    fn decoded(bytes: &[u8]) -> Result<AnnotatedRelation, String> {
        let mut cur = Cursor::new(bytes);
        let rel = AnnotatedRelation::decode(&mut cur)?;
        cur.finish()?;
        Ok(rel)
    }

    #[test]
    fn escape_roundtrips_hostile_names() {
        for (name, escaped) in [
            ("plain", "plain"),
            ("with space", "with%20space"),
            ("100% #done\ttab", "100%25%20%23done%09tab"),
            ("%", "%25"),
            ("", ""),
        ] {
            assert_eq!(escape_name(name), escaped);
        }
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let rel = sample();
        let bytes = encoded(&rel);
        let restored = decoded(&bytes).unwrap();
        assert_eq!(restored.name(), rel.name());
        assert_eq!(
            restored.epoch(),
            rel.epoch(),
            "mutation epoch must survive persistence exactly"
        );
        assert_eq!(restored.len(), rel.len());
        assert_eq!(restored.slot_count(), rel.slot_count());
        for slot in 0..rel.slot_count() as u32 {
            let tid = TupleId(slot);
            match (rel.tuple(tid), restored.tuple(tid)) {
                (Some(a), Some(b)) => assert_eq!(a.items(), b.items(), "tuple {tid}"),
                (None, None) => {}
                _ => panic!("liveness mismatch at {tid}"),
            }
        }
        // Vocabulary preserved including namespaces and spaced names.
        assert_eq!(
            restored
                .vocab()
                .get(ItemKind::Annotation, "looks wrong to me"),
            rel.vocab().get(ItemKind::Annotation, "looks wrong to me"),
        );
        assert_eq!(
            restored.vocab().get(ItemKind::Label, "Invalidation"),
            rel.vocab().get(ItemKind::Label, "Invalidation"),
        );
        restored.check_consistency().unwrap();
        assert_eq!(snapshot_to_string(&restored), snapshot_to_string(&rel));
        // Second round-trip is a fixpoint.
        assert_eq!(encoded(&restored), bytes);
    }

    #[test]
    fn snapshot_preserves_index_queries() {
        let rel = sample();
        let restored = decoded(&encoded(&rel)).unwrap();
        let ann = rel
            .vocab()
            .get(ItemKind::Annotation, "looks wrong to me")
            .unwrap();
        assert_eq!(restored.index().frequency(ann), rel.index().frequency(ann));
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(decoded(&[]).is_err());
        let bytes = encoded(&sample());
        for len in 0..bytes.len() {
            assert!(decoded(&bytes[..len]).is_err(), "truncated at {len}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decoded(&trailing).is_err(), "trailing bytes");
        // Slot flags other than 0/1, and a tuple id-space past u32 counts.
        let mut one_slot = Vec::new();
        put_str(&mut one_slot, "r");
        put_u64(&mut one_slot, 0);
        one_slot.extend_from_slice(&[0; 12]); // three empty namespaces
        put_count(&mut one_slot, 1);
        let mut bad_flag = one_slot.clone();
        bad_flag.push(2);
        assert!(decoded(&bad_flag).unwrap_err().contains("liveness flag"));
        let mut tag3 = one_slot;
        tag3.push(1);
        put_count(&mut tag3, 1);
        put_u32(&mut tag3, 3 << 30);
        assert!(decoded(&tag3).unwrap_err().contains("item tag"));
    }

    #[test]
    fn names_interned_twice_are_rejected() {
        let mut bytes = Vec::new();
        put_str(&mut bytes, "r");
        put_u64(&mut bytes, 0);
        put_count(&mut bytes, 2);
        put_str(&mut bytes, "28");
        put_str(&mut bytes, "28");
        bytes.extend_from_slice(&[0; 8]); // no annotations, no labels
        put_count(&mut bytes, 0);
        assert!(decoded(&bytes).unwrap_err().contains("twice"));
    }

    #[test]
    fn tuple_items_outside_the_vocabulary_are_rejected() {
        // One data name interned; the tuple names data item 1 — a CRC-valid
        // checkpoint like this once decoded and later panicked a name lookup.
        let mut bytes = Vec::new();
        put_str(&mut bytes, "r");
        put_u64(&mut bytes, 1);
        put_count(&mut bytes, 1);
        put_str(&mut bytes, "28");
        bytes.extend_from_slice(&[0; 8]);
        put_count(&mut bytes, 1);
        bytes.push(1);
        put_count(&mut bytes, 2);
        put_u32(&mut bytes, Item::data(0).raw());
        put_u32(&mut bytes, Item::data(1).raw());
        let err = decoded(&bytes).unwrap_err();
        assert!(err.contains("never interned"), "{err}");
    }

    #[test]
    fn empty_relation_roundtrips() {
        let rel = AnnotatedRelation::new("empty");
        let restored = decoded(&encoded(&rel)).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.slot_count(), 0);
        assert_eq!(restored.epoch(), 0);
    }

    /// The state the pre-persistent-interner code (monolithic
    /// `Vec<String>` + hash-map `Vocabulary`) persisted, as its text dump.
    /// The encoding carries names in intern order and raw item ids in
    /// tuples; the chunked interner must re-intern to *identical* ids —
    /// and therefore identical chunk boundaries — or WAL replay (which
    /// re-runs the same interning sequence) would rebind every item after
    /// a restart.
    const PRE_INTERNER_FIXTURE: &str = "\
annodb-snapshot v1
name fixture
epoch 3
vocab d 28
vocab d 85
vocab a Annot_1
vocab a looks%20wrong
vocab l Invalidation
slots 3
tuple 0 0 1 1073741824
tuple 2 1 1073741825 2147483648
end
";

    /// [`PRE_INTERNER_FIXTURE`] in the binary encoding, field by field.
    fn pre_interner_fixture_bytes() -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, "fixture");
        put_u64(&mut out, 3);
        for names in [
            &["28", "85"][..],
            &["Annot_1", "looks wrong"],
            &["Invalidation"],
        ] {
            put_count(&mut out, names.len());
            for name in names {
                put_str(&mut out, name);
            }
        }
        put_count(&mut out, 3);
        for slot in [
            Some(&[0u32, 1, 1 << 30][..]),
            None,
            Some(&[1, (1 << 30) | 1, 2 << 30]),
        ] {
            match slot {
                None => out.push(0),
                Some(raws) => {
                    out.push(1);
                    put_count(&mut out, raws.len());
                    for &raw in raws {
                        put_u32(&mut out, raw);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn pre_interner_fixture_reinterns_to_identical_ids() {
        let fixture = pre_interner_fixture_bytes();
        let rel = decoded(&fixture).unwrap();
        // Raw ids are the monolithic interner's: dense per namespace in
        // stored order, tag in the top bits.
        assert_eq!(rel.vocab().get(ItemKind::Data, "28").unwrap().raw(), 0);
        assert_eq!(rel.vocab().get(ItemKind::Data, "85").unwrap().raw(), 1);
        assert_eq!(
            rel.vocab()
                .get(ItemKind::Annotation, "Annot_1")
                .unwrap()
                .raw(),
            1 << 30
        );
        assert_eq!(
            rel.vocab()
                .get(ItemKind::Annotation, "looks wrong")
                .unwrap()
                .raw(),
            (1 << 30) | 1
        );
        assert_eq!(
            rel.vocab()
                .get(ItemKind::Label, "Invalidation")
                .unwrap()
                .raw(),
            2 << 30
        );
        assert_eq!(rel.epoch(), 3);
        assert_eq!(rel.slot_count(), 3);
        assert!(rel.tuple(TupleId(1)).is_none(), "slot 1 is a tombstone");
        // Re-encoding is byte-identical, and so is the readable dump:
        // intern order, ids, and (with them) chunk boundaries are all
        // deterministic.
        assert_eq!(encoded(&rel), fixture);
        assert_eq!(snapshot_to_string(&rel), PRE_INTERNER_FIXTURE);
        // Interning continues densely after the reload, exactly where the
        // pre-change interner would have.
        let mut rel = rel;
        assert_eq!(rel.vocab_mut().data("fresh").raw(), 2);
    }

    #[test]
    fn chunk_boundaries_roundtrip_across_many_chunks() {
        use crate::vocab::VOCAB_CHUNK_CAP;
        let mut rel = AnnotatedRelation::new("chunky");
        // Enough names to span several arena chunks in two namespaces,
        // interleaved so intern order is not namespace order.
        let n = VOCAB_CHUNK_CAP * 2 + 37;
        for i in 0..n {
            let d = rel.vocab_mut().data(&format!("{i}"));
            let a = rel.vocab_mut().annotation(&format!("Ann_{i}"));
            rel.insert(Tuple::new([d], [a]));
        }
        let bytes = encoded(&rel);
        let restored = decoded(&bytes).unwrap();
        for kind in ItemKind::ALL {
            assert_eq!(restored.vocab().count(kind), rel.vocab().count(kind));
            assert_eq!(
                restored.vocab().chunk_count(kind),
                rel.vocab().chunk_count(kind),
                "chunk boundaries must be reproduced for {kind:?}"
            );
            for item in rel.vocab().items(kind) {
                assert_eq!(restored.vocab().name(item), rel.vocab().name(item));
            }
        }
        // Fixpoint: a second round-trip changes nothing.
        assert_eq!(encoded(&restored), bytes);
    }
}
