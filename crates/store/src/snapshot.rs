//! Exact database snapshots.
//!
//! The paper's Fig. 4 text format is lossy for a *live* system: it drops
//! tuple-id stability (tombstones), the label namespace, and interning
//! order. This module defines a complete line-oriented snapshot format so
//! an annotated database can be persisted and restored byte-exactly —
//! one half of the paper's "integrate into an actual DBMS" future work
//! (the other half, miner-state checkpoints, lives in `anno-mine`).
//!
//! ```text
//! annodb-snapshot v1
//! name <escaped>
//! epoch <mutation-counter>         # optional for back-compat reading
//! vocab <d|a|l> <escaped-name>     # one per interned name, intern order
//! slots <total-slot-count>
//! tuple <tid> <raw-item> ...       # live tuples only, ascending tid
//! end
//! ```
//!
//! The mutation epoch is persisted explicitly: restoring replays inserts
//! and tombstone deletes, which would otherwise fabricate an epoch from
//! the reconstruction order — and serving layers key snapshot staleness
//! off that counter, so it must survive a save/load cycle exactly.
//!
//! Names are percent-escaped so they may contain whitespace and `#`.

use std::io::{self, BufRead, Write};

use crate::item::{Item, ItemKind};
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

/// Inverse of [`escape_name`].
pub fn unescape_name(escaped: &str) -> Result<String, String> {
    let bytes = escaped.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {escaped:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
            out.push(u8::from_str_radix(hex, 16).map_err(|e| e.to_string())?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|e| e.to_string())
}

fn kind_tag(kind: ItemKind) -> char {
    match kind {
        ItemKind::Data => 'd',
        ItemKind::Annotation => 'a',
        ItemKind::Label => 'l',
    }
}

fn tag_kind(tag: &str) -> Result<ItemKind, String> {
    match tag {
        "d" => Ok(ItemKind::Data),
        "a" => Ok(ItemKind::Annotation),
        "l" => Ok(ItemKind::Label),
        other => Err(format!("unknown vocab tag {other:?}")),
    }
}

/// Write a complete snapshot of `rel`.
pub fn write_snapshot<W: Write>(rel: &AnnotatedRelation, writer: &mut W) -> io::Result<()> {
    writeln!(writer, "annodb-snapshot v1")?;
    writeln!(writer, "name {}", escape_name(rel.name()))?;
    writeln!(writer, "epoch {}", rel.epoch())?;
    for kind in ItemKind::ALL {
        for item in rel.vocab().items(kind) {
            writeln!(
                writer,
                "vocab {} {}",
                kind_tag(kind),
                escape_name(rel.vocab().name(item))
            )?;
        }
    }
    writeln!(writer, "slots {}", rel.slot_count())?;
    for (tid, tuple) in rel.iter() {
        write!(writer, "tuple {}", tid.0)?;
        for item in tuple.items() {
            write!(writer, " {}", item.raw())?;
        }
        writeln!(writer)?;
    }
    writeln!(writer, "end")
}

/// Render a snapshot to a string.
pub fn snapshot_to_string(rel: &AnnotatedRelation) -> String {
    let mut buf = Vec::new();
    #[expect(clippy::expect_used, reason = "io::Write on Vec<u8> is infallible")]
    write_snapshot(rel, &mut buf).expect("writing to Vec cannot fail");
    #[expect(
        clippy::expect_used,
        reason = "the writer emits only ASCII framing and already-valid UTF-8 names"
    )]
    String::from_utf8(buf).expect("snapshot text is UTF-8")
}

/// Restore a relation from a snapshot, preserving tuple ids (tombstoned
/// slots are reconstructed as deleted).
pub fn read_snapshot<R: BufRead>(reader: R) -> Result<AnnotatedRelation, String> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or("empty snapshot")?
        .map_err(|e| e.to_string())?;
    if header.trim() != "annodb-snapshot v1" {
        return Err(format!("unsupported snapshot header {header:?}"));
    }
    let mut rel = AnnotatedRelation::new("");
    let mut epoch: Option<u64> = None;
    let mut slots: Option<usize> = None;
    let mut live: Vec<(TupleId, Vec<Item>)> = Vec::new();
    let mut saw_end = false;
    for (lineno, line) in lines.enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 2);
        let mut parts = line.split(' ');
        match parts.next() {
            Some("name") => {
                let name = unescape_name(parts.next().unwrap_or("")).map_err(&err)?;
                rel = AnnotatedRelation::new(name);
            }
            Some("epoch") => {
                let e: u64 = parts
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|e| err(format!("bad epoch: {e}")))?;
                epoch = Some(e);
            }
            Some("vocab") => {
                let kind = tag_kind(parts.next().unwrap_or("")).map_err(&err)?;
                let name = unescape_name(parts.next().unwrap_or("")).map_err(&err)?;
                rel.vocab_mut().intern(kind, &name);
            }
            Some("slots") => {
                let n: usize = parts
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|e| err(format!("bad slot count: {e}")))?;
                slots = Some(n);
            }
            Some("tuple") => {
                let tid: u32 = parts
                    .next()
                    .unwrap_or("")
                    .parse()
                    .map_err(|e| err(format!("bad tuple id: {e}")))?;
                let mut items = Vec::new();
                for tok in parts {
                    let raw: u32 = tok.parse().map_err(|e| err(format!("bad item: {e}")))?;
                    items.push(Item::from_raw(raw));
                }
                live.push((TupleId(tid), items));
            }
            Some("end") => {
                saw_end = true;
                break;
            }
            other => return Err(err(format!("unknown directive {other:?}"))),
        }
    }
    if !saw_end {
        return Err("snapshot truncated: missing 'end'".into());
    }
    let slots = slots.ok_or("snapshot missing 'slots'")?;

    // Rebuild slot-exactly: live tuples at their ids, tombstones elsewhere.
    live.sort_by_key(|&(tid, _)| tid);
    let mut by_tid = live.into_iter().peekable();
    for slot in 0..slots {
        match by_tid.next_if(|(tid, _)| tid.0 as usize == slot) {
            Some((_, items)) => {
                rel.insert(Tuple::from_items(items));
            }
            None => {
                let tid = rel.insert(Tuple::from_items(Vec::new()));
                rel.delete_tuple(tid);
            }
        }
    }
    if let Some((tid, _)) = by_tid.next() {
        return Err(format!("tuple id {tid} out of declared slot range"));
    }
    // Reconstruction replayed inserts/deletes, fabricating an epoch;
    // restore the persisted one (pre-epoch v1 files keep the replay value,
    // which is at least monotone in the relation's contents).
    if let Some(e) = epoch {
        rel.set_epoch(e);
    }
    Ok(rel)
}

/// Restore from a string (see [`read_snapshot`]).
pub fn snapshot_from_string(text: &str) -> Result<AnnotatedRelation, String> {
    read_snapshot(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn escape_roundtrips_hostile_names() {
        for name in ["plain", "with space", "100% #done\ttab", "%", ""] {
            assert_eq!(unescape_name(&escape_name(name)).unwrap(), name);
        }
    }

    #[test]
    fn unescape_rejects_truncated_escapes() {
        assert!(unescape_name("abc%2").is_err());
        assert!(unescape_name("abc%zz").is_err());
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let rel = sample();
        let text = snapshot_to_string(&rel);
        let restored = snapshot_from_string(&text).unwrap();
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
        // Second round-trip is a fixpoint.
        assert_eq!(snapshot_to_string(&restored), text);
    }

    #[test]
    fn snapshot_preserves_index_queries() {
        let rel = sample();
        let restored = snapshot_from_string(&snapshot_to_string(&rel)).unwrap();
        let ann = rel
            .vocab()
            .get(ItemKind::Annotation, "looks wrong to me")
            .unwrap();
        assert_eq!(restored.index().frequency(ann), rel.index().frequency(ann));
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(snapshot_from_string("").is_err());
        assert!(snapshot_from_string("wrong header\nend\n").is_err());
        assert!(
            snapshot_from_string("annodb-snapshot v1\nslots 0\n").is_err(),
            "missing end"
        );
        assert!(
            snapshot_from_string("annodb-snapshot v1\nbogus x\nend\n").is_err(),
            "unknown directive"
        );
        assert!(
            snapshot_from_string("annodb-snapshot v1\nslots 1\ntuple 5 0\nend\n").is_err(),
            "tuple beyond slots"
        );
    }

    #[test]
    fn empty_relation_roundtrips() {
        let rel = AnnotatedRelation::new("empty");
        let restored = snapshot_from_string(&snapshot_to_string(&rel)).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.slot_count(), 0);
        assert_eq!(restored.epoch(), 0);
    }

    /// A snapshot file written by the pre-persistent-interner code
    /// (monolithic `Vec<String>` + hash-map `Vocabulary`). The format
    /// carries names in intern order and raw item ids in tuples; the
    /// chunked interner must re-intern to *identical* ids — and therefore
    /// identical chunk boundaries — or WAL replay (which re-runs the same
    /// interning sequence) would rebind every item after a restart.
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

    #[test]
    fn pre_interner_fixture_reinterns_to_identical_ids() {
        let rel = snapshot_from_string(PRE_INTERNER_FIXTURE).unwrap();
        // Raw ids are the monolithic interner's: dense per namespace in
        // file order, tag in the top bits.
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
        // Re-serialising is byte-identical: intern order, ids, and (with
        // them) chunk boundaries are all deterministic.
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
        let text = snapshot_to_string(&rel);
        let restored = snapshot_from_string(&text).unwrap();
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
        assert_eq!(snapshot_to_string(&restored), text);
    }

    #[test]
    fn pre_epoch_snapshots_still_load() {
        // A v1 file written before the epoch directive existed.
        let restored =
            snapshot_from_string("annodb-snapshot v1\nname r\nslots 1\ntuple 0 0\nend\n").unwrap();
        assert_eq!(restored.len(), 1);
        assert!(snapshot_from_string("annodb-snapshot v1\nepoch x\nend\n").is_err());
    }
}
