//! Persistent, structurally shared tuple storage.
//!
//! The serving layer publishes immutable snapshots of an
//! [`AnnotatedRelation`] after every effective write drain. With tuples in
//! one flat `Vec<Tuple>`, every such publish forced an O(|D|) deep clone
//! (a million `Vec<Item>` heap allocations at a million tuples) even when
//! the drain touched three tuples. This module replaces the flat vector
//! with a **chunked persistent store**: tuples live in fixed-capacity
//! [`Segment`] blocks behind `Arc`s, so
//!
//! * cloning the store is O(#segments) pointer copies (the *spine*),
//! * mutating a tuple copies only its segment (≤ [`SEGMENT_CAP`] tuples)
//!   via `Arc::make_mut`, and only when that segment is actually shared
//!   with a published snapshot,
//! * a snapshot holds the segments it was published with forever — later
//!   writes copy-on-write fresh segments and never touch the reader's.
//!
//! Liveness is tracked per segment (a fixed bitmap word array), so tuple
//! deletion shares the same copy-on-write granularity and the store needs
//! no global alive bitmap.
//!
//! [`AnnotatedRelation`]: crate::relation::AnnotatedRelation

use std::sync::Arc;

use crate::tuple::Tuple;

/// log2 of [`SEGMENT_CAP`]; slot → (segment, offset) is a shift + mask.
pub const SEGMENT_BITS: u32 = 10;

/// Tuples per segment. Small enough that one copy-on-write clone is
/// delta-scale work; large enough that the spine stays tiny (≈ |D| / 1024
/// pointers).
pub const SEGMENT_CAP: usize = 1 << SEGMENT_BITS;

const WORDS: usize = SEGMENT_CAP / 64;
const OFFSET_MASK: u32 = (SEGMENT_CAP - 1) as u32;

/// One immutable-once-shared block of tuples with its own liveness bitmap.
#[derive(Debug, Clone)]
pub struct Segment {
    tuples: Vec<Tuple>,
    alive: [u64; WORDS],
    live: u32,
}

impl Default for Segment {
    fn default() -> Self {
        Segment {
            tuples: Vec::new(),
            alive: [0; WORDS],
            live: 0,
        }
    }
}

impl Segment {
    /// Number of allocated slots (live + tombstoned).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff no slots are allocated.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.live as usize
    }

    /// `true` iff no further tuple fits.
    pub fn is_full(&self) -> bool {
        self.tuples.len() == SEGMENT_CAP
    }

    /// `true` iff local slot `offset` holds a live tuple.
    pub fn is_live(&self, offset: u32) -> bool {
        (offset as usize) < self.tuples.len()
            && self.alive[offset as usize / 64] & (1 << (offset % 64)) != 0
    }

    /// The tuple at local slot `offset`, live or tombstoned.
    pub fn slot(&self, offset: u32) -> Option<&Tuple> {
        self.tuples.get(offset as usize)
    }

    /// The tuple at local slot `offset`, if live.
    pub fn get(&self, offset: u32) -> Option<&Tuple> {
        self.is_live(offset).then(|| &self.tuples[offset as usize])
    }

    /// Iterate live `(offset, tuple)` pairs in offset order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &Tuple)> + '_ {
        self.tuples
            .iter()
            .enumerate()
            .filter(|&(off, _)| self.alive[off / 64] & (1 << (off % 64)) != 0)
            .map(|(off, t)| (off as u32, t))
    }

    fn push(&mut self, tuple: Tuple) -> u32 {
        debug_assert!(!self.is_full());
        let off = self.tuples.len() as u32;
        self.tuples.push(tuple);
        self.alive[off as usize / 64] |= 1 << (off % 64);
        self.live += 1;
        off
    }

    fn delete(&mut self, offset: u32) -> bool {
        if !self.is_live(offset) {
            return false;
        }
        self.alive[offset as usize / 64] &= !(1 << (offset % 64));
        self.live -= 1;
        true
    }

    /// Validate the liveness bitmap against the slot range and counter.
    fn check(&self) -> Result<(), String> {
        let mut counted = 0u32;
        for (word_idx, word) in self.alive.iter().enumerate() {
            for bit in 0..64 {
                if word & (1 << bit) != 0 {
                    let off = word_idx * 64 + bit;
                    if off >= self.tuples.len() {
                        return Err(format!("alive bit {off} beyond segment len"));
                    }
                    counted += 1;
                }
            }
        }
        if counted != self.live {
            return Err(format!("segment live {} != bitmap {counted}", self.live));
        }
        Ok(())
    }
}

/// The persistent tuple store: a spine of `Arc`-shared segments.
///
/// `Clone` is the snapshot operation — O(#segments) `Arc` bumps. All
/// mutation goes through `Arc::make_mut`, so a clone and its origin
/// diverge segment-by-segment as writes land, sharing everything else.
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    segments: Vec<Arc<Segment>>,
    slots: usize,
    live: usize,
}

impl SegmentStore {
    /// An empty store.
    pub fn new() -> Self {
        SegmentStore::default()
    }

    /// Total slots ever allocated (live + tombstoned).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// `true` iff no live tuples.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The segment spine, for segment-at-a-time consumers (mining
    /// projections, sharing assertions).
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// How many spine positions `self` and `other` share *physically*
    /// (same `Arc`). The structural-sharing meter: a snapshot clone starts
    /// at `segments().len()` and loses one per copied-on-write segment.
    pub fn shared_segments_with(&self, other: &SegmentStore) -> usize {
        self.segments
            .iter()
            .zip(&other.segments)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Append a tuple, returning its slot.
    pub fn push(&mut self, tuple: Tuple) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "slots are u32 in every format; 2^32 tuples exceed memory first"
        )]
        let slot = u32::try_from(self.slots).expect("store overflow");
        let off = match self.segments.last_mut() {
            Some(seg) if !seg.is_full() => Arc::make_mut(seg).push(tuple),
            _ => {
                let mut seg = Segment::default();
                let off = seg.push(tuple);
                self.segments.push(Arc::new(seg));
                off
            }
        };
        debug_assert_eq!(
            slot,
            ((self.segments.len() as u32 - 1) << SEGMENT_BITS) | off
        );
        self.slots += 1;
        self.live += 1;
        slot
    }

    /// The tuple at `slot`, if live.
    pub fn get(&self, slot: u32) -> Option<&Tuple> {
        self.segments
            .get((slot >> SEGMENT_BITS) as usize)?
            .get(slot & OFFSET_MASK)
    }

    /// The tuple at `slot`, live or tombstoned.
    pub fn slot(&self, slot: u32) -> Option<&Tuple> {
        self.segments
            .get((slot >> SEGMENT_BITS) as usize)?
            .slot(slot & OFFSET_MASK)
    }

    /// `true` iff `slot` holds a live tuple.
    pub fn is_live(&self, slot: u32) -> bool {
        self.segments
            .get((slot >> SEGMENT_BITS) as usize)
            .is_some_and(|s| s.is_live(slot & OFFSET_MASK))
    }

    /// Tombstone `slot`. Returns `true` if it was live. Copies the
    /// affected segment iff it is shared.
    pub fn delete(&mut self, slot: u32) -> bool {
        let Some(seg) = self.segments.get_mut((slot >> SEGMENT_BITS) as usize) else {
            return false;
        };
        // Shared-read precheck: a dead slot must not copy-on-write.
        if !seg.is_live(slot & OFFSET_MASK) {
            return false;
        }
        let deleted = Arc::make_mut(seg).delete(slot & OFFSET_MASK);
        debug_assert!(deleted);
        self.live -= 1;
        true
    }

    /// Mutate the live tuple at `slot` in place, copying its segment iff
    /// shared. Returns `None` (without copying) if the slot is dead.
    ///
    /// Callers that may decide *not* to change the tuple (e.g. duplicate
    /// annotation adds) should pre-check via [`SegmentStore::get`] so a
    /// no-op never pays the copy.
    pub fn update<R>(&mut self, slot: u32, f: impl FnOnce(&mut Tuple) -> R) -> Option<R> {
        let seg = self.segments.get_mut((slot >> SEGMENT_BITS) as usize)?;
        if !seg.is_live(slot & OFFSET_MASK) {
            return None;
        }
        let seg = Arc::make_mut(seg);
        Some(f(&mut seg.tuples[(slot & OFFSET_MASK) as usize]))
    }

    /// Iterate live `(slot, tuple)` pairs in slot order.
    pub fn iter_live(&self) -> impl Iterator<Item = (u32, &Tuple)> + '_ {
        self.segments.iter().enumerate().flat_map(|(idx, seg)| {
            let base = (idx as u32) << SEGMENT_BITS;
            seg.iter_live().map(move |(off, t)| (base | off, t))
        })
    }

    /// Iterate **all** allocated `(slot, tuple, live)` triples in slot
    /// order, tombstones included (consistency checks, persistence).
    pub fn iter_slots(&self) -> impl Iterator<Item = (u32, &Tuple, bool)> + '_ {
        self.segments.iter().enumerate().flat_map(|(idx, seg)| {
            let base = (idx as u32) << SEGMENT_BITS;
            (0..seg.len() as u32)
                .filter_map(move |off| Some((base | off, seg.slot(off)?, seg.is_live(off))))
        })
    }

    /// Validate spine invariants: only the last segment may be partial,
    /// per-segment bitmaps and counters agree, and the global counters sum.
    pub fn check(&self) -> Result<(), String> {
        let mut slots = 0usize;
        let mut live = 0usize;
        for (idx, seg) in self.segments.iter().enumerate() {
            if idx + 1 < self.segments.len() && !seg.is_full() {
                return Err(format!("non-terminal segment {idx} is partial"));
            }
            seg.check().map_err(|e| format!("segment {idx}: {e}"))?;
            slots += seg.len();
            live += seg.live_count();
        }
        if slots != self.slots {
            return Err(format!("slot count {} != actual {slots}", self.slots));
        }
        if live != self.live {
            return Err(format!("live count {} != actual {live}", self.live));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Item;

    fn t(i: u32) -> Tuple {
        Tuple::from_items(vec![Item::data(i)])
    }

    #[test]
    fn push_get_delete_roundtrip() {
        let mut s = SegmentStore::new();
        let a = s.push(t(1));
        let b = s.push(t(2));
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.live_count(), 2);
        assert_eq!(s.get(a).unwrap().items(), &[Item::data(1)]);
        assert!(s.delete(a));
        assert!(!s.delete(a), "double delete is a no-op");
        assert!(s.get(a).is_none());
        assert!(s.slot(a).is_some(), "tombstoned slot still addressable");
        assert_eq!(s.live_count(), 1);
        assert_eq!(s.slot_count(), 2);
        s.check().unwrap();
    }

    #[test]
    fn slots_split_across_segments() {
        let mut s = SegmentStore::new();
        let n = SEGMENT_CAP + 5;
        for i in 0..n {
            assert_eq!(s.push(t(i as u32)), i as u32);
        }
        assert_eq!(s.segments().len(), 2);
        assert_eq!(s.segments()[0].len(), SEGMENT_CAP);
        assert_eq!(s.segments()[1].len(), 5);
        assert_eq!(s.iter_live().count(), n);
        let collected: Vec<u32> = s.iter_live().map(|(slot, _)| slot).collect();
        assert_eq!(collected, (0..n as u32).collect::<Vec<_>>());
        s.check().unwrap();
    }

    #[test]
    fn clone_shares_all_segments_until_written() {
        let mut s = SegmentStore::new();
        for i in 0..(SEGMENT_CAP * 3) as u32 {
            s.push(t(i));
        }
        let snap = s.clone();
        assert_eq!(s.shared_segments_with(&snap), 3);

        // A write to segment 1 unshares exactly that segment.
        s.delete(SEGMENT_CAP as u32 + 7);
        assert_eq!(s.shared_segments_with(&snap), 2);
        // The snapshot still sees the deleted tuple.
        assert!(snap.is_live(SEGMENT_CAP as u32 + 7));
        assert!(!s.is_live(SEGMENT_CAP as u32 + 7));

        // Unshared segments mutate in place: no further divergence.
        s.delete(SEGMENT_CAP as u32 + 8);
        assert_eq!(s.shared_segments_with(&snap), 2);
        s.check().unwrap();
        snap.check().unwrap();
    }

    #[test]
    fn update_copies_only_when_shared_and_skips_dead_slots() {
        let mut s = SegmentStore::new();
        s.push(t(1));
        s.push(t(2));
        let snap = s.clone();
        let r = s.update(0, |tup| {
            tup.add_annotation(Item::annotation(9));
        });
        assert!(r.is_some());
        assert!(s.get(0).unwrap().contains(Item::annotation(9)));
        assert!(!snap.get(0).unwrap().contains(Item::annotation(9)));

        s.delete(1);
        assert!(s.update(1, |_| ()).is_none(), "dead slot is untouchable");
        assert!(s.update(99, |_| ()).is_none(), "out of range");
    }

    #[test]
    fn iter_slots_exposes_tombstones() {
        let mut s = SegmentStore::new();
        s.push(t(1));
        s.push(t(2));
        s.delete(0);
        let all: Vec<(u32, bool)> = s.iter_slots().map(|(slot, _, live)| (slot, live)).collect();
        assert_eq!(all, vec![(0, false), (1, true)]);
    }
}
