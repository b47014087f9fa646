//! The annotated relation: tuple storage plus maintained indexes.
//!
//! [`AnnotatedRelation`] is the concrete realisation of paper Definition 4.1
//! and the object every other layer operates on. It owns the
//! [`Vocabulary`], the persistent [`SegmentStore`] of tuples (liveness is
//! tracked per segment; tuple deletion is the paper's future-work item,
//! implemented here), and the [`AnnotationIndex`], and keeps them
//! consistent under the three evolution cases of §4.3:
//!
//! * **Case 1** — [`AnnotatedRelation::extend`] with annotated tuples;
//! * **Case 2** — [`AnnotatedRelation::extend`] with un-annotated tuples;
//! * **Case 3** — [`AnnotatedRelation::apply_annotation_batch`], which
//!   returns the *effective* [`AnnotationDelta`] (duplicates and dead
//!   targets filtered) that incremental maintenance consumes.
//!
//! # Cloning is snapshotting
//!
//! Every component is structurally shared: tuples live in `Arc` segments,
//! index postings are `Arc` bitsets, and the vocabulary rides behind an
//! `Arc`. `Clone` therefore costs O(#segments + #annotations) pointer
//! copies, not O(|D|), and a clone is a true persistent snapshot — later
//! mutations of the original copy-on-write only the touched segment /
//! posting / vocabulary, never the snapshot's view. This is what lets the
//! serving layer publish a relation per drain without re-copying the
//! database (see `anno-service`).

use crate::index::AnnotationIndex;
use crate::item::Item;
use crate::segment::{Segment, SegmentStore};
use crate::tuple::{Tuple, TupleId};
use crate::vocab::Vocabulary;
use std::sync::Arc;

/// One annotation addition: attach `annotation` to `tuple`.
///
/// This is the in-memory form of a Fig. 14 batch line (`150: Annot_3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotationUpdate {
    /// The tuple to annotate.
    pub tuple: TupleId,
    /// The annotation-like item to attach.
    pub annotation: Item,
}

/// The effective result of applying an annotation batch: only the updates
/// that actually changed the relation (targets alive, annotation not already
/// present), in application order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnnotationDelta {
    /// The updates that took effect.
    pub added: Vec<AnnotationUpdate>,
}

impl AnnotationDelta {
    /// `true` iff the batch changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
    }

    /// Number of effective updates.
    pub fn len(&self) -> usize {
        self.added.len()
    }

    /// The distinct annotations introduced by this delta, sorted.
    pub fn distinct_annotations(&self) -> Vec<Item> {
        let mut anns: Vec<Item> = self.added.iter().map(|u| u.annotation).collect();
        anns.sort_unstable();
        anns.dedup();
        anns
    }

    /// The distinct tuples touched by this delta, sorted.
    pub fn touched_tuples(&self) -> Vec<TupleId> {
        let mut tids: Vec<TupleId> = self.added.iter().map(|u| u.tuple).collect();
        tids.sort_unstable();
        tids.dedup();
        tids
    }
}

/// An annotated relation (Definition 4.1) with maintained indexes.
#[derive(Debug, Clone, Default)]
pub struct AnnotatedRelation {
    name: String,
    vocab: Arc<Vocabulary>,
    store: SegmentStore,
    index: AnnotationIndex,
    epoch: u64,
}

impl AnnotatedRelation {
    /// An empty relation called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        AnnotatedRelation {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared access to the vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable access to the vocabulary (for interning while loading).
    /// Copy-on-write at two granularities: if a snapshot clone shares the
    /// vocabulary, the first call after the clone copies the *structure*
    /// (O(#chunks) `Arc` bumps — the interner is itself persistent), and
    /// interning a fresh name then copies at most the shared tail chunk
    /// plus the touched index path. An annotate-only drain over known
    /// names resolves read-only and never calls this at all.
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        Arc::make_mut(&mut self.vocab)
    }

    /// The annotation inverted index.
    pub fn index(&self) -> &AnnotationIndex {
        &self.index
    }

    /// Monotonic mutation counter: bumped once per *effective* change
    /// (tuple inserted or deleted, annotation attached or detached).
    /// Snapshot layers use it to detect staleness without diffing state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restore a persisted epoch (snapshot reload rebuilds the relation by
    /// replaying inserts/deletes, which would otherwise fabricate one).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Number of **live** tuples — the `|D|` denominator of every support
    /// computation.
    pub fn len(&self) -> usize {
        self.store.live_count()
    }

    /// `true` iff no live tuples.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Total slots ever allocated (live + deleted); tuple ids range over
    /// `0..slot_count`.
    pub fn slot_count(&self) -> usize {
        self.store.slot_count()
    }

    /// The segment spine, for segment-at-a-time consumers (the miner's
    /// transaction projection, sharing assertions in tests and benches).
    pub fn segments(&self) -> &[Arc<Segment>] {
        self.store.segments()
    }

    /// How many segments `self` physically shares (same `Arc`) with
    /// `other` — the structural-sharing meter behind the publish-cost
    /// model: a fresh clone shares everything; each mutated segment costs
    /// exactly one.
    pub fn shared_segments_with(&self, other: &AnnotatedRelation) -> usize {
        self.store.shared_segments_with(&other.store)
    }

    /// `true` iff `self` and `other` physically share (same `Arc`) the
    /// vocabulary — i.e. no interning happened between the two since they
    /// diverged. Write paths that resolve existing names read-only keep
    /// this true across drains.
    pub fn shares_vocab_with(&self, other: &AnnotatedRelation) -> bool {
        Arc::ptr_eq(&self.vocab, &other.vocab)
    }

    /// How many vocabulary arena chunks `self` physically shares (same
    /// `Arc`) with `other` — the chunk-level refinement of
    /// [`AnnotatedRelation::shares_vocab_with`]. Even after an
    /// insert-heavy drain unshares the outer vocabulary, every full
    /// (non-tail) chunk of the pre-drain snapshot stays shared; only the
    /// partial tail chunks of the namespaces that interned fresh names
    /// are copied.
    pub fn vocab_shared_chunks_with(&self, other: &AnnotatedRelation) -> usize {
        self.vocab.shared_chunks_with(&other.vocab)
    }

    /// Total vocabulary arena chunks across all namespaces (the
    /// denominator for [`AnnotatedRelation::vocab_shared_chunks_with`]).
    pub fn vocab_chunk_count(&self) -> usize {
        self.vocab.total_chunks()
    }

    /// Insert one tuple, returning its id.
    pub fn insert(&mut self, tuple: Tuple) -> TupleId {
        #[expect(
            clippy::expect_used,
            reason = "tuple ids are u32 in every format; 2^32 tuples exceed memory first"
        )]
        let slot = u32::try_from(self.store.slot_count()).expect("relation overflow");
        let tid = TupleId(slot);
        for &ann in tuple.annotations() {
            self.index.insert(tid, ann);
        }
        let pushed = self.store.push(tuple);
        debug_assert_eq!(pushed, slot);
        self.epoch += 1;
        tid
    }

    /// Insert a batch of tuples (Cases 1 and 2 of §4.3), returning the ids
    /// assigned, in order.
    pub fn extend<I: IntoIterator<Item = Tuple>>(&mut self, tuples: I) -> Vec<TupleId> {
        tuples.into_iter().map(|t| self.insert(t)).collect()
    }

    /// The tuple with id `tid`, if it exists and is live.
    pub fn tuple(&self, tid: TupleId) -> Option<&Tuple> {
        self.store.get(tid.0)
    }

    /// `true` iff `tid` refers to a live tuple.
    pub fn is_live(&self, tid: TupleId) -> bool {
        self.store.is_live(tid.0)
    }

    /// Iterate live `(id, tuple)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Tuple)> + '_ {
        self.store.iter_live().map(|(slot, t)| (TupleId(slot), t))
    }

    /// Iterate live tuples carrying annotation `ann` (via the index).
    pub fn tuples_with(&self, ann: Item) -> impl Iterator<Item = (TupleId, &Tuple)> + '_ {
        self.index
            .tuples_with(ann)
            .filter_map(move |tid| Some((tid, self.store.get(tid.0)?)))
    }

    /// Attach `ann` to `tid`. Returns `true` if the relation changed.
    pub fn add_annotation(&mut self, tid: TupleId, ann: Item) -> bool {
        assert!(
            ann.is_annotation_like(),
            "cannot annotate with a data value"
        );
        // Shared-read precheck so a duplicate never copies the segment.
        match self.store.get(tid.0) {
            None => return false,
            Some(t) if t.contains(ann) => return false,
            Some(_) => {}
        }
        let Some(added) = self.store.update(tid.0, |t| t.add_annotation(ann)) else {
            return false;
        };
        debug_assert!(added);
        self.index.insert(tid, ann);
        self.epoch += 1;
        true
    }

    /// Apply an annotation batch (Case 3 of §4.3, Fig. 14), returning the
    /// effective delta for incremental rule maintenance.
    pub fn apply_annotation_batch(
        &mut self,
        updates: impl IntoIterator<Item = AnnotationUpdate>,
    ) -> AnnotationDelta {
        let mut delta = AnnotationDelta::default();
        for u in updates {
            if self.add_annotation(u.tuple, u.annotation) {
                delta.added.push(u);
            }
        }
        delta
    }

    /// Detach `ann` from `tid` (the paper's future-work deletion case).
    /// Returns `true` if the relation changed.
    pub fn remove_annotation(&mut self, tid: TupleId, ann: Item) -> bool {
        assert!(
            ann.is_annotation_like(),
            "cannot remove a data value as an annotation"
        );
        match self.store.get(tid.0) {
            None => return false,
            Some(t) if !t.contains(ann) => return false,
            Some(_) => {}
        }
        let Some(removed) = self.store.update(tid.0, |t| t.remove_annotation(ann)) else {
            return false;
        };
        debug_assert!(removed);
        self.index.remove(tid, ann);
        self.epoch += 1;
        true
    }

    /// Delete a tuple (tombstone; ids of other tuples are unaffected).
    /// Returns `true` if the tuple was live.
    pub fn delete_tuple(&mut self, tid: TupleId) -> bool {
        let anns: Vec<Item> = match self.store.get(tid.0) {
            Some(t) => t.annotations().to_vec(),
            None => return false,
        };
        let deleted = self.store.delete(tid.0);
        debug_assert!(deleted);
        for ann in anns {
            self.index.remove(tid, ann);
        }
        self.epoch += 1;
        true
    }

    /// Validate internal consistency (index ↔ segments ↔ liveness).
    /// Intended for tests and debug assertions; O(total items).
    pub fn check_consistency(&self) -> Result<(), String> {
        self.store.check()?;
        for (slot, tuple, live) in self.store.iter_slots() {
            if !live {
                continue;
            }
            let tid = TupleId(slot);
            for &ann in tuple.annotations() {
                let posted = self.index.postings(ann).is_some_and(|b| b.contains(tid.0));
                if !posted {
                    return Err(format!("annotation {ann:?} of {tid} missing from index"));
                }
            }
        }
        for ann in self.index.annotations() {
            for tid in self.index.tuples_with(ann) {
                let ok = self.tuple(tid).is_some_and(|t| t.contains(ann));
                if !ok {
                    return Err(format!("index points {ann:?} at {tid} which lacks it"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SEGMENT_CAP;

    fn tup(rel: &mut AnnotatedRelation, data: &[&str], anns: &[&str]) -> Tuple {
        let data: Vec<Item> = data.iter().map(|d| rel.vocab_mut().data(d)).collect();
        let anns: Vec<Item> = anns.iter().map(|a| rel.vocab_mut().annotation(a)).collect();
        Tuple::new(data, anns)
    }

    #[test]
    fn insert_maintains_index_and_count() {
        let mut rel = AnnotatedRelation::new("R");
        let t0 = tup(&mut rel, &["1", "2"], &["Annot_1"]);
        let t1 = tup(&mut rel, &["2"], &[]);
        let ids = rel.extend([t0, t1]);
        assert_eq!(ids, vec![TupleId(0), TupleId(1)]);
        assert_eq!(rel.len(), 2);
        let a1 = rel
            .vocab()
            .get(crate::item::ItemKind::Annotation, "Annot_1")
            .unwrap();
        assert_eq!(rel.index().frequency(a1), 1);
        rel.check_consistency().unwrap();
    }

    #[test]
    fn annotation_batch_filters_duplicates_and_dead_targets() {
        let mut rel = AnnotatedRelation::new("R");
        let t0 = tup(&mut rel, &["1"], &["A"]);
        let t1 = tup(&mut rel, &["2"], &[]);
        rel.extend([t0, t1]);
        let a = rel.vocab_mut().annotation("A");
        let b = rel.vocab_mut().annotation("B");
        rel.delete_tuple(TupleId(1));
        let delta = rel.apply_annotation_batch([
            AnnotationUpdate {
                tuple: TupleId(0),
                annotation: a,
            }, // duplicate
            AnnotationUpdate {
                tuple: TupleId(0),
                annotation: b,
            }, // effective
            AnnotationUpdate {
                tuple: TupleId(1),
                annotation: b,
            }, // dead target
            AnnotationUpdate {
                tuple: TupleId(9),
                annotation: b,
            }, // out of range
        ]);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta.added[0].annotation, b);
        assert_eq!(delta.distinct_annotations(), vec![b]);
        assert_eq!(delta.touched_tuples(), vec![TupleId(0)]);
        rel.check_consistency().unwrap();
    }

    #[test]
    fn delete_tuple_tombstones_and_unindexes() {
        let mut rel = AnnotatedRelation::new("R");
        let t0 = tup(&mut rel, &["1"], &["A"]);
        let t1 = tup(&mut rel, &["2"], &["A"]);
        rel.extend([t0, t1]);
        let a = rel.vocab_mut().annotation("A");
        assert!(rel.delete_tuple(TupleId(0)));
        assert!(!rel.delete_tuple(TupleId(0)));
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.slot_count(), 2);
        assert!(rel.tuple(TupleId(0)).is_none());
        assert!(rel.tuple(TupleId(1)).is_some());
        assert_eq!(rel.index().frequency(a), 1);
        assert_eq!(rel.iter().count(), 1);
        rel.check_consistency().unwrap();
    }

    #[test]
    fn remove_annotation_updates_index() {
        let mut rel = AnnotatedRelation::new("R");
        let t0 = tup(&mut rel, &["1"], &["A"]);
        rel.insert(t0);
        let a = rel.vocab_mut().annotation("A");
        assert!(rel.remove_annotation(TupleId(0), a));
        assert!(!rel.remove_annotation(TupleId(0), a));
        assert_eq!(rel.index().frequency(a), 0);
        rel.check_consistency().unwrap();
    }

    #[test]
    fn tuples_with_walks_the_index() {
        let mut rel = AnnotatedRelation::new("R");
        let t0 = tup(&mut rel, &["1"], &["A"]);
        let t1 = tup(&mut rel, &["2"], &[]);
        let t2 = tup(&mut rel, &["3"], &["A"]);
        rel.extend([t0, t1, t2]);
        let a = rel.vocab_mut().annotation("A");
        let hits: Vec<TupleId> = rel.tuples_with(a).map(|(tid, _)| tid).collect();
        assert_eq!(hits, vec![TupleId(0), TupleId(2)]);
    }

    #[test]
    fn epoch_counts_effective_mutations_only() {
        let mut rel = AnnotatedRelation::new("R");
        assert_eq!(rel.epoch(), 0);
        let t0 = tup(&mut rel, &["1"], &["A"]);
        rel.insert(t0); // +1
        let a = rel.vocab_mut().annotation("A");
        let b = rel.vocab_mut().annotation("B");
        assert!(!rel.add_annotation(TupleId(0), a)); // duplicate: no bump
        assert!(rel.add_annotation(TupleId(0), b)); // +1
        assert!(rel.remove_annotation(TupleId(0), b)); // +1
        assert!(!rel.remove_annotation(TupleId(0), b)); // absent: no bump
        assert!(rel.delete_tuple(TupleId(0))); // +1
        assert!(!rel.delete_tuple(TupleId(0))); // dead: no bump
        assert_eq!(rel.epoch(), 4);
    }

    #[test]
    fn consistency_check_catches_corruption() {
        let rel = AnnotatedRelation::new("R");
        assert!(rel.check_consistency().is_ok());
    }

    #[test]
    fn clone_is_a_persistent_snapshot() {
        let mut rel = AnnotatedRelation::new("R");
        for i in 0..(SEGMENT_CAP + 10) {
            let t = tup(&mut rel, &[&format!("{i}")], &["A"]);
            rel.insert(t);
        }
        let a = rel
            .vocab()
            .get(crate::item::ItemKind::Annotation, "A")
            .unwrap();
        let snap = rel.clone();
        assert_eq!(rel.shared_segments_with(&snap), 2, "clone shares the spine");

        // Mutations after the clone: the snapshot's view never moves.
        // Delete + un-annotate both land in segment 0, so exactly one
        // segment is copied-on-write.
        rel.delete_tuple(TupleId(0));
        assert!(rel.remove_annotation(TupleId(1), a));
        assert_eq!(rel.shared_segments_with(&snap), 1);
        // Appending lands in the partial tail segment, copying it too.
        let t = tup(&mut rel, &["fresh"], &["B"]);
        rel.insert(t);

        assert_eq!(snap.len(), SEGMENT_CAP + 10);
        assert!(snap.is_live(TupleId(0)));
        assert!(snap.tuple(TupleId(1)).unwrap().contains(a));
        assert_eq!(snap.index().frequency(a), SEGMENT_CAP + 10);
        assert!(
            snap.vocab()
                .get(crate::item::ItemKind::Annotation, "B")
                .is_none(),
            "snapshot vocabulary is frozen too"
        );
        snap.check_consistency().unwrap();
        rel.check_consistency().unwrap();
        assert_eq!(rel.shared_segments_with(&snap), 0);
    }

    #[test]
    fn noop_mutations_never_unshare_segments() {
        let mut rel = AnnotatedRelation::new("R");
        let t0 = tup(&mut rel, &["1"], &["A"]);
        let t1 = tup(&mut rel, &["2"], &[]);
        rel.extend([t0, t1]);
        let a = rel.vocab_mut().annotation("A");
        rel.delete_tuple(TupleId(1));
        let snap = rel.clone();
        assert!(!rel.add_annotation(TupleId(0), a), "duplicate");
        assert!(!rel.add_annotation(TupleId(1), a), "dead target");
        assert!(!rel.remove_annotation(TupleId(1), a), "dead target");
        assert!(!rel.delete_tuple(TupleId(1)), "already dead");
        assert_eq!(
            rel.shared_segments_with(&snap),
            rel.segments().len(),
            "no-ops must not copy-on-write"
        );
    }
}
