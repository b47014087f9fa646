//! The dataset state machine: [`WriteState`] and the operators every path
//! shares. No locks, no threads, no I/O.
//!
//! * [`WriteState::apply`] advances the state by one logged record. The
//!   live owner runs *encode + append + `apply`*.
//! * [`WriteState::replay`] folds what a walk of a log directory
//!   delivered — a checkpoint payload to restart from, then records —
//!   into the state. A follower's poll and a take-over of the log (a
//!   promotion, or the recovery that opening a durable dataset runs on a
//!   fresh cursor) are this one fold over the one walk
//!   ([`anno_wal::TailCursor`]); they differ only in who holds the lock.
//!
//! One operator each is what keeps a leader, its restart and its replica
//! bit-identical — name-interning order, and with it every raw item id.
//! Whoever is about to publish the state brings the discovery index up to
//! date first ([`WriteState::sync_discovery`]): per drain live, per
//! record on a follower, once at the end of a take-over.

use anno_discover::DiscoveryIndex;
use anno_mine::{IncrementalConfig, IncrementalMiner};
use anno_store::fxhash::FxHashSet;
use anno_store::{parse_tuple_line, AnnotatedRelation, AnnotationUpdate, ItemKind, Tuple, TupleId};

use crate::metrics::timed;
use crate::queue::UpdateOp;
use crate::walcodec::{self, WalRecord};

/// The grouped-sync ack pipeline depth: how many applied-and-published
/// drains may wait on an open sync window before the owner stops to
/// retire the oldest. A take-over of the log adds it to the publish
/// counter as slack (see `Owner::take_over`).
pub(crate) const MAX_PIPELINED_ACKS: usize = 32;

/// Everything a dataset's owner thread mutates.
#[derive(Clone)]
pub(crate) struct WriteState {
    pub relation: AnnotatedRelation,
    pub miner: Option<IncrementalMiner>,
    /// The incrementally maintained correlation-discovery index, refreshed
    /// from the miner's touch log after every maintenance pass (empty and
    /// inert until mined).
    pub discovery: DiscoveryIndex,
}

/// A record's application panicked. Every caller contains this the same
/// way — the state may be half-updated, so it must not be served on.
pub(crate) struct ApplyPanicked;

impl WriteState {
    /// The state of a dataset nothing has been written to.
    pub(crate) fn empty(name: &str) -> WriteState {
        WriteState {
            relation: AnnotatedRelation::new(name),
            miner: None,
            discovery: DiscoveryIndex::new(),
        }
    }

    /// Rebuild the state a checkpoint payload froze, plus the publish
    /// counter it was captured at. The discovery index is not persisted:
    /// it is rebuilt from the restored miner's table. Errors read
    /// `<stage>: <cause>`.
    fn restore(payload: &[u8]) -> Result<(WriteState, u64), String> {
        let (relation, miner, publish_seq) =
            walcodec::decode_checkpoint(payload).map_err(|m| format!("checkpoint payload: {m}"))?;
        if let Some(m) = &miner {
            // The two halves of the checkpoint must be from the same
            // instant; continuing maintenance from a mismatched pair
            // would silently void exactness.
            m.validate_against(&relation)
                .map_err(|m| format!("checkpoint validation: {m}"))?;
        }
        let discovery = (miner.as_ref())
            .map(|m| DiscoveryIndex::rebuilt_from(m.table()))
            .unwrap_or_default();
        let state = WriteState {
            relation,
            miner,
            discovery,
        };
        Ok((state, publish_seq))
    }

    /// Fold what a walk of the log delivered into the state: rebuild it
    /// from `restart` (a checkpoint payload) if there is one, then decode
    /// and [`apply`](WriteState::apply) each record. Returns the publish
    /// counter the restart's checkpoint was captured at.
    ///
    /// A failed restart leaves the state untouched; a record that fails
    /// leaves it at the record boundary before it, which is still a
    /// prefix of the leader's history (short of a panic half-way through
    /// a record — see `apply`). Callers that need to tell the two apart
    /// fold the restart and the records in separate calls.
    pub(crate) fn replay(
        &mut self,
        restart: Option<&[u8]>,
        records: &[Vec<u8>],
    ) -> Result<Option<u64>, String> {
        let mut restored_seq = None;
        if let Some(payload) = restart {
            let (state, seq) = WriteState::restore(payload)?;
            *self = state;
            restored_seq = Some(seq);
        }
        for payload in records {
            let record = walcodec::decode(payload).map_err(|m| format!("log record: {m}"))?;
            // The log is left untouched on a panic: the record may replay
            // fine once the offending code is fixed.
            self.apply(record).map_err(|ApplyPanicked| {
                "log replay: a logged record panicked during re-application; \
                 the log is preserved for inspection"
                    .to_string()
            })?;
        }
        Ok(restored_seq)
    }

    /// Advance the state by one logged record: a drain's batches through
    /// [`apply_op`], a `mine` through a from-scratch mine. Returns how
    /// many batches ran a maintenance pass (prefiltered no-ops are not
    /// counted). The discovery index trails until the next
    /// [`WriteState::sync_discovery`] — due before the state is published.
    ///
    /// The prefilter screens out every known panic source (mis-kinded
    /// items, dead targets), but an unforeseen panic in maintenance code
    /// must surface as an error the caller can fence on — never unwind
    /// the owner thread, and never turn a logged record into a crash loop
    /// on every future open.
    pub(crate) fn apply(&mut self, record: WalRecord) -> Result<u64, ApplyPanicked> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match record {
            WalRecord::Drain(ops) => {
                let mut applied = 0;
                for op in ops {
                    applied += u64::from(apply_op(self, op));
                }
                applied
            }
            WalRecord::Mine(config) => {
                self.miner = Some(IncrementalMiner::mine_initial(&self.relation, config));
                0
            }
        }))
        .map_err(|_| ApplyPanicked)
    }

    /// Drain the miner's touch log into the discovery index — the step
    /// that keeps discovery *incremental*: only pairs involving items
    /// touched since the last sync are re-scored (a `mine` marks the log
    /// all-dirty, so the rebuild case is covered too). The log merges
    /// across records, so a replay may fold it in once at the end.
    /// Returns how long the refresh took; `None` pre-mine or when
    /// nothing moved.
    pub(crate) fn sync_discovery(&mut self) -> Option<u64> {
        let miner = self.miner.as_mut()?;
        let touches = miner.take_touches();
        if touches.is_empty() {
            return None;
        }
        let ((), nanos) = timed(|| self.discovery.refresh(miner.table(), &touches));
        Some(nanos)
    }

    /// `true` iff some batch would change the relation. If none can, the
    /// whole drain is a no-op — each batch leaves the state unchanged, so
    /// the screen holds inductively across the batch sequence — and
    /// neither the log nor `apply` needs to see it. This keeps the WAL
    /// invariant "one appended record per *effective* drain".
    pub(crate) fn has_effect(&self, batches: &[UpdateOp]) -> bool {
        batches.iter().any(|b| op_has_effect(&self.relation, b))
    }

    /// The configuration the maintained table is exact under, once mined.
    pub(crate) fn mined_config(&self) -> Option<IncrementalConfig> {
        self.miner.as_ref().map(IncrementalMiner::config)
    }
}

/// Apply one coalesced batch: through the miner's incremental maintenance
/// once mined, directly to the relation during the pre-mine loading phase.
///
/// Ops are pre-filtered against the relation first: a batch that cannot
/// change anything (dead targets, already-present/absent annotations,
/// comment-only rows) returns `false` before any mutation, so ineffective
/// drains neither touch the segment store (whose own no-op prechecks keep
/// shared segments shared) nor intern stray names into the vocabulary.
/// Returns `true` iff a maintenance pass actually ran.
fn apply_op(state: &mut WriteState, op: UpdateOp) -> bool {
    let Some(mut op) = prefilter(&state.relation, op) else {
        return false;
    };
    canonicalize_batch(&mut op);
    let WriteState {
        relation, miner, ..
    } = state;
    let rel = relation;
    match op {
        UpdateOp::InsertRows(lines) => {
            let tuples: Vec<Tuple> = lines
                .iter()
                .filter_map(|line| parse_tuple_line(rel.vocab_mut(), line))
                .collect();
            insert_tuples(rel, miner, tuples);
        }
        UpdateOp::InsertTuples(tuples) => insert_tuples(rel, miner, tuples),
        UpdateOp::Annotate(updates) => annotate(rel, miner, updates),
        UpdateOp::AnnotateNamed(named) => {
            let updates: Vec<AnnotationUpdate> = named
                .into_iter()
                .map(|(tuple, name)| {
                    // Read-only resolution first: `vocab_mut` copy-on-writes
                    // the whole interner when a published snapshot shares
                    // it, so only genuinely new names may pay that.
                    let annotation = rel
                        .vocab()
                        .get(ItemKind::Annotation, &name)
                        .unwrap_or_else(|| rel.vocab_mut().annotation(&name));
                    AnnotationUpdate { tuple, annotation }
                })
                .collect();
            annotate(rel, miner, updates);
        }
        UpdateOp::RemoveAnnotations(updates) => remove(rel, miner, &updates),
        UpdateOp::RemoveNamed(named) => {
            let updates: Vec<AnnotationUpdate> = named
                .into_iter()
                .filter_map(|(tuple, name)| {
                    rel.vocab()
                        .get(ItemKind::Annotation, &name)
                        .map(|annotation| AnnotationUpdate { tuple, annotation })
                })
                .collect();
            remove(rel, miner, &updates);
        }
        UpdateOp::DeleteTuples(tids) => match miner {
            Some(m) => {
                m.delete_tuples(rel, &tids);
            }
            None => {
                for tid in tids {
                    rel.delete_tuple(tid);
                }
            }
        },
    }
    true
}

/// Group a batch's updates by target tuple — and therefore by segment,
/// since segment id is `tid >> SEGMENT_BITS` — before applying. A
/// scatter-heavy batch then walks each touched segment's updates
/// back-to-back: the segment (and its postings) is pulled into cache
/// once, its copy-on-write clone is amortized across all of its updates,
/// and the application order is deterministic.
///
/// Determinism matters beyond tidiness: WAL replay runs this same sort
/// (both paths go through [`apply_op`]), so name-interning order — and
/// with it every raw item id — is identical live and after recovery. The
/// sort is stable, keeping same-tuple updates in client order; insert ops
/// are never reordered (tuple ids are assigned by arrival).
fn sort_for_segment_locality(op: &mut UpdateOp) {
    match op {
        UpdateOp::Annotate(updates) | UpdateOp::RemoveAnnotations(updates) => {
            updates.sort_by_key(|u| u.tuple);
        }
        UpdateOp::AnnotateNamed(named) | UpdateOp::RemoveNamed(named) => {
            named.sort_by_key(|(tid, _)| *tid);
        }
        UpdateOp::DeleteTuples(tids) => tids.sort_unstable(),
        UpdateOp::InsertRows(_) | UpdateOp::InsertTuples(_) => {}
    }
}

/// The canonical batch form every path agrees on — the live writer
/// before logging, [`apply_op`] (and therefore WAL replay, including
/// logs written before the dedupe existed): [`sort_for_segment_locality`]
/// followed by [`dedupe_within_batch`]. Idempotent, so re-canonicalizing
/// an already-canonical batch (replay of a post-dedupe log) is a no-op.
pub(crate) fn canonicalize_batch(op: &mut UpdateOp) {
    sort_for_segment_locality(op);
    dedupe_within_batch(op);
}

/// Drop updates that repeat an earlier one in the same batch. The
/// `effective`/`prefilter` screen checks each update against the
/// pre-batch relation only, so when [`coalesce`](crate::queue::coalesce) merges two clients'
/// ops targeting the same `(tuple, annotation)` into one batch, both
/// pass the screen — the echo must be dropped here or it is logged,
/// replayed, and pushed through the maintenance path on every recovery.
/// Keep-first is canonical: the locality sort is stable, so the first
/// occurrence in client order survives. Insert batches are untouched —
/// repeated rows are distinct tuples by definition.
fn dedupe_within_batch(op: &mut UpdateOp) {
    match op {
        UpdateOp::Annotate(updates) | UpdateOp::RemoveAnnotations(updates) => {
            let mut seen = FxHashSet::default();
            updates.retain(|u| seen.insert((u.tuple, u.annotation)));
        }
        UpdateOp::AnnotateNamed(named) | UpdateOp::RemoveNamed(named) => {
            let mut seen: FxHashSet<(TupleId, String)> = FxHashSet::default();
            named.retain(|(tid, name)| seen.insert((*tid, name.clone())));
        }
        // Already sorted; duplicates are adjacent.
        UpdateOp::DeleteTuples(tids) => tids.dedup(),
        UpdateOp::InsertRows(_) | UpdateOp::InsertTuples(_) => {}
    }
}

/// Per-element effectiveness predicates, shared verbatim by
/// [`op_has_effect`] (folded with `any`) and [`prefilter`] (folded with
/// `filter`). Keeping them in one place is load-bearing: the writer
/// neither logs nor applies a drain the screen deems ineffective, so a
/// divergence between the two callers would silently drop acknowledged
/// client updates. All predicates are read-only — never interning.
mod effective {
    use super::*;

    /// A text row that parses to at least one item. Comment/blank/
    /// separator-only rows would otherwise silently inflate every support
    /// denominator.
    pub(super) fn row(line: &str) -> bool {
        anno_store::line_has_items(line)
    }

    /// A tuple with items — the pre-parsed form of the same hazard
    /// [`row`] guards on the text path.
    pub(super) fn tuple(t: &Tuple) -> bool {
        !t.items().is_empty()
    }

    /// An annotation add that is correctly kinded (a data-kind Item would
    /// panic the store's annotate path inside the writer thread), live-
    /// targeted, and not already present.
    pub(super) fn annotate(rel: &AnnotatedRelation, u: &AnnotationUpdate) -> bool {
        u.annotation.is_annotation_like()
            && rel
                .tuple(u.tuple)
                .is_some_and(|t| !t.contains(u.annotation))
    }

    /// A named annotation add with a live target whose name is new or not
    /// yet attached. Dropping dead targets keeps the vocabulary free of
    /// names that never attach to anything.
    pub(super) fn annotate_named(rel: &AnnotatedRelation, tid: TupleId, name: &str) -> bool {
        match rel.tuple(tid) {
            None => false,
            Some(t) => rel
                .vocab()
                .get(ItemKind::Annotation, name)
                .is_none_or(|item| !t.contains(item)),
        }
    }

    /// An annotation removal that is correctly kinded and actually held.
    pub(super) fn remove(rel: &AnnotatedRelation, u: &AnnotationUpdate) -> bool {
        u.annotation.is_annotation_like()
            && rel.tuple(u.tuple).is_some_and(|t| t.contains(u.annotation))
    }

    /// A named removal whose name resolves and is attached to the target.
    pub(super) fn remove_named(rel: &AnnotatedRelation, tid: TupleId, name: &str) -> bool {
        rel.vocab()
            .get(ItemKind::Annotation, name)
            .is_some_and(|item| rel.tuple(tid).is_some_and(|t| t.contains(item)))
    }

    /// A deletion of a still-live tuple.
    pub(super) fn delete(rel: &AnnotatedRelation, tid: TupleId) -> bool {
        rel.is_live(tid)
    }
}

/// `true` iff applying `op` to `rel` would change anything — the
/// [`effective`] predicates folded with `any`, without consuming the op.
/// Used by the writer to decide whether a drain deserves a WAL append at
/// all: if every batch is ineffective against the current state, applying
/// them in sequence leaves the state unchanged at every step, so the
/// whole drain is skippable.
fn op_has_effect(rel: &AnnotatedRelation, op: &UpdateOp) -> bool {
    match op {
        UpdateOp::InsertRows(lines) => lines.iter().any(|line| effective::row(line)),
        UpdateOp::InsertTuples(tuples) => tuples.iter().any(effective::tuple),
        UpdateOp::Annotate(updates) => updates.iter().any(|u| effective::annotate(rel, u)),
        UpdateOp::AnnotateNamed(named) => named
            .iter()
            .any(|(tid, name)| effective::annotate_named(rel, *tid, name)),
        UpdateOp::RemoveAnnotations(updates) => updates.iter().any(|u| effective::remove(rel, u)),
        UpdateOp::RemoveNamed(named) => named
            .iter()
            .any(|(tid, name)| effective::remove_named(rel, *tid, name)),
        UpdateOp::DeleteTuples(tids) => tids.iter().any(|&tid| effective::delete(rel, tid)),
    }
}

/// Drop the parts of `op` that are no-ops against the current relation —
/// the [`effective`] predicates folded with `filter` — returning `None`
/// if nothing effective remains.
fn prefilter(rel: &AnnotatedRelation, op: UpdateOp) -> Option<UpdateOp> {
    let filtered = match op {
        UpdateOp::InsertRows(lines) => UpdateOp::InsertRows(
            lines
                .into_iter()
                .filter(|line| effective::row(line))
                .collect(),
        ),
        UpdateOp::InsertTuples(tuples) => {
            UpdateOp::InsertTuples(tuples.into_iter().filter(effective::tuple).collect())
        }
        UpdateOp::Annotate(updates) => UpdateOp::Annotate(
            updates
                .into_iter()
                .filter(|u| effective::annotate(rel, u))
                .collect(),
        ),
        UpdateOp::AnnotateNamed(named) => UpdateOp::AnnotateNamed(
            named
                .into_iter()
                .filter(|(tid, name)| effective::annotate_named(rel, *tid, name))
                .collect(),
        ),
        UpdateOp::RemoveAnnotations(updates) => UpdateOp::RemoveAnnotations(
            updates
                .into_iter()
                .filter(|u| effective::remove(rel, u))
                .collect(),
        ),
        UpdateOp::RemoveNamed(named) => UpdateOp::RemoveNamed(
            named
                .into_iter()
                .filter(|(tid, name)| effective::remove_named(rel, *tid, name))
                .collect(),
        ),
        UpdateOp::DeleteTuples(tids) => UpdateOp::DeleteTuples(
            tids.into_iter()
                .filter(|&tid| effective::delete(rel, tid))
                .collect(),
        ),
    };
    (!filtered.is_empty()).then_some(filtered)
}

fn insert_tuples(
    rel: &mut AnnotatedRelation,
    miner: &mut Option<IncrementalMiner>,
    tuples: Vec<Tuple>,
) {
    if tuples.is_empty() {
        return;
    }
    match miner {
        // Case split keeps the miner's per-case statistics meaningful.
        Some(m) if tuples.iter().all(Tuple::is_unannotated) => {
            m.add_unannotated_tuples(rel, tuples);
        }
        Some(m) => {
            m.add_annotated_tuples(rel, tuples);
        }
        None => {
            rel.extend(tuples);
        }
    }
}

fn annotate(
    rel: &mut AnnotatedRelation,
    miner: &mut Option<IncrementalMiner>,
    updates: Vec<AnnotationUpdate>,
) {
    match miner {
        Some(m) => {
            m.apply_annotations(rel, updates);
        }
        None => {
            rel.apply_annotation_batch(updates);
        }
    }
}

fn remove(
    rel: &mut AnnotatedRelation,
    miner: &mut Option<IncrementalMiner>,
    updates: &[AnnotationUpdate],
) {
    match miner {
        Some(m) => {
            m.remove_annotations(rel, updates);
        }
        None => {
            for u in updates {
                rel.remove_annotation(u.tuple, u.annotation);
            }
        }
    }
}
