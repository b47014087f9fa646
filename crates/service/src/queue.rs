//! The coalescing update queue feeding each dataset's writer thread.
//!
//! Clients enqueue [`UpdateOp`]s; the writer drains everything pending in
//! one pass, [`coalesce`]s adjacent ops of the same kind into single
//! batches, applies each batch through the miner's incremental
//! maintenance (one §4.3 pass per batch instead of one per op), and
//! publishes one snapshot for the whole drain. Coalescing preserves the
//! client-visible order: only *adjacent* ops merge, so an
//! annotate-then-delete sequence is never reordered into
//! delete-then-annotate.

use std::collections::VecDeque;

use anno_store::{AnnotationUpdate, Tuple, TupleId};

use crate::dataset::Request;

/// Per-tenant quality-of-service class, set with the `class <ds>
/// interactive|bulk` protocol verb. The class drives admission control in
/// the sharded front end: how big a per-tick command budget the tenant's
/// connections get, and how overload is signalled back (interactive
/// tenants are shed fast with a typed `Overloaded` error so their latency
/// stays bounded; bulk tenants are parked via read suspension — natural
/// TCP backpressure — so a loader just slows down instead of erroring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosClass {
    /// Latency-sensitive tenant (the default): large per-tick command
    /// budget, overload answered immediately with `Overloaded`.
    #[default]
    Interactive,
    /// Throughput tenant: small per-tick command budget so it can never
    /// monopolize a shard's event loop, overload absorbed by suspending
    /// reads until the writer drains.
    Bulk,
}

impl QosClass {
    /// Stable lowercase label (protocol replies, metric labels).
    pub fn label(&self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::Bulk => "bulk",
        }
    }

    /// Parse a protocol token (case-insensitive).
    pub fn parse(tok: &str) -> Option<QosClass> {
        match tok.to_ascii_lowercase().as_str() {
            "interactive" => Some(QosClass::Interactive),
            "bulk" => Some(QosClass::Bulk),
            _ => None,
        }
    }
}

/// One queued mutation. Text-carrying variants (`InsertRows`,
/// `AnnotateNamed`, `RemoveNamed`) defer vocabulary interning to the
/// writer thread so protocol handlers never touch the write lock.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// Insert Fig. 4-format rows (`28 85 Annot_1`), parsed at apply time.
    InsertRows(Vec<String>),
    /// Insert pre-interned tuples (cases 1–2 of §4.3).
    InsertTuples(Vec<Tuple>),
    /// Attach interned annotations (case 3 of §4.3).
    Annotate(Vec<AnnotationUpdate>),
    /// Attach annotations by name, interned at apply time.
    AnnotateNamed(Vec<(TupleId, String)>),
    /// Detach interned annotations (the paper's §6 deletion case).
    RemoveAnnotations(Vec<AnnotationUpdate>),
    /// Detach annotations by name; unknown names are no-ops.
    RemoveNamed(Vec<(TupleId, String)>),
    /// Tombstone whole tuples.
    DeleteTuples(Vec<TupleId>),
}

impl UpdateOp {
    /// Number of individual updates this op carries.
    pub fn len(&self) -> usize {
        match self {
            UpdateOp::InsertRows(v) => v.len(),
            UpdateOp::InsertTuples(v) => v.len(),
            UpdateOp::Annotate(v) => v.len(),
            UpdateOp::AnnotateNamed(v) => v.len(),
            UpdateOp::RemoveAnnotations(v) => v.len(),
            UpdateOp::RemoveNamed(v) => v.len(),
            UpdateOp::DeleteTuples(v) => v.len(),
        }
    }

    /// `true` iff the op carries no updates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold `other` into `self` if both are the same kind. Returns the op
    /// back on kind mismatch.
    fn absorb(&mut self, other: UpdateOp) -> Option<UpdateOp> {
        match (self, other) {
            (UpdateOp::InsertRows(a), UpdateOp::InsertRows(b)) => {
                a.extend(b);
                None
            }
            (UpdateOp::InsertTuples(a), UpdateOp::InsertTuples(b)) => {
                a.extend(b);
                None
            }
            (UpdateOp::Annotate(a), UpdateOp::Annotate(b)) => {
                a.extend(b);
                None
            }
            (UpdateOp::AnnotateNamed(a), UpdateOp::AnnotateNamed(b)) => {
                a.extend(b);
                None
            }
            (UpdateOp::RemoveAnnotations(a), UpdateOp::RemoveAnnotations(b)) => {
                a.extend(b);
                None
            }
            (UpdateOp::RemoveNamed(a), UpdateOp::RemoveNamed(b)) => {
                a.extend(b);
                None
            }
            (UpdateOp::DeleteTuples(a), UpdateOp::DeleteTuples(b)) => {
                a.extend(b);
                None
            }
            (_, other) => Some(other),
        }
    }
}

/// Merge adjacent same-kind ops. Returns the batches and how many ops
/// were folded into a neighbouring batch (empty ops are dropped without
/// counting as folded).
pub fn coalesce(ops: Vec<UpdateOp>) -> (Vec<UpdateOp>, u64) {
    let mut out: Vec<UpdateOp> = Vec::new();
    let mut folded = 0u64;
    for op in ops {
        if op.is_empty() {
            continue;
        }
        match out.last_mut() {
            Some(last) => match last.absorb(op) {
                Some(unmerged) => out.push(unmerged),
                None => folded += 1,
            },
            None => out.push(op),
        }
    }
    (out, folded)
}

/// Default high-water mark for individual updates waiting in the queue.
/// A TCP-exposed daemon must not let one fast client grow memory without
/// bound; past this, `enqueue` blocks until the writer drains.
pub(crate) const DEFAULT_PENDING_CAP: usize = 65_536;

/// The dataset's mailbox, guarded by its queue mutex.
pub(crate) struct QueueState {
    /// Ops awaiting the owner, in arrival order.
    pub pending: Vec<UpdateOp>,
    /// Control requests awaiting the owner. Served after `pending` is
    /// drained, so a request observes every op queued before it.
    pub requests: VecDeque<Request>,
    /// Individual updates inside `pending` (backpressure accounting).
    pub pending_updates: usize,
    /// Backpressure high-water mark on `pending_updates`.
    pub cap_updates: usize,
    /// Ops ever accepted.
    pub enqueued: u64,
    /// Ops whose effects are visible in the published snapshot.
    pub applied: u64,
    /// Drains applied and published whose grouped sync window is still
    /// open. Admission control decides on it under this lock, and
    /// `anno_unacked_drains` reads it from here.
    pub unacked: usize,
    /// Writer passes that took work off the queue (each is one coalesced
    /// drain — the unit the publish-cost model is amortized over, and the
    /// `M` in "readers pinned across M drains" stress runs).
    pub drains: u64,
    /// Set once at shutdown; the writer drains what is pending, then exits.
    pub shutdown: bool,
    /// Set only when the writer thread died abnormally (panic): pending
    /// ops are lost, and waiting clients must fail fast instead of
    /// timing out.
    pub writer_dead: bool,
    /// Test hook: while set, the writer leaves pending work on the queue,
    /// so admission tests can fill it deterministically. Cleared by
    /// shutdown so the final drain still happens.
    pub paused: bool,
    /// The tenant's QoS class (see [`QosClass`]); read by the sharded
    /// front end on every admission decision, so it lives under the same
    /// lock the decision already takes.
    pub class: QosClass,
}

impl Default for QueueState {
    fn default() -> Self {
        QueueState {
            pending: Vec::new(),
            requests: VecDeque::new(),
            pending_updates: 0,
            cap_updates: DEFAULT_PENDING_CAP,
            enqueued: 0,
            applied: 0,
            unacked: 0,
            drains: 0,
            shutdown: false,
            writer_dead: false,
            paused: false,
            class: QosClass::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn annotate(tid: u32) -> UpdateOp {
        UpdateOp::AnnotateNamed(vec![(TupleId(tid), "A".into())])
    }

    #[test]
    fn adjacent_same_kind_ops_merge() {
        let (batches, folded) = coalesce(vec![annotate(0), annotate(1), annotate(2)]);
        assert_eq!(batches.len(), 1);
        assert_eq!(folded, 2);
        assert_eq!(batches[0].len(), 3);
    }

    #[test]
    fn kind_changes_preserve_order() {
        let ops = vec![
            annotate(0),
            UpdateOp::DeleteTuples(vec![TupleId(0)]),
            annotate(1),
            annotate(2),
        ];
        let (batches, folded) = coalesce(ops);
        assert_eq!(batches.len(), 3, "delete must stay between the annotates");
        assert_eq!(folded, 1);
        assert!(matches!(batches[0], UpdateOp::AnnotateNamed(_)));
        assert!(matches!(batches[1], UpdateOp::DeleteTuples(_)));
        assert!(matches!(batches[2], UpdateOp::AnnotateNamed(_)));
    }

    #[test]
    fn empty_ops_are_dropped_without_counting_as_folded() {
        let (batches, folded) = coalesce(vec![
            UpdateOp::InsertRows(vec![]),
            annotate(1),
            UpdateOp::DeleteTuples(vec![]),
        ]);
        assert_eq!(batches.len(), 1);
        assert_eq!(folded, 0, "dropping empties is not coalescing");
    }
}
