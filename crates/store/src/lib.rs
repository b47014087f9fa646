//! Annotated-relation storage for the `annomine` workspace.
//!
//! This crate is the database substrate beneath the association-rule miner
//! (`anno-mine`). It implements everything the paper's system needs from
//! its storage layer, plus the workload tooling the evaluation requires:
//!
//! * [`item`] — interned [`Item`](item::Item)s: data values, raw
//!   annotations, and generalization labels in one tagged 32-bit space;
//! * [`vocab`] — the persistent, structurally shared
//!   [`Vocabulary`](vocab::Vocabulary): an `Arc`-chunked append-only name
//!   arena plus a hash-array-mapped index, so cloning the interner is
//!   O(#chunks) and interning fresh names copies only the tail chunk and
//!   the touched index path — never the whole table;
//! * [`tuple`] / [`relation`] — annotated tuples (Definition 4.1) and the
//!   [`AnnotatedRelation`](relation::AnnotatedRelation) with liveness
//!   tracking and consistent mutation under the paper's three evolution
//!   cases (plus deletion, the paper's future-work item);
//! * [`segment`] — the persistent, structurally shared tuple store
//!   beneath the relation: `Arc`-shared fixed-capacity segments make
//!   `AnnotatedRelation::clone` an O(#segments) snapshot and bound every
//!   copy-on-write to one segment;
//! * [`index`] — the annotation inverted index of §4.3, backed by [`bitset`];
//! * [`generalize`] — concept taxonomies and the extended annotated
//!   database of §4.1 (Figs. 8–10), including multi-level hierarchies;
//! * [`textio`] — the paper's text formats (Fig. 4 datasets, Fig. 14
//!   annotation batches) for import and export;
//! * [`snapshot`] — the exact binary encoding of a relation (tombstones,
//!   labels, and interning order preserved) and its readable text dump,
//!   written and read with [`codec`], the workspace's one byte codec;
//! * [`generate`] — reproducible synthetic workloads with planted ground
//!   truth, standing in for the paper's unpublished ≈8000-tuple dataset;
//! * [`algebra`] — provenance-propagating relational algebra over any
//!   semiring from `anno-semiring`, bridging annotated relations into the
//!   Green–Karvounarakis–Tannen framework;
//! * [`fxhash`] — the integer-keyed hash maps used throughout.

#![warn(missing_docs)]
// The serving threads must not panic: library code returns typed errors,
// and each deliberate panic carries `#[expect(…, reason = "…")]`. A stale
// or reasonless suppression fails the build.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod algebra;
pub mod bitset;
pub mod codec;
pub mod fxhash;
pub mod generalize;
pub mod generate;
pub mod index;
pub mod item;
pub mod relation;
pub mod segment;
pub mod snapshot;
pub mod textio;
pub mod tuple;
pub mod vocab;

pub use algebra::KRelation;
pub use bitset::BitSet;
pub use generalize::{
    keyword_rule, parse_rules, taxonomy_from_rules, GeneralizationRule, Taxonomy,
};
pub use generate::{
    generate, hide_annotations, random_annotated_tuples, random_annotation_batch,
    random_unannotated_tuples, GeneratorConfig, PlantedRule, SyntheticDataset,
};
pub use index::AnnotationIndex;
pub use item::{Item, ItemKind};
pub use relation::{AnnotatedRelation, AnnotationDelta, AnnotationUpdate};
pub use segment::{Segment, SegmentStore, SEGMENT_BITS, SEGMENT_CAP};
pub use snapshot::snapshot_to_string;
pub use textio::{
    dataset_to_string, format_annotation_batch, format_tuple, line_has_items,
    parse_annotation_batch, parse_dataset, parse_tuple_line, token_kind, ParseError,
};
pub use tuple::{Tuple, TupleId};
pub use vocab::{Vocabulary, VOCAB_CHUNK_BITS, VOCAB_CHUNK_CAP};
