//! `annomine` — a Rust reproduction of *"Discovering Correlations in
//! Annotated Databases"* (Eltabakh group; EDBT 2016 / WPI MQP 2015).
//!
//! Annotated databases attach metadata — provenance, curation flags,
//! comments, quality verdicts — to tuples. This workspace discovers the
//! association rules hiding in that metadata, keeps them **incrementally
//! maintained** as the database evolves, and exploits them to recommend
//! missing annotations:
//!
//! * [`semiring`] — provenance semirings: the formal foundation of
//!   annotated data (Green–Karvounarakis–Tannen), with nine instances and
//!   homomorphism machinery; annotation generalization *is* a semiring
//!   homomorphism.
//! * [`store`] — the annotated-relation substrate: interned items, tuples,
//!   the annotation inverted index, generalization taxonomies, the paper's
//!   text formats, reproducible synthetic workloads, and a provenance-
//!   propagating relational algebra.
//! * [`mine`] — the paper's contribution: Apriori mining of
//!   data-to-annotation and annotation-to-annotation rules (with Eclat as
//!   the tests' independent cross-check), the
//!   [`IncrementalMiner`](mine::IncrementalMiner) covering all three
//!   evolution cases of §4.3 (plus deletion, the paper's future work), and
//!   §5 recommendation — the database scan and the insert trigger — through
//!   one rule index bucketed by antecedent item.
//! * [`service`] — the serving subsystem: a concurrent, multi-tenant
//!   [`Service`](service::Service) registry of datasets with snapshot-based
//!   reads, a coalescing batched write queue over the incremental miner,
//!   per-op metrics, and the `annod` line protocol (TCP / REPL).
//!
//! See the workspace `README.md` for layout, quickstart, and the `annod`
//! protocol reference; the `examples/` directory for runnable
//! walkthroughs; and `crates/bench` for the harness regenerating every
//! measured figure of the paper.

pub use anno_mine as mine;
pub use anno_semiring as semiring;
pub use anno_service as service;
pub use anno_store as store;

/// One-stop prelude: the items most programs need.
pub mod prelude {
    pub use anno_mine::prelude::*;
    pub use anno_semiring::prelude::*;
    pub use anno_service::{Service, ServiceConfig, UpdateOp};
    pub use anno_store::{
        AnnotatedRelation, AnnotationUpdate, Item, ItemKind, Taxonomy, Tuple, TupleId, Vocabulary,
    };
}
