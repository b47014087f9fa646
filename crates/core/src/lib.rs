//! `anno-mine`: discovery, incremental maintenance, and exploitation of
//! correlations in annotated databases.
//!
//! This crate implements the primary contribution of *"Discovering
//! Correlations in Annotated Databases"* on top of the `anno-store`
//! substrate:
//!
//! * **Discovery** (paper §3–4): the Apriori algorithm with annotation-
//!   aware pruning ([`apriori`]) is the one full-mine path; [`eclat`] is
//!   the independent vertical miner the tests cross-check it against. Rule
//!   derivation for the paper's two shapes — data-to-annotation
//!   (`x1 … xk ⇒ a`) and annotation-to-annotation (`a1 … ak ⇒ a`) — is in
//!   [`rules`] and [`mine`].
//!   Generalization-based correlations (§4.1) mine the taxonomy-extended
//!   database via [`mine::mine_generalized`].
//! * **Incremental maintenance** (§4.3, the paper's main focus): the
//!   [`IncrementalMiner`](incremental::IncrementalMiner) maintains exact
//!   rule sets under all three evolution cases — adding annotated tuples,
//!   adding un-annotated tuples, and adding annotations to existing tuples
//!   (Figs. 12–13) — plus annotation/tuple deletion, the paper's stated
//!   future work.
//! * **Exploitation** (§5): the database scan for missing annotations and
//!   the insert trigger, both through one antecedent-bucketed
//!   [`RuleIndex`], in [`recommend`].
//!
//! # Quickstart
//!
//! ```
//! use anno_mine::prelude::*;
//! use anno_store::{parse_dataset, AnnotationUpdate, TupleId};
//!
//! // Fig. 4-style dataset: numeric data values, Annot_* annotations.
//! let mut rel = parse_dataset("db", "\
//! 28 85 Annot_1
//! 28 85 Annot_1
//! 28 85 Annot_1
//! 28 85
//! 17 99
//! ").unwrap();
//!
//! // Discover rules at minimum support 0.4 and confidence 0.7.
//! let mut miner = IncrementalMiner::mine_initial(
//!     &rel,
//!     IncrementalConfig { thresholds: Thresholds::new(0.4, 0.7), ..Default::default() },
//! );
//! assert_eq!(miner.rules().len(), 3); // {28}⇒A, {85}⇒A, {28,85}⇒A
//!
//! // Case 3: annotate the fourth tuple; rules update incrementally.
//! let ann = rel.vocab().get(anno_store::ItemKind::Annotation, "Annot_1").unwrap();
//! miner.apply_annotations(&mut rel, [AnnotationUpdate { tuple: TupleId(3), annotation: ann }]);
//! assert!(miner.verify_against_remine(&rel));
//! ```

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

pub mod apriori;
pub mod checkpoint;
pub mod eclat;
pub mod frequent;
pub mod hashtree;
pub mod incremental;
pub mod itemset;
pub mod mine;
pub mod recommend;
pub mod report;
pub mod rules;
pub mod summary;

pub use apriori::{apriori, generate_candidates};
pub use eclat::eclat;
pub use frequent::{support_count_threshold, FrequentItemsets};
pub use hashtree::HashTree;
pub use incremental::{DiscoveryTouch, IncrementalConfig, IncrementalMiner, MaintenanceStats};
pub use itemset::{transactions_of, ItemSet, MiningMode, Transaction};
pub use mine::{
    mine_annotation_to_annotation, mine_data_to_annotation, mine_generalized, mine_rules,
    mine_with, MineResult,
};
pub use recommend::{
    recommend_for_tuples, recommend_missing, score_recommendations, PredictionQuality,
    Recommendation, RuleIndex,
};
pub use report::{parse_rules_file, ParsedRule};
pub use rules::{
    derive_rules, derive_rules_partitioned, AssociationRule, RuleKind, RuleSet, Thresholds,
};
pub use summary::{MetricSummary, RuleSetSummary};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::incremental::{IncrementalConfig, IncrementalMiner};
    pub use crate::itemset::{ItemSet, MiningMode};
    pub use crate::mine::{mine_generalized, mine_rules, mine_with};
    pub use crate::recommend::{recommend_missing, score_recommendations};
    pub use crate::rules::{AssociationRule, RuleKind, RuleSet, Thresholds};
}
