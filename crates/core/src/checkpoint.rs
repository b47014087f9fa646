//! Miner-state checkpoints.
//!
//! Together with `anno_store::snapshot` this completes the paper's second
//! future-work item ("implementing the incremental updating of association
//! rules into an actual database management system"): the maintained
//! frequent-itemset table, the evolution budget, and the configuration are
//! persisted in a binary encoding, and a restored miner carries the *same
//! exactness contract* — it continues incremental maintenance as if the
//! process had never stopped (rules are derived data, so they are
//! re-derived on decode rather than stored). Written with
//! `anno_store::codec`:
//!
//! ```text
//! config       3 × f64 bits           min_support, min_confidence, retention
//! base_size    u64                    tuples at the last full mine
//! added_since  u64                    tuples added since
//! db_size      u64                    current support denominator
//! stats        6 × u64                remines, case 1/2/3, deletions, discovered
//! itemsets     count u32, then sorted [count u64, len u32, raw items u32…]
//! ```

use anno_store::codec::{put_count, put_u32, put_u64, Cursor};

use crate::frequent::FrequentItemsets;
use crate::incremental::{IncrementalConfig, IncrementalMiner, MaintenanceStats};
use crate::itemset::ItemSet;
use crate::rules::{RuleSet, Thresholds};

impl IncrementalConfig {
    /// Append the three fractions as their IEEE bits, bit-exactly.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.thresholds.min_support.to_bits());
        put_u64(out, self.thresholds.min_confidence.to_bits());
        put_u64(out, self.retention.to_bits());
    }

    /// Read back what [`IncrementalConfig::encode`] wrote. The fractions
    /// are range-checked before [`Thresholds::new`] (which asserts them)
    /// and the retention through [`IncrementalConfig::validate`], so an
    /// out-of-range or NaN value is an `Err`, never a panic.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<IncrementalConfig, String> {
        let mut fraction = |what: &str| {
            let x = cur.f64()?;
            if (0.0..=1.0).contains(&x) {
                Ok(x)
            } else {
                Err(format!("{what} out of range: {x}"))
            }
        };
        let min_support = fraction("min_support")?;
        let min_confidence = fraction("min_confidence")?;
        let config = IncrementalConfig {
            thresholds: Thresholds::new(min_support, min_confidence),
            retention: cur.f64()?,
        };
        config.validate()?;
        Ok(config)
    }
}

impl IncrementalMiner {
    /// Append the full maintenance state's binary encoding (module docs).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        put_u64(out, self.base_size);
        put_u64(out, self.added_since);
        put_u64(out, self.table.db_size());
        let s = self.stats;
        for x in [
            s.full_remines,
            s.case1_batches,
            s.case2_batches,
            s.case3_batches,
            s.deletion_batches,
            s.discovered_itemsets,
        ] {
            put_u64(out, x);
        }
        // Sorted for deterministic output.
        let sorted = self.table.sorted();
        put_count(out, sorted.len());
        for (itemset, count) in sorted {
            put_u64(out, count);
            put_count(out, itemset.len());
            for item in itemset.items() {
                put_u32(out, item.raw());
            }
        }
    }

    /// Restore a miner [`IncrementalMiner::encode`] wrote; rules are
    /// re-derived from the restored table.
    pub fn decode(cur: &mut Cursor<'_>) -> Result<IncrementalMiner, String> {
        let config = IncrementalConfig::decode(cur)?;
        // Tuple ids are u32, so no tuple count exceeds u32::MAX; a larger
        // one would overflow the evolution-budget arithmetic later.
        let mut tuples = |what: &str| match cur.u64()? {
            n if n <= u64::from(u32::MAX) => Ok(n),
            n => Err(format!("{what} {n} exceeds any relation")),
        };
        let base_size = tuples("base_size")?;
        let added_since = tuples("added_since")?;
        let mut table = FrequentItemsets::new(tuples("db_size")?);
        let stats = MaintenanceStats {
            full_remines: cur.u64()?,
            case1_batches: cur.u64()?,
            case2_batches: cur.u64()?,
            case3_batches: cur.u64()?,
            deletion_batches: cur.u64()?,
            discovered_itemsets: cur.u64()?,
        };
        // An itemset is at least its count and its length.
        for _ in 0..cur.count(12)? {
            let count = cur.u64()?;
            let items = cur.list(4, Cursor::item)?;
            if items.is_empty() {
                return Err("empty itemset".into());
            }
            table.insert(ItemSet::from_unsorted(items), count);
        }
        let mut miner = IncrementalMiner {
            config,
            table,
            valid: RuleSet::new(),
            near: RuleSet::new(),
            base_size,
            added_since,
            stats,
            touches: crate::incremental::DiscoveryTouch::default(),
        };
        miner.rederive();
        Ok(miner)
    }

    /// Resume-time screen that this (typically just-restored) miner state
    /// plausibly belongs to `relation`: the support denominator must equal
    /// the live tuple count, and every retained pure-annotation itemset
    /// count (singletons and larger, via posting intersection) must agree
    /// with the relation's inverted index. A mismatch proves the
    /// checkpoint and the database snapshot are from different moments —
    /// continuing incremental maintenance would silently void the
    /// exactness contract. The converse does not hold: a desync confined
    /// to mixed data/annotation itemsets (e.g. an annotation moved between
    /// two tuples) can pass this screen, so treat `Ok` as "not provably
    /// stale"; [`IncrementalMiner::verify_against_remine`] is the
    /// exhaustive — and O(full mine) — check.
    pub fn validate_against(&self, relation: &anno_store::AnnotatedRelation) -> Result<(), String> {
        let vocab = relation.vocab();
        if let Some(item) = (self.table.iter())
            .flat_map(|(itemset, _)| itemset.items())
            .find(|&&item| !vocab.contains(item))
        {
            return Err(format!(
                "checkpoint itemsets hold {item:?}, which the relation never interned"
            ));
        }
        let live = relation.len() as u64;
        if self.table.db_size() != live {
            return Err(format!(
                "checkpoint denominator {} != live tuple count {live}",
                self.table.db_size()
            ));
        }
        for (itemset, count) in self.table.iter() {
            if itemset.data_count() != 0 {
                continue;
            }
            let indexed = relation.index().co_occurrence(itemset.items()) as u64;
            if count != indexed {
                return Err(format!(
                    "checkpoint counts {count} occurrences of {itemset:?}, index says {indexed}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_store::{generate, random_annotation_batch, GeneratorConfig, Item};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (anno_store::AnnotatedRelation, IncrementalMiner) {
        let ds = generate(&GeneratorConfig::tiny(77));
        let rel = ds.relation;
        let miner = IncrementalMiner::mine_initial(
            &rel,
            IncrementalConfig {
                thresholds: Thresholds::new(0.2, 0.6),
                retention: 0.5,
            },
        );
        (rel, miner)
    }

    fn encoded(miner: &IncrementalMiner) -> Vec<u8> {
        let mut out = Vec::new();
        miner.encode(&mut out);
        out
    }

    fn decoded(bytes: &[u8]) -> Result<IncrementalMiner, String> {
        let mut cur = Cursor::new(bytes);
        let miner = IncrementalMiner::decode(&mut cur)?;
        cur.finish()?;
        Ok(miner)
    }

    /// The encoding of a miner with `config` and an empty table.
    fn bare(support: f64, confidence: f64, retention: f64) -> Vec<u8> {
        let mut out = Vec::new();
        for x in [support, confidence, retention] {
            put_u64(&mut out, x.to_bits());
        }
        out.extend_from_slice(&[0; 9 * 8]); // sizes and stats
        put_count(&mut out, 0);
        out
    }

    #[test]
    fn checkpoint_roundtrips_state_exactly() {
        let (_, miner) = setup();
        let bytes = encoded(&miner);
        let restored = decoded(&bytes).unwrap();
        assert!(restored.rules().identical_to(miner.rules()));
        assert!(restored
            .candidate_rules()
            .identical_to(miner.candidate_rules()));
        assert_eq!(restored.table().sorted(), miner.table().sorted());
        assert_eq!(restored.stats(), miner.stats());
        assert_eq!(
            restored.remaining_tuple_budget(),
            miner.remaining_tuple_budget()
        );
        // Fixpoint on second round-trip.
        assert_eq!(encoded(&restored), bytes);
    }

    #[test]
    fn restored_miner_continues_incremental_maintenance() {
        let (mut rel, mut miner) = setup();
        let mut restored = decoded(&encoded(&miner)).unwrap();

        // Apply the same workload to both miners on cloned relations.
        let mut rel2 = rel.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let batch = random_annotation_batch(&rel, &mut rng, 25);
        miner.apply_annotations(&mut rel, batch.clone());
        restored.apply_annotations(&mut rel2, batch);
        assert!(miner.rules().identical_to(restored.rules()));
        assert!(restored.verify_against_remine(&rel2));
    }

    #[test]
    fn validate_against_detects_out_of_sync_relations() {
        let (mut rel, miner) = setup();
        let restored = decoded(&encoded(&miner)).unwrap();
        restored.validate_against(&rel).expect("matching pair");

        // Mutating the relation behind the miner's back must be caught:
        // a tuple deletion changes the denominator...
        let victim = rel.iter().next().map(|(tid, _)| tid).unwrap();
        let mut smaller = rel.clone();
        smaller.delete_tuple(victim);
        assert!(restored.validate_against(&smaller).is_err());

        // ...and an unmaintained annotation change desyncs the index
        // (the denominator stays equal, so only the singleton check can
        // catch it). Pick an annotation the table actually retains.
        let ann = restored
            .table()
            .iter()
            .find_map(|(s, _)| match s.items() {
                [i] if i.is_annotation_like() => Some(*i),
                _ => None,
            })
            .expect("tiny workload retains some singleton annotation");
        let target = rel
            .iter()
            .find(|(_, t)| !t.contains(ann))
            .map(|(tid, _)| tid)
            .unwrap();
        rel.add_annotation(target, ann);
        assert!(restored.validate_against(&rel).is_err());
    }

    #[test]
    fn validate_against_refuses_items_the_relation_never_interned() {
        // A data item past the vocabulary would pass the annotation-count
        // screen and panic the first name lookup of a rule that holds it.
        let (rel, miner) = setup();
        let mut restored = decoded(&encoded(&miner)).unwrap();
        let stranger = Item::data(rel.vocab().count(anno_store::ItemKind::Data) as u32);
        restored.table.insert(ItemSet::single(stranger), 1);
        let err = restored.validate_against(&rel).unwrap_err();
        assert!(err.contains("never interned"), "{err}");
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(decoded(&[]).is_err());
        let (_, miner) = setup();
        let bytes = encoded(&miner);
        for len in 0..bytes.len() {
            assert!(decoded(&bytes[..len]).is_err(), "truncated at {len}");
        }
        let mut empty_itemset = bare(0.4, 0.8, 0.5);
        let at = empty_itemset.len() - 4;
        empty_itemset.truncate(at);
        put_count(&mut empty_itemset, 1);
        put_u64(&mut empty_itemset, 3);
        put_count(&mut empty_itemset, 0);
        assert!(decoded(&empty_itemset)
            .unwrap_err()
            .contains("empty itemset"));
        let mut huge = bare(0.4, 0.8, 0.5);
        huge[24..32].copy_from_slice(&u64::MAX.to_le_bytes()); // base_size
        assert!(decoded(&huge).unwrap_err().contains("exceeds any relation"));
    }

    #[test]
    fn out_of_range_thresholds_are_errors_not_panics() {
        decoded(&bare(0.4, 0.8, 0.5)).expect("in range");
        for (support, confidence, retention) in [
            (5.0, 0.5, 0.5),
            (f64::NAN, 0.5, 0.5),
            (0.4, -0.1, 0.5),
            (0.4, f64::INFINITY, 0.5),
        ] {
            let err = decoded(&bare(support, confidence, retention)).unwrap_err();
            assert!(err.contains("out of range"), "{err}");
        }
        for retention in [0.0, f64::NAN, 1.5] {
            let err = decoded(&bare(0.4, 0.8, retention)).unwrap_err();
            assert!(err.contains("(0, 1]"), "{err}");
        }
    }

    #[test]
    fn zero_retention_in_a_checkpoint_is_an_error_not_a_later_panic() {
        let err = decoded(&bare(0.4, 0.8, 0.0)).unwrap_err();
        assert!(err.contains("(0, 1]"), "{err}");
    }

    #[test]
    fn float_thresholds_roundtrip_bit_exactly() {
        let ds = generate(&GeneratorConfig::tiny(3));
        let miner = IncrementalMiner::mine_initial(
            &ds.relation,
            IncrementalConfig {
                thresholds: Thresholds::new(1.0 / 3.0, 0.755),
                retention: 0.61803,
            },
        );
        let restored = decoded(&encoded(&miner)).unwrap();
        assert_eq!(restored.thresholds().min_support, 1.0 / 3.0);
        assert_eq!(restored.thresholds().min_confidence, 0.755);
        assert_eq!(restored.config().retention, 0.61803);
    }
}
