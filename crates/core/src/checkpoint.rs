//! Miner-state checkpoints.
//!
//! Together with `anno_store::snapshot` this completes the paper's second
//! future-work item ("implementing the incremental updating of association
//! rules into an actual database management system"): the maintained
//! frequent-itemset table, the evolution budget, and the configuration are
//! persisted in a line-oriented text format, and a restored miner carries
//! the *same exactness contract* — it continues incremental maintenance as
//! if the process had never stopped (rules are derived data, so they are
//! re-derived on load rather than stored).
//!
//! ```text
//! annomine-checkpoint v1
//! thresholds <min_support> <min_confidence>
//! retention <factor>
//! [counting hash_tree|direct_scan|parallel_scan]
//! base_size <tuples-at-last-full-mine>
//! added_since <tuples-added-since>
//! db_size <current-denominator>
//! stats <remines> <c1> <c2> <c3> <del> <discovered>
//! itemset <count> <raw-item>,...
//! end
//! ```
//!
//! The `counting` line was written by builds before PR 19, when a full
//! mine could count candidates three ways; all three produced the same
//! table, so it is read and ignored, and no longer written.

use std::io::{self, BufRead, Write};

use anno_store::Item;

use crate::frequent::FrequentItemsets;
use crate::incremental::{IncrementalConfig, IncrementalMiner, MaintenanceStats};
use crate::itemset::ItemSet;
use crate::rules::{RuleSet, Thresholds};

impl IncrementalMiner {
    /// Persist the full maintenance state.
    pub fn write_checkpoint<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writeln!(writer, "annomine-checkpoint v1")?;
        writeln!(
            writer,
            "thresholds {:?} {:?}",
            self.config.thresholds.min_support, self.config.thresholds.min_confidence
        )?;
        writeln!(writer, "retention {:?}", self.config.retention)?;
        writeln!(writer, "base_size {}", self.base_size)?;
        writeln!(writer, "added_since {}", self.added_since)?;
        writeln!(writer, "db_size {}", self.table.db_size())?;
        let s = self.stats;
        writeln!(
            writer,
            "stats {} {} {} {} {} {}",
            s.full_remines,
            s.case1_batches,
            s.case2_batches,
            s.case3_batches,
            s.deletion_batches,
            s.discovered_itemsets
        )?;
        // Sorted for deterministic output.
        for (itemset, count) in self.table.sorted() {
            write!(writer, "itemset {count} ")?;
            for (i, item) in itemset.items().iter().enumerate() {
                if i > 0 {
                    write!(writer, ",")?;
                }
                write!(writer, "{}", item.raw())?;
            }
            writeln!(writer)?;
        }
        writeln!(writer, "end")
    }

    /// Render the checkpoint to a string.
    pub fn checkpoint_to_string(&self) -> String {
        let mut buf = Vec::new();
        #[expect(clippy::expect_used, reason = "io::Write on Vec<u8> is infallible")]
        self.write_checkpoint(&mut buf)
            .expect("writing to Vec cannot fail");
        #[expect(
            clippy::expect_used,
            reason = "the writer emits only ASCII framing and already-valid UTF-8 names"
        )]
        String::from_utf8(buf).expect("checkpoint text is UTF-8")
    }

    /// Restore a miner from a checkpoint; rules are re-derived from the
    /// restored table.
    pub fn read_checkpoint<R: BufRead>(reader: R) -> Result<IncrementalMiner, String> {
        let mut lines = reader.lines();
        let header = lines
            .next()
            .ok_or("empty checkpoint")?
            .map_err(|e| e.to_string())?;
        if header.trim() != "annomine-checkpoint v1" {
            return Err(format!("unsupported checkpoint header {header:?}"));
        }
        let mut thresholds: Option<Thresholds> = None;
        let mut retention: Option<f64> = None;
        let mut base_size = 0u64;
        let mut added_since = 0u64;
        let mut db_size = 0u64;
        let mut stats = MaintenanceStats::default();
        let mut entries: Vec<(ItemSet, u64)> = Vec::new();
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
                Some("thresholds") => {
                    let sup: f64 = parse_next(&mut parts).map_err(&err)?;
                    let conf: f64 = parse_next(&mut parts).map_err(&err)?;
                    thresholds = Some(Thresholds::new(sup, conf));
                }
                Some("retention") => retention = Some(parse_next(&mut parts).map_err(&err)?),
                Some("counting") => match parts.next() {
                    Some("hash_tree" | "direct_scan" | "parallel_scan") => {}
                    other => return Err(err(format!("unknown counting {other:?}"))),
                },
                Some("base_size") => base_size = parse_next(&mut parts).map_err(&err)?,
                Some("added_since") => added_since = parse_next(&mut parts).map_err(&err)?,
                Some("db_size") => db_size = parse_next(&mut parts).map_err(&err)?,
                Some("stats") => {
                    stats = MaintenanceStats {
                        full_remines: parse_next(&mut parts).map_err(&err)?,
                        case1_batches: parse_next(&mut parts).map_err(&err)?,
                        case2_batches: parse_next(&mut parts).map_err(&err)?,
                        case3_batches: parse_next(&mut parts).map_err(&err)?,
                        deletion_batches: parse_next(&mut parts).map_err(&err)?,
                        discovered_itemsets: parse_next(&mut parts).map_err(&err)?,
                    };
                }
                Some("itemset") => {
                    let count: u64 = parse_next(&mut parts).map_err(&err)?;
                    let raws = parts.next().unwrap_or("");
                    let mut items = Vec::new();
                    for tok in raws.split(',').filter(|t| !t.is_empty()) {
                        let raw: u32 = tok.parse().map_err(|e| err(format!("bad item: {e}")))?;
                        items.push(Item::from_raw(raw));
                    }
                    if items.is_empty() {
                        return Err(err("empty itemset".into()));
                    }
                    entries.push((ItemSet::from_unsorted(items), count));
                }
                Some("end") => {
                    saw_end = true;
                    break;
                }
                other => return Err(err(format!("unknown directive {other:?}"))),
            }
        }
        if !saw_end {
            return Err("checkpoint truncated: missing 'end'".into());
        }
        let thresholds = thresholds.ok_or("checkpoint missing 'thresholds'")?;
        let retention = retention.ok_or("checkpoint missing 'retention'")?;

        let mut table = FrequentItemsets::new(db_size);
        for (itemset, count) in entries {
            table.insert(itemset, count);
        }
        let config = IncrementalConfig {
            thresholds,
            retention,
        };
        config.validate()?;
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

    /// Restore from a string (see [`IncrementalMiner::read_checkpoint`]).
    pub fn checkpoint_from_string(text: &str) -> Result<IncrementalMiner, String> {
        IncrementalMiner::read_checkpoint(text.as_bytes())
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

fn parse_next<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let tok = parts.next().ok_or("missing field")?;
    tok.parse().map_err(|e| format!("bad field {tok:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anno_store::{generate, random_annotation_batch, GeneratorConfig};
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

    #[test]
    fn checkpoint_roundtrips_state_exactly() {
        let (_, miner) = setup();
        let text = miner.checkpoint_to_string();
        let restored = IncrementalMiner::checkpoint_from_string(&text).unwrap();
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
        assert_eq!(restored.checkpoint_to_string(), text);
    }

    #[test]
    fn restored_miner_continues_incremental_maintenance() {
        let (mut rel, mut miner) = setup();
        let text = miner.checkpoint_to_string();
        let mut restored = IncrementalMiner::checkpoint_from_string(&text).unwrap();

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
        let restored =
            IncrementalMiner::checkpoint_from_string(&miner.checkpoint_to_string()).unwrap();
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
    fn malformed_checkpoints_are_rejected() {
        assert!(IncrementalMiner::checkpoint_from_string("").is_err());
        assert!(IncrementalMiner::checkpoint_from_string("nope\nend\n").is_err());
        let missing_end = "annomine-checkpoint v1\nthresholds 0.4 0.8\nretention 0.5\n";
        assert!(IncrementalMiner::checkpoint_from_string(missing_end).is_err());
        let bad_itemset =
            "annomine-checkpoint v1\nthresholds 0.4 0.8\nretention 0.5\nitemset 3 \nend\n";
        assert!(IncrementalMiner::checkpoint_from_string(bad_itemset).is_err());
        let missing_thresholds = "annomine-checkpoint v1\nretention 0.5\nend\n";
        assert!(IncrementalMiner::checkpoint_from_string(missing_thresholds).is_err());
    }

    #[test]
    fn counting_line_of_older_checkpoints_is_read_and_not_rewritten() {
        let (_, miner) = setup();
        let text = miner.checkpoint_to_string();
        assert!(!text.contains("counting"), "{text}");
        // What builds before PR 19 wrote: the same text with a `counting`
        // line after `retention`.
        let with =
            |value: &str| text.replacen("base_size", &format!("counting {value}\nbase_size"), 1);
        for value in ["hash_tree", "direct_scan", "parallel_scan"] {
            let restored = IncrementalMiner::checkpoint_from_string(&with(value)).unwrap();
            assert_eq!(restored.checkpoint_to_string(), text, "counting {value}");
        }
        let err = IncrementalMiner::checkpoint_from_string(&with("bogus")).unwrap_err();
        assert!(err.contains("unknown counting"), "{err}");
    }

    #[test]
    fn zero_retention_in_a_checkpoint_is_an_error_not_a_later_panic() {
        let zero = "annomine-checkpoint v1\nthresholds 0.4 0.8\nretention 0.0\nend\n";
        let err = IncrementalMiner::checkpoint_from_string(zero).unwrap_err();
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
        let restored =
            IncrementalMiner::checkpoint_from_string(&miner.checkpoint_to_string()).unwrap();
        assert_eq!(restored.thresholds().min_support, 1.0 / 3.0);
        assert_eq!(restored.thresholds().min_confidence, 0.755);
    }
}
