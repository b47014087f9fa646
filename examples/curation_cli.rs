//! A non-interactive re-implementation of the paper's application menu
//! (Figs. 5, 6, 14, 15): every menu option is a subcommand operating on the
//! paper's text file formats.
//!
//! ```text
//! curation_cli mine-d2a   <dataset> <min_sup> <min_conf> [out.rules]
//! curation_cli mine-a2a   <dataset> <min_sup> <min_conf> [out.rules]
//! curation_cli mine-all   <dataset> <min_sup> <min_conf> [out.rules]
//! curation_cli add-tuples <dataset> <tuples_file> <out_dataset>
//! curation_cli annotate   <dataset> <batch_file> <out_dataset>   # Fig. 14 lines "150: Annot_3"
//! curation_cli recommend  <dataset> <min_sup> <min_conf>
//! curation_cli generalize <dataset> <rules_file> <min_sup> <min_conf>  # Fig. 9 rules
//! ```
//!
//! Try it on generated data:
//!
//! ```text
//! cargo run --example curation_cli -- demo /tmp/anno_demo
//! cargo run --example curation_cli -- mine-all /tmp/anno_demo/dataset.txt 0.3 0.8
//! ```

use std::fs;
use std::process::ExitCode;

use annomine::mine::{
    mine_annotation_to_annotation, mine_data_to_annotation, mine_rules, recommend_missing, RuleSet,
    Thresholds,
};
use annomine::mine::{IncrementalConfig, IncrementalMiner};
use annomine::store::codec::Cursor;
use annomine::store::{
    dataset_to_string, format_annotation_batch, generate, parse_annotation_batch, parse_dataset,
    taxonomy_from_rules, AnnotatedRelation, GeneratorConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run with no arguments for usage");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<AnnotatedRelation, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_dataset(path, &text).map_err(|e| format!("{path}: {e}"))
}

fn thresholds(sup: &str, conf: &str) -> Result<Thresholds, String> {
    let s: f64 = sup.parse().map_err(|_| format!("bad support {sup:?}"))?;
    let c: f64 = conf
        .parse()
        .map_err(|_| format!("bad confidence {conf:?}"))?;
    Ok(Thresholds::new(s, c))
}

/// Persist the database and the miner as one binary state file.
fn save_state(path: &str, rel: &AnnotatedRelation, miner: &IncrementalMiner) -> Result<(), String> {
    let mut bytes = Vec::new();
    rel.encode(&mut bytes);
    miner.encode(&mut bytes);
    fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

/// Read back what [`save_state`] wrote, screened as a matching pair.
fn load_state(path: &str) -> Result<(AnnotatedRelation, IncrementalMiner), String> {
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let decode = || -> Result<_, String> {
        let mut cur = Cursor::new(&bytes);
        let rel = AnnotatedRelation::decode(&mut cur)?;
        let miner = IncrementalMiner::decode(&mut cur)?;
        cur.finish()?;
        miner.validate_against(&rel)?;
        Ok((rel, miner))
    };
    decode().map_err(|e| format!("{path}: {e}"))
}

fn emit(rules: &RuleSet, rel: &AnnotatedRelation, out: Option<&String>) -> Result<(), String> {
    let text = rules.render(rel.vocab());
    match out {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("{} rules written to {path}", rules.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let usage = "\
subcommands (the paper's menu options):
  demo        <out_dir>                                  generate a sample dataset + batch files
  mine-d2a    <dataset> <min_sup> <min_conf> [out]       option 1: data-to-annotation rules
  mine-a2a    <dataset> <min_sup> <min_conf> [out]       option 2: annotation-to-annotation rules
  mine-all    <dataset> <min_sup> <min_conf> [out]       options 1+2 in one pass
  add-tuples  <dataset> <tuples_file> <out_dataset>      options 5/6: append tuples
  annotate    <dataset> <batch_file> <out_dataset>       option 4: apply 'tuple: Annot' lines
  recommend   <dataset> <min_sup> <min_conf>             section 5: missing-annotation suggestions
  generalize  <dataset> <rules_file> <min_sup> <min_conf> section 4.1: mine with generalization
  checkpoint  <dataset> <min_sup> <min_conf> <out_prefix> persist DB + miner state to <out_prefix>.state
  resume      <prefix> <batch_file>                       restore, apply Fig. 14 batch, persist";

    match args {
        [] => {
            println!("{usage}");
            Ok(())
        }
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("demo", [dir]) => {
                fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
                let ds = generate(&GeneratorConfig::default());
                let dataset_path = format!("{dir}/dataset.txt");
                fs::write(&dataset_path, dataset_to_string(&ds.relation))
                    .map_err(|e| e.to_string())?;
                // A Fig. 14-style annotation batch against the dataset.
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
                let batch = annomine::store::random_annotation_batch(&ds.relation, &mut rng, 40);
                fs::write(
                    format!("{dir}/batch.txt"),
                    format_annotation_batch(ds.relation.vocab(), &batch),
                )
                .map_err(|e| e.to_string())?;
                println!(
                    "wrote {dataset_path} ({} tuples) and {dir}/batch.txt ({} updates)",
                    ds.relation.len(),
                    batch.len()
                );
                Ok(())
            }
            ("mine-d2a", [dataset, sup, conf, out @ ..]) => {
                let rel = load(dataset)?;
                let rules = mine_data_to_annotation(&rel, &thresholds(sup, conf)?);
                emit(&rules, &rel, out.first())
            }
            ("mine-a2a", [dataset, sup, conf, out @ ..]) => {
                let rel = load(dataset)?;
                let rules = mine_annotation_to_annotation(&rel, &thresholds(sup, conf)?);
                emit(&rules, &rel, out.first())
            }
            ("mine-all", [dataset, sup, conf, out @ ..]) => {
                let rel = load(dataset)?;
                let rules = mine_rules(&rel, &thresholds(sup, conf)?);
                emit(&rules, &rel, out.first())
            }
            ("add-tuples", [dataset, tuples_file, out_dataset]) => {
                let mut rel = load(dataset)?;
                let text =
                    fs::read_to_string(tuples_file).map_err(|e| format!("{tuples_file}: {e}"))?;
                let mut added = 0usize;
                for line in text.lines() {
                    if let Some(tuple) = annomine::store::parse_tuple_line(rel.vocab_mut(), line) {
                        rel.insert(tuple);
                        added += 1;
                    }
                }
                fs::write(out_dataset, dataset_to_string(&rel)).map_err(|e| e.to_string())?;
                println!("appended {added} tuples; new dataset at {out_dataset}");
                Ok(())
            }
            ("annotate", [dataset, batch_file, out_dataset]) => {
                let mut rel = load(dataset)?;
                let text =
                    fs::read_to_string(batch_file).map_err(|e| format!("{batch_file}: {e}"))?;
                let updates =
                    parse_annotation_batch(rel.vocab_mut(), &text).map_err(|e| e.to_string())?;
                let requested = updates.len();
                let delta = rel.apply_annotation_batch(updates);
                fs::write(out_dataset, dataset_to_string(&rel)).map_err(|e| e.to_string())?;
                println!(
                    "applied {} of {requested} annotation updates (rest were duplicates or dead targets); new dataset at {out_dataset}",
                    delta.len(),
                );
                Ok(())
            }
            ("recommend", [dataset, sup, conf]) => {
                let rel = load(dataset)?;
                let rules = mine_rules(&rel, &thresholds(sup, conf)?);
                let recs = recommend_missing(&rel, &rules);
                println!("{} recommendations:", recs.len());
                for rec in recs.iter().take(25) {
                    println!("  {}", rec.render(rel.vocab()));
                }
                if recs.len() > 25 {
                    println!("  … and {} more", recs.len() - 25);
                }
                Ok(())
            }
            ("generalize", [dataset, rules_file, sup, conf]) => {
                let mut rel = load(dataset)?;
                let text =
                    fs::read_to_string(rules_file).map_err(|e| format!("{rules_file}: {e}"))?;
                let tax = taxonomy_from_rules(&text, rel.vocab_mut())?;
                let (extended, rules) =
                    annomine::mine::mine_generalized(&rel, &tax, &thresholds(sup, conf)?);
                print!("{}", rules.render(extended.vocab()));
                Ok(())
            }
            ("checkpoint", [dataset, sup, conf, prefix]) => {
                let rel = load(dataset)?;
                let miner = IncrementalMiner::mine_initial(
                    &rel,
                    IncrementalConfig {
                        thresholds: thresholds(sup, conf)?,
                        ..Default::default()
                    },
                );
                save_state(&format!("{prefix}.state"), &rel, &miner)?;
                println!(
                    "mined {} rules; state persisted to {prefix}.state",
                    miner.rules().len()
                );
                Ok(())
            }
            ("resume", [prefix, batch_file]) => {
                let path = format!("{prefix}.state");
                let (mut rel, mut miner) = load_state(&path)?;
                let before = miner.rules().len();
                let text =
                    fs::read_to_string(batch_file).map_err(|e| format!("{batch_file}: {e}"))?;
                let updates =
                    parse_annotation_batch(rel.vocab_mut(), &text).map_err(|e| e.to_string())?;
                let delta = miner.apply_annotations(&mut rel, updates);
                save_state(&path, &rel, &miner)?;
                println!(
                    "applied {} updates incrementally: {} rules -> {} rules (verified: {}); state re-persisted",
                    delta.len(),
                    before,
                    miner.rules().len(),
                    miner.verify_against_remine(&rel)
                );
                Ok(())
            }
            _ => Err(format!("unknown or malformed command {cmd:?}\n{usage}")),
        },
    }
}
