//! Every input the benchmark feeds the system, generated from `--seed`.
//!
//! Data comes from `anno_store::generate` in the shape of
//! `GeneratorConfig::paper_scale`, resized (see [`generator_config`]).
//! Update streams are drawn against a *model* — the generator's own copy
//! of the relation, advanced op by op — so that every op is effective by
//! construction: it annotates a tuple that lacks the annotation, removes
//! one that is present, deletes a live tuple. An ineffective op would be
//! screened out by the writer before the WAL and the miner ever saw it,
//! and the run would measure less than it claims.

use anno_service::UpdateOp;
use anno_store::{
    format_tuple, generate, parse_tuple_line, token_kind, AnnotatedRelation, GeneratorConfig, Item,
    ItemKind, TupleId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's thresholds (§4.3 Results): α = 0.4, β = 0.8.
pub const ALPHA: f64 = 0.4;
pub const BETA: f64 = 0.8;

/// Size of one generated relation.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tuples: usize,
    /// Planted frequent data patterns. The miner's itemset table grows
    /// with the square of this (every pattern pair is retained at
    /// `retention · α`), which is what makes a shape "large" or "small"
    /// for every mining-bound metric.
    pub patterns: usize,
}

/// `paper_scale(seed)` resized to `shape`, with the two planting
/// probabilities moved off the thresholds.
///
/// At paper scale a planted annotation has support 0.45 · 0.9 = 0.405
/// against α = 0.4, and a pattern pair 0.45² = 0.2025 against the
/// retention floor 0.5 · α = 0.2: whether each one lands in the itemset
/// table is a coin flip per seed, so mining cost swings 2× between seeds
/// and no run-to-run spread could be told from it. With probability 0.5
/// and confidence 0.98 every itemset sits at least 6σ from both floors at
/// 8000 tuples (singletons ≥ 0.47, pair closures ≥ 0.23, triples 0.125),
/// and every seed mines the same table shape.
pub fn generator_config(seed: u64, shape: Shape) -> GeneratorConfig {
    let base = GeneratorConfig::paper_scale(seed);
    GeneratorConfig {
        tuples: shape.tuples,
        pattern_count: shape.patterns,
        d2a_rules: shape.patterns,
        a2a_rules: shape.patterns / 2,
        pattern_prob: 0.5,
        rule_confidence: 0.98,
        ..base
    }
}

/// One protocol-level write, as the curator and the bulk loader send it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    Annotate { tid: u32, name: String },
    Unannotate { tid: u32, name: String },
    Row(String),
}

impl WriteOp {
    /// Append the command line (with its `\n`) addressed to dataset `ds`.
    pub fn line_into(&self, ds: &str, out: &mut String) {
        use std::fmt::Write as _;
        let _ = match self {
            WriteOp::Annotate { tid, name } => writeln!(out, "annotate {ds} {tid} {name}"),
            WriteOp::Unannotate { tid, name } => writeln!(out, "unannotate {ds} {tid} {name}"),
            WriteOp::Row(text) => writeln!(out, "row {ds} {text}"),
        };
    }

    /// The op the protocol layer would enqueue for this line.
    pub fn to_update(&self) -> UpdateOp {
        match self {
            WriteOp::Annotate { tid, name } => {
                UpdateOp::AnnotateNamed(vec![(TupleId(*tid), name.clone())])
            }
            WriteOp::Unannotate { tid, name } => {
                UpdateOp::RemoveNamed(vec![(TupleId(*tid), name.clone())])
            }
            WriteOp::Row(text) => UpdateOp::InsertRows(vec![text.clone()]),
        }
    }
}

/// One read, as the curator and the flood's reader send it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOp {
    /// `rules <ds> contains <item> top 5` — name resolution + rule filter.
    Rules { item: String },
    /// `recommend <ds> tuple <tid>` — top-k for a stored tuple.
    Recommend { tid: u32 },
    /// `discover <ds> top=10` — the ranked correlation report.
    Discover,
}

impl ReadOp {
    pub fn line(&self, ds: &str) -> String {
        match self {
            ReadOp::Rules { item } => format!("rules {ds} contains {item} top 5\n"),
            ReadOp::Recommend { tid } => format!("recommend {ds} tuple {tid}\n"),
            ReadOp::Discover => format!("discover {ds} top=10\n"),
        }
    }
}

/// An endless stream of further paper-shaped rows (Fig. 4 lines), so
/// tuples inserted mid-run keep every planted support where the initial
/// load put it instead of diluting it towards a threshold.
struct RowStream {
    seed: u64,
    shape: Shape,
    chunk: Vec<String>,
}

impl RowStream {
    const CHUNK: usize = 1024;

    fn new(seed: u64, shape: Shape) -> RowStream {
        RowStream {
            seed,
            shape,
            chunk: Vec::new(),
        }
    }

    fn next_row(&mut self) -> String {
        if self.chunk.is_empty() {
            self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let more = generate(&generator_config(
                self.seed,
                Shape {
                    tuples: Self::CHUNK,
                    ..self.shape
                },
            ))
            .relation;
            self.chunk = more
                .iter()
                .map(|(_, t)| format_tuple(more.vocab(), t))
                .collect();
        }
        self.chunk.pop().unwrap_or_default()
    }
}

/// A generated relation plus the model that mirrors what was sent.
pub struct Corpus {
    /// The generator's copy of the served relation. Tuple ids agree with
    /// the server's because rows are loaded in id order and every insert
    /// is mirrored; item ids need not (only names cross the wire).
    model: AnnotatedRelation,
    /// Annotation occurrences withheld from the initial load, to be
    /// attached later (the maintenance mix's Case 3 supply).
    pending: Vec<(u32, String)>,
    /// Data items of the planted rules, for `rules … contains <item>`.
    antecedents: Vec<String>,
    annotations: Vec<Item>,
    stream: RowStream,
    rng: StdRng,
}

impl Corpus {
    /// Generate the relation for `seed`, withholding `hold_back` random
    /// annotation occurrences into the pending pool.
    pub fn new(seed: u64, shape: Shape, hold_back: usize) -> Corpus {
        let generated = generate(&generator_config(seed, shape));
        let mut antecedents: Vec<String> = generated
            .planted
            .iter()
            .flat_map(|rule| rule.lhs.iter())
            .filter(|item| item.is_data())
            .map(|&item| generated.relation.vocab().name(item).to_string())
            .collect();
        antecedents.sort();
        antecedents.dedup();
        let model = generated.relation;
        let annotations: Vec<Item> = model.vocab().items(ItemKind::Annotation).collect();
        let mut corpus = Corpus {
            model,
            pending: Vec::new(),
            antecedents,
            annotations,
            stream: RowStream::new(seed ^ 0x5EED_0FE8, shape),
            rng: StdRng::seed_from_u64(seed ^ 0x0B5E_55ED),
        };
        for _ in 0..hold_back {
            if let Some((tid, name)) = corpus.detach_random() {
                corpus.pending.push((tid, name));
            }
        }
        corpus
    }

    /// The current model as Fig. 4 lines in tuple-id order (the load).
    pub fn rows(&self) -> Vec<String> {
        self.model
            .iter()
            .map(|(_, t)| format_tuple(self.model.vocab(), t))
            .collect()
    }

    pub fn live_tuples(&self) -> usize {
        self.model.len()
    }

    fn random_live(&mut self) -> Option<u32> {
        let slots = self.model.slot_count() as u32;
        if self.model.is_empty() {
            return None;
        }
        loop {
            let tid = self.rng.gen_range(0..slots);
            if self.model.is_live(TupleId(tid)) {
                return Some(tid);
            }
        }
    }

    /// Attach a random annotation to a random tuple that lacks it.
    pub fn attach_random(&mut self) -> Option<(u32, String)> {
        for _ in 0..1024 {
            let tid = self.random_live()?;
            let ann = self.annotations[self.rng.gen_range(0..self.annotations.len())];
            if self.model.add_annotation(TupleId(tid), ann) {
                return Some((tid, self.model.vocab().name(ann).to_string()));
            }
        }
        None
    }

    /// Detach a random annotation occurrence.
    pub fn detach_random(&mut self) -> Option<(u32, String)> {
        for _ in 0..1024 {
            let tid = self.random_live()?;
            let anns = self.model.tuple(TupleId(tid))?.annotations();
            if anns.is_empty() {
                continue;
            }
            let ann = anns[self.rng.gen_range(0..anns.len())];
            self.model.remove_annotation(TupleId(tid), ann);
            return Some((tid, self.model.vocab().name(ann).to_string()));
        }
        None
    }

    /// Attach up to `n` withheld annotation occurrences, skipping ones
    /// whose tuple has since been deleted.
    pub fn attach_pending(&mut self, n: usize) -> Vec<(u32, String)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some((tid, name)) = self.pending.pop() else {
                break;
            };
            let Some(ann) = self.model.vocab().get(ItemKind::Annotation, &name) else {
                continue;
            };
            if self.model.add_annotation(TupleId(tid), ann) {
                out.push((tid, name));
            }
        }
        out
    }

    /// Detach `n` random annotation occurrences into the pending pool.
    pub fn detach_to_pending(&mut self, n: usize) -> Vec<(u32, String)> {
        let out: Vec<(u32, String)> = (0..n).filter_map(|_| self.detach_random()).collect();
        self.pending.extend(out.iter().cloned());
        out
    }

    /// Insert the next paper-shaped row. With `annotated` false its
    /// annotations are withheld into the pending pool instead (Case 2).
    pub fn insert_row(&mut self, annotated: bool) -> String {
        let full = self.stream.next_row();
        let line = if annotated {
            full
        } else {
            let (data, anns): (Vec<&str>, Vec<&str>) = full
                .split(' ')
                .partition(|tok| token_kind(tok) == ItemKind::Data);
            let tid = self.model.slot_count() as u32;
            self.pending
                .extend(anns.iter().map(|a| (tid, a.to_string())));
            data.join(" ")
        };
        if let Some(tuple) = parse_tuple_line(self.model.vocab_mut(), &line) {
            self.model.insert(tuple);
        }
        line
    }

    /// Delete `n` distinct random live tuples.
    pub fn delete_random(&mut self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some(tid) = self.random_live() else {
                break;
            };
            self.model.delete_tuple(TupleId(tid));
            out.push(tid);
        }
        out
    }

    fn random_read(&mut self, i: u64) -> ReadOp {
        match i % 3 {
            0 => ReadOp::Rules {
                item: self.antecedents[(i / 3) as usize % self.antecedents.len()].clone(),
            },
            1 => ReadOp::Recommend {
                tid: self.random_live().unwrap_or(0),
            },
            _ => ReadOp::Discover,
        }
    }
}

/// One curator step: a write made visible, then a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub write: WriteOp,
    pub read: ReadOp,
}

/// The curator's step stream: mostly single annotations, every 10th step
/// a new annotated row, every 20th an annotation removed; reads cycle
/// through the three query verbs.
pub struct StepGen {
    corpus: Corpus,
    i: u64,
}

impl StepGen {
    pub fn new(corpus: Corpus) -> StepGen {
        StepGen { corpus, i: 0 }
    }

    pub fn next_step(&mut self) -> Step {
        let i = self.i;
        self.i += 1;
        let detach = if i % 20 == 19 {
            self.corpus.detach_random()
        } else {
            None
        };
        let write = match detach {
            Some((tid, name)) => WriteOp::Unannotate { tid, name },
            None if i % 10 == 9 => WriteOp::Row(self.corpus.insert_row(true)),
            None => match self.corpus.attach_random() {
                Some((tid, name)) => WriteOp::Annotate { tid, name },
                // Saturated model (tiny shapes only): fall back to a row.
                None => WriteOp::Row(self.corpus.insert_row(true)),
            },
        };
        Step {
            write,
            read: self.corpus.random_read(i),
        }
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }
}

/// The reader's query stream over a mined tenant (no writes).
pub struct ReadGen {
    corpus: Corpus,
    i: u64,
}

impl ReadGen {
    pub fn new(corpus: Corpus) -> ReadGen {
        ReadGen { corpus, i: 0 }
    }

    pub fn next_read(&mut self) -> ReadOp {
        self.i += 1;
        self.corpus.random_read(self.i - 1)
    }
}

/// Which §4.3 evolution case a maintenance batch exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Case 1: annotated tuples added.
    AnnotatedTuples,
    /// Case 2: un-annotated tuples added.
    BareTuples,
    /// Case 3: annotations added to existing tuples.
    Annotations,
    /// The paper's §6 future work: annotations removed, tuples deleted.
    Deletion,
}

/// One batch of the maintenance mix.
#[derive(Debug, Clone, Copy)]
enum Batch {
    /// Case 3: attach withheld annotation occurrences.
    Attach,
    /// Case 1: insert annotated rows.
    AnnotatedRows,
    /// Case 2: insert rows, withholding their annotations.
    BareRows,
    /// Remove annotation occurrences (they become withheld ones).
    Detach,
    /// Delete tuples.
    Delete,
}

/// Per-round batches of the Fig. 16 mix and their sizes at 8000 tuples;
/// scaled with the relation. Two Case 3 batches (+100, +400), Case 1
/// +100, Case 2 +50, then 100 annotations removed and 150 tuples deleted.
///
/// The mix is stationary by construction: tuples deleted equal tuples
/// added, Case 2 rows and removed annotations feed the pool Case 3 draws
/// from, and new rows are paper-shaped. So supports stay where the load
/// put them, the relation keeps its size, and a round costs the same at
/// the end of a run as at the start — a faster system is not penalised
/// with a bigger database for getting further.
const MIX_AT_8000: [(Batch, usize); 6] = [
    (Batch::Attach, 100),
    (Batch::Attach, 400),
    (Batch::AnnotatedRows, 100),
    (Batch::BareRows, 50),
    (Batch::Detach, 100),
    (Batch::Delete, 150),
];

/// Annotation occurrences withheld at load so round 1's Case 3 batches
/// are as full as every later round's.
pub fn maintain_hold_back(shape: Shape) -> usize {
    scaled(500, shape)
}

fn scaled(at_8000: usize, shape: Shape) -> usize {
    (at_8000 * shape.tuples).div_ceil(8000).max(1)
}

/// The Fig. 16 maintenance mix as a stream of rounds of six batches.
pub struct RoundGen {
    corpus: Corpus,
    shape: Shape,
}

impl RoundGen {
    pub fn new(corpus: Corpus, shape: Shape) -> RoundGen {
        RoundGen { corpus, shape }
    }

    pub fn next_round(&mut self) -> Vec<(Case, UpdateOp)> {
        let named = |v: Vec<(u32, String)>| -> Vec<(TupleId, String)> {
            v.into_iter().map(|(t, n)| (TupleId(t), n)).collect()
        };
        let c = &mut self.corpus;
        MIX_AT_8000
            .iter()
            .map(|&(batch, size)| {
                let n = scaled(size, self.shape);
                match batch {
                    Batch::Attach => (
                        Case::Annotations,
                        UpdateOp::AnnotateNamed(named(c.attach_pending(n))),
                    ),
                    Batch::AnnotatedRows => (
                        Case::AnnotatedTuples,
                        UpdateOp::InsertRows((0..n).map(|_| c.insert_row(true)).collect()),
                    ),
                    Batch::BareRows => (
                        Case::BareTuples,
                        UpdateOp::InsertRows((0..n).map(|_| c.insert_row(false)).collect()),
                    ),
                    Batch::Detach => (
                        Case::Deletion,
                        UpdateOp::RemoveNamed(named(c.detach_to_pending(n))),
                    ),
                    Batch::Delete => (
                        Case::Deletion,
                        UpdateOp::DeleteTuples(
                            c.delete_random(n).into_iter().map(TupleId).collect(),
                        ),
                    ),
                }
            })
            .collect()
    }

    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }
}

/// Annotation names the bulk loader toggles (fresh to the tenant, so the
/// un-mined flood also exercises interning on first use).
const BULK_NAMES: [&str; 8] = ["B0", "B1", "B2", "B3", "B4", "B5", "B6", "B7"];

/// The bulk loader's op stream: nine annotation toggles to one fresh row.
/// The model is one bit per (tuple, name), so generating an op costs
/// nanoseconds against the microseconds the server spends on it.
pub struct FloodGen {
    bits: Vec<u8>,
    stream: RowStream,
    rng: StdRng,
    i: u64,
}

impl FloodGen {
    /// A stream against a tenant preloaded with `rows` tuples.
    pub fn new(seed: u64, shape: Shape, rows: usize) -> FloodGen {
        FloodGen {
            bits: vec![0; rows],
            stream: RowStream::new(seed ^ 0xF100_D0B5, shape),
            rng: StdRng::seed_from_u64(seed ^ 0xF100_D5ED),
            i: 0,
        }
    }

    pub fn next_op(&mut self) -> WriteOp {
        self.i += 1;
        if self.i % 10 == 0 {
            self.bits.push(0);
            return WriteOp::Row(self.stream.next_row());
        }
        let tid = self.rng.gen_range(0..self.bits.len() as u32);
        let k = self.rng.gen_range(0..BULK_NAMES.len());
        let bit = 1u8 << k;
        let name = BULK_NAMES[k].to_string();
        let was_set = self.bits[tid as usize] & bit != 0;
        self.bits[tid as usize] ^= bit;
        if was_set {
            WriteOp::Unannotate { tid, name }
        } else {
            WriteOp::Annotate { tid, name }
        }
    }

    /// Append the next `n` command lines addressed to `ds`.
    pub fn window_into(&mut self, ds: &str, n: usize, out: &mut String) {
        for _ in 0..n {
            self.next_op().line_into(ds, out);
        }
    }

    /// Tuples the tenant holds once every op so far has been applied.
    pub fn rows(&self) -> usize {
        self.bits.len()
    }
}

/// FNV-1a over a sequence of strings: a cheap fingerprint for "the same
/// seed generates the same inputs".
#[cfg(test)]
pub fn fingerprint<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        tuples: 400,
        patterns: 3,
    };

    /// Everything one seed generates, as text.
    fn everything(seed: u64) -> Vec<String> {
        let mut out = Corpus::new(seed, SHAPE, 0).rows();
        let mut steps = StepGen::new(Corpus::new(seed, SHAPE, 0));
        for _ in 0..200 {
            let step = steps.next_step();
            let mut line = step.read.line("ds");
            step.write.line_into("ds", &mut line);
            out.push(line);
        }
        let mut rounds = RoundGen::new(Corpus::new(seed, SHAPE, maintain_hold_back(SHAPE)), SHAPE);
        for _ in 0..5 {
            out.extend(
                rounds
                    .next_round()
                    .iter()
                    .map(|(c, op)| format!("{c:?} {op:?}")),
            );
        }
        let mut flood = FloodGen::new(seed, SHAPE, 400);
        let mut window = String::new();
        flood.window_into("bulk", 500, &mut window);
        out.push(window);
        out
    }

    #[test]
    fn one_seed_generates_one_input_and_seeds_differ() {
        let a = fingerprint(everything(11).iter().map(String::as_str));
        let b = fingerprint(everything(11).iter().map(String::as_str));
        let c = fingerprint(everything(12).iter().map(String::as_str));
        assert_eq!(a, b, "the same seed must generate the same inputs");
        assert_ne!(a, c, "different seeds must generate different inputs");
    }

    /// Apply `op` to `rel` the way the writer would; `true` iff it
    /// changed the relation.
    fn apply(rel: &mut AnnotatedRelation, op: &WriteOp) -> bool {
        match op {
            WriteOp::Annotate { tid, name } => {
                let ann = rel.vocab_mut().annotation(name);
                rel.add_annotation(TupleId(*tid), ann)
            }
            WriteOp::Unannotate { tid, name } => rel
                .vocab()
                .get(ItemKind::Annotation, name)
                .is_some_and(|ann| rel.remove_annotation(TupleId(*tid), ann)),
            WriteOp::Row(text) => parse_tuple_line(rel.vocab_mut(), text)
                .map(|t| rel.insert(t))
                .is_some(),
        }
    }

    fn loaded(rows: &[String]) -> AnnotatedRelation {
        let mut rel = AnnotatedRelation::new("replay");
        for row in rows {
            let tuple = parse_tuple_line(rel.vocab_mut(), row).expect("generated row has items");
            rel.insert(tuple);
        }
        rel
    }

    #[test]
    fn every_flood_op_is_effective() {
        let rows = Corpus::new(5, SHAPE, 0).rows();
        let mut rel = loaded(&rows);
        let mut flood = FloodGen::new(5, SHAPE, rows.len());
        for i in 0..5000 {
            let op = flood.next_op();
            assert!(apply(&mut rel, &op), "flood op {i} had no effect: {op:?}");
        }
        assert_eq!(rel.len(), flood.rows());
    }

    #[test]
    fn every_curator_write_is_effective() {
        let corpus = Corpus::new(9, SHAPE, 0);
        let mut rel = loaded(&corpus.rows());
        let mut steps = StepGen::new(corpus);
        for i in 0..600 {
            let step = steps.next_step();
            assert!(apply(&mut rel, &step.write), "step {i}: {:?}", step.write);
            if let ReadOp::Recommend { tid } = step.read {
                assert!(rel.is_live(TupleId(tid)), "step {i} reads dead tuple {tid}");
            }
        }
        assert_eq!(rel.len(), steps.corpus().live_tuples());
    }

    #[test]
    fn maintenance_rounds_are_effective_and_stationary() {
        let corpus = Corpus::new(3, SHAPE, maintain_hold_back(SHAPE));
        let mut rel = loaded(&corpus.rows());
        let before = rel.len();
        let mut rounds = RoundGen::new(corpus, SHAPE);
        for round in 0..40 {
            for (case, op) in rounds.next_round() {
                assert!(!op.is_empty(), "round {round}: empty {case:?} batch");
                let ops: Vec<WriteOp> = match op {
                    UpdateOp::AnnotateNamed(v) => v
                        .into_iter()
                        .map(|(t, name)| WriteOp::Annotate { tid: t.0, name })
                        .collect(),
                    UpdateOp::RemoveNamed(v) => v
                        .into_iter()
                        .map(|(t, name)| WriteOp::Unannotate { tid: t.0, name })
                        .collect(),
                    UpdateOp::InsertRows(v) => v.into_iter().map(WriteOp::Row).collect(),
                    UpdateOp::DeleteTuples(v) => {
                        for t in v {
                            assert!(rel.delete_tuple(t), "round {round}: {t:?} already dead");
                        }
                        Vec::new()
                    }
                    other => panic!("unexpected op {other:?}"),
                };
                for op in &ops {
                    assert!(apply(&mut rel, op), "round {round} {case:?}: {op:?}");
                }
            }
        }
        assert_eq!(rel.len(), before, "the mix must keep the relation's size");
        assert_eq!(rel.len(), rounds.corpus().live_tuples());
    }
}
