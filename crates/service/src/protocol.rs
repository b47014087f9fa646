//! The `annod` line protocol: one command per line, text in, text out.
//!
//! Replies are one `OK …` / `ERR …` header line; commands that return a
//! listing follow the header with payload lines and a lone `.` terminator
//! (the classic SMTP/NNTP framing, trivially scriptable with netcat).
//!
//! ```text
//! open db 0.4 0.7          -> OK open db alpha=0.4 beta=0.7 retention=0.5
//! row db 28 85 Annot_1     -> OK queued seq=1
//! mine db                  -> OK mined rules=3 epoch=1
//! rules db contains 28     -> OK 2 rules ... payload ... .
//! recommend db tuple 3     -> OK 1 recommendations ... payload ... .
//! ```
//!
//! What a client can say is declared once, in `VERBS`: one row per verb
//! holds its usage string (whose first word is its name; an alias is a
//! row of its own), its `help` notes, its handler and whether it is a
//! queued write. Dispatch, `help`, every wrong-arguments
//! error, the sharded front end's QoS bookkeeping and the README check
//! all read that table. Keyword clauses (`dir <path>`, `top <k>`,
//! `top=<k>`) are walked by one cursor, `Clauses`, over the keys the verb
//! declares.
//!
//! Queued writes (`row`, `annotate`, `unannotate`, `delete`) only
//! enqueue: they return as soon as the op is queued, and the dataset's
//! owner thread folds queued ops into batches. `flush` is the barrier;
//! read commands (`rules`, `recommend`, `stats`) serve from the latest
//! published snapshot and never wait on writes.

use std::sync::Arc;
use std::time::Duration;

use anno_mine::RuleKind;
use anno_store::{Item, ItemKind, TupleId};

use crate::dataset::Dataset;
use crate::error::ServiceError;
use crate::metrics::{render_policy, role_line, timed};
use crate::query::{top_k_for_items, top_k_for_tuple, RuleFilter, RuleOrder};
use crate::queue::{QosClass, UpdateOp};
use crate::service::{Service, ServiceConfig};
use crate::snapshot::RuleSnapshot;

/// Default `k` for `recommend` when no `top k` clause is given.
const DEFAULT_TOP_K: usize = 10;

/// Default event count for `events` when no `n` is given.
const DEFAULT_EVENTS: usize = 32;

/// One reply: the lines to send back, and whether to close the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Lines to write, in order. Multi-line listings end with `"."`.
    pub lines: Vec<String>,
    /// `true` after `quit`.
    pub quit: bool,
}

impl Reply {
    fn ok(msg: impl Into<String>) -> Reply {
        Reply {
            lines: vec![format!("OK {}", msg.into())],
            quit: false,
        }
    }

    fn block(header: impl Into<String>, mut payload: Vec<String>) -> Reply {
        let mut lines = vec![format!("OK {}", header.into())];
        lines.append(&mut payload);
        lines.push(".".to_string());
        Reply { lines, quit: false }
    }

    fn err(e: impl std::fmt::Display) -> Reply {
        Reply {
            lines: vec![format!("ERR {e}")],
            quit: false,
        }
    }

    /// The whole reply as one `\n`-terminated chunk.
    pub fn to_text(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

/// What handling one line produced. Transports see `(reply, error)`; the
/// sharded front end also reads `wrote`.
pub(crate) struct Handled {
    pub reply: Reply,
    /// The typed error behind an `ERR` reply.
    pub error: Option<ServiceError>,
    /// Set when a queued write reached its tenant's queue, admitted or
    /// shed: the tenant, and its QoS class as read under the queue lock
    /// the admission decision took.
    pub wrote: Option<(Arc<Dataset>, QosClass)>,
}

/// One row of [`VERBS`]: everything the protocol knows about a verb.
struct Verb {
    /// The whole grammar; its first word is the verb's name. `help`
    /// prints it, and it is the text of the error a line with the wrong
    /// arguments gets.
    usage: &'static str,
    /// What `help` says under the usage line.
    notes: &'static [&'static str],
    run: Run,
}

/// A queued-write line, parsed: the tenant it names and the op for it.
type QueuedOp<'a> = Result<(&'a str, UpdateOp), ServiceError>;

/// A verb's handler. The variant is the queued-write column of the table.
enum Run {
    /// Answers from the registry and the published snapshots, or does its
    /// own waiting (`mine`, `flush`, `checkpoint`, …).
    Direct(fn(&Engine, &Verb, &[&str]) -> Result<Reply, ServiceError>),
    /// A queued write: the handler only parses `<ds> …` into the tenant's
    /// name and the op. [`Engine::handle`] enqueues it through the
    /// engine's admission mode and answers `OK queued seq=<n>`.
    Queued(for<'a> fn(&Verb, &[&'a str]) -> QueuedOp<'a>),
}
use Run::{Direct, Queued};

impl Verb {
    const fn new(usage: &'static str, notes: &'static [&'static str], run: Run) -> Verb {
        Verb { usage, notes, run }
    }

    fn name(&self) -> &'static str {
        self.usage
            .split_once(' ')
            .map_or(self.usage, |(name, _)| name)
    }

    /// The wrong-arguments error: the usage, verbatim.
    fn misuse(&self) -> ServiceError {
        bad(self.usage)
    }
}

/// Every verb `annod` speaks, in the order `help` lists them.
static VERBS: &[Verb] = &[
    Verb::new("ping", &[], Direct(|_, _, _| Ok(Reply::ok("pong")))),
    Verb::new("help", &[], Direct(|_, _, _| Ok(help()))),
    Verb::new("quit", &[], Direct(quit)),
    Verb::new("exit", &["alias of quit"], Direct(quit)),
    Verb::new("datasets", &[], Direct(Engine::datasets)),
    Verb::new(
        "open <ds> [<alpha> <beta> [<retention>]] [dir <path>] \
         [auto_checkpoint <bytes=N|records=N|secs=N>...]",
        &[
            "alpha and beta in [0, 1], retention in (0, 1];",
            "dir makes the dataset durable: drains are write-ahead logged,",
            "fsyncs batched across durable datasets through the shared",
            "committer, and existing state under <path> is recovered first;",
            "auto_checkpoint makes the writer checkpoint itself once the log",
            "grows past a threshold",
        ],
        Direct(Engine::open),
    ),
    Verb::new(
        "drop <ds>",
        &[],
        Direct(|e, verb, args| {
            let [name] = args else {
                return Err(verb.misuse());
            };
            e.service.remove(name)?;
            Ok(Reply::ok(format!("dropped {name}")))
        }),
    ),
    Verb::new(
        "row <ds> <tok>...",
        &["digit tokens are data values, the others annotations"],
        Queued(row),
    ),
    Verb::new(
        "annotate <ds> <tid> <ann>...",
        &["names are single tokens"],
        Queued(|verb, args| annotation_op(verb, args, UpdateOp::AnnotateNamed)),
    ),
    Verb::new(
        "unannotate <ds> <tid> <ann>...",
        &["names are single tokens"],
        Queued(|verb, args| annotation_op(verb, args, UpdateOp::RemoveNamed)),
    ),
    Verb::new("delete <ds> <tid>...", &[], Queued(delete)),
    Verb::new(
        "class <ds> [interactive|bulk]",
        &[
            "QoS class for admission control: bulk tenants get a small per-tick",
            "budget and read-suspension backpressure; interactive tenants are",
            "shed fast with ERR overloaded when their queue fills",
        ],
        Direct(Engine::class),
    ),
    Verb::new(
        "mine <ds>",
        &["full mine + first snapshot"],
        Direct(|e, verb, args| {
            let snap = e.tenant(verb, args)?.1.mine()?;
            Ok(Reply::ok(format!(
                "mined rules={} epoch={}",
                snap.rules().len(),
                snap.epoch()
            )))
        }),
    ),
    Verb::new(
        "flush <ds>",
        &["wait until queued writes are published"],
        Direct(|e, verb, args| {
            let (_, ds) = e.tenant(verb, args)?;
            ds.flush()?;
            let epoch = ds.try_snapshot().map_or(0, |s| s.epoch());
            Ok(Reply::ok(format!("flushed epoch={epoch}")))
        }),
    ),
    Verb::new(
        "rules <ds> [contains <item>...] [kind data|ann] [minconf <x>] [by conf|sup|lift] \
         [top <k>]",
        &[],
        Direct(Engine::rules),
    ),
    Verb::new(
        "recommend <ds> tuple <tid> [top <k>] | recommend <ds> items <item>... [top <k>]",
        &["item escapes: =name for keyword collisions, ann:name / data:name to force a kind"],
        Direct(Engine::recommend),
    ),
    Verb::new(
        "discover <ds> [top=<k>] [min_support=<x>] [cross_only]",
        &[
            "ranked annotation correlations: lift/leverage over co-occurring pairs,",
            "maintained incrementally per drain; cross-namespace pairs rank first",
        ],
        Direct(Engine::discover),
    ),
    Verb::new(
        "checkpoint <ds>",
        &["persist snapshot+miner at the log head, compact the wal"],
        Direct(|e, verb, args| {
            let (name, ds) = e.tenant(verb, args)?;
            let (pos, bytes) = ds.checkpoint()?;
            Ok(Reply::ok(format!(
                "checkpoint {name} position={pos} bytes={bytes}"
            )))
        }),
    ),
    Verb::new(
        "attach <ds> dir <path> [poll_ms <n>]",
        &["read-only follower tailing a leader's log"],
        Direct(Engine::attach),
    ),
    Verb::new(
        "catchup <ds>",
        &["force a follower poll now and report replication lag"],
        Direct(|e, verb, args| {
            let (name, ds) = e.tenant(verb, args)?;
            let rs = ds.catchup_now()?;
            Ok(Reply::ok(format!(
                "catchup {name} {}",
                role_line(ds.role(), Some(&rs))
            )))
        }),
    ),
    Verb::new(
        "promote <ds>",
        &["follower -> leader: take the wal lock, catch up, accept writes"],
        Direct(|e, verb, args| {
            let (name, ds) = e.tenant(verb, args)?;
            // The promoted leader syncs like any `open … dir`.
            ds.promote_with(e.service.grouped_durability())?;
            Ok(Reply::ok(format!(
                "promoted {name} role={} tuples={} mined={}",
                ds.role().label(),
                ds.live_tuples(),
                ds.is_mined()
            )))
        }),
    ),
    Verb::new(
        "stats [<ds>]",
        &["per-dataset counters, or a service-wide block with no name"],
        Direct(Engine::stats),
    ),
    Verb::new(
        "metrics",
        &["Prometheus text exposition (same bytes as GET /metrics)"],
        Direct(|e, _, _| {
            let text = crate::expose::render_prometheus(&e.service);
            let payload = text.lines().map(String::from).collect();
            Ok(Reply::block("metrics", payload))
        }),
    ),
    Verb::new(
        "events [<ds>] [<n>]",
        &["maintenance event journal (service-level with no name)"],
        Direct(Engine::events),
    ),
    Verb::new(
        "verify <ds>",
        &["the paper's validation: maintained rules vs. a from-scratch re-mine"],
        Direct(|e, verb, args| {
            let exact = e.tenant(verb, args)?.1.verify()?;
            Ok(Reply::ok(format!("exact={exact}")))
        }),
    ),
];

fn quit(_: &Engine, _: &Verb, _: &[&str]) -> Result<Reply, ServiceError> {
    Ok(Reply {
        lines: vec!["OK bye".into()],
        quit: true,
    })
}

/// `help`: each row's usage at the margin, its notes indented under it.
fn help() -> Reply {
    let mut payload = Vec::new();
    for verb in VERBS {
        payload.push(verb.usage.to_string());
        if matches!(verb.run, Queued(_)) {
            payload.push("  queued write".to_string());
        }
        payload.extend(verb.notes.iter().map(|note| format!("  {note}")));
    }
    Reply::block("commands", payload)
}

/// A stateless command interpreter over a shared [`Service`]. One engine
/// serves any number of concurrent sessions.
#[derive(Debug, Clone)]
pub struct Engine {
    service: Arc<Service>,
    /// When set (the sharded front end), queued writes use the
    /// non-blocking admission path and answer overload with the typed
    /// `Overloaded` soft error; when clear (REPL, embedders, tests),
    /// writes block on backpressure as they always have.
    shed_writes: bool,
}

impl Engine {
    /// An engine over `service` whose writes block on backpressure.
    pub fn new(service: Arc<Service>) -> Engine {
        Engine {
            service,
            shed_writes: false,
        }
    }

    /// An engine whose queued writes never block: overload is shed with
    /// [`ServiceError::Overloaded`]. This is what each shard of the TCP
    /// front end runs — its loop must not park on a tenant's condvar.
    pub fn with_admission(service: Arc<Service>) -> Engine {
        Engine {
            service,
            shed_writes: true,
        }
    }

    /// The shared registry.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Execute one command line.
    pub fn execute(&self, line: &str) -> Reply {
        self.handle(line).reply
    }

    /// Execute one command line, also returning the typed error (if the
    /// command failed) so callers can react to specific failures without
    /// parsing the reply text.
    pub fn execute_typed(&self, line: &str) -> (Reply, Option<ServiceError>) {
        let handled = self.handle(line);
        (handled.reply, handled.error)
    }

    /// Handle one command line: tokenise it, find its [`VERBS`] row, run
    /// the handler. The one place a line is parsed, whoever sent it.
    pub(crate) fn handle(&self, line: &str) -> Handled {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&cmd, args)) = tokens.split_first() else {
            return Handled {
                reply: Reply::err("empty command; try `help`"),
                error: None,
                wrote: None,
            };
        };
        let mut wrote = None;
        let result = match VERBS.iter().find(|v| v.name().eq_ignore_ascii_case(cmd)) {
            None => Err(bad(format!(
                "unknown command {:?}; try `help`",
                cmd.to_ascii_lowercase()
            ))),
            Some(verb) => match verb.run {
                Direct(run) => run(self, verb, args),
                Queued(parse) => parse(verb, args).and_then(|(name, op)| {
                    let ds = self.service.get(name)?;
                    let (seq, class) = ds.submit(op, self.shed_writes);
                    wrote = class.map(|class| (ds, class));
                    Ok(Reply::ok(format!("queued seq={}", seq?)))
                }),
            },
        };
        let (reply, error) = match result {
            Ok(reply) => (reply, None),
            Err(e) => (Reply::err(&e), Some(e)),
        };
        Handled {
            reply,
            error,
            wrote,
        }
    }

    /// The tenant a `<verb> <ds>` line names.
    fn tenant<'a>(
        &self,
        verb: &Verb,
        args: &[&'a str],
    ) -> Result<(&'a str, Arc<Dataset>), ServiceError> {
        let [name] = args else {
            return Err(verb.misuse());
        };
        Ok((name, self.service.get(name)?))
    }

    fn datasets(&self, _: &Verb, _: &[&str]) -> Result<Reply, ServiceError> {
        let payload = self.service.observe().listing();
        Ok(Reply::block(format!("{} datasets", payload.len()), payload))
    }

    fn open(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (name, rest) = args.split_first().ok_or_else(|| verb.misuse())?;
        let mut clauses = Clauses::new(verb, rest, &["dir", "auto_checkpoint"]);
        // Positional thresholds first, then keyword clauses to the end.
        let mut config = ServiceConfig::default();
        match clauses.run() {
            [] => {}
            [alpha, beta, rest2 @ ..] => {
                let alpha = parse_fraction(alpha, "alpha")?;
                let beta = parse_fraction(beta, "beta")?;
                config.thresholds = anno_mine::Thresholds::new(alpha, beta);
                match rest2 {
                    [] => {}
                    [retention] => config.retention = parse_fraction(retention, "retention")?,
                    _ => return Err(verb.misuse()),
                }
            }
            _ => return Err(bad("open takes alpha and beta together")),
        }

        let mut dir: Option<&str> = None;
        let mut policy = anno_wal::CheckpointPolicy::default();
        while let Some(key) = clauses.next_key()? {
            match key {
                "dir" => dir = Some(clauses.value()?),
                "auto_checkpoint" => {
                    let mut thresholds =
                        Clauses::new(verb, clauses.values()?, &["bytes=", "records=", "secs="]);
                    while let Some(key) = thresholds.next_key()? {
                        let n = parse_count(thresholds.value()?)? as u64;
                        match key {
                            "bytes=" => policy.log_bytes = Some(n),
                            "records=" => policy.replayed_records = Some(n),
                            "secs=" => policy.interval = Some(Duration::from_secs(n)),
                            _ => return Err(verb.misuse()),
                        }
                    }
                }
                _ => return Err(verb.misuse()),
            }
        }

        let Some(path) = dir else {
            if policy.is_enabled() {
                return Err(bad(
                    "auto_checkpoint applies to durable datasets; add `dir <path>`",
                ));
            }
            self.service.create(name, config)?;
            return Ok(Reply::ok(format!(
                "open {name} alpha={} beta={} retention={}",
                config.thresholds.min_support, config.thresholds.min_confidence, config.retention
            )));
        };

        let options = crate::dataset::DurabilityOptions {
            auto_checkpoint: policy,
            ..self.service.grouped_durability()
        };
        let ds =
            self.service
                .open_durable_with(name, config, std::path::Path::new(path), options)?;
        // Recovered mined state keeps its checkpointed thresholds;
        // report what the dataset actually runs with.
        let cfg = ds.config();
        Ok(Reply::ok(format!(
            "open {name} alpha={} beta={} retention={} dir={path} tuples={} mined={} \
             sync={} auto_checkpoint={}",
            cfg.thresholds.min_support,
            cfg.thresholds.min_confidence,
            cfg.retention,
            ds.live_tuples(),
            ds.is_mined(),
            ds.sync_policy_label().unwrap_or_default(),
            render_policy(&policy),
        )))
    }

    /// `attach`: register a read-only follower replica tailing the
    /// leader's log directory.
    fn attach(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (name, rest) = args.split_first().ok_or_else(|| verb.misuse())?;
        let mut clauses = Clauses::new(verb, rest, &["dir", "poll_ms"]);
        let mut dir: Option<&str> = None;
        let mut poll = Duration::from_millis(50);
        while let Some(key) = clauses.next_key()? {
            match key {
                "dir" => dir = Some(clauses.value()?),
                "poll_ms" => {
                    let ms = clauses.value()?;
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| bad(format!("poll_ms must be an integer, got {ms:?}")))?;
                    poll = Duration::from_millis(ms);
                }
                _ => return Err(verb.misuse()),
            }
        }
        let path = dir.ok_or_else(|| verb.misuse())?;
        let ds = self.service.attach_follower(
            name,
            ServiceConfig::default(),
            std::path::Path::new(path),
            poll,
        )?;
        // Catch up before replying, so `attach` against a quiet leader
        // serves its full state immediately.
        let rs = ds.catchup_now()?;
        Ok(Reply::ok(format!(
            "attach {name} dir={path} poll_ms={} {}",
            poll.as_millis(),
            role_line(ds.role(), Some(&rs))
        )))
    }

    /// `class`: set (or report) the tenant's QoS class. The class steers
    /// the sharded front end's admission policy — bulk tenants get a
    /// small per-tick command budget and absorb overload through read
    /// suspension; interactive tenants keep a large budget and are shed
    /// fast with `Overloaded` so their latency stays bounded.
    fn class(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (name, class) = match args {
            [name] => (name, None),
            [name, class] => {
                let parsed = QosClass::parse(class)
                    .ok_or_else(|| bad(format!("unknown class {class:?}; {}", verb.usage)))?;
                (name, Some(parsed))
            }
            _ => return Err(verb.misuse()),
        };
        let ds = self.service.get(name)?;
        if let Some(class) = class {
            ds.set_qos_class(class);
        }
        Ok(Reply::ok(format!(
            "class {name} {} cap={}",
            class.unwrap_or_else(|| ds.qos_class()).label(),
            ds.queue_cap()
        )))
    }

    fn rules(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (name, rest) = args.split_first().ok_or_else(|| verb.misuse())?;
        let ds = self.service.get(name)?;
        let snap = ds.snapshot()?;
        let mut clauses = Clauses::new(verb, rest, &["contains", "kind", "minconf", "by", "top"]);
        clauses.repeats = "contains";
        let mut filter = RuleFilter::default();
        // An unknown `contains` item means an empty result, but only after
        // the whole command parses — a success reply must never mask a
        // malformed later clause.
        let mut unknown_item = false;
        while let Some(key) = clauses.next_key()? {
            match key {
                "contains" => {
                    for tok in clauses.values()? {
                        match resolve_item(&ds, &snap, tok) {
                            Some(item) => filter.antecedent.push(item),
                            None => unknown_item = true,
                        }
                    }
                }
                "kind" => {
                    filter.kind = Some(match clauses.value()?.to_ascii_lowercase().as_str() {
                        "data" | "d2a" => RuleKind::DataToAnnotation,
                        "ann" | "a2a" => RuleKind::AnnotationToAnnotation,
                        other => return Err(bad(format!("unknown rule kind {other:?}"))),
                    })
                }
                "minconf" => {
                    filter.min_confidence = Some(parse_fraction(clauses.value()?, "minconf")?)
                }
                "by" => {
                    filter.order = match clauses.value()?.to_ascii_lowercase().as_str() {
                        "conf" | "confidence" => RuleOrder::Confidence,
                        "sup" | "support" => RuleOrder::Support,
                        "lift" => RuleOrder::Lift,
                        other => return Err(bad(format!("unknown order {other:?}"))),
                    }
                }
                "top" => filter.top = Some(parse_count(clauses.value()?)?),
                _ => return Err(verb.misuse()),
            }
        }
        if unknown_item {
            // Still a served rule query; count it.
            ds.raw_metrics().record_rule_query(0);
            return Ok(Reply::block("0 rules (unknown item)", vec![]));
        }
        let (payload, nanos) = timed(|| {
            let vocab = snap.relation().vocab();
            filter
                .apply(&snap)
                .into_iter()
                .map(|r| r.render(vocab))
                .collect::<Vec<String>>()
        });
        ds.raw_metrics().record_rule_query(nanos);
        Ok(Reply::block(format!("{} rules", payload.len()), payload))
    }

    fn recommend(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (name, rest) = args.split_first().ok_or_else(|| verb.misuse())?;
        let ds = self.service.get(name)?;
        let snap = ds.snapshot()?;
        let mut clauses = Clauses::new(verb, rest, &["tuple", "items", "top"]);
        let mut tuple = None;
        // Unknown items resolve to nothing, so `Some(vec![])` is a query.
        let mut items: Option<Vec<Item>> = None;
        let mut k = DEFAULT_TOP_K;
        while let Some(key) = clauses.next_key()? {
            match key {
                "tuple" => tuple = Some(parse_tid(clauses.value()?)?),
                "items" => {
                    let toks = clauses.values()?.iter();
                    items = Some(toks.filter_map(|t| resolve_item(&ds, &snap, t)).collect());
                }
                "top" => k = parse_count(clauses.value()?)?,
                _ => return Err(verb.misuse()),
            }
        }
        let (recs, nanos) = match (tuple, items) {
            (Some(tid), None) => timed(|| top_k_for_tuple(&snap, tid, k)),
            (None, Some(items)) => timed(|| Some(top_k_for_items(&snap, &items, k))),
            _ => return Err(verb.misuse()),
        };
        ds.raw_metrics().record_recommend_query(nanos);
        let Some(recs) = recs else {
            return Err(bad("tuple is dead or out of range in the current snapshot"));
        };
        let payload: Vec<String> = recs
            .into_iter()
            .map(|r| {
                format!(
                    "add {} conf={:.4} sup={:.4} [{}]",
                    r.name, r.confidence, r.support, r.rule
                )
            })
            .collect();
        Ok(Reply::block(
            format!("{} recommendations", payload.len()),
            payload,
        ))
    }

    /// Serve the ranked correlation top-k from the published discovery
    /// snapshot — O(k), never touching the write path. Cross-namespace
    /// pairs (annotation families co-firing) lead; same-namespace pairs
    /// follow unless `cross_only` drops them.
    fn discover(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (name, rest) = args.split_first().ok_or_else(|| verb.misuse())?;
        let ds = self.service.get(name)?;
        let mut clauses = Clauses::new(verb, rest, &["top=", "min_support=", "cross_only"]);
        let mut k = DEFAULT_TOP_K;
        let mut min_support = 0.0f64;
        let mut cross_only = false;
        while let Some(key) = clauses.next_key()? {
            match key {
                "top=" => k = parse_count(clauses.value()?)?,
                "min_support=" => min_support = parse_fraction(clauses.value()?, "min_support")?,
                "cross_only" => cross_only = true,
                _ => return Err(verb.misuse()),
            }
        }
        let k = k.min(crate::dataset::DISCOVERY_TOPK_CAP);
        let snap = ds.discovery()?;
        let (payload, nanos) = timed(|| {
            snap.query(k, min_support, cross_only)
                .into_iter()
                .map(|p| {
                    format!(
                        "{} ~ {} count={} support={:.4} lift={:.3} leverage={:.5} \
                         significant={} cross={}",
                        p.a_name,
                        p.b_name,
                        p.count,
                        p.support,
                        p.lift,
                        p.leverage,
                        p.significant,
                        p.cross,
                    )
                })
                .collect::<Vec<String>>()
        });
        ds.raw_metrics().record_discover_query(nanos);
        Ok(Reply::block(
            format!(
                "{} correlations epoch={} pairs_tracked={}",
                payload.len(),
                snap.epoch,
                snap.pairs_tracked,
            ),
            payload,
        ))
    }

    /// The maintenance event journal: a dataset's (recovery, checkpoints,
    /// fencing) with a name, the service's (group-commit windows) bare.
    fn events(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        let (scope, events, total) = match args {
            [] => (
                "service",
                self.service.events(DEFAULT_EVENTS),
                self.service.events_total(),
            ),
            [name, n @ ..] => {
                let n = match n {
                    [] => DEFAULT_EVENTS,
                    [n] => parse_count(n)?,
                    _ => return Err(verb.misuse()),
                };
                let ds = self.service.get(name)?;
                (*name, ds.events(n), ds.events_total())
            }
        };
        let payload: Vec<String> = events.iter().map(|e| e.to_string()).collect();
        Ok(Reply::block(
            format!("{} events {scope} total={total}", payload.len()),
            payload,
        ))
    }

    /// `stats <ds>` from one [`Dataset::observability`], or with no
    /// name the service block from one [`Service::observe`]; both are
    /// writers over `metrics.rs`'s tables.
    fn stats(&self, verb: &Verb, args: &[&str]) -> Result<Reply, ServiceError> {
        if args.is_empty() {
            let service = self.service.observe();
            let header = format!("service stats {} datasets", service.datasets.len());
            return Ok(Reply::block(header, service.stats()));
        }
        let (name, ds) = self.tenant(verb, args)?;
        let payload = ds.observability().stats();
        Ok(Reply::block(format!("stats {name}"), payload))
    }
}

/// The one clause cursor: walks the `keyword value…` clauses that close
/// a line, in whatever order they come. A token that opens no declared
/// clause, a clause given twice and a clause missing its value are all
/// refused here, with the verb's usage.
struct Clauses<'a> {
    usage: &'static str,
    /// The clauses the verb declares. A trailing `=` marks one written
    /// `key=<value>` in a single token.
    keys: &'static [&'static str],
    /// The one key whose second occurrence adds to the first.
    repeats: &'static str,
    tokens: &'a [&'a str],
    seen: Vec<&'static str>,
    /// The value inside the `key=<value>` token `next_key` just took.
    inline: Option<&'a str>,
}

/// The declared key `tok` opens, and its value when that is written
/// inline. A token with a leading `=` opens nothing: that is the
/// literal-item escape (`=top` names an item called `top`).
fn clause_key<'t>(keys: &[&'static str], tok: &'t str) -> Option<(&'static str, Option<&'t str>)> {
    keys.iter().find_map(|&key| match key.strip_suffix('=') {
        Some(stem) => tok
            .split_once('=')
            .filter(|(k, _)| k.eq_ignore_ascii_case(stem))
            .map(|(_, value)| (key, Some(value))),
        None => tok.eq_ignore_ascii_case(key).then_some((key, None)),
    })
}

impl<'a> Clauses<'a> {
    fn new(verb: &Verb, tokens: &'a [&'a str], keys: &'static [&'static str]) -> Clauses<'a> {
        Clauses {
            usage: verb.usage,
            keys,
            repeats: "",
            tokens,
            seen: Vec::new(),
            inline: None,
        }
    }

    /// Step to the next clause and return its key, as declared.
    fn next_key(&mut self) -> Result<Option<&'static str>, ServiceError> {
        let Some((tok, rest)) = self.tokens.split_first() else {
            return Ok(None);
        };
        let Some((key, inline)) = clause_key(self.keys, tok) else {
            return Err(bad(format!("unknown clause {tok:?}; {}", self.usage)));
        };
        if key != self.repeats && self.seen.contains(&key) {
            return Err(bad(format!("{key} given twice; {}", self.usage)));
        }
        self.seen.push(key);
        (self.tokens, self.inline) = (rest, inline);
        Ok(Some(key))
    }

    /// Every token up to the next keyword: the positional arguments
    /// before the first clause, or a clause's list of values.
    fn run(&mut self) -> &'a [&'a str] {
        let n = (self.tokens.iter())
            .take_while(|tok| clause_key(self.keys, tok).is_none())
            .count();
        let (run, rest) = self.tokens.split_at(n);
        self.tokens = rest;
        run
    }

    /// The current clause's values: at least one.
    fn values(&mut self) -> Result<&'a [&'a str], ServiceError> {
        match self.run() {
            [] => Err(self.needs_value()),
            values => Ok(values),
        }
    }

    /// The current clause's one value: the inline one, else the next
    /// token whatever it spells.
    fn value(&mut self) -> Result<&'a str, ServiceError> {
        if let Some(value) = self.inline.take() {
            return Ok(value);
        }
        let (value, rest) = self
            .tokens
            .split_first()
            .ok_or_else(|| self.needs_value())?;
        self.tokens = rest;
        Ok(value)
    }

    fn needs_value(&self) -> ServiceError {
        let key = self.seen.last().copied().unwrap_or_default();
        bad(format!("{key} needs a value; {}", self.usage))
    }
}

fn row<'a>(verb: &Verb, args: &[&'a str]) -> QueuedOp<'a> {
    let [name, toks @ ..] = args else {
        return Err(verb.misuse());
    };
    if toks.is_empty() {
        return Err(verb.misuse());
    }
    let line = toks.join(" ");
    // A line the parser skips (comment/blank/separator-only) would
    // silently vanish at apply time; err immediately instead of
    // replying `queued`.
    if !anno_store::line_has_items(&line) {
        return Err(bad(
            "row has no items (comment, blank, or separators only) and would be dropped",
        ));
    }
    Ok((name, UpdateOp::InsertRows(vec![line])))
}

/// `annotate` / `unannotate`, which differ only in the op they build.
fn annotation_op<'a>(
    verb: &Verb,
    args: &[&'a str],
    op: fn(Vec<(TupleId, String)>) -> UpdateOp,
) -> QueuedOp<'a> {
    let [name, tid, anns @ ..] = args else {
        return Err(verb.misuse());
    };
    if anns.is_empty() {
        return Err(verb.misuse());
    }
    let tid = parse_tid(tid)?;
    Ok((
        name,
        op(anns.iter().map(|a| (tid, a.to_string())).collect()),
    ))
}

fn delete<'a>(verb: &Verb, args: &[&'a str]) -> QueuedOp<'a> {
    let [name, tids @ ..] = args else {
        return Err(verb.misuse());
    };
    if tids.is_empty() {
        return Err(verb.misuse());
    }
    let tids = tids
        .iter()
        .map(|t| parse_tid(t))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((name, UpdateOp::DeleteTuples(tids)))
}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadCommand(msg.into())
}

fn parse_fraction(tok: &str, what: &str) -> Result<f64, ServiceError> {
    let x: f64 = tok
        .parse()
        .map_err(|_| bad(format!("{what} must be a number, got {tok:?}")))?;
    if !(0.0..=1.0).contains(&x) {
        return Err(bad(format!("{what} must be in [0, 1], got {x}")));
    }
    Ok(x)
}

fn parse_tid(tok: &str) -> Result<TupleId, ServiceError> {
    tok.parse::<u32>().map(TupleId).map_err(|_| {
        bad(format!(
            "tuple id must be a non-negative integer, got {tok:?}"
        ))
    })
}

fn parse_count(tok: &str) -> Result<usize, ServiceError> {
    tok.parse::<usize>()
        .map_err(|_| bad(format!("count must be a non-negative integer, got {tok:?}")))
}

/// Resolve a protocol token against the snapshot's vocabulary without
/// interning. A leading `=` is the literal-item escape and is dropped
/// (annotations can carry any single-token name, including the grammar's
/// reserved words). `ann:<name>` / `data:<name>` force a kind (the only
/// way to reach an annotation whose digit-only name shadows a data
/// value); otherwise the shared Fig. 4 convention
/// (`anno_store::token_kind`) picks the preferred kind, falling back to
/// the other on a miss so digit-named annotations stay queryable when
/// unambiguous. Lookups go through the dataset's per-namespace lookaside
/// cache ([`Dataset::resolve_cached`]): hot query names skip the HAMT
/// walk entirely, and append-only interning keeps every cached hit valid
/// forever (misses are never cached).
fn resolve_item(ds: &Dataset, snap: &RuleSnapshot, tok: &str) -> Option<Item> {
    let tok = tok.strip_prefix('=').unwrap_or(tok);
    let vocab = snap.relation().vocab();
    if let Some(rest) = tok.strip_prefix("ann:") {
        return ds.resolve_cached(vocab, ItemKind::Annotation, rest);
    }
    if let Some(rest) = tok.strip_prefix("data:") {
        return ds.resolve_cached(vocab, ItemKind::Data, rest);
    }
    let preferred = anno_store::token_kind(tok);
    let fallback = match preferred {
        ItemKind::Data => ItemKind::Annotation,
        _ => ItemKind::Data,
    };
    ds.resolve_cached(vocab, preferred, tok)
        .or_else(|| ds.resolve_cached(vocab, fallback, tok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(Arc::new(Service::new()))
    }

    fn ok(e: &Engine, line: &str) -> Vec<String> {
        let reply = e.execute(line);
        assert!(
            reply.lines[0].starts_with("OK"),
            "{line:?} -> {:?}",
            reply.lines
        );
        reply.lines
    }

    #[test]
    fn full_session_walkthrough() {
        let e = engine();
        ok(&e, "ping");
        ok(&e, "open db 0.4 0.7");
        for row in [
            "28 85 Annot_1",
            "28 85 Annot_1",
            "28 85 Annot_1",
            "28 85",
            "17 99",
        ] {
            ok(&e, &format!("row db {row}"));
        }
        let mined = ok(&e, "mine db");
        assert!(mined[0].contains("rules=3"), "{mined:?}");

        let rules = ok(&e, "rules db");
        assert_eq!(rules.len(), 3 + 2, "header + 3 rules + terminator");
        assert_eq!(rules.last().unwrap(), ".");

        let filtered = ok(&e, "rules db contains 28 top 1");
        assert!(filtered[0].starts_with("OK 1 rules") || filtered[0].starts_with("OK 2 rules"));

        let recs = ok(&e, "recommend db tuple 3");
        assert!(recs[0].contains("1 recommendations"), "{recs:?}");
        assert!(recs[1].contains("add Annot_1"), "{recs:?}");

        let by_items = ok(&e, "recommend db items 28 85 top 5");
        assert!(by_items[0].contains("1 recommendations"), "{by_items:?}");

        ok(&e, "annotate db 3 Annot_1");
        ok(&e, "flush db");
        let after = ok(&e, "recommend db tuple 3");
        assert!(after[0].contains("0 recommendations"), "{after:?}");

        let stats = ok(&e, "stats db");
        assert!(
            stats.iter().any(|l| l.contains("case3_batches=1")),
            "{stats:?}"
        );
        assert!(
            stats.iter().any(|l| l.contains("snapshots_published=")),
            "{stats:?}"
        );

        let verify = ok(&e, "verify db");
        assert!(verify[0].contains("exact=true"), "{verify:?}");

        let listing = ok(&e, "datasets");
        assert!(listing[1].starts_with("db "), "{listing:?}");

        let bye = e.execute("quit");
        assert!(bye.quit);
    }

    #[test]
    fn discover_verb_serves_the_ranked_topk() {
        let e = engine();
        assert!(e.execute("discover").lines[0].starts_with("ERR"));
        assert!(e.execute("discover nosuch").lines[0].starts_with("ERR"));
        ok(&e, "open db 0.3 0.6");
        for row in [
            "28 85 Annot_1 Annot_2",
            "28 85 Annot_1 Annot_2",
            "28 85 Annot_1",
            "17 99 Annot_3",
            "17 99",
        ] {
            ok(&e, &format!("row db {row}"));
        }
        assert!(
            e.execute("discover db").lines[0].starts_with("ERR"),
            "no top-k before mine"
        );
        ok(&e, "mine db");

        let all = ok(&e, "discover db");
        assert!(
            all[0].contains("correlations epoch=") && all[0].contains("pairs_tracked="),
            "{all:?}"
        );
        assert!(all.len() >= 3, "header + at least one pair + terminator");
        assert!(
            all[1].contains("Annot_") && all[1].contains("lift=") && all[1].contains("count="),
            "{all:?}"
        );
        assert_eq!(all.last().unwrap(), ".");

        let top1 = ok(&e, "discover db top=1");
        assert!(top1[0].starts_with("OK 1 correlations"), "{top1:?}");
        let none = ok(&e, "discover db min_support=0.99");
        assert!(none[0].starts_with("OK 0 correlations"), "{none:?}");
        // No labels in this dataset: cross_only legitimately serves zero.
        let cross = ok(&e, "discover db cross_only");
        assert!(cross[0].starts_with("OK 0 correlations"), "{cross:?}");

        assert!(e.execute("discover db banana=1").lines[0].starts_with("ERR"));
        assert!(e.execute("discover db top=zap").lines[0].starts_with("ERR"));
        assert!(e.execute("discover db min_support=7").lines[0].starts_with("ERR"));

        // A drain refreshes the ranking: the served epoch advances.
        let epoch_of = |header: &str| {
            header
                .split_whitespace()
                .find_map(|t| t.strip_prefix("epoch="))
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        ok(&e, "annotate db 4 Annot_1");
        ok(&e, "flush db");
        let after = ok(&e, "discover db");
        assert!(epoch_of(&after[0]) > epoch_of(&all[0]), "{after:?}");

        // Discovery shape and query counters reach the stats verb.
        let stats = ok(&e, "stats db");
        assert!(
            stats.iter().any(|l| l.contains("discovery_pairs=")),
            "{stats:?}"
        );
        assert!(
            stats
                .iter()
                .any(|l| l.contains("discover_queries=") && !l.contains("discover_queries=0")),
            "{stats:?}"
        );
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let e = engine();
        assert!(e.execute("").lines[0].starts_with("ERR"));
        assert!(e.execute("bogus").lines[0].starts_with("ERR"));
        assert!(e.execute("rules nosuch").lines[0].starts_with("ERR"));
        assert!(e.execute("open db 2.0 0.5").lines[0].starts_with("ERR"));
        ok(&e, "open db");
        assert!(
            e.execute("open db").lines[0].starts_with("ERR"),
            "duplicate open"
        );
        assert!(
            e.execute("rules db").lines[0].starts_with("ERR"),
            "not mined yet"
        );
        assert!(e.execute("annotate db xyz A").lines[0].starts_with("ERR"));
        assert!(e.execute("delete db").lines[0].starts_with("ERR"));
        assert!(
            e.execute("row db # comment only").lines[0].starts_with("ERR"),
            "comment-only rows would be silently dropped; must err upfront"
        );
        assert!(
            e.execute("row db ,").lines[0].starts_with("ERR"),
            "separator-only rows parse to no items and must err, not insert an empty tuple"
        );
        e.execute("row db 1 X");
        e.execute("row db 1 X");
        e.execute("mine db");
        assert!(
            e.execute("rules db contains kind ann").lines[0].starts_with("ERR"),
            "contains with no items must be a usage error, not an unfiltered listing"
        );
        ok(&e, "drop db");
        assert!(e.execute("flush db").lines[0].starts_with("ERR"));
    }

    #[test]
    fn open_refuses_zero_retention_and_leaves_the_directory_openable() {
        // Were `retention 0` admitted, `mine` would log it and then panic
        // the owner thread, now and on every later open of the directory.
        let dir = std::env::temp_dir().join(format!("anno-protocol-ret0-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();
        let e = engine();
        for line in [
            "open db 0.4 0.7 0".to_string(),
            format!("open db 0.4 0.7 0 dir {dir_tok}"),
        ] {
            let reply = e.execute(&line).lines;
            assert!(
                reply[0].starts_with("ERR") && reply[0].contains("(0, 1]"),
                "{reply:?}"
            );
        }
        ok(&e, &format!("open db 0.4 0.7 1 dir {dir_tok}"));
        ok(&e, "row db 28 85 Annot_1");
        ok(&e, "mine db");
        ok(&e, "drop db");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digit_named_annotations_stay_queryable() {
        // `annotate` accepts any name, including digit-only ones that the
        // Fig. 4 convention would read as data values. Queries must fall
        // back to the annotation vocabulary and still find them.
        let e = engine();
        ok(&e, "open db 0.3 0.5");
        for _ in 0..3 {
            ok(&e, "row db 1 2");
        }
        ok(&e, "annotate db 0 123 Annot_X");
        ok(&e, "annotate db 1 123 Annot_X");
        ok(&e, "annotate db 2 123");
        ok(&e, "mine db");
        // {123} ⇒ Annot_X holds at conf 2/3 ≥ 0.5; `contains 123` must
        // resolve 123 as the annotation, not a nonexistent data value.
        let rules = ok(&e, "rules db contains 123 kind ann");
        assert!(!rules[0].contains("0 rules"), "{rules:?}");
        let recs = ok(&e, "recommend db items 123");
        assert!(recs.iter().any(|l| l.contains("add Annot_X")), "{recs:?}");
    }

    #[test]
    fn keyword_named_items_are_queryable_with_equals_escape() {
        let e = engine();
        ok(&e, "open db 0.3 0.5");
        for _ in 0..3 {
            ok(&e, "row db 1 2");
        }
        ok(&e, "annotate db 0 top Annot_X");
        ok(&e, "annotate db 1 top Annot_X");
        ok(&e, "annotate db 2 top");
        ok(&e, "mine db");
        // Bare `top` parses as a clause keyword; `=top` names the item.
        assert!(e.execute("rules db contains top").lines[0].starts_with("ERR"));
        let rules = ok(&e, "rules db contains =top kind ann");
        assert!(!rules[0].contains("0 rules"), "{rules:?}");
        let recs = ok(&e, "recommend db items =top");
        assert!(recs.iter().any(|l| l.contains("add Annot_X")), "{recs:?}");
    }

    #[test]
    fn open_refuses_a_checkpoint_whose_tuples_name_uninterned_items() {
        // Such a checkpoint once opened with `mined=true`, and the first
        // `rules` then panicked the serving thread on a name lookup.
        let dir = std::env::temp_dir().join(format!("anno-protocol-stray-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();
        let e = engine();
        ok(&e, &format!("open db 0.4 0.7 dir {dir_tok}"));
        ok(&e, "row db 28 85 Annot_1");
        ok(&e, "checkpoint db");
        ok(&e, "drop db");

        // A CRC-valid checkpoint at the same position: the vocabulary
        // interns the data value "28" only, the tuples also hold data 1.
        let position = anno_wal::checkpoint::read_checkpoint(&dir)
            .unwrap()
            .unwrap()
            .position;
        let mut rel = anno_store::AnnotatedRelation::new("db");
        let known = rel.vocab_mut().data("28");
        let ann = rel.vocab_mut().annotation("Annot_1");
        for _ in 0..3 {
            rel.insert(anno_store::Tuple::new(
                [known, anno_store::Item::data(1)],
                [ann],
            ));
        }
        let config = anno_mine::IncrementalConfig::default();
        let miner = anno_mine::IncrementalMiner::mine_initial(&rel, config);
        let payload = crate::walcodec::encode_checkpoint(&rel, Some(&miner), 1);
        anno_wal::checkpoint::write_checkpoint(&dir, position, &payload).unwrap();

        let reply = e.execute(&format!("open db dir {dir_tok}")).lines;
        assert!(
            reply[0].starts_with("ERR") && reply[0].contains("never interned"),
            "{reply:?}"
        );
        assert!(e.execute("rules db").lines[0].starts_with("ERR"));
        ok(&e, "ping");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_open_checkpoint_and_reopen_flow() {
        let dir =
            std::env::temp_dir().join(format!("anno-protocol-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();

        let e = engine();
        let opened = ok(&e, &format!("open db 0.4 0.7 dir {dir_tok}"));
        assert!(opened[0].contains("mined=false"), "{opened:?}");
        for row in ["28 85 Annot_1", "28 85 Annot_1", "28 85 Annot_1", "28 85"] {
            ok(&e, &format!("row db {row}"));
        }
        ok(&e, "mine db");
        let ck = ok(&e, "checkpoint db");
        assert!(ck[0].contains("position="), "{ck:?}");
        ok(&e, "annotate db 3 Annot_1");
        ok(&e, "flush db");
        let stats = ok(&e, "stats db");
        assert!(
            stats.iter().any(|l| l.contains("wal_position=")),
            "stats must carry wal counters: {stats:?}"
        );
        assert!(
            stats.iter().any(|l| l.contains("checkpoints=1")),
            "{stats:?}"
        );
        // `checkpoint` on a memory-only dataset is a client error.
        ok(&e, "open mem");
        assert!(e.execute("checkpoint mem").lines[0].starts_with("ERR"));

        // Drop the dataset (stops its writer), then reopen from disk:
        // the protocol round-trips durable state without any embedding.
        ok(&e, "drop db");
        let reopened = ok(&e, &format!("open db dir {dir_tok}"));
        assert!(reopened[0].contains("mined=true"), "{reopened:?}");
        assert!(reopened[0].contains("tuples=4"), "{reopened:?}");
        // Checkpointed thresholds win over the (defaulted) open args.
        assert!(reopened[0].contains("alpha=0.4"), "{reopened:?}");
        let verify = ok(&e, "verify db");
        assert!(verify[0].contains("exact=true"), "{verify:?}");
        let recs = ok(&e, "recommend db tuple 3");
        assert!(
            recs[0].contains("0 recommendations"),
            "post-crash state serves"
        );
        ok(&e, "drop db");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_maintenance_clauses_parse_and_report() {
        let dir =
            std::env::temp_dir().join(format!("anno-protocol-maintenance-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();
        let e = engine();

        // Maintenance clauses demand a durable dataset.
        assert!(e.execute("open db auto_checkpoint records=4").lines[0].starts_with("ERR"));
        assert!(e
            .execute(&format!("open db dir {dir_tok} auto_checkpoint"))
            .lines[0]
            .starts_with("ERR"));
        assert!(e
            .execute(&format!("open db dir {dir_tok} auto_checkpoint banana=1"))
            .lines[0]
            .starts_with("ERR"));

        let opened = ok(
            &e,
            &format!("open db 0.4 0.7 dir {dir_tok} auto_checkpoint records=3 bytes=1048576"),
        );
        assert!(
            opened[0].contains("sync=grouped"),
            "grouped sync is the durable default: {opened:?}"
        );
        assert!(
            opened[0].contains("auto_checkpoint=bytes=1048576+records=3"),
            "{opened:?}"
        );
        for row in ["28 85 Annot_1", "28 85 Annot_1", "28 85 Annot_1", "28 85"] {
            ok(&e, &format!("row db {row}"));
        }
        ok(&e, "mine db");
        ok(&e, "annotate db 3 Annot_1");
        ok(&e, "flush db");
        let stats = ok(&e, "stats db");
        assert!(
            stats
                .iter()
                .any(|l| l.contains("wal_sync=grouped") && l.contains("auto_checkpoint=")),
            "{stats:?}"
        );
        assert!(
            stats.iter().any(|l| l.contains("grouped_submitted=")),
            "grouped datasets report committer counters: {stats:?}"
        );
        assert!(
            stats.iter().any(|l| l.contains("wal_since_ckpt_records=")),
            "{stats:?}"
        );
        // records=3: the appends crossed it at least once. How many times
        // depends on how the un-flushed rows coalesced (1–4 drains), so
        // pin only "fired at all". The commit runs on a helper thread, so
        // poll briefly for the counter to land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let stats = ok(&e, "stats db");
            if stats
                .iter()
                .any(|l| l.contains("auto_checkpoints=") && !l.contains("auto_checkpoints=0"))
            {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "the policy fired without any checkpoint command: {stats:?}"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // Reopen without clauses: recovery holds, the policy is not kept.
        ok(&e, "drop db");
        let reopened = ok(&e, &format!("open db dir {dir_tok}"));
        assert!(reopened[0].contains("sync=grouped"), "{reopened:?}");
        assert!(reopened[0].contains("mined=true"), "{reopened:?}");
        assert!(reopened[0].contains("auto_checkpoint=off"), "{reopened:?}");
        let verify = ok(&e, "verify db");
        assert!(verify[0].contains("exact=true"), "{verify:?}");
        ok(&e, "drop db");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observability_verbs_report_metrics_and_events() {
        let dir = std::env::temp_dir().join(format!("anno-protocol-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();
        let e = engine();
        ok(
            &e,
            &format!("open db 0.4 0.7 dir {dir_tok} auto_checkpoint records=2"),
        );
        for row in ["28 85 Annot_1", "28 85 Annot_1", "28 85 Annot_1", "28 85"] {
            ok(&e, &format!("row db {row}"));
            ok(&e, "flush db");
        }
        ok(&e, "mine db");
        ok(&e, "rules db");

        // `events db`: recovery is journaled at open; the auto-checkpoint
        // policy (records=2) fired during the flushed row stream, and is
        // journaled when its encoder thread finishes.
        e.service().get("db").unwrap().quiesce_maintenance();
        let events = ok(&e, "events db");
        assert!(events.iter().any(|l| l.contains("recovery")), "{events:?}");
        assert!(
            events.iter().any(|l| l.contains("auto_checkpoint")),
            "{events:?}"
        );
        // Bounded form.
        let one = ok(&e, "events db 1");
        assert!(one[0].starts_with("OK 1 events db"), "{one:?}");
        assert_eq!(one.len(), 3, "header + 1 event + terminator: {one:?}");

        // `metrics` carries the Prometheus families.
        let metrics = ok(&e, "metrics");
        assert!(
            metrics
                .iter()
                .any(|l| l.contains("anno_query_latency_ns_count{dataset=\"db\"} 1")),
            "{metrics:?}"
        );
        assert!(
            metrics
                .iter()
                .any(|l| l.starts_with("anno_write_queue_depth{dataset=\"db\"}")),
            "{metrics:?}"
        );

        // Argless `stats`: one line per dataset + service-level lines.
        ok(&e, "open mem");
        let stats = ok(&e, "stats");
        assert!(stats[0].contains("service stats 2 datasets"), "{stats:?}");
        assert!(
            stats
                .iter()
                .any(|l| l.starts_with("db ") && l.contains("fsyncs_per_drain=")),
            "{stats:?}"
        );
        assert!(
            stats
                .iter()
                .any(|l| l.starts_with("mem ") && l.contains("mined=false")),
            "{stats:?}"
        );
        assert!(
            stats.iter().any(|l| l.contains("grouped_submitted=")),
            "{stats:?}"
        );

        // Service-level events: grouped sync closed at least one window.
        let svc_events = ok(&e, "events");
        assert!(svc_events[0].contains("events service"), "{svc_events:?}");
        assert!(
            svc_events.iter().any(|l| l.contains("group_commit_window")),
            "{svc_events:?}"
        );

        assert!(e.execute("events nosuch").lines[0].starts_with("ERR"));
        ok(&e, "drop db");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replication_verbs_attach_fence_catchup_and_promote() {
        let dir = std::env::temp_dir().join(format!("anno-protocol-repl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();
        let e = engine();

        // Leader: durable (every record durable at ack).
        ok(&e, &format!("open db 0.4 0.7 dir {dir_tok}"));
        for row in ["28 85 Annot_1", "28 85 Annot_1", "28 85 Annot_1", "28 85"] {
            ok(&e, &format!("row db {row}"));
        }
        ok(&e, "mine db");
        ok(&e, "flush db");

        // Attach grammar errors first.
        assert!(e.execute("attach f").lines[0].starts_with("ERR"));
        assert!(e
            .execute(&format!("attach f dir {dir_tok} poll_ms abc"))
            .lines[0]
            .starts_with("ERR"));

        // Follower tails the same directory while the leader is live.
        let attached = ok(&e, &format!("attach f dir {dir_tok} poll_ms 10"));
        assert!(attached[0].contains("role=follower"), "{attached:?}");
        let caught = ok(&e, "catchup f");
        assert!(
            caught[0].contains("role=follower") && caught[0].contains("bytes_behind=0"),
            "{caught:?}"
        );

        // The follower serves the leader's mined state read-only.
        let rules = ok(&e, "rules f");
        assert!(rules[0].contains("3 rules"), "{rules:?}");
        // Every write verb is fenced with the *typed* read-only error —
        // not ShutDown: the follower is healthy, just not the leader.
        for verb in [
            "row f 1 2",
            "annotate f 0 X",
            "unannotate f 0 Annot_1",
            "delete f 0",
            "mine f",
            "checkpoint f",
        ] {
            let reply = e.execute(verb);
            assert!(
                reply.lines[0].starts_with("ERR") && reply.lines[0].contains("read-only follower"),
                "{verb:?} -> {:?}",
                reply.lines
            );
        }
        // `stats` on a follower renders the role and lag fields.
        let stats = ok(&e, "stats f");
        assert!(
            stats
                .iter()
                .any(|l| l.contains("role=follower") && l.contains("applied_seq=")),
            "{stats:?}"
        );
        // `catchup` against a leader is a client error.
        assert!(e.execute("catchup db").lines[0].starts_with("ERR"));
        // Promote against a live leader is refused (wal.lock held) and
        // the follower keeps serving.
        assert!(e.execute("promote f").lines[0].starts_with("ERR"));
        assert!(ok(&e, "rules f")[0].contains("3 rules"));

        // Kill the leader; promote the follower; writes flow again.
        ok(&e, "drop db");
        let promoted = ok(&e, "promote f");
        assert!(promoted[0].contains("role=leader"), "{promoted:?}");
        assert!(promoted[0].contains("mined=true"), "{promoted:?}");
        let stats = ok(&e, "stats f");
        assert!(stats.iter().any(|l| l == "role=leader"), "{stats:?}");
        ok(&e, "annotate f 3 Annot_1");
        ok(&e, "flush f");
        assert!(ok(&e, "verify f")[0].contains("exact=true"));
        // Re-promote and catchup are now client errors.
        assert!(e.execute("promote f").lines[0].starts_with("ERR"));
        assert!(e.execute("catchup f").lines[0].starts_with("ERR"));

        ok(&e, "drop f");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failover keeps the promoted leader in the service's shared group
    /// commit, exactly as an `open … dir` of the directory would.
    #[test]
    fn promote_joins_the_shared_group_committer() {
        let dir =
            std::env::temp_dir().join(format!("anno-protocol-failover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_tok = dir.to_str().unwrap().to_string();
        let e = engine();
        ok(&e, &format!("open db 0.4 0.7 dir {dir_tok}"));
        for row in ["28 85 Annot_1", "28 85 Annot_1", "28 85 Annot_1", "28 85"] {
            ok(&e, &format!("row db {row}"));
        }
        ok(&e, "mine db");
        ok(&e, "flush db");
        ok(&e, &format!("attach f dir {dir_tok} poll_ms 10"));
        ok(&e, "drop db");
        ok(&e, "promote f");

        let submitted = |stats: &[String]| -> u64 {
            let line = stats.iter().find(|l| l.contains("grouped_submitted="));
            let line = line.unwrap_or_else(|| panic!("no committer line: {stats:?}"));
            let value = line.split("grouped_submitted=").nth(1).unwrap();
            value.split_whitespace().next().unwrap().parse().unwrap()
        };
        let stats = ok(&e, "stats f");
        assert!(
            stats.iter().any(|l| l.contains("wal_sync=grouped")),
            "{stats:?}"
        );
        let before = submitted(&stats);
        ok(&e, "annotate f 3 Annot_1");
        ok(&e, "flush f");
        let after = submitted(&ok(&e, "stats f"));
        assert!(after > before, "{before} -> {after}");
        assert!(ok(&e, "verify f")[0].contains("exact=true"));

        ok(&e, "drop f");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_query_items_yield_empty_results() {
        let e = engine();
        ok(&e, "open db 0.4 0.7");
        ok(&e, "row db 1 2 X");
        ok(&e, "row db 1 2 X");
        ok(&e, "mine db");
        let rules = ok(&e, "rules db contains 999999");
        assert!(rules[0].contains("0 rules"), "{rules:?}");
        let recs = ok(&e, "recommend db items NoSuchAnnotation");
        assert!(recs[0].contains("0 recommendations"), "{recs:?}");
    }

    /// Rows whose bare verb is a wrong-arguments error.
    fn takes_arguments(verb: &Verb) -> bool {
        verb.usage.starts_with(&format!("{} <", verb.name()))
    }

    #[test]
    fn usage_is_spelled_once_and_help_prints_it() {
        let e = engine();
        let help = e.execute("help").lines;
        for verb in VERBS {
            assert!(
                help.iter().any(|l| l == verb.usage),
                "help lacks {:?}: {help:#?}",
                verb.usage
            );
            assert!(!verb.usage.contains("<dataset>"), "{:?}", verb.usage);
            let bare = e.execute(verb.name()).lines;
            if takes_arguments(verb) {
                assert_eq!(bare, [format!("ERR bad command: {}", verb.usage)]);
            } else {
                assert!(bare[0].starts_with("OK"), "{:?} -> {bare:?}", verb.name());
            }
        }
        assert!(help.iter().any(|l| l == "exit"), "the alias is listed");
    }

    #[test]
    fn every_table_row_dispatches() {
        let e = engine();
        for (i, verb) in VERBS.iter().enumerate() {
            assert!(
                VERBS[..i]
                    .iter()
                    .all(|earlier| earlier.name() != verb.name()),
                "{:?} is shadowed by an earlier row",
                verb.name()
            );
            // Matching is case-blind, and lands on this row: its usage
            // comes back, or (for a verb that needs nothing) its reply.
            let shouted = e.execute(&verb.name().to_ascii_uppercase()).lines;
            assert_eq!(shouted, e.execute(verb.name()).lines);
            assert!(!shouted[0].contains("unknown command"), "{shouted:?}");
            // A queued write gets as far as looking its tenant up.
            if matches!(verb.run, Queued(_)) {
                let reply = e.execute(&format!("{} nosuch 0 1", verb.name())).lines;
                assert_eq!(reply, ["ERR unknown dataset \"nosuch\""]);
            }
        }
        assert!(e.execute("quit").quit && e.execute("exit").quit);
        assert_eq!(
            e.execute("Bogus x").lines,
            ["ERR bad command: unknown command \"bogus\"; try `help`"]
        );
    }

    #[test]
    fn a_clause_given_twice_is_refused() {
        let dir = std::env::temp_dir().join(format!("anno-protocol-twice-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = (dir.join("A"), dir.join("B"));
        let (a_tok, b_tok) = (a.to_str().unwrap(), b.to_str().unwrap());
        let e = engine();
        ok(&e, "open db 0.4 0.7");
        for row in ["28 85 Annot_1", "28 85 Annot_1", "28 85 Annot_1", "28 85"] {
            ok(&e, &format!("row db {row}"));
        }
        ok(&e, "mine db");
        let twice = |line: &str, clause: &str| {
            let reply = e.execute(line).lines;
            let want = format!("ERR bad command: {clause} given twice; ");
            assert!(reply[0].starts_with(&want), "{line:?} -> {reply:?}");
        };
        twice(&format!("open d2 dir {a_tok} dir {b_tok}"), "dir");
        twice(
            &format!("open d2 dir {a_tok} auto_checkpoint records=4 auto_checkpoint bytes=9"),
            "auto_checkpoint",
        );
        twice(&format!("attach f dir {a_tok} dir {b_tok}"), "dir");
        twice(
            &format!("attach f dir {a_tok} poll_ms 5 poll_ms 6"),
            "poll_ms",
        );
        assert!(!a.exists() && !b.exists(), "a refused line opens nothing");
        twice("rules db top 1 top 2", "top");
        twice("rules db kind ann kind data", "kind");
        twice("rules db minconf 0.1 minconf 0.2", "minconf");
        twice("rules db by lift by sup", "by");
        twice("recommend db tuple 3 top 1 top 2", "top");
        twice("discover db top=1 top=2", "top=");
        twice(
            "discover db min_support=0.1 min_support=0.2",
            "min_support=",
        );
        // `contains` alone may repeat, and accumulates.
        assert_eq!(
            ok(&e, "rules db contains 28 contains 85"),
            ok(&e, "rules db contains 28 85")
        );
    }

    /// The README's protocol reference against the table, both ways: each
    /// backticked command in a row's first cell starts with a verb the
    /// table has and is spelled as (part of) that verb's usage, every verb
    /// has such a command, and the rows marked as queued writes are the
    /// `Queued` ones.
    #[test]
    fn readme_protocol_reference_matches_the_verb_table() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("\n## ")
            .find(|s| {
                s.lines()
                    .next()
                    .is_some_and(|h| h.contains("protocol reference"))
            })
            .expect("README has a protocol reference section");
        let mut documented = Vec::new();
        for row in section.lines().filter(|l| l.starts_with("| `")) {
            let cell = row[2..].split(" | ").next().unwrap();
            for command in cell.split('`').skip(1).step_by(2) {
                let command = command.replace("\\|", "|");
                let name = command.split(' ').next().unwrap();
                let verb = (VERBS.iter().find(|v| v.name() == name))
                    .unwrap_or_else(|| panic!("README documents {name:?}; no such verb"));
                assert!(
                    verb.usage.contains(&command),
                    "README spells {command:?}, the table {:?}",
                    verb.usage
                );
                assert_eq!(
                    row.contains("**Queued write**"),
                    matches!(verb.run, Queued(_)),
                    "{row}"
                );
                documented.push(name.to_string());
            }
        }
        for verb in VERBS {
            assert!(
                documented.iter().any(|name| name == verb.name()),
                "{:?} has no README row",
                verb.name()
            );
        }
    }
}
