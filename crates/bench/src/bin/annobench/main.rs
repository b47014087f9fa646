//! annobench — the one end-to-end benchmark of the annod serving system.
//!
//! ```text
//! annobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots the shipped front end in-process (`serve_listener_sharded`, two
//! shards, loopback TCP), generates every input from `--seed`, runs four
//! sections — `curate`, `paper_maintain`, `flood_read`, `restart` — checks
//! every output against the system's own exactness oracles, prints every
//! metric by name and unit, and ends with one JSON line. The workload
//! named on the command line runs *its* section at the large shape for
//! the largest share of the time; the other three run as probes at the
//! small shape, so that every end-to-end metric is measured on every run.
//!
//! An untraced run is [`REPLICAS`] **replicas**: the program starts itself
//! that many times, one after another, each child doing everything above
//! on the same seed for its share of `--seconds`, and combines the
//! children's metrics ([`combine`]). Where the scheduler leaves the
//! server's threads is settled once per process and moves every latency of
//! that process by ±10 %; a mean over replicas is how a run averages that
//! out. With
//! `--trace 1` the same inputs are replayed down the layer ladder
//! ([`ladder`]) in one process and the per-layer metrics are printed
//! instead. See the README next to this file for the tables and the
//! reasoning.

#![forbid(unsafe_code)]

mod client;
mod curate;
mod flood;
mod gen;
mod ladder;
mod maintain;
mod restart;
mod sched;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::Server;
use gen::Shape;
use stats::{median, Summary};
use trace::Tracer;

/// Every end-to-end metric, with its unit: printed by a `--trace 0` run.
/// `BENCHMARK.json` lists the same names (a test compares the two).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("write_visible_p50_ms", "ms"),
    ("write_visible_p95_ms", "ms"),
    ("follower_visible_p50_ms", "ms"),
    ("read_p50_us", "us"),
    ("reads_per_s", "reads/s"),
    ("flood_ops_per_s", "ops/s"),
    ("maintain_updates_per_s", "updates/s"),
    ("mine_full_ms", "ms"),
    ("recover_ms", "ms"),
    ("catchup_records_per_s", "records/s"),
    ("promote_ms", "ms"),
    ("checkpoint_ms", "ms"),
];

/// Every per-layer metric, with its unit: printed by a `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("reactor.ping_rtt_p50_us", "us"),
    ("reactor.self_us_per_write", "us"),
    ("reactor.self_us_per_read", "us"),
    ("reactor.self_us_per_flood_op", "us"),
    ("reactor.read_p99_us", "us"),
    ("reactor.backpressure_stalls", "count"),
    ("reactor.shed_ops", "count"),
    ("protocol.self_us_per_write", "us"),
    ("protocol.self_us_per_read", "us"),
    ("protocol.name_cache_hit_ratio", "ratio"),
    ("protocol.reply_bytes_per_read", "bytes"),
    ("queue.coalesce_us_per_drain", "us"),
    ("queue.updates_per_drain", "updates"),
    ("queue.coalesced_share", "ratio"),
    ("queue.handoff_us_per_drain", "us"),
    ("wal.durable_overhead_us_per_drain", "us"),
    ("wal.append_us_per_record", "us"),
    ("wal.fsync_p50_us", "us"),
    ("wal.fsyncs_per_drain", "ratio"),
    ("wal.bytes_per_update", "bytes"),
    ("wal.auto_checkpoints", "count"),
    ("wal.checkpoint_encode_p50_ms", "ms"),
    ("wal.open_scan_ms", "ms"),
    ("wal.tail_poll_us", "us"),
    ("mine.maintain_us_per_drain", "us"),
    ("mine.case1_us_per_update", "us"),
    ("mine.case2_us_per_update", "us"),
    ("mine.case3_us_per_update", "us"),
    ("mine.delete_us_per_update", "us"),
    ("mine.full_ms", "ms"),
    ("mine.service_mine_overhead_ms", "ms"),
    ("mine.table_itemsets", "count"),
    ("mine.full_remines", "count"),
    ("discover.refresh_us_per_drain", "us"),
    ("discover.rebuild_ms", "ms"),
    ("discover.pairs_tracked", "count"),
    ("discover.query_ns", "ns"),
    ("snapshot.build_us_per_drain", "us"),
    ("store.segments_copied_per_drain", "count"),
    ("store.vocab_chunks_copied_per_drain", "count"),
    ("store.insert_us_per_row", "us"),
    ("query.rules_ns", "ns"),
    ("query.recommend_ns", "ns"),
    ("follower.catchup_call_p50_us", "us"),
    ("follower.replay_us_per_record", "us"),
    ("recovery.checkpoint_restore_ms", "ms"),
    ("recovery.tail_replay_ms", "ms"),
    ("recovery.checkpoint_bytes_per_tuple", "bytes"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// The four workloads; each names the section it runs at full scale. All
/// four can be run; [`Workload::GATED`] are the two `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Curate,
    PaperMaintain,
    FloodRead,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperMaintain,
        Workload::Restart,
        Workload::FloodRead,
        Workload::Curate,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order: the time the
    /// acceptance procedure allows buys two workloads at a run length that
    /// is steady in this sandbox, not four. These two share no busy layer
    /// (`mine`/`discover`/`snapshot` against `reactor`/`protocol`/`queue`/
    /// `wal`/`store`); the `curate` and `restart` sections still run, as
    /// probes, in both.
    pub const GATED: [Workload; 2] = [Workload::PaperMaintain, Workload::FloodRead];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Curate => "curate",
            Workload::PaperMaintain => "paper_maintain",
            Workload::FloodRead => "flood_read",
            Workload::Restart => "restart",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set on the children an untraced run starts: measure in this
    /// process, for all of `seconds`.
    pub replica: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let usage = "usage: annobench --workload <curate|paper_maintain|flood_read|restart> \
                 --seed <n> --seconds <s> --trace <0|1>";
    let mut args = Args {
        workload: Workload::Curate,
        seed: 1,
        seconds: 20.0,
        trace: false,
        replica: None,
    };
    let mut seen_workload = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload {value:?}\n{usage}"))?;
                seen_workload = true;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, got {value:?}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            // Not in the usage text: only the program itself passes it.
            "--replica" => {
                args.replica = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--replica takes a whole number, got {value:?}"))?,
                );
            }
            _ => return Err(format!("unknown argument {flag:?}\n{usage}")),
        }
    }
    if !seen_workload {
        return Err(format!("--workload is required\n{usage}"));
    }
    Ok(args)
}

/// Sizes of everything one process builds. [`Plan::full`] is what
/// `BENCHMARK.json` measures; tests use [`Plan::tiny`].
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Tuples of every mined relation. 8000 is the paper's own scale and
    /// the least at which the generated table shape is the same for every
    /// seed (see [`gen::generator_config`]).
    pub tuples: usize,
    /// Planted patterns: (the workload's own section, the probes).
    pub patterns: (usize, usize),
    /// Rows preloaded into the un-mined bulk tenant.
    pub bulk_rows: (usize, usize),
    /// Log records behind the checkpoint in the restart template.
    pub tail: (usize, usize),
    /// Timed `Dataset::mine()` calls.
    pub mines: (usize, usize),
}

impl Plan {
    pub fn full() -> Plan {
        Plan {
            tuples: 8000,
            patterns: (6, 4),
            bulk_rows: (40_000, 10_000),
            tail: (512, 128),
            mines: (2, 3),
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Plan {
        Plan {
            tuples: 500,
            patterns: (3, 2),
            bulk_rows: (2_000, 500),
            tail: (24, 8),
            mines: (2, 1),
        }
    }
}

/// Processes an untraced run measures in, one after another.
pub const REPLICAS: usize = 6;

/// Share of a process's time the workload's own section is timed for; the
/// three probes split the rest evenly (20 % each). A probe is gated by
/// the same bound as the own section, so it cannot be much shorter.
const NATIVE_SHARE: f64 = 0.4;

/// What one section of one run is sized to.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    shape: Shape,
    budget: Duration,
    native: bool,
}

impl Sizing {
    fn pick<T>(&self, (native, probe): (T, T)) -> T {
        if self.native {
            native
        } else {
            probe
        }
    }
}

fn sizing(args: &Args, plan: &Plan, section: Workload) -> Sizing {
    let native = args.workload == section;
    let share = if native {
        NATIVE_SHARE
    } else {
        (1.0 - NATIVE_SHARE) / 3.0
    };
    let mut sizing = Sizing {
        shape: Shape {
            tuples: plan.tuples,
            patterns: 0,
        },
        budget: Duration::from_secs_f64(args.seconds * share),
        native,
    };
    sizing.shape.patterns = sizing.pick(plan.patterns);
    sizing
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    value: f64,
    /// Sample count and anything else a reader needs to judge the value.
    detail: String,
}

/// Everything a run reports: metrics, operation counts, failed checks.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    /// Count one failed operation or check.
    pub fn fail(&mut self, why: String) {
        eprintln!("annobench: FAILED: {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    /// Count one output check; `why` describes the failure.
    pub fn check(&mut self, ok: bool, why: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(why.to_string());
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, detail: impl Into<String>) {
        let metric = Metric {
            value,
            detail: detail.into(),
        };
        if self.metrics.insert(name, metric).is_some() {
            self.fail(format!("metric {name} reported twice"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }
}

/// The fixtures of all four sections: what set-up builds.
struct Fixtures {
    curate: curate::Fixture,
    maintain: maintain::Fixture,
    flood: flood::Fixture,
    restart: restart::Fixture,
}

impl Fixtures {
    fn build(server: &Server, root: &Path, args: &Args, plan: &Plan) -> Result<Fixtures, String> {
        // Every dataset and directory of a set-up carries this tag.
        let tag = "0";
        let size = |section| sizing(args, plan, section);
        let flood = size(Workload::FloodRead);
        let restart = size(Workload::Restart);
        Ok(Fixtures {
            curate: curate::setup(server, root, args.seed, size(Workload::Curate).shape, tag)?,
            maintain: maintain::setup(
                args.seed ^ 0x1616,
                size(Workload::PaperMaintain).shape,
                tag,
            )?,
            flood: flood::setup(
                server,
                root,
                args.seed ^ 0xF1,
                flood.shape,
                flood.pick(plan.bulk_rows),
                tag,
            )?,
            restart: restart::setup(
                root,
                args.seed ^ 0x2E57,
                restart.shape,
                restart.pick(plan.tail),
                tag,
            )?,
        })
    }

    fn teardown(self, server: &Server) {
        curate::teardown(self.curate);
        flood::teardown(server, self.flood);
        drop((self.maintain, self.restart));
    }
}

/// `<target dir>/annobench`: data directories and trace files live under
/// the build's target directory, inside the checkout.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("annobench")
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Run everything; `Err` only for failures that leave nothing to report.
pub fn run_benchmark(args: &Args, plan: &Plan) -> Result<Report, String> {
    static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let out = output_dir();
    let root = out.join(format!(
        "run-{}-{}-{run}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;

    let mut report = Report::default();
    let result = run_sections(args, plan, &root, &out, &mut report);
    let _ = std::fs::remove_dir_all(&root);
    result.map(|()| report)
}

fn run_sections(
    args: &Args,
    plan: &Plan,
    root: &Path,
    out: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let size = |section| sizing(args, plan, section);

    // -- set-up: boot, then build every fixture ----------------------------
    let boot = Instant::now();
    let server = Server::boot()?;
    let mut fx = Fixtures::build(&server, root, args, plan)?;
    let setup_s = boot.elapsed().as_secs_f64();

    // -- timed sections ----------------------------------------------------
    let mut tracer = Tracer::new(args.trace);
    let mut untraced = Tracer::new(false);

    let curate_size = size(Workload::Curate);
    let pings = if args.trace {
        curate::ping_rtts_us(&mut fx.curate, 100)?
    } else {
        Vec::new()
    };
    let mut reference = curate::Samples::default();
    let mut curated = curate::Samples::default();
    let steps = if args.trace {
        // Same section twice: untraced for the reference, then traced.
        let half = curate_size.budget / 2;
        let mut steps = curate::run(&mut fx.curate, half, &mut untraced, report, &mut reference)?;
        steps.extend(curate::run(
            &mut fx.curate,
            half,
            &mut tracer,
            report,
            &mut curated,
        )?);
        steps
    } else {
        curate::run(
            &mut fx.curate,
            curate_size.budget,
            &mut tracer,
            report,
            &mut curated,
        )?
    };

    let flood_size = size(Workload::FloodRead);
    let mut flooded = flood::Samples::default();
    flood::run(
        &server,
        &mut fx.flood,
        flood_size.budget,
        &mut tracer,
        report,
        &mut flooded,
    )?;
    // Let a checkpoint still being written finish before the next clock starts.
    flood::settle(&server, &fx.flood)?;

    let maintain_size = size(Workload::PaperMaintain);
    let mut maintained = maintain::Samples::default();
    maintain::run(
        &mut fx.maintain,
        maintain_size.pick(plan.mines),
        maintain_size.budget,
        &mut tracer,
        report,
        &mut maintained,
    )?;

    let restart_size = size(Workload::Restart);
    let mut restarted = restart::Samples::default();
    restart::run(
        &mut fx.restart,
        restart_size.budget,
        3,
        &mut tracer,
        report,
        &mut restarted,
    )?;

    // -- output checks -------------------------------------------------------
    curate::finish(&server, &mut fx.curate, report)?;
    flood::finish(&server, &fx.flood, report)?;
    maintain::finish(&fx.maintain, report)?;

    // -- end-to-end metrics --------------------------------------------------
    // Ten samples beyond a reported tail, counted over the replicas whose
    // mean the run reports.
    let beyond = if args.replica.is_some() {
        stats::TAIL_MIN_BEYOND.div_ceil(REPLICAS)
    } else {
        stats::TAIL_MIN_BEYOND
    };
    let on_time_writes = curated.on_time(&curated.write_visible_ms);
    let write = Summary::with_beyond(&on_time_writes, 0.95, beyond);
    let follow = Summary::of(&curated.on_time(&curated.follower_visible_ms), 0.95);
    let hot_read = Summary::of(&flooded.read_us, 0.99);
    let late = &curated.lateness;
    report.put("setup_s", setup_s, "boot and every fixture");
    report.put(
        "write_visible_p50_ms",
        write.p50,
        format!(
            "n={} on-time steps of {} at {}/s; lateness median {:?}, max {:?}",
            write.n,
            curated.write_visible_ms.len(),
            curate::RATE,
            late.median(),
            late.max()
        ),
    );
    // The gated tail is the p95: every cell supports it and it moves with
    // the system. The p99 is printed beside it, but in this sandbox it
    // reports the host's stalls (see the README).
    let p99 = Summary::with_beyond(&on_time_writes, 0.99, beyond);
    report.put(
        "write_visible_p95_ms",
        write.tail,
        format!(
            "n={} p{:.1}; p{:.1} is {:.4} ms",
            write.n,
            write.tail_p * 100.0,
            p99.tail_p * 100.0,
            p99.tail
        ),
    );
    report.put(
        "follower_visible_p50_ms",
        follow.p50,
        format!("n={}", follow.n),
    );
    // One read round trip beside the flood. (The curate section's idle
    // read feeds the ladder's `reactor.self_us_per_read` instead: on an
    // idle VM its median sits at 0.45 or 0.7 ms depending on where the
    // scheduler happened to put the shard's thread for that run.)
    report.put(
        "read_p50_us",
        hot_read.p50,
        format!("n={} beside the flood", hot_read.n),
    );
    let flood_s = flooded.wall.as_secs_f64();
    let slices = flooded.ops_by_slice.len();
    report.put(
        "reads_per_s",
        flooded.sustained(&flooded.reads_by_slice, flooded.reads),
        format!(
            "second-slowest quarter of {slices} slices of {:?}; n={} reads in {flood_s:.2}s",
            flood::SLICE,
            flooded.reads
        ),
    );
    report.put(
        "flood_ops_per_s",
        flooded.sustained(&flooded.ops_by_slice, flooded.ops),
        format!(
            "second-slowest quarter of {slices} slices of {:?}; n={} ops in {flood_s:.2}s",
            flood::SLICE,
            flooded.ops
        ),
    );
    let maintain_s = maintained.elapsed().as_secs_f64();
    report.put(
        "maintain_updates_per_s",
        maintained.updates_per_s(),
        format!(
            "median of {} whole re-mine cycles; n={} updates in {} batches, {maintain_s:.2}s",
            maintained.cycles.len(),
            maintained.updates(),
            maintained.batches.len(),
        ),
    );
    report.put(
        "mine_full_ms",
        median(&maintained.mine_ms),
        format!("n={}", maintained.mine_ms.len()),
    );
    report.put(
        "recover_ms",
        median(&restarted.recover_ms),
        format!("n={}", restarted.recover_ms.len()),
    );
    let catchup_rates: Vec<f64> = restarted
        .catchup_records
        .iter()
        .zip(&restarted.catchup_s)
        .map(|(&records, &s)| records as f64 / s)
        .collect();
    report.put(
        "catchup_records_per_s",
        median(&catchup_rates),
        format!("n={}", catchup_rates.len()),
    );
    report.put(
        "promote_ms",
        median(&restarted.promote_ms),
        format!("n={}", restarted.promote_ms.len()),
    );
    report.put(
        "checkpoint_ms",
        median(&restarted.checkpoint_ms),
        format!("n={}", restarted.checkpoint_ms.len()),
    );

    // -- the traced pass: per-layer metrics ----------------------------------
    if args.trace {
        let counters = ladder::Counters::read(&server, &fx.flood)?;
        ladder::run(
            &ladder::Inputs {
                root,
                seed: args.seed,
                curate_shape: curate_size.shape,
                steps: &steps,
                pings_us: &pings,
                reference: &reference,
                curated: &curated,
                flooded: &flooded,
                flood: &fx.flood,
                maintained: &maintained,
                maintain_seed: args.seed ^ 0x1616,
                maintain_shape: maintain_size.shape,
                restarted: &restarted,
                restart: &fx.restart,
                counters,
            },
            &mut tracer,
            report,
        )?;
        let path = out.join(format!("trace-{}.jsonl", args.workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {} spans in {}", tracer.len(), path.display());
    }

    Fixtures::teardown(fx, &server);
    report.put("peak_rss_mb", peak_rss_mib()?, "VmHWM at exit");
    Ok(())
}

/// The value of `key` in a result line written by [`result_json`]: the
/// number under a metric's `"value"`, or a top-level scalar.
fn result_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let rest = rest.strip_prefix("{\"value\": ").unwrap_or(rest);
    Some(rest[..rest.find([',', '}'])?].trim())
}

/// Mean of `values` without the lowest and the highest (of all of them
/// when fewer than three).
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Mean of the lower half of `values` (the middle one included when their
/// number is odd).
fn lower_half_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[..v.len().div_ceil(2)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// What the replicas measured, combined into the run's report.
///
/// Means, because a replica's latencies sit on one of two levels (see the
/// module text) and the middle one of a few such values is still on one of
/// the two, where a mean is in between. A timing is the mean of the faster
/// half of the replicas: a stall or a slow spell of the sandbox only ever
/// adds to a timing, and every few runs one lasts longer than a replica's
/// whole section, so the faster half is the half they spared. A rate
/// (unit `…/s`) is moved both ways — down by stalls, up by the flood's
/// spells of large, cheap drains — so it is the mean of the replicas
/// between the lowest and the highest. Set-up time is the median, the
/// memory high-water mark the largest.
fn combine(replicas: &[String], report: &mut Report) -> Result<(), String> {
    for (name, unit) in END_TO_END {
        let values = replicas
            .iter()
            .map(|line| result_field(line, name).and_then(|v| v.parse::<f64>().ok()))
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| format!("a replica did not report {name}"))?;
        let (value, how) = match *name {
            "setup_s" => (median(&values), "median"),
            "peak_rss_mb" => (values.iter().copied().fold(f64::MIN, f64::max), "largest"),
            _ if unit.ends_with("/s") => (trimmed_mean(&values), "trimmed mean"),
            _ => (lower_half_mean(&values), "mean of the faster half"),
        };
        let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        report.put(
            name,
            value,
            format!("{how} of {} replicas: {}", values.len(), each.join(" ")),
        );
    }
    for line in replicas {
        let count = |key| result_field(line, key).and_then(|v| v.parse::<u64>().ok());
        report.attempted += count("attempted").ok_or("a replica reported no `attempted`")?;
        // `correct` is `failed == 0`, in a replica's line as in the run's.
        report.failed += count("failed").ok_or("a replica reported no `failed`")?;
    }
    Ok(())
}

/// An untraced run: start this program [`REPLICAS`] times, one child at a
/// time, each measuring for its share of `--seconds`; pass on what they
/// print and combine their result lines. Every child has ended when this
/// returns.
fn run_replicas(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut lines = Vec::with_capacity(REPLICAS);
    for replica in 0..REPLICAS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / REPLICAS as f64).to_string()])
            .args(["--trace", "0", "--replica", &replica.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start replica {replica}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let mut printed: Vec<&str> = stdout.lines().collect();
        let result = printed.pop().filter(|line| line.starts_with('{'));
        for line in printed {
            println!("replica {replica}: {line}");
        }
        // A replica that failed a check still has a result line; one that
        // could not run at all leaves nothing to report.
        lines.push(
            result
                .ok_or_else(|| {
                    format!(
                        "replica {replica} ended ({}) without a result",
                        child.status
                    )
                })?
                .to_string(),
        );
    }
    let mut report = Report::default();
    combine(&lines, &mut report)?;
    Ok(report)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(report: &Report, wanted: &[(&str, &str)]) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = report
            .get(name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} has no finite value"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

/// Every metric by name, value and unit, one per line.
fn print_table(report: &Report, wanted: &[(&str, &str)]) {
    for (name, unit) in wanted {
        match report.metrics.get(name) {
            Some(m) => println!("{name:<40} {:>16.4} {unit:<10} {}", m.value, m.detail),
            None => println!("{name:<40} {:>16} {unit:<10}", "missing"),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("annobench: {e}");
            return ExitCode::from(2);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "annobench workload={} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let run = if args.trace || args.replica.is_some() {
        run_benchmark(&args, &Plan::full())
    } else {
        run_replicas(&args)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => {
            eprintln!("annobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&report, wanted);
    match result_json(&report, wanted) {
        Ok(json) => {
            println!("{json}");
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("annobench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
