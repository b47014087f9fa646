//! The traced pass: the same generated inputs, replayed down a ladder of
//! ever-lower entry points, so that each layer's share is one rung minus
//! the next.
//!
//! ```text
//! rung S  socket          annotate+flush through the front end (the curate section)
//! rung E  engine          Engine::execute_typed on the same lines, durable twin
//! rung D  dataset/durable Dataset::enqueue+flush of the pre-parsed op, durable twin
//! rung M  dataset/memory  the same on a memory twin (no WAL)
//! rung L  library         coalesce → IncrementalMiner → DiscoveryIndex::refresh →
//!                         RuleSnapshot::build, called directly on a bare relation
//! ```
//!
//! S − E is what the reactor and the socket add (park, wake-ups, copies),
//! E − D protocol parsing and reply rendering, D − M the WAL (encode,
//! append, sync wait), M − L the queue hand-off (thread wake, locks), and
//! L splits into its direct calls. The four lower rungs replay each step
//! back to back on their own twins of the curate leader. Spans are
//! recorded around each of those public calls by this file; the program
//! itself has none yet.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anno_discover::DiscoveryIndex;
use anno_mine::IncrementalMiner;
use anno_service::dataset::DISCOVERY_TOPK_CAP;
use anno_service::query::top_k_for_tuple;
use anno_service::queue::coalesce;
use anno_service::{Dataset, Engine, RuleFilter, RuleSnapshot, Service, UpdateOp};
use anno_store::{parse_tuple_line, AnnotatedRelation, AnnotationUpdate, ItemKind, Tuple, TupleId};
use anno_wal::{SyncPolicy, TailCursor, Wal, WalOptions};

use crate::client::Server;
use crate::curate::{load_rows, served};
use crate::gen::{maintain_hold_back, Case, Corpus, FloodGen, ReadOp, Shape, Step, ALPHA, BETA};
use crate::maintain::mining_config;
use crate::restart::copy_dir;
use crate::stats::{as_ms, as_us, median, Summary};
use crate::trace::{Tracer, NO_SPAN};
use crate::{curate, flood, maintain, restart, Report};

/// Bulk ops replayed through the engine for the flood rung.
const FLOOD_REPLAY_OPS: u64 = 60_000;

/// A lower rung may exceed the one above it by this share (plus 20 µs)
/// before the ladder is declared inconsistent: the rungs run one after
/// another, so they see different moments of the same noisy machine.
const RUNG_SLACK: f64 = 0.25;

/// Counters read from the serving registry before its tenants are dropped.
pub struct Counters {
    name_cache_hits: u64,
    name_cache_misses: u64,
    checkpoint_encode_p50_ns: u64,
}

impl Counters {
    pub fn read(server: &Server, flood: &flood::Fixture) -> Result<Counters, String> {
        let bulk = served(server, &flood.bulk)?;
        bulk.quiesce_maintenance();
        let reads = served(server, &flood.fg)?.metrics();
        Ok(Counters {
            name_cache_hits: reads.name_cache_hits,
            name_cache_misses: reads.name_cache_misses,
            checkpoint_encode_p50_ns: bulk.observability().checkpoint_encode.quantile(0.5),
        })
    }
}

pub struct Inputs<'a> {
    pub root: &'a Path,
    pub seed: u64,
    pub curate_shape: Shape,
    /// Every step the curate section sent since its load, in order.
    pub steps: &'a [Step],
    pub pings_us: &'a [f64],
    /// The untraced and the traced halves of the curate section.
    pub reference: &'a curate::Samples,
    pub curated: &'a curate::Samples,
    pub flooded: &'a flood::Samples,
    pub flood: &'a flood::Fixture,
    pub maintained: &'a maintain::Samples,
    pub maintain_seed: u64,
    pub maintain_shape: Shape,
    pub restarted: &'a restart::Samples,
    pub restart: &'a restart::Fixture,
    pub counters: Counters,
}

fn svc(e: anno_service::ServiceError) -> String {
    format!("ladder: {e}")
}

/// Run `line` through the engine; anything but an `OK` reply is an error.
fn execute(engine: &Engine, line: &str) -> Result<(), String> {
    let (reply, _) = engine.execute_typed(line.trim_end());
    match reply.lines.first() {
        Some(first) if first.starts_with("OK") => Ok(()),
        other => Err(format!("ladder: {line:?} answered {other:?}")),
    }
}

/// A relation and miner with nothing around them: rung L's state.
struct Bare {
    relation: AnnotatedRelation,
    miner: IncrementalMiner,
    load: Duration,
    mine: Duration,
}

impl Bare {
    fn new(rows: &[String]) -> Result<Bare, String> {
        let mut relation = AnnotatedRelation::new("bare");
        let t = Instant::now();
        for row in rows {
            let tuple = parse_tuple_line(relation.vocab_mut(), row)
                .ok_or_else(|| format!("ladder: generated row {row:?} has no items"))?;
            relation.insert(tuple);
        }
        let load = t.elapsed();
        let t = Instant::now();
        let miner = IncrementalMiner::mine_initial(&relation, mining_config());
        Ok(Bare {
            relation,
            miner,
            load,
            mine: t.elapsed(),
        })
    }

    /// Apply one batch through the miner, as the writer's `apply_op`
    /// does; returns the time inside the miner call alone (row parsing
    /// and name resolution are `store`/`protocol` work).
    fn apply(&mut self, op: UpdateOp) -> Duration {
        let (rel, miner) = (&mut self.relation, &mut self.miner);
        let resolve = |rel: &mut AnnotatedRelation, named: Vec<(TupleId, String)>, intern: bool| {
            named
                .into_iter()
                .filter_map(|(tuple, name)| {
                    let known = rel.vocab().get(ItemKind::Annotation, &name);
                    let annotation = match known {
                        Some(a) => a,
                        None if intern => rel.vocab_mut().annotation(&name),
                        None => return None,
                    };
                    Some(AnnotationUpdate { tuple, annotation })
                })
                .collect::<Vec<_>>()
        };
        match op {
            UpdateOp::InsertRows(lines) => {
                let tuples: Vec<Tuple> = lines
                    .iter()
                    .filter_map(|l| parse_tuple_line(rel.vocab_mut(), l))
                    .collect();
                let bare = tuples.iter().all(Tuple::is_unannotated);
                let t = Instant::now();
                if bare {
                    miner.add_unannotated_tuples(rel, tuples);
                } else {
                    miner.add_annotated_tuples(rel, tuples);
                }
                t.elapsed()
            }
            UpdateOp::AnnotateNamed(named) => {
                let updates = resolve(rel, named, true);
                let t = Instant::now();
                miner.apply_annotations(rel, updates);
                t.elapsed()
            }
            UpdateOp::RemoveNamed(named) => {
                let updates = resolve(rel, named, false);
                let t = Instant::now();
                miner.remove_annotations(rel, &updates);
                t.elapsed()
            }
            UpdateOp::DeleteTuples(tids) => {
                let t = Instant::now();
                miner.delete_tuples(rel, &tids);
                t.elapsed()
            }
            // The generators emit only the four kinds above.
            UpdateOp::InsertTuples(_) | UpdateOp::Annotate(_) | UpdateOp::RemoveAnnotations(_) => {
                Duration::ZERO
            }
        }
    }
}

/// p50 of each rung of the write ladder, µs.
struct WriteLadder {
    socket: f64,
    engine: f64,
    durable: f64,
    memory: f64,
    library: f64,
}

pub fn run(inp: &Inputs, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let root = inp.root.join("ladder");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let service = Arc::new(Service::new());
    let engine = Engine::new(Arc::clone(&service));

    write_and_read_ladder(inp, &root, &service, &engine, tracer, report)?;
    maintain_ladder(inp, report)?;
    flood_ladder(inp, &root, &service, &engine, tracer, report)?;
    restart_ladder(inp, &root, report)?;

    for name in ["tw_e", "tw_d", "tw_m", "bulk2"] {
        let _ = service.remove(name);
    }
    Ok(())
}

fn write_and_read_ladder(
    inp: &Inputs,
    root: &Path,
    service: &Arc<Service>,
    engine: &Engine,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let rows = Corpus::new(inp.seed, inp.curate_shape, 0).rows();
    let steps = inp.steps;
    let p50 = |v: &[f64]| Summary::of(v, 0.99).p50;

    // Three served twins of the curate leader, in its post-load state.
    for name in ["tw_e", "tw_d"] {
        let dir = root.join(name);
        execute(
            engine,
            &format!("open {name} {ALPHA} {BETA} dir {}", dir.display()),
        )?;
    }
    execute(engine, &format!("open tw_m {ALPHA} {BETA}"))?;
    for name in ["tw_e", "tw_d", "tw_m"] {
        load_rows(service.get(name).map_err(svc)?.as_ref(), &rows)?;
        execute(engine, &format!("mine {name}"))?;
    }
    let syncs_before = service.committer_stats().map_or(0, |s| s.syncs);

    // All four lower rungs replay each step back to back, so every rung
    // sees the same moment of a machine whose speed drifts by the second.
    let durable = service.get("tw_d").map_err(svc)?;
    let memory = service.get("tw_m").map_err(svc)?;
    // Rung D also feeds a tail cursor and an in-process follower.
    let follower = Dataset::follow(
        "tw_f",
        mining_config(),
        &root.join("tw_d"),
        Duration::from_secs(3600),
    )
    .map_err(svc)?;
    follower.catchup_now().map_err(svc)?;
    let mut cursor = TailCursor::new(root.join("tw_d"));
    cursor
        .poll()
        .map_err(|e| format!("ladder: tail poll: {e}"))?;
    // Rung L's state: a bare relation, miner and discovery index.
    let mut bare = Bare::new(&rows)?;
    let mut index = DiscoveryIndex::rebuilt_from(bare.miner.table());
    bare.miner.take_touches();
    let mut published = None;

    let n = steps.len();
    let (mut engine_write_us, mut durable_us, mut memory_us, mut library_us) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let (mut poll_us, mut catchup_us) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut coalesce_us, mut mine_us, mut refresh_us, mut build_us) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let logged_before = durable.wal_stats().unwrap_or_default();
    let mut line = String::new();
    for (i, step) in steps.iter().enumerate() {
        let op = i as u64;

        // Rung E: the same lines, minus the socket.
        line.clear();
        step.write.line_into("tw_e", &mut line);
        let t = Instant::now();
        execute(engine, &line)?;
        execute(engine, "flush tw_e")?;
        let end = Instant::now();
        tracer.span("engine.write_flush", NO_SPAN, op, t, end);
        engine_write_us.push(as_us(end - t));

        // Rung D: the pre-parsed op, minus the protocol; then what one
        // shipped record costs a tail cursor and a follower.
        let t = Instant::now();
        durable.enqueue(step.write.to_update()).map_err(svc)?;
        durable.flush().map_err(svc)?;
        let flushed = Instant::now();
        let polled = cursor
            .poll()
            .map_err(|e| format!("ladder: tail poll: {e}"))?;
        let read = Instant::now();
        let status = follower.catchup_now().map_err(svc)?;
        let caught = Instant::now();
        report.check(
            polled.records.len() == 1 && status.bytes_behind == 0,
            &format!(
                "ladder: step {i} shipped {} records, follower {} bytes behind",
                polled.records.len(),
                status.bytes_behind
            ),
        );
        tracer.span("dataset.enqueue_flush.durable", NO_SPAN, op, t, flushed);
        tracer.span("wal.tail_poll", NO_SPAN, op, flushed, read);
        tracer.span("dataset.catchup_now", NO_SPAN, op, read, caught);
        durable_us.push(as_us(flushed - t));
        poll_us.push(as_us(read - flushed));
        catchup_us.push(as_us(caught - read));

        // Rung M: the same, minus the WAL.
        let t = Instant::now();
        memory.enqueue(step.write.to_update()).map_err(svc)?;
        memory.flush().map_err(svc)?;
        let end = Instant::now();
        tracer.span("dataset.enqueue_flush.memory", NO_SPAN, op, t, end);
        memory_us.push(as_us(end - t));

        // Rung L: the library calls a drain makes, one by one.
        let t0 = Instant::now();
        let (batches, _) = coalesce(vec![step.write.to_update()]);
        let t1 = Instant::now();
        let mined: Duration = batches.into_iter().map(|b| bare.apply(b)).sum();
        let t2 = Instant::now();
        let touches = bare.miner.take_touches();
        if !touches.is_empty() {
            index.refresh(bare.miner.table(), &touches);
        }
        let t3 = Instant::now();
        let snapshot = RuleSnapshot::build("bare", op, &bare.relation, &bare.miner);
        let discovery = index.snapshot(
            op,
            bare.relation.len() as u64,
            DISCOVERY_TOPK_CAP,
            bare.relation.vocab(),
        );
        let t4 = Instant::now();
        published = Some((snapshot, discovery));
        let parent = tracer.span("library.drain", NO_SPAN, op, t0, t4);
        tracer.span("queue.coalesce", parent, op, t0, t1);
        tracer.span("mine.maintain", parent, op, t1, t2);
        tracer.span("discover.refresh", parent, op, t2, t3);
        tracer.span("snapshot.build", parent, op, t3, t4);
        coalesce_us.push(as_us(t1 - t0));
        mine_us.push(as_us(mined));
        refresh_us.push(as_us(t3 - t2));
        build_us.push(as_us(t4 - t3));
        library_us.push(as_us(t4 - t0));
    }
    drop(follower);
    let syncs = service.committer_stats().map_or(0, |s| s.syncs) - syncs_before;
    let fsyncs_per_drain = syncs as f64 / (2 * n).max(1) as f64;
    let logged = durable.wal_stats().unwrap_or_default();
    let record_bytes = (logged.appended_bytes - logged_before.appended_bytes)
        / (logged.appends - logged_before.appends).max(1);
    for (name, ds) in [("tw_d", &durable), ("tw_m", &memory)] {
        report.check(
            ds.verify().map_err(svc)?,
            &format!("ladder: twin {name} failed verify"),
        );
    }
    report.check(
        bare.miner.verify_against_remine(&bare.relation)
            && index.verify_against_rescan(bare.miner.table()),
        "ladder: the bare replay failed its own exactness oracles",
    );

    // Engine reads, against the twin's final state.
    let mut engine_read_us = Vec::with_capacity(n);
    for (i, step) in steps.iter().enumerate() {
        let line = step.read.line("tw_e");
        let t = Instant::now();
        execute(engine, &line)?;
        let end = Instant::now();
        tracer.span("engine.read", NO_SPAN, i as u64, t, end);
        engine_read_us.push(as_us(end - t));
    }

    // Direct reads against the bare replay's final snapshot.
    let (snapshot, discovery) = published.ok_or("ladder: no steps to replay")?;
    let (mut rules_ns, mut recommend_ns, mut discover_ns) = (Vec::new(), Vec::new(), Vec::new());
    for step in steps {
        match &step.read {
            ReadOp::Rules { item } => {
                let antecedent = snapshot
                    .relation()
                    .vocab()
                    .get(ItemKind::Data, item)
                    .into_iter()
                    .collect();
                let filter = RuleFilter {
                    antecedent,
                    top: Some(5),
                    ..RuleFilter::default()
                };
                let t = Instant::now();
                black_box(filter.apply(black_box(&snapshot)));
                rules_ns.push(t.elapsed().as_nanos() as f64);
            }
            ReadOp::Recommend { tid } => {
                let t = Instant::now();
                black_box(top_k_for_tuple(black_box(&snapshot), TupleId(*tid), 10));
                recommend_ns.push(t.elapsed().as_nanos() as f64);
            }
            ReadOp::Discover => {
                let t = Instant::now();
                black_box(black_box(&discovery).query(10, 0.0, false));
                discover_ns.push(t.elapsed().as_nanos() as f64);
            }
        }
    }
    let direct_read_us = median(
        &[
            median(&rules_ns),
            median(&recommend_ns),
            median(&discover_ns),
        ]
        .map(|ns| ns / 1e3),
    );

    // A direct, unsynced append of a record as large as the twin logged.
    let append_dir = root.join("append");
    let (mut wal, _) = Wal::open(
        &append_dir,
        WalOptions {
            sync: SyncPolicy::Never,
            ..WalOptions::default()
        },
    )
    .map_err(|e| format!("ladder: open append log: {e}"))?;
    let payload = vec![0xA5u8; record_bytes as usize];
    const APPENDS: u32 = 2000;
    let t = Instant::now();
    for _ in 0..APPENDS {
        wal.append(&payload)
            .map_err(|e| format!("ladder: append: {e}"))?;
    }
    let append_us = as_us(t.elapsed()) / f64::from(APPENDS);
    drop(wal);

    // The ladder itself.
    let socket_write: Vec<f64> = [inp.reference, inp.curated]
        .iter()
        .flat_map(|s| s.write_rtt_us.iter().copied())
        .collect();
    let ladder = WriteLadder {
        socket: p50(&socket_write),
        engine: p50(&engine_write_us),
        durable: p50(&durable_us),
        memory: p50(&memory_us),
        library: p50(&library_us),
    };
    println!(
        "layer ladder, one curate write (annotate+flush), p50 of {} steps:",
        steps.len()
    );
    let rungs = [
        ("S socket", ladder.socket, "reactor"),
        ("E engine", ladder.engine, "protocol"),
        ("D dataset, durable", ladder.durable, "wal"),
        ("M dataset, memory", ladder.memory, "queue"),
        ("L library calls", ladder.library, "mine+discover+snapshot"),
    ];
    for (i, (name, us, owner)) in rungs.iter().enumerate() {
        let self_us = rungs.get(i + 1).map_or(*us, |below| us - below.1);
        println!("  {name:<22} {us:>10.1} us   self {self_us:>9.1} us  ({owner})");
    }
    for pair in rungs.windows(2) {
        let (above, below) = (&pair[0], &pair[1]);
        report.check(
            below.1 <= above.1 * (1.0 + RUNG_SLACK) + 20.0,
            &format!(
                "ladder: rung {:?} ({:.1} us) is above rung {:?} ({:.1} us)",
                below.0, below.1, above.0, above.1
            ),
        );
    }

    let idle_read = p50(&inp.curated.read_us);
    let engine_read = p50(&engine_read_us);
    let fsync_p50_us = service.fsync_latency().quantile(0.5) as f64 / 1e3;
    report.put(
        "reactor.ping_rtt_p50_us",
        p50(inp.pings_us),
        format!("n={} idle", inp.pings_us.len()),
    );
    report.put(
        "reactor.self_us_per_write",
        ladder.socket - ladder.engine,
        "rung S - rung E",
    );
    report.put(
        "reactor.self_us_per_read",
        idle_read - engine_read,
        "socket idle read p50 - engine read p50",
    );
    report.put(
        "protocol.self_us_per_write",
        ladder.engine - ladder.durable,
        "rung E - rung D",
    );
    report.put(
        "protocol.self_us_per_read",
        engine_read - direct_read_us,
        "engine read p50 - direct query call",
    );
    report.put(
        "queue.handoff_us_per_drain",
        ladder.memory - ladder.library,
        "rung M - rung L",
    );
    report.put(
        "wal.durable_overhead_us_per_drain",
        ladder.durable - ladder.memory,
        "rung D - rung M",
    );
    report.put(
        "wal.append_us_per_record",
        append_us,
        format!("n={APPENDS} unsynced appends of {record_bytes} bytes"),
    );
    report.put(
        "wal.fsync_p50_us",
        fsync_p50_us,
        format!("group committer histogram, n={syncs}"),
    );
    report.put(
        "wal.tail_poll_us",
        p50(&poll_us),
        format!("n={}", poll_us.len()),
    );
    report.put(
        "mine.maintain_us_per_drain",
        p50(&mine_us),
        format!("n={} single-update drains", mine_us.len()),
    );
    report.put(
        "mine.table_itemsets",
        bare.miner.table().len() as f64,
        "itemsets retained",
    );
    report.put(
        "discover.refresh_us_per_drain",
        p50(&refresh_us),
        format!("n={}", refresh_us.len()),
    );
    report.put(
        "discover.pairs_tracked",
        index.pairs_tracked() as f64,
        "annotation pairs mirrored",
    );
    report.put(
        "discover.query_ns",
        median(&discover_ns),
        format!("n={}", discover_ns.len()),
    );
    report.put(
        "snapshot.build_us_per_drain",
        p50(&build_us),
        format!("n={} RuleSnapshot::build + discovery top-k", build_us.len()),
    );
    report.put(
        "store.insert_us_per_row",
        as_us(bare.load) / rows.len().max(1) as f64,
        format!("n={} parse + insert", rows.len()),
    );
    report.put(
        "query.rules_ns",
        median(&rules_ns),
        format!("n={}", rules_ns.len()),
    );
    report.put(
        "query.recommend_ns",
        median(&recommend_ns),
        format!("n={}", recommend_ns.len()),
    );
    report.put(
        "follower.catchup_call_p50_us",
        p50(&catchup_us),
        format!("n={}", catchup_us.len()),
    );
    report.put(
        "follower.replay_us_per_record",
        p50(&catchup_us) - p50(&poll_us),
        "catchup_now p50 - tail poll p50",
    );

    // Work some layer demonstrably did, against the whole trip; the rest
    // is waiting that no layer owns (park, wake-ups, the sync window).
    let busy_us = (ladder.engine - ladder.durable).max(0.0)
        + p50(&coalesce_us)
        + append_us
        + fsync_p50_us * fsyncs_per_drain
        + p50(&mine_us)
        + p50(&refresh_us)
        + p50(&build_us);
    let traced = Summary::of(&inp.curated.write_visible_ms, 0.99).p50;
    let untraced = Summary::of(&inp.reference.write_visible_ms, 0.99).p50;
    report.put(
        "trace.unattributed_share",
        1.0 - busy_us / (traced * 1e3),
        format!(
            "busy {busy_us:.1} us of a {:.1} us write-visible p50",
            traced * 1e3
        ),
    );
    report.put(
        "trace.overhead_share",
        (traced - untraced) / untraced,
        format!("write-visible p50 traced {traced:.4} ms vs untraced {untraced:.4} ms"),
    );
    Ok(())
}

fn maintain_ladder(inp: &Inputs, report: &mut Report) -> Result<(), String> {
    let shape = inp.maintain_shape;
    let rows = Corpus::new(inp.maintain_seed, shape, maintain_hold_back(shape)).rows();
    let mut mines_ms = Vec::new();
    let mut rebuilds_ms = Vec::new();
    let mut bare = Bare::new(&rows)?;
    for _ in 0..3 {
        mines_ms.push(as_ms(bare.mine));
        let t = Instant::now();
        black_box(DiscoveryIndex::rebuilt_from(bare.miner.table()));
        rebuilds_ms.push(as_ms(t.elapsed()));
        if mines_ms.len() < 3 {
            let t = Instant::now();
            bare.miner = IncrementalMiner::mine_initial(&bare.relation, mining_config());
            bare.mine = t.elapsed();
        }
    }
    bare.miner.take_touches();

    // (time, updates) per §4.3 case, over the batches the section applied.
    let mut by_case = [(Duration::ZERO, 0usize); 4];
    for (case, op) in &inp.maintained.replay {
        let slot = match case {
            Case::AnnotatedTuples => 0,
            Case::BareTuples => 1,
            Case::Annotations => 2,
            Case::Deletion => 3,
        };
        by_case[slot].1 += op.len();
        by_case[slot].0 += bare.apply(op.clone());
    }
    report.check(
        bare.miner.verify_against_remine(&bare.relation),
        "ladder: the bare maintenance replay diverged from a re-mine",
    );
    let names = [
        "mine.case1_us_per_update",
        "mine.case2_us_per_update",
        "mine.case3_us_per_update",
        "mine.delete_us_per_update",
    ];
    let mut mine_s = 0.0;
    for (name, (time, updates)) in names.into_iter().zip(by_case) {
        mine_s += time.as_secs_f64();
        report.put(
            name,
            as_us(time) / updates.max(1) as f64,
            format!("n={updates} updates, direct miner calls"),
        );
    }
    let section_s = inp.maintained.elapsed().as_secs_f64();
    println!(
        "paper_maintain: direct miner calls account for {:.0}% of the section's {section_s:.2}s",
        100.0 * mine_s / section_s
    );
    let drains = inp.maintained.batches.len().max(1) as f64;
    report.put(
        "mine.full_ms",
        median(&mines_ms),
        "n=3 IncrementalMiner::mine_initial",
    );
    report.put(
        "mine.service_mine_overhead_ms",
        median(&inp.maintained.mine_ms) - median(&mines_ms),
        "Dataset::mine() p50 - mine_initial p50",
    );
    report.put(
        "mine.full_remines",
        inp.maintained.fallback_remines as f64,
        "budget fallbacks during the maintenance loop",
    );
    report.put(
        "discover.rebuild_ms",
        median(&rebuilds_ms),
        "n=3 DiscoveryIndex::rebuilt_from",
    );
    report.put(
        "store.segments_copied_per_drain",
        inp.maintained.segments_copied as f64 / drains,
        format!("n={drains} drains"),
    );
    report.put(
        "store.vocab_chunks_copied_per_drain",
        inp.maintained.vocab_chunks_copied as f64 / drains,
        format!("n={drains} drains"),
    );
    Ok(())
}

fn flood_ladder(
    inp: &Inputs,
    root: &Path,
    service: &Arc<Service>,
    engine: &Engine,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let (fx, flooded) = (inp.flood, inp.flooded);
    let counters = flooded.counters;

    // The flood's own ops through the engine, no socket and no reader.
    execute(
        engine,
        &format!(
            "open bulk2 {ALPHA} {BETA} dir {} auto_checkpoint bytes={}",
            root.join("bulk2").display(),
            flood::AUTO_CHECKPOINT_BYTES
        ),
    )?;
    load_rows(
        service.get("bulk2").map_err(svc)?.as_ref(),
        &Corpus::new(fx.seed ^ 0xB01C, fx.shape, 0).rows(),
    )?;
    let mut ops = FloodGen::new(fx.seed, fx.shape, fx.preload);
    let n = flooded.ops.clamp(1, FLOOD_REPLAY_OPS);
    let mut line = String::new();
    let t = Instant::now();
    for _ in 0..n {
        line.clear();
        ops.next_op().line_into("bulk2", &mut line);
        execute(engine, &line)?;
    }
    execute(engine, "flush bulk2")?;
    let end = Instant::now();
    tracer.span("engine.flood_replay", NO_SPAN, n, t, end);
    let engine_us_per_op = as_us(end - t) / n as f64;
    let socket_us_per_op = as_us(flooded.wall) / flooded.ops.max(1) as f64;

    // Coalescing a drain's worth of the same ops, directly.
    let updates_per_drain = counters.updates as f64 / counters.drains.max(1) as f64;
    let per_drain = (updates_per_drain.round() as usize).max(1);
    const DRAINS: usize = 200;
    let mut pending: Vec<Vec<UpdateOp>> = (0..DRAINS)
        .map(|_| (0..per_drain).map(|_| ops.next_op().to_update()).collect())
        .collect();
    let t = Instant::now();
    for drain in pending.drain(..) {
        black_box(coalesce(black_box(drain)));
    }
    let coalesce_us = as_us(t.elapsed()) / DRAINS as f64;

    let hot = Summary::of(&flooded.read_us, 0.99);
    let lookups = inp.counters.name_cache_hits + inp.counters.name_cache_misses;
    report.put(
        "reactor.self_us_per_flood_op",
        socket_us_per_op - engine_us_per_op,
        format!("socket {socket_us_per_op:.2} us/op - engine replay {engine_us_per_op:.2} us/op (n={n})"),
    );
    report.put(
        "reactor.read_p99_us",
        hot.tail,
        format!("n={} p{:.1} beside the flood", hot.n, hot.tail_p * 100.0),
    );
    report.put(
        "reactor.backpressure_stalls",
        counters.backpressure_stalls as f64,
        "read suspensions of the loader",
    );
    report.put(
        "reactor.shed_ops",
        counters.shed_ops as f64,
        "writes refused",
    );
    report.put(
        "protocol.name_cache_hit_ratio",
        inp.counters.name_cache_hits as f64 / lookups.max(1) as f64,
        format!("n={lookups} name resolutions on fg"),
    );
    report.put(
        "protocol.reply_bytes_per_read",
        flooded.reply_bytes as f64 / flooded.reads.max(1) as f64,
        format!("n={} reads", flooded.reads),
    );
    report.put(
        "queue.coalesce_us_per_drain",
        coalesce_us,
        format!("n={DRAINS} drains of {per_drain} ops"),
    );
    report.put(
        "queue.updates_per_drain",
        updates_per_drain,
        format!("n={} drains", counters.drains),
    );
    report.put(
        "queue.coalesced_share",
        counters.ops_coalesced as f64 / counters.ops_enqueued.max(1) as f64,
        format!("n={} ops", counters.ops_enqueued),
    );
    report.put(
        "wal.fsyncs_per_drain",
        (counters.committer_syncs + counters.own_fsyncs) as f64 / counters.drains.max(1) as f64,
        format!(
            "{} committer + {} own fsyncs over {} drains",
            counters.committer_syncs, counters.own_fsyncs, counters.drains
        ),
    );
    report.put(
        "wal.bytes_per_update",
        counters.appended_bytes as f64 / counters.updates.max(1) as f64,
        format!("{} log bytes", counters.appended_bytes),
    );
    report.put(
        "wal.auto_checkpoints",
        counters.auto_checkpoints as f64,
        "during the flood",
    );
    report.put(
        "wal.checkpoint_encode_p50_ms",
        inp.counters.checkpoint_encode_p50_ns as f64 / 1e6,
        "bulk tenant's encode histogram",
    );
    Ok(())
}

fn restart_ladder(inp: &Inputs, root: &Path, report: &mut Report) -> Result<(), String> {
    let fx = inp.restart;
    let (mut scans_ms, mut restores_ms) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let dir = root.join("scan");
        copy_dir(&fx.template, &dir)?;
        let t = Instant::now();
        let opened = Wal::open(&dir, WalOptions::default())
            .map_err(|e| format!("ladder: open scan: {e}"))?;
        scans_ms.push(as_ms(t.elapsed()));
        report.check(
            opened.1.tail.len() == fx.tail,
            &format!(
                "ladder: log scan found {} tail records",
                opened.1.tail.len()
            ),
        );
        drop(opened);

        let dir = root.join("restore");
        copy_dir(&fx.checkpoint_only, &dir)?;
        let t = Instant::now();
        let ds = Dataset::open("rst", mining_config(), &dir).map_err(svc)?;
        ds.snapshot().map_err(svc)?;
        restores_ms.push(as_ms(t.elapsed()));
        drop(ds);
    }
    let restore = median(&restores_ms);
    report.put(
        "wal.open_scan_ms",
        median(&scans_ms),
        "n=3 Wal::open of the template",
    );
    report.put(
        "recovery.checkpoint_restore_ms",
        restore,
        "n=3 Dataset::open of the checkpoint-only copy",
    );
    report.put(
        "recovery.tail_replay_ms",
        median(&inp.restarted.recover_ms) - restore,
        format!("recover_ms - restore, {} records", fx.tail),
    );
    report.put(
        "recovery.checkpoint_bytes_per_tuple",
        fx.checkpoint_bytes as f64 / fx.tuples.max(1) as f64,
        format!("{} payload bytes", fx.checkpoint_bytes),
    );
    Ok(())
}
