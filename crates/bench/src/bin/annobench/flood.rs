//! The `flood_read` section: reads beside a saturating bulk write flood.
//!
//! Two tenants behind the front end. `fg` is mined and in memory; one
//! connection reads it in a closed loop with think time, cycling the
//! three query verbs.
//! `bulk` is durable, **un-mined**, `class bulk`, with automatic
//! checkpoints; a second connection pipelines generated writes at it in
//! windows of [`WINDOW`] — nine annotation toggles to one fresh row, every
//! op effective — until the budget elapses, then `flush`es. The two
//! connections sit on different shards, so on two cores `reactor`,
//! `protocol`, `queue`, `wal` and `store` are saturated while `mine` does
//! nothing at all.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::client::{Client, Server};
use crate::curate::{load_rows, served};
use crate::gen::{Corpus, FloodGen, ReadGen, Shape, ALPHA, BETA};
use crate::sched::{wait_until, Schedule};
use crate::stats::as_us;
use crate::trace::{Tracer, NO_SPAN};
use crate::Report;

/// Writes in flight per loader round trip: far below the tenant's queue
/// cap (65 536 updates), so the queue itself never overflows. The writer
/// still sheds a handful of writes per 100 000 — with `ERR overloaded`,
/// when 32 drains are awaiting their group commit — and like any bulk
/// client the loader sends those again; they are counted in
/// `reactor.shed_ops`. Any other `ERR` is a failed operation.
pub const WINDOW: usize = 128;

/// Log bytes between automatic checkpoints of the bulk tenant: at 21 log
/// bytes a write about a second and a half of flood, so a checkpoint runs
/// in every replica's flood, a probe's (1.6 s) included.
pub const AUTO_CHECKPOINT_BYTES: u64 = 2_000_000;

pub struct Fixture {
    pub fg: String,
    pub bulk: String,
    pub seed: u64,
    pub shape: Shape,
    pub preload: usize,
    reader: Client,
    loader: Client,
    reads: ReadGen,
    ops: FloodGen,
}

/// The reader thinks for a seeded random time in `[0, THINK_MAX)` before
/// each read, like one of a pool of users. A reader with no think time
/// does not measure the system: its next request races the shard's
/// return to its 1 ms park, the scheduler decides each race (on two
/// saturated cores the woken client often pre-empts the shard thread),
/// and a run's median lands on either side of 30 µs / 1.1 ms by chance.
/// With think time every read meets the park cycle at a random phase.
pub const THINK_MAX: Duration = Duration::from_millis(2);

/// Both rates are taken from slices this long, not from whole-run totals.
/// Two things make totals unsteady. The sandbox's disk stalls an fsync for
/// 20–250 ms several times a minute (a bare fsync loop shows it), which
/// stops the whole pipeline for that long. And the flood itself switches,
/// for a second or so at a time, between a regime of small drains and one
/// of large, cheaper ones that runs up to twice as fast; how long a run
/// spends in the fast one is luck. The slices between the slowest quarter
/// (stalls) and the median show the rate the system sustains when neither
/// is happening, and that repeats from run to run. A probe's flood lasts
/// 1.6 s: the slices are short enough to give it sixteen.
pub const SLICE: Duration = Duration::from_millis(100);

#[derive(Default)]
pub struct Samples {
    pub read_us: Vec<f64>,
    pub reads: u64,
    pub reply_bytes: u64,
    pub ops: u64,
    pub wall: Duration,
    /// Writes acknowledged / reads completed in each whole [`SLICE`] of
    /// the flood.
    pub ops_by_slice: Vec<u64>,
    pub reads_by_slice: Vec<u64>,
    /// What the flood moved in the bulk tenant's public counters.
    pub counters: Counters,
}

/// The bulk tenant's (and the shared committer's) monotone counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub drains: u64,
    pub updates: u64,
    pub ops_enqueued: u64,
    pub ops_coalesced: u64,
    pub own_fsyncs: u64,
    pub committer_syncs: u64,
    pub appended_bytes: u64,
    pub auto_checkpoints: u64,
    pub shed_ops: u64,
    pub backpressure_stalls: u64,
}

impl Samples {
    /// The rate sustained between stalls and bursts: the mean over the
    /// second quarter of the slices, slowest first (the interquartile
    /// mean's lower half), per second. The whole-run mean when the flood
    /// was shorter than eight slices.
    pub fn sustained(&self, by_slice: &[u64], total: u64) -> f64 {
        if by_slice.len() < 8 {
            return total as f64 / self.wall.as_secs_f64();
        }
        let mut counts = by_slice.to_vec();
        counts.sort_unstable();
        let quarter = &counts[counts.len() / 4..counts.len() / 2];
        quarter.iter().sum::<u64>() as f64 / quarter.len() as f64 / SLICE.as_secs_f64()
    }
}

fn count_in_slice(by_slice: &mut Vec<u64>, slice: usize, n: u64) {
    if by_slice.len() <= slice {
        by_slice.resize(slice + 1, 0);
    }
    by_slice[slice] += n;
}

impl Counters {
    fn capture(server: &Server, bulk: &str) -> Result<Counters, String> {
        let ds = served(server, bulk)?;
        let report = ds.metrics();
        Ok(Counters {
            drains: report.drains,
            updates: report.updates_enqueued,
            ops_enqueued: report.ops_enqueued,
            ops_coalesced: report.ops_coalesced,
            own_fsyncs: report.wal_fsyncs,
            committer_syncs: server.service.committer_stats().map_or(0, |s| s.syncs),
            appended_bytes: ds.wal_stats().map_or(0, |s| s.appended_bytes),
            auto_checkpoints: report.auto_checkpoints,
            shed_ops: report.admission_shed,
            backpressure_stalls: report.backpressure_stalls,
        })
    }

    fn add_since(&mut self, before: &Counters, after: &Counters) {
        self.drains += after.drains - before.drains;
        self.updates += after.updates - before.updates;
        self.ops_enqueued += after.ops_enqueued - before.ops_enqueued;
        self.ops_coalesced += after.ops_coalesced - before.ops_coalesced;
        self.own_fsyncs += after.own_fsyncs - before.own_fsyncs;
        self.committer_syncs += after.committer_syncs - before.committer_syncs;
        self.appended_bytes += after.appended_bytes - before.appended_bytes;
        self.auto_checkpoints += after.auto_checkpoints - before.auto_checkpoints;
        self.shed_ops += after.shed_ops - before.shed_ops;
        self.backpressure_stalls += after.backpressure_stalls - before.backpressure_stalls;
    }
}

/// Generate both tenants, open, load, mine `fg`, connect both clients.
pub fn setup(
    server: &Server,
    root: &Path,
    seed: u64,
    shape: Shape,
    preload: usize,
    tag: &str,
) -> Result<Fixture, String> {
    let fg = format!("fg{tag}");
    let bulk = format!("bulk{tag}");
    let dir = root.join(&bulk);
    let mut admin = Client::connect(server.addr)?;

    let corpus = Corpus::new(seed, shape, 0);
    admin.call(&format!("open {fg} {ALPHA} {BETA}"), "OK open")?;
    load_rows(served(server, &fg)?.as_ref(), &corpus.rows())?;
    admin.call(&format!("mine {fg}"), "OK mined")?;

    let bulk_shape = Shape {
        tuples: preload,
        ..shape
    };
    admin.call(
        &format!(
            "open {bulk} {ALPHA} {BETA} dir {} auto_checkpoint bytes={AUTO_CHECKPOINT_BYTES}",
            dir.display()
        ),
        "OK open",
    )?;
    admin.call(&format!("class {bulk} bulk"), "OK class")?;
    load_rows(
        served(server, &bulk)?.as_ref(),
        &Corpus::new(seed ^ 0xB01C, bulk_shape, 0).rows(),
    )?;
    admin.quit();

    Ok(Fixture {
        reader: Client::connect_on_shard(server.addr, 0)?,
        loader: Client::connect_on_shard(server.addr, 1)?,
        reads: ReadGen::new(corpus),
        ops: FloodGen::new(seed, bulk_shape, preload),
        fg,
        bulk,
        seed,
        shape: bulk_shape,
        preload,
    })
}

/// Writes the loader is given per second of budget. The flood is a fixed
/// number of writes (this rate × the budget, in whole windows), not a
/// fixed time: the same seed then sends the same writes, the tenant ends
/// at the same size whatever the speed, and `peak_rss_mb` does not follow
/// `flood_ops_per_s` around. At the sandbox's 65–80 k writes/s the flood
/// lasts about as long as its budget.
pub const NOMINAL_OPS_PER_S: f64 = 65_000.0;

/// Send the flood sized for `budget`; the reader runs until the loader's
/// final `flush` is acknowledged. Both threads are joined before this
/// returns.
pub fn run(
    server: &Server,
    fx: &mut Fixture,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
    samples: &mut Samples,
) -> Result<(), String> {
    let before = Counters::capture(server, &fx.bulk)?;
    let fx_seed = fx.seed;
    let done = AtomicBool::new(false);
    let Fixture {
        reader,
        loader,
        reads,
        ops,
        fg,
        bulk,
        ..
    } = fx;
    let mut reader_trace = tracer.fork();
    let bytes_before = reader.reply_bytes;
    let windows = ((budget.as_secs_f64() * NOMINAL_OPS_PER_S) as usize / WINDOW).max(1);
    let start = Instant::now();
    let slice_of = |t: Instant| ((t - start).as_nanos() / SLICE.as_nanos()) as usize;
    // `jitter` is uniform in [0, period/4): ×4 below makes the think time
    // uniform in [0, 2 ms), mean 1 ms.
    let pacing = Schedule::per_second(1.0 / THINK_MAX.as_secs_f64(), fx_seed);

    let (read_result, load_result) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| -> Result<(Vec<f64>, Vec<u64>), String> {
            let mut latencies = Vec::new();
            let mut by_slice = Vec::new();
            while !done.load(Ordering::SeqCst) {
                let line = reads.next_read().line(fg);
                let think = pacing.jitter(latencies.len() as u64, 0) * 4;
                wait_until(Instant::now() + think);
                let t = Instant::now();
                reader.send(&line)?;
                reader
                    .expect_block(None)
                    .map_err(|e| format!("{line:?}: {e}"))?;
                let end = Instant::now();
                reader_trace.span("socket.hot_read", NO_SPAN, latencies.len() as u64, t, end);
                latencies.push(as_us(end - t));
                count_in_slice(&mut by_slice, slice_of(end), 1);
            }
            Ok((latencies, by_slice))
        });
        let loaded = (|| -> Result<(u64, u64, Vec<u64>), String> {
            let (mut sent, mut failed) = (0u64, 0u64);
            let mut by_slice = Vec::new();
            let mut text = String::new();
            let mut shed = String::new();
            let mut left = windows;
            while left > 0 || !shed.is_empty() {
                // Writes the last window had refused go first, so each is
                // retried at most a window late.
                text.clear();
                text.push_str(&shed);
                shed.clear();
                if left > 0 {
                    left -= 1;
                    ops.window_into(bulk, WINDOW, &mut text);
                    sent += WINDOW as u64;
                }
                loader.send(&text)?;
                let mut acked = 0;
                for line in text.lines() {
                    match loader.expect("OK queued") {
                        Ok(_) => acked += 1,
                        Err(e) if e.contains("ERR overloaded") => {
                            shed.push_str(line);
                            shed.push('\n');
                        }
                        // Any other refusal is a failed op; a dead
                        // connection ends the flood.
                        Err(e) if e.starts_with("expected") => failed += 1,
                        Err(e) => return Err(e),
                    }
                }
                count_in_slice(&mut by_slice, slice_of(Instant::now()), acked);
            }
            loader.call(&format!("flush {bulk}"), "OK flushed")?;
            Ok((sent, failed, by_slice))
        })();
        done.store(true, Ordering::SeqCst);
        let read = reading
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (read, loaded)
    });

    samples.wall += start.elapsed();
    tracer.absorb(reader_trace);
    let after = Counters::capture(server, &fx.bulk)?;
    samples.counters.add_since(&before, &after);
    let (sent, failed, ops_by_slice) = load_result?;
    let (latencies, reads_by_slice) = read_result?;
    // The last slice is a partial one (the flood ended inside it).
    let whole = ops_by_slice.len().saturating_sub(1);
    samples
        .ops_by_slice
        .extend(ops_by_slice.into_iter().take(whole));
    samples
        .reads_by_slice
        .extend(reads_by_slice.into_iter().take(whole));
    report.attempted += sent + latencies.len() as u64;
    if failed > 0 {
        report.fail(format!(
            "flood_read: {failed} of {sent} bulk writes were refused"
        ));
    }
    samples.ops += sent;
    samples.reads += latencies.len() as u64;
    samples.reply_bytes += fx.reader.reply_bytes - bytes_before;
    samples.read_us.extend(latencies);
    Ok(())
}

/// Wait for the bulk tenant's in-flight automatic checkpoint, if any.
pub fn settle(server: &Server, fx: &Fixture) -> Result<(), String> {
    served(server, &fx.bulk)?.quiesce_maintenance();
    Ok(())
}

/// The bulk tenant holds exactly the generator's tuples; `fg` still
/// passes both exactness oracles (it was read, never written).
pub fn finish(server: &Server, fx: &Fixture, report: &mut Report) -> Result<(), String> {
    let (model, live) = (fx.ops.rows(), served(server, &fx.bulk)?.live_tuples());
    report.check(
        model == live,
        &format!("flood_read: bulk serves {live} tuples, the generator's model has {model}"),
    );
    let exact = served(server, &fx.fg)?
        .verify()
        .map_err(|e| format!("verify {}: {e}", fx.fg))?;
    report.check(exact, "flood_read: fg failed verify");
    Ok(())
}

pub fn teardown(server: &Server, fx: Fixture) {
    fx.reader.quit();
    fx.loader.quit();
    for name in [&fx.fg, &fx.bulk] {
        let _ = server.service.remove(name);
    }
}
