//! The `curate` section: one interactive curator on one connection.
//!
//! A durable, mined leader (`open … dir`, grouped sync — the protocol's
//! default) and a follower `attach`ed to the same directory with a poll
//! interval so long that only explicit `catchup`s poll. Steps arrive in
//! an **open loop** at [`RATE`] per second and each is timed from its due
//! time: a write made visible (`annotate`+`flush`), then the follower made
//! current and read (`catchup`+`rules`); later in the slot, when the
//! connection has been idle for a few milliseconds as a person's would,
//! one leader read. Every layer does a little here and the waits between
//! them dominate.

use std::path::Path;
use std::time::{Duration, Instant};

use std::sync::Arc;

use anno_service::{Dataset, ServiceError, UpdateOp};

use crate::client::{Client, Server};
use crate::gen::{Corpus, Shape, Step, StepGen, ALPHA, BETA};
use crate::sched::{wait_until, Lateness, Schedule};
use crate::stats::{as_ms, as_us};
use crate::trace::{Tracer, NO_SPAN};
use crate::Report;

/// Open-loop arrival rate, steps per second: a 12.5 ms slot. The write is
/// due in the slot's first 2.5 ms and, with the follower read, is over
/// some 4 ms later; the leader read is due [`READ_OFFSET`] into the slot
/// (again + 0–2.5 ms), by when the connection has been idle for longer
/// than the reactor parks, and is over before the next slot starts. So
/// no backlog builds and every exchange that should meet an idle
/// connection does.
pub const RATE: f64 = 80.0;

/// When in its slot a step's leader read is due (before jitter).
const READ_OFFSET: Duration = Duration::from_millis(8);

/// Follower poll interval: long enough that no background poll ever runs.
const MANUAL_POLL_MS: u64 = 3_600_000;

/// Rows per `InsertRows` op during the initial load.
const LOAD_CHUNK: usize = 4096;

pub struct Fixture {
    pub leader: String,
    pub follower: String,
    seed: u64,
    /// `catchup` + `rules` on the follower, sent as one write every step.
    follow: String,
    client: Client,
    steps: StepGen,
}

/// What the timed loop measured, one entry per step.
#[derive(Default)]
pub struct Samples {
    /// Step due → `OK flushed`.
    pub write_visible_ms: Vec<f64>,
    /// Step due → follower's `rules` reply after its `catchup`.
    pub follower_visible_ms: Vec<f64>,
    /// The leader read's round trip.
    pub read_us: Vec<f64>,
    /// Step started → `OK flushed`: the write's own round trip, without
    /// any wait for the schedule (the layer ladder's top rung).
    pub write_rtt_us: Vec<f64>,
    pub lateness: Lateness,
}

impl Samples {
    /// The due-timed series (`write_visible_ms`, `follower_visible_ms`)
    /// restricted to the steps the generator started on time.
    ///
    /// A step that starts late does so because an earlier one had not
    /// finished, and that earlier step is in the sample already. The
    /// sandbox stalls for tens to hundreds of milliseconds several times a
    /// minute (a bare fsync loop shows 20–250 ms fsyncs; a bare 1 ms sleep
    /// loop shows 25–90 ms sleeps), and at 100 steps/s one such stall
    /// delays ten or more later steps: counted from their due times they
    /// would fill the top percent of a 1000-step sample by themselves, and
    /// a one-second stall would move the median. The statistics would then
    /// report whether the run met a stall, not how the system behaves. So
    /// they are taken over on-time steps, and the late steps are counted
    /// next to them. When fewer than half the steps start on time the
    /// system is not keeping up with the schedule at all; that is a
    /// finding, not noise, and every step is used.
    pub fn on_time(&self, series: &[f64]) -> Vec<f64> {
        let kept: Vec<f64> = series
            .iter()
            .zip(self.lateness.on_time())
            .filter_map(|(&ms, on_time)| on_time.then_some(ms))
            .collect();
        if 2 * kept.len() < series.len() {
            series.to_vec()
        } else {
            kept
        }
    }
}

/// Load `rows` into `ds` as [`LOAD_CHUNK`]-row inserts through its queue,
/// and wait for them. Every section's set-up loads this way.
pub fn load_rows(ds: &Dataset, rows: &[String]) -> Result<(), String> {
    let failed = |e: ServiceError| format!("load {}: {e}", ds.name());
    for chunk in rows.chunks(LOAD_CHUNK) {
        ds.enqueue(UpdateOp::InsertRows(chunk.to_vec()))
            .map_err(failed)?;
    }
    ds.flush().map_err(failed)
}

/// The dataset `name` of the serving registry.
pub fn served(server: &Server, name: &str) -> Result<Arc<Dataset>, String> {
    server.service.get(name).map_err(|e| e.to_string())
}

/// Generate, open, load, mine, attach: everything before the first step.
pub fn setup(
    server: &Server,
    root: &Path,
    seed: u64,
    shape: Shape,
    tag: &str,
) -> Result<Fixture, String> {
    let corpus = Corpus::new(seed, shape, 0);
    let leader = format!("cur{tag}");
    let follower = format!("curf{tag}");
    let dir = root.join(&leader);
    let mut client = Client::connect(server.addr)?;
    client.call(
        &format!("open {leader} {ALPHA} {BETA} dir {}", dir.display()),
        "OK open",
    )?;
    load_rows(served(server, &leader)?.as_ref(), &corpus.rows())?;
    client.call(&format!("mine {leader}"), "OK mined")?;
    client.call(
        &format!(
            "attach {follower} dir {} poll_ms {MANUAL_POLL_MS}",
            dir.display()
        ),
        "OK attach",
    )?;
    Ok(Fixture {
        follow: format!("catchup {follower}\nrules {follower} top 5\n"),
        leader,
        follower,
        seed,
        client,
        steps: StepGen::new(corpus),
    })
}

/// Idle `ping` round trips, in µs: the floor the reactor adds to anything.
pub fn ping_rtts_us(fx: &mut Fixture, n: u64) -> Result<Vec<f64>, String> {
    let pacing = Schedule::per_second(RATE, fx.seed ^ 0x5049_4E47);
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        // Let the shard park again, as it would between a curator's
        // steps, and meet its park cycle at a random phase.
        std::thread::sleep(Duration::from_millis(2) + pacing.jitter(i, 0));
        let t = Instant::now();
        fx.client.call("ping", "OK pong")?;
        out.push(as_us(t.elapsed()));
    }
    Ok(out)
}

/// Run the open loop for `budget`. Returns the steps sent, so the layer
/// ladder can replay exactly them.
pub fn run(
    fx: &mut Fixture,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
    samples: &mut Samples,
) -> Result<Vec<Step>, String> {
    let schedule = Schedule::per_second(RATE, fx.seed ^ samples.write_visible_ms.len() as u64);
    let n = schedule.steps_within(budget).max(1);
    let mut sent = Vec::with_capacity(n as usize);
    let mut text = String::new();
    let start = Instant::now();
    for i in 0..n {
        let step = fx.steps.next_step();
        let due = start + schedule.due(i);
        wait_until(due);
        let began = Instant::now();
        samples.lateness.record(schedule.due(i), began - start);
        report.attempted += 1;
        // A failed step leaves the connection in an unknown state, which
        // cannot be timed further: the section ends here, failed.
        let failed = |e: String| format!("curate step {i}: {e}");
        let [written, followed] = fx.write_and_follow(&step, &mut text).map_err(failed)?;
        let read_due = start + schedule.slot(i) + READ_OFFSET + schedule.jitter(i, 1);
        wait_until(read_due);
        let asked = Instant::now();
        fx.client
            .send(&step.read.line(&fx.leader))
            .map_err(failed)?;
        fx.client.expect_block(None).map_err(failed)?;
        let read = Instant::now();
        sent.push(step);
        samples.write_visible_ms.push(as_ms(written - due));
        samples.follower_visible_ms.push(as_ms(followed - due));
        samples.read_us.push(as_us(read - asked));
        samples.write_rtt_us.push(as_us(written - began));
        if tracer.enabled() {
            let parent = tracer.span("curate.step", NO_SPAN, i, due, read);
            tracer.span("curate.late", parent, i, due, began);
            tracer.span("socket.write_flush", parent, i, began, written);
            tracer.span("socket.catchup_read", parent, i, written, followed);
            tracer.span("socket.leader_read", parent, i, asked, read);
        }
    }
    Ok(sent)
}

impl Fixture {
    /// A step's write and follower read; returns when the write was
    /// flushed and when the caught-up follower had answered.
    fn write_and_follow(&mut self, step: &Step, text: &mut String) -> Result<[Instant; 2], String> {
        let c = &mut self.client;
        text.clear();
        step.write.line_into(&self.leader, text);
        text.push_str("flush ");
        text.push_str(&self.leader);
        text.push('\n');
        c.send(text)?;
        c.expect("OK queued")?;
        c.expect("OK flushed")?;
        let written = Instant::now();

        c.send(&self.follow)?;
        let caught = c.expect("OK catchup")?;
        if !caught.contains(" bytes_behind=0 ") {
            return Err(format!("follower still behind after catchup: {caught}"));
        }
        c.expect_block(None)?;
        Ok([written, Instant::now()])
    }
}

/// After the loop: the follower must serve exactly the leader's answers
/// once caught up, and the leader must pass both exactness oracles.
pub fn finish(server: &Server, fx: &mut Fixture, report: &mut Report) -> Result<(), String> {
    let (leader, follower) = (fx.leader.clone(), fx.follower.clone());
    let caught = fx
        .client
        .call(&format!("catchup {follower}"), "OK catchup")?;
    report.check(
        caught.contains(" bytes_behind=0 "),
        &format!("curate: final catchup left the follower behind: {caught}"),
    );
    for query in ["rules", "discover"] {
        let on_leader = fx.client.call_block(&format!("{query} {leader}"))?;
        let on_follower = fx.client.call_block(&format!("{query} {follower}"))?;
        report.check(
            !on_leader.is_empty() && on_leader == on_follower,
            &format!("curate: follower `{query}` differs from the leader's"),
        );
    }
    let ds = served(server, &leader)?;
    report.check(
        ds.verify().map_err(|e| format!("verify {leader}: {e}"))?,
        "curate: leader failed verify (incremental == re-mine, discovery == rescan)",
    );
    let (model, live) = (fx.steps.corpus().live_tuples(), ds.live_tuples());
    report.check(
        model == live,
        &format!("curate: leader serves {live} tuples, the generator's model has {model}"),
    );
    Ok(())
}

/// Drop both datasets; the run's data directory is removed at exit.
pub fn teardown(mut fx: Fixture) {
    for name in [fx.follower.clone(), fx.leader.clone()] {
        let _ = fx.client.call(&format!("drop {name}"), "OK dropped");
    }
    fx.client.quit();
}
