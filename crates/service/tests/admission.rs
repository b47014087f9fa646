//! Admission-control and QoS behavior: queue-full shed vs. blocking
//! backpressure, bulk-flood isolation of interactive tenants, and
//! hostile slow-loris clients against the sharded reactor front end.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anno_service::queue::{QosClass, UpdateOp};
use anno_service::server::serve_listener_sharded;
use anno_service::{Engine, Service, ServiceConfig, ServiceError};

fn rows(n: usize) -> UpdateOp {
    UpdateOp::InsertRows((0..n).map(|i| format!("{i} {} A", i + 1)).collect())
}

/// Start a sharded server over a shared registry; returns the registry
/// (for direct dataset handles) and the address.
fn start_sharded(shards: usize) -> (Arc<Service>, SocketAddr) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(Service::new());
    let serve = Arc::clone(&service);
    std::thread::spawn(move || serve_listener_sharded(serve, listener, shards));
    (service, addr)
}

/// A line-protocol client over real TCP.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect loopback");
        // Commands go out as several small writes; without nodelay,
        // Nagle + delayed ACK turns every round trip into ~40ms.
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().unwrap();
        let mut client = Client {
            writer,
            reader: BufReader::new(stream),
        };
        let banner = client.read_line();
        assert!(banner.starts_with("OK annod ready"), "{banner}");
        client
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        line
    }

    /// Send one command, read its single-line reply.
    fn cmd(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send command");
        self.read_line()
    }

    /// Send one command, read a block reply (through the `.` terminator).
    fn cmd_block(&mut self, line: &str) -> Vec<String> {
        writeln!(self.writer, "{line}").expect("send command");
        let mut block = Vec::new();
        loop {
            let reply = self.read_line();
            let done = reply.trim_end() == ".";
            block.push(reply);
            if done {
                return block;
            }
        }
    }
}

#[test]
fn try_enqueue_sheds_with_typed_overloaded_when_full() {
    let service = Service::new();
    let ds = service.create("db", ServiceConfig::default()).unwrap();
    ds.pause_writer_for_tests(true);
    ds.set_queue_cap(8);

    // An empty queue admits anything, even past the cap's granularity.
    ds.try_enqueue(rows(4)).unwrap();
    // Still room: 4 + 4 <= 8.
    ds.try_enqueue(rows(4)).unwrap();
    // Full: the shed is immediate, typed, and counted.
    let err = ds.try_enqueue(rows(1)).unwrap_err();
    match &err {
        ServiceError::Overloaded {
            dataset,
            pending,
            cap,
        } => {
            assert_eq!(dataset, "db");
            assert_eq!((*pending, *cap), (8, 8));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(err.to_string().contains("overloaded"), "{err}");
    assert!(ds.overloaded());
    assert!(!ds.admission_ready());
    assert_eq!(ds.metrics().admission_shed, 1);
    assert_eq!(ds.observability().queue_depth, 8);

    // Draining restores admission with hysteresis headroom.
    ds.pause_writer_for_tests(false);
    ds.flush().unwrap();
    assert!(!ds.overloaded());
    assert!(ds.admission_ready());
    ds.try_enqueue(rows(1)).unwrap();
    ds.flush().unwrap();
}

#[test]
fn blocking_enqueue_still_waits_out_backpressure() {
    let service = Service::new();
    let ds = service.create("db", ServiceConfig::default()).unwrap();
    ds.pause_writer_for_tests(true);
    ds.set_queue_cap(4);
    ds.enqueue(rows(4)).unwrap();

    let blocked = Arc::new(AtomicBool::new(false));
    let handle = {
        let ds = ds.clone();
        let blocked = Arc::clone(&blocked);
        std::thread::spawn(move || {
            let seq = ds.enqueue(rows(2)).unwrap();
            blocked.store(true, Ordering::SeqCst);
            seq
        })
    };
    // The embedder path parks on the condvar instead of shedding.
    std::thread::sleep(Duration::from_millis(100));
    assert!(!blocked.load(Ordering::SeqCst), "enqueue should be parked");

    ds.pause_writer_for_tests(false);
    handle
        .join()
        .expect("blocked enqueue completes after drain");
    ds.flush().unwrap();
    assert_eq!(ds.metrics().admission_shed, 0);
}

#[test]
fn class_verb_reclassifies_and_stats_report_it() {
    let service = Arc::new(Service::new());
    let engine = Engine::new(Arc::clone(&service));
    let open = engine.execute("open db 0.4 0.7");
    assert!(open.lines[0].starts_with("OK"), "{:?}", open.lines);

    let report = engine.execute("class db");
    assert!(
        report.lines[0].starts_with("OK class db interactive cap="),
        "{:?}",
        report.lines
    );
    let set = engine.execute("class db bulk");
    assert!(
        set.lines[0].starts_with("OK class db bulk"),
        "{:?}",
        set.lines
    );
    assert_eq!(service.get("db").unwrap().qos_class(), QosClass::Bulk);

    let stats = engine.execute("stats db");
    let joined = stats.lines.join("\n");
    assert!(joined.contains("qos_class=bulk"), "{joined}");
    assert!(joined.contains("admission_shed=0"), "{joined}");

    let bad = engine.execute("class db turbo");
    assert!(bad.lines[0].starts_with("ERR"), "{:?}", bad.lines);
    let scrape = engine.execute("metrics");
    let text = scrape.lines.join("\n");
    assert!(
        text.contains("anno_admission_queue_depth{dataset=\"db\",class=\"bulk\"}"),
        "{text}"
    );
    assert!(
        text.contains("anno_admission_bulk_class{dataset=\"db\"} 1"),
        "{text}"
    );
}

#[test]
fn admission_engine_answers_overload_with_soft_error() {
    let service = Arc::new(Service::new());
    let engine = Engine::with_admission(Arc::clone(&service));
    assert!(engine.execute("open db 0.4 0.7").lines[0].starts_with("OK"));
    let ds = service.get("db").unwrap();
    ds.pause_writer_for_tests(true);
    ds.set_queue_cap(2);

    assert!(engine.execute("row db 1 2 A").lines[0].starts_with("OK queued"));
    assert!(engine.execute("row db 2 3 A").lines[0].starts_with("OK queued"));
    let shed = engine.execute("row db 3 4 A");
    assert!(
        shed.lines[0].starts_with("ERR overloaded"),
        "{:?}",
        shed.lines
    );
    // Reads are never shed — admission only gates writes.
    assert!(engine.execute("stats db").lines[0].starts_with("OK"));
    ds.pause_writer_for_tests(false);
    ds.flush().unwrap();
    assert!(engine.execute("row db 3 4 A").lines[0].starts_with("OK queued"));
}

#[test]
fn sharded_server_survives_slow_loris_and_oversized_lines() {
    let (_service, addr) = start_sharded(2);

    // Eight slow-loris clients: dribble a partial command and hold the
    // connection open. They occupy buffers, not threads — the shard
    // event loops keep serving everyone else.
    let mut lorises = Vec::new();
    for i in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("loris connect");
        stream
            .write_all(format!("row db {i}").as_bytes())
            .expect("loris dribble");
        lorises.push(stream);
    }

    // A newline-free flood past the line cap is answered and closed
    // instead of buffering forever.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(&vec![b'x'; 70 * 1024]);
        let mut response = String::new();
        let _ = BufReader::new(stream).read_to_string(&mut response);
        assert!(response.contains("ERR line exceeds"), "{response}");
    }

    // With the abuse still parked, a well-behaved session completes
    // promptly end to end.
    let start = Instant::now();
    let mut client = Client::connect(addr);
    assert!(client.cmd("ping").starts_with("OK pong"));
    assert!(client.cmd("open db 0.4 0.7").starts_with("OK open"));
    for _ in 0..3 {
        assert!(client.cmd("row db 28 85 Annot_1").starts_with("OK queued"));
    }
    assert!(client.cmd("row db 28 85").starts_with("OK queued"));
    assert!(client.cmd("mine db").starts_with("OK mined"));
    let block = client.cmd_block("rules db");
    assert!(block[0].starts_with("OK"), "{block:?}");
    assert!(client.cmd("quit").starts_with("OK bye"));
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "interactive session stalled behind hostile clients: {:?}",
        start.elapsed()
    );

    // The lorises finally finish their line; the server answers each —
    // nothing was torn down by holding them suspended.
    for (i, mut stream) in lorises.into_iter().enumerate() {
        stream
            .write_all(format!(" {} A\nquit\n", i + 1).as_bytes())
            .expect("loris completes");
        let mut response = String::new();
        let _ = BufReader::new(stream).read_to_string(&mut response);
        // `row` on the not-yet-reopened dataset may be OK or a typed
        // error depending on interleaving with `drop`-less opens above;
        // what matters is a reply and an orderly close.
        assert!(response.contains("OK bye"), "loris {i}: {response}");
    }
}

#[test]
fn bulk_flood_cannot_stall_an_interactive_tenant() {
    let (service, addr) = start_sharded(2);

    // Interactive foreground tenant with a mined snapshot to query.
    let mut setup = Client::connect(addr);
    assert!(setup.cmd("open fg 0.4 0.7").starts_with("OK open"));
    for _ in 0..3 {
        assert!(setup.cmd("row fg 28 85 Annot_1").starts_with("OK queued"));
    }
    assert!(setup.cmd("row fg 28 85").starts_with("OK queued"));
    assert!(setup.cmd("mine fg").starts_with("OK mined"));
    // Bulk background tenant with a tiny admission cap and a paused
    // writer, so the flood saturates it deterministically.
    assert!(setup.cmd("open bg 0.4 0.7").starts_with("OK open"));
    assert!(setup.cmd("class bg bulk").starts_with("OK class bg bulk"));
    let bg = service.get("bg").unwrap();
    bg.set_queue_cap(64);
    bg.pause_writer_for_tests(true);

    // Sample bg's queue depth the whole time: bounded queues mean the
    // depth must never exceed the cap.
    let done = Arc::new(AtomicBool::new(false));
    let max_depth = Arc::new(AtomicU64::new(0));
    let sampler = {
        let bg = bg.clone();
        let done = Arc::clone(&done);
        let max_depth = Arc::clone(&max_depth);
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                max_depth.fetch_max(bg.observability().queue_depth, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // The flood: one bulk connection pipelines thousands of writes and
    // reads replies from a second thread (like a real loader would).
    const FLOOD_OPS: usize = 2_000;
    let flood_stream = TcpStream::connect(addr).expect("flood connect");
    let flood_reader = {
        let stream = flood_stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let (mut replies, mut shed) = (0u64, 0u64);
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return (replies, shed);
                }
                replies += 1;
                if line.starts_with("ERR overloaded") {
                    shed += 1;
                }
            }
        })
    };
    let flood_writer = {
        let mut stream = flood_stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for i in 0..FLOOD_OPS {
                writeln!(stream, "row bg {} {} Bulk_1", i, i + 1).expect("flood write");
            }
            writeln!(stream, "quit").expect("flood quit");
        })
    };

    // While the flood rages against a saturated bulk tenant, the
    // interactive tenant's queries stay fast: the flood connection is
    // budget-capped per tick and read-suspended once bg is full, so it
    // cannot monopolize the shard loops.
    let mut interactive = Client::connect(addr);
    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        let start = Instant::now();
        let block = interactive.cmd_block("rules fg top 5");
        assert!(block[0].starts_with("OK"), "{block:?}");
        worst = worst.max(start.elapsed());
    }
    assert!(
        worst < Duration::from_secs(2),
        "interactive p100 blew up under bulk flood: {worst:?}"
    );

    // The queries can finish before the flood has filled bg's queue.
    // Resume only once it has: the first shed parks the connection, so
    // a stall also means the queue was full.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let obs = bg.observability();
        if obs.report.backpressure_stalls >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "saturation never engaged admission control: {obs:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Let the flood finish: resume the writer so bg drains and the
    // suspended connection is re-polled through to `quit`.
    bg.pause_writer_for_tests(false);
    flood_writer.join().unwrap();
    let (replies, shed) = flood_reader.join().unwrap();
    done.store(true, Ordering::SeqCst);
    sampler.join().unwrap();

    // Every flood command was answered (banner line included).
    assert_eq!(replies, FLOOD_OPS as u64 + 2, "banner + ops + quit");
    let obs = bg.observability();
    assert_eq!(
        shed, obs.report.admission_shed,
        "every shed op answers with the Overloaded soft error"
    );
    assert!(
        obs.report.admission_shed >= 1 || obs.report.backpressure_stalls >= 1,
        "saturation never engaged admission control: {obs:?}"
    );
    assert!(
        obs.report.backpressure_stalls >= 1,
        "bulk overload should park the connection, not just error: {obs:?}"
    );
    let cap = bg.queue_cap() as u64;
    assert!(
        max_depth.load(Ordering::SeqCst) <= cap,
        "queue depth {} exceeded the cap {cap}",
        max_depth.load(Ordering::SeqCst)
    );
    // The drained tenant is writable again.
    assert!(interactive
        .cmd("row bg 9999 10000 Bulk_1")
        .starts_with("OK queued"));
    assert!(interactive.cmd("quit").starts_with("OK bye"));
}
