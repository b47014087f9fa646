//! Std-only transports for the [`Engine`]: TCP and a stdin REPL.
//!
//! The TCP front end is the worker-per-core sharded runtime in
//! [`crate::reactor`]: connections are hashed to shard loops at accept
//! time and read non-blockingly, with per-tenant admission control and
//! QoS classes. Every shard shares one [`Engine`] (itself over a shared
//! [`Service`]) — every connection sees the same
//! datasets, which is the point of a multi-tenant serving layer. No async
//! runtime: the workspace is dependency-free by construction, and the
//! front end is built entirely on `std::net`.
//!
//! The metrics scrape listener stays thread-per-request (scrapes are rare
//! and short-lived).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::protocol::Engine;
pub use crate::reactor::serve_listener_sharded;
use crate::service::Service;

/// Longest command line a TCP client may send. Bounds per-connection
/// memory: without it, a newline-free byte stream would accumulate into
/// one ever-growing String until the daemon OOMs.
pub(crate) const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Exponential backoff for accept-loop errors. Transient failures (one
/// aborted handshake) cost the small floor; a persistent condition like
/// fd exhaustion quickly backs off to the ceiling instead of spinning a
/// core and flooding stderr at MHz rates.
#[derive(Debug)]
pub(crate) struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    const FLOOR: Duration = Duration::from_millis(10);
    const CEILING: Duration = Duration::from_secs(1);

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { next: Self::FLOOR }
    }

    /// A successful accept ends the error streak.
    pub(crate) fn reset(&mut self) {
        self.next = Self::FLOOR;
    }

    /// Sleep for the current delay, then double it (capped).
    pub(crate) fn sleep(&mut self) {
        std::thread::sleep(self.next);
        self.next = (self.next * 2).min(Self::CEILING);
    }
}

/// Read one `\n`-terminated line of at most `max` bytes. `Ok(None)` at
/// EOF; an error if the line exceeds the bound or is not UTF-8.
fn read_bounded_line<R: BufRead>(reader: &mut R, max: u64) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(max + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if n as u64 > max {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("line exceeds {max} bytes"),
        ));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Bind `addr` and serve forever on `shards` shard loops.
pub fn serve_tcp_sharded(service: Arc<Service>, addr: &str, shards: usize) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!(
        "annod: listening on {} (shards={})",
        listener.local_addr()?,
        shards.max(1)
    );
    serve_listener_sharded(service, listener, shards)
}

/// Most headers a metrics scrape request may carry before the blank
/// line; past this the request is answered anyway (scrapers send a
/// handful — the bound only stops a deliberate header flood).
const MAX_REQUEST_HEADERS: usize = 64;

/// Answer one HTTP request on an accepted connection: `GET /metrics`
/// (or `GET /`) returns the Prometheus exposition, anything else a
/// minimal error. HTTP/1.0 semantics — one request, `Connection: close` —
/// which every Prometheus-compatible scraper speaks; no dependency, no
/// async runtime, ~40 lines of `std::net`.
pub fn handle_metrics_request(service: &Service, stream: TcpStream) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let Some(request) = read_bounded_line(&mut reader, MAX_LINE_BYTES)? else {
        return Ok(());
    };
    // Drain the headers so the peer never sees a reset while still
    // sending; the request line is all that matters.
    for _ in 0..MAX_REQUEST_HEADERS {
        match read_bounded_line(&mut reader, MAX_LINE_BYTES)? {
            None => break,
            Some(line) if line.is_empty() => break,
            Some(_) => {}
        }
    }
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if !method.eq_ignore_ascii_case("GET") {
        (
            "405 Method Not Allowed",
            "only GET is supported\n".to_string(),
        )
    } else if path == "/metrics" || path == "/" {
        ("200 OK", crate::expose::render_prometheus(service))
    } else {
        ("404 Not Found", "try GET /metrics\n".to_string())
    };
    write!(
        writer,
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()
}

/// Accept scrapes forever on an already-bound listener, one short-lived
/// thread per request, with the same shed-and-survive error handling as
/// the protocol listener.
pub fn serve_metrics_listener(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    let mut backoff = AcceptBackoff::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(stream) => {
                backoff.reset();
                stream
            }
            Err(e) => {
                eprintln!("annod: metrics accept error (continuing): {e}");
                backoff.sleep();
                continue;
            }
        };
        let service = Arc::clone(&service);
        let spawned = std::thread::Builder::new()
            .name("annod-scrape".to_string())
            .spawn(move || {
                if let Err(e) = handle_metrics_request(&service, stream) {
                    eprintln!("annod: metrics connection error: {e}");
                }
            });
        if let Err(e) = spawned {
            // Same resource-exhaustion class as an accept error: shed this
            // request (dropping the stream closes it), keep the daemon.
            eprintln!("annod: could not spawn scrape thread (shedding): {e}");
            backoff.sleep();
        }
    }
    Ok(())
}

/// Bind `addr` and serve `GET /metrics` forever.
pub fn serve_metrics_http(service: Arc<Service>, addr: &str) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!(
        "annod: metrics on http://{}/metrics",
        listener.local_addr()?
    );
    serve_metrics_listener(service, listener)
}

/// Interactive REPL over arbitrary reader/writer pairs (used with
/// stdin/stdout by `annod repl`, and by tests with in-memory buffers).
pub fn run_repl<R: BufRead, W: Write>(
    service: Arc<Service>,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    let engine = Engine::new(service);
    writeln!(output, "OK annod repl ready (try `help`)")?;
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let reply = engine.execute(&line);
        output.write_all(reply.to_text().as_bytes())?;
        output.flush()?;
        if reply.quit {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn repl_runs_a_scripted_session() {
        let script = "\
open db 0.4 0.7
row db 28 85 Annot_1
row db 28 85 Annot_1
row db 28 85 Annot_1
row db 28 85
mine db
recommend db tuple 3
quit
";
        let mut out = Vec::new();
        run_repl(Arc::new(Service::new()), Cursor::new(script), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("OK mined rules="), "{text}");
        assert!(text.contains("add Annot_1"), "{text}");
        assert!(text.trim_end().ends_with("OK bye"), "{text}");
    }

    #[test]
    fn bounded_line_reader_enforces_the_cap() {
        let mut ok_input = Cursor::new(b"ping\r\nquit\n".to_vec());
        assert_eq!(
            read_bounded_line(&mut ok_input, 16).unwrap().as_deref(),
            Some("ping")
        );
        assert_eq!(
            read_bounded_line(&mut ok_input, 16).unwrap().as_deref(),
            Some("quit")
        );
        assert_eq!(read_bounded_line(&mut ok_input, 16).unwrap(), None);

        // A newline-free flood must error out instead of accumulating.
        let mut flood = Cursor::new(vec![b'x'; 1024]);
        let err = read_bounded_line(&mut flood, 64).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Exactly at the cap with a terminator is fine.
        let mut exact = Cursor::new(b"abcd\n".to_vec());
        assert_eq!(
            read_bounded_line(&mut exact, 4).unwrap().as_deref(),
            Some("abcd")
        );
    }

    #[test]
    fn accept_backoff_doubles_and_resets() {
        let mut b = AcceptBackoff::new();
        assert_eq!(b.next, AcceptBackoff::FLOOR);
        b.sleep();
        b.sleep();
        assert_eq!(b.next, AcceptBackoff::FLOOR * 4);
        // A long error streak saturates at the ceiling instead of
        // doubling forever.
        for _ in 0..8 {
            b.next = (b.next * 2).min(AcceptBackoff::CEILING);
        }
        assert_eq!(b.next, AcceptBackoff::CEILING);
        b.reset();
        assert_eq!(b.next, AcceptBackoff::FLOOR);
    }

    #[test]
    fn metrics_http_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Service::new());
        {
            use crate::queue::UpdateOp;
            let ds = service
                .create("db", crate::service::ServiceConfig::default())
                .unwrap();
            ds.enqueue(UpdateOp::InsertRows(vec!["1 2 X".into(), "1 2 X".into()]))
                .unwrap();
            ds.mine().unwrap();
        }
        let serve_service = Arc::clone(&service);
        std::thread::spawn(move || serve_metrics_listener(serve_service, listener));

        let scrape = |request: &str| -> String {
            let stream = TcpStream::connect(addr).expect("connect loopback");
            let mut writer = stream.try_clone().unwrap();
            writer.write_all(request.as_bytes()).unwrap();
            let mut reader = BufReader::new(stream);
            let mut response = String::new();
            reader.read_to_string(&mut response).unwrap();
            response
        };

        let response = scrape("GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        assert!(response.contains("anno_datasets 1"), "{response}");
        assert!(
            response.contains("anno_live_tuples{dataset=\"db\"} 2"),
            "{response}"
        );
        // The advertised Content-Length matches the body exactly.
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let advertised: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(advertised, body.len());

        let missing = scrape("GET /nope HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        let put = scrape("PUT /metrics HTTP/1.0\r\n\r\n");
        assert!(put.starts_with("HTTP/1.0 405"), "{put}");
    }

    #[test]
    fn metrics_listener_survives_hostile_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Service::new());
        service
            .create("db", crate::service::ServiceConfig::default())
            .unwrap();
        let serve_service = Arc::clone(&service);
        std::thread::spawn(move || serve_metrics_listener(serve_service, listener));

        // Each abuse below must be shed by its per-request thread without
        // taking the accept loop down; writes may legitimately fail once
        // the server has given up on the connection, so errors on the
        // client side are expected and ignored.

        // 1. Early disconnect: connect and vanish without sending a byte.
        drop(TcpStream::connect(addr).expect("connect loopback"));

        // 2. Malformed request line: not HTTP at all, NUL bytes included.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let _ = stream.write_all(b"\x00\x01 not http \x7f\r\n\r\n");
            let mut response = String::new();
            let _ = BufReader::new(stream).read_to_string(&mut response);
            // Whatever the verdict, it is an HTTP error reply, not a hang.
            assert!(
                response.starts_with("HTTP/1.0 4") || response.starts_with("HTTP/1.0 405"),
                "{response}"
            );
        }

        // 3. A newline-free request-line flood past the line cap: the
        // handler must error out instead of buffering forever.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let _ = stream.write_all(&vec![b'x'; (MAX_LINE_BYTES as usize) + 512]);
            let mut sink = String::new();
            let _ = BufReader::new(stream).read_to_string(&mut sink);
        }

        // 4. A single oversized header line (> line cap) after a valid
        // request line: dropped mid-drain, connection closed.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\nX-Flood: ");
            let _ = stream.write_all(&vec![b'y'; (MAX_LINE_BYTES as usize) + 512]);
            let mut sink = String::new();
            let _ = BufReader::new(stream).read_to_string(&mut sink);
        }

        // 5. A header *count* flood: more header lines than the drain
        // bound. The request is answered anyway — the bound only stops
        // the drain, not the reply.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut request = String::from("GET /metrics HTTP/1.0\r\n");
            for i in 0..(MAX_REQUEST_HEADERS + 16) {
                request.push_str(&format!("X-Pad-{i}: {i}\r\n"));
            }
            request.push_str("\r\n");
            let _ = stream.write_all(request.as_bytes());
            let mut response = String::new();
            let _ = BufReader::new(stream).read_to_string(&mut response);
            assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        }

        // 6. Disconnect mid-request: valid prefix, then hang up before
        // the blank line.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let _ = stream.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n");
            drop(stream);
        }

        // After every abuse, a well-formed scrape still gets the full
        // exposition — the listener thread is alive and serving.
        let stream = TcpStream::connect(addr).expect("listener still accepting");
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("anno_datasets 1"), "{response}");
    }

    #[test]
    fn tcp_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Service::new());
        let shards = crate::reactor::default_shards();
        std::thread::spawn(move || serve_listener_sharded(service, listener, shards));

        let stream = TcpStream::connect(addr).expect("connect loopback");
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let mut banner = String::new();
        reader.read_line(&mut banner).unwrap();
        assert!(banner.starts_with("OK annod ready"), "{banner}");

        for cmd in ["open db 0.4 0.7", "row db 1 2 X", "row db 1 2 X", "mine db"] {
            writeln!(writer, "{cmd}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("OK"), "{cmd:?} -> {line}");
        }
        writeln!(writer, "rules db").unwrap();
        let mut block = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let done = line.trim_end() == ".";
            block.push(line);
            if done {
                break;
            }
        }
        assert!(block[0].starts_with("OK"), "{block:?}");
        assert!(block.len() > 2, "some rules listed: {block:?}");
        writeln!(writer, "quit").unwrap();
        let mut bye = String::new();
        reader.read_line(&mut bye).unwrap();
        assert_eq!(bye.trim_end(), "OK bye");
    }
}
