//! The sharded TCP front end: one accept loop, N shard loops, `std::net`
//! only (the workspace is dependency-free by construction, and real
//! epoll stays behind `forbid(unsafe_code)`).
//!
//! * The accept loop **hashes each connection to a shard at accept
//!   time** (peer-address hash), so a connection is owned by exactly one
//!   shard thread for its whole life and shards share nothing but the
//!   [`Engine`].
//! * Each **shard loop** (default one per core) reads its own
//!   non-blocking sockets in place — `WouldBlock` is "nothing yet",
//!   `Ok(0)` is EOF — naps `PARK` between sweeps while none has
//!   anything to say, and hands every complete line to
//!   [`Engine::handle`](crate::protocol::Engine), once.
//! * **Admission control**: queued writes go through the non-blocking
//!   [`try_enqueue`](crate::dataset::Dataset::try_enqueue) path, so a
//!   full tenant queue (or unacked-drain window) sheds with the typed
//!   [`ServiceError::Overloaded`] soft error instead of parking the
//!   shard. A connection that keeps flooding a saturated **bulk** tenant
//!   stops being read until the writer drains below half the cap —
//!   natural TCP backpressure with hysteresis — while **interactive**
//!   tenants keep getting fast errors so their latency stays bounded.
//! * **QoS fairness**: each connection gets a per-tick command budget
//!   from the class of the tenant it last wrote (`BULK_CMDS_PER_TICK` vs
//!   `INTERACTIVE_CMDS_PER_TICK`), so a bulk loader pipelining thousands
//!   of commands cannot monopolize its shard and starve interactive
//!   tenants of drain slots.
//! * **Hostile-client bounds**: per-connection input is capped (a
//!   newline-free flood is answered with an error and closed, a
//!   slow-loris dribbler just sits in its buffer costing nothing), and
//!   buffered replies past `OUT_HIGH_WATER` suspend reads until the peer
//!   drains them.
//!
//! What a shard must not do is block on a *tenant's* backpressure. It
//! does run `mine`, `flush`, `verify`, `checkpoint`, `open … dir`,
//! `attach`, `catchup` and `promote` on its own thread, and every other
//! connection on the shard waits them out (ROADMAP, first open item).
//!
//! This module denies `clippy::disallowed_methods`, so a call on
//! `clippy.toml`'s list of thread-parking methods (sleeps, blocking
//! receives, condvar waits, blocking lock acquisitions, the blocking
//! `Dataset::enqueue`) fails the lint gate here. The deliberate waits
//! each carry an `#[expect]` with the reason they cannot stall a
//! connection. The lint sees only this module's own calls, not the
//! engine the shard calls into.

#![deny(clippy::disallowed_methods)]

use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::error::ServiceError;
use crate::protocol::Engine;
use crate::queue::QosClass;
use crate::server::AcceptBackoff;
use crate::service::Service;

/// How long a shard naps between sweeps of its sockets while none has
/// anything to say. Bounds the wakeup latency a freshly-written byte sees.
const PARK: Duration = Duration::from_millis(1);

/// Commands an interactive-classed connection may execute per shard tick.
const INTERACTIVE_CMDS_PER_TICK: usize = 64;

/// Commands a bulk-classed connection may execute per shard tick. The
/// small budget is the drain-slot fairness mechanism: a bulk loader
/// pipelining thousands of commands yields the loop back to interactive
/// connections every few commands instead of starving them.
const BULK_CMDS_PER_TICK: usize = 4;

/// Buffered-reply high-water mark per connection. Past it the shard stops
/// reading (and executing) for that connection until the peer drains its
/// replies — a client that sends but never reads cannot grow the daemon.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Input-buffer soft cap per connection: one maximal protocol line plus a
/// read quantum. Reads are suspended (TCP backpressure) while at the cap.
const INBUF_SOFT_CAP: usize = crate::server::MAX_LINE_BYTES as usize + 4096;

/// How long a shard tick waits for input when no connection has a
/// buffered complete line.
const POLL_TIMEOUT: Duration = Duration::from_millis(10);

/// Default shard count: one shard loop per available core, clamped to a
/// sane range (a 128-core box does not need 128 accept queues for a line
/// protocol, and even a failed probe still gets a working server).
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Set when a write to this (bulk-classed) dataset was shed: reads
    /// stay suspended until the dataset reports admission headroom.
    stalled_on: Option<String>,
    /// Class of the tenant this connection last wrote; drives the
    /// per-tick command budget.
    bulk: bool,
    /// Flush what is buffered, then close (after `quit` or a fatal
    /// protocol error).
    closing: bool,
    /// Peer closed its write side; keep serving buffered commands and
    /// flushing replies, then close.
    read_eof: bool,
    /// Socket error: drop immediately.
    dead: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }

    fn has_line(&self) -> bool {
        self.inbuf.contains(&b'\n')
    }

    /// Would a processing pass do work right now?
    fn hot(&self) -> bool {
        !self.closing
            && !self.dead
            && self.stalled_on.is_none()
            && self.has_line()
            && self.pending_out() <= OUT_HIGH_WATER
    }

    /// Should the shard read this socket? `false` is how a connection is
    /// suspended to exert TCP backpressure on its peer.
    fn wants_read(&self) -> bool {
        !self.closing
            && !self.dead
            && !self.read_eof
            && self.stalled_on.is_none()
            && self.inbuf.len() < INBUF_SOFT_CAP
            && self.pending_out() <= OUT_HIGH_WATER
    }

    fn finished(&self) -> bool {
        self.dead
            || (self.closing && self.pending_out() == 0)
            || (self.read_eof && self.pending_out() == 0 && !self.has_line())
    }

    /// Pull everything available off the socket, up to the input cap.
    /// `true` if it had anything to say: bytes, EOF or an error. The
    /// first `read` is the readiness probe — `WouldBlock` straight away
    /// means the peer is quiet.
    fn read_socket(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        let before = self.inbuf.len();
        while self.inbuf.len() < INBUF_SOFT_CAP {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_eof = true;
                    break;
                }
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        self.inbuf.len() > before || self.read_eof || self.dead
    }

    /// Execute up to the class budget of buffered complete lines.
    fn process_lines(&mut self, engine: &Engine) {
        if self.closing || self.dead {
            return;
        }
        let budget = if self.bulk {
            BULK_CMDS_PER_TICK
        } else {
            INTERACTIVE_CMDS_PER_TICK
        };
        for _ in 0..budget {
            if self.stalled_on.is_some() || self.pending_out() > OUT_HIGH_WATER {
                break;
            }
            let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') else {
                if self.inbuf.len() as u64 > crate::server::MAX_LINE_BYTES {
                    self.refuse("line exceeds the protocol cap");
                }
                break;
            };
            if pos as u64 > crate::server::MAX_LINE_BYTES {
                self.refuse("line exceeds the protocol cap");
                break;
            }
            let mut raw: Vec<u8> = self.inbuf.drain(..=pos).collect();
            raw.pop(); // the '\n'
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
            let Ok(line) = String::from_utf8(raw) else {
                self.refuse("line is not valid UTF-8");
                break;
            };
            let handled = engine.handle(&line);
            self.outbuf
                .extend_from_slice(handled.reply.to_text().as_bytes());
            if handled.reply.quit {
                self.closing = true;
                break;
            }
            let Some((tenant, class)) = handled.wrote else {
                continue;
            };
            self.bulk = class == QosClass::Bulk;
            // Bulk tenants absorb overload through read suspension (the
            // loader just slows down); interactive tenants keep reading
            // and keep getting fast soft errors instead.
            if let Some(ServiceError::Overloaded { dataset, .. }) = handled.error {
                if self.bulk {
                    tenant.raw_metrics().record_backpressure_stall();
                    self.stalled_on = Some(dataset);
                }
            }
        }
    }

    /// Answer a protocol-abuse condition and schedule the close.
    fn refuse(&mut self, why: &str) {
        self.outbuf
            .extend_from_slice(format!("ERR {why}\n").as_bytes());
        self.closing = true;
    }

    /// Push buffered replies; tolerate `WouldBlock` (retried next tick).
    fn flush_out(&mut self) {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            // Reclaim the flushed prefix of a large, slow-draining buffer.
            self.outbuf.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Shard ticks taken by this thread, so a test can tell a parked
    /// shard from a spinning one.
    static TICKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One shard's loop: owns every connection hashed to it, start to
/// finish. Exits when the accept loop hangs up and no connections remain.
fn shard_loop(engine: Engine, rx: Receiver<TcpStream>) {
    let mut conns: Vec<Conn> = Vec::new();
    loop {
        // Admit new connections; block only when there is nothing to do.
        if conns.is_empty() {
            #[expect(
                clippy::disallowed_methods,
                reason = "guarded by conns.is_empty(): with no connections owned there is nothing to stall"
            )]
            match rx.recv() {
                Ok(stream) => conns.extend(admit(stream)),
                Err(_) => return,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(stream) => conns.extend(admit(stream)),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    if conns.is_empty() {
                        return;
                    }
                    break;
                }
            }
        }

        // Resume suspended connections whose dataset drained below the
        // hysteresis watermark (or vanished entirely).
        for conn in &mut conns {
            if let Some(name) = &conn.stalled_on {
                let ready = match engine.service().get(name) {
                    Ok(ds) => ds.admission_ready(),
                    Err(_) => true,
                };
                if ready {
                    conn.stalled_on = None;
                }
            }
        }

        // Wait for input: not at all if a buffered line is ready to run,
        // else up to POLL_TIMEOUT, napping PARK between sweeps. Only a
        // socket with something to say ends the wait early; one with
        // nothing but unflushed replies never does (whether it can take
        // them is not knowable without `unsafe`), so a shard of stalled
        // writers parks instead of spinning.
        let timeout = if conns.iter().any(Conn::hot) {
            Duration::ZERO
        } else {
            POLL_TIMEOUT
        };
        let deadline = Instant::now() + timeout;
        loop {
            let mut heard = false;
            for conn in conns.iter_mut().filter(|conn| conn.wants_read()) {
                heard |= conn.read_socket();
            }
            let now = Instant::now();
            if heard || now >= deadline {
                break;
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "bounded idle park: no socket had anything to say and the deadline caps the wait"
            )]
            std::thread::sleep(PARK.min(deadline - now));
        }
        for conn in &mut conns {
            conn.process_lines(&engine);
            if conn.pending_out() > 0 {
                conn.flush_out();
            }
        }
        conns.retain(|conn| !conn.finished());
        #[cfg(test)]
        TICKS.with(|ticks| ticks.set(ticks.get() + 1));
    }
}

/// Make an accepted connection the shard's own and greet it.
fn admit(stream: TcpStream) -> Option<Conn> {
    // Died between accept and dispatch: nothing to serve.
    let peer = stream.peer_addr().ok()?;
    stream.set_nonblocking(true).ok()?;
    // Replies are latency-sensitive single writes; never let Nagle hold
    // one back waiting for a delayed ACK (best-effort).
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        stream,
        inbuf: Vec::new(),
        outbuf: Vec::new(),
        out_pos: 0,
        stalled_on: None,
        bulk: false,
        closing: false,
        read_eof: false,
        dead: false,
    };
    conn.outbuf
        .extend_from_slice(format!("OK annod ready ({peer})\n").as_bytes());
    conn.flush_out();
    Some(conn)
}

/// Accept connections forever on an already-bound listener, hashing each
/// to one of `shards` shard loops at accept time. Accept errors (fd
/// exhaustion under a connection burst, aborted handshakes) back off
/// exponentially (see `AcceptBackoff`) and are survived — one
/// recoverable error must not tear down every dataset in the daemon.
pub fn serve_listener_sharded(
    service: Arc<Service>,
    listener: TcpListener,
    shards: usize,
) -> io::Result<()> {
    let shards = shards.max(1);
    let engine = Engine::with_admission(service);
    let mut senders = Vec::with_capacity(shards);
    for i in 0..shards {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let engine = engine.clone();
        std::thread::Builder::new()
            .name(format!("annod-shard-{i}"))
            .spawn(move || shard_loop(engine, rx))?;
        senders.push(tx);
    }
    let mut backoff = AcceptBackoff::new();
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                backoff.reset();
                // No address: the peer is already gone, nothing to serve.
                let Ok(peer) = stream.peer_addr() else {
                    continue;
                };
                let mut h = std::collections::hash_map::DefaultHasher::new();
                peer.hash(&mut h);
                // A shard thread can only be gone if it panicked; shed
                // the connection (dropping closes it) and keep accepting.
                let _ = senders[h.finish() as usize % senders.len()].send(stream);
            }
            Err(e) => {
                eprintln!("annod: accept error (continuing): {e}");
                #[expect(
                    clippy::disallowed_methods,
                    reason = "accept-thread error backoff; no connection is owned by this thread"
                )]
                backoff.sleep();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests are the shard's peers, and a peer may block"
)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// More pipelined `help`s than a peer that never reads can have
    /// answered: their ~20 MB of replies is past anything the kernel
    /// will buffer on loopback, so the shard is left holding output.
    const HELPS: usize = 8_000;

    /// A one-shard server on loopback.
    fn one_shard() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let service = Arc::new(Service::new());
        std::thread::spawn(move || serve_listener_sharded(service, listener, 1));
        addr
    }

    #[test]
    fn a_command_followed_at_once_by_eof_is_answered_before_the_close() {
        let mut client = TcpStream::connect(one_shard()).expect("connect");
        client.write_all(b"ping\n").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut said = String::new();
        client.read_to_string(&mut said).unwrap();
        let lines: Vec<&str> = said.lines().collect();
        assert!(lines[0].starts_with("OK annod ready"), "{said}");
        assert_eq!(lines[1..], ["OK pong"], "{said}");
    }

    #[test]
    fn a_peer_that_stops_reading_is_suspended_while_its_shard_keeps_serving() {
        let addr = one_shard();
        let mut greedy = TcpStream::connect(addr).expect("connect");
        greedy.write_all("help\n".repeat(HELPS).as_bytes()).unwrap();

        // The same shard's other connection is answered promptly all the
        // while (the median, so one descheduled round trip on a busy
        // machine is not a failure).
        let other = TcpStream::connect(addr).expect("connect");
        other.set_nodelay(true).unwrap();
        let mut writer = other.try_clone().unwrap();
        let mut reader = BufReader::new(other);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut round_trips = Vec::new();
        for _ in 0..21 {
            let start = Instant::now();
            writer.write_all(b"ping\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            round_trips.push(start.elapsed());
            assert_eq!(line, "OK pong\n");
        }
        round_trips.sort();
        assert!(
            round_trips[10] < Duration::from_millis(50),
            "{round_trips:?}"
        );

        // Once the peer reads again, every reply arrives, whole.
        greedy.write_all(b"quit\n").unwrap();
        let mut said = String::new();
        greedy.read_to_string(&mut said).unwrap();
        let count = |what: &str| said.lines().filter(|l| *l == what).count();
        assert_eq!((count("OK commands"), count(".")), (HELPS, HELPS));
        assert!(said.ends_with(".\nOK bye\n"));
    }

    #[test]
    fn a_shard_with_only_unflushed_replies_parks_instead_of_spinning() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let (tx, rx) = mpsc::channel();
        tx.send(server).unwrap();
        let engine = Engine::with_admission(Arc::new(Service::new()));
        let shard = std::thread::spawn(move || {
            shard_loop(engine, rx);
            TICKS.with(|ticks| ticks.get())
        });

        // The peer never reads: the kernel's buffers fill, replies back up
        // past OUT_HIGH_WATER and the connection stops being read. From
        // then on the shard's only connection has output it cannot flush
        // and no input it wants, for most of this window.
        client.write_all("help\n".repeat(HELPS).as_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(300));
        // Hanging up with replies unread resets the connection; the
        // shard's next write fails, and with the channel gone it exits.
        drop(tx);
        drop(client);
        let ticks = shard.join().expect("shard exits");
        // Parked, that is ~30 ticks of POLL_TIMEOUT after at most
        // HELPS / INTERACTIVE_CMDS_PER_TICK busy ones. A shard woken by
        // its own unflushed output would tick ~100 000 times.
        assert!(ticks < 500, "{ticks} ticks in 300 ms");
    }
}
