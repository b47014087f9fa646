//! The shipped front end booted in-process, and a line-protocol client.

use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use anno_service::server::serve_listener_sharded;
use anno_service::Service;

/// Event loops the front end runs: one per core of the 2-core sandbox
/// this benchmark is sized for, and what `annod serve` would pick there.
pub const SHARDS: usize = 2;

/// A reply that takes longer than this is a failed operation, not a slow
/// one; it also keeps a wedged server from hanging the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// `annod`'s sharded TCP front end on a loopback port, over a registry
/// the benchmark can also reach in-process (counters, `verify`).
pub struct Server {
    pub service: Arc<Service>,
    pub addr: SocketAddr,
}

impl Server {
    pub fn boot() -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let service = Arc::new(Service::new());
        let serving = Arc::clone(&service);
        // The accept loop never returns, so this thread cannot be joined;
        // it ends with the process, after every dataset has been dropped.
        std::thread::Builder::new()
            .name("annobench-accept".into())
            .spawn(move || {
                if let Err(e) = serve_listener_sharded(serving, listener, SHARDS) {
                    eprintln!("annobench: front end stopped: {e}");
                }
            })
            .map_err(|e| format!("spawn accept thread: {e}"))?;
        Ok(Server { service, addr })
    }
}

/// The shard the front end hands a connection from `peer` to. Mirrors
/// `serve_sharded`'s accept-time hash; if that policy changes this only
/// stops separating the flood's two connections, it cannot hang.
fn shard_of(peer: SocketAddr) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    peer.hash(&mut h);
    h.finish() as usize % SHARDS
}

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    /// Reply bytes received so far, banner excluded.
    pub reply_bytes: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut client = Client {
            writer,
            reader: BufReader::new(stream),
            line: String::new(),
            reply_bytes: 0,
        };
        let banner = client.read_line()?;
        if !banner.starts_with("OK annod ready") {
            return Err(format!("unexpected banner {banner:?}"));
        }
        client.reply_bytes = 0;
        Ok(client)
    }

    /// Connect until the front end places the connection on `shard`
    /// (each attempt draws a fresh ephemeral port, hence a fresh hash).
    pub fn connect_on_shard(addr: SocketAddr, shard: usize) -> Result<Client, String> {
        let mut last = None;
        for _ in 0..64 {
            let client = Client::connect(addr)?;
            let local = client
                .writer
                .local_addr()
                .map_err(|e| format!("local addr: {e}"))?;
            if shard_of(local) == shard % SHARDS {
                return Ok(client);
            }
            last = Some(client);
        }
        last.ok_or_else(|| "no connection attempt made".to_string())
    }

    /// Send raw text (one or more `\n`-terminated command lines).
    pub fn send(&mut self, text: &str) -> Result<(), String> {
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read reply: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.reply_bytes += n as u64;
        Ok(self.line.trim_end())
    }

    /// Read a one-line reply and require it to start with `prefix`
    /// (`OK …`); anything else — `ERR`, a shed, a stray line — is a failed
    /// operation. Returns the reply.
    pub fn expect(&mut self, prefix: &str) -> Result<&str, String> {
        let line = self.read_line()?;
        if line.starts_with(prefix) {
            Ok(line)
        } else {
            Err(format!("expected {prefix:?}, got {line:?}"))
        }
    }

    /// Read a block reply (`OK <header>`, payload lines, lone `.`),
    /// appending the payload to `sink` when given. Returns the header.
    pub fn expect_block(&mut self, mut sink: Option<&mut String>) -> Result<String, String> {
        let header = self.expect("OK ")?.to_string();
        loop {
            let line = self.read_line()?;
            if line == "." {
                return Ok(header);
            }
            if let Some(sink) = sink.as_deref_mut() {
                sink.push_str(line);
                sink.push('\n');
            }
        }
    }

    /// One command, one single-line reply starting with `prefix`.
    pub fn call(&mut self, command: &str, prefix: &str) -> Result<String, String> {
        self.send(&format!("{command}\n"))?;
        self.expect(prefix)
            .map(str::to_string)
            .map_err(|e| format!("{command:?}: {e}"))
    }

    /// One command answered by a block; returns its payload text.
    pub fn call_block(&mut self, command: &str) -> Result<String, String> {
        self.send(&format!("{command}\n"))?;
        let mut payload = String::new();
        self.expect_block(Some(&mut payload))
            .map_err(|e| format!("{command:?}: {e}"))?;
        Ok(payload)
    }

    pub fn quit(mut self) {
        // Best effort: the server also closes on EOF when this drops.
        let _ = self.call("quit", "OK bye");
    }
}
