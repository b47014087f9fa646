//! `blocking-in-reactor`: shard loops must not block.
//!
//! A shard multiplexes every connection hashed to it; one blocking call
//! (a contended mutex, a blocking channel `recv`, an unbounded read, a
//! sleep) stalls *all* of them. This rule is textual and file-scoped on
//! purpose: it scans the functions of the shard loops' file
//! (`reactor.rs`), not the engine they call into — the engine's
//! admission layer (`try_enqueue` + typed `Overloaded`) is the approved
//! way a queued write crosses from the shard into the blocking world.
//! The verbs that wait by design (`mine`, `flush`, `checkpoint`, …) run
//! behind `Engine::handle` and are out of its sight.
//!
//! Deliberate waits (the bounded idle park in `shard_loop`) carry a
//! pragma with the reason inline.

use crate::model::{FileKind, Model};
use crate::Finding;

const RULE: &str = "blocking-in-reactor";

/// Calls that park or block the calling thread.
const BLOCKING_CALLS: [&str; 9] = [
    "sleep",
    "recv",
    "recv_timeout",
    "read_to_end",
    "read_to_string",
    "wait",
    "wait_timeout",
    "wait_while",
    "park",
];

/// The blocking write-queue entry point; event loops must use
/// `try_enqueue` (which sheds with a typed `Overloaded`) instead.
const BLOCKING_ENQUEUE: &str = "enqueue";

pub fn run(model: &Model) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &model.functions {
        if f.is_test {
            continue;
        }
        let file = &model.files[f.file];
        if file.kind != FileKind::Production {
            continue;
        }
        if file.stem() != "reactor" {
            continue;
        }
        for c in &f.calls {
            let blocking = BLOCKING_CALLS.contains(&c.name.as_str());
            let blocking_enqueue = c.name == BLOCKING_ENQUEUE;
            if !(blocking || blocking_enqueue) {
                continue;
            }
            let (line, col) = file.line_col(c.offset);
            let why = if blocking_enqueue {
                "blocking `enqueue` parks the event loop on one tenant's backpressure; use `try_enqueue` and shed with `Overloaded`"
            } else {
                "this call can block the shard's event loop, stalling every connection on the shard"
            };
            findings.push(Finding {
                rule: RULE,
                path: file.path.to_string_lossy().into_owned(),
                line,
                col,
                message: format!("`{}(…)` in `{}`: {}", c.name, f.name, why),
            });
        }
        for a in &f.acquisitions {
            let (line, col) = file.line_col(a.offset);
            if a.method.starts_with("try_") {
                continue; // non-blocking by construction
            }
            findings.push(Finding {
                rule: RULE,
                path: file.path.to_string_lossy().into_owned(),
                line,
                col,
                message: format!(
                    "`{}` acquired with `.{}()` in `{}`: a contended lock blocks the shard's event loop (use a try_ variant or move the work off-loop)",
                    a.lock, a.method, f.name
                ),
            });
        }
    }
    findings
}
