//! A bounded journal of rare maintenance events.
//!
//! Counters say *how much*; the journal says *what happened, in what
//! order*: an auto-checkpoint fired, recovery truncated a damaged tail,
//! a dataset fenced itself. Entries carry a monotonic sequence number
//! (gap-free, so a reader can tell eviction from quiescence) and a
//! coarse wall-clock timestamp. The buffer is bounded: old entries fall
//! off, the journal never grows, and recording never blocks on a
//! reader for long (one short mutex).

// An out-of-bounds panic while a guard is live would poison the lock.
#![deny(clippy::indexing_slicing)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::Unpoisoned;

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic 1-based sequence number within this journal.
    pub seq: u64,
    /// Milliseconds since the Unix epoch at record time (coarse: the
    /// journal is for operators, not for ordering — `seq` orders).
    pub unix_ms: u64,
    /// Stable machine-readable kind, e.g. `auto_checkpoint`.
    pub kind: &'static str,
    /// Human-readable details (`key=value` pairs by convention).
    pub detail: String,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} t={} {} {}",
            self.seq, self.unix_ms, self.kind, self.detail
        )
    }
}

/// A bounded, append-only event journal. See the module docs.
#[derive(Debug)]
pub struct EventJournal {
    seq: AtomicU64,
    capacity: usize,
    events: Mutex<VecDeque<Event>>,
}

impl EventJournal {
    /// An empty journal retaining the most recent `capacity` events.
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Append an event; evicts the oldest when full. Returns the new
    /// event's sequence number.
    pub fn record(&self, kind: &'static str, detail: String) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let event = Event {
            seq,
            unix_ms,
            kind,
            detail,
        };
        let mut events = self.events.lock().unpoisoned("journal lock");
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event);
        seq
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let events = self.events.lock().unpoisoned("journal lock");
        events
            .iter()
            .skip(events.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Events ever recorded (≥ events currently retained).
    pub fn total(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_gap_free_seqs() {
        let j = EventJournal::new(8);
        for i in 0..5 {
            j.record("tick", format!("i={i}"));
        }
        let events = j.recent(16);
        assert_eq!(events.len(), 5);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(events[0].detail, "i=0");
        assert_eq!(j.total(), 5);
    }

    #[test]
    fn bounded_capacity_evicts_oldest() {
        let j = EventJournal::new(3);
        for i in 0..10 {
            j.record("tick", format!("i={i}"));
        }
        let events = j.recent(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 8, "oldest retained is #8");
        assert_eq!(j.total(), 10, "total counts evicted events too");
        assert_eq!(j.recent(1).len(), 1);
        assert_eq!(j.recent(1)[0].seq, 10);
    }

    #[test]
    fn display_is_line_oriented() {
        let j = EventJournal::new(2);
        j.record("auto_checkpoint", "position=1/64".to_string());
        let line = j.recent(1)[0].to_string();
        assert!(line.starts_with("#1 t="));
        assert!(line.ends_with("auto_checkpoint position=1/64"));
    }
}
