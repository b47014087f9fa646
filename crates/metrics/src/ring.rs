//! A fixed-capacity time-series ring.
//!
//! A sampler thread calls [`Ring::push`] every N ms with a snapshot of
//! whatever counters it watches; the ring keeps the most recent
//! `capacity` samples, each stamped with milliseconds since the ring
//! was created. Readers walk a recent window ([`Ring::scan`]) and turn
//! two lifetime counter readings into a rate — the only way to answer
//! "drains per second *right now*" from monotone sums.
//!
//! The ring is mutex-guarded rather than lock-free: it is touched a few
//! times per second by one sampler and rarely by scrapes, never by the
//! serving hot paths.

// An out-of-bounds panic while a guard is live would poison the lock.
#![deny(clippy::indexing_slicing)]

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::Unpoisoned;

/// A bounded ring of timestamped samples. See the module docs.
#[derive(Debug)]
pub struct Ring<T> {
    epoch: Instant,
    capacity: usize,
    samples: Mutex<VecDeque<(u64, T)>>,
}

impl<T: Clone> Ring<T> {
    /// An empty ring holding at most `capacity` samples (min 2 — a
    /// single sample can never yield a rate).
    pub fn new(capacity: usize) -> Ring<T> {
        let capacity = capacity.max(2);
        Ring {
            epoch: Instant::now(),
            capacity,
            samples: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Milliseconds since the ring was created.
    pub fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Append a sample stamped with the current time, evicting the
    /// oldest once full. Returns the sample's timestamp.
    pub fn push(&self, value: T) -> u64 {
        let at = self.now_ms();
        let mut samples = self.samples.lock().unpoisoned("ring lock");
        if samples.len() == self.capacity {
            samples.pop_front();
        }
        samples.push_back((at, value));
        at
    }

    /// Visit the samples of the trailing `window_ms`, oldest first, in
    /// one pass under the ring's lock and without cloning any: a reader
    /// that rates a window needs its endpoints, not a copy of it. `visit`
    /// must not call back into this ring.
    pub fn scan(&self, window_ms: u64, mut visit: impl FnMut(u64, &T)) {
        let cutoff = self.now_ms().saturating_sub(window_ms);
        let samples = self.samples.lock().unpoisoned("ring lock");
        for (at, sample) in samples.iter().filter(|(at, _)| *at >= cutoff) {
            visit(*at, sample);
        }
    }

    /// Samples from the trailing `window_ms`, oldest first, cloned out.
    pub fn window(&self, window_ms: u64) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        self.scan(window_ms, |at, sample| out.push((at, sample.clone())));
        out
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(u64, T)> {
        self.samples.lock().unpoisoned("ring lock").back().cloned()
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.lock().unpoisoned("ring lock").len()
    }

    /// `true` when no sample has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-second rate of a monotone counter over `(timestamp ms, value)`
/// samples: `Δvalue / Δt` between the first and last sample. `None`
/// when fewer than two samples span the window, when no time elapsed
/// between them, or when the counter moved backwards (a restart).
pub fn windowed_rate(samples: &[(u64, u64)]) -> Option<f64> {
    let (t0, v0) = *samples.first()?;
    let (t1, v1) = *samples.last()?;
    if t1 <= t0 || v1 < v0 {
        return None;
    }
    Some((v1 - v0) as f64 * 1000.0 / (t1 - t0) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        let values: Vec<u64> = ring.window(u64::MAX).into_iter().map(|(_, v)| v).collect();
        assert_eq!(values, vec![2, 3, 4]);
        assert_eq!(ring.last().unwrap().1, 4);
    }

    #[test]
    fn rates_from_counter_samples() {
        // 100 counts over 2 seconds = 50/s, regardless of sample count.
        let samples = vec![(0u64, 0u64), (1000, 30), (2000, 100)];
        let rate = windowed_rate(&samples).unwrap();
        assert!((rate - 50.0).abs() < 1e-9, "rate={rate}");
        assert_eq!(windowed_rate(&[]), None);
        assert_eq!(windowed_rate(&[(0, 5)]), None);
        assert_eq!(windowed_rate(&[(0, 5), (0, 9)]), None, "zero elapsed");
        assert_eq!(windowed_rate(&[(0, 5), (10, 2)]), None, "counter reset");
    }

    #[test]
    fn window_filters_by_timestamp() {
        let ring: Ring<u64> = Ring::new(16);
        ring.push(1);
        // All pushes happen "now", so a zero-width window still sees
        // them and a huge window certainly does.
        assert_eq!(ring.window(u64::MAX).len(), 1);
        assert!(!ring.is_empty());
    }
}
