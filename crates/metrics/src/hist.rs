//! Lock-free log-linear histograms.
//!
//! Values are binned into a fixed array of [`BUCKETS`] relaxed
//! `AtomicU64` counters. Bucket widths are log-linear: values below 16
//! get a bucket each (exact), and every power of two above that is split
//! into 8 linear sub-buckets, so any recorded value lands in a bucket
//! whose bounds are within 12.5 % of it — tight enough for latency
//! quantiles, small enough (≈ 4 KiB per histogram) to embed one per
//! metric per dataset.
//!
//! [`Histogram::record`] is two relaxed `fetch_add`s and a handful of
//! bit operations: no locks, no allocation, no compare-and-swap loops —
//! safe to leave on in the hottest paths. All derived statistics
//! (count, quantiles, max, mean) are computed from a frozen
//! [`HistogramSnapshot`], never from the live array.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power of two splits into `1 << SUB`
/// linear buckets (8), bounding relative error at `1 / (1 << SUB)`.
const SUB: u32 = 3;

/// Values below this are binned exactly (one bucket per value).
const LINEAR_MAX: u64 = 1 << (SUB + 1);

/// Total bucket count; index [`BUCKETS`]` - 1` holds values up to
/// `u64::MAX`.
pub const BUCKETS: usize = (((63 - SUB) as usize + 1) << SUB) + (1 << SUB);

/// The bucket index `v` lands in. Monotone in `v` and total: every
/// `u64` maps to a valid index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let sub = (v >> (msb - u64::from(SUB))) & ((1 << SUB) - 1);
        (((msb - u64::from(SUB)) << SUB) + (1 << SUB) + sub) as usize
    }
}

/// Inclusive upper bound of bucket `idx` — the value quantile queries
/// report for a hit in that bucket.
#[inline]
pub fn bucket_bound(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let group = (idx >> SUB) as u64;
        let sub = (idx & ((1 << SUB) - 1)) as u64;
        let msb = group + u64::from(SUB) - 1;
        let width = 1u64 << (msb - u64::from(SUB));
        (1u64 << msb) + sub * width + (width - 1)
    }
}

/// A lock-free log-linear histogram. See the module docs.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its bucket array once).
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Two relaxed `fetch_add`s; never blocks.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Freeze the current contents. Concurrent recorders may land
    /// between bucket loads; each observation is still counted exactly
    /// once by some snapshot (the counters are monotone).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`]; all statistics read from here.
/// The default is the snapshot of a histogram nothing was recorded in.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Total observations recorded at snapshot time.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest observation,
    /// so the estimate is within one bucket (≤ 12.5 %) of the exact
    /// order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(idx);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_bound)
            .unwrap_or(0)
    }

    /// `(inclusive upper bound, cumulative count)` for every non-empty
    /// bucket, in increasing bound order — the shape Prometheus
    /// histogram exposition (`le` series) wants.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((bucket_bound(idx), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_total_monotone_and_tight() {
        let mut prev = 0usize;
        let probes: Vec<u64> = (0..LINEAR_MAX)
            .chain((4..64).flat_map(|p: u32| {
                let base = 1u64 << p;
                [
                    base - 1,
                    base,
                    base + 1,
                    base + (base >> 2),
                    base + (base >> 1),
                ]
            }))
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        for v in sorted {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= prev, "index not monotone at {v}");
            prev = idx;
            let upper = bucket_bound(idx);
            assert!(upper >= v, "bound {upper} below value {v}");
            // Log-linear tightness: the bound overshoots by < 12.5 %.
            assert!(
                upper - v <= v / (1 << SUB) + 1,
                "bucket too wide at {v}: bound {upper}"
            );
        }
    }

    #[test]
    fn bounds_partition_the_domain() {
        // Each bucket's bound + 1 must land in the next bucket: no gaps,
        // no overlaps.
        for idx in 0..BUCKETS - 1 {
            let upper = bucket_bound(idx);
            assert_eq!(bucket_index(upper), idx);
            assert_eq!(bucket_index(upper + 1), idx + 1);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_track_known_distributions() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sum(), 500_500);
        let p50 = s.quantile(0.5);
        assert!((450..=580).contains(&p50), "p50={p50}");
        let p99 = s.quantile(0.99);
        assert!((980..=1120).contains(&p99), "p99={p99}");
        assert!(s.max() >= 1000 && s.max() <= 1024 + 128);
        assert!(s.quantile(0.0) >= 1);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0);
        assert!(s.cumulative().is_empty());
    }

    #[test]
    fn cumulative_is_increasing_and_totals() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 100, 100_000, u64::MAX] {
            h.record(v);
        }
        let cum = h.snapshot().cumulative();
        assert_eq!(cum.last().unwrap().1, 6);
        for pair in cum.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 < pair[1].1);
        }
    }
}
