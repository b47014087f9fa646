//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus the highest percentile the
//! sample can support: at least [`TAIL_MIN_BEYOND`] observations must lie
//! beyond it, so a "p99" from 200 samples is never printed as if 2
//! observations defined it.

use std::time::Duration;

/// Observations that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based rank of the highest order statistic that is at most the
/// `cap` percentile and still has `min_beyond` of `n` samples beyond it;
/// `None` when even the median has fewer than that beyond it. Integer
/// arithmetic throughout, so the guarantee survives rounding.
pub fn tail_rank(n: usize, cap: f64, min_beyond: usize) -> Option<usize> {
    if n < 2 * min_beyond {
        return None;
    }
    let cap_rank = ((cap * n as f64) - 1e-9).ceil() as usize;
    Some(cap_rank.clamp(n.div_ceil(2), n - min_beyond))
}

/// The value at fraction `p` of an ascending-sorted sample (nearest rank).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median and supported tail of one timing series, in the series' unit.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail percentile actually reported (fraction), see
    /// [`tail_rank`]; equals 0.5 when the sample supports no tail.
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarise `values`; the tail is capped at `cap` (e.g. 0.99).
    pub fn of(values: &[f64], cap: f64) -> Summary {
        Summary::with_beyond(values, cap, TAIL_MIN_BEYOND)
    }

    /// [`Summary::of`] for one of several equal samples whose summaries
    /// are averaged: `min_beyond` is this sample's share of
    /// [`TAIL_MIN_BEYOND`].
    pub fn with_beyond(values: &[f64], cap: f64, min_beyond: usize) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = percentile(&v, 0.5);
        let (tail_p, tail) = match tail_rank(v.len(), cap, min_beyond) {
            Some(rank) => (rank as f64 / v.len() as f64, v[rank - 1]),
            None => (0.5, p50),
        };
        Summary {
            n: v.len(),
            p50,
            tail_p,
            tail,
        }
    }
}

pub fn as_ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn as_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let rank = |n, cap| tail_rank(n, cap, TAIL_MIN_BEYOND);
        assert_eq!(rank(19, 0.99), None);
        // 20 samples: the median is the highest percentile with 10 beyond.
        assert_eq!(rank(20, 0.99), Some(10));
        assert_eq!(rank(200, 0.99), Some(190));
        // 1000 samples are the first to support a p99 …
        assert_eq!(rank(999, 0.99), Some(989));
        assert_eq!(rank(1000, 0.99), Some(990));
        // … and more samples never push past the cap.
        assert_eq!(rank(100_000, 0.99), Some(99_000));
        // A quarter of a sample of 240 supports the p95 of the whole.
        assert_eq!(tail_rank(60, 0.95, 3), Some(57));
    }

    #[test]
    fn reported_tail_has_ten_samples_beyond_it() {
        for n in [20usize, 57, 200, 999, 1000, 3000] {
            let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let s = Summary::of(&values, 0.99);
            let beyond = values.iter().filter(|&&v| v > s.tail).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond {s:?}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
