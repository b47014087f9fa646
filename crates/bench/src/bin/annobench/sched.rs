//! Open-loop pacing: steps are due on a fixed schedule whatever the
//! system under test is doing, and each is timed from when it was *due*,
//! so a stall is charged to every step it delays. How late the generator
//! itself started each step is accounted separately, so a slow client is
//! never mistaken for a slow server.

use std::time::{Duration, Instant};

/// Due times of a fixed-rate schedule, as offsets from its start. Each
/// due time carries a seeded jitter of up to a fifth of the period: a strictly
/// periodic client would phase-lock with the reactor's 1 ms park (every
/// request meeting the same point of the sleep cycle), and the measured
/// median would then be an accident of that phase, not a property of the
/// system. People do not arrive on a 10 ms grid either.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period: Duration,
    seed: u64,
}

impl Schedule {
    pub fn per_second(rate: f64, seed: u64) -> Schedule {
        Schedule {
            period: Duration::from_secs_f64(1.0 / rate),
            seed,
        }
    }

    /// Slot `i`'s jitter on `lane` (independent streams for the parts of
    /// a step): uniform in `[0, period/5)`, a pure function of the seed.
    pub fn jitter(&self, i: u64, lane: u64) -> Duration {
        // splitmix64 finaliser over (seed, lane, i).
        let mut z = self
            .seed
            .wrapping_add(lane.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let span = (self.period.as_nanos() as u64 / 5).max(1);
        Duration::from_nanos(z % span)
    }

    /// Start of slot `i`, before jitter.
    pub fn slot(&self, i: u64) -> Duration {
        // Multiply, never accumulate: rounding must not drift the rate.
        Duration::from_nanos((self.period.as_nanos() as u64).saturating_mul(i))
    }

    /// Offset from the schedule's start at which step `i` is due.
    pub fn due(&self, i: u64) -> Duration {
        self.slot(i) + self.jitter(i, 0)
    }

    /// Steps due within `window` of the start (step 0 is due at once).
    pub fn steps_within(&self, window: Duration) -> u64 {
        (window.as_nanos() / self.period.as_nanos().max(1)) as u64
    }
}

/// How late the generator started its steps. A step started at or before
/// its due time is on time (lateness zero), never "early".
#[derive(Debug, Default)]
pub struct Lateness {
    late: Vec<Duration>,
}

impl Lateness {
    /// Slack below which a start counts as on time: one scheduler quantum
    /// of a sleeping thread, far below any latency this benchmark reports.
    pub const ON_TIME: Duration = Duration::from_micros(100);

    pub fn record(&mut self, due: Duration, started: Duration) {
        self.late.push(started.saturating_sub(due));
    }

    /// Per step, in order: was it started on time?
    pub fn on_time(&self) -> impl Iterator<Item = bool> + '_ {
        self.late.iter().map(|&d| d <= Self::ON_TIME)
    }

    pub fn max(&self) -> Duration {
        self.late.iter().copied().max().unwrap_or_default()
    }

    pub fn median(&self) -> Duration {
        let mut v = self.late.clone();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or_default()
    }
}

/// Block until `due`. Sleeps for all but the last stretch and spins that,
/// because a sleeping thread wakes a scheduler quantum late.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_jitter_but_do_not_drift() {
        let s = Schedule::per_second(100.0, 7);
        let fifth = Duration::from_millis(2);
        for i in [0u64, 1, 2, 1500, 100_000] {
            let grid = Duration::from_millis(10 * i);
            assert!(s.due(i) >= grid && s.due(i) < grid + fifth, "step {i}");
            assert_eq!(s.due(i), Schedule::per_second(100.0, 7).due(i));
        }
        let distinct: std::collections::BTreeSet<Duration> =
            (0..100).map(|i| s.jitter(i, 0)).collect();
        assert!(distinct.len() > 90, "jitter must vary from step to step");
        assert_ne!(s.jitter(3, 0), s.jitter(3, 1));
        assert_ne!(s.due(3), Schedule::per_second(100.0, 8).due(3));
        assert_eq!(s.steps_within(Duration::from_secs(2)), 200);
    }

    #[test]
    fn lateness_counts_only_starts_after_the_due_time() {
        let at = |ms| Duration::from_millis(ms);
        let mut late = Lateness::default();
        // On time, early (clamped to zero), then a 25 ms stall that also
        // delays the next step by 15 ms before the generator catches up.
        late.record(at(0), at(0));
        late.record(at(10), at(9));
        late.record(at(20), at(45));
        late.record(at(30), at(45));
        late.record(at(40), at(40));
        assert_eq!(
            late.on_time().collect::<Vec<_>>(),
            [true, true, false, false, true]
        );
        assert_eq!(late.max(), Duration::from_millis(25));
        assert_eq!(late.median(), Duration::ZERO);
    }
}
