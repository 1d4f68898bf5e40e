//! Open-loop arrival schedule.
//!
//! Request `k` of a connection is due `k / rate` seconds after the phase
//! starts, whether or not earlier requests were answered. The generator
//! wakes once per millisecond tick (or sooner, when a response arrives)
//! and sends everything due by then, instead of sleeping once per
//! request: a per-request sleep overshoots by the timer slack on every
//! request and the error accumulates. Latency is measured from the due
//! time, so a stall also charges the requests queued behind it, and the
//! generator's own lateness is reported beside it.

use std::time::Duration;

/// The generator's scheduling quantum.
pub const TICK: Duration = Duration::from_millis(1);

/// A fixed-rate schedule for one connection.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// `rate` requests per second (must be positive).
    pub fn new(rate: f64) -> Schedule {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Schedule { rate }
    }

    /// When request `k` is due, from the phase start.
    pub fn due(&self, k: u64) -> Duration {
        Duration::from_nanos((k as f64 * 1e9 / self.rate).ceil() as u64)
    }

    /// How many requests are due at `elapsed` after the phase start.
    pub fn due_by(&self, elapsed: Duration) -> u64 {
        // The epsilon absorbs float rounding so a request counts as due at
        // exactly its own (rounded-up) due time.
        (elapsed.as_nanos() as f64 * self.rate / 1e9 + 1e-6).floor() as u64 + 1
    }

    /// How long the generator may wait for responses before it must wake
    /// to send again: until the next request is due, at most one tick.
    pub fn wait(&self, sent: u64, elapsed: Duration) -> Duration {
        self.due(sent).saturating_sub(elapsed).min(TICK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = Schedule::new(2000.0);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_micros(500));
        assert_eq!(s.due(2000), Duration::from_secs(1));
    }

    #[test]
    fn due_by_counts_requests_whose_time_has_come() {
        let s = Schedule::new(1000.0);
        assert_eq!(s.due_by(Duration::ZERO), 1);
        assert_eq!(s.due_by(Duration::from_micros(999)), 1);
        assert_eq!(s.due_by(Duration::from_millis(1)), 2);
        // A tick that wakes 5 ms late releases the 5 overdue requests at
        // once; their due times stay where the schedule put them.
        assert_eq!(s.due_by(Duration::from_micros(5_500)), 6);
        for k in 0..10_000 {
            assert!(
                s.due_by(s.due(k)) > k,
                "request {k} is due at its own due time"
            );
        }
    }

    #[test]
    fn wait_never_exceeds_a_tick() {
        let s = Schedule::new(100.0);
        assert_eq!(s.wait(1, Duration::ZERO), TICK);
        assert_eq!(
            s.wait(1, Duration::from_micros(9_600)),
            Duration::from_micros(400)
        );
        assert_eq!(s.wait(1, Duration::from_millis(20)), Duration::ZERO);
        let fast = Schedule::new(1e6);
        assert_eq!(fast.wait(5, Duration::ZERO), Duration::from_micros(5));
    }
}
