//! Order statistics and failure accounting shared by every workload.

/// Nearest-rank percentile of `samples` (`p` in 0..=100): the smallest
/// sample with at least `p`% of all samples at or below it. Sorts in
/// place; `None` when there are no samples.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// The median (nearest-rank 50th percentile), or 0 for no samples.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The rate of a run's fastest window (the largest per-window rate), or 0
/// for no windows.
///
/// On a shared host the speed of identical code drifts by tens of percent
/// over minutes. Over seven 20-s blocks of a fixed 0.2-s CPU loop on a
/// 2-vCPU VM, the quartile distance over the median was 0.34 for the
/// blocks' median loop time, 0.18 for their fastest tenth and 0.07 for
/// their fastest loop. The fastest window is the one other tenants
/// disturbed least, so it moves least between runs. A window cannot read
/// faster than the program is: a stall only delays work into a later
/// window, by at most the work in flight.
pub fn fastest_rate(per_window: &[f64]) -> f64 {
    per_window.iter().copied().fold(0.0, f64::max)
}

/// The time of a run's fastest window (the smallest per-window time), or
/// 0 for no windows; see [`fastest_rate`].
pub fn fastest_time(per_window: &[f64]) -> f64 {
    per_window.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// How many samples lie strictly above the nearest-rank `p`th percentile:
/// the sample support a reported tail percentile rests on.
pub fn beyond(samples: &mut [f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(v) => samples.iter().filter(|&&s| s > v).count(),
        None => 0,
    }
}

/// Attempted and failed operations of one run. A failed operation is one
/// the system refused or never answered; wrong answers are not counted
/// here, they fail the whole run instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations issued.
    pub attempted: u64,
    /// Operations shed, answered with an error, or left unanswered.
    pub failed: u64,
}

impl Outcomes {
    /// Counts one operation, failed or not.
    pub fn record(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Adds another tally.
    pub fn absorb(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(beyond(&mut v, 99.0), 1);
        assert_eq!(beyond(&mut v, 90.0), 10);
    }

    #[test]
    fn small_and_empty_samples() {
        let mut one = vec![7.5];
        assert_eq!(percentile(&mut one, 99.0), Some(7.5));
        assert_eq!(median(&mut one), 7.5);
        let mut none: Vec<f64> = Vec::new();
        assert_eq!(percentile(&mut none, 50.0), None);
        assert_eq!(median(&mut none), 0.0);
        let mut three = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut three), 2.0);
        let mut four = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(
            median(&mut four),
            2.0,
            "nearest rank takes the lower middle"
        );
    }

    #[test]
    fn fastest_window() {
        assert_eq!(fastest_rate(&[3.0, 5.0, 4.0]), 5.0);
        assert_eq!(fastest_time(&[3.0, 5.0, 2.5, 4.0]), 2.5);
        assert_eq!(fastest_rate(&[]), 0.0);
        assert_eq!(fastest_time(&[]), 0.0);
    }

    #[test]
    fn fail_ratio_counts_every_attempt() {
        let mut a = Outcomes::default();
        assert_eq!(a.fail_ratio(), 0.0);
        a.record(false);
        a.record(true);
        a.record(false);
        a.record(false);
        assert_eq!((a.attempted, a.failed), (4, 1));
        assert_eq!(a.fail_ratio(), 0.25);
        let mut b = Outcomes {
            attempted: 6,
            failed: 4,
        };
        b.absorb(a);
        assert_eq!((b.attempted, b.failed), (10, 5));
        assert_eq!(b.fail_ratio(), 0.5);
    }
}
