//! Per-run performance metrics (Figs. 10 and 11).

use serde::{Deserialize, Serialize};

use onoff_rrc::trace::{Timestamp, TraceEvent};

use crate::cellset::CsTimeline;
use crate::loops::LoopInstance;

/// Performance summary of one run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Total 5G ON time, ms.
    pub on_ms: u64,
    /// Total 5G OFF time, ms.
    pub off_ms: u64,
    /// Median download speed over 5G ON seconds, Mbps (None: never ON).
    pub median_on_mbps: Option<f64>,
    /// Median download speed over 5G OFF seconds, Mbps (None: never OFF).
    pub median_off_mbps: Option<f64>,
    /// Per-cycle statistics of every loop cycle: (cycle ms, off ms,
    /// off ratio, median ON Mbps, median OFF Mbps).
    pub cycle_stats: Vec<CycleStat>,
}

/// One loop cycle's impact numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleStat {
    /// Full cycle duration, ms.
    pub cycle_ms: u64,
    /// OFF duration, ms.
    pub off_ms: u64,
    /// OFF share.
    pub off_ratio: f64,
    /// Median speed while ON in this cycle, Mbps.
    pub on_mbps: Option<f64>,
    /// Median speed while OFF in this cycle, Mbps.
    pub off_mbps: Option<f64>,
    /// ON-minus-OFF speed loss, Mbps (None if either side is missing).
    pub loss_mbps: Option<f64>,
}

fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// Computes run metrics from the trace, timeline and detected loops.
pub fn run_metrics(events: &[TraceEvent], tl: &CsTimeline, loops: &[LoopInstance]) -> RunMetrics {
    let samples: Vec<(Timestamp, f64)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Throughput { t, mbps } => Some((*t, *mbps)),
            _ => None,
        })
        .collect();
    run_metrics_from_samples(&samples, tl, loops)
}

/// Computes run metrics from pre-extracted throughput samples — the only
/// thing the metrics need from the trace. Streaming callers accumulate the
/// (small) sample list instead of buffering every event.
///
/// Runs in O((samples + intervals + cycles) · log): each sample finds its
/// ON/OFF interval by binary search (the timeline's intervals are sorted
/// and contiguous), and each loop cycle's window is a `partition_point`
/// slice of a time-sorted copy of the samples. A window's median depends
/// only on the multiset of its speeds, so the result is bitwise what a
/// scan of every sample per interval and per cycle gives, in any sample
/// order.
pub fn run_metrics_from_samples(
    samples: &[(Timestamp, f64)],
    tl: &CsTimeline,
    loops: &[LoopInstance],
) -> RunMetrics {
    let onoff = tl.on_off_intervals();
    debug_assert!(
        onoff
            .windows(2)
            .all(|w| w[0].0 <= w[0].1 && w[0].1 <= w[1].0),
        "on/off intervals must be sorted and disjoint"
    );
    // The interval holding `t`, or the last one once `t` is past the
    // timeline's end; OFF before the first interval starts.
    let is_on_at = |t: Timestamp| -> bool {
        let i = onoff.partition_point(|(_, e, _)| *e <= t);
        match onoff.get(i) {
            Some((s, _, on)) => *s <= t && *on,
            None => onoff.last().is_some_and(|(_, _, on)| *on),
        }
    };

    let mut on_ms = 0u64;
    let mut off_ms = 0u64;
    for (s, e, on) in &onoff {
        if *on {
            on_ms += e.since(*s);
        } else {
            off_ms += e.since(*s);
        }
    }

    let mut on_speeds: Vec<f64> = Vec::new();
    let mut off_speeds: Vec<f64> = Vec::new();
    for &(t, mbps) in samples {
        if is_on_at(t) {
            on_speeds.push(mbps);
        } else {
            off_speeds.push(mbps);
        }
    }

    let mut cycle_stats = Vec::new();
    if loops.iter().any(|lp| !lp.cycles.is_empty()) {
        // Stable sort: streamed samples arrive in time order, so this is
        // a single linear pass over an already-sorted run.
        let mut by_time = samples.to_vec();
        by_time.sort_by_key(|(t, _)| *t);
        let mut window: Vec<f64> = Vec::new();
        let mut median_in = |from: Timestamp, to: Timestamp| {
            let lo = by_time.partition_point(|(t, _)| *t < from);
            let hi = by_time.partition_point(|(t, _)| *t < to).max(lo);
            window.clear();
            window.extend(by_time[lo..hi].iter().map(|(_, m)| *m));
            median(&mut window)
        };
        for c in loops.iter().flat_map(|lp| &lp.cycles) {
            let on_mbps = median_in(c.on_at, c.off_at);
            let off_mbps = median_in(c.off_at, c.end_at);
            cycle_stats.push(CycleStat {
                cycle_ms: c.cycle_ms(),
                off_ms: c.off_ms(),
                off_ratio: c.off_ratio(),
                on_mbps,
                off_mbps,
                loss_mbps: match (on_mbps, off_mbps) {
                    (Some(a), Some(b)) => Some(a - b),
                    _ => None,
                },
            });
        }
    }

    RunMetrics {
        on_ms,
        off_ms,
        median_on_mbps: median(&mut on_speeds),
        median_off_mbps: median(&mut off_speeds),
        cycle_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellset::CsSample;
    use crate::loops::Cycle;
    use onoff_rrc::ids::{CellId, Pci};
    use onoff_rrc::serving::ServingCellSet;
    use onoff_rrc::trace::Timestamp;

    fn timeline() -> CsTimeline {
        // OFF [0,10s), ON [10s,40s), OFF [40s,60s].
        CsTimeline {
            sets: vec![
                ServingCellSet::idle(),
                ServingCellSet::with_pcell(CellId::nr(Pci(1), 521310)),
            ],
            samples: vec![
                CsSample {
                    t: Timestamp(0),
                    id: 0,
                },
                CsSample {
                    t: Timestamp::from_secs(10),
                    id: 1,
                },
                CsSample {
                    t: Timestamp::from_secs(40),
                    id: 0,
                },
            ],
            end: Timestamp::from_secs(60),
        }
    }

    fn tp(t_s: u64, mbps: f64) -> TraceEvent {
        TraceEvent::Throughput {
            t: Timestamp::from_secs(t_s),
            mbps,
        }
    }

    #[test]
    fn on_off_durations() {
        let m = run_metrics(&[], &timeline(), &[]);
        assert_eq!(m.on_ms, 30_000);
        assert_eq!(m.off_ms, 30_000);
    }

    #[test]
    fn speed_medians_split_by_state() {
        let events = vec![
            tp(5, 0.0),
            tp(15, 100.0),
            tp(20, 200.0),
            tp(25, 300.0),
            tp(50, 1.0),
        ];
        let m = run_metrics(&events, &timeline(), &[]);
        assert_eq!(m.median_on_mbps, Some(200.0));
        assert_eq!(m.median_off_mbps, Some(0.5));
    }

    #[test]
    fn cycle_stats_and_loss() {
        let lp = LoopInstance {
            block: vec![1, 0],
            episode_period: 1,
            repetitions: 2,
            persistence: crate::loops::Persistence::Persistent,
            start: Timestamp::from_secs(10),
            end: Timestamp::from_secs(60),
            cycles: vec![Cycle {
                on_at: Timestamp::from_secs(10),
                off_at: Timestamp::from_secs(40),
                end_at: Timestamp::from_secs(60),
            }],
            degraded: false,
        };
        let events = vec![tp(15, 180.0), tp(20, 220.0), tp(45, 0.0), tp(50, 0.0)];
        let m = run_metrics(&events, &timeline(), &[lp]);
        assert_eq!(m.cycle_stats.len(), 1);
        let c = &m.cycle_stats[0];
        assert_eq!(c.cycle_ms, 50_000);
        assert_eq!(c.off_ms, 20_000);
        assert_eq!(c.on_mbps, Some(200.0));
        assert_eq!(c.off_mbps, Some(0.0));
        assert_eq!(c.loss_mbps, Some(200.0));
        assert!((c.off_ratio - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_run() {
        let tl = CsTimeline {
            sets: vec![ServingCellSet::idle()],
            samples: vec![CsSample {
                t: Timestamp(0),
                id: 0,
            }],
            end: Timestamp(0),
        };
        let m = run_metrics(&[], &tl, &[]);
        assert_eq!(m.on_ms, 0);
        assert_eq!(m.median_on_mbps, None);
        assert!(m.cycle_stats.is_empty());
    }

    /// The quadratic scan [`run_metrics_from_samples`] replaced, kept as
    /// its oracle: every interval scanned per sample, every sample
    /// scanned per cycle.
    fn scan_oracle(
        samples: &[(Timestamp, f64)],
        tl: &CsTimeline,
        loops: &[LoopInstance],
    ) -> RunMetrics {
        let onoff = tl.on_off_intervals();
        let is_on_at = |t: Timestamp| -> bool {
            onoff
                .iter()
                .find(|(s, e, _)| t >= *s && t < *e)
                .or(onoff.last().filter(|(_, e, _)| t >= *e))
                .map(|(_, _, on)| *on)
                .unwrap_or(false)
        };
        let mut on_ms = 0u64;
        let mut off_ms = 0u64;
        for (s, e, on) in &onoff {
            if *on {
                on_ms += e.since(*s);
            } else {
                off_ms += e.since(*s);
            }
        }
        let (mut on_speeds, mut off_speeds): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        for &(t, mbps) in samples {
            if is_on_at(t) {
                on_speeds.push(mbps);
            } else {
                off_speeds.push(mbps);
            }
        }
        let window = |from: Timestamp, to: Timestamp| -> Vec<f64> {
            samples
                .iter()
                .filter(|(t, _)| *t >= from && *t < to)
                .map(|(_, m)| *m)
                .collect()
        };
        let mut cycle_stats = Vec::new();
        for c in loops.iter().flat_map(|lp| &lp.cycles) {
            let on_mbps = median(&mut window(c.on_at, c.off_at));
            let off_mbps = median(&mut window(c.off_at, c.end_at));
            cycle_stats.push(CycleStat {
                cycle_ms: c.cycle_ms(),
                off_ms: c.off_ms(),
                off_ratio: c.off_ratio(),
                on_mbps,
                off_mbps,
                loss_mbps: match (on_mbps, off_mbps) {
                    (Some(a), Some(b)) => Some(a - b),
                    _ => None,
                },
            });
        }
        RunMetrics {
            on_ms,
            off_ms,
            median_on_mbps: median(&mut on_speeds),
            median_off_mbps: median(&mut off_speeds),
            cycle_stats,
        }
    }

    /// Every number of a `RunMetrics` as raw bits, so NaN speeds compare.
    fn bits(m: &RunMetrics) -> Vec<u64> {
        let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
        let mut v = vec![
            m.on_ms,
            m.off_ms,
            opt(m.median_on_mbps),
            opt(m.median_off_mbps),
        ];
        for c in &m.cycle_stats {
            v.extend([
                c.cycle_ms,
                c.off_ms,
                c.off_ratio.to_bits(),
                opt(c.on_mbps),
                opt(c.off_mbps),
                opt(c.loss_mbps),
            ]);
        }
        v
    }

    proptest::proptest! {
        /// Bitwise agreement with the scan on random timelines, unsorted
        /// samples (duplicate times, NaN speeds) and cycles whose windows
        /// may be empty or inverted. Every time is a whole second, so
        /// samples often sit exactly on interval and window bounds.
        #[test]
        fn matches_the_scan_oracle(
            steps in proptest::collection::vec((0u64..5, 0usize..3), 1..12),
            tail in 0u64..5,
            samples in proptest::collection::vec((0u64..60, 0.0f64..300.0, 0u8..10), 0..40),
            cycles in proptest::collection::vec((0u64..60, 0u64..60, 0u64..60), 0..6),
        ) {
            let s = Timestamp::from_secs;
            let nr = |pci| ServingCellSet::with_pcell(CellId::nr(Pci(pci), 521310));
            let mut t = 0;
            let tl = CsTimeline {
                sets: vec![ServingCellSet::idle(), nr(1), nr(2)],
                samples: steps
                    .iter()
                    .map(|&(dt, id)| {
                        t += dt;
                        CsSample { t: s(t), id }
                    })
                    .collect(),
                end: s(t + tail),
            };
            // One sample in ten reads NaN.
            let samples: Vec<(Timestamp, f64)> = samples
                .into_iter()
                .map(|(t, m, k)| (s(t), if k == 0 { f64::NAN } else { m }))
                .collect();
            let lp = LoopInstance {
                block: vec![1, 0],
                episode_period: 1,
                repetitions: 2,
                persistence: crate::loops::Persistence::Persistent,
                start: Timestamp(0),
                end: Timestamp(60_000),
                cycles: cycles
                    .into_iter()
                    .map(|(a, b, c)| Cycle {
                        on_at: s(a),
                        off_at: s(b),
                        end_at: s(c),
                    })
                    .collect(),
                degraded: false,
            };
            let loops = [lp];
            proptest::prop_assert_eq!(
                bits(&run_metrics_from_samples(&samples, &tl, &loops)),
                bits(&scan_oracle(&samples, &tl, &loops))
            );
        }
    }

    #[test]
    fn nan_throughput_does_not_panic_the_median() {
        let mut xs = [2.0, f64::NAN, 1.0];
        // total_cmp sorts the NaN last; the median over three samples is
        // the middle finite value.
        assert_eq!(median(&mut xs), Some(2.0));
        let mut empty: [f64; 0] = [];
        assert_eq!(median(&mut empty), None);
    }
}
