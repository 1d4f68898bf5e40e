//! Incremental analysis: feed trace events as they arrive (live capture,
//! tailing a log, fused simulator output) and query the current state at
//! any point.
//!
//! Two layers:
//!
//! * [`TraceAnalyzer`] — the **incremental core**. It expects events in
//!   nondecreasing timestamp order and advances all four automata —
//!   cell-set replay ([`TimelineBuilder`]), episode splitting, transition
//!   classification ([`OffClassifier`]) and throughput accumulation — in
//!   one O(1)-amortized `feed` per event. Nothing is buffered and nothing
//!   is recomputed: memory is bounded by the classifier's 20 s evidence
//!   window plus the (compressed) timeline itself.
//! * [`StreamingAnalyzer`] — a tolerant front over the core for real
//!   feeds, adding a **bounded reorder buffer**: events may arrive up to
//!   [`REORDER_HORIZON_MS`] late (or until [`REORDER_CAP`] events pile up)
//!   and are re-sorted before reaching the core. Queries flush the buffer.
//!
//! Batch analysis ([`crate::analyze_trace`]) is the same core driven over
//! a slice, so streaming cannot drift from batch — equivalence under
//! arbitrary chunkings and bounded jitter is enforced by proptests.

use std::collections::VecDeque;

use onoff_predict::scoring::{OnlineScorer, PredictionReport, ScoringConfig};
use onoff_rrc::serving::ConnState;
use onoff_rrc::trace::{Timestamp, TraceEvent};

use crate::cellset::{CsSample, TimelineBuilder};
use crate::classify::{LoopType, OffClassifier, OffTransition};
use crate::degrade::DegradationReport;
use crate::loops::{EpisodeTracker, LoopInstance};
use crate::metrics::run_metrics_from_samples;
use crate::RunAnalysis;

/// How late (ms behind the newest seen timestamp) an event may arrive and
/// still be sorted into place by [`StreamingAnalyzer`].
pub const REORDER_HORIZON_MS: u64 = 5_000;

/// Hard cap on the reorder buffer: once this many events are pending the
/// oldest is released regardless of the horizon, bounding memory on
/// adversarial feeds.
pub const REORDER_CAP: usize = 1_024;

/// The incremental analysis core: one pass, amortized O(1) per event.
///
/// Feed events in nondecreasing timestamp order ([`StreamingAnalyzer`]
/// wraps this with a reorder buffer for feeds that can't promise that).
/// Out-of-order input never panics and never distorts the timeline:
/// an event whose timestamp runs backwards is **quarantined** — clamped
/// up to the newest timestamp already processed, counted in the
/// [`DegradationReport`], and the episode it lands in is flagged so loops
/// built from it carry [`LoopInstance::degraded`]. Batch analysis
/// ([`crate::analyze_trace`]) inherits exactly the same behavior on an
/// unsorted slice.
pub struct TraceAnalyzer {
    timeline: TimelineBuilder,
    episodes: EpisodeTracker,
    classifier: OffClassifier,
    /// Throughput samples — all the metrics stage needs from the trace.
    throughput: Vec<(Timestamp, f64)>,
    events_seen: usize,
    /// Most recent compressed timeline sample (starts at the implicit
    /// IDLE sample).
    cur_sample: CsSample,
    /// Interned set id in effect just before `cur_sample.t` — the
    /// "serving set before the transition" classification pivots on.
    id_before_cur: usize,
    /// Newest timestamp processed — the clamp level for backwards events.
    max_t: Timestamp,
    /// Quarantine counters (`degraded_episodes` is filled on query).
    degradation: DegradationReport,
    /// Optional online loop-proneness scorer — fed the identical event
    /// sequence the automata see, so batch and streaming predictions are
    /// bitwise-identical by construction.
    scorer: Option<OnlineScorer>,
}

impl Default for TraceAnalyzer {
    fn default() -> Self {
        TraceAnalyzer::new()
    }
}

impl TraceAnalyzer {
    /// New, empty core.
    pub fn new() -> TraceAnalyzer {
        TraceAnalyzer {
            timeline: TimelineBuilder::new(),
            episodes: EpisodeTracker::new(),
            classifier: OffClassifier::new(),
            throughput: Vec::new(),
            events_seen: 0,
            cur_sample: CsSample {
                t: Timestamp(0),
                id: 0,
            },
            id_before_cur: 0,
            max_t: Timestamp(0),
            degradation: DegradationReport::default(),
            scorer: None,
        }
    }

    /// A core with the online prediction stage enabled.
    pub fn with_scoring(config: ScoringConfig) -> TraceAnalyzer {
        let mut a = TraceAnalyzer::new();
        a.enable_scoring(config);
        a
    }

    /// Enables (or reconfigures) the online prediction stage. Events fed
    /// from here on are scored; already-processed events are not replayed.
    pub fn enable_scoring(&mut self, config: ScoringConfig) {
        self.scorer = Some(OnlineScorer::new(config));
    }

    /// Returns the core to its freshly-constructed state while keeping
    /// every internal buffer's capacity — and the scorer's warmed maps,
    /// via [`OnlineScorer::reset_session`] — so a pooled core replays a
    /// new run without reallocating.
    ///
    /// Reset-safety contract (see DESIGN.md §16): every piece of per-run
    /// state listed in the struct must be cleared here; anything retained
    /// may only be capacity, never content. A reset core is
    /// observationally identical to a fresh one (pinned by the pooled
    /// differential tests), so results cannot depend on the reuse.
    pub fn reset(&mut self) {
        self.timeline.reset();
        self.episodes.reset();
        self.classifier.reset();
        self.throughput.clear();
        self.events_seen = 0;
        self.cur_sample = CsSample {
            t: Timestamp(0),
            id: 0,
        };
        self.id_before_cur = 0;
        self.max_t = Timestamp(0);
        self.degradation = DegradationReport::default();
        if let Some(s) = &mut self.scorer {
            s.reset_session();
        }
    }

    /// A point-in-time prediction snapshot, when scoring is enabled.
    pub fn predictions(&self) -> Option<PredictionReport> {
        self.scorer.as_ref().map(|s| s.report())
    }

    /// Advances every automaton with one event.
    ///
    /// If the event's timestamp runs backwards it is quarantined: clamped
    /// up to the newest timestamp already processed and counted in the
    /// [`DegradationReport`] (plus `late_events` when it is more than
    /// [`REORDER_HORIZON_MS`] behind — too late for any bounded reorder
    /// buffer to have repaired).
    pub fn feed(&mut self, ev: &TraceEvent) {
        let t = ev.t();
        if t < self.max_t {
            self.degradation.clamped_events += 1;
            if t.millis() + REORDER_HORIZON_MS <= self.max_t.millis() {
                self.degradation.late_events += 1;
            }
            self.episodes.mark_degraded();
            self.feed_in_order(&ev.with_t(self.max_t));
        } else {
            self.feed_in_order(ev);
        }
    }

    /// Advances the automata with an event already known to be in
    /// nondecreasing timestamp order — the fast path [`feed`](Self::feed)
    /// takes once it has ruled out a backwards timestamp, exposed for
    /// callers that can prove ordering themselves (the binary trace
    /// store's segment replay, whose per-segment `ordered` flag certifies
    /// it at encode time). Feeding an out-of-order event here corrupts
    /// the quarantine accounting — when in doubt, use `feed`.
    pub fn feed_in_order(&mut self, ev: &TraceEvent) {
        debug_assert!(
            ev.t() >= self.max_t,
            "feed_in_order given a backwards event ({:?} < {:?})",
            ev.t(),
            self.max_t
        );
        self.max_t = ev.t();
        self.events_seen += 1;
        if let TraceEvent::Throughput { t, mbps } = ev {
            self.throughput.push((*t, *mbps));
        }
        // The classifier sees the event before any transition it causes,
        // so the event itself counts as classification evidence.
        self.classifier.feed_event(ev);
        // Scoring never reads timestamps, so the clamp in `feed` cannot
        // make it diverge between orderly and quarantined feeds.
        if let Some(scorer) = &mut self.scorer {
            scorer.feed(ev);
        }
        if let Some(sample) = self.timeline.feed(ev) {
            let prev_on = self.timeline.uses_5g(self.cur_sample.id);
            let on = self.timeline.uses_5g(sample.id);
            self.episodes.feed(sample.t, sample.id, on);
            if prev_on && !on {
                // Serving set in effect strictly before the flip time.
                let before_id = if sample.t > self.cur_sample.t {
                    self.cur_sample.id
                } else {
                    self.id_before_cur
                };
                let serving = self
                    .timeline
                    .sets()
                    .get(before_id)
                    .cloned()
                    .unwrap_or_else(onoff_rrc::serving::ServingCellSet::idle);
                self.classifier.feed_transition(sample.t, serving);
            }
            if sample.t > self.cur_sample.t {
                self.id_before_cur = self.cur_sample.id;
            }
            self.cur_sample = sample;
        }
    }

    /// Number of events fed so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Approximate heap footprint of the analyzer state, in bytes —
    /// capacity-based, so it reflects what the allocator holds. Long-running
    /// hosts (the `onoff-serve` session table) charge this against a global
    /// memory budget when deciding which sessions to evict. The scorer's
    /// maps and reservoirs are bounded per cell, so they are covered by the
    /// fixed per-session overhead the host adds on top.
    pub fn mem_hint(&self) -> usize {
        self.timeline.mem_hint()
            + self.episodes.mem_hint()
            + self.classifier.mem_hint()
            + self.throughput.capacity() * std::mem::size_of::<(Timestamp, f64)>()
    }

    /// Latest event time seen (`Timestamp(0)` before any event).
    pub fn end(&self) -> Timestamp {
        self.timeline.end()
    }

    /// The current connectivity state.
    pub fn current_state(&self) -> ConnState {
        self.timeline
            .sets()
            .get(self.cur_sample.id)
            .map_or(ConnState::Idle, |s| s.state())
    }

    /// Whether 5G is currently ON.
    pub fn is_5g_on(&self) -> bool {
        self.timeline.uses_5g(self.cur_sample.id)
    }

    /// Loops detected so far (non-destructive).
    pub fn loops(&mut self) -> Vec<LoopInstance> {
        self.episodes.detect(self.timeline.end())
    }

    /// Quarantine counters so far (episode flags included).
    pub fn degradation(&self) -> DegradationReport {
        let mut d = self.degradation;
        d.degraded_episodes = self.episodes.degraded_count();
        d
    }

    /// Classified OFF transitions so far. Transitions whose forward
    /// evidence window is still open are classified provisionally.
    pub fn off_transitions(&mut self) -> Vec<OffTransition> {
        self.classifier.transitions()
    }

    /// A point-in-time [`RunAnalysis`] snapshot (non-destructive).
    pub fn analysis(&mut self) -> RunAnalysis {
        let timeline = self.timeline.snapshot();
        let loops = self.episodes.detect(timeline.end);
        let off_transitions = self.classifier.transitions();
        let metrics = run_metrics_from_samples(&self.throughput, &timeline, &loops);
        let degradation = self.degradation();
        RunAnalysis {
            timeline,
            loops,
            off_transitions,
            metrics,
            degradation,
        }
    }

    /// Consumes the core into the final analysis (no snapshot clones).
    pub fn finish(mut self) -> RunAnalysis {
        let degradation = self.degradation();
        let end = self.timeline.end();
        let loops = self.episodes.detect(end);
        let off_transitions = self.classifier.finish();
        let timeline = self.timeline.finish();
        let metrics = run_metrics_from_samples(&self.throughput, &timeline, &loops);
        RunAnalysis {
            timeline,
            loops,
            off_transitions,
            metrics,
            degradation,
        }
    }
}

/// An incremental analyzer over a growing trace, tolerant of mild
/// reordering.
///
/// Wraps [`TraceAnalyzer`] with a bounded reorder buffer: an arriving
/// event is sorted among the still-pending ones (stable for equal
/// timestamps), and pending events are released to the core once the feed
/// has advanced [`REORDER_HORIZON_MS`] past them or the buffer holds
/// [`REORDER_CAP`] events. Per-event cost is therefore bounded by the
/// buffer size, not the trace length — pathological reverse-order feeds
/// stay O(cap) per event instead of the old O(n) insert.
///
/// Queries flush the buffer into the core (the caller asked about "now",
/// so everything received must count). Events arriving later than the
/// horizon — or older than a query that already flushed past them — are
/// fed to the core out of order: analysis then matches what batch would
/// say about the same unsorted slice, and never panics.
pub struct StreamingAnalyzer {
    core: TraceAnalyzer,
    /// Events awaiting release, sorted by timestamp (stable).
    pending: VecDeque<TraceEvent>,
    /// Newest timestamp ever fed (drives the horizon).
    max_seen: Timestamp,
    events_seen: usize,
    /// This instance's reorder-buffer cap (defaults to [`REORDER_CAP`]).
    /// Hosts running many sessions (the `onoff-serve` daemon) lower it to
    /// meet a per-session memory budget.
    cap: usize,
    /// Events released early by cap overflow (folded into the core's
    /// [`DegradationReport`] on query).
    cap_evictions: usize,
}

impl Default for StreamingAnalyzer {
    fn default() -> Self {
        StreamingAnalyzer {
            core: TraceAnalyzer::new(),
            pending: VecDeque::new(),
            max_seen: Timestamp(0),
            events_seen: 0,
            cap: REORDER_CAP,
            cap_evictions: 0,
        }
    }
}

impl StreamingAnalyzer {
    /// New, empty analyzer.
    pub fn new() -> StreamingAnalyzer {
        StreamingAnalyzer::default()
    }

    /// An analyzer whose reorder buffer holds at most `cap` events (`0`
    /// degrades to releasing every event immediately, which still never
    /// panics — each release is counted as a cap eviction when the horizon
    /// hadn't sealed it). The default is [`REORDER_CAP`].
    pub fn with_reorder_cap(cap: usize) -> StreamingAnalyzer {
        StreamingAnalyzer {
            cap,
            ..StreamingAnalyzer::default()
        }
    }

    /// This instance's reorder-buffer cap.
    pub fn reorder_cap(&self) -> usize {
        self.cap
    }

    /// Approximate heap footprint (core automata plus the reorder buffer),
    /// capacity-based. See [`TraceAnalyzer::mem_hint`].
    pub fn mem_hint(&self) -> usize {
        self.core.mem_hint() + self.pending.capacity() * std::mem::size_of::<TraceEvent>()
    }

    /// Read access to the wrapped incremental core (no buffer flush).
    pub fn core(&self) -> &TraceAnalyzer {
        &self.core
    }

    /// An analyzer with the online prediction stage enabled.
    pub fn with_scoring(config: ScoringConfig) -> StreamingAnalyzer {
        StreamingAnalyzer {
            core: TraceAnalyzer::with_scoring(config),
            ..StreamingAnalyzer::default()
        }
    }

    /// Enables (or reconfigures) the core's prediction stage.
    pub fn enable_scoring(&mut self, config: ScoringConfig) {
        self.core.enable_scoring(config);
    }

    /// A point-in-time prediction snapshot, when scoring is enabled.
    /// Flushes the reorder buffer first (the caller asked about "now").
    pub fn predictions(&mut self) -> Option<PredictionReport> {
        self.flush_pending();
        self.core.predictions()
    }

    /// Feeds one event. Events arriving within [`REORDER_HORIZON_MS`] of
    /// the newest seen timestamp are sorted into place; events later than
    /// that are handed straight to the core, which quarantines them
    /// (clamp + count) exactly as batch analysis would at the same
    /// position — so beyond-horizon faults cannot make streaming drift
    /// from batch.
    pub fn feed(&mut self, ev: TraceEvent) {
        self.events_seen += 1;
        let t = ev.t();
        if t.millis() + REORDER_HORIZON_MS <= self.max_seen.millis() {
            // Too late for the buffer to repair. Everything pending is
            // newer than this event, so release it all first to preserve
            // arrival order into the core.
            self.flush_pending();
            self.core.feed(&ev);
            return;
        }
        self.max_seen = self.max_seen.max(t);
        // Stable insert: after every pending event with timestamp <= t.
        let pos = self.pending.partition_point(|e| e.t() <= t);
        self.pending.insert(pos, ev);
        self.release_ready();
    }

    /// Feeds many events.
    pub fn feed_all<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        for ev in events {
            self.feed(ev);
        }
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events_seen
    }

    /// True before any event arrived.
    pub fn is_empty(&self) -> bool {
        self.events_seen == 0
    }

    /// Releases pending events that can no longer be displaced by a
    /// late arrival (or that overflow the cap).
    fn release_ready(&mut self) {
        loop {
            let over_cap = self.pending.len() > self.cap;
            let expired = self
                .pending
                .front()
                .is_some_and(|e| e.t().millis() + REORDER_HORIZON_MS <= self.max_seen.millis());
            if !over_cap && !expired {
                break;
            }
            // A cap overflow releases an event the horizon hadn't sealed
            // yet: a later in-horizon arrival could still have sorted
            // before it, so the release is best-effort and counted.
            if over_cap && !expired {
                self.cap_evictions += 1;
            }
            match self.pending.pop_front() {
                Some(ev) => self.core.feed(&ev),
                None => break,
            }
        }
    }

    /// Drains the whole reorder buffer into the core (queries ask about
    /// everything received so far).
    fn flush_pending(&mut self) {
        while let Some(ev) = self.pending.pop_front() {
            self.core.feed(&ev);
        }
    }

    /// The current connectivity state.
    pub fn current_state(&mut self) -> ConnState {
        self.flush_pending();
        self.core.current_state()
    }

    /// Whether 5G is currently ON.
    pub fn is_5g_on(&mut self) -> bool {
        self.flush_pending();
        self.core.is_5g_on()
    }

    /// Loops detected so far.
    pub fn loops(&mut self) -> Vec<LoopInstance> {
        self.flush_pending();
        self.core.loops()
    }

    /// Classified OFF transitions so far.
    pub fn off_transitions(&mut self) -> Vec<OffTransition> {
        self.flush_pending();
        self.core.off_transitions()
    }

    /// Quarantine counters so far: the core's clamp accounting plus this
    /// buffer's cap evictions.
    pub fn degradation(&mut self) -> DegradationReport {
        self.flush_pending();
        let mut d = self.core.degradation();
        d.cap_evictions += self.cap_evictions;
        d
    }

    /// The most recent OFF transition, if any — the "what just happened"
    /// a live dashboard would surface.
    pub fn last_off(&mut self) -> Option<OffTransition> {
        self.off_transitions().into_iter().next_back()
    }

    /// Fires when a loop is currently active: the last detected loop is
    /// persistent and its span reaches the latest event.
    pub fn loop_alarm(&mut self) -> Option<(LoopType, Timestamp)> {
        self.flush_pending();
        if self.core.events_seen() == 0 {
            return None;
        }
        let last_t = self.core.end();
        let loops = self.core.loops();
        let lp = loops.last()?;
        if lp.end >= last_t {
            let t = lp.start;
            // Majority type over the loop's transitions.
            let mut counts = std::collections::BTreeMap::new();
            for tr in self.core.off_transitions() {
                if tr.t >= lp.start {
                    *counts.entry(tr.loop_type).or_insert(0usize) += 1;
                }
            }
            let ty = counts.into_iter().max_by_key(|(_, n)| *n).map(|(t, _)| t)?;
            return Some((ty, t));
        }
        None
    }

    /// A point-in-time [`RunAnalysis`] of everything received so far,
    /// without consuming the analyzer. Like every query, this drains the
    /// reorder buffer into the core first.
    pub fn analysis(&mut self) -> RunAnalysis {
        self.flush_pending();
        let mut analysis = self.core.analysis();
        analysis.degradation.cap_evictions += self.cap_evictions;
        analysis
    }

    /// Consumes the analyzer, returning the analysis of everything seen.
    pub fn finish(mut self) -> RunAnalysis {
        self.flush_pending();
        let mut analysis = self.core.finish();
        analysis.degradation.cap_evictions += self.cap_evictions;
        analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onoff_rrc::ids::{CellId, GlobalCellId, Pci, Rat};
    use onoff_rrc::messages::RrcMessage;
    use onoff_rrc::trace::{LogChannel, LogRecord};

    fn rec(t: u64, msg: RrcMessage) -> TraceEvent {
        TraceEvent::Rrc(LogRecord {
            t: Timestamp(t),
            rat: Rat::Nr,
            channel: LogChannel::for_message(&msg),
            context: None,
            msg,
        })
    }

    fn cell() -> CellId {
        CellId::nr(Pci(393), 521310)
    }

    fn looping_events() -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for k in 0..3u64 {
            let base = k * 40_000;
            events.push(rec(
                base,
                RrcMessage::SetupRequest {
                    cell: cell(),
                    global_id: GlobalCellId(1),
                },
            ));
            events.push(rec(base + 150, RrcMessage::SetupComplete));
            events.push(rec(base + 30_000, RrcMessage::Release));
        }
        events
    }

    #[test]
    fn streaming_matches_batch() {
        let events = looping_events();
        let mut s = StreamingAnalyzer::new();
        s.feed_all(events.clone());
        let streamed = s.finish();
        let batch = crate::analyze_trace(&events);
        assert_eq!(streamed, batch);
    }

    #[test]
    fn state_tracks_as_events_arrive() {
        let mut s = StreamingAnalyzer::new();
        assert_eq!(s.current_state(), ConnState::Idle);
        assert!(!s.is_5g_on());
        s.feed(rec(
            0,
            RrcMessage::SetupRequest {
                cell: cell(),
                global_id: GlobalCellId(1),
            },
        ));
        s.feed(rec(150, RrcMessage::SetupComplete));
        assert_eq!(s.current_state(), ConnState::Sa);
        assert!(s.is_5g_on());
        s.feed(rec(30_000, RrcMessage::Release));
        assert_eq!(s.current_state(), ConnState::Idle);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn loop_alarm_fires_mid_loop() {
        let mut s = StreamingAnalyzer::new();
        // No alarm after one cycle…
        for ev in looping_events().into_iter().take(3) {
            s.feed(ev);
        }
        assert!(s.loop_alarm().is_none());
        // …but after the second identical cycle the alarm is up.
        for ev in looping_events().into_iter().skip(3).take(3) {
            s.feed(ev);
        }
        assert!(s.loop_alarm().is_some());
    }

    #[test]
    fn out_of_order_events_are_sorted_in() {
        let events = looping_events();
        let mut s = StreamingAnalyzer::new();
        // Feed with a local swap.
        s.feed(events[1].clone());
        s.feed(events[0].clone());
        for ev in &events[2..] {
            s.feed(ev.clone());
        }
        assert_eq!(s.finish(), crate::analyze_trace(&events));
    }

    #[test]
    fn reverse_feed_is_bounded_and_sane() {
        // A fully reversed feed exercises the cap/horizon paths: every
        // event is late. The analyzer must stay O(buffer) per event and
        // produce the same answer batch analysis gives for the order the
        // core actually saw. With the whole trace inside the horizon, the
        // buffer restores sorted order entirely.
        let events = looping_events();
        let span = events.last().map(|e| e.t().millis()).unwrap_or(0);
        assert!(span > REORDER_HORIZON_MS, "test must exceed the horizon");
        let mut s = StreamingAnalyzer::new();
        for ev in events.iter().rev() {
            s.feed(ev.clone());
        }
        // No panic, and the final state is a valid analysis.
        let analysis = s.finish();
        assert_eq!(analysis.timeline.end, Timestamp(span));
    }

    #[test]
    fn reverse_feed_within_horizon_matches_batch() {
        // Jitter bounded by the horizon: reversal within a 4 s window is
        // fully repaired by the reorder buffer.
        let mut events = looping_events();
        events.sort_by_key(|e| e.t());
        let mut s = StreamingAnalyzer::new();
        for chunk in events.chunks(3) {
            for ev in chunk.iter().rev() {
                // Chunks of 3 span at most 30 s here, so only feed
                // reversed pairs that stay within the horizon.
                s.feed(ev.clone());
            }
        }
        let _ = s.finish(); // no panic; equivalence is covered by proptests
    }

    #[test]
    fn cap_releases_oldest_on_overflow() {
        let mut s = StreamingAnalyzer::new();
        // All events share one timestamp: the horizon never triggers, so
        // only the cap can release them to the core.
        for _ in 0..(REORDER_CAP + 10) {
            s.feed(TraceEvent::Throughput {
                t: Timestamp(1000),
                mbps: 1.0,
            });
        }
        assert!(s.len() == REORDER_CAP + 10);
        let analysis = s.finish();
        assert_eq!(analysis.metrics.median_off_mbps, Some(1.0));
        // Every overflow release happened before the horizon sealed the
        // event, so each one is a counted best-effort eviction.
        assert_eq!(analysis.degradation.cap_evictions, 10);
        assert_eq!(analysis.degradation.clamped_events, 0);
    }

    #[test]
    fn custom_reorder_cap_bounds_buffer_per_instance() {
        // Same shape as `cap_releases_oldest_on_overflow`, but with a
        // per-instance cap of 4: only 4 events may pend, so 6 of the 10
        // equal-timestamp feeds are counted cap evictions.
        let mut s = StreamingAnalyzer::with_reorder_cap(4);
        assert_eq!(s.reorder_cap(), 4);
        for _ in 0..10 {
            s.feed(TraceEvent::Throughput {
                t: Timestamp(1000),
                mbps: 1.0,
            });
        }
        let analysis = s.finish();
        assert_eq!(analysis.degradation.cap_evictions, 6);
        // The default instance still uses the crate-wide constant.
        assert_eq!(StreamingAnalyzer::new().reorder_cap(), REORDER_CAP);
    }

    #[test]
    fn mem_hint_is_positive_and_grows() {
        let mut s = StreamingAnalyzer::new();
        let fresh = s.mem_hint();
        for ev in looping_events() {
            s.feed(ev);
        }
        assert!(s.mem_hint() >= fresh);
        assert!(s.mem_hint() > 0);
    }

    #[test]
    fn beyond_horizon_arrival_is_clamped_and_counted() {
        let mut s = StreamingAnalyzer::new();
        s.feed(TraceEvent::Throughput {
            t: Timestamp(0),
            mbps: 1.0,
        });
        s.feed(TraceEvent::Throughput {
            t: Timestamp(20_000),
            mbps: 2.0,
        });
        // 6 s behind the newest seen timestamp: past the 5 s horizon.
        s.feed(TraceEvent::Throughput {
            t: Timestamp(14_000),
            mbps: 3.0,
        });
        assert_eq!(
            s.degradation(),
            DegradationReport {
                clamped_events: 1,
                late_events: 1,
                cap_evictions: 0,
                degraded_episodes: 0,
            }
        );
        let analysis = s.finish();
        assert_eq!(analysis.degradation.clamped_events, 1);
        assert_eq!(analysis.degradation.late_events, 1);
        // The event still counts — at the clamped time, not its own.
        assert_eq!(analysis.metrics.median_off_mbps, Some(2.0));
        assert_eq!(analysis.timeline.end, Timestamp(20_000));
    }

    #[test]
    fn clean_in_order_feed_reports_clean() {
        let mut s = StreamingAnalyzer::new();
        s.feed_all(looping_events());
        assert!(s.degradation().is_clean());
    }

    #[test]
    fn loops_from_clamped_events_are_flagged_degraded() {
        // Same looping trace, but one event inside the second cycle rolls
        // its clock back beyond the horizon: the loop must still be found,
        // and must carry the degraded flag.
        let mut events = looping_events();
        let t1 = events[4].t();
        events[4].set_t(Timestamp(t1.millis() - 20_000));
        let batch = crate::analyze_trace(&events);
        assert_eq!(batch.loops.len(), 1);
        assert!(batch.loops[0].degraded);
        assert!(batch.degradation.clamped_events >= 1);
        assert!(batch.degradation.degraded_episodes >= 1);
        // The clean trace's loop is not flagged.
        let clean = crate::analyze_trace(&looping_events());
        assert_eq!(clean.loops.len(), 1);
        assert!(!clean.loops[0].degraded);
        assert!(clean.degradation.is_clean());
    }

    #[test]
    fn last_off_reports_most_recent() {
        let mut s = StreamingAnalyzer::new();
        s.feed_all(looping_events());
        let last = s.last_off().unwrap();
        assert_eq!(last.t, Timestamp(2 * 40_000 + 30_000));
    }
}
