//! The `fleet-text` and `fleet-evict` workloads.
//!
//! Simulated handsets from all three operators stream 300-s stationary
//! runs to the real `onoff-serve` daemon over a unix socket: NSG text
//! frames into a wide-open budget (`fleet-text`), or `onoff-store` binary
//! frames into a global budget below the working set, with skewed
//! session activity (`fleet-evict`). Each session ends with `EndSession`
//! and its report must equal the offline `analyze_trace_scored` of the
//! events the frames carry.
//!
//! [`load`] drives the daemon: set-up, a closed-loop flood (`capacity`),
//! then an open loop at a fixed rate (`ingest`/`query` latency).
//! [`replay`] is the traced run's in-process, single-threaded replay of
//! the same request sequence through each layer's public calls.

mod load;
mod replay;

use std::path::{Path, PathBuf};
use std::time::Duration;

use onoff_campaign::all_areas;
use onoff_detect::{analyze_trace_scored, PredictionReport, RunAnalysis, ScoringConfig};
use onoff_nsglog::RecoveryPolicy;
use onoff_policy::{policy_for, PhoneModel};
use onoff_radio::noise::hash_words;
use onoff_rrc::trace::TraceEvent;
use onoff_serve::{ServeConfig, SessionMeta, SessionReport};
use onoff_sim::{simulate, SimConfig};
use onoff_store::StoreReader;

use crate::stats::{beyond, fastest_rate, fastest_time, median, percentile, Outcomes};
use crate::trace::{fold, Tracer};
use crate::{Layer, Report};
use load::{run_daemon, DaemonRun, PhaseStats, Phases, RunDir, RATE_WINDOW, TAIL_SAMPLES};
use replay::traced_section;

/// Distinct handset traces per area and run; sessions replay them under
/// new ids. Every area contributes equally, so the mix of frame sizes
/// (which sets parse cost and tail latency) varies little with the seed.
const TRACES_PER_AREA: usize = 16;
/// Distinct handset traces per run (11 areas).
const TRACES: usize = 11 * TRACES_PER_AREA;
/// Events per ingest frame.
const FRAME_EVENTS: usize = 32;
/// Daemon starts timed per run, one of them the daemon under load;
/// `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Open-loop validity: the largest share of the measured ingest p50 the
/// generator's own median lateness may make up. It is the largest bound
/// a metric may carry: a generator later than that could move the p50 by
/// more than any bound on its own, so the run measured the generator,
/// not the daemon, and is refused.
const LATE_SHARE: f64 = 0.25;
/// Frames in flight per connection during the flood phase.
const WINDOW: usize = 16;
/// One `Ping` per this many requests.
const PING_EVERY: u64 = 20;
/// How long a phase waits for outstanding responses before counting
/// them missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// What distinguishes the two fleet workloads.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    name: &'static str,
    /// The eviction workload: binary store frames, and a daemon that
    /// spills sessions to snapshots under budget pressure. Otherwise NSG
    /// text frames and no snapshot directory.
    bin: bool,
    /// The daemon's global budget, MB.
    budget_mb: usize,
    /// Concurrently open sessions per connection.
    slots: usize,
    /// Zipf exponent of session activity (0 = uniform).
    skew: f64,
    /// One `Query` per this many requests.
    query_every: u64,
    /// Offered requests per second, all connections together, during the
    /// paced phase: a third (`fleet-text`) or a fifth (`fleet-evict`) of
    /// the capacity measured on a 2-core host.
    rate: f64,
    /// Requests the traced run replays in process: enough for
    /// `fleet-evict`'s sessions to outgrow its budget.
    replay: u64,
}

/// `fleet-text`: clean text frames, budget wide open.
pub const TEXT: Spec = Spec {
    name: "fleet-text",
    bin: false,
    budget_mb: 4096,
    slots: 64,
    skew: 0.0,
    query_every: 10,
    rate: 4000.0,
    replay: 3000,
};

/// `fleet-evict`: binary frames under a budget the working set exceeds.
pub const EVICT: Spec = Spec {
    name: "fleet-evict",
    bin: true,
    budget_mb: 24,
    slots: 128,
    skew: 1.0,
    query_every: 4,
    rate: 2400.0,
    replay: 20000,
};

impl Spec {
    fn serve_config(&self, snapshot_dir: Option<PathBuf>) -> ServeConfig {
        ServeConfig {
            global_budget: self.budget_mb << 20,
            snapshot_dir: if self.bin { snapshot_dir } else { None },
            scoring: Some(ScoringConfig::default()),
            ..ServeConfig::default()
        }
    }
}

/// SplitMix64: the load generator's deterministic choice stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One handset trace cut into ingest frames.
pub struct Trace {
    /// Frame payloads (NSG text or a store image), without the session id.
    frames: Vec<Vec<u8>>,
}

/// What a session replaying a trace must end with.
#[derive(Clone)]
struct Expected {
    events: usize,
    meta: SessionMeta,
    analysis: RunAnalysis,
    predictions: PredictionReport,
}

/// Simulates the handset traces and cuts them into frames.
fn make_traces(seed: u64, spec: &Spec, tr: &mut Tracer) -> Vec<Trace> {
    let areas = tr.span("campaign.areas", |_| all_areas(seed));
    let mut rng = Rng(seed ^ 0xF1EE7);
    (0..TRACES)
        .map(|i| {
            let area = &areas[i % areas.len()];
            let location = rng.below(area.locations.len());
            let mut cfg = SimConfig::stationary(
                policy_for(area.operator),
                PhoneModel::OnePlus12R,
                area.env.clone(),
                area.locations[location],
                hash_words(&[seed, i as u64]),
            );
            cfg.duration_ms = 300_000;
            cfg.meas_period_ms = 1000;
            let out = tr.span("sim", |_| simulate(&cfg));
            tr.count("sim.events", out.events.len() as f64);
            let frames = out
                .events
                .chunks(FRAME_EVENTS)
                .map(|chunk| {
                    tr.count("gen.events", chunk.len() as f64);
                    if spec.bin {
                        tr.span("store.encode", |_| onoff_store::encode_events(chunk))
                    } else {
                        tr.span("nsglog.emit", |_| onoff_nsglog::emit(chunk).into_bytes())
                    }
                })
                .collect();
            Trace { frames }
        })
        .collect()
}

/// Decodes one frame payload offline, exactly as the daemon does.
fn decode_frame(spec: &Spec, payload: &[u8], out: &mut Vec<TraceEvent>) -> SessionMeta {
    out.clear();
    if spec.bin {
        let stats = StoreReader::new(payload)
            .and_then(|r| r.read_all_into(RecoveryPolicy::SkipAndCount, out))
            .expect("generated store frames decode");
        SessionMeta {
            records: stats.decoded + stats.skipped,
            parsed: stats.decoded,
            skipped: stats.skipped,
        }
    } else {
        let text = std::str::from_utf8(payload).expect("generated text frames are UTF-8");
        let stats = onoff_nsglog::parse_str_lossy_into(text, RecoveryPolicy::SkipAndCount, out);
        SessionMeta {
            records: stats.records,
            parsed: stats.parsed,
            skipped: stats.skipped,
        }
    }
}

/// The offline oracle: `analyze_trace_scored` over each trace's decoded
/// frames, with the parse counters the daemon will report.
fn expectations(spec: &Spec, traces: &[Trace]) -> Vec<Expected> {
    let mut scratch = Vec::new();
    traces
        .iter()
        .map(|t| {
            let mut events = Vec::new();
            let mut meta = SessionMeta::default();
            for f in &t.frames {
                let m = decode_frame(spec, f, &mut scratch);
                meta.records += m.records;
                meta.parsed += m.parsed;
                meta.skipped += m.skipped;
                events.append(&mut scratch);
            }
            let (analysis, predictions) = analyze_trace_scored(&events, ScoringConfig::default());
            Expected {
                events: events.len(),
                meta,
                analysis,
                predictions,
            }
        })
        .collect()
}

/// Checks one `EndSession` answer against the oracle.
fn check_report(sid: u64, payload: &str, want: &Expected) -> Result<(), String> {
    let got: SessionReport =
        serde_json::from_str(payload).map_err(|e| format!("session {sid}: bad report: {e}"))?;
    let expected = SessionReport {
        sid,
        events: want.events,
        meta: want.meta,
        analysis: want.analysis.clone(),
        predictions: Some(want.predictions.clone()),
        ended: true,
    };
    if got == expected {
        return Ok(());
    }
    let what = if got.analysis != expected.analysis {
        "analysis"
    } else if got.predictions != expected.predictions {
        "predictions"
    } else {
        "counters"
    };
    Err(format!(
        "session {sid}: end-of-session {what} differ from the offline analysis of its events"
    ))
}

/// Generates the run's inputs and the offline oracle.
fn inputs(spec: &Spec, seed: u64) -> (Vec<Trace>, Vec<Expected>, f64) {
    let traces = make_traces(seed, spec, &mut Tracer::new(false));
    let expected = expectations(spec, &traces);
    // Text over binary size of the same events: the store's compression.
    let (mut text, mut bin) = (0usize, 0usize);
    let mut scratch = Vec::new();
    for t in &traces {
        for f in &t.frames {
            decode_frame(spec, f, &mut scratch);
            text += onoff_nsglog::emit(&scratch).len();
            bin += onoff_store::encode_events(&scratch).len();
        }
    }
    (traces, expected, text as f64 / bin as f64)
}

/// Percentile `p` of every `kind` latency of the phase, ms.
fn lat(st: &PhaseStats, kind: &str, p: f64) -> f64 {
    let mut v: Vec<f64> = st
        .lat
        .get(kind)
        .map_or(Vec::new(), |v| v.iter().map(|s| s.1).collect());
    percentile(&mut v, p).unwrap_or(0.0)
}

/// The `kind` latencies of the paced phase split by due time into equal
/// windows of at least `TAIL_SAMPLES` samples (at most one per
/// `RATE_WINDOW`).
fn tail_windows(st: &PhaseStats, kind: &str, paced_s: f64) -> Vec<Vec<f64>> {
    let samples = st.lat.get(kind).map_or(&[][..], Vec::as_slice);
    let most = (paced_s / RATE_WINDOW.as_secs_f64()) as usize;
    let n = (samples.len() / TAIL_SAMPLES).clamp(1, most.max(1));
    let mut out = vec![Vec::new(); n];
    for &(due, ms) in samples {
        out[((due / paced_s * n as f64) as usize).min(n - 1)].push(ms);
    }
    out
}

/// Median over the tail windows of each window's percentile `p`: a noisy
/// stretch of a shared host moves one window, not the result.
fn windowed_lat(st: &PhaseStats, kind: &str, p: f64, paced_s: f64) -> f64 {
    let mut per: Vec<f64> = tail_windows(st, kind, paced_s)
        .iter_mut()
        .filter_map(|v| percentile(v, p))
        .collect();
    median(&mut per)
}

/// (Events acknowledged, sessions ended) per second in the flood phase's
/// fastest full rate window.
fn windowed_rates(st: &PhaseStats, windows: u64) -> (f64, f64) {
    let secs = RATE_WINDOW.as_secs_f64();
    let (events, ended): (Vec<f64>, Vec<f64>) = (0..windows)
        .map(|w| {
            let (e, n) = st.windows.get(&w).copied().unwrap_or_default();
            (e as f64 / secs, n as f64 / secs)
        })
        .unzip();
    (fastest_rate(&events), fastest_rate(&ended))
}

/// The `kind` latency p50 of the paced phase: the median of each
/// `LATENCY_WINDOW` of due times, in the fastest window. Refused when no
/// window holds `MIN_P50_SAMPLES` samples.
fn windowed_p50(st: &PhaseStats, kind: &str, paced_s: f64) -> Result<f64, String> {
    let width = LATENCY_WINDOW.as_secs_f64();
    let mut windows = vec![Vec::new(); (paced_s / width).ceil().max(1.0) as usize];
    let last = windows.len() - 1;
    for &(due, ms) in st.lat.get(kind).map_or(&[][..], Vec::as_slice) {
        windows[((due / width) as usize).min(last)].push(ms);
    }
    let p50s: Vec<f64> = windows
        .iter_mut()
        .filter(|w| w.len() >= MIN_P50_SAMPLES)
        .map(|w| median(w))
        .collect();
    if p50s.is_empty() {
        return Err(format!(
            "no paced window holds {MIN_P50_SAMPLES} {kind} samples"
        ));
    }
    Ok(fastest_time(&p50s))
}

/// Width of the paced phase's latency windows: at the offered rates, at
/// least 100 `Query` samples each.
const LATENCY_WINDOW: Duration = Duration::from_millis(500);
/// Samples a paced window needs for its p50 to count.
const MIN_P50_SAMPLES: usize = 50;

/// Generates the inputs, runs the daemon phases and starts the report
/// every fleet run shares.
fn daemon_run(
    spec: &Spec,
    bin: &Path,
    seed: u64,
    seconds: f64,
    nproc: usize,
    paced: bool,
) -> Result<(Report, DaemonRun, f64), String> {
    let (traces, expected, compression) = inputs(spec, seed);
    let phases = Phases::new(seconds, paced);
    let d = run_daemon(spec, &traces, &expected, bin, seed, &phases, nproc)?;
    let mut outcomes = Outcomes::default();
    for st in &d.phases {
        outcomes.absorb(st.outcomes);
    }
    let mut r = Report::new(outcomes);
    stamp_daemon(&mut r, spec, &d);
    Ok((r, d, compression))
}

/// The untraced end-to-end run: set-up and the closed-loop flood.
pub fn run(
    spec: &Spec,
    bin: &Path,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Result<Report, String> {
    let (mut r, d, _) = daemon_run(spec, bin, seed, seconds, nproc, false)?;
    let (capacity, runs) = windowed_rates(&d.phases[1], d.flood_windows);
    r.metric("setup_s", d.setup_s);
    r.metric("runs_per_s", runs);
    r.metric("capacity_events_per_s", capacity);
    r.metric("rss_peak_mb", d.rss_mb);
    Ok(r)
}

fn stamp_daemon(r: &mut Report, spec: &Spec, d: &DaemonRun) {
    let paced = &d.phases[2];
    r.stamp("window", WINDOW.to_string());
    r.stamp("budget_mb", spec.budget_mb.to_string());
    r.stamp("rate_windows", d.flood_windows.to_string());
    r.stamp("evictions", d.fleet.evictions.to_string());
    r.stamp("restores", d.fleet.restores.to_string());
    r.stamp("sheds", d.fleet.sheds.to_string());
    if d.paced_s == 0.0 {
        return;
    }
    r.stamp("offered_rate_per_s", spec.rate.to_string());
    for kind in ["ingest", "query", "ping"] {
        let mut windows = tail_windows(paced, kind, d.paced_s);
        let samples: usize = windows.iter().map(Vec::len).sum();
        let thinnest = windows
            .iter_mut()
            .map(|v| beyond(v, 99.0))
            .min()
            .unwrap_or(0);
        r.stamp(&format!("{kind}_samples"), samples.to_string());
        r.stamp(&format!("{kind}_tail_windows"), windows.len().to_string());
        r.stamp(&format!("{kind}_min_beyond_p99"), thinnest.to_string());
    }
}

/// The traced run: the daemon phases (for the daemon and generator
/// numbers), then the in-process replay untraced and traced.
pub fn run_traced(
    spec: &Spec,
    bin: &Path,
    seed: u64,
    seconds: f64,
    nproc: usize,
) -> Result<Report, String> {
    let (mut r, d, compression) = daemon_run(spec, bin, seed, seconds, nproc, true)?;
    let dir = RunDir::new(&format!("{}-replay", spec.name))?;
    let mut plain = Tracer::new(false);
    let wall_plain =
        traced_section(spec, seed, nproc, &dir.path().join("plain"), &mut plain)?.wall_s;
    let mut traced = Tracer::new(true);
    let rep = traced_section(spec, seed, nproc, &dir.path().join("traced"), &mut traced)?;
    let wall_traced = rep.wall_s;

    let folded = fold(traced.spans());
    let layer = Layer(&folded);
    let paced = &d.phases[2];
    let mut late = paced.late_ms.clone();
    let sim_events = traced.counter("sim.events");
    let gen_events = traced.counter("gen.events");
    let decoded = traced.counter("decoded.events");
    let oracle = traced.counter("oracle.events");
    r.metric("sim.ns_per_event", layer.ns("sim") / sim_events);
    r.metric("sim.allocs_per_event", layer.allocs("sim") / sim_events);
    r.metric("detect.ns_per_event", layer.ns("detect") / oracle);
    r.metric("detect.allocs_per_event", layer.allocs("detect") / oracle);
    r.metric("predict.ns_per_event", layer.ns("predict") / oracle);
    r.metric("predict.allocs_per_event", layer.allocs("predict") / oracle);
    if spec.bin {
        r.metric(
            "store.encode_ns_per_event",
            layer.ns("store.encode") / gen_events,
        );
        r.metric(
            "store.decode_ns_per_event",
            layer.ns("store.decode") / decoded,
        );
        r.metric(
            "store.decode_allocs_per_event",
            layer.allocs("store.decode") / decoded,
        );
        r.metric("store.compression_ratio", compression);
    } else {
        r.metric(
            "nsglog.emit_ns_per_event",
            layer.ns("nsglog.emit") / gen_events,
        );
        r.metric(
            "nsglog.parse_ns_per_event",
            layer.ns("nsglog.parse") / decoded,
        );
        r.metric(
            "nsglog.parse_allocs_per_event",
            layer.allocs("nsglog.parse") / decoded,
        );
        r.metric(
            "nsglog.skipped_ratio",
            traced.counter("parse.skipped") / traced.counter("parse.records"),
        );
    }
    r.metric(
        "protocol.decode_ns_per_frame",
        layer.ns("protocol.decode") / traced.counter("protocol.frames"),
    );
    let session_events = traced.counter("session.events");
    r.metric(
        "session.ingest_ns_per_event",
        layer.ns("session.ingest") / session_events,
    );
    r.metric(
        "session.allocs_per_event",
        layer.allocs("session.ingest") / session_events,
    );
    r.metric(
        "session.query_us",
        layer.ns("session.query") / traced.counter("session.queries") / 1e3,
    );
    r.metric(
        "session.bytes_per_event",
        rep.bytes_used as f64 / rep.resident_events as f64,
    );
    r.metric("snapshot.evictions", rep.evictions as f64);
    r.metric("snapshot.restores", rep.restores as f64);
    r.metric(
        "snapshot.evict_restore_share",
        (rep.evictions + rep.restores) as f64 / rep.requests as f64,
    );
    let probed = traced.counter("snapshot.evicted");
    r.metric(
        "snapshot.evict_us",
        layer.ns("snapshot.evict") / probed / 1e3,
    );
    r.metric(
        "snapshot.restore_us",
        layer.ns("snapshot.restore") / probed / 1e3,
    );
    r.metric(
        "snapshot.bytes_written",
        traced.counter("snapshot.bytes") / probed,
    );
    for (metric, span) in [
        ("engine.handle_us.text", "engine.text"),
        ("engine.handle_us.bin", "engine.bin"),
        ("engine.handle_us.query", "engine.query"),
        ("engine.handle_us.end", "engine.end"),
    ] {
        r.metric(metric, layer.per_call_us(span));
    }
    r.metric("ingest_p50_ms", windowed_p50(paced, "ingest", d.paced_s)?);
    r.metric("query_p50_ms", windowed_p50(paced, "query", d.paced_s)?);
    r.metric("daemon.ping_p50_ms", lat(paced, "ping", 50.0));
    r.metric(
        "ingest_p99_ms",
        windowed_lat(paced, "ingest", 99.0, d.paced_s),
    );
    r.metric(
        "query_p99_ms",
        windowed_lat(paced, "query", 99.0, d.paced_s),
    );
    r.metric("daemon.sheds", d.fleet.sheds as f64);
    r.metric("daemon.frame_errors", d.fleet.frame_errors as f64);
    r.metric("gen.late_ms_p50", median(&mut late));
    r.metric(
        "gen.late_ms_p99",
        percentile(&mut late, 99.0).unwrap_or(0.0),
    );
    r.metric("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));
    r.metric("fail_ratio", r.outcomes.fail_ratio());
    r.coverage(&folded, wall_traced, wall_traced / wall_plain)?;

    r.stamp("replay_requests", rep.requests.to_string());
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::load::PhaseStats;
    use super::*;

    #[test]
    fn tail_windows_keep_enough_samples_for_a_p99() {
        let mut st = PhaseStats::default();
        let samples: Vec<(f64, f64)> = (0..5_500).map(|i| (i as f64 / 500.0, 1.0)).collect();
        st.lat.insert("ingest", samples);
        let windows = tail_windows(&st, "ingest", 11.0);
        assert_eq!(windows.len(), 5);
        assert!(windows.iter().all(|w| w.len() >= TAIL_SAMPLES));
        assert_eq!(windows.iter().map(Vec::len).sum::<usize>(), 5_500);
        st.lat.insert("query", vec![(0.5, 2.0); 10]);
        assert_eq!(tail_windows(&st, "query", 11.0).len(), 1);
    }

    #[test]
    fn latency_p50_is_the_fastest_windows_median() {
        let mut st = PhaseStats::default();
        let width = LATENCY_WINDOW.as_secs_f64();
        // Three windows with medians 3, 1 and 2 ms, and a fourth too thin
        // to count even though its samples are fastest.
        let mut samples = Vec::new();
        for (w, ms) in [(0, 3.0), (1, 1.0), (2, 2.0)] {
            for i in 0..MIN_P50_SAMPLES {
                let due = (w as f64 + i as f64 / MIN_P50_SAMPLES as f64) * width;
                samples.push((due, if i % 2 == 0 { ms } else { ms + 0.5 }));
            }
        }
        samples.push((3.5 * width, 0.1));
        st.lat.insert("ingest", samples);
        assert_eq!(windowed_p50(&st, "ingest", 4.0 * width), Ok(1.0));
        assert!(windowed_p50(&st, "query", 4.0 * width).is_err());
    }
}
