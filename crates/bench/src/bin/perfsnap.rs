//! `perfsnap` — fixed-workload performance snapshot for the analysis
//! pipeline, and the workspace's one in-tree micro-benchmark.
//!
//! Measures wall-clock throughput (events/sec, bytes/sec) and allocation
//! counts (allocs/event) for the hot workloads the campaign exercises
//! millions of times, plus the ablation and scaling rows that pair with
//! them:
//!
//! * `parse`          — NSG log text → `Vec<TraceEvent>` (`parse_str`)
//! * `emit`           — `Vec<TraceEvent>` → NSG log text (`emit_to` into
//!   one reused `String`), the other half of the text codec
//! * `extract`        — events → CS timeline (`extract_timeline`)
//! * `extract-raw`    — the uncompressed ablation of `extract`: one
//!   canonical set per RRC message (DESIGN §4 ✦2)
//! * `detect`         — events → full `RunAnalysis` (`analyze_trace`)
//! * `detect-loops`   — loop detection over interned cell-set ids
//!   (`detect_loops` on the extracted timeline)
//! * `detect-loops-structural` — the same episodes compared by full
//!   `ServingCellSet` keys instead of ids (DESIGN §4 ✦3)
//! * `stream-feed`    — events through the incremental `TraceAnalyzer`
//! * `stream-feed-8x` — the same over an 8× longer trace; equal ns/event
//!   with `stream-feed` is the O(1)-feed claim of DESIGN §9
//! * `predict`        — events through a warm `OnlineScorer` (§6 online
//!   scoring): must run at exactly 0 allocs/event
//! * `sim-step`       — one stationary run on the table-driven path
//!   (`simulate`): the per-step radio sweep the batched campaign amortizes
//! * `fused-campaign` — a one-run-per-location campaign (`run_campaign`)
//!   on one worker
//! * `fused-campaign-w2`, `fused-campaign-w{nproc}` — the same campaign
//!   on 2 and on all cores: the worker-scaling curve
//! * `store-encode`   — events → binary columnar store (`encode_events`)
//! * `store-replay`   — binary store replayed straight into the streaming
//!   core (`StoreReader::replay`): the re-analysis path that replaces
//!   `parse` + `stream-feed` for persisted traces
//! * `serve-ingest`   — 100k concurrent sessions fed through the serving
//!   tier's session table (in-process): the fleet daemon's steady-state
//!   routing + per-session analysis cost
//!
//! Every workload is deterministic (fixed seeds, fixed tiling), so the
//! allocation counts are exactly reproducible and the wall numbers are
//! comparable across commits on the same machine. The multi-worker rows
//! are the exception for allocations: which worker's pooled scratch runs
//! which job depends on scheduling, so their counts vary by a few.
//!
//! Usage:
//!
//! ```text
//! perfsnap [--out FILE]            # measure, write snapshot JSON
//!          [--before FILE]         # embed FILE's numbers as "before"
//!          [--check FILE]          # compare vs FILE, exit 1 on regression
//!          [--threshold X]         # regression factor for --check (default 2.0)
//! ```
//!
//! Each workload runs one unmetered warm-up pass and then `N >= 5`
//! metered repetitions; the reported numbers are the median-wall
//! repetition's (alloc count included), which is what a steady-state
//! deployment sees — min-of-N systematically reported lucky scheduling
//! windows on shared machines.
//!
//! The snapshot schema (`perfsnap/v3`) is one JSON object with a `host`
//! block (`nproc`, `cpu_model`: the worker rows cannot be read without
//! it), a `store` size block and a `workloads` array; each entry carries
//! `events`, `bytes`, `wall_ms`, `events_per_sec`, `bytes_per_sec`,
//! `allocs`, `allocs_per_event`, `repetitions`, and — with `--before` —
//! the prior run's numbers under `"before"`. `--before`/`--check` read the
//! `workloads` array of a v2 or v3 file. `--check` fails when events/sec
//! drops below `before / threshold` or allocs/event rises above
//! `before * threshold`, and skips rows the file has no entry for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use onoff_campaign::areas::area_a1;
use onoff_campaign::{CampaignConfig, ParallelismConfig};
use onoff_detect::cellset::{extract_timeline, CsTimeline};
use onoff_detect::{analyze_trace, TraceAnalyzer};
use onoff_policy::{op_t_policy, PhoneModel};
use onoff_predict::{OnlineScorer, ScoringConfig};
use onoff_rrc::messages::RrcMessage;
use onoff_rrc::serving::{CellRole, ServingCellSet};
use onoff_rrc::trace::TraceEvent;
use onoff_rrc::{CellId, InlineVec};
use onoff_serve::{ServeConfig, ServeEngine, SessionMeta};
use onoff_sim::{simulate, SimConfig};
use onoff_store::StoreReader;

/// Counts every heap allocation, on every thread.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result plus (allocation count, wall seconds).
fn metered<T>(f: impl FnOnce() -> T) -> (T, u64, f64) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    (out, allocs, wall)
}

/// One workload's measured numbers: the median-ranked repetition, with
/// the repetition count it was drawn from.
#[derive(Debug, Clone, Copy)]
struct Sample {
    events: u64,
    bytes: u64,
    wall_s: f64,
    allocs: u64,
    repetitions: u32,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn bytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.wall_s.max(f64::MIN_POSITIVE)
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / (self.events.max(1)) as f64
    }
}

/// Measures `f` (which returns the processed (events, bytes)) `reps`
/// times after one unmetered warm-up pass, reporting the median-wall
/// repetition (its alloc count travels with it). The warm-up keeps
/// lazily-built structures — allocator arenas, page faults, file-backed
/// code — out of every measured rep; the median filters shared-machine
/// noise in *both* directions, where the old min-of-N systematically
/// reported a lucky scheduling window no steady-state deployment sees.
fn run_workload(reps: u32, mut f: impl FnMut() -> (u64, u64)) -> Sample {
    let reps = reps.max(1);
    std::hint::black_box(f());
    let mut samples: Vec<Sample> = (0..reps)
        .map(|_| {
            let ((events, bytes), allocs, wall_s) = metered(&mut f);
            Sample {
                events,
                bytes,
                wall_s,
                allocs,
                repetitions: reps,
            }
        })
        .collect();
    samples.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    samples[samples.len() / 2]
}

/// The fixed simulated run every in-process workload is built from.
fn sample_events() -> Vec<TraceEvent> {
    let area = area_a1(0x050FF);
    let cfg = SimConfig::stationary(
        op_t_policy(),
        PhoneModel::OnePlus12R,
        area.env.clone(),
        area.locations[0],
        42,
    );
    simulate(&cfg).events
}

/// Tiles a trace `k` times, shifting each copy past the previous span, so
/// parse/extract workloads run long enough to time reliably.
fn tile(events: &[TraceEvent], k: u64) -> Vec<TraceEvent> {
    let span = events.last().map_or(0, |e| e.t().millis()) + 1_000;
    let mut out = Vec::with_capacity(events.len() * k as usize);
    for i in 0..k {
        for ev in events {
            out.push(ev.with_t(onoff_rrc::trace::Timestamp(ev.t().millis() + i * span)));
        }
    }
    out
}

/// Raw (uncompressed) extraction, the ablation of `extract_timeline`:
/// pushes a canonical set for every RRC message rather than only on
/// change — the time and memory compression avoids.
fn extract_raw(events: &[TraceEvent]) -> usize {
    let mut sets: Vec<InlineVec<(CellRole, CellId), 8>> = Vec::new();
    let mut cs = ServingCellSet::idle();
    for ev in events {
        if let TraceEvent::Rrc(rec) = ev {
            if let RrcMessage::SetupRequest { cell, .. } = &rec.msg {
                cs = ServingCellSet::with_pcell(*cell);
            }
            if matches!(rec.msg, RrcMessage::Release) {
                cs.release_all();
            }
            sets.push(cs.canonical_key());
        }
    }
    sets.len()
}

/// Structural-comparison episode matching, the ablation of interning in
/// `detect_loops`: the same ON-started episodes, but built from cloned
/// `ServingCellSet`s and matched by recomputing canonical keys on every
/// comparison. Returns the number of repeated episode pairs.
fn detect_structural(tl: &CsTimeline) -> usize {
    let mut episodes: Vec<Vec<ServingCellSet>> = Vec::new();
    let mut prev_on = false;
    for cs in tl.samples.iter().map(|s| &tl.sets[s.id]) {
        let on = cs.uses_5g();
        if on && !prev_on {
            episodes.push(Vec::new());
        }
        if let Some(e) = episodes.last_mut() {
            e.push(cs.clone());
        }
        prev_on = on;
    }
    let mut repeats = 0;
    for (i, a) in episodes.iter().enumerate() {
        for b in &episodes[i + 1..] {
            if a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.canonical_key() == y.canonical_key())
            {
                repeats += 1;
            }
        }
    }
    repeats
}

/// Feeds `events` through a fresh incremental core and finishes it.
fn stream_feed(events: &[TraceEvent]) -> (u64, u64) {
    let mut core = TraceAnalyzer::new();
    for ev in events {
        core.feed(ev);
    }
    let analysis = core.finish();
    std::hint::black_box(analysis.loops.len());
    (events.len() as u64, 0)
}

/// The `fused-campaign` workload on `workers` workers.
fn fused_campaign(workers: usize) -> Sample {
    let cfg = CampaignConfig {
        seed: 0x050FF,
        runs_a1: 1,
        runs_other: 1,
        device: PhoneModel::OnePlus12R,
        duration_ms: 60_000,
        parallelism: ParallelismConfig::with_workers(workers),
        chaos: None,
    };
    run_workload(5, || {
        let ds = onoff_campaign::run_campaign(&cfg);
        (ds.stats.events_processed, 0)
    })
}

/// Size comparison between the two trace representations, reported as a
/// top-level `"store"` block in the snapshot.
#[derive(Debug, Clone, Copy)]
struct StoreInfo {
    text_bytes: u64,
    binary_bytes: u64,
}

impl StoreInfo {
    fn compression_ratio(&self) -> f64 {
        self.text_bytes as f64 / (self.binary_bytes.max(1)) as f64
    }
}

fn measure() -> (Vec<(String, Sample)>, StoreInfo) {
    let base = sample_events();
    let events = tile(&base, 4);
    let text = onoff_nsglog::emit(&events);
    let n = events.len() as u64;
    let bytes = text.len() as u64;

    let parse = run_workload(5, || {
        let parsed = onoff_nsglog::parse_str(&text).expect("workload text parses");
        (parsed.len() as u64, bytes)
    });
    let mut emitted = String::new();
    let emit = run_workload(5, || {
        emitted.clear();
        onoff_nsglog::emit_to(&events, &mut emitted).expect("fmt::Write to a String is infallible");
        (n, emitted.len() as u64)
    });
    let extract = run_workload(5, || {
        let tl = extract_timeline(&events);
        std::hint::black_box(tl.samples.len());
        (n, 0)
    });
    let extract_raw = run_workload(5, || {
        std::hint::black_box(extract_raw(&events));
        (n, 0)
    });
    let detect = run_workload(5, || {
        let analysis = analyze_trace(&events);
        std::hint::black_box(analysis.loops.len());
        (n, 0)
    });
    // Loop detection alone runs in microseconds, so its median needs the
    // store workloads' rep count.
    let timeline = extract_timeline(&events);
    let detect_loops = run_workload(21, || {
        std::hint::black_box(onoff_detect::detect_loops(&timeline).len());
        (n, 0)
    });
    let detect_loops_structural = run_workload(21, || {
        std::hint::black_box(detect_structural(&timeline));
        (n, 0)
    });
    let stream = run_workload(5, || stream_feed(&events));
    let long = tile(&base, 32);
    let stream_8x = run_workload(5, || stream_feed(&long));
    let predict = {
        // Warm pass outside the metered region: the first traversal grows
        // the measurement table and per-cell reservoirs once. After
        // `reset_session` the capacity is retained, so re-scoring the same
        // trace must allocate nothing — the 0 allocs/event budget CI pins.
        let mut scorer = OnlineScorer::new(ScoringConfig::default());
        for ev in &events {
            scorer.feed(ev);
        }
        run_workload(5, || {
            scorer.reset_session();
            for ev in &events {
                scorer.feed(ev);
            }
            std::hint::black_box(scorer.scored());
            (n, 0)
        })
    };
    let sim_cfg = {
        let area = area_a1(0x050FF);
        let mut cfg = SimConfig::stationary(
            op_t_policy(),
            PhoneModel::OnePlus12R,
            area.env.clone(),
            area.locations[0],
            42,
        );
        cfg.duration_ms = 300_000;
        cfg.meas_period_ms = 1000;
        cfg
    };
    let sim_step = run_workload(5, || {
        let out = simulate(&sim_cfg);
        (out.events.len() as u64, 0)
    });
    let store_bytes = onoff_store::encode_events(&events);
    // The store workloads finish in ~1-2ms, so their median needs more
    // reps than the tens-of-ms workloads to filter scheduler noise.
    let store_encode = run_workload(21, || {
        let encoded = onoff_store::encode_events(&events);
        std::hint::black_box(encoded.len());
        (n, encoded.len() as u64)
    });
    let store_replay = run_workload(21, || {
        let reader = StoreReader::new(&store_bytes).expect("freshly encoded store is valid");
        let mut core = TraceAnalyzer::new();
        reader
            .replay(onoff_nsglog::RecoveryPolicy::SkipAndCount, &mut core)
            .expect("lossy replay never errors");
        let analysis = core.finish();
        std::hint::black_box(analysis.loops.len());
        (n, store_bytes.len() as u64)
    });
    // Fleet ingest fan-out: 100k concurrent sessions, each fed a small
    // burst through the serving tier's session table (in-process — the
    // workload measures routing + per-session analyzer cost, not socket
    // syscalls). The budget is wide open so nothing spills; eviction cost
    // is the chaos suites' concern, steady-state ingest is the number the
    // perf floor pins.
    let serve_ingest = run_workload(5, || {
        let engine = ServeEngine::new(ServeConfig {
            global_budget: 16 << 30,
            session_budget: 64 << 20,
            shards: 64,
            ..ServeConfig::default()
        });
        let mut fed = 0u64;
        let window = 12usize;
        let mut burst: Vec<TraceEvent> = Vec::with_capacity(window);
        for sid in 0..100_000u64 {
            let start = (sid as usize * 7) % (base.len() - window);
            burst.clear();
            burst.extend_from_slice(&base[start..start + window]);
            fed += engine
                .table()
                .ingest_drain(sid, &mut burst, SessionMeta::default())
                .expect("wide-open budget never sheds");
        }
        std::hint::black_box(engine.table().bytes_used());
        (fed, 0)
    });
    let campaign = fused_campaign(1);
    // The worker curve: 2 workers and every core, each once.
    let mut curve = vec![2, ParallelismConfig::all_cores().workers.max(2)];
    curve.dedup();
    let curve: Vec<(String, Sample)> = curve
        .into_iter()
        .map(|w| (format!("fused-campaign-w{w}"), fused_campaign(w)))
        .collect();

    let info = StoreInfo {
        text_bytes: bytes,
        binary_bytes: store_bytes.len() as u64,
    };
    let mut results: Vec<(String, Sample)> = [
        ("parse", parse),
        ("emit", emit),
        ("extract", extract),
        ("extract-raw", extract_raw),
        ("detect", detect),
        ("detect-loops", detect_loops),
        ("detect-loops-structural", detect_loops_structural),
        ("stream-feed", stream),
        ("stream-feed-8x", stream_8x),
        ("predict", predict),
        ("sim-step", sim_step),
        ("fused-campaign", campaign),
        ("store-encode", store_encode),
        ("store-replay", store_replay),
        ("serve-ingest", serve_ingest),
    ]
    .map(|(name, s)| (name.to_string(), s))
    .into();
    results.extend(curve);
    (results, info)
}

/// The prior numbers for one workload, as loaded from a snapshot file.
#[derive(Debug, Clone, Copy)]
struct Prior {
    events_per_sec: f64,
    bytes_per_sec: f64,
    allocs_per_event: f64,
}

fn load_priors(path: &str) -> Vec<(String, Prior)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let v: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
    let workloads = v
        .get("workloads")
        .and_then(|w| w.as_array())
        .unwrap_or_else(|| die(&format!("{path}: no `workloads` array")));
    workloads
        .iter()
        .filter_map(|w| {
            let name = w.get("name")?.as_str()?.to_string();
            let f = |key: &str| w.get(key).and_then(|x| x.as_f64()).unwrap_or(0.0);
            Some((
                name,
                Prior {
                    events_per_sec: f("events_per_sec"),
                    bytes_per_sec: f("bytes_per_sec"),
                    allocs_per_event: f("allocs_per_event"),
                },
            ))
        })
        .collect()
}

fn die(msg: &str) -> ! {
    eprintln!("perfsnap: {msg}");
    std::process::exit(2);
}

/// The machine a snapshot was taken on, reported as a top-level `"host"`
/// block: the worker-curve rows cannot be read without it.
struct Host {
    nproc: usize,
    /// The first `model name` line of `/proc/cpuinfo`, or `"unknown"`.
    cpu_model: String,
}

impl Host {
    fn detect() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(key, _)| key.trim() == "model name")
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: ParallelismConfig::all_cores().workers,
            cpu_model,
        }
    }
}

/// Renders the snapshot JSON (stable key order, two-space indent).
fn render(
    host: &Host,
    results: &[(String, Sample)],
    info: StoreInfo,
    priors: &[(String, Prior)],
) -> String {
    let mut out = String::from("{\n  \"schema\": \"perfsnap/v3\",\n");
    out.push_str(&format!(
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}}},\n",
        host.nproc,
        serde_json::to_string(&host.cpu_model).expect("a string serializes"),
    ));
    out.push_str(&format!(
        "  \"store\": {{\"text_bytes\": {}, \"binary_bytes\": {}, \"compression_ratio\": {:.3}}},\n",
        info.text_bytes,
        info.binary_bytes,
        info.compression_ratio(),
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, s)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"events\": {}, \"bytes\": {}, \"wall_ms\": {:.3}, \
             \"events_per_sec\": {:.0}, \"bytes_per_sec\": {:.0}, \"allocs\": {}, \
             \"allocs_per_event\": {:.3}, \"repetitions\": {}",
            s.events,
            s.bytes,
            s.wall_s * 1e3,
            s.events_per_sec(),
            s.bytes_per_sec(),
            s.allocs,
            s.allocs_per_event(),
            s.repetitions,
        ));
        if let Some((_, p)) = priors.iter().find(|(n, _)| n == name) {
            out.push_str(&format!(
                ", \"before\": {{\"events_per_sec\": {:.0}, \"bytes_per_sec\": {:.0}, \
                 \"allocs_per_event\": {:.3}}}",
                p.events_per_sec, p.bytes_per_sec, p.allocs_per_event,
            ));
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let mut out_path = String::from("BENCH_PR10.json");
    let mut before_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut threshold = 2.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--out" => out_path = value("--out"),
            "--before" => before_path = Some(value("--before")),
            "--check" => check_path = Some(value("--check")),
            "--threshold" => {
                threshold = value("--threshold")
                    .parse()
                    .unwrap_or_else(|_| die("--threshold needs a number"))
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }

    let host = Host::detect();
    eprintln!("{:>23}: nproc {}, {}", "host", host.nproc, host.cpu_model);
    let (results, info) = measure();
    for (name, s) in &results {
        eprintln!(
            "{name:>23}: {:>10.0} events/s  {:>12.0} bytes/s  {:>8.2} allocs/event  ({:.3} ms)",
            s.events_per_sec(),
            s.bytes_per_sec(),
            s.allocs_per_event(),
            s.wall_s * 1e3,
        );
    }

    let priors = match (&check_path, &before_path) {
        (Some(p), _) => load_priors(p),
        (None, Some(p)) => load_priors(p),
        (None, None) => Vec::new(),
    };

    eprintln!(
        "{:>23}: text {} bytes -> binary {} bytes ({:.2}x)",
        "store",
        info.text_bytes,
        info.binary_bytes,
        info.compression_ratio(),
    );

    let json = render(&host, &results, info, &priors);
    if let Err(e) = std::fs::write(&out_path, &json) {
        die(&format!("cannot write {out_path}: {e}"));
    }
    eprintln!("wrote {out_path}");

    if check_path.is_some() {
        let mut failed = false;
        for (name, s) in &results {
            let Some((_, p)) = priors.iter().find(|(n, _)| n == name) else {
                eprintln!("check {name}: no baseline entry, skipping");
                continue;
            };
            // Wall-clock regression: slower than baseline by more than the
            // threshold factor.
            if p.events_per_sec > 0.0 && s.events_per_sec() < p.events_per_sec / threshold {
                eprintln!(
                    "check {name}: REGRESSION events/sec {:.0} < baseline {:.0} / {threshold}",
                    s.events_per_sec(),
                    p.events_per_sec
                );
                failed = true;
            }
            // Allocation regression: alloc counts are deterministic, so
            // the same threshold is generous headroom for intentional
            // small changes while catching an accidental per-event leak.
            let budget = (p.allocs_per_event * threshold).max(0.5);
            if s.allocs_per_event() > budget {
                eprintln!(
                    "check {name}: REGRESSION allocs/event {:.3} > baseline {:.3} x {threshold}",
                    s.allocs_per_event(),
                    p.allocs_per_event
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("check passed (threshold {threshold}x)");
    }
}
