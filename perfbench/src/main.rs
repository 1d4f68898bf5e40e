//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --daemon PATH
//! ```
//!
//! Workloads: `campaign`, `campaign-chaos`, `fleet-text`, `fleet-evict`
//! (see `README.md` beside this crate for why each exists). With
//! `--trace 0` the run measures the end-to-end metrics untraced; with
//! `--trace 1` it makes the traced run and reports the per-layer metrics.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`; the line before it stamps the host and settings.
//! A correctness mismatch or an invalid run exits 1 without a result.

mod campaign;
mod fleet;
mod schedule;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::Outcomes;
use trace::{CountingAlloc, Folded};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// End-to-end metrics: every `--trace 0` run prints all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("capacity_events_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics: every `--trace 1` run prints all of them; a layer
/// the workload does not reach reads 0. The latencies sit here, not among
/// the bounded end-to-end metrics: on a shared 2-vCPU host they mostly
/// measure how fast an idle vCPU wakes, which moved by more than 2x over
/// minutes between runs of identical code.
const PER_LAYER: &[(&str, &str)] = &[
    ("ingest_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.allocs_per_event", "count"),
    ("radio.tables_ms", "ms"),
    ("detect.ns_per_event", "ns"),
    ("detect.allocs_per_event", "count"),
    ("predict.ns_per_event", "ns"),
    ("predict.allocs_per_event", "count"),
    ("campaign.record_us_per_run", "us"),
    ("campaign.finalize_ms", "ms"),
    ("chaos.corrupt_ns_per_byte", "ns"),
    ("campaign.attempts_per_run", "count"),
    ("campaign.quarantine_ratio", "ratio"),
    ("nsglog.emit_ns_per_event", "ns"),
    ("nsglog.parse_ns_per_event", "ns"),
    ("nsglog.parse_allocs_per_event", "count"),
    ("nsglog.skipped_ratio", "ratio"),
    ("store.encode_ns_per_event", "ns"),
    ("store.decode_ns_per_event", "ns"),
    ("store.decode_allocs_per_event", "count"),
    ("store.compression_ratio", "ratio"),
    ("protocol.decode_ns_per_frame", "ns"),
    ("session.ingest_ns_per_event", "ns"),
    ("session.allocs_per_event", "count"),
    ("session.query_us", "us"),
    ("session.bytes_per_event", "B"),
    ("snapshot.evictions", "count"),
    ("snapshot.restores", "count"),
    ("snapshot.evict_restore_share", "ratio"),
    ("snapshot.evict_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes_written", "B/evict"),
    ("engine.handle_us.text", "us"),
    ("engine.handle_us.bin", "us"),
    ("engine.handle_us.query", "us"),
    ("engine.handle_us.end", "us"),
    ("daemon.ping_p50_ms", "ms"),
    ("daemon.sheds", "count"),
    ("daemon.frame_errors", "count"),
    ("gen.late_ms_p50", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("gen.late_ms_max", "ms"),
    ("fail_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The conservation rule: layer self times must account for the traced
/// wall clock to within 5%.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.95..=1.05;

/// One run's measurements.
pub struct Report {
    outcomes: Outcomes,
    metrics: BTreeMap<&'static str, f64>,
    stamp: Vec<(String, String)>,
}

impl Report {
    fn new(outcomes: Outcomes) -> Report {
        Report {
            outcomes,
            metrics: BTreeMap::new(),
            stamp: Vec::new(),
        }
    }

    /// Records a metric; a ratio over no work (NaN or infinite) reads 0.
    fn metric(&mut self, name: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name);
        assert!(known, "metric {name} is not declared");
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn stamp(&mut self, key: &str, value: String) {
        self.stamp.push((key.to_string(), value));
    }

    /// Writes the folded spans to stderr, then records the conservation
    /// check's inputs and enforces it.
    fn coverage(
        &mut self,
        folded: &BTreeMap<&'static str, Folded>,
        wall_s: f64,
        overhead: f64,
    ) -> Result<(), String> {
        eprintln!(
            "{:>24} {:>8} {:>12} {:>7} {:>12}",
            "span", "calls", "self_ms", "share", "self_allocs"
        );
        for (name, f) in folded {
            eprintln!(
                "{name:>24} {:>8} {:>12.3} {:>7.4} {:>12}",
                f.calls,
                f.self_ns as f64 / 1e6,
                f.self_ns as f64 / 1e9 / wall_s,
                f.self_allocs
            );
        }
        let coverage = trace::total_self_ns(folded) as f64 / 1e9 / wall_s;
        self.metric("trace.coverage", coverage);
        self.metric("trace.overhead", overhead);
        if COVERAGE.contains(&coverage) {
            Ok(())
        } else {
            Err(format!(
                "layer self times cover {coverage:.3} of the traced wall clock, outside {COVERAGE:?}"
            ))
        }
    }
}

/// Folded span totals, read by layer name.
pub struct Layer<'a>(&'a BTreeMap<&'static str, Folded>);

impl Layer<'_> {
    /// Self time, ns.
    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |f| f.self_ns as f64)
    }

    /// Self allocations.
    fn allocs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |f| f.self_allocs as f64)
    }

    /// Mean self time per call, µs.
    fn per_call_us(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |f| f.self_ns as f64 / f.calls as f64 / 1e3)
    }
}

/// Peak resident set (`VmHWM`) of `/proc/<pid>`, MB.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut daemon) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds needs a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--daemon" => daemon = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        daemon,
    })
}

fn run(a: &Args, nproc: usize) -> Result<Report, String> {
    let daemon = || a.daemon.clone().ok_or("fleet workloads need --daemon PATH");
    match (a.workload.as_str(), a.trace) {
        ("campaign", false) => campaign::run(a.seed, false, a.seconds, nproc),
        ("campaign", true) => campaign::run_traced(a.seed, false, a.seconds, nproc),
        ("campaign-chaos", false) => campaign::run(a.seed, true, a.seconds, nproc),
        ("campaign-chaos", true) => campaign::run_traced(a.seed, true, a.seconds, nproc),
        ("fleet-text", false) => fleet::run(&fleet::TEXT, &daemon()?, a.seed, a.seconds, nproc),
        ("fleet-text", true) => {
            fleet::run_traced(&fleet::TEXT, &daemon()?, a.seed, a.seconds, nproc)
        }
        ("fleet-evict", false) => fleet::run(&fleet::EVICT, &daemon()?, a.seed, a.seconds, nproc),
        ("fleet-evict", true) => {
            fleet::run_traced(&fleet::EVICT, &daemon()?, a.seed, a.seconds, nproc)
        }
        (other, _) => Err(format!(
            "unknown workload {other} (campaign, campaign-chaos, fleet-text, fleet-evict)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = match run(&args, nproc) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let mut host = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), json_str(&cpu_model())),
        ("rustc".to_string(), json_str(env!("PERFBENCH_RUSTC"))),
        ("workers".to_string(), nproc.to_string()),
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
    ];
    host.extend(report.stamp.iter().map(|(k, v)| {
        let v = if v.parse::<f64>().is_ok() {
            v.clone()
        } else {
            json_str(v)
        };
        (k.clone(), v)
    }));
    let fields: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"host\": {{{}}}}}", fields.join(", "));

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::from(1);
            }
        };
        eprintln!("{name:>32} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.outcomes.attempted.max(1),
        report.outcomes.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
