//! The `campaign` and `campaign-chaos` workloads.
//!
//! End to end, a run times `onoff_campaign::run_campaign` from outside,
//! pass after pass over seven consecutive campaign seeds, with `nproc`
//! workers.
//! The traced run rebuilds the same dataset single-threaded from the
//! layers' public calls — areas, radio tables, `UeBatch`, the analyzer,
//! the scorer, `RunRecord::from_run`, the channel folds, `Merge` and
//! `location_predictions` — with a span around each call, and must
//! serialize to the same digest as `run_campaign` at `nproc` workers.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use onoff_campaign::areas::Area;
use onoff_campaign::{
    all_areas, location_predictions, run_campaign, scoring_config_for, CampaignConfig,
    ChaosOptions, Dataset, Merge, ParallelismConfig, QuarantineReport, QuarantinedRun, RunRecord,
};
use onoff_detect::{ChannelUsage, RunAnalysis, ScellModStats, TraceAnalyzer};
use onoff_policy::{policy_for, Operator, OperatorPolicy};
use onoff_predict::OnlineScorer;
use onoff_radio::noise::hash_words;
use onoff_radio::RadioTables;
use onoff_rrc::ids::Rat;
use onoff_sim::recorder::Recorder;
use onoff_sim::{simulate, ChaosEngine, MovementPath, SimConfig, SimOutput, UeBatch};

use crate::stats::{fastest_time, median, percentile, Outcomes};
use crate::trace::{fold, Tracer};
use crate::{vm_hwm_mb, Layer, Report};

/// Set-ups timed before every pass, for the pass's campaign seed;
/// `setup_s` is the median over the run. A set-up takes well under a
/// millisecond, and a burst of them at the start of the process sampled
/// a single moment of the host: run medians fell in two modes 50% apart.
/// Spread over the run, they sample every pass.
const SETUP_REPS: usize = 4;
/// Times each figure query runs against every pass's dataset.
const QUERY_REPS: usize = 4;
/// Consecutive campaign seeds an untraced run covers.
///
/// The campaign seed builds the deployment, and the cost of a campaign
/// follows it: on a shared 2-vCPU VM, over campaign seeds 1 << 20 to
/// 10 << 20, the fastest chaos pass ran from 225 to 314 runs/s, slower
/// where more runs were quarantined (78 against 29). One campaign per
/// run would spread 0.21 (quartile distance over the median, ten seeds)
/// from the seeds alone; two sets of ten runs over seven campaigns each
/// spread 0.139 and 0.075 there. Seven chaos passes of about 3 s, and a
/// repeat, fill a 25-s run.
const CAMPAIGNS: u64 = 7;

/// Campaign seed `i` of a run started with `--seed seed`. Runs with
/// different seeds use disjoint campaign seeds.
fn campaign_seed(seed: u64, i: u64) -> u64 {
    (seed << 20) + i
}

/// The paper-scale campaign (`CampaignConfig::default()`), optionally in
/// chaos mode without retry sleeps, with `workers` workers.
fn config(seed: u64, chaos: bool, workers: usize) -> CampaignConfig {
    CampaignConfig {
        seed,
        parallelism: ParallelismConfig::with_workers(workers),
        chaos: chaos.then(|| ChaosOptions {
            backoff_base_ms: 0,
            ..ChaosOptions::default()
        }),
        ..CampaignConfig::default()
    }
}

/// The digest the correctness check compares: every persisted byte of
/// the dataset (wall-clock stats are not persisted). It serializes one
/// record, prediction or aggregate at a time: the whole dataset's JSON
/// runs to several MB, and holding it set the benchmark process's peak
/// RSS, which `rss_peak_mb` reports for the campaign.
fn digest(ds: &Dataset) -> u64 {
    // Naming every field makes a new persisted field a compile error here.
    let Dataset {
        records,
        predictions,
        usage_nr,
        usage_lte,
        scell_mod,
        cell_counts,
        areas,
        quarantine,
        stats: _,
    } = ds;
    fn sum(json: serde_json::Result<String>) -> u64 {
        onoff_store::checksum(json.expect("dataset serializes").as_bytes())
    }
    let mut parts: Vec<u64> = records
        .iter()
        .map(|r| sum(serde_json::to_string(r)))
        .collect();
    parts.extend(predictions.iter().map(|p| sum(serde_json::to_string(p))));
    parts.extend([
        records.len() as u64,
        predictions.len() as u64,
        sum(serde_json::to_string(usage_nr)),
        sum(serde_json::to_string(usage_lte)),
        sum(serde_json::to_string(scell_mod)),
        sum(serde_json::to_string(cell_counts)),
        sum(serde_json::to_string(areas)),
        sum(serde_json::to_string(quarantine)),
    ]);
    let bytes: Vec<u8> = parts.iter().flat_map(|p| p.to_le_bytes()).collect();
    onoff_store::checksum(&bytes)
}

/// Program set-up: deployments plus compiled radio tables for every area.
fn setup(seed: u64) -> f64 {
    let t = Instant::now();
    let areas = all_areas(seed);
    let tables: Vec<RadioTables<'_>> = areas.iter().map(|a| RadioTables::new(&a.env)).collect();
    std::hint::black_box(&tables);
    t.elapsed().as_secs_f64()
}

/// Times the figure queries an analyst runs over a finished dataset
/// (the per-operator and per-area series `repro` renders), each call one
/// sample, in ms.
fn time_queries(ds: &Dataset, out: &mut Vec<f64>) {
    let ops = [Operator::OpT, Operator::OpA, Operator::OpV];
    let areas: Vec<String> = ds.areas.iter().map(|(name, ..)| name.clone()).collect();
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e3);
    };
    for _ in 0..QUERY_REPS {
        for &op in &ops {
            timed(&mut || {
                std::hint::black_box(ds.loop_ratio(op));
            });
            timed(&mut || {
                std::hint::black_box(ds.table3_row(op));
            });
            timed(&mut || {
                std::hint::black_box(ds.cycle_stats(op));
            });
            timed(&mut || {
                std::hint::black_box(ds.off_times_by_type(op));
            });
        }
        for area in &areas {
            timed(&mut || {
                std::hint::black_box(ds.area_loop_ratio(area));
            });
            timed(&mut || {
                std::hint::black_box(ds.location_likelihoods(area));
            });
        }
    }
}

/// Whether another iteration, as long as the mean of the `done` so far,
/// still ends within `seconds` of `started`.
fn fits(started: &Instant, done: u64, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    elapsed + elapsed / done as f64 <= seconds
}

/// One campaign of an untraced run.
struct Timed {
    runs: usize,
    events: u64,
    /// Digest of the first pass; every repeat must match it.
    digest: u64,
    /// The campaign's fastest pass, s.
    fastest_s: f64,
}

/// The untraced end-to-end run. It runs each of the [`CAMPAIGNS`]
/// campaigns once and the first again, however long that takes, then
/// repeats them in turn while another pass fits in `seconds`. A repeat
/// re-times the same runs and must serialize to the same bytes; it adds
/// no runs, so a run's runs and quarantined runs do not depend on how
/// many passes fit.
pub fn run(seed: u64, chaos: bool, seconds: f64, nproc: usize) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut outcomes = Outcomes::default();
    let mut campaigns: Vec<Timed> = Vec::new();
    let started = Instant::now();
    let mut i = 0;
    while i <= CAMPAIGNS || fits(&started, i, seconds) {
        let c = i % CAMPAIGNS;
        let cfg = config(campaign_seed(seed, c), chaos, nproc);
        setups.extend((0..SETUP_REPS).map(|_| setup(cfg.seed)));
        let t = Instant::now();
        let ds = run_campaign(&cfg);
        let wall = t.elapsed().as_secs_f64();
        eprintln!(
            "pass {i}: campaign seed {}, {:.1} ms, {:.3} runs/s",
            cfg.seed,
            wall * 1e3,
            ds.stats.runs as f64 / wall
        );
        let d = digest(&ds);
        match campaigns.get_mut(c as usize) {
            None => {
                let quarantined = ds.quarantine.runs.len();
                if ds.records.len() + quarantined != ds.stats.runs {
                    return Err(format!(
                        "campaign seed {}: {} records + {quarantined} quarantined != {} runs",
                        cfg.seed,
                        ds.records.len(),
                        ds.stats.runs
                    ));
                }
                for k in 0..ds.stats.runs {
                    outcomes.record(k < quarantined);
                }
                campaigns.push(Timed {
                    runs: ds.stats.runs,
                    events: ds.stats.events_processed,
                    digest: d,
                    fastest_s: wall,
                });
            }
            // Repetition: the same campaign seed must give the same bytes.
            Some(first) if first.digest != d => {
                return Err(format!(
                    "campaign seed {} serialized to {:016x}, then to {d:016x}",
                    cfg.seed, first.digest
                ));
            }
            Some(timed) => timed.fastest_s = timed.fastest_s.min(wall),
        }
        i += 1;
    }

    // The rates are the campaigns' work over their fastest passes' time.
    let fastest: f64 = campaigns.iter().map(|c| c.fastest_s).sum();
    let runs: usize = campaigns.iter().map(|c| c.runs).sum();
    let events: u64 = campaigns.iter().map(|c| c.events).sum();
    let mut r = Report::new(outcomes);
    r.metric("setup_s", median(&mut setups));
    r.metric("runs_per_s", runs as f64 / fastest);
    r.metric("capacity_events_per_s", events as f64 / fastest);
    r.metric("rss_peak_mb", vm_hwm_mb("self")?);
    r.stamp("passes", i.to_string());
    r.stamp("campaigns", CAMPAIGNS.to_string());
    r.stamp("first_campaign_seed", campaign_seed(seed, 0).to_string());
    Ok(r)
}

/// The traced run: per pass over the untraced run's first campaign,
/// `run_campaign` at `nproc` workers, then the single-threaded
/// recomposition untraced and traced; all three must serialize to the
/// same digest, and so must every repeat. One campaign keeps the run's
/// runs and quarantined runs independent of how many passes fit.
pub fn run_traced(seed: u64, chaos: bool, seconds: f64, nproc: usize) -> Result<Report, String> {
    let mut traced = Tracer::new(true);
    let mut plain = Tracer::new(false);
    let (mut wall_traced, mut wall_plain) = (0.0f64, 0.0f64);
    let (mut pass_ms, mut query_ms, mut query_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_queries = Vec::new();
    let cfg = config(campaign_seed(seed, 0), chaos, nproc);
    let (mut outcomes, mut first_digest) = (Outcomes::default(), None);
    let started = Instant::now();
    let mut i = 0;
    while i == 0 || fits(&started, i, seconds) {
        let t = Instant::now();
        let ds = run_campaign(&cfg);
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass_queries.clear();
        time_queries(&ds, &mut pass_queries);
        query_ms.extend_from_slice(&pass_queries);
        query_p50s.push(median(&mut pass_queries));
        let reference = digest(&ds);
        drop(ds);
        let t = Instant::now();
        let ds = recompose(&cfg, nproc, &mut plain);
        wall_plain += t.elapsed().as_secs_f64();
        let untraced = digest(&ds);
        drop(ds);
        let t = Instant::now();
        let ds = recompose(&cfg, nproc, &mut traced);
        wall_traced += t.elapsed().as_secs_f64();
        let traced_digest = digest(&ds);
        if untraced != reference || traced_digest != reference {
            return Err(format!(
                "campaign seed {}: run_campaign at {nproc} workers {reference:016x}, \
                 1-worker recomposition {untraced:016x} untraced / {traced_digest:016x} traced",
                cfg.seed
            ));
        }
        match first_digest {
            // The first pass's runs and quarantined runs; later passes
            // repeat them.
            None => {
                outcomes = Outcomes {
                    attempted: traced.counter("campaign.jobs") as u64,
                    failed: traced.counter("campaign.quarantined") as u64,
                };
                first_digest = Some(reference);
            }
            Some(first) if first != reference => {
                return Err(format!(
                    "campaign seed {} serialized to {first:016x}, then to {reference:016x} in pass {i}",
                    cfg.seed
                ));
            }
            Some(_) => {}
        }
        i += 1;
    }

    let folded = fold(traced.spans());
    let layer = Layer(&folded);
    let passes = i as f64;
    let sim_events = traced.counter("sim.events");
    let run_events = traced.counter("run.events");
    let jobs = traced.counter("campaign.jobs");
    let mut r = Report::new(outcomes);
    r.metric("sim.ns_per_event", layer.ns("sim") / sim_events);
    r.metric("sim.allocs_per_event", layer.allocs("sim") / sim_events);
    r.metric("radio.tables_ms", layer.ns("radio.tables") / passes / 1e6);
    r.metric("detect.ns_per_event", layer.ns("detect") / run_events);
    r.metric(
        "detect.allocs_per_event",
        layer.allocs("detect") / run_events,
    );
    r.metric("predict.ns_per_event", layer.ns("predict") / run_events);
    r.metric(
        "predict.allocs_per_event",
        layer.allocs("predict") / run_events,
    );
    r.metric(
        "campaign.record_us_per_run",
        layer.ns("campaign.record") / traced.counter("campaign.records") / 1e3,
    );
    r.metric(
        "campaign.finalize_ms",
        layer.ns("campaign.finalize") / passes / 1e6,
    );
    r.metric(
        "campaign.attempts_per_run",
        traced.counter("campaign.attempts") / jobs,
    );
    r.metric(
        "campaign.quarantine_ratio",
        traced.counter("campaign.quarantined") / jobs,
    );
    if chaos {
        let text_events = traced.counter("emit.events");
        r.metric(
            "chaos.corrupt_ns_per_byte",
            layer.ns("chaos.corrupt") / traced.counter("chaos.bytes"),
        );
        r.metric(
            "nsglog.emit_ns_per_event",
            layer.ns("nsglog.emit") / text_events,
        );
        r.metric(
            "nsglog.parse_ns_per_event",
            layer.ns("nsglog.parse") / run_events,
        );
        r.metric(
            "nsglog.parse_allocs_per_event",
            layer.allocs("nsglog.parse") / run_events,
        );
        r.metric(
            "nsglog.skipped_ratio",
            traced.counter("parse.skipped") / traced.counter("parse.records"),
        );
    }
    r.metric("fail_ratio", r.outcomes.fail_ratio());
    // Latency of the untraced `run_campaign` passes made for the digest
    // and of the figure queries on their datasets: a pass and its
    // queries' median in the fastest pass, and the tails over all.
    r.metric("ingest_p50_ms", fastest_time(&pass_ms));
    r.metric("query_p50_ms", fastest_time(&query_p50s));
    r.metric(
        "ingest_p99_ms",
        percentile(&mut pass_ms, 99.0).unwrap_or(0.0),
    );
    r.metric(
        "query_p99_ms",
        percentile(&mut query_ms, 99.0).unwrap_or(0.0),
    );
    r.coverage(&folded, wall_traced, wall_traced / wall_plain)?;
    r.stamp("passes", i.to_string());
    Ok(r)
}

/// One unit of campaign work, enumerated exactly as `run_campaign` does.
#[derive(Debug, Clone, Copy)]
struct Job {
    area_idx: usize,
    location: usize,
    seed: u64,
}

/// Injective area-name word (`run_campaign`'s seed derivation).
fn area_name_word(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

fn enumerate_jobs(areas: &[Area], cfg: &CampaignConfig) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (area_idx, area) in areas.iter().enumerate() {
        let runs = if area.name == "A1" {
            cfg.runs_a1
        } else {
            cfg.runs_other
        };
        for location in 0..area.locations.len() {
            for r in 0..runs {
                let seed = hash_words(&[
                    cfg.seed,
                    area.operator as u64,
                    area_name_word(&area.name),
                    location as u64,
                    r as u64,
                ]);
                jobs.push(Job {
                    area_idx,
                    location,
                    seed,
                });
            }
        }
    }
    jobs
}

/// Jobs per `UeBatch`, as in `run_campaign` at the time of writing. The
/// program keeps its batch size private, so nothing checks that the two
/// agree: the dataset digest does not depend on batching, and a change to
/// `run_campaign`'s batching would not move `sim.ns_per_event` or
/// `sim.allocs_per_event`, which time this harness's batches.
const BATCH: usize = 8;

fn batch_spans(jobs: &[Job]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    while start < jobs.len() {
        let mut end = start + 1;
        while end < jobs.len() && end - start < BATCH && jobs[end].area_idx == jobs[start].area_idx
        {
            end += 1;
        }
        spans.push((start, end));
        start = end;
    }
    spans
}

/// One worker's share of the aggregates.
#[derive(Default)]
struct Shard {
    records: Vec<RunRecord>,
    usage_nr: BTreeMap<Operator, ChannelUsage>,
    usage_lte: BTreeMap<Operator, ChannelUsage>,
    scell_mod: BTreeMap<Operator, ScellModStats>,
    quarantine: QuarantineReport,
}

impl Shard {
    fn fold_run(
        &mut self,
        op: Operator,
        record: RunRecord,
        out: &SimOutput,
        analysis: &RunAnalysis,
    ) {
        self.quarantine.clamped_events += analysis.degradation.clamped_events;
        for (usage, rat) in [
            (&mut self.usage_nr, Rat::Nr),
            (&mut self.usage_lte, Rat::Lte),
        ] {
            let usage = usage.entry(op).or_default();
            if record.has_loop {
                usage.add_loop_transitions(&analysis.off_transitions, rat);
            } else {
                usage.add_no_loop_run(&analysis.timeline, rat);
            }
        }
        self.scell_mod.entry(op).or_default().add_trace(&out.events);
        self.records.push(record);
    }

    fn merge(&mut self, other: Shard) {
        self.records.extend(other.records);
        // Fully qualified: `BTreeMap` may grow an inherent `merge`.
        Merge::merge(&mut self.usage_nr, other.usage_nr);
        Merge::merge(&mut self.usage_lte, other.usage_lte);
        Merge::merge(&mut self.scell_mod, other.scell_mod);
        self.quarantine.merge(other.quarantine);
    }
}

fn sim_config(area: &Area, job: &Job, cfg: &CampaignConfig, policy: OperatorPolicy) -> SimConfig {
    let mut sim = SimConfig::stationary(
        policy,
        cfg.device,
        area.env.clone(),
        area.locations[job.location],
        job.seed,
    );
    sim.duration_ms = cfg.duration_ms;
    sim.meas_period_ms = 1000;
    sim
}

/// One operator's pooled analyzer and scorer, reset between runs.
fn analyzers(op: Operator, policy: &OperatorPolicy) -> (TraceAnalyzer, OnlineScorer) {
    (
        TraceAnalyzer::new(),
        OnlineScorer::new(scoring_config_for(op, policy)),
    )
}

/// Detect and predict over one run's events, as two separately timed
/// layers; together they equal one scoring `TraceAnalyzer` pass.
fn analyze(
    tr: &mut Tracer,
    core: &mut TraceAnalyzer,
    scorer: &mut OnlineScorer,
    events: &[onoff_rrc::trace::TraceEvent],
) -> (RunAnalysis, onoff_detect::PredictionReport) {
    tr.count("run.events", events.len() as f64);
    let analysis = tr.span("detect", |_| {
        core.reset();
        for ev in events {
            core.feed(ev);
        }
        core.analysis()
    });
    let predictions = tr.span("predict", |_| {
        scorer.reset_session();
        for ev in events {
            scorer.feed(ev);
        }
        scorer.report()
    });
    (analysis, predictions)
}

/// Builds the campaign's dataset from public layer calls on one thread,
/// folding batches into `shards` aggregates merged at the end.
fn recompose(cfg: &CampaignConfig, shards: usize, tr: &mut Tracer) -> Dataset {
    let areas = tr.span("campaign.areas", |_| all_areas(cfg.seed));
    let (jobs, policies) = tr.span("campaign.jobs", |_| {
        let policies: Vec<OperatorPolicy> = areas.iter().map(|a| policy_for(a.operator)).collect();
        (enumerate_jobs(&areas, cfg), policies)
    });
    tr.count("campaign.jobs", jobs.len() as f64);
    let mut parts: Vec<Shard> = (0..shards.max(1)).map(|_| Shard::default()).collect();
    let mut cores: BTreeMap<Operator, (TraceAnalyzer, OnlineScorer)> = BTreeMap::new();
    match &cfg.chaos {
        None => {
            let tables: Vec<RadioTables<'_>> = tr.span("radio.tables", |_| {
                areas.iter().map(|a| RadioTables::new(&a.env)).collect()
            });
            let device = cfg.device.profile();
            let mut outs: Vec<SimOutput> = Vec::new();
            let mut rec_pool: Vec<Recorder> = Vec::new();
            for (b, &(start, end)) in batch_spans(&jobs).iter().enumerate() {
                let batch_jobs = &jobs[start..end];
                let area_idx = batch_jobs[0].area_idx;
                let area = &areas[area_idx];
                let policy = &policies[area_idx];
                tr.span("sim", |_| {
                    let mut batch =
                        UeBatch::new(policy, &device, &tables[area_idx], cfg.duration_ms, 1000);
                    for job in batch_jobs {
                        batch.push_with_recorder(
                            MovementPath::Stationary(area.locations[job.location]),
                            job.seed,
                            rec_pool.pop().unwrap_or_default(),
                        );
                    }
                    batch.run_into(&mut outs, &mut rec_pool);
                });
                let (core, scorer) = cores
                    .entry(area.operator)
                    .or_insert_with(|| analyzers(area.operator, policy));
                let shard = &mut parts[b % shards.max(1)];
                for (job, out) in batch_jobs.iter().zip(&outs) {
                    tr.count("sim.events", out.events.len() as f64);
                    tr.count("campaign.attempts", 1.0);
                    let (analysis, predictions) = analyze(tr, core, scorer, &out.events);
                    let record = tr.span("campaign.record", |_| {
                        RunRecord::from_run(
                            area.operator,
                            &area.name,
                            job.location,
                            cfg.device,
                            job.seed,
                            out,
                            &analysis,
                            &predictions,
                        )
                    });
                    tr.count("campaign.records", 1.0);
                    tr.span("campaign.fold", |_| {
                        shard.fold_run(area.operator, record, out, &analysis)
                    });
                }
            }
        }
        Some(opts) => {
            for (j, job) in jobs.iter().enumerate() {
                let area = &areas[job.area_idx];
                let shard = &mut parts[j % shards.max(1)];
                let policy = &policies[job.area_idx];
                let (core, scorer) = cores
                    .entry(area.operator)
                    .or_insert_with(|| analyzers(area.operator, policy));
                chaos_job(tr, cfg, opts, area, job, policy, core, scorer, shard);
            }
        }
    }
    tr.span("campaign.finalize", |_| finalize(parts, &areas))
}

/// One chaos-mode job: simulate, render, corrupt, lossy re-parse and
/// analyze, retrying with fresh chaos seeds and quarantining a run whose
/// every attempt loses too much — `run_campaign`'s dirty-capture path.
#[allow(clippy::too_many_arguments)]
fn chaos_job(
    tr: &mut Tracer,
    cfg: &CampaignConfig,
    opts: &ChaosOptions,
    area: &Area,
    job: &Job,
    policy: &OperatorPolicy,
    core: &mut TraceAnalyzer,
    scorer: &mut OnlineScorer,
    shard: &mut Shard,
) {
    let attempts = opts.max_attempts.max(1);
    let mut last_reason = String::new();
    for attempt in 1..=attempts {
        tr.count("campaign.attempts", 1.0);
        let chaos_seed = hash_words(&[job.seed, u64::from(attempt), 0xC4A05]);
        let depth = tr.depth();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let out = tr.span("sim", |_| {
                simulate(&sim_config(area, job, cfg, policy.clone()))
            });
            tr.count("sim.events", out.events.len() as f64);
            let text = tr.span("nsglog.emit", |_| onoff_nsglog::emit(&out.events));
            tr.count("emit.events", out.events.len() as f64);
            tr.count("chaos.bytes", text.len() as f64);
            let dirty = tr.span("chaos.corrupt", |_| {
                ChaosEngine::new(opts.chaos.clone(), chaos_seed).corrupt_text(&text)
            });
            let mut events = Vec::new();
            let stats = tr.span("nsglog.parse", |_| {
                onoff_nsglog::parse_str_lossy_into(&dirty, opts.policy, &mut events)
            });
            tr.count("parse.records", stats.records as f64);
            tr.count("parse.skipped", stats.skipped as f64);
            let (analysis, predictions) = analyze(tr, core, scorer, &events);
            let surviving = SimOutput {
                events,
                truth: out.truth,
            };
            let record = tr.span("campaign.record", |_| {
                RunRecord::from_run(
                    area.operator,
                    &area.name,
                    job.location,
                    cfg.device,
                    job.seed,
                    &surviving,
                    &analysis,
                    &predictions,
                )
            });
            (record, surviving, analysis, stats)
        }));
        tr.unwind_to(depth);
        match result {
            Ok((record, surviving, analysis, stats)) => {
                if stats.loss_ratio() <= opts.max_loss_ratio {
                    tr.count("campaign.records", 1.0);
                    tr.span("campaign.fold", |_| {
                        shard.quarantine.records_lost += stats.skipped;
                        shard.quarantine.timestamps_repaired += stats.timestamps_repaired;
                        shard.fold_run(area.operator, record, &surviving, &analysis);
                    });
                    return;
                }
                last_reason = format!(
                    "loss ratio {:.2} exceeds {:.2}",
                    stats.loss_ratio(),
                    opts.max_loss_ratio
                );
            }
            Err(_) => last_reason = "pipeline panicked".to_string(),
        }
    }
    tr.count("campaign.quarantined", 1.0);
    shard.quarantine.runs.push(QuarantinedRun {
        operator: area.operator,
        area: area.name.clone(),
        location: job.location,
        seed: job.seed,
        attempts,
        reason: last_reason,
    });
}

/// The serial tail: shard merge, deterministic ordering, cell counts and
/// the bootstrap predicted-vs-observed table.
fn finalize(parts: Vec<Shard>, areas: &[Area]) -> Dataset {
    let mut parts = parts.into_iter();
    let mut agg = parts.next().expect("at least one shard");
    for part in parts {
        agg.merge(part);
    }
    agg.records.sort_by(|a, b| {
        (a.operator, &a.area, a.location, a.seed).cmp(&(b.operator, &b.area, b.location, b.seed))
    });
    agg.quarantine.runs.sort_by(|a, b| {
        (a.operator, &a.area, a.location, a.seed).cmp(&(b.operator, &b.area, b.location, b.seed))
    });
    let mut cell_counts = BTreeMap::new();
    for area in areas {
        let e = cell_counts.entry(area.operator).or_insert((0usize, 0usize));
        e.0 += area
            .env
            .cells
            .iter()
            .filter(|c| c.cell.rat == Rat::Nr)
            .count();
        e.1 += area
            .env
            .cells
            .iter()
            .filter(|c| c.cell.rat == Rat::Lte)
            .count();
    }
    let predictions = location_predictions(&agg.records);
    Dataset {
        records: agg.records,
        predictions,
        usage_nr: agg.usage_nr,
        usage_lte: agg.usage_lte,
        scell_mod: agg.scell_mod,
        cell_counts,
        areas: areas
            .iter()
            .map(|a| (a.name.clone(), a.operator, a.size_km2()))
            .collect(),
        quarantine: agg.quarantine,
        stats: Default::default(),
    }
}
