//! Run orchestration: a flat job list over locations × repeated runs ×
//! areas, drained by a bounded work-stealing worker pool.
//!
//! Every (area, location, run) job is enumerated up front with its seed.
//! Each job is simulated once, as a one-UE [`UeBatch`] over its area's
//! shared [`RadioTables`] — the radio precomputation (shadowing fields,
//! channel cell lists, compiled path-loss constants) is built once per
//! area instead of once per run. Workers claim jobs through a shared
//! atomic cursor, run them out of a per-worker scratch (pooled recorders,
//! outputs and analyzers) and accumulate into **private** [`Aggregates`]
//! shards — no lock is held anywhere on the hot path. Shards are folded
//! together once at the end through commutative [`Merge`] operations and
//! a final deterministic record sort, so the resulting [`Dataset`] is
//! bitwise-identical for any worker count.
//!
//! With [`CampaignConfig::chaos`] set, the same pipeline applies the
//! dirty capture as a transform on each simulated run (render → corrupt →
//! lossy re-parse → analyze): failed attempts are retried with backoff
//! and a fresh chaos seed over the same rendered log, and persistently
//! failing runs are quarantined into the dataset's [`QuarantineReport`]
//! instead of aborting the campaign — a worker never lets one poisoned
//! run take down the other several hundred.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use onoff_detect::channel::{ChannelUsage, Merge, ScellModStats};
use onoff_detect::{RunAnalysis, TraceAnalyzer};
use onoff_nsglog::{emit_to, parse_str_lossy_into};
use onoff_policy::{policy_for, DeviceProfile, Operator, OperatorPolicy, PhoneModel};
use onoff_radio::noise::hash_words;
use onoff_radio::RadioTables;
use onoff_rrc::ids::Rat;
use onoff_rrc::perf::FxMap;
use onoff_sim::recorder::Recorder;
use onoff_sim::{simulate, ChaosConfig, ChaosEngine, MovementPath, SimConfig, SimOutput, UeBatch};

use crate::areas::{all_areas, Area};
use crate::dataset::{location_predictions, CampaignStats, Dataset};
use crate::quarantine::{ChaosOptions, QuarantineReport, QuarantinedRun};
use crate::record::{scoring_config_for, RunRecord};

/// Worker-pool sizing for [`run_campaign`].
#[derive(Debug, Clone)]
pub struct ParallelismConfig {
    /// Worker threads draining the job list. `1` reproduces a sequential
    /// campaign; the default uses every available core.
    pub workers: usize,
}

impl ParallelismConfig {
    /// One worker per available core.
    pub fn all_cores() -> ParallelismConfig {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        ParallelismConfig { workers }
    }

    /// Exactly `workers` workers (minimum one).
    pub fn with_workers(workers: usize) -> ParallelismConfig {
        ParallelismConfig {
            workers: workers.max(1),
        }
    }
}

impl Default for ParallelismConfig {
    fn default() -> Self {
        ParallelismConfig::all_cores()
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: deployments and every run derive from it.
    pub seed: u64,
    /// Stationary runs per location in the showcase area A1 (paper: ≥10).
    pub runs_a1: usize,
    /// Runs per location elsewhere (paper: ≥5, mostly 10).
    pub runs_other: usize,
    /// The phone model (the basic dataset uses the OnePlus 12R).
    pub device: PhoneModel,
    /// Run duration, ms (paper: 5-minute runs).
    pub duration_ms: u64,
    /// Worker-pool sizing. Affects wall-clock only, never the dataset.
    pub parallelism: ParallelismConfig,
    /// Chaos mode: corrupt every run's rendered log, re-parse lossily,
    /// retry failures and quarantine runs that keep failing. `None` (the
    /// default) keeps the fused clean pipeline.
    pub chaos: Option<ChaosOptions>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x050FF,
            runs_a1: 10,
            runs_other: 6,
            device: PhoneModel::OnePlus12R,
            duration_ms: 300_000,
            parallelism: ParallelismConfig::default(),
            chaos: None,
        }
    }
}

/// Measurement period of every stationary run, ms.
const MEAS_PERIOD_MS: u64 = 1000;

/// Runs one stationary experiment and condenses it to a record.
pub fn run_location(
    area: &Area,
    location: usize,
    device: PhoneModel,
    seed: u64,
    duration_ms: u64,
) -> (RunRecord, SimOutput, RunAnalysis) {
    run_location_with_policy(
        area,
        location,
        device,
        seed,
        duration_ms,
        policy_for(area.operator),
    )
}

/// [`run_location`] with an explicit (possibly modified) policy — the
/// hook for mitigation/what-if experiments.
pub fn run_location_with_policy(
    area: &Area,
    location: usize,
    device: PhoneModel,
    seed: u64,
    duration_ms: u64,
    policy: OperatorPolicy,
) -> (RunRecord, SimOutput, RunAnalysis) {
    let mut core = TraceAnalyzer::with_scoring(scoring_config_for(area.operator, &policy));
    let mut cfg = SimConfig::stationary(
        policy,
        device,
        area.env.clone(),
        area.locations[location],
        seed,
    );
    cfg.duration_ms = duration_ms;
    cfg.meas_period_ms = MEAS_PERIOD_MS;
    let out = simulate(&cfg);
    let (record, analysis) = analyze_run(&mut core, area, location, device, seed, &out);
    (record, out, analysis)
}

/// Feeds one run's trace through a reset analyzer and condenses it to a
/// record.
///
/// Fused hot path: simulator output goes straight into the incremental
/// analysis core — no emit→parse text round-trip, no event re-buffering.
/// Sim events are time-ordered, so the bare core applies; agreement with
/// the text round-trip is enforced by `tests/fused_roundtrip.rs`. The same
/// pass drives the online §6 scorer, so predictions ride along at zero
/// extra trace traversals. `reset` is observationally identical to a fresh
/// core (pinned by `reset_core_equals_fresh_core` in `onoff-detect`), so a
/// pooled analyzer and a fresh one give the same record.
fn analyze_run(
    core: &mut TraceAnalyzer,
    area: &Area,
    location: usize,
    device: PhoneModel,
    seed: u64,
    out: &SimOutput,
) -> (RunRecord, RunAnalysis) {
    core.reset();
    for ev in &out.events {
        core.feed(ev);
    }
    let predictions = core.predictions().expect("scoring enabled");
    let analysis = core.analysis();
    let record = RunRecord::from_run(
        area.operator,
        &area.name,
        location,
        device,
        seed,
        out,
        &analysis,
        &predictions,
    );
    (record, analysis)
}

/// Per-area precomputation, built once and shared by every job (and every
/// worker): the policy and the radio tables. Tables are salt-independent —
/// each UE applies its own per-run fading salt inside its sampler — so one
/// unsalted build serves all seeds.
struct AreaCtx<'a> {
    area: &'a Area,
    policy: OperatorPolicy,
    tables: RadioTables<'a>,
}

/// Per-worker run scratch: everything the run pipeline recycles across
/// jobs so the clean steady state allocates nothing.
///
/// One instance lives for a worker's whole drain. Analyzers are keyed by
/// operator because the §6 scoring config differs per operator; each is
/// reset between runs by [`analyze_run`]. `outs` and `rec_pool` recycle
/// the simulator's event/truth vectors through [`UeBatch::run_into`] — see
/// DESIGN.md §16 for the reset-safety contract. `logs` are the chaos
/// transform's text buffers (unused on the clean path).
#[derive(Default)]
struct RunScratch {
    analyzers: FxMap<Operator, TraceAnalyzer>,
    outs: Vec<SimOutput>,
    rec_pool: Vec<Recorder>,
    logs: LogBufs,
}

/// The chaos transform's pooled text: the run's rendered log and the
/// corrupted copy each attempt parses. Both are cleared, never freed, so
/// a worker stops allocating log text once its buffers have grown to the
/// longest run's log.
#[derive(Default)]
struct LogBufs {
    clean: String,
    dirty: String,
}

/// Aggregates accumulated by one worker (and, after merging, the whole
/// campaign).
///
/// Shards accumulate into unordered [`FxMap`]s on the hot path; the sorted
/// `BTreeMap`s the persisted [`Dataset`] carries are built once at the end
/// of [`run_campaign`], so the output stays bitwise-identical at any
/// worker count.
#[derive(Debug, Default)]
struct Aggregates {
    records: Vec<RunRecord>,
    usage_nr: FxMap<Operator, ChannelUsage>,
    usage_lte: FxMap<Operator, ChannelUsage>,
    scell_mod: FxMap<Operator, ScellModStats>,
    quarantine: QuarantineReport,
    events_processed: u64,
    simulated_ms: u64,
}

impl Merge for Aggregates {
    fn merge(&mut self, other: Aggregates) {
        self.records.extend(other.records);
        // Fully qualified: `FxMap` may grow an inherent `merge` one day
        // (unstable_name_collisions).
        Merge::merge(&mut self.usage_nr, other.usage_nr);
        Merge::merge(&mut self.usage_lte, other.usage_lte);
        Merge::merge(&mut self.scell_mod, other.scell_mod);
        Merge::merge(&mut self.quarantine, other.quarantine);
        self.events_processed += other.events_processed;
        self.simulated_ms += other.simulated_ms;
    }
}

impl Aggregates {
    /// Executes one job out of the worker's [`RunScratch`] and folds it
    /// into this shard.
    ///
    /// The run is simulated exactly once, as a one-UE [`UeBatch`] over the
    /// area's shared tables, writing into the pooled `SimOutput`. Clean
    /// mode analyzes that output directly; chaos mode hands it to
    /// [`Aggregates::run_chaotic`], which replaces its events with what
    /// survives the dirty capture — or quarantines the run.
    fn absorb(
        &mut self,
        ctx: &AreaCtx<'_>,
        device: &DeviceProfile,
        job: &Job,
        cfg: &CampaignConfig,
        scratch: &mut RunScratch,
    ) {
        let RunScratch {
            analyzers,
            outs,
            rec_pool,
            logs,
        } = scratch;
        let area = ctx.area;
        let mut batch = UeBatch::new(
            &ctx.policy,
            device,
            &ctx.tables,
            cfg.duration_ms,
            MEAS_PERIOD_MS,
        );
        batch.push_with_recorder(
            MovementPath::Stationary(area.locations[job.location]),
            job.seed,
            rec_pool.pop().unwrap_or_default(),
        );
        batch.run_into(outs, rec_pool);
        let out = &mut outs[0];
        let core = analyzers.entry(area.operator).or_insert_with(|| {
            TraceAnalyzer::with_scoring(scoring_config_for(area.operator, &ctx.policy))
        });
        let mut analyze =
            |out: &SimOutput| analyze_run(core, area, job.location, cfg.device, job.seed, out);
        let run = match &cfg.chaos {
            None => Some(analyze(out)),
            Some(opts) => self.run_chaotic(area, job, opts, out, logs, analyze),
        };
        // Quarantined runs are in the ledger, not the aggregates.
        if let Some((record, analysis)) = run {
            self.fold_run(area.operator, cfg.duration_ms, record, out, &analysis);
        }
    }

    /// Chaos transform of one simulated run: renders the trace to NSG text
    /// once, then per attempt corrupts it with a fresh reproducible chaos
    /// seed, re-parses it under the lossy policy and runs `analyze` on
    /// what survived. Both texts live in the worker's pooled [`LogBufs`].
    /// The first attempt whose loss stays in bounds is accepted with its
    /// surviving events left in `out`, so the record and the aggregates
    /// reflect what an analyst reading the dirty capture would see.
    /// Failed attempts (by loss or by panic) are retried with backoff; a
    /// run that fails every attempt is quarantined.
    ///
    /// The panic guard covers every stage that sees corrupted bytes:
    /// corrupt, parse and analyze. The simulator sees no chaos input and
    /// runs unguarded, as on the clean path.
    fn run_chaotic(
        &mut self,
        area: &Area,
        job: &Job,
        opts: &ChaosOptions,
        out: &mut SimOutput,
        logs: &mut LogBufs,
        mut analyze: impl FnMut(&SimOutput) -> (RunRecord, RunAnalysis),
    ) -> Option<(RunRecord, RunAnalysis)> {
        let attempts = opts.max_attempts.max(1);
        let mut last_reason = String::new();
        let poisoned = opts
            .poison
            .as_ref()
            .is_some_and(|(a, l)| *a == area.name && *l == job.location);
        let chaos_cfg = if poisoned {
            ChaosConfig::destroy()
        } else {
            opts.chaos.clone()
        };
        let LogBufs { clean, dirty } = logs;
        clean.clear();
        emit_to(&out.events, clean).expect("fmt::Write to a String is infallible");
        for attempt in 1..=attempts {
            if attempt > 1 && opts.backoff_base_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(
                    opts.backoff_base_ms << (attempt - 2),
                ));
            }
            // Fresh fault pattern per attempt, reproducible from the job.
            let chaos_seed = hash_words(&[job.seed, u64::from(attempt), 0xC4A05]);
            let result = catch_unwind(AssertUnwindSafe(|| {
                ChaosEngine::new(chaos_cfg.clone(), chaos_seed).corrupt_text_into(clean, dirty);
                let stats = parse_str_lossy_into(dirty, opts.policy, &mut out.events);
                let run = analyze(out);
                (run, stats)
            }));
            match result {
                Ok((run, stats)) if stats.loss_ratio() <= opts.max_loss_ratio => {
                    self.quarantine.records_lost += stats.skipped;
                    self.quarantine.timestamps_repaired += stats.timestamps_repaired;
                    return Some(run);
                }
                Ok((_, stats)) => {
                    last_reason = format!(
                        "loss ratio {:.2} exceeds {:.2}",
                        stats.loss_ratio(),
                        opts.max_loss_ratio
                    );
                }
                Err(_) => last_reason = "pipeline panicked".to_string(),
            }
        }
        self.quarantine.runs.push(QuarantinedRun {
            operator: area.operator,
            area: area.name.clone(),
            location: job.location,
            seed: job.seed,
            attempts,
            reason: last_reason,
        });
        None
    }

    /// Folds one finished run (record + trace + analysis) into this shard.
    fn fold_run(
        &mut self,
        operator: Operator,
        duration_ms: u64,
        record: RunRecord,
        out: &SimOutput,
        analysis: &RunAnalysis,
    ) {
        self.quarantine.clamped_events += analysis.degradation.clamped_events;
        let usage_nr = self.usage_nr.entry(operator).or_default();
        if record.has_loop {
            usage_nr.add_loop_transitions(&analysis.off_transitions, Rat::Nr);
        } else {
            usage_nr.add_no_loop_run(&analysis.timeline, Rat::Nr);
        }
        let usage_lte = self.usage_lte.entry(operator).or_default();
        if record.has_loop {
            usage_lte.add_loop_transitions(&analysis.off_transitions, Rat::Lte);
        } else {
            usage_lte.add_no_loop_run(&analysis.timeline, Rat::Lte);
        }
        self.scell_mod
            .entry(operator)
            .or_default()
            .add_trace(&out.events);
        self.events_processed += out.events.len() as u64;
        self.simulated_ms += duration_ms;
        self.records.push(record);
    }
}

/// One unit of campaign work: a single stationary run.
#[derive(Debug, Clone, Copy)]
struct Job {
    area_idx: usize,
    location: usize,
    seed: u64,
}

/// Injective encoding of an area name for seed derivation. All bytes of
/// ASCII names are below the base, so names up to nine bytes map to
/// distinct words — unlike hashing only two bytes, which collided for
/// names sharing first-interior and last characters (e.g. "A1" vs "A10"
/// vs a hypothetical "A100").
fn area_name_word(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(u64::from(b)))
}

/// The per-run seed: master seed × operator × full area name × location ×
/// run index.
fn job_seed(cfg_seed: u64, area: &Area, location: usize, run: usize) -> u64 {
    hash_words(&[
        cfg_seed,
        area.operator as u64,
        area_name_word(&area.name),
        location as u64,
        run as u64,
    ])
}

/// Enumerates every (area, location, run) job in deterministic order.
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
                jobs.push(Job {
                    area_idx,
                    location,
                    seed: job_seed(cfg.seed, area, location, r),
                });
            }
        }
    }
    jobs
}

/// Drains the job list with `workers` threads claiming jobs through a
/// shared atomic cursor, folding into per-worker [`Aggregates`] shards
/// merged at the end. Every [`Merge`] impl is commutative, so the result
/// is independent of both worker count and job interleaving. One worker
/// drains inline on the caller's thread.
///
/// Each worker owns one [`RunScratch`] for its whole drain. Scratch never
/// crosses workers and never outlives the drain, so (given reset-safe
/// reuse, see DESIGN.md §16) it cannot affect the merged result.
fn run_jobs(areas: &[Area], jobs: &[Job], workers: usize, cfg: &CampaignConfig) -> Aggregates {
    let ctxs: Vec<AreaCtx<'_>> = areas
        .iter()
        .map(|area| AreaCtx {
            area,
            policy: policy_for(area.operator),
            tables: RadioTables::new(&area.env),
        })
        .collect();
    let device = cfg.device.profile();
    let cursor = AtomicUsize::new(0);
    let drain = || {
        let mut shard = Aggregates::default();
        let mut scratch = RunScratch::default();
        while let Some(job) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            shard.absorb(&ctxs[job.area_idx], &device, job, cfg, &mut scratch);
        }
        shard
    };
    if workers == 1 {
        return drain();
    }
    let mut shards = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("campaign worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut agg = shards.remove(0);
    for shard in shards {
        agg.merge(shard);
    }
    agg
}

/// Runs the full eleven-area campaign and assembles the dataset.
pub fn run_campaign(cfg: &CampaignConfig) -> Dataset {
    let started = std::time::Instant::now();
    let areas = all_areas(cfg.seed);
    let jobs = enumerate_jobs(&areas, cfg);
    let workers = cfg.parallelism.workers.max(1).min(jobs.len().max(1));
    let mut agg = run_jobs(&areas, &jobs, workers, cfg);

    // Deterministic record order regardless of thread interleaving.
    agg.records.sort_by(|a, b| {
        (a.operator, &a.area, a.location, a.seed).cmp(&(b.operator, &b.area, b.location, b.seed))
    });
    agg.quarantine.runs.sort_by(|a, b| {
        (a.operator, &a.area, a.location, a.seed).cmp(&(b.operator, &b.area, b.location, b.seed))
    });

    let mut cell_counts = BTreeMap::new();
    for area in &areas {
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

    let wall = started.elapsed();
    let secs = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let stats = CampaignStats {
        runs: jobs.len(),
        workers,
        events_processed: agg.events_processed,
        simulated_ms: agg.simulated_ms,
        wall_ms: wall.as_millis() as u64,
        runs_per_sec: jobs.len() as f64 / secs,
        simulated_ms_per_sec: agg.simulated_ms as f64 / secs,
    };

    // Built from the already-sorted records, so the predicted-vs-observed
    // table inherits the dataset's worker-count invariance for free.
    let predictions = location_predictions(&agg.records);

    Dataset {
        records: agg.records,
        predictions,
        // Sort-at-finalize: hash-ordered shards become the dataset's
        // deterministic operator-keyed maps here, once.
        usage_nr: agg.usage_nr.into_iter().collect(),
        usage_lte: agg.usage_lte.into_iter().collect(),
        scell_mod: agg.scell_mod.into_iter().collect(),
        cell_counts,
        areas: areas
            .iter()
            .map(|a| (a.name.clone(), a.operator, a.size_km2()))
            .collect(),
        quarantine: agg.quarantine,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::areas::area_a1;

    #[test]
    fn run_location_produces_a_record() {
        let a1 = area_a1(42);
        let (record, out, analysis) = run_location(&a1, 0, PhoneModel::OnePlus12R, 7, 120_000);
        assert_eq!(record.area, "A1");
        assert_eq!(record.operator, Operator::OpT);
        assert!((record.minutes - 2.0).abs() < 0.1);
        assert!(record.meas_results > 0);
        assert!(!out.events.is_empty());
        assert!(analysis.timeline.unique_sets() >= 1);
    }

    #[test]
    fn run_location_is_deterministic() {
        let a1 = area_a1(42);
        let (r1, ..) = run_location(&a1, 3, PhoneModel::OnePlus12R, 9, 60_000);
        let (r2, ..) = run_location(&a1, 3, PhoneModel::OnePlus12R, 9, 60_000);
        assert_eq!(r1, r2);
    }

    #[test]
    fn area_name_word_is_injective_over_area_names() {
        let names = [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9", "A10", "A11",
        ];
        let words: std::collections::BTreeSet<u64> =
            names.iter().map(|n| area_name_word(n)).collect();
        assert_eq!(words.len(), names.len());
    }

    #[test]
    fn job_seeds_are_distinct_across_areas_sharing_name_shape() {
        // The old derivation hashed name bytes [1] and [last] only, making
        // "A1" at (loc, r) collide with "A10"/"A11" patterns under seed
        // reuse; the full-name word keeps every job seed distinct.
        let areas = all_areas(5);
        let cfg = CampaignConfig {
            runs_a1: 2,
            runs_other: 2,
            ..Default::default()
        };
        let jobs = enumerate_jobs(&areas, &cfg);
        let seeds: std::collections::BTreeSet<u64> = jobs.iter().map(|j| j.seed).collect();
        assert_eq!(seeds.len(), jobs.len());
    }
}
