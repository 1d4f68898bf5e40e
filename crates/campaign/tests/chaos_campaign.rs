//! Chaos-mode campaign acceptance: a poisoned run is quarantined instead
//! of aborting the campaign, the quarantine ledger persists, and chaos
//! mode stays deterministic across worker counts.

use onoff_campaign::{
    load_json, run_campaign, save_json, CampaignConfig, ChaosOptions, ParallelismConfig,
};
use onoff_nsglog::RecoveryPolicy;
use onoff_sim::ChaosConfig;

fn reduced_config(workers: usize, chaos: Option<ChaosOptions>) -> CampaignConfig {
    CampaignConfig {
        runs_a1: 2,
        runs_other: 1,
        duration_ms: 15_000,
        parallelism: ParallelismConfig::with_workers(workers),
        chaos,
        ..CampaignConfig::default()
    }
}

fn poisoned_options() -> ChaosOptions {
    ChaosOptions {
        chaos: ChaosConfig::quiet(),
        policy: RecoveryPolicy::SkipAndCount,
        max_attempts: 2,
        backoff_base_ms: 0,
        max_loss_ratio: 0.5,
        poison: Some(("A1".to_string(), 0)),
    }
}

#[test]
fn poisoned_run_is_quarantined_not_fatal() {
    let clean = run_campaign(&reduced_config(2, None));
    let ds = run_campaign(&reduced_config(2, Some(poisoned_options())));

    // Both A1/location-0 runs were poisoned with destroy-level chaos and
    // must end up in the ledger after exhausting their attempts…
    assert_eq!(ds.quarantine.runs.len(), 2);
    for q in &ds.quarantine.runs {
        assert_eq!(q.area, "A1");
        assert_eq!(q.location, 0);
        assert_eq!(q.attempts, 2);
        assert!(
            q.reason.contains("loss ratio"),
            "unexpected reason: {}",
            q.reason
        );
    }
    // …while every other run of the campaign completed and aggregated.
    assert_eq!(ds.records.len(), clean.records.len() - 2);
    assert!(ds
        .records
        .iter()
        .all(|r| !(r.area == "A1" && r.location == 0)));

    // The ledger survives persistence.
    let dir = std::env::temp_dir().join("onoff_chaos_campaign_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ds.json");
    save_json(&ds, &path).unwrap();
    let back = load_json(&path).unwrap();
    assert_eq!(back.quarantine, ds.quarantine);
    std::fs::remove_file(&path).ok();
}

#[test]
fn quiet_chaos_matches_the_clean_pipeline() {
    // With zero fault probabilities the dirty pipeline is the round-trip
    // pipeline: emit → parse is lossless, so the dataset must be
    // bitwise-identical to clean mode and the ledger empty.
    let clean = run_campaign(&reduced_config(1, None));
    let quiet = run_campaign(&reduced_config(
        1,
        Some(ChaosOptions {
            chaos: ChaosConfig::quiet(),
            backoff_base_ms: 0,
            ..ChaosOptions::default()
        }),
    ));
    assert!(quiet.quarantine.is_clean());
    assert_eq!(
        serde_json::to_string_pretty(&clean).unwrap(),
        serde_json::to_string_pretty(&quiet).unwrap()
    );
}

#[test]
fn chaos_campaign_is_worker_count_invariant() {
    let baseline = run_campaign(&reduced_config(1, Some(poisoned_options())));
    let parallel = run_campaign(&reduced_config(3, Some(poisoned_options())));
    assert_eq!(
        serde_json::to_string_pretty(&baseline).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap()
    );
}

/// FNV-1a-64 over a dataset's JSON serialization: a compact fingerprint of
/// every persisted byte.
fn dataset_digest(cfg: &CampaignConfig) -> String {
    let json = serde_json::to_string(&run_campaign(cfg)).unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn golden_config(chaos: Option<ChaosOptions>) -> CampaignConfig {
    CampaignConfig {
        runs_a1: 2,
        runs_other: 1,
        duration_ms: 120_000,
        parallelism: ParallelismConfig::with_workers(2),
        chaos,
        ..CampaignConfig::default()
    }
}

#[test]
fn dataset_bytes_match_the_golden_digests() {
    // Pinned datasets of the clean and dirty-capture pipelines: any change
    // to what a campaign simulates, corrupts, parses, retries or
    // quarantines moves one of these digests.
    let cases = [
        ("clean", None, "d4c37e06f158c11c"),
        (
            "default chaos",
            Some(ChaosOptions {
                backoff_base_ms: 0,
                ..ChaosOptions::default()
            }),
            "8d81d579c8a6b935",
        ),
        (
            "intensity 6, repaired timestamps",
            Some(ChaosOptions {
                chaos: ChaosConfig::default().with_intensity(6.0),
                policy: RecoveryPolicy::RepairTimestamps,
                backoff_base_ms: 0,
                ..ChaosOptions::default()
            }),
            "264be7f6f9fa2519",
        ),
        ("poisoned", Some(poisoned_options()), "dd4bcef97fe582fa"),
    ];
    for (name, chaos, want) in cases {
        assert_eq!(dataset_digest(&golden_config(chaos)), want, "{name}");
    }
}
