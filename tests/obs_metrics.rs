//! Integration tests for the observability layer: the counter invariants
//! the instrumentation promises must hold over real engine runs, and the
//! counters themselves must be deterministic for fixed-seed workloads.
//!
//! All tests share the process-global [`obs`] registry, so each one takes
//! a mutex and measures *deltas* between its own before/after snapshots
//! rather than asserting absolute values.

use cnnperf_core::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a panicking test must not wedge the others
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Four requests: 2 CNNs x 2 GPUs, analytical tier only plus a cold
/// stale-cache tier in front so cache-lookup counters see traffic.
fn four_requests() -> Vec<(String, String)> {
    let mut reqs = Vec::new();
    for m in ["alexnet", "mobilenet"] {
        for d in ["GTX 1080 Ti", "V100S"] {
            reqs.push((m.to_string(), d.to_string()));
        }
    }
    reqs
}

fn quiet_config() -> EngineConfig {
    EngineConfig {
        tiers: vec![Tier::StaleCache, Tier::Analytical],
        ..EngineConfig::default()
    }
}

/// One engine answers the requests in order, each within `deadline_ms`.
fn estimate_all(
    engine: &mut ResilientEngine,
    requests: &[(String, String)],
    deadline_ms: u64,
) -> Vec<EstimateOutcome> {
    requests
        .iter()
        .map(|(m, d)| engine.estimate(m, d, deadline_ms))
        .collect()
}

/// Sum of all `engine.tier.<tier>.failure.*` deltas for one tier.
fn failure_sum(deltas: &BTreeMap<String, u64>, tier: &str) -> u64 {
    let prefix = format!("engine.tier.{tier}.failure.");
    deltas
        .iter()
        .filter(|(k, _)| k.starts_with(&prefix))
        .map(|(_, v)| v)
        .sum()
}

fn delta(deltas: &BTreeMap<String, u64>, name: &str) -> u64 {
    deltas.get(name).copied().unwrap_or(0)
}

#[test]
fn tier_outcomes_sum_to_requests_and_cache_traffic_balances() {
    let _guard = lock();
    let before = obs::global().snapshot();

    let mut engine = ResilientEngine::new(quiet_config());
    let outcomes = estimate_all(&mut engine, &four_requests(), 60_000);
    assert_eq!(outcomes.len(), 4);

    let after = obs::global().snapshot();
    let d = after.delta_counters(&before);

    let requests = delta(&d, "engine.requests");
    assert_eq!(requests, 4, "{d:?}");
    let served = delta(&d, "engine.outcome.served");
    let exhausted = delta(&d, "engine.outcome.exhausted");
    assert_eq!(served + exhausted, requests, "{d:?}");

    // the cold stale-cache tier in front guarantees real lookup traffic
    let lookups = delta(&d, "engine.cache.lookups");
    assert!(lookups >= 4, "{d:?}");
    assert_eq!(
        delta(&d, "engine.cache.hits") + delta(&d, "engine.cache.misses"),
        lookups,
        "{d:?}"
    );

    // every tier consultation is an attempt, and every attempt resolves
    for tier in ["stale-cache", "analytical"] {
        let attempts = delta(&d, &format!("engine.tier.{tier}.attempts"));
        let success = delta(&d, &format!("engine.tier.{tier}.success"));
        assert!(attempts > 0, "tier {tier} saw no attempts: {d:?}");
        assert_eq!(
            success + failure_sum(&d, tier),
            attempts,
            "tier {tier}: {d:?}"
        );
    }
    assert_eq!(cnnperf_core::check_invariants(&d), vec![], "{d:?}");
}

#[test]
fn counters_are_identical_across_two_fixed_runs() {
    let _guard = lock();

    let run = || {
        // memoization is deliberately cross-run state: start each run with a
        // cold analysis cache and kernel table so the determinism contract
        // compares like with like (a warm second run would legitimately
        // count hits, not misses, and prepare no kernels)
        cnnperf_core::clear_analysis_cache();
        ptx_analysis::clear_kernel_table();
        let before = obs::global().snapshot();
        let mut engine = ResilientEngine::new(quiet_config());
        let outcomes = estimate_all(&mut engine, &four_requests(), 60_000);
        assert!(outcomes.iter().all(|o| o.served()), "warm-path run failed");
        obs::global().snapshot().delta_counters(&before)
    };

    let first = run();
    let second = run();
    // exact counters, not just the same keys: the determinism contract is
    // that wall-clock noise is confined to duration-histogram buckets
    assert_eq!(first, second);
    assert!(first.contains_key("engine.requests"), "{first:?}");
    assert!(
        first.keys().any(|k| k.starts_with("ptx.exec.")),
        "analytical tier should exercise the executor: {first:?}"
    );
}

#[test]
fn chaos_faults_show_up_in_failure_counters() {
    let _guard = lock();
    let before = obs::global().snapshot();

    // every analytical invocation faults (hang or panic, split 50/50 by a
    // deterministic per-request draw); the short deadline keeps each
    // injected hang bounded by its tier time slice, and the breaker is
    // effectively disabled so every injected fault reaches its tier
    // instead of collapsing into breaker-open failures
    let config = EngineConfig {
        tiers: vec![Tier::Analytical, Tier::StaleCache],
        chaos: gpu_sim::ChaosProfile::parse("hang=0.5,panic=0.5,seed=7").unwrap(),
        breaker: BreakerConfig {
            min_samples: 1000,
            ..BreakerConfig::default()
        },
    };
    let mut engine = ResilientEngine::new(config);
    let mut requests = four_requests();
    for m in ["vgg16", "resnet50"] {
        for d in ["GTX 1080 Ti", "V100S"] {
            requests.push((m.to_string(), d.to_string()));
        }
    }
    let outcomes = estimate_all(&mut engine, &requests, 300);
    assert!(
        outcomes.iter().all(|o| !o.served()),
        "chaos must deny service"
    );

    let after = obs::global().snapshot();
    let d = after.delta_counters(&before);

    let panics = delta(&d, "engine.tier.analytical.failure.panic");
    let timeouts = delta(&d, "engine.tier.analytical.failure.timeout");
    assert!(panics > 0, "injected panics not counted: {d:?}");
    assert!(
        timeouts > 0,
        "injected hangs not counted as timeouts: {d:?}"
    );

    // tiers that never ran must not accumulate failures
    assert_eq!(failure_sum(&d, "detailed"), 0, "{d:?}");
    assert_eq!(failure_sum(&d, "regressor"), 0, "{d:?}");

    // the global invariants hold under chaos too
    let requests_n = delta(&d, "engine.requests");
    assert_eq!(requests_n, 8, "{d:?}");
    assert_eq!(
        delta(&d, "engine.outcome.served") + delta(&d, "engine.outcome.exhausted"),
        requests_n,
        "{d:?}"
    );
    let attempts = delta(&d, "engine.tier.analytical.attempts");
    assert_eq!(
        delta(&d, "engine.tier.analytical.success") + failure_sum(&d, "analytical"),
        attempts,
        "{d:?}"
    );
    assert_eq!(cnnperf_core::check_invariants(&d), vec![], "{d:?}");
}

#[test]
fn snapshot_json_round_trips_through_the_parser() {
    let _guard = lock();
    obs::global().counter("obs_test.json.probe").add(3);
    obs::global().histogram("obs_test.json.hist").record(1024);

    let json = obs::global().snapshot().to_json();
    assert_eq!(json.lines().count(), 1, "snapshot JSON must be one line");
    let v = serde_json::parse(&json).expect("snapshot must be valid JSON");

    match v.get("schema") {
        Some(serde_json::Value::Int(1)) => {}
        other => panic!("bad schema field: {other:?}"),
    }
    let counters = v.get("counters").expect("counters object");
    match counters.get("obs_test.json.probe") {
        Some(serde_json::Value::Int(n)) if *n >= 3 => {}
        other => panic!("probe counter wrong: {other:?}"),
    }
    let hist = v
        .get("histograms")
        .and_then(|h| h.get("obs_test.json.hist"))
        .expect("probe histogram present");
    assert!(hist.get("count").is_some() && hist.get("buckets").is_some());
}

#[test]
fn serve_warm_up_counter_is_the_same_on_every_run() {
    // building the corpus in process moves the shared registry
    let _guard = lock();
    // every shard warms its stale cache from the corpus before `serve`
    // reads stdin, so even an immediate EOF drain reports all of them;
    // each run is a fresh process, so the counter is absolute
    let dir = std::env::temp_dir().join(format!("cnnperf-obs-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("corpus.json");
    let models: Vec<_> = ["alexnet", "mobilenet"]
        .iter()
        .map(|m| cnn_ir::zoo::build(m).unwrap())
        .collect();
    let corpus = build_corpus(&models, &[gpu_sim::specs::quadro_p1000()]).unwrap();
    store_corpus(&path, &corpus).unwrap();
    let want = 4 * corpus.samples.len() as u64;
    for run in 0..3 {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cnnperf"))
            .env("CNNPERF_CORPUS", &path)
            .args(["serve", "--tiers", "analytical", "--workers", "4"])
            .args(["--stats-dump", "json"])
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn cnnperf");
        assert!(out.status.success(), "run {run}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let warmed = stdout
            .split("\"engine.cache.warmed\":")
            .nth(1)
            .and_then(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse::<u64>().ok()
            });
        assert_eq!(warmed, Some(want), "run {run}: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulating_more_devices_counts_no_more_launches() {
    // the analysis counts a model once; the simulators take those counts,
    // so a second device on the same analysis adds no counted launch, and
    // devices of other sm targets share that one analysis too. Each run
    // is a fresh process, so the counters are absolute.
    let corpus = std::env::temp_dir().join(format!(
        "cnnperf-obs-counts-{}-unbuilt.json",
        std::process::id()
    ));
    let launches_and_misses = |devices: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cnnperf"))
            .env("CNNPERF_CORPUS", &corpus)
            .args(["estimate", "alexnet", devices, "--tiers", "analytical"])
            .args(["--deadline-ms", "60000", "--stats", "json"])
            .output()
            .expect("spawn cnnperf");
        assert!(out.status.success(), "{devices}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let snapshot = stdout.lines().last().expect("stats line");
        let v = serde_json::parse(snapshot).expect("snapshot JSON");
        let counter = |name: &str| match v.get("counters").and_then(|c| c.get(name)) {
            Some(serde_json::Value::Int(n)) => *n,
            other => panic!("{devices}: {name} missing ({other:?})"),
        };
        (
            counter("ptx.count.launches"),
            counter("analysis.cache.misses"),
        )
    };
    let one = launches_and_misses("GTX 1080 Ti");
    let two = launches_and_misses("GTX 1080 Ti,Titan Xp");
    let four_targets = launches_and_misses("GTX 1080 Ti,V100S,A100,H100");
    assert!(one.0 > 0);
    assert_eq!(one.1, 1, "one device analyses the model once");
    assert_eq!(one, two, "the second device recounted the model");
    assert_eq!(one, four_targets, "another sm target re-analysed the model");
    assert!(!corpus.exists(), "estimate must not build the corpus");
}
