//! Cache-correctness suite for the process-wide analysis cache: memoized
//! results must be bit-identical to uncached analysis, corpus builds must
//! be unchanged by cache warmth, and the `analysis.cache.*` counters must
//! balance and prove the "analyze once per model" DSE contract.
//!
//! All tests share the process-global cache and [`obs`] registry, so each
//! takes a mutex and (where it asserts miss counts) clears the cache and
//! measures counter *deltas* between its own snapshots.

use cnnperf_core::prelude::*;
use cnnperf_core::{clear_analysis_cache, feature_row, DEFAULT_SM_TARGET};
use mlkit::RegressorKind;
use ptx_analysis::ExecBudget;
use std::sync::Mutex;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // a panicking test must not wedge the others
    REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn cached_profile_is_byte_identical_across_devices() {
    let _guard = lock();
    let model = cnn_ir::zoo::build("alexnet").unwrap();
    let uncached =
        AnalyzedModel::compute(&model, DEFAULT_SM_TARGET, &ExecBudget::default()).unwrap();
    let cached = profile_model_cached(&model).unwrap();

    // the analysis payload matches field-for-field (dca_seconds is wall
    // time and legitimately differs between runs)
    let (profile, counts) = (&uncached.profile, &uncached.counts);
    assert_eq!(cached.profile.name, profile.name);
    assert_eq!(cached.profile.ptx_instructions, profile.ptx_instructions);
    assert_eq!(cached.profile.trainable_params, profile.trainable_params);
    assert_eq!(cached.profile.macs, profile.macs);
    assert_eq!(cached.profile.flops, profile.flops);
    assert_eq!(cached.profile.neurons, profile.neurons);
    assert_eq!(cached.profile.num_launches, profile.num_launches);
    assert_eq!(
        cached.counts.thread_instructions,
        counts.thread_instructions
    );
    assert_eq!(cached.counts.warp_issues, counts.warp_issues);
    assert_eq!(cached.counts.by_category, counts.by_category);
    assert_eq!(cached.plan.launches.len(), uncached.plan.launches.len());
    assert_eq!(
        cached.summary.trainable_params,
        uncached.summary.trainable_params
    );

    // feature rows derived from the cached profile are byte-identical on
    // every modeled device
    for dev in gpu_sim::all_devices() {
        assert_eq!(
            feature_row(&cached.profile, &dev),
            feature_row(profile, &dev),
            "feature row differs on {}",
            dev.name
        );
    }
}

#[test]
fn corpus_built_with_cache_equals_seed_corpus() {
    let _guard = lock();
    let models: Vec<cnn_ir::ModelGraph> = ["alexnet", "mobilenet"]
        .iter()
        .map(|n| cnn_ir::zoo::build(n).unwrap())
        .collect();
    let devices = gpu_sim::training_devices();

    // cold build (the seed) vs. fully warm rebuild
    clear_analysis_cache();
    let cold = build_corpus(&models, &devices).unwrap();
    let warm = build_corpus(&models, &devices).unwrap();

    assert_eq!(cold.dataset.y, warm.dataset.y, "targets must be unchanged");
    assert_eq!(cold.dataset.x, warm.dataset.x, "features must be unchanged");
    assert_eq!(cold.dataset.labels, warm.dataset.labels);
}

#[test]
fn analysis_cache_counters_balance() {
    let _guard = lock();
    // generate some traffic on both sides of the cache
    let model = cnn_ir::zoo::build("mobilenet").unwrap();
    clear_analysis_cache();
    let _ = profile_model_cached(&model).unwrap(); // miss
    let _ = profile_model_cached(&model).unwrap(); // hit

    // the invariant is absolute: every lookup since process start
    // incremented exactly one of hits/misses
    let snap = obs::global().snapshot();
    let lookups = snap.counter("analysis.cache.lookups");
    let hits = snap.counter("analysis.cache.hits");
    let misses = snap.counter("analysis.cache.misses");
    assert!(lookups > 0);
    assert_eq!(
        hits + misses,
        lookups,
        "hits {hits} + misses {misses} != lookups {lookups}"
    );
}

#[test]
fn dse_sweep_analyzes_each_model_exactly_once() {
    let _guard = lock();
    let train_models: Vec<cnn_ir::ModelGraph> = ["alexnet", "mobilenet"]
        .iter()
        .map(|n| cnn_ir::zoo::build(n).unwrap())
        .collect();
    let corpus = build_corpus(&train_models, &gpu_sim::training_devices()).unwrap();
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 3);

    let devices = gpu_sim::all_devices();
    assert!(devices.len() >= 4, "need a sweep over at least 4 devices");
    let target = cnn_ir::zoo::build("resnet50").unwrap();

    clear_analysis_cache();
    let before = obs::global().snapshot();
    let first = rank_devices(&predictor, &target, &devices).unwrap();
    let second = rank_devices(&predictor, &target, &devices).unwrap();
    let after = obs::global().snapshot();

    // one DCA total across two full sweeps over n devices: T_est stays
    // t_dca + n*t_pm, never n*t_dca
    assert_eq!(
        after.counter_delta(&before, "analysis.cache.misses"),
        1,
        "the model must be analyzed exactly once"
    );
    assert_eq!(after.counter_delta(&before, "analysis.cache.lookups"), 2);
    assert_eq!(after.counter_delta(&before, "analysis.cache.hits"), 1);

    // and the warm sweep returns the same ranking
    let names = |o: &cnnperf_core::DseOutcome| {
        o.ranking
            .iter()
            .map(|r| r.device.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&first), names(&second));
    assert_eq!(first.ranking.len(), devices.len());
}

#[test]
fn estimate_then_dse_shares_one_analysis() {
    let _guard = lock();
    let model = "mobilenet";
    let graph = cnn_ir::zoo::build_any(model).unwrap();

    clear_analysis_cache();
    let before = obs::global().snapshot();

    // an analytical-tier estimate on any device warms the model's one
    // analysis...
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Analytical],
        ..EngineConfig::default()
    });
    let out = engine.estimate(model, "GTX 1080 Ti", 60_000);
    assert_eq!(
        out.kind,
        OutcomeKind::Served {
            tier: Tier::Analytical
        }
    );

    // ...so the subsequent profile (what a DSE sweep runs) is a pure hit
    let _ = profile_model_cached(&graph).unwrap();
    let after = obs::global().snapshot();
    assert_eq!(after.counter_delta(&before, "analysis.cache.misses"), 1);
    assert!(after.counter_delta(&before, "analysis.cache.hits") >= 1);
}
