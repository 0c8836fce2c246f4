//! Chaos suite for the deadline-aware tiered estimation engine.
//!
//! The availability contract under test: **every** request returns a
//! classified [`EstimateOutcome`] within deadline + 10%, no matter which
//! tiers hang, panic or crawl — and a fixed chaos seed replays the exact
//! same outcomes byte for byte (wall time excluded).
//!
//! All chaos here is deterministic: fault draws are pure functions of
//! `(seed, model, device, tier)`, the circuit breakers run on logical
//! request ticks, and the storm avoids borderline time races by keeping
//! injected delays far from the per-tier slices.

use cnnperf_core::prelude::*;
use cnnperf_core::{MeasurementLog, OutcomeKind, TierFailure};
use gpu_sim::{ChaosInjector, ChaosProfile, TierFaultKind};
use std::sync::Arc;

const DEADLINE_MS: u64 = 2500;
const CHAOS_SEED: u64 = 20260807;

/// Small, fast models only: tier work must fit its slice with a wide
/// margin so timing noise can never flip a success into a timeout.
fn storm_requests() -> Vec<(String, String)> {
    let models = ["mobilenet", "alexnet", "efficientnetb0", "nasnetmobile"];
    let devices = ["GTX 1080 Ti", "V100S"];
    models
        .iter()
        .flat_map(|m| devices.iter().map(move |d| (m.to_string(), d.to_string())))
        .collect()
}

fn storm_config() -> EngineConfig {
    EngineConfig {
        // the detailed tier is exercised by the targeted tests below; the
        // storm runs the cheap tiers so every non-faulted invocation
        // finishes orders of magnitude inside its slice
        tiers: vec![Tier::Analytical, Tier::Regressor, Tier::StaleCache],
        chaos: ChaosProfile {
            hang_rate: 0.3,
            panic_rate: 0.3,
            slow_rate: 0.2,
            slow_ms: 25,
            seed: CHAOS_SEED,
        },
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

#[test]
fn chaos_storm_every_request_classified_within_deadline() {
    let requests = storm_requests();
    let mut engine = ResilientEngine::new(storm_config());
    let outcomes = estimate_all(&mut engine, &requests, DEADLINE_MS);
    assert_eq!(outcomes.len(), requests.len(), "no request may vanish");
    let budget_ms = DEADLINE_MS as f64 * 1.1;
    let mut degradations = 0;
    for out in &outcomes {
        assert!(
            out.elapsed_ms <= budget_ms,
            "{}@{} blew the deadline: {:.1} ms > {budget_ms} ms",
            out.model,
            out.device,
            out.elapsed_ms
        );
        match &out.kind {
            OutcomeKind::Served { .. } => {
                assert!(out.ipc.unwrap_or(0.0) > 0.0, "served without a value");
            }
            OutcomeKind::Exhausted => {
                assert!(
                    !out.attempts.is_empty(),
                    "exhausted outcome must explain itself"
                );
            }
        }
        degradations += out.attempts.len();
    }
    assert!(
        degradations > 0,
        "a 0.8 total fault rate storm must cause visible degradations"
    );
}

#[test]
fn fixed_seed_chaos_runs_are_byte_identical() {
    let requests = storm_requests();
    let render = || {
        let mut engine = ResilientEngine::new(storm_config());
        estimate_all(&mut engine, &requests, DEADLINE_MS)
            .iter()
            .map(|o| o.canonical())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let first = render();
    let second = render();
    assert_eq!(first, second, "fixed-seed chaos replay diverged");
    assert!(!first.is_empty());
}

/// Find a chaos seed whose fault draw hangs one tier and leaves another
/// clean for the given (model, device) — a deterministic way to target
/// faults at a single tier through the rate-based injector.
fn seed_with(
    model: &str,
    device: &str,
    hung_tier: Tier,
    clean_tier: Tier,
    profile: fn(u64) -> ChaosProfile,
) -> u64 {
    (0..10_000u64)
        .find(|&seed| {
            let inj = ChaosInjector::new(profile(seed));
            inj.tier_fault(model, device, hung_tier.name()) == TierFaultKind::Hang
                && inj.tier_fault(model, device, clean_tier.name()) == TierFaultKind::None
        })
        .expect("no suitable seed in 10k — rates too extreme?")
}

#[test]
fn hung_detailed_tier_degrades_to_analytical_within_deadline() {
    let (model, device) = ("mobilenet", "V100S");
    let profile = |seed| ChaosProfile {
        hang_rate: 0.5,
        panic_rate: 0.0,
        slow_rate: 0.0,
        slow_ms: 0,
        seed,
    };
    let seed = seed_with(model, device, Tier::Detailed, Tier::Analytical, profile);
    let log = Arc::new(MeasurementLog::new(16));
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Detailed, Tier::Analytical],
        chaos: profile(seed),
        ..EngineConfig::default()
    });
    engine.set_ground_truth_log(Arc::clone(&log));
    let out = engine.estimate(model, device, DEADLINE_MS);
    assert_eq!(
        out.kind,
        OutcomeKind::Served {
            tier: Tier::Analytical
        },
        "expected analytical fallback, path {:?}",
        out.attempts
    );
    // the hung tier publishes nothing; the served answer, one row
    let rows = log.drain();
    assert_eq!(rows.len(), 1, "one ground-truth row per served answer");
    assert_eq!(
        (rows[0].model.as_str(), rows[0].device.as_str()),
        (model, device)
    );
    assert_eq!(Some(rows[0].ipc), out.ipc);
    assert_eq!(out.attempts.len(), 1);
    assert_eq!(out.attempts[0].tier, Tier::Detailed);
    assert_eq!(out.attempts[0].failure, TierFailure::Timeout);
    assert!(
        out.elapsed_ms <= DEADLINE_MS as f64 * 1.1,
        "degradation took {:.1} ms",
        out.elapsed_ms
    );
    assert!(out.ipc.unwrap() > 0.0);
}

#[test]
fn ground_truth_holds_exactly_the_served_answers() {
    // a warm analytical simulation takes well under 1 ms, so an injected
    // 1 ms slowdown spends each request's 1 ms slice before it starts:
    // however the timing splits, a tier classified `timeout` publishes
    // nothing, and every served answer publishes one row
    let (model, device) = ("densenet201", "V100S");
    let log = Arc::new(MeasurementLog::new(1024));
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Analytical],
        chaos: ChaosProfile {
            hang_rate: 0.0,
            panic_rate: 0.0,
            slow_rate: 1.0,
            slow_ms: 1,
            seed: CHAOS_SEED,
        },
        ..EngineConfig::default()
    });
    engine.set_ground_truth_log(Arc::clone(&log));
    assert!(engine.estimate(model, device, 60_000).served(), "warm-up");
    log.drain();
    let outcomes: Vec<EstimateOutcome> =
        (0..20).map(|_| engine.estimate(model, device, 1)).collect();
    // work that outlived its request, if any, has time to publish
    std::thread::sleep(std::time::Duration::from_millis(300));
    let served = outcomes.iter().filter(|o| o.served()).count();
    assert_eq!(
        log.drain().len(),
        served,
        "rows published for unserved requests"
    );
}

#[test]
fn injected_panics_are_contained_not_fatal() {
    // every live tier panics; the batch must still finish, classified
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Analytical, Tier::StaleCache],
        chaos: ChaosProfile {
            hang_rate: 0.0,
            panic_rate: 1.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed: CHAOS_SEED,
        },
        ..EngineConfig::default()
    });
    let requests: Vec<(String, String)> = vec![
        ("mobilenet".into(), "V100S".into()),
        ("alexnet".into(), "V100S".into()),
    ];
    let outcomes = estimate_all(&mut engine, &requests, DEADLINE_MS);
    assert_eq!(outcomes.len(), 2);
    for out in &outcomes {
        assert_eq!(out.kind, OutcomeKind::Exhausted);
        assert!(
            matches!(&out.attempts[0].failure, TierFailure::Panic(m) if m.contains("injected")),
            "path {:?}",
            out.attempts
        );
        assert_eq!(out.attempts[1].failure, TierFailure::CacheMiss);
    }
}

#[test]
fn breaker_opens_under_sustained_tier_failure_and_saves_deadline_budget() {
    // all-hang chaos on the analytical tier: after min_samples failures
    // the breaker opens and later requests skip the tier without burning
    // their slice waiting on it
    let breaker = BreakerConfig::default();
    let min_samples = breaker.min_samples;
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Analytical, Tier::StaleCache],
        breaker,
        chaos: ChaosProfile {
            hang_rate: 1.0,
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed: CHAOS_SEED,
        },
    });
    let requests: Vec<(String, String)> = (0..8)
        .map(|i| (format!("m{i}"), "V100S".to_string()))
        .collect();
    let outcomes = estimate_all(&mut engine, &requests, 400);
    // early requests time out against the hung tier...
    for out in &outcomes[..min_samples] {
        assert_eq!(
            out.attempts[0].failure,
            TierFailure::Timeout,
            "{:?}",
            out.kind
        );
    }
    // ...then the breaker opens and the remainder fail fast
    assert_eq!(engine.breaker_state(Tier::Analytical), BreakerState::Open);
    for out in &outcomes[min_samples..] {
        assert_eq!(
            out.attempts[0].failure,
            TierFailure::BreakerOpen,
            "path {:?}",
            out.attempts
        );
        assert!(
            out.elapsed_ms < 100.0,
            "breaker-open path must not wait on the tier: {:.1} ms",
            out.elapsed_ms
        );
    }
}

#[test]
fn regressor_tier_serves_with_trained_predictor() {
    // a tiny corpus arms the regressor tier; with the expensive tiers
    // disabled the ladder serves from the paper's model
    let models: Vec<cnn_ir::ModelGraph> = ["mobilenet", "alexnet"]
        .iter()
        .map(|m| cnn_ir::zoo::build(m).unwrap())
        .collect();
    let devices = vec![gpu_sim::specs::quadro_p1000()];
    let corpus = build_corpus(&models, &devices).unwrap();
    let predictor = PerformancePredictor::train(&corpus.dataset, RegressorKind::DecisionTree, 42);
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Regressor],
        ..EngineConfig::default()
    })
    .with_predictor(predictor);
    let out = engine.estimate("mobilenet", "Quadro P1000", 30_000);
    assert_eq!(
        out.kind,
        OutcomeKind::Served {
            tier: Tier::Regressor
        },
        "path {:?}",
        out.attempts
    );
    assert!(out.ipc.unwrap() > 0.0);
    assert!(out.latency_ms.is_none(), "the regressor predicts IPC only");
}

#[test]
fn stale_cache_is_the_floor_under_total_tier_failure() {
    // warm the cache, then hang everything above it: requests degrade all
    // the way down but still return a (stale) value
    let models: Vec<cnn_ir::ModelGraph> = vec![cnn_ir::zoo::build("mobilenet").unwrap()];
    let devices = vec![gpu_sim::specs::v100s()];
    let corpus = build_corpus(&models, &devices).unwrap();
    let mut engine = ResilientEngine::new(EngineConfig {
        tiers: vec![Tier::Analytical, Tier::StaleCache],
        chaos: ChaosProfile {
            hang_rate: 1.0,
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed: CHAOS_SEED,
        },
        ..EngineConfig::default()
    });
    engine.warm_from_corpus(&corpus);
    let out = engine.estimate("mobilenet", "V100S", 1200);
    assert_eq!(
        out.kind,
        OutcomeKind::Served {
            tier: Tier::StaleCache
        },
        "path {:?}",
        out.attempts
    );
    assert_eq!(out.attempts[0].failure, TierFailure::Timeout);
    assert_eq!(out.ipc.unwrap(), corpus.samples[0].ipc);
    assert!(out.elapsed_ms <= 1200.0 * 1.1);
}
