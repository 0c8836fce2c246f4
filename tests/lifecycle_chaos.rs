//! Chaos drills for the predictor lifecycle (PR 7 acceptance):
//!
//! * a candidate with worse shadow MAPE is **never** promoted;
//! * a torn snapshot write is quarantined on restart and the previous
//!   valid version serves **byte-identical** estimates;
//! * injected drift triggers **exactly one** rollback per breaker
//!   episode;
//! * a hot swap under concurrent load loses zero requests, and every
//!   response is attributable to exactly one predictor generation.
//!
//! Lives in its own test binary so the process-global metrics registry
//! starts from zero and counter deltas are exact per test (tests that
//! assert global counters serialize on `COUNTER_LOCK`).

use cnnperf_core::{
    feature_names, ColdStart, EngineConfig, FaultKind, FaultRule, LifecycleConfig,
    LifecycleManager, Measurement, ModelStore, OpKind, PerformancePredictor, PredictorSlot,
    ResilientEngine, RetrainOutcome, SimFs, Tier,
};
use mlkit::{Dataset, RegressorKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name)
}

/// A dataset over the real feature layout where `y` is a simple linear
/// function of the first feature — learnable by every regressor family.
fn linear_dataset(rows: usize, slope: f64, offset: f64) -> Dataset {
    let mut d = Dataset::new(feature_names());
    let nf = d.feature_names.len();
    for i in 0..rows {
        let mut row = vec![0.0; nf];
        for (j, v) in row.iter_mut().enumerate() {
            *v = (i * 7 + j * 3) as f64 % 13.0;
        }
        let y = slope * row[0] + offset;
        d.push(format!("r{i}"), row, y);
    }
    d
}

fn train(data: &Dataset, seed: u64) -> PerformancePredictor {
    PerformancePredictor::train(data, RegressorKind::DecisionTree, seed)
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cnnperf-lifecycle-chaos-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn worse_shadow_mape_candidate_is_never_promoted() {
    let slot = Arc::new(PredictorSlot::new());
    let base = linear_dataset(40, 2.0, 1.0);
    let incumbent = Arc::new(train(&base, 42));
    let incumbent_gen = slot.install(Arc::clone(&incumbent));

    let mgr = LifecycleManager::new(
        LifecycleConfig::default(),
        Arc::clone(&slot),
        None,
        Some(base.clone()),
    );

    // shadow slice drawn from the same world the incumbent learned
    let shadow = linear_dataset(16, 2.0, 1.0);
    // the saboteur learned a wildly different world and will shadow-score
    // far worse than the incumbent
    let saboteur = Arc::new(train(&linear_dataset(40, -50.0, 900.0), 7));

    match mgr.shadow_and_maybe_promote(Arc::clone(&saboteur), &shadow) {
        RetrainOutcome::Rejected {
            cand_mape,
            incumbent_mape,
        } => {
            assert!(
                cand_mape > incumbent_mape,
                "drill sanity: saboteur must actually score worse \
                 ({cand_mape} vs {incumbent_mape})"
            );
        }
        other => panic!("worse candidate must be rejected, got {other:?}"),
    }
    let (gen_after, active) = slot.load();
    assert_eq!(gen_after, incumbent_gen, "rejection must not swap the slot");
    let probe = &shadow.x[0];
    assert_eq!(
        active
            .expect("slot still armed")
            .predict_row(probe)
            .to_bits(),
        incumbent.predict_row(probe).to_bits(),
        "the serving predictor must still be the incumbent"
    );

    // no shadow evidence at all is also an automatic rejection, even for
    // a candidate identical to the incumbent
    let empty = Dataset::new(feature_names());
    assert!(
        matches!(
            mgr.shadow_and_maybe_promote(Arc::clone(&incumbent), &empty),
            RetrainOutcome::Rejected { .. }
        ),
        "a candidate without a shadow slice must never ship"
    );
    assert_eq!(slot.generation(), incumbent_gen);
}

#[test]
fn torn_snapshot_is_quarantined_and_previous_version_serves_byte_identical() {
    let dir = fresh_dir("torn");
    let v1_model = train(&linear_dataset(40, 2.0, 1.0), 42);
    let v2_model = train(&linear_dataset(40, 3.0, 5.0), 43);

    // two healthy versions, then a crash story: v2's file is torn mid-write
    // and an orphaned temp file survives the kill
    let (mut store, _) = ModelStore::open(&dir).expect("open");
    let v1 = store.save(&v1_model, 40, "first").expect("save v1");
    let v2 = store.save(&v2_model, 40, "second").expect("save v2");
    let v2_bytes = std::fs::read(&v2.path).expect("read v2");
    std::fs::write(&v2.path, &v2_bytes[..v2_bytes.len() / 2]).expect("tear v2");
    std::fs::write(
        dir.join(format!("predictor-v000003.json.tmp.{}", std::process::id())),
        b"{\"partial\":",
    )
    .expect("stray tmp");
    drop(store);

    // restart: the torn file is quarantined, the temp file swept, and the
    // newest *valid* version serves
    let (restarted, report) = ModelStore::open(&dir).expect("reopen");
    assert_eq!(report.quarantined, 1, "torn v2 must be quarantined");
    assert_eq!(report.loaded, 1, "only v1 is still valid");
    assert_eq!(report.tmp_swept, 1, "orphaned temp file must be swept");
    assert!(
        dir.join("predictor-v000002.json.corrupt").exists(),
        "quarantine keeps the torn bytes for forensics"
    );

    let (info, served) = restarted.load_latest().expect("v1 serves");
    assert_eq!(info.meta.version, v1.meta.version);
    // byte-identical estimates: the reloaded predictor is bit-for-bit the
    // one that was snapshotted, so every prediction matches exactly
    assert_eq!(
        serde_json::to_string(&served).expect("serialize served"),
        serde_json::to_string(&v1_model).expect("serialize original"),
        "restart must serve the previous version byte-identically"
    );
    for row in &linear_dataset(8, 2.0, 1.0).x {
        assert_eq!(
            served.predict_row(row).to_bits(),
            v1_model.predict_row(row).to_bits()
        );
    }

    // the torn version's number stays reserved — the next save must not
    // silently reuse v2 under different bytes
    let mut restarted = restarted;
    let v3 = store_next_version(&mut restarted, &v1_model);
    assert!(v3 > v2.meta.version, "quarantined versions stay reserved");
    let _ = std::fs::remove_dir_all(&dir);
}

fn store_next_version(store: &mut ModelStore, p: &PerformancePredictor) -> u64 {
    store.save(p, 1, "after-tear").expect("save").meta.version
}

#[test]
fn enospc_snapshot_failure_degrades_instead_of_killing_serve() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let fails_before = counter("lifecycle.snapshot.failures");
    let enospc_before = counter("vfs.errors.enospc");

    // a SimFs disk where every predictor snapshot write hits ENOSPC
    let fs = SimFs::new(11);
    let (store, _) = ModelStore::open_on(fs.handle(), std::path::Path::new("models"))
        .expect("open store on simulated disk");
    fs.inject(
        FaultRule::new(FaultKind::Enospc)
            .on_op(OpKind::Write)
            .on_path("predictor-"),
    );

    let slot = Arc::new(PredictorSlot::new());
    let base = linear_dataset(40, 2.0, 1.0);
    let mgr = LifecycleManager::new(
        LifecycleConfig::default(),
        Arc::clone(&slot),
        Some(store),
        Some(base.clone()),
    );

    // cold start: training succeeds, the snapshot save fails — the
    // predictor must still be installed and serve from memory
    match mgr.cold_start() {
        ColdStart::Trained { version, .. } => {
            assert!(version.is_none(), "a full disk cannot produce a version")
        }
        other => panic!("expected trained cold start, got {other:?}"),
    }
    let (_, active) = slot.load();
    assert!(active.is_some(), "ENOSPC must not leave the slot empty");

    // promotion: a valid candidate still promotes (unversioned) — the
    // worker degrades around the full disk instead of dying
    let shadow = linear_dataset(16, 2.0, 1.0);
    let candidate = Arc::new(train(&base, 77));
    match mgr.shadow_and_maybe_promote(candidate, &shadow) {
        RetrainOutcome::Promoted { version, .. } => {
            assert!(
                version.is_none(),
                "promotion snapshot cannot land on a full disk"
            )
        }
        other => panic!("ENOSPC must not block promotion, got {other:?}"),
    }

    assert!(
        counter("lifecycle.snapshot.failures") - fails_before >= 2,
        "both failed saves must be counted"
    );
    assert!(
        counter("vfs.errors.enospc") - enospc_before >= 2,
        "the injected ENOSPC errors must surface in vfs.errors.enospc"
    );
}

#[test]
fn injected_drift_rolls_back_exactly_once_per_episode() {
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let rollbacks_before = counter("lifecycle.rollbacks");

    let slot = Arc::new(PredictorSlot::new());
    let good = Arc::new(train(&linear_dataset(40, 2.0, 1.0), 42));
    let bad = Arc::new(train(&linear_dataset(40, 100.0, 500.0), 9));
    slot.install(Arc::clone(&good));
    let bad_gen = slot.install(Arc::clone(&bad)); // the drifting incumbent

    let cfg = LifecycleConfig {
        drift_window: 4,
        drift_threshold: 0.5,
        ..LifecycleConfig::default()
    };
    let mgr = LifecycleManager::new(cfg, Arc::clone(&slot), None, None);

    let nf = feature_names().len();
    let drifting = |i: usize| Measurement {
        model: format!("resnet{i}"), // one family: "resnet"
        device: "GTX 1080 Ti".to_string(),
        row: vec![1.0 + (i % 3) as f64; nf],
        // far below anything `bad` predicts => relative error >> threshold
        ipc: 0.25,
    };

    for i in 0..8 {
        mgr.log().push(drifting(i));
    }
    let first = mgr.ingest();
    assert!(first.drift_trips >= 1, "drift must trip: {first:?}");
    assert_eq!(first.rollbacks, 1, "exactly one rollback: {first:?}");
    let (gen_now, active) = slot.load();
    assert!(
        gen_now > bad_gen,
        "rollback republishes as a new generation"
    );
    let probe = vec![2.0; nf];
    assert_eq!(
        active.expect("armed").predict_row(&probe).to_bits(),
        good.predict_row(&probe).to_bits(),
        "rollback must resurrect the pre-drift predictor"
    );

    // the same drift injected again inside the breaker episode is
    // detected but must NOT roll back a second time
    for i in 0..8 {
        mgr.log().push(drifting(i));
    }
    let second = mgr.ingest();
    assert_eq!(
        second.rollbacks, 0,
        "episode suppresses repeats: {second:?}"
    );
    assert!(
        second.drift_trips == 0 || second.suppressed >= 1,
        "a second trip inside the episode must be suppressed: {second:?}"
    );

    assert_eq!(
        counter("lifecycle.rollbacks") - rollbacks_before,
        1,
        "lifecycle.rollbacks must reflect exactly one rollback"
    );
}

#[test]
fn hot_swap_under_concurrent_load_loses_zero_requests() {
    const WORKERS: usize = 4;
    const PER_WORKER: usize = 250;

    let slot = Arc::new(PredictorSlot::new());
    slot.install(Arc::new(train(&linear_dataset(40, 2.0, 1.0), 42)));

    let config = EngineConfig {
        tiers: vec![Tier::Regressor],
        ..EngineConfig::default()
    };

    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let slot = Arc::clone(&slot);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let variants: Vec<Arc<PerformancePredictor>> = (0..4)
                .map(|i| Arc::new(train(&linear_dataset(40, 2.0 + i as f64, 1.0), i)))
                .collect();
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                slot.install(Arc::clone(&variants[i % variants.len()]));
                i += 1;
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };

    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let config = config.clone();
            std::thread::spawn(move || {
                let mut engine = ResilientEngine::with_shared_slot(config, slot);
                let mut generations = Vec::with_capacity(PER_WORKER);
                for _ in 0..PER_WORKER {
                    let outcome = engine.estimate("alexnet", "GTX 1080 Ti", 2_000);
                    assert!(
                        outcome.served(),
                        "no request may be lost during hot swaps: {:?}",
                        outcome.kind
                    );
                    generations.push(
                        outcome
                            .generation
                            .expect("a regressor-tier serve carries its generation"),
                    );
                }
                generations
            })
        })
        .collect();

    let mut all: Vec<u64> = Vec::with_capacity(WORKERS * PER_WORKER);
    for w in workers {
        all.extend(w.join().expect("worker survives the swap storm"));
    }
    stop.store(true, Ordering::Relaxed);
    swapper.join().expect("swapper exits");

    // zero lost: every single request produced a served outcome pinned to
    // exactly one generation that was actually published
    let final_gen = slot.generation();
    assert_eq!(all.len(), WORKERS * PER_WORKER);
    assert!(all.iter().all(|&g| g >= 1 && g <= final_gen));
    let distinct: std::collections::BTreeSet<u64> = all.iter().copied().collect();
    assert!(
        distinct.len() > 1,
        "drill sanity: the load must actually span multiple generations \
         (saw only {distinct:?}; raise PER_WORKER if this flakes)"
    );
}
