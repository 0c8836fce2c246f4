//! Online predictor lifecycle: hot-swap, shadow-gated promotion, drift
//! rollback.
//!
//! The paper trains its regressor once on a static 70/30 split; a
//! long-running `serve` daemon instead accumulates ground truth (every
//! detailed/analytical tier success is a measurement) and should improve
//! its predictor as that evidence arrives — without ever serving a worse
//! model, and without a restart. This module supplies the robustness
//! layer that makes that safe:
//!
//! - [`PredictorSlot`] — a generation-stamped slot. Readers (`estimate`
//!   hot path) clone the active predictor's `Arc` under the slot's mutex;
//!   writers publish a new generation by replacing the active one. A
//!   reader that loaded mid-swap still holds a valid predictor, and the
//!   slot keeps the latest superseded distinct predictor, so rollback can
//!   walk back to the last good one.
//!   [`PredictorSlot::promote_if`] gives exactly-once promotion: of two
//!   concurrent swaps racing from the same observed generation, one wins
//!   and the other gets a typed conflict.
//! - [`MeasurementLog`] — a bounded queue the engine's live tiers push
//!   `(model, device, feature_row, ipc)` into; the trainer drains it.
//! - [`LifecycleManager`] — the control loop: cold-start from the newest
//!   valid snapshot ([`crate::modelstore`]), ingest measurements into a
//!   journal, retrain a candidate, score it in shadow on a held-out
//!   journal slice, promote only if it does not regress the incumbent
//!   beyond the promotion threshold, and watch per-(device, model-family)
//!   rolling error windows for drift — sustained drift rolls the slot
//!   back to the previous generation, pins the last-good snapshot, and
//!   opens a `lifecycle` breaker ([`crate::resilience`]) so one bad
//!   stretch of ground truth cannot flap the model version.
//!
//! Everything is observable: `lifecycle.*` counters cover promotions,
//! rejections, shadow evaluations, drift trips and rollbacks; their
//! invariants live in [`crate::invariants::INVARIANTS`].

use crate::features::feature_names;
use crate::model::PerformancePredictor;
use crate::modelstore::ModelStore;
use crate::resilience::{BreakerConfig, CircuitBreaker};
use mlkit::metrics::mape;
use mlkit::{Dataset, RegressorKind};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Generations published into a slot (cold loads, promotions, rollbacks).
static SLOT_SWAPS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.slot.swaps");
/// Promotions that lost the exactly-once race to a concurrent swap.
static PROMOTE_RACES: obs::LazyCounter = obs::LazyCounter::new("lifecycle.promote.races");
/// Ground-truth measurements accepted into the journal.
static OBSERVATIONS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.observations");
/// Measurements rejected at ingest (non-finite features or target).
static OBSERVATIONS_DROPPED: obs::LazyCounter =
    obs::LazyCounter::new("lifecycle.observations.dropped");
/// Measurements evicted from the bounded log before ingest drained them.
static LOG_EVICTED: obs::LazyCounter = obs::LazyCounter::new("lifecycle.log.evicted");
/// Retrain cycles that trained a candidate.
static RETRAINS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.retrains");
/// Shadow predictions made while validating candidates.
static SHADOW_EVALS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.shadow.evals");
/// Candidates promoted to the active generation.
static PROMOTIONS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.promotions");
/// Candidates rejected by the shadow gate.
static REJECTIONS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.rejections");
/// Drift windows that crossed the drift threshold.
static DRIFT_TRIPS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.drift.trips");
/// Rollbacks performed (at most one per breaker episode).
static ROLLBACKS: obs::LazyCounter = obs::LazyCounter::new("lifecycle.rollbacks");
/// Drift trips suppressed because the lifecycle breaker was open.
static ROLLBACKS_SUPPRESSED: obs::LazyCounter =
    obs::LazyCounter::new("lifecycle.rollbacks.suppressed");
/// Snapshot saves that failed (ENOSPC, EIO); serving continues from
/// memory, unversioned.
static SNAPSHOT_FAILURES: obs::LazyCounter = obs::LazyCounter::new("lifecycle.snapshot.failures");
/// Cold starts served from a snapshot vs. trained fresh.
static COLD_SNAPSHOT: obs::LazyCounter = obs::LazyCounter::new("lifecycle.coldstart.snapshot");
static COLD_TRAINED: obs::LazyCounter = obs::LazyCounter::new("lifecycle.coldstart.trained");

// ---------------------------------------------------------------------------
// PredictorSlot
// ---------------------------------------------------------------------------

/// A generation-stamped predictor slot.
///
/// Readers call [`load`](Self::load) and get the generation number
/// alongside the predictor, so every served response is attributable to
/// exactly one generation. The slot holds the active `(generation,
/// predictor)` and the latest superseded one whose predictor differs from
/// it, the one [`rollback`](Self::rollback) returns to; older generations
/// are dropped. One mutex guards both: a reader holds it to clone one
/// `Arc`, and a writer publishes by replacing the pair, so a reader
/// observes either the old or the new generation, never a torn state.
pub struct PredictorSlot {
    history: Mutex<History>,
}

/// A slot's generations: the active one and its rollback target.
struct History {
    active: (u64, Option<Arc<PerformancePredictor>>),
    /// The latest superseded generation whose predictor differs from the
    /// active one.
    previous: Option<(u64, Arc<PerformancePredictor>)>,
}

/// A concurrent swap won the race; the caller's observed generation is
/// stale. Carries the generation that is now active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapRace {
    pub active_generation: u64,
}

impl PredictorSlot {
    /// An empty slot at generation 0 (the regressor tier fails fast until
    /// a predictor is installed).
    pub fn new() -> Self {
        PredictorSlot {
            history: Mutex::new(History {
                active: (0, None),
                previous: None,
            }),
        }
    }

    fn history(&self) -> MutexGuard<'_, History> {
        // no update can panic between its two assignments, so both
        // entries stay valid and a poisoned lock is safe to keep using
        self.history.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The active `(generation, predictor)`.
    pub fn load(&self) -> (u64, Option<Arc<PerformancePredictor>>) {
        self.history().active.clone()
    }

    /// The active generation number.
    pub fn generation(&self) -> u64 {
        self.history().active.0
    }

    fn publish(history: &mut History, predictor: Arc<PerformancePredictor>) -> u64 {
        let generation = history.active.0 + 1;
        let (superseded, old) = std::mem::replace(
            &mut history.active,
            (generation, Some(Arc::clone(&predictor))),
        );
        // the superseded predictor is the rollback target unless it is the
        // one just published; then the old target still differs from it
        if let Some(old) = old.filter(|old| !Arc::ptr_eq(old, &predictor)) {
            history.previous = Some((superseded, old));
        }
        SLOT_SWAPS.inc();
        generation
    }

    /// Unconditionally publish a new generation (cold loads, rollbacks,
    /// operator pins). Returns the new generation.
    pub fn install(&self, predictor: Arc<PerformancePredictor>) -> u64 {
        Self::publish(&mut self.history(), predictor)
    }

    /// Exactly-once promotion: publish `predictor` only if the active
    /// generation is still `expected` (the generation the candidate was
    /// validated against). Of two concurrent promotions from the same
    /// observation, exactly one succeeds.
    pub fn promote_if(
        &self,
        expected: u64,
        predictor: Arc<PerformancePredictor>,
    ) -> Result<u64, SwapRace> {
        let mut history = self.history();
        let active = history.active.0;
        if active != expected {
            PROMOTE_RACES.inc();
            return Err(SwapRace {
                active_generation: active,
            });
        }
        Ok(Self::publish(&mut history, predictor))
    }

    /// Roll back to the most recent superseded generation that held a
    /// *different* predictor, republished as a fresh generation (history
    /// moves forward even when the model moves back). Returns
    /// `(new_generation, resurrected_generation)`, or `None` when no
    /// earlier distinct predictor exists.
    pub fn rollback(&self) -> Option<(u64, u64)> {
        let mut history = self.history();
        let (resurrected, predictor) = history.previous.clone()?;
        Some((Self::publish(&mut history, predictor), resurrected))
    }
}

impl Default for PredictorSlot {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// MeasurementLog
// ---------------------------------------------------------------------------

/// One ground-truth observation: the live tiers computed `ipc` for this
/// `(model, device)`, and `row` is the paper's feature vector for the
/// pair — everything the trainer needs without re-profiling.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub model: String,
    pub device: String,
    pub row: Vec<f64>,
    pub ipc: f64,
}

/// A bounded multi-producer measurement queue between the engine's live
/// tiers and the lifecycle trainer. Overflow evicts the oldest entry
/// (ground truth is a stream, not a ledger).
pub struct MeasurementLog {
    cap: usize,
    inner: Mutex<VecDeque<Measurement>>,
}

impl MeasurementLog {
    pub fn new(cap: usize) -> Self {
        MeasurementLog {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    pub fn push(&self, m: Measurement) {
        let mut q = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if q.len() >= self.cap {
            q.pop_front();
            LOG_EVICTED.inc();
        }
        q.push_back(m);
    }

    /// Take everything currently queued.
    pub fn drain(&self) -> Vec<Measurement> {
        let mut q = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        q.drain(..).collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// LifecycleManager
// ---------------------------------------------------------------------------

/// The model family of a CNN name: its leading alphabetic run, lowercased
/// (`resnet50` and `resnet18` share a drift window; `vgg16` gets its own).
pub fn family_of(model: &str) -> String {
    model
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .flat_map(|c| c.to_lowercase())
        .collect::<String>()
}

/// Lifecycle tuning.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Regressor family retrained candidates use.
    pub regressor: RegressorKind,
    /// Training seed (kept fixed so retrain results are replayable).
    pub seed: u64,
    /// Wall time between retrain cycles in the serve daemon.
    pub retrain_interval: Duration,
    /// Journal rows required before the first retrain fires.
    pub min_retrain_rows: usize,
    /// Held-out journal rows a candidate is shadow-scored on.
    pub shadow_window: usize,
    /// Allowed relative MAPE regression vs. the incumbent: promote while
    /// `cand <= incumbent * (1 + threshold)`.
    pub promotion_threshold: f64,
    /// Rolling relative-error window length per (device, family).
    pub drift_window: usize,
    /// Mean relative error at which a full window counts as drift.
    pub drift_threshold: f64,
    /// Breaker pacing rollbacks: one per episode, then a cooldown.
    pub drift_breaker: BreakerConfig,
    /// Capacity of the engine→trainer measurement log.
    pub log_capacity: usize,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            regressor: RegressorKind::DecisionTree,
            seed: 42,
            retrain_interval: Duration::from_secs(60),
            min_retrain_rows: 8,
            shadow_window: 16,
            promotion_threshold: 0.05,
            drift_window: 8,
            drift_threshold: 0.5,
            // trips on the first recorded failure, then holds the episode
            // open for a cooldown so drift rolls back exactly once
            drift_breaker: BreakerConfig {
                window: 1,
                failure_threshold: 1.0,
                min_samples: 1,
                cooldown_ticks: 64,
                probe_quota: 1,
            },
            log_capacity: 4096,
        }
    }
}

/// How a cold start resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdStart {
    /// Loaded the newest valid (or pinned) snapshot.
    Snapshot { version: u64, generation: u64 },
    /// No usable snapshot; trained from the base dataset and (when a
    /// store is attached) persisted the result as the first version.
    Trained {
        generation: u64,
        version: Option<u64>,
    },
    /// No snapshot and no base dataset — the slot stays empty.
    Empty,
}

/// What one retrain cycle did.
#[derive(Debug, Clone, PartialEq)]
pub enum RetrainOutcome {
    /// Not enough (new) journal rows yet.
    SkippedNoData,
    /// The shadow gate rejected the candidate.
    Rejected { cand_mape: f64, incumbent_mape: f64 },
    /// The candidate was promoted (and snapshotted, when a store is
    /// attached).
    Promoted {
        generation: u64,
        version: Option<u64>,
        cand_mape: f64,
        incumbent_mape: f64,
    },
    /// A concurrent swap changed the generation between validation and
    /// promotion; the candidate was discarded (retried next cycle).
    RaceLost,
}

/// One ingest pass over the measurement log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Measurements accepted into the journal.
    pub observed: usize,
    /// Measurements dropped for non-finite features/targets.
    pub dropped: usize,
    /// Drift windows that crossed the threshold during this pass.
    pub drift_trips: usize,
    /// Rollbacks performed (0 or 1; the breaker suppresses repeats).
    pub rollbacks: usize,
    /// Drift trips ignored because the lifecycle breaker was open.
    pub suppressed: usize,
}

struct LifecycleState {
    /// Sanitized ground truth accumulated across ingest passes.
    journal: Dataset,
    /// Journal length at the last retrain (a retrain needs new evidence).
    last_trained_len: usize,
    /// Rolling relative errors per (device, model family).
    drift: HashMap<(String, String), VecDeque<f64>>,
    /// Paces rollbacks: logical ticks advance per accepted measurement.
    breaker: CircuitBreaker,
    tick: u64,
    /// Snapshot version per published generation (for pinning last-good).
    versions: HashMap<u64, u64>,
}

/// The lifecycle control loop: owns the journal, the drift windows, and
/// the (optional) snapshot store; shares the slot and measurement log
/// with the engine shards.
pub struct LifecycleManager {
    cfg: LifecycleConfig,
    slot: Arc<PredictorSlot>,
    log: Arc<MeasurementLog>,
    store: Option<Mutex<ModelStore>>,
    /// Base training set (the paper's corpus-derived dataset), used for
    /// cold-start training and as the backbone of every retrain.
    base: Option<Dataset>,
    state: Mutex<LifecycleState>,
}

impl LifecycleManager {
    pub fn new(
        cfg: LifecycleConfig,
        slot: Arc<PredictorSlot>,
        store: Option<ModelStore>,
        base: Option<Dataset>,
    ) -> Self {
        let log = Arc::new(MeasurementLog::new(cfg.log_capacity));
        let breaker = CircuitBreaker::new(cfg.drift_breaker.clone());
        LifecycleManager {
            cfg,
            slot,
            log,
            store: store.map(Mutex::new),
            base,
            state: Mutex::new(LifecycleState {
                journal: Dataset::new(feature_names()),
                last_trained_len: 0,
                drift: HashMap::new(),
                breaker,
                tick: 0,
                versions: HashMap::new(),
            }),
        }
    }

    pub fn slot(&self) -> &Arc<PredictorSlot> {
        &self.slot
    }

    pub fn log(&self) -> &Arc<MeasurementLog> {
        &self.log
    }

    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    fn with_store<T>(&self, f: impl FnOnce(&mut ModelStore) -> T) -> Option<T> {
        self.store
            .as_ref()
            .map(|m| f(&mut m.lock().unwrap_or_else(|p| p.into_inner())))
    }

    /// Persist a snapshot, degrading on failure: a full or broken disk
    /// must not take down the serve loop, so the error is logged and
    /// counted (`lifecycle.snapshot.failures`, surfaced in `/metrics`)
    /// and the predictor keeps serving from memory, unversioned.
    fn save_snapshot(
        &self,
        predictor: &PerformancePredictor,
        rows: usize,
        note: &str,
    ) -> Option<u64> {
        match self.with_store(|s| s.save(predictor, rows, note))? {
            Ok(info) => Some(info.meta.version),
            Err(e) => {
                SNAPSHOT_FAILURES.inc();
                eprintln!(
                    "warning: lifecycle snapshot save ({note}) failed: {e}; \
                     continuing to serve from memory"
                );
                None
            }
        }
    }

    fn remember_version(&self, generation: u64, version: u64) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.versions.insert(generation, version);
    }

    /// Bring the slot up: newest valid snapshot first, fresh training
    /// from the base dataset second, empty slot last.
    pub fn cold_start(&self) -> ColdStart {
        if let Some(Some((info, predictor))) = self.with_store(|s| s.load_latest()) {
            let generation = self.slot.install(Arc::new(predictor));
            self.remember_version(generation, info.meta.version);
            COLD_SNAPSHOT.inc();
            return ColdStart::Snapshot {
                version: info.meta.version,
                generation,
            };
        }
        if let Some(base) = &self.base {
            let predictor = PerformancePredictor::train(base, self.cfg.regressor, self.cfg.seed);
            let rows = base.len();
            let generation = self.slot.install(Arc::new(predictor.clone()));
            let version = self.save_snapshot(&predictor, rows, "cold-start");
            if let Some(v) = version {
                self.remember_version(generation, v);
            }
            COLD_TRAINED.inc();
            return ColdStart::Trained {
                generation,
                version,
            };
        }
        ColdStart::Empty
    }

    /// Drain the measurement log into the journal, scoring each accepted
    /// measurement against the active predictor for drift. A full drift
    /// window above the threshold demotes the active generation back to
    /// the previous one (once per breaker episode) and pins the last-good
    /// snapshot so the demotion survives a restart.
    pub fn ingest(&self) -> IngestReport {
        let mut report = IngestReport::default();
        let measurements = self.log.drain();
        if measurements.is_empty() {
            return report;
        }
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let nf = st.journal.feature_names.len();
        for m in measurements {
            st.tick += 1;
            let finite = m.ipc.is_finite()
                && m.ipc > 0.0
                && m.row.len() == nf
                && m.row.iter().all(|v| v.is_finite());
            if !finite {
                OBSERVATIONS_DROPPED.inc();
                report.dropped += 1;
                continue;
            }
            OBSERVATIONS.inc();
            report.observed += 1;
            let label = format!("{}@{}", m.model, m.device);
            st.journal.push(label, m.row.clone(), m.ipc);

            // drift scoring against whatever is being served right now
            let (_, active) = self.slot.load();
            let Some(active) = active else { continue };
            let rel = (active.predict_row(&m.row) - m.ipc).abs() / m.ipc;
            if !rel.is_finite() {
                continue;
            }
            let key = (m.device.clone(), family_of(&m.model));
            let window = st.drift.entry(key.clone()).or_default();
            window.push_back(rel);
            while window.len() > self.cfg.drift_window {
                window.pop_front();
            }
            if window.len() >= self.cfg.drift_window {
                let mean = window.iter().sum::<f64>() / window.len() as f64;
                if mean >= self.cfg.drift_threshold {
                    DRIFT_TRIPS.inc();
                    report.drift_trips += 1;
                    if let Some(w) = st.drift.get_mut(&key) {
                        w.clear();
                    }
                    let tick = st.tick;
                    if st.breaker.admit(tick) {
                        // open the breaker for this episode before the
                        // rollback so repeats are suppressed
                        st.breaker.record(tick, false);
                        if let Some((new_gen, resurrected)) = self.slot.rollback() {
                            ROLLBACKS.inc();
                            report.rollbacks += 1;
                            // every drift window was scored against the
                            // demoted model; start fresh for the restored
                            st.drift.clear();
                            if let Some(&version) = st.versions.get(&resurrected) {
                                st.versions.insert(new_gen, version);
                                self.with_store(|s| {
                                    if s.pin(version).is_ok() {
                                        eprintln!(
                                            "lifecycle: drift rollback pinned snapshot v{version}"
                                        );
                                    }
                                });
                            }
                        }
                    } else {
                        ROLLBACKS_SUPPRESSED.inc();
                        report.suppressed += 1;
                    }
                }
            }
        }
        report
    }

    /// One retrain cycle: train a candidate on base + journal (minus the
    /// held-out shadow slice), shadow-score it, and promote through the
    /// gate. See [`RetrainOutcome`].
    pub fn retrain_cycle(&self) -> RetrainOutcome {
        let (snapshot_journal, shadow) = {
            let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            let n = st.journal.len();
            if n < self.cfg.min_retrain_rows || n == st.last_trained_len {
                return RetrainOutcome::SkippedNoData;
            }
            // hold out the newest rows for shadow scoring: the candidate
            // must prove itself on evidence it did not train on
            let shadow_n = self.cfg.shadow_window.min(n.div_ceil(2));
            let train_idx: Vec<usize> = (0..n - shadow_n).collect();
            let shadow_idx: Vec<usize> = (n - shadow_n..n).collect();
            (
                st.journal.select(&train_idx),
                st.journal.select(&shadow_idx),
            )
        };
        let candidate = self.train_candidate(&snapshot_journal);
        let outcome = self.shadow_and_maybe_promote(Arc::new(candidate), &shadow);
        if !matches!(outcome, RetrainOutcome::RaceLost) {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            st.last_trained_len = snapshot_journal.len() + shadow.len();
        }
        outcome
    }

    /// Train a candidate on the base dataset plus the given journal rows,
    /// defensively dropping any non-finite row first (the NaN-ranks-worst
    /// guarantee extended to the training path).
    fn train_candidate(&self, journal: &Dataset) -> PerformancePredictor {
        let mut train = match &self.base {
            Some(base) => base.clone(),
            None => Dataset::new(feature_names()),
        };
        train.append(journal);
        train.retain_finite();
        RETRAINS.inc();
        PerformancePredictor::train(&train, self.cfg.regressor, self.cfg.seed)
    }

    /// Shadow-score `candidate` on the held-out rows and promote it only
    /// if its MAPE does not regress the incumbent beyond the promotion
    /// threshold. Public so chaos drills can inject a deliberately-worse
    /// candidate and assert it never reaches the slot.
    pub fn shadow_and_maybe_promote(
        &self,
        candidate: Arc<PerformancePredictor>,
        shadow: &Dataset,
    ) -> RetrainOutcome {
        let (observed_gen, incumbent) = self.slot.load();
        let mut cand_pred = Vec::with_capacity(shadow.len());
        let mut inc_pred = Vec::with_capacity(shadow.len());
        for row in &shadow.x {
            SHADOW_EVALS.inc();
            cand_pred.push(candidate.predict_row(row));
            if let Some(inc) = &incumbent {
                inc_pred.push(inc.predict_row(row));
            }
        }
        let cand_mape = if shadow.is_empty() {
            f64::NAN
        } else {
            mape(&shadow.y, &cand_pred)
        };
        let incumbent_mape = if incumbent.is_some() && !shadow.is_empty() {
            mape(&shadow.y, &inc_pred)
        } else {
            f64::INFINITY
        };
        // a candidate must prove itself on a real shadow slice: no
        // evidence, or NaN-scoring, is an automatic rejection (unless the
        // slot is empty — any finite-scoring model beats none, but a
        // NaN-scorer still never ships)
        let promote = if !cand_mape.is_finite() {
            false
        } else if incumbent.is_none() {
            true
        } else {
            cand_mape <= incumbent_mape * (1.0 + self.cfg.promotion_threshold)
        };
        if !promote {
            REJECTIONS.inc();
            return RetrainOutcome::Rejected {
                cand_mape,
                incumbent_mape,
            };
        }
        match self.slot.promote_if(observed_gen, candidate.clone()) {
            Ok(generation) => {
                PROMOTIONS.inc();
                let rows = {
                    let st = self.state.lock().unwrap_or_else(|p| p.into_inner());
                    st.journal.len() + self.base.as_ref().map_or(0, |b| b.len())
                };
                let version = self.save_snapshot(&candidate, rows, "promotion");
                if let Some(v) = version {
                    self.remember_version(generation, v);
                    // the freshly promoted version supersedes any pin a
                    // past rollback left behind
                    self.with_store(|s| s.unpin());
                }
                RetrainOutcome::Promoted {
                    generation,
                    version,
                    cand_mape,
                    incumbent_mape,
                }
            }
            Err(_) => RetrainOutcome::RaceLost,
        }
    }

    /// The serve daemon's trainer loop: ingest frequently, retrain on the
    /// configured interval, exit when `stop` says so.
    pub fn run_until(&self, stop: impl Fn() -> bool) {
        let mut last_retrain = std::time::Instant::now();
        while !stop() {
            self.ingest();
            if last_retrain.elapsed() >= self.cfg.retrain_interval {
                last_retrain = std::time::Instant::now();
                self.retrain_cycle();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        // final pass so measurements produced during drain are journaled
        self.ingest();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn toy_predictor(scale: f64) -> PerformancePredictor {
        let mut d = Dataset::new(feature_names());
        let nf = d.feature_names.len();
        for i in 0..10 {
            let mut row = vec![0.0; nf];
            row[0] = i as f64;
            d.push(format!("r{i}"), row, scale * (1.0 + i as f64));
        }
        PerformancePredictor::train(&d, RegressorKind::DecisionTree, 7)
    }

    #[test]
    fn slot_starts_empty_and_installs_generations() {
        let slot = PredictorSlot::new();
        assert_eq!(slot.load().0, 0);
        assert!(slot.load().1.is_none());
        let g1 = slot.install(Arc::new(toy_predictor(1.0)));
        assert_eq!(g1, 1);
        let (g, p) = slot.load();
        assert_eq!(g, 1);
        assert!(p.is_some());
    }

    #[test]
    fn promote_if_is_exactly_once() {
        let slot = Arc::new(PredictorSlot::new());
        let base = slot.install(Arc::new(toy_predictor(1.0)));
        let winners = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let slot = Arc::clone(&slot);
                let winners = &winners;
                s.spawn(move || {
                    if slot.promote_if(base, Arc::new(toy_predictor(2.0))).is_ok() {
                        winners.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(
            winners.load(Ordering::SeqCst),
            1,
            "exactly one concurrent promotion may win"
        );
        assert_eq!(slot.generation(), base + 1);
    }

    #[test]
    fn rollback_restores_previous_distinct_predictor() {
        let slot = PredictorSlot::new();
        let good = Arc::new(toy_predictor(1.0));
        let bad = Arc::new(toy_predictor(5.0));
        slot.install(good.clone());
        slot.install(bad);
        let (new_gen, resurrected) = slot.rollback().expect("has history");
        assert_eq!(resurrected, 1);
        assert_eq!(new_gen, 3);
        let (_, active) = slot.load();
        assert!(Arc::ptr_eq(&active.unwrap(), &good));
        // nothing older and distinct left beyond the root
        assert!(slot.rollback().is_some(), "bad gen 2 is still distinct");
    }

    #[test]
    fn slot_drops_generations_rollback_cannot_reach() {
        let slot = PredictorSlot::new();
        let first = Arc::new(toy_predictor(1.0));
        let weak = Arc::downgrade(&first);
        slot.install(first);
        slot.install(Arc::new(toy_predictor(2.0)));
        slot.install(Arc::new(toy_predictor(3.0)));
        assert!(
            weak.upgrade().is_none(),
            "the first predictor must be dropped"
        );
        assert_eq!(slot.rollback(), Some((4, 2)));
    }

    #[test]
    fn rollback_on_empty_slot_is_none() {
        let slot = PredictorSlot::new();
        assert!(slot.rollback().is_none());
        slot.install(Arc::new(toy_predictor(1.0)));
        assert!(slot.rollback().is_none(), "no distinct predecessor");
    }

    #[test]
    fn readers_survive_concurrent_swaps() {
        let slot = Arc::new(PredictorSlot::new());
        slot.install(Arc::new(toy_predictor(1.0)));
        let stop = Arc::new(AtomicBool::new(false));
        let row = vec![1.0; feature_names().len()];
        std::thread::scope(|s| {
            for _ in 0..4 {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                let row = row.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (gen, p) = slot.load();
                        assert!(gen >= 1);
                        let y = p.expect("installed").predict_row(&row);
                        assert!(y.is_finite());
                    }
                });
            }
            for i in 0..200 {
                slot.install(Arc::new(toy_predictor(1.0 + i as f64 / 100.0)));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(slot.generation(), 201);
    }

    #[test]
    fn measurement_log_bounds_and_drains() {
        let log = MeasurementLog::new(3);
        for i in 0..5 {
            log.push(Measurement {
                model: format!("m{i}"),
                device: "d".into(),
                row: vec![],
                ipc: 1.0,
            });
        }
        let drained = log.drain();
        assert_eq!(drained.len(), 3, "bounded: oldest evicted");
        assert_eq!(drained[0].model, "m2");
        assert!(log.is_empty());
    }

    #[test]
    fn family_groups_variants() {
        assert_eq!(family_of("resnet50"), "resnet");
        assert_eq!(family_of("resnet18"), "resnet");
        assert_eq!(family_of("MobileNetV2"), "mobilenetv");
        assert_eq!(family_of("vgg16"), "vgg");
    }
}
