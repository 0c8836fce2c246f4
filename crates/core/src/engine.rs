//! The deadline-aware tiered estimation engine.
//!
//! An estimation request (`model`, `device`) walks a ladder of tiers in
//! fidelity order — detailed simulation, analytical model, trained
//! regressor, stale cache — and is served by the first tier that succeeds
//! within its time slice. Every hazard is contained and *classified*:
//!
//! - a wall-clock [`Deadline`] bounds the whole request; each tier gets an
//!   even share of the remainder as the fixed deadline of its
//!   [`ExecBudget`], which the cooperative loops in `ptx-analysis` and
//!   `gpu-sim` check within their documented intervals;
//! - tier work runs in the caller's thread under `catch_unwind`, so a
//!   panic is a recorded tier failure, not an abort;
//! - a per-tier [`CircuitBreaker`] (logical-tick clock, see
//!   [`crate::resilience`]) stops routing work to a tier that keeps
//!   failing, and re-probes it after a cooldown.
//!
//! Admission control is not the engine's: the server's scheduler sheds
//! load by QoS class before a request reaches it.
//!
//! The result is the availability contract the chaos suite asserts: every
//! request returns a classified [`EstimateOutcome`] within deadline + ε,
//! no matter which tiers hang, panic, or crawl.

use crate::analysis_cache::{analyze_zoo, resolve_zoo};
use crate::features::feature_row;
use crate::lifecycle::{Measurement, MeasurementLog, PredictorSlot};
use crate::model::PerformancePredictor;
use crate::pipeline::Corpus;
use crate::resilience::{BreakerConfig, BreakerState, CircuitBreaker, Deadline};
use gpu_sim::{ChaosInjector, ChaosProfile, SimMode, Simulator, TierFaultKind};
use ptx_analysis::ExecBudget;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests entering the engine. The `engine.*` invariants live in
/// [`crate::invariants::INVARIANTS`].
static ENGINE_REQUESTS: obs::LazyCounter = obs::LazyCounter::new("engine.requests");
static ENGINE_SERVED: obs::LazyCounter = obs::LazyCounter::new("engine.outcome.served");
static ENGINE_EXHAUSTED: obs::LazyCounter = obs::LazyCounter::new("engine.outcome.exhausted");
/// Stale-cache tier traffic.
static ENGINE_CACHE_LOOKUPS: obs::LazyCounter = obs::LazyCounter::new("engine.cache.lookups");
static ENGINE_CACHE_HITS: obs::LazyCounter = obs::LazyCounter::new("engine.cache.hits");
static ENGINE_CACHE_MISSES: obs::LazyCounter = obs::LazyCounter::new("engine.cache.misses");
/// Cache refreshes from live tier successes.
static ENGINE_CACHE_STORES: obs::LazyCounter = obs::LazyCounter::new("engine.cache.stores");
/// Cache entries seeded from a corpus.
static ENGINE_CACHE_WARMED: obs::LazyCounter = obs::LazyCounter::new("engine.cache.warmed");
/// End-to-end request wall time (duration histogram; count is
/// deterministic, bucket occupancy is not).
static ENGINE_REQUEST_US: obs::LazyHistogram = obs::LazyHistogram::new("engine.request_us");

/// One metric per tier, `<prefix><tier name><suffix>`, indexed by
/// `Tier as usize`: per-request bumps through statics, so none formats a
/// name or takes the registry lock.
macro_rules! per_tier {
    ($lazy:ident, $prefix:literal, $suffix:literal) => {
        [
            obs::$lazy::new(concat!($prefix, "detailed", $suffix)),
            obs::$lazy::new(concat!($prefix, "analytical", $suffix)),
            obs::$lazy::new(concat!($prefix, "regressor", $suffix)),
            obs::$lazy::new(concat!($prefix, "stale-cache", $suffix)),
        ]
    };
}

/// `engine.tier.<tier>.attempts`.
static TIER_ATTEMPTS: [obs::LazyCounter; 4] = per_tier!(LazyCounter, "engine.tier.", ".attempts");
/// `engine.tier.<tier>.success`.
static TIER_SUCCESSES: [obs::LazyCounter; 4] = per_tier!(LazyCounter, "engine.tier.", ".success");
/// `engine.tier.<tier>.failure.<kind>`, one row per [`TierFailure`] kind
/// in declaration order. Panic and error messages are collapsed to their
/// kind so metric names stay a small, fixed set.
static TIER_FAILURES: [[obs::LazyCounter; 4]; 6] = [
    per_tier!(LazyCounter, "engine.tier.", ".failure.timeout"),
    per_tier!(LazyCounter, "engine.tier.", ".failure.panic"),
    per_tier!(LazyCounter, "engine.tier.", ".failure.error"),
    per_tier!(LazyCounter, "engine.tier.", ".failure.breaker-open"),
    per_tier!(LazyCounter, "engine.tier.", ".failure.cache-miss"),
    per_tier!(LazyCounter, "engine.tier.", ".failure.deadline-spent"),
];
/// `engine.breaker.<tier>.to-<state>`, indexed by `BreakerState as usize`.
static BREAKER_TRANSITIONS: [[obs::LazyCounter; 4]; 3] = [
    per_tier!(LazyCounter, "engine.breaker.", ".to-closed"),
    per_tier!(LazyCounter, "engine.breaker.", ".to-open"),
    per_tier!(LazyCounter, "engine.breaker.", ".to-half-open"),
];
/// `engine.tier.<tier>.latency_us`: each attempt's wall time.
static TIER_LATENCY_US: [obs::LazyHistogram; 4] =
    per_tier!(LazyHistogram, "engine.tier.", ".latency_us");
/// `engine.outcome.served.<tier>`.
static SERVED_BY: [obs::LazyCounter; 4] = per_tier!(LazyCounter, "engine.outcome.served.", "");

/// The [`TIER_FAILURES`] row of a failure's kind.
fn failure_row(failure: &TierFailure) -> usize {
    match failure {
        TierFailure::Timeout => 0,
        TierFailure::Panic(_) => 1,
        TierFailure::Error(_) => 2,
        TierFailure::BreakerOpen => 3,
        TierFailure::CacheMiss => 4,
        TierFailure::DeadlineSpent => 5,
    }
}

/// Bump the per-tier failure counter for a classified failure.
fn tier_failure_count(tier: Tier, failure: &TierFailure) {
    TIER_FAILURES[failure_row(failure)][tier as usize].inc();
}

/// Record a breaker state transition as `engine.breaker.<tier>.to-<state>`.
fn note_breaker_transition(tier: Tier, before: BreakerState, after: BreakerState) {
    if before != after {
        BREAKER_TRANSITIONS[after as usize][tier as usize].inc();
    }
}

/// The estimation tiers, in descending fidelity (and cost) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Tier {
    /// Event-driven cycle-level simulation (the "hardware" stand-in).
    Detailed,
    /// Closed-form roofline estimate over exact instruction counts.
    Analytical,
    /// Trained-regressor prediction from DCA features (the paper's model).
    Regressor,
    /// Last known value for this (model, device), possibly stale.
    StaleCache,
}

impl Tier {
    /// The full ladder, fidelity-descending.
    pub const LADDER: [Tier; 4] = [
        Tier::Detailed,
        Tier::Analytical,
        Tier::Regressor,
        Tier::StaleCache,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Detailed => "detailed",
            Tier::Analytical => "analytical",
            Tier::Regressor => "regressor",
            Tier::StaleCache => "stale-cache",
        }
    }

    pub fn parse(s: &str) -> Result<Tier, String> {
        match s.trim() {
            "detailed" => Ok(Tier::Detailed),
            "analytical" => Ok(Tier::Analytical),
            "regressor" => Ok(Tier::Regressor),
            "stale-cache" | "cache" => Ok(Tier::StaleCache),
            other => Err(format!(
                "unknown tier `{other}` (want detailed|analytical|regressor|stale-cache)"
            )),
        }
    }

    /// Parse a comma-separated ladder spec, e.g. `detailed,analytical`.
    pub fn parse_ladder(spec: &str) -> Result<Vec<Tier>, String> {
        let tiers: Vec<Tier> = spec.split(',').map(Tier::parse).collect::<Result<_, _>>()?;
        if tiers.is_empty() {
            return Err("empty tier ladder".into());
        }
        Ok(tiers)
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why one tier failed to serve a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TierFailure {
    /// The tier did not answer within its time slice: its budget's
    /// deadline passed, and the ladder moved on.
    Timeout,
    /// The tier panicked; the engine contained the unwind.
    Panic(String),
    /// The tier returned an error.
    Error(String),
    /// The tier's circuit breaker was open; no work was attempted.
    BreakerOpen,
    /// Stale-cache tier: no entry for this (model, device).
    CacheMiss,
    /// The deadline was already spent before this tier's turn.
    DeadlineSpent,
}

impl TierFailure {
    /// Stable one-token rendering, shared by [`EstimateOutcome::canonical`]
    /// and the server's wire payload.
    pub fn canonical(&self) -> String {
        match self {
            TierFailure::Timeout => "timeout".into(),
            TierFailure::Panic(m) => format!("panic({m})"),
            TierFailure::Error(m) => format!("error({m})"),
            TierFailure::BreakerOpen => "breaker-open".into(),
            TierFailure::CacheMiss => "cache-miss".into(),
            TierFailure::DeadlineSpent => "deadline-spent".into(),
        }
    }
}

/// One rung of the degradation path of a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierAttempt {
    pub tier: Tier,
    pub failure: TierFailure,
}

/// Terminal classification of a request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OutcomeKind {
    /// Served by `tier` (possibly after degrading past earlier tiers).
    Served { tier: Tier },
    /// Every tier in the ladder failed; `attempts` says how.
    Exhausted,
}

/// The classified result of one estimation request. Every request gets
/// one — success, degradation and exhaustion all included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EstimateOutcome {
    pub model: String,
    pub device: String,
    pub kind: OutcomeKind,
    /// Predicted IPC, when served.
    pub ipc: Option<f64>,
    /// Predicted latency in ms, when the serving tier computes one (the
    /// regressor predicts IPC only).
    pub latency_ms: Option<f64>,
    /// The degradation path: one entry per tier that failed before the
    /// request was served (or exhausted).
    pub attempts: Vec<TierAttempt>,
    /// Wall-clock time the request took. Excluded from [`canonical`]
    /// (wall time is the one legitimately nondeterministic field).
    pub elapsed_ms: f64,
    /// The predictor generation that served a regressor-tier answer (see
    /// [`crate::lifecycle::PredictorSlot`]); `None` for every other tier.
    /// Excluded from [`canonical`] so replay fixtures stay comparable
    /// across predictor-version histories.
    pub generation: Option<u64>,
}

impl EstimateOutcome {
    /// Deterministic one-line rendering: everything except wall time.
    /// Two runs with the same seed and inputs must produce byte-identical
    /// canonical strings — the chaos suite's determinism oracle.
    pub fn canonical(&self) -> String {
        let kind = match &self.kind {
            OutcomeKind::Served { tier } => format!("served:{tier}"),
            OutcomeKind::Exhausted => "exhausted".into(),
        };
        let ipc = match self.ipc {
            Some(v) => format!("{v:.9}"),
            None => "-".into(),
        };
        let latency = match self.latency_ms {
            Some(v) => format!("{v:.6}"),
            None => "-".into(),
        };
        let path: Vec<String> = self
            .attempts
            .iter()
            .map(|a| format!("{}:{}", a.tier, a.failure.canonical()))
            .collect();
        format!(
            "{}@{} {kind} ipc={ipc} latency_ms={latency} path=[{}]",
            self.model,
            self.device,
            path.join(",")
        )
    }

    pub fn served(&self) -> bool {
        matches!(self.kind, OutcomeKind::Served { .. })
    }
}

/// Engine configuration. Each request brings its own deadline.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Tier ladder, tried in order.
    pub tiers: Vec<Tier>,
    /// Circuit-breaker tuning shared by all tiers.
    pub breaker: BreakerConfig,
    /// Chaos injection (tests and drills; `none` in production).
    pub chaos: ChaosProfile,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tiers: Tier::LADDER.to_vec(),
            breaker: BreakerConfig::default(),
            chaos: ChaosProfile::none(),
        }
    }
}

/// The resilient estimation engine. Processes requests sequentially so
/// breaker state evolves as a pure function of the request sequence (see
/// [`crate::resilience`] on determinism).
pub struct ResilientEngine {
    config: EngineConfig,
    breakers: HashMap<Tier, CircuitBreaker>,
    /// Logical clock: one tick per request.
    tick: u64,
    /// (model, device) -> (ipc, latency_ms): warmed from a corpus and
    /// refreshed by every live success, read by the stale-cache tier.
    cache: HashMap<(String, String), (f64, Option<f64>)>,
    /// The regressor tier's predictor, behind a generation-stamped
    /// hot-swap slot. Shared across shards (and with the lifecycle
    /// trainer) so a promotion lands everywhere atomically.
    slot: Arc<PredictorSlot>,
    /// Where served live-tier answers publish ground truth for the
    /// lifecycle trainer; `None` outside a lifecycle-enabled server.
    ground_truth: Option<Arc<MeasurementLog>>,
}

impl ResilientEngine {
    pub fn new(config: EngineConfig) -> Self {
        Self::with_shared_slot(config, Arc::new(PredictorSlot::new()))
    }

    /// An engine whose regressor tier reads an externally owned slot —
    /// every scheduler shard shares one, so a single promotion or
    /// rollback is visible to all of them mid-request.
    pub fn with_shared_slot(config: EngineConfig, slot: Arc<PredictorSlot>) -> Self {
        ResilientEngine {
            config,
            breakers: HashMap::new(),
            tick: 0,
            cache: HashMap::new(),
            slot,
            ground_truth: None,
        }
    }

    /// Attach a trained predictor for the regressor tier (without one the
    /// tier fails fast with a classified error).
    pub fn with_predictor(self, predictor: PerformancePredictor) -> Self {
        self.slot.install(Arc::new(predictor));
        self
    }

    /// Publish served live-tier answers (detailed/analytical IPC with the
    /// paper's feature row) into `log` as ground truth for retraining.
    pub fn set_ground_truth_log(&mut self, log: Arc<MeasurementLog>) {
        self.ground_truth = Some(log);
    }

    /// Seed the stale-cache tier from a previously built corpus.
    pub fn warm_from_corpus(&mut self, corpus: &Corpus) {
        ENGINE_CACHE_WARMED.add(corpus.samples.len() as u64);
        for s in &corpus.samples {
            self.cache.insert(
                (s.model.clone(), s.device.clone()),
                (s.ipc, Some(s.latency_ms)),
            );
        }
    }

    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Current breaker state for a tier (`Closed` if it never saw traffic).
    pub fn breaker_state(&self, tier: Tier) -> BreakerState {
        self.breakers
            .get(&tier)
            .map(|b| b.state())
            .unwrap_or(BreakerState::Closed)
    }

    /// Estimate one (model, device) cell through the tier ladder within
    /// `deadline_ms` of wall time, counted from this call.
    pub fn estimate(&mut self, model: &str, device: &str, deadline_ms: u64) -> EstimateOutcome {
        self.estimate_inner(model, device, deadline_ms, false)
    }

    /// Live-tier-only estimation: the configured ladder minus the stale
    /// cache. This is the stale-while-revalidate refresh path — a served
    /// result updates the cache, and a failure leaves the stale entry in
    /// place rather than masking the miss with the entry being refreshed.
    pub fn estimate_live(
        &mut self,
        model: &str,
        device: &str,
        deadline_ms: u64,
    ) -> EstimateOutcome {
        self.estimate_inner(model, device, deadline_ms, true)
    }

    fn estimate_inner(
        &mut self,
        model: &str,
        device: &str,
        deadline_ms: u64,
        skip_stale_cache: bool,
    ) -> EstimateOutcome {
        self.tick += 1;
        ENGINE_REQUESTS.inc();
        let _request_span = ENGINE_REQUEST_US.span();
        let tick = self.tick;
        let deadline = Deadline::in_ms(deadline_ms);
        let injector = ChaosInjector::new(self.config.chaos.clone());
        let tiers: Vec<Tier> = self
            .config
            .tiers
            .iter()
            .copied()
            .filter(|t| !(skip_stale_cache && *t == Tier::StaleCache))
            .collect();
        let mut attempts: Vec<TierAttempt> = Vec::new();

        for (i, &tier) in tiers.iter().enumerate() {
            // the stale cache is the floor of the ladder: no budget, no
            // breaker, immune to chaos, effectively instant
            if tier == Tier::StaleCache {
                TIER_ATTEMPTS[tier as usize].inc();
                ENGINE_CACHE_LOOKUPS.inc();
                match self.cache.get(&(model.to_string(), device.to_string())) {
                    Some(&(ipc, latency_ms)) => {
                        ENGINE_CACHE_HITS.inc();
                        TIER_SUCCESSES[tier as usize].inc();
                        return self.outcome(
                            model,
                            device,
                            OutcomeKind::Served { tier },
                            Some(ipc),
                            latency_ms,
                            attempts,
                            &deadline,
                            None,
                        );
                    }
                    None => {
                        ENGINE_CACHE_MISSES.inc();
                        let failure = TierFailure::CacheMiss;
                        tier_failure_count(tier, &failure);
                        attempts.push(TierAttempt { tier, failure });
                        continue;
                    }
                }
            }

            if deadline.expired() {
                let failure = TierFailure::DeadlineSpent;
                TIER_ATTEMPTS[tier as usize].inc();
                tier_failure_count(tier, &failure);
                attempts.push(TierAttempt { tier, failure });
                continue;
            }

            let breaker = self
                .breakers
                .entry(tier)
                .or_insert_with(|| CircuitBreaker::new(self.config.breaker.clone()));
            let state_before = breaker.state();
            let admitted = breaker.admit(tick);
            note_breaker_transition(tier, state_before, breaker.state());
            TIER_ATTEMPTS[tier as usize].inc();
            if !admitted {
                let failure = TierFailure::BreakerOpen;
                tier_failure_count(tier, &failure);
                attempts.push(TierAttempt { tier, failure });
                continue;
            }

            let budget = ExecBudget::default().with_deadline(deadline.tier_slice(tiers.len() - i));
            let fault = injector.tier_fault(model, device, tier.name());
            // one load pins this request to a single predictor
            // generation, even if a promotion lands mid-flight
            let (generation, predictor) = if tier == Tier::Regressor {
                let (g, p) = self.slot.load();
                (Some(g), p)
            } else {
                (None, None)
            };
            let tier_start = Instant::now();
            let work = catch_unwind(AssertUnwindSafe(|| {
                tier_work(
                    tier,
                    model,
                    device,
                    predictor.as_deref(),
                    self.ground_truth.is_some(),
                    fault,
                    self.config.chaos.slow_ms,
                    &budget,
                )
            }));
            TIER_LATENCY_US[tier as usize].record_duration(tier_start.elapsed());
            // an answer that arrives after the slice is a timeout, whatever
            // it says
            let failure = match work {
                _ if budget.expired() => TierFailure::Timeout,
                Ok(Ok(answer)) => {
                    let breaker = self.breakers.get_mut(&tier).expect("breaker exists");
                    let state_before = breaker.state();
                    breaker.record(tick, true);
                    note_breaker_transition(tier, state_before, breaker.state());
                    TIER_SUCCESSES[tier as usize].inc();
                    let (ipc, latency_ms) = (answer.ipc, answer.latency_ms);
                    self.cache
                        .insert((model.to_string(), device.to_string()), (ipc, latency_ms));
                    ENGINE_CACHE_STORES.inc();
                    // a served live-tier answer *is* ground truth
                    if let (Some(log), Some(truth)) = (&self.ground_truth, answer.truth) {
                        log.push(truth);
                    }
                    return self.outcome(
                        model,
                        device,
                        OutcomeKind::Served { tier },
                        Some(ipc),
                        latency_ms,
                        attempts,
                        &deadline,
                        generation,
                    );
                }
                Ok(Err(msg)) => TierFailure::Error(msg),
                Err(payload) => TierFailure::Panic(panic_message(payload.as_ref())),
            };
            let breaker = self.breakers.get_mut(&tier).expect("breaker exists");
            let state_before = breaker.state();
            breaker.record(tick, false);
            note_breaker_transition(tier, state_before, breaker.state());
            tier_failure_count(tier, &failure);
            attempts.push(TierAttempt { tier, failure });
        }

        self.outcome(
            model,
            device,
            OutcomeKind::Exhausted,
            None,
            None,
            attempts,
            &deadline,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn outcome(
        &self,
        model: &str,
        device: &str,
        kind: OutcomeKind,
        ipc: Option<f64>,
        latency_ms: Option<f64>,
        attempts: Vec<TierAttempt>,
        deadline: &Deadline,
        generation: Option<u64>,
    ) -> EstimateOutcome {
        match &kind {
            OutcomeKind::Served { tier } => {
                ENGINE_SERVED.inc();
                SERVED_BY[*tier as usize].inc();
            }
            OutcomeKind::Exhausted => ENGINE_EXHAUSTED.inc(),
        }
        EstimateOutcome {
            model: model.to_string(),
            device: device.to_string(),
            kind,
            ipc,
            latency_ms,
            attempts,
            elapsed_ms: deadline.elapsed().as_secs_f64() * 1e3,
            generation,
        }
    }
}

// takes the unboxed dyn reference: coercing `&Box<dyn Any>` here would
// downcast against the Box itself and always miss
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// A live tier's answer.
struct TierAnswer {
    ipc: f64,
    /// The regressor predicts IPC only.
    latency_ms: Option<f64>,
    /// The simulator tiers' answer as ground truth, when a log wants it.
    truth: Option<Measurement>,
}

/// The work of one live tier, under `budget`. Injected chaos is acted out
/// here: a `Hang` waits until the budget expires, a `Panic` unwinds for
/// real, a `Slow` sleeps for `slow_ms` or until the budget expires before
/// working. Every tier then reads the model's one analysis, at
/// [`crate::DEFAULT_SM_TARGET`], found by the model's name: a warm request
/// neither builds nor hashes the graph. The checks run in a fixed order:
/// device, model, predictor, analysis. With `publish`, a simulator tier's
/// answer comes back as a ground-truth [`Measurement`] too.
#[allow(clippy::too_many_arguments)]
fn tier_work(
    tier: Tier,
    model: &str,
    device: &str,
    predictor: Option<&PerformancePredictor>,
    publish: bool,
    fault: TierFaultKind,
    slow_ms: u64,
    budget: &ExecBudget,
) -> Result<TierAnswer, String> {
    match fault {
        TierFaultKind::Hang => {
            while !budget.expired() {
                std::thread::sleep(Duration::from_millis(1));
            }
            return Err("injected hang, cancelled by deadline".into());
        }
        TierFaultKind::Panic => panic!("chaos: injected panic in {} tier", tier.name()),
        TierFaultKind::Slow => {
            for _ in 0..slow_ms {
                if budget.expired() {
                    return Err("injected slowdown, cancelled by deadline".into());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        TierFaultKind::None => {}
    }

    let dev =
        gpu_sim::device_by_name(device).ok_or_else(|| format!("unknown device `{device}`"))?;
    let zoo = resolve_zoo(model).ok_or_else(|| format!("unknown model `{model}`"))?;
    // checked before the analysis, so an unattached regressor fails fast
    let predictor = match tier {
        Tier::Regressor => Some(predictor.ok_or("no trained predictor attached")?),
        Tier::Detailed | Tier::Analytical => None,
        Tier::StaleCache => unreachable!("stale cache is served inline by the engine"),
    };
    let analyzed = analyze_zoo(zoo, budget).map_err(|e| e.to_string())?;
    if let Some(predictor) = predictor {
        return Ok(TierAnswer {
            ipc: predictor.predict(&analyzed.profile, &dev),
            latency_ms: None,
            truth: None,
        });
    }
    let mode = if tier == Tier::Detailed {
        SimMode::Detailed
    } else {
        SimMode::Analytical
    };
    let report = Simulator::new(dev.clone(), mode)
        .simulate_plan(&analyzed.plan, &analyzed.counts, budget)
        .map_err(|e| e.to_string())?;
    // the same feature row the regressor tier predicts from, so the
    // lifecycle trainer journals exactly what predict consumes
    let truth = publish.then(|| Measurement {
        model: model.to_string(),
        device: device.to_string(),
        row: feature_row(&analyzed.profile, &dev),
        ipc: report.ipc,
    });
    Ok(TierAnswer {
        ipc: report.ipc,
        latency_ms: Some(report.latency_ms),
        truth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_parses() {
        assert_eq!(
            Tier::parse_ladder("detailed,analytical").unwrap(),
            vec![Tier::Detailed, Tier::Analytical]
        );
        assert_eq!(Tier::parse_ladder("cache").unwrap(), vec![Tier::StaleCache]);
        assert!(Tier::parse_ladder("warp-speed").is_err());
    }

    #[test]
    fn per_tier_metrics_keep_their_names() {
        let failures = [
            (TierFailure::Timeout, "timeout"),
            (TierFailure::Panic("p".into()), "panic"),
            (TierFailure::Error("e".into()), "error"),
            (TierFailure::BreakerOpen, "breaker-open"),
            (TierFailure::CacheMiss, "cache-miss"),
            (TierFailure::DeadlineSpent, "deadline-spent"),
        ];
        let states = [
            (BreakerState::Closed, "closed"),
            (BreakerState::Open, "open"),
            (BreakerState::HalfOpen, "half-open"),
        ];
        for tier in Tier::LADDER {
            let (t, name) = (tier as usize, tier.name());
            let prefix = format!("engine.tier.{name}");
            assert_eq!(TIER_ATTEMPTS[t].name(), format!("{prefix}.attempts"));
            assert_eq!(TIER_SUCCESSES[t].name(), format!("{prefix}.success"));
            assert_eq!(TIER_LATENCY_US[t].name(), format!("{prefix}.latency_us"));
            assert_eq!(SERVED_BY[t].name(), format!("engine.outcome.served.{name}"));
            for (failure, kind) in &failures {
                let counter = &TIER_FAILURES[failure_row(failure)][t];
                assert_eq!(counter.name(), format!("{prefix}.failure.{kind}"));
            }
            for (state, label) in states {
                let counter = &BREAKER_TRANSITIONS[state as usize][t];
                assert_eq!(counter.name(), format!("engine.breaker.{name}.to-{label}"));
            }
        }
    }

    #[test]
    fn healthy_engine_serves_from_top_tier() {
        let mut engine = ResilientEngine::new(EngineConfig {
            tiers: vec![Tier::Analytical, Tier::StaleCache],
            ..EngineConfig::default()
        });
        let out = engine.estimate("mobilenet", "Quadro P1000", 30_000);
        assert_eq!(
            out.kind,
            OutcomeKind::Served {
                tier: Tier::Analytical
            },
            "path: {:?}",
            out.attempts
        );
        assert!(out.ipc.unwrap() > 0.0);
        // the success refreshed the cache: a cache-only ladder now serves
        let mut cached = ResilientEngine::new(EngineConfig {
            tiers: vec![Tier::StaleCache],
            ..EngineConfig::default()
        });
        cached.cache = engine.cache.clone();
        let hit = cached.estimate("mobilenet", "Quadro P1000", 2_000);
        assert_eq!(
            hit.kind,
            OutcomeKind::Served {
                tier: Tier::StaleCache
            }
        );
        assert_eq!(hit.ipc, out.ipc);
    }

    #[test]
    fn unknown_model_exhausts_with_classified_errors() {
        let mut engine = ResilientEngine::new(EngineConfig {
            tiers: vec![Tier::Analytical, Tier::StaleCache],
            ..EngineConfig::default()
        });
        let out = engine.estimate("not-a-model", "V100S", 10_000);
        assert_eq!(out.kind, OutcomeKind::Exhausted);
        assert_eq!(out.attempts.len(), 2);
        assert!(
            matches!(&out.attempts[0].failure, TierFailure::Error(m) if m.contains("unknown model"))
        );
        assert_eq!(out.attempts[1].failure, TierFailure::CacheMiss);
    }

    #[test]
    fn unknown_model_is_reported_before_a_missing_predictor() {
        let mut engine = ResilientEngine::new(EngineConfig {
            tiers: vec![Tier::Regressor],
            ..EngineConfig::default()
        });
        let out = engine.estimate("not-a-model", "V100S", 10_000);
        assert_eq!(out.kind, OutcomeKind::Exhausted);
        assert!(
            matches!(&out.attempts[..], [TierAttempt { failure: TierFailure::Error(m), .. }] if m.contains("unknown model")),
            "path: {:?}",
            out.attempts
        );
    }

    #[test]
    fn estimate_live_skips_the_stale_cache() {
        let mut engine = ResilientEngine::new(EngineConfig {
            tiers: vec![Tier::StaleCache],
            ..EngineConfig::default()
        });
        engine
            .cache
            .insert(("m".to_string(), "d".to_string()), (1.0, None));
        // the cached ladder serves, the live ladder has nothing left
        assert!(engine.estimate("m", "d", 1_000).served());
        let live = engine.estimate_live("m", "d", 1_000);
        assert_eq!(live.kind, OutcomeKind::Exhausted);
        assert!(live.attempts.is_empty(), "skipped tiers leave no attempts");
    }

    #[test]
    fn canonical_excludes_wall_time() {
        let mut a = EstimateOutcome {
            model: "m".into(),
            device: "d".into(),
            kind: OutcomeKind::Served {
                tier: Tier::Detailed,
            },
            ipc: Some(1.25),
            latency_ms: Some(3.5),
            attempts: vec![TierAttempt {
                tier: Tier::Detailed,
                failure: TierFailure::Timeout,
            }],
            elapsed_ms: 12.0,
            generation: None,
        };
        let c1 = a.canonical();
        a.elapsed_ms = 99.0;
        a.generation = Some(3);
        assert_eq!(c1, a.canonical());
        assert!(c1.contains("served:detailed"));
        assert!(c1.contains("detailed:timeout"));
    }
}
