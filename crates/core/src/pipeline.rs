//! Phase 1 of the paper (Fig. 3): training-dataset creation. Every zoo CNN
//! is statically analyzed, lowered to PTX, instruction-counted by the
//! dynamic code analysis, and "run" on every training GPU under the
//! `nvprof`-like profiler to obtain the measured IPC response.
//!
//! Two entry points share the implementation:
//!
//! - [`build_corpus`] — the paper's protocol: one measurement per cell,
//!   fail-fast on any error. Kept for reproducibility of the published
//!   numbers (and of the on-disk corpus cache).
//! - [`build_corpus_robust`] — the fault-tolerant protocol: repeated
//!   measurements with retry and median/MAD outlier rejection per
//!   [`RobustConfig`], degrading gracefully instead of failing wholesale.
//!   Every (model, device) cell gets a [`CellReport`]; cells that lose
//!   information are `Degraded`, cells that produce no measurement are
//!   `Failed` and simply missing from the dataset. `strict` mode restores
//!   fail-fast semantics under the same measurement protocol.

use crate::analysis_cache::model_content_hash;
use crate::features::{feature_names, feature_row, CnnProfile, ProfileError};
use crate::journal::{self, CellOutcome, Journal, Replay};
use cnn_ir::ModelGraph;
use gpu_sim::{
    profile_robust_budgeted, ChaosInjector, ChaosProfile, DeviceSpec, FaultInjector, FaultProfile,
    ProfileFault, RetryPolicy, RobustProfile, TierFaultKind,
};
use mlkit::Dataset;
use ptx::kernel::LaunchPlan;
use ptx_analysis::ExecBudget;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Corpus builds started.
static CORPUS_BUILDS: obs::LazyCounter = obs::LazyCounter::new("corpus.builds");
/// Per-cell outcomes of completed (non-strict-aborted) builds.
static CORPUS_CELLS_OK: obs::LazyCounter = obs::LazyCounter::new("corpus.cells.ok");
static CORPUS_CELLS_DEGRADED: obs::LazyCounter = obs::LazyCounter::new("corpus.cells.degraded");
static CORPUS_CELLS_FAILED: obs::LazyCounter = obs::LazyCounter::new("corpus.cells.failed");
/// Cells reported timed out.
static CORPUS_CELLS_TIMEOUT: obs::LazyCounter = obs::LazyCounter::new("corpus.cells.timeout");
/// Dataset rows emitted by completed builds.
static CORPUS_ROWS: obs::LazyCounter = obs::LazyCounter::new("corpus.rows");
/// Wall time of whole corpus builds, in microseconds.
static CORPUS_BUILD_US: obs::LazyHistogram = obs::LazyHistogram::new("corpus.build_us");
/// Computed cells cancelled because their silence limit passed.
static SUPERVISE_CANCELLED: obs::LazyCounter = obs::LazyCounter::new("supervise.cancelled");
/// Wall time of computed cells under a silence limit, in microseconds.
static SUPERVISE_CELL_US: obs::LazyHistogram = obs::LazyHistogram::new("supervise.cell_us");

/// Metadata for one dataset row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleMeta {
    pub model: String,
    pub device: String,
    pub ipc: f64,
    pub ipc_clean: f64,
    pub latency_ms: f64,
    pub profiling_wall_s: f64,
}

/// The assembled training corpus: the regression dataset plus per-row and
/// per-model metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Corpus {
    pub dataset: Dataset,
    pub samples: Vec<SampleMeta>,
    pub profiles: Vec<CnnProfile>,
}

impl Corpus {
    /// Label convention for rows: `model@device`.
    pub fn label(model: &str, device: &str) -> String {
        format!("{model}@{device}")
    }

    /// CNN profile by model name.
    pub fn profile(&self, model: &str) -> Option<&CnnProfile> {
        self.profiles.iter().find(|p| p.name == model)
    }

    /// Canonical JSON of this corpus with the wall-clock measurement
    /// fields (`SampleMeta::profiling_wall_s`, `CnnProfile::dca_seconds`)
    /// zeroed. Everything else is deterministic for a given input set and
    /// fault seed, so a resumed build's canonical JSON is byte-identical
    /// to an uninterrupted one — the resume-equality guarantee the journal
    /// tests (and the CI kill-resume job) diff against.
    pub fn canonical_json(&self) -> String {
        let mut c = self.clone();
        for s in &mut c.samples {
            s.profiling_wall_s = 0.0;
        }
        for p in &mut c.profiles {
            p.dca_seconds = 0.0;
        }
        serde_json::to_string(&c).unwrap_or_default()
    }
}

/// Measurement protocol configuration for [`build_corpus_robust`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// Repeated measurements per (model, device) cell.
    pub runs: u32,
    pub retry: RetryPolicy,
    pub faults: FaultProfile,
    /// Fail the whole build on the first error instead of degrading.
    pub strict: bool,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            runs: 5,
            retry: RetryPolicy::default(),
            faults: FaultProfile::none(),
            strict: false,
        }
    }
}

impl RobustConfig {
    /// The paper's original protocol: a single measurement per cell, no
    /// faults, fail-fast. [`build_corpus`] uses this; it reproduces the
    /// pre-robustness corpus bit-for-bit.
    pub fn strict_single_run() -> Self {
        RobustConfig {
            runs: 1,
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::no_backoff()
            },
            faults: FaultProfile::none(),
            strict: true,
        }
    }
}

/// Health of one (model, device) cell after the robust protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Every run measured cleanly, nothing rejected.
    Ok,
    /// The cell produced a usable estimate but lost information on the
    /// way: retried transients, killed hangs, rejected outliers, or runs
    /// that died entirely.
    Degraded {
        transient_retries: u32,
        hangs: u32,
        rejected_outliers: u32,
        failed_runs: u32,
    },
    /// No usable measurement; the cell is absent from the dataset.
    Failed { error: String },
    /// The cell went silent past its silence limit
    /// ([`BuildOptions::cell_timeout`]) and was cancelled; absent from the
    /// dataset like `Failed`. `waited_ms` counts from the cell's start.
    TimedOut { waited_ms: u64 },
}

/// Per-cell entry of a [`CorpusReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    pub model: String,
    pub device: String,
    pub status: CellStatus,
    /// Measurements that survived retry and outlier rejection.
    pub runs_retained: u32,
}

/// Build health report: one entry per (model, device) cell, in model-major
/// order. Fully deterministic for a given input set and fault seed — the
/// replay tests compare serialized reports byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusReport {
    pub strict: bool,
    pub runs: u32,
    pub faults: FaultProfile,
    pub cells: Vec<CellReport>,
}

impl CorpusReport {
    pub fn ok_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status == CellStatus::Ok)
            .count()
    }

    pub fn degraded_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Degraded { .. }))
            .count()
    }

    pub fn failed_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Failed { .. }))
            .count()
    }

    pub fn timed_out_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::TimedOut { .. }))
            .count()
    }

    /// One-line human summary, e.g. `62/64 cells ok, 1 degraded, 1 failed`
    /// (plus `, N timed out` when any cell timed out).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}/{} cells ok, {} degraded, {} failed",
            self.ok_count(),
            self.cells.len(),
            self.degraded_count(),
            self.failed_count()
        );
        let timed_out = self.timed_out_count();
        if timed_out > 0 {
            s.push_str(&format!(", {timed_out} timed out"));
        }
        s
    }
}

fn cell_of(model: &str, device: &str, rp: &RobustProfile) -> CellReport {
    let status = if rp.degraded() {
        CellStatus::Degraded {
            transient_retries: rp.transient_retries,
            hangs: rp.hangs,
            rejected_outliers: rp.rejected_outliers,
            failed_runs: rp.failed_runs,
        }
    } else {
        CellStatus::Ok
    };
    CellReport {
        model: model.to_string(),
        device: device.to_string(),
        status,
        runs_retained: rp.records.len() as u32,
    }
}

/// Optional build infrastructure for [`build_corpus_robust_with`]: the
/// cell journal (with its replayed state) and the cells' silence limit.
/// All default to off, in which case the build behaves exactly like the
/// plain robust protocol.
pub struct BuildOptions<'a> {
    /// Journal finished cells here as workers complete them.
    pub journal: Option<&'a Journal>,
    /// Cells/profiles replayed from the journal: skipped, not recomputed.
    pub replay: Option<&'a Replay>,
    /// Silence limit of every computed cell: a cell that reaches no check
    /// point for this long is cancelled and reported
    /// [`CellStatus::TimedOut`] (`--cell-timeout-ms`).
    pub cell_timeout: Option<Duration>,
    /// Chaos injected into cell execution (tier name `"cell"`); used by
    /// the timeout tests and the CI chaos job.
    pub chaos: ChaosProfile,
}

impl BuildOptions<'_> {
    /// No journal, no silence limit, no chaos.
    pub fn none() -> Self {
        BuildOptions {
            journal: None,
            replay: None,
            cell_timeout: None,
            chaos: ChaosProfile::none(),
        }
    }
}

impl Default for BuildOptions<'_> {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-cell result carried from the parallel workers to the serial
/// assembly. Faults keep both the journaled form (timeout flag + error
/// string, identical whether computed or replayed — the resume-equality
/// guarantee extends to the report) and, for freshly computed cells, the
/// original [`ProfileFault`] for strict-mode aborts.
enum RowOutcome {
    Profile(RobustProfile),
    Fault {
        timeout: bool,
        waited_ms: u64,
        error: String,
        fault: Option<ProfileFault>,
    },
}

impl RowOutcome {
    fn from_replayed(outcome: CellOutcome) -> Self {
        match outcome {
            CellOutcome::Profile(rp) => RowOutcome::Profile(rp),
            CellOutcome::Fault {
                timeout,
                waited_ms,
                error,
            } => RowOutcome::Fault {
                timeout,
                waited_ms,
                error,
                fault: None,
            },
        }
    }

    fn from_computed(result: Result<RobustProfile, ProfileFault>) -> Self {
        match result {
            Ok(rp) => RowOutcome::Profile(rp),
            Err(fault) => {
                let (timeout, waited_ms) = match &fault {
                    ProfileFault::Timeout { waited_ms, .. } => (true, *waited_ms),
                    _ => (false, 0),
                };
                RowOutcome::Fault {
                    timeout,
                    waited_ms,
                    error: fault.to_string(),
                    fault: Some(fault),
                }
            }
        }
    }

    /// The journaled form of this outcome.
    fn to_cell_outcome(&self) -> CellOutcome {
        match self {
            RowOutcome::Profile(rp) => CellOutcome::Profile(rp.clone()),
            RowOutcome::Fault {
                timeout,
                waited_ms,
                error,
                ..
            } => CellOutcome::Fault {
                timeout: *timeout,
                waited_ms: *waited_ms,
                error: error.clone(),
            },
        }
    }
}

/// Execute one (model, device) cell: optional chaos, then robust
/// measurement under a budget whose sliding deadline is `cell_timeout`.
/// Any failure after that deadline passed is reported as a timeout — the
/// deadline races the interpreter's own error paths, and the timeout is
/// the verdict the journal must remember.
fn run_cell(
    plan: &LaunchPlan,
    dev: &DeviceSpec,
    cfg: &RobustConfig,
    injector: &FaultInjector,
    chaos: &ChaosInjector,
    cell_timeout: Option<Duration>,
) -> Result<RobustProfile, ProfileFault> {
    let started = Instant::now();
    let _span = cell_timeout.map(|_| SUPERVISE_CELL_US.span());
    let budget = cell_timeout.map_or_else(ExecBudget::default, |limit| {
        ExecBudget::default().with_silence_limit(limit)
    });
    let timeout_fault = |waited_ms: u64| ProfileFault::Timeout {
        model: plan.model_name.clone(),
        device: dev.name.clone(),
        waited_ms,
    };
    let cancelled = || {
        SUPERVISE_CANCELLED.inc();
        timeout_fault(started.elapsed().as_millis() as u64)
    };
    match chaos.tier_fault(&plan.model_name, &dev.name, "cell") {
        TierFaultKind::Hang => {
            // a real hang: no check points, no progress. Under a silence
            // limit the cell sits here until the limit passes; without one
            // it would hang forever, so it degrades to an immediate timeout
            // fault instead.
            if cell_timeout.is_none() {
                return Err(timeout_fault(0));
            }
            while !budget.expired() {
                std::thread::sleep(Duration::from_millis(1));
            }
            return Err(cancelled());
        }
        TierFaultKind::Slow => {
            std::thread::sleep(Duration::from_millis(chaos.profile().slow_ms.max(1)));
        }
        // cell workers contain no unwind boundary; panic chaos is for the
        // estimation engine's tiers
        TierFaultKind::Panic | TierFaultKind::None => {}
    }
    let result = profile_robust_budgeted(plan, dev, cfg.runs, &cfg.retry, injector, &budget);
    match result {
        Err(_) if budget.expired() => Err(cancelled()),
        _ => result,
    }
}

/// Build the corpus for `models` x `devices` under the robust measurement
/// protocol. Parallel over models (each model's lowering + counting is
/// reused across its device rows). Returns the corpus together with the
/// per-cell health report.
///
/// In non-strict mode a failed model analysis fails all of that model's
/// cells, a failed cell loses only its own row, and the build itself
/// succeeds as long as the report can be assembled. In strict mode the
/// first failure aborts the build with its error.
pub fn build_corpus_robust(
    models: &[ModelGraph],
    devices: &[DeviceSpec],
    cfg: &RobustConfig,
) -> Result<(Corpus, CorpusReport), ProfileError> {
    build_corpus_robust_with(models, devices, cfg, &BuildOptions::none())
}

/// [`build_corpus_robust`] with crash-safety and a silence limit
/// ([`BuildOptions`]): journaled cells are appended as each worker
/// finishes, replayed cells are skipped without recomputation (a fully
/// journaled model skips even its analysis), and cells that go silent past
/// the limit degrade to [`CellStatus::TimedOut`] instead of hanging the
/// build.
pub fn build_corpus_robust_with(
    models: &[ModelGraph],
    devices: &[DeviceSpec],
    cfg: &RobustConfig,
    opts: &BuildOptions<'_>,
) -> Result<(Corpus, CorpusReport), ProfileError> {
    type ModelRows = (Option<CnnProfile>, Vec<(Vec<f64>, RowOutcome)>);
    CORPUS_BUILDS.inc();
    let _build_span = CORPUS_BUILD_US.span();
    let injector = FaultInjector::new(cfg.faults.clone());
    let chaos = ChaosInjector::new(opts.chaos.clone());
    let per_model: Vec<Result<ModelRows, ProfileError>> = models
        .par_iter()
        .map(|m| {
            let hash = model_content_hash(m);
            let replayed_cell =
                |dev: &DeviceSpec| opts.replay.and_then(|r| r.cell(hash, &dev.name)).cloned();

            // full-replay fast path: every cell journaled, and the model
            // analysis either journaled too or not needed (all faults) —
            // zero recomputation, not even the (cached) analysis
            let replayed_profile = opts.replay.and_then(|r| r.profiles.get(&hash));
            if devices.iter().all(|d| {
                replayed_cell(d).is_some_and(|c| {
                    replayed_profile.is_some() || matches!(c, CellOutcome::Fault { .. })
                })
            }) && !devices.is_empty()
            {
                let rows = devices
                    .iter()
                    .map(|dev| {
                        journal::note_replayed();
                        let outcome = replayed_cell(dev).expect("checked above");
                        let features = replayed_profile
                            .map(|p| feature_row(p, dev))
                            .unwrap_or_default();
                        (features, RowOutcome::from_replayed(outcome))
                    })
                    .collect();
                return Ok((replayed_profile.cloned(), rows));
            }

            // memoized: rebuilding a corpus (or building after estimate/dse
            // touched the same models) reuses each model's analysis
            let analyzed = crate::analysis_cache::profile_model_cached(m)?;
            let profile = analyzed.profile.clone();
            if let Some(j) = opts.journal {
                if replayed_profile.is_none() {
                    j.append_model(m.name(), hash, &profile)
                        .map_err(|e| ProfileError::Journal(e.to_string()))?;
                }
            }
            let mut rows = Vec::with_capacity(devices.len());
            for dev in devices {
                if let Some(outcome) = replayed_cell(dev) {
                    journal::note_replayed();
                    rows.push((
                        feature_row(&profile, dev),
                        RowOutcome::from_replayed(outcome),
                    ));
                    continue;
                }
                let result = run_cell(
                    &analyzed.plan,
                    dev,
                    cfg,
                    &injector,
                    &chaos,
                    opts.cell_timeout,
                );
                journal::note_computed();
                let row = RowOutcome::from_computed(result);
                if let Some(j) = opts.journal {
                    j.append_cell(m.name(), hash, &dev.name, &row.to_cell_outcome())
                        .map_err(|e| ProfileError::Journal(e.to_string()))?;
                }
                rows.push((feature_row(&profile, dev), row));
            }
            Ok((Some(profile), rows))
        })
        .collect();

    let mut dataset = Dataset::new(feature_names());
    let mut samples = Vec::new();
    let mut profiles = Vec::new();
    let mut cells = Vec::with_capacity(models.len() * devices.len());

    for (model, result) in models.iter().zip(per_model) {
        match result {
            Err(e) => {
                if cfg.strict {
                    return Err(e);
                }
                let error = e.to_string();
                for dev in devices {
                    cells.push(CellReport {
                        model: model.name().to_string(),
                        device: dev.name.clone(),
                        status: CellStatus::Failed {
                            error: error.clone(),
                        },
                        runs_retained: 0,
                    });
                }
            }
            Ok((profile, rows)) => {
                let model_name = model.name().to_string();
                for (dev, (features, row)) in devices.iter().zip(rows) {
                    match row {
                        RowOutcome::Fault {
                            timeout,
                            waited_ms,
                            error,
                            fault,
                        } => {
                            if cfg.strict {
                                return Err(ProfileError::Fault(fault.unwrap_or_else(|| {
                                    if timeout {
                                        ProfileFault::Timeout {
                                            model: model_name.clone(),
                                            device: dev.name.clone(),
                                            waited_ms,
                                        }
                                    } else {
                                        ProfileFault::Replayed {
                                            error: error.clone(),
                                        }
                                    }
                                })));
                            }
                            let status = if timeout {
                                CellStatus::TimedOut { waited_ms }
                            } else {
                                CellStatus::Failed { error }
                            };
                            cells.push(CellReport {
                                model: model_name.clone(),
                                device: dev.name.clone(),
                                status,
                                runs_retained: 0,
                            });
                        }
                        RowOutcome::Profile(rp) => {
                            if cfg.strict && rp.degraded() {
                                return Err(ProfileError::Fault(ProfileFault::Degraded {
                                    model: rp.model_name.clone(),
                                    device: rp.device_name.clone(),
                                    detail: format!(
                                        "{} retries, {} hangs, {} outliers rejected, {} dead runs",
                                        rp.transient_retries,
                                        rp.hangs,
                                        rp.rejected_outliers,
                                        rp.failed_runs
                                    ),
                                }));
                            }
                            cells.push(cell_of(&rp.model_name, &dev.name, &rp));
                            dataset.push(
                                Corpus::label(&rp.model_name, &rp.device_name),
                                features,
                                rp.ipc,
                            );
                            samples.push(SampleMeta {
                                model: rp.model_name.clone(),
                                device: rp.device_name.clone(),
                                ipc: rp.ipc,
                                ipc_clean: rp.ipc_clean,
                                latency_ms: rp.latency_ms,
                                profiling_wall_s: rp.profiling_wall_s,
                            });
                        }
                    }
                }
                if let Some(profile) = profile {
                    profiles.push(profile);
                }
            }
        }
    }

    // per-cell attempt accounting for the completed build; the underlying
    // retry/hang/outlier event counters live in gpu-sim's `profile.*`
    for cell in &cells {
        match cell.status {
            CellStatus::Ok => CORPUS_CELLS_OK.inc(),
            CellStatus::Degraded { .. } => CORPUS_CELLS_DEGRADED.inc(),
            CellStatus::Failed { .. } => CORPUS_CELLS_FAILED.inc(),
            CellStatus::TimedOut { .. } => CORPUS_CELLS_TIMEOUT.inc(),
        }
    }
    CORPUS_ROWS.add(samples.len() as u64);

    Ok((
        Corpus {
            dataset,
            samples,
            profiles,
        },
        CorpusReport {
            strict: cfg.strict,
            runs: cfg.runs,
            faults: cfg.faults.clone(),
            cells,
        },
    ))
}

/// Build the corpus for `models` x `devices` with the paper's original
/// single-run fail-fast protocol.
pub fn build_corpus(models: &[ModelGraph], devices: &[DeviceSpec]) -> Result<Corpus, ProfileError> {
    build_corpus_robust(models, devices, &RobustConfig::strict_single_run())
        .map(|(corpus, _report)| corpus)
}

/// Build the paper's corpus: the 32-model zoo on the two training GPUs
/// (GTX 1080 Ti and V100S).
pub fn build_paper_corpus() -> Result<Corpus, ProfileError> {
    let models = cnn_ir::zoo::build_all();
    let devices = gpu_sim::training_devices();
    build_corpus(&models, &devices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_models() -> Vec<ModelGraph> {
        ["alexnet", "mobilenet", "vgg16"]
            .iter()
            .map(|n| cnn_ir::zoo::build(n).unwrap())
            .collect()
    }

    fn small_corpus() -> Corpus {
        build_corpus(&small_models(), &gpu_sim::training_devices()).unwrap()
    }

    #[test]
    fn corpus_has_model_x_device_rows() {
        let c = small_corpus();
        assert_eq!(c.dataset.len(), 6);
        assert_eq!(c.samples.len(), 6);
        assert_eq!(c.profiles.len(), 3);
        assert!(c.dataset.labels.contains(&"alexnet@V100S".to_string()));
    }

    #[test]
    fn responses_are_positive_ipc() {
        let c = small_corpus();
        for s in &c.samples {
            assert!(s.ipc > 0.0 && s.ipc < 10.0, "{}: {}", s.model, s.ipc);
        }
    }

    #[test]
    fn same_model_differs_across_devices() {
        let c = small_corpus();
        let a = c
            .samples
            .iter()
            .find(|s| s.model == "vgg16" && s.device == "GTX 1080 Ti")
            .unwrap();
        let b = c
            .samples
            .iter()
            .find(|s| s.model == "vgg16" && s.device == "V100S")
            .unwrap();
        assert_ne!(a.ipc, b.ipc);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a.dataset.y, b.dataset.y);
    }

    #[test]
    fn robust_faultfree_matches_strict_single_run() {
        let models = small_models();
        let devices = gpu_sim::training_devices();
        let strict = build_corpus(&models, &devices).unwrap();
        let cfg = RobustConfig {
            runs: 1,
            ..RobustConfig::default()
        };
        let (robust, report) = build_corpus_robust(&models, &devices, &cfg).unwrap();
        assert_eq!(strict.dataset.y, robust.dataset.y);
        assert_eq!(report.ok_count(), 6);
        assert_eq!(report.summary(), "6/6 cells ok, 0 degraded, 0 failed");
    }

    #[test]
    fn report_cells_are_model_major_ordered() {
        let cfg = RobustConfig::default();
        let (_, report) =
            build_corpus_robust(&small_models(), &gpu_sim::training_devices(), &cfg).unwrap();
        let order: Vec<(String, String)> = report
            .cells
            .iter()
            .map(|c| (c.model.clone(), c.device.clone()))
            .collect();
        assert_eq!(order[0].0, "alexnet");
        assert_eq!(order[1].0, "alexnet");
        assert_eq!(order[2].0, "mobilenet");
        assert_ne!(order[0].1, order[1].1);
    }
}
