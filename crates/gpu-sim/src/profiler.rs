//! An `nvprof`-like profiling facade over the simulator.
//!
//! [`profile_robust_budgeted`] "runs" a CNN on a device the way the
//! paper's naive approach does — full detailed simulation of every launch —
//! and reports the IPC metric of repeated runs, each with a small
//! deterministic run-to-run jitter emulating real profiler variance. The
//! jitter is seeded by (model, device, run) so experiments are
//! reproducible.

use crate::faults::{FaultInjector, FaultOutcome};
use crate::machine::{SimMode, SimReport, Simulator};
use crate::specs::DeviceSpec;
use ptx::kernel::LaunchPlan;
use ptx_analysis::{CountMode, ExecBudget, ExecError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Robustly profiled (model, device) cells entered.
static PROFILE_CELLS: obs::LazyCounter = obs::LazyCounter::new("profile.cells");
/// Cells where every run exhausted its retry budget (`NoValidRuns`).
static PROFILE_CELLS_FAILED: obs::LazyCounter = obs::LazyCounter::new("profile.cells.failed");
/// Fault-injector verdicts, by kind.
static PROFILE_FAULT_CLEAN: obs::LazyCounter = obs::LazyCounter::new("profile.fault.clean");
static PROFILE_FAULT_TRANSIENT: obs::LazyCounter = obs::LazyCounter::new("profile.fault.transient");
static PROFILE_FAULT_HANG: obs::LazyCounter = obs::LazyCounter::new("profile.fault.hang");
static PROFILE_FAULT_OUTLIER: obs::LazyCounter = obs::LazyCounter::new("profile.fault.outlier");
/// Runs dropped after exhausting the per-run retry budget.
static PROFILE_FAILED_RUNS: obs::LazyCounter = obs::LazyCounter::new("profile.failed_runs");
/// Measurements rejected by the median/MAD outlier filter.
static PROFILE_OUTLIERS_REJECTED: obs::LazyCounter =
    obs::LazyCounter::new("profile.outliers.rejected");
/// Wall time of whole robust-profiling cells, in microseconds.
static PROFILE_CELL_US: obs::LazyHistogram = obs::LazyHistogram::new("profile.cell_us");

/// Relative standard deviation of the measurement jitter.
const JITTER_REL: f64 = 0.015;

/// One profiling measurement, as `nvprof --metrics ipc` would report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileRecord {
    pub model_name: String,
    pub device_name: String,
    /// Measured IPC (jittered ground truth).
    pub ipc: f64,
    /// Noise-free IPC from the simulator.
    pub ipc_clean: f64,
    pub cycles: f64,
    pub latency_ms: f64,
    pub thread_instructions: u64,
    pub warp_instructions: u64,
}

/// FNV-1a over the seed material: deterministic per (model, device, run).
fn hash_seed(model: &str, device: &str, run: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in model.bytes().chain(device.bytes()).chain(run.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Standard-normal sample from two xorshift draws (Box-Muller).
fn gaussian(seed: u64) -> f64 {
    let mut s = seed | 1;
    let mut next = || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let u1 = next().max(1e-12);
    let u2 = next();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

// ---------------------------------------------------------------------------
// robust measurement protocol
// ---------------------------------------------------------------------------

/// Why a robust profiling attempt (or the whole cell) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileFault {
    /// A run died with an injected transient error (retryable).
    Transient {
        model: String,
        device: String,
        run: u32,
        attempt: u32,
    },
    /// A run hung and was killed by the watchdog (retryable).
    Hang {
        model: String,
        device: String,
        run: u32,
        attempt: u32,
    },
    /// The simulator/analysis itself failed (permanent: retrying a
    /// deterministic simulation cannot help).
    Sim(ExecError),
    /// Every requested run exhausted its retry budget.
    NoValidRuns {
        model: String,
        device: String,
        runs: u32,
    },
    /// Strict-mode abort: the cell produced an estimate but only by
    /// losing information (retries, killed hangs, rejected outliers, or
    /// dead runs), which fail-fast mode does not tolerate.
    Degraded {
        model: String,
        device: String,
        detail: String,
    },
    /// The cell reached no check point for longer than its silence limit
    /// (`--cell-timeout-ms`) and was cancelled (permanent: the same
    /// deterministic work would wedge again).
    Timeout {
        model: String,
        device: String,
        waited_ms: u64,
    },
    /// A permanent fault replayed from a build journal; only the original
    /// error text survives the round-trip.
    Replayed { error: String },
}

impl ProfileFault {
    /// Retryable failures: another attempt may succeed.
    pub fn transient(&self) -> bool {
        matches!(
            self,
            ProfileFault::Transient { .. } | ProfileFault::Hang { .. }
        )
    }

    /// Permanent failures: retrying is pointless.
    pub fn permanent(&self) -> bool {
        !self.transient()
    }
}

impl fmt::Display for ProfileFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileFault::Transient {
                model,
                device,
                run,
                attempt,
            } => write!(
                f,
                "transient failure profiling {model} on {device} (run {run}, attempt {attempt})"
            ),
            ProfileFault::Hang {
                model,
                device,
                run,
                attempt,
            } => write!(
                f,
                "hung run killed profiling {model} on {device} (run {run}, attempt {attempt})"
            ),
            ProfileFault::Sim(e) => write!(f, "simulation error: {e}"),
            ProfileFault::NoValidRuns {
                model,
                device,
                runs,
            } => write!(
                f,
                "no valid measurement in {runs} runs of {model} on {device}"
            ),
            ProfileFault::Degraded {
                model,
                device,
                detail,
            } => write!(
                f,
                "strict mode: measurement of {model} on {device} degraded ({detail})"
            ),
            ProfileFault::Timeout {
                model,
                device,
                waited_ms,
            } => write!(
                f,
                "cell {model} on {device} cancelled {waited_ms} ms after it started: its silence limit passed"
            ),
            ProfileFault::Replayed { error } => write!(f, "replayed from journal: {error}"),
        }
    }
}

impl std::error::Error for ProfileFault {}

impl From<ExecError> for ProfileFault {
    fn from(e: ExecError) -> Self {
        ProfileFault::Sim(e)
    }
}

/// Retry discipline for transient profiling failures. Backoff is
/// deterministic (exponential, capped), so a replayed campaign spends the
/// same wall time waiting and — more importantly — takes the same retry
/// decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per run, counting the first (so `1` disables retries).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base * 2^(k-1)` milliseconds...
    pub backoff_base_ms: u64,
    /// ...capped here.
    pub backoff_cap_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 5,
            backoff_cap_ms: 40,
        }
    }
}

impl RetryPolicy {
    /// Same retry decisions, zero waiting — for tests.
    pub fn no_backoff() -> Self {
        RetryPolicy {
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            ..Default::default()
        }
    }

    /// Deterministic backoff before retry attempt `attempt` (1-based).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        if self.backoff_base_ms == 0 {
            return 0;
        }
        self.backoff_base_ms
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(self.backoff_cap_ms)
    }
}

/// Scale factor turning a MAD into a consistent estimate of sigma for
/// Gaussian cores.
pub const MAD_SIGMA: f64 = 1.4826;

/// Rejection threshold in robust sigmas: |x - median| > K * MAD_SIGMA * MAD.
pub const MAD_K: f64 = 3.5;

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Median absolute deviation around a given center.
pub fn mad(xs: &[f64], center: f64) -> f64 {
    let dev: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&dev)
}

/// Result of the median/MAD outlier filter.
#[derive(Debug, Clone)]
pub struct RobustFilter {
    /// Median of the *retained* samples.
    pub estimate: f64,
    /// MAD of the full sample around its median.
    pub mad: f64,
    /// Per-sample retain decision, index-aligned with the input.
    pub keep: Vec<bool>,
}

/// Median/MAD outlier rejection: drop samples further than `k` robust
/// sigmas from the median. Degenerate cases (fewer than 4 samples, or a
/// zero MAD) retain everything — there is not enough spread information to
/// call anything an outlier.
pub fn robust_filter(xs: &[f64], k: f64) -> RobustFilter {
    let m = median(xs);
    let d = mad(xs, m);
    if xs.len() < 4 || d == 0.0 {
        return RobustFilter {
            estimate: m,
            mad: d,
            keep: vec![true; xs.len()],
        };
    }
    let cut = k * MAD_SIGMA * d;
    let keep: Vec<bool> = xs.iter().map(|x| (x - m).abs() <= cut).collect();
    let retained: Vec<f64> = xs
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(x, _)| *x)
        .collect();
    RobustFilter {
        estimate: median(&retained),
        mad: d,
        keep,
    }
}

/// Outcome of the robust profiling protocol for one (model, device) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustProfile {
    pub model_name: String,
    pub device_name: String,
    pub runs_requested: u32,
    /// Robust IPC estimate: median of the outlier-filtered runs.
    pub ipc: f64,
    /// Noise-free IPC from the simulator.
    pub ipc_clean: f64,
    /// MAD of the measured runs (spread diagnostic).
    pub ipc_mad: f64,
    pub latency_ms: f64,
    /// Retained (post-filter) measurements.
    pub records: Vec<ProfileRecord>,
    pub rejected_outliers: u32,
    pub transient_retries: u32,
    pub hangs: u32,
    /// Runs that exhausted their retry budget and produced no measurement.
    pub failed_runs: u32,
}

impl RobustProfile {
    /// Did this cell lose any information (retries, rejections, dead runs)?
    pub fn degraded(&self) -> bool {
        self.rejected_outliers > 0
            || self.transient_retries > 0
            || self.hangs > 0
            || self.failed_runs > 0
    }
}

/// Robust measurement protocol: take `runs` repeated measurements, retry
/// injected transient failures per [`RetryPolicy`], then reject outliers
/// with the median/MAD filter and report the median of the survivors.
///
/// The plan is counted once and simulated once (the hardware is
/// deterministic); per-run measurement noise and injected faults are
/// replayed on top of it. A fault-free single run therefore reports the
/// simulator's IPC times run 0's jitter.
///
/// The budget's deadline bounds the counting and the detailed simulation,
/// so a cell that stops reaching check points is cancelled instead of
/// hanging the whole corpus build.
///
/// Permanent failures ([`ProfileFault::Sim`]) propagate immediately; runs
/// whose retry budget is exhausted are dropped, and only if *every* run
/// dies does the whole cell fail with [`ProfileFault::NoValidRuns`].
pub fn profile_robust_budgeted(
    plan: &LaunchPlan,
    dev: &DeviceSpec,
    runs: u32,
    policy: &RetryPolicy,
    injector: &FaultInjector,
    budget: &ExecBudget,
) -> Result<RobustProfile, ProfileFault> {
    assert!(runs >= 1);
    assert!(policy.max_attempts >= 1);
    PROFILE_CELLS.inc();
    let _cell_span = PROFILE_CELL_US.span();
    let counts = ptx_analysis::count_plan_mode_budgeted(plan, true, budget, CountMode::Auto)?;
    let report: SimReport =
        Simulator::new(dev.clone(), SimMode::Detailed).simulate_plan(plan, &counts, budget)?;

    let mut records: Vec<ProfileRecord> = Vec::with_capacity(runs as usize);
    let mut transient_retries = 0u32;
    let mut hangs = 0u32;
    let mut failed_runs = 0u32;

    for run in 0..runs {
        let mut measured = false;
        for attempt in 0..policy.max_attempts {
            let outcome = injector.outcome(&plan.model_name, &dev.name, run, attempt);
            match outcome {
                FaultOutcome::Clean => PROFILE_FAULT_CLEAN.inc(),
                FaultOutcome::Transient => PROFILE_FAULT_TRANSIENT.inc(),
                FaultOutcome::Hang => PROFILE_FAULT_HANG.inc(),
                FaultOutcome::Outlier(_) => PROFILE_FAULT_OUTLIER.inc(),
            }
            let scale = match outcome {
                FaultOutcome::Transient | FaultOutcome::Hang => {
                    if matches!(outcome, FaultOutcome::Hang) {
                        hangs += 1;
                    } else {
                        transient_retries += 1;
                    }
                    if attempt + 1 < policy.max_attempts {
                        let wait = policy.backoff_ms(attempt + 1);
                        if wait > 0 {
                            std::thread::sleep(std::time::Duration::from_millis(wait));
                        }
                    }
                    continue;
                }
                FaultOutcome::Clean => 1.0,
                FaultOutcome::Outlier(factor) => factor,
            };
            let seed = hash_seed(&plan.model_name, &dev.name, run);
            let noise = 1.0 + JITTER_REL * gaussian(seed);
            records.push(ProfileRecord {
                model_name: report.model_name.clone(),
                device_name: report.device_name.clone(),
                ipc: report.ipc * noise * scale,
                ipc_clean: report.ipc,
                cycles: report.cycles,
                latency_ms: report.latency_ms,
                thread_instructions: report.thread_instructions,
                warp_instructions: report.warp_instructions,
            });
            measured = true;
            break;
        }
        if !measured {
            failed_runs += 1;
        }
    }

    PROFILE_FAILED_RUNS.add(failed_runs as u64);
    if records.is_empty() {
        PROFILE_CELLS_FAILED.inc();
        return Err(ProfileFault::NoValidRuns {
            model: plan.model_name.clone(),
            device: dev.name.clone(),
            runs,
        });
    }

    let ipcs: Vec<f64> = records.iter().map(|r| r.ipc).collect();
    let filter = robust_filter(&ipcs, MAD_K);
    let rejected_outliers = filter.keep.iter().filter(|&&k| !k).count() as u32;
    PROFILE_OUTLIERS_REJECTED.add(rejected_outliers as u64);
    let retained: Vec<ProfileRecord> = records
        .into_iter()
        .zip(&filter.keep)
        .filter(|(_, &k)| k)
        .map(|(r, _)| r)
        .collect();

    Ok(RobustProfile {
        model_name: plan.model_name.clone(),
        device_name: dev.name.clone(),
        runs_requested: runs,
        ipc: filter.estimate,
        ipc_clean: report.ipc,
        ipc_mad: filter.mad,
        latency_ms: report.latency_ms,
        records: retained,
        rejected_outliers,
        transient_retries,
        hangs,
        failed_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultProfile;
    use crate::specs::gtx_1080_ti;

    fn plan() -> LaunchPlan {
        let model = cnn_ir::zoo::build("alexnet").unwrap();
        ptx_codegen::lower(&model, "sm_61").unwrap()
    }

    /// Profile `p` on the 1080 Ti with no retry backoff and no budget.
    fn profile_1080ti(
        p: &LaunchPlan,
        runs: u32,
        policy: &RetryPolicy,
        injector: &FaultInjector,
    ) -> Result<RobustProfile, ProfileFault> {
        let budget = ExecBudget::default();
        profile_robust_budgeted(p, &gtx_1080_ti(), runs, policy, injector, &budget)
    }

    fn fault_free(p: &LaunchPlan, runs: u32) -> RobustProfile {
        let injector = FaultInjector::new(FaultProfile::none());
        profile_1080ti(p, runs, &RetryPolicy::no_backoff(), &injector).unwrap()
    }

    #[test]
    fn jitter_is_small_and_deterministic() {
        let p = plan();
        let a = fault_free(&p, 2);
        let b = fault_free(&p, 2);
        let (a0, a1) = (&a.records[0], &a.records[1]);
        assert_eq!(a0.ipc, b.records[0].ipc, "same run index must reproduce");
        assert_ne!(a0.ipc, a1.ipc, "different runs must differ");
        let rel = (a0.ipc - a0.ipc_clean).abs() / a0.ipc_clean;
        assert!(rel < 0.10, "jitter {rel} too large");
    }

    #[test]
    fn robust_matches_single_run_without_faults() {
        let p = plan();
        let robust = fault_free(&p, 1);
        let counts = ptx_analysis::count_plan(&p, true).unwrap();
        let budget = ExecBudget::default();
        let sim = Simulator::new(gtx_1080_ti(), SimMode::Detailed)
            .simulate_plan(&p, &counts, &budget)
            .unwrap();
        let jitter = 1.0 + JITTER_REL * gaussian(hash_seed(&p.model_name, "GTX 1080 Ti", 0));
        assert_eq!(robust.ipc, sim.ipc * jitter, "fault-free run 0 is exact");
        assert!(!robust.degraded());
    }

    #[test]
    fn robust_survives_harsh_faults_near_clean_ipc() {
        let p = plan();
        let injector = FaultInjector::new(FaultProfile::harsh().with_seed(11));
        let r = profile_1080ti(&p, 9, &RetryPolicy::no_backoff(), &injector).unwrap();
        let rel = (r.ipc - r.ipc_clean).abs() / r.ipc_clean;
        assert!(rel < 0.02, "robust estimate off by {rel}");
        assert!(r.records.len() as u32 + r.rejected_outliers + r.failed_runs == 9);
    }

    #[test]
    fn robust_is_deterministic_under_faults() {
        let p = plan();
        let injector = FaultInjector::new(FaultProfile::harsh().with_seed(5));
        let a = profile_1080ti(&p, 7, &RetryPolicy::no_backoff(), &injector).unwrap();
        let b = profile_1080ti(&p, 7, &RetryPolicy::no_backoff(), &injector).unwrap();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.transient_retries, b.transient_retries);
        assert_eq!(a.rejected_outliers, b.rejected_outliers);
        assert_eq!(a.failed_runs, b.failed_runs);
    }

    #[test]
    fn all_runs_failing_reports_no_valid_runs() {
        let p = plan();
        let always_fail = FaultInjector::new(FaultProfile {
            transient_rate: 1.0,
            ..FaultProfile::none()
        });
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::no_backoff()
        };
        let err = profile_1080ti(&p, 3, &policy, &always_fail).unwrap_err();
        assert!(matches!(err, ProfileFault::NoValidRuns { runs: 3, .. }));
        assert!(err.permanent(), "giving up after retries is terminal");
    }

    #[test]
    fn fault_classification_drives_retries() {
        assert!(ProfileFault::Transient {
            model: "m".into(),
            device: "d".into(),
            run: 0,
            attempt: 0
        }
        .transient());
        assert!(ProfileFault::Hang {
            model: "m".into(),
            device: "d".into(),
            run: 0,
            attempt: 0
        }
        .transient());
        assert!(ProfileFault::Sim(ExecError::BadLabel { pc: 3 }).permanent());
    }

    #[test]
    fn mad_filter_rejects_planted_outliers() {
        let mut xs: Vec<f64> = (0..20).map(|i| 1.0 + 0.001 * i as f64).collect();
        xs.push(5.0);
        xs.push(0.01);
        let f = robust_filter(&xs, MAD_K);
        assert!(!f.keep[20] && !f.keep[21], "planted outliers must go");
        assert!(f.keep[..20].iter().all(|&k| k), "inliers must stay");
        assert!((f.estimate - median(&xs[..20])).abs() < 1e-9);
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1), 5);
        assert_eq!(p.backoff_ms(2), 10);
        assert_eq!(p.backoff_ms(10), 40, "capped");
        assert_eq!(RetryPolicy::no_backoff().backoff_ms(3), 0);
    }

    #[test]
    fn replicates_center_on_clean_ipc() {
        let r = fault_free(&plan(), 16);
        assert_eq!(r.records.len(), 16);
        let clean = r.ipc_clean;
        let mean = r.records.iter().map(|x| x.ipc).sum::<f64>() / 16.0;
        let var = r
            .records
            .iter()
            .map(|x| (x.ipc - mean).powi(2))
            .sum::<f64>()
            / 16.0;
        // mean of 16 jittered replicates within ~2% of the clean value
        assert!(
            ((mean - clean) / clean).abs() < 0.02,
            "mean {mean} vs clean {clean}"
        );
        assert!(var > 0.0 && var.sqrt() / clean < 0.05);
    }
}
