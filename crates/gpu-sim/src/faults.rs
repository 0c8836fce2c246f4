//! Deterministic, seeded fault injection for the profiling pipeline.
//!
//! Real profiling campaigns fail in three characteristic ways: a run dies
//! with a transient error (driver hiccup, ECC retirement, preempted node),
//! a simulation hangs and must be killed, or a measurement lands in the
//! heavy right tail (another tenant, clock throttling). This module
//! emulates all three, seeded per `(model, device, run, attempt)` so an
//! identical fault profile and seed replays the exact same fault sequence
//! — the property the corpus-report determinism tests rely on.
//!
//! Nothing here sleeps or spins: a "hang" is reported as an outcome and
//! the measurement layer translates it into a retryable failure, the same
//! way a watchdog that kills a wedged `nvprof` would.

use serde::{Deserialize, Serialize};

/// What the fault model decides for one profiling attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultOutcome {
    /// The attempt proceeds and the measurement is usable as-is.
    Clean,
    /// The attempt dies with a transient, retryable failure.
    Transient,
    /// The attempt wedges; a watchdog kills it (retryable).
    Hang,
    /// The attempt completes but the measured IPC is scaled by this
    /// heavy-tailed factor (always `< 1`: contention slows the run down).
    Outlier(f64),
}

/// Fault rates for a profiling campaign. All rates are probabilities per
/// attempt in `[0, 1]`; `seed` decorrelates campaigns that share rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability an attempt fails with a transient error.
    pub transient_rate: f64,
    /// Probability an attempt hangs and is killed by the watchdog.
    pub hang_rate: f64,
    /// Probability a completed measurement is a heavy-tailed outlier.
    pub outlier_rate: f64,
    /// Scale of the outlier tail: the IPC of an outlier run is divided by
    /// `1 + outlier_scale * pareto_draw`, so larger means wilder outliers.
    pub outlier_scale: f64,
    /// Campaign seed mixed into every per-attempt decision.
    pub seed: u64,
}

impl FaultProfile {
    /// No faults at all; [`FaultInjector`] short-circuits to `Clean`.
    pub fn none() -> Self {
        FaultProfile {
            transient_rate: 0.0,
            hang_rate: 0.0,
            outlier_rate: 0.0,
            outlier_scale: 0.0,
            seed: 0,
        }
    }

    /// A well-behaved cluster: rare transients, occasional mild outliers.
    pub fn light() -> Self {
        FaultProfile {
            transient_rate: 0.02,
            hang_rate: 0.005,
            outlier_rate: 0.02,
            outlier_scale: 1.0,
            seed: 0,
        }
    }

    /// A contended, flaky fleet: the stress level of the acceptance tests.
    pub fn harsh() -> Self {
        FaultProfile {
            transient_rate: 0.20,
            hang_rate: 0.03,
            outlier_rate: 0.05,
            outlier_scale: 3.0,
            seed: 0,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn is_none(&self) -> bool {
        self.transient_rate == 0.0 && self.hang_rate == 0.0 && self.outlier_rate == 0.0
    }

    /// Parse a CLI spec: a preset name (`none`, `light`, `harsh`) or a
    /// comma-separated key=value list over the field names, e.g.
    /// `transient=0.2,outlier=0.05,seed=7`. Unlisted fields keep the
    /// `none()` defaults (`scale` defaults to 1 when any outliers are on).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "none" => return Ok(Self::none()),
            "light" => return Ok(Self::light()),
            "harsh" => return Ok(Self::harsh()),
            _ => {}
        }
        let mut p = Self::none();
        let mut scale_set = false;
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec element `{part}` (want key=value)"))?;
            let fval = || {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("bad number `{value}` for `{key}`"))
            };
            match key.trim() {
                "transient" => p.transient_rate = fval()?,
                "hang" => p.hang_rate = fval()?,
                "outlier" => p.outlier_rate = fval()?,
                "scale" => {
                    p.outlier_scale = fval()?;
                    scale_set = true;
                }
                "seed" => {
                    p.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?
                }
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        for (name, rate) in [
            ("transient", p.transient_rate),
            ("hang", p.hang_rate),
            ("outlier", p.outlier_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} rate {rate} outside [0, 1]"));
            }
        }
        if p.outlier_rate > 0.0 && !scale_set {
            p.outlier_scale = 1.0;
        }
        Ok(p)
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// Draws fault outcomes deterministically from a [`FaultProfile`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
}

/// splitmix64 finalizer: turns a structured key hash into uniform bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a over the attempt identity plus the campaign seed.
fn attempt_hash(seed: u64, model: &str, device: &str, run: u32, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in model
        .bytes()
        .chain(device.bytes())
        .chain(run.to_le_bytes())
        .chain(attempt.to_le_bytes())
        .chain(seed.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultInjector {
    pub fn new(profile: FaultProfile) -> Self {
        FaultInjector { profile }
    }

    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide the fate of one profiling attempt. Pure in its arguments:
    /// the same `(profile, model, device, run, attempt)` always yields the
    /// same outcome, and the decision varies with `attempt` so retries of
    /// a transiently-failed run can succeed.
    pub fn outcome(&self, model: &str, device: &str, run: u32, attempt: u32) -> FaultOutcome {
        let p = &self.profile;
        if p.is_none() {
            return FaultOutcome::Clean;
        }
        let h = attempt_hash(p.seed, model, device, run, attempt);
        let u_kind = unit(mix(h));
        if u_kind < p.transient_rate {
            return FaultOutcome::Transient;
        }
        if u_kind < p.transient_rate + p.hang_rate {
            return FaultOutcome::Hang;
        }
        if u_kind < p.transient_rate + p.hang_rate + p.outlier_rate {
            // Pareto(alpha = 1.5) tail: finite mean, infinite variance —
            // exactly the regime where a mean is ruined but a median holds.
            let u_tail = unit(mix(h ^ 0xA5A5_A5A5_A5A5_A5A5)).max(1e-12);
            let pareto = u_tail.powf(-1.0 / 1.5) - 1.0;
            let factor = 1.0 / (1.0 + p.outlier_scale * pareto);
            return FaultOutcome::Outlier(factor);
        }
        FaultOutcome::Clean
    }
}

/// What the chaos model injects into one estimation-tier invocation.
///
/// Unlike [`FaultOutcome`], which the measurement layer *reports*, a tier
/// fault is *acted out* by the tier: a `Hang` really waits until its
/// budget's deadline passes, a `Panic` really unwinds, and a `Slow` really
/// sleeps before doing the work. That makes the chaos suite
/// exercise the engine's deadline and circuit-breaker machinery for real
/// rather than against simulated flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierFaultKind {
    /// The tier runs normally.
    None,
    /// The tier wedges and never produces a result on its own; only its
    /// budget's deadline (the end of the tier's time slice) gets it off
    /// the CPU.
    Hang,
    /// The tier panics mid-flight; the engine must contain the unwind.
    Panic,
    /// The tier sleeps for [`ChaosProfile::slow_ms`] before doing the real
    /// work — long enough to blow a tight per-tier slice, short enough to
    /// succeed under a generous one.
    Slow,
}

/// Chaos rates for the resilient estimation engine. All rates are
/// probabilities per `(model, device, tier)` invocation in `[0, 1]`,
/// drawn from disjoint slices of one uniform variate (so they must sum to
/// at most 1); `seed` decorrelates campaigns that share rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosProfile {
    /// Probability a tier invocation hangs until cancelled.
    pub hang_rate: f64,
    /// Probability a tier invocation panics.
    pub panic_rate: f64,
    /// Probability a tier invocation is delayed by `slow_ms` first.
    pub slow_rate: f64,
    /// Injected delay for `Slow` faults, in milliseconds.
    pub slow_ms: u64,
    /// Campaign seed mixed into every per-invocation decision.
    pub seed: u64,
}

impl ChaosProfile {
    /// No chaos; [`ChaosInjector`] short-circuits to `None`.
    pub fn none() -> Self {
        ChaosProfile {
            hang_rate: 0.0,
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed: 0,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn is_none(&self) -> bool {
        self.hang_rate == 0.0 && self.panic_rate == 0.0 && self.slow_rate == 0.0
    }

    /// Parse a CLI spec: `none`, or a comma-separated key=value list, e.g.
    /// `hang=0.3,panic=0.2,slow=0.2,slow_ms=50,seed=7`. Unlisted fields
    /// keep the `none()` defaults (`slow_ms` defaults to 25 when any slow
    /// faults are on).
    pub fn parse(spec: &str) -> Result<Self, String> {
        if spec == "none" {
            return Ok(Self::none());
        }
        let mut p = Self::none();
        let mut slow_ms_set = false;
        for part in spec.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad chaos spec element `{part}` (want key=value)"))?;
            let fval = || {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("bad number `{value}` for `{key}`"))
            };
            let uval = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad integer `{value}` for `{key}`"))
            };
            match key.trim() {
                "hang" => p.hang_rate = fval()?,
                "panic" => p.panic_rate = fval()?,
                "slow" => p.slow_rate = fval()?,
                "slow_ms" => {
                    p.slow_ms = uval()?;
                    slow_ms_set = true;
                }
                "seed" => p.seed = uval()?,
                other => return Err(format!("unknown chaos spec key `{other}`")),
            }
        }
        for (name, rate) in [
            ("hang", p.hang_rate),
            ("panic", p.panic_rate),
            ("slow", p.slow_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} rate {rate} outside [0, 1]"));
            }
        }
        if p.hang_rate + p.panic_rate + p.slow_rate > 1.0 {
            return Err(format!(
                "chaos rates sum to {} > 1",
                p.hang_rate + p.panic_rate + p.slow_rate
            ));
        }
        if p.slow_rate > 0.0 && !slow_ms_set {
            p.slow_ms = 25;
        }
        Ok(p)
    }
}

impl Default for ChaosProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// Draws tier faults deterministically from a [`ChaosProfile`].
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    profile: ChaosProfile,
}

impl ChaosInjector {
    pub fn new(profile: ChaosProfile) -> Self {
        ChaosInjector { profile }
    }

    pub fn profile(&self) -> &ChaosProfile {
        &self.profile
    }

    /// Decide the fate of one tier invocation. Pure in its arguments: the
    /// same `(profile, model, device, tier)` always yields the same fault,
    /// so a fixed-seed chaos run replays byte-for-byte, and the fault
    /// varies across tiers so one request can hit a hang in the detailed
    /// tier and still find a clean analytical tier beneath it.
    pub fn tier_fault(&self, model: &str, device: &str, tier: &str) -> TierFaultKind {
        let p = &self.profile;
        if p.is_none() {
            return TierFaultKind::None;
        }
        // reuse the attempt hash with the tier name folded into the model
        // slot and a fixed discriminator in run/attempt so chaos draws are
        // decorrelated from FaultInjector draws that share a seed
        let key = format!("{model}\u{1f}{tier}");
        let h = attempt_hash(p.seed ^ 0xC0A5_1DE5_C0A5_1DE5, &key, device, u32::MAX, 0);
        let u = unit(mix(h));
        if u < p.hang_rate {
            return TierFaultKind::Hang;
        }
        if u < p.hang_rate + p.panic_rate {
            return TierFaultKind::Panic;
        }
        if u < p.hang_rate + p.panic_rate + p.slow_rate {
            return TierFaultKind::Slow;
        }
        TierFaultKind::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_is_always_clean() {
        let inj = FaultInjector::new(FaultProfile::none());
        for run in 0..100 {
            assert_eq!(inj.outcome("m", "d", run, 0), FaultOutcome::Clean);
        }
    }

    #[test]
    fn outcomes_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultProfile::harsh().with_seed(1));
        let b = FaultInjector::new(FaultProfile::harsh().with_seed(1));
        let c = FaultInjector::new(FaultProfile::harsh().with_seed(2));
        let mut differs = false;
        for run in 0..200 {
            assert_eq!(a.outcome("m", "d", run, 0), b.outcome("m", "d", run, 0));
            if a.outcome("m", "d", run, 0) != c.outcome("m", "d", run, 0) {
                differs = true;
            }
        }
        assert!(differs, "different seeds should change the fault stream");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let inj = FaultInjector::new(FaultProfile::harsh().with_seed(9));
        let n = 4000;
        let mut transients = 0;
        let mut outliers = 0;
        for run in 0..n {
            match inj.outcome("model", "device", run, 0) {
                FaultOutcome::Transient => transients += 1,
                FaultOutcome::Outlier(f) => {
                    assert!(f < 1.0 && f > 0.0, "outliers slow runs down: {f}");
                    outliers += 1;
                }
                _ => {}
            }
        }
        let t = transients as f64 / n as f64;
        let o = outliers as f64 / n as f64;
        assert!((t - 0.20).abs() < 0.03, "transient rate {t}");
        assert!((o - 0.05).abs() < 0.02, "outlier rate {o}");
    }

    #[test]
    fn retries_can_succeed_after_transient() {
        let inj = FaultInjector::new(FaultProfile::harsh().with_seed(3));
        // for every transient first attempt, some later attempt is clean
        for run in 0..200 {
            if inj.outcome("m", "d", run, 0) == FaultOutcome::Transient {
                let recovered =
                    (1..10).any(|a| matches!(inj.outcome("m", "d", run, a), FaultOutcome::Clean));
                assert!(recovered, "run {run} never recovers within 10 attempts");
            }
        }
    }

    #[test]
    fn chaos_faults_are_deterministic_and_tier_sensitive() {
        let p = ChaosProfile {
            hang_rate: 0.3,
            panic_rate: 0.2,
            slow_rate: 0.2,
            slow_ms: 10,
            seed: 11,
        };
        let a = ChaosInjector::new(p.clone());
        let b = ChaosInjector::new(p);
        let mut tier_differs = false;
        for m in ["alexnet", "vgg16", "mobilenet", "resnet50"] {
            for d in ["GTX 1080 Ti", "V100S"] {
                assert_eq!(
                    a.tier_fault(m, d, "detailed"),
                    b.tier_fault(m, d, "detailed")
                );
                if a.tier_fault(m, d, "detailed") != a.tier_fault(m, d, "analytical") {
                    tier_differs = true;
                }
            }
        }
        assert!(tier_differs, "tier name should decorrelate chaos draws");
    }

    #[test]
    fn chaos_rates_are_roughly_respected() {
        let inj = ChaosInjector::new(ChaosProfile {
            hang_rate: 0.25,
            panic_rate: 0.25,
            slow_rate: 0.25,
            slow_ms: 1,
            seed: 5,
        });
        let n = 3000;
        let (mut hangs, mut panics, mut slows) = (0, 0, 0);
        for i in 0..n {
            match inj.tier_fault(&format!("model{i}"), "dev", "tier") {
                TierFaultKind::Hang => hangs += 1,
                TierFaultKind::Panic => panics += 1,
                TierFaultKind::Slow => slows += 1,
                TierFaultKind::None => {}
            }
        }
        for (name, count) in [("hang", hangs), ("panic", panics), ("slow", slows)] {
            let rate = count as f64 / n as f64;
            assert!((rate - 0.25).abs() < 0.04, "{name} rate {rate}");
        }
    }

    #[test]
    fn chaos_parse_specs() {
        assert!(ChaosProfile::parse("none").unwrap().is_none());
        let p = ChaosProfile::parse("hang=0.3,slow=0.1,seed=7").unwrap();
        assert_eq!(p.hang_rate, 0.3);
        assert_eq!(p.slow_rate, 0.1);
        assert_eq!(p.slow_ms, 25, "slow_ms defaults on when slow set");
        assert_eq!(p.seed, 7);
        assert!(ChaosProfile::parse("hang=0.6,panic=0.6").is_err());
        assert!(ChaosProfile::parse("bogus=1").is_err());
        assert!(ChaosProfile::parse("garbage").is_err());
    }

    #[test]
    fn parse_presets_and_specs() {
        assert_eq!(FaultProfile::parse("none").unwrap(), FaultProfile::none());
        assert_eq!(FaultProfile::parse("harsh").unwrap(), FaultProfile::harsh());
        let p = FaultProfile::parse("transient=0.2,outlier=0.05,seed=7").unwrap();
        assert_eq!(p.transient_rate, 0.2);
        assert_eq!(p.outlier_rate, 0.05);
        assert_eq!(p.outlier_scale, 1.0, "scale defaults on when outliers set");
        assert_eq!(p.seed, 7);
        assert!(FaultProfile::parse("transient=2.0").is_err());
        assert!(FaultProfile::parse("bogus=1").is_err());
        assert!(FaultProfile::parse("garbage").is_err());
    }
}
