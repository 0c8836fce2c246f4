//! Resilience primitives for the tiered estimation engine: wall-clock
//! [`Deadline`]s that bound a whole request, and per-tier [`CircuitBreaker`]s
//! that stop sending work to a tier that keeps failing.
//!
//! The breaker's clock is **logical**, not wall time: it advances one tick
//! per estimation request. That makes the whole state machine a pure
//! function of the request sequence, so a fixed-seed chaos run replays the
//! exact same open/half-open/closed trajectory byte for byte — the
//! determinism guarantee the chaos suite asserts. Wall time only enters
//! through [`Deadline`], which bounds *how long* a request may run, never
//! *which* tier it is routed to.

use std::time::{Duration, Instant};

/// A wall-clock budget for one estimation request. Created when the
/// request is admitted; every tier the request visits gets a slice of
/// whatever remains.
#[derive(Debug, Clone)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Self {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_millis(ms),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Time left before expiry; zero once expired (never negative).
    pub fn remaining(&self) -> Duration {
        self.budget.saturating_sub(self.start.elapsed())
    }

    pub fn expired(&self) -> bool {
        self.remaining() == Duration::ZERO
    }

    /// The time slice a tier may use: the remainder split evenly over the
    /// tiers still eligible to run, so an early tier cannot starve the
    /// fallbacks behind it. With one tier left, it gets everything.
    pub fn tier_slice(&self, tiers_remaining: usize) -> Duration {
        self.remaining() / tiers_remaining.max(1) as u32
    }
}

/// Circuit breaker states, the classic three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all requests admitted, outcomes recorded in the window.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Probing: exactly [`BreakerConfig::probe_quota`] requests are
    /// admitted; all must succeed to close, any failure reopens.
    HalfOpen,
}

/// Tuning knobs for a [`CircuitBreaker`]. Ticks are logical request
/// sequence numbers (see module docs), not wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Rolling window of recent outcomes the failure rate is computed over.
    pub window: usize,
    /// Open when `failures / window_len >= failure_threshold`.
    pub failure_threshold: f64,
    /// Never open before this many outcomes are in the window (a single
    /// early failure is not a trend).
    pub min_samples: usize,
    /// Ticks to stay open before probing again.
    pub cooldown_ticks: u64,
    /// Probes admitted in half-open before deciding.
    pub probe_quota: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown_ticks: 16,
            probe_quota: 2,
        }
    }
}

/// Per-tier circuit breaker over logical ticks.
///
/// Protocol per request: call [`admit`](Self::admit) with the current
/// tick; if it returns `true`, run the tier and [`record`](Self::record)
/// the outcome at the same tick. The engine processes requests
/// sequentially, so admits and records interleave deterministically.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    /// Recent outcomes, `true` = success; bounded by `config.window`.
    window: std::collections::VecDeque<bool>,
    /// Tick at which the breaker last opened.
    opened_at: u64,
    /// Probes admitted in the current half-open episode.
    probes_admitted: u32,
    /// Probes resolved (recorded) in the current half-open episode.
    probes_resolved: u32,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            window: std::collections::VecDeque::new(),
            opened_at: 0,
            probes_admitted: 0,
            probes_resolved: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// May a request enter this tier at `tick`? An open breaker whose
    /// cooldown has elapsed transitions to half-open here, which is why a
    /// breaker can never be stuck open: admission at any
    /// `tick >= opened_at + cooldown_ticks` starts a probe episode.
    pub fn admit(&mut self, tick: u64) -> bool {
        if self.state == BreakerState::Open
            && tick >= self.opened_at.saturating_add(self.config.cooldown_ticks)
        {
            self.state = BreakerState::HalfOpen;
            self.probes_admitted = 0;
            self.probes_resolved = 0;
        }
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes_admitted < self.config.probe_quota {
                    self.probes_admitted += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record the outcome of an admitted request.
    pub fn record(&mut self, tick: u64, success: bool) {
        match self.state {
            BreakerState::Closed => {
                self.window.push_back(success);
                while self.window.len() > self.config.window {
                    self.window.pop_front();
                }
                if self.window.len() >= self.config.min_samples {
                    let failures = self.window.iter().filter(|s| !**s).count();
                    if failures as f64 / self.window.len() as f64 >= self.config.failure_threshold {
                        self.open_at(tick);
                    }
                }
            }
            BreakerState::HalfOpen => {
                self.probes_resolved += 1;
                if !success {
                    self.open_at(tick);
                } else if self.probes_resolved >= self.config.probe_quota {
                    // full probe quota succeeded: healthy again, with a
                    // clean slate so stale failures don't re-trip it
                    self.state = BreakerState::Closed;
                    self.window.clear();
                }
            }
            // a straggler outcome from before the breaker opened; the
            // episode that produced it is already summarized by the open
            BreakerState::Open => {}
        }
    }

    fn open_at(&mut self, tick: u64) {
        self.state = BreakerState::Open;
        self.opened_at = tick;
        self.window.clear();
        self.probes_admitted = 0;
        self.probes_resolved = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driven_open(cfg: BreakerConfig) -> (CircuitBreaker, u64) {
        let mut b = CircuitBreaker::new(cfg);
        let mut tick = 0;
        while b.state() != BreakerState::Open {
            tick += 1;
            assert!(b.admit(tick), "closed breaker must admit");
            b.record(tick, false);
            assert!(tick < 100, "breaker never opened");
        }
        (b, tick)
    }

    #[test]
    fn opens_after_failure_rate_crossed() {
        let cfg = BreakerConfig::default();
        let min = cfg.min_samples as u64;
        let (_, opened_tick) = driven_open(cfg);
        assert_eq!(opened_tick, min, "opens exactly at min_samples failures");
    }

    #[test]
    fn open_rejects_until_cooldown() {
        let cfg = BreakerConfig::default();
        let cooldown = cfg.cooldown_ticks;
        let (mut b, t0) = driven_open(cfg);
        for t in t0 + 1..t0 + cooldown {
            assert!(!b.admit(t), "tick {t} admitted during cooldown");
        }
        assert!(b.admit(t0 + cooldown), "cooldown elapsed, probe refused");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_failure_reopens_success_closes() {
        let cfg = BreakerConfig::default();
        let cooldown = cfg.cooldown_ticks;
        let quota = cfg.probe_quota;
        let (mut b, t0) = driven_open(cfg);
        // failed probe -> reopen with fresh cooldown
        let t1 = t0 + cooldown;
        assert!(b.admit(t1));
        b.record(t1, false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(t1 + 1), "cooldown must restart after failed probe");
        // quota successful probes -> closed
        let t2 = t1 + cooldown;
        for i in 0..quota as u64 {
            assert!(b.admit(t2 + i));
            b.record(t2 + i, true);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(t2 + quota as u64));
    }

    #[test]
    fn mixed_traffic_below_threshold_stays_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        // alternating success/failure = 50%... threshold is >= 0.5, so use
        // 1 failure in 3 to stay clearly below
        for t in 1..100u64 {
            assert!(b.admit(t));
            b.record(t, t % 3 != 0);
            assert_eq!(b.state(), BreakerState::Closed, "tripped at tick {t}");
        }
    }
}
