//! Graceful-drain state machine for the estimation server.
//!
//! ```text
//!            SIGTERM / SIGINT / {"op":"drain"} / stdin EOF
//! Running ────────────────────────────────────────────────▶ Draining
//!    │  admit + serve                 stop admitting; finish queued +   │
//!    │                                in-flight work within the drain   │
//!    │                                deadline                          │
//!    └──────────────◀ (never re-enters Running) ◀──────────────────────┘
//!                                                                  │
//!                queues empty, workers parked  ──or──  drain deadline hit
//!                (leftover waiters flushed with a typed outcome)
//!                                                                  ▼
//!                                                               Stopped
//! ```
//!
//! The controller is a cheap shared handle: the accept loop polls it to
//! stop admitting connections, sessions poll it to reject new requests
//! with a typed `draining` error, and the scheduler uses it to decide
//! when workers may park. Transitions are one-way — a draining server
//! never resumes — which keeps every observer's check a single relaxed
//! atomic load.
//!
//! SIGTERM/SIGINT are wired through a process-global flag
//! ([`install_signal_drain`] / [`signal_drain_requested`]): the handler
//! only stores an `AtomicBool` (async-signal-safe); the serve loop polls
//! the flag and performs the actual transition outside signal context.
//! SIGPIPE stays ignored while serving, so a session whose reader is gone
//! sees a write error and drains; every other command restores its
//! default action ([`default_sigpipe`]).

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

static DRAINS_REQUESTED: obs::LazyCounter = obs::LazyCounter::new("server.drain.requests");

/// Lifecycle phase of the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainState {
    /// Admitting and serving.
    Running,
    /// Not admitting; finishing in-flight work.
    Draining,
    /// Fully stopped; every admitted request has received its outcome.
    Stopped,
}

impl DrainState {
    pub fn name(self) -> &'static str {
        match self {
            DrainState::Running => "running",
            DrainState::Draining => "draining",
            DrainState::Stopped => "stopped",
        }
    }
}

/// Shared drain handle. Cloning shares state.
#[derive(Debug, Clone, Default)]
pub struct DrainController {
    state: Arc<AtomicU8>,
}

impl DrainController {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn state(&self) -> DrainState {
        match self.state.load(Ordering::Relaxed) {
            0 => DrainState::Running,
            1 => DrainState::Draining,
            _ => DrainState::Stopped,
        }
    }

    /// Is admission closed (draining or stopped)?
    pub fn draining(&self) -> bool {
        self.state.load(Ordering::Relaxed) != 0
    }

    /// Enter `Draining`. Idempotent; returns `true` on the first call
    /// (the one that actually transitioned).
    pub fn request_drain(&self) -> bool {
        let first = self
            .state
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if first {
            DRAINS_REQUESTED.inc();
        }
        first
    }

    /// Enter `Stopped` (only meaningful after `Draining`).
    pub fn mark_stopped(&self) {
        self.state.store(2, Ordering::SeqCst);
    }
}

/// Set by the signal handler, polled by the serve loop.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Has a drain-requesting signal arrived since process start?
pub fn signal_drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn drain_signal_handler(_signum: i32) {
    // async-signal-safe: a single atomic store, nothing else
    SIGNAL_DRAIN.store(true, Ordering::SeqCst);
}

// libc's `signal` (always linked on unix), so the workspace stays free of
// external crates; the handler is a `sighandler_t`, where 0 is `SIG_DFL`
#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install SIGTERM/SIGINT handlers that arm [`signal_drain_requested`].
/// No-op on non-unix targets.
pub fn install_signal_drain() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = drain_signal_handler as extern "C" fn(i32) as usize;
        // SAFETY: both are valid signal numbers, and the handler is an
        // `extern "C" fn(i32)` that only stores an atomic
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Give SIGPIPE back its default action, which the Rust runtime ignores:
/// a command whose stdout reader is gone (`cnnperf list | head -1`) then
/// ends by the signal instead of panicking on its next write. No-op on
/// non-unix targets.
pub fn default_sigpipe() {
    #[cfg(unix)]
    {
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: a valid signal number and `SIG_DFL`; no code of ours
        // runs on delivery
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_are_one_way_and_idempotent() {
        let d = DrainController::new();
        assert_eq!(d.state(), DrainState::Running);
        assert!(!d.draining());
        assert!(d.request_drain(), "first request transitions");
        assert!(!d.request_drain(), "second request is a no-op");
        assert_eq!(d.state(), DrainState::Draining);
        assert!(d.draining());
        d.mark_stopped();
        assert_eq!(d.state(), DrainState::Stopped);
        assert!(!d.request_drain(), "stopped never re-enters draining");
        assert_eq!(d.state(), DrainState::Stopped);
    }

    #[test]
    fn clones_share_state() {
        let a = DrainController::new();
        let b = a.clone();
        a.request_drain();
        assert!(b.draining());
    }
}
