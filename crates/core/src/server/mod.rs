//! The persistent estimation server (`cnnperf serve`).
//!
//! A long-running daemon speaking newline-delimited JSON over a Unix
//! socket or stdin/stdout. Submodules:
//!
//! * [`protocol`] — the NDJSON wire grammar and typed protocol errors;
//! * [`qos`] — client QoS classes and the per-class policy (deadlines,
//!   queue quotas);
//! * [`scheduler`] — the sharded worker pool: request coalescing,
//!   admission control, bounded retry, stale-while-revalidate;
//! * [`session`] — per-connection framed reader (oversized / slow-loris
//!   guards) and writer thread;
//! * [`drain`] — the graceful-drain state machine and SIGTERM/SIGINT
//!   wiring.
//!
//! The accept loop is deliberately poll-based (non-blocking listeners +
//! a short sleep): it keeps the loop free to notice drain signals, and
//! the server's latency floor is dominated by engine work, not by the
//! few milliseconds of accept poll granularity.

pub mod drain;
pub mod protocol;
pub mod qos;
pub mod scheduler;
pub mod session;

pub use drain::{
    default_sigpipe, install_signal_drain, signal_drain_requested, DrainController, DrainState,
};
pub use protocol::{
    parse_frame, EstimateRequest, Frame, ProtocolError, DEFAULT_FRAME_STALL_MS,
    DEFAULT_MAX_FRAME_BYTES,
};
pub use qos::{QosClass, QosPolicy};
pub use scheduler::{DrainReport, Scheduler, SubmitError};
pub use session::{run_session, SessionEnd};

use crate::engine::EngineConfig;
use crate::lifecycle::LifecycleManager;
use crate::model::PerformancePredictor;
use crate::pipeline::Corpus;
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scrapes served by the Prometheus metrics endpoint.
static SERVER_METRICS_SCRAPES: obs::LazyCounter = obs::LazyCounter::new("server.metrics.scrapes");

/// Everything the server needs to run. `Clone` because every scheduler
/// shard and session carries its own copy (all shared state lives behind
/// the [`DrainController`] and the scheduler's own locks).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads == shards; each owns a private engine.
    pub workers: usize,
    /// Per-class deadlines and queue quotas.
    pub policy: QosPolicy,
    /// Engine configuration given to every shard.
    pub engine: EngineConfig,
    /// Shared drain handle (accept loop, sessions and scheduler all poll
    /// the same one).
    pub drain: DrainController,
    /// Transient-failure retries per request.
    pub max_retries: u32,
    /// Base backoff between retries (exponential + deterministic jitter).
    pub retry_backoff_ms: u64,
    /// Enqueue a background revalidation when a request is served stale.
    pub revalidate_stale: bool,
    /// Byte cap per protocol frame.
    pub max_frame_bytes: usize,
    /// Slow-loris guard: max stall of a partial frame.
    pub frame_stall_ms: u64,
    /// Budget for graceful drain before leftover waiters are flushed.
    pub drain_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            policy: QosPolicy::default(),
            engine: EngineConfig::default(),
            drain: DrainController::new(),
            max_retries: 2,
            retry_backoff_ms: 10,
            revalidate_stale: true,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            frame_stall_ms: DEFAULT_FRAME_STALL_MS,
            drain_deadline_ms: 5_000,
        }
    }
}

/// Fatal server-level failures (mapped to exit code 6 by the CLI).
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind the Unix socket or the metrics TCP listener.
    Bind { what: String, detail: String },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { what, detail } => {
                write!(f, "failed to bind {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// The assembled server: a scheduler plus the accept loop(s), and — when
/// lifecycle-enabled — the background trainer thread.
pub struct Server {
    cfg: ServerConfig,
    scheduler: Arc<Scheduler>,
    lifecycle: Option<Arc<LifecycleManager>>,
}

impl Server {
    /// Start the worker pool (engines warm immediately; the listener is
    /// bound later by [`run_unix`](Self::run_unix) /
    /// [`run_stdio`](Self::run_stdio)).
    pub fn new(
        cfg: ServerConfig,
        predictor: Option<Arc<PerformancePredictor>>,
        corpus: Option<Arc<Corpus>>,
    ) -> Server {
        let scheduler = Scheduler::start(&cfg, predictor, corpus);
        Server {
            cfg,
            scheduler,
            lifecycle: None,
        }
    }

    /// A lifecycle-enabled server: every shard reads the manager's
    /// hot-swap slot and publishes ground truth into its measurement log,
    /// and a background trainer thread runs the
    /// ingest → retrain → shadow → promote loop until the server drains.
    /// Call [`LifecycleManager::cold_start`] before this so the slot is
    /// armed when the shards spin up.
    pub fn with_lifecycle(
        cfg: ServerConfig,
        corpus: Option<Arc<Corpus>>,
        manager: Arc<LifecycleManager>,
    ) -> Server {
        let scheduler = Scheduler::start_with_slot(
            &cfg,
            Arc::clone(manager.slot()),
            corpus,
            Some(Arc::clone(manager.log())),
        );
        let trainer_mgr = Arc::clone(&manager);
        let trainer_drain = cfg.drain.clone();
        // detached on purpose: run_until exits as soon as the drain
        // controller flips, and the daemon process outlives nothing
        let _ = std::thread::Builder::new()
            .name("serve-lifecycle".into())
            .spawn(move || trainer_mgr.run_until(|| trainer_drain.draining()));
        Server {
            cfg,
            scheduler,
            lifecycle: Some(manager),
        }
    }

    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The lifecycle manager, when this server was built with one.
    pub fn lifecycle(&self) -> Option<&Arc<LifecycleManager>> {
        self.lifecycle.as_ref()
    }

    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Serve NDJSON sessions on a Unix socket until a drain is requested
    /// (SIGTERM/SIGINT, a `{"op":"drain"}` frame, or
    /// [`DrainController::request_drain`]), then drain gracefully and
    /// return the report. `metrics_addr` optionally serves a live
    /// Prometheus endpoint (e.g. `127.0.0.1:9095`) from the same loop.
    #[cfg(unix)]
    pub fn run_unix(
        &self,
        socket_path: &std::path::Path,
        metrics_addr: Option<&str>,
    ) -> Result<DrainReport, ServeError> {
        use std::os::unix::net::UnixListener;

        // a previous unclean shutdown may have left a stale socket file
        let _ = std::fs::remove_file(socket_path);
        let listener = UnixListener::bind(socket_path).map_err(|e| ServeError::Bind {
            what: format!("unix socket {}", socket_path.display()),
            detail: e.to_string(),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Bind {
                what: format!("unix socket {}", socket_path.display()),
                detail: e.to_string(),
            })?;
        let metrics = match metrics_addr {
            Some(addr) => {
                let l = std::net::TcpListener::bind(addr).map_err(|e| ServeError::Bind {
                    what: format!("metrics endpoint {addr}"),
                    detail: e.to_string(),
                })?;
                l.set_nonblocking(true).map_err(|e| ServeError::Bind {
                    what: format!("metrics endpoint {addr}"),
                    detail: e.to_string(),
                })?;
                Some(l)
            }
            None => None,
        };
        install_signal_drain();

        let active_sessions = Arc::new(AtomicUsize::new(0));
        loop {
            if signal_drain_requested() {
                self.cfg.drain.request_drain();
            }
            if self.cfg.drain.draining() {
                break;
            }
            let mut progressed = false;
            match listener.accept() {
                Ok((stream, _addr)) => {
                    progressed = true;
                    self.spawn_session(stream, &active_sessions);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
            if let Some(m) = &metrics {
                if let Ok((stream, _addr)) = m.accept() {
                    progressed = true;
                    serve_metrics_scrape(stream);
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(5));
            }
        }

        let report = self
            .scheduler
            .drain(Duration::from_millis(self.cfg.drain_deadline_ms));
        // give session writers a moment to flush drained responses to
        // clients that are still connected
        let grace = Instant::now() + Duration::from_millis(500);
        while active_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_file(socket_path);
        self.cfg.drain.mark_stopped();
        Ok(report)
    }

    #[cfg(unix)]
    fn spawn_session(
        &self,
        stream: std::os::unix::net::UnixStream,
        active_sessions: &Arc<AtomicUsize>,
    ) {
        // the read timeout turns the blocking read into a poll so the
        // session can run its slow-loris clock between bytes
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return, // connection already dead
        };
        let scheduler = Arc::clone(&self.scheduler);
        let cfg = self.cfg.clone();
        let active = Arc::clone(active_sessions);
        active.fetch_add(1, Ordering::SeqCst);
        let spawned = std::thread::Builder::new()
            .name("serve-session".into())
            .spawn(move || {
                let (_, writer) = run_session(stream, writer, &scheduler, &cfg);
                // the session stays active until its responses are written
                let _ = writer.join();
                active.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            active_sessions.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Serve one NDJSON session on stdin/stdout (no listener). Returns
    /// after stdin EOF or an in-band drain request, once the scheduler
    /// has drained and every response is written to stdout.
    pub fn run_stdio(&self) -> Result<DrainReport, ServeError> {
        install_signal_drain();
        let (_, writer) = run_session(
            std::io::stdin().lock(),
            std::io::stdout(),
            &self.scheduler,
            &self.cfg,
        );
        let report = self
            .scheduler
            .drain(Duration::from_millis(self.cfg.drain_deadline_ms));
        // the drain answered every request, so the writer has its last frame
        let _ = writer.join();
        self.cfg.drain.mark_stopped();
        Ok(report)
    }
}

/// Answer one Prometheus scrape: read (and ignore) the request line,
/// write the full metrics exposition, close. Deliberately minimal HTTP —
/// enough for `curl` and a Prometheus scraper, with a short read timeout
/// so a stuck scraper cannot wedge the accept loop.
fn serve_metrics_scrape(mut stream: std::net::TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf); // request line + headers; content ignored
    let body = obs::global().snapshot().to_prometheus();
    SERVER_METRICS_SCRAPES.inc();
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}
