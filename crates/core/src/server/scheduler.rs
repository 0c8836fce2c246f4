//! Sharded worker pool with request coalescing, per-class admission
//! control, bounded retry, and stale-while-revalidate.
//!
//! # Sharding and coalescing
//!
//! Requests are routed to a shard by FNV hash of their `(model, device)`
//! key, so every request for one key lands on the same worker. Within a
//! shard, concurrent requests for the same key **coalesce**: the first
//! becomes a job, later ones append themselves as waiters (even while
//! the job is already running) and all of them receive the one result —
//! the engine computes once, the [`crate::analysis_cache`] sees one
//! miss, and every waiter's `result` payload is byte-identical.
//!
//! # Admission control
//!
//! Each shard keeps one FIFO queue per [`QosClass`], drained in priority
//! order. A *new* job is admitted only while its class queue is under
//! the [`QosPolicy::queue_quota`]; beyond it the request is shed with a
//! typed `overloaded` error — best-effort quotas are the smallest, so
//! under a storm best-effort sheds first while interactive keeps
//! flowing. Joining an existing job is always admitted (a coalesced
//! waiter adds no work). A queued job is promoted to a higher-priority
//! queue when a more important waiter joins it.
//!
//! # Retry and stale-while-revalidate
//!
//! An exhausted outcome whose tier failures are all transient (timeouts,
//! contained panics, open breakers — never classified errors like an
//! unknown model) is retried up to [`ServerConfig::max_retries`] times
//! with deterministic jittered backoff. A request served from the stale
//! cache additionally enqueues an internal best-effort *revalidation*
//! job for the same key, which re-runs the live tiers and refreshes the
//! cache — degraded answers are served now and healed in the background.

use super::drain::DrainController;
use super::protocol::{render_error, render_result, result_body, EstimateRequest};
use super::qos::{QosClass, QosPolicy};
use super::ServerConfig;
use crate::cache::fnv1a;
use crate::engine::{EstimateOutcome, OutcomeKind, ResilientEngine, Tier, TierFailure};
use crate::lifecycle::{MeasurementLog, PredictorSlot};
use crate::model::PerformancePredictor;
use crate::pipeline::Corpus;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Take a mutex even when a panicking thread poisoned it. Shard state
/// stays structurally consistent across panics (jobs/queues are mutated
/// in complete steps before any engine work runs), so recovering the
/// inner value keeps the shard serving instead of cascading one contained
/// panic into a wedged session for every later client.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Valid estimate frames reaching the scheduler;
/// `requests == admitted + shed + rejected.draining`.
static SERVER_REQUESTS: obs::LazyCounter = obs::LazyCounter::new("server.requests");
static SERVER_ADMITTED: obs::LazyCounter = obs::LazyCounter::new("server.admitted");
/// Admission-control drops, total and per class (`server.shed == Σ class`).
static SERVER_SHED: obs::LazyCounter = obs::LazyCounter::new("server.shed");
/// Requests refused because the server is draining.
static SERVER_REJECTED_DRAINING: obs::LazyCounter =
    obs::LazyCounter::new("server.rejected.draining");
/// Admitted requests that joined an existing job instead of creating one.
static SERVER_COALESCED: obs::LazyCounter = obs::LazyCounter::new("server.coalesced");
/// Admitted requests that received a computed outcome.
static SERVER_COMPLETED: obs::LazyCounter = obs::LazyCounter::new("server.completed");
/// Admitted requests resolved during the drain phase (completed or
/// flushed); `drained <= completed + drain.flushed`.
static SERVER_DRAINED: obs::LazyCounter = obs::LazyCounter::new("server.drained");
/// Admitted requests flushed with a typed `drain-deadline` outcome
/// because the drain deadline expired before their job finished.
static SERVER_DRAIN_FLUSHED: obs::LazyCounter = obs::LazyCounter::new("server.drain.flushed");
/// Transient-failure retries performed by workers.
static SERVER_RETRIES: obs::LazyCounter = obs::LazyCounter::new("server.retries");
/// Stale-while-revalidate refresh jobs enqueued.
static SERVER_REVALIDATIONS: obs::LazyCounter = obs::LazyCounter::new("server.revalidations");

fn shed_count(class: QosClass) {
    SERVER_SHED.inc();
    obs::global()
        .counter(&format!("server.shed.{}", class.name()))
        .inc();
}

type JobKey = (String, String);

/// One admitted request waiting for its job's result.
struct Waiter {
    id: String,
    class: QosClass,
    tx: Sender<String>,
    enqueued: Instant,
}

/// One unit of engine work; many waiters may share it.
struct Job {
    /// Highest-priority class among the waiters (decides the queue).
    class: QosClass,
    /// Effective wall-clock budget: the tightest of the waiters'
    /// per-request overrides and class deadlines.
    deadline_ms: u64,
    waiters: Vec<Waiter>,
    running: bool,
    /// Internal stale-while-revalidate refresh: live tiers only, and no
    /// waiters unless a real request coalesced onto it mid-queue.
    revalidate: bool,
}

struct ShardState {
    /// Per-class FIFO of queued (not yet running) job keys.
    queues: [VecDeque<JobKey>; 3],
    /// Every queued or running job, by key. A key present here is what
    /// makes coalescing possible.
    jobs: HashMap<JobKey, Job>,
    draining: bool,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            jobs: HashMap::new(),
            draining: false,
        }
    }

    /// Pop the highest-priority queued job and mark it running.
    fn pop_next(&mut self) -> Option<JobKey> {
        for q in self.queues.iter_mut() {
            if let Some(key) = q.pop_front() {
                if let Some(job) = self.jobs.get_mut(&key) {
                    job.running = true;
                }
                return Some(key);
            }
        }
        None
    }

    fn queued(&self, class: QosClass) -> usize {
        self.queues[class.priority()].len()
    }

    /// Enqueue an internal best-effort revalidation job for `key`, if the
    /// key is idle and the best-effort queue has room. Revalidation is
    /// opportunistic: when crowded out it is silently skipped.
    fn try_enqueue_revalidate(&mut self, key: &JobKey, policy: &QosPolicy) {
        if self.draining
            || self.jobs.contains_key(key)
            || self.queued(QosClass::BestEffort) >= policy.queue_quota(QosClass::BestEffort)
        {
            return;
        }
        self.jobs.insert(
            key.clone(),
            Job {
                class: QosClass::BestEffort,
                deadline_ms: policy.deadline_ms(QosClass::BestEffort),
                waiters: Vec::new(),
                running: false,
                revalidate: true,
            },
        );
        self.queues[QosClass::BestEffort.priority()].push_back(key.clone());
        SERVER_REVALIDATIONS.inc();
    }
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The class queue quota is full; the request was shed.
    Shed { class: QosClass },
    /// The server is draining and admits nothing new.
    Draining,
}

impl SubmitError {
    /// The typed error frame this rejection renders as.
    pub fn to_frame(&self, id: &str) -> String {
        match self {
            SubmitError::Shed { class } => render_error(
                Some(id),
                "overloaded",
                &format!("{class} queue is at its quota; request shed"),
            ),
            SubmitError::Draining => {
                render_error(Some(id), "draining", "server is draining; not admitting")
            }
        }
    }
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Waiters flushed with a typed `drain-deadline` outcome.
    pub flushed: usize,
    /// Whether the drain deadline expired before the queues emptied.
    pub forced: bool,
    /// Wall time the drain took.
    pub elapsed: Duration,
}

/// The sharded worker pool. Create with [`Scheduler::start`], feed with
/// [`Scheduler::submit`], stop with [`Scheduler::drain`].
pub struct Scheduler {
    shards: Vec<Arc<Shard>>,
    policy: QosPolicy,
    drain: DrainController,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawn the worker pool: one engine-owning worker thread per shard.
    /// `predictor` and `corpus` arm every shard's regressor and stale
    /// cache tiers.
    pub fn start(
        cfg: &ServerConfig,
        predictor: Option<Arc<PerformancePredictor>>,
        corpus: Option<Arc<Corpus>>,
    ) -> Arc<Scheduler> {
        let slot = Arc::new(PredictorSlot::new());
        if let Some(p) = predictor {
            slot.install(p);
        }
        Self::start_with_slot(cfg, slot, corpus, None)
    }

    /// [`start`](Self::start) with an externally owned predictor slot and
    /// an optional ground-truth log — the lifecycle-enabled form: the
    /// trainer promotes into `slot` (all shards see it atomically) and
    /// shards publish live-tier measurements into `ground_truth`.
    pub fn start_with_slot(
        cfg: &ServerConfig,
        slot: Arc<PredictorSlot>,
        corpus: Option<Arc<Corpus>>,
        ground_truth: Option<Arc<MeasurementLog>>,
    ) -> Arc<Scheduler> {
        let shard_count = cfg.workers.max(1);
        let shards: Vec<Arc<Shard>> = (0..shard_count)
            .map(|_| {
                Arc::new(Shard {
                    state: Mutex::new(ShardState::new()),
                    cv: Condvar::new(),
                })
            })
            .collect();
        let scheduler = Arc::new(Scheduler {
            shards: shards.clone(),
            policy: cfg.policy.clone(),
            drain: cfg.drain.clone(),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(shard_count);
        for (i, shard) in shards.into_iter().enumerate() {
            let cfg = cfg.clone();
            // each shard's engine is built and warmed before `start`
            // returns, so the warm-up never races a drain
            let mut engine = ResilientEngine::with_shared_slot(cfg.engine.clone(), slot.clone());
            if let Some(log) = &ground_truth {
                engine.set_ground_truth_log(Arc::clone(log));
            }
            if let Some(c) = &corpus {
                engine.warm_from_corpus(c);
            }
            let handle = std::thread::Builder::new()
                .name(format!("serve-shard-{i}"))
                .spawn(move || worker_loop(shard, cfg, engine))
                .expect("spawn scheduler worker");
            handles.push(handle);
        }
        *lock_recover(&scheduler.workers) = handles;
        scheduler
    }

    fn shard_for(&self, key: &JobKey) -> &Arc<Shard> {
        let mut bytes = key.0.as_bytes().to_vec();
        bytes.push(0);
        bytes.extend_from_slice(key.1.as_bytes());
        let idx = (fnv1a(&bytes) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Admit one request. On success the result frame will eventually
    /// arrive on `tx` (exactly one frame per admitted request, even
    /// through a drain). Rejections return immediately with a typed
    /// [`SubmitError`].
    pub fn submit(&self, req: EstimateRequest, tx: Sender<String>) -> Result<(), SubmitError> {
        SERVER_REQUESTS.inc();
        if self.drain.draining() {
            SERVER_REJECTED_DRAINING.inc();
            return Err(SubmitError::Draining);
        }
        let key = (req.model.clone(), req.device.clone());
        let shard = self.shard_for(&key);
        let mut st = lock_recover(&shard.state);
        if st.draining {
            SERVER_REJECTED_DRAINING.inc();
            return Err(SubmitError::Draining);
        }
        let effective_deadline = req
            .deadline_ms
            .unwrap_or_else(|| self.policy.deadline_ms(req.qos));
        let waiter = Waiter {
            id: req.id,
            class: req.qos,
            tx,
            enqueued: Instant::now(),
        };
        if let Some(job) = st.jobs.get_mut(&key) {
            // Coalesce: join the existing job. A queued job adopting a
            // more important waiter moves to that class's queue; a queued
            // revalidation job gains a real waiter and stops being
            // internal. Running jobs are left as popped — their result
            // still fans out to every waiter present at completion.
            let old_class = job.class;
            let promote =
                !job.running && (req.qos.priority() < old_class.priority() || job.revalidate);
            if promote {
                job.class = old_class.max_priority(req.qos);
                job.revalidate = false;
            }
            if !job.running {
                // tightest budget among the coalesced waiters wins
                job.deadline_ms = job.deadline_ms.min(effective_deadline);
            }
            job.waiters.push(waiter);
            let new_class = job.class;
            if promote && new_class != old_class {
                let old_q = &mut st.queues[old_class.priority()];
                if let Some(pos) = old_q.iter().position(|k| *k == key) {
                    old_q.remove(pos);
                    st.queues[new_class.priority()].push_back(key);
                }
            }
            SERVER_ADMITTED.inc();
            SERVER_COALESCED.inc();
            return Ok(());
        }
        if st.queued(req.qos) >= self.policy.queue_quota(req.qos) {
            shed_count(req.qos);
            return Err(SubmitError::Shed { class: req.qos });
        }
        st.jobs.insert(
            key.clone(),
            Job {
                class: req.qos,
                deadline_ms: effective_deadline,
                waiters: vec![waiter],
                running: false,
                revalidate: false,
            },
        );
        st.queues[req.qos.priority()].push_back(key);
        SERVER_ADMITTED.inc();
        drop(st);
        shard.cv.notify_all();
        Ok(())
    }

    /// Total queued (not yet running) jobs across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let st = lock_recover(&s.state);
                st.queues.iter().map(|q| q.len()).sum::<usize>()
            })
            .sum()
    }

    /// Graceful drain: stop admitting, let workers finish queued and
    /// in-flight jobs, and — if `drain_deadline` expires first — flush
    /// every remaining waiter with a typed `drain-deadline` outcome so no
    /// admitted request is ever left hanging. Returns once all shards are
    /// quiesced or flushed.
    pub fn drain(&self, drain_deadline: Duration) -> DrainReport {
        let started = Instant::now();
        self.drain.request_drain();
        for shard in &self.shards {
            lock_recover(&shard.state).draining = true;
            shard.cv.notify_all();
        }
        // wait for every shard to finish its queued + running jobs
        let deadline = started + drain_deadline;
        let mut forced = false;
        loop {
            let idle = self
                .shards
                .iter()
                .all(|s| lock_recover(&s.state).jobs.is_empty());
            if idle {
                break;
            }
            if Instant::now() >= deadline {
                forced = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Flush whatever is left with a typed outcome. A worker finishing
        // its job after this finds the job gone under the lock and sends
        // nothing, so no waiter ever sees two frames.
        let mut flushed = 0usize;
        if forced {
            for shard in &self.shards {
                let mut st = lock_recover(&shard.state);
                for q in st.queues.iter_mut() {
                    q.clear();
                }
                for (_key, job) in st.jobs.drain() {
                    for w in job.waiters {
                        flushed += 1;
                        SERVER_DRAIN_FLUSHED.inc();
                        SERVER_DRAINED.inc();
                        let frame = render_error(
                            Some(&w.id),
                            "drain-deadline",
                            "server drained before this request completed",
                        );
                        let _ = w.tx.send(frame);
                    }
                }
            }
        }
        // Workers park once draining && queues empty; join the ones that
        // already exited, but never block past the drain deadline on a
        // worker still unwinding a cancelled tier.
        let handles = std::mem::take(&mut *lock_recover(&self.workers));
        for h in handles {
            if h.is_finished() {
                let _ = h.join();
            }
        }
        DrainReport {
            flushed,
            forced,
            elapsed: started.elapsed(),
        }
    }
}

impl QosClass {
    /// The higher-priority (more important) of two classes.
    fn max_priority(self, other: QosClass) -> QosClass {
        if other.priority() < self.priority() {
            other
        } else {
            self
        }
    }
}

/// Should an exhausted outcome be retried? Only when every tier failure
/// is transient — a classified `Error` (unknown model/device, infeasible
/// kernel) is permanent and retrying it is pure waste.
fn transient(outcome: &EstimateOutcome) -> bool {
    matches!(outcome.kind, OutcomeKind::Exhausted)
        && !outcome.attempts.is_empty()
        && outcome
            .attempts
            .iter()
            .all(|a| !matches!(a.failure, TierFailure::Error(_)))
}

/// Deterministic jitter for retry backoff: a pure function of the key
/// and attempt number, so fixed-seed chaos replays sleep identically.
fn backoff_jitter_ms(key: &JobKey, attempt: u32, base_ms: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let mut bytes = key.0.as_bytes().to_vec();
    bytes.extend_from_slice(key.1.as_bytes());
    bytes.push(attempt as u8);
    fnv1a(&bytes) % base_ms
}

/// One worker: owns a shard and a private engine, pops jobs in priority
/// order, and fans results out to every waiter. The engine contains tier
/// panics itself; the extra `catch_unwind` here is the last line of
/// defense — a scheduler bug must classify, not kill the worker.
fn worker_loop(shard: Arc<Shard>, cfg: ServerConfig, mut engine: ResilientEngine) {
    loop {
        let (key, deadline_ms, revalidate) = {
            let mut st = lock_recover(&shard.state);
            loop {
                if let Some(key) = st.pop_next() {
                    let job = st.jobs.get(&key).expect("popped job exists");
                    break (key.clone(), job.deadline_ms, job.revalidate);
                }
                if st.draining {
                    return;
                }
                let (next, _timeout) = match shard.cv.wait_timeout(st, Duration::from_millis(100)) {
                    Ok(woken) => woken,
                    Err(poisoned) => poisoned.into_inner(),
                };
                st = next;
            }
        };

        let work = catch_unwind(AssertUnwindSafe(|| {
            run_job(&mut engine, &cfg, &key, deadline_ms, revalidate)
        }));
        let (outcome, retries) = work.unwrap_or_else(|_| {
            // a worker-level panic (outside the engine's own containment)
            // still yields a typed outcome for every waiter
            (
                EstimateOutcome {
                    model: key.0.clone(),
                    device: key.1.clone(),
                    kind: OutcomeKind::Exhausted,
                    ipc: None,
                    latency_ms: None,
                    attempts: Vec::new(),
                    elapsed_ms: 0.0,
                    generation: None,
                },
                0,
            )
        });

        let stale_served = matches!(
            outcome.kind,
            OutcomeKind::Served {
                tier: Tier::StaleCache
            }
        );

        let waiters = {
            let mut st = lock_recover(&shard.state);
            let waiters = st.jobs.remove(&key).map(|j| j.waiters).unwrap_or_default();
            // stale-while-revalidate: heal the cache in the background
            // (same key hashes to this same shard)
            if stale_served && !revalidate && cfg.revalidate_stale {
                st.try_enqueue_revalidate(&key, &cfg.policy);
            }
            waiters
        };
        let draining = cfg.drain.draining();
        let body = result_body(&outcome, retries);
        for w in waiters {
            SERVER_COMPLETED.inc();
            if draining {
                SERVER_DRAINED.inc();
            }
            obs::global()
                .histogram(&format!("server.qos.{}.latency_us", w.class.name()))
                .record_duration(w.enqueued.elapsed());
            let _ = w.tx.send(render_result(&w.id, &body));
        }
    }
}

/// Run one job through the engine with bounded retry + jittered backoff.
fn run_job(
    engine: &mut ResilientEngine,
    cfg: &ServerConfig,
    key: &JobKey,
    deadline_ms: u64,
    revalidate: bool,
) -> (EstimateOutcome, u32) {
    let mut retries = 0u32;
    loop {
        let outcome = if revalidate {
            engine.estimate_live(&key.0, &key.1, deadline_ms)
        } else {
            engine.estimate(&key.0, &key.1, deadline_ms)
        };
        if retries < cfg.max_retries && transient(&outcome) {
            retries += 1;
            SERVER_RETRIES.inc();
            let backoff = cfg
                .retry_backoff_ms
                .saturating_mul(1 << (retries - 1).min(6))
                .saturating_add(backoff_jitter_ms(key, retries, cfg.retry_backoff_ms))
                .min(1_000);
            std::thread::sleep(Duration::from_millis(backoff));
            continue;
        }
        return (outcome, retries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, TierAttempt};

    fn exhausted_with(failures: Vec<TierFailure>) -> EstimateOutcome {
        EstimateOutcome {
            model: "m".into(),
            device: "d".into(),
            kind: OutcomeKind::Exhausted,
            ipc: None,
            latency_ms: None,
            attempts: failures
                .into_iter()
                .map(|failure| TierAttempt {
                    tier: Tier::Analytical,
                    failure,
                })
                .collect(),
            elapsed_ms: 0.0,
            generation: None,
        }
    }

    #[test]
    fn lock_recover_survives_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison the mutex");
        })
        .join();
        assert!(m.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock_recover(&m), 7, "state recovered intact");
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 8);
    }

    fn submit_and_recv(sched: &Scheduler, id: &str, model: &str) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        sched
            .submit(
                EstimateRequest {
                    id: id.into(),
                    model: model.into(),
                    device: "V100S".into(),
                    qos: QosClass::Interactive,
                    deadline_ms: Some(2_000),
                },
                tx,
            )
            .expect("admitted");
        rx.recv_timeout(Duration::from_secs(30)).expect("one frame")
    }

    #[test]
    fn shard_keeps_serving_after_lock_poisoned_by_panicking_thread() {
        // chaos: a thread panics while holding a shard's state lock —
        // sessions and workers recover the poisoned lock and the shard
        // keeps answering instead of wedging every later request
        let cfg = ServerConfig {
            workers: 1,
            engine: EngineConfig {
                tiers: vec![Tier::StaleCache],
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        };
        let sched = Scheduler::start(&cfg, None, None);
        let shard = Arc::clone(&sched.shards[0]);
        let _ = std::thread::spawn(move || {
            let _guard = shard.state.lock().unwrap();
            panic!("chaos: poison the shard lock mid-job");
        })
        .join();
        assert!(sched.shards[0].state.lock().is_err(), "lock is poisoned");
        let frame = submit_and_recv(&sched, "after-poison", "some-model");
        assert!(frame.contains("\"id\":\"after-poison\""), "{frame}");
        sched.drain(Duration::from_millis(500));
    }

    #[test]
    fn shard_keeps_serving_through_injected_tier_panics() {
        // chaos: every live tier invocation panics mid-job; the panic is
        // contained per-tier and every admitted request still gets
        // exactly one classified frame
        let cfg = ServerConfig {
            workers: 1,
            engine: EngineConfig {
                tiers: vec![Tier::Analytical, Tier::StaleCache],
                chaos: gpu_sim::ChaosProfile {
                    panic_rate: 1.0,
                    ..gpu_sim::ChaosProfile::none()
                },
                ..EngineConfig::default()
            },
            ..ServerConfig::default()
        };
        let sched = Scheduler::start(&cfg, None, None);
        for i in 0..3 {
            let frame = submit_and_recv(&sched, &format!("r{i}"), &format!("model-{i}"));
            assert!(frame.contains(&format!("\"id\":\"r{i}\"")), "{frame}");
        }
        sched.drain(Duration::from_millis(500));
    }

    #[test]
    fn transient_classification() {
        assert!(transient(&exhausted_with(vec![
            TierFailure::Timeout,
            TierFailure::BreakerOpen,
            TierFailure::Panic("boom".into()),
        ])));
        assert!(
            !transient(&exhausted_with(vec![
                TierFailure::Timeout,
                TierFailure::Error("unknown model".into()),
            ])),
            "classified errors are permanent"
        );
        assert!(
            !transient(&exhausted_with(vec![])),
            "no attempts means nothing to retry"
        );
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let key = ("resnet50".to_string(), "a100".to_string());
        let a = backoff_jitter_ms(&key, 1, 50);
        let b = backoff_jitter_ms(&key, 1, 50);
        assert_eq!(a, b, "same key+attempt draws the same jitter");
        assert!(a < 50);
        assert_eq!(backoff_jitter_ms(&key, 1, 0), 0);
        assert!(backoff_jitter_ms(&key, 2, 50) < 50);
    }

    #[test]
    fn max_priority_picks_the_more_important_class() {
        assert_eq!(
            QosClass::BestEffort.max_priority(QosClass::Interactive),
            QosClass::Interactive
        );
        assert_eq!(
            QosClass::Interactive.max_priority(QosClass::Batch),
            QosClass::Interactive
        );
        assert_eq!(
            QosClass::Batch.max_priority(QosClass::Batch),
            QosClass::Batch
        );
    }
}
