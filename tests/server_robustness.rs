//! Deterministic chaos harness for the estimation server (the issue's
//! acceptance suite): malformed / oversized / slow-loris input, client
//! disconnects mid-request, hung tiers, queue-full storms, and forced
//! drains. The oracle throughout: **no panics, no wedges, every admitted
//! request gets exactly one typed outcome**, and fixed-seed chaos replays
//! produce byte-identical result payloads.

use cnnperf_core::server::protocol::EstimateRequest;
use cnnperf_core::server::{
    run_session, QosClass, QosPolicy, Scheduler, ServerConfig, SessionEnd, SubmitError,
};
use cnnperf_core::Tier;
use gpu_sim::ChaosProfile;
use std::io::Write;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn request(id: &str, model: &str, device: &str, qos: QosClass) -> EstimateRequest {
    EstimateRequest {
        id: id.to_string(),
        model: model.to_string(),
        device: device.to_string(),
        qos,
        deadline_ms: None,
    }
}

/// Single worker, analytical tier only, tight class deadlines.
fn fast_config() -> ServerConfig {
    let mut cfg = ServerConfig {
        workers: 1,
        max_retries: 0,
        revalidate_stale: false,
        ..ServerConfig::default()
    };
    cfg.engine.tiers = vec![Tier::Analytical];
    cfg.policy = QosPolicy {
        deadline_ms: [400, 400, 400],
        queue_quota: [8, 4, 2],
    };
    cfg
}

/// Every tier invocation sleeps `ms` first (cancellably): jobs become
/// slow enough to observe mid-flight without being flaky.
fn slow_chaos(ms: u64) -> ChaosProfile {
    ChaosProfile {
        hang_rate: 0.0,
        panic_rate: 0.0,
        slow_rate: 1.0,
        slow_ms: ms,
        seed: 1,
    }
}

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name)
}

fn recv_all(rx: &Receiver<String>, n: usize, per_frame: Duration) -> Vec<String> {
    (0..n)
        .map(|i| {
            rx.recv_timeout(per_frame)
                .unwrap_or_else(|e| panic!("response {i}/{n} never arrived: {e}"))
        })
        .collect()
}

/// Extract the `"id"` of a response frame (they arrive in completion
/// order, not submission order).
fn frame_id(frame: &str) -> String {
    let v = serde_json::parse(frame).expect("response frame is valid JSON");
    match v.get("id") {
        Some(serde_json::Value::Str(s)) => s.clone(),
        other => panic!("frame without string id ({other:?}): {frame}"),
    }
}

/// Spin until the scheduler's queues are empty (the worker has popped
/// everything submitted so far) so subsequent quota math is exact.
fn wait_for_empty_queues(scheduler: &Scheduler) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while scheduler.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "worker never picked up the job");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn storm_sheds_best_effort_before_interactive() {
    // one worker and 1.5 s-slow jobs: a blocker occupies the worker while
    // the storm arrives, so every quota decision sees the queues as built
    let mut cfg = fast_config();
    cfg.engine.chaos = slow_chaos(1_500);
    cfg.policy = QosPolicy {
        deadline_ms: [5_000, 5_000, 5_000],
        queue_quota: [8, 4, 2],
    };
    let shed_interactive_before = counter("server.shed.interactive");
    let shed_best_effort_before = counter("server.shed.best-effort");
    let scheduler = Scheduler::start(&cfg, None, None);

    let (blocker_tx, _blocker_rx) = channel();
    scheduler
        .submit(
            request("blocker", "vgg16", "GTX 1080 Ti", QosClass::Batch),
            blocker_tx,
        )
        .expect("blocker admitted");
    wait_for_empty_queues(&scheduler);

    // 12 distinct (model, device) keys per class — distinct *across*
    // classes too, so nothing coalesces and quota math is exact
    let models = ["alexnet", "mobilenet", "resnet50", "squeezenet1.0"];
    let devices = ["GTX 1080 Ti", "Tesla K40", "GTX TITAN X"];
    let (tx, _rx) = channel();
    let mut shed = [0usize; 3];
    let mut admitted = [0usize; 3];
    for class in [QosClass::Interactive, QosClass::BestEffort] {
        let mut j = 0;
        for m in models {
            for d in devices {
                let id = format!("{}-{j}", class.name());
                // suffixing the device keeps the two classes' key spaces
                // disjoint; an unknown device still yields a typed outcome
                let device = format!("{d}#{}", class.name());
                j += 1;
                match scheduler.submit(request(&id, m, &device, class), tx.clone()) {
                    Ok(()) => admitted[class.priority()] += 1,
                    Err(SubmitError::Shed { class: c }) => {
                        assert_eq!(c, class);
                        shed[class.priority()] += 1;
                    }
                    Err(other) => panic!("unexpected rejection: {other:?}"),
                }
            }
        }
    }

    // interactive (quota 8) keeps most of its 12; best-effort (quota 2)
    // sheds nearly everything — strictly more, and first
    assert_eq!(admitted[QosClass::Interactive.priority()], 8);
    assert_eq!(shed[QosClass::Interactive.priority()], 4);
    assert_eq!(admitted[QosClass::BestEffort.priority()], 2);
    assert_eq!(shed[QosClass::BestEffort.priority()], 10);
    assert!(shed[QosClass::BestEffort.priority()] > shed[QosClass::Interactive.priority()]);

    // the per-class shed counters the stats-check gate validates
    assert_eq!(
        counter("server.shed.interactive") - shed_interactive_before,
        4
    );
    assert_eq!(
        counter("server.shed.best-effort") - shed_best_effort_before,
        10
    );

    // queued jobs are 1.5 s each on one worker: force the flush and make
    // sure the storm's waiters all get typed outcomes
    let report = scheduler.drain(Duration::from_millis(20));
    assert!(
        report.forced,
        "20 ms budget must force the flush: {report:?}"
    );
    assert!(report.flushed >= 10, "queued waiters flushed: {report:?}");
}

#[test]
fn hung_tiers_yield_typed_outcomes_and_deterministic_replays() {
    let run_once = || {
        let mut cfg = fast_config();
        cfg.engine.chaos = ChaosProfile {
            hang_rate: 1.0, // every tier invocation hangs until cancelled
            panic_rate: 0.0,
            slow_rate: 0.0,
            slow_ms: 0,
            seed: 42,
        };
        cfg.max_retries = 1;
        cfg.retry_backoff_ms = 1;
        let scheduler = Scheduler::start(&cfg, None, None);
        let (tx, rx) = channel();
        scheduler
            .submit(
                request("h1", "alexnet", "GTX 1080 Ti", QosClass::Interactive),
                tx,
            )
            .expect("admitted");
        let frame = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("hung tier still resolves to a typed outcome");
        scheduler.drain(Duration::from_secs(5));
        frame
    };
    let frame = run_once();
    assert!(
        frame.contains("\"ok\":true") && frame.contains("\"outcome\":\"exhausted\""),
        "expected a typed exhausted outcome, got: {frame}"
    );
    assert!(
        frame.contains("analytical:timeout"),
        "the hang must surface as a tier timeout: {frame}"
    );
    assert!(
        frame.contains("\"retries\":1"),
        "a transient exhaustion retries once: {frame}"
    );
    // same seed, same config -> byte-identical response (the retry
    // backoff jitter and chaos draws are all deterministic)
    assert_eq!(
        frame,
        run_once(),
        "fixed-seed chaos replay must be identical"
    );
}

#[test]
fn client_disconnect_mid_request_does_not_wedge_workers() {
    // jobs take >= 200 ms, so the client is guaranteed to be gone before
    // its result is ready
    let mut cfg = fast_config();
    cfg.engine.chaos = slow_chaos(200);
    let scheduler = Scheduler::start(&cfg, None, None);

    let disconnects_before = counter("server.disconnects");

    // a real socket session whose client vanishes right after asking
    let (client, server_side) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    server_side
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("timeout");
    let writer = server_side.try_clone().expect("clone");
    let sched = Arc::clone(&scheduler);
    let scfg = cfg.clone();
    let session = std::thread::spawn(move || run_session(server_side, writer, &sched, &scfg));

    {
        let mut c = &client;
        c.write_all(b"{\"id\":\"gone\",\"model\":\"alexnet\",\"device\":\"GTX 1080 Ti\"}\n")
            .expect("request written");
    }
    drop(client); // disconnect before the result can be delivered

    let (end, writer) = session.join().expect("session thread must not panic");
    assert_eq!(end, SessionEnd::Eof);

    // the worker must still be alive and serving new clients
    let (tx, rx) = channel();
    scheduler
        .submit(
            request("after", "mobilenet", "GTX 1080 Ti", QosClass::Interactive),
            tx,
        )
        .expect("admitted after disconnect");
    let frame = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("worker survived the disconnect");
    assert!(frame.contains("\"id\":\"after\""));

    // the orphaned result was written into a dead socket and counted
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter("server.disconnects") == disconnects_before {
        assert!(Instant::now() < deadline, "orphaned response never drained");
        std::thread::sleep(Duration::from_millis(10));
    }
    scheduler.drain(Duration::from_secs(5));
    writer.join().expect("writer must not panic");
}

#[test]
fn malformed_oversized_and_slow_loris_input_is_typed_never_fatal() {
    let mut cfg = fast_config();
    cfg.max_frame_bytes = 128;
    cfg.frame_stall_ms = 100;
    let scheduler = Scheduler::start(&cfg, None, None);

    let (client, server_side) = std::os::unix::net::UnixStream::pair().expect("socketpair");
    server_side
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("timeout");
    let writer = server_side.try_clone().expect("clone");
    let sched = Arc::clone(&scheduler);
    let scfg = cfg.clone();
    let session = std::thread::spawn(move || run_session(server_side, writer, &sched, &scfg));

    let mut c = client.try_clone().expect("clone client");
    c.write_all(b"this is not json\n").expect("malformed");
    c.write_all(&vec![b'x'; 4096]).expect("oversized");
    c.write_all(b"\n").expect("newline");
    c.write_all(b"{\"op\":\"ping\",\"id\":\"still-alive\"}\n")
        .expect("ping");
    // finally: a partial frame that never completes (slow loris)
    c.write_all(b"{\"id\":\"never").expect("partial");

    use std::io::{BufRead, BufReader};
    let mut reader = BufReader::new(client);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        line
    };
    let malformed = read_line();
    assert!(
        malformed.contains("\"error\":\"malformed\""),
        "typed malformed error, got: {malformed}"
    );
    let oversized = read_line();
    assert!(
        oversized.contains("\"error\":\"oversized\""),
        "typed oversized error, got: {oversized}"
    );
    let pong = read_line();
    assert!(
        pong.contains("\"id\":\"still-alive\"") && pong.contains("pong"),
        "session must survive bad frames, got: {pong}"
    );
    let stalled = read_line();
    assert!(
        stalled.contains("\"error\":\"stalled\""),
        "slow loris must be reported, got: {stalled}"
    );
    let (end, writer) = session.join().expect("session must not panic");
    assert_eq!(end, SessionEnd::Stalled, "loris connection is closed");
    scheduler.drain(Duration::from_secs(5));
    writer.join().expect("writer must not panic");
}

#[test]
fn forced_drain_flushes_every_waiter_with_a_typed_outcome() {
    // 500 ms-slow jobs against a 1 ms drain budget: everything must be
    // flushed with a typed outcome, and nobody gets two frames
    let mut cfg = fast_config();
    cfg.engine.chaos = slow_chaos(500);
    cfg.policy = QosPolicy {
        deadline_ms: [30_000, 30_000, 30_000],
        queue_quota: [64, 64, 64],
    };
    let scheduler = Scheduler::start(&cfg, None, None);

    let (tx, rx) = channel();
    let ids = ["d0", "d1", "d2", "d3"];
    let models = ["vgg16", "alexnet", "mobilenet", "resnet50"];
    for (id, model) in ids.iter().zip(models) {
        scheduler
            .submit(
                request(id, model, "GTX 1080 Ti", QosClass::Batch),
                tx.clone(),
            )
            .expect("admitted");
    }
    drop(tx);

    let report = scheduler.drain(Duration::from_millis(1));
    assert!(report.forced, "1 ms budget must force the flush");
    assert!(report.flushed >= 3, "queued waiters flushed: {report:?}");

    let frames = recv_all(&rx, ids.len(), Duration::from_secs(30));
    let mut seen: Vec<String> = frames.iter().map(|f| frame_id(f)).collect();
    seen.sort();
    let mut want: Vec<String> = ids.iter().map(|s| s.to_string()).collect();
    want.sort();
    assert_eq!(seen, want, "exactly one frame per admitted request");
    for f in &frames {
        let typed = f.contains("\"error\":\"drain-deadline\"") || f.contains("\"ok\":true");
        assert!(typed, "drain outcome must be typed: {f}");
    }
    // nothing else may arrive afterwards — in particular, the worker
    // finishing its flushed in-flight job (~500 ms out) must NOT deliver
    // a second frame to an already-flushed waiter
    assert!(
        rx.recv_timeout(Duration::from_millis(900)).is_err(),
        "no waiter may receive a second frame"
    );
}

#[test]
fn mixed_storm_every_admitted_request_resolves_exactly_once() {
    let mut cfg = fast_config();
    cfg.workers = 2;
    cfg.engine.chaos = ChaosProfile {
        hang_rate: 0.2,
        panic_rate: 0.2,
        slow_rate: 0.2,
        slow_ms: 20,
        seed: 7,
    };
    cfg.max_retries = 1;
    cfg.retry_backoff_ms = 1;
    cfg.policy = QosPolicy {
        deadline_ms: [500, 500, 500],
        queue_quota: [64, 64, 64],
    };
    let scheduler = Scheduler::start(&cfg, None, None);

    let classes = [QosClass::Interactive, QosClass::Batch, QosClass::BestEffort];
    let models = ["alexnet", "mobilenet", "resnet50"];
    let devices = ["GTX 1080 Ti", "Tesla K40"];
    let (tx, rx) = channel();
    let mut admitted_ids: Vec<String> = Vec::new();
    let mut n = 0;
    for class in classes {
        for m in models {
            for d in devices {
                let id = format!("s{n}");
                n += 1;
                match scheduler.submit(request(&id, m, d, class), tx.clone()) {
                    Ok(()) => admitted_ids.push(id),
                    Err(SubmitError::Shed { .. }) => {} // typed shed is a valid outcome
                    Err(e) => panic!("unexpected rejection: {e:?}"),
                }
            }
        }
    }
    drop(tx);

    let frames = recv_all(&rx, admitted_ids.len(), Duration::from_secs(60));
    let mut seen: Vec<String> = frames.iter().map(|f| frame_id(f)).collect();
    seen.sort();
    admitted_ids.sort();
    assert_eq!(
        seen, admitted_ids,
        "exactly one typed outcome per admitted id"
    );
    for f in &frames {
        // under chaos an outcome may be served or exhausted — but it is
        // always a well-formed, typed frame
        serde_json::parse(f).expect("every outcome frame is valid JSON");
        assert!(
            f.contains("\"ok\":true"),
            "chaos outcomes are results, not protocol errors: {f}"
        );
    }
    assert!(
        rx.recv_timeout(Duration::from_millis(200)).is_err(),
        "no duplicate outcomes"
    );
    let report = scheduler.drain(Duration::from_secs(10));
    assert!(!report.forced);
}

/// A client stream that takes about 100 ms per write, into a buffer the
/// test reads afterwards.
struct SlowWriter(Arc<Mutex<Vec<u8>>>);

impl Write for SlowWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_millis(100));
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn drained_session_has_written_its_response_once_the_writer_is_joined() {
    // regression: stdin `serve` returned after the drain without waiting
    // for the session's writer thread, so the process could exit before
    // the last response reached stdout. The drain only guarantees the
    // response is handed to the writer; joining it guarantees the write.
    let mut cfg = fast_config();
    cfg.engine.tiers = vec![Tier::StaleCache];
    let scheduler = Scheduler::start(&cfg, None, None);
    let out = Arc::new(Mutex::new(Vec::new()));
    let frame = b"{\"id\":\"last\",\"model\":\"alexnet\",\"device\":\"GTX 1080 Ti\"}\n";
    let client = SlowWriter(Arc::clone(&out));
    let (end, writer) = run_session(&frame[..], client, &scheduler, &cfg);
    assert_eq!(end, SessionEnd::Eof);
    scheduler.drain(Duration::from_secs(5));
    writer.join().expect("writer must not panic");
    let written = String::from_utf8(out.lock().unwrap().clone()).expect("utf8");
    assert!(
        written.contains("\"id\":\"last\""),
        "response lost: {written:?}"
    );
}
