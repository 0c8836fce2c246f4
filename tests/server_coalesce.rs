//! Request coalescing (issue satellite): N concurrent identical requests
//! must cost exactly ONE analysis — one `analysis.cache.misses`
//! increment, one engine request — and every waiter's response must be
//! byte-identical to the sequential result (only the correlation id
//! differs).
//!
//! This lives in its own test binary on purpose: integration tests are
//! separate processes, so the process-global analysis cache and metrics
//! registry start from zero and counter deltas are exact.

use cnnperf_core::server::protocol::{render_result, result_body, EstimateRequest};
use cnnperf_core::server::{QosClass, Scheduler, ServerConfig};
use cnnperf_core::{clear_analysis_cache, ResilientEngine};
use std::sync::mpsc::channel;
use std::time::Duration;

fn counter(name: &str) -> u64 {
    obs::global().snapshot().counter(name)
}

fn request(id: &str, model: &str, qos: QosClass) -> EstimateRequest {
    EstimateRequest {
        id: id.to_string(),
        model: model.to_string(),
        device: "GTX 1080 Ti".to_string(),
        qos,
        deadline_ms: None,
    }
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_computation() {
    const N: usize = 8;
    clear_analysis_cache();

    // one worker so ordering is deterministic: a blocker job occupies the
    // engine while the N identical requests pile up and coalesce
    let cfg = ServerConfig {
        workers: 1,
        revalidate_stale: false,
        ..ServerConfig::default()
    };
    let scheduler = Scheduler::start(&cfg, None, None);

    let misses_before = counter("analysis.cache.misses");
    let engine_requests_before = counter("engine.requests");

    let (blocker_tx, blocker_rx) = channel();
    scheduler
        .submit(request("blocker", "mobilenet", QosClass::Batch), blocker_tx)
        .expect("blocker admitted");

    let (tx, rx) = channel();
    for i in 0..N {
        scheduler
            .submit(
                request(&format!("c{i}"), "alexnet", QosClass::Batch),
                tx.clone(),
            )
            .expect("coalesced request admitted");
    }
    drop(tx);

    let mut responses: Vec<String> = Vec::with_capacity(N);
    for _ in 0..N {
        responses.push(
            rx.recv_timeout(Duration::from_secs(120))
                .expect("coalesced response"),
        );
    }
    blocker_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("blocker response");

    // exactly one miss for the N alexnet requests (plus one for the
    // blocker's model), and exactly two engine requests in total
    assert_eq!(
        counter("analysis.cache.misses") - misses_before,
        2,
        "N concurrent identical requests must analyze exactly once"
    );
    assert_eq!(
        counter("engine.requests") - engine_requests_before,
        2,
        "N concurrent identical requests must hit the engine exactly once"
    );
    assert_eq!(counter("server.coalesced"), (N - 1) as u64);
    assert_eq!(counter("server.admitted"), (N + 1) as u64);
    assert_eq!(counter("server.completed"), (N + 1) as u64);

    // sequential baseline: a fresh engine with the same configuration
    // must produce the exact same payload bytes
    let mut engine = ResilientEngine::new(cfg.engine.clone());
    let outcome = engine.estimate(
        "alexnet",
        "GTX 1080 Ti",
        cfg.policy.deadline_ms(QosClass::Batch),
    );
    let expected_body = result_body(&outcome, 0);
    assert!(
        expected_body.contains("\"outcome\":\"served:"),
        "baseline must be served, got {expected_body}"
    );

    for i in 0..N {
        let id = format!("c{i}");
        let expected = render_result(&id, &expected_body);
        assert!(
            responses.contains(&expected),
            "waiter {id}: no response byte-identical to the sequential result\n\
             expected: {expected}\n\
             got:      {responses:?}"
        );
    }

    scheduler.drain(Duration::from_secs(5));
}
