//! The CLI's exit-code taxonomy is a contract with scripts and CI: each
//! distinguishable operational condition maps to its own code, so callers
//! branch on `$?` instead of scraping stderr. One test per code.
//!
//! 0 success | 1 failure | 2 usage/config | 3 retired |
//! 4 deadline exceeded | 5 corrupt cache/journal | 6 server bind error |
//! 7 model store init failure

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn cnnperf() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cnnperf"));
    // point the corpus cache somewhere absent so estimate's tiers degrade
    // deterministically instead of picking up a developer's warm cache
    cmd.env("CNNPERF_CORPUS", scratch("no-corpus-cache.json"));
    cmd
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cnnperf-exit-test-{}-{name}", std::process::id()))
}

fn exit_code(cmd: &mut Command) -> i32 {
    cmd.output()
        .expect("spawn cnnperf")
        .status
        .code()
        .expect("exit code (not signal-killed)")
}

#[test]
fn no_arguments_is_usage_error() {
    assert_eq!(exit_code(&mut cnnperf()), 2);
}

#[test]
fn unknown_flag_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["corpus", "--bogus"])), 2);
}

#[test]
fn malformed_flags_are_usage_errors_on_every_command() {
    // its own corpus path: a command that let a bad flag through would go
    // on to build the corpus and warm the cache the other tests expect absent
    let corpus = scratch("strict-parse-corpus.json");
    for args in [
        &["rank", "alexnet", "--bogus"][..],
        &["rank", "alexnet", "--stats", "yaml"],
        &["predict", "alexnet", "--regressor"],
        &["analyze", "alexnet", "--bogus"],
        &["analyze", "alexnet", "--count-mode", "interp"],
        &["serve", "--workers", "0"],
        &["serve", "--max-frame-bytes", "10"],
    ] {
        let code = exit_code(cnnperf().env("CNNPERF_CORPUS", &corpus).args(args));
        assert_eq!(code, 2, "{args:?}");
    }
    assert!(
        !corpus.exists(),
        "a usage error went on to build the corpus"
    );
}

#[test]
fn stats_check_of_a_broken_invariant_exits_1() {
    let snap = scratch("stats-snapshot.json");
    let check = |served: u32| {
        let counters = format!(r#""engine.requests":2,"engine.outcome.served":{served}"#);
        let line = format!(r#"{{"schema":1,"counters":{{{counters}}},"histograms":{{}}}}"#);
        std::fs::write(&snap, line).expect("write snapshot");
        exit_code(cnnperf().args(["stats-check", snap.to_str().expect("utf8 path")]))
    };
    assert_eq!(check(2), 0);
    assert_eq!(check(1), 1, "served + exhausted != requests passed");
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn unknown_model_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["analyze", "nonexistent-net"])), 2);
}

#[test]
fn hang_chaos_without_watchdog_is_config_error() {
    // an unwatched hang would wedge the build forever; the CLI refuses
    let code = exit_code(cnnperf().args(["corpus", "--models", "alexnet", "--chaos", "hang=1.0"]));
    assert_eq!(code, 2);
}

#[test]
fn resume_without_journal_dir_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["corpus", "--resume"])), 2);
}

#[test]
fn batch_past_64_requests_is_served_in_full() {
    // 8 models on all 9 devices: no request is shed, each one runs to its
    // own deadline
    let out = cnnperf()
        .args([
            "estimate",
            "alexnet,mobilenet,squeezenet1.1,shufflenet_g4,vit-micro,bert-micro,gpt-micro,deit-micro",
            "--all-devices",
            "--tiers",
            "analytical",
            "--deadline-ms",
            "60000",
        ])
        .output()
        .expect("spawn cnnperf");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("served 72/72"), "{stdout}");
}

#[test]
fn closed_stdout_ends_quietly() {
    // `cnnperf list | head -1` with the reader gone before the first write
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = cnnperf()
        .arg("list")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn cnnperf");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}

#[test]
fn deadline_exceeded_exits_4() {
    // a 1 ms deadline with only the detailed tier cannot be served
    let code = exit_code(cnnperf().args([
        "estimate",
        "vgg16",
        "GTX 1080 Ti",
        "--deadline-ms",
        "1",
        "--tiers",
        "detailed",
    ]));
    assert_eq!(code, 4);
}

#[test]
fn serve_bind_failure_exits_6() {
    // the socket's parent directory does not exist, so bind must fail
    let sock = scratch("no-such-dir").join("server.sock");
    let code = exit_code(cnnperf().args(["serve", "--socket", sock.to_str().expect("utf8 path")]));
    assert_eq!(code, 6);
}

#[test]
fn serve_metrics_bind_failure_exits_6() {
    // an unresolvable metrics address fails the second bind
    let sock = scratch("serve-metrics.sock");
    let _ = std::fs::remove_file(&sock);
    let code = exit_code(cnnperf().args([
        "serve",
        "--socket",
        sock.to_str().expect("utf8 path"),
        "--metrics",
        "999.999.999.999:0",
    ]));
    let _ = std::fs::remove_file(&sock);
    assert_eq!(code, 6);
}

#[test]
fn serve_metrics_without_socket_is_usage_error() {
    assert_eq!(
        exit_code(cnnperf().args(["serve", "--metrics", "127.0.0.1:9095"])),
        2
    );
}

#[test]
fn serve_unusable_model_dir_exits_7() {
    // a path under a file cannot become a directory, so store init fails
    let blocker = scratch("modelstore-blocker");
    std::fs::write(&blocker, "not a directory").expect("write blocker");
    let dir = blocker.join("store");
    let code =
        exit_code(cnnperf().args(["serve", "--model-dir", dir.to_str().expect("utf8 path")]));
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(code, 7);
}

#[test]
fn models_unusable_model_dir_exits_7() {
    let blocker = scratch("models-blocker");
    std::fs::write(&blocker, "not a directory").expect("write blocker");
    let dir = blocker.join("store");
    let code = exit_code(cnnperf().args([
        "models",
        "list",
        "--model-dir",
        dir.to_str().expect("utf8 path"),
    ]));
    let _ = std::fs::remove_file(&blocker);
    assert_eq!(code, 7);
}

#[test]
fn models_rollback_of_empty_store_exits_7() {
    let dir = scratch("empty-store");
    let _ = std::fs::remove_dir_all(&dir);
    let code = exit_code(cnnperf().args([
        "models",
        "rollback",
        "--model-dir",
        dir.to_str().expect("utf8 path"),
    ]));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, 7);
}

#[test]
fn models_without_action_is_usage_error() {
    assert_eq!(exit_code(cnnperf().args(["models"])), 2);
    assert_eq!(exit_code(cnnperf().args(["models", "list"])), 2); // no --model-dir
}

#[test]
fn strict_resume_from_corrupt_journal_exits_5() {
    let dir = scratch("corrupt-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    // a record that cannot possibly pass the checksum
    std::fs::write(
        dir.join("segment-00000.jsonl"),
        "deadbeefdeadbeef {\"garbage\"\n",
    )
    .expect("write corrupt segment");
    let code = exit_code(cnnperf().args([
        "corpus",
        "--models",
        "alexnet",
        "--journal-dir",
        dir.to_str().expect("utf8 dir"),
        "--resume",
        "--strict",
    ]));
    assert_eq!(code, 5);
}
